"""Every public name in `chromexp` has a reader outside the tests.

A function that only tests read belongs with them: as a reference in
tests/reference.py if a test checks live code against it, or nowhere.
This guard parses src/chromexp/*.py and takes every public top-level
function and class, and every public method of a public class. Each must
occur as a whole word in src/ outside its own definition, in demos/, in
bench/ or in the README. The re-exports of chromexp/__init__.py do not
count: listing a name there is not reading it.

The match is by name only, so it is loose: a name counts as read
wherever the same word occurs, whatever it refers to there. A method
called `size` or `standardize` passes as long as any other `size` or
`standardize` is written somewhere, even if nothing calls the method.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chromexp").glob("*.py"))
READERS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.md")), ROOT / "README.md"]


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and
    class, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_reader_outside_the_tests():
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES}
    outside = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    unread = []
    for path, text in texts.items():
        lines = text.splitlines()
        # chromexp/__init__.py only re-exports: a name listed there has no reader yet
        others = "\n".join(t for p, t in texts.items() if p != path and p.name != "__init__.py")
        for qualname, node in public_definitions(ast.parse(text)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            rest = "\n".join(lines[:start] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in (rest, others, outside)):
                unread.append(f"{path.stem}.{qualname}")
    assert unread == []
