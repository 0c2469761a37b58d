"""Differential checks of the CLI's JSON writer.

`cli._dumps` must give the text of `json.dumps(data, indent=2)` byte for
byte; `json.dumps` is the reference. The hypothesis documents mix what
the writer renders itself (dicts with str keys, lists and tuples, lists
of ints that repeat) with what it hands back to json (other scalars,
empty containers, dicts with non-str keys), at every depth.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import cli
from chromexp.cli import main

TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "é", " ", "😀", "a\"b\\c"]),
)
LEAVES = st.one_of(
    st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.booleans(),
    st.none(),
    TEXT,
    st.floats(),
)
# Small ints and bools make equal-looking lists ([1] and [True]) meet in
# one document, so the writer's reuse of rendered int lists is exercised.
INT_LISTS = st.one_of(
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
    st.lists(st.booleans(), max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(tuple),
)
KEYS = st.one_of(TEXT, st.integers(min_value=-2, max_value=2), st.booleans(),
                 st.none(), st.floats(allow_nan=False))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=3),
    )


DOCUMENTS = st.recursive(st.one_of(LEAVES, INT_LISTS), _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_writer_matches_json_dumps(data):
    assert cli._dumps(data) == json.dumps(data, indent=2)


def test_writer_matches_json_dumps_on_repeated_int_lists_at_several_depths():
    block = [1, 2]
    data = {"a": [block, [block], {"b": block}], "c": [[1, 2], (1, 2), [True, 2]],
            "d": [[], {}, [[]], [1.0, 2]], "é\n": [-10**30, 0]}
    assert cli._dumps(data) == json.dumps(data, indent=2)


@pytest.fixture
def balanced_graph(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    return str(path)


CALL_SITES = {
    "expand": ["expand", "--dsl", "D(C(2),S(C(1),C(1)))", "--t"],
    "expand-nc": ["expand", "--nc", "--dsl", "D(C(2),S(C(1),C(1)))"],
    "expand-nc-F": ["expand", "--nc", "--basis", "F", "--dsl", "S(C(2),C(1))"],
    "expand-nc-m": ["expand", "--nc", "--basis", "m", "--dsl", "U(C(1),C(1))"],
    "expand-F": ["expand", "--basis", "F", "--dsl", "D(C(2),S(C(1),C(1)))"],
    "expand-sym": ["expand", "--basis", "sym:s", "--dsl", "U(K(3))"],
    "poly": ["poly", "--dsl", "W(C(2),C(1))"],
    "poly-eval": ["poly", "--dsl", "U(K(3))", "--eval", "3"],
    "combine": ["combine", "--dsl", "D(C(2),S(C(1),C(1)))"],
    "coproduct": ["coproduct", "--dsl", "S(C(2),C(1))", "--t"],
    "coproduct-nc": ["coproduct", "--nc", "--dsl", "S(C(2),C(1))"],
    "product": ["product", "--dsl", "C(2)", "--dsl", "S(C(1),C(1))"],
    "verify": ["verify", "--suite", "tables", "--n", "3"],
    "bases": ["bases", "--space", "ncqsym-r", "--n", "3", "--kind", "M"],
    "mr": ["mr", "3142"],
    "balanced": ["balanced", "--graph", "GRAPH", "--k", "1"],
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_every_emit_site_prints_json_dumps_text(site, balanced_graph, monkeypatch, capsys):
    emitted = []
    write = cli._dumps

    def recording(data):
        emitted.append(data)
        return write(data)

    monkeypatch.setattr(cli, "_dumps", recording)
    argv = [balanced_graph if a == "GRAPH" else a for a in CALL_SITES[site]]
    assert main(argv) == 0
    (data,) = emitted
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"
