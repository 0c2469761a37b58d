"""Malformed JSON through every --json reader of the command line.

Each reader (`expand`, `coproduct`, `combine`, `balanced --graph`) gets
hypothesis-generated documents: arbitrary JSON values, documents close to
the digraph and graph schemas, and text that is not JSON at all. Every
call must end in exit 0, or in exit 3 with one `error:` line on stderr
and nothing on stdout; an exception escaping `main` fails the test.

Vertex counts stay below six, so that a document which happens to be
valid expands in milliseconds: the readers are under test here, not the
cost of large inputs.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from chromexp.cli import main

READERS = (
    ("expand", "--json", "-"),
    ("expand", "--nc", "--json", "-"),
    ("coproduct", "--json", "-"),
    ("coproduct", "--nc", "--json", "-"),
    ("combine", "--json", "-"),
    ("balanced", "--graph", "-", "--k", "1"),
)

KINDS = ("neq", "lt", "leq")
SMALL = st.integers(min_value=-2, max_value=5)
HUGE = st.sampled_from([2**70, -2**70, 10**400 // 10**380])
LEAVES = (st.none() | st.booleans() | SMALL | st.floats(allow_nan=True)
          | st.text(max_size=4) | st.sampled_from(KINDS + ("n", "edges", "labels")))
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3) | st.sampled_from(("n", "edges")),
                                     inner, max_size=4)),
    max_leaves=10)


def mostly(right, wrong):
    """right three times in four, so that a near-schema document gets past
    the first checks of a reader and reaches the later ones."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda i: wrong if i == 0 else right)


COUNTS = st.integers(min_value=0, max_value=5)
VERTICES = mostly(COUNTS, st.just(-1) | HUGE | VALUES)
EDGES = st.lists(
    st.tuples(VERTICES, VERTICES, mostly(st.sampled_from(KINDS), VALUES), st.booleans()).map(
        lambda e: [e[0], e[1], e[2]] if e[3] else [e[0], e[1]]),
    max_size=4)
LABELS = mostly(st.permutations(range(1, 6)).flatmap(
                    lambda p: st.integers(0, 5).map(lambda k: list(p[:k]))),
                st.lists(st.integers(min_value=-1, max_value=6) | HUGE, max_size=6) | VALUES)
NEAR_SCHEMA = st.fixed_dictionaries(
    {"n": mostly(COUNTS, st.just(-1) | LEAVES)},
    optional={"edges": mostly(EDGES, VALUES), "labels": LABELS, "extra": VALUES})

def call(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_outcome(text):
    for argv in READERS:
        code, out, err = call(argv, text)
        if code == 0:
            assert err == ""
            continue
        assert code == 3, (argv, text, err)
        assert out == ""
        line, = err.splitlines()
        assert line.startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(NEAR_SCHEMA)
def test_near_schema_documents_exit_zero_or_three(doc):
    assert_clean_outcome(json.dumps(doc))


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_arbitrary_json_values_exit_zero_or_three(value):
    assert_clean_outcome(json.dumps(value))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=12) | st.sampled_from(['{"n": 2', '{"n": NaN}', '{"n": Infinity}',
                                               '[' * 5000, '{"n": ' + '9' * 5000 + '}']))
def test_text_that_may_not_be_json_exits_zero_or_three(text):
    assert_clean_outcome(text)


def test_undecodable_bytes_exit_three(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"n": "\xff"}')
    for argv in READERS:
        argv = [str(path) if a == "-" else a for a in argv]
        code, out, err = call(argv, "")
        assert code == 3 and out == ""
        line, = err.splitlines()
        assert line.startswith("error: ")
