"""Differential checks of the CLI's JSON writers.

`cli._dumps` and the row writer `cli._dumps_terms` must each give the
text of `json.dumps(data, indent=2)` and a newline, byte for byte;
`json.dumps` is the reference. The hypothesis documents for `_dumps` mix what the writer
renders itself (dicts with str keys, lists and tuples, lists of ints
that repeat) with what it hands back to json (other scalars, empty
containers, dicts with non-str keys), at every depth. The row writer is
checked on what the three term-list builders return. `_dumps` writes a
QSymExpr or NCQSymExpr in a document from its term map, and must give
the text of the document with each expansion replaced by its builder's,
`qsym_to_json` or `ncqsym_to_json`: the builders are the reference for
those bytes.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import cli, graph as gr
from chromexp.chromatic import expand
from chromexp.cli import main
from chromexp.graph import labelled, make
from chromexp.ncqsym import (
    NCQSymExpr,
    coproduct_nc,
    expand_nc,
    ncqsym_tensor_to_json,
    ncqsym_to_json,
)
from chromexp.qsym import (
    SYM_KINDS,
    QSymExpr,
    coproduct,
    qsym_tensor_to_json,
    qsym_to_json,
)
from chromexp.tpoly import TPoly, tpoly_to_json
from chromexp.verify import random_digraph, random_labelled_digraph

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
    assert cli._dumps(data) == json.dumps(data, indent=2) + "\n"


def test_writer_matches_json_dumps_on_repeated_int_lists_at_several_depths():
    block = [1, 2]
    data = {"a": [block, [block], {"b": block}], "c": [[1, 2], (1, 2), [True, 2]],
            "d": [[], {}, [[]], [1.0, 2]], "é\n": [-10**30, 0]}
    assert cli._dumps(data) == json.dumps(data, indent=2) + "\n"


# flat lists of ints and strs, which the writer renders in one step
INT_STR_LISTS = st.lists(st.one_of(st.integers(), TEXT), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(INT_STR_LISTS, max_size=4), st.dictionaries(TEXT, INT_STR_LISTS, max_size=3))
def test_writer_matches_json_dumps_on_int_and_str_lists(rows, fields):
    for data in (rows, fields, {"edges": rows, "n": 3}, [rows, fields]):
        assert cli._dumps(data) == json.dumps(data, indent=2) + "\n"


def test_writer_matches_json_dumps_on_edges_fractions_and_escaped_text():
    g = random_digraph(random.Random(7), 8)
    f = expand(g).scale(Fraction(-7, 3))
    docs = [
        gr.digraph_to_json(g),
        gr.digraph_to_json(labelled(g, [3 * v + 1 for v in range(g.n)])),
        qsym_to_json(f + f.scale(TPoly.t_power(2))),
        {"coeff_t": ["1/3", 0, "-7/2", 5], "composition": [1, 2]},
        {"é": [1, "é", '"', "\\", "\n", "\t", "\x00", "😀", -10**30, "a\"b\\c"]},
        # bools, None and floats are not ints or strs and keep the fallback
        {"terms": [[1, True, "a"], [None, "a", 2], [1.5, "x"], ["only", "strs"]]},
    ]
    for data in docs:
        assert cli._dumps(data) == json.dumps(data, indent=2) + "\n"


def unshared_to_json(f):
    """ncqsym_to_json as it was before its terms shared lists."""
    return {"terms": [{"set_composition": [list(b) for b in phi],
                       "coeff_t": tpoly_to_json(coeff)}
                      for phi, coeff in f.items_sorted()]}


def unshared_tensor_to_json(t):
    """ncqsym_tensor_to_json as it was before its terms shared lists."""
    return {"terms": [{"left": [list(b) for b in a], "right": [list(b) for b in b_],
                       "coeff_t": tpoly_to_json(coeff)}
                      for (a, b_), coeff in t.items_sorted()]}


def nc_reference_text(f):
    return json.dumps(ncqsym_to_json(f), indent=2) + "\n"


def assert_rows_match(f):
    """The sharing builders equal the unshared ones, the row writer
    prints json.dumps' text of what they return, and the nc expansion
    writer prints the same text from the term map."""
    assert cli._dumps(f) == nc_reference_text(f)
    tensor = coproduct_nc(f)
    for doc, reference in ((ncqsym_to_json(f), unshared_to_json(f)),
                           (ncqsym_tensor_to_json(tensor), unshared_tensor_to_json(tensor))):
        assert doc == reference
        assert cli._dumps_terms(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       keep_t=st.booleans(),
       factor=st.sampled_from([1, -3, Fraction(1, 3), Fraction(-7, 2), Fraction(10**20, 7)]))
def test_row_writer_matches_json_dumps_on_nc_expansions(seed, keep_t, factor):
    lg = random_labelled_digraph(random.Random(seed), 6, min_n=0)
    f = expand_nc(lg)
    assert_rows_match((f if keep_t else f.at_t(1)).scale(factor))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), keep_t=st.booleans())
def test_row_writer_matches_json_dumps_on_commutative_coproducts(seed, keep_t):
    f = expand(random_digraph(random.Random(seed), 6, min_n=0))
    doc = qsym_tensor_to_json(coproduct(f if keep_t else f.at_t(1)))
    assert cli._dumps_terms(doc) == json.dumps(doc, indent=2) + "\n"


def test_row_writer_on_empty_expansions_and_empty_legs():
    zero = NCQSymExpr()
    assert ncqsym_to_json(zero) == {"terms": []}
    assert cli._dumps_terms({"terms": []}) == json.dumps({"terms": []}, indent=2) + "\n"
    # a double-edge cycle with a dashed edge inside expands to zero
    infeasible = expand_nc(labelled(make(3, [(0, 1, "leq"), (1, 2, "leq"), (2, 0, "leq"),
                                             (0, 2, "neq")])))
    assert infeasible == zero
    # the empty digraph expands to its one key () of degree 0
    empty = expand_nc(labelled(make(0)))
    assert empty == NCQSymExpr({(): 1})
    assert cli._dumps(empty).count('"set_composition": []') == 1
    for f in (zero, infeasible, empty, empty.scale(Fraction(-7, 2)),
              expand_nc(labelled(make(2))),
              expand_nc(labelled(make(3, [(0, 1, "lt")]))).scale(Fraction(-1, 2))):
        assert_rows_match(f)


def test_nc_writer_on_seven_edgeless_vertices():
    """One term per ordered set partition of [7]: more rows, blocks and
    shared texts than any hypothesis example."""
    f = expand_nc(labelled(make(7))).at_t(1)
    assert len(f.terms) == 47293
    assert cli._dumps(f) == nc_reference_text(f)
    # every coproduct has a term with an empty left and one with an empty right leg
    rows = ncqsym_tensor_to_json(coproduct_nc(expand_nc(labelled(make(2)))))["terms"]
    assert any(not row["left"] for row in rows) and any(not row["right"] for row in rows)


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
    "product-nc": ["product", "--nc", "--dsl", "C(1)", "--dsl", "S(C(1),C(1))", "--t"],
    "verify": ["verify", "--suite", "tables", "--n", "3"],
    "bases": ["bases", "--space", "ncqsym-r", "--n", "3", "--kind", "M"],
    "mr": ["mr", "3142"],
    "balanced": ["balanced", "--graph", "GRAPH", "--k", "1"],
}

# the documents that hold expansions, which _dumps writes from their term
# maps, and every tensor's bare term list, which goes to the row writer
EXPANSION_SITES = {"expand-nc", "product-nc", "bases", "balanced"}
ROW_SITES = {"coproduct", "coproduct-nc"}


def builder_document(data):
    """data with each QSymExpr or NCQSymExpr in it replaced by its
    builder's document, qsym_to_json or ncqsym_to_json of it."""
    kind = type(data)
    if kind is QSymExpr:
        return qsym_to_json(data)
    if kind is NCQSymExpr:
        return ncqsym_to_json(data)
    if kind is dict:
        return {key: builder_document(value) for key, value in data.items()}
    if kind is list or kind is tuple:
        return [builder_document(value) for value in data]
    return data


def holds_expansion(data) -> bool:
    kind = type(data)
    if kind is QSymExpr or kind is NCQSymExpr:
        return True
    if kind is dict:
        data = data.values()
    elif kind is not list and kind is not tuple:
        return False
    return any(map(holds_expansion, data))


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_every_emit_site_prints_json_dumps_text(site, balanced_graph, monkeypatch, capsys):
    """Each site hands one value to a writer, `_dumps` or the row writer
    `_dumps_terms`, and prints json.dumps' text of its document, where
    each expansion in it stands for the document its builder makes."""
    emitted = []

    def recording(name):
        write = getattr(cli, name)

        def record(data):
            emitted.append((name, data))
            return write(data)
        return record

    for name in ("_dumps", "_dumps_terms"):
        monkeypatch.setattr(cli, name, recording(name))
    argv = [balanced_graph if a == "GRAPH" else a for a in CALL_SITES[site]]
    assert main(argv) == 0
    ((writer, data),) = emitted
    assert writer == ("_dumps_terms" if site in ROW_SITES else "_dumps")
    assert holds_expansion(data) == (site in EXPANSION_SITES)
    data = builder_document(data)
    assert capsys.readouterr().out == json.dumps(data, indent=2) + "\n"


def _expansions():
    """Expansions of both algebras with every layout the writer has: no
    terms, the key () of degree 0, several degrees (a QSymExpr's
    components), and int, negative, Fraction and t-polynomial
    coefficients."""
    t_poly = TPoly([0, -2, Fraction(1, 3)])
    return [
        QSymExpr(),
        QSymExpr({(): 1}),
        QSymExpr({(2, 1): Fraction(-7, 2), (1, 2): t_poly, (3,): 1}),
        QSymExpr({(): -1, (1,): Fraction(1, 3), (2, 1): t_poly, (1, 1, 1): 5}),
        expand(make(3, [(0, 1, "lt"), (1, 2, "leq")])),
        NCQSymExpr(),
        NCQSymExpr({(): 1}),
        NCQSymExpr({((1,), (2,)): -3, ((1, 2),): Fraction(5, 7), ((2,), (1,)): t_poly}),
        expand_nc(labelled(make(3, [(0, 1, "lt"), (1, 2, "leq")]))),
    ]


def test_expansions_at_depths_zero_one_and_three():
    for f in _expansions():
        for doc in (f, {"a": f}, [f, 3], {"x": [{"y": f, "z": [1, 2]}], "w": None}):
            assert cli._dumps(doc) == json.dumps(builder_document(doc), indent=2) + "\n"


def test_expansions_sharing_blocks_and_coefficients_at_several_depths():
    """One document's expansions share their texts per indent: the same
    blocks, compositions and coefficients recur here at depths 0 to 4."""
    fs = _expansions()
    doc = [fs, {"a": fs, "b": [[fs[3], fs[7]], {"c": [fs[7], fs[3]]}]}, fs[7], fs[3]]
    assert cli._dumps(doc) == json.dumps(builder_document(doc), indent=2) + "\n"


BASES = [("qsym", kind, 4) for kind in ("M", "F", "Fbar", *SYM_KINDS)] + [
    ("ncqsym", kind, 3) for kind in ("M", "F", "Fbar", "m", "p", "e", "h", "S")] + [
    ("qsym-r", kind, 3) for kind in ("M", "S", "Fbar", "Sbar")] + [
    ("ncqsym-r", kind, 3) for kind in ("M", "Fbar")]


@pytest.mark.parametrize("space, kind, max_n", BASES,
                         ids=[f"{space}-{kind}" for space, kind, _ in BASES])
def test_bases_listing_prints_json_dumps_text_of_its_builder_document(
        space, kind, max_n, capsys):
    to_json = ncqsym_to_json if space.startswith("nc") else qsym_to_json
    for n in range(max_n + 1):
        assert main(["bases", "--space", space, "--n", str(n), "--kind", kind]) == 0
        doc = {"space": space, "kind": kind, "n": n,
               "r": None if space in ("qsym", "ncqsym") else 2,
               "elements": [{"index": index, "expansion": to_json(f)}
                            for index, f in cli._basis_elements(space, n, 2, kind)]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
