"""The basis-digraph builders against a reference construction.

The builders read one kind -> (combination, atom) table per index type.
The reference below is the earlier construction, one if-chain per
builder with the r-level sides built inline; both must give the same
digraph (vertex count, edge set and labels) and raise the same errors.
"""

import itertools

import pytest

from chromexp import graph as gr
from chromexp.combinat import (
    INFINITY,
    composition,
    compositions,
    partition,
    partitions,
    r_compositions,
    set_compositions,
    set_partitions,
)
from chromexp.graph import atom, atom_labelled, combine, combine_chain, combine_chain_labelled

SYM_KINDS = ("m", "maug", "e", "eaug", "h", "p", "s")
QSYM_KINDS = ("M", "F", "Fbar")
NCSYM_KINDS = ("m", "p", "e")
R_KINDS = ("M", "S", "Fbar", "Sbar")


# ---------------------------------------------------------------------------
# the reference construction

def ref_sym(kind, lam):
    lam = partition(lam)
    if kind == "m":
        groups = []
        for size, grp in itertools.groupby(lam):
            copies = len(list(grp))
            groups.append(combine_chain("solid", [atom("C", size)] * copies))
        return combine_chain("dashed", groups)
    if kind == "maug":
        return combine_chain("dashed", [atom("C", p) for p in lam])
    if kind == "e":
        return combine_chain("disjoint", [atom("P", p) for p in lam])
    if kind == "eaug":
        return combine_chain("disjoint", [atom("K", p) for p in lam])
    if kind == "h":
        return combine_chain("disjoint", [atom("Q", p) for p in lam])
    if kind == "p":
        return combine_chain("disjoint", [atom("C", p) for p in lam])
    if kind == "s":
        return gr.grid(lam)
    raise ValueError(f"unknown symmetric basis kind {kind!r}")


def ref_qsym(kind, alpha):
    alpha = composition(alpha)
    if kind == "M":
        return combine_chain("solid", [atom("C", p) for p in alpha])
    if kind == "F":
        return combine_chain("solid", [atom("Q", p) for p in alpha])
    if kind == "Fbar":
        return combine_chain("double", [atom("C", p) for p in alpha])
    raise ValueError(f"unknown quasisymmetric basis kind {kind!r}")


def ref_r(kind, beta, mu):
    beta = composition(beta)
    mu = partition(mu)
    if kind in ("M", "S"):
        left = combine_chain("solid", [atom("C", p) for p in beta])
    elif kind in ("Fbar", "Sbar"):
        left = combine_chain("double", [atom("C", p) for p in beta])
    else:
        raise ValueError(f"unknown r-basis kind {kind!r}")
    if kind in ("M", "Fbar"):
        right = combine_chain("dashed", [atom("C", p) for p in mu])
    else:
        right = gr.grid(mu)
    return combine("dashed", left, right)


def ref_ncqsym(kind, phi):
    if kind == "M":
        return combine_chain_labelled("solid", [atom_labelled("C", b) for b in phi])
    if kind == "F":
        return combine_chain_labelled("solid", [atom_labelled("Q", b) for b in phi])
    if kind == "Fbar":
        return combine_chain_labelled("double", [atom_labelled("C", b) for b in phi])
    raise ValueError(f"unknown noncommutative basis kind {kind!r}")


def ref_ncsym(kind, pi):
    if kind == "m":
        return combine_chain_labelled("dashed", [atom_labelled("C", b) for b in pi])
    if kind == "p":
        return combine_chain_labelled("disjoint", [atom_labelled("C", b) for b in pi])
    if kind == "e":
        return combine_chain_labelled("disjoint", [atom_labelled("K", b) for b in pi])
    raise ValueError(f"no single digraph for NCSym basis kind {kind!r}")


def assert_same_digraph(got, want):
    if isinstance(want, gr.LabelledDigraph):
        assert isinstance(got, gr.LabelledDigraph)
        assert got.labels == want.labels
        got, want = got.graph, want.graph
    assert isinstance(got, gr.EdgeColouredDigraph)
    assert got.n == want.n
    assert got.edges == want.edges


# ---------------------------------------------------------------------------
# equal digraphs

def test_sym_and_qsym_digraphs_match_up_to_degree_six():
    for n in range(7):
        for lam in partitions(n):
            for kind in SYM_KINDS:
                assert_same_digraph(gr.sym_basis_digraph(kind, lam), ref_sym(kind, lam))
        for alpha in compositions(n):
            for kind in QSYM_KINDS:
                assert_same_digraph(gr.qsym_basis_digraph(kind, alpha), ref_qsym(kind, alpha))


def test_labelled_digraphs_match_up_to_four_elements():
    for n in range(5):
        for phi in set_compositions(n):
            for kind in QSYM_KINDS:
                assert_same_digraph(gr.ncqsym_basis_digraph(kind, phi), ref_ncqsym(kind, phi))
        for pi in set_partitions(n):
            for kind in NCSYM_KINDS:
                assert_same_digraph(gr.ncsym_basis_digraph(kind, pi), ref_ncsym(kind, pi))


@pytest.mark.parametrize("r", [1, 2, 3, INFINITY])
def test_r_digraphs_match_up_to_degree_five(r):
    count = 0
    for n in range(6):
        for rc in r_compositions(n, r):
            for kind in R_KINDS:
                assert_same_digraph(gr.r_basis_digraph(kind, rc.beta, rc.mu),
                                    ref_r(kind, rc.beta, rc.mu))
                count += 1
    assert count


# ---------------------------------------------------------------------------
# the same errors, raised in the same order

def raised(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


# (builder, reference, arguments after the kind, its kinds)
BUILDERS = [
    (gr.sym_basis_digraph, ref_sym, ((2, 1),), SYM_KINDS),
    (gr.qsym_basis_digraph, ref_qsym, ((1, 2),), QSYM_KINDS),
    (gr.r_basis_digraph, ref_r, ((2,), (1,)), R_KINDS),
    (gr.ncqsym_basis_digraph, ref_ncqsym, (((2,), (1,)),), QSYM_KINDS),
    (gr.ncsym_basis_digraph, ref_ncsym, (((1,), (2,)),), NCSYM_KINDS),
]
KINDS = sorted(set(SYM_KINDS + QSYM_KINDS + R_KINDS) | {"X", "", "M ", "sym:m", "S", "h "})


@pytest.mark.parametrize("build, ref, args, known", BUILDERS)
def test_unknown_kinds_raise_the_same_message(build, ref, args, known):
    for kind in KINDS:
        if kind not in known:
            message = raised(ref, kind, *args)
            assert message.endswith(f"kind {kind!r}")
            assert raised(build, kind, *args) == message


def test_a_bad_index_raises_before_a_bad_kind():
    for kind in ("X", "m", "s", "maug"):
        for lam in ((1, 2), (0,), (-1,)):
            message = raised(ref_sym, kind, lam)
            assert "kind" not in message
            assert raised(gr.sym_basis_digraph, kind, lam) == message
    for kind in ("X", "M", "Fbar"):
        for alpha in ((0,), (1, -2)):
            message = raised(ref_qsym, kind, alpha)
            assert "kind" not in message
            assert raised(gr.qsym_basis_digraph, kind, alpha) == message
        for beta, mu in (((0,), (1,)), ((1,), (1, 2)), ((1,), (0,))):
            message = raised(ref_r, kind, beta, mu)
            assert "kind" not in message
            assert raised(gr.r_basis_digraph, kind, beta, mu) == message


def test_labelled_builders_raise_the_same_errors_on_bad_blocks():
    # the labelled builders leave the index to atom_labelled, after the kind
    for kind in ("X", "M", "F", "Fbar"):
        assert (raised(gr.ncqsym_basis_digraph, kind, ((),))
                == raised(ref_ncqsym, kind, ((),)))
    for kind in ("X", "m", "p", "e"):
        assert raised(gr.ncsym_basis_digraph, kind, ((),)) == raised(ref_ncsym, kind, ((),))
