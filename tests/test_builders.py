"""Differential tests of the digraph builders against the code they replaced.

`combine_chain` adds the edges of the four sums in one pass,
`combine_chain_labelled` checks its labels once, `_tokenize` is one
compiled pattern, and `balanced_orientations` builds only the
orientations it keeps. The earlier code is kept here, and only here, as
the reference: the binary `combine` with its left fold, the labelled
fold, the hand-written lexer, and the walk that built every orientation
before testing it. The new code must give the same digraphs, the same
tokens, the same lists in the same order, and the same error messages.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chromexp.graph import (
    COMBINE_KINDS,
    LT,
    EdgeColouredDigraph,
    EdgeConstraint,
    LabelledDigraph,
    _tokenize,
    balanced_orientations,
    combine,
    combine_chain,
    combine_chain_labelled,
    combine_labelled,
    labelled,
    make,
    simple_cycles,
    simple_graph,
)

# ---------------------------------------------------------------------------
# the earlier implementations

_REF_CROSS = {"dashed": EdgeConstraint.NEQ, "solid": EdgeConstraint.LT,
              "double": EdgeConstraint.LEQ}


def ref_combine(kind, g1, g2):
    if kind not in COMBINE_KINDS:
        raise ValueError(f"unknown combination kind {kind!r}")
    shift = g1.n
    edges = set(g1.edges)
    edges.update((u + shift, v + shift, c) for u, v, c in g2.edges)
    if kind != "disjoint":
        cross = _REF_CROSS[kind]
        edges.update((a, b + shift, cross) for a in range(g1.n) for b in range(g2.n))
    return EdgeColouredDigraph(g1.n + g2.n, frozenset(edges))


def ref_combine_chain(kind, graphs):
    out = make(0)
    for g in graphs:
        out = ref_combine(kind, out, g)
    return out


def ref_combine_labelled(kind, lg1, lg2, shift=False):
    labels2 = lg2.labels
    if shift:
        labels2 = tuple(l + lg1.graph.n for l in labels2)
    if set(lg1.labels) & set(labels2):
        raise ValueError("label sets overlap (pass shift=True to auto-shift)")
    return LabelledDigraph(ref_combine(kind, lg1.graph, lg2.graph), lg1.labels + labels2)


def ref_combine_chain_labelled(kind, lgs):
    out = labelled(make(0))
    for lg in lgs:
        out = ref_combine_labelled(kind, out, lg)
    return out


def ref_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        elif ch.isalnum():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in {text!r}")
    return tokens


def ref_orientations(h):
    edge_pairs = h.edge_list()
    out = []
    for flips in itertools.product((False, True), repeat=len(edge_pairs)):
        edges = [((b, a, LT) if flip else (a, b, LT))
                 for (a, b), flip in zip(edge_pairs, flips)]
        out.append(make(h.n, edges))
    return out


def ref_k_balanced(orientation, cycles, k):
    arcs = {(u, v) for u, v, _ in orientation.edges}
    for cycle in cycles:
        forward = sum(1 for i in range(len(cycle))
                      if (cycle[i], cycle[(i + 1) % len(cycle)]) in arcs)
        if forward < k or len(cycle) - forward < k:
            return False
    return True


def outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


# ---------------------------------------------------------------------------
# the four sums

@st.composite
def digraphs(draw, max_n=4):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    colours = draw(st.lists(st.sampled_from(list(EdgeConstraint)),
                            min_size=len(chosen), max_size=len(chosen)))
    return make(n, [(u, v, c) for (u, v), c in zip(chosen, colours)])


@st.composite
def labelled_digraphs(draw, max_n=3, max_label=10):
    g = draw(digraphs(max_n))
    labels = draw(st.lists(st.integers(min_value=1, max_value=max_label), unique=True,
                           min_size=g.n, max_size=g.n))
    return LabelledDigraph(g, tuple(labels))


KINDS = st.sampled_from(COMBINE_KINDS)


@settings(max_examples=100, deadline=None)
@given(KINDS, st.lists(digraphs(), max_size=5))
def test_chain_is_the_fold_of_the_binary_sum(kind, graphs):
    want = ref_combine_chain(kind, graphs)
    assert combine_chain(kind, graphs) == want
    assert combine_chain(kind, iter(graphs)) == want
    if len(graphs) == 2:
        assert combine(kind, *graphs) == ref_combine(kind, *graphs)


@settings(max_examples=100, deadline=None)
@given(KINDS, st.lists(labelled_digraphs(), max_size=5))
def test_labelled_chain_matches_the_fold(kind, lgs):
    # labels drawn from 1..10 overlap often, so both outcomes occur
    assert outcome(combine_chain_labelled, kind, lgs) == \
        outcome(ref_combine_chain_labelled, kind, lgs)


@settings(max_examples=100, deadline=None)
@given(KINDS, st.lists(digraphs(3), max_size=5), st.randoms(use_true_random=False))
def test_labelled_chain_with_disjoint_labels(kind, graphs, rng):
    labels = list(range(1, sum(g.n for g in graphs) + 1))
    rng.shuffle(labels)
    lgs, start = [], 0
    for g in graphs:
        lgs.append(LabelledDigraph(g, tuple(labels[start:start + g.n])))
        start += g.n
    got = combine_chain_labelled(kind, lgs)
    assert got == ref_combine_chain_labelled(kind, lgs)
    assert got.labels == tuple(labels)


@settings(max_examples=100, deadline=None)
@given(KINDS, labelled_digraphs(), labelled_digraphs(), st.booleans())
def test_labelled_pair_matches_with_and_without_shift(kind, lg1, lg2, shift):
    assert outcome(combine_labelled, kind, lg1, lg2, shift) == \
        outcome(ref_combine_labelled, kind, lg1, lg2, shift)


def test_overlap_and_kind_errors():
    one = labelled(make(1), [1])
    with pytest.raises(ValueError, match=r"label sets overlap \(pass shift=True"):
        combine_chain_labelled("disjoint", [one, one])
    with pytest.raises(ValueError, match="unknown combination kind 'bogus'"):
        combine("bogus", make(1), make(1))
    with pytest.raises(ValueError, match="unknown combination kind 'bogus'"):
        combine_chain("bogus", [])
    # the overlap is reported before the kind, as before
    assert outcome(combine_labelled, "bogus", one, one) == \
        outcome(ref_combine_labelled, "bogus", one, one)


# ---------------------------------------------------------------------------
# the tokenizer

def test_every_code_point_tokenizes_as_before():
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert outcome(_tokenize, ch) == outcome(ref_tokenize, ch), hex(code)
        text = f"C({ch}1)"
        assert outcome(_tokenize, text) == outcome(ref_tokenize, text), hex(code)


MIXED = st.text(alphabet=st.sampled_from("CPQKUDSWchainrdg(),_ \t\n0123²٣éß　-+")
                | st.characters(), max_size=30)


@settings(max_examples=500, deadline=None)
@given(MIXED)
def test_text_tokenizes_as_before(text):
    assert outcome(_tokenize, text) == outcome(ref_tokenize, text)


# ---------------------------------------------------------------------------
# the balanced orientations

def _complete(n):
    return simple_graph(n, itertools.combinations(range(n), 2))


def _random_graphs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield simple_graph(n, [e for e in itertools.combinations(range(n), 2)
                               if rng.random() < 0.5])


@pytest.mark.parametrize("h", [_complete(4), _complete(5), _complete(6),
                               *_random_graphs(1015, 20)],
                         ids=["K4", "K5", "K6", *(f"random-{i}" for i in range(20))])
def test_balanced_orientations_match_the_earlier_walk(h):
    every = ref_orientations(h)
    cycles = simple_cycles(h)
    for k in (1, 2):
        want = [o for o in every if ref_k_balanced(o, cycles, k)]
        assert balanced_orientations(h, k) == want
