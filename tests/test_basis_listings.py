"""Differential and boundary tests of the noncommutative basis listings.

`bases` builds each listing once per degree from the enumerators'
canonical keys, through the trusted cores `_basis_nc`, `_basis_ncr` and
`ncsym_basis`, which check nothing. Every listing is compared, in
listing order and term for term, with the element built one key at a
time from its definition (`reference.definition_basis_*`): adding and
removing bars by hand, `bar_shuffle` for the r-level elements, and the
digraphs or symmetrizations for NCSym. The public per-element builders
must still reject every malformed input they rejected before.
"""

import itertools

import pytest

from chromexp import cli, ncqsym
from chromexp.combinat import (
    INFINITY,
    _reformations,
    partitions,
    r_compositions,
    r_set_compositions,
    reformations,
    set_compositions,
    set_partitions,
)
from chromexp.ncqsym import basis_nc, basis_ncr, basis_ncsym
from chromexp.qsym import basis_r
from reference import (
    definition_basis_nc,
    definition_basis_ncr,
    definition_basis_ncsym,
    definition_corruptions,
    definition_reformations,
)

NC_KINDS = ("M", "F", "Fbar")
NCSYM_KINDS = ("m", "p", "e", "h", "S")


def assert_same_listing(got, want):
    """Equal indices in the same order, and equal elements: the same
    terms, each with the same coefficient of the same type."""
    assert [index for index, _ in got] == [index for index, _ in want]
    for (index, f), (_, g) in zip(got, want):
        assert f.terms == g.terms, index
        assert all(type(f.terms[k]) is type(g.terms[k]) for k in g.terms), index


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("kind", NC_KINDS)
def test_ncqsym_listing_matches_the_definitions(kind, n):
    want = [(phi, definition_basis_nc(kind, phi)) for phi in set_compositions(n)]
    assert_same_listing(cli._basis_elements("ncqsym", n, None, kind), want)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("kind", NCSYM_KINDS)
def test_ncsym_listing_matches_the_definitions(kind, n):
    want = [(pi, definition_basis_ncsym(kind, pi)) for pi in set_partitions(n)]
    assert_same_listing(cli._basis_elements("ncqsym", n, None, kind), want)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("r", (2, 3, 4))
@pytest.mark.parametrize("kind", ("M", "Fbar"))
def test_ncqsym_r_listing_matches_the_definitions(kind, r, n):
    want = [({"r": r, "comp": [list(b) for b in rsc.phi], "part": [list(b) for b in rsc.pi]},
             definition_basis_ncr(kind, rsc.phi, rsc.pi))
            for rsc in r_set_compositions(n, r)]
    assert_same_listing(cli._basis_elements("ncqsym-r", n, r, kind), want)


@pytest.mark.parametrize("r", (2, 3, INFINITY))
def test_qsym_r_listing_matches_the_public_builder(r):
    for kind in ("M", "S", "Fbar", "Sbar"):
        want = [({"r": "inf" if r is INFINITY else r, "comp": list(rc.beta),
                  "part": list(rc.mu)}, basis_r(kind, rc.beta, rc.mu, r))
                for rc in r_compositions(4, r)]
        assert_same_listing(cli._basis_elements("qsym-r", 4, r, kind), want)


def test_enumerated_pairs_equal_the_checked_ones():
    """The enumerators build their pairs without checks; each equals,
    and hashes as, the pair that the checking constructor makes."""
    for r in (1, 2, 3, INFINITY):
        for rc in r_compositions(5, r):
            checked = type(rc)(r, rc.beta, rc.mu)
            assert rc == checked and hash(rc) == hash(checked)
        for rsc in r_set_compositions(4, r):
            checked = type(rsc)(r, rsc.phi, rsc.pi)
            assert rsc == checked and hash(rsc) == hash(checked)


def test_bar_changes_match_their_definitions():
    for n in range(7):
        for psi in set_compositions(n):
            lean = _reformations(psi)
            assert len(lean) == len(set(lean))
            assert set(lean) == reformations(psi) == definition_reformations(psi)
            assert set(ncqsym._corruptions(psi)) == definition_corruptions(psi)


@pytest.mark.parametrize("n", range(6))
def test_s_listing_symmetrizes_once_per_shape(monkeypatch, n):
    calls = []
    symmetrize = ncqsym.symmetrize

    def counted(lg, *args):
        calls.append(lg)
        return symmetrize(lg, *args)

    monkeypatch.setattr(ncqsym, "symmetrize", counted)
    listing = ncqsym.ncsym_basis("S", n)
    assert len(calls) == sum(1 for _ in partitions(n))
    assert list(listing) == list(set_partitions(n))


def test_the_listing_memo_lives_in_one_call():
    """Two listings share no element: nothing is cached across calls."""
    first, second = ncqsym.ncsym_basis("S", 3), ncqsym.ncsym_basis("S", 3)
    assert first == second
    assert all(first[pi] is not second[pi] for pi in first)


# ---------------------------------------------------------------------------
# the public builders still check what they are handed

_REJECTED = {
    "basis_nc": {
        "repeated-element": lambda: basis_nc("F", ((1, 1), (2,))),
        "overlapping-blocks": lambda: basis_nc("M", ((1, 2), (2, 3))),
        "empty-block": lambda: basis_nc("Fbar", ((1,), ())),
        "not-initial-segment": lambda: basis_nc("F", ((2,), (3,))),
        "unknown-kind": lambda: basis_nc("S", ((1,),)),
    },
    "basis_ncsym": {
        "repeated-element": lambda: basis_ncsym("p", ((1, 1), (2,))),
        "overlapping-blocks": lambda: basis_ncsym("m", ((1, 2), (2,))),
        "empty-block": lambda: basis_ncsym("S", ((1,), ())),
        "unknown-kind": lambda: basis_ncsym("M", ((1,),)),
    },
    "basis_ncr": {
        "overlapping-grounds": lambda: basis_ncr("M", ((1, 2),), ((2,),), 2),
        "phi-block-below-r": lambda: basis_ncr("M", ((1,), (2, 3)), (), 2),
        "pi-block-at-least-r": lambda: basis_ncr("Fbar", ((1, 2),), ((3, 4),), 2),
        "repeated-element": lambda: basis_ncr("M", ((1, 1, 2),), ((3,),), 2),
        "empty-block": lambda: basis_ncr("Fbar", ((1, 2), ()), ((3,),), 2),
        "not-initial-segment": lambda: basis_ncr("M", ((2, 3),), ((4,),), 2),
        "unknown-kind": lambda: basis_ncr("F", ((1, 2),), ((3,),), 2),
        "bad-r": lambda: basis_ncr("M", ((1, 2),), (), 0),
    },
    "basis_r": {
        "phi-block-below-r": lambda: basis_r("M", (1, 2), (), 2),
        "pi-block-at-least-r": lambda: basis_r("Fbar", (2,), (2, 1), 2),
        "empty-block": lambda: basis_r("M", (2, 0), (), 2),
        "unknown-kind": lambda: basis_r("F", (2,), (1,), 2),
        "bad-r": lambda: basis_r("M", (2,), (), True),
    },
}


@pytest.mark.parametrize("build", [
    pytest.param(build, id=f"{name}-{case}")
    for name, cases in _REJECTED.items() for case, build in cases.items()])
def test_public_builders_reject_malformed_input(build):
    with pytest.raises(ValueError):
        build()


def test_the_listings_reject_an_unknown_kind_at_every_degree():
    for n, (space, r) in itertools.product(range(3), (("ncqsym", None), ("ncqsym-r", 2),
                                                       ("qsym-r", 2))):
        with pytest.raises(ValueError, match="unknown"):
            cli._basis_elements(space, n, r, "X")
