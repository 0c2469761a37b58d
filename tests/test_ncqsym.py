import itertools
import math
import random

import pytest

from chromexp import combinat
from chromexp.chromatic import expand
from chromexp.combinat import (
    RSetComposition,
    partitions,
    set_composition,
    set_compositions,
    set_partition,
    set_partitions,
    r_set_compositions,
)
from chromexp.graph import (
    atom_labelled,
    combine_chain_labelled,
    combine_labelled,
    grid,
    labelled,
    make,
    ncqsym_basis_digraph,
    ncsym_basis_digraph,
)
from chromexp.ncqsym import (
    NCQSymExpr,
    NCQSymTensor,
    RegroupError,
    _blockwise_symmetrized,
    basis_nc,
    basis_ncr,
    basis_ncsym,
    basis_ncsym_e_paths,
    coproduct_nc,
    coproduct_nc_digraph,
    expand_nc,
    in_ncqsym_r,
    mr_F,
    mr_inject_check,
    ncqsym_from_json,
    ncqsym_to_json,
    r_regroup,
    r_regroup_tensor,
    rho,
    symmetrize,
    to_ncqsym_basis,
    to_ncsym_m,
)
from chromexp.oracle import assert_equal, direct_expand_nc, realize_nc
from chromexp.qsym import (
    QSymExpr,
    QSymTensor,
    basis_Fbar,
    basis_F,
    basis_M,
    basis_sym,
    qsym_from_json,
)
from chromexp.tpoly import TPoly
from chromexp.verify import random_digraph
from reference import permutation_inverse, r_coordinates_to_json, relabel, standardize_word


def sc(*blocks):
    return set_composition(blocks)


def sp(*blocks):
    return set_partition(blocks)


def random_labelled(rng, max_n, min_n=1):
    n = rng.randint(min_n, max_n)
    edges = [(u, v, rng.choice(("neq", "lt", "leq")))
             for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.45]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labelled(make(n, edges), labels)


# ---------------------------------------------------------------------------
# the labelled expansion

def test_expand_nc_monomial_example():
    lg = ncsym_basis_digraph("m", sp((1, 3), (2, 4)))
    assert expand_nc(lg).at_t(1) == basis_ncsym("m", sp((1, 3), (2, 4)))


def test_expand_nc_power_sum_example():
    f = basis_ncsym("p", sp((1, 3), (2, 4)))
    words = realize_nc(f, 2)
    assert words.terms.get((1, 2, 1, 2)) == TPoly.of(1)
    assert words.terms.get((2, 1, 2, 1)) == TPoly.of(1)
    assert words.terms.get((1, 1, 1, 1)) == TPoly.of(1)
    assert words.terms.get((1, 2, 2, 1)) is None


def test_expand_nc_single_vertex():
    assert expand_nc(labelled(make(1))) == NCQSymExpr({((1,),): 1})


def test_expand_nc_standardizes_labels():
    lg = labelled(make(2, [(0, 1, "lt")]), (4, 9))
    assert expand_nc(lg) == expand_nc(labelled(make(2, [(0, 1, "lt")]), (1, 2)))


def test_rho_on_bases():
    for phi in set_compositions(3):
        assert rho(basis_nc("M", phi)) == basis_M(combinat.shape(phi))
        assert rho(basis_nc("Fbar", phi)) == basis_Fbar(combinat.shape(phi))
        assert rho(basis_nc("F", phi)) == basis_F(combinat.shape(phi))


def test_rho_commutes_with_expansion():
    rng = random.Random(0)
    for _ in range(30):
        lg = random_labelled(rng, 5)
        assert rho(expand_nc(lg)) == expand(lg.graph)


# ---------------------------------------------------------------------------
# product and coproduct

def test_monomial_product_example():
    m1 = basis_nc("M", sc((1,)))
    assert m1 * m1 == NCQSymExpr({sc((1,), (2,)): 1, sc((2,), (1,)): 1, sc((1, 2)): 1})


def test_coproduct_example():
    got = coproduct_nc(basis_nc("M", sc((1, 2), (3,))))
    want = NCQSymTensor({
        ((), sc((1, 2), (3,))): 1,
        (sc((1, 2)), sc((1,))): 1,
        (sc((1, 2), (3,)), ()): 1,
    })
    assert got == want


def test_shifted_product_formula():
    rng = random.Random(1)
    for _ in range(20):
        lg1, lg2 = random_labelled(rng, 3), random_labelled(rng, 3)
        lhs = expand_nc(lg1) * expand_nc(lg2)
        rhs = expand_nc(combine_labelled("disjoint", lg1, lg2, shift=True))
        assert lhs == rhs


def test_coproduct_digraph_matches_algebraic():
    rng = random.Random(2)
    for _ in range(20):
        lg = random_labelled(rng, 5)
        assert coproduct_nc_digraph(lg) == coproduct_nc(expand_nc(lg).at_t(1))


def test_rho_is_an_algebra_map():
    rng = random.Random(3)
    for _ in range(15):
        f = expand_nc(random_labelled(rng, 4))
        g = expand_nc(random_labelled(rng, 4))
        assert rho(f * g) == rho(f) * rho(g)


# ---------------------------------------------------------------------------
# bases

def test_fundamental_worked_example():
    assert basis_nc("F", sc((1, 3), (2, 4))) == NCQSymExpr({
        sc((1, 3), (2, 4)): 1, sc((1,), (3,), (2, 4)): 1,
        sc((1, 3), (2,), (4,)): 1, sc((1,), (3,), (2,), (4,)): 1})


def test_upper_fundamental_worked_example():
    assert basis_nc("Fbar", sc((1, 3), (2, 4))) == NCQSymExpr({
        sc((1, 3), (2, 4)): 1, sc((1, 2, 3, 4)): 1})


def test_single_block_fundamental():
    phi = sc((1, 2, 3))
    assert basis_nc("F", phi) == expand_nc(ncqsym_basis_digraph("F", phi)).at_t(1)


def test_bases_match_digraphs():
    for n in range(5):
        for phi in set_compositions(n):
            for kind in ("M", "F", "Fbar"):
                assert basis_nc(kind, phi) == \
                    expand_nc(ncqsym_basis_digraph(kind, phi)).at_t(1)


def test_h_worked_example():
    h = basis_ncsym("h", sp((1, 3), (2, 4)))
    coords = to_ncsym_m(h)
    assert coords[sp((1, 2, 3, 4))] == TPoly.of(4)
    assert coords[sp((1, 3), (2, 4))] == TPoly.of(4)
    assert coords[sp((1, 3), (2,), (4,))] == TPoly.of(2)
    assert len(coords) == 15
    assert _blockwise_symmetrized(sp((1, 3), (2, 4)), "Q").at_t(1) == h


def test_elementary_two_routes_agree():
    for n in range(1, 5):
        for pi in set_partitions(n):
            assert basis_ncsym("e", pi) == basis_ncsym_e_paths(pi)


def test_elementary_word_example():
    e = basis_ncsym("e", sp((1, 3), (2, 4)))
    words = realize_nc(e, 4)
    assert words.terms.get((1, 1, 2, 2)) == TPoly.of(1)
    assert words.terms.get((2, 2, 1, 1)) == TPoly.of(1)
    assert words.terms.get((1, 2, 2, 1)) == TPoly.of(1)
    assert words.terms.get((1, 2, 3, 4)) == TPoly.of(1)
    assert words.terms.get((1, 2, 1, 2)) is None


def test_rosas_sagan_functions():
    for n in range(1, 5):
        by_shape = {}
        for pi in set_partitions(n):
            s = basis_ncsym("S", pi)
            lam = combinat.shape_partition(pi)
            assert rho(s) == basis_sym("s", lam).scale(math.factorial(n))
            if lam in by_shape:
                assert by_shape[lam] == s
            else:
                for other in by_shape.values():
                    assert other != s
                by_shape[lam] = s


def test_symmetrize_single_vertex():
    assert symmetrize(labelled(make(1))) == NCQSymExpr({((1,),): 1})


def test_symmetrize_edgeless_commutes_with_rho():
    for n in range(1, 4):
        lg = labelled(make(n))
        assert rho(symmetrize(lg)) == rho(expand_nc(lg)).scale(math.factorial(n))


def symmetrize_by_expanding_each_relabelling(lg):
    """The reference: the n! relabellings of the labelling, each expanded."""
    labels = sorted(lg.labels)
    return NCQSymExpr.sum_of(expand_nc(relabel(lg, dict(zip(labels, perm))))
                             for perm in itertools.permutations(labels))


def test_symmetrize_matches_expanding_every_relabelling():
    """Terms, coefficients and term order, on seeded random labelled
    digraphs with arbitrary label sets and on every grid up to 5 cells."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(200):
        g = random_digraph(rng, 4, min_n=0)
        cases.append(labelled(g, rng.sample(range(1, 10), g.n)))
    cases += [labelled(grid(lam)) for n in range(6) for lam in partitions(n)]
    for lg in cases:
        expected = symmetrize_by_expanding_each_relabelling(lg)
        assert list(symmetrize(lg).terms.items()) == list(expected.terms.items()), lg


def test_symmetrize_cap():
    from chromexp.graph import atom
    with pytest.raises(ValueError):
        symmetrize(labelled(atom("P", 6)))
    symmetrize(labelled(atom("P", 6)), max_labels=6)


# ---------------------------------------------------------------------------
# the permutation fundamental family

def test_mr_image_of_worked_permutation():
    sigma = (8, 3, 6, 7, 9, 1, 5, 2, 4)
    assert mr_F(sigma) == basis_nc("F", sc((8,), (3, 6, 7, 9), (1, 5), (2, 4)))


def test_mr_identity_permutation():
    assert mr_F((1, 2, 3)) == basis_nc("F", sc((1, 2, 3)))


def test_mr_realization_matches_standardization_fiber():
    # F_sigma sums words standardizing to the inverse permutation
    sigma = (2, 3, 1)
    inv = permutation_inverse(sigma)
    k = 3
    words = realize_nc(mr_F(sigma), k)
    expected = {}
    for word in itertools.product(range(1, k + 1), repeat=3):
        if standardize_word(word) == inv:
            expected[word] = TPoly.of(1)
    assert words.terms == expected


def test_mr_injection_multiplicative_exhaustive_s2():
    for s in itertools.permutations((1, 2)):
        for t in itertools.permutations((1, 2)):
            assert mr_inject_check(s, t)


def test_mr_injection_multiplicative_sampled_s3():
    rng = random.Random(4)
    perms = list(itertools.permutations((1, 2, 3)))
    for _ in range(6):
        assert mr_inject_check(rng.choice(perms), rng.choice(perms))


# ---------------------------------------------------------------------------
# the r-level structure

def _r_monomial_digraph(phi, pi):
    left = combine_chain_labelled("solid", [atom_labelled("C", b) for b in phi])
    right = combine_chain_labelled("dashed", [atom_labelled("C", b) for b in pi])
    return combine_labelled("dashed", left, right)


def test_r_monomial_matches_its_digraph():
    for rsc in r_set_compositions(4, 2):
        got = basis_ncr("M", rsc.phi, rsc.pi, 2)
        want = expand_nc(_r_monomial_digraph(rsc.phi, rsc.pi)).at_t(1)
        assert got == want


def test_r_upper_fundamental_expansion():
    f = basis_ncr("Fbar", sc((1, 2), (3, 4)), sp(), 2)
    want = basis_ncr("M", sc((1, 2), (3, 4)), sp(), 2) + \
        basis_ncr("M", sc((1, 2, 3, 4)), sp(), 2)
    assert f == want


def test_regroup_roundtrip():
    f = basis_ncr("M", sc((2, 4)), sp((1,), (3,)), 2)
    coords = r_regroup(f, 2)
    assert coords == {RSetComposition(2, sc((2, 4)), sp((1,), (3,))): TPoly.of(1)}


def test_regroup_failure_reports_fiber():
    f = NCQSymExpr({sc((2, 4), (1,), (3,)): 1})  # one member of a 6-element fiber
    with pytest.raises(RegroupError) as err:
        r_regroup(f, 2)
    assert err.value.fiber_index == (sc((2, 4)), sp((1,), (3,)))
    assert len(err.value.details) == 5


def test_product_closure():
    a = basis_ncr("M", sc((1, 2)), sp((3,)), 2)
    b = basis_ncr("M", sc((1,),), sp(), 1)
    assert in_ncqsym_r(a * a, 2)
    assert in_ncqsym_r(basis_ncr("M", sc((2, 4)), sp((1,), (3,)), 2)
                       * basis_ncr("M", sc((1, 2)), sp(), 2), 2)
    assert in_ncqsym_r(b, 1)


def test_coproduct_closure_worked_example():
    m = basis_ncr("M", sc((2, 4)), sp((1,), (3,)), 2)
    grouped = r_regroup_tensor(coproduct_nc(m), 2)
    assert len(grouped) == 8
    key = (RSetComposition(2, (), sp((1,))), RSetComposition(2, sc((1, 3)), sp((2,))))
    assert grouped[key] == TPoly.of(1)


def test_ncsym_sits_in_every_r_level():
    p = basis_ncsym("p", sp((1, 3), (2, 4)))
    for r in (1, 2, 3, combinat.INFINITY):
        assert in_ncqsym_r(p, r)


def test_ncqsym_m_coordinates_reject_asymmetric():
    with pytest.raises(ValueError):
        to_ncsym_m(basis_nc("M", sc((1,), (2,))))


def test_to_ncqsym_basis_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        f = expand_nc(random_labelled(rng, 4)).at_t(1)
        for kind in ("F", "Fbar"):
            coords = to_ncqsym_basis(f, kind)
            rebuilt = NCQSymExpr()
            for phi, coeff in coords.items():
                rebuilt = rebuilt + basis_nc(kind, phi).scale(coeff)
            assert rebuilt == f


# ---------------------------------------------------------------------------
# oracles and serialization

def test_direct_expansion_agreement():
    rng = random.Random(6)
    for _ in range(20):
        lg = random_labelled(rng, 4)
        report = assert_equal(realize_nc(expand_nc(lg), lg.graph.n),
                              direct_expand_nc(lg, lg.graph.n))
        assert report.ok, report.detail


def test_json_roundtrip():
    f = expand_nc(labelled(make(2, [(0, 1, "neq")]), (2, 1)))
    data = ncqsym_to_json(f)
    assert ncqsym_from_json(data) == f


_BAD_SET_COMPOSITIONS = {
    "nonpositive-part": ((0,), (1,)),
    "overlapping-blocks": ((1, 2), (2,)),
    "empty-block": ((1,), ()),
    "not-initial-segment": ((2,), (3,)),
}
# a composition's parts are block sizes: it can only have a nonpositive
# or an empty (zero) part
_BAD_COMPOSITIONS = {"nonpositive-part": (2, -1), "empty-block": (1, 0)}

_BUILDERS = {
    "QSymExpr": (_BAD_COMPOSITIONS, lambda k: QSymExpr({k: 1})),
    "QSymTensor-left": (_BAD_COMPOSITIONS, lambda k: QSymTensor({(k, (1,)): 1})),
    "QSymTensor-right": (_BAD_COMPOSITIONS, lambda k: QSymTensor({((1,), k): 1})),
    "qsym_from_json": (_BAD_COMPOSITIONS, lambda k: qsym_from_json(
        {"terms": [{"composition": list(k), "coeff_t": [1]}]})),
    "NCQSymExpr": (_BAD_SET_COMPOSITIONS, lambda k: NCQSymExpr({k: 1})),
    "NCQSymTensor-left": (_BAD_SET_COMPOSITIONS, lambda k: NCQSymTensor({(k, ((1,),)): 1})),
    "NCQSymTensor-right": (_BAD_SET_COMPOSITIONS, lambda k: NCQSymTensor({(((1,),), k): 1})),
    "ncqsym_from_json": (_BAD_SET_COMPOSITIONS, lambda k: ncqsym_from_json(
        {"terms": [{"set_composition": [list(b) for b in k], "coeff_t": [1]}]})),
    "basis_nc": (_BAD_SET_COMPOSITIONS, lambda k: basis_nc("F", k)),
}


@pytest.mark.parametrize("build, key", [
    pytest.param(build, key, id=f"{name}-{case}")
    for name, (cases, build) in _BUILDERS.items() for case, key in cases.items()])
def test_keys_must_cover_initial_segments(build, key):
    """The public constructors and readers validate every key; only the
    results of algebra operations are trusted."""
    with pytest.raises(ValueError):
        build(key)


def test_r_coordinates_serialize():
    m = basis_ncr("M", sc((2, 4)), sp((1,), (3,)), 2)
    data = r_coordinates_to_json(r_regroup(m, 2))
    assert data == {"terms": [{"comp_part": [[2, 4]], "part_part": [[1], [3]],
                               "coeff_t": [1]}]}


def test_monomial_eight_element_worked_example():
    # four double cycles chained solidly realize the indicator M term
    phi = sc((2, 4), (3, 7, 8), (6,), (1, 5))
    assert expand_nc(ncqsym_basis_digraph("M", phi)).at_t(1) == basis_nc("M", phi)


def test_upper_fundamental_eight_element_worked_example():
    phi = sc((2, 4), (3, 7, 8), (6,), (1, 5))
    f = expand_nc(ncqsym_basis_digraph("Fbar", phi)).at_t(1)
    assert f == basis_nc("Fbar", phi)
    assert len(f.terms) == 8  # one term per way of merging the three bars
