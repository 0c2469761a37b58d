import random

import pytest

from chromexp.chromatic import (
    _digits,
    chromatic_number,
    coproduct_digraph,
    crew_spirkl,
    dual_immaculate,
    ellzey,
    expand,
    humpert,
    humpert_direct,
    p_partition_gf,
    row_strict_dual_immaculate,
    shareshian_wachs,
    split_dashed,
    stanley,
)
from chromexp.graph import (
    atom,
    combine,
    make,
    simple_graph,
    underlying_graph,
)
from chromexp.qsym import QSymExpr, QSymTensor, basis_sym, coproduct, evaluate_ones, chromatic_polynomial
from chromexp.tpoly import TPoly

TRIANGLE = make(3, [(0, 1, "neq"), (1, 2, "lt"), (2, 0, "leq")])
FIG7 = make(3, [(0, 1, "lt"), (1, 2, "lt"), (2, 0, "leq")])


def random_digraph(rng, max_n, min_n=1):
    n = rng.randint(min_n, max_n)
    edges = [(u, v, rng.choice(("neq", "lt", "leq")))
             for u in range(n) for v in range(n)
             if u != v and rng.random() < 0.45]
    return make(n, edges)


# ---------------------------------------------------------------------------
# expand

def test_expand_triangle():
    f = expand(TRIANGLE)
    # the colouring (2,1,2) is the only one with two levels, and has one ascent
    assert f == QSymExpr({(1, 2): TPoly.t_power(1), (1, 1, 1): TPoly.t_power(2)})


def test_expand_infeasible_cycle_is_zero():
    assert expand(FIG7) == QSymExpr()


def test_expand_single_dashed_edge():
    f = expand(make(2, [(0, 1, "neq")]))
    assert f == QSymExpr({(1, 1): TPoly((1, 1))})


def test_expand_empty_digraph_is_unit():
    assert expand(make(0)) == QSymExpr.one()


def test_expand_homogeneous():
    rng = random.Random(0)
    for _ in range(20):
        g = random_digraph(rng, 5)
        f = expand(g)
        assert all(sum(alpha) == g.n for alpha in f.support())


def test_expand_zero_iff_no_chromatic_number():
    rng = random.Random(1)
    for _ in range(40):
        g = random_digraph(rng, 4)
        assert (expand(g) == QSymExpr()) == (chromatic_number(g) is None)


def test_product_formula_with_t():
    rng = random.Random(2)
    for _ in range(20):
        g1, g2 = random_digraph(rng, 4, 0), random_digraph(rng, 4, 0)
        assert expand(g1) * expand(g2) == expand(combine("disjoint", g1, g2))


# ---------------------------------------------------------------------------
# dashed splitting

def test_split_dashed_single_edge():
    k2 = make(2, [(0, 1, "neq")])
    lt, gt = split_dashed(k2, (0, 1, "neq"))
    assert lt == atom("P", 2)
    assert gt == make(2, [(1, 0, "lt")])
    assert expand(lt).at_t(1) + expand(gt).at_t(1) == QSymExpr({(1, 1): 2})


def test_split_dashed_rejects_other_edges():
    with pytest.raises(ValueError):
        split_dashed(TRIANGLE, (1, 2, "lt"))
    with pytest.raises(ValueError):
        split_dashed(TRIANGLE, (0, 2, "neq"))


def test_split_dashed_identity_random():
    rng = random.Random(3)
    done = 0
    while done < 60:
        g = random_digraph(rng, 5)
        dashed = [e for e in g.edge_list() if e[2].value == "neq"]
        if not dashed:
            continue
        for edge in dashed:
            lt, gt = split_dashed(g, edge)
            assert expand(lt).at_t(1) + expand(gt).at_t(1) == expand(g).at_t(1)
            done += 1


def test_split_dashed_seven_vertex_example():
    g = make(7, [(0, 1, "leq"), (1, 0, "leq"), (1, 2, "neq"), (2, 3, "lt"),
                 (3, 4, "leq"), (4, 3, "leq"), (4, 5, "leq"), (5, 6, "leq"), (6, 4, "leq")])
    lt, gt = split_dashed(g, (1, 2, "neq"))
    assert expand(lt).at_t(1) + expand(gt).at_t(1) == expand(g).at_t(1)


# ---------------------------------------------------------------------------
# digraph-side coproduct

def test_coproduct_single_vertex():
    g = make(1)
    got = coproduct_digraph(g)
    assert got == QSymTensor({((), (1,)): 1, ((1,), ()): 1})


def test_coproduct_matches_deconcatenation():
    rng = random.Random(4)
    for _ in range(25):
        g = random_digraph(rng, 5)
        assert coproduct_digraph(g) == coproduct(expand(g).at_t(1))


# ---------------------------------------------------------------------------
# chromatic number

def test_chromatic_numbers():
    assert chromatic_number(atom("C", 4)) == 1
    assert chromatic_number(atom("K", 3)) == 3
    assert chromatic_number(FIG7) is None
    assert chromatic_number(make(0)) == 0
    assert chromatic_number(atom("P", 3)) == 3


# ---------------------------------------------------------------------------
# adapters

def test_stanley_path():
    h = simple_graph(3, [(0, 1), (1, 2)])
    poly = chromatic_polynomial(stanley(h))
    assert all(poly(p) == p * (p - 1) ** 2 for p in range(7))


def test_stanley_is_t_free_and_symmetric():
    from chromexp.qsym import is_symmetric
    h = simple_graph(3, [(0, 1), (1, 2), (0, 2)])
    f = stanley(h)
    assert f.t_degree() <= 0
    assert is_symmetric(f)


def test_shareshian_wachs_edge():
    f = shareshian_wachs(simple_graph(2, [(0, 1)]))
    assert f == QSymExpr({(1, 1): TPoly((1, 1))})


def test_ellzey_matches_stanley_at_one():
    rng = random.Random(5)
    for _ in range(25):
        g = random_digraph(rng, 5)
        d = make(g.n, [(u, v, "neq") for u, v, _ in g.edge_list()])
        assert ellzey(d).at_t(1) == stanley(underlying_graph(d))


def test_crew_spirkl_weighted_vertex():
    assert crew_spirkl(simple_graph(1, []), [2]) == basis_sym("p", (2,))


def test_crew_spirkl_unit_weights_reduce_to_stanley():
    h = simple_graph(3, [(0, 1), (1, 2)])
    assert crew_spirkl(h, [1, 1, 1]) == stanley(h)


def test_p_partition_chains():
    assert p_partition_gf([(1, 2)]) == basis_sym("h", (2,))
    assert p_partition_gf([(2, 1)]) == basis_sym("e", (2,))
    assert p_partition_gf([], [1, 2]) == basis_sym("p", (1, 1))


def test_dual_immaculate_small():
    assert dual_immaculate((1, 2)) == QSymExpr({(1, 1, 1): 1, (1, 2): 1})
    assert row_strict_dual_immaculate((1, 2)) == QSymExpr({(1, 1, 1): 1, (2, 1): 1})


def test_humpert_triangle_k1_is_stanley():
    h = simple_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert humpert(h, 1) == stanley(h)
    assert humpert(h, 1) == humpert_direct(h, 1)


def test_humpert_forest_any_k():
    h = simple_graph(4, [(0, 1), (1, 2), (1, 3)])
    for k in (1, 2, 3):
        assert humpert(h, k) == stanley(h)
        assert humpert(h, k) == humpert_direct(h, k)


def test_humpert_four_cycle_k2():
    h = simple_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert humpert(h, 2) == humpert_direct(h, 2)
    assert humpert(h, 2) != humpert(h, 1)


def test_evaluate_ones_requires_specialized_t():
    f = expand(make(2, [(0, 1, "neq")]))
    with pytest.raises(ValueError):
        evaluate_ones(f, 3)
    assert evaluate_ones(f.at_t(1), 3) == 6


def _literal_p_partitions(elements, less_pairs, k):
    """P-partitions straight from the definition, using the full order
    relation rather than cover edges."""
    import itertools
    from chromexp.oracle import TruncPoly

    elements = sorted(elements)
    out = {}
    for values in itertools.product(range(1, k + 1), repeat=len(elements)):
        f = dict(zip(elements, values))
        ok = True
        for a, b in less_pairs:
            if a < b:
                if not f[a] <= f[b]:
                    ok = False
                    break
            elif not f[a] < f[b]:
                ok = False
                break
        if ok:
            exps = [0] * k
            for v in values:
                exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, TPoly()) + TPoly.of(1)
    return TruncPoly(k, out)


def test_p_partition_adapter_matches_literal_enumeration():
    from chromexp.oracle import realize

    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        elements = rng.sample(range(1, 12), n)
        order = sorted(elements)
        less = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    pair = (order[i], order[j])
                    less.add(pair if rng.random() < 0.5 else pair[::-1])
        changed = True
        while changed:
            changed = False
            for a, b in list(less):
                for c, d in list(less):
                    if b == c and a != d and (a, d) not in less:
                        less.add((a, d))
                        changed = True
        if any((b, a) in less for a, b in less):
            continue  # drew a cycle; draw again
        f = p_partition_gf(sorted(less), elements)
        assert realize(f, n) == _literal_p_partitions(elements, sorted(less), n)
        done += 1


def digit_loop(packed, width):
    """expand's unpack before the split in halves: one digit shifted off
    at a time."""
    digit = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & digit)
        packed >>= width
    return coeffs


@pytest.mark.parametrize("width", [1, 2, 7, 20, 64, 65])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 1000])
def test_digits_by_halving_match_the_digit_loop(count, width):
    rng = random.Random(count * 1000 + width)
    for zero_share in (0.0, 0.5, 0.95):
        # runs of zero digits leave the halves with leading zeros
        digits = [0 if rng.random() < zero_share else rng.getrandbits(width)
                  for _ in range(count - 1)]
        digits.append(rng.randrange(1, 1 << width))  # the top digit is nonzero
        packed = sum(d << (i * width) for i, d in enumerate(digits))
        assert _digits(packed, width, count) == digit_loop(packed, width) == digits
    assert _digits(0, width, 0) == digit_loop(0, width) == []


def test_expand_keeps_its_coefficients_past_64_powers_of_t():
    """A solid path's 65 rising edges make t^65, the single term of its
    expansion, which is unpacked by halving."""
    assert expand(make(66, [(i, i + 1, "lt") for i in range(65)])).terms == {
        (1,) * 66: TPoly.t_power(65)}
