"""Seeded verification suites behind the command-line `verify`
subcommand: oracle agreement, the Hopf identities, the basis tables,
and the r-level closure. Each suite returns a result object carrying a
machine-readable counterexample when something fails."""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import chromatic, combinat, graph as gr, ncqsym, oracle, qsym
from .combinat import (
    compositions,
    coarsenings,
    partitions,
    r_compositions,
    r_set_compositions,
    set_compositions,
    set_partitions,
    shape_partition,
    lambda_factorial,
    lambda_superfactorial,
)
from .graph import digraph_to_json
from .linalg import exact_rank
from .qsym import QSymExpr, coproduct
from .ncqsym import (
    NCQSymExpr,
    RegroupError,
    basis_nc,
    basis_ncr,
    basis_ncsym,
    basis_ncsym_e_paths,
    coproduct_nc,
    expand_nc,
    ncsym_h_meet,
    ncsym_m_expr,
    r_regroup,
    r_regroup_tensor,
    rho,
)
from .tpoly import evaluate


@dataclass
class VerifyResult:
    suite: str
    ok: bool = True
    checks: int = 0
    counterexample: dict | None = None
    notes: list = field(default_factory=list)

    def fail(self, **info):
        if self.ok:
            self.ok = False
            self.counterexample = {"suite": self.suite, **info}

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": self.checks,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# seeded random inputs

CONSTRAINTS = ("neq", "lt", "leq")
EDGE_PROB = 0.45


def random_digraph(rng: random.Random, max_n: int, min_n: int = 1) -> gr.EdgeColouredDigraph:
    n = rng.randint(min_n, max_n)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < EDGE_PROB:
                edges.append((u, v, rng.choice(CONSTRAINTS)))
    return gr.make(n, edges)


def random_labelled_digraph(rng: random.Random, max_n: int,
                            min_n: int = 1) -> gr.LabelledDigraph:
    g = random_digraph(rng, max_n, min_n)
    labels = list(range(1, g.n + 1))
    rng.shuffle(labels)
    return gr.labelled(g, labels)


# ---------------------------------------------------------------------------
# oracle agreement

def verify_oracle(trials: int = 200, max_n: int = 5, seed: int = 0) -> VerifyResult:
    """Symbolic expansion versus literal colouring enumeration, with the
    full t-grading, in both commuting and noncommuting variables."""
    result = VerifyResult("oracle")
    rng = random.Random(seed)
    for trial in range(trials):
        g = random_digraph(rng, max_n)
        k = g.n
        report = oracle.assert_equal(oracle.realize(chromatic.expand(g), k),
                                     oracle.direct_expand(g, k))
        result.checks += 1
        if not report.ok:
            result.fail(trial=trial, seed=seed, digraph=digraph_to_json(g),
                        detail=report.detail)
            return result
        if trial % 4 == 0:
            lg = random_labelled_digraph(rng, max_n)
            report = oracle.assert_equal(
                oracle.realize_nc(expand_nc(lg), lg.graph.n),
                oracle.direct_expand_nc(lg, lg.graph.n))
            result.checks += 1
            if not report.ok:
                result.fail(trial=trial, seed=seed, digraph=digraph_to_json(lg),
                            detail=report.detail)
                return result
    return result


# ---------------------------------------------------------------------------
# Hopf identities

def _triple_splits(tensor, apply_left):
    """(delta x id) of a tensor when apply_left, else (id x delta), as a
    dict keyed by triples, with the coproduct of the tensor's leg class
    and one memo of its splits for the call."""
    splits = tensor._leg._splits
    memo = combinat._splits_memo()
    out: dict = {}
    for (a, b), coeff in tensor.terms.items():
        target, fixed = (a, b) if apply_left else (b, a)
        for first, second in splits(target, memo):
            pieces = (first, second, fixed) if apply_left else (fixed, first, second)
            qsym._merge(out, pieces, coeff)
    return out


def _counit_legs(tensor):
    """(id x counit) and (counit x id) of a tensor, as term dicts."""
    terms = tensor.terms.items()
    return {a: c for (a, b), c in terms if not b}, {b: c for (a, b), c in terms if not a}


def verify_hopf(trials: int = 50, max_n: int = 4, seed: int = 0,
                stats: dict | None = None) -> VerifyResult:
    """Product and coproduct identities, digraph side against algebra
    side, plus coassociativity, compatibility, and the counit.

    When `stats` is a dict, it maps each identity to its check count and
    the seconds since the check before it (building its inputs included).
    """
    result = VerifyResult("hopf")
    rng = random.Random(seed)
    mark = time.perf_counter()

    def check(identity, holds, g, other=None) -> bool:
        nonlocal mark
        result.checks += 1
        if stats is not None:
            now = time.perf_counter()
            entry = stats.setdefault(identity, {"checks": 0, "seconds": 0.0})
            entry["checks"] += 1
            entry["seconds"] += now - mark
            mark = now
        if not holds:
            graphs = {"digraph": digraph_to_json(g)}
            if other is not None:
                graphs["other"] = digraph_to_json(other)
            result.fail(identity=identity, trial=trial, seed=seed, **graphs)
        return holds

    for trial in range(trials):
        g1 = random_digraph(rng, max_n)
        g2 = random_digraph(rng, max_n)
        f1, f2 = chromatic.expand(g1), chromatic.expand(g2)
        if not check("product",
                     f1 * f2 == chromatic.expand(gr.combine("disjoint", g1, g2)), g1, g2):
            return result

        lg1 = random_labelled_digraph(rng, max_n)
        lg2 = random_labelled_digraph(rng, max_n)
        y1, y2 = expand_nc(lg1), expand_nc(lg2)
        disjoint = gr.combine_labelled("disjoint", lg1, lg2, shift=True)
        if not check("nc-product", y1 * y2 == expand_nc(disjoint), lg1, lg2):
            return result

        g = random_digraph(rng, max_n)
        if not check("coproduct",
                     chromatic.coproduct_digraph(g) == coproduct(chromatic.expand(g).at_t(1)),
                     g):
            return result

        lg = random_labelled_digraph(rng, max_n)
        if not check("nc-coproduct",
                     ncqsym.coproduct_nc_digraph(lg) == coproduct_nc(expand_nc(lg).at_t(1)),
                     lg):
            return result

        # coassociativity, compatibility, counit on the same samples
        f = chromatic.expand(g).at_t(1)
        delta = coproduct(f)
        if not check("coassociativity",
                     _triple_splits(delta, True) == _triple_splits(delta, False),
                     g):
            return result
        left, right = _counit_legs(delta)
        if not check("counit", QSymExpr._of(left) == f and QSymExpr._of(right) == f, g):
            return result
        pair = f1.at_t(1), f2.at_t(1)
        if not check("bialgebra",
                     coproduct(pair[0] * pair[1]) == coproduct(pair[0]) * coproduct(pair[1]),
                     g1, g2):
            return result

        y = expand_nc(lg).at_t(1)
        delta_nc = coproduct_nc(y)
        if not check("nc-coassociativity",
                     _triple_splits(delta_nc, True) == _triple_splits(delta_nc, False),
                     lg):
            return result
        pair = y1.at_t(1), y2.at_t(1)
        if not check("nc-bialgebra",
                     coproduct_nc(pair[0] * pair[1])
                     == coproduct_nc(pair[0]) * coproduct_nc(pair[1]),
                     lg1, lg2):
            return result

        # the commutation map is an algebra map
        if not check("rho-algebra-map", rho(y1 * y2) == rho(y1) * rho(y2), lg1, lg2):
            return result
    return result


# ---------------------------------------------------------------------------
# the basis tables

def _immaculate_contents(alpha, row_strict: bool) -> dict[tuple, int]:
    """Tableau oracle for the composition grids: fillings of the diagram
    of alpha, rows weakly increasing and first column strictly increasing
    (roles swapped when row_strict), counted per content."""
    row_gap, column_gap = (1, 0) if row_strict else (0, 1)

    def admissible(left, above, value):
        if left is not None:
            return value >= left + row_gap
        return above is None or value >= above + column_gap  # the first column

    return combinat.tableau_contents(alpha, admissible)


def _ncsym_direct(pi, n, meets) -> NCQSymExpr:
    """NCSym elements directly: M over the set compositions of [n] in
    which each block b of pi meets exactly meets(b) blocks. One block
    gives the power sum, len(b) blocks the elementary element."""
    terms = {}
    for phi in set_compositions(n):
        lookup = {x: idx for idx, block in enumerate(phi) for x in block}
        if all(len({lookup[x] for x in block}) == meets(block) for block in pi):
            terms[phi] = 1
    return NCQSymExpr(terms)


def verify_tables(n: int = 5, sym_n: int = 4) -> VerifyResult:
    """Every basis-table row identity up to degree n (degree sym_n for
    the symmetrized constructions), plus the tableau oracles and the
    augmented-scaling identities."""
    result = VerifyResult("tables")

    def check(condition, **info):
        result.checks += 1
        if not condition:
            result.fail(**info)
        return result.ok

    for m in range(n + 1):
        for lam in partitions(m):
            for kind in ("m", "maug", "e", "eaug", "h", "p", "s"):
                if not check(
                        qsym.basis_sym(kind, lam)
                        == chromatic.expand(gr.sym_basis_digraph(kind, lam)).at_t(1),
                        table="sym", kind=kind, index=list(lam)):
                    return result
            if not check(qsym.basis_sym("maug", lam)
                         == qsym.basis_sym("m", lam).scale(lambda_superfactorial(lam)),
                         table="sym", kind="maug-scaling", index=list(lam)):
                return result
            if not check(qsym.basis_sym("eaug", lam)
                         == qsym.basis_sym("e", lam).scale(lambda_factorial(lam)),
                         table="sym", kind="eaug-scaling", index=list(lam)):
                return result

        for alpha in compositions(m):
            for kind, maker in (("M", qsym.basis_M), ("F", qsym.basis_F),
                                ("Fbar", qsym.basis_Fbar)):
                if not check(
                        maker(alpha)
                        == chromatic.expand(gr.qsym_basis_digraph(kind, alpha)).at_t(1),
                        table="qsym", kind=kind, index=list(alpha)):
                    return result
            # upper-fundamental expansion identity
            if not check(qsym.basis_Fbar(alpha)
                         == QSymExpr({g: 1 for g in coarsenings(alpha)}),
                         table="qsym", kind="Fbar-coarsening", index=list(alpha)):
                return result
            # composition grids against the tableau oracle
            for row_strict in (False, True):
                grid_fn = (chromatic.row_strict_dual_immaculate if row_strict
                           else chromatic.dual_immaculate)
                want = QSymExpr(_immaculate_contents(alpha, row_strict))
                if not check(grid_fn(alpha) == want, table="grid",
                             row_strict=row_strict, index=list(alpha)):
                    return result

        for phi in set_compositions(m):
            for kind in ("M", "F", "Fbar"):
                if not check(
                        basis_nc(kind, phi)
                        == expand_nc(gr.ncqsym_basis_digraph(kind, phi)).at_t(1),
                        table="ncqsym", kind=kind, index=[list(b) for b in phi]):
                    return result

        for pi in set_partitions(m):
            if not check(basis_ncsym("m", pi) == ncsym_m_expr(pi),
                         table="ncsym", kind="m", index=[list(b) for b in pi]):
                return result
            if not check(basis_ncsym("p", pi) == _ncsym_direct(pi, m, lambda block: 1),
                         table="ncsym", kind="p", index=[list(b) for b in pi]):
                return result
            if not check(basis_ncsym("e", pi) == _ncsym_direct(pi, m, len),
                         table="ncsym", kind="e", index=[list(b) for b in pi]):
                return result
            if m <= sym_n:
                if not check(basis_ncsym("e", pi) == basis_ncsym_e_paths(pi),
                             table="ncsym", kind="e-paths", index=[list(b) for b in pi]):
                    return result
                if not check(basis_ncsym("h", pi) == ncsym_h_meet(pi),
                             table="ncsym", kind="h", index=[list(b) for b in pi]):
                    return result

        # full symmetrization of the labelled grid, by shape
        if 1 <= m <= sym_n:
            import math
            shapes = {}
            for pi in set_partitions(m):
                lam = shape_partition(pi)
                s_pi = shapes.get(lam)
                if s_pi is None:
                    s_pi = shapes[lam] = basis_ncsym("S", pi)
                if not check(rho(s_pi) == qsym.basis_sym("s", lam).scale(math.factorial(m)),
                             table="ncsym", kind="S-rho", index=[list(b) for b in pi]):
                    return result
            values = list(shapes.values())
            for a, b in itertools.combinations(values, 2):
                if not check(a != b, table="ncsym", kind="S-distinct", index=m):
                    return result
            vectors = [{k: Fraction(evaluate(c, 1)) for k, c in s.terms.items()}
                       for s in values]
            if not check(exact_rank(vectors) == len(values),
                         table="ncsym", kind="S-span", index=m):
                return result
    return result


# ---------------------------------------------------------------------------
# the r-level structure

def verify_r_closure(n_qsym: int = 5, n_nc: int = 4, r: int = 2,
                     seed: int = 0, trials: int = 20) -> VerifyResult:
    """Rank checks for the four commutative r-bases and the two
    noncommutative ones, plus regrouping of sampled products and
    coproducts (the Hopf-closure argument)."""
    if trials > 0 and n_nc < 1:
        raise ValueError("closure trials need samples of degree 1 or more: "
                         f"n_nc is {n_nc}")
    result = VerifyResult("r-closure")
    rng = random.Random(seed)

    for m in range(n_qsym + 1):
        rcs = list(r_compositions(m, r))
        for kind in ("M", "S", "Fbar", "Sbar"):
            vectors = []
            for rc in rcs:
                f = qsym.basis_r(kind, rc.beta, rc.mu, r)
                vectors.append({k: Fraction(evaluate(c, 1)) for k, c in f.terms.items()})
                result.checks += 1
                if not qsym.in_qsym_r(f, r):
                    result.fail(part="qsym-span", kind=kind, degree=m,
                                index=combinat.r_composition_to_json(rc))
                    return result
            result.checks += 1
            if exact_rank(vectors) != len(rcs):
                result.fail(part="qsym-rank", kind=kind, degree=m, expected=len(rcs))
                return result

    all_rscs = []
    for m in range(n_nc + 1):
        rscs = list(r_set_compositions(m, r))
        all_rscs.extend(rscs)
        for kind in ("M", "Fbar"):
            vectors = []
            for rsc in rscs:
                f = basis_ncr(kind, rsc.phi, rsc.pi, r)
                vectors.append({k: Fraction(evaluate(c, 1)) for k, c in f.terms.items()})
            result.checks += 1
            if exact_rank(vectors) != len(rscs):
                result.fail(part="ncqsym-rank", kind=kind, degree=m, expected=len(rscs))
                return result

    positive = [rsc for rsc in all_rscs if rsc.ground()]
    for trial in range(trials):
        a = rng.choice(positive)
        b = rng.choice(positive)
        fa = basis_ncr("M", a.phi, a.pi, r)
        fb = basis_ncr("M", b.phi, b.pi, r)
        result.checks += 1
        try:
            r_regroup(fa * fb, r)
        except RegroupError as err:
            result.fail(part="product-closure", trial=trial, seed=seed,
                        left=combinat.r_set_composition_to_json(a),
                        right=combinat.r_set_composition_to_json(b),
                        detail=str(err))
            return result
        result.checks += 1
        try:
            r_regroup_tensor(coproduct_nc(fa), r)
        except RegroupError as err:
            result.fail(part="coproduct-closure", trial=trial, seed=seed,
                        left=combinat.r_set_composition_to_json(a), detail=str(err))
            return result
    return result


SUITES = {
    "oracle": verify_oracle,
    "hopf": verify_hopf,
    "tables": verify_tables,
    "r-closure": verify_r_closure,
}
