"""Seeded verification suites behind the command-line `verify`
subcommand: oracle agreement, the Hopf identities, the basis tables,
and the r-level closure. Each suite yields its checks to one runner,
which counts and times them per identity and returns a result object
carrying a machine-readable counterexample when something fails."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import chromatic, combinat, graph as gr, ncqsym, oracle, qsym
from .combinat import (
    compositions,
    partitions,
    r_compositions,
    r_set_compositions,
    set_compositions,
    set_partitions,
    shape_partition,
)
from .graph import digraph_to_json
from .linalg import exact_rank
from .qsym import QSymExpr, coproduct
from .ncqsym import (
    RegroupError,
    _blockwise_symmetrized,
    basis_nc,
    basis_ncr,
    basis_ncsym,
    basis_ncsym_e_paths,
    coproduct_nc,
    expand_nc,
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
    # identity -> {"checks", "seconds"}; to_json leaves it out
    stats: dict = field(default_factory=dict, compare=False)

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


def _run(suite: str, checks) -> VerifyResult:
    """Run a suite's checks, each an (identity, holds, where) triple, and
    stop at the first that fails, with the counterexample fields where()
    gives. Each identity's stats count its checks and the seconds since
    the check before, building its inputs included. where() may read the
    suite's loop variables, so it runs before the suite resumes."""
    result = VerifyResult(suite)
    mark = time.perf_counter()
    for identity, holds, where in checks:
        now = time.perf_counter()
        entry = result.stats.setdefault(identity, {"checks": 0, "seconds": 0.0})
        entry["checks"] += 1
        entry["seconds"] += now - mark
        mark = now
        result.checks += 1
        if not holds:
            result.fail(**where())
            break
    return result


def _suite(name: str):
    """Make a generator of checks into a suite function: called with the
    generator's arguments, it returns the VerifyResult of `_run`."""
    def wrap(checks):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> VerifyResult:
            return _run(name, checks(*args, **kwargs))
        return run
    return wrap


def _check(holds, **where):
    """A check named by the value of its counterexample's first field,
    all of whose fields are known when it is made."""
    return next(iter(where.values())), holds, lambda: where


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

@_suite("oracle")
def verify_oracle(trials: int = 200, max_n: int = 5, seed: int = 0):
    """Symbolic expansion versus literal colouring enumeration, with the
    full t-grading, in both commuting and noncommuting variables."""
    rng = random.Random(seed)
    for trial in range(trials):
        g = random_digraph(rng, max_n)
        report = oracle.assert_equal(oracle.realize(chromatic.expand(g), g.n),
                                     oracle.direct_expand(g, g.n))
        yield "expand", report.ok, lambda: dict(
            trial=trial, seed=seed, digraph=digraph_to_json(g), detail=report.detail)
        if trial % 4 == 0:
            lg = random_labelled_digraph(rng, max_n)
            report = oracle.assert_equal(
                oracle.realize_nc(expand_nc(lg), lg.graph.n),
                oracle.direct_expand_nc(lg, lg.graph.n))
            yield "expand-nc", report.ok, lambda: dict(
                trial=trial, seed=seed, digraph=digraph_to_json(lg), detail=report.detail)


# ---------------------------------------------------------------------------
# Hopf identities

def _triple_splits(tensor, apply_left):
    """(delta x id) of a tensor when apply_left, else (id x delta), as a
    dict keyed by triples, with the coproduct of the tensor's leg class
    and one memo of its splits for the call."""
    splits = tensor._leg._splits
    memo: dict = {}
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


@_suite("hopf")
def verify_hopf(trials: int = 50, max_n: int = 4, seed: int = 0):
    """Product and coproduct identities, digraph side against algebra
    side, plus coassociativity, compatibility, and the counit."""
    rng = random.Random(seed)

    def check(identity, holds, *graphs):  # where() reads the current trial
        return identity, holds, lambda: {
            "identity": identity, "trial": trial, "seed": seed,
            **dict(zip(("digraph", "other"), map(digraph_to_json, graphs)))}

    for trial in range(trials):
        g1 = random_digraph(rng, max_n)
        g2 = random_digraph(rng, max_n)
        f1, f2 = chromatic.expand(g1), chromatic.expand(g2)
        yield check("product",
                    f1 * f2 == chromatic.expand(gr.combine("disjoint", g1, g2)), g1, g2)

        lg1 = random_labelled_digraph(rng, max_n)
        lg2 = random_labelled_digraph(rng, max_n)
        y1, y2 = expand_nc(lg1), expand_nc(lg2)
        y12 = y1 * y2
        disjoint = gr.combine_labelled("disjoint", lg1, lg2, shift=True)
        yield check("nc-product", y12 == expand_nc(disjoint), lg1, lg2)

        g = random_digraph(rng, max_n)
        f = chromatic.expand(g).at_t(1)
        delta = coproduct(f)
        yield check("coproduct", chromatic.coproduct_digraph(g) == delta, g)

        lg = random_labelled_digraph(rng, max_n)
        delta_nc = coproduct_nc(expand_nc(lg).at_t(1))
        yield check("nc-coproduct", ncqsym.coproduct_nc_digraph(lg) == delta_nc, lg)

        # coassociativity, compatibility, counit on the same samples
        yield check("coassociativity",
                    _triple_splits(delta, True) == _triple_splits(delta, False), g)
        left, right = _counit_legs(delta)
        yield check("counit", QSymExpr._of(left) == f and QSymExpr._of(right) == f, g)
        pair = f1.at_t(1), f2.at_t(1)
        yield check("bialgebra",
                    coproduct(pair[0] * pair[1]) == coproduct(pair[0]) * coproduct(pair[1]),
                    g1, g2)

        yield check("nc-coassociativity",
                    _triple_splits(delta_nc, True) == _triple_splits(delta_nc, False), lg)
        pair = y1.at_t(1), y2.at_t(1)
        yield check("nc-bialgebra",
                    coproduct_nc(pair[0] * pair[1])
                    == coproduct_nc(pair[0]) * coproduct_nc(pair[1]),
                    lg1, lg2)

        # the commutation map is an algebra map
        yield check("rho-algebra-map", rho(y12) == rho(y1) * rho(y2), lg1, lg2)


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


def _consecutive_blocks(parts):
    """The set composition of [sum(parts)] into consecutive blocks of the given sizes."""
    ends = itertools.accumulate(parts)
    return tuple(tuple(range(end - p + 1, end + 1)) for p, end in zip(parts, ends))


def _scalar_vector(f) -> dict:
    """The coefficients of f at t = 1, as Fractions for exact_rank."""
    return {k: Fraction(evaluate(c, 1)) for k, c in f.terms.items()}


@_suite("tables")
def verify_tables(n: int = 5):
    """Every basis-table row identity up to degree n (degree min(n, 4)
    for the symmetrized constructions), plus the tableau oracles and the
    augmented-scaling identities."""
    sym_n = min(n, 4)
    for m in range(n + 1):
        for lam in partitions(m):
            for kind in ("m", "maug", "e", "eaug", "h", "p", "s"):
                yield _check(qsym.basis_sym(kind, lam)
                             == chromatic.expand(gr.sym_basis_digraph(kind, lam)).at_t(1),
                             table="sym", kind=kind, index=list(lam))
            # rho(m_pi) = maug_lam and rho(e_pi) = lam! e_lam (Rosas-Sagan 2006)
            pi = _consecutive_blocks(lam)
            yield _check(qsym.basis_sym("maug", lam) == rho(basis_ncsym("m", pi)),
                         table="sym", kind="maug-scaling", index=list(lam))
            yield _check(qsym.basis_sym("eaug", lam) == rho(basis_ncsym("e", pi)),
                         table="sym", kind="eaug-scaling", index=list(lam))

        for alpha in compositions(m):
            for kind, maker in (("M", qsym.basis_M), ("F", qsym.basis_F),
                                ("Fbar", qsym.basis_Fbar)):
                yield _check(maker(alpha)
                             == chromatic.expand(gr.qsym_basis_digraph(kind, alpha)).at_t(1),
                             table="qsym", kind=kind, index=list(alpha))
            # the upper fundamental is rho of its noncommutative lift
            yield _check(qsym.basis_Fbar(alpha)
                         == rho(basis_nc("Fbar", _consecutive_blocks(alpha))),
                         table="qsym", kind="Fbar-coarsening", index=list(alpha))
            # composition grids against the tableau oracle
            for row_strict in (False, True):
                grid_fn = (chromatic.row_strict_dual_immaculate if row_strict
                           else chromatic.dual_immaculate)
                want = QSymExpr(_immaculate_contents(alpha, row_strict))
                yield _check(grid_fn(alpha) == want, table="grid",
                             row_strict=row_strict, index=list(alpha))

        for phi in set_compositions(m):
            for kind in ("M", "F", "Fbar"):
                yield _check(basis_nc(kind, phi)
                             == expand_nc(gr.ncqsym_basis_digraph(kind, phi)).at_t(1),
                             table="ncqsym", kind=kind, index=[list(b) for b in phi])

        for pi in set_partitions(m):
            index = [list(b) for b in pi]
            for kind in ("m", "p", "e"):
                yield _check(basis_ncsym(kind, pi)
                             == expand_nc(gr.ncsym_basis_digraph(kind, pi)).at_t(1),
                             table="ncsym", kind=kind, index=index)
            if m <= sym_n:
                yield _check(basis_ncsym("e", pi) == basis_ncsym_e_paths(pi),
                             table="ncsym", kind="e-paths", index=index)
                yield _check(basis_ncsym("h", pi) == _blockwise_symmetrized(pi, "Q").at_t(1),
                             table="ncsym", kind="h", index=index)

        # full symmetrization of the labelled grid, by shape
        if 1 <= m <= sym_n:
            shapes = {}
            for pi in set_partitions(m):
                lam = shape_partition(pi)
                s_pi = shapes.get(lam)
                if s_pi is None:
                    s_pi = shapes[lam] = basis_ncsym("S", pi)
                yield _check(rho(s_pi) == qsym.basis_sym("s", lam).scale(math.factorial(m)),
                             table="ncsym", kind="S-rho", index=[list(b) for b in pi])
            values = list(shapes.values())
            for a, b in itertools.combinations(values, 2):
                yield _check(a != b, table="ncsym", kind="S-distinct", index=m)
            yield _check(exact_rank(list(map(_scalar_vector, values))) == len(values),
                         table="ncsym", kind="S-span", index=m)


# ---------------------------------------------------------------------------
# the r-level structure

def _closes(regroup, f, r, **where):
    """A closure check: regroup(f, r) raises no RegroupError. A failure's
    counterexample ends with the error's text."""
    try:
        regroup(f, r)
    except RegroupError as err:
        return _check(False, **where, detail=str(err))
    return _check(True, **where)


@_suite("r-closure")
def verify_r_closure(n_qsym: int = 5, n_nc: int = 4, r: int = 2,
                     seed: int = 0, trials: int = 20):
    """Rank checks for the four commutative r-bases and the two
    noncommutative ones, plus regrouping of sampled products and
    coproducts (the Hopf-closure argument)."""
    if trials > 0 and n_nc < 1:
        raise ValueError("closure trials need samples of degree 1 or more: "
                         f"n_nc is {n_nc}")
    rng = random.Random(seed)

    for m in range(n_qsym + 1):
        rcs = list(r_compositions(m, r))
        for kind in ("M", "S", "Fbar", "Sbar"):
            vectors = []
            for rc in rcs:
                f = qsym.basis_r(kind, rc.beta, rc.mu, r)
                vectors.append(_scalar_vector(f))
                yield _check(qsym.in_qsym_r(f, r), part="qsym-span", kind=kind, degree=m,
                             index=combinat.r_composition_to_json(rc))
            yield _check(exact_rank(vectors) == len(rcs),
                         part="qsym-rank", kind=kind, degree=m, expected=len(rcs))

    all_rscs = []
    for m in range(n_nc + 1):
        rscs = list(r_set_compositions(m, r))
        all_rscs.extend(rscs)
        for kind in ("M", "Fbar"):
            vectors = [_scalar_vector(basis_ncr(kind, rsc.phi, rsc.pi, r)) for rsc in rscs]
            yield _check(exact_rank(vectors) == len(rscs),
                         part="ncqsym-rank", kind=kind, degree=m, expected=len(rscs))

    positive = [rsc for rsc in all_rscs if rsc.ground()]
    for trial in range(trials):
        a = rng.choice(positive)
        b = rng.choice(positive)
        fa = basis_ncr("M", a.phi, a.pi, r)
        fb = basis_ncr("M", b.phi, b.pi, r)
        left = combinat.r_set_composition_to_json(a)
        yield _closes(r_regroup, fa * fb, r, part="product-closure", trial=trial, seed=seed,
                      left=left, right=combinat.r_set_composition_to_json(b))
        yield _closes(r_regroup_tensor, coproduct_nc(fa), r, part="coproduct-closure",
                      trial=trial, seed=seed, left=left)

