"""Quasisymmetric functions in monomial coordinates with exact
coefficients (scalars, or t-polynomials where t is kept): Hopf
operations, the classical bases, the r-level bases, symmetry detection,
basis conversion, and the counting polynomial obtained by restricting
to p colours."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import combinat, graph, tpoly
from .combinat import (
    INFINITY,
    RComposition,
    _by_multiplicity,
    _check_r,
    _interleavings,
    _quasi_shuffles,
    coarsenings,
    composition,
    composition_sort_key,
    compositions,
    distinct_rearrangements,
    lambda_factorial,
    lambda_superfactorial,
    partition,
    partitions,
    refinements,
)
from .linalg import solve_combination
from .tpoly import TPoly, check_coefficient, tpoly_from_json, tpoly_to_json


def _merge(terms: dict, key, coeff):
    if not coeff:
        return
    acc = terms.get(key)
    acc = coeff if acc is None else acc + coeff
    if acc:
        terms[key] = acc
    else:
        del terms[key]


class TermMap:
    """A sparse map from term keys to nonzero coefficients, the core of
    the expression and tensor classes. A coefficient is an exact scalar
    (an int that is not a bool, or a Fraction) or a TPoly; see the tpoly
    module. A leg class (QSymExpr, NCQSymExpr) is the one place that
    knows its key format. It supplies `_key` (check and canonicalize one
    key), `_sort_key` (display order), `_sorted(keys)` (a list of the
    keys in that order, with no Python call per key), `_name` (a term's
    printed name), `_shuffle_groups(a, b)` (the distinct paths of the
    product as (multiplicity, paths) groups, so that each is merged
    once, and readable more than once), `_splits(key, memo)` (the
    coproduct's pairs, as a list; `memo` is a dict shared by the keys of
    one call, where NCQSymExpr keeps each packed word split off, mapped
    to its set composition, and each block, mapped to itself) and
    `_size(key)` (its degree).

    The public constructor validates and canonicalizes every key, checks
    every coefficient (TypeError outside the exact domain) and merges
    repeats. `_of` trusts its dict: canonical keys and nonzero exact
    coefficients, as every operation of the algebras produces them, so
    results are built without checking them again.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            _merge(data, self._key(key), check_coefficient(coeff))
        self.terms = data

    @classmethod
    def _of(cls, terms: dict):
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def sum_of(cls, exprs):
        """The sum of term maps of this class, merged into one dict in
        the order given (the terms and order of a fold of +)."""
        out: dict = {}
        for expr in exprs:
            for key, coeff in expr.terms.items():
                _merge(out, key, coeff)
        return cls._of(out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _merge(out, key, coeff)
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        check_coefficient(factor)
        return self._of({k: p for k, c in self.terms.items() if (p := c * factor)})

    def __mul__(self, other):
        """Product: each distinct path of the shuffle of two keys carries
        the product of their coefficients times the path's multiplicity.
        A non-expression is a scalar."""
        if not isinstance(other, type(self)):
            return self.scale(other)
        groups = self._shuffle_groups
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                coeff = ca * cb
                for count, paths in groups(a, b):
                    c = coeff * count if count > 1 else coeff
                    for gamma in paths:
                        _merge(out, gamma, c)
        return self._of(out)

    def __rmul__(self, other):
        return self.scale(other)

    @classmethod
    def one(cls):
        return cls({(): 1})

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self._size(k) for k in self.terms}))

    def homogeneous_component(self, n: int):
        size = self._size
        return self._of({k: c for k, c in self.terms.items() if size(k) == n})

    def at_t(self, t=1):
        """Specialize the ascent variable: every coefficient becomes a scalar.

        Expansions share one coefficient object across many terms (one
        TPoly per ascent count), so each distinct object is evaluated
        once and its value looked up by id for the rest.
        """
        terms = self.terms
        distinct = {id(c): c for c in terms.values()}
        values = {i: tpoly.evaluate(c, t) for i, c in distinct.items()}
        return self._of({k: v for k, c in terms.items() if (v := values[id(c)])})

    def t_degree(self) -> int:
        return max(map(tpoly.degree, self.terms.values()), default=-1)

    def support(self):
        return set(self.terms)

    def items_sorted(self):
        terms = self.terms
        return [(key, terms[key]) for key in self._sorted(terms)]

    def peel(self, element, finer: bool) -> dict:
        """Coordinates over a unitriangular basis, by triangular peeling.

        element(key) is the basis element at key, every coefficient 1:
        its own monomial plus terms with strictly more parts (finer) or
        strictly fewer parts (not finer). Peeling the support one part
        count at a time, fewest parts first when finer and most first
        otherwise, reads off each coefficient as it stands.
        """
        remaining = dict(self.terms)
        out: dict = {}
        while remaining:
            size = (min if finer else max)(map(len, remaining))
            for key in self._sorted([k for k in remaining if len(k) == size]):
                out[key] = coeff = remaining[key]
                neg = -coeff
                for member in element(key).terms:
                    _merge(remaining, member, neg)
        return out

    def collect(self, index_of, fiber_of, error) -> dict:
        """Coordinates over a basis whose element at an index is the sum
        of the monomials in its fiber, every coefficient 1.

        index_of(key) is the index whose fiber holds the key, and
        fiber_of(index) lists that fiber. Fibers are read in display
        order of their least remaining term, whose coefficient every
        member must carry (a missing member counts as zero); otherwise
        error(index, {member: coefficient} for the members that differ)
        is raised.
        """
        remaining = dict(self.terms)
        out: dict = {}
        for key in self._sorted(remaining):
            coeff = remaining.get(key)
            if coeff is None:
                continue
            index = index_of(key)
            fiber = fiber_of(index)
            bad = {member: remaining.get(member, 0) for member in fiber
                   if remaining.get(member, 0) != coeff}
            if bad:
                raise error(index, bad)
            for member in fiber:
                del remaining[member]
            out[index] = coeff
        return out

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        return _join_terms(_pretty_term(coeff, self._name(key))
                           for key, coeff in self.items_sorted())

    def __repr__(self):
        return f"{type(self).__name__}({self.pretty()})"


def _join_terms(bits) -> str:
    out = " + ".join(bits)
    return out.replace("+ -", "- ")


def _pretty_term(coeff, name: str) -> str:
    if coeff == 1:
        return name
    if coeff == -1:
        return f"-{name}"
    text = tpoly.pretty(coeff)
    if tpoly.degree(coeff) <= 0:
        return f"{text}*{name}"
    return f"({text})*{name}"


class QSymExpr(TermMap):
    """A finite sum of monomial quasisymmetric functions M_alpha with
    exact coefficients. Mixed degrees may coexist; the keys of each
    homogeneous component all have the same size."""

    __slots__ = ()
    _key = staticmethod(composition)
    _sort_key = staticmethod(composition_sort_key)
    _size = staticmethod(sum)

    @staticmethod
    def _sorted(keys) -> list:
        """Tuple order, then a stable sort by degree."""
        out = sorted(keys)
        out.sort(key=sum)
        return out

    @staticmethod
    def _name(alpha) -> str:
        return "M" + combinat.format_composition(alpha)

    @staticmethod
    def _shuffle_groups(alpha, beta):
        """The overlapping shuffle's paths, grouped by how often each
        occurs."""
        return _by_multiplicity(_quasi_shuffles(alpha, beta))

    @staticmethod
    def _splits(alpha, memo=None):
        """Deconcatenation. It needs no memo and ignores one."""
        return [(alpha[:i], alpha[i:]) for i in range(len(alpha) + 1)]

    def coefficient(self, alpha):
        return self.terms.get(composition(alpha), 0)

    # bench/tracer.py traces a method through its owner's own __dict__
    __mul__ = TermMap.__mul__


class TensorMap(TermMap):
    """A sum of two-fold tensors of the terms of a leg class, for
    coproducts. A subclass names its leg class, as in
    `class QSymTensor(TensorMap, leg=QSymExpr)`, which keeps it as `_leg`
    and gives the subclass the pair forms of the leg's `_key`,
    `_sort_key`, `_sorted` and `_name`. The product has its own loop
    over the leg's `_shuffle_groups`."""

    __slots__ = ()

    def __init_subclass__(cls, leg, **kwargs):
        super().__init_subclass__(**kwargs)
        key, sort_key, leg_sorted, name = leg._key, leg._sort_key, leg._sorted, leg._name

        def pair_key(pair):
            left, right = pair
            return key(left), key(right)

        def pair_sorted(pairs) -> list:
            """Each distinct leg ranked once; a pair sorts on the unique
            code rank(left) * width + rank(right)."""
            rank = {x: i for i, x in enumerate(leg_sorted({x for pair in pairs for x in pair}))}
            width = len(rank)
            codes = [rank[a] * width + rank[b] for a, b in pairs]
            return [pair for _, pair in sorted(zip(codes, pairs))]

        cls._leg = leg
        cls._key = staticmethod(pair_key)
        cls._sort_key = staticmethod(lambda pair: (sort_key(pair[0]), sort_key(pair[1])))
        cls._sorted = staticmethod(pair_sorted)
        cls._name = staticmethod(lambda pair: f"{name(pair[0])} (x) {name(pair[1])}")

    def __mul__(self, other):
        """Componentwise product (a x b)(c x d) = ac x bd: each pair of a
        left and a right group of the legs' shuffles carries the product
        of their multiplicities, and each distinct pair of legs is
        shuffled once per call. Only another tensor of the same class
        multiplies; a scalar does not."""
        if not isinstance(other, type(self)):
            return NotImplemented
        groups = self._leg._shuffle_groups
        memo: dict = {}  # (leg, leg) -> the groups of their shuffle
        out: dict = {}
        for (a1, a2), ca in self.terms.items():
            for (b1, b2), cb in other.terms.items():
                coeff = ca * cb
                left = memo.get((a1, b1)) or memo.setdefault((a1, b1), list(groups(a1, b1)))
                right = memo.get((a2, b2)) or memo.setdefault((a2, b2), list(groups(a2, b2)))
                for count1, left_paths in left:
                    for count2, right_paths in right:
                        count = count1 * count2
                        c = coeff * count if count > 1 else coeff
                        for g1 in left_paths:
                            for g2 in right_paths:
                                _merge(out, (g1, g2), c)
        return self._of(out)

    @classmethod
    def of_legs(cls, f, g):
        """The tensor f (x) g of two expressions of the leg class."""
        return cls._of({(a, b): ca * cb for a, ca in f.terms.items()
                        for b, cb in g.terms.items()})


class QSymTensor(TensorMap, leg=QSymExpr):
    """Two-fold tensors of monomial terms."""

    __slots__ = ()

    # bench/tracer.py traces a method through its owner's own __dict__
    __mul__ = TensorMap.__mul__


def _coproduct(f: TermMap, tensor_cls):
    """The coproduct of f into tensor_cls: every (left, right) split of
    a key carries that key's coefficient. The keys share one memo of
    the leg class's splits for the call."""
    splits = f._splits
    memo: dict = {}
    out: dict = {}
    for key, coeff in f.terms.items():
        for pair in splits(key, memo):
            _merge(out, pair, coeff)
    return tensor_cls._of(out)


def coproduct(f: QSymExpr) -> QSymTensor:
    """Deconcatenation of monomial indices, coefficients riding along."""
    return _coproduct(f, QSymTensor)


# ---------------------------------------------------------------------------
# bases

def basis_M(alpha) -> QSymExpr:
    return QSymExpr({composition(alpha): 1})


def basis_F(alpha) -> QSymExpr:
    """Fundamental element: the sum of M over refinements.

    Its defining digraph is the solid chain of double paths over the
    parts; the table suite checks the two agree.
    """
    return QSymExpr._of(dict.fromkeys(refinements(composition(alpha)), 1))


def basis_Fbar(alpha) -> QSymExpr:
    """Upper-fundamental element: the sum of M over coarsenings."""
    return QSymExpr._of(dict.fromkeys(coarsenings(composition(alpha)), 1))


SYM_KINDS = ("m", "maug", "e", "eaug", "h", "p", "s")


def basis_sym(kind: str, lam) -> QSymExpr:
    """Symmetric-function bases in M coordinates, from their
    combinatorial definitions (not from digraphs): kind is one of
    SYM_KINDS."""
    lam = partition(lam)
    if kind == "m":
        return QSymExpr({alpha: 1 for alpha in distinct_rearrangements(lam)})
    if kind == "maug":
        return basis_sym("m", lam).scale(lambda_superfactorial(lam))
    if kind == "e":
        return _product_over_parts(lam, lambda p: QSymExpr({(1,) * p: 1}))
    if kind == "eaug":
        return basis_sym("e", lam).scale(lambda_factorial(lam))
    if kind == "h":
        return _product_over_parts(
            lam, lambda p: QSymExpr({alpha: 1 for alpha in compositions(p)}))
    if kind == "p":
        return _product_over_parts(lam, lambda p: QSymExpr({(p,): 1}))
    if kind == "s":
        return QSymExpr._of(_ssyt_contents(lam))
    raise ValueError(f"unknown symmetric basis kind {kind!r}")


def _product_over_parts(lam, factor) -> QSymExpr:
    out = QSymExpr.one()
    for p in lam:
        out = out * factor(p)
    return out


def _ssyt_contents(lam) -> dict[tuple[int, ...], int]:
    """Number of semistandard tableaux of the given shape per content
    composition (rows weakly increase, columns strictly increase).

    The count for a partition mu is the Kostka number K(lam, mu), the
    number of chains of horizontal strips of sizes mu_1, mu_2, ... that
    fill lam. Kostka numbers are symmetric in the content, so each
    rearrangement of mu gets the same count.
    """
    out: dict[tuple[int, ...], int] = {}
    for mu in partitions(sum(lam)):
        count = _kostka(lam, mu)
        if count:
            out.update(dict.fromkeys(distinct_rearrangements(mu), count))
    return out


def _kostka(lam, mu) -> int:
    """K(lam, mu): the shapes inside lam reached after each strip, with
    the number of chains reaching each, one strip of mu at a time."""
    shapes = {(): 1}
    for size in mu:
        grown: dict = {}
        for nu, count in shapes.items():
            for shape in _horizontal_strips(nu, size, lam):
                grown[shape] = grown.get(shape, 0) + count
        shapes = grown
    return shapes.get(tuple(lam), 0)


def _horizontal_strips(nu, size, lam=None) -> list:
    """The partitions that add a horizontal strip of size cells to the
    partition nu, inside the partition lam if one is given: row i grows
    to at most the old length of row i - 1, and one new row may start."""
    rows = (*nu, 0)
    rooms = [size, *(above - row for above, row in zip(rows, rows[1:]))]
    if lam is not None:
        rooms = [min(room, (lam[i] if i < len(lam) else 0) - row)
                 for i, (room, row) in enumerate(zip(rooms, rows))]
    partial = [((), size)]  # the rows grown so far, and the cells left
    for i, row in enumerate(rows):
        room, rest = rooms[i], sum(rooms[i + 1:])
        partial = [(shape + (row + add,), left - add) for shape, left in partial
                   for add in range(max(0, left - rest), min(room, left) + 1)]
    return [shape if shape[-1] else shape[:-1] for shape, _ in partial]


def basis_r(kind: str, beta, mu, r) -> QSymExpr:
    """r-level basis elements (kind M, S, Fbar, Sbar), expanded through
    their defining digraphs."""
    from .chromatic import expand

    RComposition(r, beta, mu)
    return expand(graph.r_basis_digraph(kind, beta, mu)).at_t(1)


# ---------------------------------------------------------------------------
# symmetry and conversion

def _t_slices(terms) -> dict[int, dict]:
    """Split a term map into per-power-of-t exact coordinate dicts."""
    slices: dict[int, dict] = {}
    for key, coeff in terms.items():
        for power, c in enumerate(tpoly.coefficients(coeff)):
            if c:
                slices.setdefault(power, {})[key] = c
    return slices


def is_symmetric(f: QSymExpr) -> bool:
    """Whether the M coefficients are constant on rearrangement classes."""
    return in_qsym_r(f, INFINITY)


def to_sym_basis(f: QSymExpr, kind: str) -> dict[tuple[int, ...], TPoly]:
    """Expand a symmetric f over the chosen symmetric basis.

    Returns a partition-indexed map of TPoly coefficients (entries may
    be fractions), in the order of each power of t's first occurrence in
    f, then of partitions(n). Raises on an unknown kind and on
    non-symmetric input. A symmetric function is fixed by its M
    coefficients at partitions, which are its m coordinates. The s, h
    and e coordinates follow from them by substitution through one
    Kostka table per degree, which is unitriangular in dominance
    (Macdonald I.6): s_lam = sum K(lam, mu) m_mu, h_mu = sum K(lam, mu)
    s_lam, and e_mu = sum K(lam, mu) s_lam' for lam' the conjugate of
    lam. p is only a rational basis, so each degree solves the square
    system of its columns on the partition rows.
    """
    if kind not in SYM_KINDS:
        raise ValueError(f"unknown symmetric basis kind {kind!r}")
    if not is_symmetric(f):
        raise ValueError("expression is not symmetric")
    out: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for n in f.degrees():
        lams = list(partitions(n))
        if kind == "p":
            solve = _p_solver(n, lams)
        else:
            # m and maug read the partition rows as they stand
            table = None if kind in ("m", "maug") else _kostka_table(n)
            solve = functools.partial(_kostka_coordinates, kind, table)
        # slicing every term keeps the powers of t, and so the output's
        # order, as they first occur in f
        for power, coords in _t_slices(f.homogeneous_component(n).terms).items():
            solution = solve({lam: coords[lam] for lam in lams if lam in coords})
            for lam in lams:
                value = solution.get(lam)
                if value:
                    out.setdefault(lam, {})[power] = value
    return {lam: _tpoly_from_slices(powers) for lam, powers in out.items()}


def _p_solver(n: int, lams: list):
    """Coordinates over p from the partition rows: p_lam is triangular
    on them with diagonal prod m_i!, so over the rationals only."""
    row = {lam: i for i, lam in enumerate(lams)}
    columns = [{row[k]: c for k, c in basis_sym("p", lam).terms.items() if k in row}
               for lam in lams]

    def solve(rows: dict) -> dict:
        solution = solve_combination(columns, {row[lam]: c for lam, c in rows.items()})
        if solution is None:
            raise ValueError(f"degree-{n} component is not in the p span")
        return dict(zip(lams, solution))

    return solve


def _kostka_coordinates(kind: str, table: dict | None, rows: dict) -> dict:
    """The coordinates over kind (not p) of the symmetric function whose
    M coefficients at partitions are rows, by integer substitution."""
    if kind == "m":
        return rows
    if kind == "maug":
        return {lam: Fraction(c, lambda_superfactorial(lam)) for lam, c in rows.items()}
    # rows[mu] = sum over lam >= mu of K(lam, mu) schur[lam]: top of
    # dominance first, each mu's column reads the lam already solved
    schur: dict = {}
    for mu, column in table.items():
        value = rows.get(mu, 0)
        for lam, k in column.items():
            if lam in schur:
                value -= k * schur[lam]
        if value:
            schur[mu] = value
    if kind == "s":
        return schur
    if kind in ("e", "eaug"):
        schur = {_conjugate(lam): c for lam, c in schur.items()}
    # schur[lam] = sum over mu <= lam of K(lam, mu) out[mu]: bottom of
    # dominance first, each solved mu is taken from the lam above it
    out: dict = {}
    for mu in reversed(table):
        value = schur.get(mu)
        if value:
            out[mu] = value
            for lam, k in table[mu].items():
                if lam != mu:
                    schur[lam] = schur.get(lam, 0) - k * value
    if kind == "eaug":
        return {lam: Fraction(c, lambda_factorial(lam)) for lam, c in out.items()}
    return out


def _conjugate(lam) -> tuple[int, ...]:
    """The conjugate partition: its parts are the column lengths of lam."""
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


def _kostka_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """{mu: {lam: K(lam, mu)}} over the partitions of n, with mu in the
    order of partitions(n) and only the nonzero entries, which have
    lam >= mu in dominance.

    K(lam, mu) counts the chains of horizontal strips of sizes mu_1,
    mu_2, ... from the empty shape to lam. A depth-first walk adds one
    part at a time, largest first, so the mu that start with the same
    parts share the shapes grown for them, and each (shape, size) lists
    its strips once.
    """
    strips: dict = {}
    table = {}
    stack = [((), n, {(): 1})]
    while stack:
        prefix, left, shapes = stack.pop()
        if not left:
            table[prefix] = shapes
            continue
        # pushed smallest first, so the largest next part pops first
        for size in range(1, min(left, prefix[-1] if prefix else n) + 1):
            grown: dict = {}
            for nu, count in shapes.items():
                key = (nu, size)
                if key not in strips:
                    strips[key] = _horizontal_strips(nu, size)
                for shape in strips[key]:
                    grown[shape] = grown.get(shape, 0) + count
            stack.append((prefix + (size,), left - size, grown))
    return table


def _tpoly_from_slices(powers: dict[int, Fraction]) -> TPoly:
    top = max(powers)
    return TPoly(tuple(_fraction_or_int(powers.get(k, 0)) for k in range(top + 1)))


def _fraction_or_int(value):
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def to_qsym_basis(f: QSymExpr, kind: str) -> dict:
    """Expand f over the F or Fbar basis (M returns the term map itself).

    F elements add strictly finer terms and Fbar elements strictly
    coarser ones, so both are read off by triangular peeling.
    """
    if kind == "M":
        return dict(f.terms)
    if kind == "F":
        return f.peel(basis_F, finer=True)
    if kind == "Fbar":
        return f.peel(basis_Fbar, finer=False)
    raise ValueError(f"unknown quasisymmetric basis kind {kind!r}")


def in_qsym_r(f: QSymExpr, r) -> bool:
    """Exact membership of f in the r-level subspace of its degrees.

    basis_r("M", beta, mu, r) is a constant times the sum of M over beta
    interleaved with each distinct rearrangement of mu, so f is a member
    when it is constant on the fiber of every composition's split into
    its parts >= r, in order, and its parts < r, sorted decreasingly.
    """
    _check_r(r)

    def split(alpha):
        return (tuple(p for p in alpha if p >= r),
                tuple(sorted((p for p in alpha if p < r), reverse=True)))

    try:
        f.collect(split, lambda s: list(_interleavings(s[0], list(distinct_rearrangements(s[1])))),
                  ValueError)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# the counting polynomial

@dataclass(frozen=True)
class RationalPoly:
    """A univariate polynomial over exact rationals, coefficients from
    degree 0 up."""

    coeffs: tuple

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _fraction_or_int(acc)

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                bits.append(str(c))
            else:
                power = "p" if k == 1 else f"p^{k}"
                bits.append(power if c == 1 else f"{c}*{power}")
        return _join_terms(bits)


def evaluate_ones(f: QSymExpr, p: int) -> int:
    """Exact value after substituting 1 for the first p variables and 0
    for the rest; f must already be specialized at t = 1."""
    if f.t_degree() > 0:
        raise ValueError("specialize t first (at_t)")
    total = 0
    for alpha, coeff in f.terms.items():
        total += tpoly.evaluate(coeff, 1) * math.comb(p, len(alpha))
    return total


def chromatic_polynomial(f: QSymExpr) -> RationalPoly:
    """The polynomial p -> evaluate_ones(f, p), written out exactly: the
    sum of c_k * binomial(p, k), c_k the coefficient sum over the k-part
    terms, by Horner's rule scaled by top! to stay in exact integers:
    g_top = c_top, g_k = (top!/k!) c_k + (p - k) g_(k+1), g_0 = top! * it."""
    if f.t_degree() > 0:
        raise ValueError("specialize t first (at_t)")
    sums: dict = {}
    for alpha, coeff in f.terms.items():
        sums[len(alpha)] = sums.get(len(alpha), 0) + tpoly.evaluate(coeff, 1)
    top = max(sums, default=0)
    acc: list = []
    scale = 1  # top!/k!
    for k in range(top, -1, -1):
        acc = [a - k * b for a, b in zip([0, *acc], [*acc, 0])]  # (p - k) * acc
        acc[0] += scale * sums.get(k, 0)
        scale *= k
    while acc and not acc[-1]:
        acc.pop()
    top_factorial = math.factorial(top)
    return RationalPoly(tuple(_fraction_or_int(Fraction(c, top_factorial)) for c in acc))


def rational_poly_to_json(poly: RationalPoly) -> dict:
    return {"coeffs_p": [f"{Fraction(c).numerator}/{Fraction(c).denominator}"
                         for c in poly.coeffs]}


# ---------------------------------------------------------------------------
# infinite families of bases

@dataclass(frozen=True)
class FamilyBasisReport:
    """Unitriangularity report for a double-edge-only family."""

    compositions: tuple
    unitriangular: bool
    failures: tuple


def family_basis(n: int, family):
    """Expansions of the solid chains built from a double-edge-only
    family, indexed by the compositions of n, plus a report checking the
    expansion of each index alpha is M_alpha plus strictly finer terms.

    family: a callable i -> digraph with i vertices and only double edges.
    """
    from .chromatic import expand

    cache: dict[int, graph.EdgeColouredDigraph] = {}

    def member(i: int):
        if i not in cache:
            g = family(i)
            if g.n != i:
                raise ValueError(f"family({i}) has {g.n} vertices")
            if any(c is not graph.LEQ for _, _, c in g.edges):
                raise ValueError(f"family({i}) has an edge that is not a double edge")
            cache[i] = g
        return cache[i]

    alphas = tuple(compositions(n))
    elements = {}
    failures = []
    for alpha in alphas:
        g = graph.combine_chain("solid", [member(p) for p in alpha])
        f = expand(g).at_t(1)
        elements[alpha] = f
        if f.coefficient(alpha) != 1:
            failures.append((alpha, "leading coefficient is not 1"))
        for beta in f.support():
            if beta != alpha and not (combinat.descent_set(alpha) < combinat.descent_set(beta)):
                failures.append((alpha, f"term {beta} does not strictly refine {alpha}"))
    report = FamilyBasisReport(alphas, not failures, tuple(failures))
    return elements, report


# ---------------------------------------------------------------------------
# JSON forms

def qsym_to_json(f: QSymExpr) -> dict:
    degs = f.degrees()
    if len(degs) > 1:
        return {"components": [qsym_to_json(f.homogeneous_component(n)) for n in degs]}
    return {
        "degree": degs[0] if degs else 0,
        "terms": [{"composition": list(alpha), "coeff_t": tpoly_to_json(coeff)}
                  for alpha, coeff in f.items_sorted()],
    }


def qsym_from_json(data) -> QSymExpr:
    if "components" in data:
        return QSymExpr.sum_of(map(qsym_from_json, data["components"]))
    return QSymExpr({tuple(t["composition"]): tpoly_from_json(t["coeff_t"])
                     for t in data["terms"]})


def qsym_tensor_to_json(t: QSymTensor) -> dict:
    return {
        "terms": [{"left": list(a), "right": list(b), "coeff_t": tpoly_to_json(coeff)}
                  for (a, b), coeff in t.items_sorted()],
    }
