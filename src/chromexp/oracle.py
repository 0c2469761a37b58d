"""Independent brute-force ground truth: truncated realizations in k
commuting variables or k noncommuting letters, and literal colouring
enumeration. Nothing here shares enumeration code with the chromatic
engine; that independence is the whole point."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import EdgeColouredDigraph, LabelledDigraph, labelled
from .qsym import _merge
from .tpoly import TPoly


def _as_tpoly(value) -> TPoly:
    return value if isinstance(value, TPoly) else TPoly.of(value)


class _KeyedPoly:
    """A sparse map from keys in k variables or letters to TPoly
    coefficients. Each subclass supplies `_key` (check and normalize one
    key), `_operands` (what differs between incompatible operands) and
    its product."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=()):
        self.k = k
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            _merge(data, self._key(k, key), _as_tpoly(coeff))
        self.terms = data

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.k == other.k and self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _merge(out, key, coeff)
        return type(self)(self.k, out)

    def _check(self, other):
        if not isinstance(other, type(self)) or other.k != self.k:
            raise ValueError(f"operands use different {self._operands}")


class TruncPoly(_KeyedPoly):
    """A polynomial in x_1..x_k with TPoly coefficients, stored as a map
    from exponent vectors of length k."""

    __slots__ = ()
    _operands = "variable counts"

    @staticmethod
    def _key(k, key):
        key = tuple(int(e) for e in key)
        if len(key) != k:
            raise ValueError(f"exponent vector {key} does not have length {k}")
        return key

    def __mul__(self, other):
        self._check(other)
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                _merge(out, tuple(x + y for x, y in zip(a, b)), ca * cb)
        return TruncPoly(self.k, out)

    def __repr__(self):
        return f"TruncPoly(k={self.k}, {len(self.terms)} monomials)"


class WordPoly(_KeyedPoly):
    """A polynomial in noncommuting letters 1..k: a map from words."""

    __slots__ = ()
    _operands = "alphabets"

    @staticmethod
    def _key(k, key):
        key = tuple(int(x) for x in key)
        if any(not 1 <= x <= k for x in key):
            raise ValueError(f"letter out of range in word {key}")
        return key

    def __mul__(self, other):
        """Concatenation product."""
        self._check(other)
        out: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                _merge(out, a + b, ca * cb)
        return WordPoly(self.k, out)

    def __repr__(self):
        return f"WordPoly(k={self.k}, {len(self.terms)} words)"


# ---------------------------------------------------------------------------
# literal colouring enumeration

def _colouring_ok(g: EdgeColouredDigraph, colours) -> bool:
    for u, v, c in g.edges:
        cu, cv = colours[u], colours[v]
        if c.value == "neq" and cu == cv:
            return False
        if c.value == "lt" and not cu < cv:
            return False
        if c.value == "leq" and not cu <= cv:
            return False
    return True


def _ascents(g: EdgeColouredDigraph, colours) -> int:
    return sum(1 for u, v, _ in g.edges if colours[u] < colours[v])


def _colourings(g: EdgeColouredDigraph, k: int):
    """Every colouring with colours 1..k that passes every edge check."""
    return (colours for colours in itertools.product(range(1, k + 1), repeat=g.n)
            if _colouring_ok(g, colours))


def direct_expand(g: EdgeColouredDigraph, k: int) -> TruncPoly:
    """Sum t^asc x_kappa over all colourings: the commutative image of
    their colour words."""
    out: dict = {}
    for word, coeff in direct_expand_nc(labelled(g), k).terms.items():
        _merge(out, tuple(word.count(c) for c in range(1, k + 1)), coeff)
    return TruncPoly(k, out)


def direct_expand_nc(lg: LabelledDigraph, k: int) -> WordPoly:
    """Sum t^asc times the label-ordered colour word over all colourings."""
    if k < 1:
        raise ValueError("k must be positive")
    g = lg.graph
    order = sorted(range(g.n), key=lg.labels.__getitem__)
    out: dict = {}
    for colours in _colourings(g, k):
        _merge(out, tuple(colours[v] for v in order), TPoly.t_power(_ascents(g, colours)))
    return WordPoly(k, out)


def count_colourings(g: EdgeColouredDigraph, p: int) -> int:
    """The number of proper colourings with colours drawn from 1..p."""
    return sum(1 for _ in _colourings(g, p))


# ---------------------------------------------------------------------------
# realizations of symbolic expansions

def _default_variables(f) -> int:
    """The top degree: enough variables to distinguish its components."""
    degrees = [sum(key) if key and isinstance(key[0], int) else
               sum(len(b) for b in key) for key in f.terms]
    return max(degrees, default=1) or 1


def realize(f, k: int | None = None) -> TruncPoly:
    """Substitute each monomial index by its defining sum in x_1..x_k.

    k defaults to the top degree of f, the smallest faithful truncation.
    """
    if k is None:
        k = _default_variables(f)
    if k < 1:
        raise ValueError("k must be positive")
    out: dict = {}
    for alpha, coeff in f.terms.items():
        for positions in itertools.combinations(range(k), len(alpha)):
            exponents = [0] * k
            for pos, part in zip(positions, alpha):
                exponents[pos] = part
            _merge(out, tuple(exponents), coeff)
    return TruncPoly(k, out)


def realize_nc(f, k: int | None = None) -> WordPoly:
    """Substitute each set-composition index by its defining word sum."""
    if k is None:
        k = _default_variables(f)
    if k < 1:
        raise ValueError("k must be positive")
    out: dict = {}
    for phi, coeff in f.terms.items():
        n = sum(len(b) for b in phi)
        for values in itertools.combinations(range(1, k + 1), len(phi)):
            word = [0] * n
            for value, block in zip(values, phi):
                for pos in block:
                    word[pos - 1] = value
            _merge(out, tuple(word), coeff)
    return WordPoly(k, out)


# ---------------------------------------------------------------------------
# comparison

@dataclass(frozen=True)
class EqualityReport:
    ok: bool
    detail: str = ""

    def __bool__(self):
        return self.ok


def assert_equal(a, b) -> EqualityReport:
    """Exact termwise comparison; on failure, report the first monomial
    (in canonical order) whose coefficients differ."""
    if type(a) is not type(b):
        return EqualityReport(False, f"kind mismatch: {type(a).__name__} vs {type(b).__name__}")
    if a.k != b.k:
        return EqualityReport(False, f"variable counts differ: {a.k} vs {b.k}")
    if a == b:
        return EqualityReport(True)
    keys = sorted(set(a.terms) | set(b.terms),
                  key=lambda key: (len(key), key) if isinstance(a, WordPoly) else key)
    for key in keys:
        ca = a.terms.get(key, TPoly())
        cb = b.terms.get(key, TPoly())
        if ca != cb:
            return EqualityReport(
                False, f"first difference at {key}: {ca.pretty()} vs {cb.pretty()}")
    return EqualityReport(True)
