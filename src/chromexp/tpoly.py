"""Exact univariate polynomials in the ascent-counting variable t, and
the coefficients of term maps.

Coefficients are Python ints or fractions.Fraction, so every ring
operation is exact. Instances are immutable and hashable, which lets
them serve as coefficient values inside term maps.

A term-map coefficient is a nonzero exact scalar (an int that is not a
bool, or a Fraction) once t is specialized, and a nonzero TPoly where
the t-grading survives. The module functions `evaluate`, `degree`,
`coefficients`, `pretty` and `tpoly_to_json` accept either form and
treat a scalar c as the constant polynomial c.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest


class TPoly:
    """A polynomial sum(c_k * t^k), stored densely with trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _new(cls, coeffs: tuple) -> "TPoly":
        """Trusted constructor: coeffs is a tuple with no trailing zero."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def of(cls, c) -> "TPoly":
        return cls((c,))

    @classmethod
    def t_power(cls, k: int) -> "TPoly":
        return cls((0,) * k + (1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) <= 1 and self[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as its scalar, which it equals
        return hash(self[0]) if len(self.coeffs) <= 1 else hash(self.coeffs)

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other) -> "TPoly":
        if isinstance(other, TPoly):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for k, c in enumerate(b):
                out[k] += c
        elif isinstance(other, (int, Fraction)):
            out = list(self.coeffs) or [0]
            out[0] += other
        else:
            return NotImplemented
        while out and out[-1] == 0:
            out.pop()
        return TPoly._new(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "TPoly":
        return TPoly._new(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            return TPoly._new(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TPoly._new(tuple(out))  # leading coefficients multiply to nonzero

    __rmul__ = __mul__

    def evaluate(self, t=1):
        """Exact value at the given t (a horner evaluation)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self) -> str:
        return f"TPoly({self.coeffs!r})"

    def __str__(self) -> str:
        return self.pretty()

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                tk = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(tk)
                elif c == -1:
                    parts.append(f"-{tk}")
                else:
                    parts.append(f"{c}{tk}")
        text = "+".join(parts).replace("+-", "-")
        return text


ZERO = TPoly()


def check_coefficient(value):
    """value, when it is an exact coefficient: an int that is not a bool,
    a Fraction or a TPoly. Anything else raises TypeError."""
    if isinstance(value, (int, Fraction, TPoly)) and not isinstance(value, bool):
        return value
    raise TypeError(f"not an exact coefficient: {value!r}")


def coefficients(c) -> tuple:
    """The coefficients of c from t^0 up, with no trailing zero."""
    if isinstance(c, TPoly):
        return c.coeffs
    return (c,) if c else ()


def add_all(values: list):
    """The sum of a nonempty list of exact coefficients, totalled in one
    step: a list of one returns its own object, a list of scalars their
    sum, and a list holding a TPoly the TPoly summed column by column.
    Zero comes back falsy, as from the left fold of +."""
    if len(values) == 1:
        return values[0]
    if not any(isinstance(c, TPoly) for c in values):
        return sum(values)
    out = list(map(sum, zip_longest(*map(coefficients, values), fillvalue=0)))
    while out and out[-1] == 0:
        out.pop()
    return TPoly._new(tuple(out))


def evaluate(c, t=1):
    """The value of c at the given t; a scalar is its own value."""
    return c.evaluate(t) if isinstance(c, TPoly) else c


def degree(c) -> int:
    """Degree of c in t; -1 for zero."""
    if isinstance(c, TPoly):
        return c.degree()
    return 0 if c else -1


def pretty(c) -> str:
    """Readable text of c; a scalar prints as the constant TPoly does."""
    return c.pretty() if isinstance(c, TPoly) else str(c)


def _coerce(value):
    if isinstance(value, TPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return TPoly((value,))
    return None


def coeff_to_json(c):
    """One exact coefficient as a JSON value (int, or "num/den" for fractions)."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return f"{c.numerator}/{c.denominator}"
    return c


def coeff_from_json(value):
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or "1"))
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"not an exact coefficient: {value!r}")


def tpoly_to_json(c) -> list:
    """A coefficient as its list of powers of t: [c] for a scalar c."""
    return [coeff_to_json(x) for x in coefficients(c)]


def tpoly_from_json(data) -> TPoly:
    return TPoly(coeff_from_json(c) for c in data)
