"""Exact coefficient arithmetic.

Every coefficient appearing in the deformed-sphere computations is an
integer combination of monomials in two formal unimodular symbols
``L`` and ``M`` (two independent deformation parameters on the unit
circle).  Conjugation of a unimodular number is inversion, so the star
operation on coefficients simply negates all exponents.

Scalars are integer-coefficient Laurent polynomials in (L, M), stored
as a canonical map from exponent pairs to nonzero integers.  No
division is ever performed; anything that would need rational
coefficients is rejected by construction.

Most coefficients are 1, so the unit is one shared object, ``ONE``:
the named constructors and the product of two scalars return it for 1,
and ``x * ONE`` is ``x``, with no scalar built.  Identity is only a
fast path, since the public constructor still builds new 1s; equality
of term maps stays the definition.
"""

from __future__ import annotations

import math
from typing import Mapping


class LaurentScalar:
    """An integer-coefficient Laurent polynomial in the symbols L and M.

    Immutable and canonical: zero coefficients are never stored, so two
    scalars are equal iff their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[tuple[int, int], int] | None = None, _canonical: bool = False
    ):
        if _canonical:
            # private: this module's own results, built without zero
            # coefficients on (int, int) keys, are stored as they are
            self._terms = terms
            return
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (e_l, e_m), coeff in terms.items():
                if not type(e_l) is type(e_m) is type(coeff) is int:
                    raise TypeError("exponents and coefficients must be int: %r" % (terms,))
                if coeff:
                    e = (e_l, e_m)
                    c = clean.get(e, 0) + coeff
                    if c:
                        clean[e] = c
                    elif e in clean:
                        del clean[e]
        self._terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls()

    @classmethod
    def one(cls) -> "LaurentScalar":
        return ONE

    @classmethod
    def integer(cls, n: int) -> "LaurentScalar":
        return cls.monomial(n)

    @classmethod
    def monomial(cls, coeff: int = 1, e_l: int = 0, e_m: int = 0) -> "LaurentScalar":
        if coeff == 1 and not (e_l or e_m):
            return ONE
        return cls({(e_l, e_m): coeff})

    @classmethod
    def lam(cls, power: int = 1) -> "LaurentScalar":
        """The first deformation symbol L raised to an integer power."""
        return cls.monomial(1, power)

    @classmethod
    def lam2(cls, power: int = 1) -> "LaurentScalar":
        """The second deformation symbol M raised to an integer power."""
        return cls.monomial(1, 0, power)

    # -- queries -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0, 0): 1}

    def is_unit_monomial(self) -> bool:
        """True iff the scalar is a single term with coefficient +-1.

        These are exactly the scalars that may appear as commutation
        coefficients, since they are invertible in the integer Laurent
        ring.
        """
        if len(self._terms) != 1:
            return False
        return abs(next(iter(self._terms.values()))) == 1

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        # scalars are immutable, so a sum with zero is the other operand
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return LaurentScalar(out, True)

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar({e: -c for e, c in self._terms.items()}, True)

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not LaurentScalar:
            if not isinstance(other, int):
                return NotImplemented
            if other == 1:
                return self
            if not other:
                return LaurentScalar()
            return LaurentScalar({e: c * other for e, c in self._terms.items()}, True)
        # scalars are immutable: a product with the unit is the other factor
        if other is ONE:
            return self
        if self is ONE:
            return other
        if len(self._terms) == 1 and len(other._terms) == 1:
            # unit-monomial q-factors make this the common case
            (((l1, m1), c1),) = self._terms.items()
            (((l2, m2), c2),) = other._terms.items()
            e, c = (l1 + l2, m1 + m2), c1 * c2
            return ONE if c == 1 and e == (0, 0) else LaurentScalar({e: c}, True)
        out: dict[tuple[int, int], int] = {}
        for (l1, m1), c1 in self._terms.items():
            for (l2, m2), c2 in other._terms.items():
                e = (l1 + l2, m1 + m2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentScalar(out, True)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentScalar":
        if power < 0:
            return self.inverse() ** (-power)
        out = ONE
        base = self
        p = power
        while p:
            if p & 1:
                out = out * base
            base = base * base
            p >>= 1
        return out

    def inverse(self) -> "LaurentScalar":
        """Inverse of a unit monomial; anything else has none."""
        if not self.is_unit_monomial():
            raise ValueError("only unit monomials are invertible: %r" % self)
        ((e_l, e_m), c), = self._terms.items()
        return self if self is ONE else LaurentScalar({(-e_l, -e_m): c}, True)

    def star(self) -> "LaurentScalar":
        """Conjugation: exponents negate, integer coefficients stay."""
        if self is ONE:
            return self
        return LaurentScalar({(-l, -m): c for (l, m), c in self._terms.items()}, True)

    # -- protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return "LaurentScalar(%s)" % render_scalar(self)


def render_scalar(x: LaurentScalar) -> str:
    """Canonical text form, e.g. ``2*L^-1*M^3 + 1``."""
    if x.is_zero():
        return "0"
    pieces = []
    for (e_l, e_m), c in sorted(x._terms.items(), reverse=True):
        factors = []
        if e_l:
            factors.append("L" if e_l == 1 else "L^%d" % e_l)
        if e_m:
            factors.append("M" if e_m == 1 else "M^%d" % e_m)
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


ZERO = LaurentScalar.zero()
ONE = LaurentScalar({(0, 0): 1})


def accumulate(out: dict, key, c: LaurentScalar) -> None:
    """Add ``c`` to ``out[key]`` in place, keeping ``out`` free of zeros.

    The one add-and-drop-zero step behind every sparse combination
    (tensors, coalgebra and algebra elements): a missing key takes
    ``c`` unless it is zero, and a sum that cancels deletes the key.
    """
    old = out.get(key)
    if old is None:
        if c._terms:
            out[key] = c
        return
    s = old + c
    if s._terms:
        out[key] = s
    else:
        del out[key]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient as an exact integer (0 outside range)."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
