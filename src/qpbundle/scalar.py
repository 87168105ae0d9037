"""Exact coefficient arithmetic.

Every coefficient appearing in the deformed-sphere computations is an
integer combination of monomials in two formal unimodular symbols
``L`` and ``M`` (two independent deformation parameters on the unit
circle).  Conjugation of a unimodular number is inversion, so the star
operation on coefficients simply negates all exponents.

Scalars are integer-coefficient Laurent polynomials in (L, M), each
monomial L^l M^m an int key l 2^32 + m (packed exponents, M. Monagan and
R. Pearce, CASC 2007) with l and m in [-2^30, 2^30): a result outside
raises ``PackageError``.  So does a coefficient of more than
``MAX_DIGITS`` decimal digits where it would be printed, and a power
that could build one.  A single term, nearly every scalar the verifier
meets, is an int coefficient and a key, so its products and same-key sums
are int operations; only two or more terms keep a map from keys to ints.

Most coefficients are 1, so the unit is one shared object, ``ONE``:
the named constructors and the product of two scalars return it for 1,
and ``x * ONE`` is ``x``, with no scalar built.  Identity is only a
fast path, since the public constructor still builds new 1s; equality
of terms stays the definition.  A sum that cancels is the shared
``ZERO``, and every other result is built through ``__init__``.
"""

from __future__ import annotations

import math
from typing import Mapping


class PackageError(ValueError):
    """Base of the errors the package raises on its input: presentation,
    tensor shape, preset parse, run setting and scalar exponent range.
    A row that meets one fails with its message
    (``qpbundle.report.check``), and the command line exits 2 on one met
    outside a row; any other exception is a bug."""


# a key plus _BIAS holds each exponent plus _B in a field of its own; a sum
# of two keys in range has a bit of _INVALID set iff it leaves the range
_W, _B = 1 << 32, 1 << 30
_BIAS = _B * _W + _B
_INVALID = ~((2 * _B - 1) * (_W + 1))
_RANGE = "a scalar exponent left [-2^30, 2^30)"

# the most decimal digits a printed coefficient or a read integer has: the
# default of CPython's int-to-str limit, fixed here on every interpreter
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
_DIGITS = "a coefficient of more than %d digits" % MAX_DIGITS

# the most term products the last squaring of a power of a sum may take
POWER_BUDGET = 100_000


def _checked(k: int) -> int:
    if (k + _BIAS) & _INVALID:
        raise PackageError(_RANGE)
    return k


class LaurentScalar:
    """An integer-coefficient Laurent polynomial in the symbols L and M.

    Immutable and canonical: a single term is the nonzero coefficient
    ``_c`` at key ``_k`` with ``_terms`` None, and any other scalar has
    ``_c`` 0 and a map ``_terms`` without zeros, so two scalars are
    equal iff their three fields are.
    """

    __slots__ = ("_c", "_k", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None, _c=0, _k=0, _map=None):
        # private: this module's results, a nonzero int _c at a key _k in
        # range or a zero-free key map _map, are stored as they are
        if _c:
            self._c, self._k, self._terms = _c, _k, None
            return
        if _map is None:
            _map = {}
            for (e_l, e_m), coeff in (terms or {}).items():
                if not type(e_l) is type(e_m) is type(coeff) is int:
                    raise TypeError("exponents and coefficients must be int: %r" % (terms,))
                if not (-_B <= e_l < _B and -_B <= e_m < _B):
                    raise PackageError("scalar exponents %d, %d leave [-2^30, 2^30)" % (e_l, e_m))
                k = e_l * _W + e_m
                _map[k] = _map.get(k, 0) + coeff
            _map = {k: c for k, c in _map.items() if c}
        ((self._k, self._c),) = _map.items() if len(_map) == 1 else ((0, 0),)
        self._terms = None if self._c else _map

    def _items(self):
        return ((self._k, self._c),) if self._c else self._terms.items()

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
        """The map (L exponent, M exponent) -> nonzero coefficient."""
        return {tuple(e - _B for e in divmod(k + _BIAS, _W)): c for k, c in self._items()}

    def is_zero(self) -> bool:
        return not (self._c or self._terms)

    def is_one(self) -> bool:
        return self._c == 1 and not self._k

    def is_unit_monomial(self) -> bool:
        """True iff the scalar is a single term with coefficient +-1.

        These are exactly the scalars that may appear as commutation
        coefficients, since they are invertible in the integer Laurent
        ring.
        """
        return self._c in (1, -1)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        c1, c2 = self._c, other._c
        if c1 and c2 and self._k == other._k:
            c, k = c1 + c2, self._k
            return ONE if c == 1 and not k else LaurentScalar(None, c, k) if c else ZERO
        # scalars are immutable, so a sum with zero is the other operand
        if not (c1 or self._terms):
            return other
        if not (c2 or other._terms):
            return self
        out = dict(self._items())
        for k, c in other._items():
            s = out.pop(k, 0) + c
            if s:
                out[k] = s
        return LaurentScalar(_map=out)

    def __neg__(self) -> "LaurentScalar":
        return self * -1

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not LaurentScalar:
            if not isinstance(other, int):
                return NotImplemented
            if other == 1:
                return self
            if not other:
                return ZERO
            if self._c:
                return LaurentScalar(None, self._c * other, self._k)
            return LaurentScalar(_map={k: c * other for k, c in self._terms.items()})
        # scalars are immutable: a product with the unit is the other factor
        if other is ONE:
            return self
        if self is ONE:
            return other
        c = self._c * other._c
        if c:
            # unit-monomial q-factors make two single terms the common case
            k = self._k + other._k
            if k:
                return LaurentScalar(None, c, _checked(k))
            return ONE if c == 1 else LaurentScalar(None, c, 0)
        out: dict[int, int] = {}
        for k1, c1 in self._items():
            for k2, c2 in other._items():
                k = _checked(k1 + k2)
                s = out.pop(k, 0) + c1 * c2
                if s:
                    out[k] = s
        return LaurentScalar(_map=out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentScalar":
        if power < 0:
            return self.inverse() ** (-power)
        if self._c not in (1, -1):
            # every |coefficient| of self^power is at most s^power, s the
            # summed |c|: bit lengths refuse a large s^power unbuilt
            s = sum(abs(c) for _, c in self._items())
            if s > 1 and (
                power * (s.bit_length() - 1) >= _TOO_LONG.bit_length() or s**power >= _TOO_LONG
            ):
                raise PackageError("a power that may have %s" % _DIGITS)
        if self._terms and power > 1:
            # the last squaring takes base^j, j the top bit of power // 2, to
            # base^2j; base^j has at most as many terms as the box j times the
            # base's L and M exponent spans has keys, and as there are
            # multisets of j of the base's n terms
            j, n = 1 << (power.bit_length() - 2), len(self._terms)
            ls, ms = zip(*(divmod(k + _BIAS, _W) for k in self._terms))
            box = (j * (max(ls) - min(ls)) + 1) * (j * (max(ms) - min(ms)) + 1)
            if min(box, math.comb(j + n - 1, n - 1)) ** 2 > POWER_BUDGET:
                raise PackageError("a power that may take more than %d term products" % POWER_BUDGET)
        out, base, p = ONE, self, power
        while p:
            if p & 1:
                out = out * base
            p >>= 1
            if p:
                base = base * base
        return out

    def inverse(self) -> "LaurentScalar":
        """Inverse of a unit monomial; anything else has none."""
        if not self.is_unit_monomial():
            raise ValueError("only unit monomials are invertible: %r" % self)
        return self.star()

    def star(self) -> "LaurentScalar":
        """Conjugation: exponents negate, integer coefficients stay."""
        if self is ONE:
            return self
        if self._c:
            return LaurentScalar(None, self._c, _checked(-self._k))
        return LaurentScalar(_map={_checked(-k): c for k, c in self._terms.items()})

    # -- protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._c == other._c and self._k == other._k and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._c, self._k) if self._c else frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._c or self._terms)

    def __repr__(self) -> str:
        return "LaurentScalar(%s)" % render_scalar(self)


# the log of +-L^l M^m holds, from the top, a count of 1, l + 2^30, m + 2^30
# and 1 if negative, in fields of _F bits; a field of a sum of logs gains at
# most 2^31 per crossing, so none carries into the next below 2^(_F - 31)
# crossings, and unit_exp refuses more
_F, _FIELD = 96, (1 << 96) - 1


def unit_log(q: LaurentScalar) -> int:
    """The unit monomial q as an int that adds as q multiplies."""
    e_l, e_m = divmod(q._k + _BIAS, _W)
    return (((1 << _F | e_l) << _F | e_m) << _F) + (q._c < 0)


def unit_exp(log: int) -> LaurentScalar:
    """The unit monomial of a sum of ``unit_log`` values, ``ONE`` when 1."""
    if not log:
        return ONE
    n = log >> 3 * _F
    if n >> _F - 31:
        raise PackageError("a q-sort crossed 2^%d letter pairs or more" % (_F - 31))
    e_l, e_m = (log >> 2 * _F & _FIELD) - n * _B, (log >> _F & _FIELD) - n * _B
    if not (-_B <= e_l < _B and -_B <= e_m < _B):
        raise PackageError(_RANGE)
    odd = log & 1
    return LaurentScalar(None, 1 - 2 * odd, e_l * _W + e_m) if e_l or e_m or odd else ONE


def render_scalar(x: LaurentScalar) -> str:
    """Canonical text form, e.g. ``2*L^-1*M^3 + 1``."""
    if x.is_zero():
        return "0"
    pieces = []
    for (e_l, e_m), c in sorted(x.terms.items(), reverse=True):
        if abs(c) >= _TOO_LONG:
            raise PackageError("cannot print %s" % _DIGITS)
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
        if c._c or c._terms:
            out[key] = c
        return
    s = old + c
    if s._c or s._terms:
        out[key] = s
    else:
        del out[key]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient as an exact integer (0 outside range)."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
