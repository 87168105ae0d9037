"""The circle coalgebra, coactions as gradings, and mixed tensor spaces.

Both the structure Hopf algebra and the coacting coalgebra are fixed to
the group algebra of the integers: basis of grouplikes u^n, with

    Delta(u^n) = u^n (x) u^n,   eps(u^n) = 1,   S(u^n) = u^-n.

A coaction by this Hopf algebra on a presented algebra is the same
thing as an integer grading on its generators, extended additively to
monomials.  Right and left coactions are stored together in a
``CoactionSpec``; star generators must carry opposite degrees since the
grouplike generator is unitary, so ``CoactionSpec`` fills in the negated
degree of a star partner that has none, and every rewrite rule must be
homogeneous.  Nothing else needs checking: the two coactions commute,
and 1 is covariant, for any pair of integer gradings (the bicomodule
rows of ``qpbundle.cli.suites`` are lemmas).

An element of the coalgebra is a one-slot ``TensorElement`` whose slot
is ``None``: ``grouplike(n)`` builds u^n, the tensor ``+`` adds
coalgebra elements and ``tensor_mul`` multiplies them by adding
grouplike indices.

``TensorElement`` holds everything tensor-shaped in the verification
suites: connection images in P(x)P, their lifted canonical images in
P(x)C, and the same over the ambient algebra A(x)P.  A shape is the
tuple of its slots' algebras: an algebra slot is its
``AlgebraPresentation`` and holds normal-form monomials of it, the
circle's slot is ``None`` and holds grouplike indices.  The operations
are sums, scaling, ``tensor_of`` (tensor product of factors) and
``tensor_mul`` (slot-wise product, each algebra slot reduced once per
group of terms by ``_reduce_slot``).  A
map applied to one slot, and the product of two adjacent slots, serve
no row; the tests keep them as references (``tests/oracles.py``), and
``qpbundle.connection`` computes the one such composite a row needs,
the lifted canonical map, in one pass.  Shapes are explicit and
checked where data enters: the public ``TensorElement`` constructor
refuses a slot that is neither a presentation nor ``None``, drops zero
coefficients, merges equal keys and checks every key's arity, and each
operation checks its operands' shapes on entry.  The results of those
operations are canonical by construction (every sum goes through
``accumulate``, and Z[L^+-1, M^+-1] has no zero divisors), so they are
stored through ``_trusted_tensor``, which assumes a tuple
shape, full-arity tuple keys, no zero coefficient and a dict that no
one else holds.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from .scalar import LaurentScalar, ONE, accumulate
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    Monomial,
    PackageError,
    PresentationError,
    _check_arity,
    _render_sum,
    monomial_key,
)


def _vec_degree(vec: tuple[int, ...], m: Monomial) -> int:
    return sum(map(mul, vec, m))


def _grading(p: AlgebraPresentation, given: Mapping[str, int] | None, label: str):
    """The completed table of ``given`` and its degree vector in
    generator order, or (None, None) for an absent left table.  A
    generator missing from ``given`` gets its star partner's degree, negated.
    Raise on a name that is not a generator, a star pair with no degree,
    partners whose degrees are not opposite, or a rewrite rule that is
    not homogeneous."""
    if given is None:
        return None, None
    for g in given:
        if g not in p.index:
            raise PresentationError("%s degree for %r, which is not a generator" % (label, g))
    table = {}
    for g in p.generators:
        partner = p.star_map[g]
        if g in given:
            table[g] = given[g]
        elif partner in given:
            table[g] = -given[partner]
        else:
            raise PresentationError("no %s degree for %r or its star partner" % (label, g))
        if partner in given and table[g] != -given[partner]:
            raise PresentationError("%s degrees of %r and its star are not opposite" % (label, g))
    vec = tuple(table[g] for g in p.generators)
    for lhs, rhs in p.reductions:
        d = _vec_degree(vec, lhs)
        if any(_vec_degree(vec, m) != d for m in rhs):
            raise PresentationError(
                "rewrite rule %s is not homogeneous for the %s grading"
                % (p.render_monomial(lhs), label)
            )
    return table, vec


class CoactionSpec:
    """Integer gradings on the generators of one presented algebra.

    ``right`` holds the degrees of the right coaction (m -> m (x)
    u^deg), which every graded algebra has; ``left`` those of the left
    coaction (m -> u^deg (x) m), which only a bicomodule has: the second
    factor of a tower, and not its first factor or the gradings of its
    cotensor algebra.  Monomial degrees are sums of generator
    degrees, so coactions are automatically algebra maps; the
    generator-level data must satisfy two laws checked here:

    * star partners carry opposite degrees (unitarity of u), so a
      generator without a degree gets its star partner's, negated;
    * every rewrite rule is homogeneous, otherwise the grading would
      not descend to the quotient.

    A table must name generators only, and give a degree to at least
    one of each star pair; ``right`` and ``left`` hold the completed
    tables.
    """

    def __init__(
        self,
        presentation: AlgebraPresentation,
        right: Mapping[str, int],
        left: Mapping[str, int] | None = None,
    ):
        self.presentation = presentation
        self.right, self._right_vec = _grading(presentation, right, "right")
        self.left, self._left_vec = _grading(presentation, left, "left")

    def right_degree(self, m: Monomial) -> int:
        return _vec_degree(self._right_vec, m)

    def left_degree(self, m: Monomial) -> int:
        if self._left_vec is None:
            raise PresentationError("no left coaction declared")
        return _vec_degree(self._left_vec, m)

    def has_left(self) -> bool:
        return self.left is not None


# -- tensor shapes ------------------------------------------------------------


class ShapeError(PackageError):
    """Tensor operands with mismatched or unexpected shapes."""


class TensorElement:
    """Exact element of a tensor space with explicit slot structure.

    ``shape`` is a tuple with one entry per slot: the slot's
    ``AlgebraPresentation``, or None for the circle.  Keys of ``terms``
    are tuples with one entry per slot: a monomial for an algebra slot,
    an integer grouplike index for the circle's.  Algebra-slot entries
    are required to be irreducible, which all constructors below
    guarantee by building through the presentation's normal form; the
    public constructor checks that each has one exponent per generator.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms: Mapping[tuple, LaurentScalar] | None = None):
        self.shape = tuple(shape)
        for pres in self.shape:
            if pres is not None and not isinstance(pres, AlgebraPresentation):
                raise ShapeError(
                    "a tensor slot is an AlgebraPresentation or None, not %s" % type(pres).__name__
                )
        self.terms: dict[tuple, LaurentScalar] = {}
        if terms:
            for key, c in terms.items():
                if c.is_zero():
                    continue
                k = tuple(key)
                if len(k) != len(self.shape):
                    raise ShapeError("key arity does not match shape")
                accumulate(self.terms, k, c)
        for i, pres in enumerate(self.shape):
            if pres is not None:
                _check_arity(pres, (k[i] for k in self.terms), ShapeError)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.shape != other.shape:
            raise ShapeError("tensor shapes differ")
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return _trusted_tensor(self.shape, out)

    def __neg__(self) -> "TensorElement":
        return _trusted_tensor(self.shape, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, c) -> "TensorElement":
        if not c:
            return _trusted_tensor(self.shape, {})
        # Z[L^+-1, M^+-1] has no zero divisors: no product is zero
        return _trusted_tensor(self.shape, {k: x * c for k, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_mul(self, other)
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return "<tensor %s>" % render_tensor(self)


def _trusted_tensor(shape: tuple, terms: dict) -> TensorElement:
    """Package-private constructor for a term map built canonical.

    Stores ``terms`` as it is, without the public constructor's zero
    filter, merge and arity check.  The caller guarantees that ``shape``
    is a tuple, every key is a tuple with one entry per slot, no
    coefficient is zero, and nothing else holds the dict.
    """
    t = object.__new__(TensorElement)
    t.shape = shape
    t.terms = terms
    return t


# -- the circle coalgebra ----------------------------------------------------


def grouplike(n: int) -> TensorElement:
    """The grouplike u^n as a one-slot coalgebra tensor."""
    return _trusted_tensor((None,), {(n,): ONE})


# -- tensor operations -------------------------------------------------------


def tensor_of(factors: Sequence) -> TensorElement:
    """Tensor product of factors, fully expanded: an AlgebraElement
    fills one slot, a TensorElement contributes all of its slots.

    The Cartesian product is already canonical: distinct per-slot keys
    give distinct key tuples, and Z[L^+-1, M^+-1] has no zero divisors,
    so no product of nonzero coefficients is zero.
    """
    shape: tuple = ()
    terms = {(): ONE}
    for f in factors:
        if isinstance(f, AlgebraElement):
            shape += (f.presentation,)
            entries = {(m,): c for m, c in f.terms.items()}
        elif isinstance(f, TensorElement):
            shape += f.shape
            entries = f.terms
        else:
            raise ShapeError("cannot place %r in a tensor slot" % type(f))
        terms = {k + kk: c * cc for k, c in terms.items() for kk, cc in entries.items()}
    return _trusted_tensor(shape, terms)


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Slot-wise product of two tensors of identical shape.

    One pass forms every term product with its raw monomial products,
    then each algebra slot is reduced by ``_reduce_slot``.
    """
    if x.shape != y.shape:
        raise ShapeError("tensor shapes differ")
    raw: dict[tuple, LaurentScalar] = {}
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            c = cx * cy
            key = []
            for pres, a, b in zip(x.shape, kx, ky):
                if pres is None:
                    key.append(a + b)
                else:
                    f, prod = pres.mono_mul(a, b)
                    c = c * f
                    key.append(prod)
            accumulate(raw, tuple(key), c)
    for i, pres in enumerate(x.shape):
        if pres is not None:
            raw = _reduce_slot(raw, i, pres)
    return _trusted_tensor(x.shape, raw)


def _reduce_slot(terms: dict, slot: int, pres: AlgebraPresentation) -> dict:
    """Normal-form the q-sorted monomials in one algebra slot of a term
    map, with one ``reduce_terms`` call per group of terms that agree on
    the other slots.  ``reduce_terms`` is linear on every presentation,
    so this equals reducing term by term.
    """
    groups: dict[tuple, dict] = {}
    for key, c in terms.items():
        groups.setdefault((key[:slot], key[slot + 1 :]), {})[key[slot]] = c
    out = {}
    for (head, tail), raw in groups.items():
        for m, c in pres.reduce_terms(raw).items():
            out[head + (m,) + tail] = c
    return out


def render_tensor(t: TensorElement) -> str:
    """Deterministic text form: terms like ``c (x | y | u^n)``."""

    def slot_str(pres, key):
        return "u^%d" % key if pres is None else pres.render_monomial(key)

    def key_order(key):
        return tuple((k,) if pres is None else monomial_key(k) for pres, k in zip(t.shape, key))

    terms = (
        (t.terms[key], "(" + " | ".join(slot_str(s, k) for s, k in zip(t.shape, key)) + ")")
        for key in sorted(t.terms, key=key_order)
    )
    return _render_sum(terms)
