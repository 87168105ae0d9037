"""The circle coalgebra, coactions as gradings, and mixed tensor spaces.

Both the structure Hopf algebra and the coacting coalgebra are fixed to
the group algebra of the integers: basis of grouplikes u^n, with

    Delta(u^n) = u^n (x) u^n,   eps(u^n) = 1,   S(u^n) = u^-n.

A coaction by this Hopf algebra on a presented algebra is the same
thing as an integer grading on its generators, extended additively to
monomials.  Right and left coactions are stored together in a
``CoactionSpec``; star generators must carry opposite degrees since the
grouplike generator is unitary, and every rewrite rule must be
homogeneous.  Nothing else needs checking: the two coactions commute,
and 1 is covariant, for any pair of integer gradings (the bicomodule
rows of ``qpbundle.cli.suites`` are lemmas).

An element of the coalgebra is a one-slot ``TensorElement`` of shape
``(coalg_slot(),)``: ``grouplike(n)`` builds u^n, the tensor ``+`` adds
coalgebra elements and ``tensor_mul`` multiplies them by adding
grouplike indices.

``TensorElement`` is the workhorse for everything tensor-shaped in the
verification suites: P(x)P, P(x)C, H(x)P(x)P, (A(x)P)(x)(A(x)P) and so
on.  Algebra slots hold normal-form monomials of a named presentation,
coalgebra slots hold grouplike indices.  Shapes are explicit and
checked where data enters: the public ``TensorElement`` constructor
drops zero coefficients, merges equal keys and checks every key's
arity, and each operation checks its operands' shapes on entry.  The
results of those operations are canonical by construction (every sum
goes through ``accumulate``, and Z[L^+-1, M^+-1] has no zero divisors),
so they are stored through ``_trusted_tensor``, which assumes a tuple
shape, full-arity tuple keys, no zero coefficient and a dict that no
one else holds.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Mapping, Sequence

from .scalar import LaurentScalar, ONE, accumulate, render_scalar
from .skewalg import (
    AlgebraElement,
    AlgebraPresentation,
    Monomial,
    PresentationError,
    monomial_key,
)


def _vec_degree(vec: tuple[int, ...], m: Monomial) -> int:
    return sum(map(mul, vec, m))


def _require_homogeneous(p: AlgebraPresentation, vec: tuple[int, ...], label: str):
    """Raise unless ``vec`` grades every generator of ``p`` and every
    rewrite rule of ``p`` is homogeneous for it."""
    if len(vec) != len(p.generators):
        raise PresentationError(
            "%s grading has %d entries for %d generators" % (label, len(vec), len(p.generators))
        )
    for lhs, rhs in p.reductions:
        d = _vec_degree(vec, lhs)
        if any(_vec_degree(vec, m) != d for m in rhs):
            raise PresentationError(
                "rewrite rule %s is not homogeneous for the %s grading"
                % (p.render_monomial(lhs), label)
            )


class CoactionSpec:
    """Integer gradings on the generators of one presented algebra.

    ``right`` holds the degrees of the right coaction (m -> m (x)
    u^deg), ``left`` those of the left coaction (m -> u^deg (x) m);
    either may be absent.  Monomial degrees are sums of generator
    degrees, so coactions are automatically algebra maps; the
    generator-level data must satisfy two laws checked here:

    * star partners carry opposite degrees (unitarity of u);
    * every rewrite rule is homogeneous, otherwise the grading would
      not descend to the quotient.
    """

    def __init__(
        self,
        presentation: AlgebraPresentation,
        right: Mapping[str, int] | None = None,
        left: Mapping[str, int] | None = None,
    ):
        self.presentation = presentation
        self.right = dict(right) if right is not None else None
        self.left = dict(left) if left is not None else None
        # per-generator degree vectors in generator order, fixed here
        vectors = {}
        for table, label in ((self.right, "right"), (self.left, "left")):
            if table is None:
                vectors[label] = None
                continue
            missing = [g for g in presentation.generators if g not in table]
            if missing:
                raise PresentationError("%s degree missing for %r" % (label, missing[0]))
            for g in presentation.generators:
                if table[g] != -table[presentation.star_map[g]]:
                    raise PresentationError(
                        "%s degrees of %r and its star are not opposite" % (label, g)
                    )
            vec = vectors[label] = tuple(table[g] for g in presentation.generators)
            _require_homogeneous(presentation, vec, label)
        self._right_vec = vectors["right"]
        self._left_vec = vectors["left"]

    def right_degree(self, m: Monomial) -> int:
        if self._right_vec is None:
            raise PresentationError("no right coaction declared")
        return _vec_degree(self._right_vec, m)

    def left_degree(self, m: Monomial) -> int:
        if self._left_vec is None:
            raise PresentationError("no left coaction declared")
        return _vec_degree(self._left_vec, m)

    def has_right(self) -> bool:
        return self.right is not None

    def has_left(self) -> bool:
        return self.left is not None


# -- tensor shapes ------------------------------------------------------------


class ShapeError(ValueError):
    """Tensor operands with mismatched or unexpected shapes."""


_COALG = ("coalg", None)


def coalg_slot():
    return _COALG


def alg_slot(p: AlgebraPresentation):
    return ("alg", p)


class TensorElement:
    """Exact element of a tensor space with explicit slot structure.

    ``shape`` is a tuple of slot descriptors; keys of ``terms`` are
    tuples with one entry per slot: a monomial for an algebra slot, an
    integer grouplike index for a coalgebra slot.  Algebra-slot entries
    are required to be irreducible, which all constructors below
    guarantee by building through the presentation's normal form.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms: Mapping[tuple, LaurentScalar] | None = None):
        self.shape = tuple(shape)
        self.terms: dict[tuple, LaurentScalar] = {}
        if terms:
            for key, c in terms.items():
                if c.is_zero():
                    continue
                k = tuple(key)
                if len(k) != len(self.shape):
                    raise ShapeError("key arity does not match shape")
                accumulate(self.terms, k, c)

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_shape(self, other: "TensorElement"):
        if self.shape != other.shape:
            raise ShapeError("tensor shapes differ")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._require_same_shape(other)
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
    return _trusted_tensor((_COALG,), {(n,): ONE})


# -- tensor operations -------------------------------------------------------


def tensor_of(factors: Sequence) -> TensorElement:
    """Tensor product of factors, fully expanded: an AlgebraElement
    fills one slot, a TensorElement contributes all of its slots.

    The Cartesian product is already canonical: distinct per-slot keys
    give distinct key tuples, and Z[L^+-1, M^+-1] has no zero divisors,
    so no product of nonzero coefficients is zero.
    """
    shape: tuple = ()
    terms = None
    for f in factors:
        if isinstance(f, AlgebraElement):
            shape += (alg_slot(f.presentation),)
            entries = {(m,): c for m, c in f.terms.items()}
        elif isinstance(f, TensorElement):
            shape += f.shape
            entries = dict(f.terms)
        else:
            raise ShapeError("cannot place %r in a tensor slot" % type(f))
        # the first factor's coefficients are taken as they are, not times 1
        if terms is None:
            terms = entries
        else:
            terms = {k + kk: c * cc for k, c in terms.items() for kk, cc in entries.items()}
    return _trusted_tensor(shape, {(): ONE} if terms is None else terms)


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
            for (kind, pres), a, b in zip(x.shape, kx, ky):
                if kind == "alg":
                    f, prod = pres.mono_mul(a, b)
                    c = c * f
                    key.append(prod)
                else:
                    key.append(a + b)
            accumulate(raw, tuple(key), c)
    for i, (kind, pres) in enumerate(x.shape):
        if kind == "alg":
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


def _add_scaled(out: dict, t: TensorElement, c) -> None:
    """Accumulate c times the terms of t into the term map ``out``."""
    for k, x in t.terms.items():
        accumulate(out, k, x * c)


def tensor_apply(t: TensorElement, slot: int, f: Callable) -> TensorElement:
    """Apply a linear slot map to one slot and splice the result.

    ``f`` receives the slot's key (monomial or grouplike index) and
    must return an AlgebraElement or a TensorElement; the returned shape
    replaces the chosen slot (the same way for every term, which is
    checked).  A tensor without terms reads its shape from ``f`` at the
    slot's unit key: the unit monomial or the index 0.
    """
    if not 0 <= slot < len(t.shape):
        raise ShapeError("slot index out of range")
    out_terms: dict[tuple, LaurentScalar] = {}
    out_shape = None
    for key, c in t.terms.items():
        img = _as_tensor(f(key[slot]))
        new_shape = t.shape[:slot] + img.shape + t.shape[slot + 1 :]
        if out_shape is None:
            out_shape = new_shape
        elif out_shape != new_shape:
            raise ShapeError("slot map is not shape-uniform")
        head, tail = key[:slot], key[slot + 1 :]
        for ikey, ic in img.terms.items():
            accumulate(out_terms, head + ikey + tail, c * ic)
    if out_shape is None:
        kind, pres = t.shape[slot]
        img = _as_tensor(f(pres.one_monomial() if kind == "alg" else 0))
        out_shape = t.shape[:slot] + img.shape + t.shape[slot + 1 :]
    return _trusted_tensor(out_shape, out_terms)


def _as_tensor(x) -> TensorElement:
    return tensor_of([x]) if isinstance(x, AlgebraElement) else x


# -- coactions ---------------------------------------------------------------


def _coact_monomial(spec: CoactionSpec, m: Monomial) -> TensorElement:
    """Right coaction of a normal monomial, m (x) u^deg, without reducing m."""
    return _trusted_tensor((alg_slot(spec.presentation), _COALG), {(m, spec.right_degree(m)): ONE})


def render_tensor(t: TensorElement) -> str:
    """Deterministic text form: terms like ``c (x | y | u^n)``."""
    if not t.terms:
        return "0"

    def slot_str(slot, key):
        kind, pres = slot
        if kind == "alg":
            return pres.render_monomial(key)
        return "u^%d" % key if key else "u^0"

    def key_order(key):
        bits = []
        for slot, k in zip(t.shape, key):
            if slot[0] == "alg":
                bits.append(monomial_key(k))
            else:
                bits.append((k,))
        return tuple(bits)

    pieces = []
    for key in sorted(t.terms, key=key_order):
        c = t.terms[key]
        body = "(" + " | ".join(slot_str(s, k) for s, k in zip(t.shape, key)) + ")"
        neg = False
        if len(c.terms) == 1 and next(iter(c.terms.values())) < 0:
            neg = True
            c = -c
        if not c.is_one():
            cs = render_scalar(c)
            if len(c.terms) > 1:
                cs = "(%s)" % cs
            body = "%s %s" % (cs, body)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)
