"""Presented q-commutation *-algebras with deterministic normal forms.

An algebra here is given by finitely many generators g_1 < ... < g_k,
a table of unit-monomial coefficients q_ij (i > j) encoding

    g_i g_j = q_ij g_j g_i,

an involutive star pairing on generators, and finitely many oriented
inhomogeneous rewrite rules, both sides given by exponent vectors (for
the deformed 3-sphere, b b* -> 1 - a a* is (0,0,1,1) -> 1 - (1,1,0,0)).

``AlgebraPresentation`` alone checks the table: an entry may name a pair
in either order (one for g_j g_i gives q_ij^-1), once or consistently,
and every name in it and in the star pairing must be a generator.

Monomials are exponent vectors over the generator order.  A word is
normalized in two stages: q-sorting into an exponent vector (picking up
a unit-monomial coefficient from the inversions), then exhaustive rule
rewriting.  Rules are required to be strictly decreasing in a graded
order that is invariant under multiplication, which makes the
rewriting terminate.  ``check_local_confluence`` and ``check_star_compatible``
prove confluence and star-compatibility from finitely many checks.

Every q_ij is a unit monomial +-L^l M^m, kept as one int (``scalar.unit_log``)
that adds as q_ij multiplies, so the factor of any q-sort is a bilinear
form in the two exponent vectors, summed as one int and built as one
scalar; the power of a single term is then one q-sort too.

Rewriting follows the ordered reduction of Bergman's diamond lemma
(G. M. Bergman, Adv. Math. 29 (1978)): a reducible monomial m fires its
first rule once, and NF(m) is the sum of c NF(m') over the terms c m'
of that firing.  Each presentation stores NF(m) for every reducible
monomial that rewriting reaches and reuses it exactly, since one fixed
rule fires per monomial (see ``reduce_terms``), so each reducible
monomial fires once in the presentation's lifetime.  A cold
``b^k b*^k`` takes k(k+1)/2 rule firings, one per reducible
a^i a*^i b^j b*^j below it, instead of following each of the 2^k
rewrite paths that reach its normal form; it stores as many forms, of
up to k+1 terms each, so O(k^3) terms in total.

The monomial order: compare total degree first, then the *reversed*
exponent tuple lexicographically.  Reversal puts weight on the later
generators, so with the order a < a* < b < b* the mixed pair b b*
outranks a a* and the sphere rule is a valid reduction.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .scalar import (
    LaurentScalar, ONE, POWER_BUDGET, PackageError, accumulate, render_scalar, unit_exp, unit_log
)

Monomial = tuple[int, ...]


def monomial_key(m: Monomial) -> tuple:
    """Sort key realizing the graded order described in the module doc."""
    return (sum(m), tuple(reversed(m)))


class PresentationError(PackageError):
    """Raised when presentation data violates a structural invariant."""


class AlgebraPresentation:
    """Generators, q-commutation table, star pairing and rewrite rules.

    Its defining data is immutable after construction.  What changes
    are two private stores.  One holds normal forms, monomial to NF(m),
    for every reducible monomial that rewriting has reached:
    ``reduce_terms`` fills and reads it, and a stored NF(m) is exact in
    every later call, confluent rules or not, since rewriting fires a
    fixed rule per monomial.  The other holds
    the element of each generator that ``gen`` has built.  Both live
    and die with the presentation.  All element arithmetic is routed
    through this object so elements of different presentations can
    never be silently mixed.
    """

    def __init__(
        self,
        generators: Sequence[str],
        star_pairs: Mapping[str, str],
        commutation: Mapping[tuple[str, str], LaurentScalar],
        reductions: Sequence[tuple[Sequence[int], Mapping[Monomial, LaurentScalar]]] = (),
        name: str = "",
    ):
        self.generators = tuple(generators)
        self.name = name or "+".join(self.generators)
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        self.index = {g: i for i, g in enumerate(self.generators)}
        k = len(self.generators)

        # star involution on generator indices
        star: dict[str, str] = {}
        for g, h in star_pairs.items():
            for name in (g, h):
                if name not in self.index:
                    raise PresentationError(
                        "star pair names %r, which is not a generator" % name
                    )
            star[g] = h
            star[h] = g
        for g in self.generators:
            if g not in star:
                raise PresentationError("generator %r has no star partner" % g)
            if star[star[g]] != g:
                raise PresentationError("star pairing is not an involution at %r" % g)
        self.star_map = star

        # full q matrix; an entry for either order of a pair sets q[i][j]
        # for i > j, the rest is forced by consistency
        q = [[ONE for _ in range(k)] for _ in range(k)]
        given: dict[tuple[int, int], LaurentScalar] = {}
        for (gi, gj), val in commutation.items():
            if gi not in self.index or gj not in self.index:
                raise PresentationError(
                    "commutation entry (%s,%s) names an unknown generator" % (gi, gj)
                )
            i, j = self.index[gi], self.index[gj]
            if i == j:
                raise PresentationError(
                    "commutation entry (%s,%s) pairs a generator with itself" % (gi, gj)
                )
            if not val.is_unit_monomial():
                raise PresentationError(
                    "commutation coefficient for (%s,%s) is not a unit monomial: %s"
                    % (gi, gj, render_scalar(val))
                )
            if i < j:
                i, j, val = j, i, val.inverse()
            if given.setdefault((i, j), val) != val:
                raise PresentationError("conflicting commutation entries for (%s,%s)" % (gi, gj))
            q[i][j] = val
            q[j][i] = val.inverse()
        self.q = tuple(tuple(row) for row in q)
        # the entries q_ij != 1 with i > j as (j, unit_log q_ij), by row i;
        # sort_factor, _sort_word and star read them
        self._crossings = tuple(
            tuple((j, unit_log(q[i][j])) for j in range(i) if not q[i][j].is_one())
            for i in range(k)
        )

        # oriented rewrite rules, each side given by exponent vectors
        rules: list[tuple[Monomial, dict[Monomial, LaurentScalar]]] = []
        for lhs, rhs in reductions:
            lhs = tuple(lhs)
            rhs_terms = {tuple(m): c for m, c in rhs.items() if not c.is_zero()}
            _check_arity(self, [lhs, *rhs_terms], PresentationError)
            if not all(isinstance(e, int) and e >= 0 for e in lhs):
                raise PresentationError("rule left side %r is not a vector of ints >= 0" % (lhs,))
            if not any(lhs):
                # 1 would rewrite every monomial, the stored unit included
                raise PresentationError("rule left side is 1")
            lk = monomial_key(lhs)
            for m in rhs_terms:
                if monomial_key(m) >= lk:
                    raise PresentationError(
                        "rule %s is not decreasing: right-side monomial %s is not smaller"
                        % (self.render_monomial(lhs), self.render_monomial(m))
                    )
            rules.append((lhs, rhs_terms))
        self.reductions = tuple(rules)
        # monomial -> normal form, filled by reduce_terms
        self._normal_forms: dict[Monomial, dict[Monomial, LaurentScalar]] = {}
        # generator name -> its element, filled by gen
        self._generator_elements: dict[str, AlgebraElement] = {}
        # (generator index, exponent) pairs each rule left side needs
        self._rule_supports = tuple(
            tuple((i, e) for i, e in enumerate(lhs) if e) for lhs, _ in rules
        )
        for lhs, rhs_terms in self.reductions:
            for m in rhs_terms:
                if self._first_rule(m) is not None:
                    raise PresentationError(
                        "rule right side %s is itself reducible" % self.render_monomial(m)
                    )

    # -- basic helpers -------------------------------------------------

    def one_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def sort_factor(self, left: Monomial, right: Monomial) -> LaurentScalar:
        """Coefficient picked up when the concatenation left*right is
        q-sorted into the exponent vector left+right.

        Every letter g_j from the right block moves past every letter
        g_i of the left block with i > j, contributing q_ij once per
        crossing pair, so the factor's ``unit_log`` is a sum over those
        pairs.
        """
        log = 0
        crossings = self._crossings
        for i, a in enumerate(left):
            if a:
                for j, d in crossings[i]:
                    n = right[j]
                    if n:
                        log += a * n * d
        return unit_exp(log)

    def mono_mul(self, a: Monomial, b: Monomial) -> tuple[LaurentScalar, Monomial]:
        return self.sort_factor(a, b), tuple(map(add, a, b))

    def _first_rule(self, m: Monomial):
        for idx, support in enumerate(self._rule_supports):
            for i, e in support:
                if m[i] < e:
                    break
            else:
                return idx
        return None

    def _rewrite(self, ridx: int, m: Monomial):
        """One firing of rule ``ridx`` on m: the (monomial, coefficient)
        pairs that replace it."""
        lhs, rhs = self.reductions[ridx]
        rest = tuple(map(sub, m, lhs))
        # m, as an ordered word, equals sort_factor(lhs, rest)^-1 times
        # the concatenation lhs*rest, so rewriting lhs gives that inverse
        # factor times rhs*rest.
        base = self.sort_factor(lhs, rest).inverse()
        out = []
        for rm, rc in rhs.items():
            f, prod = self.mono_mul(rm, rest)
            out.append((prod, base * rc * f))
        return out

    # -- normal forms ----------------------------------------------------

    def reduce_terms(self, terms: Mapping[Monomial, LaurentScalar]) -> dict[Monomial, LaurentScalar]:
        """Sum of c * NF(m) over the terms c * m of a map of q-sorted monomials.

        Rewriting fires a fixed rule per monomial, so normal-forming is
        linear and NF(m) is well defined monomial by monomial, confluent
        rules or not.  A normal monomial passes through; a reducible one
        takes its stored form, copied and scaled, which ``_store`` builds
        on first need together with the form of every reducible monomial
        below it.  The store lives and dies with the presentation, and
        the returned dict is always new.
        """
        out: dict[Monomial, LaurentScalar] = {}
        memo, first_rule = self._normal_forms, self._first_rule
        for m, c in terms.items():
            if not c:
                continue
            known = memo.get(m)
            if known is None:
                ridx = first_rule(m)
                if ridx is None:
                    accumulate(out, m, c)
                    continue
                known = self._store(m, ridx)
            for n, x in known.items():
                accumulate(out, n, x if c is ONE else x * c)
        return out

    def _store(self, m: Monomial, ridx: int) -> dict[Monomial, LaurentScalar]:
        """Store and return NF(m) for m reducible by rule ``ridx``, with the
        form of every reducible monomial its firing reaches.

        An explicit stack, not recursion, walks down from m, so a deep
        monomial cannot exhaust the interpreter's frames.  A monomial is
        fired when first met, and its form summed once every reducible
        monomial of its firing has one.  Firings only reach monomials
        smaller in the order, so none is reached again while its form is
        being summed, and each fires once.
        """
        memo, first_rule = self._normal_forms, self._first_rule
        # (monomial, its rule index, its firing once fired)
        stack: list[tuple] = [(m, ridx, None)]
        while stack:
            n, r, firing = stack.pop()
            if firing is None:
                if n in memo:
                    continue
                firing = self._rewrite(r, n)
                stack.append((n, r, firing))
                for t, _ in firing:
                    if t not in memo:
                        rt = first_rule(t)
                        if rt is not None:
                            stack.append((t, rt, None))
                continue
            nf: dict[Monomial, LaurentScalar] = {}
            for t, x in firing:
                known = memo.get(t)
                if known is None:
                    accumulate(nf, t, x)
                else:
                    for u, y in known.items():
                        accumulate(nf, u, y * x)
            memo[n] = nf
        return memo[m]

    def _sort_word(self, word: Sequence[str]) -> tuple[LaurentScalar, Monomial]:
        """q-sort a word: (factor picked up, exponent vector)."""
        v = [0] * len(self.generators)
        log = 0
        # place letters right to left; each new letter g_i crosses the
        # letters g_j already placed with j < i, picking up q_ij once per
        # letter crossed
        for g in reversed(word):
            if g not in self.index:
                raise PresentationError(
                    "unknown generator %r (algebra %s)" % (g, self.name)
                )
            i = self.index[g]
            for j, d in self._crossings[i]:
                n = v[j]
                if n:
                    log += n * d
            v[i] += 1
        return unit_exp(log), tuple(v)

    def normal_form(self, word: Sequence[str], coeff: LaurentScalar = ONE) -> "AlgebraElement":
        """Normal form of a single coefficient*word product."""
        f, v = self._sort_word(word)
        return _trusted_element(self, self.reduce_terms({v: coeff * f}))

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return _trusted_element(self, {})

    def one(self) -> "AlgebraElement":
        return _trusted_element(self, {self.one_monomial(): ONE})

    def gen(self, name: str) -> "AlgebraElement":
        """The generator ``name`` as an element, built on first use and
        stored.  Sharing it is exact: its normal form reads only the
        presentation's immutable data, and no element's terms are ever
        changed after it is built."""
        got = self._generator_elements.get(name)
        if got is None:
            got = self._generator_elements[name] = self.normal_form([name])
        return got

    def element(self, terms: Mapping[Monomial, LaurentScalar]) -> "AlgebraElement":
        return _trusted_element(self, self.reduce_terms(terms))

    # -- operations on elements ---------------------------------------------

    def mul(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        if x.presentation is not self or y.presentation is not self:
            raise PresentationError("elements of a different presentation")
        raw: dict[Monomial, LaurentScalar] = {}
        for mx, cx in x.terms.items():
            for my, cy in y.terms.items():
                f, prod = self.mono_mul(mx, my)
                c = cx * cy * f
                prev = raw.get(prod)
                # zero sums are dropped by reduce_terms
                raw[prod] = c if prev is None else prev + c
        if len(raw) == 1:
            # a single nonzero normal term is its own normal form
            ((m, c),) = raw.items()
            if c and self._first_rule(m) is None:
                return _trusted_element(self, raw)
        return _trusted_element(self, self.reduce_terms(raw))

    def star(self, x: "AlgebraElement") -> "AlgebraElement":
        if x.presentation is not self:
            raise PresentationError("element of a different presentation")
        raw: dict[Monomial, LaurentScalar] = {}
        for m, c in x.terms.items():
            # star(m) is a block star(g)^e per power g^e of m, in reversed
            # order: q-sort it block by block from the right
            v = [0] * len(m)
            log = 0
            for g, e in zip(self.generators, m):
                if e:
                    i = self.index[self.star_map[g]]
                    for j, d in self._crossings[i]:
                        log += e * v[j] * d
                    v[i] += e
            # starring permutes monomials, so no two terms meet in raw
            raw[tuple(v)] = c.star() * unit_exp(log)
        return _trusted_element(self, self.reduce_terms(raw))

    # -- enumeration --------------------------------------------------------

    def monomials_up_to(self, degree: int) -> list[Monomial]:
        """The normal exponent vectors (divisible by no rule left side)
        of total degree <= degree: the monomial basis of the quotient up
        to that degree.  Degrees ascend, and within one the vectors
        ascend as tuples (b' before a, b'^2 before b^2), not in
        ``monomial_key`` order.  The translation rows name the first
        failing sample, so their witnesses (``fails on b'^2``) need it."""
        k = len(self.generators)
        return [
            m
            for total in range(degree + 1)
            for m in _compositions(total, k)
            if self._first_rule(m) is None
        ]

    # -- rendering ------------------------------------------------------------

    def render_monomial(self, m: Monomial) -> str:
        if not any(m):
            return "1"
        parts = []
        for g, e in zip(self.generators, m):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append("%s^%d" % (g, e))
        return " ".join(parts)

    def __repr__(self) -> str:
        return "AlgebraPresentation(%s: %s)" % (self.name, ", ".join(self.generators))


def _compositions(total: int, k: int) -> Iterable[Monomial]:
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


class AlgebraElement:
    """A normal-form linear combination of monomials.

    Value-semantic; arithmetic delegates to the owning presentation.
    The public constructor checks each monomial's length but does not
    reduce it, so that a certificate can star a rule's left side.
    """

    __slots__ = ("presentation", "terms", "_star")

    def __init__(self, presentation: AlgebraPresentation, terms: dict[Monomial, LaurentScalar]):
        self.presentation = presentation
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        _check_arity(presentation, self.terms, PresentationError)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.presentation is not self.presentation:
            raise PresentationError("elements of different presentations")
        out = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(out, m, c)
        return _trusted_element(self.presentation, out)

    def __neg__(self) -> "AlgebraElement":
        return _trusted_element(self.presentation, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.presentation.mul(self, other)
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (LaurentScalar, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, power: int) -> "AlgebraElement":
        """The product x x ... x of ``power`` factors, taken left to
        right; ``one()`` for power 0.  For a single term x = c m with k m
        normal, every j m is normal and the q-sort factor is bilinear, so
        the product is c^k sort_factor(m, m)^(k(k-1)/2) at k m.  Any
        other x is multiplied out from x rather than from one(): x is
        normal, as every element the package builds is, so one() x is x
        exactly (its sort factor is 1 and normal monomials pass through
        ``reduce_terms``), with no associativity needed.  Each product
        takes a term product per pair of coefficient terms, and a power
        whose products take more than ``POWER_BUDGET`` in all is refused."""
        if power < 0:
            raise ValueError("negative powers are not defined here")
        p = self.presentation
        if power == 0:
            return p.one()
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            top = tuple(power * e for e in m)
            if p._first_rule(top) is None:
                f = p.sort_factor(m, m) ** (power * (power - 1) // 2)
                return _trusted_element(p, {top: c**power * f})
        size = lambda x: sum(len(c._items()) for c in x.terms.values())
        out, work = self, 0
        for _ in range(power - 1):
            work += size(out) * size(self)
            if work > POWER_BUDGET:
                raise PackageError("a power that may take more than %d term products" % POWER_BUDGET)
            out = out * self
        return out

    def scale(self, c) -> "AlgebraElement":
        if not c:
            return self.presentation.zero()
        # Z[L^+-1, M^+-1] has no zero divisors: no product is zero
        return _trusted_element(self.presentation, {m: x * c for m, x in self.terms.items()})

    def star(self) -> "AlgebraElement":
        """The star, computed on first use and kept: elements are immutable."""
        if not hasattr(self, "_star"):
            self._star = self.presentation.star(self)
        return self._star

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.presentation is other.presentation and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.presentation), frozenset((m, c) for m, c in self.terms.items())))

    def __repr__(self) -> str:
        return "<%s>" % render_element(self)


def _check_arity(presentation: AlgebraPresentation, monomials: Iterable, error: type):
    """Raise ``error`` on a monomial without one exponent per generator."""
    k = len(presentation.generators)
    for m in monomials:
        if len(m) != k:
            msg = "monomial %r has %d exponents, but %s has %d generators"
            raise error(msg % (m, len(m), presentation.name, k))


def _trusted_element(presentation: AlgebraPresentation, terms: dict) -> AlgebraElement:
    """Package-private: stores a zero-free normal term map that nothing
    else holds, such as a ``reduce_terms`` result, without filtering."""
    x = object.__new__(AlgebraElement)
    x.presentation = presentation
    x.terms = terms
    return x


def render_element(x: AlgebraElement) -> str:
    """Deterministic text form, monomials in increasing order."""
    p = x.presentation
    return _render_sum(
        ((x.terms[m], p.render_monomial(m)) for m in sorted(x.terms, key=monomial_key)), "1"
    )


def _render_sum(terms, unit: str = "") -> str:
    """Join (coefficient, body) pairs into ``c body + c' body' - ...``, or
    ``0`` without pairs.  A single negative term of a coefficient becomes
    the sign, a coefficient of 1 is left out, and a longer one is set in
    parentheses; a body equal to ``unit`` is left out after a coefficient."""
    pieces = []
    for c, body in terms:
        coeffs = c.terms.values()
        neg = len(coeffs) == 1 and next(iter(coeffs)) < 0
        if neg:
            c = -c
        if not c.is_one():
            cs = render_scalar(c)
            if len(coeffs) > 1:
                cs = "(%s)" % cs
            body = cs if body == unit else "%s %s" % (cs, body)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces) or "0"


def tensor_presentation(
    p1: AlgebraPresentation, p2: AlgebraPresentation, name: str = ""
) -> AlgebraPresentation:
    """Slot-wise tensor product: generators from different slots commute.

    Generator name spaces must already be disjoint; the factors keep
    their own commutation tables and rewrite rules.
    """
    clash = set(p1.generators) & set(p2.generators)
    if clash:
        raise PresentationError("generator name collision: %s" % sorted(clash))
    # cross-slot pairs commute; the q matrix default of 1 handles them
    comm: dict[tuple[str, str], LaurentScalar] = {}
    reductions = []
    for p, before, after in ((p1, 0, len(p2.generators)), (p2, len(p1.generators), 0)):
        for i, g in enumerate(p.generators):
            for j in range(i):
                comm[(g, p.generators[j])] = p.q[i][j]
        pad = lambda m: (0,) * before + m + (0,) * after
        reductions += [(pad(lhs), {pad(m): c for m, c in rhs.items()}) for lhs, rhs in p.reductions]
    gens = p1.generators + p2.generators
    star = {**p1.star_map, **p2.star_map}
    return AlgebraPresentation(
        gens, star, comm, reductions, name=name or "%s(x)%s" % (p1.name, p2.name)
    )


class ConfluenceReport:
    """Outcome of a finite certificate, from its (holds, witness)
    conditions: how many it checked and the witness of each that fails."""

    def __init__(self, conditions: Iterable[tuple[bool, str]]):
        conditions = list(conditions)
        self.checked = len(conditions)
        self.divergences = [witness for holds, witness in conditions if not holds]

    @property
    def ok(self) -> bool:
        return not self.divergences


def check_local_confluence(p: AlgebraPresentation) -> ConfluenceReport:
    """Prove that rewriting is confluent, for all degrees.

    The rules f = lhs - rhs live in the q-polynomial ring R, and a
    rewrite subtracts a right multiple f t.  NF is the quotient map of
    A = R/I, I the two-sided ideal of the rules, when
    (i) every rule is homogeneous for every commutation character:
        moving a generator g past each right-side monomial gives the
        ``sort_factor`` ratio of moving it past the left side, so
        g f = chi f g, RfR = fR, and rewriting reduces modulo I; and
    (ii) for every pair of rules, the two rewrites at the lcm of their
        left sides reduce to one normal form: the ambiguities of
        Bergman's diamond lemma (Adv. Math. 29 (1978) 178-218), here
        Buchberger's criterion of Kandri-Rody and Weispfenning
        (J. Symbolic Comput. 9 (1990) 1-26), since a rewrite at a
        multiple of the lcm is the one at the lcm times the cofactor.
    Rules decrease in a multiplicative order, so rewriting terminates.
    A failure names the rule and generator breaking (i) or the overlap.
    """
    return ConfluenceReport(_confluence_conditions(p))


def _confluence_conditions(p: AlgebraPresentation):
    one = p.one_monomial()
    chi = lambda u, m: p.sort_factor(u, m) * p.sort_factor(m, u).inverse()
    for lhs, rhs in p.reductions:
        for i, g in enumerate(p.generators):
            u = one[:i] + (1,) + one[i + 1 :]
            homogeneous = all(chi(u, m) == chi(u, lhs) for m in rhs)
            yield homogeneous, "rule %s is not homogeneous for %s" % (p.render_monomial(lhs), g)
    for i, (lhs, _) in enumerate(p.reductions):
        for j in range(i + 1, len(p.reductions)):
            lcm = tuple(map(max, lhs, p.reductions[j][0]))
            x, y = (p.element(dict(p._rewrite(r, lcm))) for r in (i, j))
            rendered = (p.render_monomial(lcm), render_element(x), render_element(y))
            yield x == y, "diverges at %s: %s vs %s" % rendered


def check_star_compatible(p: AlgebraPresentation) -> ConfluenceReport:
    """Prove star(I) in I, I the ideal of the free algebra that the
    q-table and the rules generate.

    The star g -> g* is a conjugate-linear anti-automorphism of the free
    algebra, so star(I) lies in I once the star of each generator of I
    does: NF(g_j* g_i*) = conj(q_ij) NF(g_i* g_j*) for every i > j, and
    the starred sides of every rule have one normal form.  Given
    ``check_local_confluence``, NF is the quotient map pi, so pi o star
    is well defined, and ``AlgebraPresentation.star`` (NF of each
    monomial's starred word) is that map.  The star reverses products
    and squares to the identity on the free algebra, so star(xy) =
    star(y) star(x) and star(star(x)) = x hold on every normal element,
    in every degree.  A failure names the q-pair or rule it breaks.
    """
    return ConfluenceReport(_star_conditions(p))


def _star_conditions(p: AlgebraPresentation):
    gens, star = p.generators, p.star_map
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens[:i]):
            starred = p.normal_form([star[gi], star[gj]], p.q[i][j].star())
            yield p.normal_form([star[gj], star[gi]]) == starred, "star breaks q %s %s" % (gi, gj)
    for lhs, rhs in p.reductions:
        same = p.star(AlgebraElement(p, {lhs: ONE})) == p.star(AlgebraElement(p, rhs))
        yield same, "star breaks rule %s" % p.render_monomial(lhs)
