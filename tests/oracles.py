"""Hand-rolled reference implementations used to cross-check the engine.

Everything here is deliberately independent of the qpbundle internals.
Words are tuples of generator names, scalars are bare exponent-to-
coefficient maps, and normalization is leftmost single-step rewriting
run to a fixpoint.  The engine instead q-sorts exponent vectors in one
pass and then applies oriented rules, so agreement between the two is
a meaningful consistency check rather than a tautology.

The only engine types these helpers touch are the public term maps, in
the converters near the end, which exist so tests can compare results.
The coalgebra maps (Delta, eps, S and the retraction of Delta), the
coactions on elements, ``violations`` and ``parse_presentation`` also
build engine values: the package reads these structures off integer
gradings and never builds them, and the tests state the laws through
them.  So do the generic slot operations ``tensor_apply`` and
``multiply_adjacent``, the reference for the package's one-pass lifted
canonical map.  ``split``, ``balance_defect`` and ``pair`` treat an
ambient monomial of the cotensor algebra slot by slot, reading its
balance off the factors' gradings where the package reads one degree
vector on the ambient algebra (``CotensorAlgebra.balance``); the scans
below decide membership through them.

The scans at the end are the exceptions.  The entwining scans judge
the entwining rows, which ``qpbundle.cli.suites`` emits as lemmas of the
load-time invariants, by brute force: ``Shift`` applies the degree-shift
entwining, and each axiom is evaluated, through the package's own tensor
operations, on every normal monomial (or pair) up to a degree bound and
on a window of grouplike indices.  What they check independently is the
axiom itself, monomial by monomial, instead of the argument the lemma
rests on.  The translation scan forms each identity's
product in P (x) P first and pushes it through the lifted canonical map,
instead of deriving it from the colift verdicts through the bimodule
law as ``qpbundle.connection`` does.  The grading-row scans judge the
rows that follow from integer degrees: closure under products by
multiplying balanced monomials, the bicomodule rows, colinearity and
left-degree balance of connection legs by building the tensors whose
equality each row asserts.  The connection scans decide
``mul-counit`` and the inverse-canonical roundtrip by multiplying in
P (x) P, where the rows read the stored C(n) = can(l(u^n)) and the
colift verdicts, and
``coinvariants-match`` by enumerating both bases up to a degree.  The
algebra scans judge the confluence and star certificates of
``qpbundle.skewalg``: they compare the rewrites that apply to each
exponent vector, evaluate both star laws on normal monomials and pairs
of them, and multiply monomial triples both ways, all up to a degree
bound.  ``generator_form_afresh`` sums the package's own generator-form
triples with its own ``_word_sum``, at a negative index over the triples
with their legs swapped, on every call: it checks only that
``composed_generator_form`` stores its images per cotensor algebra and
swaps the legs exactly.
"""

from __future__ import annotations

import math
from itertools import product

from qpbundle.cli.parser import ParseError, _split_sections, parse_algebra_section
from qpbundle.comodule import (
    ShapeError,
    TensorElement,
    _reduce_slot,
    alg_slot,
    coalg_slot,
    grouplike,
    tensor_of,
)
from qpbundle.connection import _generator_form_terms, _word_sum, lifted_canonical_map
from qpbundle.cotensor import coinvariants_basis
from qpbundle.report import check, verdict
from qpbundle.scalar import ONE, LaurentScalar, accumulate
from qpbundle.skewalg import AlgebraElement, PresentationError

# scalars: {(L_exponent, M_exponent): integer coefficient}, no zeros


def s_clean(s):
    return {e: c for e, c in s.items() if c}


def s_one():
    return {(0, 0): 1}


def s_int(k):
    return {(0, 0): k} if k else {}


def s_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return s_clean(out)


def s_mul(x, y):
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return s_clean(out)


def s_canon(s):
    """Hashable canonical image of a scalar map."""
    return tuple(sorted(s_clean(s).items()))


class WordSphere:
    """String-rewriting model of one quantum-sphere presentation.

    ``names`` lists the four generators in engine order: a generator,
    its star, a second generator, its star.  ``symbol`` picks which
    slot of the scalar exponent pair the deformation parameter lives
    in (0 for the first algebra's, 1 for the second's).
    """

    def __init__(self, names=("a", "a'", "b", "b'"), symbol=0):
        self.names = tuple(names)
        self.pos = {g: i for i, g in enumerate(self.names)}
        self.symbol = symbol
        # q-factors by generator position, as the exponent of the
        # deformation parameter picked up when the later generator
        # moves left past the earlier one
        exps = {
            (1, 0): 0,
            (2, 0): -1,
            (2, 1): 1,
            (3, 0): 1,
            (3, 1): -1,
            (3, 2): 0,
        }
        self.q_exp = exps

    def _param(self, e):
        if e == 0:
            return s_one()
        key = (e, 0) if self.symbol == 0 else (0, e)
        return {key: 1}

    def _first_step(self, word):
        """Leftmost applicable rewrite, or None if the word is normal.

        A step is a list of (scalar factor, replacement word) pairs.
        """
        n = self.names
        for i in range(len(word) - 1):
            g, h = word[i], word[i + 1]
            gi, hi = self.pos[g], self.pos[h]
            if (gi, hi) == (2, 3):
                # the sphere relation: h h* -> 1 - g g*
                head, tail = word[:i], word[i + 2 :]
                return [
                    (s_one(), head + tail),
                    (s_int(-1), head + (n[0], n[1]) + tail),
                ]
            if gi > hi:
                swapped = word[:i] + (h, g) + word[i + 2 :]
                return [(self._param(self.q_exp[(gi, hi)]), swapped)]
        return None

    def nf(self, terms):
        """Fixpoint of single-step rewriting on a word-to-scalar map."""
        done = {}
        work = [(w, dict(c)) for w, c in terms.items()]
        while work:
            word, coeff = work.pop()
            step = self._first_step(word)
            if step is None:
                acc = s_add(done.get(word, {}), coeff)
                if acc:
                    done[word] = acc
                elif word in done:
                    del done[word]
            else:
                for factor, new_word in step:
                    work.append((new_word, s_mul(coeff, factor)))
        return done

    def nf_word(self, word, coeff=None):
        return self.nf({tuple(word): coeff or s_one()})

    def star_word(self, word):
        """Reverse the word and swap each letter with its star partner."""
        flip = {0: 1, 1: 0, 2: 3, 3: 2}
        return tuple(self.names[flip[self.pos[g]]] for g in reversed(word))

    def vector(self, word):
        return tuple(word.count(g) for g in self.names)

    def element(self, terms):
        """Canonical exponent-vector form of a word-to-scalar map."""
        out = {}
        for word, coeff in self.nf(terms).items():
            v = self.vector(word)
            acc = s_add(out.get(v, {}), coeff)
            if acc:
                out[v] = acc
            elif v in out:
                del out[v]
        return {v: s_canon(c) for v, c in out.items()}

    # -- connection form ------------------------------------------------

    def ell(self, n):
        """Reference value of the sphere connection at index n.

        Computed by the product recursion from the two explicit seeds,
        never from the closed binomial form the engine implements:
        each step multiplies first legs left-to-right and second legs
        right-to-left.
        """
        g, gs, h, hs = self.names
        if n == 0:
            terms = {((), ()): s_one()}
        else:
            seed = (
                {((gs,), (g,)): s_one(), ((hs,), (h,)): s_one()}
                if n > 0
                else {((g,), (gs,)): s_one(), ((h,), (hs,)): s_one()}
            )
            terms = seed
            for _ in range(abs(n) - 1):
                terms = self._splice(terms, seed)
        return self._tensor_canon(terms)

    def _splice(self, old, new):
        out = {}
        for (x, y), c1 in old.items():
            for (s, t), c2 in new.items():
                key = (x + s, t + y)
                acc = s_add(out.get(key, {}), s_mul(c1, c2))
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def _tensor_canon(self, terms):
        out = {}
        for (w1, w2), c in terms.items():
            for u1, c1 in self.nf_word(w1).items():
                for u2, c2 in self.nf_word(w2).items():
                    key = (self.vector(u1), self.vector(u2))
                    acc = s_add(out.get(key, {}), s_mul(c, s_mul(c1, c2)))
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return {k: s_canon(c) for k, c in out.items()}

    def ell_closed(self, n):
        """The binomial closed form, written out independently.

        Pins the explicit sum-over-binomials shape against the seed
        recursion above; the engine is not involved at all.
        """
        g, gs, h, hs = self.names
        out = {}
        k = abs(n)
        for m in range(k + 1):
            c = s_int(math.comb(k, m))
            if n >= 0:
                left = (hs,) * m + (gs,) * (k - m)
                right = (g,) * (k - m) + (h,) * m
            else:
                left = (h,) * m + (g,) * (k - m)
                right = (gs,) * (k - m) + (hs,) * m
            key = (left, right)
            out[key] = s_add(out.get(key, {}), c)
        return self._tensor_canon(out)


# -- converters from engine values to the plain forms above ------------------


def plain_scalar(sc):
    return tuple(sorted(sc.terms.items()))


def plain_element(el):
    return {m: plain_scalar(c) for m, c in el.terms.items()}


def plain_reduce(spheres, terms):
    """Plain normal form of an engine term map over the slot-wise tensor
    product of ``spheres`` (one ``WordSphere`` per block of generators,
    in engine order): each monomial is read as its ordered word, each
    block's subword is rewritten by its sphere, and the blocks commute."""
    out = {}
    for m, c in terms.items():
        partial = {(): dict(c.terms)}
        start = 0
        for sphere in spheres:
            block = m[start : start + len(sphere.names)]
            start += len(sphere.names)
            word = tuple(g for g, e in zip(sphere.names, block) for _ in range(e))
            nf = sphere.element({word: s_one()})
            partial = {
                k + v: s_mul(s, dict(sv)) for k, s in partial.items() for v, sv in nf.items()
            }
        for k, s in partial.items():
            out[k] = s_add(out.get(k, {}), s)
    return {k: s_canon(s) for k, s in out.items() if s}


def plain_tensor2(t):
    """Two-algebra-slot tensor as a plain pair-keyed map."""
    if len(t.shape) != 2:
        raise ValueError("expected a two-slot tensor")
    return {k: plain_scalar(c) for k, c in t.terms.items()}


# -- the circle coalgebra, coactions and membership on engine values -------------

_COALG = coalg_slot()


def _require_coalgebra(x, arity=1):
    if x.shape != (_COALG,) * arity:
        raise ShapeError("expected a tensor of %d coalgebra slot(s)" % arity)


def comultiply(x):
    """Delta, landing in the coalgebra-coalgebra tensor square."""
    _require_coalgebra(x)
    return TensorElement((_COALG, _COALG), {(n, n): c for (n,), c in x.terms.items()})


def counit(x):
    _require_coalgebra(x)
    total = LaurentScalar.zero()
    for c in x.terms.values():
        total = total + c
    return total


def antipode(x):
    _require_coalgebra(x)
    return TensorElement((_COALG,), {(-n,): c for (n,), c in x.terms.items()})


def coseparability_retraction(t):
    """The bicolinear retraction of comultiplication.

    On grouplikes it keeps the diagonal, u^m (x) u^n -> delta_{m,n} u^n,
    and kills everything off it.
    """
    _require_coalgebra(t, 2)
    return TensorElement((_COALG,), {(n,): c for (m, n), c in t.terms.items() if m == n})


def right_coact(spec, x):
    """m -> m (x) u^deg per monomial, extended linearly."""
    if x.presentation is not spec.presentation:
        raise PresentationError("element does not belong to the coaction's algebra")
    shape = (alg_slot(spec.presentation), _COALG)
    return TensorElement(shape, {(m, spec.right_degree(m)): c for m, c in x.terms.items()})


def left_coact(spec, x):
    """m -> u^deg (x) m per monomial, extended linearly."""
    if x.presentation is not spec.presentation:
        raise PresentationError("element does not belong to the coaction's algebra")
    shape = (_COALG, alg_slot(spec.presentation))
    return TensorElement(shape, {(spec.left_degree(m), m): c for m, c in x.terms.items()})


# -- the cotensor algebra, slot by slot ---------------------------------------------


def split(cot, m):
    """The A slot and the P slot of an ambient monomial."""
    k = len(cot.left_spec.presentation.generators)
    return m[:k], m[k:]


def balance_defect(cot, m):
    """R_A of the A slot of m minus L_P of its P slot: 0 exactly when m
    lies in the cotensor algebra."""
    ma, mp = split(cot, m)
    return cot.left_spec.right_degree(ma) - cot.right_spec.left_degree(mp)


def balanced(cot, x):
    """Whether every monomial of the ambient element x is balanced."""
    return all(balance_defect(cot, m) == 0 for m in x.terms)


def pair(cot, a, p):
    """The element a (x) p of the ambient algebra."""
    if a.presentation is not cot.left_spec.presentation:
        raise PresentationError("first factor from the wrong algebra")
    if p.presentation is not cot.right_spec.presentation:
        raise PresentationError("second factor from the wrong algebra")
    return cot.ambient.element(
        {ma + mp: ca * cp for ma, ca in a.terms.items() for mp, cp in p.terms.items()}
    )


def violations(cot, x):
    """The monomials of an ambient element x that are not balanced."""
    if x.presentation is not cot.ambient:
        raise PresentationError("element is not in the ambient tensor algebra")
    return [m for m in x.terms if balance_defect(cot, m)]


def parse_presentation(text):
    """The coaction spec of a document holding exactly one [algebra X]
    section."""
    bodies = [
        (title.split()[1], body)
        for title, _, body in _split_sections(text)
        if title.startswith("algebra ")
    ]
    if len(bodies) != 1:
        raise ParseError("expected exactly one [algebra X] section", 1, 1)
    return parse_algebra_section(bodies[0][1], bodies[0][0])



# -- slot maps on engine values ----------------------------------------------------
#
# ``qpbundle.connection.lifted_canonical_map`` computes
# C(t) = multiply_adjacent(tensor_apply(t, 1, coact), 0) in one pass; these
# two generic slot operations are the reference it is tested against.


def tensor_apply(t, slot, f):
    """Apply a linear slot map to one slot and splice the result.

    ``f`` receives the slot's key (monomial or grouplike index) and
    must return an AlgebraElement or a TensorElement; the returned shape
    replaces the chosen slot (the same way for every term, which is
    checked).  A tensor without terms reads its shape from ``f`` at the
    slot's unit key: the unit monomial or the index 0.
    """
    if not 0 <= slot < len(t.shape):
        raise ShapeError("slot index out of range")
    out_terms = {}
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
    return TensorElement(out_shape, out_terms)


def _as_tensor(x):
    return tensor_of([x]) if isinstance(x, AlgebraElement) else x


def multiply_adjacent(t, slot):
    """Multiply two adjacent algebra slots of the same presentation.

    The raw products are reduced once per group of terms that agree on
    the other slots (``_reduce_slot``); ``per_term_product`` below
    reduces them term by term.
    """
    if not (
        0 <= slot < len(t.shape) - 1
        and t.shape[slot][0] == "alg"
        and t.shape[slot] == t.shape[slot + 1]
    ):
        raise ShapeError("no matching algebra pair at slot %d" % slot)
    pres = t.shape[slot][1]
    shape = t.shape[:slot] + (alg_slot(pres),) + t.shape[slot + 2 :]
    raw = {}
    for key, c in t.terms.items():
        f, prod = pres.mono_mul(key[slot], key[slot + 1])
        accumulate(raw, key[:slot] + (prod,) + key[slot + 2 :], c * f)
    return TensorElement(shape, _reduce_slot(raw, slot, pres))

# -- the degree-shift entwining ----------------------------------------------------


class Shift:
    """The entwining u^n (x) m -> m (x) u^(n + shift(m)) of one presented
    algebra, for a function ``shift`` on normal monomials, with the
    inverse m (x) u^n -> u^(n - shift(m)) (x) m.  ``left`` is the left
    degree function of the algebra, when it has a left grading.
    ``canonical_shift`` is the entwining of a right grading; any other
    function gives a map for a negative control."""

    def __init__(self, presentation, shift, left=None):
        self.presentation = presentation
        self.shift = shift
        self.left = left


def canonical_shift(spec):
    """Shift by right degree, with the spec's left degree when it has one."""
    left = spec.left_degree if spec.has_left() else None
    return Shift(spec.presentation, spec.right_degree, left)


def entwine_at(emap, t, slot):
    """Entwine the adjacent pair (coalgebra at slot, algebra at slot + 1)
    inside a longer tensor, leaving the other slots alone."""
    alg = alg_slot(emap.presentation)
    if slot < 0 or t.shape[slot : slot + 2] != (coalg_slot(), alg):
        raise ShapeError("no coalgebra/algebra pair at slot %d" % slot)
    shape = t.shape[:slot] + (alg, coalg_slot()) + t.shape[slot + 2 :]
    # (n, m) -> (m, n + shift(m)) is one to one, so no two keys merge
    moved = {
        k[:slot] + (k[slot + 1], k[slot] + emap.shift(k[slot + 1])) + k[slot + 2 :]: c
        for k, c in t.terms.items()
    }
    return TensorElement(shape, moved)


def entwine(emap, t):
    """Apply the map to a coalgebra (x) algebra tensor."""
    if len(t.shape) != 2:
        raise ShapeError("entwining expects a coalgebra (x) algebra tensor")
    return entwine_at(emap, t, 0)


def entwine_inverse(emap, t):
    """Apply the inverse map to an algebra (x) coalgebra tensor."""
    alg = alg_slot(emap.presentation)
    if t.shape != (alg, coalg_slot()):
        raise ShapeError("inverse entwining expects an algebra (x) coalgebra tensor")
    moved = {(n - emap.shift(m), m): c for (m, n), c in t.terms.items()}
    return TensorElement((coalg_slot(), alg), moved)


# -- entwining scans -------------------------------------------------------------


GROUPLIKE_WINDOW = (-2, -1, 0, 1, 2)


def _monomial_sample(p, degree_bound, monomial_filter):
    monos = p.monomials_up_to(degree_bound)
    if monomial_filter is not None:
        monos = [m for m in monos if monomial_filter(m)]
    return monos


def _monomial_pairs(p, degree_bound, monomial_filter=None):
    monos = _monomial_sample(p, degree_bound, monomial_filter)
    for x in monos:
        dx = sum(x)
        for y in monos:
            if dx + sum(y) <= degree_bound:
                yield x, y


def scan_entwining_axioms(emap, degree_bound, monomial_filter=None):
    """The entwining-axiom rows of one graded algebra, decided by scanning.

    Product-type axioms run over monomial pairs of combined degree up
    to the bound and the grouplike window.  ``monomial_filter``
    restricts the sample to a subalgebra's monomial basis (for the
    lifted map, the balanced monomials).
    """
    p = emap.presentation
    suite = "entwining"
    sample = _monomial_sample(p, degree_bound, monomial_filter)
    ent = lambda t: entwine(emap, t)

    def pair_cases():
        for x, y in _monomial_pairs(p, degree_bound, monomial_filter):
            xel, yel = p.element({x: ONE}), p.element({y: ONE})
            prod = p.mul(xel, yel)
            for n in GROUPLIKE_WINDOW:
                yield x, y, n, xel, yel, prod

    def cases():
        for m in sample:
            el = p.element({m: ONE})
            for n in GROUPLIKE_WINDOW:
                yield m, n, el

    # entwining after multiplying equals entwining past each factor in turn
    def multiplicative(x, y, n, xel, yel, prod):
        u = grouplike(n)
        step = ent(tensor_of([u, xel]))
        rhs = tensor_apply(step, 1, lambda k: ent(tensor_of([grouplike(k), yel])))
        return ent(tensor_of([u, prod])) == multiply_adjacent(rhs, 0)

    def unital(n):
        return ent(tensor_of([grouplike(n), p.one()])) == tensor_of([p.one(), grouplike(n)])

    def comultiplicative(m, n, el):
        u = grouplike(n)
        lhs = tensor_apply(ent(tensor_of([u, el])), 1, lambda k: comultiply(grouplike(k)))
        return lhs == entwine_at(emap, entwine_at(emap, tensor_of([u, u, el]), 1), 0)

    # the slot map returns an empty-shape tensor, so the coalgebra leg is
    # dropped instead of replaced
    def counital(m, n, el):
        img = ent(tensor_of([grouplike(n), el]))
        collapsed = tensor_apply(
            img, 1, lambda k: TensorElement((), {(): counit(grouplike(k))})
        )
        return collapsed == tensor_of([el])

    # round trips, the inverse one first at each case
    trips = ((*case, which) for case in cases() for which in ("inverse", "forward"))

    def round_trip(m, n, el, which):
        u = grouplike(n)
        if which == "inverse":
            cp = tensor_of([u, el])
            return entwine_inverse(emap, ent(cp)) == cp
        pc = tensor_of([el, u])
        return ent(entwine_inverse(emap, pc)) == pc

    on_pair = lambda x, y, n, *_: "fails on %s, %s at u^%d" % (
        p.render_monomial(x), p.render_monomial(y), n
    )
    on_monomial = lambda m, n, el: "fails on %s at u^%d" % (p.render_monomial(m), n)
    on_trip = lambda m, n, el, which: "%s round trip fails on %s at u^%d" % (
        which, p.render_monomial(m), n
    )
    results = [
        check(suite, "multiplicative", pair_cases(), multiplicative, on_pair),
        check(suite, "unit", zip(GROUPLIKE_WINDOW), unital, lambda n: "fails on 1 at u^%d" % n),
        check(suite, "comultiplicative", cases(), comultiplicative, on_monomial),
        check(suite, "counit", cases(), counital, on_monomial),
        check(suite, "invertible", trips, round_trip, on_trip),
    ]

    # entwining first or coacting on the left first give the same
    # picture in H (x) P (x) C
    if emap.left is not None:
        ldeg = emap.left

        def colinear(m, n, el):
            coact_first = TensorElement(
                (coalg_slot(), coalg_slot(), alg_slot(p)),
                {(ldeg(mm), n, mm): c for mm, c in el.terms.items()},
            )
            entwine_first = tensor_apply(
                ent(tensor_of([grouplike(n), el])),
                0,
                lambda mm: TensorElement((coalg_slot(), alg_slot(p)), {(ldeg(mm), mm): ONE}),
            )
            return entwine_at(emap, coact_first, 1) == entwine_first

        results.append(check(suite, "h-colinear", cases(), colinear, on_monomial))
    return results


def scan_entwined_module(emap, spec, degree_bound, monomial_filter=None):
    """The entwined-module rows, decided by scanning: the
    product law rho(xy) = x_(0) psi(x_(1) (x) y) on monomial pairs and
    the base-point condition rho(p) = psi(u^0 (x) p)."""
    p = spec.presentation

    def module_law(x, y):
        xel, yel = p.element({x: ONE}), p.element({y: ONE})
        lhs = right_coact(spec, p.mul(xel, yel))
        rhs = tensor_apply(
            right_coact(spec, xel), 1, lambda k: entwine(emap, tensor_of([grouplike(k), yel]))
        )
        return lhs == multiply_adjacent(rhs, 0)

    def copointed(m):
        el = p.element({m: ONE})
        return entwine(emap, tensor_of([grouplike(0), el])) == right_coact(spec, el)

    pairs = _monomial_pairs(p, degree_bound, monomial_filter)
    sample = _monomial_sample(p, degree_bound, monomial_filter)
    return [
        check(
            "entwining",
            "module-law",
            pairs,
            module_law,
            lambda x, y: "fails on %s, %s" % (p.render_monomial(x), p.render_monomial(y)),
        ),
        check(
            "entwining",
            "copointed",
            zip(sample),
            copointed,
            lambda m: "fails on %s at u^0" % p.render_monomial(m),
        ),
    ]


def scan_translation_identities(form, n_bound, degree_bound=4):
    """The first form's translation rows (``cli.suites.form_rows``),
    each case built as a product in P (x) P and then sent through the
    lifted canonical map.

    Same cases, order and details as the checker, so on an associative
    presentation the two agree row for row, witness included.
    """
    spec, p = form.spec, form.presentation
    indices = range(-n_bound, n_bound + 1)
    can = lambda t: lifted_canonical_map(spec, t)
    monos = p.monomials_up_to(degree_bound)
    coinv = [m for m in monos if spec.right_degree(m) == 0]

    def reproduces(m):
        el = p.element({m: ONE})
        moved = tensor_of([el, p.one()]) * form(spec.right_degree(m))
        return can(moved) == can(tensor_of([p.one(), el]))

    def commutes(n, m):
        t, el = form(n), p.element({m: ONE})
        return can(tensor_of([el, p.one()]) * t) == can(t * tensor_of([p.one(), el]))

    # the product of the two images in P^op (x) P
    def multiplicative(n1, n2):
        t1, t2 = form(n1), form(n2)
        total = TensorElement(t1.shape)
        for (s1, y1), c1 in t1.terms.items():
            for (s2, y2), c2 in t2.terms.items():
                f1, sm = p.mono_mul(s1, s2)
                f2, ym = p.mono_mul(y2, y1)
                piece = tensor_of([p.element({sm: f1}), p.element({ym: f2})])
                total = total + piece.scale(c1 * c2)
        target = TensorElement((alg_slot(p), coalg_slot()), {(p.one_monomial(), n1 + n2): ONE})
        return can(total) == target

    return [
        check(
            "connection",
            "reproduce-coaction",
            zip(monos),
            reproduces,
            lambda m: "fails on %s" % p.render_monomial(m),
        ),
        check(
            "connection",
            "coinvariant-commute",
            ((n, m) for n in indices for m in coinv),
            commutes,
            lambda n, m: "fails on %s at index %d" % (p.render_monomial(m), n),
        ),
        check(
            "connection",
            "multiplicative",
            ((n1, n2) for n1 in indices for n2 in indices),
            multiplicative,
            lambda n1, n2: "fails at indices %d, %d" % (n1, n2),
        ),
    ]


# -- algebra scans -------------------------------------------------------------------


def scan_confluence(p, degree_bound=4):
    """The ``confluence`` row as a scan: at every exponent vector up to
    the bound, each rule that applies, fired once and followed by the
    normal form, gives one element."""

    def joins(m):
        results = [
            p.element(dict(p._rewrite(r, m)))
            for r, (lhs, _) in enumerate(p.reductions)
            if all(l <= e for l, e in zip(lhs, m))
        ]
        return all(x == results[0] for x in results[1:])

    vectors = product(range(degree_bound + 1), repeat=len(p.generators))
    return check(
        "algebra",
        "confluence",
        ((m,) for m in vectors if sum(m) <= degree_bound),
        joins,
        lambda m: "diverges at %s" % p.render_monomial(m),
    )


def scan_star_laws(p, degree_bound=3):
    """The ``star-involutive`` and ``star-antimultiplicative`` rows as
    scans: star(star(x)) = x on every normal monomial up to the bound,
    and star(xy) = star(y) star(x) on every pair of them."""
    sample = p.monomials_up_to(degree_bound)
    elems = [p.element({m: ONE}) for m in sample]
    stars = [e.star() for e in elems]
    cases = list(zip(sample, elems, stars))
    render = p.render_monomial
    return [
        check(
            "algebra",
            "star-involutive",
            cases,
            lambda m, e, s: s.star() == e,
            lambda m, e, s: "fails on %s" % render(m),
        ),
        check(
            "algebra",
            "star-antimultiplicative",
            ((x, y) for x in cases for y in cases),
            lambda x, y: (x[1] * y[1]).star() == y[2] * x[2],
            lambda x, y: "fails on %s, %s" % (render(x[0]), render(y[0])),
        ),
    ]


def scan_associativity(p, degree_bound=3):
    """(xy)z = x(yz) on every triple of normal monomials of combined
    degree up to the bound."""
    elems = {m: p.element({m: ONE}) for m in p.monomials_up_to(degree_bound)}
    triples = (
        (x, y, z)
        for x in elems
        for y in elems
        for z in elems
        if sum(x) + sum(y) + sum(z) <= degree_bound
    )
    return check(
        "algebra",
        "associative",
        triples,
        lambda x, y, z: (elems[x] * elems[y]) * elems[z] == elems[x] * (elems[y] * elems[z]),
        lambda x, y, z: "fails on %s" % ", ".join(map(p.render_monomial, (x, y, z))),
    )


# -- grading-row scans -------------------------------------------------------------


def scan_closure_product(cot, degree=4):
    """The ``closure-product`` row, decided by multiplying every pair of
    balanced normal monomials of total degree up to ``degree``, balance
    read off the factors' gradings (``balance_defect``)."""
    amb = cot.ambient
    members = [m for m in amb.monomials_up_to(degree) if not balance_defect(cot, m)]
    gens = [amb.element({m: ONE}) for m in members]
    return check(
        "cotensor",
        "closure-product",
        ((x, y) for x in gens for y in gens),
        lambda x, y: balanced(cot, x * y),
        lambda x, y: "product of two members leaves the subalgebra",
        anchor="closure",
    )


def scan_bicomodule(spec, degree_bound=3):
    """The bicomodule rows as tensor identities:
    (H (x) rho) o lrho against (lrho (x) C) o rho on every normal monomial
    up to the bound, and the left coaction of 1 against u^0 (x) 1."""
    p = spec.presentation
    right = lambda m: right_coact(spec, p.element({m: ONE}))
    left = lambda m: left_coact(spec, p.element({m: ONE}))

    def commute(m):
        return tensor_apply(left(m), 1, right) == tensor_apply(right(m), 0, left)

    unit = TensorElement((coalg_slot(), alg_slot(p)), {(0, p.one_monomial()): ONE})
    return [
        check(
            "comodule",
            "bicomodule-commute",
            zip(p.monomials_up_to(degree_bound)),
            commute,
            lambda m: "coactions do not commute on %s" % p.render_monomial(m),
        ),
        verdict(
            "comodule",
            "unit-covariant",
            left_coact(spec, p.one()) == unit,
            "left coaction of 1 is not u^0 (x) 1",
        ),
    ]


def scan_colinearity(form, n_bound):
    """The ``right-colinear`` and ``left-colinear`` rows of
    ``cli.suites.form_rows``, each image coacted on one leg and
    compared with the three-slot tensor that carries the index."""
    spec, p = form.spec, form.presentation
    indices = list(zip(range(-n_bound, n_bound + 1)))
    coact = lambda m: right_coact(spec, p.element({m: ONE}))

    def right_colinear(n):
        t = form(n)
        lhs = TensorElement(
            (alg_slot(p), alg_slot(p), coalg_slot()),
            {(x, y, n): c for (x, y), c in t.terms.items()},
        )
        return lhs == tensor_apply(t, 1, coact)

    def left_colinear(n):
        t = form(n)
        rhs = TensorElement(
            (alg_slot(p), coalg_slot(), alg_slot(p)),
            {(x, -n, y): c for (x, y), c in t.terms.items()},
        )
        return tensor_apply(t, 0, coact) == rhs

    return [
        check(
            "connection",
            "right-colinear",
            indices,
            right_colinear,
            lambda n: "second leg not colinear at index %d" % n,
        ),
        check(
            "connection",
            "left-colinear",
            indices,
            left_colinear,
            lambda n: "first leg degree is not the negated index at %d" % n,
        ),
    ]


def scan_h_balance(form, left_spec, n_bound):
    """The ``h-balance`` row of ``cli.suites.form_rows`` and the connection
    suite's ``h-balance-equivalence`` lemma row, each formulation an
    equality of H (x) P (x) P tensors: u^(L(x)+L(y)) (x) x (x) y against
    u^0 (x) x (x) y (combined) and u^L(x) (x) x (x) y against
    u^(-L(y)) (x) x (x) y (per leg), over the terms x (x) y of every image."""
    ldeg = left_spec.left_degree

    def legs_agree(t, lhs, rhs):
        shape = (coalg_slot(),) + t.shape
        left, right = (
            TensorElement(shape, {(side(x, y), x, y): c for (x, y), c in t.terms.items()})
            for side in (lhs, rhs)
        )
        return left == right

    ok, detail, agree, agree_detail = True, "", True, ""
    for n in range(-n_bound, n_bound + 1):
        t = form(n)
        total = legs_agree(t, lambda x, y: ldeg(x) + ldeg(y), lambda x, y: 0)
        split = legs_agree(t, lambda x, y: ldeg(x), lambda x, y: -ldeg(y))
        if total != split and agree:
            agree, agree_detail = False, "formulations disagree at index %d" % n
        if not (total and split) and ok:
            which = "combined" if not total else "per-leg"
            ok, detail = False, "%s balance fails at index %d" % (which, n)
    return [
        verdict("connection", "h-balance", ok, detail),
        verdict("connection", "h-balance-equivalence", agree, agree_detail),
    ]


def per_leg_balance(left_degree, t):
    """Per-leg balance: L(x) = -L(y) on every term x (x) y, that is,
    u^L(x) (x) x (x) y equals u^(-L(y)) (x) x (x) y."""
    return all(left_degree(x) == -left_degree(y) for x, y in t.terms)


def scan_mul_counit(form, n_bound):
    """The ``mul-counit`` row of ``cli.suites.form_rows``, decided by
    multiplying the legs of every image instead of reading C(n)."""
    p = form.presentation
    return check(
        "connection",
        "mul-counit",
        zip(range(-n_bound, n_bound + 1)),
        lambda n: multiply_adjacent(form(n), 0) == tensor_of([p.one()]),
        lambda n: "legs do not multiply to 1 at index %d" % n,
    )


def lifted_roundtrip(form, x, n):
    """can((x (x) 1) l(u^n)): the representative of x (x) u^n built in the
    tensor square and sent through the lifted canonical map, where the
    ``caninv-roundtrip`` row reads (x (x) u^0) C(n) instead."""
    rep = tensor_of([x, form.presentation.one()]) * form(n)
    return lifted_canonical_map(form.spec, rep)


def scan_roundtrip(tower, n_bound):
    """The ``caninv-roundtrip`` row of the connection suite as a scan:
    every sample x (1, then alpha and beta where the tower names them) at
    every |i| <= min(n_bound, 2) through ``lifted_roundtrip``, which must
    give x (x) u^i, where the row reads the composed colift verdicts.
    Same cases, order and details as the row."""
    cot, composed = tower.cot, tower.composed()
    samples = [("1", cot.ambient.one())]
    samples += [(k, tower.aliases[k]) for k in ("alpha", "beta") if k in tower.aliases]
    bound = min(n_bound, 2)

    def roundtrip(k, x, i):
        if not balanced(cot, x):
            raise PresentationError("element is not in the cotensor algebra")
        return lifted_roundtrip(composed, x, i) == tensor_of([x, grouplike(i)])

    try:
        return check(
            "connection",
            "caninv-roundtrip",
            [(k, x, i) for k, x in samples for i in range(-bound, bound + 1)],
            roundtrip,
            lambda k, x, i: "roundtrip fails on %s at index %d" % (k, i),
        )
    except PresentationError as exc:
        return verdict("connection", "caninv-roundtrip", False, str(exc))


def scan_coinvariants(cot, bound):
    """The ``coinvariants-match`` row as two enumerations up to total
    degree ``bound``: the balanced normal monomials of the ambient algebra
    of induced right degree zero, against the balanced products of normal
    monomials of A with those of P of right degree zero.  On failure the
    detail names the first monomial found in one basis only."""
    direct = set(
        m
        for m in cot.ambient.monomials_up_to(bound)
        if not balance_defect(cot, m) and cot.induced_right.right_degree(m) == 0
    )
    p_monos = [next(iter(x.terms)) for x in coinvariants_basis([cot.right_spec], bound)]
    built = set(
        ma + mp
        for ma in cot.left_spec.presentation.monomials_up_to(bound)
        for mp in p_monos
        if sum(ma) + sum(mp) <= bound
        and cot.left_spec.right_degree(ma) == cot.right_spec.left_degree(mp)
    )
    render = cot.ambient.render_monomial
    detail = ""
    if built - direct:
        detail = "factor-wise product %s is not an induced-grading coinvariant" % render(
            min(built - direct)
        )
    elif direct - built:
        detail = "induced-grading coinvariant %s is not a factor-wise product" % render(
            min(direct - built)
        )
    return verdict(
        "cotensor",
        "coinvariants-match",
        direct == built,
        detail,
        anchor="coinvariants-lemma",
    )


def per_term_product(t, slot):
    """``multiply_adjacent`` term by term: each term's product reduced on
    its own, the pieces summed through the validating constructor."""
    pres = t.shape[slot][1]
    shape = t.shape[:slot] + t.shape[slot + 1 :]
    total = TensorElement(shape)
    for key, c in t.terms.items():
        f, prod = pres.mono_mul(key[slot], key[slot + 1])
        head, tail = key[:slot], key[slot + 2 :]
        reduced = pres.reduce_terms({prod: f})
        piece = {head + (m,) + tail: c * cc for m, cc in reduced.items()}
        total = total + TensorElement(shape, piece)
    return total


def per_term_tensor_mul(x, y):
    """``tensor_mul`` pair by pair: each pair of terms is laid out with
    its two entries of every algebra slot side by side, each such slot
    pair is multiplied by ``per_term_product``, and the pieces are summed
    through the validating constructor."""
    total = TensorElement(x.shape)
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            shape, key = [], []
            for slot, a, b in zip(x.shape, kx, ky):
                if slot[0] == "alg":
                    shape += [slot, slot]
                    key += [a, b]
                else:
                    shape.append(slot)
                    key.append(a + b)
            piece = TensorElement(shape, {tuple(key): cx * cy})
            for i, slot in enumerate(x.shape):
                if slot[0] == "alg":
                    piece = per_term_product(piece, i)
            total = total + piece
    return total


def assert_canonical(t):
    """Equal to its rebuild through the validating constructor, no zero
    coefficient stored, one key entry per slot."""
    assert isinstance(t.shape, tuple)
    assert t == TensorElement(t.shape, t.terms)
    assert not any(c.is_zero() for c in t.terms.values())
    assert all(isinstance(k, tuple) and len(k) == len(t.shape) for k in t.terms)


def generator_form_afresh(cot, n):
    """The generator form at n, evaluated with nothing stored: ``_word_sum``
    over its triples at |n|, each with its legs swapped when n < 0."""
    triples = _generator_form_terms(cot, abs(n))
    if n < 0:
        triples = ((c, y, x) for c, x, y in triples)
    return _word_sum(cot.ambient, triples)
