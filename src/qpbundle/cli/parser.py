"""Expression grammar and the preset file format.

Expressions: identifiers name generators, aliases, or the scalar
letters L and M; postfix ' is the star, ^k an integer power (one q-sort
for a single term, however large k is); juxtaposition or * multiplies;
+ and - add.  (e1 | e2 | ...) builds a tensor with one slot per
bar-separated entry, and that is the only way to write one: a tensor
expression is a sum or difference of scalar multiples of such tuples of
one shape.

Presets are line-oriented documents with [section] headers:

    [meta]              name = ...
    [algebra A]         generators, star pairs, q table (as written:
                        AlgebraPresentation orients and checks it),
                        rules "reduce lhs = rhs", both sides read in the
                        algebra without rules and lhs one monomial with
                        coefficient 1 (b' b is b b' where they commute),
                        and the gradings its factor takes: right for A,
                        right and left for P (``_GRADINGS``)
    [connection A]      rule = sphere, plus explicit entry lines
    [aliases]           named elements of the joint tensor algebra; an
                        alias may use the aliases above it, and its
                        name is not a generator's, L or M
    [identities]        example rows "check-id: lhs = rhs" in the joint
                        algebra, or "check-id: coinvariant name ...";
                        [identities A] and [identities P] hold rows of
                        one factor.  Lines sharing a check id form one row.

The algebras are A and P: a label other than those in an [algebra X] or
[connection X] header is an unknown section.

Tokens are plain (kind, text, line, col) tuples, and errors in
expressions and in preset lines carry line and column numbers.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from ..scalar import MAX_DIGITS, LaurentScalar
from ..skewalg import AlgebraElement, AlgebraPresentation, PackageError, PresentationError
from ..comodule import CoactionSpec, TensorElement, tensor_of
from ..connection import ConnectionForm, compose_connection, matsumoto_connection
from ..cotensor import CotensorAlgebra
from .suites import RESERVED, ConfigError


class ParseError(PackageError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


# -- tokenizer -----------------------------------------------------------------

_SINGLE = {
    "'": "prime",
    "^": "caret",
    "*": "times",
    "+": "plus",
    "-": "minus",
    "(": "lparen",
    ")": "rparen",
    "|": "bar",
}


def tokenize(text: str, line_offset: int = 1, col_offset: int = 1) -> list[tuple]:
    """The tokens of ``text``, whose first character is at the given line
    and column: (kind, text, line, col) tuples, the last ("eof", "", ...)."""
    tokens = []
    append, single, n = tokens.append, _SINGLE, len(text)
    line, col, i = line_offset, col_offset, 0
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
        elif ch in single:
            append((single[ch], ch, line, col))
            i += 1
            col += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("ident", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(("int", text[i:j], line, col))
            col += j - i
            i = j
        elif ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    append(("eof", "", line, col))
    return tokens


# -- expression evaluation -------------------------------------------------------

_SCALAR_NAMES = {"L": LaurentScalar.lam(1), "M": LaurentScalar.lam2(1)}
_MINUS_ONE = LaurentScalar.integer(-1)


class ExpressionContext:
    """The name scope of one algebra: ``names`` maps every name an
    expression may use to its value: the ``aliases`` given, the
    generators and the scalar letters L and M, each winning over the
    ones before it.  The preset loader adds each alias it defines.

    With presentation None only scalar expressions are accepted, which
    is what the q-table values in preset files need.
    """

    def __init__(self, presentation: AlgebraPresentation | None, aliases=None):
        self.presentation = presentation
        self.names = dict(aliases or {})
        if presentation is not None:
            self.names.update((g, presentation.gen(g)) for g in presentation.generators)
        self.names.update(_SCALAR_NAMES)


def _err(tok, msg):
    return ParseError(msg, tok[2], tok[3])


def _int(tok) -> int:
    if len(tok[1]) > MAX_DIGITS:
        raise _err(tok, "an integer of more than %d digits" % MAX_DIGITS)
    return int(tok[1])


class _ExprParser:
    """expr = ["-"] term {("+" | "-") term}, term = factor {["*"] factor},
    factor = (name | int | "(" expr {"|" expr} ")") {"'" | "^" ["-"] int},
    each evaluated as it is read, left to right."""

    def __init__(self, tokens, ctx: ExpressionContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    # value algebra ----------------------------------------------------

    # the elements of one context share its presentation, and a tensor is
    # a sum of scaled ( | ) tuples of them, so only kinds and tensor shapes
    # can disagree.  Tensors are not multiplied: an entry lives in
    # P^op (x) P, whose product is not the slot-wise one
    def _mul(self, a, b, tok):
        if type(a) is LaurentScalar:
            return a * b if type(b) is LaurentScalar else b.scale(a)
        if type(b) is LaurentScalar:
            return a.scale(b)
        if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
            return a * b
        raise _err(tok, "cannot multiply these operands")

    def _add(self, a, b, tok):
        if type(a) is LaurentScalar and type(b) is LaurentScalar:
            return a + b
        if isinstance(a, TensorElement) != isinstance(b, TensorElement):
            raise _err(tok, "cannot add these operands")
        if isinstance(a, TensorElement):
            if a.shape != b.shape:
                raise _err(tok, "tensor terms of different shapes")
            return a + b
        return self._as_element(a, tok) + self._as_element(b, tok)

    def _as_element(self, v, tok) -> AlgebraElement:
        if isinstance(v, AlgebraElement):
            return v
        if type(v) is LaurentScalar:
            if self.ctx.presentation is None:
                raise _err(tok, "no algebra in scope")
            return self.ctx.presentation.one().scale(v)
        raise _err(tok, "expected an algebra element")

    # grammar ------------------------------------------------------------

    def expr(self):
        tok = self.tokens[self.pos]
        if tok[0] == "minus":
            self.pos += 1
            value = self._mul(_MINUS_ONE, self.term(), tok)
        else:
            value = self.term()
        while True:
            op = self.tokens[self.pos]
            if op[0] not in ("plus", "minus"):
                return value
            self.pos += 1
            rhs = self.term()
            if op[0] == "minus":
                rhs = self._mul(_MINUS_ONE, rhs, op)
            value = self._add(value, rhs, op)

    def term(self):
        value = self.factor()
        while True:
            tok = self.tokens[self.pos]
            if tok[0] == "times":
                self.pos += 1
            elif tok[0] not in ("ident", "int", "lparen"):
                return value
            value = self._mul(value, self.factor(), tok)

    def factor(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] == "ident":
            value = self.ctx.names.get(tok[1])
            if value is None:
                raise _err(tok, "unknown name %r" % tok[1])
        elif tok[0] == "int":
            value = LaurentScalar.integer(_int(tok))
        elif tok[0] == "lparen":
            slots = [self.expr()]
            while self.tokens[self.pos][0] == "bar":
                self.pos += 1
                slots.append(self.expr())
            closing = self.tokens[self.pos]
            self.pos += 1
            if closing[0] != "rparen":
                raise _err(closing, "expected a closing parenthesis")
            value = slots[0]
            if len(slots) > 1:
                value = tensor_of([self._as_element(s, tok) for s in slots])
        else:
            raise _err(tok, "unexpected %r" % (tok[1] or "end of input"))
        while True:
            op = self.tokens[self.pos]
            if op[0] == "prime":
                self.pos += 1
                if isinstance(value, TensorElement):
                    raise _err(op, "cannot star a tensor expression")
                value = value.star()
            elif op[0] == "caret":
                # the exponent is read before the base is judged
                negative = self.tokens[self.pos + 1][0] == "minus"
                tok = self.tokens[self.pos + 1 + negative]
                self.pos += 2 + negative
                if tok[0] != "int":
                    raise _err(tok, "expected an integer exponent")
                k = -_int(tok) if negative else _int(tok)
                if isinstance(value, TensorElement):
                    raise _err(op, "cannot raise a tensor expression to a power")
                if k < 0 and not (type(value) is LaurentScalar and value.is_unit_monomial()):
                    raise _err(op, "negative powers only apply to unit scalars")
                value = value**k
            else:
                return value


def parse_expression(ctx: ExpressionContext, text, line_offset: int = 1, col_offset: int = 1):
    """Parse and evaluate one expression starting at the given line and
    column; the result is a scalar, an algebra element, or a tensor.
    ``text`` may also be the list ``tokenize`` made of it."""
    tokens = text if isinstance(text, list) else tokenize(text, line_offset, col_offset)
    parser = _ExprParser(tokens, ctx)
    value = parser.expr()
    tok = tokens[parser.pos]
    if tok[0] != "eof":
        raise _err(tok, "unexpected %r" % tok[1])
    return value


def parse_value(ctx: ExpressionContext, text, line_offset: int = 1, col_offset: int = 1):
    """``parse_expression``, with a scalar promoted to that multiple of
    the unit of the context's algebra."""
    v = parse_expression(ctx, text, line_offset, col_offset)
    return ctx.presentation.one().scale(v) if isinstance(v, LaurentScalar) else v


# -- preset documents --------------------------------------------------------------


def _split_sections(text: str):
    sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()  # indented as in the file, for columns
        head = line.lstrip()
        if not head:
            continue
        if head.startswith("["):
            if not head.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            current = (head[1:-1].strip(), lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before the first section header", lineno, 1)
        current[2].append((lineno, line))
    return sections


def _col(line: str, start: int) -> int:
    """The column of the first non-blank character of line[start:]."""
    return len(line) - len(line[start:].lstrip()) + 1


def _keyval(line: str, lineno: int):
    """Key, value, and the value's column in the line."""
    if "=" not in line:
        raise ParseError("expected key = value", lineno, 1)
    key, value = line.split("=", 1)
    return key.strip(), value.strip(), _col(line, len(key) + 1)


@contextmanager
def _reported_at(lineno: int, prefix: str = ""):
    """Turn a ``PresentationError`` that an engine constructor raises in
    the block into a ``ParseError`` at ``lineno``, its message after
    ``prefix``."""
    try:
        yield
    except PresentationError as exc:
        raise ParseError(prefix + str(exc), lineno, 1)


def _once(seen: dict, key, what: str, lineno: int):
    """Record the line of ``key``; a second line for it is an error that
    names the first, so a repeated key never silently replaces one."""
    if key in seen:
        raise ParseError("%s repeats line %d" % (what, seen[key]), lineno, 1)
    seen[key] = lineno


# the grading lines each factor's section takes: A is a right comodule
# algebra, P an (H, C)-bicomodule with its left coaction by H
_GRADINGS = {"A": ("right",), "P": ("right", "left")}


def parse_algebra_section(lines, label: str) -> CoactionSpec:
    """One [algebra X] body: returns the coaction spec wrapping the
    validated presentation.  Every generator needs a degree, on its own
    line or its star partner's, in each grading ``_GRADINGS`` gives the
    factor; a line for any other grading is an error at that line."""
    generators: list[str] = []
    star_pairs: dict[str, str] = {}
    q_lines: list[tuple[int, str, str, str, int]] = []
    reduce_lines: list[tuple[int, str, int, str, int]] = []
    gradings: dict[str, dict[str, int]] = {side: {} for side in _GRADINGS[label]}
    at = lines[0][0] if lines else 1  # section-level errors point at its first line
    seen: dict = {}

    for lineno, line in lines:
        head = line.split()[0]
        if head == "generators":
            _once(seen, head, head, lineno)
            generators = _keyval(line, lineno)[1].split()
        elif head == "star":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("expected: star <g> <h>", lineno, 1)
            _once(seen, ("star", parts[1]), "star %s" % parts[1], lineno)
            star_pairs[parts[1]] = parts[2]
        elif head == "q":
            lhs, value, col = _keyval(line, lineno)
            parts = lhs.split()
            if len(parts) != 3:
                raise ParseError("expected: q <g> <h> = <scalar>", lineno, 1)
            _once(seen, ("q", frozenset(parts[1:])), " ".join(parts), lineno)
            q_lines.append((lineno, parts[1], parts[2], value, col))
        elif head == "reduce":
            lhs, value, col = _keyval(line, lineno)
            start = line.index(head) + len(head)
            reduce_lines.append((lineno, lhs[len(head) :].strip(), _col(line, start), value, col))
        elif head in ("right", "left"):
            if head not in gradings:
                raise ParseError("[algebra %s] takes no %s grading" % (label, head), lineno, 1)
            lhs, value, _ = _keyval(line, lineno)
            gen = lhs[len(head) :].strip()
            _once(seen, (head, gen), "%s %s" % (head, gen), lineno)
            try:
                gradings[head][gen] = int(value)
            except ValueError:
                raise ParseError("grading must be an integer", lineno, 1)
        else:
            raise ParseError("unknown directive %r" % head, lineno, 1)

    if not generators and (star_pairs or q_lines or reduce_lines):
        raise ParseError("generators line missing in [algebra %s]" % label, at, 1)

    index = {g: i for i, g in enumerate(generators)}
    scalar_ctx = ExpressionContext(None)
    commutation: dict[tuple[str, str], LaurentScalar] = {}
    for lineno, g, h, value, col in q_lines:
        if g not in index or h not in index:
            raise ParseError("unknown generator in q entry", lineno, 1)
        commutation[(g, h)] = parse_expression(scalar_ctx, value, lineno, col)

    with _reported_at(at, "invalid presentation: "):
        bare = AlgebraPresentation(generators, star_pairs, commutation, (), name=label)
    reductions = []
    bare_ctx = ExpressionContext(bare)
    for lineno, lhs, lcol, value, col in reduce_lines:
        lhs = parse_value(bare_ctx, lhs, lineno, lcol)
        terms = list(lhs.terms.items()) if isinstance(lhs, AlgebraElement) else []
        if len(terms) != 1 or not terms[0][1].is_one():
            raise ParseError("rule left side must be one monomial with coefficient 1", lineno, lcol)
        rhs = parse_value(bare_ctx, value, lineno, col)
        if not isinstance(rhs, AlgebraElement):
            raise ParseError("rule right side must be an algebra element", lineno, 1)
        reductions.append((terms[0][0], dict(rhs.terms)))

    with _reported_at(at, "invalid presentation: "):
        presentation = AlgebraPresentation(
            generators, star_pairs, commutation, reductions, name=label
        )

    for side, declared in gradings.items():
        for g in declared:
            if g not in index:
                msg = "unknown generator %r in %s grading" % (g, side)
                raise ParseError(msg, seen[(side, g)], 1)
    with _reported_at(at, "invalid gradings: "):
        return CoactionSpec(presentation, **gradings)


def parse_connection_section(
    lines, spec: CoactionSpec, ctx: ExpressionContext, label: str
) -> ConnectionForm:
    """One [connection X] body over the algebra ``spec`` grades, whose
    entries are read in that algebra's scope ``ctx``."""
    rule_name = None
    entries: dict[int, TensorElement] = {}
    p = spec.presentation
    seen: dict = {}
    for lineno, line in lines:
        key, value, col = _keyval(line, lineno)
        parts = key.split() or [""]
        if parts[0] == "rule":
            _once(seen, "rule", "rule", lineno)
            rule_name = value
        elif parts[0] == "entry":
            if len(parts) != 2:
                raise ParseError("expected: entry <n> = <tensor>", lineno, 1)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError("entry index must be an integer", lineno, 1)
            _once(seen, n, "entry %d" % n, lineno)
            tensor = parse_expression(ctx, value, lineno, col)
            if isinstance(tensor, (LaurentScalar, AlgebraElement)):
                raise ParseError("entry must be a two-slot tensor", lineno, 1)
            if tensor.shape != (p, p):
                raise ParseError("entry must have exactly two algebra slots", lineno, 1)
            entries[n] = tensor
        else:
            raise ParseError("unknown directive %r" % parts[0], lineno, 1)

    if rule_name == "sphere":
        with _reported_at(seen["rule"]):
            return matsumoto_connection(spec, name=label, overrides=entries)
    if rule_name is None:
        return ConnectionForm(spec, None, overrides=entries, name=label)
    raise ParseError("unknown connection rule %r" % rule_name, seen["rule"], 1)


_IDENTITY_SCOPES = {"identities": "ambient", "identities A": "A", "identities P": "P"}


def parse_identity_lines(lines, scope: str, ctx: ExpressionContext, identities: dict):
    """Add one [identities] section to ``identities``, which maps a check
    id to its lines as (scope, lhs, its tokens, rhs, its tokens): ``lhs =
    rhs`` in the scope's algebra, or, with rhs and its tokens None, ``lhs``
    names a coinvariant of the balanced subalgebra.  Each side is tokenized
    here, once: loading checks the line's shape, that its id is not an
    examples suite row, its characters, that no side holds a tensor, and its
    names; ``Tower.identity_holds`` parses and evaluates the stored tokens."""
    for lineno, line in lines:
        check_id, _, claim = line.partition(":")
        at, check_id, words = len(check_id) + 1, check_id.strip(), claim.split()
        if scope == "ambient" and words[:1] == ["coinvariant"] and "=" not in claim:
            at += claim.index("coinvariant") + len("coinvariant")
            spans = list(re.finditer(r"\S+", line[at:]))
            sides = [(w[0], at + w.start() + 1, None, None) for w in spans if w[0].isidentifier()]
            shaped = 0 < len(sides) == len(spans)
        else:
            lhs, _, rhs = claim.partition("=")
            sides = [(lhs.strip(), _col(line, at), rhs.strip(), _col(line, at + len(lhs) + 1))]
            shaped = lhs.strip() and rhs.strip() and "=" not in rhs
        if not (shaped and re.fullmatch(r"[\w-]+", check_id)):
            raise ParseError("expected id: lhs = rhs, or id: coinvariant name ...", lineno, 1)
        if check_id in RESERVED:
            raise ParseError("id %s names a row of the examples suite" % check_id, lineno, 1)
        stored, tokens = [], []
        for lhs, lcol, rhs, rcol in sides:
            ltokens = tokenize(lhs, lineno, lcol)
            rtokens = None if rhs is None else tokenize(rhs, lineno, rcol)
            tokens += ltokens + (rtokens or [])
            stored.append((scope, lhs, ltokens, rhs, rtokens))
        for tok in tokens:
            if tok[0] == "bar":
                raise _err(tok, "an identity side is an algebra element, not a tensor")
        for tok in tokens:
            if tok[0] == "ident" and tok[1] not in ctx.names:
                raise _err(tok, "unknown name %r" % tok[1])
        identities.setdefault(check_id, []).extend(stored)


class Tower:
    """Everything a preset declares: the two graded algebras, their
    cotensor algebra, both connection forms, named elements and the
    example identities."""

    def __init__(self, name, a_spec, p_spec, cot, form_a, form_p, aliases):
        self.name = name
        self.a_spec = a_spec
        self.p_spec = p_spec
        self.cot = cot
        self.form_a = form_a
        self.form_p = form_p
        self.aliases = aliases
        self._scopes = {
            "A": ExpressionContext(a_spec.presentation),
            "P": ExpressionContext(p_spec.presentation),
            "ambient": ExpressionContext(cot.ambient, aliases),
        }
        # check id -> its identity lines, filled by parse_identity_lines
        self.identities: dict[str, list] = {}
        self._composed = None

    def composed(self) -> ConnectionForm:
        if self._composed is None:
            missing = [
                "[connection %s]" % label
                for label, form in (("A", self.form_a), ("P", self.form_p))
                if form is None
            ]
            if missing:
                raise PresentationError("preset declares no %s" % " or ".join(missing))
            self._composed = compose_connection(self.form_a, self.form_p, self.cot)
        return self._composed

    def identity_holds(self, scope, lhs, ltokens, rhs, rtokens) -> bool:
        """Whether one identity line (see ``parse_identity_lines``) holds."""
        value = parse_value(self.context(scope), ltokens)
        if rhs is not None:
            return value == parse_value(self.context(scope), rtokens)
        return self.cot.membership(value) and all(
            self.cot.induced_right.right_degree(m) == 0 for m in value.terms
        )

    def identity_failure(self, scope, lhs, ltokens, rhs, rtokens) -> str:
        """What a failing identity line gets wrong."""
        if rhs is not None:
            return "%s differs from %s" % (lhs, rhs)
        balanced = self.cot.membership(parse_value(self.context(scope), ltokens))
        return "%s not %s" % (lhs, "of degree zero" if balanced else "balanced")

    def context(self, which: str) -> ExpressionContext:
        """The name scope of A, P or the ambient algebra, built once."""
        if which not in self._scopes:
            raise ConfigError("unknown algebra %r" % which)
        return self._scopes[which]


def load_preset(text: str, fallback_name: str = "preset") -> Tower:
    sections = _split_sections(text)
    name = fallback_name
    algebra_bodies: dict[str, list] = {}
    connection_bodies: dict[str, list] = {}
    identity_bodies: list = []
    alias_body: list = []
    seen: dict[str, int] = {}  # title -> line of its header, for one-off sections
    for title, lineno, body in sections:
        parts = title.split()
        title = " ".join(parts)
        scope = _IDENTITY_SCOPES.get(title)
        if scope is None:
            _once(seen, title, "section [%s]" % title, lineno)
        if title == "meta":
            keys: dict[str, int] = {}
            for ln, line in body:
                key, name, _ = _keyval(line, ln)
                if key != "name":
                    msg = "[meta] holds only name, not %r; example rows go in [identities]"
                    raise ParseError(msg % key, ln, 1)
                _once(keys, key, key, ln)
        elif title in ("algebra A", "algebra P"):
            algebra_bodies[parts[1]] = body
        elif title in ("connection A", "connection P"):
            connection_bodies[parts[1]] = body
        elif title == "aliases":
            alias_body = body
        elif scope is not None:
            identity_bodies.append((scope, body))
        else:
            raise ParseError("unknown section [%s]" % title, lineno, 1)

    if "A" not in algebra_bodies or "P" not in algebra_bodies:
        raise ParseError("preset must declare [algebra A] and [algebra P]", 1, 1)
    a_spec = parse_algebra_section(algebra_bodies["A"], "A")
    p_body = algebra_bodies["P"]
    p_spec = parse_algebra_section(p_body, "P")
    # reading the pair completes at the second factor, so its error points
    # at that section's first line, or at its header when it has none
    with _reported_at(p_body[0][0] if p_body else seen["algebra P"], "invalid cotensor algebra: "):
        cot = CotensorAlgebra(a_spec, p_spec, name=name)

    tower = Tower(name, a_spec, p_spec, cot, None, None, {})
    forms = {}
    for label, spec in (("A", a_spec), ("P", p_spec)):
        if label in connection_bodies:
            body = connection_bodies[label]
            forms[label] = parse_connection_section(body, spec, tower.context(label), label)
    tower.form_a, tower.form_p = forms.get("A"), forms.get("P")

    ctx = tower.context("ambient")
    defined: dict[str, int] = {}
    for lineno, line in alias_body:
        alias, value, col = _keyval(line, lineno)
        if not alias.isidentifier():
            raise ParseError("alias name %r is not an identifier" % alias, lineno, 1)
        _once(defined, alias, "alias %s" % alias, lineno)
        if alias in ctx.names:
            kind = "scalar" if isinstance(ctx.names[alias], LaurentScalar) else "generator"
            raise ParseError("alias %s reuses a %s name" % (alias, kind), lineno, 1)
        v = parse_value(ctx, value, lineno, col)
        if not isinstance(v, AlgebraElement):
            raise ParseError("alias must name an algebra element", lineno, 1)
        tower.aliases[alias] = ctx.names[alias] = v

    for scope, body in identity_bodies:
        parse_identity_lines(body, scope, tower.context(scope), tower.identities)
    return tower

