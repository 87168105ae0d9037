"""Expression grammar and the preset file format.

Expressions: identifiers name generators, aliases, or the scalar
letters L and M; postfix ' is the star, ^k an integer power;
juxtaposition or * multiplies; + and - add; (e1 | e2 | ...) builds a
tensor with one slot per bar-separated entry, and a (x) b (the
circled-times character) tensors two factors.

Presets are line-oriented documents with [section] headers:

    [meta]              name = ...
    [algebra A]         generators, star pairs, q table, reduce rules,
                        right/left gradings
    [connection A]      rule = sphere, plus explicit entry lines
    [aliases]           named elements of the joint tensor algebra; an
                        alias may use the aliases above it
    [identities]        example rows "check-id: lhs = rhs" in the joint
                        algebra, or "check-id: coinvariant name ...";
                        [identities A] and [identities P] hold rows of
                        one factor.  Lines sharing a check id form one row.

Both parsers report errors with line and column numbers.
"""

from __future__ import annotations

import re

from ..scalar import LaurentScalar
from ..skewalg import AlgebraElement, AlgebraPresentation, PresentationError
from ..comodule import CoactionSpec, ShapeError, TensorElement, alg_slot, tensor_of
from ..connection import ConnectionForm, compose_connection, matsumoto_connection
from ..cotensor import CotensorAlgebra


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


class ConfigError(ValueError):
    """A run asked for with a setting outside its range."""


# the package's own errors: a report may show one as a failing row, while
# any other exception is a bug
PACKAGE_ERRORS = (ParseError, PresentationError, ShapeError, ConfigError)


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
    "⊗": "tensor",
}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


def tokenize(text: str, line_offset: int = 1, col_offset: int = 1):
    tokens = []
    line = line_offset
    col = col_offset
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- expression evaluation -------------------------------------------------------

_SCALAR_NAMES = {"L": LaurentScalar.lam(1), "M": LaurentScalar.lam2(1)}


class ExpressionContext:
    """Name resolution for one algebra: generators, aliases, scalars.

    With presentation None only scalar expressions are accepted, which
    is what the q-table values in preset files need.
    """

    def __init__(self, presentation: AlgebraPresentation | None, aliases=None):
        self.presentation = presentation
        self.aliases = aliases if aliases is not None else {}

    def resolve(self, name: str, tok: Token):
        if name in _SCALAR_NAMES:
            return _SCALAR_NAMES[name]
        if self.presentation is not None and name in self.presentation.index:
            return self.presentation.gen(name)
        if name in self.aliases:
            return self.aliases[name]
        raise ParseError("unknown name %r" % name, tok.line, tok.col)


def _is_scalar(v):
    return isinstance(v, LaurentScalar)


def _err(tok, msg):
    return ParseError(msg, tok.line, tok.col)


class _ExprParser:
    def __init__(self, tokens, ctx: ExpressionContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    # value algebra ----------------------------------------------------

    def _mul(self, a, b, tok):
        if _is_scalar(a) and _is_scalar(b):
            return a * b
        if _is_scalar(a):
            return b.scale(a) if not _is_scalar(b) else a * b
        if _is_scalar(b):
            return a.scale(b)
        if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
            if a.presentation is not b.presentation:
                raise _err(tok, "factors live in different algebras")
            return a * b
        if isinstance(a, TensorElement) and isinstance(b, TensorElement):
            if a.shape != b.shape:
                raise _err(tok, "tensor factors of different shapes")
            return a * b
        raise _err(tok, "cannot multiply these operands")

    def _add(self, a, b, tok):
        if _is_scalar(a) and _is_scalar(b):
            return a + b
        a = self._promote_like(a, b, tok)
        b = self._promote_like(b, a, tok)
        if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
            if a.presentation is not b.presentation:
                raise _err(tok, "terms live in different algebras")
            return a + b
        if isinstance(a, TensorElement) and isinstance(b, TensorElement):
            if a.shape != b.shape:
                raise _err(tok, "tensor terms of different shapes")
            return a + b
        raise _err(tok, "cannot add these operands")

    def _promote_like(self, v, template, tok):
        """Lift a scalar to the shape of the other summand."""
        if not _is_scalar(v):
            return v
        if isinstance(template, AlgebraElement):
            return template.presentation.one().scale(v)
        if isinstance(template, TensorElement):
            unit = []
            for kind, pres in template.shape:
                if kind != "alg":
                    raise _err(tok, "cannot promote a scalar into this tensor shape")
                unit.append(pres.one())
            return tensor_of(unit).scale(v)
        return v

    def _as_element(self, v, tok) -> AlgebraElement:
        if isinstance(v, AlgebraElement):
            return v
        if _is_scalar(v):
            if self.ctx.presentation is None:
                raise _err(tok, "no algebra in scope")
            return self.ctx.presentation.one().scale(v)
        raise _err(tok, "expected an algebra element")

    # grammar ------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise _err(tok, "unexpected %r" % tok.text)
        return value

    def expr(self):
        tok = self.peek()
        negate = False
        if tok.kind == "minus":
            self.next()
            negate = True
        value = self.tensor_term()
        if negate:
            value = self._mul(LaurentScalar.integer(-1), value, tok)
        while self.peek().kind in ("plus", "minus"):
            op = self.next()
            rhs = self.tensor_term()
            if op.kind == "minus":
                rhs = self._mul(LaurentScalar.integer(-1), rhs, op)
            value = self._add(value, rhs, op)
        return value

    def tensor_term(self):
        value = self.term()
        while self.peek().kind == "tensor":
            op = self.next()
            rhs = self.term()
            value = tensor_of([self._tensor_factor(value, op), self._tensor_factor(rhs, op)])
        return value

    def _tensor_factor(self, v, tok):
        return v if isinstance(v, TensorElement) else self._as_element(v, tok)

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "times":
                self.next()
                value = self._mul(value, self.factor(), tok)
            elif tok.kind in ("ident", "int", "lparen"):
                value = self._mul(value, self.factor(), tok)
            else:
                return value

    def factor(self):
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "prime":
                self.next()
                if isinstance(value, (LaurentScalar, AlgebraElement)):
                    value = value.star()
                else:
                    raise _err(tok, "cannot star a tensor expression")
            elif tok.kind == "caret":
                self.next()
                value = self._pow(value, self._exponent(), tok)
            else:
                return value

    def _exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "minus":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "int":
            raise _err(tok, "expected an integer exponent")
        return sign * int(tok.text)

    def _pow(self, v, k, tok):
        if k < 0 and not (_is_scalar(v) and v.is_unit_monomial()):
            raise _err(tok, "negative powers only apply to unit scalars")
        return v**k

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return LaurentScalar.integer(int(tok.text))
        if tok.kind == "ident":
            return self.ctx.resolve(tok.text, tok)
        if tok.kind == "lparen":
            slots = [self.expr()]
            while self.peek().kind == "bar":
                self.next()
                slots.append(self.expr())
            closing = self.next()
            if closing.kind != "rparen":
                raise _err(closing, "expected a closing parenthesis")
            if len(slots) == 1:
                return slots[0]
            return tensor_of([self._as_element(s, tok) for s in slots])
        raise _err(tok, "unexpected %r" % (tok.text or "end of input"))


def parse_expression(ctx: ExpressionContext, text: str, line_offset: int = 1, col_offset: int = 1):
    """Parse and evaluate one expression starting at the given line and
    column; the result is a scalar, an algebra element, or a tensor."""
    return _ExprParser(tokenize(text, line_offset, col_offset), ctx).parse()


def parse_value(ctx: ExpressionContext, text: str, line_offset: int = 1, col_offset: int = 1):
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


def _once(seen: dict, key, what: str, lineno: int):
    """Record the line of ``key``; a second line for it is an error that
    names the first, so a repeated key never silently replaces one."""
    if key in seen:
        raise ParseError("%s repeats line %d" % (what, seen[key]), lineno, 1)
    seen[key] = lineno


def _parse_word(text: str, presentation: AlgebraPresentation, lineno: int) -> list[str]:
    """A product of generator letters with optional ' and ^k, as a flat
    letter list: a rule line's left side, after its directive."""
    tokens = tokenize(text, lineno)[1:]
    word: list[str] = []
    i = 0
    while tokens[i].kind != "eof":
        tok = tokens[i]
        if tok.kind != "ident":
            raise _err(tok, "rule left side must be a product of generators")
        name = tok.text
        i += 1
        if tokens[i].kind == "prime":
            name = name + "'"
            i += 1
        if name not in presentation.index:
            raise _err(tok, "unknown generator %r" % name)
        count = 1
        if tokens[i].kind == "caret":
            i += 1
            if tokens[i].kind != "int":
                raise _err(tokens[i], "expected an integer exponent")
            count = int(tokens[i].text)
            i += 1
        word.extend([name] * count)
    return word


def parse_algebra_section(lines, label: str) -> CoactionSpec:
    """One [algebra X] body: returns the coaction spec wrapping the
    validated presentation."""
    generators: list[str] = []
    star_pairs: dict[str, str] = {}
    q_lines: list[tuple[int, str, str, str, int]] = []
    reduce_lines: list[tuple[int, str, str, int]] = []
    gradings: dict[str, dict[str, int]] = {"right": {}, "left": {}}
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
            q_lines.append((lineno, parts[1], parts[2], value, col))
        elif head == "reduce":
            _, value, col = _keyval(line, lineno)
            reduce_lines.append((lineno, line[: line.index("=")], value, col))
        elif head in ("right", "left"):
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
        coeff = parse_expression(scalar_ctx, value, lineno, col)
        if not isinstance(coeff, LaurentScalar):
            raise ParseError("q entry must be a scalar", lineno, 1)
        if index[g] > index[h]:
            key, val = (g, h), coeff
        elif index[g] < index[h]:
            key, val = (h, g), coeff.inverse()
        else:
            raise ParseError("q entry for a generator with itself", lineno, 1)
        if key in commutation and commutation[key] != val:
            raise ParseError("conflicting q entries for %s, %s" % key, lineno, 1)
        commutation[key] = val

    try:
        bare = AlgebraPresentation(generators, star_pairs, commutation, (), name=label)
    except PresentationError as exc:
        raise ParseError("invalid presentation: %s" % exc, at, 1)
    reductions = []
    bare_ctx = ExpressionContext(bare)
    for lineno, lhs, value, col in reduce_lines:
        word = _parse_word(lhs, bare, lineno)
        rhs = parse_value(bare_ctx, value, lineno, col)
        if not isinstance(rhs, AlgebraElement):
            raise ParseError("rule right side must be an algebra element", lineno, 1)
        reductions.append((word, dict(rhs.terms)))

    try:
        presentation = AlgebraPresentation(
            generators, star_pairs, commutation, reductions, name=label
        )
    except PresentationError as exc:
        raise ParseError("invalid presentation: %s" % exc, at, 1)

    tables: dict[str, dict[str, int] | None] = {}
    for side in ("right", "left"):
        declared = gradings[side]
        if not declared:
            tables[side] = None
            continue
        for g in declared:
            if g not in index:
                msg = "unknown generator %r in %s grading" % (g, side)
                raise ParseError(msg, seen[(side, g)], 1)
        table = dict(declared)
        for g in generators:
            if g in table:
                continue
            partner = presentation.star_map[g]
            if partner in table:
                table[g] = -table[partner]
            else:
                raise ParseError("no %s grading for %r or its star partner" % (side, g), at, 1)
        tables[side] = table

    try:
        return CoactionSpec(presentation, right=tables["right"], left=tables["left"])
    except PresentationError as exc:
        raise ParseError("invalid gradings: %s" % exc, at, 1)


def parse_connection_section(lines, spec: CoactionSpec, label: str) -> ConnectionForm:
    rule_name = None
    entries: dict[int, TensorElement] = {}
    ctx = ExpressionContext(spec.presentation)
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
            if tensor.shape != (alg_slot(p), alg_slot(p)):
                raise ParseError("entry must have exactly two algebra slots", lineno, 1)
            entries[n] = tensor
        else:
            raise ParseError("unknown directive %r" % parts[0], lineno, 1)

    if rule_name == "sphere":
        base = matsumoto_connection(spec, name=label)
        return ConnectionForm(spec, base.closed, overrides=entries, name=label)
    if rule_name is None:
        def missing(n: int) -> TensorElement:
            raise PresentationError(
                "connection %s has no closed rule and no entry for index %d" % (label, n)
            )

        return ConnectionForm(spec, missing, overrides=entries, name=label)
    raise ParseError("unknown connection rule %r" % rule_name, lines[0][0], 1)


_IDENTITY_SCOPES = {"identities": "ambient", "identities A": "A", "identities P": "P"}


def parse_identity_lines(lines, scope: str, ctx: ExpressionContext, identities: dict):
    """Add one [identities] section to ``identities``, which maps a check
    id to its lines as (scope, line number, lhs, its column, rhs, its
    column): ``lhs = rhs`` in the scope's algebra, or, with rhs and its
    column None, ``lhs`` names a coinvariant of the balanced subalgebra.
    Only shape and names are checked here; the examples suite evaluates
    the lines."""
    known = set(_SCALAR_NAMES) | set(ctx.aliases) | set(ctx.presentation.index)
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
        for name in re.finditer(r"[^\W\d]\w*", line[at:]):
            if name[0] not in known:
                raise ParseError("unknown name %r" % name[0], lineno, at + name.start() + 1)
        identities.setdefault(check_id, []).extend((scope, lineno) + side for side in sides)


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
        # check id -> its identity lines, filled by parse_identity_lines
        self.identities: dict[str, list] = {}
        self._composed = None

    def composed(self) -> ConnectionForm:
        if self._composed is None:
            if self.form_a is None or self.form_p is None:
                raise PresentationError(
                    "preset declares no connection for one of the factors"
                )
            self._composed = compose_connection(self.form_a, self.form_p, self.cot)
        return self._composed

    def context(self, which: str) -> ExpressionContext:
        if which == "A":
            return ExpressionContext(self.a_spec.presentation)
        if which == "P":
            return ExpressionContext(self.p_spec.presentation)
        if which == "ambient":
            return ExpressionContext(self.cot.ambient, aliases=self.aliases)
        raise ConfigError("unknown algebra %r" % which)


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
            for ln, line in body:
                key, name, _ = _keyval(line, ln)
                if key != "name":
                    msg = "[meta] holds only name, not %r; example rows go in [identities]"
                    raise ParseError(msg % key, ln, 1)
        elif parts[:1] == ["algebra"] and len(parts) == 2:
            algebra_bodies[parts[1]] = body
        elif parts[:1] == ["connection"] and len(parts) == 2:
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
    p_spec = parse_algebra_section(algebra_bodies["P"], "P")
    for label in connection_bodies:
        if label not in algebra_bodies:
            raise ParseError("connection for undeclared algebra %r" % label, 1, 1)

    cot = CotensorAlgebra(a_spec, p_spec, name=name)

    form_a = form_p = None
    if "A" in connection_bodies:
        form_a = parse_connection_section(connection_bodies["A"], a_spec, "A")
    if "P" in connection_bodies:
        form_p = parse_connection_section(connection_bodies["P"], p_spec, "P")

    tower = Tower(name, a_spec, p_spec, cot, form_a, form_p, {})
    ctx = tower.context("ambient")
    defined: dict[str, int] = {}
    for lineno, line in alias_body:
        alias, value, col = _keyval(line, lineno)
        if not alias.isidentifier():
            raise ParseError("alias name %r is not an identifier" % alias, lineno, 1)
        _once(defined, alias, "alias %s" % alias, lineno)
        v = parse_value(ctx, value, lineno, col)
        if not isinstance(v, AlgebraElement):
            raise ParseError("alias must name an algebra element", lineno, 1)
        tower.aliases[alias] = v

    for scope, body in identity_bodies:
        parse_identity_lines(body, scope, tower.context(scope), tower.identities)
    return tower

