"""Parsing and printing: the expression grammar, problem files, the
structured reader, and the plain / latex / structured printing of derived
forms (an expression renders itself, in ``expr``).

Expression grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' ['-'] int)?
    base   := number | ident | ident suffix | fn '(' args ')' | '(' expr ')'
    suffix := '_' letters | '_{' ident+ '}'
    number := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]
    ident  := letter (letter | digit)*

over Unicode decimal digits and letters.  Line comments start with ``#``.
Jet coordinates are written as a field name with a derivative suffix:
``y_tt`` when base variables are single letters, ``y_{x1 x1}`` otherwise.
The same suffix syntax on a declared opaque function denotes its formal
partial derivatives, e.g. ``g_q(q)``.

The structured format is the only stability-guaranteed machine
interface; its schema is documented in the README.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from . import expr as ex
from .expr import (BaseCoord, ConstSym, JetContext, JetCoord, JetExpr, OpaqueFn,
                   all_atoms, atom_expr, expr_to_dict, jet_coords, to_latex,
                   to_plain)
from .multiindex import MultiIndex
from .numconfig import SETTINGS, NumericError, parse_setting
from .variational import BilinearForm, Lagrangian, SourceForm, _sigma_label


class ParseError(ValueError):
    """Syntax or validation error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# One match per token, after blanks; the last group starts no token.  Not
# re.ASCII: \d is str.isdecimal, [^\W_] str.isalnum and \s str.isspace.
_TOKEN = re.compile(
    r"[^\S\n]*(?:([^\W\d_][^\W_]*)|([-+*/^(){},=_])"
    r"|(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(\n)|(#[^\n]*)|(\S))")
_IDENT, _SYMBOL, _NUM, _NEWLINE, _COMMENT = range(1, 6)


class _Token:
    __slots__ = ("kind", "text", "line", "col")  # kind: NUM, IDENT, EOF or a symbol

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _lex(src: str, line: int = 1, col: int = 1) -> list[_Token]:
    toks: list[_Token] = []
    before = -col         # the index just before column 1 of the line
    end = len(src)        # the index of the EOF token
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text, i = m[group], m.start(group)
        # [^\W\d_] also matches a digit that is not decimal, such as ²
        if group == _IDENT and text[0].isalpha() or group == _NUM:
            toks.append(_Token("NUM" if group == _NUM else "IDENT", text,
                               line, i - before))
        elif group == _SYMBOL:
            toks.append(_Token(text, text, line, i - before))
        elif group == _NEWLINE:
            line, before = line + 1, i
        elif group == _COMMENT:
            # a comment takes no columns: one that ends the source holds EOF
            end = i if m.end() == len(src) else end
        else:
            raise ParseError(f"unexpected character {text[0]!r}", line,
                             i - before)
    toks.append(_Token("EOF", "", line, end - before))
    return toks


# ---------------------------------------------------------------------------
# recursive-descent expression parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Token], ctx: JetContext):
        self.toks = toks
        self.ctx = ctx
        self.pos = 0
        self.depth = 0    # the '(' open at the current token

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def fail(self, message: str, tok: _Token | None = None):
        t = tok or self.peek()
        raise ParseError(message, t.line, t.col)

    def open(self):
        """Take a '(', refused past expr.MAX_HEIGHT open ones: the parser
        recurses about six frames deeper at each."""
        t = self.expect("(")
        self.depth += 1
        if self.depth > ex.MAX_HEIGHT:
            self.fail("expression nested too deeply", t)

    def close(self):
        self.expect(")")
        self.depth -= 1

    # grammar ---------------------------------------------------------------

    def expression(self) -> JetExpr:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> JetExpr:
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.next()
            rhs = self.unary()
            # a zero divisor, too large a product, or too large a power
            # that dividing by an inverse sum takes, is refused here
            try:
                node = node * rhs if op.kind == "*" else node / rhs
            except ex.ExprError as err:
                self.fail(str(err), op)
        return node

    def unary(self) -> JetExpr:
        """A run of '-' before a factor, refused past expr.MAX_HEIGHT
        signs as a nesting of as many '(' is."""
        signs = 0
        while self.peek().kind == "-":
            signs += 1
            if signs > ex.MAX_HEIGHT:
                self.fail("expression nested too deeply")
            self.next()
        node = self.factor()
        return -node if signs % 2 else node

    def factor(self) -> JetExpr:
        base = self.base()
        if self.peek().kind != "^":
            return base
        caret = self.next()
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        t = self.expect("NUM")
        if any(c in t.text for c in ".eE"):
            self.fail("exponent must be an integer", t)
        k = self.number(t)
        try:
            return base ** (-k if neg else k)
        except ex.ExprError as err:   # a zero or too large a power
            self.fail(str(err), caret)

    def base(self) -> JetExpr:
        t = self.peek()
        if t.kind == "(":
            self.open()
            node = self.expression()
            self.close()
            return node
        if t.kind == "NUM":
            self.next()
            return JetExpr.constant(self.number(t))
        if t.kind == "IDENT":
            return self.identifier()
        self.fail(f"expected an expression, found {t.text or 'end of input'!r}")

    def number(self, t: _Token):
        """The literal t, an int when it is all digits, else a Fraction.
        One whose exact value needs more digits than int() reads from
        text, judged as its mantissa's digits plus its exponent's
        magnitude, is refused at t: Fraction would build 1e100000000 in
        full."""
        limit = sys.get_int_max_str_digits()
        mantissa, _e, exponent = t.text.lower().partition("e")
        try:
            digits = len(mantissa.replace(".", "")) + abs(int(exponent or 0))
        except ValueError:   # an exponent of more than limit digits
            digits = math.inf
        if 0 < limit < digits:
            self.fail(f"number literal has more than {limit} digits", t)
        return (int if t.text.isdecimal() else Fraction)(t.text)

    def identifier(self) -> JetExpr:
        t = self.next()
        name = t.text
        ctx = self.ctx
        if name in ex.ELEMENTARY_FUNCTIONS:
            self.open()
            arg = self.expression()
            self.close()
            return ex.elem(name, arg)
        if name in ex.KNOWN_CONSTANTS:
            return atom_expr(ConstSym(name))
        if name in ctx.base_names:
            if self.peek().kind == "_":
                self.fail("base variable cannot carry a derivative suffix", t)
            return ctx.base(name)
        if name in ctx.fiber_names:
            if self.peek().kind != "_":
                return ctx.fiber(name)
            return ctx.jet(name, MultiIndex(self.suffix(ctx.base_names)))
        argnames = ctx.opaque_table.get(name)
        if argnames is not None:
            orders = ((0,) * len(argnames) if self.peek().kind != "_"
                      else self.suffix(argnames))
            self.open()
            args = [self.expression()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.expression())
            close = self.peek()
            self.close()
            if len(args) != len(argnames):
                self.fail(f"opaque function {name!r} expects {len(argnames)} "
                          f"arguments, got {len(args)}", close)
            return ctx.opaque(name, orders, tuple(args))
        self.fail(f"unknown identifier {name!r}", t)

    def suffix(self, valid: tuple[str, ...]) -> tuple[int, ...]:
        """Derivative suffix after '_', either '{' names '}' or a run of
        single-letter names, as how often it names each entry of valid."""
        under = self.next()  # the '_'
        if self.peek().kind == "{":
            self.next()
            names = []
            while self.peek().kind == "IDENT":
                names.append(self.next().text)
            self.expect("}")
            if not names:
                self.fail("empty derivative suffix", under)
        else:
            t = self.peek()
            if t.kind != "IDENT":
                self.fail("malformed derivative suffix", t)
            self.next()
            names = list(t.text)
        counts = [0] * len(valid)
        for nm in names:
            if nm not in valid:
                self.fail(f"malformed derivative suffix: {nm!r} is not valid here",
                          under)
            counts[valid.index(nm)] += 1
        return tuple(counts)


def parse_expr(src: str, ctx: JetContext, *, line: int = 1, col: int = 1
               ) -> JetExpr:
    """Parse an expression that starts at the given line and column;
    raises ParseError with a source position."""
    return _parse_tokens(_lex(src, line, col), ctx)


def _parse_tokens(toks: list[_Token], ctx: JetContext) -> JetExpr:
    p = _Parser(toks, ctx)
    node = p.expression()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return node


# ---------------------------------------------------------------------------
# structured (lossless machine) format
# ---------------------------------------------------------------------------


def _json(value, kind: type):
    """value, if its JSON type is kind (a bool is no int); else TypeError,
    so that no reader converts a value silently."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


# The largest total order of a multi-index or opaque derivative order the
# structured reader takes.  adjoint walks the box below sigma, up to 2^order
# indices (one per axis): at 10, on 10 axes, it writes 32 MB in about 2 s.
MAX_ORDER = 10


def _counts(values) -> tuple[int, ...]:
    """The entries of a multi-index or of an opaque derivative order; a
    total order past MAX_ORDER raises ValueError."""
    counts = tuple(_json(c, int) for c in _json(values, list))
    if (order := sum(counts)) > MAX_ORDER:
        raise ValueError(f"derivative order {order} passes {MAX_ORDER}")
    return counts


# a coefficient as coeff_text writes it: p or p/q in ASCII digits
_COEFF = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _atom_from_dict(d: dict, ctx: JetContext) -> JetExpr:
    kind = d["kind"]
    if kind == "base":
        return ctx.base(_json(d["name"], str))
    if kind == "const":
        return atom_expr(ConstSym(d["name"]))
    if kind == "jet":
        return ctx.jet(_json(d["field"], str),
                       MultiIndex(_counts(d["counts"])))
    if kind == "elem":
        return ex.elem(d["fn"], _expr_from_dict(d["arg"], ctx))
    if kind == "opaque":
        return ctx.opaque(d["name"], _counts(d["orders"]), tuple(
            _expr_from_dict(a, ctx) for a in _json(d["args"], list)))
    if kind == "inv":
        return ex.div(ex.ONE, _expr_from_dict(d["body"], ctx))
    raise ValueError(f"unknown atom kind {kind!r}")


def _expr_from_dict(d: dict, ctx: JetContext) -> JetExpr:
    pieces = []
    for t in _json(d["terms"], list):
        coeff = _json(t["coeff"], str)
        if not _COEFF.fullmatch(coeff):
            raise ValueError(f"coeff must read p or p/q, got {coeff!r}")
        piece = JetExpr.constant(Fraction(coeff))
        for f in _json(t["factors"], list):
            piece = piece * (_atom_from_dict(f["atom"], ctx)
                             ** _json(f["power"], int))
        pieces.append(piece)
    return ex.add_many(pieces)


def object_to_dict(obj) -> dict:
    """Structured representation of an expression or a derived form."""
    if isinstance(obj, JetExpr):
        return {"type": "expr", **expr_to_dict(obj)}
    if isinstance(obj, SourceForm):
        return {"type": "source_form",
                "components": [expr_to_dict(c) for c in obj.components]}
    if isinstance(obj, BilinearForm):
        fibers = obj.ctx.fiber_names
        return {"type": "bilinear_form",
                "entries": [{"sigma": list(s),
                             "i": fibers[i], "j": fibers[j],
                             "value": expr_to_dict(v)}
                            for (s, i, j), v in obj.entries()]}
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def object_from_dict(d: dict, ctx: JetContext):
    t = d.get("type")
    if t == "expr":
        return _expr_from_dict(d, ctx)
    if t == "source_form":
        comps = tuple(_expr_from_dict(c, ctx)
                      for c in _json(d["components"], list))
        return SourceForm(ctx, comps)
    if t == "bilinear_form":
        comps = {}
        for entry in _json(d["entries"], list):
            key = (MultiIndex(_counts(entry["sigma"])),
                   ctx.fiber_index(entry["i"]), ctx.fiber_index(entry["j"]))
            val = _expr_from_dict(entry["value"], ctx)
            comps[key] = comps[key] + val if key in comps else val
        return BilinearForm(ctx, comps)
    raise ValueError(f"unknown structured object type {t!r}")


def parse_structured(text: str, ctx: JetContext):
    """Read a structured payload; a malformed one raises ValueError."""
    try:
        return object_from_dict(json.loads(text), ctx)
    # json.loads raises RecursionError itself on a payload nested deeper
    # than it reads, such as "[" * 100000, before any atom is built; a
    # payload that it reads nests the reader less than half as deep
    except (AttributeError, ArithmeticError, KeyError, RecursionError,
            TypeError) as err:
        raise ValueError(f"malformed structured payload: {err!r}") from None


# ---------------------------------------------------------------------------
# unified printing
# ---------------------------------------------------------------------------


def dump_structured(payload: dict) -> str:
    """The structured-format text of a JSON-ready payload: keys sorted,
    two-space indent.  Every structured output is written here; no
    expression nests deeper than expr.MAX_HEIGHT, which the writer's
    recursion fits."""
    return _json_text(payload, "\n")


_json_str = json.encoder.encode_basestring_ascii


def _json_text(o, nl: str) -> str:
    """o as ``json.dumps(o, sort_keys=True, indent=2)`` writes it, byte for
    byte, where nl is the newline and indent of o's own line; dict keys
    must be strings.  (With indent, json.dumps leaves its C encoder for a
    pure-Python one, two to three times slower than this.)  Containers
    are tested first, as they are the most common, and bool before int.
    They are filled by loops: a comprehension is a frame of its own
    before Python 3.12, which would double the writer's recursion and
    take longer on the small containers of an expression."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = []
        for k, v in sorted(o.items()):
            items.append(_json_str(k) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, str):
        return _json_str(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        items = []
        for v in o:
            items.append(_json_text(v, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON "
                    f"serializable")


def print_object(obj, fmt: str = "plain", name: str = "A") -> str:
    """Render an expression, source form, or bilinear form.

    plain and latex follow the canonical term order and one template,
    which differ only in the expression printer, the subscript braces and
    the index separator; structured is the lossless JSON tree that
    round-trips through parse_structured.
    """
    if fmt == "structured":
        return dump_structured(object_to_dict(obj))
    show, sub, sep = ((to_plain, "{}", " ") if fmt == "plain"
                      else (to_latex, "{{{}}}", "\\,"))
    if isinstance(obj, JetExpr):
        return show(obj)
    if isinstance(obj, SourceForm):
        return "\n".join(f"e_{sub.format(i + 1)} = {show(c)}"
                         for i, c in enumerate(obj.components))
    if isinstance(obj, BilinearForm):
        if obj.is_zero:
            return f"{name} = 0"
        base = obj.ctx.base_names
        return "\n".join(
            f"{name}^{{{_sigma_label(s, base)}}}_{{{i + 1}{sep}{j + 1}}} = "
            f"{show(v)}" for (s, i, j), v in obj.entries())
    raise ValueError(f"cannot print {type(obj).__name__}")


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

_KEYWORDS = {"context", "lagrangian", "source", "section", "variation",
             "numeric"}


class ProblemFile:
    __slots__ = ("ctx", "lagrangians", "sources", "sections", "variations", "numeric")

    def __init__(self, ctx: JetContext):
        self.ctx = ctx
        self.lagrangians: dict[str, Lagrangian] = {}
        self.sources: dict[str, SourceForm] = {}
        self.sections: dict[str, tuple[JetExpr, ...]] = {}
        self.variations: dict[str, tuple[JetExpr, ...]] = {}
        self.numeric: NumericBlock | None = None


def _blocks(text: str):
    """Group a problem file into (keyword, argument, [(lineno, line), ...]);
    a body line keeps its indentation, so that its columns are the file's."""
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        head = line.split()[0]
        if head in _KEYWORDS:
            current = (head, line.lstrip()[len(head):].strip(), lineno, [])
            blocks.append(current)
        else:
            if current is None:
                raise ParseError(
                    f"expected a section keyword ({', '.join(sorted(_KEYWORDS))})",
                    lineno, 1)
            current[3].append((lineno, line))
    return blocks


def _words(line: str) -> list[tuple[str, int]]:
    """The whitespace-separated words of a line, each with its column."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _declared(word: str, line: int, col: int) -> str:
    """word as a declared base, field or opaque name: a name, as
    ``expr.is_name`` reads one, that opens no block."""
    if not ex.is_name(word) or word in _KEYWORDS:
        raise ParseError(f"a declared name must be one identifier and no "
                         f"block keyword, not {word!r}", line, col)
    return word


def _parse_context_block(arg: str, lineno: int, body) -> JetContext:
    if arg:
        raise ParseError("context declaration takes no argument", lineno, 1)
    base: list[str] = []
    fibers: list[str] = []
    opaque: dict[str, tuple[str, ...]] = {}
    for ln, line in body:
        words = _words(line)
        head, col = words[0]
        if head == "base":
            base.extend(_declared(w, ln, c) for w, c in words[1:])
        elif head in ("field", "fields"):
            fibers.extend(_declared(w, ln, c) for w, c in words[1:])
        elif head == "opaque":
            start = col - 1 + len(head)
            name, args = _parse_opaque_decl(line[start:], ln, start + 1)
            opaque[name] = args
        else:
            raise ParseError(
                f"unknown context entry {head!r} (expected base, field, opaque)",
                ln, col)
    try:
        return JetContext.make(base, fibers, opaque)
    except ex.ExprError as err:
        raise ParseError(str(err), lineno, 1) from None


def _parse_opaque_decl(text: str, lineno: int, col: int
                       ) -> tuple[str, tuple[str, ...]]:
    """name(arg, ...) written from the given column; a refusal names the
    column of the first token that breaks the form."""
    p = _Parser(_lex(text, lineno, col), None)
    try:
        name = p.expect("IDENT")
        p.expect("(")
        args = [p.expect("IDENT").text]
        while p.peek().kind == ",":
            p.next()
            args.append(p.expect("IDENT").text)
        p.expect(")")
        p.expect("EOF")
    except ParseError:
        t = p.peek()
        raise ParseError("opaque declaration must be name(arg, ...)",
                         t.line, t.col) from None
    return _declared(name.text, name.line, name.col), tuple(args)


def _parse_components(ctx: JetContext, body, what: str, block_line: int
                      ) -> tuple[JetExpr, ...]:
    """The components of a source, section or variation block, ZERO for a
    field it omits.  A section must define every field, and the
    expressions of a section or variation hold base coordinates only."""
    comps: dict[int, JetExpr] = {}
    for ln, line in body:
        if "=" not in line:
            raise ParseError(f"{what} lines must read 'field = expression'",
                             ln, 1)
        lhs, rhs = line.split("=", 1)
        fname = lhs.strip()
        col = len(lhs) - len(lhs.lstrip()) + 1
        if fname not in ctx.fiber_names:
            raise ParseError(f"unknown field {fname!r}", ln, col)
        idx = ctx.fiber_index(fname)
        if idx in comps:
            raise ParseError(f"duplicate component for field {fname!r}", ln,
                             col)
        value = parse_expr(rhs, ctx, line=ln, col=len(lhs) + 2)
        if what != "source" and jet_coords(value):
            raise ParseError(
                f"{what} expressions must be closed forms in the base "
                f"coordinates only", ln, 1)
        comps[idx] = value
    if what == "section":
        missing = [ctx.fiber_names[i] for i in range(ctx.m) if i not in comps]
        if missing:
            raise ParseError(f"{what} must define every field; missing "
                             f"{', '.join(missing)}", block_line, 1)
    return tuple(comps.get(i, ex.ZERO) for i in range(ctx.m))


class NumericBlock:
    """The numeric block of a problem file as written.  Each domain bound
    stays an exact constant expression, with its text, line and column,
    until ``bounds`` evaluates it: only a numeric command pays for that,
    and for numpy."""

    __slots__ = ("domain", "settings")

    def __init__(self, domain: tuple[tuple[int, tuple, tuple], ...],
                 settings: dict[str, int | float]):
        # per axis: (line, (lo text, col, lo), (hi text, col, hi))
        self.domain = domain
        # every setting of SETTINGS: the block's value, else the default
        self.settings = settings

    def bounds(self) -> tuple[tuple[float, float], ...]:
        """The (lo, hi) of each axis, evaluated to floats by
        ``numeric.compile_expr``.  A bound that is not a finite constant,
        or a pair with lo >= hi, raises ParseError at its position."""
        from .numeric import compile_expr   # numpy: numeric commands only
        domain = []
        for line, *bounds in self.domain:
            pair = []
            for text, col, value in bounds:
                try:
                    pair.append(float(compile_expr(value)({})))
                except NumericError:
                    raise _not_finite(text, line, col) from None
            _require_ordered(*pair, line, bounds[0][1])
            domain.append(tuple(pair))
        return tuple(domain)


def _parse_numeric_block(ctx: JetContext, body, block_line: int) -> NumericBlock:
    domain: dict[int, tuple] = {}
    settings = {}
    for ln, line in body:
        words = _words(line)
        head, head_col = words[0]
        if head == "domain":
            if len(words) != 4:
                raise ParseError("domain lines read 'domain axis lo hi'", ln,
                                 head_col)
            name, col = words[1]
            if name not in ctx.base_names:
                raise ParseError(f"unknown base variable {name!r}", ln, col)
            axis = ctx.axis(name)
            if axis in domain:
                raise ParseError(f"duplicate domain for {name!r}", ln, col)
            lo, hi = (_domain_bound(text, ctx, ln, c) for text, c in words[2:])
            lo_exact, hi_exact = lo[2].constant_value(), hi[2].constant_value()
            if lo_exact is not None and hi_exact is not None:
                _require_ordered(lo_exact, hi_exact, ln, lo[1])
            domain[axis] = (ln, lo, hi)
        elif head in SETTINGS:
            if len(words) != 2:
                raise ParseError(f"{head} lines read '{head} value'", ln,
                                 head_col)
            if head in settings:
                raise ParseError(f"duplicate setting {head!r}", ln, head_col)
            text, col = words[1]
            try:
                settings[head] = parse_setting(head, text)
            except ValueError as err:
                raise ParseError(f"{head}: {err}", ln, col) from None
        else:
            raise ParseError(f"unknown numeric entry {head!r}", ln, head_col)
    missing = [ctx.base_names[a] for a in range(ctx.n) if a not in domain]
    if missing:
        raise ParseError(
            f"numeric block must give a domain for every base variable; "
            f"missing {', '.join(missing)}", block_line, 1)
    return NumericBlock(tuple(domain[a] for a in range(ctx.n)), {
        name: settings.get(name, row[-1]) for name, row in SETTINGS.items()})


def _domain_bound(text: str, ctx: JetContext, line: int, col: int
                  ) -> tuple[str, int, JetExpr]:
    """A bound, written at the given line and column, as (text, column,
    exact value).  One that holds a coordinate or an opaque function can
    never evaluate, so it is refused here."""
    value = parse_expr(text, ctx, line=line, col=col)
    if any(isinstance(a, (BaseCoord, JetCoord, OpaqueFn))
           for a in all_atoms(value)):
        raise _not_finite(text, line, col)
    return text, col, value


def _not_finite(text: str, line: int, col: int) -> ParseError:
    return ParseError(f"domain bound {text!r} is not a finite constant",
                      line, col)


def _require_ordered(lo, hi, line: int, col: int) -> None:
    if not lo < hi:
        raise ParseError("domain bounds must satisfy lo < hi", line, col)


def parse_problem_file(text: str) -> ProblemFile:
    """Parse a problem file; the context declaration must come first."""
    blocks = _blocks(text)
    if not blocks or blocks[0][0] != "context":
        line = blocks[0][2] if blocks else 1
        raise ParseError("a problem file must start with a context declaration",
                         line, 1)
    ctx = _parse_context_block(blocks[0][1], blocks[0][2], blocks[0][3])
    pf = ProblemFile(ctx)
    tables = {"lagrangian": pf.lagrangians, "source": pf.sources,
              "section": pf.sections, "variation": pf.variations}
    for head, arg, lineno, body in blocks[1:]:
        if head == "context":
            raise ParseError("duplicate context declaration", lineno, 1)
        if head == "numeric":
            if pf.numeric is not None:
                raise ParseError("duplicate numeric block", lineno, 1)
            pf.numeric = _parse_numeric_block(ctx, body, lineno)
            continue
        if not arg or len(arg.split()) != 1:
            raise ParseError(f"{head} declarations need a single name", lineno, 1)
        name, table = arg, tables[head]
        if name in table:
            raise ParseError(f"duplicate {head} {name!r}", lineno, 1)
        if head == "lagrangian":
            if not body:
                raise ParseError(f"lagrangian {name!r} has no expression",
                                 lineno, 1)
            # one expression, each line lexed where it is written
            lexed = [_lex(line, ln) for ln, line in body]
            toks = [t for ts in lexed for t in ts[:-1]] + lexed[-1][-1:]
            table[name] = Lagrangian(ctx, _parse_tokens(toks, ctx))
            continue
        comps = _parse_components(ctx, body, head, lineno)
        table[name] = SourceForm(ctx, comps) if head == "source" else comps
    return pf
