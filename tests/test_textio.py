import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import JetContext, Lagrangian, euler_lagrange, to_plain
from jetvar.expr import ONE, ExprError, exp, is_name, sin, sqrt
from jetvar.multiindex import MultiIndex
from jetvar.randgen import random_polynomial
from jetvar.textio import (MAX_ORDER, ParseError, _lex, dump_structured,
                           parse_expr, parse_problem_file, parse_structured,
                           print_object, to_latex)
from jetvar.variational import BilinearForm, SourceForm, _sigma_label

seeds = st.integers(0, 10**9)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------


def test_parse_oscillator(ode_ctx):
    e = parse_expr("1/2*(y_t^2 - y^2)", ode_ctx)
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    assert e == (yt ** 2 - y ** 2) / 2


def test_parse_opaque_product(metric_ctx):
    e = parse_expr("g12(q1,q2)*q1_t*q2_t", metric_ctx)
    assert e == metric_ctx.opaque("g12") * metric_ctx.jet("q1", "t") * \
        metric_ctx.jet("q2", "t")


def test_parse_braced_suffix(ode_ctx):
    assert parse_expr("y_{t t}^2/2", ode_ctx) == ode_ctx.jet("y", "tt") ** 2 / 2


def test_parse_multichar_base_names():
    ctx = JetContext.make("x1 x2", "w")
    e = parse_expr("w_{x1 x1 x2}", ctx)
    assert e == ctx.jet("w", MultiIndex((2, 1)))


def test_precedence(ode_ctx):
    y = ode_ctx.fiber("y")
    t = ode_ctx.base("t")
    assert parse_expr("-y^2", ode_ctx) == -(y ** 2)
    assert parse_expr("2*-3", ode_ctx) == -6
    assert parse_expr("1 - 2 - 3", ode_ctx) == -4
    assert parse_expr("12/2/3", ode_ctx) == 2
    assert parse_expr("2*t + 3*t", ode_ctx) == 5 * t
    assert parse_expr("2^-1", ode_ctx) == Fraction(1, 2)


def test_parse_functions_and_pi(ode_ctx):
    t = ode_ctx.base("t")
    assert parse_expr("sin(t)*exp(t)", ode_ctx) == sin(t) * exp(t)
    assert parse_expr("sqrt(1 + t^2)", ode_ctx) == sqrt(1 + t ** 2)
    two_pi = parse_expr("2*pi", ode_ctx)
    assert to_plain(two_pi) == "2*pi"


def test_parse_decimal_is_exact(ode_ctx):
    assert parse_expr("0.5", ode_ctx) == Fraction(1, 2)
    assert parse_expr("1e-3", ode_ctx) == Fraction(1, 1000)


@pytest.mark.parametrize("bad,fragment", [
    ("1 +", "expected an expression"),
    ("zz", "unknown identifier"),
    ("y_{t", "expected '}'"),
    ("y_q", "malformed derivative suffix"),
    ("t_t", "base variable cannot carry"),
    ("sin(y", "expected ')'"),
    ("y^1.5", "exponent must be an integer"),
    ("3/(y-y)", "division by an identically zero"),
    # the kernel's ExprError, reported at the '^' of the power
    ("(y-y)^-1", "line 1, col 6: zero expression raised to a negative power"),
    ("y @ 2", "unexpected character"),
])
def test_parse_errors_carry_positions(ode_ctx, bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_expr(bad, ode_ctx)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


def test_superscript_digit_is_an_unexpected_character(ode_ctx):
    """'²' is a digit to str.isdigit but no number to int or Fraction: the
    lexer refuses it as a character, where it stands."""
    with pytest.raises(ParseError) as err:
        parse_expr("y^²", ode_ctx)
    assert err.value.message == "unexpected character '²'"
    assert (err.value.line, err.value.col) == (1, 3)


EOF = "EOF", ""


@pytest.mark.parametrize("src, start, lexed", [
    ("2.5e-3*t", (1, 1), [("NUM", "2.5e-3", 1, 1), ("*", "*", 1, 7),
                          ("IDENT", "t", 1, 8), (*EOF, 1, 9)]),
    ("1.5.3", (1, 1), ("unexpected character '.'", 1, 4)),
    # an exponent needs its digits; a number ends before a bare 'e'
    ("2e", (1, 1), [("NUM", "2", 1, 1), ("IDENT", "e", 1, 2), (*EOF, 1, 3)]),
    ("2e+1", (1, 1), [("NUM", "2e+1", 1, 1), (*EOF, 1, 5)]),
    # digits and letters are Unicode decimal digits and letters
    ("\u0663*y", (1, 1), [("NUM", "\u0663", 1, 1), ("*", "*", 1, 2),
                          ("IDENT", "y", 1, 3), (*EOF, 1, 4)]),
    ("x\u00b2", (1, 1), [("IDENT", "x\u00b2", 1, 1), (*EOF, 1, 3)]),
    ("\u00b2", (1, 1), ("unexpected character '\u00b2'", 1, 1)),
    ("\u00bd", (1, 1), ("unexpected character '\u00bd'", 1, 1)),
    # a comment takes no columns
    ("y # c", (1, 1), [("IDENT", "y", 1, 1), (*EOF, 1, 3)]),
    ("y # c\nz", (1, 1),
     [("IDENT", "y", 1, 1), ("IDENT", "z", 2, 1), (*EOF, 2, 2)]),
    # any blank but a newline is one column
    ("a\tb", (1, 1), [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3),
                      (*EOF, 1, 4)]),
    ("a\u2028b", (1, 1), [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3),
                          (*EOF, 1, 4)]),
    ("a\n  b", (1, 1), [("IDENT", "a", 1, 1), ("IDENT", "b", 2, 3),
                        (*EOF, 2, 4)]),
    ("a  ", (1, 1), [("IDENT", "a", 1, 1), (*EOF, 1, 4)]),
    ("", (1, 1), [(*EOF, 1, 1)]),
    # lexed from line 4, col 7
    ("y_{t x}", (4, 7),
     [("IDENT", "y", 4, 7), ("_", "_", 4, 8), ("{", "{", 4, 9),
      ("IDENT", "t", 4, 10), ("IDENT", "x", 4, 12), ("}", "}", 4, 13),
      (*EOF, 4, 14)]),
    ("y\n @", (4, 7), ("unexpected character '@'", 5, 2)),
])
def test_lexer_tokens_and_positions(src, start, lexed):
    """The tokens of src lexed from (line, col) = start, each as (kind,
    text, line, col), or a refusal as (message, line, col)."""
    if isinstance(lexed, tuple):
        with pytest.raises(ParseError) as err:
            _lex(src, *start)
        assert (err.value.message, err.value.line, err.value.col) == lexed
    else:
        assert [(t.kind, t.text, t.line, t.col)
                for t in _lex(src, *start)] == lexed


_LEXER_ALPHABET = [
    *"0123456789eE.+-*/^(){},=_ytx#", " ", "\t", "\r", "\x0c", "\x1c",
    "\u00a0", "\u2028", "\u3000", "\u00b2", "\u00bd", "\u0663", "\u216b",
    "\U0001d7d9", "\u01c5", "\u02b0", "\u0301", "\u00e9", *"$@;:'\"\\",
    "1e+", "1.e5", ".5", "y_{t x}", "# c"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LEXER_ALPHABET), max_size=16).map("".join))
def test_lexer_tokens_are_the_source(src):
    """On one line, either the lexer refuses a character that starts no
    token, where it stands, or its tokens are slices of the source, in
    order, and what they leave out is blank or a trailing comment."""
    try:
        toks = _lex(src)
    except ParseError as err:
        ch = src[err.col - 1]
        assert (err.message, err.line) == (f"unexpected character {ch!r}", 1)
        assert not (ch.isspace() or ch.isdecimal() or ch.isalpha()
                    or ch in "+-*/^(){},=_#")
        return
    covered, end = set(), 0
    for t in toks[:-1]:
        assert t.line == 1 and t.col - 1 >= end and t.text
        assert src[t.col - 1:t.col - 1 + len(t.text)] == t.text
        end = t.col - 1 + len(t.text)
        covered.update(range(t.col - 1, end))
    left = [i for i in range(len(src)) if i not in covered]
    comment = next((i for i in left if src[i] == "#"), len(src))
    assert end <= comment
    assert all(src[i].isspace() for i in left if i < comment)
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("EOF", 1,
                                                           comment + 1)


def _unbroken(word: str) -> bool:
    """Whether word holds no blank and no comment."""
    return not any(ch.isspace() or ch == "#" for ch in word)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from([a for a in _LEXER_ALPHABET if _unbroken(a)]),
             max_size=6).map("".join),
    st.text(max_size=6).filter(_unbroken)))
def test_a_name_is_a_word_that_lexes_as_one_identifier(word):
    """expr.is_name holds of a word with no blank or comment exactly when
    the lexer reads it as one identifier and then the end."""
    try:
        one = [t.kind for t in _lex(word)] == ["IDENT", "EOF"]
    except ParseError:
        one = False
    assert is_name(word) == one


@pytest.mark.parametrize("name, refused", [
    ("y,", True), ("2y", True), ("y_t", True), ("", True),
    # a block keyword is a name; only a problem file refuses it
    ("section", False),
])
def test_a_context_takes_only_names_an_expression_can_write(name, refused):
    """JetContext refuses a name that no expression can write; a name it
    takes reads back from the printed form of its jet coordinate."""
    if refused:
        with pytest.raises(ExprError, match="a letter, then letters or "
                                            "digits"):
            JetContext.make("t", [name])
    else:
        ctx = JetContext.make("t", [name])
        e = ctx.jet(name, "t") ** 2
        assert parse_expr(to_plain(e), ctx) == e


def test_opaque_arity_error(metric_ctx):
    with pytest.raises(ParseError) as err:
        parse_expr("g11(q1)", metric_ctx)
    assert "expects 2 arguments" in str(err.value)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="yt01+-*/^(){}_ ,.ez", max_size=24))
def test_parser_never_panics(text):
    """Arbitrary input either parses or raises a positioned ParseError."""
    ctx = JetContext.make("t", "y")
    try:
        parse_expr(text, ctx)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1


# ---------------------------------------------------------------------------
# printing and round trips
# ---------------------------------------------------------------------------


def test_plain_roundtrip_fixed(ode_ctx):
    for src in ["1/2*(y_t^2 - y^2)", "-y - y_tt", "sin(y)^2 + cos(y)^2",
                "y/(1 + y)", "(y + 1)^-2", "pi*t - 1/3",
                "sqrt(y)*log(1 + t^2)"]:
        e = parse_expr(src, ode_ctx)
        assert parse_expr(to_plain(e), ode_ctx) == e


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_plain_roundtrip_random(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    e = random_polynomial(rng, ctx, max_order=2, max_monomials=5)
    assert parse_expr(to_plain(e), ctx) == e


def test_plain_roundtrip_opaque_partial(metric_ctx):
    e = parse_expr("g11_{q1 q2}(q1, q2)*q1_t", metric_ctx)
    assert parse_expr(to_plain(e), metric_ctx) == e


def test_plain_roundtrip_sqrt_derivative(ode_ctx):
    from jetvar import partial
    d = partial(sqrt(ode_ctx.fiber("y")), ode_ctx.jet_atom("y"))
    assert to_plain(d) == "1/2*sqrt(y)^-1"
    assert parse_expr(to_plain(d), ode_ctx) == d


def test_el_print_golden(ode_ctx):
    lag = Lagrangian(ode_ctx, parse_expr("1/2*(y_t^2 - y^2)", ode_ctx))
    assert print_object(euler_lagrange(lag)) == "e_1 = -y - y_tt"


def test_latex(ode_ctx):
    e = parse_expr("1/2*(y_t^2 - y^2)", ode_ctx)
    assert to_latex(e) == r"-\frac{1}{2} y^{2} + \frac{1}{2} y_{t}^{2}"
    assert to_latex(parse_expr("y_{t t}", ode_ctx)) == "y_{t t}"
    assert to_latex(parse_expr("2*pi", ode_ctx)) == r"2 \pi"


def test_latex_functions_and_inverse_sums(ode_ctx):
    assert to_latex(parse_expr("sin(y)/(1 + y^2)", ode_ctx)) == \
        r"\sin\left(y\right) \left(1 + y^{2}\right)^{-1}"
    assert to_latex(parse_expr("(y + 1)^-2", ode_ctx)) == \
        r"\left(1 + y\right)^{-2}"


def test_latex_sqrt_and_opaque(metric_ctx):
    e = parse_expr("sqrt(q1)*g11_{q2}(q1, q2)", metric_ctx)
    out = to_latex(e)
    assert r"\sqrt{q1}" in out
    assert r"\partial_{q2} g11" in out


def test_structured_roundtrip(ode_ctx, metric_ctx):
    for ctx, src in [
            (ode_ctx, "1/2*(y_t^2 - y^2)"),
            (ode_ctx, "sin(y_t)/(1 + y^2)"),
            (metric_ctx, "g11_{q1}(q1, q2)*q1_t^2 - pi")]:
        e = parse_expr(src, ctx)
        assert parse_structured(print_object(e, "structured"), ctx) == e


def test_structured_roundtrip_forms(ode_ctx):
    lag = Lagrangian(ode_ctx, parse_expr("1/2*(y_t^2 - y^2)", ode_ctx))
    e = euler_lagrange(lag)
    assert parse_structured(print_object(e, "structured"), ode_ctx) == e
    bf = BilinearForm(ode_ctx, {(MultiIndex((2,)), 0, 0): ode_ctx.fiber("y"),
                                (MultiIndex((0,)), 0, 0): ONE})
    back = parse_structured(print_object(bf, "structured"), ode_ctx)
    assert back == bf


@pytest.mark.parametrize("where", ["counts", "sigma", "orders"])
def test_structured_derivative_order_is_bounded(metric_ctx, where):
    """A multi-index or opaque derivative order of total order MAX_ORDER is
    read, and one past it is refused before any form is built, in the
    value's jet coordinates, in sigma and in an opaque atom's orders."""
    def payload(order: int) -> str:
        split = [order // 2, order - order // 2]
        atom = {"kind": "jet", "field": "q1",
                "counts": [order if where == "counts" else 0]}
        if where == "orders":
            q = [{"terms": [{"coeff": "1", "factors": [{"atom": {
                "kind": "jet", "field": f, "counts": [0]}, "power": 1}]}]}
                for f in ("q1", "q2")]
            atom = {"kind": "opaque", "name": "g11", "orders": split,
                    "args": q}
        sigma = [order if where == "sigma" else 0]
        return json.dumps({"type": "bilinear_form", "entries": [{
            "sigma": sigma, "i": "q1", "j": "q2", "value": {"terms": [
                {"coeff": "1", "factors": [{"atom": atom, "power": 1}]}]}}]})

    assert isinstance(parse_structured(payload(MAX_ORDER), metric_ctx),
                      BilinearForm)
    with pytest.raises(ValueError, match=f"derivative order {MAX_ORDER + 1} "
                                         f"passes {MAX_ORDER}"):
        parse_structured(payload(MAX_ORDER + 1), metric_ctx)


def _array_paths(node, path=()):
    """The path of each array in a JSON document, outermost first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if isinstance(value, list):
            yield path + (key,)
        yield from _array_paths(value, path + (key,))


def test_structured_reader_refuses_an_object_for_an_array(metric_ctx):
    """Each array of a payload (terms, factors, args, counts, orders,
    components, entries, sigma), given as an object, is refused, not read
    as empty."""
    g = parse_expr("g11_{q1}(q1, q2)*q1_t^2 + 1", metric_ctx)
    forms = (SourceForm(metric_ctx, (g, g)),
             BilinearForm(metric_ctx, {(MultiIndex((1,)), 0, 1): g}))
    keys = set()
    for form in forms:
        doc = json.loads(print_object(form, "structured"))
        for path in _array_paths(doc):
            broken = json.loads(json.dumps(doc))
            node = broken
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = {}
            keys.add(path[-1])
            with pytest.raises(ValueError, match="expected list, got {}"):
                parse_structured(json.dumps(broken), metric_ctx)
    assert keys == {
        "terms", "factors", "args", "counts", "orders", "components",
        "entries", "sigma"}


# seconds allowed to read back the 3060 terms of (1 + t + y + y_t + y_tt)^14,
# 0.17 s on a 2-core Xeon; adding them one at a time, which renormalized
# the whole sum each time, took 6 s
STRUCTURED_READ_BUDGET = 2


def test_structured_read_of_a_long_sum_is_within_budget(ode_ctx):
    e = parse_expr("(1 + t + y + y_t + y_tt)^14", ode_ctx)
    text = print_object(e, "structured")
    start = time.perf_counter()
    back = parse_structured(text, ode_ctx)
    elapsed = time.perf_counter() - start
    assert back == e and len(back.terms) == 3060
    assert elapsed < STRUCTURED_READ_BUDGET


_json_scalars = (st.none() | st.booleans()
                 | st.integers() | st.integers(-10**40, 10**40)
                 | st.sampled_from([0.0, -0.0, 5e-324, 1e308, 1e16, 0.1,
                                    float("inf"), float("-inf"), float("nan")])
                 | st.floats() | st.text()
                 | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u4e2d",
                                    "\U0001f600", "\"\\/\b\f\n\r\t",
                                    "\u2028\ud800"]))
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _json_payloads, max_size=5))
def test_structured_writer_matches_json_dumps(payload):
    """The structured writer gives the bytes of json.dumps with sorted keys
    and a two-space indent: escapes, -0.0, the smallest subnormal, long
    integers, non-finite floats and empty containers included."""
    assert dump_structured(payload) == json.dumps(payload, sort_keys=True,
                                                  indent=2)


def test_structured_writer_refuses_what_json_refuses():
    for bad in ({"a": object()}, {"a": [Fraction(1, 2)]}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            dump_structured(bad)


def test_structured_is_deterministic(ode_ctx):
    e = parse_expr("y*y_t + sin(t)*y", ode_ctx)
    assert print_object(e, "structured") == print_object(e, "structured")
    d = json.loads(print_object(e, "structured"))
    assert d["type"] == "expr"


def test_print_bilinear_labels(ode_ctx):
    bf = BilinearForm(ode_ctx, {(MultiIndex((1,)), 0, 0): 2 * ONE})
    assert print_object(bf, "plain", name="H") == "H^{t}_{1 1} = 2"
    zero = BilinearForm(ode_ctx, {})
    assert print_object(zero, "plain", name="H") == "H = 0"


def test_sigma_label():
    """The upper index of A^sigma juxtaposes the base names, each as often
    as sigma counts it; sigma = 0 prints as 0."""
    assert _sigma_label(MultiIndex((2, 1)), ["x1", "x2"]) == "x1 x1 x2"
    assert _sigma_label(MultiIndex((0, 0)), ["x1", "x2"]) == "0"
    assert _sigma_label(MultiIndex((3,)), ["t"]) == "t t t"


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_problem_file_fixture(problems_dir):
    pf = parse_problem_file((problems_dir / "oscillator.vp").read_text())
    assert set(pf.lagrangians) == {"osc"}
    assert set(pf.sources) == {"drift", "curvature"}
    assert set(pf.sections) == {"sol", "bad"}
    assert set(pf.variations) == {"b1", "b2", "b3"}
    assert pf.numeric is not None
    assert pf.numeric.settings == {"nodes": 64, "step": 1e-3, "tol": 1e-6}
    (lo, hi), = pf.numeric.bounds()
    assert lo == 0.0 and abs(hi - 3.141592653589793) < 1e-15


def test_problem_file_sources_default_zero():
    text = """
context
  base t
  field y z

source partial_src
  y = y_t
"""
    pf = parse_problem_file(text)
    assert pf.sources["partial_src"].components[1].is_zero


@pytest.mark.parametrize("text,fragment", [
    ("lagrangian l\n  1", "must start with a context"),
    ("context\n base t\n field y\ncontext\n base u\n field w", "duplicate context"),
    ("context\n base t\n field y\nsection s\n y = y_t",
     "base coordinates only"),
    ("context\n base t\n field y z\nsection s\n y = t", "missing z"),
    ("context\n base t\n field y\nnumeric\n nodes 8",
     "domain for every base variable"),
    ("context\n base t\n field y\nnumeric\n domain t 1 0", "lo < hi"),
    ("context\n base t\n field y\nnumeric\n domain t 0 t", "finite constant"),
    ("context\n base t\n field y\nsection s\n w = t", "unknown field 'w'"),
    ("context\n base t\n field y\nlagrangian a b\n  y", "single name"),
    ("context\n base t\n field y\n odd stuff", "unknown context entry"),
    ("context\n base t\n field t", "not distinct"),
    ("context\n base t\n field sin", "reserved names"),
    ("context\n base t\n field y\n opaque g()", "name(arg, ...)"),
    # a repeated name, axis or setting is refused at the repeated line
    *((f"context\n base t\n field y\n{kind} a\n {line}\n{kind} a\n {line}",
       f"line 6, col 1: duplicate {kind} 'a'")
      for kind, line in (("lagrangian", "y"), ("source", "y = t"),
                         ("section", "y = t"), ("variation", "y = 1"))),
    ("context\n base t\n field y\nnumeric\n domain t 0 1\n domain t 0 2",
     "line 6, col 9: duplicate domain for 't'"),
    ("context\n base t\n field y\nnumeric\n domain t 0 1\n nodes 8\n"
     " nodes 9", "line 7, col 2: duplicate setting 'nodes'"),
])
def test_problem_file_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem_file(text)
    assert fragment in str(err.value)


def test_problem_file_numeric_pi_bound():
    text = """
context
  base t
  field y
lagrangian l
  y_t^2
numeric
  domain t 0 2*pi
  nodes 8
"""
    pf = parse_problem_file(text)
    assert abs(pf.numeric.bounds()[0][1] - 6.283185307179586) < 1e-15
    # the block's value where it gives one, else the default
    assert pf.numeric.settings == {"nodes": 8, "step": 1e-3, "tol": 1e-6}


def test_problem_file_multiline_lagrangian():
    text = """
context
  base t
  field y
lagrangian split
  1/2*(y_t^2
     - y^2)
"""
    pf = parse_problem_file(text)
    ctx = pf.ctx
    assert pf.lagrangians["split"].density == \
        (ctx.jet("y", "t") ** 2 - ctx.fiber("y") ** 2) / 2


CONTEXT = "context\n  base t\n  field y\n"


@pytest.mark.parametrize("body, line, col", [
    # a lagrangian spread over lines 5-6: the '*' opens line 6
    ("lagrangian l\n  y_t^2 +\n  * y\n", 6, 3),
    # the right-hand side of a field line starts past the '='
    ("section s\n  y = t +* 2\n", 5, 10),
    # a domain bound starts at its own column
    ("lagrangian l\n  y\nsection s\n  y = t\nnumeric\n  domain t 0 2*)\n",
     9, 16),
])
def test_problem_file_errors_point_at_the_token(body, line, col):
    """A parse error in a lagrangian, a field line or a domain bound is
    reported at the line and column of the offending token."""
    with pytest.raises(ParseError) as err:
        parse_problem_file(CONTEXT + body)
    assert err.value.message.startswith("expected an expression")
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("body, message, line, col", [
    # an opaque declaration is lexed where it is written
    ("  opaque g(t, @)\n", "unexpected character '@'", 4, 15),
    ("  opaque (t)\n", "must be name(arg, ...)", 4, 10),
    ("  opaque g t\n", "must be name(arg, ...)", 4, 12),
    ("  opaque g()\n", "must be name(arg, ...)", 4, 12),
    ("  opaque g(t) x\n", "must be name(arg, ...)", 4, 15),
    # one ',' between arguments and none before the ')'
    ("  opaque g(t y)\n", "must be name(arg, ...)", 4, 14),
    ("  opaque g(t,)\n", "must be name(arg, ...)", 4, 14),
    ("  opaque g(t,,y)\n", "must be name(arg, ...)", 4, 14),
    ("  opaque g(,t)\n", "must be name(arg, ...)", 4, 12),
    ("  odd stuff\n", "unknown context entry", 4, 3),
    # a declared name is one identifier that opens no block
    ("  field z,\n", "not 'z,'", 4, 9),
    ("  field section\n", "not 'section'", 4, 9),
    ("  opaque numeric(y)\n", "not 'numeric'", 4, 10),
    # field lines: the field name
    ("section s\n  w = t\n", "unknown field 'w'", 5, 3),
    ("section s\n  y = t\n    y = 1\n", "duplicate component", 6, 5),
    # numeric lines: the word refused
    ("numeric\n  frob 1\n", "unknown numeric entry", 5, 3),
    ("numeric\n  domain t 0\n", "domain lines read", 5, 3),
    ("numeric\n  domain x 0 1\n", "unknown base variable 'x'", 5, 10),
    ("numeric\n  domain t 0 t\n", "domain bound 't' is not a finite", 5, 14),
    ("numeric\n  domain t 1 0\n", "lo < hi", 5, 12),
    ("numeric\n  nodes\n", "nodes lines read", 5, 3),
    ("numeric\n  nodes x\n", "nodes: expected an integer", 5, 9),
])
def test_problem_file_refusals_name_their_column(body, message, line, col):
    """A refusal of a context, field or numeric line is reported at the
    column of what it refuses."""
    with pytest.raises(ParseError) as err:
        parse_problem_file(CONTEXT + body)
    assert message in err.value.message
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("decl", ["g(t, y)", "g(t,y)", "g( t ,y )", "g(y)"])
def test_opaque_declaration_accepts_comma_separated_arguments(decl):
    pf = parse_problem_file(CONTEXT + f"  opaque {decl}\n")
    args = ("t", "y") if "t" in decl else ("y",)
    assert pf.ctx.opaque_table == {"g": args}


@pytest.mark.parametrize("bounds, message, col", [
    ("0 log(0)", "domain bound 'log(0)' is not a finite", 14),
    ("pi 1", "lo < hi", 12),
])
def test_evaluated_domain_bounds_are_refused_at_their_column(bounds, message,
                                                             col):
    """A bound refused only when evaluated keeps its column."""
    pf = parse_problem_file(CONTEXT + f"numeric\n  domain t {bounds}\n")
    with pytest.raises(ParseError) as err:
        pf.numeric.bounds()
    assert message in err.value.message
    assert (err.value.line, err.value.col) == (5, col)
