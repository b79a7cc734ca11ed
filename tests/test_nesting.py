"""expr.MAX_HEIGHT is the one bound on how deep expressions nest: no
function atom is built past it, the parser refuses a '(' or a '-' past it,
and every recursive walk of an expression fits at that height well down a
caller's stack."""

import numpy as np
import pytest

from jetvar import JetContext, Lagrangian, euler_lagrange, substitute, to_plain
from jetvar.expr import MAX_HEIGHT, ONE, ExprError, div, sin, to_latex
from jetvar.jetcalc import total_derivative
from jetvar.numeric import NumericError, NumericSection
from jetvar.textio import (ParseError, dump_structured, object_to_dict,
                           parse_expr, parse_structured)

CTX = JetContext.make("t", "y", {"f": ("y",)})
T, Y_T = CTX.base("t"), CTX.jet("y", "t")
((Y_T_ATOM, _k),), _c = Y_T.terms[0]

# one more level of each kind of function atom around e
WRAP = {"sin": sin,
        "opaque": lambda e: CTX.opaque("f", None, (e,)),
        "inv": lambda e: div(ONE, 1 + e)}

# the Python frames between the test and each walk; pytest itself runs a
# test about 30 frames down
FRAMES = 80


def _nest(kind: str, depth: int, core=Y_T):
    e = core
    for _ in range(depth):
        e = WRAP[kind](e)
    return e


def _below(frames: int, f, *args):
    """f(*args), called frames Python frames below the caller."""
    return _below(frames - 1, f, *args) if frames else f(*args)


@pytest.mark.parametrize("kind", WRAP)
def test_an_atom_past_max_height_is_refused_where_it_is_built(kind):
    deepest = _nest(kind, MAX_HEIGHT)
    with pytest.raises(ExprError, match=f"nested {MAX_HEIGHT + 1} deep pass "
                                        f"the bound of {MAX_HEIGHT}"):
        WRAP[kind](deepest)


@pytest.mark.parametrize("kind", WRAP)
def test_every_recursive_walk_fits_at_max_height(kind):
    """Each walk of a MAX_HEIGHT nest runs FRAMES frames down: comparison
    and hashing of two copies built apart, both printers, the structured
    writer and reader, the parser, total derivative, substitution, the
    Euler-Lagrange operator and numeric binding (which refuses an opaque
    function by name)."""
    a, b = _nest(kind, MAX_HEIGHT), _nest(kind, MAX_HEIGHT)
    assert a is not b
    assert _below(FRAMES, lambda: a == b and hash(a) == hash(b))
    plain = _below(FRAMES, to_plain, a)
    assert _below(FRAMES, parse_expr, plain, CTX) == a
    assert _below(FRAMES, to_latex, a).count("\\left(") == MAX_HEIGHT
    text = _below(FRAMES, dump_structured, _below(FRAMES, object_to_dict, a))
    assert _below(FRAMES, parse_structured, text, CTX) == a
    assert not _below(FRAMES, total_derivative, a, 0, CTX).is_zero
    assert (_below(FRAMES, substitute, a, {Y_T_ATOM: T})
            == _nest(kind, MAX_HEIGHT, T))
    el = _below(FRAMES, euler_lagrange, Lagrangian(CTX, a))
    assert not el.components[0].is_zero
    section = NumericSection(CTX, (T * T / 2,), [(0.0, 1.0)], nodes=4)
    if kind == "opaque":
        with pytest.raises(NumericError, match="opaque function f"):
            _below(FRAMES, section.bind, a)
    else:
        assert np.isfinite(_below(FRAMES, section.bind, a)).all()


@pytest.mark.parametrize("frames", (20, FRAMES))
@pytest.mark.parametrize("opening, closing", [
    ("sin(", ")"), ("f(", ")"), ("(", ")"), ("-sin(", ")"), ("-", "")])
def test_parser_accepts_exactly_max_height(frames, opening, closing):
    """MAX_HEIGHT openings parse; one more is refused at that opening's
    token.  A run of '-' counts as a nesting of as many '(', and a '-' in
    front of each '(' leaves the count of '(' alone."""
    deepest = opening * MAX_HEIGHT + "y_t" + closing * MAX_HEIGHT
    _below(frames, parse_expr, deepest, CTX)
    with pytest.raises(ParseError) as refused:
        _below(frames, parse_expr, opening + deepest + closing, CTX)
    assert refused.value.message == "expression nested too deeply"
    assert (refused.value.line, refused.value.col) == (
        1, len(opening) * (MAX_HEIGHT + 1))

