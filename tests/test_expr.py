import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import JetContext, JetExpr, jet_order, partial, substitute, \
    to_plain
from jetvar.expr import (ELEMENTARY_FUNCTIONS, Atom, BaseCoord, ConstSym,
                         DivisionByZeroExpr, ElemFn, ExprError, InvSum,
                         JetCoord, ONE, OpaqueFn, UnknownCoordinate, ZERO,
                         _mono_key, add_many, add_scaled, all_atoms,
                         atom_expr, atom_pow, cos, elem, evaluate_exact,
                         MAX_HEIGHT, MAX_POWER_BITS, MAX_POWER_PAIRS,
                         jet_coords, mul, pow_int, sin)
from jetvar.multiindex import MultiIndex
from jetvar.randgen import random_polynomial
from jetvar.variational import (Lagrangian, adjoint, euler_lagrange,
                                linearize)

seeds = st.integers(0, 10**9)


@pytest.fixture
def xy_ctx():
    return JetContext.make("x", "y")


def test_cancellation(xy_ctx):
    y = xy_ctx.fiber("y")
    yt = xy_ctx.jet("y", "x")
    assert (y * yt + yt * y - 2 * y * yt).is_zero


def test_collect_and_order(xy_ctx):
    x = xy_ctx.base("x")
    y = xy_ctx.fiber("y")
    assert to_plain((y + y) * x) == "2*x*y"


def test_no_trig_rewriting(xy_ctx):
    y = xy_ctx.fiber("y")
    e = sin(y) ** 2 + cos(y) ** 2
    assert len(e.terms) == 2
    assert to_plain(e) == "cos(y)^2 + sin(y)^2"


def test_partial_examples(ode_ctx):
    yt = ode_ctx.jet("y", "t")
    assert partial(yt ** 2, ode_ctx.jet_atom("y", "t")) == 2 * yt
    assert partial(yt ** 2, ode_ctx.jet_atom("y")).is_zero


def test_partial_opaque_chain_rule():
    ctx = JetContext.make("t", "q", opaque={"g": ["q"]})
    qt = ctx.jet("q", "t")
    e = ctx.opaque("g") * qt
    dq = partial(e, ctx.jet_atom("q"))
    assert dq == ctx.opaque("g", (1,)) * qt
    assert partial(e, ctx.jet_atom("q", "t")) == ctx.opaque("g")


def test_substitute_examples(ode_ctx):
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    yt = ode_ctx.jet("y", "t")
    out = substitute(yt + y, {ode_ctx.jet_atom("y"): sin(t),
                              ode_ctx.jet_atom("y", "t"): cos(t)})
    assert out == cos(t) + sin(t)
    e = y ** 2 + yt
    assert substitute(e, {}) == e
    assert substitute(y ** 2, {ode_ctx.jet_atom("y"): y + 1}) == \
        y ** 2 + 2 * y + 1


def test_substitute_into_an_opaque_function_and_a_vanishing_term(
        metric_ctx):
    """A binding inside an opaque function's arguments rebuilds the
    function, whose partial then takes the chain rule through the new
    argument; a term that a binding sends to zero drops out."""
    q1, q2, t = metric_ctx.fiber("q1"), metric_ctx.fiber("q2"), \
        metric_ctx.base("t")
    at_q1 = metric_ctx.jet_atom("q1")
    moved = substitute(metric_ctx.opaque("g11"), {at_q1: 2 * q1})
    assert moved == metric_ctx.opaque("g11", args=(2 * q1, q2))
    assert partial(moved, at_q1) == \
        2 * metric_ctx.opaque("g11", (1, 0), (2 * q1, q2))
    assert substitute(q1 * t + q2, {at_q1: ZERO}) == q2


def test_jet_order(ode_ctx, metric_ctx):
    y = ode_ctx.fiber("y")
    ytt = ode_ctx.jet("y", "tt")
    t = ode_ctx.base("t")
    assert jet_order(ytt + y) == 2
    assert jet_order(t ** 2) == 0
    q1t = metric_ctx.jet("q1", "t")
    q2t = metric_ctx.jet("q2", "t")
    geo = (metric_ctx.opaque("g11") * q1t ** 2
           + 2 * metric_ctx.opaque("g12") * q1t * q2t
           + metric_ctx.opaque("g22") * q2t ** 2) / 2
    assert jet_order(geo) == 1


def test_jet_order_inside_functions(ode_ctx):
    ytt = ode_ctx.jet("y", "tt")
    assert jet_order(sin(ytt)) == 2
    assert jet_order(ONE / (1 + ytt)) == 2


def test_pow_edges(ode_ctx):
    y = ode_ctx.fiber("y")
    assert pow_int(y + 1, 0) == ONE
    assert pow_int(ZERO, 3).is_zero
    with pytest.raises(DivisionByZeroExpr):
        pow_int(ZERO, -1)
    assert pow_int(y, -2) == ONE / y ** 2


def test_pow_bounds_the_coefficient_not_the_exponent(ode_ctx):
    """|k| times the base's largest bit length may reach MAX_POWER_BITS,
    not pass it; coefficients 1 and -1 have no bound."""
    y = ode_ctx.fiber("y")
    half = MAX_POWER_BITS // 2
    assert pow_int(JetExpr.constant(2) * y, half) == \
        JetExpr.constant(2 ** half) * y ** half
    for base, k in ((JetExpr.constant(2) * y, half + 1),
                    (JetExpr.constant(Fraction(-1, 3)) + y, half + 1),
                    (JetExpr.constant(Fraction(1, 10)), -10 ** 20),
                    (y / 10 ** 9, 10 ** 20)):
        with pytest.raises(ExprError, match=f"power {k} of a"):
            pow_int(base, k)
    ((((atom, _e),), _c),) = y.terms
    assert pow_int(y, 10 ** 8) == atom_pow(atom, 10 ** 8)
    assert pow_int(-y, 10 ** 20 + 1) == -pow_int(y, 10 ** 20 + 1)


def test_mul_refuses_too_many_term_pairs_before_multiplying(ode_ctx,
                                                           monkeypatch):
    """Two sums of 2049 terms each would multiply 2049^2 > 2^22 pairs of
    terms: mul refuses them before it forms one product of monomials."""
    y = ode_ctx.jet_atom("y")
    sum_2049 = add_many(atom_pow(y, k) for k in range(1, 2050))
    assert len(sum_2049.terms) == 2049 and 2049 ** 2 > MAX_POWER_PAIRS

    def multiplied(m1, m2):
        raise AssertionError("mul multiplied before refusing")

    monkeypatch.setattr("jetvar.expr._mono_mul", multiplied)
    with pytest.raises(ExprError, match="a product of sums of 2049 and 2049 "
                       "terms would multiply more than 4194304 pairs"):
        mul(sum_2049, sum_2049)


def test_constant_takes_only_exact_numbers(ode_ctx):
    """constant accepts what arithmetic accepts, int and Fraction, and
    refuses a float rather than keep its binary expansion."""
    assert to_plain(JetExpr.constant(Fraction(1, 10))) == "1/10"
    assert JetExpr.constant(Fraction(4, 2)).terms == (((), 2),)
    for bad in (0.1, 0.5, "1/2"):
        with pytest.raises(TypeError):
            JetExpr.constant(bad)
    with pytest.raises(TypeError):
        ode_ctx.fiber("y") * 0.5


def test_every_atom_kind_renders_itself():
    """A new atom kind cannot ship without all three renderings; its
    numeric value is checked in test_numeric."""
    kinds = Atom.__subclasses__()
    assert {k.__name__ for k in kinds} >= {
        "ConstSym", "BaseCoord", "JetCoord", "ElemFn", "OpaqueFn", "InvSum"}
    for kind in kinds:
        for method in ("plain", "latex", "to_dict"):
            assert callable(getattr(kind, method, None)), \
                f"{kind.__name__} has no {method}()"


def test_division(ode_ctx):
    y = ode_ctx.fiber("y")
    t = ode_ctx.base("t")
    assert (y ** 2 - 1) / (y + 1) == y - 1
    assert (6 * t * y) / (2 * t) == 3 * y
    with pytest.raises(DivisionByZeroExpr):
        y / (y - y)
    q = y / (y + 1)
    assert to_plain(q) == "y*(1 + y)^-1"
    assert q * (y + 1) == y or not (q * (y + 1) - y).is_zero  # no forced cancel
    # dividing by an inverse restores the polynomial
    assert ONE / (ONE / (y + 1)) == y + 1


def test_division_extracts_monomial_content(ode_ctx):
    y = ode_ctx.fiber("y")
    t = ode_ctx.base("t")
    a = ONE / (2 * t * y + 2 * t)  # = (1/2) t^-1 (y+1)^-1
    b = ONE / (y + 1) / t / 2
    assert a == b


def _coefficients(e):
    """Every coefficient of e, function arguments included."""
    todo = [e]
    while todo:
        for m, c in todo.pop().terms:
            yield c
            for atom, _k in m:
                todo.extend(atom.args)


def _exact(c) -> bool:
    """An int, or a Fraction that is not an integer."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_division_by_an_integer_is_exact(ode_ctx):
    y = ode_ctx.fiber("y")
    ((_m, c),) = (y / 3).terms
    assert type(c) is Fraction and c == Fraction(1, 3)
    ((_m, c),) = (y / 3 * 3).terms
    assert type(c) is int and c == 1


def test_exact_polynomial_division_is_exact(ode_ctx):
    y = ode_ctx.fiber("y")
    q = (y ** 2 - 1) / (2 * y + 2)
    assert q == y / 2 - Fraction(1, 2)
    assert [c for _m, c in q.terms] == [Fraction(-1, 2), Fraction(1, 2)]
    assert all(_exact(c) for c in _coefficients(q))


def test_division_by_a_sum_with_content_is_exact(ode_ctx):
    y = ode_ctx.fiber("y")
    t = ode_ctx.base("t")
    q = 1 / (3 * t * y + 3 * t)  # = (1/3) t^-1 (1 + y)^-1
    ((_m, c),) = q.terms
    assert type(c) is Fraction and c == Fraction(1, 3)
    assert to_plain(q) == "1/3*t^-1*(1 + y)^-1"
    assert all(_exact(c) for c in _coefficients(q))


@settings(max_examples=30, deadline=None)
@given(seeds, st.booleans())
def test_morphism_coefficients_are_exact(seed, quotient):
    """No float, and no integral Fraction, in EL, its linearization or the
    adjoint of that, for polynomial and rational Lagrangians."""
    rng = random.Random(seed)
    ctx = rng.choice([JetContext.make("t", "y"), JetContext.make("t", "y z"),
                      JetContext.make("x1 x2", "y")])
    density = random_polynomial(rng, ctx, max_order=2, max_monomials=4)
    if quotient:
        den = random_polynomial(rng, ctx, max_order=1, max_monomials=2)
        if den.is_zero:
            den = ONE
        density = density / (3 * den ** 2 + 2)
    src = euler_lagrange(Lagrangian(ctx, density))
    lin = linearize(src)
    exprs = list(src.components)
    exprs += [v for _k, v in lin.entries()]
    exprs += [v for _k, v in adjoint(lin).entries()]
    for e in exprs:
        for c in _coefficients(e):
            assert _exact(c), (c, type(c))


@pytest.mark.parametrize("seed", range(40))
def test_exact_division_agrees_with_sympy(seed, to_sympy):
    """(p*q)/q is p, and p/q is sympy's quotient when sympy's remainder is
    0, else it holds an InvSum, for random polynomials p and sums q."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    p = random_polynomial(rng, ctx, max_order=1, max_monomials=4)
    q = ZERO
    while len(q.terms) < 2:
        q = random_polynomial(rng, ctx, max_order=1, max_monomials=3)
    assert (p * q) / q == p
    for a in (p, p * q):
        num, den = to_sympy(a, ctx, sp), to_sympy(q, ctx, sp)
        gens = sorted(num.free_symbols | den.free_symbols, key=str)
        gens += sorted(num.atoms(sp.Function, sp.Derivative)
                       | den.atoms(sp.Function, sp.Derivative), key=str)
        quo, rem = sp.div(num, den, *gens, domain="QQ")
        if rem == 0:
            assert sp.expand(to_sympy(a / q, ctx, sp) - quo) == 0
        else:
            assert any(isinstance(x, InvSum) for x in all_atoms(a / q))


def test_evaluate_exact_through_an_inverse(ode_ctx):
    y = ode_ctx.fiber("y")
    at = ode_ctx.jet_atom("y")
    got = evaluate_exact(y / (1 + y), {at: Fraction(1, 2)})
    assert type(got) is Fraction and got == Fraction(1, 3)
    assert evaluate_exact((1 + y) ** -2, {at: Fraction(1)}) == Fraction(1, 4)


def test_evaluate_exact_needs_bound_polynomial(ode_ctx):
    t = ode_ctx.base("t")
    y = ode_ctx.fiber("y")
    with pytest.raises(UnknownCoordinate):
        evaluate_exact(2 * y ** 2 + t, {ode_ctx.base_atom("t"): Fraction(0)})
    with pytest.raises(ExprError):
        evaluate_exact(sin(t), {ode_ctx.base_atom("t"): Fraction(1)})


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_partial_commutes(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    e = random_polynomial(rng, ctx, max_order=2, max_monomials=4)
    coords = [ctx.base_atom(0), ctx.base_atom(1), ctx.jet_atom("y"),
              ctx.jet_atom("z", "x1"), ctx.jet_atom("y", "x1 x2")]
    c1, c2 = rng.choice(coords), rng.choice(coords)
    assert partial(partial(e, c1), c2) == partial(partial(e, c2), c1)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_eval_agrees_with_rational_arithmetic(seed):
    """Evaluation at random rational points is a ring homomorphism."""
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y")
    a = random_polynomial(rng, ctx, max_order=1, max_monomials=3)
    b = random_polynomial(rng, ctx, max_order=1, max_monomials=3)
    atoms = set(jet_coords(a * b + a)) | set(jet_coords(a)) | \
        {ctx.base_atom(0), ctx.base_atom(1)}
    from jetvar.expr import all_atoms
    atoms |= {x for x in all_atoms(a) | all_atoms(b)}
    env = {atom: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
           for atom in atoms}
    va, vb = evaluate_exact(a, env), evaluate_exact(b, env)
    assert evaluate_exact(a * b, env) == va * vb
    assert evaluate_exact(a + b, env) == va + vb
    assert evaluate_exact(a - 7 * b, env) == va - 7 * vb


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_substitute_identity_bindings(seed):
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    e = random_polynomial(rng, ctx, max_order=2, max_monomials=4)
    bindings = {jc: ctx.jet(jc.index, jc.sigma) for jc in jet_coords(e)}
    assert substitute(e, bindings) == e


# ---------------------------------------------------------------------------
# the stored form: integer numerators over one denominator
# ---------------------------------------------------------------------------


def _rational_polynomial(rng, ctx):
    """A random polynomial whose coefficients have denominators 1-12."""
    shape = random_polynomial(rng, ctx, max_order=2, max_monomials=5)
    return add_many(
        _term(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                       rng.randint(1, 12)), m)
        for m, _c in shape.terms)


def _term(c, m):
    piece = JetExpr.constant(c)
    for atom, k in m:
        piece = piece * atom_pow(atom, k)
    return piece


def _rational_key(e):
    """e's sort key rebuilt with every coefficient a Fraction: the key
    compares and hashes rational values."""
    return tuple((_mono_key(m), Fraction(c)) for m, c in e.terms)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_random_build_order_independence(seed):
    """The canonical form does not depend on how a polynomial is
    assembled: equal values give equal expressions with equal hashes,
    built in shuffled order or scaled by 1/k and back by k."""
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    e = _rational_polynomial(rng, ctx)
    terms = list(e.terms)
    rng.shuffle(terms)
    rebuilt = ZERO
    for m, c in terms:
        rebuilt = _term(c, m) + rebuilt
    assert rebuilt == e and hash(rebuilt) == hash(e)
    k = rng.randint(1, 12)
    scaled = e * Fraction(1, k) * k
    assert scaled == e and hash(scaled) == hash(e)
    halves = e / 2 + e / 2
    assert halves == e and hash(halves) == hash(e)
    assert e - e == ZERO and (e - e).is_zero


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_a_lone_summand_is_kept(seed):
    """A sum of one canonical expression is that expression, not a copy;
    a scaled one is rebuilt."""
    rng = random.Random(seed)
    e = _rational_polynomial(rng, JetContext.make("x1 x2", "y z"))
    assert add_many([e]) is e
    assert add_scaled([(2, e)]) == 2 * e
    assert add_many([e, -e]).is_zero


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_terms_view_has_exact_nonzero_coefficients(seed):
    """No coefficient of the terms view is 0 or an integral Fraction, in
    sums, products and derivatives of rational polynomials alike."""
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z")
    a, b = _rational_polynomial(rng, ctx), _rational_polynomial(rng, ctx)
    coord = rng.choice(jet_coords(a) or [ctx.jet_atom("y")])
    for e in (a, a + b, a - b, a * b, -a, partial(a, coord), a * 12, a / 7):
        for _m, c in e.terms:
            assert c != 0 and _exact(c), (c, type(c))
        assert e.sort_key() == _rational_key(e)
        assert hash(e.sort_key()) == hash(_rational_key(e))


@given(st.fractions(max_denominator=10**6) | st.integers(-10**30, 10**30))
def test_constant_hashes_like_its_value(q):
    assert hash(JetExpr.constant(q)) == hash(q)
    assert JetExpr.constant(q) == q
    y = JetContext.make("x", "y").fiber("y")
    assert hash((y + q) - y) == hash(q)


def test_sort_key_compares_rational_values(xy_ctx):
    """Atom keys order coefficients by value, not by stored numerator: y/2
    and y are stored with the numerator 1 each, over 2 and over 1."""
    y = xy_ctx.fiber("y")
    cs = [Fraction(3, 2), Fraction(-1, 3), 1, Fraction(1, 2), 2,
          Fraction(5, 12), -1]
    atoms = sorted(ElemFn("sin", c * y) for c in cs)
    assert [a.arg for a in atoms] == [c * y for c in sorted(cs)]
    y_atom = xy_ctx.jet_atom("y")
    assert ElemFn("sin", y / 2 + 1) == (
        3, 1, "sin", ((_mono_key(()), 1), (_mono_key(((y_atom, 1),)),
                                            Fraction(1, 2))))


def _old_key(a):
    """The plain-tuple sort key of an atom, rebuilt from its attributes as
    it was stored before atoms were their own keys, with the nesting
    height after the kind of a function atom."""
    if isinstance(a, ConstSym):
        return (0, a.name)
    if isinstance(a, BaseCoord):
        return (1, a.axis, a.name)
    if isinstance(a, JetCoord):
        return (2, a.sigma.order(), a.index, a.sigma.counts, a.field)
    if isinstance(a, ElemFn):
        return (3, _nesting(a), a.fn, _old_expr_key(a.arg))
    if isinstance(a, OpaqueFn):
        return (4, _nesting(a), a.name, a.orders,
                tuple(_old_expr_key(x) for x in a.args))
    return (5, _nesting(a), _old_expr_key(a.body))


def _nesting(a):
    """How deep function atoms nest in a, a itself included: 0 for a
    coordinate or a constant."""
    inner = [_nesting(b) for x in a.args for m, _c in x.terms for b, _k in m]
    return 1 + max(inner, default=0) if a.args else 0


def _old_mono_key(m):
    return (sum(e for _, e in m), tuple((_old_key(a), e) for a, e in m))


def _old_expr_key(e):
    return tuple((_old_mono_key(m), c) for m, c in e.terms)


def _nested_atoms(seed):
    """Every atom, arguments included, of an expression whose elementary,
    opaque and inverse-sum atoms nest three deep around seeded random
    polynomials; built afresh on each call."""
    rng = random.Random(seed)
    ctx = JetContext.make("x1 x2", "y z", opaque={"g": ["y", "z"]})
    polys = [random_polynomial(rng, ctx, max_monomials=3) for _ in range(3)]
    e = polys[0]
    for _level in range(3):
        p, q = rng.choice(polys), rng.choice(polys)
        e = (elem(rng.choice(ELEMENTARY_FUNCTIONS), e + p) * q
             + ctx.opaque("g", args=(e, q)) + ONE / (e * p + q + 1))
    e = e + atom_expr(ConstSym("pi")) * polys[1]
    return list(all_atoms(e)), e


@pytest.mark.parametrize("seed", range(12))
def test_atom_is_its_old_sort_key(seed):
    """An atom hashes as its old plain-tuple key did, is equal to another
    exactly when their old keys are, and atoms and monomials sort as
    their old keys do."""
    (atoms, e), (again, _e) = _nested_atoms(seed), _nested_atoms(seed)
    assert {ElemFn, OpaqueFn, InvSum, JetCoord, ConstSym} <= \
        {type(a) for a in atoms}
    assert all(a is not b for a in atoms for b in again)
    pool = atoms + again
    for a in pool:
        assert hash(a) == hash(_old_key(a))
    for a in pool:
        for b in pool:
            assert (a == b) == (_old_key(a) == _old_key(b))
            assert (a < b) == (_old_key(a) < _old_key(b))
    assert [id(a) for a in sorted(pool)] == \
        [id(a) for a in sorted(pool, key=_old_key)]
    monos = [m for x in pool for arg in x.args for m, _c in arg.terms]
    monos += [m for m, _c in e.terms]
    assert [id(m) for m in sorted(monos, key=_mono_key)] == \
        [id(m) for m in sorted(monos, key=_old_mono_key)]
    assert e.sort_key() == _old_expr_key(e)
    assert hash(e.sort_key()) == hash(_old_expr_key(e))


def test_deeply_nested_atom_hashes_compares_and_prints():
    """sin nested MAX_HEIGHT deep around y_t, built twice: the two atoms
    hash, compare and print; one level deeper is refused as it is built."""
    ctx = JetContext.make("t", "y")

    def nested(depth):
        e = ctx.jet("y", "t")
        for _ in range(depth):
            e = sin(e)
        return e

    a, b = nested(MAX_HEIGHT), nested(MAX_HEIGHT)
    shallower = nested(MAX_HEIGHT - 1)
    ((x, _k),), _c = a.terms[0]
    ((y, _k),), _c = b.terms[0]
    ((z, _k),), _c = shallower.terms[0]
    assert x is not y and hash(x) == hash(y) and x == y
    assert not x < y and z < x and x != z
    assert a == b and hash(a) == hash(b) and a - b == ZERO
    assert to_plain(a) == "sin(" * MAX_HEIGHT + "y_t" + ")" * MAX_HEIGHT
    with pytest.raises(ExprError, match=f"nested {MAX_HEIGHT + 1} deep pass "
                                        f"the bound of {MAX_HEIGHT}"):
        sin(a)


@st.composite
def jet_coords_and_axes(draw):
    """A jet coordinate over n <= 3 base variables (names of one or two
    letters, so both suffix forms print), and an axis to lift it along."""
    n = draw(st.integers(1, 3))
    base_names = tuple(draw(st.lists(st.sampled_from(["t", "x", "y", "x1",
                                                      "x2", "s"]),
                                     min_size=n, max_size=n, unique=True)))
    field, index = draw(st.sampled_from([("u", 0), ("v", 1), ("w2", 3)]))
    counts = draw(st.tuples(*[st.integers(0, 3)] * n))
    axis = draw(st.integers(0, n - 1))
    return JetCoord(field, index, MultiIndex(counts), base_names), axis


@given(jet_coords_and_axes())
def test_lifted_is_the_coordinate_one_derivative_higher(case):
    """lifted(axis), built straight from the key, equals, hashes and
    prints as the coordinate built through the constructor, and keeps
    the base names."""
    jc, axis = case
    got = jc.lifted(axis)
    want = JetCoord(jc.field, jc.index, jc.sigma.bump(axis), jc.base_names)
    assert type(got) is JetCoord and type(got.sigma) is MultiIndex
    assert got == want and hash(got) == hash(want)
    assert got.order == jc.order + 1 == want.sigma.order()
    assert got.base_names is jc.base_names
    assert got.plain() == want.plain() and got.latex() == want.latex()
    assert got.to_dict() == want.to_dict()
