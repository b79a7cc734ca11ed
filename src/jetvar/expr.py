"""Canonical symbolic expressions over jet-space coordinates.

Every ``JetExpr`` is kept in normal form at all times: a sum of monomials
with exact rational coefficients, where a monomial is a product of
integer powers of atomic factors.  Atomic factors are base coordinates
``x^lam``, jet coordinates ``y^i_sigma``, known constants (``pi``),
elementary function applications, opaque smooth function symbols and
their formal partial derivatives, and inverses of multi-term sums.

An expression stores its coefficients as ``int`` numerators over one
positive common denominator, the least common multiple of their reduced
denominators, so the ring operations and derivatives do integer
arithmetic only and end in one gcd.  The public view ``terms`` gives each
coefficient as an ``int`` while its denominator is 1 and a ``Fraction``
otherwise.  No coefficient is ever a float.

Canonicalization is ring-level only: no trigonometric or radical
identities are applied, function applications are atomic generators.
Because constructors normalize, two expressions are mathematically equal
as (Laurent) polynomials in the generators exactly when they compare
equal.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from operator import itemgetter

from .multiindex import MultiIndex

ELEMENTARY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
KNOWN_CONSTANTS = {"pi": math.pi}

Number = int | Fraction


class ExprError(ValueError):
    """Malformed symbolic operation."""


class DivisionByZeroExpr(ExprError):
    """Division by an identically zero expression."""


class UnknownCoordinate(ExprError):
    """A coordinate is missing from an evaluation environment."""


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


class Atom(tuple):
    """Atomic multiplicative generator.  Immutable.

    An atom is the tuple of its own sort key: its kind's number (0 to 5)
    followed by what tells two atoms of that kind apart, a function
    atom's arguments by their expression keys.  So it hashes, compares
    and orders as that key does, in C; a function atom keeps its hash,
    which would otherwise walk its nested arguments on every lookup.
    A function atom's key puts its nesting height second, after the
    kind: 1 + the largest height among the function atoms in its
    arguments.  Two function atoms of one kind and different heights
    then compare in one step instead of walking the shallower nesting.
    A jet coordinate's key holds its ``MultiIndex``, a tuple that compares
    as its counts.  What the key leaves out (a jet coordinate's base
    names, a function atom's argument expressions) is kept on the
    instance.

    ``args`` holds the JetExpr arguments of a function atom; coordinates
    and constants have none.  Function atoms also define ``d_arg(slot)``,
    the derivative with respect to one argument, and ``rebuild(args)``,
    the same function applied to new arguments.

    Every kind writes itself out: ``plain()`` and ``latex()`` give its text
    in the two printed formats, ``to_dict()`` its structured (JSON) form;
    ``numeric.compile_expr`` evaluates expressions term by term instead.
    """

    args: tuple["JetExpr", ...] = ()

    def __repr__(self):
        return to_plain(atom_expr(self))


class ConstSym(Atom):
    """Named exact constant with a known numeric value (only ``pi``)."""

    name = property(itemgetter(1))

    def __new__(cls, name: str):
        if name not in KNOWN_CONSTANTS:
            raise ExprError(f"unknown constant symbol {name!r}")
        return tuple.__new__(cls, (0, name))

    def plain(self) -> str:
        return self.name

    def latex(self) -> str:
        return "\\" + self.name

    def to_dict(self) -> dict:
        return {"kind": "const", "name": self.name}


class BaseCoord(Atom):
    """Base coordinate x^lam."""

    axis = property(itemgetter(1))
    name = property(itemgetter(2))

    def __new__(cls, name: str, axis: int):
        return tuple.__new__(cls, (1, axis, name))

    def plain(self) -> str:
        return self.name

    latex = plain

    def to_dict(self) -> dict:
        return {"kind": "base", "name": self.name}


class JetCoord(Atom):
    """Jet coordinate y^i_sigma; sigma = (0,...,0) is the fiber coordinate."""

    order = property(itemgetter(1))
    index = property(itemgetter(2))
    sigma = property(itemgetter(3))
    field = property(itemgetter(4))

    def __new__(cls, field: str, index: int, sigma: MultiIndex,
                base_names: tuple[str, ...]):
        if sigma.dimension != len(base_names):
            raise ExprError("multi-index dimension does not match base names")
        return tuple.__new__(cls, (2, sigma.order(), index, sigma, field))

    def __init__(self, field: str, index: int, sigma: MultiIndex,
                 base_names: tuple[str, ...]):
        self.base_names = base_names

    def lifted(self, axis: int) -> "JetCoord":
        """The coordinate y^i_{sigma+lam} one derivative higher along axis,
        built from this key: the dimension was checked when it was made."""
        _kind, order, index, sigma, field = self
        out = tuple.__new__(JetCoord,
                            (2, order + 1, index, sigma.bump(axis), field))
        out.base_names = self.base_names
        return out

    def plain(self) -> str:
        return self.field + _suffix(self.base_names, self.sigma)

    def latex(self) -> str:
        return self.field + _suffix(self.base_names, self.sigma, True)

    def to_dict(self) -> dict:
        return {"kind": "jet", "field": self.field,
                "counts": list(self.sigma)}


class ElemFn(Atom):
    """Elementary function application; the argument is a JetExpr."""

    fn = property(itemgetter(2))

    def __new__(cls, fn: str, arg: "JetExpr"):
        if fn not in ELEMENTARY_FUNCTIONS:
            raise ExprError(f"unknown elementary function {fn!r}")
        return tuple.__new__(cls, (3, _height((arg,)), fn, arg.sort_key()))

    def __init__(self, fn: str, arg: "JetExpr"):
        self.arg = arg
        self.args = (arg,)
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash

    def d_arg(self, slot: int) -> "JetExpr":
        return _ELEM_DERIVATIVE[self.fn](self.arg)

    def rebuild(self, args: tuple["JetExpr", ...]) -> "JetExpr":
        return elem(self.fn, args[0])

    def plain(self) -> str:
        return f"{self.fn}({to_plain(self.arg)})"

    def latex(self) -> str:
        if self.fn == "sqrt":
            return rf"\sqrt{{{to_latex(self.arg)}}}"
        return rf"\{self.fn}\left({to_latex(self.arg)}\right)"

    def to_dict(self) -> dict:
        return {"kind": "elem", "fn": self.fn, "arg": expr_to_dict(self.arg)}


class OpaqueFn(Atom):
    """Opaque smooth function symbol, possibly formally differentiated.

    ``orders[k]`` counts formal partial derivatives with respect to the
    k-th declared argument; all-zero orders is the plain application.
    """

    name = property(itemgetter(2))
    orders = property(itemgetter(3))

    def __new__(cls, name: str, argnames: tuple[str, ...],
                orders: tuple[int, ...], args: tuple["JetExpr", ...]):
        if not (len(argnames) == len(orders) == len(args)):
            raise ExprError(f"opaque function {name!r}: argument arity mismatch")
        if any(o < 0 for o in orders):
            raise ExprError("negative derivative order on opaque function")
        return tuple.__new__(cls, (4, _height(args), name, orders,
                                   tuple(a.sort_key() for a in args)))

    def __init__(self, name: str, argnames: tuple[str, ...],
                 orders: tuple[int, ...], args: tuple["JetExpr", ...]):
        self.argnames = argnames
        self.args = args
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash

    def d_arg(self, slot: int) -> "JetExpr":
        orders = list(self.orders)
        orders[slot] += 1
        return atom_expr(OpaqueFn(self.name, self.argnames, tuple(orders),
                                  self.args))

    def rebuild(self, args: tuple["JetExpr", ...]) -> "JetExpr":
        return atom_expr(OpaqueFn(self.name, self.argnames, self.orders, args))

    def plain(self) -> str:
        args = ", ".join(to_plain(a) for a in self.args)
        return f"{self.name}{_suffix(self.argnames, self.orders)}({args})"

    def latex(self) -> str:
        head = self.name
        if any(self.orders):
            head = rf"\partial{_suffix(self.argnames, self.orders, True)} {head}"
        args = ", ".join(to_latex(a) for a in self.args)
        return rf"{head}\left({args}\right)"

    def to_dict(self) -> dict:
        return {"kind": "opaque", "name": self.name,
                "orders": list(self.orders),
                "args": [expr_to_dict(a) for a in self.args]}


class InvSum(Atom):
    """Inverse of a canonical multi-term sum (leading coefficient 1).

    Constructed only through division; an exponent k on this atom means
    body**(-k).
    """

    def __new__(cls, body: "JetExpr"):
        return tuple.__new__(cls, (5, _height((body,)), body.sort_key()))

    def __init__(self, body: "JetExpr"):
        self.body = body
        self.args = (body,)
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash

    def d_arg(self, slot: int) -> "JetExpr":
        return -atom_pow(self, 2)

    def rebuild(self, args: tuple["JetExpr", ...]) -> "JetExpr":
        return div(ONE, args[0])

    def plain(self) -> str:
        return "(" + to_plain(self.body) + ")"

    def latex(self) -> str:
        return rf"\left({to_latex(self.body)}\right)"

    def to_dict(self) -> dict:
        return {"kind": "inv", "body": expr_to_dict(self.body)}


def _height(args: tuple["JetExpr", ...]) -> int:
    """The nesting height of a function atom with these arguments: 1 + the
    largest height among the function atoms in their terms (1 if none)."""
    return 1 + max((a[1] for arg in args for m, _n in arg._terms
                    for a, _k in m if a.args), default=0)


# ---------------------------------------------------------------------------
# monomials and the canonical sum
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[Atom, int], ...]


_exponent = itemgetter(1)


def _mono_key(m: Monomial):
    return (sum(map(_exponent, m)), m)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    # both are sorted by atom: merge them in one scan, adding the
    # exponents of a shared atom and dropping it where they cancel
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 == a2:
            if e1 + e2:
                out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1 < a2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _coercing(method):
    """The JetExpr method method(self, other) for an other that is a
    JetExpr, or an int or Fraction taken as a constant; NotImplemented
    for any other type."""
    def coerced(self, other):
        if not isinstance(other, JetExpr):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = JetExpr.constant(other)
        return method(self, other)
    return coerced


class JetExpr:
    """Immutable canonical expression; see the module docstring.

    ``_terms`` holds (monomial, numerator) pairs and ``_den`` the common
    denominator: the nonzero integer numerators have no factor in common
    with ``_den``, which is 1 exactly when every coefficient is an integer.
    """

    __slots__ = ("_terms", "_den", "_hash", "_key")

    def __init__(self, terms: tuple[tuple[Monomial, int], ...], den: int = 1):
        # terms must already be canonical (sorted, nonzero numerators that
        # share no factor with den)
        self._terms = terms
        self._den = den
        self._hash = None
        self._key = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def _from_dict(d: dict[Monomial, Number]) -> "JetExpr":
        """Canonical sum of the entries, rational coefficients keyed by
        monomial."""
        den = math.lcm(*(c.denominator for c in d.values()))
        return _normalized({m: c.numerator * (den // c.denominator)
                            for m, c in d.items()}, den)

    @staticmethod
    def constant(value: Number) -> "JetExpr":
        """The constant value, an ``int`` or a ``Fraction``; anything else,
        a float say, raises TypeError, as it does in arithmetic."""
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"a constant must be an int or a Fraction, "
                            f"not {type(value).__name__}")
        if value == 0:
            return ZERO
        return JetExpr((((), int(value.numerator)),), int(value.denominator))

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Number], ...]:
        """(monomial, coefficient) pairs in canonical order; a coefficient
        is an ``int`` when its denominator is 1, else a ``Fraction``.
        Built on each call from the stored numerators."""
        if self._den == 1:
            return self._terms
        return tuple((m, _rational(p, q)) for m, p, q in self._ratios())

    def _ratios(self):
        """(monomial, p, q) per term in canonical order, with p/q the
        coefficient in lowest terms, q > 0."""
        den = self._den
        for m, n in self._terms:
            g = math.gcd(n, den)
            yield m, n // g, den // g

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> Number | None:
        """The value if the expression is a bare rational, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and not self._terms[0][0]:
            return _rational(self._terms[0][1], self._den)
        return None

    def sort_key(self):
        if self._key is None:
            self._key = tuple((_mono_key(m), c) for m, c in self.terms)
        return self._key

    @_coercing
    def __eq__(self, other):
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            c = self.constant_value()
            # constants hash like their rational value, matching __eq__
            self._hash = (hash(c) if c is not None
                          else hash((self._terms, self._den)))
        return self._hash

    def __repr__(self):
        return f"JetExpr({to_plain(self)})"

    # -- arithmetic ---------------------------------------------------------

    @_coercing
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return JetExpr(tuple((m, -n) for m, n in self._terms), self._den)

    @_coercing
    def __sub__(self, other):
        return add(self, -other)

    @_coercing
    def __rsub__(self, other):
        return add(other, -self)

    @_coercing
    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    @_coercing
    def __truediv__(self, other):
        return div(self, other)

    @_coercing
    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return pow_int(self, k)


ZERO = JetExpr(())
ONE = JetExpr((((), 1),))


def _rational(p: int, q: int) -> Number:
    """p/q, in lowest terms with q > 0, as an ``int`` when q is 1, else as
    a ``Fraction``."""
    return p if q == 1 else Fraction(p, q)


def _normalized(acc: dict[Monomial, int], den: int) -> JetExpr:
    """The canonical sum of numerators acc over den > 0: zero entries
    dropped, the gcd of den and the numerators divided out, the terms
    sorted."""
    g = math.gcd(den, *acc.values()) if den != 1 else 1
    # (degree, m, n) orders as _mono_key(m) does, and distinct monomials
    # never tie on it, so n is never compared
    items = sorted([(sum(map(_exponent, m)), m, n // g)
                    for m, n in acc.items() if n])
    return JetExpr(tuple([(m, n) for _d, m, n in items]), den // g)


def atom_expr(a: Atom) -> JetExpr:
    return JetExpr(((((a, 1),), 1),))


def atom_pow(a: Atom, k: int) -> JetExpr:
    if isinstance(a, InvSum) and k < 0:
        return pow_int(a.body, -k)
    return JetExpr(((((a, k),), 1),))


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def add(a: JetExpr, b: JetExpr) -> JetExpr:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return add_scaled(((1, a), (1, b)))


def add_many(exprs: Iterable[JetExpr]) -> JetExpr:
    return add_scaled((1, e) for e in exprs)


def add_scaled(pairs: Iterable[tuple[int, JetExpr]]) -> JetExpr:
    """sum of c * e over the (c, e) pairs, each c an int: every numerator
    is brought to the lcm of the denominators and summed as an integer;
    a lone (1, e) is e itself, already canonical."""
    pairs = list(pairs)
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    den = math.lcm(*(e._den for _c, e in pairs))
    acc: dict[Monomial, int] = {}
    for c, e in pairs:
        f = c * (den // e._den)
        for m, n in e._terms:
            acc[m] = acc.get(m, 0) + f * n
    return _normalized(acc, den)


# the bit length past which pow_int refuses to raise a coefficient (about
# 1.26 million decimal digits)
MAX_POWER_BITS = 1 << 22
# the term pairs past which mul refuses a product;
# (y + y_t + y_tt)^100 forms at most 1.5 million, in 3-4 s on a 2-core Xeon
MAX_POWER_PAIRS = 1 << 22


def mul(a: JetExpr, b: JetExpr) -> JetExpr:
    """a * b, or ExprError, before multiplying, when the term counts of a
    and b multiply past MAX_POWER_PAIRS."""
    if a.is_zero or b.is_zero:
        return ZERO
    if len(a._terms) * len(b._terms) > MAX_POWER_PAIRS:
        raise ExprError(f"a product of sums of {len(a._terms)} and "
                        f"{len(b._terms)} terms would multiply more than "
                        f"{MAX_POWER_PAIRS} pairs of terms")
    d: dict[Monomial, int] = {}
    for m1, n1 in a._terms:
        for m2, n2 in b._terms:
            m = _mono_mul(m1, m2)
            d[m] = d.get(m, 0) + n1 * n2
    return _normalized(d, a._den * b._den)


def pow_int(e: JetExpr, k: int) -> JetExpr:
    """Integer power; negative exponents go through division.  Raises
    ExprError when |k| times the bit length of e's largest numerator or
    denominator passes MAX_POWER_BITS; a power of an expression whose
    coefficients are all 1 or -1 is never refused for that.  A product of
    the repeated squaring that mul refuses is refused as this power."""
    if k == 0:
        return ONE
    if e.is_zero:
        if k > 0:
            return ZERO
        raise DivisionByZeroExpr("zero expression raised to a negative power")
    bits = max(e._den.bit_length(),
               *(abs(n).bit_length() for _m, n in e._terms))
    if bits > 1 and abs(k) * bits > MAX_POWER_BITS:
        raise ExprError(f"power {k} of a {bits}-bit coefficient would pass "
                        f"{MAX_POWER_BITS} bits")
    if k < 0:
        return pow_int(div(ONE, e), -k)

    # repeated squaring, from the lowest set bit of k
    base, n = e, k
    try:
        while not n & 1:
            base, n = mul(base, base), n >> 1
        out = base
        while n := n >> 1:
            base = mul(base, base)
            if n & 1:
                out = mul(out, base)
    except ExprError:
        raise ExprError(f"power {k} of a sum of {len(e._terms)} terms would "
                        f"multiply more than {MAX_POWER_PAIRS} pairs of "
                        f"terms") from None
    return out


def div(a: JetExpr, b: JetExpr) -> JetExpr:
    """a / b: the exact quotient where b is a sum that divides a, else a
    over b's content and common monomial, times the inverse of the monic
    remainder where b is a sum (see _factor_sum)."""
    if b.is_zero:
        raise DivisionByZeroExpr("division by an identically zero expression")
    if a.is_zero:
        return ZERO
    many = len(b._terms) > 1
    if many:
        q = _exact_div(a, b)
        if q is not None:
            return q
    scale, mono, body = _factor_sum(b)
    out = mul(a, scale)
    for atom, e in mono:
        out = mul(out, atom_pow(atom, -e))
    return mul(out, atom_expr(InvSum(body))) if many else out


def _factor_sum(b: JetExpr) -> tuple[JetExpr, Monomial, JetExpr]:
    """Split a sum as content * common monomial * monic remainder and
    return (1/content, common monomial, remainder): the common monomial
    holds each atom that every term holds, at its least exponent, and the
    remainder has leading coefficient 1, so a single term's is ONE."""
    common = dict(b._terms[0][0])
    for m, _n in b._terms[1:]:
        if not common:
            break
        exps = dict(m)
        common = {a: min(e, exps[a]) for a, e in common.items() if a in exps}
    mono: Monomial = tuple(sorted(common.items()))
    inverse = tuple((a, -e) for a, e in mono)
    # b's numerators on the stripped monomials, in canonical order
    rest = _normalized({_mono_mul(m, inverse): n for m, n in b._terms}, 1)
    lead = rest._terms[-1][1]
    g = math.gcd(*(n for _m, n in rest._terms)) * (1 if lead > 0 else -1)
    body = JetExpr(tuple((m, n // g) for m, n in rest._terms), lead // g)
    return JetExpr.constant(Fraction(b._den, lead)), mono, body


def _exact_div(a: JetExpr, b: JetExpr) -> JetExpr | None:
    """Multivariate exact division; None when a is not a polynomial multiple.

    Only attempted in the honest polynomial case (no negative exponents,
    no InvSum factors); uses a dense graded-lex order for termination.
    """
    for e in (a, b):
        for m, _n in e._terms:
            for atom, exp in m:
                if exp < 0 or isinstance(atom, InvSum):
                    return None
    gens = sorted({atom for m, _n in a._terms + b._terms for atom, _e in m})
    pos = {g: i for i, g in enumerate(gens)}

    def dense(m: Monomial) -> tuple[int, ...]:
        v = [0] * len(gens)
        for atom, e in m:
            v[pos[atom]] = e
        return tuple(v)

    def key(v: tuple[int, ...]):
        return (sum(v), v)

    bterms = sorted(((dense(m), c) for m, c in b.terms), key=lambda t: key(t[0]))
    lead_b, lead_bc = bterms[-1]
    rem = {dense(m): c for m, c in a.terms}
    # the leading terms of rem fall strictly in graded-lex order, so each
    # quotient monomial is met once, with a nonzero coefficient
    quo: dict[Monomial, Number] = {}
    while rem:
        lead = max(rem, key=key)
        qv = tuple(x - y for x, y in zip(lead, lead_b))
        if any(x < 0 for x in qv):
            return None
        qc = Fraction(rem[lead], lead_bc)
        # gens is sorted, so the monomial is in atom order
        quo[tuple((gens[i], e) for i, e in enumerate(qv) if e != 0)] = qc
        for bv, bc in bterms:
            mv = tuple(x + y for x, y in zip(qv, bv))
            nc = rem.get(mv, 0) - qc * bc
            if nc == 0:
                rem.pop(mv, None)
            else:
                rem[mv] = nc
    return JetExpr._from_dict(quo)


# ---------------------------------------------------------------------------
# calculus on the generators
# ---------------------------------------------------------------------------


def elem(fn: str, arg: JetExpr) -> JetExpr:
    return atom_expr(ElemFn(fn, arg))


def sin(arg: JetExpr) -> JetExpr:
    return elem("sin", arg)


def cos(arg: JetExpr) -> JetExpr:
    return elem("cos", arg)


def exp(arg: JetExpr) -> JetExpr:
    return elem("exp", arg)


def log(arg: JetExpr) -> JetExpr:
    return elem("log", arg)


def sqrt(arg: JetExpr) -> JetExpr:
    return elem("sqrt", arg)


def derive(e: JetExpr, image: Callable[[Atom], Monomial | None]) -> JetExpr:
    """The derivation of e that sends each argument-free atom a (a
    coordinate or a constant) to the monomial image(a), with coefficient
    1, or to 0 where image(a) is None: Leibniz over every monomial, and
    the chain rule through function arguments.

    The integer numerators of the result are accumulated in one dict over
    the denominator of e times den, the lcm of the denominators of the
    function atoms' derivatives met so far.  The factor a^k of a monomial
    n*m adds n*k*den at (m / a) * image(a) for an argument-free atom, and
    n*k * (m / a) * t for every term t of a function atom's derivative,
    which is a JetExpr; where that derivative has a fractional coefficient
    (``sqrt``, ``log``) den grows and every entry so far is scaled up to
    it.  Each function atom is differentiated once per call.
    """
    memo: dict[Atom, JetExpr] = {}
    acc: dict[Monomial, int] = {}
    den = 1   # the lcm of the function atoms' derivative denominators met
    for m, n in e._terms:
        for idx, (atom, k) in enumerate(m):
            if atom.args:
                da = memo.get(atom)
                if da is None:
                    da = memo[atom] = _chain_rule(atom, image)
                if not da._terms:
                    continue
            else:
                da = image(atom)
                if da is None:
                    continue
            # m with the exponent of this factor lowered by one
            lowered = ((atom, k - 1),) if k != 1 else ()
            rest = m[:idx] + lowered + m[idx + 1:]
            if da.__class__ is tuple:   # a monomial with coefficient 1
                mm = _mono_mul(rest, da) if da else rest
                acc[mm] = acc.get(mm, 0) + n * k * den
                continue
            if den % da._den:
                grown = math.lcm(den, da._den)
                f = grown // den
                for mm in acc:
                    acc[mm] *= f
                den = grown
            nk = n * k * (den // da._den)
            for m2, n2 in da._terms:
                mm = _mono_mul(rest, m2)
                acc[mm] = acc.get(mm, 0) + nk * n2
    return _normalized(acc, e._den * den)


def _chain_rule(atom: Atom, image: Callable[[Atom], Monomial | None]
                ) -> JetExpr:
    """The derivation of ``derive`` applied to a function atom: the sum
    over its arguments of d_arg(slot) times the argument's derivative."""
    pieces = []
    for slot, arg in enumerate(atom.args):
        d_arg = derive(arg, image)
        if not d_arg.is_zero:
            pieces.append(mul(atom.d_arg(slot), d_arg))
    return add_many(pieces)


def partial(e: JetExpr, coord: Atom) -> JetExpr:
    """Formal partial derivative with respect to one coordinate.

    All jet coordinates are treated as independent; the chain rule is
    applied through elementary functions, and opaque functions
    differentiate into formal-partial atoms with respect to their
    declared arguments only.  It is ``derive`` with the image 1 on coord
    and 0 on every other coordinate.
    """
    if not isinstance(coord, (BaseCoord, JetCoord)):
        raise ExprError("partial derivative target must be a coordinate")
    return derive(e, lambda a: () if a == coord else None)


_ELEM_DERIVATIVE: dict[str, Callable[[JetExpr], JetExpr]] = {
    "sin": lambda u: cos(u),
    "cos": lambda u: -sin(u),
    "exp": lambda u: exp(u),
    "log": lambda u: div(ONE, u),
    "sqrt": lambda u: mul(JetExpr.constant(Fraction(1, 2)),
                          atom_pow(ElemFn("sqrt", u), -1)),
}


def substitute(e: JetExpr, bindings: Mapping[Atom, JetExpr]) -> JetExpr:
    """Simultaneous substitution of coordinates, then renormalization."""
    if not bindings:
        return e
    for key in bindings:
        if not isinstance(key, (BaseCoord, JetCoord)):
            raise ExprError("substitution keys must be coordinates")

    def subst_atom(atom: Atom) -> JetExpr:
        if not atom.args:
            return bindings.get(atom, atom_expr(atom))
        args = tuple(substitute(a, bindings) for a in atom.args)
        return atom_expr(atom) if args == atom.args else atom.rebuild(args)

    pieces: list[JetExpr] = []
    for m, coeff in e.terms:
        term = JetExpr.constant(coeff)
        for atom, k in m:
            term = mul(term, pow_int(subst_atom(atom), k))
            if term.is_zero:
                break
        pieces.append(term)
    return add_many(pieces)


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------


def all_atoms(e: JetExpr) -> set[Atom]:
    """Every atom occurring anywhere in e, including function arguments."""
    seen: set[Atom] = set()
    todo = [e]
    while todo:
        for m, _n in todo.pop()._terms:
            for atom, _k in m:
                if atom not in seen:
                    seen.add(atom)
                    todo.extend(atom.args)
    return seen


def jet_coords(e: JetExpr) -> list[JetCoord]:
    """Jet coordinates occurring anywhere in e, deterministically ordered."""
    return sorted(a for a in all_atoms(e) if isinstance(a, JetCoord))


def jet_order(e: JetExpr) -> int:
    """Maximal |sigma| among jet coordinates occurring in e (0 if none)."""
    return max((c.order for c in jet_coords(e)), default=0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_exact(e: JetExpr, env: Mapping[Atom, Fraction]) -> Fraction:
    """Exact rational evaluation; only for expressions free of elementary
    and opaque function applications."""
    total = Fraction(0)
    for m, c in e.terms:
        p = c
        for atom, k in m:
            if isinstance(atom, (BaseCoord, JetCoord)):
                try:
                    v = env[atom]
                except KeyError:
                    raise UnknownCoordinate(
                        f"unbound coordinate {atom!r}") from None
            elif isinstance(atom, InvSum):
                v = 1 / evaluate_exact(atom.body, env)
            else:
                raise ExprError(
                    "exact evaluation requires a polynomial expression")
            p *= Fraction(v) ** k
        total += p
    return total


# ---------------------------------------------------------------------------
# rendering: plain text (the parser's inverse), latex, structured
# ---------------------------------------------------------------------------


def _suffix(names: Sequence[str], counts: Sequence[int],
            latex: bool = False) -> str:
    """Derivative suffix naming names[k] counts[k] times: ``_tt``, or
    ``_{x1 x1 x2}`` in latex or when a name is longer than one letter;
    empty when every count is 0."""
    names = [nm for nm, cnt in zip(names, counts) for _ in range(cnt)]
    if not names:
        return ""
    if not latex and all(len(n) == 1 for n in names):
        return "_" + "".join(names)
    return "_{" + " ".join(names) + "}"


def _int_text(n: int) -> str:
    """Decimal text of an integer; one with more digits than the
    interpreter converts raises ExprError."""
    try:
        return str(n)
    except ValueError:
        raise ExprError(f"a coefficient has more than "
                        f"{sys.get_int_max_str_digits()} digits and cannot "
                        f"be printed") from None


def coeff_text(p: int, q: int) -> str:
    """Decimal text of the rational p/q in lowest terms: ``p`` when q is
    1, else ``p/q``, as ``str`` writes a Fraction."""
    return _int_text(p) if q == 1 else f"{_int_text(p)}/{_int_text(q)}"


def _latex_coeff(p: int, q: int) -> str:
    if q == 1:
        return _int_text(p)
    return rf"\frac{{{_int_text(p)}}}{{{_int_text(q)}}}"


def _render(e: JetExpr, atom_text: Callable[[Atom], str], power: str,
            coeff: Callable[[int, int], str], sep: str) -> str:
    """The term loop of to_plain and to_latex: the terms of e in canonical
    order with signs between them, each one its coefficient's magnitude
    p/q, written coeff(p, q) and left out when 1, and its factors joined
    by sep, where a factor a^k is power.format(atom_text(a), k)."""
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for m, p, q in e._ratios():
        factors = []
        for atom, k in m:
            if isinstance(atom, InvSum):   # k on InvSum means body^-k
                k = -k
            s = atom_text(atom)
            factors.append(s if k == 1 else power.format(s, k))
        if p not in (1, -1) or q != 1 or not factors:
            factors.insert(0, coeff(abs(p), q))
        if parts:
            parts.append((" - " if p < 0 else " + ") + sep.join(factors))
        else:
            parts.append(("-" if p < 0 else "") + sep.join(factors))
    return "".join(parts)


def to_plain(e: JetExpr) -> str:
    """Plain-text rendering in the canonical term order; parseable back."""
    return _render(e, lambda a: a.plain(), "{}^{}", coeff_text, "*")


def to_latex(e: JetExpr) -> str:
    """LaTeX rendering in the canonical term order."""
    return _render(e, lambda a: a.latex(), "{}^{{{}}}", _latex_coeff, " ")


def expr_to_dict(e: JetExpr) -> dict:
    """The structured form of e: its terms in canonical order, each a
    coefficient string and a list of atom/power factors."""
    return {"terms": [{"coeff": coeff_text(p, q),
                       "factors": [{"atom": a.to_dict(), "power": k}
                                   for a, k in m]}
                      for m, p, q in e._ratios()]}


# ---------------------------------------------------------------------------
# the jet context
# ---------------------------------------------------------------------------

_RESERVED = set(ELEMENTARY_FUNCTIONS) | set(KNOWN_CONSTANTS)


class JetContext:
    """Chart data: base variables x^lam, fiber variables y^i, and the
    catalog ``opaque_table`` of opaque smooth function symbols with their
    argument lists.

    Opaque symbols depend on order-0 coordinates only; they model
    coefficient functions such as metric components g_ab(q).
    """

    __slots__ = ("base_names", "fiber_names", "opaque_table")

    def __init__(self, base_names: tuple[str, ...], fiber_names: tuple[str, ...],
                 opaque_table: dict[str, tuple[str, ...]]):
        if not base_names or not fiber_names:
            raise ExprError("need at least one base and one fiber variable")
        names = list(base_names) + list(fiber_names) + list(opaque_table)
        if len(set(names)) != len(names):
            raise ExprError(f"coordinate/function names not distinct: {names}")
        clash = set(names) & _RESERVED
        if clash:
            raise ExprError(f"reserved names used as identifiers: {sorted(clash)}")
        order0 = set(base_names) | set(fiber_names)
        for nm, args in opaque_table.items():
            if len(args) < 1:
                raise ExprError(f"opaque function {nm!r} needs arguments")
            bad = [a for a in args if a not in order0]
            if bad:
                raise ExprError(
                    f"opaque function {nm!r} depends on unknown order-0 "
                    f"coordinates {bad}")
        self.base_names, self.fiber_names = base_names, fiber_names
        self.opaque_table = opaque_table

    @staticmethod
    def make(base, fibers, opaque: Mapping[str, Sequence[str]] | None = None
             ) -> JetContext:
        base = base.split() if isinstance(base, str) else base
        fibers = fibers.split() if isinstance(fibers, str) else fibers
        table = {name: tuple(args) for name, args in (opaque or {}).items()}
        return JetContext(tuple(base), tuple(fibers), table)

    # -- lookups ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.base_names)

    @property
    def m(self) -> int:
        return len(self.fiber_names)

    def axis(self, name: str) -> int:
        try:
            return self.base_names.index(name)
        except ValueError:
            raise UnknownCoordinate(f"unknown base variable {name!r}") from None

    def fiber_index(self, name: str) -> int:
        try:
            return self.fiber_names.index(name)
        except ValueError:
            raise UnknownCoordinate(f"unknown field {name!r}") from None

    # -- atom and expression builders ----------------------------------------

    def base_atom(self, which: int | str) -> BaseCoord:
        axis = which if isinstance(which, int) else self.axis(which)
        if not 0 <= axis < self.n:
            raise UnknownCoordinate(f"base axis {which!r} out of range")
        return BaseCoord(self.base_names[axis], axis)

    def jet_atom(self, field: int | str, sigma=None) -> JetCoord:
        idx = field if isinstance(field, int) else self.fiber_index(field)
        if not 0 <= idx < self.m:
            raise UnknownCoordinate(f"field {field!r} out of range")
        return JetCoord(self.fiber_names[idx], idx, self._sigma(sigma),
                        self.base_names)

    def _sigma(self, sigma) -> MultiIndex:
        if sigma is None:
            return MultiIndex.zero(self.n)
        if isinstance(sigma, MultiIndex):
            if sigma.dimension != self.n:
                raise ExprError("multi-index dimension does not match context")
            return sigma
        if isinstance(sigma, str):
            names = sigma.split() if " " in sigma else None
            if names is None:
                if all(ch in self.base_names for ch in sigma):
                    names = list(sigma)
                else:
                    names = [sigma]
            counts = [0] * self.n
            for nm in names:
                counts[self.axis(nm)] += 1
            return MultiIndex(tuple(counts))
        return self._sigma(MultiIndex(tuple(sigma)))

    def base(self, which: int | str) -> JetExpr:
        return atom_expr(self.base_atom(which))

    def fiber(self, name: int | str) -> JetExpr:
        return atom_expr(self.jet_atom(name))

    def jet(self, field: int | str, sigma) -> JetExpr:
        return atom_expr(self.jet_atom(field, sigma))

    def opaque(self, name: str, orders: Sequence[int] | None = None,
               args: Sequence[JetExpr] | None = None) -> JetExpr:
        argnames = self.opaque_table.get(name)
        if argnames is None:
            raise UnknownCoordinate(f"unknown opaque function {name!r}")
        if orders is None:
            ordt = (0,) * len(argnames)
        else:
            ordt = tuple(orders)
            if len(ordt) != len(argnames):
                raise ExprError(f"opaque function {name!r}: orders arity mismatch")
        if args is None:
            exprs = tuple(self._order0(a) for a in argnames)
        else:
            exprs = tuple(args)
            if len(exprs) != len(argnames):
                raise ExprError(f"opaque function {name!r} expects "
                                f"{len(argnames)} arguments, got {len(exprs)}")
        return atom_expr(OpaqueFn(name, argnames, ordt, exprs))

    def _order0(self, name: str) -> JetExpr:
        if name in self.base_names:
            return self.base(name)
        return self.fiber(name)
