"""Exact arithmetic: ring axioms, canonical forms, derivatives, substitution,
and the stored form of coefficients."""

import math
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from schouten.scalars import (
    MultiPoly,
    PoleError,
    RationalFn,
    exact_div,
    poly_gcd,
)

NVARS = 3
SYMPY_GENS = sympy.symbols("x y z")

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)

exponents = st.tuples(*([st.integers(0, 3)] * NVARS))


@st.composite
def polys(draw, max_terms=5):
    terms = draw(
        st.dictionaries(exponents, fractions, min_size=0, max_size=max_terms)
    )
    return MultiPoly(NVARS, terms)


def poly(spec: dict) -> MultiPoly:
    return MultiPoly(NVARS, {e: Fraction(c) for e, c in spec.items()})


X = poly({(1, 0, 0): 1})
Y = poly({(0, 1, 0): 1})
ONE = MultiPoly.constant(NVARS, 1)


def at(f, point):
    """Value of a polynomial or rational function at a point, by substituting
    every variable in turn."""
    for var, value in enumerate(point):
        f = f.substitute(var, value)
    return f.constant_value()


class TestPolyArithmetic:
    def test_cancellation(self):
        assert (X + Y) + (X - Y) == X.scale(2)

    def test_absorbing_zero(self):
        assert (X * MultiPoly.zero(NVARS)).is_zero()

    def test_difference_of_squares(self):
        # expected value computed by hand, then cross-checked by evaluation
        product = (X + ONE) * (X - ONE)
        expected = poly({(2, 0, 0): 1, (0, 0, 0): -1})
        assert product == expected
        for pt in [(2, 0, 0), (Fraction(1, 2), 3, 1), (-5, 1, 7), (Fraction(-3, 4), 0, 0), (11, 2, 3)]:
            pt = tuple(Fraction(v) for v in pt)
            assert at(product, pt) == (pt[0] + 1) * (pt[0] - 1)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            X + MultiPoly.constant(2, 1)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, a, b):
        pt = (Fraction(2, 3), Fraction(-1), Fraction(5, 2))
        assert at(a * b, pt) == at(a, pt) * at(b, pt)
        assert at(a + b, pt) == at(a, pt) + at(b, pt)

    @given(polys(max_terms=4), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_power_is_repeated_product(self, p, k):
        expected = ONE
        for _ in range(k):
            expected = expected * p
        assert p**k == expected
        assert_stored_form(p**k)


class TestDerivative:
    def test_power_rule(self):
        f = poly({(2, 1, 0): 1})  # x^2 y
        assert f.derivative(0) == poly({(1, 1, 0): 2})

    def test_constant(self):
        assert MultiPoly.constant(NVARS, 7).derivative(2).is_zero()

    def test_quotient_rule_reciprocal(self):
        f = RationalFn(ONE, X)
        d = f.derivative(0)
        assert d == RationalFn(-ONE, poly({(2, 0, 0): 1}))
        for pt in [(Fraction(1, 2), 0, 0), (3, 1, 1), (-2, 5, 7)]:
            pt = tuple(Fraction(v) for v in pt)
            eps = Fraction(1, 10**12)
            # symmetric difference quotient brackets the exact derivative
            numeric = (at(f, (pt[0] + eps, *pt[1:])) - at(f, (pt[0] - eps, *pt[1:]))) / (2 * eps)
            assert abs(numeric - at(d, pt)) < Fraction(1, 10**10)

    @given(polys(max_terms=4), polys(max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_leibniz_rule(self, a, b):
        fa, fb = RationalFn(a), RationalFn(b)
        left = (fa * fb).derivative(1)
        right = fa.derivative(1) * fb + fa * fb.derivative(1)
        assert left == right

    @given(polys(max_terms=4))
    @settings(max_examples=40, deadline=None)
    def test_mixed_partials_commute(self, a):
        f = RationalFn(a)
        assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)


class TestNormalization:
    def test_factor_cancellation(self):
        x2m1 = poly({(2, 0, 0): 1, (0, 0, 0): -1})
        xm1 = poly({(1, 0, 0): 1, (0, 0, 0): -1})
        f = RationalFn(x2m1, xm1)
        assert f == RationalFn(X + ONE)

    def test_zero_numerator(self):
        f = RationalFn(MultiPoly.zero(NVARS), X + Y)
        assert f.is_zero()
        assert f.den == ONE

    def test_content_removal(self):
        f = RationalFn(poly({(1, 0, 0): 2, (0, 0, 0): 2}), MultiPoly.constant(NVARS, 4))
        assert f.num == X + ONE
        assert f.den == MultiPoly.constant(NVARS, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn(X, MultiPoly.zero(NVARS))

    def test_sign_normalization(self):
        f = RationalFn(X, -Y)
        assert f.den == Y
        assert f.num == -X

    @given(polys(max_terms=3), polys(max_terms=3))
    @settings(max_examples=40, deadline=None)
    def test_normalize_idempotent(self, a, b):
        if b.is_zero():
            b = ONE
        f = RationalFn(a, b)
        again = RationalFn(f.num, f.den)
        assert f.num == again.num and f.den == again.den

    @given(polys(max_terms=3), polys(max_terms=2), polys(max_terms=2))
    @settings(max_examples=30, deadline=None)
    def test_common_factor_cancels(self, a, b, g):
        if b.is_zero():
            b = ONE
        if g.is_zero():
            g = ONE
        assert RationalFn(a * g, b * g) == RationalFn(a, b)


class TestGcd:
    def test_univariate(self):
        a = poly({(2, 0, 0): 1, (0, 0, 0): -1})
        b = poly({(1, 0, 0): 1, (0, 0, 0): -1})
        assert poly_gcd(a, b) == b

    def test_constants_are_units(self):
        assert poly_gcd(MultiPoly.constant(NVARS, 6), MultiPoly.constant(NVARS, 4)) == ONE

    def test_multivariate(self):
        g = X + Y
        a = g * poly({(1, 0, 0): 1})
        b = g * poly({(0, 1, 0): 1, (0, 0, 0): 3})
        assert poly_gcd(a, b) == g

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ValueError, match="not exact"):
            exact_div(X + ONE, Y)


class TestEvaluation:
    def test_simple(self):
        f = RationalFn(X + Y)
        assert at(f, (Fraction(1), Fraction(2), Fraction(0))) == 3

    def test_pole(self):
        f = RationalFn(ONE, X)
        with pytest.raises(PoleError):
            at(f, (Fraction(0), Fraction(1), Fraction(1)))

    def test_square(self):
        f = RationalFn(poly({(2, 0, 0): 1, (0, 0, 0): -1}))
        assert at(f, (Fraction(3), Fraction(0), Fraction(0))) == 8

    def test_substitute(self):
        f = RationalFn(X * Y + X)
        g = f.substitute(1, Fraction(2))
        assert g == RationalFn(X.scale(3))


class TestRationalArithmetic:
    @given(polys(max_terms=3), polys(max_terms=3), polys(max_terms=3))
    @settings(max_examples=30, deadline=None)
    def test_field_axioms(self, a, b, c):
        if c.is_zero():
            c = ONE
        fa, fb, fc = RationalFn(a), RationalFn(b), RationalFn(c)
        assert (fa + fb) * fc == fa * fc + fb * fc
        assert (fa / fc) * fc == fa

    def test_powers(self):
        f = RationalFn(X) ** -2
        assert f == RationalFn(ONE, poly({(2, 0, 0): 1}))

    def test_compose_univariate(self):
        f = RationalFn(X)
        # 1 + 2 w + w^2 at w = x
        g = f.compose_univariate([Fraction(1), Fraction(2), Fraction(1)])
        assert g == RationalFn(poly({(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1}))


def int_polys(max_terms=5):
    return polys(max_terms).map(
        lambda p: MultiPoly(NVARS, {e: Fraction(round(c * 3)) for e, c in p.terms.items()})
    )


nonzero_polys = polys(max_terms=2).map(lambda p: ONE if p.is_zero() else p)
monomials = polys(max_terms=1).map(lambda p: ONE if p.is_zero() else p)


@st.composite
def rational_fns(draw, split=False):
    """Canonical rational functions of every shape the fast paths meet.

    General numerators and denominators have at most two terms: with three,
    about one sum in twenty hits the poly_gcd main-variable slowdown
    (ROADMAP item 1) and runs for minutes.
    """
    kinds = ["integer", "rational-coefficient", "general"] + ["split"] * split
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        return RationalFn(draw(int_polys()))  # denominator 1
    if kind == "rational-coefficient":
        return RationalFn(draw(polys(max_terms=3)))  # constant den, e.g. x/2
    p, q = draw(polys(max_terms=2)), draw(nonzero_polys)
    if kind == "general":
        return RationalFn(p, q)
    # p/q + r/s with a monomial s: when one part is free of a variable,
    # part of the denominator cancels in the derivative
    r, s = draw(polys(max_terms=2)), draw(monomials)
    return RationalFn(p * s + r * q, q * s)


@st.composite
def rational_pairs(draw, shared_factor=False):
    if shared_factor and draw(st.booleans()):
        # n1/(d1*k) and (k*n2)/d2: k cancels across a product
        k, d1, d2 = draw(nonzero_polys), draw(monomials), draw(monomials)
        n1, n2 = draw(monomials), draw(monomials)
        return tuple(draw(st.permutations([RationalFn(n1, d1 * k), RationalFn(k * n2, d2)])))
    f = draw(rational_fns())
    if draw(st.booleans()):
        # (±c + k*d)/d with integer k keeps the denominator d unless it is 0
        sign = draw(st.sampled_from([1, -1]))
        g = RationalFn(f.num.scale(sign) + draw(int_polys(max_terms=2)) * f.den, f.den)
        assume(g.den == f.den)
        return f, g
    return f, draw(rational_fns())


def to_sympy(p: MultiPoly):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *SYMPY_GENS,
    )


def assert_canonical_form_of(f: RationalFn, num: MultiPoly, den: MultiPoly):
    """f is the canonical form of num/den, that is, RationalFn(num, den).

    Checked by cross-multiplication, the canonical invariants and a sympy
    gcd, because RationalFn(num, den) itself can run into the poly_gcd
    main-variable slowdown (ROADMAP item 1) on some of these inputs.
    """
    assert f.num * den == num * f.den
    coeffs = list(f.num.terms.values()) + list(f.den.terms.values())
    assert all(c.denominator == 1 for c in coeffs)
    content = 0
    for c in coeffs:
        content = math.gcd(content, c.numerator)
    assert content == 1
    assert f.den.leading_term()[1] > 0
    assert sympy.gcd(to_sympy(f.num), to_sympy(f.den)).is_ground


class TestFastPaths:
    """Every shortcut must give what the general normalising constructor gives."""

    @given(rational_pairs())
    @settings(max_examples=120, deadline=None)
    def test_sum_and_difference(self, pair):
        a, b = pair
        assert_canonical_form_of(a + b, a.num * b.den + b.num * a.den, a.den * b.den)
        assert_canonical_form_of(a - b, a.num * b.den - b.num * a.den, a.den * b.den)

    @given(rational_pairs(shared_factor=True))
    @settings(max_examples=120, deadline=None)
    def test_product(self, pair):
        a, b = pair
        assert_canonical_form_of(a * b, a.num * b.num, a.den * b.den)

    @given(rational_fns(split=True), st.integers(0, NVARS - 1))
    @settings(max_examples=120, deadline=None)
    def test_derivative(self, a, var):
        num = a.num.derivative(var) * a.den - a.num * a.den.derivative(var)
        assert_canonical_form_of(a.derivative(var), num, a.den * a.den)

    @given(rational_fns(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_power(self, a, n):
        assert_canonical_form_of(a**n, a.num**n, a.den**n)

    def test_repeated_denominator_factor(self):
        # d/dx 1/x^2 = -2/x^3: g = gcd(x^2, 2x) = x, and nothing of g cancels
        f = RationalFn(ONE, X * X)
        assert f.derivative(0) == RationalFn(ONE.scale(-2), X * X * X)

    def test_denominator_part_free_of_variable(self):
        # (x + y)/(x y) = 1/y + 1/x, so d/dx gives -1/x^2 and y cancels
        f = RationalFn(X + Y, X * Y)
        assert f.derivative(0) == RationalFn(-ONE, X * X)

    def test_content_shared_with_constant_denominator(self):
        half_x = RationalFn(X.scale(Fraction(1, 2)))
        assert half_x.den == MultiPoly.constant(NVARS, 2)
        assert half_x * 2 == RationalFn(X)
        assert (half_x + half_x).den == ONE


def fresh_copy(f: RationalFn) -> RationalFn:
    """An equal value built anew, so none of f's memoised derivatives carry over."""
    return RationalFn(MultiPoly(NVARS, f.num.terms), MultiPoly(NVARS, f.den.terms))


class TestDerivativeMemo:
    """A value keeps its partial derivatives, and nothing else sees them."""

    @given(rational_fns(split=True))
    @settings(max_examples=80, deadline=None)
    def test_memoised_derivative_equals_a_fresh_one(self, f):
        for var in range(NVARS):
            first = f.derivative(var)
            assert f.derivative(var) is first
            assert first == fresh_copy(f).derivative(var)
        assert f.derivative(0).derivative(1) == fresh_copy(f).derivative(1).derivative(0)

    @given(rational_fns(split=True))
    @settings(max_examples=40, deadline=None)
    def test_memo_leaves_equality_hash_and_repr(self, f):
        g = fresh_copy(f)
        before = repr(f), hash(f)
        for var in range(NVARS):
            f.derivative(var)
        assert (repr(f), hash(f)) == before == (repr(g), hash(g))
        assert f == g and g == f


class TestExactDivision:
    @given(polys(max_terms=4), polys(max_terms=4))
    @settings(max_examples=80, deadline=None)
    def test_product_divides_back(self, p, d):
        if d.is_zero():
            d = ONE
        assert exact_div(p * d, d) == p

    def test_remainder_raises(self):
        # x^2 + 1 = (x + 1)(x - 1) + 2
        with pytest.raises(ValueError, match="^polynomial division is not exact$"):
            exact_div(X * X + ONE, X + ONE)

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(X, MultiPoly.zero(NVARS))


def assert_stored_form(p: MultiPoly):
    """Every coefficient is a nonzero int, or a Fraction that is not integral."""
    for c in p.terms.values():
        assert (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1), c


def to_expr(p: MultiPoly):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(g**k for g, k in zip(SYMPY_GENS, e)))
            for e, c in p.terms.items()
        )
    )


def assert_equals_sympy(p: MultiPoly, expected):
    assert_stored_form(p)
    assert sympy.expand(to_expr(p) - expected) == 0


gcd_partners = st.one_of(
    polys(max_terms=4),
    monomials,
    st.builds(mul, monomials, polys(max_terms=4)),
    fractions.map(lambda c: MultiPoly.constant(NVARS, c)),
    st.just(MultiPoly.zero(NVARS)),
)


class TestMonomialGcd:
    """The gcd with a one-term argument is a monomial in closed form."""

    @given(monomials, gcd_partners, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, m, f, swap):
        p, q = (f, m) if swap else (m, f)
        result = poly_gcd(p, q)
        assert_stored_form(result)
        assert len(result.terms) == 1
        ratio = sympy.cancel(to_expr(result) / sympy.gcd(to_expr(p), to_expr(q)))
        assert ratio != 0 and not ratio.free_symbols  # equal up to a unit

    def test_examples(self):
        x2y = poly({(2, 1, 0): 3})
        assert poly_gcd(x2y, poly({(1, 3, 0): 2, (3, 0, 1): -5})) == X
        assert poly_gcd(poly({(0, 0, 0): 7}), x2y) == ONE
        assert poly_gcd(MultiPoly.zero(NVARS), x2y) == poly({(2, 1, 0): 1})


class TestCoefficientInvariant:
    """Results of the kernel's arithmetic are stored canonically and agree with sympy."""

    @given(polys(max_terms=4), polys(max_terms=4), fractions, st.integers(0, NVARS - 1))
    @settings(max_examples=80, deadline=None)
    def test_ring_and_calculus(self, a, b, k, var):
        A, B, x = to_expr(a), to_expr(b), SYMPY_GENS[var]
        assert_stored_form(a)
        assert_equals_sympy(a + b, A + B)
        assert_equals_sympy(a - b, A - B)
        assert_equals_sympy(a * b, A * B)
        assert_equals_sympy(a.scale(k), A * k)
        assert_equals_sympy(a.derivative(var), sympy.diff(A, x))
        assert_equals_sympy(a.substitute(var, k), A.subs(x, sympy.Rational(k.numerator, k.denominator)))

    @given(polys(max_terms=4), polys(max_terms=3))
    @settings(max_examples=60, deadline=None)
    def test_exact_division(self, q, d):
        assume(not d.is_zero())
        product = to_expr(q * d)
        expected, remainder = sympy.div(product, to_expr(d), *SYMPY_GENS)
        assert remainder == 0
        assert_equals_sympy(exact_div(q * d, d), expected)

    @given(polys(max_terms=2), polys(max_terms=2), polys(max_terms=2))
    @settings(max_examples=60, deadline=None)
    def test_gcd(self, a, b, g):
        p, q = a * g, b * g
        result = poly_gcd(p, q)
        assert_stored_form(result)
        expected = sympy.gcd(to_expr(p), to_expr(q))
        if result.is_zero():
            assert expected == 0
        else:
            # equal up to a nonzero rational unit
            assert not sympy.cancel(to_expr(result) / expected).free_symbols

    def test_public_constructor_converts_integral_fractions(self):
        p = MultiPoly(NVARS, {(1, 0, 0): Fraction(4, 2), (0, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(0)})
        assert p.terms == {(1, 0, 0): 2, (0, 0, 0): Fraction(1, 3)}
        assert_stored_form(p)
        assert_stored_form(p.scale(3))
        assert_stored_form(MultiPoly.constant(NVARS, Fraction(6, 3)))

    def test_public_constructor_rejects_floats(self):
        with pytest.raises(TypeError, match="expected int or Fraction, got float"):
            MultiPoly(NVARS, {(0, 0, 0): 0.5})

    def test_constant_values_are_fractions(self):
        # an int / int on stored coefficients would return a float here
        for value in [
            MultiPoly.constant(NVARS, 3).constant_value(),
            MultiPoly.zero(NVARS).constant_value(),
            RationalFn(ONE, MultiPoly.constant(NVARS, 2)).constant_value(),
            RationalFn(MultiPoly.constant(NVARS, 6), MultiPoly.constant(NVARS, 3)).constant_value(),
        ]:
            assert type(value) is Fraction
        assert RationalFn(ONE, MultiPoly.constant(NVARS, 2)).constant_value() == Fraction(1, 2)
