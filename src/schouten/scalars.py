"""Exact multivariate polynomial and rational-function arithmetic over Q.

Every geometric object in this package carries coefficients from this
module.  Polynomials are sparse maps from exponent tuples to nonzero
rational coefficients; rational functions are kept in a canonical reduced
form so that equality (and in particular "is exactly zero") is decidable by
structural comparison.

Coefficient invariant: a stored coefficient is a nonzero `int` when it is
integral, and a `fractions.Fraction` only when it is not.  Canonical
numerators and denominators have integer coefficients, so most arithmetic
runs on ints and builds no Fraction at all.  An `int` and a `Fraction` of
equal value compare and hash equally, so the invariant changes no equality,
hash or rendered text.  `MultiPoly(nvars, terms)` validates terms from
outside and brings them to this form; every result of the module's own
arithmetic is built by the trusted constructor `_poly`, which sets the two
slots unchecked, after a single `_clean` pass where zeros or integral
Fractions can arise.

Monomial order is graded lexicographic, fixed once for the whole package:
first compare total degree, then the exponent tuple lexicographically.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping, Sequence


class PoleError(ArithmeticError):
    """Raised when a substitution makes a denominator vanish identically."""


def _coefficient(x) -> int | Fraction:
    """Validate a coefficient from outside the module; return its stored form."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as ints."""
    return {
        e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for e, c in terms.items()
        if c
    }


def _quotient(a, b) -> int | Fraction:
    """a / b in stored form, without a Fraction when both are ints and b | a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coefficient(Fraction(a, b))


def _poly(nvars: int, terms: dict) -> "MultiPoly":
    """Trusted constructor: `terms` already obeys the coefficient invariant."""
    p = object.__new__(MultiPoly)
    p.nvars = nvars
    p.terms = terms
    return p


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients.

    `terms` maps exponent tuples (one entry per chart variable) to nonzero
    coefficients: an `int` when integral, a `Fraction` otherwise.  No zero
    coefficient is ever stored, so two polynomials are equal iff their term
    maps are equal.  `MultiPoly(nvars, terms)` validates and converts its
    input; results of arithmetic come from the trusted `_poly` instead.
    `terms` is never changed after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _coefficient(coeff)
                if coeff == 0:
                    continue
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return _poly(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        value = _coefficient(value)
        return _poly(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return _poly(nvars, {exps: 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    def degree_in(self, var: int) -> int:
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Leading (exponents, coeff) under graded lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    # -- ring operations ------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        get = out.get
        for exps, coeff in other.terms.items():
            out[exps] = get(exps, 0) + coeff
        return _poly(self.nvars, _clean(out))

    def __neg__(self) -> "MultiPoly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        get = out.get
        other_terms = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in other_terms:
                exps = tuple(map(add, e1, e2))
                out[exps] = get(exps, 0) + c1 * c2
        return _poly(self.nvars, _clean(out))

    __rmul__ = __mul__

    def scale(self, factor) -> "MultiPoly":
        factor = _coefficient(factor)
        if not factor:
            return MultiPoly.zero(self.nvars)
        return _poly(self.nvars, _clean({e: c * factor for e, c in self.terms.items()}))

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            return _poly(self.nvars, {tuple(e * n for e in exps): _coefficient(coeff**n)})
        # repeated multiplication by the base: for a dense multivariate base
        # it beats squaring, whose last product takes two large powers
        # (Fateman, Stud. Appl. Math. 53, 1974)
        result = MultiPoly.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        # lowering one exponent keeps distinct monomials distinct, so no
        # two terms land on one key
        out = {
            exps[:var] + (exps[var] - 1,) + exps[var + 1 :]: coeff * exps[var]
            for exps, coeff in self.terms.items()
            if exps[var]
        }
        return _poly(self.nvars, _clean(out))

    def substitute(self, var: int, value: int | Fraction) -> "MultiPoly":
        """Replace one variable by a rational constant (tuple length unchanged)."""
        value = _coefficient(value)
        out: dict[tuple[int, ...], int | Fraction] = {}
        get = out.get
        for exps, coeff in self.terms.items():
            key = exps[:var] + (0,) + exps[var + 1 :]
            out[key] = get(key, 0) + coeff * value ** exps[var]
        return _poly(self.nvars, _clean(out))

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(0)
        coeffs = self.terms.values()
        return Fraction(
            math.gcd(*(c.numerator for c in coeffs)),
            math.lcm(*(c.denominator for c in coeffs)),
        )

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


# -- divisibility and gcd ------------------------------------------------


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises if d does not divide p.

    The remainder is one dict updated in place: each quotient term q
    removes the remainder's leading term and subtracts q * (d - lt(d)).
    Every subtracted term lies below the removed one in graded lex order,
    so a heap of pending exponents yields the leading terms in turn, and
    no exponent enters the heap twice.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    p._check_compatible(d)
    d_exps, d_coeff = d.leading_term()
    d_tail = [(exps, coeff) for exps, coeff in d.terms.items() if exps != d_exps]
    rem = dict(p.terms)
    pending = [(_descending_key(exps), exps) for exps in rem]
    heapq.heapify(pending)
    quotient: dict[tuple[int, ...], int | Fraction] = {}
    while pending:
        r_exps = heapq.heappop(pending)[1]
        r_coeff = rem.pop(r_exps)
        if not r_coeff:
            continue  # cancelled
        q_exps = tuple(map(sub, r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ValueError("polynomial division is not exact")
        q_coeff = _quotient(r_coeff, d_coeff)
        quotient[q_exps] = q_coeff
        for t_exps, t_coeff in d_tail:
            exps = tuple(map(add, q_exps, t_exps))
            if exps in rem:
                rem[exps] -= q_coeff * t_coeff
            else:
                rem[exps] = -q_coeff * t_coeff
                heapq.heappush(pending, (_descending_key(exps), exps))
    return _poly(p.nvars, quotient)


def _descending_key(exps: tuple[int, ...]) -> tuple:
    """Heap key that pops exponents in decreasing graded lex order."""
    return (-sum(exps), tuple(map(neg, exps)))


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator)
    )


def _divide_content(p: MultiPoly, c: Fraction) -> MultiPoly:
    """p / c, for a nonzero c that divides the content of p.

    An integral c can only divide the content of a polynomial with integer
    coefficients, and then it divides each of them: floor division is exact.
    """
    if c.denominator != 1:
        return p.scale(1 / c)
    c = c.numerator
    if c == 1:
        return p
    return _poly(p.nvars, {e: v // c for e, v in p.terms.items()})


def _make_primitive(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients with positive grlex-leading coefficient."""
    if p.is_zero():
        return p
    c = p.content()
    _, lead = p.leading_term()
    return _divide_content(p, -c if lead < 0 else c)


def _coefficients_in(p: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View p as univariate in `var`; coefficients are polynomials in the rest."""
    out: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for exps, coeff in p.terms.items():
        out.setdefault(exps[var], {})[exps[:var] + (0,) + exps[var + 1 :]] = coeff
    return {k: _poly(p.nvars, terms) for k, terms in out.items()}


def _pseudo_rem(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of p by q, both univariate in `var` over a poly ring."""
    dq = q.degree_in(var)
    lc_q = _coefficients_in(q, var)[dq]
    rem = p
    while (dr := rem.degree_in(var)) >= dq:
        # lc(rem) * var^(dr - dq), read off the leading terms of rem
        lead = _poly(
            p.nvars,
            {
                exps[:var] + (dr - dq,) + exps[var + 1 :]: coeff
                for exps, coeff in rem.terms.items()
                if exps[var] == dr
            },
        )
        rem = rem * lc_q - q * lead
    return rem


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q, computed by content/primitive-part recursion.

    The result has coprime integer coefficients and positive leading
    coefficient; gcd of two nonzero constants is 1 (constants are units).
    """
    if p.is_zero():
        return _make_primitive(q)
    if q.is_zero():
        return _make_primitive(p)
    p._check_compatible(q)
    if len(p.terms) == 1 or len(q.terms) == 1:
        # the divisors of a monomial are monomials, and x^m divides f iff m
        # is at most every exponent vector of f, componentwise
        return _poly(p.nvars, {tuple(map(min, *p.terms, *q.terms)): 1})
    var = max(
        i
        for i in range(p.nvars)
        if p.degree_in(i) > 0 or q.degree_in(i) > 0
    )
    if p.degree_in(var) == 0 or q.degree_in(var) == 0:
        # one argument does not involve the chosen variable: gcd divides
        # every coefficient of the other
        flat, other = (p, q) if p.degree_in(var) == 0 else (q, p)
        g = flat
        for coeff_poly in _coefficients_in(other, var).values():
            g = poly_gcd(g, coeff_poly)
        return _make_primitive(g)

    def content_wrt(poly: MultiPoly) -> MultiPoly:
        coeffs = list(_coefficients_in(poly, var).values())
        g = coeffs[0]
        for c in coeffs[1:]:
            g = poly_gcd(g, c)
        return g

    cont_p = content_wrt(p)
    cont_q = content_wrt(q)
    cont_gcd = poly_gcd(cont_p, cont_q)
    a = _make_primitive(exact_div(p, cont_p))
    b = _make_primitive(exact_div(q, cont_q))
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        if not r.is_zero():
            r = _make_primitive(exact_div(r, content_wrt(r)))
        a, b = b, r
    return _make_primitive(a * cont_gcd)


# -- rational functions --------------------------------------------------


class RationalFn:
    """Quotient of two MultiPoly in canonical form.

    Canonical form: gcd(num, den) is a unit; numerator and denominator have
    integer coefficients whose joint content is 1; the denominator's leading
    coefficient under graded lex order is positive.  Zero is 0/1.

    A value keeps its partial derivatives, once asked for, in the private
    slot `_derivatives` (variable index -> derivative), so it is
    differentiated along each variable at most once while it lives.  The
    slot is not part of the value: `==`, `hash` and `repr` ignore it.
    """

    __slots__ = ("num", "den", "_derivatives")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, *, _canonical=False):
        if den is None:
            den = MultiPoly.constant(num.nvars, 1)
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        num._check_compatible(den)
        self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "RationalFn":
        return cls(MultiPoly.zero(nvars), _canonical=True)

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFn":
        return cls(MultiPoly.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFn":
        return cls(MultiPoly.variable(nvars, index), _canonical=True)

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "RationalFn":
        other = _coerce(other, self.nvars)
        if self.den == other.den:
            # an integer polynomial over 1 is canonical as it stands
            return RationalFn(
                self.num + other.num, self.den, _canonical=_is_one(self.den)
            )
        if _is_one(self.den) or _is_one(other.den):
            # a + c/d = (a*d + c)/d shares no factor or content with d,
            # because c/d does not
            poly, frac = (self, other) if _is_one(self.den) else (other, self)
            return RationalFn(
                poly.num * frac.den + frac.num, frac.den, _canonical=True
            )
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den, _canonical=True)

    def __sub__(self, other) -> "RationalFn":
        return self + (-_coerce(other, self.nvars))

    def __rsub__(self, other) -> "RationalFn":
        return _coerce(other, self.nvars) - self

    def __mul__(self, other) -> "RationalFn":
        other = _coerce(other, self.nvars)
        a, b, c, d = self.num, self.den, other.num, other.den
        if _is_one(b) and _is_one(d):
            return RationalFn(a * c, b, _canonical=True)
        if a.is_zero() or c.is_zero():
            return RationalFn.zero(self.nvars)
        # Henrici: cancel the cross gcds before multiplying, so that
        # (a/b)(c/d) = (a/g1)(c/g2) / ((b/g2)(d/g1)) is reduced
        g1 = poly_gcd(a, d)
        if not g1.is_constant():
            a, d = exact_div(a, g1), exact_div(d, g1)
        g2 = poly_gcd(c, b)
        if not g2.is_constant():
            c, b = exact_div(c, g2), exact_div(b, g2)
        return RationalFn(*_rescale(a * c, b * d), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        other = _coerce(other, self.nvars)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFn":
        return _coerce(other, self.nvars) / self

    def __pow__(self, n: int) -> "RationalFn":
        if n < 0:
            return RationalFn.constant(self.nvars, 1) / self ** (-n)
        # a^n and b^n stay coprime, and by Gauss's lemma their joint
        # content is the n-th power of a joint content of 1
        return RationalFn(self.num**n, self.den**n, _canonical=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.constant(self.nvars, other)
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus -------------------------------------------------------

    def derivative(self, var: int) -> "RationalFn":
        """Exact partial derivative, computed once per variable."""
        try:
            memo = self._derivatives
        except AttributeError:
            memo = self._derivatives = {}
        result = memo.get(var)
        if result is None:
            result = memo[var] = self._quotient_rule(var)
        return result

    def _quotient_rule(self, var: int) -> "RationalFn":
        if self.is_polynomial():
            return RationalFn(
                self.num.derivative(var), self.den, _canonical=_is_one(self.den)
            )
        a, b = self.num, self.den
        db = b.derivative(var)
        if db.is_zero():
            return RationalFn(a.derivative(var), b)
        # With g = gcd(b, b'), b = g*u and b' = g*v, the quotient rule gives
        # (a'u - av) / (b*u).  The numerator is coprime to u, since a and v
        # both are, so only a factor of the small g can still cancel.
        g = poly_gcd(b, db)
        u, v = exact_div(b, g), exact_div(db, g)
        num = a.derivative(var) * u - a * v
        if num.is_zero():
            return RationalFn.zero(self.nvars)
        h = poly_gcd(num, g)
        if h.is_constant():
            den = b * u
        else:
            num, den = exact_div(num, h), exact_div(g, h) * u * u
        return RationalFn(*_rescale(num, den), _canonical=True)

    def substitute(self, var: int, value: Fraction) -> "RationalFn":
        den = self.den.substitute(var, value)
        if den.is_zero():
            raise PoleError(f"denominator vanishes identically at substitution")
        return RationalFn(self.num.substitute(var, value), den)

    def compose_univariate(self, poly_coeffs: Sequence[Fraction]) -> "RationalFn":
        """Apply a univariate polynomial (coefficients low-to-high) to self."""
        acc = RationalFn.zero(self.nvars)
        power = RationalFn.constant(self.nvars, 1)
        for c in poly_coeffs:
            acc = acc + power * Fraction(c)
            power = power * self
        return acc

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


def _coerce(x, nvars: int) -> RationalFn:
    if isinstance(x, RationalFn):
        if x.nvars != nvars:
            raise ValueError(f"variable-count mismatch: {x.nvars} vs {nvars}")
        return x
    if isinstance(x, MultiPoly):
        return RationalFn(x)
    if isinstance(x, (int, Fraction)):
        return RationalFn.constant(nvars, x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalFn")


def _normalize(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if num.is_zero():
        return MultiPoly.zero(num.nvars), MultiPoly.constant(num.nvars, 1)
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = exact_div(num, g)
        den = exact_div(den, g)
    return _rescale(num, den)


def _rescale(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Remove the joint content of a coprime pair and make den's lead positive."""
    scale = _rational_gcd(num.content(), den.content())
    _, lead = den.leading_term()
    if lead < 0:
        scale = -scale
    if scale == 1:
        return num, den
    return _divide_content(num, scale), _divide_content(den, scale)


def _is_one(p: MultiPoly) -> bool:
    if len(p.terms) != 1:
        return False
    ((exps, coeff),) = p.terms.items()
    return coeff == 1 and not any(exps)
