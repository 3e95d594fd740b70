"""Exact multivariate polynomial and rational-function arithmetic over Q.

Every geometric object in this package carries coefficients from this
module.  Coefficients are `fractions.Fraction`; polynomials are sparse
maps from exponent tuples to nonzero fractions; rational functions are
kept in a canonical reduced form so that equality (and in particular
"is exactly zero") is decidable by structural comparison.

Monomial order is graded lexicographic, fixed once for the whole package:
first compare total degree, then the exponent tuple lexicographically.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    `terms` maps exponent tuples (one entry per chart variable) to nonzero
    coefficients.  No zero coefficient is ever stored, so two polynomials
    are equal iff their term maps are equal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
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
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        value = _as_fraction(value)
        if value == 0:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

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
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
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
        for exps, coeff in other.terms.items():
            acc = out.get(exps, Fraction(0)) + coeff
            if acc == 0:
                out.pop(exps, None)
            else:
                out[exps] = acc
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(exps, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(exps, None)
                else:
                    out[exps] = acc
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "MultiPoly":
        factor = _as_fraction(factor)
        if factor == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
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
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            new = list(exps)
            new[var] = k - 1
            key = tuple(new)
            acc = out.get(key, Fraction(0)) + coeff * k
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        return MultiPoly(self.nvars, out)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= _as_fraction(base) ** e
            total += value
        return total

    def substitute(self, var: int, value: Fraction) -> "MultiPoly":
        """Replace one variable by a rational constant (tuple length unchanged)."""
        value = _as_fraction(value)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            new = list(exps)
            new[var] = 0
            key = tuple(new)
            acc = out.get(key, Fraction(0)) + coeff * value**k
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        return MultiPoly(self.nvars, out)

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for coeff in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(coeff.numerator))
            den_lcm = den_lcm * coeff.denominator // math.gcd(den_lcm, coeff.denominator)
        return Fraction(num_gcd, den_lcm)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


def poly_arith(a: MultiPoly, b: MultiPoly, op: str) -> MultiPoly:
    """Named entry point for +, -, * on polynomials."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


# -- divisibility and gcd ------------------------------------------------


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises if d does not divide p.

    The remainder is one dict updated in place: each quotient term q
    removes the remainder's leading term and subtracts q * (d - lt(d)).
    Every subtracted term lies below the removed one in graded lex order,
    so a heap of pending exponents yields the leading terms in turn.
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
    quotient: dict[tuple[int, ...], Fraction] = {}
    while rem:
        r_exps = heapq.heappop(pending)[1]
        r_coeff = rem.pop(r_exps, None)
        if r_coeff is None:
            continue  # cancelled, or a duplicate heap entry
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ValueError("polynomial division is not exact")
        q_coeff = r_coeff / d_coeff
        quotient[q_exps] = q_coeff
        for t_exps, t_coeff in d_tail:
            exps = tuple(a + b for a, b in zip(q_exps, t_exps))
            acc = rem.get(exps)
            if acc is None:
                rem[exps] = -q_coeff * t_coeff
                heapq.heappush(pending, (_descending_key(exps), exps))
            else:
                acc -= q_coeff * t_coeff
                if acc:
                    rem[exps] = acc
                else:
                    del rem[exps]
    return MultiPoly(p.nvars, quotient)


def _descending_key(exps: tuple[int, ...]) -> tuple:
    """Heap key that pops exponents in decreasing graded lex order."""
    return (-sum(exps), tuple(-e for e in exps))


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _make_primitive(p: MultiPoly) -> MultiPoly:
    """Scale to coprime integer coefficients with positive grlex-leading coefficient."""
    if p.is_zero():
        return p
    c = p.content()
    _, lead = p.leading_term()
    if lead < 0:
        c = -c
    return p.scale(1 / c)


def _coefficients_in(p: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View p as univariate in `var`; coefficients are polynomials in the rest."""
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for exps, coeff in p.terms.items():
        k = exps[var]
        rest = list(exps)
        rest[var] = 0
        out.setdefault(k, {})[tuple(rest)] = coeff
    return {k: MultiPoly(p.nvars, terms) for k, terms in out.items()}


def _pseudo_rem(p: MultiPoly, q: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of p by q, both univariate in `var` over a poly ring."""
    dq = q.degree_in(var)
    q_coeffs = _coefficients_in(q, var)
    lc_q = q_coeffs[dq]
    rem = p
    while not rem.is_zero() and rem.degree_in(var) >= dq:
        dr = rem.degree_in(var)
        lc_r = _coefficients_in(rem, var)[dr]
        shift = MultiPoly.variable(p.nvars, var) ** (dr - dq)
        rem = rem * lc_q - q * lc_r * shift
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
    if p.is_constant() or q.is_constant():
        return MultiPoly.constant(p.nvars, 1)
    p._check_compatible(q)
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
    """

    __slots__ = ("num", "den")

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
        """Exact partial derivative (quotient rule)."""
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

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / den

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
    return num.scale(1 / scale), den.scale(1 / scale)


def _is_one(p: MultiPoly) -> bool:
    if len(p.terms) != 1:
        return False
    ((exps, coeff),) = p.terms.items()
    return coeff == 1 and not any(exps)


def rational_fn_normalize(num: MultiPoly, den: MultiPoly) -> RationalFn:
    """Public normalizing constructor (spec entry point)."""
    return RationalFn(num, den)
