"""Differential test of `schouten_bracket` against an independent sympy
implementation of the closed form in the `calculus` docstring:

    [P,Q] = (-1)^(p+1) sum_m dR(P)/d xi_m ^ dQ/dx_m
          + (-1)^(pq+q+1) sum_m dR(Q)/d xi_m ^ dP/dx_m

A multivector is a dict from strictly increasing index tuples to sympy
expressions; the wedge, the right Grassmann derivative and the coefficient
arithmetic are all written here, so only the formula is shared.
"""

import itertools
import random

import pytest

sp = pytest.importorskip("sympy")

from schouten.calculus import schouten_bracket  # noqa: E402
from schouten.fields import Chart, MultiVectorField  # noqa: E402
from schouten.oracle import random_poly  # noqa: E402
from schouten.scalars import MultiPoly, RationalFn  # noqa: E402

X = sp.symbols("x0:3")


def poly_to_sympy(poly: MultiPoly):
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator) * sp.Mul(*(x**e for x, e in zip(X, exps)))
            for exps, c in poly.terms.items()
        )
    )


def field_to_sympy(F: MultiVectorField) -> dict:
    return {idx: poly_to_sympy(c.num) / poly_to_sympy(c.den) for idx, c in F.coeffs.items()}


def wedge_basis(a: tuple, b: tuple):
    """(sign, sorted indices) of xi_a ^ xi_b, or None when they share an index."""
    if set(a) & set(b):
        return None
    word = a + b
    inversions = sum(1 for i, j in itertools.combinations(range(len(word)), 2) if word[i] > word[j])
    return (-1) ** inversions, tuple(sorted(word))


def wedge(A: dict, B: dict) -> dict:
    out = {}
    for (a, ca), (b, cb) in itertools.product(A.items(), B.items()):
        basis = wedge_basis(a, b)
        if basis is not None:
            sign, idx = basis
            out[idx] = out.get(idx, 0) + sign * ca * cb
    return out


def right_xi_derivative(A: dict, m: int) -> dict:
    """Move xi_m to the right end of each monomial, then drop it."""
    out = {}
    for idx, c in A.items():
        if m in idx:
            pos = idx.index(m)
            out[idx[:pos] + idx[pos + 1 :]] = (-1) ** (len(idx) - 1 - pos) * c
    return out


def add(A: dict, B: dict, sign: int) -> dict:
    out = dict(A)
    for idx, c in B.items():
        out[idx] = out.get(idx, 0) + sign * c
    return out


def sympy_bracket(P: dict, p: int, Q: dict, q: int) -> dict:
    if p == 0 and q == 0:
        return {}
    out = {}
    for m, x in enumerate(X):
        dQ = {idx: sp.diff(c, x) for idx, c in Q.items()}
        dP = {idx: sp.diff(c, x) for idx, c in P.items()}
        out = add(out, wedge(right_xi_derivative(P, m), dQ), (-1) ** (p + 1))
        out = add(out, wedge(right_xi_derivative(Q, m), dP), (-1) ** (p * q + q + 1))
    return out


def is_zero(expr) -> bool:
    return sp.expand(sp.numer(sp.together(expr))) == 0


def random_coefficient(rng: random.Random, chart: Chart, rational: bool) -> RationalFn:
    num = RationalFn(random_poly(rng, chart.dim, 2, 3))
    if not rational or rng.random() < 0.3:
        return num
    # one small denominator per coefficient keeps every gcd in the bracket cheap
    x0, x1, x2 = (chart.coordinate(v) for v in chart.variables)
    return num / rng.choice((x0 + 1, x1 - 2, x0 * x2 + 3))


def random_field(rng: random.Random, chart: Chart, grade: int, rational: bool) -> MultiVectorField:
    coeffs = {}
    for idx in itertools.combinations(range(chart.dim), grade):
        if rng.random() < 0.7:
            coeffs[idx] = random_coefficient(rng, chart, rational)
    return MultiVectorField(chart, grade, coeffs)


@pytest.mark.parametrize("rational", [False, True], ids=["polynomial", "rational"])
@pytest.mark.parametrize("p, q", [(p, q) for p in range(4) for q in range(4)])
def test_bracket_matches_sympy_closed_form(p, q, rational):
    chart = Chart(("x0", "x1", "x2"))
    rng = random.Random(1000 + 17 * p + 5 * q + rational)
    for _ in range(2):
        P = random_field(rng, chart, p, rational)
        Q = random_field(rng, chart, q, rational)
        got = schouten_bracket(P, Q)
        assert got.grade == max(p + q - 1, 0)
        expected = sympy_bracket(field_to_sympy(P), p, field_to_sympy(Q), q)
        ours = field_to_sympy(got)
        for idx in set(expected) | set(ours):
            assert is_zero(expected.get(idx, 0) - ours.get(idx, 0)), (idx, P, Q)
