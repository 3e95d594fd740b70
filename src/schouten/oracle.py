"""Exact pairing-identity oracle and seeded generators for fields and scalars.

`run_pairing_oracle` tests the Schouten bracket of two given fields against
freshly drawn test forms: for each form w it computes both sides of the
pairing identity exactly (`calculus.bracket_pairing_sides`) and checks that
their difference is zero, so a failure carries the canonical residual.  The
generators draw small polynomial coefficients from a seeded `random.Random`,
so every run is reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .calculus import bracket_pairing_sides
from .fields import Chart, DifferentialForm, MultiVectorField
from .report import CheckReport, check, passed
from .scalars import MultiPoly, RationalFn


def random_poly(
    rng: random.Random,
    nvars: int,
    max_degree: int = 2,
    max_terms: int = 4,
    bound: int = 3,
) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-bound, bound))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return MultiPoly(nvars, {e: c for e, c in terms.items() if c})


def random_scalar(rng: random.Random, chart: Chart, max_degree: int = 2) -> RationalFn:
    return RationalFn(random_poly(rng, chart.dim, max_degree))


def random_multivector(
    rng: random.Random, chart: Chart, grade: int, max_degree: int = 2, density: float = 0.8
) -> MultiVectorField:
    coeffs = {}
    for idx in itertools.combinations(range(chart.dim), grade):
        if rng.random() < density:
            coeffs[idx] = RationalFn(random_poly(rng, chart.dim, max_degree))
    return MultiVectorField(chart, grade, coeffs)


def random_form(
    rng: random.Random, chart: Chart, grade: int, max_degree: int = 2, density: float = 0.8
) -> DifferentialForm:
    coeffs = {}
    for idx in itertools.combinations(range(chart.dim), grade):
        if rng.random() < density:
            coeffs[idx] = RationalFn(random_poly(rng, chart.dim, max_degree))
    return DifferentialForm(chart, grade, coeffs)


def run_pairing_oracle(
    P: MultiVectorField,
    Q: MultiVectorField,
    rng: random.Random,
    test_forms: int = 3,
    name: str = "pairing-oracle",
) -> list[CheckReport]:
    """Pairing identity of [P,Q] against freshly drawn test forms."""
    chart = P.chart
    w_grade = P.grade + Q.grade - 1
    if w_grade < 0 or w_grade > chart.dim:
        return [passed(f"{name}-degenerate-grades")]
    reports = []
    for k in range(test_forms):
        left, right = bracket_pairing_sides(P, Q, random_form(rng, chart, w_grade))
        reports.append(check(f"{name}-form-{k}", left - right))
    return reports
