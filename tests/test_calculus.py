"""Cartan calculus and the Schouten bracket: convention locks, graded laws,
and the pairing-identity oracle that pins every sign in the package."""

import random
from fractions import Fraction

import pytest

from schouten import calculus
from schouten.calculus import (
    bracket_pairing_sides,
    curl,
    divergence,
    exterior_derivative,
    lie_derivative,
    schouten_bracket,
    spatial_divergence,
)
from schouten.fields import (
    Chart,
    DifferentialForm,
    MultiVectorField,
    differential,
    interior_product,
    pairing,
    wedge,
)
from schouten.oracle import (
    random_form,
    random_multivector,
    random_scalar,
    run_pairing_oracle,
)
from schouten.render import format_scalar
from schouten.structures import poisson_function_bracket


@pytest.fixture
def chart():
    return Chart(("x", "y", "z"))


@pytest.fixture
def chart4():
    return Chart(("t", "x", "y", "z"), time_index=0)


class TestExteriorDerivative:
    def test_basic(self, chart):
        w = DifferentialForm(chart, 1, {(1,): chart.coordinate("x")})  # x dy
        assert exterior_derivative(w) == DifferentialForm(chart, 2, {(0, 1): chart.scalar(1)})

    def test_d_of_basis_form_vanishes(self, chart):
        assert exterior_derivative(DifferentialForm.basis_form(chart, 0)).is_zero()

    def test_exact_combination(self, chart):
        x, y = chart.coordinate("x"), chart.coordinate("y")
        w = DifferentialForm(chart, 1, {(1,): x, (0,): y})  # x dy + y dx
        assert exterior_derivative(w).is_zero()

    def test_dd_zero_randomized(self, chart):
        rng = random.Random(17)
        for grade in (0, 1, 2):
            for _ in range(8):
                w = random_form(rng, chart, grade)
                assert exterior_derivative(exterior_derivative(w)).is_zero()


class TestLieDerivative:
    def test_translation_of_linear_form(self, chart):
        w = DifferentialForm(chart, 1, {(1,): chart.coordinate("x")})  # x dy
        got = lie_derivative(MultiVectorField.basis_vector(chart, 0), w)
        assert got == DifferentialForm.basis_form(chart, 1)

    def test_constant_field_preserves_constant_volume(self, chart):
        nu = chart.volume_form()
        got = lie_derivative(MultiVectorField.basis_vector(chart, 0), nu)
        assert got.is_zero()

    def test_euler_field_rescales_dx(self, chart):
        X = MultiVectorField(chart, 1, {(0,): chart.coordinate("x")})
        got = lie_derivative(X, DifferentialForm.basis_form(chart, 0))
        assert got == DifferentialForm.basis_form(chart, 0)

    def test_cartan_formula_terms_agree(self, chart):
        rng = random.Random(23)
        for _ in range(10):
            X = random_multivector(rng, chart, 1)
            w = random_form(rng, chart, 2)
            via_cartan = interior_product(X, exterior_derivative(w)) + exterior_derivative(
                interior_product(X, w)
            )
            assert lie_derivative(X, w) == via_cartan

    def test_multivector_route_matches_bracket(self, chart):
        rng = random.Random(29)
        X = random_multivector(rng, chart, 1)
        Q = random_multivector(rng, chart, 2)
        assert lie_derivative(X, Q) == schouten_bracket(X, Q)

    def test_grade_restriction(self, chart):
        with pytest.raises(ValueError):
            lie_derivative(
                wedge(MultiVectorField.basis_vector(chart, 0), MultiVectorField.basis_vector(chart, 1)),
                DifferentialForm.basis_form(chart, 0),
            )


class TestCurl:
    def test_constant_bivector(self, chart):
        P = wedge(MultiVectorField.basis_vector(chart, 0), MultiVectorField.basis_vector(chart, 1))
        assert curl(P).is_zero()

    def test_locked_sign(self, chart):
        P = MultiVectorField(chart, 2, {(0, 1): chart.coordinate("x")})
        assert curl(P) == MultiVectorField(chart, 1, {(1,): chart.scalar(-1)})

    def test_curl_squared_vanishes(self, chart):
        rng = random.Random(31)
        for grade in (2, 3):
            for _ in range(8):
                P = random_multivector(rng, chart, grade)
                first = curl(P)
                if first.grade >= 1:
                    assert curl(first).is_zero()

    def test_divergence_of_euler_field(self, chart):
        X = MultiVectorField(
            chart, 1, {(i,): chart.coordinate(n) for i, n in enumerate(chart.variables)}
        )
        assert divergence(X) == chart.scalar(3)

    def test_divergence_of_constant_field(self, chart):
        assert divergence(MultiVectorField.basis_vector(chart, 0)).is_zero()

    def test_weighted_volume(self):
        # with nu = x dx^dy the divergence acquires the density term
        chart = Chart(("x", "y"), volume_density=RationalFnX())
        X = MultiVectorField.basis_vector(chart, 0)
        assert divergence(X, chart.volume_form()) == chart.scalar(1) / chart.coordinate("x")

    def test_spatial_divergence(self, chart4):
        x = chart4.coordinate("x")
        W = MultiVectorField(chart4, 1, {(1,): x * x})
        got = spatial_divergence(W, chart4.scalar(1))
        assert got == x * 2


def RationalFnX():
    from schouten.scalars import RationalFn

    return RationalFn.variable(2, 0)


class TestSchoutenBracketBaseCases:
    def test_function_pair_degenerate(self, chart):
        f = MultiVectorField.scalar_field(chart, 3)
        g = MultiVectorField.scalar_field(chart, 5)
        out = schouten_bracket(f, g)
        assert out.grade == 0 and out.is_zero()

    def test_vector_on_function(self, chart):
        X = MultiVectorField(chart, 1, {(0,): chart.coordinate("y")})
        f = MultiVectorField.scalar_field(chart, chart.coordinate("x"))
        got = schouten_bracket(X, f)
        assert got.scalar_value() == chart.coordinate("y")

    def test_classical_lie_bracket_formula(self, chart):
        rng = random.Random(37)
        for _ in range(15):
            X = random_multivector(rng, chart, 1)
            Y = random_multivector(rng, chart, 1)
            expected = {}
            for k in range(chart.dim):
                acc = chart.scalar(0)
                for m in range(chart.dim):
                    acc = (
                        acc
                        + X.coefficient((m,)) * Y.coefficient((k,)).derivative(m)
                        - Y.coefficient((m,)) * X.coefficient((k,)).derivative(m)
                    )
                if not acc.is_zero():
                    expected[(k,)] = acc
            assert schouten_bracket(X, Y) == MultiVectorField(chart, 1, expected)

    def test_locked_mixed_grade_value(self, chart):
        # [x d/dx, d/dx ^ d/dy] = -d/dx ^ d/dy, the convention-lock example
        X = MultiVectorField(chart, 1, {(0,): chart.coordinate("x")})
        Q = MultiVectorField(chart, 2, {(0, 1): chart.scalar(1)})
        assert schouten_bracket(X, Q) == Q.scale(-1)

    def test_constant_bivector_self_bracket(self, chart):
        Q = MultiVectorField(chart, 2, {(0, 1): chart.scalar(1)})
        assert schouten_bracket(Q, Q).is_zero()


class TestSchoutenBracketGradedLaws:
    def test_graded_symmetry(self, chart):
        rng = random.Random(41)
        for _ in range(20):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            P = random_multivector(rng, chart, p)
            Q = random_multivector(rng, chart, q)
            sign = 1 if (p * q) % 2 == 0 else -1
            assert schouten_bracket(P, Q) == schouten_bracket(Q, P).scale(sign)

    def test_leibniz_rule(self, chart):
        # [P, Q ^ R] = [P,Q] ^ R + (-1)^(pq+q) Q ^ [P,R]
        rng = random.Random(43)
        for _ in range(20):
            p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 1)
            P = random_multivector(rng, chart, p, max_degree=1)
            Q = random_multivector(rng, chart, q, max_degree=1)
            R = random_multivector(rng, chart, r, max_degree=1)
            left = schouten_bracket(P, wedge(Q, R))
            sign = 1 if (p * q + q) % 2 == 0 else -1
            right = wedge(schouten_bracket(P, Q), R) + wedge(
                Q, schouten_bracket(P, R)
            ).scale(sign)
            assert left == right

    def test_graded_jacobi_identity(self, chart):
        # (-1)^(pr) [[P,Q],R] + (-1)^(qp) [[Q,R],P] + (-1)^(rq) [[R,P],Q] = 0
        rng = random.Random(47)
        for _ in range(12):
            grades = [rng.randint(1, 2) for _ in range(3)]
            P, Q, R = (random_multivector(rng, chart, g, max_degree=1) for g in grades)
            p, q, r = grades
            terms = [
                schouten_bracket(schouten_bracket(P, Q), R).scale(1 if (p * r) % 2 == 0 else -1),
                schouten_bracket(schouten_bracket(Q, R), P).scale(1 if (q * p) % 2 == 0 else -1),
                schouten_bracket(schouten_bracket(R, P), Q).scale(1 if (r * q) % 2 == 0 else -1),
            ]
            assert (terms[0] + terms[1] + terms[2]).is_zero()


class TestPairingOracle:
    def test_symbolic_identity_randomized(self, chart):
        rng = random.Random(53)
        for _ in range(30):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            if p + q == 0 or p + q - 1 > chart.dim:
                continue
            P = random_multivector(rng, chart, p)
            Q = random_multivector(rng, chart, q)
            w = random_form(rng, chart, p + q - 1)
            left, right = bracket_pairing_sides(P, Q, w)
            assert left == right

    def test_oracle_failures_carry_their_residual(self, chart, monkeypatch):
        rng = random.Random(59)
        P = random_multivector(rng, chart, 2)
        Q = random_multivector(rng, chart, 1)
        bracket = schouten_bracket(P, Q)
        assert not bracket.is_zero()
        monkeypatch.setattr(calculus, "schouten_bracket", lambda A, B: schouten_bracket(A, B).scale(2))
        reports = run_pairing_oracle(P, Q, random.Random(7))
        forms = random.Random(7)
        assert [r.name for r in reports] == [f"pairing-oracle-form-{k}" for k in range(3)]
        for report in reports:
            # with the bracket doubled, left - right is w([P,Q]) itself
            residual = pairing(random_form(forms, chart, 2), bracket)
            assert not report.passed
            assert report.residual == format_scalar(residual, ("x0", "x1", "x2"))

    def test_oracle_passes_with_the_true_bracket(self, chart):
        rng = random.Random(71)
        for p in range(4):
            for q in range(4):
                P = random_multivector(rng, chart, p, density=1.0)
                Q = random_multivector(rng, chart, q, density=1.0)
                reports = run_pairing_oracle(P, Q, rng, test_forms=2)
                assert all(r.passed and r.residual is None for r in reports)
                if p + q == 0 or p + q - 1 > chart.dim:
                    assert [r.name for r in reports] == ["pairing-oracle-degenerate-grades"]
                else:
                    assert len(reports) == 2

    def test_classical_reduction_on_grade_one(self, chart):
        # for p = q = 1 the identity is the textbook dw(X, Y) formula
        rng = random.Random(61)
        for _ in range(20):
            X = random_multivector(rng, chart, 1)
            Y = random_multivector(rng, chart, 1)
            w = random_form(rng, chart, 1)
            lhs = pairing(w, schouten_bracket(X, Y))
            rhs = (
                X.apply_to_function(pairing(w, Y))
                - Y.apply_to_function(pairing(w, X))
                - pairing(exterior_derivative(w), wedge(X, Y))
            )
            assert lhs == rhs


class TestDerivedPoissonBracket:
    def test_functional_jacobi_for_poisson_structures(self, chart):
        rng = random.Random(67)
        x, y, z = (chart.coordinate(n) for n in chart.variables)
        so3 = MultiVectorField(chart, 2, {(1, 2): x, (0, 2): -y, (0, 1): z})
        assert schouten_bracket(so3, so3).is_zero()
        for P in [so3, MultiVectorField(chart, 2, {(0, 1): x * y})]:
            for _ in range(5):
                f = random_scalar(rng, chart)
                g = random_scalar(rng, chart)
                h = random_scalar(rng, chart)
                acc = (
                    poisson_function_bracket(P, f, poisson_function_bracket(P, g, h))
                    + poisson_function_bracket(P, h, poisson_function_bracket(P, f, g))
                    + poisson_function_bracket(P, g, poisson_function_bracket(P, h, f))
                )
                assert acc.is_zero()
