"""Poisson machinery on time-extended charts: componentwise Jacobi conditions,
Hamiltonian reduction, Jacobi pairs, the modular field and the hierarchy."""

import random
from fractions import Fraction

import pytest

from schouten import structures
from schouten.calculus import curl, divergence, schouten_bracket
from schouten.fields import Chart, MultiVectorField, wedge
from schouten.models import darboux_halphen_fixture, nonunimodular_fixture
from schouten.oracle import random_poly, random_scalar
from schouten.scalars import RationalFn
from schouten.structures import (
    ExtendedStructure,
    JacobiPair,
    PreconditionError,
    Sl2Triple,
    automorphism_hierarchy,
    characteristic_curl,
    conserved_residual,
    extended_jacobi_check,
    hamiltonian_decomposition,
    hamiltonian_field,
    invariance_conditions,
    is_poisson,
    jacobi_structure_check,
    local_bracket,
    modular_field,
    modular_field_checks,
    reduce_to_Q,
    suspension,
    symmetry_transfer,
)


@pytest.fixture
def chart4():
    return Chart(("t", "x", "y", "z"), time_index=0)


@pytest.fixture
def dh():
    return darboux_halphen_fixture()


def bivector(chart, entries):
    return MultiVectorField(chart, 2, entries)


class TestIsPoisson:
    def test_constant_bivector(self, chart4):
        assert is_poisson(bivector(chart4, {(1, 2): chart4.scalar(1)})).passed

    def test_sl2_wedges(self, dh):
        _, tr = dh
        assert is_poisson(wedge(tr.v, tr.u)).passed
        assert is_poisson(wedge(tr.w, tr.u)).passed

    def test_lie_poisson_so3(self):
        chart = Chart(("x", "y", "z"))
        x, y, z = (chart.coordinate(n) for n in chart.variables)
        P = bivector(chart, {(0, 1): z, (1, 2): x, (0, 2): -y})
        assert is_poisson(P).passed

    def test_non_poisson_with_residual(self):
        chart = Chart(("x", "y", "z", "w"))
        P = bivector(
            chart, {(0, 1): chart.coordinate("w"), (2, 3): chart.coordinate("x")}
        )
        report = is_poisson(P)
        assert not report.passed
        assert report.residual  # canonical text of [P,P]

    def test_grade_guard(self, chart4):
        with pytest.raises(ValueError):
            is_poisson(MultiVectorField.basis_vector(chart4, 1))


class TestExtendedJacobi:
    def test_static_poisson_with_zero_b(self, chart4):
        s = ExtendedStructure(
            chart4,
            MultiVectorField.zero(chart4, 1),
            bivector(chart4, {(1, 2): chart4.scalar(2)}),
        )
        assert extended_jacobi_check(s).passed

    def test_worked_example(self, chart4):
        # B = d/dx, E = t d/dx ^ d/dy: both displayed identities reduce to 0 = 0
        s = ExtendedStructure(
            chart4,
            MultiVectorField.basis_vector(chart4, 1),
            bivector(chart4, {(1, 2): chart4.coordinate("t")}),
        )
        assert extended_jacobi_check(s).passed
        assert is_poisson(s.P).passed

    def test_sl2_family(self, dh):
        # the induced decomposition of the suspension pair is Poisson
        _, tr = dh
        chart = tr.chart
        t = chart.coordinate("t")
        W = -tr.w + tr.u.scale(t) + tr.v.scale(t * t)
        s = ExtendedStructure(chart, -W, wedge(tr.v, W))
        assert extended_jacobi_check(s).passed

    def test_no_time_component_allowed(self, chart4):
        with pytest.raises(ValueError):
            ExtendedStructure(
                chart4,
                MultiVectorField.basis_vector(chart4, 0),
                MultiVectorField.zero(chart4, 2),
            )

    def test_roundtrip_decomposition(self, chart4):
        B = MultiVectorField(chart4, 1, {(1,): chart4.coordinate("y")})
        E = bivector(chart4, {(2, 3): chart4.coordinate("t")})
        s = ExtendedStructure(chart4, B, E)
        back = ExtendedStructure.from_bivector(s.P)
        assert back.B == B and back.E == E

    def test_equivalence_with_direct_check_randomized(self, chart4):
        rng = random.Random(71)
        agree = passing = 0
        for i in range(20):
            s = _random_extended_structure(chart4, rng, i % 4)
            first = extended_jacobi_check(s).passed
            second = is_poisson(s.P).passed
            agree += first == second
            passing += first
        assert agree == 20
        assert passing >= 5


def _random_extended_structure(chart4, rng, family):
    def rand_fn(deg=2):
        return RationalFn(random_poly(rng, 4, deg))

    if family == 0:  # constant E with B = d/dx: always passes
        E = bivector(
            chart4,
            {
                (1, 2): chart4.scalar(rng.randint(-3, 3) or 1),
                (1, 3): chart4.scalar(rng.randint(-3, 3)),
                (2, 3): chart4.scalar(rng.randint(-3, 3)),
            },
        )
        return ExtendedStructure(chart4, MultiVectorField.basis_vector(chart4, 1), E)
    if family == 1:  # decomposable time-dependent E with B = 0: always passes
        f = rand_fn()
        if f.is_zero():
            f = chart4.coordinate("t")
        return ExtendedStructure(
            chart4, MultiVectorField.zero(chart4, 1), bivector(chart4, {(2, 3): f})
        )
    if family == 2:  # autonomous flow suspension with B = -v, E = 0
        v = MultiVectorField(
            chart4,
            1,
            {(1,): chart4.coordinate("y"), (2,): chart4.coordinate("z") * chart4.coordinate("x")},
        )
        return ExtendedStructure(chart4, -v, MultiVectorField.zero(chart4, 2))
    # generic random data: generically fails both checks
    E = bivector(chart4, {(1, 2): rand_fn(), (2, 3): rand_fn()})
    B = MultiVectorField(chart4, 1, {(2,): rand_fn(1)})
    return ExtendedStructure(chart4, B, E)


class TestHamiltonianField:
    def test_sign_convention(self):
        chart = Chart(("x", "y"))
        P = bivector(chart, {(0, 1): chart.scalar(1)})
        got = hamiltonian_field(P, chart.coordinate("x"))
        assert got == MultiVectorField.basis_vector(chart, 1)

    def test_constant_hamiltonian(self, chart4):
        P = bivector(chart4, {(1, 2): chart4.coordinate("t")})
        assert hamiltonian_field(P, chart4.scalar(9)).is_zero()

    def test_decomposition_identity_randomized(self, chart4):
        rng = random.Random(73)
        for _ in range(10):
            B = MultiVectorField(chart4, 1, {(1,): RationalFn(random_poly(rng, 4, 1))})
            E = bivector(
                chart4,
                {(1, 2): RationalFn(random_poly(rng, 4, 2)), (2, 3): RationalFn(random_poly(rng, 4, 2))},
            )
            s = ExtendedStructure(chart4, B, E)
            h = random_scalar(rng, chart4)
            assert hamiltonian_field(s.P, h) == hamiltonian_decomposition(s, h)


def _constructed_triple(chart4, rng):
    """Choose (B, E, h) with B(h) = 1 and P Poisson; derive v from P(dh)."""
    E = bivector(
        chart4,
        {
            (1, 2): chart4.scalar(rng.randint(-3, 3)),
            (1, 3): chart4.scalar(rng.randint(-3, 3)),
            (2, 3): chart4.scalar(rng.randint(-3, 3) or 2),
        },
    )
    B = MultiVectorField.basis_vector(chart4, 1)
    g = random_scalar(rng, chart4).substitute(1, Fraction(0))
    h = chart4.coordinate("x") + g
    s = ExtendedStructure(chart4, B, E)
    V = hamiltonian_field(s.P, h)
    v = V - MultiVectorField.basis_vector(chart4, 0)
    return s, v, h, V


class TestReduction:
    def test_constructed_triples(self, chart4):
        rng = random.Random(79)
        for _ in range(10):
            s, v, h, V = _constructed_triple(chart4, rng)
            assert is_poisson(s.P).passed
            assert V.coefficient((0,)) == chart4.scalar(1)
            Q, checks = reduce_to_Q(s, v, h)
            assert all(c.passed for c in checks), [
                (c.name, c.residual) for c in checks if not c.passed
            ]

    def test_zero_velocity(self, chart4):
        s = ExtendedStructure(
            chart4,
            MultiVectorField.zero(chart4, 1),
            bivector(chart4, {(1, 2): chart4.scalar(1)}),
        )
        Q, checks = reduce_to_Q(s, MultiVectorField.zero(chart4, 1))
        assert Q == s.E
        assert all(c.passed for c in checks)

    def test_suspension_pair_collapses(self, dh):
        # P = (dt+v) ^ W has Q = E + v ^ B = 0 so every check is immediate
        _, tr = dh
        chart = tr.chart
        t = chart.coordinate("t")
        W = -tr.w + tr.u.scale(t) + tr.v.scale(t * t)
        s = ExtendedStructure(chart, -W, wedge(tr.v, W))
        Q, checks = reduce_to_Q(s, tr.v, None)
        assert Q.is_zero()
        assert all(c.passed for c in checks)

    def test_invariance_agrees_with_jacobi_on_triples(self, chart4):
        rng = random.Random(83)
        for _ in range(6):
            s, v, h, _ = _constructed_triple(chart4, rng)
            assert invariance_conditions(v, s).passed
            assert extended_jacobi_check(s).passed

    def test_invariance_autonomous_case(self, chart4):
        # shear flow: both d/dx and d/dx ^ d/dz commute with y d/dx
        v = MultiVectorField(chart4, 1, {(1,): chart4.coordinate("y")})
        s = ExtendedStructure(
            chart4,
            MultiVectorField.basis_vector(chart4, 1),
            bivector(chart4, {(1, 3): chart4.scalar(4)}),
        )
        assert invariance_conditions(v, s).passed


class TestJacobiPairs:
    def test_sl2_pair(self, dh):
        _, tr = dh
        assert jacobi_structure_check(JacobiPair(wedge(tr.w, tr.v), tr.u)).passed

    def test_poisson_with_zero_b(self, chart4):
        E = bivector(chart4, {(1, 2): chart4.scalar(1)})
        assert jacobi_structure_check(
            JacobiPair(E, MultiVectorField.zero(chart4, 1))
        ).passed

    def test_family_identically_in_t(self, dh):
        _, tr = dh
        chart = tr.chart
        t = chart.coordinate("t")
        E_t = wedge(tr.v, -tr.w + tr.u.scale(t))
        B_t = tr.u + tr.v.scale(2 * t)
        assert jacobi_structure_check(JacobiPair(E_t, B_t)).passed

    def test_failure_carries_residual(self, chart4):
        E = bivector(chart4, {(1, 2): chart4.coordinate("z")})
        # B = d/dz: B^E = z (@x ^ @y ^ @z) != 0 while [E,E] = 0, and [E,B] = @x ^ @y
        B = MultiVectorField.basis_vector(chart4, 3)
        report = jacobi_structure_check(JacobiPair(E, B))
        assert not report.passed and report.residual
        assert report.residual.split("; ") == [
            "[E,E] - 2 B^E = -2*z*(@x /\\ @y /\\ @z)",
            "[E,B] = (@x /\\ @y)",
        ]


class TestLocalBracket:
    def test_antisymmetry_diagonal(self, dh):
        _, tr = dh
        pair = JacobiPair(wedge(tr.w, tr.v), tr.u)
        f = tr.chart.coordinate("x") * tr.chart.coordinate("y")
        assert local_bracket(pair, f, f).is_zero()

    def test_constants_cancel(self, dh):
        _, tr = dh
        pair = JacobiPair(wedge(tr.w, tr.v), tr.u)
        f = tr.chart.scalar(3)
        g = tr.chart.scalar(-7)
        assert local_bracket(pair, f, g).is_zero()

    def test_functional_jacobi_identity(self, dh):
        _, tr = dh
        chart = tr.chart
        pair = JacobiPair(wedge(tr.w, tr.v), tr.u)
        rng = random.Random(89)
        for _ in range(5):
            f, g, h = (random_scalar(rng, chart, 1) for _ in range(3))
            acc = (
                local_bracket(pair, f, local_bracket(pair, g, h))
                + local_bracket(pair, h, local_bracket(pair, f, g))
                + local_bracket(pair, g, local_bracket(pair, h, f))
            )
            assert acc.is_zero()

    def test_skew_randomized(self, dh):
        _, tr = dh
        pair = JacobiPair(wedge(tr.w, tr.v), tr.u)
        rng = random.Random(97)
        f = random_scalar(rng, tr.chart)
        g = random_scalar(rng, tr.chart)
        assert (local_bracket(pair, f, g) + local_bracket(pair, g, f)).is_zero()


class TestModularField:
    def test_constant_coefficients_unimodular(self, chart4):
        P = bivector(chart4, {(1, 2): chart4.scalar(1)})
        assert modular_field(P).is_zero()

    def test_automorphism_property(self):
        chart = Chart(("x", "y"))
        P = bivector(chart, {(0, 1): chart.coordinate("x")})
        checks = modular_field_checks(P)
        assert all(c.passed for c in checks)

    def test_divergence_law_randomized(self):
        chart = Chart(("x", "y"))
        rng = random.Random(101)
        for _ in range(10):
            f = RationalFn(random_poly(rng, 2, 2))
            if f.is_zero():
                f = chart.coordinate("x")
            P = bivector(chart, {(0, 1): f})  # plane bivectors are always Poisson
            h = RationalFn(random_poly(rng, 2, 2))
            checks = modular_field_checks(P, None, [h])
            assert all(c.passed for c in checks)


class TestHierarchy:
    def test_trivial_when_modular_field_vanishes(self, chart4):
        P = bivector(chart4, {(1, 2): chart4.scalar(1)})
        B = MultiVectorField.basis_vector(chart4, 3)
        levels = automorphism_hierarchy(B, modular_field(P), P, 3)
        assert all(level.is_zero() for level in levels)

    def test_anchor_equal_to_modular_field_truncates(self):
        chart = Chart(("x", "y"))
        P = bivector(chart, {(0, 1): chart.coordinate("x")})
        p_nu = modular_field(P)
        levels = automorphism_hierarchy(p_nu, p_nu, P, 2)
        assert levels[0].is_zero() and levels[1].is_zero()

    def test_depth_four_nonvacuous(self):
        chart, P, B, _ = nonunimodular_fixture()
        levels = automorphism_hierarchy(B, modular_field(P), P, 4)
        assert len(levels) == 4
        for level in levels:
            assert not level.is_zero()
            assert schouten_bracket(level, P).is_zero()

    def test_precondition_refused(self):
        chart, P, _, _ = nonunimodular_fixture()
        # L_X P = y (@x ^ @y) != 0 for X = y d/dx and P = x (@x ^ @y)
        bad = MultiVectorField(chart, 1, {(0,): chart.coordinate("y")})
        assert not schouten_bracket(bad, P).is_zero()
        with pytest.raises(PreconditionError) as excinfo:
            automorphism_hierarchy(bad, modular_field(P), P, 2)
        outcomes = {r.name: r.passed for r in excinfo.value.reports}
        assert outcomes == {
            "hierarchy-pre-B-automorphism": False,
            "hierarchy-pre-modular-automorphism": True,
        }

    def test_depth_validated(self):
        chart, P, B, _ = nonunimodular_fixture()
        with pytest.raises(ValueError):
            automorphism_hierarchy(B, modular_field(P), P, 0)


class TestSymmetryTransfer:
    def test_constant_h(self):
        chart, P, _, _ = nonunimodular_fixture()
        main, _ = symmetry_transfer(modular_field(P), P, chart.scalar(5))
        assert main.passed

    def test_unimodular_case(self, chart4):
        P = bivector(chart4, {(1, 2): chart4.scalar(1)})
        main, casimir = symmetry_transfer(modular_field(P), P, chart4.coordinate("x"))
        assert main.passed and casimir.passed

    def test_randomized_poisson(self):
        chart = Chart(("x", "y"))
        rng = random.Random(103)
        for _ in range(10):
            f = RationalFn(random_poly(rng, 2, 2))
            if f.is_zero():
                f = chart.coordinate("y")
            P = bivector(chart, {(0, 1): f})
            h = RationalFn(random_poly(rng, 2, 2))
            main, _ = symmetry_transfer(modular_field(P), P, h)
            assert main.passed


class TestSuspension:
    def test_zero_velocity(self, chart4):
        V = suspension(MultiVectorField.zero(chart4, 1))
        assert V == MultiVectorField.basis_vector(chart4, 0)

    def test_darboux_halphen(self, dh):
        _, tr = dh
        V = suspension(tr.v)
        assert V.coefficient((0,)) == tr.chart.scalar(1)
        assert V - MultiVectorField.basis_vector(tr.chart, 0) == tr.v

    def test_rejects_time_component(self, chart4):
        with pytest.raises(ValueError):
            suspension(MultiVectorField.basis_vector(chart4, 0))

    def test_conserved_residual_expansion(self, chart4):
        v = MultiVectorField(chart4, 1, {(1,): chart4.coordinate("y")})
        h = chart4.coordinate("x") - chart4.coordinate("t") * chart4.coordinate("y")
        assert conserved_residual(v, h).is_zero()
        assert (
            conserved_residual(v, chart4.coordinate("x"))
            == chart4.coordinate("y")
        )


class TestCharacteristicCurl:
    @pytest.fixture
    def parts(self, chart4):
        x, y, z = (chart4.coordinate(n) for n in ("x", "y", "z"))
        Q = bivector(chart4, {(1, 2): x * y, (2, 3): z * x})
        B = MultiVectorField(chart4, 1, {(3,): y})
        assert not curl(Q).is_zero()
        return Q, B

    def test_volume_invariant_reduces_to_curl_of_Q(self, chart4, parts):
        Q, B = parts
        x, y = chart4.coordinate("x"), chart4.coordinate("y")
        V = suspension(MultiVectorField(chart4, 1, {(1,): -y, (2,): x}))
        assert divergence(V).is_zero()
        result, report = characteristic_curl(Q, V, B)
        assert result == curl(Q)
        assert report.name == "characteristic-curl-volume-invariant"
        assert report.passed and report.residual is None

    def test_non_invariant_volume_adds_divergence_times_B(self, chart4, parts):
        Q, B = parts
        x, y = chart4.coordinate("x"), chart4.coordinate("y")
        V = suspension(MultiVectorField(chart4, 1, {(1,): x * y}))
        assert divergence(V) == y
        result, report = characteristic_curl(Q, V, B)
        assert result == curl(Q) + B.scale(y)
        assert result != curl(Q)
        assert report.name == "characteristic-curl-volume-not-invariant"
        assert report.passed


class TestDarbouxHalphenFixture:
    def test_builds_without_brackets(self, monkeypatch):
        def refuse(P, Q):
            raise AssertionError("the fixture evaluated a bracket")

        monkeypatch.setattr(structures, "schouten_bracket", refuse)
        chart, tr = darboux_halphen_fixture()
        assert isinstance(tr, Sl2Triple)
        assert tr.chart is chart and chart.variables == ("t", "x", "y", "z")
