"""Poisson and Jacobi structure on time-extended charts.

The central objects are bivectors P = B ^ dt + E on a chart I x M with a
distinguished time variable, where B is a time-dependent vector field and E
a time-dependent bivector on the M variables.  Such a P is Poisson exactly
when

    [E,E] = 2 B ^ dE/dt        [E,B] = B ^ dB/dt

and the machinery here verifies that equivalence, builds Hamiltonian fields
P(dh), reduces to one-parameter families Q = E + v ^ B on M, checks Jacobi
pairs, and generates the recursive automorphism hierarchy anchored at the
modular (curl) vector field of P.
"""

from __future__ import annotations

from typing import Sequence

from .calculus import (
    curl,
    divergence,
    schouten_bracket,
)
from .fields import (
    Chart,
    DifferentialForm,
    MultiVectorField,
    apply_to_covector,
    contract_form_into_multivector,
    differential,
    pairing,
    wedge,
)
from .report import CheckReport, check, passed
from .scalars import RationalFn


class PreconditionError(ValueError):
    """An operation's stated precondition failed; carries the evidence."""

    def __init__(self, message: str, reports: Sequence[CheckReport] = ()):
        super().__init__(message)
        self.reports = tuple(reports)


def require(message: str, reports: Sequence[CheckReport]) -> None:
    """Raise PreconditionError unless every report passed.

    The error text is `message: name: residual; ...` over the failures, and
    the error carries all of `reports`.
    """
    bad = [r for r in reports if not r.passed]
    if bad:
        raise PreconditionError(
            message + ": " + "; ".join(f"{r.name}: {r.residual}" for r in bad),
            reports,
        )


def is_poisson(P: MultiVectorField, name: str = "poisson") -> CheckReport:
    """Pass iff the Schouten self-bracket [P,P] vanishes exactly."""
    if P.grade != 2:
        raise ValueError("is_poisson requires a grade-2 field")
    return check(name, schouten_bracket(P, P))


def suspension(v: MultiVectorField) -> MultiVectorField:
    """V = dt + v on the time-extended chart."""
    t = v.chart.require_time()
    if v.has_component(t):
        raise ValueError("field already has a dt component")
    return v + MultiVectorField.basis_vector(v.chart, t)


def conserved_residual(v: MultiVectorField, h: RationalFn) -> RationalFn:
    """V(h) = h_t + v(h); zero iff h is conserved along v."""
    return suspension(v).apply_to_function(h)


class ExtendedStructure:
    """A bivector B ^ dt + E assembled from time-dependent data on M."""

    __slots__ = ("chart", "B", "E")

    def __init__(self, chart: Chart, B: MultiVectorField, E: MultiVectorField):
        t = chart.require_time()
        if B.grade != 1 or E.grade != 2:
            raise ValueError("need grade-1 B and grade-2 E")
        if B.has_component(t) or E.has_component(t):
            raise ValueError("B and E must have no dt component")
        self.chart = chart
        self.B = B
        self.E = E

    @property
    def P(self) -> MultiVectorField:
        t = self.chart.time_index
        dt = MultiVectorField.basis_vector(self.chart, t)
        return wedge(self.B, dt) + self.E

    @classmethod
    def from_bivector(cls, P: MultiVectorField) -> "ExtendedStructure":
        """Split a bivector on I x M into its (B, E) components."""
        t = P.chart.require_time()
        if P.grade != 2:
            raise ValueError("need a grade-2 field")
        b_coeffs = {}
        e_coeffs = {}
        for idx, c in P.coeffs.items():
            if t in idx:
                other = idx[0] if idx[1] == t else idx[1]
                # B ^ dt carries coefficient -B^i on the sorted pair (t, i)
                b_coeffs[(other,)] = -c if idx[0] == t else c
            else:
                e_coeffs[idx] = c
        return cls(
            P.chart,
            MultiVectorField(P.chart, 1, b_coeffs),
            MultiVectorField(P.chart, 2, e_coeffs),
        )


def extended_jacobi_check(s: ExtendedStructure, name: str = "extended-jacobi") -> CheckReport:
    """Componentwise Poisson condition for B ^ dt + E.

    Passes iff [E,E] = 2 B ^ dE/dt and [E,B] = B ^ dB/dt hold exactly;
    equivalent to is_poisson(s.P) (the equivalence is itself under test
    elsewhere, so the two are computed by different routes).
    """
    t = s.chart.time_index
    return check(
        name,
        ("[E,E] - 2 B^dE/dt", schouten_bracket(s.E, s.E) - wedge(s.B, s.E.derivative(t)).scale(2)),
        ("[E,B] - B^dB/dt", schouten_bracket(s.E, s.B) - wedge(s.B, s.B.derivative(t))),
    )


def hamiltonian_field(P: MultiVectorField, h: RationalFn) -> MultiVectorField:
    """P(dh): contraction of the bivector with dh in its first slot."""
    return apply_to_covector(P, differential(h, P.chart))


def hamiltonian_decomposition(s: ExtendedStructure, h: RationalFn) -> MultiVectorField:
    """B(h) dt + E(dh) - h_t B, the split form of P(dh) on I x M."""
    chart = s.chart
    t = chart.time_index
    dt_vec = MultiVectorField.basis_vector(chart, t)
    spatial_dh = differential(h, chart)
    bh = RationalFn.zero(chart.dim)
    for (i,), c in s.B.coeffs.items():
        bh = bh + c * h.derivative(i)
    return (
        dt_vec.scale(bh)
        + contract_form_into_multivector(spatial_dh, s.E)
        - s.B.scale(h.derivative(t))
    )


def reduce_to_Q(
    s: ExtendedStructure,
    v: MultiVectorField,
    h: RationalFn | None = None,
) -> tuple[MultiVectorField, list[CheckReport]]:
    """Q = E + v ^ B with its companion checks.

    Checks: (i) Q Poisson, (ii) Q compatible with P, and, when the
    Hamiltonian h of the triple is supplied, (iii) h is a Casimir of Q.
    """
    Q = s.E + wedge(v, s.B)
    checks = [
        is_poisson(Q, "reduced-Q-poisson"),
        check("reduced-Q-compatible", schouten_bracket(s.P, Q)),
    ]
    if h is not None:
        checks.append(check("reduced-Q-casimir", hamiltonian_field(Q, h)))
    return Q, checks


def invariance_conditions(
    v: MultiVectorField, s: ExtendedStructure, name: str = "invariance"
) -> CheckReport:
    """dB/dt + [v,B] = 0 and dE/dt + [v,E] = B ^ dv/dt, exactly."""
    t = s.chart.time_index
    return check(
        name,
        ("dB/dt + [v,B]", s.B.derivative(t) + schouten_bracket(v, s.B)),
        (
            "dE/dt + [v,E] - B^dv/dt",
            s.E.derivative(t) + schouten_bracket(v, s.E) - wedge(s.B, v.derivative(t)),
        ),
    )


class JacobiPair:
    """Bivector/vector pair subject to [E,E] = 2 B ^ E, [E,B] = 0."""

    __slots__ = ("E", "B")

    def __init__(self, E: MultiVectorField, B: MultiVectorField):
        if E.grade != 2 or B.grade != 1:
            raise ValueError("JacobiPair needs grade-2 E and grade-1 B")
        self.E = E
        self.B = B


def jacobi_structure_check(j: JacobiPair, name: str = "jacobi-structure") -> CheckReport:
    return check(
        name,
        ("[E,E] - 2 B^E", schouten_bracket(j.E, j.E) - wedge(j.B, j.E).scale(2)),
        ("[E,B]", schouten_bracket(j.E, j.B)),
    )


def local_bracket(j: JacobiPair, f: RationalFn, g: RationalFn) -> RationalFn:
    """{f,g} = E(df ^ dg) + f B(g) - g B(f).

    Satisfies the functional Jacobi identity whenever the pair passes
    jacobi_structure_check; it is not a derivation unless B = 0.
    """
    chart = j.E.chart
    df = differential(f, chart)
    dg = differential(g, chart)
    e_part = pairing(wedge(df, dg), j.E)
    return e_part + f * j.B.apply_to_function(g) - g * j.B.apply_to_function(f)


def poisson_function_bracket(P: MultiVectorField, f: RationalFn, g: RationalFn) -> RationalFn:
    """{f,g} = P(df ^ dg) for a bivector P."""
    chart = P.chart
    return pairing(wedge(differential(f, chart), differential(g, chart)), P)


def modular_field(P: MultiVectorField, nu: DifferentialForm | None = None) -> MultiVectorField:
    """The curl D_nu(P) of a bivector: its modular vector field."""
    if P.grade != 2:
        raise ValueError("modular_field requires a grade-2 field")
    return curl(P, nu)


def modular_field_checks(
    P: MultiVectorField,
    nu: DifferentialForm | None = None,
    hamiltonians: Sequence[RationalFn] = (),
) -> list[CheckReport]:
    """Automorphism property of the modular field and its divergence law.

    div_nu(P(dh)) = p_nu(h) expresses that the modular field measures how
    far Hamiltonian flows are from volume preserving.
    """
    p_nu = modular_field(P, nu)
    checks = [check("modular-automorphism", schouten_bracket(p_nu, P))]
    for k, h in enumerate(hamiltonians):
        lhs = divergence(hamiltonian_field(P, h), nu)
        rhs = p_nu.apply_to_function(h)
        checks.append(check(f"modular-divergence-law-{k}", lhs - rhs))
    return checks


def automorphism_hierarchy(
    B: MultiVectorField,
    p_nu: MultiVectorField,
    P: MultiVectorField,
    depth: int,
) -> list[MultiVectorField]:
    """X_1 = [B, p_nu], X_{k+1} = [X_k, p_nu]: the recursive automorphism chain.

    Refuses to recurse unless both anchors are verified automorphisms of P;
    every returned field then satisfies [X_k, P] = 0 by the graded Jacobi
    identity (which the caller can and should verify exactly).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pre = [
        check("hierarchy-pre-B-automorphism", schouten_bracket(B, P)),
        check("hierarchy-pre-modular-automorphism", schouten_bracket(p_nu, P)),
    ]
    require("hierarchy anchors are not automorphisms", pre)
    levels = []
    current = B
    for _ in range(depth):
        current = schouten_bracket(current, p_nu)
        levels.append(current)
    return levels


def symmetry_transfer(
    p_nu: MultiVectorField,
    P: MultiVectorField,
    h: RationalFn,
    name: str = "symmetry-transfer",
) -> tuple[CheckReport, CheckReport]:
    """[p_nu, P(dh)] = P(d(p_nu(h))), plus whether p_nu(h) is a Casimir of P."""
    lhs = schouten_bracket(p_nu, hamiltonian_field(P, h))
    rhs = hamiltonian_field(P, p_nu.apply_to_function(h))
    main = check(name, lhs - rhs)
    casimir = check(f"{name}-casimir", rhs)
    return main, casimir


def characteristic_curl(
    Q: MultiVectorField,
    V: MultiVectorField,
    B: MultiVectorField,
    nu: DifferentialForm | None = None,
) -> tuple[MultiVectorField, CheckReport]:
    """D_nu(Q) + div_nu(V) B, the curl generator in characteristic form.

    The companion check records that the correction term drops out when the
    volume form is invariant under the suspension flow (div_nu(V) = 0), so
    the characteristic curl of P reduces to the curl of Q.
    """
    div_v = divergence(V, nu)
    result = curl(Q, nu) + B.scale(div_v)
    if div_v.is_zero():
        report = check("characteristic-curl-volume-invariant", result - curl(Q, nu))
    else:
        report = passed("characteristic-curl-volume-not-invariant")
    return result, report


# ---------------------------------------------------------------------------
# the abstract sl(2,R) relations
# ---------------------------------------------------------------------------


class Sl2Triple:
    """Vector fields subject to [v,u] = -2v, [w,u] = 2w, [v,w] = u."""

    __slots__ = ("v", "u", "w")

    def __init__(self, v: MultiVectorField, u: MultiVectorField, w: MultiVectorField):
        self.v = v
        self.u = u
        self.w = w

    @property
    def chart(self) -> Chart:
        return self.v.chart


def sl2_verify(tr: Sl2Triple, name: str = "sl2-relations") -> CheckReport:
    return check(
        name,
        ("[v,u]+2v", schouten_bracket(tr.v, tr.u) + tr.v.scale(2)),
        ("[w,u]-2w", schouten_bracket(tr.w, tr.u) - tr.w.scale(2)),
        ("[v,w]-u", schouten_bracket(tr.v, tr.w) - tr.u),
    )


# Check kinds of `.fld` documents and the `check` command: kind -> (number of
# field names, build(label, *fields)).  Each build looks its check function up
# by module-global name when it runs, so a function rebound on this module
# (as the benchmark's tracer does) is the one that is called.
CHECK_KINDS = {
    "poisson": (1, lambda label, P: is_poisson(P, label)),
    "extended": (
        2,
        lambda label, B, E: extended_jacobi_check(ExtendedStructure(B.chart, B, E), label),
    ),
    "jacobi": (2, lambda label, E, B: jacobi_structure_check(JacobiPair(E, B), label)),
    "sl2": (3, lambda label, v, u, w: sl2_verify(Sl2Triple(v, u, w), label)),
}
