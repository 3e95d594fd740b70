"""Concrete geometric models: the sl(2,R) suite, the Darboux-Halphen system,
the covariant three-dimensional construction, and the fluid-mechanics
structures (symplectic form, helicity, conformal family, symmetry hierarchy).

Fluid fixtures are not hardcoded data: they are built by `build_fluid_data`,
which solves/verifies the constraint system

    grad(phi) = -v x B - E        phi_t = v . E        B_t + curl E = 0

exactly and rejects any candidate with vanishing Liouville density
rho = -B . grad(phi).  The constraint equations, not stored values, are the
oracle for every shipped fixture.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .calculus import (
    divergence,
    exterior_derivative,
    lie_derivative,
    schouten_bracket,
    spatial_divergence,
)
from .fields import (
    Chart,
    DifferentialForm,
    MultiVectorField,
    differential,
    interior_product,
    pairing,
    wedge,
)
from .dsl import parse
from .report import CheckReport, check
from .scalars import MultiPoly, RationalFn
from .structures import (
    ExtendedStructure,
    JacobiPair,
    Sl2Triple,
    hamiltonian_field,
    is_poisson,
    jacobi_structure_check,
    modular_field,
    require,
    sl2_verify,
    suspension,
)


class NonIntegrableError(ValueError):
    """An antiderivative left the rational-function field (log terms)."""


class DegenerateStructureError(ValueError):
    """A structure required to be nondegenerate is degenerate."""


# ---------------------------------------------------------------------------
# three-vector dictionaries on a chart with three spatial variables
# ---------------------------------------------------------------------------


class Vector3Bridge:
    """Dictionaries between 3-component fields and 1-/2-forms on R^3.

    Under these dictionaries the exterior derivative realizes grad, curl and
    div; both dictionaries are exact inverses of each other.  Time, when the
    chart has it, is a parameter.
    """

    __slots__ = ("chart",)

    def __init__(self, chart: Chart):
        if len(chart.spatial_indices) != 3:
            raise ValueError("Vector3Bridge needs exactly three spatial variables")
        self.chart = chart

    @property
    def idx(self) -> tuple[int, int, int]:
        return self.chart.spatial_indices

    def vector(self, components: Sequence) -> MultiVectorField:
        return MultiVectorField(
            self.chart,
            1,
            {(i,): self.chart.scalar(c) for i, c in zip(self.idx, components)},
        )

    def components(self, X: MultiVectorField) -> list[RationalFn]:
        t = self.chart.time_index
        if t is not None and X.has_component(t):
            raise ValueError("field has a time component")
        return [X.coefficient((i,)) for i in self.idx]

    def one_form(self, X: MultiVectorField) -> DifferentialForm:
        """X . dx"""
        comps = self.components(X)
        return DifferentialForm(
            self.chart, 1, {(i,): c for i, c in zip(self.idx, comps)}
        )

    def two_form(self, X: MultiVectorField) -> DifferentialForm:
        """X . dx ^ dx: X1 dy^dz + X2 dz^dx + X3 dx^dy"""
        a, b, c = self.components(X)
        i1, i2, i3 = self.idx
        return DifferentialForm(
            self.chart,
            2,
            {(i2, i3): a, (i1, i3): -b, (i1, i2): c},
        )

    def from_two_form(self, w: DifferentialForm) -> MultiVectorField:
        i1, i2, i3 = self.idx
        return self.vector(
            [w.coefficient((i2, i3)), -w.coefficient((i1, i3)), w.coefficient((i1, i2))]
        )

    def dot(self, X: MultiVectorField, Y: MultiVectorField) -> RationalFn:
        acc = RationalFn.zero(self.chart.dim)
        for a, b in zip(self.components(X), self.components(Y)):
            acc = acc + a * b
        return acc

    def cross(self, X: MultiVectorField, Y: MultiVectorField) -> MultiVectorField:
        a1, a2, a3 = self.components(X)
        b1, b2, b3 = self.components(Y)
        return self.vector([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])

    def grad(self, f: RationalFn) -> MultiVectorField:
        return self.vector([f.derivative(i) for i in self.idx])

    def curl3(self, X: MultiVectorField) -> MultiVectorField:
        return self.from_two_form(
            exterior_derivative(self.one_form(X), self.idx)
        )


# ---------------------------------------------------------------------------
# Poincare-lemma integration over the rational-function field
# ---------------------------------------------------------------------------


def antiderivative(f: RationalFn, var: int) -> RationalFn:
    """Formal antiderivative in one variable; integrands must be polynomial
    in that variable (a denominator involving it would produce logarithms)."""
    if f.is_zero():
        return f
    if f.den.degree_in(var) > 0:
        raise NonIntegrableError(
            "antiderivative leaves the rational-function field "
            "(denominator depends on the integration variable)"
        )
    terms = {}
    for exps, coeff in f.num.terms.items():
        new = list(exps)
        new[var] += 1
        terms[tuple(new)] = coeff * Fraction(1, new[var])
    return RationalFn(MultiPoly(f.nvars, terms), f.den)


def radial_integrate_spatial(alpha: DifferentialForm, chart: Chart) -> RationalFn:
    """Potential of a closed spatial 1-form by straight-line integration.

    h(x) = integral_0^1 sum_i alpha_i(s x) x_i ds, with time (when present)
    carried as a parameter.  Components must be polynomial in the spatial
    variables; coefficients rational in t are fine.  The caller verifies
    dh = alpha afterwards, so non-closed input cannot pass silently.
    """
    if alpha.grade != 1:
        raise ValueError("radial integration takes a 1-form")
    t = chart.time_index
    spatial = set(chart.spatial_indices)
    acc = RationalFn.zero(chart.dim)
    for (i,), c in alpha.coeffs.items():
        if i == t:
            raise ValueError("spatial integration given a dt component")
        for j in spatial:
            if c.den.degree_in(j) > 0:
                raise NonIntegrableError(
                    "radial integration requires components polynomial in the "
                    "spatial variables"
                )
        for exps, coeff in c.num.terms.items():
            degree = sum(exps[j] for j in spatial)
            new = list(exps)
            new[i] += 1
            term = RationalFn(
                MultiPoly(chart.dim, {tuple(new): coeff * Fraction(1, degree + 1)}),
                c.den,
            )
            acc = acc + term
    return acc


def spatial_differential(f: RationalFn, chart: Chart) -> DifferentialForm:
    return DifferentialForm(
        chart,
        1,
        {
            (i,): d
            for i in chart.spatial_indices
            if not (d := f.derivative(i)).is_zero()
        },
    )


# ---------------------------------------------------------------------------
# the Darboux-Halphen realization of the sl(2,R) suite
# ---------------------------------------------------------------------------


def darboux_halphen_fixture() -> tuple[Chart, Sl2Triple]:
    """The quadratic three-dimensional system and its scaling/translation fields."""
    chart = Chart(("t", "x", "y", "z"), time_index=0)
    x, y, z = chart.coordinate("x"), chart.coordinate("y"), chart.coordinate("z")
    v = MultiVectorField(
        chart,
        1,
        {
            (1,): y * z - x * y - x * z,
            (2,): x * z - x * y - y * z,
            (3,): x * y - x * z - y * z,
        },
    )
    u = MultiVectorField(chart, 1, {(1,): 2 * x, (2,): 2 * y, (3,): 2 * z})
    w = MultiVectorField(chart, 1, {(1,): chart.scalar(1), (2,): chart.scalar(1), (3,): chart.scalar(1)})
    return chart, Sl2Triple(v, u, w)


def time_dependent_basis(
    tr: Sl2Triple,
) -> tuple[MultiVectorField, MultiVectorField, list[CheckReport]]:
    """U_t = u + 2tv and W_t = -w + tu + t^2 v, with their symmetry checks.

    Both brackets with the suspension vanish identically in t, and
    (-v, U_t, W_t) is again an sl(2,R) triple for every t.
    """
    chart = tr.chart
    t = chart.coordinate(chart.variables[chart.require_time()])
    U = tr.u + tr.v.scale(2 * t)
    W = -tr.w + tr.u.scale(t) + tr.v.scale(t * t)
    V = suspension(tr.v)
    checks = [
        check("basis-U-symmetry", schouten_bracket(V, U)),
        check("basis-W-symmetry", schouten_bracket(V, W)),
        sl2_verify(Sl2Triple(-tr.v, U, W), "basis-family-sl2"),
    ]
    return U, W, checks


def extended_pair(
    tr: Sl2Triple,
    U: MultiVectorField,
    W: MultiVectorField,
) -> tuple[MultiVectorField, MultiVectorField, list[CheckReport]]:
    """P1 = (dt+v) ^ U_t and P2 = (dt+v) ^ W_t with their check battery:
    each Poisson, mutually compatible, P1 reducing to v ^ u at t = 0, and the
    induced family (E_t, B_t) = (v ^ (-w+tu), u+2tv) a Jacobi pair for all t,
    equal to (w ^ v, u) at t = 0.

    U and W are the basis fields of `time_dependent_basis(tr)`, whose checks
    are not repeated here.
    """
    chart = tr.chart
    t_idx = chart.require_time()
    t = chart.coordinate(chart.variables[t_idx])
    V = suspension(tr.v)
    P1 = wedge(V, U)
    P2 = wedge(V, W)
    checks = [
        is_poisson(P1, "pair-P1-poisson"),
        is_poisson(P2, "pair-P2-poisson"),
        check("pair-compatible", schouten_bracket(P1, P2)),
    ]

    s1 = ExtendedStructure.from_bivector(P1)
    checks.append(
        check(
            "pair-P1-reduces-to-v-wedge-u",
            s1.E.substitute(t_idx, Fraction(0)) - wedge(tr.v, tr.u),
        )
    )
    s2 = ExtendedStructure.from_bivector(P2)
    E_t = wedge(tr.v, -tr.w + tr.u.scale(t))
    B_t = U
    checks.append(check("pair-induced-E", s2.E - E_t))
    checks.append(jacobi_structure_check(JacobiPair(E_t, B_t), "pair-jacobi-family"))
    checks.append(
        check("pair-jacobi-at-t0-E", E_t.substitute(t_idx, Fraction(0)) - wedge(tr.w, tr.v))
    )
    checks.append(check("pair-jacobi-at-t0-B", B_t.substitute(t_idx, Fraction(0)) - tr.u))
    return P1, P2, checks


def _project_from_augmented(f: RationalFn, dim: int) -> RationalFn:
    """Drop the trailing (already substituted to zero) augmentation variable."""

    def project(p: MultiPoly) -> MultiPoly:
        terms = {}
        for exps, coeff in p.terms.items():
            if exps[-1] != 0:
                raise ValueError("augmentation variable still present")
            terms[exps[:-1]] = coeff
        return MultiPoly(dim, terms)

    return RationalFn(project(f.num), project(f.den))


def haltr_generators(
    tr: Sl2Triple,
    U: MultiVectorField,
    W: MultiVectorField,
) -> tuple[list[MultiVectorField], list[CheckReport]]:
    """Infinitesimal generators of the time-dependent symmetry group of the
    Darboux-Halphen system, obtained by differentiating the finite
    transformations at the identity.

    The finite maps are t -> (at+b)/(ct+d) together with
    x -> ((ct+d)^2 x - c(ct+d)) / (ad-cb); their characteristic forms along v
    reproduce the time-dependent basis (U, W) = (U_t, W_t) of the
    Darboux-Halphen triple `tr` as (-v, -U_t/2, W_t).
    """
    chart = tr.chart
    dim = chart.dim
    aug = Chart(("t", "x", "y", "z", "eps"))
    t5 = aug.coordinate("t")
    eps = aug.coordinate("eps")
    one = aug.scalar(1)

    def group_generator(a, b, c, d) -> MultiVectorField:
        det = a * d - c * b
        denom = c * t5 + d
        t_image = (a * t5 + b) / denom
        coeffs = {}
        dt_de = t_image.derivative(4).substitute(4, Fraction(0))
        dt_de = _project_from_augmented(dt_de, dim)
        if not dt_de.is_zero():
            coeffs[(0,)] = dt_de
        for k, name in enumerate(("x", "y", "z")):
            xk = aug.coordinate(name)
            image = (denom * denom * xk - c * denom) / det
            deriv = image.derivative(4).substitute(4, Fraction(0))
            deriv = _project_from_augmented(deriv, dim)
            if not deriv.is_zero():
                coeffs[(k + 1,)] = deriv
        return MultiVectorField(chart, 1, coeffs)

    gen_translation = group_generator(one, eps, aug.scalar(0), one)
    gen_scaling = group_generator(one + eps, aug.scalar(0), aug.scalar(0), one)
    gen_moebius = group_generator(one, aug.scalar(0), eps, one)
    generators = [gen_translation, gen_scaling, gen_moebius]

    V = suspension(tr.v)
    t_idx = chart.require_time()
    dt_vec = MultiVectorField.basis_vector(chart, t_idx)

    def characteristic(gen: MultiVectorField) -> MultiVectorField:
        xi = gen.coefficient((t_idx,))
        return gen - dt_vec.scale(xi) - tr.v.scale(xi)

    expected = [
        ("haltr-translation", -tr.v),
        ("haltr-scaling", U.scale(Fraction(-1, 2))),
        ("haltr-moebius", W),
    ]
    checks = []
    for gen, (name, target) in zip(generators, expected):
        char = characteristic(gen)
        checks.append(check(f"{name}-symmetry", schouten_bracket(V, char)))
        checks.append(check(f"{name}-matches-basis", char - target))
    return generators, checks


# ---------------------------------------------------------------------------
# covariant construction (closed invariant two-form -> Hamiltonian suspension)
# ---------------------------------------------------------------------------


def prop5_pipeline(
    omega: DifferentialForm,
    sigma: DifferentialForm,
    v: MultiVectorField,
) -> tuple[RationalFn, DifferentialForm, list[CheckReport]]:
    """From a closed, relatively invariant two-form to a conserved Hamiltonian.

    Preconditions (verified, failure raises): d_M omega = 0,
    d_M(i(v) omega - sigma) = 0 and omega_t + d_M sigma = 0.  The potential h
    is found by radial integration, its time dependence is fixed by
    h_t = i(v) sigma, and sigma ^ dt + omega is then closed on the extended
    chart with V(h) = 0.
    """
    chart = omega.chart
    t_idx = chart.require_time()
    spatial = chart.spatial_indices
    alpha = interior_product(v, omega) - sigma
    pre = [
        check("pipeline-pre-omega-closed", exterior_derivative(omega, spatial)),
        check("pipeline-pre-alpha-closed", exterior_derivative(alpha, spatial)),
        check(
            "pipeline-pre-time-coupling",
            omega.derivative(t_idx) + exterior_derivative(sigma, spatial),
        ),
    ]
    require("pipeline preconditions failed", pre)
    h0 = radial_integrate_spatial(alpha, chart)
    residual_t = pairing(sigma, v) - h0.derivative(t_idx)
    for i in spatial:
        if not residual_t.derivative(i).is_zero():
            raise NonIntegrableError(
                "time dependence of the potential is not spatially constant"
            )
    h = h0 + antiderivative(residual_t, t_idx)
    dt_form = DifferentialForm.basis_form(chart, t_idx)
    omega_ext = wedge(sigma, dt_form) + omega
    checks = pre + [
        check("pipeline-spatial-gradient", spatial_differential(h, chart) - alpha),
        check("pipeline-time-derivative", h.derivative(t_idx) - pairing(sigma, v)),
        check("pipeline-conserved", suspension(v).apply_to_function(h)),
        check("pipeline-extended-closed", exterior_derivative(omega_ext)),
    ]
    return h, omega_ext, checks


# ---------------------------------------------------------------------------
# fluid data and its structures
# ---------------------------------------------------------------------------


class FluidData:
    """A velocity field with a frozen-in field and the potentials solving the
    constraint system, together with the derived symplectic data."""

    __slots__ = (
        "chart", "v", "B", "E", "phi", "rho", "A", "psi", "chi", "h", "f_coeffs", "theta", "Omega"
    )

    def __init__(
        self,
        chart: Chart,
        v: MultiVectorField,
        B: MultiVectorField,
        E: MultiVectorField,
        phi: RationalFn,
        rho: RationalFn,
        A: MultiVectorField,
        psi: RationalFn,
        chi: RationalFn,
        h: RationalFn,
        f_coeffs: tuple[Fraction, ...],
        theta: DifferentialForm,
        Omega: DifferentialForm,
    ):
        self.chart = chart
        self.v = v
        self.B = B
        self.E = E
        self.phi = phi
        self.rho = rho
        self.A = A
        self.psi = psi
        self.chi = chi
        self.h = h
        self.f_coeffs = f_coeffs
        self.theta = theta
        self.Omega = Omega

    @property
    def bridge(self) -> Vector3Bridge:
        return Vector3Bridge(self.chart)

    @property
    def V(self) -> MultiVectorField:
        return suspension(self.v)


def build_fluid_data(
    chart: Chart,
    v: MultiVectorField,
    B: MultiVectorField,
    phi: RationalFn,
    A: MultiVectorField,
    h: RationalFn,
    f_coeffs: Sequence = (),
    psi_gauge: RationalFn | None = None,
) -> tuple[FluidData, list[CheckReport]]:
    """Assemble and verify fluid data from (v, B, phi, A, h).

    E is solved from the gradient constraint; the remaining constraint
    equations, the frozen-in condition, the vector-potential relation and
    the conservation law for h are all verified exactly.  Candidates with
    rho = -B . grad(phi) = 0 are rejected.
    """
    bridge = Vector3Bridge(chart)
    t_idx = chart.require_time()
    f_coeffs = tuple(Fraction(c) for c in f_coeffs)

    grad_phi = bridge.grad(phi)
    E = -grad_phi - bridge.cross(v, B)
    rho = -bridge.dot(B, grad_phi)
    if rho.is_zero():
        raise DegenerateStructureError("Liouville density -B.grad(phi) vanishes")

    checks = [
        check("fluid-frozen-in", B.derivative(t_idx) + schouten_bracket(v, B)),
        check("fluid-energy-balance", phi.derivative(t_idx) - bridge.dot(v, E)),
        check("fluid-induction", B.derivative(t_idx) + bridge.curl3(E)),
        check("fluid-vector-potential", bridge.curl3(A) - B),
    ]

    # scalar potential of the canonical one-form: grad(psi) = A_t + E
    psi_gradient = A.derivative(t_idx) + E
    psi = radial_integrate_spatial(bridge.one_form(psi_gradient), chart)
    if psi_gauge is not None:
        for i in chart.spatial_indices:
            if not psi_gauge.derivative(i).is_zero():
                raise ValueError("psi gauge must depend on time only")
        psi = psi + psi_gauge
    checks.append(check("fluid-psi-gradient", bridge.grad(psi) - psi_gradient))

    chi = psi + phi + bridge.dot(v, A)
    dt_form = DifferentialForm.basis_form(chart, t_idx)
    theta = dt_form.scale(psi) + bridge.one_form(A)
    Omega = bridge.two_form(B) - wedge(
        bridge.one_form(grad_phi + bridge.cross(v, B)), dt_form
    )
    checks.append(check("fluid-exact-symplectic", exterior_derivative(theta) - Omega))

    f_of_phi = phi.compose_univariate(f_coeffs) if f_coeffs else RationalFn.zero(chart.dim)
    checks.append(check("fluid-h-evolution", suspension(v).apply_to_function(h) - f_of_phi))

    require("fluid constraints failed", checks)
    data = FluidData(
        chart, v, B, E, phi, rho, A, psi, chi, h, f_coeffs, theta, Omega
    )
    return data, checks


def fluid_symplectic(d: FluidData) -> tuple[DifferentialForm, list[CheckReport]]:
    """The symplectic two-form of the suspension with its exactness checks.

    Closedness is exact; nondegeneracy is witnessed by the Liouville identity
    Omega ^ Omega = -2 rho dt^dx^dy^dz (the constant is locked by test).
    """
    chart = d.chart
    top = DifferentialForm(chart, 4, {tuple(range(4)): chart.scalar(1)})
    checks = [
        check("symplectic-closed", exterior_derivative(d.Omega)),
        check("symplectic-liouville", wedge(d.Omega, d.Omega) - top.scale(d.rho * (-2))),
    ]
    return d.Omega, checks


def helicity_identity(theta: DifferentialForm, name: str = "helicity-identity") -> CheckReport:
    """d(theta ^ d theta) = d theta ^ d theta, valid for every 1-form."""
    dtheta = exterior_derivative(theta)
    return check(name, exterior_derivative(wedge(theta, dtheta)) - wedge(dtheta, dtheta))


def helicity_suite(
    theta: DifferentialForm,
    V: MultiVectorField,
    chi: RationalFn,
) -> list[CheckReport]:
    """Relative-invariance of the canonical one-form and helicity transport.

    With Omega = d theta: (a) d(theta ^ d theta) = Omega ^ Omega,
    (b) L_V theta = d chi, (c) L_V(theta ^ d theta) = d(chi Omega).
    When chi is constant both invariants are absolute.
    """
    chart = theta.chart
    Omega = exterior_derivative(theta)
    helicity_3form = wedge(theta, Omega)
    return [
        helicity_identity(theta, "helicity-identity"),
        check("helicity-relative-invariance", lie_derivative(V, theta) - differential(chi, chart)),
        check(
            "helicity-transport",
            lie_derivative(V, helicity_3form) - exterior_derivative(Omega.scale(chi)),
        ),
    ]


def invert_symplectic(Omega: DifferentialForm) -> MultiVectorField:
    """Dual bivector of a nondegenerate 2-form by exact linear algebra.

    Convention: P(alpha) is the unique X with i(X)Omega = alpha, so
    Hamiltonian fields satisfy P(dh) = X_h with i(X_h)Omega = dh.
    """
    chart = Omega.chart
    n = chart.dim
    zero = RationalFn.zero(n)
    one = RationalFn.constant(n, 1)
    matrix = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), c in Omega.coeffs.items():
        matrix[i][j] = c
        matrix[j][i] = -c
    # Gauss-Jordan over the rational-function field
    aug = [row[:] + [one if k == r else zero for k in range(n)] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise DegenerateStructureError("two-form is degenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = one / aug[col][col]
        aug[col] = [entry * inv_p for entry in aug[col]]
        for r in range(n):
            if r == col or aug[r][col].is_zero():
                continue
            factor = aug[r][col]
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n:] for row in aug]
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not inverse[i][j].is_zero():
                coeffs[(i, j)] = inverse[i][j]
    return MultiVectorField(chart, 2, coeffs)


def conformal_suite(
    Omega: DifferentialForm,
    P: MultiVectorField,
    chi: RationalFn,
    name: str = "conformal",
) -> list[CheckReport]:
    """Conformally rescaled structures and their contravariant Jacobi pair.

    Checks, all exact: P inverts Omega; with Omega_chi = chi Omega and
    eta = d chi / chi, d Omega_chi = eta ^ Omega_chi and d eta = 0; and the
    pair (P/chi, -P(d chi)/chi^2) satisfies the Jacobi-structure identities.
    """
    chart = Omega.chart
    if chi.is_zero():
        raise ZeroDivisionError("conformal factor must be nonzero")
    checks = [check(f"{name}-duality", invert_symplectic(Omega) - P)]
    omega_chi = Omega.scale(chi)
    eta = differential(chi, chart).scale(1 / chi)
    checks.append(
        check(f"{name}-rescaled-closure", exterior_derivative(omega_chi) - wedge(eta, omega_chi))
    )
    checks.append(check(f"{name}-eta-closed", exterior_derivative(eta)))
    E = P.scale(1 / chi)
    B = hamiltonian_field(P, chi).scale(-(1 / (chi * chi)))
    checks.append(jacobi_structure_check(JacobiPair(E, B), f"{name}-jacobi-pair"))
    return checks


def fluid_hierarchy(
    d: FluidData, depth: int
) -> tuple[list[MultiVectorField], list[MultiVectorField], list[RationalFn], list[CheckReport]]:
    """The symmetry hierarchy of the fluid suspension.

    U_0 = B/rho, W_1 = (grad phi x grad h)/rho . grad and
    U_1 = -U_0(h) (dt+v) + f(phi) U_0 + W_1; then U_k = (L_{U_1})^k U_0,
    W_k = (L_{W_1})^{k-1} U_0 and h_k = -(W_1)^{k-2}(U_0(h)) with
    (W_1)^0 = id.  Every U level must commute with the suspension, every W
    level must be rho-divergence-free, every h level conserved (the W and h
    branches require h conserved, i.e. f = 0).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    bridge = d.bridge
    chart = d.chart
    V = d.V
    inv_rho = 1 / d.rho
    U0 = d.B.scale(inv_rho)
    U0_h = U0.apply_to_function(d.h)
    W1 = bridge.cross(bridge.grad(d.phi), bridge.grad(d.h)).scale(inv_rho)
    f_of_phi = (
        d.phi.compose_univariate(d.f_coeffs) if d.f_coeffs else RationalFn.zero(chart.dim)
    )
    U1 = V.scale(-U0_h) + U0.scale(f_of_phi) + W1

    u_levels = [U0, U1]
    current = U0
    for _ in range(depth):
        current = schouten_bracket(U1, current)
        u_levels.append(current)

    checks = []
    labels = ["U0", "U1"] + [f"U1^{k}(U0)" for k in range(1, depth + 1)]
    for label, field in zip(labels, u_levels):
        checks.append(check(f"hierarchy-symmetry-{label}", schouten_bracket(V, field)))

    conserved_h = suspension(d.v).apply_to_function(d.h).is_zero()
    w_levels: list[MultiVectorField] = []
    h_levels: list[RationalFn] = []
    if conserved_h:
        w_levels.append(W1)
        current = U0
        for _ in range(depth - 1):
            current = schouten_bracket(W1, current)
            w_levels.append(current)
        for k, field in enumerate(w_levels, start=1):
            checks.append(
                check(f"hierarchy-divergence-free-W{k}", spatial_divergence(field, d.rho))
            )
        scalar = -U0_h
        h_levels.append(scalar)
        for _ in range(depth - 1):
            scalar = -W1.apply_to_function(-scalar)
            h_levels.append(scalar)
        for k, fn in enumerate(h_levels, start=2):
            checks.append(
                check(f"hierarchy-conserved-h{k}", suspension(d.v).apply_to_function(fn))
            )
    return u_levels, w_levels, h_levels, checks


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------


def rigid_rotation_fixture() -> tuple[FluidData, list[CheckReport]]:
    """Rotation about the z axis with a vertical frozen-in field.

    v = -y dx + x dy, B = dz, phi = z - (x^2+y^2)/2, A = (-y/2, x/2, 0),
    h = z + (x^2+y^2)/2; rho = -1 and chi = 0 (the absolute-invariant case).
    The rotational symmetry makes the hierarchy truncate after one level.
    """
    chart = Chart(("t", "x", "y", "z"), time_index=0)
    bridge = Vector3Bridge(chart)
    x, y, z = chart.coordinate("x"), chart.coordinate("y"), chart.coordinate("z")
    half = Fraction(1, 2)
    v = bridge.vector([-y, x, chart.scalar(0)])
    B = bridge.vector([chart.scalar(0), chart.scalar(0), chart.scalar(1)])
    phi = z - (x * x + y * y) * half
    A = bridge.vector([y * (-half), x * half, chart.scalar(0)])
    h = z + (x * x + y * y) * half
    return build_fluid_data(chart, v, B, phi, A, h)


def shear_flow_fixture() -> tuple[FluidData, list[CheckReport]]:
    """Linear shear v = y dx with a horizontal frozen-in field.

    phi = -(x - t y)(1 + z) gives rho = 1 + z, a nonuniform Liouville
    density; h = y + (x - t y) z is an independent conserved function, and
    the time gauge psi -> psi + t makes chi = t, exercising the nonconstant
    relative-invariant branch.  The hierarchy stays nonzero at every depth.
    """
    chart = Chart(("t", "x", "y", "z"), time_index=0)
    bridge = Vector3Bridge(chart)
    t = chart.coordinate("t")
    x, y, z = chart.coordinate("x"), chart.coordinate("y"), chart.coordinate("z")
    one = chart.scalar(1)
    s = x - t * y
    v = bridge.vector([y, chart.scalar(0), chart.scalar(0)])
    B = bridge.vector([one, chart.scalar(0), chart.scalar(0)])
    phi = -s * (one + z)
    A = bridge.vector([chart.scalar(0), chart.scalar(0), y])
    h = y + s * z
    return build_fluid_data(chart, v, B, phi, A, h, psi_gauge=t)


def nonunimodular_fixture() -> tuple[Chart, MultiVectorField, MultiVectorField, RationalFn]:
    """A plane Poisson structure with nonzero modular field and a Hamiltonian
    symmetry rich enough to keep four hierarchy levels nonzero.

    Returns (chart, P, B, h) with P = x dx^dy, B = P(d(y^5)) and h a sample
    Hamiltonian for the transfer identity.
    """
    chart = Chart(("x", "y"))
    x, y = chart.coordinate("x"), chart.coordinate("y")
    P = MultiVectorField(chart, 2, {(0, 1): x})
    B = hamiltonian_field(P, y**5)
    h = x * y + y * y
    return chart, P, B, h


# ---------------------------------------------------------------------------
# named verification suites
# ---------------------------------------------------------------------------


def verify_darboux_halphen(depth: int = 4) -> list[CheckReport]:
    """Every identity asserted for the sl(2,R)/Darboux-Halphen realization."""
    chart, tr = darboux_halphen_fixture()
    checks = [sl2_verify(tr, "dh-sl2-relations")]
    checks.append(
        check(
            "dh-divergence",
            divergence(tr.v)
            + (chart.coordinate("x") + chart.coordinate("y") + chart.coordinate("z")) * 2,
        )
    )
    U, W, basis_checks = time_dependent_basis(tr)
    checks.extend(basis_checks)
    _, _, pair_checks = extended_pair(tr, U, W)
    checks.extend(pair_checks)
    _, haltr_checks = haltr_generators(tr, U, W)
    checks.extend(haltr_checks)
    return checks


def verify_fluid(depth: int = 3) -> list[CheckReport]:
    """The covariant pipeline, symplectic/helicity/conformal structure and the
    symmetry hierarchy on both shipped fluid fixtures."""
    checks: list[CheckReport] = []
    for label, builder in (
        ("rigid-rotation", rigid_rotation_fixture),
        ("shear", shear_flow_fixture),
    ):
        data, build_checks = builder()
        checks.extend(_prefix(label, build_checks))
        bridge = data.bridge
        omega_2form = bridge.two_form(data.B)
        sigma = bridge.one_form(data.E)
        h, omega_ext, pipe_checks = prop5_pipeline(omega_2form, sigma, data.v)
        checks.extend(_prefix(label, pipe_checks))
        checks.append(
            check(f"{label}-pipeline-h-conserved", suspension(data.v).apply_to_function(h))
        )
        _, symp_checks = fluid_symplectic(data)
        checks.extend(_prefix(label, symp_checks))
        checks.extend(_prefix(label, helicity_suite(data.theta, data.V, data.chi)))
        P = invert_symplectic(data.Omega)
        chart = data.chart
        chi = chart.scalar(1) + chart.coordinate("x")
        checks.extend(_prefix(label, conformal_suite(data.Omega, P, chi)))
        _, _, _, hier_checks = fluid_hierarchy(data, depth)
        checks.extend(_prefix(label, hier_checks))
    return checks


def _prefix(label: str, checks: Sequence[CheckReport]) -> list[CheckReport]:
    return [CheckReport(f"{label}-{c.name}", c.passed, c.residual) for c in checks]


def fixture_environment(name: str) -> tuple[Chart, dict]:
    """Named objects of a shipped fixture, for the command-line interface.

    The darboux-halphen objects are read from the packaged
    `fixtures/darboux_halphen.fld`, the one source of that data; a test keeps
    them equal to the objects `darboux_halphen_fixture`, `time_dependent_basis`
    and `extended_pair` build.
    """
    if name == "darboux-halphen":
        path = Path(__file__).parent / "fixtures" / "darboux_halphen.fld"
        env = parse(path.read_text(encoding="utf-8")).env
        return env["M"], {k: v for k, v in env.items() if not isinstance(v, Chart)}
    if name in ("rigid-rotation-fluid", "shear-fluid"):
        builder = rigid_rotation_fixture if name == "rigid-rotation-fluid" else shear_flow_fixture
        data, _ = builder()
        return data.chart, {
            "v": data.v,
            "B": data.B,
            "E": data.E,
            "phi": data.phi,
            "rho": data.rho,
            "A": data.A,
            "psi": data.psi,
            "chi": data.chi,
            "h": data.h,
            "theta": data.theta,
            "Omega": data.Omega,
            "P": invert_symplectic(data.Omega),
        }
    if name == "modular-hierarchy":
        chart, P, B, h = nonunimodular_fixture()
        return chart, {"P": P, "B": B, "h": h, "p": modular_field(P)}
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = (
    "darboux-halphen",
    "rigid-rotation-fluid",
    "shear-fluid",
    "modular-hierarchy",
)

