"""Cartan calculus and the Schouten bracket on a chart.

The bracket implemented here is the graded extension of the Lie bracket of
vector fields to multivectors, in the sign convention pinned down by the
pairing identity

    w([P,Q]) = (-1)^(pq+q) i(P) d i(Q) w + (-1)^p i(Q) d i(P) w - dw(P ^ Q)

for P of grade p, Q of grade q and any test form w of grade p+q-1, with the
front-insertion interior product of `fields`.  `bracket_pairing_sides`
evaluates both sides of that identity independently of the bracket code
path; it is the ground truth the convention is locked against.

In this convention the bracket satisfies
    [P,Q] = (-1)^(pq) [Q,P]
    (-1)^(pr) [[P,Q],R] + (-1)^(qp) [[Q,R],P] + (-1)^(rq) [[R,P],Q] = 0
    [P, Q^R] = [P,Q]^R + (-1)^(pq+q) Q^[P,R]
and on grade-1 pairs it is the classical Lie bracket.

The computation itself is the Leibniz extension of the base cases
[f,g]=0, [X,f]=X(f), [X,Y]=Lie bracket, in closed form: writing a
multivector as a polynomial in anticommuting generators xi_i ~ d/dx_i,

    [P,Q] = (-1)^(p+1) sum_m dR(P)/d xi_m ^ dQ/dx_m
          + (-1)^(pq+q+1) sum_m dR(Q)/d xi_m ^ dP/dx_m

where dR/d xi_m is the right Grassmann derivative.
"""

from __future__ import annotations

from .fields import (
    DifferentialForm,
    GradedField,
    MultiVectorField,
    interior_product,
    merge_indices,
    pairing,
    wedge,
)
from .scalars import RationalFn


def exterior_derivative(w: DifferentialForm, variables=None) -> DifferentialForm:
    """Coordinate exterior derivative; d(d(w)) = 0.

    `variables` restricts the derivative to a subset of chart variables
    (used for the spatial exterior derivative on a time-extended chart,
    with time treated as a parameter).
    """
    chart = w.chart
    active = range(chart.dim) if variables is None else variables
    out: dict[tuple[int, ...], RationalFn] = {}
    if w.grade < chart.dim:
        for idx, c in w.coeffs.items():
            idx_set = set(idx)
            for m in active:
                if m in idx_set:
                    continue
                dc = c.derivative(m)
                if dc.is_zero():
                    continue
                sign, merged = merge_indices((m,), idx)
                term = dc if sign > 0 else -dc
                acc = out.get(merged)
                acc = term if acc is None else acc + term
                if acc.is_zero():
                    out.pop(merged, None)
                else:
                    out[merged] = acc
    return DifferentialForm(chart, w.grade + 1, out)


def _right_xi_derivative(P: GradedField, m: int):
    """Right Grassmann derivative by xi_m: coefficient terms with m removed."""
    out: dict[tuple[int, ...], RationalFn] = {}
    p = P.grade
    for idx, c in P.coeffs.items():
        try:
            pos = idx.index(m)
        except ValueError:
            continue
        rest = idx[:pos] + idx[pos + 1 :]
        sign = 1 if (p - pos - 1) % 2 == 0 else -1
        out[rest] = c if sign > 0 else -c
    return type(P)(P.chart, p - 1, out)


def schouten_bracket(P: MultiVectorField, Q: MultiVectorField) -> MultiVectorField:
    """Schouten bracket of two multivector fields, grade p+q-1."""
    if not isinstance(P, MultiVectorField) or not isinstance(Q, MultiVectorField):
        raise TypeError("schouten_bracket takes two multivector fields")
    P._check_chart(Q)
    chart = P.chart
    p, q = P.grade, Q.grade
    if p == 0 and q == 0:
        # degenerate by convention: bracket of two functions is the zero scalar
        return MultiVectorField.zero(chart, 0)
    result = MultiVectorField.zero(chart, p + q - 1)
    s1 = 1 if (p + 1) % 2 == 0 else -1
    s2 = 1 if (p * q + q + 1) % 2 == 0 else -1
    for m in range(chart.dim):
        if p >= 1:
            dP = _right_xi_derivative(P, m)
            dQm = Q.derivative(m)
            if not dP.is_zero() and not dQm.is_zero():
                result = result + wedge(dP, dQm).scale(s1)
        if q >= 1:
            dQ = _right_xi_derivative(Q, m)
            dPm = P.derivative(m)
            if not dQ.is_zero() and not dPm.is_zero():
                result = result + wedge(dQ, dPm).scale(s2)
    return result


def lie_derivative(X: MultiVectorField, T):
    """Lie derivative along a grade-1 field.

    Multivectors transport by the bracket, forms by the Cartan formula
    i(X)d + d i(X); scalars are differentiated along X.
    """
    if X.grade != 1:
        raise ValueError("lie_derivative requires a grade-1 field")
    if isinstance(T, RationalFn):
        return X.apply_to_function(T)
    if isinstance(T, MultiVectorField):
        return schouten_bracket(X, T)
    if isinstance(T, DifferentialForm):
        if T.grade == 0:
            val = X.apply_to_function(T.coefficient(()))
            return DifferentialForm(T.chart, 0, {(): val})
        return interior_product(X, exterior_derivative(T)) + exterior_derivative(
            interior_product(X, T)
        )
    raise TypeError(f"cannot take Lie derivative of {type(T).__name__}")


def multivector_to_form(P: MultiVectorField, nu: DifferentialForm) -> DifferentialForm:
    """The contraction isomorphism P -> i(P) nu for a top-grade volume form nu."""
    if nu.grade != P.chart.dim:
        raise ValueError("volume form must be top grade")
    return interior_product(P, nu)


def form_to_multivector(w: DifferentialForm, nu: DifferentialForm) -> MultiVectorField:
    """Inverse of the contraction isomorphism: i(result) nu = w."""
    chart = w.chart
    n = chart.dim
    if nu.grade != n:
        raise ValueError("volume form must be top grade")
    density = nu.coefficient(tuple(range(n)))
    if density.is_zero():
        raise ValueError("degenerate volume form")
    k = n - w.grade
    out: dict[tuple[int, ...], RationalFn] = {}
    full = tuple(range(n))
    for idx, c in w.coeffs.items():
        comp = tuple(v for v in full if v not in idx)
        sign, _ = merge_indices(comp, idx)
        coeff = c / density
        out[comp] = coeff if sign > 0 else -coeff
    return MultiVectorField(chart, k, out)


def curl(P: MultiVectorField, nu: DifferentialForm | None = None) -> MultiVectorField:
    """Curl operator: conjugate the exterior derivative by the volume contraction.

    Sends grade-k multivectors to grade k-1; applying it twice gives zero.
    """
    if P.grade < 1:
        raise ValueError("curl requires grade >= 1")
    if nu is None:
        nu = P.chart.volume_form()
    return form_to_multivector(exterior_derivative(multivector_to_form(P, nu)), nu)


def divergence(X: MultiVectorField, nu: DifferentialForm | None = None) -> RationalFn:
    """Divergence of a vector field: the grade-0 curl."""
    if X.grade != 1:
        raise ValueError("divergence requires a grade-1 field")
    return curl(X, nu).scalar_value()


def spatial_divergence(X: MultiVectorField, density: RationalFn) -> RationalFn:
    """Divergence over the spatial variables with respect to density * spatial volume.

    Time (when the chart has one) is treated as a parameter; X must have no
    time component.  Returns sum_i d_i(density * X^i) / density.
    """
    chart = X.chart
    if X.grade != 1:
        raise ValueError("spatial divergence requires a grade-1 field")
    t = chart.time_index
    if t is not None and X.has_component(t):
        raise ValueError("field has a time component")
    acc = RationalFn.zero(chart.dim)
    for (i,), c in X.coeffs.items():
        acc = acc + (density * c).derivative(i)
    return acc / density


def bracket_pairing_sides(
    P: MultiVectorField, Q: MultiVectorField, w: DifferentialForm
) -> tuple[RationalFn, RationalFn]:
    """Both sides of the defining pairing identity, computed independently.

    Left: w([P,Q]) through the bracket code path.  Right: the three-term
    interior-product expression.  Exact equality of the two for arbitrary
    test forms is the ground truth for the bracket's sign conventions.
    """
    p, q = P.grade, Q.grade
    if w.grade != p + q - 1:
        raise ValueError("test form must have grade p+q-1")
    left = pairing(w, schouten_bracket(P, Q))
    zero = RationalFn.zero(w.chart.dim)
    s1 = 1 if (p * q + q) % 2 == 0 else -1
    s2 = 1 if p % 2 == 0 else -1
    # i(A) d i(B) w vanishes when B cannot be contracted into w
    if q <= w.grade:
        term1 = pairing(exterior_derivative(interior_product(Q, w)), P)
    else:
        term1 = zero
    if p <= w.grade:
        term2 = pairing(exterior_derivative(interior_product(P, w)), Q)
    else:
        term2 = zero
    term3 = pairing(exterior_derivative(w), wedge(P, Q))
    right = term1 * s1 + term2 * s2 - term3
    return left, right
