"""Charts and graded fields: multivectors and differential forms.

A grade-k field stores a map from strictly increasing k-tuples of variable
indices to nonzero RationalFn coefficients.  The empty map is the zero
object of any grade.  Multivectors and forms share the same sparse
representation and differ only in variance, which matters to the operations
defined on them.

Interior products use the front-insertion convention throughout:
for decomposable arguments,

    i(X1 ^ ... ^ Xp)(w) = w(X1, ..., Xp, . , ..., .)

with the determinant pairing (dx^i1 ^ ... ^ dx^ik)(e_j1, ..., e_jk)
= det[dx^ia(e_jb)].  This is the convention under which the bracket
pairing identity of `calculus` holds with its printed signs; it is locked
by dedicated tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import RationalFn


class ChartMismatchError(ValueError):
    pass


class Chart:
    """Ordered variable list, optional distinguished time variable, volume density.

    The volume form of the chart is density * dx_0 ^ ... ^ dx_{n-1} in
    declaration order (time first by convention when present).  Charts are
    equal when all three agree.
    """

    __slots__ = ("variables", "time_index", "volume_density")

    def __init__(
        self,
        variables: tuple[str, ...],
        time_index: int | None = None,
        volume_density: RationalFn | None = None,
    ):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        if time_index is not None and not 0 <= time_index < len(variables):
            raise ValueError("time index out of bounds")
        if volume_density is None:
            volume_density = RationalFn.constant(len(variables), 1)
        elif volume_density.is_zero():
            raise ValueError("volume density must be nonzero")
        self.variables = variables
        self.time_index = time_index
        self.volume_density = volume_density

    def __eq__(self, other) -> bool:
        return (
            type(other) is Chart
            and self.variables == other.variables
            and self.time_index == other.time_index
            and self.volume_density == other.volume_density
        )

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def spatial_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if i != self.time_index)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in chart {self.variables}") from None

    def scalar(self, value) -> RationalFn:
        if isinstance(value, RationalFn):
            return value
        return RationalFn.constant(self.dim, value)

    def coordinate(self, name: str) -> RationalFn:
        return RationalFn.variable(self.dim, self.var_index(name))

    def require_time(self) -> int:
        if self.time_index is None:
            raise ValueError("chart has no distinguished time variable")
        return self.time_index

    def volume_form(self) -> "DifferentialForm":
        return DifferentialForm(
            self, self.dim, {tuple(range(self.dim)): self.volume_density}
        )


def merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two strictly increasing tuples; return (sign, merged) or None on overlap.

    The sign is that of the permutation sorting the concatenation.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


class GradedField:
    """Shared machinery of multivectors and forms."""

    __slots__ = ("chart", "grade", "coeffs")

    def __init__(self, chart: Chart, grade: int, coeffs: Mapping[tuple[int, ...], RationalFn] | None = None):
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        self.chart = chart
        self.grade = grade
        clean: dict[tuple[int, ...], RationalFn] = {}
        if coeffs:
            for idx, c in coeffs.items():
                idx = tuple(idx)
                if len(idx) != grade:
                    raise ValueError(f"index tuple {idx} has wrong length for grade {grade}")
                if any(not 0 <= v < chart.dim for v in idx):
                    raise ValueError(f"index tuple {idx} out of range")
                if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                    raise ValueError(f"index tuple {idx} is not strictly increasing")
                if not isinstance(c, RationalFn):
                    c = chart.scalar(c)
                if not c.is_zero():
                    clean[idx] = c
        self.coeffs = clean

    # -- helpers --------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, grade: int):
        return cls(chart, grade)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_chart(self, other) -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError("fields live on different charts")

    def _same_kind(self, coeffs, grade=None):
        return type(self)(self.chart, self.grade if grade is None else grade, coeffs)

    def coefficient(self, idx: Iterable[int]) -> RationalFn:
        return self.coeffs.get(tuple(idx), RationalFn.zero(self.chart.dim))

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(self).__name__} and {type(other).__name__}")
        self._check_chart(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} vs {other.grade}")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            acc = out.get(idx)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = acc
        return self._same_kind(out)

    def __neg__(self):
        return self._same_kind({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = self.chart.scalar(factor) if not isinstance(factor, RationalFn) else factor
        if factor.is_zero():
            return self._same_kind({})
        return self._same_kind({i: c * factor for i, c in self.coeffs.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and (self.coeffs == other.coeffs)
            and (self.grade == other.grade or self.is_zero())
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def derivative(self, var: int):
        """Coefficient-wise partial derivative (not a tensor operation)."""
        return self._same_kind(
            {i: d for i, c in self.coeffs.items() if not (d := c.derivative(var)).is_zero()}
        )

    def substitute(self, var: int, value: Fraction):
        return self._same_kind(
            {i: s for i, c in self.coeffs.items() if not (s := c.substitute(var, value)).is_zero()}
        )

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(grade={self.grade}, {self.coeffs!r})"


class MultiVectorField(GradedField):
    """Grade-k antisymmetric contravariant field on a chart."""

    @classmethod
    def basis_vector(cls, chart: Chart, index: int) -> "MultiVectorField":
        return cls(chart, 1, {(index,): chart.scalar(1)})

    @classmethod
    def scalar_field(cls, chart: Chart, value) -> "MultiVectorField":
        return cls(chart, 0, {(): chart.scalar(value)})

    def scalar_value(self) -> RationalFn:
        if self.grade != 0:
            raise ValueError("not a grade-0 field")
        return self.coefficient(())

    def apply_to_function(self, f: RationalFn) -> RationalFn:
        """X(f) for a grade-1 field."""
        if self.grade != 1:
            raise ValueError("directional derivative requires grade 1")
        acc = RationalFn.zero(self.chart.dim)
        for (i,), c in self.coeffs.items():
            acc = acc + c * f.derivative(i)
        return acc

    def has_component(self, var: int) -> bool:
        return any(var in idx for idx in self.coeffs)


class DifferentialForm(GradedField):
    """Grade-k antisymmetric covariant field on a chart."""

    @classmethod
    def basis_form(cls, chart: Chart, index: int) -> "DifferentialForm":
        return cls(chart, 1, {(index,): chart.scalar(1)})


def differential(f: RationalFn, chart: Chart) -> DifferentialForm:
    """df as a 1-form."""
    return DifferentialForm(
        chart,
        1,
        {(i,): d for i in range(chart.dim) if not (d := f.derivative(i)).is_zero()},
    )


def wedge(a, b):
    """Graded-antisymmetric product of two fields of the same kind."""
    if type(a) is not type(b):
        raise TypeError("wedge requires two fields of the same kind")
    a._check_chart(b)
    grade = a.grade + b.grade
    out: dict[tuple[int, ...], RationalFn] = {}
    if grade <= a.chart.dim:
        for i1, c1 in a.coeffs.items():
            for i2, c2 in b.coeffs.items():
                merged = merge_indices(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                acc = out.get(idx)
                acc = term if acc is None else acc + term
                if acc.is_zero():
                    out.pop(idx, None)
                else:
                    out[idx] = acc
    return type(a)(a.chart, grade, out)


def _contract(small_coeffs, big_coeffs):
    """Shared front-insertion contraction; small grade <= big grade."""
    out: dict[tuple[int, ...], RationalFn] = {}
    for small_idx, c_small in small_coeffs.items():
        small_set = set(small_idx)
        for big_idx, c_big in big_coeffs.items():
            if not small_set.issubset(big_idx):
                continue
            rest = tuple(v for v in big_idx if v not in small_set)
            merged = merge_indices(small_idx, rest)
            sign, _ = merged
            term = c_small * c_big if sign > 0 else -(c_small * c_big)
            acc = out.get(rest)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = acc
    return out


def interior_product(P: MultiVectorField, w: DifferentialForm) -> DifferentialForm:
    """i(P)w, inserting the factors of P into the leading slots of w."""
    if not isinstance(P, MultiVectorField) or not isinstance(w, DifferentialForm):
        raise TypeError("interior_product takes (multivector, form)")
    P._check_chart(w)
    if P.grade > w.grade:
        raise ValueError(f"grade {P.grade} multivector into grade {w.grade} form")
    if P.grade == 0:
        return w.scale(P.scalar_value())
    out = _contract(P.coeffs, w.coeffs)
    return DifferentialForm(P.chart, w.grade - P.grade, out)


def contract_form_into_multivector(w: DifferentialForm, P: MultiVectorField) -> MultiVectorField:
    """i(w)P: the dual contraction P(w, ... ) with w in the leading slots."""
    if not isinstance(P, MultiVectorField) or not isinstance(w, DifferentialForm):
        raise TypeError("contract_form_into_multivector takes (form, multivector)")
    P._check_chart(w)
    if w.grade > P.grade:
        raise ValueError(f"grade {w.grade} form into grade {P.grade} multivector")
    if w.grade == 0:
        return P.scale(w.coefficient(()))
    out = _contract(w.coeffs, P.coeffs)
    return MultiVectorField(P.chart, P.grade - w.grade, out)


def pairing(w: DifferentialForm, P: MultiVectorField) -> RationalFn:
    """Full contraction w(P) of a form with a multivector of equal grade."""
    if w.grade != P.grade:
        raise ValueError(f"grade mismatch in pairing: {w.grade} vs {P.grade}")
    w._check_chart(P)
    acc = RationalFn.zero(w.chart.dim)
    for idx, c in P.coeffs.items():
        wc = w.coeffs.get(idx)
        if wc is not None:
            acc = acc + wc * c
    return acc


def apply_to_covector(P: MultiVectorField, alpha: DifferentialForm) -> MultiVectorField:
    """P(alpha) for a grade-2 P and 1-form alpha: the associated vector field."""
    return contract_form_into_multivector(alpha, P)
