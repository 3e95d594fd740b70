"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each `schouten` module
with wrappers that record one span per outermost call, everywhere the
function object is bound: its defining module, every module that re-exports
it (`structures`, `models`, `cli`, the package itself) and, for methods,
every class attribute that refers to it (`MultiPoly.__mul__` is also
`__rmul__`).  `Tracer.restore()` puts the originals back.

Spans live in memory (four flat arrays) and are written out at the end.  A
call made while another call of the same layer is open is counted as nested
and gets no span of its own, so a recursive call counts once.  A layer's
self time is the time inside its spans that no child span covers; the
wrapper's own bookkeeping, such as measuring a product's coefficient size,
falls inside the span of the layer it observes.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# (layer, module, attribute) for every wrapped function; several functions
# may share one layer.
TARGETS: list[tuple[str, str, str]] = [
    ("scalars.MultiPoly.mul", "schouten.scalars", "MultiPoly.__mul__"),
    ("scalars.poly_gcd", "schouten.scalars", "poly_gcd"),
    ("scalars.exact_div", "schouten.scalars", "exact_div"),
    ("scalars.normalize", "schouten.scalars", "_normalize"),
    ("fields.wedge", "schouten.fields", "wedge"),
    ("fields.contraction", "schouten.fields", "interior_product"),
    ("fields.contraction", "schouten.fields", "contract_form_into_multivector"),
    ("fields.contraction", "schouten.fields", "pairing"),
    ("calculus.schouten_bracket", "schouten.calculus", "schouten_bracket"),
    ("calculus.exterior_derivative", "schouten.calculus", "exterior_derivative"),
    *[
        ("structures.checks", "schouten.structures", name)
        for name in (
            "is_poisson",
            "extended_jacobi_check",
            "invariance_conditions",
            "jacobi_structure_check",
            "modular_field_checks",
            "automorphism_hierarchy",
            "symmetry_transfer",
            "characteristic_curl",
        )
    ],
    *[
        ("models.suites", "schouten.models", name)
        for name in (
            "sl2_verify",
            "darboux_halphen_fixture",
            "time_dependent_basis",
            "extended_pair",
            "haltr_generators",
            "prop5_pipeline",
            "build_fluid_data",
            "fluid_symplectic",
            "helicity_identity",
            "helicity_suite",
            "conformal_suite",
            "fluid_hierarchy",
            "rigid_rotation_fixture",
            "shear_flow_fixture",
            "nonunimodular_fixture",
            "verify_darboux_halphen",
            "verify_fluid",
        )
    ],
    ("models.fixture_environment", "schouten.models", "fixture_environment"),
    ("dsl.parse", "schouten.dsl", "parse"),
    ("render.format_field", "schouten.render", "format_field"),
    ("oracle.run_pairing_oracle", "schouten.oracle", "run_pairing_oracle"),
    ("cli.main", "schouten.cli", "main"),
]

def self_times(layer, parent, start, end, nlayers: int) -> list[float]:
    """Seconds per layer inside its spans and outside their child spans.

    Spans are given as parallel sequences; `parent[i]` is the index of the
    span that was open when span i began, or -1.
    """
    covered = [0.0] * len(layer)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = [0.0] * nlayers
    for i, g in enumerate(layer):
        out[g] += end[i] - start[i] - covered[i]
    return out


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


class Tracer:
    """Wrappers, spans and counters for one traced run."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = list(dict.fromkeys(layer for layer, _, _ in targets))
        self.ids = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.open_depth = [0] * len(self.layers)
        self.nested = [0] * len(self.layers)
        self.mul_max_terms = 0
        self.coeff_bits_max = 0
        self.gcd_nontrivial = 0
        self.patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, layer: str, fn, observe=None):
        gid = self.ids[layer]
        depth = self.open_depth
        nested = self.nested
        stack = self.stack
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if depth[gid]:
                nested[gid] += 1
                depth[gid] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[gid] -= 1
            index = len(span_layer)
            parent = stack[-1] if stack else -1
            span_layer.append(gid)
            span_parent.append(parent)
            span_end.append(0.0)
            span_start.append(clock())
            stack.append(index)
            depth[gid] = 1
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, span_layer[parent] if parent >= 0 else -1)
            finally:
                span_end[index] = clock()
                stack.pop()
                depth[gid] = 0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def reset_open(self) -> None:
        """Close every open span, after an operation was interrupted."""
        now = time.perf_counter()
        for index in self.stack:
            self.span_end[index] = now
        self.stack.clear()
        self.open_depth[:] = [0] * len(self.layers)

    # -- observers ----------------------------------------------------------

    def _observe_mul(self, result, parent_layer):
        if len(result.terms) > self.mul_max_terms:
            self.mul_max_terms = len(result.terms)
        bits = _coeff_bits(result)
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits

    def _observe_gcd(self, result, parent_layer):
        if parent_layer == self.ids.get("scalars.normalize") and not result.is_constant():
            self.gcd_nontrivial += 1

    def _observe_normalize(self, result, parent_layer):
        for poly in result:
            bits = _coeff_bits(poly)
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "scalars.MultiPoly.mul": self._observe_mul,
            "scalars.poly_gcd": self._observe_gcd,
            "scalars.normalize": self._observe_normalize,
        }
        modules = [m for name, m in sorted(sys.modules.items()) if name == "schouten" or name.startswith("schouten.")]
        for layer, module_name, attribute in self.targets:
            owner = sys.modules[module_name]
            *outer, name = attribute.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapper = self.wrap(layer, original, observers.get(layer))
            holders = [owner] if outer else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self.patches.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, nested calls, self seconds and total seconds per layer."""
        own = self_times(self.span_layer, self.span_parent, self.span_start, self.span_end, len(self.layers))
        calls = [0] * len(self.layers)
        total = [0.0] * len(self.layers)
        for i, g in enumerate(self.span_layer):
            calls[g] += 1
            total[g] += self.span_end[i] - self.span_start[i]
        return {
            name: {"calls": calls[g], "nested": self.nested[g], "self_s": own[g], "total_s": total[g]}
            for g, name in enumerate(self.layers)
        }

    def write_spans(self, path: Path) -> None:
        """One line per span: index, parent, layer, start and end in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.layers
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,parent,layer,start_us,end_us\n")
            out.writelines(
                f"{i},{p},{names[g]},{(a - origin) * 1e6:.1f},{(b - origin) * 1e6:.1f}\n"
                for i, (p, g, a, b) in enumerate(
                    zip(self.span_parent, self.span_layer, self.span_start, self.span_end)
                )
            )
