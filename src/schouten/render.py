"""Canonical text rendering of scalars and fields.

The same renderer backs check-report residuals and the `.fld` printer, so
printed values always re-parse to the objects they came from.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import GradedField, MultiVectorField
from .scalars import MultiPoly, RationalFn, grlex_key


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _format_monomial(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: MultiPoly, names) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        coeff = p.terms[exps]
        mono = _format_monomial(exps, names)
        if not mono:
            body = format_fraction(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{format_fraction(abs(coeff))}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _needs_parens(text: str) -> bool:
    return " " in text


def format_scalar(f: RationalFn, names) -> str:
    num = format_poly(f.num, names)
    if f.den.is_constant() and f.den.constant_value() == 1:
        return num
    den = format_poly(f.den, names)
    num_part = f"({num})" if _needs_parens(num) else num
    den_part = f"({den})" if _needs_parens(den) else den
    return f"{num_part}/{den_part}"


def format_field(F: GradedField, names=None) -> str:
    """Render a multivector or form as a sum of coefficient * basis terms.

    Wedge binds loosest in the expression grammar, so basis monomials of
    grade >= 2 are parenthesized to keep sums of terms re-parsable.
    """
    if names is None:
        names = F.chart.variables
    prefix = "@" if isinstance(F, MultiVectorField) else "d "

    def basis_text(idx) -> str:
        body = " /\\ ".join(f"{prefix}{names[i]}" for i in idx)
        return f"({body})" if len(idx) > 1 else body

    if F.grade == 0:
        return format_scalar(F.coefficient(()), names)
    if F.is_zero():
        if F.grade > len(names):
            return "0"
        return f"0*{basis_text(tuple(range(F.grade)))}"
    pieces = []
    for idx in sorted(F.coeffs):
        coeff = F.coeffs[idx]
        basis = basis_text(idx)
        text = format_scalar(coeff, names)
        if text == "1":
            body = basis
        elif text == "-1":
            body = f"-{basis}"
        else:
            if _needs_parens(text):
                text = f"({text})"
            body = f"{text}*{basis}"
        pieces.append(body)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out
