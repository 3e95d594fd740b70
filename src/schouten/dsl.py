"""Text format for charts, scalars, fields, forms and check declarations.

Grammar (EBNF, `.fld` files):

    document   = { declaration } ;
    declaration= chart | scalar | field | form | check ;
    chart      = "chart" NAME "{" "vars" var { "," var } "}" ;
    var        = NAME [ "*" ] ;                (* "*" marks the time variable *)
    scalar     = "scalar" NAME "=" expr ;
    field      = "field" NAME "=" expr ;       (* multivector-valued *)
    form       = "form" NAME "=" expr ;        (* form-valued *)
    check      = "check" ( "poisson" NAME | "extended" NAME NAME
                         | "jacobi" NAME NAME | "sl2" NAME NAME NAME ) ;
    expr       = additive { "/\\" additive } ;   (* wedge, loosest, right-assoc *)
    additive   = term { ("+"|"-") term } ;
    term       = unary { ("*"|"/") unary } ;
    unary      = "-" unary | power ;
    power      = atom [ "^" INT ] ;              (* integer exponent, scalars only *)
    atom       = INT | NAME | "@" NAME | "d" NAME | "(" expr ")" ;

Numeric literals are integers; rationals are written as quotients (3/4).
`@x` is a basis vector, `d x` a basis 1-form; chart variables are scalar
atoms.  Scalar, field and form declarations bind to the most recently
declared chart.  The check kinds and the number of names each takes come
from `structures.CHECK_KINDS`, the registry the command line also uses.
Parsing never aborts on the first error: a diagnostic is recorded and
scanning resumes at the next declaration keyword.
"""

from __future__ import annotations

import re

from .fields import Chart, DifferentialForm, GradedField, MultiVectorField, wedge
from .render import format_field, format_scalar
from .scalars import RationalFn
from .structures import CHECK_KINDS

DECL_KEYWORDS = ("chart", "scalar", "field", "form", "check")


class ParseDiagnostic:
    __slots__ = ("line", "col", "message", "severity")

    def __init__(self, line: int, col: int, message: str, severity: str = "error"):
        self.line = line
        self.col = col
        self.message = message
        self.severity = severity

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


class Declaration:
    __slots__ = ("kind", "name", "value", "line")

    def __init__(self, kind: str, name: str, value: object, line: int):
        self.kind = kind  # chart | scalar | field | form | check
        self.name = name  # check declarations use the check kind as name qualifier
        self.value = value
        self.line = line


class SourceDocument:
    __slots__ = ("declarations", "diagnostics", "env")

    def __init__(self):
        self.declarations: list[Declaration] = []
        self.diagnostics: list[ParseDiagnostic] = []
        self.env: dict = {}

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def structurally_equal(self, other: "SourceDocument") -> bool:
        if len(self.declarations) != len(other.declarations):
            return False
        return all(
            a.kind == b.kind and a.name == b.name and a.value == b.value
            for a, b in zip(self.declarations, other.declarations)
        )


class _ParseError(Exception):
    def __init__(self, token, message):
        super().__init__(message)
        self.token = token
        self.message = message


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<wedge>/\\)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[@(){},=*/+\-^])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            diagnostics.append(
                ParseDiagnostic(line, col, f"unexpected character {text[pos]!r}")
            )
            pos += 1
            col += 1
            continue
        kind = match.lastgroup
        chunk = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens, diagnostics


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.doc = SourceDocument()
        self.chart: Chart | None = None

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise _ParseError(tok, f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def error(self, message: str, token: _Token | None = None):
        raise _ParseError(token or self.peek(), message)

    # -- declarations -------------------------------------------------------

    def parse_document(self) -> SourceDocument:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name" or tok.text not in DECL_KEYWORDS:
                self.doc.diagnostics.append(
                    ParseDiagnostic(
                        tok.line, tok.col, f"expected a declaration, found {tok.text!r}"
                    )
                )
                self.advance()
                self.synchronize()
                continue
            try:
                self.parse_declaration()
            except _ParseError as err:
                self.doc.diagnostics.append(
                    ParseDiagnostic(err.token.line, err.token.col, err.message)
                )
                self.synchronize()
        return self.doc

    def synchronize(self):
        """Skip to the next declaration keyword so later errors still surface."""
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.text in DECL_KEYWORDS:
                return
            self.advance()

    def declare(self, kind: str, name: str, value, line: int):
        if name in self.doc.env:
            self.error(f"name {name!r} is already declared")
        self.doc.env[name] = value
        self.doc.declarations.append(Declaration(kind, name, value, line))

    def parse_declaration(self):
        keyword = self.advance()
        if keyword.text == "chart":
            self.parse_chart(keyword)
        elif keyword.text == "check":
            self.parse_check(keyword)
        else:
            name = self.expect("name")
            if name.text in DECL_KEYWORDS or name.text == "d":
                self.error(f"{name.text!r} is reserved", name)
            self.expect("sym", "=")
            if self.chart is None:
                self.error("no chart declared before this declaration", keyword)
            value = self.parse_expr()
            expected = {"scalar": RationalFn, "field": MultiVectorField, "form": DifferentialForm}
            want = expected[keyword.text]
            if isinstance(value, RationalFn) and want is not RationalFn:
                # a scalar literal may stand for the zero field/form only
                if value.is_zero():
                    value = want.zero(self.chart, 0)
                else:
                    self.error(f"{keyword.text} declaration got a scalar value", keyword)
            if not isinstance(value, want):
                self.error(
                    f"{keyword.text} declaration got a {type(value).__name__}", keyword
                )
            self.declare(keyword.text, name.text, value, keyword.line)

    def parse_chart(self, keyword: _Token):
        name = self.expect("name")
        self.expect("sym", "{")
        self.expect("name", "vars")
        variables: list[str] = []
        time_index = None
        while True:
            var = self.expect("name")
            if var.text in variables:
                self.error(f"duplicate variable {var.text!r}", var)
            variables.append(var.text)
            if self.peek().kind == "sym" and self.peek().text == "*":
                self.advance()
                if time_index is not None:
                    self.error("more than one time variable", var)
                time_index = len(variables) - 1
            if self.peek().kind == "sym" and self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect("sym", "}")
        chart = Chart(tuple(variables), time_index)
        self.chart = chart
        self.declare("chart", name.text, chart, keyword.line)

    def parse_check(self, keyword: _Token):
        kind = self.expect("name")
        if kind.text not in CHECK_KINDS:
            self.error(f"unknown check kind {kind.text!r}", kind)
        arity, _ = CHECK_KINDS[kind.text]
        names = tuple(self.expect("name").text for _ in range(arity))
        for n in names:
            if n not in self.doc.env:
                self.error(f"check references undeclared name {n!r}", kind)
        self.doc.declarations.append(
            Declaration("check", kind.text, names, keyword.line)
        )

    # -- expressions --------------------------------------------------------

    def parse_expr(self):
        left = self.parse_additive()
        if self.peek().kind == "wedge":
            self.advance()
            right = self.parse_expr()  # right-associative
            return self.apply_wedge(left, right)
        return left

    def parse_additive(self):
        value = self.parse_term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.parse_term()
            value = self.apply_additive(op, value, rhs)
        return value

    def parse_term(self):
        value = self.parse_unary()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.parse_unary()
            value = self.apply_mul(op, value, rhs)
        return value

    def parse_unary(self):
        if self.peek().kind == "sym" and self.peek().text == "-":
            tok = self.advance()
            value = self.parse_unary()
            return -value
        return self.parse_power()

    def parse_power(self):
        value = self.parse_atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            op = self.advance()
            exponent = self.expect("int")
            if not isinstance(value, RationalFn):
                self.error("exponent applies to scalars only", op)
            return value ** int(exponent.text)
        return value

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return RationalFn.constant(self.chart.dim, int(tok.text))
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            value = self.parse_expr()
            self.expect("sym", ")")
            return value
        if tok.kind == "sym" and tok.text == "@":
            self.advance()
            name = self.expect("name")
            return MultiVectorField.basis_vector(self.chart, self.chart_index(name))
        if tok.kind == "name" and tok.text == "d":
            self.advance()
            name = self.expect("name")
            return DifferentialForm.basis_form(self.chart, self.chart_index(name))
        if tok.kind == "name":
            self.advance()
            if self.chart is not None and tok.text in self.chart.variables:
                return self.chart.coordinate(tok.text)
            if tok.text in self.doc.env:
                value = self.doc.env[tok.text]
                if isinstance(value, Chart):
                    self.error(f"{tok.text!r} names a chart, not a value", tok)
                return value
            self.error(f"undeclared name {tok.text!r}", tok)
        self.error(f"expected an expression, found {tok.text or 'end of input'!r}", tok)

    def chart_index(self, name_tok: _Token) -> int:
        try:
            return self.chart.var_index(name_tok.text)
        except KeyError:
            self.error(f"no chart variable {name_tok.text!r}", name_tok)

    # -- operator semantics ---------------------------------------------------

    def apply_additive(self, op: _Token, left, right):
        try:
            if isinstance(left, RationalFn) and isinstance(right, RationalFn):
                return left + right if op.text == "+" else left - right
            if isinstance(left, GradedField) and type(left) is type(right):
                if left.is_zero():
                    left = type(left).zero(left.chart, right.grade)
                if right.is_zero():
                    right = type(right).zero(right.chart, left.grade)
                return left + right if op.text == "+" else left - right
        except ValueError as exc:
            self.error(str(exc), op)
        self.error(
            f"cannot apply {op.text!r} to {type(left).__name__} and {type(right).__name__}",
            op,
        )

    def apply_mul(self, op: _Token, left, right):
        if op.text == "*":
            if isinstance(left, RationalFn) and isinstance(right, RationalFn):
                return left * right
            if isinstance(left, RationalFn) and isinstance(right, GradedField):
                return right.scale(left)
            if isinstance(left, GradedField) and isinstance(right, RationalFn):
                return left.scale(right)
            self.error("use /\\ for products of fields", op)
        if isinstance(right, RationalFn):
            if right.is_zero():
                self.error("division by zero", op)
            if isinstance(left, RationalFn):
                return left / right
            if isinstance(left, GradedField):
                return left.scale(1 / right)
        self.error(f"cannot divide by a {type(right).__name__}", op)

    def apply_wedge(self, left, right):
        if isinstance(left, RationalFn) and isinstance(right, RationalFn):
            return left * right
        if isinstance(left, RationalFn) and isinstance(right, GradedField):
            return right.scale(left)
        if isinstance(right, RationalFn) and isinstance(left, GradedField):
            return left.scale(right)
        if type(left) is type(right):
            return wedge(left, right)
        self.error("wedge of a field with a form")


def parse(text: str) -> SourceDocument:
    """Parse a document; diagnostics never abort remaining declarations."""
    tokens, lex_diagnostics = _tokenize(text)
    parser = _Parser(tokens)
    doc = parser.parse_document()
    doc.diagnostics = lex_diagnostics + doc.diagnostics
    return doc


def print_document(doc: SourceDocument) -> str:
    """Canonical text of a document; a fixed point of parse . print."""
    lines = []
    chart: Chart | None = None
    for decl in doc.declarations:
        if decl.kind == "chart":
            chart = decl.value
            vars_text = ", ".join(
                f"{name}*" if chart.time_index == i else name
                for i, name in enumerate(chart.variables)
            )
            lines.append(f"chart {decl.name} {{ vars {vars_text} }}")
        elif decl.kind == "check":
            lines.append(f"check {decl.name} {' '.join(decl.value)}")
        elif decl.kind == "scalar":
            lines.append(f"scalar {decl.name} = {format_scalar(decl.value, chart.variables)}")
        else:
            lines.append(f"{decl.kind} {decl.name} = {format_field(decl.value, chart.variables)}")
    return "\n".join(lines) + ("\n" if lines else "")
