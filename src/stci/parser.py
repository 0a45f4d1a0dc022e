"""The ideal-expression DSL: parsing, evaluation, canonical printing.

Grammar (EBNF)::

    program := "ring" ident { "," ident } ";" expr
    expr    := term { "&" term }
    term    := atom { ("+"|"*") atom }
    atom    := literal [ power-suffix ] | "[" expr "]" [ power-suffix ]
    power-suffix := "^" nat | "^[" nat "]" | "^(" nat ")"
    literal := "(" monomial { "," monomial } ")"
    monomial:= factor { "*" factor }
    factor  := ident [ "^" nat ]

``&`` is ideal intersection, ``+`` and ``*`` are sum and product at one
(left-associative) precedence level below the power suffixes, and square
brackets group ideal expressions; round brackets only delimit generator
lists.  ``^[n]`` is the bracket (generator-wise) power and ``^(n)`` the
symbolic power, which requires a squarefree base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FieldSpec, Monomial, MonomialIdeal, RingContext
from .decomposition import symbolic_power


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EvaluationError(ValueError):
    """A well-formed expression whose evaluation violates a contract."""


# ---------------------------------------------------------------------------
# tokens


_PUNCT = {",", ";", "&", "+", "*", "^", "(", ")", "[", "]"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "nat" | punctuation | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree


class IdealExpression:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Literal(IdealExpression):
    rows: tuple[tuple[int, ...], ...]  # generator exponent tuples


@dataclass(frozen=True)
class Sum(IdealExpression):
    left: IdealExpression
    right: IdealExpression


@dataclass(frozen=True)
class Product(IdealExpression):
    left: IdealExpression
    right: IdealExpression


@dataclass(frozen=True)
class Intersection(IdealExpression):
    left: IdealExpression
    right: IdealExpression


@dataclass(frozen=True)
class Power(IdealExpression):
    base: IdealExpression
    exponent: int


@dataclass(frozen=True)
class BracketPower(IdealExpression):
    base: IdealExpression
    exponent: int


@dataclass(frozen=True)
class SymbolicPower(IdealExpression):
    base: IdealExpression
    exponent: int


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.var_index = {v: i for i, v in enumerate(variables)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(
                f"expected {what or kind!r}, found {found!r}", tok.line, tok.column
            )
        return self.advance()

    # expr := term { "&" term }
    def expr(self) -> IdealExpression:
        node = self.term()
        while self.peek().kind == "&":
            self.advance()
            node = Intersection(node, self.term())
        return node

    # term := atom { ("+"|"*") atom }
    def term(self) -> IdealExpression:
        node = self.atom()
        while self.peek().kind in ("+", "*"):
            op = self.advance()
            rhs = self.atom()
            node = Sum(node, rhs) if op.kind == "+" else Product(node, rhs)
        return node

    def atom(self) -> IdealExpression:
        tok = self.peek()
        if tok.kind == "(":
            node = self.literal()
        elif tok.kind == "[":
            self.advance()
            node = self.expr()
            self.expect("]", "']'")
        else:
            found = tok.text or "end of input"
            raise ParseError(
                f"expected a generator list or '[', found {found!r}",
                tok.line,
                tok.column,
            )
        return self.power_suffix(node)

    def power_suffix(self, node: IdealExpression) -> IdealExpression:
        if self.peek().kind != "^":
            return node
        self.advance()
        tok = self.peek()
        if tok.kind == "nat":
            n = self.positive_nat()
            return Power(node, n)
        if tok.kind == "[":
            self.advance()
            n = self.positive_nat()
            self.expect("]", "']'")
            return BracketPower(node, n)
        if tok.kind == "(":
            self.advance()
            n = self.positive_nat()
            self.expect(")", "')'")
            return SymbolicPower(node, n)
        found = tok.text or "end of input"
        raise ParseError(
            f"malformed power: expected a number, '[n]' or '(n)', found {found!r}",
            tok.line,
            tok.column,
        )

    def positive_nat(self) -> int:
        tok = self.expect("nat", "a number")
        value = int(tok.text)
        if value < 1:
            raise ParseError("power exponent must be positive", tok.line, tok.column)
        return value

    # literal := "(" monomial { "," monomial } ")"
    def literal(self) -> Literal:
        open_tok = self.expect("(", "'('")
        if self.peek().kind == ")":
            raise ParseError(
                "empty generator list", open_tok.line, open_tok.column
            )
        rows = [self.monomial()]
        while self.peek().kind == ",":
            self.advance()
            rows.append(self.monomial())
        tok = self.peek()
        if tok.kind != ")":
            found = tok.text or "end of input"
            raise ParseError(f"expected ',' or ')', found {found!r}",
                             tok.line, tok.column)
        self.advance()
        return Literal(tuple(rows))

    # monomial := factor { "*" factor }
    def monomial(self) -> tuple[int, ...]:
        exps = [0] * len(self.variables)
        self.factor(exps)
        while self.peek().kind == "*":
            self.advance()
            self.factor(exps)
        return tuple(exps)

    def factor(self, exps: list[int]) -> None:
        tok = self.expect("ident", "a variable")
        if tok.text not in self.var_index:
            raise ParseError(
                f"undeclared variable {tok.text!r}", tok.line, tok.column
            )
        e = 1
        if self.peek().kind == "^":
            self.advance()
            e = int(self.expect("nat", "a number").text)
        exps[self.var_index[tok.text]] += e


def parse(
    text: str, field: FieldSpec = FieldSpec.rationals()
) -> tuple[RingContext, IdealExpression]:
    """Parse a full program: a ring declaration followed by an expression."""
    tokens = _tokenize(text)
    if not tokens or tokens[0].kind != "ident" or tokens[0].text != "ring":
        tok = tokens[0]
        raise ParseError("program must start with a ring declaration",
                         tok.line, tok.column)
    pos = 1
    variables = []
    while True:
        tok = tokens[pos]
        if tok.kind != "ident":
            found = tok.text or "end of input"
            raise ParseError(f"expected a variable name, found {found!r}",
                             tok.line, tok.column)
        variables.append(tok.text)
        pos += 1
        if tokens[pos].kind == ",":
            pos += 1
            continue
        break
    tok = tokens[pos]
    if tok.kind != ";":
        found = tok.text or "end of input"
        raise ParseError(f"expected ';' after the ring declaration, found {found!r}",
                         tok.line, tok.column)
    pos += 1
    if len(set(variables)) != len(variables):
        raise ParseError("variable names must be distinct", tokens[1].line,
                         tokens[1].column)
    parser = _Parser(tokens, tuple(variables))
    parser.pos = pos
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.column)
    ctx = RingContext(tuple(variables), field)
    return ctx, node


def evaluate(ctx: RingContext, node: IdealExpression) -> MonomialIdeal:
    """Fold an expression tree into a monomial ideal."""
    if isinstance(node, Literal):
        return MonomialIdeal.from_generators(
            ctx, [Monomial(ctx, row) for row in node.rows]
        )
    if isinstance(node, Sum):
        return evaluate(ctx, node.left) + evaluate(ctx, node.right)
    if isinstance(node, Product):
        return evaluate(ctx, node.left) * evaluate(ctx, node.right)
    if isinstance(node, Intersection):
        return evaluate(ctx, node.left) & evaluate(ctx, node.right)
    if isinstance(node, Power):
        return evaluate(ctx, node.base) ** node.exponent
    if isinstance(node, BracketPower):
        return evaluate(ctx, node.base).bracket_power(node.exponent)
    if isinstance(node, SymbolicPower):
        base = evaluate(ctx, node.base)
        try:
            return symbolic_power(base, node.exponent)
        except ValueError as exc:
            raise EvaluationError(str(exc)) from None
    raise TypeError(f"unknown expression node {node!r}")


def evaluate_program(
    text: str, field: FieldSpec = FieldSpec.rationals()
) -> MonomialIdeal:
    ctx, node = parse(text, field)
    return evaluate(ctx, node)


# ---------------------------------------------------------------------------
# canonical printing


def _format_monomial_row(variables: tuple[str, ...], row: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(variables, row):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    if not parts:
        return f"{variables[0]}^0"
    return "*".join(parts)


_PREC_INTERSECT = 1
_PREC_TERM = 2
_PREC_ATOM = 3


def _format(node: IdealExpression, variables: tuple[str, ...]) -> tuple[str, int]:
    if isinstance(node, Literal):
        inner = ", ".join(_format_monomial_row(variables, r) for r in node.rows)
        return f"({inner})", _PREC_ATOM
    if isinstance(node, (Sum, Product)):
        op = " + " if isinstance(node, Sum) else " * "
        lt, lp = _format(node.left, variables)
        rt, rp = _format(node.right, variables)
        if lp < _PREC_TERM:
            lt = f"[{lt}]"
        if rp <= _PREC_TERM:
            rt = f"[{rt}]"
        return lt + op + rt, _PREC_TERM
    if isinstance(node, Intersection):
        lt, lp = _format(node.left, variables)
        rt, rp = _format(node.right, variables)
        if rp <= _PREC_INTERSECT:
            rt = f"[{rt}]"
        return lt + " & " + rt, _PREC_INTERSECT
    if isinstance(node, (Power, BracketPower, SymbolicPower)):
        bt, _ = _format(node.base, variables)
        # the grammar allows one power suffix per atom, so only a literal
        # can stand unbracketed under a power
        if not isinstance(node.base, Literal):
            bt = f"[{bt}]"
        if isinstance(node, Power):
            suffix = f"^{node.exponent}"
        elif isinstance(node, BracketPower):
            suffix = f"^[{node.exponent}]"
        else:
            suffix = f"^({node.exponent})"
        return bt + suffix, _PREC_ATOM
    raise TypeError(f"unknown expression node {node!r}")


def format_program(ctx: RingContext, node: IdealExpression) -> str:
    """Canonical text form; parsing and reprinting it is a fixed point."""
    body, _ = _format(node, ctx.variables)
    return f"ring {', '.join(ctx.variables)}; {body}"


def parse_monomial(ctx: RingContext, text: str) -> Monomial:
    """Parse a bare monomial like ``x^2*y`` inside an existing context."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, ctx.variables)
    row = parser.monomial()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.column)
    return Monomial(ctx, row)
