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

The syntax tree has three node kinds: :class:`Literal` (a generator list),
:class:`BinaryOp` (``&``, ``+`` or ``*`` on two expressions) and
:class:`PowerOp` (an ordinary, bracket or symbolic power).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, and_, mul

from .core import FieldSpec, Monomial, MonomialIdeal, RingContext
from .decomposition import symbolic_power


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EvaluationError(ValueError):
    """A well-formed expression whose evaluation violates a contract."""


# Binding strength of the binary operators, all left-associative; a power
# suffix binds tighter than any of them.
_PRECEDENCE = {"&": 1, "+": 2, "*": 2}
_ATOM = 3
# The bracket that opens a power's exponent ("" for an ordinary power) and
# the one that closes it.
_CLOSE = {"": "", "[": "]", "(": ")"}
# The operations are looked up on their operands at call time, so wrappers
# installed later on MonomialIdeal's methods or on symbolic_power still apply.
_BINARY = {"&": and_, "+": add, "*": mul}
_POWER = {
    "": pow,
    "[": lambda a, t: a.bracket_power(t),
    "(": lambda a, t: symbolic_power(a, t),
}


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
class BinaryOp(IdealExpression):
    op: str  # "&", "+" or "*"
    left: IdealExpression
    right: IdealExpression


@dataclass(frozen=True)
class PowerOp(IdealExpression):
    bracket: str  # "" ordinary, "[" bracket, "(" symbolic
    base: IdealExpression
    exponent: int


def _found(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...] = ()):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {v: i for i, v in enumerate(variables)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        """The next token, which must be of ``kind``; ``what`` describes it
        in the error, which otherwise quotes the punctuation ``kind``."""
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or repr(kind)}, found {_found(tok)}",
                             tok.line, tok.column)
        return self.advance()

    def end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)

    # program := "ring" ident { "," ident } ";" expr
    def program(self) -> tuple[tuple[str, ...], IdealExpression]:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != "ring":
            raise ParseError("program must start with a ring declaration",
                             tok.line, tok.column)
        self.advance()
        names = [self.expect("ident", "a variable name")]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("ident", "a variable name"))
        self.expect(";")
        self.var_index = {t.text: i for i, t in enumerate(names)}
        if len(self.var_index) != len(names):
            raise ParseError("variable names must be distinct",
                             names[0].line, names[0].column)
        node = self.expr()
        self.end()
        return tuple(self.var_index), node

    # expr := term { "&" term };  term := atom { ("+"|"*") atom }
    def expr(self, level: int = 1) -> IdealExpression:
        """An expression whose operators have precedence ``level`` or more.

        Precedence climbing: the right operand of an operator takes only
        operators that bind tighter, so each level is left-associative.
        """
        node = self.atom()
        while _PRECEDENCE.get(self.peek().kind, 0) >= level:
            op = self.advance().kind
            node = BinaryOp(op, node, self.expr(_PRECEDENCE[op] + 1))
        return node

    def atom(self) -> IdealExpression:
        if self.peek().kind == "[":
            self.advance()
            node = self.expr()
            self.expect("]")
        else:
            node = self.literal()
        return self.power_suffix(node)

    def power_suffix(self, node: IdealExpression) -> IdealExpression:
        if self.peek().kind != "^":
            return node
        self.advance()
        tok = self.peek()
        if tok.kind not in ("nat", "[", "("):
            raise ParseError(
                f"malformed power: expected a number, '[n]' or '(n)', "
                f"found {_found(tok)}",
                tok.line,
                tok.column,
            )
        bracket = "" if tok.kind == "nat" else self.advance().kind
        exponent = self.positive_nat()
        if bracket:
            self.expect(_CLOSE[bracket])
        return PowerOp(bracket, node, exponent)

    def positive_nat(self) -> int:
        tok = self.expect("nat", "a number")
        value = int(tok.text)
        if value < 1:
            raise ParseError("power exponent must be positive", tok.line, tok.column)
        return value

    # literal := "(" monomial { "," monomial } ")"
    def literal(self) -> Literal:
        open_tok = self.expect("(", "a generator list or '['")
        if self.peek().kind == ")":
            raise ParseError(
                "empty generator list", open_tok.line, open_tok.column
            )
        rows = [self.monomial()]
        while self.peek().kind == ",":
            self.advance()
            rows.append(self.monomial())
        self.expect(")", "',' or ')'")
        return Literal(tuple(rows))

    # monomial := factor { "*" factor }
    def monomial(self) -> tuple[int, ...]:
        exps = [0] * len(self.var_index)
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
    variables, node = _Parser(text).program()
    return RingContext(variables, field), node


def evaluate(ctx: RingContext, node: IdealExpression) -> MonomialIdeal:
    """Fold an expression tree into a monomial ideal."""
    if isinstance(node, Literal):
        return MonomialIdeal.from_generators(
            ctx, [Monomial(ctx, row) for row in node.rows]
        )
    if isinstance(node, BinaryOp):
        return _BINARY[node.op](evaluate(ctx, node.left), evaluate(ctx, node.right))
    if isinstance(node, PowerOp):
        base = evaluate(ctx, node.base)
        try:
            return _POWER[node.bracket](base, node.exponent)
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


def _format(node: IdealExpression, variables: tuple[str, ...]) -> tuple[str, int]:
    """The text of ``node`` and the precedence of its outermost operator."""
    if isinstance(node, Literal):
        inner = ", ".join(_format_monomial_row(variables, r) for r in node.rows)
        return f"({inner})", _ATOM
    if isinstance(node, BinaryOp):
        prec = _PRECEDENCE[node.op]
        lt, lp = _format(node.left, variables)
        rt, rp = _format(node.right, variables)
        # left-associative: only a right operand binds as loosely as op
        if lp < prec:
            lt = f"[{lt}]"
        if rp <= prec:
            rt = f"[{rt}]"
        return f"{lt} {node.op} {rt}", prec
    if isinstance(node, PowerOp):
        bt, _ = _format(node.base, variables)
        # the grammar allows one power suffix per atom, so only a literal
        # can stand unbracketed under a power
        if not isinstance(node.base, Literal):
            bt = f"[{bt}]"
        return f"{bt}^{node.bracket}{node.exponent}{_CLOSE[node.bracket]}", _ATOM
    raise TypeError(f"unknown expression node {node!r}")


def format_program(ctx: RingContext, node: IdealExpression) -> str:
    """Canonical text form; parsing and reprinting it is a fixed point."""
    body, _ = _format(node, ctx.variables)
    return f"ring {', '.join(ctx.variables)}; {body}"


def parse_monomial(ctx: RingContext, text: str) -> Monomial:
    """Parse a bare monomial like ``x^2*y`` inside an existing context."""
    parser = _Parser(text, ctx.variables)
    row = parser.monomial()
    parser.end()
    return Monomial(ctx, row)
