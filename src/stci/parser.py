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

:func:`parse` returns the expression as a postfix program: a tuple of steps,
each a literal's generator rows (a tuple of exponent tuples), a binary
operator (``"&"``, ``"+"`` or ``"*"``), or a power ``(bracket, exponent)``
with bracket ``""``, ``"["`` or ``"("``.  :func:`evaluate` and
:func:`format_program` run it in one loop over a value stack, so an operator
chain of any length costs no Python frames; only brackets nest, at most
:data:`BRACKET_DEPTH_BOUND` deep.
"""

from __future__ import annotations

from operator import add, and_, mul
from typing import NamedTuple

from .core import FieldSpec, MonomialIdeal, RingContext, _exponent_text
from .decomposition import symbolic_power


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EvaluationError(ValueError):
    """A well-formed expression whose evaluation violates a contract."""


# The most brackets open at once.  Each level takes two parser frames, so an
# expression at the bound parses with 600 of Python's default 1000 frames
# and leaves room for a caller several hundred frames deep.
BRACKET_DEPTH_BOUND = 300
# Binding strength of the binary operators, all left-associative.  A power
# suffix binds tighter than any of them, and a generator list tighter still:
# it is the one operand a power suffix takes without brackets.
_PRECEDENCE = {"&": 1, "+": 2, "*": 2}
_POWERED, _LITERAL = 3, 4
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


class _Token(NamedTuple):
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
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
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
# parsing


def _found(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...] = ()):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {v: i for i, v in enumerate(variables)}
        self.brackets = 0  # brackets open at the current token
        self.steps = []  # the postfix program parsed so far

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
    def program(self) -> tuple[tuple[str, ...], tuple]:
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
        self.expr()
        self.end()
        return tuple(self.var_index), tuple(self.steps)

    # expr := term { "&" term };  term := atom { ("+"|"*") atom }
    def expr(self) -> None:
        """Append the postfix steps of atoms joined by left-associative
        operators, tighter ones first.

        Operators wait on a stack until one that binds no tighter, or the
        end of the expression, emits them, so only brackets recurse.
        """
        self.atom()
        waiting = []
        while True:
            op = self.peek().kind
            while waiting and _PRECEDENCE.get(op, 0) <= _PRECEDENCE[waiting[-1]]:
                self.steps.append(waiting.pop())
            if op not in _PRECEDENCE:
                return
            waiting.append(self.advance().kind)
            self.atom()

    def atom(self) -> None:
        if self.peek().kind == "[":
            tok = self.advance()
            if self.brackets == BRACKET_DEPTH_BOUND:
                raise ParseError(f"brackets nested too deeply (more than "
                                 f"{BRACKET_DEPTH_BOUND})", tok.line, tok.column)
            self.brackets += 1
            self.expr()
            self.expect("]")
            self.brackets -= 1
        else:
            self.literal()
        self.power_suffix()

    def power_suffix(self) -> None:
        if self.peek().kind != "^":
            return
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
        self.steps.append((bracket, exponent))

    def positive_nat(self) -> int:
        tok = self.expect("nat", "a number")
        value = int(tok.text)
        if value < 1:
            raise ParseError("power exponent must be positive", tok.line, tok.column)
        return value

    # literal := "(" monomial { "," monomial } ")"
    def literal(self) -> None:
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
        self.steps.append(tuple(rows))

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
) -> tuple[RingContext, tuple]:
    """Parse a full program, a ring declaration followed by an expression,
    into its ring and its postfix steps."""
    parser = _Parser(text)
    try:
        variables, steps = parser.program()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("brackets nested too deeply", tok.line, tok.column) from None
    return RingContext(variables, field), steps


def evaluate(ctx: RingContext, steps: tuple) -> MonomialIdeal:
    """Run a postfix program on a stack of monomial ideals."""
    stack = []
    for step in steps:
        if isinstance(step, str):
            right = stack.pop()
            stack.append(_BINARY[step](stack.pop(), right))
        elif isinstance(step[0], str):
            bracket, exponent = step
            try:
                stack[-1] = _POWER[bracket](stack[-1], exponent)
            except ValueError as exc:
                raise EvaluationError(str(exc)) from None
        else:
            stack.append(MonomialIdeal.from_exponents(ctx, step))
    (ideal,) = stack
    return ideal


# ---------------------------------------------------------------------------
# canonical printing


def format_program(ctx: RingContext, steps: tuple) -> str:
    """Canonical text form; parsing and reprinting it is a fixed point.

    The stack holds the text of each operand and the binding strength of
    its outermost construct, which decides where brackets go.
    """
    unit = f"{ctx.variables[0]}^0"
    stack = []
    for step in steps:
        if isinstance(step, str):
            prec = _PRECEDENCE[step]
            right, rp = stack.pop()
            left, lp = stack.pop()
            # left-associative: only a right operand binds as loosely as step
            if lp < prec:
                left = f"[{left}]"
            if rp <= prec:
                right = f"[{right}]"
            stack.append((f"{left} {step} {right}", prec))
        elif isinstance(step[0], str):
            bracket, exponent = step
            base, prec = stack.pop()
            if prec != _LITERAL:
                base = f"[{base}]"
            stack.append((f"{base}^{bracket}{exponent}{_CLOSE[bracket]}", _POWERED))
        else:
            rows = ", ".join(_exponent_text(ctx.variables, r) or unit for r in step)
            stack.append((f"({rows})", _LITERAL))
    ((body, _),) = stack
    return f"ring {', '.join(ctx.variables)}; {body}"
