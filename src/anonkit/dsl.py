"""Line-oriented concrete syntax for count constraints.

Each non-blank, non-comment line declares one constraint:

    div:  3 <= count(ETH="Asian") <= 6
    fair: ceil_k((C/R0)*(N - S("GEN"))) <= count(GEN="Female")

Grammar, informally: an optional lower bound, the count() call with one
or more ATTR="value" pairs, an optional upper bound. Bounds are
arithmetic over numbers and the statistics N, C, R0 and S("ATTR"),
optionally rounded with ceil_k(...) or floor_k(...) at the outermost
level. `#` starts a comment. Whitespace is free within a line.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constraints import (
    BinOp,
    BoundExpr,
    Constraint,
    ConstraintKind,
    Literal,
    Round,
    RoundMode,
    StarCount,
    Var,
    VarKind,
)
from .errors import LintWarning, ParseError, SemanticError
from .relation import TargetValue


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<leq><=)
  | (?P<punct>[():,=+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _LineParser:
    """Recursive descent over one constraint line."""

    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line_no, self._end_col())
        self.pos += 1
        return tok

    def _end_col(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.column + len(last.text)
        return 1

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def parse_constraint(self) -> Constraint:
        head = self.next()
        if head.kind != "ident" or head.text not in ("div", "fair"):
            raise ParseError(
                f"expected 'div' or 'fair', got {head.text!r}", head.line, head.column
            )
        kind = ConstraintKind.DIVERSITY if head.text == "div" else ConstraintKind.FAIRNESS
        self.kind = kind
        self.expect(":")

        lower = None
        if not self._at_count():
            lower = self.parse_bound()
            self.expect("<=")

        self._expect_count()
        self.expect("(")
        target = self.parse_target(head)
        self.expect(")")

        upper = None
        if self.at("<="):
            self.next()
            upper = self.parse_bound()

        trailing = self.peek()
        if trailing is not None:
            raise ParseError(
                f"trailing input: {trailing.text!r}", trailing.line, trailing.column
            )
        if lower is None and upper is None:
            raise SemanticError(
                "constraint needs at least one bound", head.line, head.column
            )
        return Constraint(kind=kind, target=target, lower=lower, upper=upper)

    def _at_count(self) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "ident" and tok.text == "count"

    def _expect_count(self) -> None:
        tok = self.next()
        if tok.kind != "ident" or tok.text != "count":
            raise ParseError(f"expected 'count', got {tok.text!r}", tok.line, tok.column)

    def parse_target(self, head: _Token) -> TargetValue:
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            attr = self.next()
            if attr.kind != "ident":
                raise ParseError(
                    f"expected attribute name, got {attr.text!r}", attr.line, attr.column
                )
            self.expect("=")
            value = self.next()
            if value.kind != "string":
                raise ParseError(
                    f"expected quoted value, got {value.text!r}", value.line, value.column
                )
            if attr.text in seen:
                raise SemanticError(
                    f"attribute {attr.text!r} repeated in target", attr.line, attr.column
                )
            seen.add(attr.text)
            pairs.append((attr.text, _unquote(value.text)))
            if self.at(","):
                self.next()
                continue
            break
        return TargetValue(pairs)

    def parse_bound(self) -> BoundExpr:
        tok = self.peek()
        if tok is not None and tok.kind == "ident" and tok.text in ("ceil_k", "floor_k"):
            self.next()
            mode = RoundMode.UP if tok.text == "ceil_k" else RoundMode.DOWN
            self.expect("(")
            inner = self.parse_arith()
            self.expect(")")
            return Round(mode, inner)
        return self.parse_arith()

    def parse_arith(self) -> BoundExpr:
        node = self.parse_term()
        while self.at("+") or self.at("-"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> BoundExpr:
        node = self.parse_factor()
        while self.at("*") or self.at("/"):
            op = self.next()
            right = self.parse_factor()
            if op.text == "/" and isinstance(right, Literal) and right.value == 0:
                raise SemanticError("division by zero", op.line, op.column)
            node = BinOp(op.text, node, right)
        return node

    def parse_factor(self) -> BoundExpr:
        tok = self.next()
        if tok.kind == "number":
            return Literal(Fraction(tok.text))
        if tok.text == "(":
            node = self.parse_arith()
            self.expect(")")
            return node
        if tok.kind == "ident":
            if tok.text == "N":
                return Var(VarKind.OUTPUT_SIZE)
            if tok.text == "R0":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_SIZE)
            if tok.text == "C":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_TARGET_COUNT)
            if tok.text == "S":
                self.expect("(")
                arg = self.next()
                if arg.kind != "string":
                    raise ParseError(
                        f"expected quoted attribute, got {arg.text!r}",
                        arg.line,
                        arg.column,
                    )
                self.expect(")")
                return StarCount(_unquote(arg.text))
            if tok.text in ("ceil_k", "floor_k"):
                raise ParseError(
                    f"{tok.text} only applies to a whole bound", tok.line, tok.column
                )
        raise ParseError(f"expected a value, got {tok.text!r}", tok.line, tok.column)

    def _check_initial_stat(self, tok: _Token) -> None:
        if self.kind is ConstraintKind.DIVERSITY:
            raise SemanticError(
                f"{tok.text} reads the input relation; only fairness constraints may",
                tok.line,
                tok.column,
            )


def _lint(constraint: Constraint, k: int, line_no: int) -> None:
    for position, bound in (("lower", constraint.lower), ("upper", constraint.upper)):
        if not isinstance(bound, Literal):
            continue
        value = bound.value
        if k > 1 and (value.denominator != 1 or value % k != 0):
            warnings.warn(
                f"line {line_no}: {position} bound {_format_literal(value)} "
                f"is not a multiple of k={k}",
                LintWarning,
                stacklevel=3,
            )
        if position == "lower" and 0 < value < k:
            warnings.warn(
                f"line {line_no}: lower bound {_format_literal(value)} is below k={k}; "
                "revealed counts are 0 or at least k",
                LintWarning,
                stacklevel=3,
            )


def parse_constraint_line(line: str, k: int = 1, line_no: int = 1) -> Constraint:
    """Parse a single constraint line. Blank or comment-only input is an error."""
    tokens = _tokenize(line, line_no)
    if not tokens:
        raise ParseError("expected a constraint", line_no, 1)
    constraint = _LineParser(tokens, line_no).parse_constraint()
    _lint(constraint, k, line_no)
    return constraint


def parse_constraints(text: str, k: int = 1) -> list[Constraint]:
    """Parse a constraint file: one constraint per line, `#` comments, blanks ok."""
    out: list[Constraint] = []
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, i)
        if not tokens:
            continue
        constraint = _LineParser(tokens, i).parse_constraint()
        _lint(constraint, k, i)
        out.append(constraint)
    return out


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(expr: BoundExpr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    return 9


def _format_literal(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    # Prefer an exact decimal when the denominator is 2^a * 5^b.
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        shift = max(twos, fives)
        digits = value.numerator * 10**shift // value.denominator
        text = str(digits).rjust(shift + 1, "0")
        return text[:-shift] + "." + text[-shift:]
    return f"{value.numerator}/{value.denominator}"


def format_bound(expr: BoundExpr) -> str:
    """Render a bound expression; reparsing yields the identical tree."""
    if isinstance(expr, Literal):
        return _format_literal(expr.value)
    if isinstance(expr, Var):
        return expr.kind.value
    if isinstance(expr, StarCount):
        return f"S({_quote(expr.attribute)})"
    if isinstance(expr, Round):
        name = "ceil_k" if expr.mode is RoundMode.UP else "floor_k"
        return f"{name}({format_bound(expr.inner)})"
    left = format_bound(expr.left)
    right = format_bound(expr.right)
    if _prec(expr.left) < _PRECEDENCE[expr.op]:
        left = f"({left})"
    # Same precedence on the right still needs parens: the parser is
    # left-associative, so `a - b - c` is not `a - (b - c)`.
    if _prec(expr.right) <= _PRECEDENCE[expr.op]:
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def format_constraint(constraint: Constraint) -> str:
    """Render a constraint as one DSL line."""
    parts = [f"{constraint.kind.value}:"]
    if constraint.lower is not None:
        parts.append(format_bound(constraint.lower))
        parts.append("<=")
    pairs = ", ".join(f"{a}={_quote(v)}" for a, v in constraint.target.sorted_entries())
    parts.append(f"count({pairs})")
    if constraint.upper is not None:
        parts.append("<=")
        parts.append(format_bound(constraint.upper))
    return " ".join(parts)
