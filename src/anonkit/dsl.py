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
from fractions import Fraction

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


# Each match is leading whitespace plus one token, a comment, or the end of
# the line. Only tokens are named groups, so the other two have no
# lastgroup. The catch-all `bad` makes every non-space character start some
# token, so finditer walks the line without gaps or backtracking.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        \#.*
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct><=|[():,=+\-*/])
      | (?P<bad>\S)
      | \Z
    )
    """,
    re.VERBOSE,
)

_END = "end"

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

# (kind, text, column); plain tuples are the cheapest to build.
_Token = tuple[str, str, int]


def _tokenize(text: str, line_no: int) -> list[_Token]:
    """The line's tokens, closed by an end marker just past the last one."""
    tokens = []
    end = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        column = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line_no, column)
        end = m.end() + 1
        tokens.append((kind, m[kind], column))
    tokens.append((_END, "", end))
    return tokens


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _LineParser:
    """Recursive descent over one constraint line.

    The token list ends in an end marker that no step consumes, so the
    current token always exists.
    """

    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] == _END:
            raise ParseError("unexpected end of line", self.line_no, tok[2])
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token, cls: type = ParseError) -> Exception:
        return cls(message, self.line_no, tok[2])

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"expected {text!r}, got {tok[1]!r}", tok)

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def parse_constraint(self) -> Constraint:
        head = self.next()
        kind_name, text, _ = head
        if kind_name != "ident" or text not in ("div", "fair"):
            raise self.error(f"expected 'div' or 'fair', got {text!r}", head)
        kind = ConstraintKind.DIVERSITY if text == "div" else ConstraintKind.FAIRNESS
        self.kind = kind
        self.expect(":")

        lower = None
        if self.tokens[self.pos][:2] != ("ident", "count"):
            lower = self.parse_bound()
            self.expect("<=")

        tok = self.next()
        if tok[:2] != ("ident", "count"):
            raise self.error(f"expected 'count', got {tok[1]!r}", tok)
        self.expect("(")
        target = self.parse_target()
        self.expect(")")

        upper = None
        if self.at("<="):
            self.pos += 1
            upper = self.parse_bound()

        trailing = self.tokens[self.pos]
        if trailing[0] != _END:
            raise self.error(f"trailing input: {trailing[1]!r}", trailing)
        if lower is None and upper is None:
            raise self.error("constraint needs at least one bound", head, SemanticError)
        return Constraint(kind, target, lower, upper)

    def parse_target(self) -> TargetValue:
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            attr = self.next()
            if attr[0] != "ident":
                raise self.error(f"expected attribute name, got {attr[1]!r}", attr)
            self.expect("=")
            value = self.next()
            if value[0] != "string":
                raise self.error(f"expected quoted value, got {value[1]!r}", value)
            name = attr[1]
            if name in seen:
                raise self.error(f"attribute {name!r} repeated in target", attr, SemanticError)
            seen.add(name)
            pairs.append((name, _unquote(value[1])))
            if not self.at(","):
                return TargetValue(pairs)
            self.pos += 1

    def parse_bound(self) -> BoundExpr:
        kind, text, _ = self.tokens[self.pos]
        if kind == "ident" and text in ("ceil_k", "floor_k"):
            self.pos += 1
            self.expect("(")
            inner = self.parse_arith()
            self.expect(")")
            return Round(RoundMode.UP if text == "ceil_k" else RoundMode.DOWN, inner)
        return self.parse_arith()

    def parse_arith(self, min_prec: int = 1) -> BoundExpr:
        """Operators bind by _PRECEDENCE and associate to the left."""
        node = self.parse_factor()
        while True:
            op = self.tokens[self.pos]
            prec = _PRECEDENCE.get(op[1], 0)
            if prec < min_prec:
                return node
            self.pos += 1
            right = self.parse_arith(prec + 1)
            if op[1] == "/" and isinstance(right, Literal) and right.value == 0:
                raise self.error("division by zero", op, SemanticError)
            node = BinOp(op[1], node, right)

    def parse_factor(self) -> BoundExpr:
        tok = self.next()
        kind, text, _ = tok
        if kind == "number":
            return Literal(Fraction(text) if "." in text else int(text))
        if text == "(":
            node = self.parse_arith()
            self.expect(")")
            return node
        if kind == "ident":
            if text == "N":
                return Var(VarKind.OUTPUT_SIZE)
            if text == "R0":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_SIZE)
            if text == "C":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_TARGET_COUNT)
            if text == "S":
                self.expect("(")
                arg = self.next()
                if arg[0] != "string":
                    raise self.error(f"expected quoted attribute, got {arg[1]!r}", arg)
                self.expect(")")
                return StarCount(_unquote(arg[1]))
            if text in ("ceil_k", "floor_k"):
                raise self.error(f"{text} only applies to a whole bound", tok)
        raise self.error(f"expected a value, got {text!r}", tok)

    def _check_initial_stat(self, tok: _Token) -> None:
        if self.kind is ConstraintKind.DIVERSITY:
            raise self.error(
                f"{tok[1]} reads the input relation; only fairness constraints may",
                tok,
                SemanticError,
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
    if tokens[0][0] == _END:
        raise ParseError("expected a constraint", line_no, 1)
    constraint = _LineParser(tokens, line_no).parse_constraint()
    _lint(constraint, k, line_no)
    return constraint


def parse_constraints(text: str, k: int = 1) -> list[Constraint]:
    """Parse a constraint file: one constraint per line, `#` comments, blanks ok."""
    out: list[Constraint] = []
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, i)
        if tokens[0][0] == _END:
            continue
        constraint = _LineParser(tokens, i).parse_constraint()
        _lint(constraint, k, i)
        out.append(constraint)
    return out


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
