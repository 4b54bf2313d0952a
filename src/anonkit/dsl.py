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
from typing import Optional, Sequence

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
from .errors import AnonError, LintWarning, ParseError, SemanticError
from .relation import TargetValue


# Each match is leading whitespace plus a comment, the end of the line or
# one token (a number, name, quoted value, <=, punctuation or the catch-all
# \S, so the scan has no gaps). Only the token is captured: findall returns
# the token texts, with "" for a comment or the end.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        \#.*
      | (\d+(?:\.\d+)?|[A-Za-z_][A-Za-z_0-9]*|"(?:[^"\\]|\\.)*"|<=|[():,=+\-*/]|\S)
      | \Z
    )
    """,
    re.VERBOSE,
)

# The one-character tokens the grammar knows, but for non-ASCII digits,
# which \d also takes. Any other one-character token came from \S, and
# a line holding one never parses.
_ONE_CHAR_TOKENS = frozenset("_():,=+-*/0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

# How deep a bound may nest: in parentheses, and in operators of its
# expression tree. The parser recurses about three frames per
# parenthesis, and tree walkers one frame per operator, so both stay
# well inside Python's default recursion limit of 1,000.
MAX_NESTING = 100


def _columns(line: str) -> list[int]:
    """Each token's 1-based column, then the column just past the last token."""
    spans = [m.span(1) for m in _TOKEN_RE.finditer(line) if m[1]]
    return [start + 1 for start, _ in spans] + [spans[-1][1] + 1 if spans else 1]


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _LineParser:
    """Recursive descent over one constraint line's token texts.

    A token's kind shows in its text: a quoted value starts with '"', a
    number with a digit, a name with a letter or '_'. No step consumes
    the end marker "", so a current token always exists. Columns are
    worked out only for an error.
    """

    def __init__(self, tokens: list[str], line: str, line_no: int):
        self.tokens = tokens
        self.line = line
        self.line_no = line_no
        self.pos = 0
        self.open_parens = 0

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            raise self.error("unexpected end of line", self.pos)
        self.pos += 1
        return tok

    def error(self, message: str, index: int, cls: type = ParseError) -> Exception:
        """An error at the index-th token."""
        return cls(message, self.line_no, _columns(self.line)[index])

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}", self.pos - 1)

    def parse_constraint(self) -> Constraint:
        head = self.next()
        if head not in ("div", "fair"):
            raise self.error(f"expected 'div' or 'fair', got {head!r}", 0)
        self.kind = kind = ConstraintKind.DIVERSITY if head == "div" else ConstraintKind.FAIRNESS
        self.expect(":")

        lower = None
        if self.tokens[self.pos] != "count":
            lower = self.parse_bound()
            self.expect("<=")

        tok = self.next()
        if tok != "count":
            raise self.error(f"expected 'count', got {tok!r}", self.pos - 1)
        self.expect("(")
        target = self.parse_target()
        self.expect(")")

        upper = None
        if self.tokens[self.pos] == "<=":
            self.pos += 1
            upper = self.parse_bound()

        trailing = self.tokens[self.pos]
        if trailing:
            raise self.error(f"trailing input: {trailing!r}", self.pos)
        if lower is None and upper is None:
            raise self.error("constraint needs at least one bound", 0, SemanticError)
        return Constraint(kind, target, lower, upper)

    def parse_target(self) -> TargetValue:
        pairs: dict[str, str] = {}
        while True:
            name = self.next()
            at = self.pos - 1
            if not (name.isidentifier() and name.isascii()):
                raise self.error(f"expected attribute name, got {name!r}", at)
            self.expect("=")
            value = self.next()
            if len(value) < 2 or value[0] != '"':
                raise self.error(f"expected quoted value, got {value!r}", self.pos - 1)
            if name in pairs:
                raise self.error(f"attribute {name!r} repeated in target", at, SemanticError)
            pairs[name] = _unquote(value)
            if self.tokens[self.pos] != ",":
                return TargetValue(pairs.items())
            self.pos += 1

    def parse_bound(self) -> BoundExpr:
        text = self.tokens[self.pos]
        if text in ("ceil_k", "floor_k"):
            self.pos += 1
            self.expect("(")
            inner, _ = self.parse_arith()
            self.expect(")")
            return Round(RoundMode.UP if text == "ceil_k" else RoundMode.DOWN, inner)
        return self.parse_arith()[0]

    def too_deep(self, index: int) -> Exception:
        return self.error(f"bound nested more than {MAX_NESTING} levels deep", index)

    def parse_arith(self, min_prec: int = 1) -> tuple[BoundExpr, int]:
        """The expression and its operator depth; operators bind by
        _PRECEDENCE and associate to the left."""
        node, depth = self.parse_factor()
        while True:
            op = self.tokens[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < min_prec:
                return node, depth
            at = self.pos
            self.pos += 1
            right, right_depth = self.parse_arith(prec + 1)
            if op == "/" and isinstance(right, Literal) and right.value == 0:
                raise self.error("division by zero", at, SemanticError)
            depth = max(depth, right_depth) + 1
            if depth > MAX_NESTING:
                raise self.too_deep(at)
            node = BinOp(op, node, right)

    def parse_factor(self) -> tuple[BoundExpr, int]:
        text = self.next()
        at = self.pos - 1
        if text[0].isdecimal():
            return Literal(Fraction(text) if "." in text else int(text)), 0
        if text == "(":
            self.open_parens += 1
            if self.open_parens > MAX_NESTING:
                raise self.too_deep(at)
            inner = self.parse_arith()
            self.expect(")")
            self.open_parens -= 1
            return inner
        if text == "N":
            return Var(VarKind.OUTPUT_SIZE), 0
        if text in ("R0", "C"):
            if self.kind is ConstraintKind.DIVERSITY:
                message = f"{text} reads the input relation; only fairness constraints may"
                raise self.error(message, at, SemanticError)
            return Var(VarKind.INITIAL_SIZE if text == "R0" else VarKind.INITIAL_TARGET_COUNT), 0
        if text == "S":
            self.expect("(")
            arg = self.next()
            if arg[0] != '"':
                raise self.error(f"expected quoted attribute, got {arg!r}", self.pos - 1)
            self.expect(")")
            return StarCount(_unquote(arg)), 0
        if text in ("ceil_k", "floor_k"):
            raise self.error(f"{text} only applies to a whole bound", at)
        raise self.error(f"expected a value, got {text!r}", at)


def _lint(constraint: Constraint, k: int, line_no: int) -> list[str]:
    """The lint messages for one constraint, in the order they are issued."""
    messages = []
    for position, bound in (("lower", constraint.lower), ("upper", constraint.upper)):
        if not isinstance(bound, Literal):
            continue
        value = bound.value
        num, den = value.numerator, value.denominator
        if k > 1 and (den != 1 or num % k != 0):
            messages.append(
                f"line {line_no}: {position} bound {_format_literal(value)} "
                f"is not a multiple of k={k}"
            )
        if position == "lower" and 0 < num < k * den:
            messages.append(
                f"line {line_no}: lower bound {_format_literal(value)} is below k={k}; "
                "revealed counts are 0 or at least k"
            )
    return messages


def _warn(messages: Sequence[str]) -> None:
    """Issue each message as a LintWarning from the frame that called the parse."""
    for message in messages:
        warnings.warn(message, LintWarning, stacklevel=3)


def _parse_line(line: str, line_no: int) -> Optional[Constraint]:
    """The line's constraint; None for a blank or comment-only line."""
    tokens = list(filter(None, _TOKEN_RE.findall(line)))
    if not tokens:
        return None
    tokens.append("")  # the end marker
    try:
        constraint = _LineParser(tokens, line, line_no).parse_constraint()
    except AnonError:
        # A character that starts no token is reported first, wherever it is.
        for text, column in zip(tokens, _columns(line)):
            if len(text) == 1 and text not in _ONE_CHAR_TOKENS and not text.isdecimal():
                raise ParseError(f"unexpected character {text!r}", line_no, column) from None
        raise
    return constraint


def parse_constraint_line(line: str, k: int = 1, line_no: int = 1) -> Constraint:
    """Parse a single constraint line. Blank or comment-only input is an error."""
    constraint = _parse_line(line, line_no)
    if constraint is None:
        raise ParseError("expected a constraint", line_no, 1)
    _warn(_lint(constraint, k, line_no))
    return constraint


# Parses of whole files by (text, k): the constraints and the lint
# messages, in order. Filled on a successful parse; a full memo is
# emptied before the next entry goes in, which needs no lock between
# threads.
_parsed: dict[tuple[str, int], tuple[tuple[Constraint, ...], tuple[str, ...]]] = {}
_PARSED_ENTRIES = 8


def parse_constraints(text: str, k: int = 1) -> list[Constraint]:
    """Parse a constraint file: one constraint per line, `#` comments, blanks ok.

    Parses are memoised on the text and k, for up to 8 distinct pairs:
    a process that parses one file many times tokenizes it once. An
    edited file is new text and is parsed afresh. Lints warn on every
    call, in line order and from the caller's frame; errors are not
    memoised and raise on every call. Each call returns a new list of
    shared, frozen constraints.
    """
    entry = _parsed.get((text, k))
    if entry is not None:
        _warn(entry[1])
        return list(entry[0])
    out: list[Constraint] = []
    lints: list[str] = []
    for i, line in enumerate(text.splitlines(), start=1):
        constraint = _parse_line(line, i)
        if constraint is not None:
            messages = _lint(constraint, k, i)
            _warn(messages)
            lints += messages
            out.append(constraint)
    if len(_parsed) >= _PARSED_ENTRIES:
        _parsed.clear()
    _parsed[text, k] = (tuple(out), tuple(lints))
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
