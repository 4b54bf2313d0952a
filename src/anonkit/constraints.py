"""Count constraints over anonymized relations.

A constraint bounds, from below and/or above, how many rows of the
anonymized output carry a given combination of attribute values. Bounds
are arithmetic expressions; besides plain numbers they may reference the
output size, per-attribute suppression counts, and (for fairness
constraints only) statistics of the original input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import ContractError, EvalError
from .relation import TargetValue


def ceil_to_multiple(x: Fraction | int, k: int) -> int:
    """Smallest non-negative multiple of k that is >= x.

    Exact multiples map to themselves. Values at or below zero map to 0.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return max(0, k * math.ceil(Fraction(x) / k))


def floor_to_multiple(x: Fraction | int, k: int) -> int:
    """Largest multiple of k that is <= x, floored at 0."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return max(0, k * math.floor(Fraction(x) / k))


@dataclass(frozen=True)
class FrequencyRange:
    """An integer interval [lo, hi], hi=None meaning unbounded above.

    Empty ranges (lo > hi) are legal and kept as written: [6,5] prints
    as [6,5]. Every empty range behaves identically under contains and
    issubset.
    """

    lo: int
    hi: Optional[int] = None

    def __post_init__(self):
        if self.lo < 0:
            raise ContractError(f"range lower end must be >= 0, got {self.lo}")

    @property
    def is_empty(self) -> bool:
        return self.hi is not None and self.lo > self.hi

    def contains(self, count: int) -> bool:
        return self.lo <= count and (self.hi is None or count <= self.hi)

    def issubset(self, other: "FrequencyRange") -> bool:
        """Interval containment; an empty range is inside everything."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        if self.lo < other.lo:
            return False
        if other.hi is None:
            return True
        return self.hi is not None and self.hi <= other.hi

    def __str__(self) -> str:
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{self.lo},{hi}]"


UNIVERSAL_RANGE = FrequencyRange(0, None)


class VarKind(enum.Enum):
    """Nullary statistics available inside bound expressions."""

    OUTPUT_SIZE = "N"
    INITIAL_TARGET_COUNT = "C"
    INITIAL_SIZE = "R0"


@dataclass(frozen=True)
class Literal:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value.numerator < 0:
            raise ContractError("bound literals are non-negative")


@dataclass(frozen=True)
class Var:
    kind: VarKind


@dataclass(frozen=True)
class StarCount:
    """Suppression count of one attribute in the anonymized output."""

    attribute: str

    def __post_init__(self):
        if not self.attribute:
            raise ContractError("star count needs an attribute name")


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "BoundExpr"
    right: "BoundExpr"

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ContractError(f"unknown operator: {self.op!r}")
        if self.op == "/" and isinstance(self.right, Literal) and self.right.value == 0:
            raise ContractError("division by literal zero")


class RoundMode(enum.Enum):
    UP = "ceil"
    DOWN = "floor"


@dataclass(frozen=True)
class Round:
    """Round the inner value to a multiple of the anonymity parameter."""

    mode: RoundMode
    inner: "BoundExpr"


BoundExpr = Union[Literal, Var, StarCount, BinOp, Round]


def walk_nodes(expr: BoundExpr):
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_nodes(expr.left)
        yield from walk_nodes(expr.right)
    elif isinstance(expr, Round):
        yield from walk_nodes(expr.inner)


class ConstraintKind(enum.Enum):
    DIVERSITY = "div"
    FAIRNESS = "fair"


@dataclass(frozen=True)
class Constraint:
    """A lower and/or upper bound on the output count of one target value.

    Diversity constraints see only the anonymized output, so their bounds
    may not mention input statistics (C, R0). Rounding appears only as the
    outermost step of a bound.
    """

    kind: ConstraintKind
    target: TargetValue
    lower: Optional[BoundExpr] = None
    upper: Optional[BoundExpr] = None

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise ContractError("constraint needs at least one bound")
        for bound in (self.lower, self.upper):
            if bound is None or isinstance(bound, Literal):
                continue
            for node in walk_nodes(bound):
                if isinstance(node, Round) and node is not bound:
                    raise ContractError("rounding must be the outermost step of a bound")
                if (
                    self.kind is ConstraintKind.DIVERSITY
                    and isinstance(node, Var)
                    and node.kind in (VarKind.INITIAL_TARGET_COUNT, VarKind.INITIAL_SIZE)
                ):
                    raise ContractError(
                        f"diversity bounds cannot reference {node.kind.value}: "
                        "input statistics belong to fairness constraints"
                    )

    @property
    def is_fixed_bound(self) -> bool:
        """True when every present bound is a plain number."""
        fixed = (Literal, type(None))
        return isinstance(self.lower, fixed) and isinstance(self.upper, fixed)

    def fixed_bounds(self) -> tuple[int, Optional[int]]:
        """The (lower, upper) pair of a fixed-bound constraint as integers.

        A missing lower bound reads as 0 and a missing upper bound as
        unbounded (None). Non-integral literals are rounded inward, the
        only sound direction for counts.
        """
        if not self.is_fixed_bound:
            raise ContractError("constraint has variable bounds")
        lo, hi = 0, None
        if self.lower is not None:
            lo = -(-self.lower.value.numerator // self.lower.value.denominator)
        if self.upper is not None:
            hi = self.upper.value.numerator // self.upper.value.denominator
        return lo, hi


@dataclass(frozen=True)
class EvalContext:
    """Everything a bound expression may reference.

    ``initial_target_count`` and ``initial_size`` stay None when no input
    relation is in play; evaluating C or R0 then fails.
    """

    k: int
    output_size: int
    star_counts: Mapping[str, int]
    initial_target_count: Optional[int] = None
    initial_size: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ContractError(f"k must be >= 1, got {self.k}")


def _eval_exact(expr: BoundExpr, ctx: EvalContext) -> Fraction:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        if expr.kind is VarKind.OUTPUT_SIZE:
            return Fraction(ctx.output_size)
        if expr.kind is VarKind.INITIAL_TARGET_COUNT:
            if ctx.initial_target_count is None:
                raise EvalError("C is undefined: no input relation supplied")
            return Fraction(ctx.initial_target_count)
        if ctx.initial_size is None:
            raise EvalError("R0 is undefined: no input relation supplied")
        return Fraction(ctx.initial_size)
    if isinstance(expr, StarCount):
        if expr.attribute not in ctx.star_counts:
            raise EvalError(f"unknown attribute in star count: {expr.attribute!r}")
        return Fraction(ctx.star_counts[expr.attribute])
    if isinstance(expr, BinOp):
        left = _eval_exact(expr.left, ctx)
        right = _eval_exact(expr.right, ctx)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            raise EvalError("division by zero while evaluating a bound")
        return left / right
    if isinstance(expr, Round):
        inner = _eval_exact(expr.inner, ctx)
        if expr.mode is RoundMode.UP:
            return Fraction(ceil_to_multiple(inner, ctx.k))
        return Fraction(floor_to_multiple(inner, ctx.k))
    raise ContractError(f"unknown expression node: {expr!r}")


def eval_bound(expr: BoundExpr, ctx: EvalContext, position: str) -> int:
    """Evaluate a bound to a natural number.

    ``position`` says which side of the count the bound sits on: a
    fractional lower bound rounds up, a fractional upper bound rounds
    down. Either way the result is clamped at 0.
    """
    if position not in ("lower", "upper"):
        raise ContractError(f"position must be 'lower' or 'upper', got {position!r}")
    exact = _eval_exact(expr, ctx)
    value = math.ceil(exact) if position == "lower" else math.floor(exact)
    return max(0, value)
