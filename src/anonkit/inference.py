"""Implication, satisfiability and minimal cover for fixed-bound constraints.

All three operations rest on one primitive: the tightest count range a
constraint set forces onto a target value. A constraint on the same
target contributes its own range; a constraint on a strictly smaller
target caps the count from above (every row matching the larger target
also matches the smaller one); a constraint on a strictly larger target
pushes the count up from below. Intersecting the contributions gives the
derived range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .constraints import Constraint, ConstraintKind, FrequencyRange
from .errors import ContractError, InferenceError
from .relation import TargetValue


@dataclass(frozen=True)
class FixedConstraint:
    """A target value with a constant count range."""

    target: TargetValue
    bounds: FrequencyRange

    def __str__(self) -> str:
        return f"({self.target}) in {self.bounds}"


def to_fixed(constraint: Constraint) -> FixedConstraint:
    """Project a fixed-bound diversity constraint into inference form.

    Fairness and variable-bound constraints have no constant range to
    reason over, so they are rejected rather than approximated. A lower
    bound below k is linted where the line is parsed, by
    parse_constraints(text, k).
    """
    if constraint.kind is not ConstraintKind.DIVERSITY:
        raise InferenceError(
            f"({constraint.target}): fairness constraints are outside the "
            "inference fragment; only fixed-bound diversity constraints qualify"
        )
    try:
        lo, hi = constraint.fixed_bounds()
    except ContractError:
        raise InferenceError(
            f"({constraint.target}): variable bounds are outside the "
            "inference fragment; only fixed-bound diversity constraints qualify"
        ) from None
    return FixedConstraint(constraint.target, FrequencyRange(lo, hi))


def to_fixed_all(constraints: Iterable[Constraint]) -> list[FixedConstraint]:
    return [to_fixed(c) for c in constraints]


class Axiom(enum.Enum):
    FIXED_ATTRIBUTES = "fixed-attributes"
    ATTRIBUTE_EXTENSION = "attribute-extension"
    ATTRIBUTE_REDUCTION = "attribute-reduction"
    RANGE_INTERSECTION = "range-intersection"


@dataclass(frozen=True)
class TraceStep:
    """One rule application: which constraint contributed which range."""

    axiom: Axiom
    contributed: FrequencyRange
    source: Optional[FixedConstraint] = None


@dataclass(frozen=True)
class InferenceOutcome:
    implied: bool
    derived_range: FrequencyRange
    trace: tuple[TraceStep, ...]


class _TargetIndex:
    """Positions of a constraint set's members, looked up by target pair.

    A target equal to, inside or containing the queried one shares at
    least one pair with it, so a derivation needs only the members
    listed under the queried target's pairs.
    """

    def __init__(self, sigma: Sequence[FixedConstraint]):
        self.by_pair: dict[tuple[str, str], list[int]] = {}
        for i, c in enumerate(sigma):
            for pair in c.target.entries:
                self.by_pair.setdefault(pair, []).append(i)

    def sharing(self, tv: TargetValue) -> list[int]:
        """Positions, ascending, of the members whose target shares a pair with tv."""
        return sorted(set().union(*(self.by_pair.get(p, ()) for p in tv.entries)))


def range_for_target(
    sigma: Sequence[FixedConstraint], tv: TargetValue, trace: bool = True
) -> tuple[FrequencyRange, tuple[TraceStep, ...]]:
    """The tightest range the constraint set forces on tv, with its derivation.

    Steps follow the set's order; the last one is the intersection. With
    trace false no step is built and the derivation comes back empty.
    """
    entries = tv.entries
    lo, hi = 0, None
    steps: list[TraceStep] = []
    for c in sigma:
        other = c.target.entries
        if other == entries:
            axiom, c_lo, c_hi = Axiom.FIXED_ATTRIBUTES, c.bounds.lo, c.bounds.hi
        elif other < entries:
            # Rows matching tv also match the smaller target, so its
            # upper bound carries over; its lower bound does not.
            axiom, c_lo, c_hi = Axiom.ATTRIBUTE_EXTENSION, 0, c.bounds.hi
        elif entries < other:
            axiom, c_lo, c_hi = Axiom.ATTRIBUTE_REDUCTION, c.bounds.lo, None
        else:
            continue
        lo = max(lo, c_lo)
        if c_hi is not None and (hi is None or c_hi < hi):
            hi = c_hi
        if trace:
            steps.append(TraceStep(axiom, FrequencyRange(c_lo, c_hi), c))
    delta = FrequencyRange(lo, hi)
    if trace:
        steps.append(TraceStep(Axiom.RANGE_INTERSECTION, delta))
    return delta, tuple(steps)


def implies(
    sigma: Sequence[FixedConstraint], query: FixedConstraint, trace: bool = True
) -> InferenceOutcome:
    """Does every relation satisfying the set also satisfy the query?

    Holds exactly when the derived range for the query's target sits
    inside the query's own range: no count the set permits can fall
    outside what the query demands. With trace false the outcome's
    derivation is empty.
    """
    delta, steps = range_for_target(sigma, query.target, trace)
    return InferenceOutcome(delta.issubset(query.bounds), delta, steps)


@dataclass(frozen=True)
class Satisfiable:
    """Positive verdict, with one concrete count per constrained target.

    The witness picks each target's smallest permitted count. Smallest
    counts are automatically monotone: a larger target never gets a
    bigger count than any of the targets it contains.
    """

    witness_counts: dict[TargetValue, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Unsatisfiable:
    """Negative verdict: this target's derived range is empty."""

    false_constraint: FixedConstraint

    def __bool__(self) -> bool:
        return False


SatisfiabilityResult = Union[Satisfiable, Unsatisfiable]


def is_satisfiable(sigma: Sequence[FixedConstraint]) -> SatisfiabilityResult:
    """Check the set for internal contradictions.

    Only targets that occur in the set need checking: a conflict between
    a small target's upper bound and a large target's lower bound
    already empties the derived range of one of those two. Targets are
    visited smallest first, so the reported false constraint sits on the
    least specific conflicting target.
    """
    return _check(sigma, _TargetIndex(sigma))


def _check(sigma: Sequence[FixedConstraint], index: _TargetIndex) -> SatisfiabilityResult:
    witness: dict[TargetValue, int] = {}
    for tv in sorted({c.target for c in sigma}, key=lambda tv: (len(tv), tv.sorted_entries())):
        delta, _ = range_for_target([sigma[i] for i in index.sharing(tv)], tv, trace=False)
        if delta.is_empty:
            return Unsatisfiable(FixedConstraint(tv, delta))
        witness[tv] = delta.lo
    return Satisfiable(witness)


def minimal_cover(sigma: Sequence[FixedConstraint]) -> list[FixedConstraint]:
    """Drop constraints the rest of the set already implies.

    Single pass in input order; a removal is permanent. Different orders
    can produce different covers, all equally minimal.
    """
    index = _TargetIndex(sigma)
    if isinstance(_check(sigma, index), Unsatisfiable):
        raise InferenceError("minimal cover is undefined for an unsatisfiable set")
    kept = [True] * len(sigma)
    for i, candidate in enumerate(sigma):
        rest = [sigma[j] for j in index.sharing(candidate.target) if kept[j] and j != i]
        if range_for_target(rest, candidate.target, trace=False)[0].issubset(candidate.bounds):
            kept[i] = False
    return [c for i, c in enumerate(sigma) if kept[i]]
