"""Constraint satisfaction checks against concrete relations.

Every check resolves the constraint's bounds to numbers for the relation
at hand and compares them with the observed target count, so a failing
report always says which numbers disagreed. ``check_all`` counts the
stars of every attribute of the output relation once and shares that
tally among all its constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .constraints import (
    BoundExpr,
    Constraint,
    ConstraintKind,
    EvalContext,
    StarCount,
    walk_nodes,
    eval_bound,
)
from .errors import ContractError, SchemaError
from .relation import Relation, count_stars, count_target


@dataclass(frozen=True)
class SatReport:
    """Outcome of checking one constraint: observed count vs resolved bounds."""

    constraint: Constraint
    observed_count: int
    resolved_lo: int
    resolved_hi: Optional[int]  # None = unbounded
    satisfied: bool


def referenced_star_attributes(constraint: Constraint) -> set[str]:
    """Attribute names the constraint's bounds read suppression counts of."""
    attrs = set()
    for bound in (constraint.lower, constraint.upper):
        if bound is None:
            continue
        for node in walk_nodes(bound):
            if isinstance(node, StarCount):
                attrs.add(node.attribute)
    return attrs


def _validate_attributes(rp: Relation, constraint: Constraint) -> None:
    known = set(rp.schema)
    missing = sorted(constraint.target.attributes - known)
    missing += sorted(referenced_star_attributes(constraint) - known)
    if missing:
        raise SchemaError(f"unknown attribute(s): {', '.join(missing)}")


def _resolve(
    constraint: Constraint, ctx: EvalContext
) -> tuple[int, Optional[int]]:
    lo = 0 if constraint.lower is None else eval_bound(constraint.lower, ctx, "lower")
    hi = (
        None
        if constraint.upper is None
        else eval_bound(constraint.upper, ctx, "upper")
    )
    return lo, hi


def _star_tally(rp: Relation) -> dict[str, int]:
    return {a: count_stars(rp, a) for a in rp.schema}


def _report(
    r: Optional[Relation],
    rp: Relation,
    constraint: Constraint,
    k: int,
    star_counts: dict[str, int],
) -> SatReport:
    """Check one constraint of either kind, given rp's stars per attribute.

    For fairness, C binds to the count of the constraint's own target in
    the input relation r and R0 to the input size.
    """
    fair = constraint.kind is ConstraintKind.FAIRNESS
    if fair:
        if r is None:
            raise ContractError("fairness constraint needs the input relation")
        if r.schema != rp.schema:
            raise ContractError("input and output relations have different schemas")
        if r.n_rows != rp.n_rows:
            raise ContractError("input and output relations have different row counts")
    _validate_attributes(rp, constraint)
    ctx = EvalContext(
        k=k,
        output_size=rp.n_rows,
        star_counts=star_counts,
        initial_target_count=count_target(r, constraint.target) if fair else None,
        initial_size=r.n_rows if fair else None,
    )
    observed = count_target(rp, constraint.target)
    lo, hi = _resolve(constraint, ctx)
    ok = lo <= observed and (hi is None or observed <= hi)
    return SatReport(constraint, observed, lo, hi, ok)


def check_diversity(rp: Relation, sigma: Constraint, k: int) -> SatReport:
    """Check one diversity constraint against the anonymized relation alone."""
    if sigma.kind is not ConstraintKind.DIVERSITY:
        raise ContractError("check_diversity got a non-diversity constraint")
    return _report(None, rp, sigma, k, _star_tally(rp))


def check_fairness(r: Relation, rp: Relation, eta: Constraint, k: int) -> SatReport:
    """Check one fairness constraint against the input/output relation pair.

    Whether rp actually refines r is the caller's job; only the shapes
    are compared here.
    """
    if eta.kind is not ConstraintKind.FAIRNESS:
        raise ContractError("check_fairness got a non-fairness constraint")
    return _report(r, rp, eta, k, _star_tally(rp))


def check_all(
    r: Optional[Relation],
    rp: Relation,
    constraints: Sequence[Constraint],
    k: int,
) -> list[SatReport]:
    """Check every constraint; fairness ones need the input relation."""
    star_counts = _star_tally(rp) if constraints else {}
    reports = []
    for i, c in enumerate(constraints):
        try:
            reports.append(_report(r, rp, c, k, star_counts))
        except SchemaError as e:
            raise SchemaError(f"constraint {i + 1} ({c.target}): {e}") from e
    return reports


def all_satisfied(reports: Sequence[SatReport]) -> bool:
    return all(rep.satisfied for rep in reports)
