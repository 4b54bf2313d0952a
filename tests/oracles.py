"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with code
paths disjoint from the production modules: a row counter, a
satisfaction check on fixed constraints, an axiom-closure range
derivation, and random instance generators. Slow and simple on purpose.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from anonkit import (
    Axiom,
    FixedConstraint,
    FrequencyRange,
    InferenceError,
    Relation,
    Satisfiable,
    TargetValue,
    UNIVERSAL_RANGE,
    Unsatisfiable,
)
from anonkit.inference import TraceStep

ATTRS = ("A", "B", "C")
VALUES = ("a", "b", "c")


def naive_count(relation: Relation, target: TargetValue) -> int:
    """Row count by direct scanning, no index juggling."""
    n = 0
    for row in relation.rows:
        ok = True
        for attr, value in target.entries:
            if row[relation.schema.index(attr)] != value:
                ok = False
        if ok:
            n += 1
    return n


def satisfies(relation: Relation, constraints: Sequence[FixedConstraint]) -> bool:
    for c in constraints:
        count = naive_count(relation, c.target)
        if count < c.bounds.lo:
            return False
        if c.bounds.hi is not None and count > c.bounds.hi:
            return False
    return True


def _intersect(
    a: tuple[int, Optional[int]], b: tuple[int, Optional[int]]
) -> tuple[int, Optional[int]]:
    lo = max(a[0], b[0])
    if a[1] is None:
        hi = b[1]
    elif b[1] is None:
        hi = a[1]
    else:
        hi = min(a[1], b[1])
    return (lo, hi)


def closure_range(
    sigma: Sequence[FixedConstraint], tv: TargetValue
) -> FrequencyRange:
    """Derive the range for tv by closing under the four rules to fixpoint.

    Same-target ranges carry over whole; a strictly smaller target
    passes its upper end; a strictly larger target passes its lower
    end; any two derived ranges intersect. The tightest derived range
    is returned (the universal range when nothing applies).
    """
    derived: set[tuple[int, Optional[int]]] = {(0, None)}
    for c in sigma:
        pair = (c.bounds.lo, c.bounds.hi)
        if c.target == tv:
            derived.add(pair)
        elif c.target.entries < tv.entries:
            derived.add((0, pair[1]))
        elif tv.entries < c.target.entries:
            derived.add((pair[0], None))
    changed = True
    while changed:
        changed = False
        for a in list(derived):
            for b in list(derived):
                combined = _intersect(a, b)
                if combined not in derived:
                    derived.add(combined)
                    changed = True
    # The tightest range is the one contained in all others; the full
    # intersection is itself derived, so it is in the set.
    tightest = (0, None)
    for pair in derived:
        tightest = _intersect(tightest, pair)
    return FrequencyRange(tightest[0], tightest[1])


def scan_range_for_target(
    sigma: Sequence[FixedConstraint], tv: TargetValue
) -> tuple[FrequencyRange, tuple[TraceStep, ...]]:
    """Derived range and trace by comparing tv with every member of the set."""
    delta = UNIVERSAL_RANGE
    steps: list[TraceStep] = []
    for c in sigma:
        if c.target == tv:
            contributed = c.bounds
            axiom = Axiom.FIXED_ATTRIBUTES
        elif c.target.is_strict_subset(tv):
            contributed = FrequencyRange(0, c.bounds.hi)
            axiom = Axiom.ATTRIBUTE_EXTENSION
        elif tv.is_strict_subset(c.target):
            contributed = FrequencyRange(c.bounds.lo, None)
            axiom = Axiom.ATTRIBUTE_REDUCTION
        else:
            continue
        steps.append(TraceStep(axiom, contributed, c))
        delta = delta.intersect(contributed)
    steps.append(TraceStep(Axiom.RANGE_INTERSECTION, delta))
    return delta, tuple(steps)


def scan_is_satisfiable(sigma: Sequence[FixedConstraint]):
    """Satisfiability from a full scan per target, smallest target first."""
    targets = sorted({c.target for c in sigma}, key=lambda tv: (len(tv), tv.sorted_entries()))
    witness = {}
    for tv in targets:
        delta, _ = scan_range_for_target(sigma, tv)
        if delta.is_empty:
            return Unsatisfiable(FixedConstraint(tv, delta))
        witness[tv] = delta.lo
    return Satisfiable(witness)


def scan_minimal_cover(sigma: Sequence[FixedConstraint]) -> list[FixedConstraint]:
    """One pass in input order; each member is tested against the rest kept."""
    if isinstance(scan_is_satisfiable(sigma), Unsatisfiable):
        raise InferenceError("minimal cover is undefined for an unsatisfiable set")
    kept = [True] * len(sigma)
    for i, candidate in enumerate(sigma):
        rest = [c for j, c in enumerate(sigma) if kept[j] and j != i]
        delta, _ = scan_range_for_target(rest, candidate.target)
        if delta.issubset(candidate.bounds):
            kept[i] = False
    return [c for i, c in enumerate(sigma) if kept[i]]


def random_target(rng: random.Random, max_attrs: int = 3) -> TargetValue:
    n = rng.randint(1, max_attrs)
    attrs = rng.sample(ATTRS, n)
    return TargetValue((a, rng.choice(VALUES)) for a in attrs)


def random_fixed_constraint(rng: random.Random) -> FixedConstraint:
    lo = rng.randint(0, 8)
    if rng.random() < 0.25:
        hi = None
    else:
        hi = rng.randint(lo, 12)
    return FixedConstraint(random_target(rng), FrequencyRange(lo, hi))


def random_sigma(rng: random.Random, max_len: int = 3) -> list[FixedConstraint]:
    return [random_fixed_constraint(rng) for _ in range(rng.randint(0, max_len))]


def random_relation(
    rng: random.Random,
    max_rows: int = 12,
    n_attrs: int = 3,
    min_rows: int = 0,
) -> Relation:
    schema = ATTRS[:n_attrs]
    rows = [
        tuple(rng.choice(VALUES) for _ in schema)
        for _ in range(rng.randint(min_rows, max_rows))
    ]
    return Relation(schema, rows)
