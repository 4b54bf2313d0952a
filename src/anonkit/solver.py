"""Constraint-aware k-anonymization by cell suppression.

The search space is the set of partitions of the rows into groups of
size >= k. A partition induces a canonical suppression pattern: within a
group, a quasi-identifier attribute is kept when all members agree on
one value and fully starred otherwise. That makes k-anonymity structural
(group members become identical on the quasi-identifiers) and reduces
the problem to finding the partition of minimum star count whose output
satisfies every constraint.

Three solvers share this space: an exhaustive oracle for tiny inputs, a
branch-and-bound search that is exact at any size it finishes, and a
greedy two-phase heuristic (agglomerate to size >= k, then repair
constraint violations by local moves).

Under the canonical suppression the loss, the star count of each
attribute and the count of each constraint target are sums of per-group
terms. Both searching solvers model a group the same way, through
_Evaluator: its output projection is a bit mask of the QI positions it
keeps, and its counts follow from that mask and per-row target matches.
Greedy scores merges from the masks and local moves from group
summaries, and branch and bound keeps the sums up to date as it places
rows; neither builds an output relation for a candidate.
build_anonymized and check_all, the reference path, run only to
materialise the Solution a solver returns. The oracle, the ground truth
for tests, evaluates every partition on the reference path.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

from .checking import SatReport, _resolve, check_all, referenced_star_attributes
from .constraints import Constraint, ConstraintKind, EvalContext, Literal
from .errors import ContractError, OracleCapError, SchemaError
from .relation import (
    STAR,
    Relation,
    _check_qi,
    count_target,
    info_loss,
    is_k_anonymous,
)

ORACLE_CAP = 10


@dataclass(frozen=True)
class Clustering:
    """A partition of row indices in canonical form.

    Groups are sorted tuples, ordered by their smallest member. Whether
    the partition covers a particular relation is checked where it is
    used, not here.
    """

    groups: tuple[tuple[int, ...], ...]

    def __init__(self, groups: Iterable[Iterable[int]]):
        canon = sorted(tuple(sorted(g)) for g in groups)
        seen: set[int] = set()
        for g in canon:
            if not g:
                raise ContractError("empty group in clustering")
            for idx in g:
                if not isinstance(idx, int) or idx < 0:
                    raise ContractError(f"bad row index: {idx!r}")
                if idx in seen:
                    raise ContractError(f"row {idx} appears in two groups")
                seen.add(idx)
        object.__setattr__(self, "groups", tuple(canon))

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class Limits:
    """Search budget. None means unbounded; the seed drives every RNG."""

    max_nodes: Optional[int] = None
    time_budget: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ContractError(f"max_nodes must be >= 0, got {self.max_nodes}")
        # NaN fails both comparisons; +inf would reach the report as `Infinity`.
        if self.time_budget is not None and not 0 <= self.time_budget < math.inf:
            raise ContractError(f"time_budget must be a finite number >= 0, got {self.time_budget}")


@dataclass(frozen=True)
class Problem:
    """One anonymization task: relation, k, quasi-identifiers, constraints."""

    relation: Relation
    k: int
    qi: tuple[str, ...]
    sigma: tuple[Constraint, ...]
    limits: Limits

    def __init__(
        self,
        relation: Relation,
        k: int,
        qi: Sequence[str],
        sigma: Sequence[Constraint] = (),
        limits: Limits = Limits(),
    ):
        if k < 1:
            raise ContractError(f"k must be >= 1, got {k}")
        if not qi:
            raise ContractError("quasi-identifier set must be non-empty")
        _check_qi(relation, qi)
        if any(cell is STAR for row in relation.rows for cell in row):
            raise ContractError("input relation already contains suppressed cells")
        known = set(relation.schema)
        for c in sigma:
            unknown = sorted(
                (c.target.attributes | referenced_star_attributes(c)) - known
            )
            if unknown:
                raise SchemaError(
                    f"constraint on ({c.target}) references unknown "
                    f"attribute(s): {', '.join(unknown)}"
                )
            # A constant positive lower bound below k is never reachable:
            # revealed counts are sums of group sizes, each >= k.
            if isinstance(c.lower, Literal):
                lo = max(0, math.ceil(c.lower.value))
                if 0 < lo < k:
                    raise ContractError(
                        f"constraint on ({c.target}): lower bound {lo} is "
                        f"positive but below k={k}"
                    )
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "qi", tuple(qi))
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "limits", limits)


@dataclass
class SolverStats:
    nodes_expanded: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0


@dataclass(frozen=True)
class Solution:
    anonymized: Relation
    clustering: Clustering
    loss: int
    constraint_reports: tuple[SatReport, ...]
    optimal: bool
    stats: SolverStats


@dataclass(frozen=True)
class Infeasible:
    reason: str
    stats: SolverStats


@dataclass(frozen=True)
class Aborted:
    """Budget ran out. Carries the best feasible solution found, if any."""

    best_so_far: Optional[Solution]
    stats: SolverStats


@dataclass(frozen=True)
class Unknown:
    """The heuristic gave up; says nothing about feasibility."""

    reason: str
    stats: SolverStats


SolveResult = Union[Solution, Infeasible, Aborted]


def build_anonymized(
    relation: Relation, clustering: Clustering, qi: Sequence[str]
) -> Relation:
    """Apply the canonical suppression pattern of a clustering.

    Per group and QI attribute: keep the value when all members agree,
    star the whole column slice otherwise. Non-QI cells pass through.
    """
    n = relation.n_rows
    covered = {idx for g in clustering.groups for idx in g}
    if covered != set(range(n)):
        raise ContractError("clustering does not cover the relation's row indices")
    qi_idx = [relation.column_index(a) for a in qi]
    new_rows = [list(row) for row in relation.rows]
    for group in clustering.groups:
        for col in qi_idx:
            values = {relation.rows[i][col] for i in group}
            if len(values) > 1:
                for i in group:
                    new_rows[i][col] = STAR
    return Relation(relation.schema, new_rows)


def _evaluate(problem: Problem, clustering: Clustering) -> tuple[Relation, list[SatReport]]:
    rp = build_anonymized(problem.relation, clustering, problem.qi)
    reports = check_all(problem.relation, rp, problem.sigma, problem.k)
    return rp, reports


def _make_solution(
    problem: Problem,
    clustering: Clustering,
    rp: Relation,
    reports: Sequence[SatReport],
    optimal: bool,
    stats: SolverStats,
) -> Solution:
    return Solution(
        anonymized=rp,
        clustering=clustering,
        loss=info_loss(rp),
        constraint_reports=tuple(reports),
        optimal=optimal,
        stats=stats,
    )


def _partitions(n: int, min_size: int):
    """Yield all partitions of range(n) whose blocks have >= min_size members.

    Blocks are grown by appending elements in index order, so every
    yielded partition is already canonical.
    """
    blocks: list[list[int]] = []

    def extend(i: int):
        if i == n:
            if all(len(b) >= min_size for b in blocks):
                yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from extend(i + 1)
            b.pop()
        # Opening a new block is pointless when the remaining elements
        # cannot fill every open block to min_size.
        deficit = sum(max(0, min_size - len(b)) for b in blocks)
        if deficit + min_size <= n - i:
            blocks.append([i])
            yield from extend(i + 1)
            blocks.pop()

    yield from extend(0)


def oracle_min_loss(problem: Problem, cap: int = ORACLE_CAP) -> SolveResult:
    """Exhaustive reference solver for tiny relations.

    Tries every partition into groups of size >= k, keeps the cheapest
    feasible one; ties go to the lexicographically smallest canonical
    clustering. Refuses relations larger than the cap.
    """
    n = problem.relation.n_rows
    if n > cap:
        raise OracleCapError(f"oracle handles at most {cap} rows, got {n}")
    stats = SolverStats()
    start = time.monotonic()
    if n < problem.k:
        stats.wall_time = time.monotonic() - start
        return Infeasible(f"{n} rows cannot form a group of size {problem.k}", stats)

    best: Optional[tuple[int, tuple, Clustering, Relation, list[SatReport]]] = None
    for groups in _partitions(n, problem.k):
        stats.nodes_expanded += 1
        clustering = Clustering(groups)
        rp, reports = _evaluate(problem, clustering)
        if not all(r.satisfied for r in reports):
            continue
        if not is_k_anonymous(rp, problem.qi, problem.k):
            continue  # unreachable for cluster-built outputs; checked anyway
        key = (info_loss(rp), clustering.groups)
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], clustering, rp, reports)
    stats.wall_time = time.monotonic() - start
    if best is None:
        return Infeasible("no clustering satisfies every constraint", stats)
    _, _, clustering, rp, reports = best
    return _make_solution(problem, clustering, rp, reports, True, stats)


def decide(problem: Problem, cap: int = ORACLE_CAP) -> bool:
    """Does any valid anonymization exist? Oracle-backed, so cap applies."""
    return not isinstance(oracle_min_loss(problem, cap), Infeasible)


# --- group summaries ----------------------------------------------------


class _Evaluator:
    """Scores clusterings of one problem from per-group summaries.

    A group's output QI projection is a bit mask: bit p is set when
    every member agrees with the group's first row at QI position p, so
    the group keeps those values and stars the rest. Per constraint the
    evaluator holds the mask of the target's QI positions (needs) and,
    per row, whether the row is on the target's QI part (qi_match) and
    on the whole target (full_match). A group whose mask holds the
    needed positions counts its members on the whole target; any other
    group counts 0. Its members share their first row's values there,
    so when that row is off the QI part every member is and the count
    is 0 as well.

    Under the canonical suppression every number check_all reads is a
    sum over groups: the stars per QI attribute (hence the loss) and
    each constraint's target count. A group's summary is the flat tuple
    (stars, stars per QI attribute..., count per constraint...), so a
    clustering's totals are the element-wise sum of its summaries and a
    local move is scored by swapping the summaries of the groups it
    touches. Bounds are resolved on the EvalContext check_all would
    build, memoised on the star counts each constraint reads.
    """

    def __init__(self, problem: Problem):
        relation = problem.relation
        qi_cols = [relation.column_index(a) for a in problem.qi]
        qi_pos = {a: p for p, a in enumerate(problem.qi)}
        self.proj = [tuple(row[c] for c in qi_cols) for row in relation.rows]
        self.n_qi = len(qi_cols)
        self.full = (1 << self.n_qi) - 1  # the mask of a group whose rows all agree
        self._bits = [1 << p for p in range(self.n_qi)]
        self._problem = problem
        self.needs: list[int] = []
        self.qi_match: list[list[bool]] = []
        self.full_match: list[list[int]] = []
        self.reads: list[tuple[int, ...]] = []  # the QI positions each bound reads stars of
        self._inputs: list[dict] = []  # the input statistics fairness bounds see
        self._memo: list[dict[tuple[int, ...], tuple[int, Optional[int]]]] = []
        for c in problem.sigma:
            entries = c.target.sorted_entries()
            qi_part = [(qi_pos[a], v) for a, v in entries if a in qi_pos]
            other = [(relation.column_index(a), v) for a, v in entries if a not in qi_pos]
            on_part = [all(r[p] == v for p, v in qi_part) for r in self.proj]
            self.needs.append(sum(self._bits[p] for p, _ in qi_part))
            self.qi_match.append(on_part)
            rows = zip(on_part, relation.rows)
            self.full_match.append([int(q and all(r[c] == v for c, v in other)) for q, r in rows])
            read = referenced_star_attributes(c)
            self.reads.append(tuple(p for a, p in qi_pos.items() if a in read))
            self._inputs.append(
                {
                    "initial_target_count": count_target(relation, c.target),
                    "initial_size": relation.n_rows,
                }
                if c.kind is ConstraintKind.FAIRNESS
                else {}
            )
            self._memo.append({})

    def agree(self, i: int, j: int) -> int:
        """The mask of QI positions where rows i and j share their value."""
        return sum(b for b, x, y in zip(self._bits, self.proj[i], self.proj[j]) if x == y)

    def mask(self, group: Sequence[int]) -> int:
        """The group's output projection: where every member agrees with the first."""
        first = group[0]
        m = self.full
        for i in group:
            m &= self.agree(first, i)
        return m

    def summary(self, group: Sequence[int]) -> tuple[int, ...]:
        m = self.mask(group)
        size = len(group)
        stars = [0 if m & b else size for b in self._bits]
        counts = [
            sum(full[i] for i in group) if m & need == need else 0
            for need, full in zip(self.needs, self.full_match)
        ]
        return (sum(stars), *stars, *counts)

    @staticmethod
    def totals(summaries: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
        return tuple(map(sum, zip(*summaries)))

    @staticmethod
    def moved(
        base: tuple[int, ...],
        removed: Sequence[tuple[int, ...]],
        added: Sequence[tuple[int, ...]],
    ) -> tuple[int, ...]:
        """Totals after replacing the removed summaries by the added ones."""
        return tuple(
            t - sum(r) + sum(a) for t, r, a in zip(base, zip(*removed), zip(*added))
        )

    def bounds(self, stars: Sequence[int]) -> list[tuple[int, Optional[int]]]:
        """Each constraint's resolved (lo, hi) given the stars per QI attribute."""
        problem = self._problem
        relation = problem.relation
        out = []
        for c, read, inputs, memo in zip(problem.sigma, self.reads, self._inputs, self._memo):
            key = tuple(stars[p] for p in read)
            if key not in memo:
                star_counts = dict.fromkeys(relation.schema, 0)
                star_counts.update(zip(problem.qi, stars))
                ctx = EvalContext(problem.k, relation.n_rows, star_counts, **inputs)
                memo[key] = _resolve(c, ctx)
            out.append(memo[key])
        return out

    def violations(self, totals: tuple[int, ...]) -> int:
        """Number of constraints the clustering with these totals breaks."""
        split = 1 + self.n_qi
        return sum(
            1
            for (lo, hi), got in zip(self.bounds(totals[1:split]), totals[split:])
            if got < lo or (hi is not None and got > hi)
        )


# --- branch and bound ---------------------------------------------------


def _static_bounds(problem: Problem) -> list[tuple[int, Optional[int], Optional[int]]]:
    """(index, lo, hi) of each constraint with a constant bound; None where not."""
    out = []
    for t, c in enumerate(problem.sigma):
        lo = max(0, math.ceil(c.lower.value)) if isinstance(c.lower, Literal) else None
        hi = max(0, math.floor(c.upper.value)) if isinstance(c.upper, Literal) else None
        if lo is not None or hi is not None:
            out.append((t, lo, hi))
    return out


def _suffix_counts(flags: Sequence[bool]) -> list[int]:
    """out[i] is the number of true flags at positions i.., with out[len] = 0."""
    return list(accumulate(reversed(flags), initial=0))[::-1]


def solve_exact(problem: Problem) -> SolveResult:
    """Branch and bound over partitions; optimal when it completes.

    Rows are assigned in index order to an existing group or a new one.
    A placement is dropped when (a) the unassigned rows cannot fill
    every undersized group, (b) cells already starred reach the
    incumbent loss, or (c)/(d) a constant count bound is provably
    violated in every completion of the branch; (a) and (b) are decided
    before the placement changes any state.

    Each group keeps the evaluator's mask of its output projection;
    joining a row ANDs in the row's agreement with the group's first
    row, memoised per row that leads a group, and the group's stars per
    row are the positions left out. Each group also keeps, per
    constraint, how many members are on the whole target. Target counts
    are kept as running totals, so the count prunes read them in
    O(#bounds), and leaves are scored from the masks and totals through
    the evaluator's bound memo. Only the returned clustering is
    materialised.
    """
    stats = SolverStats(
        prunes={"loss_bound": 0, "underfill": 0, "upper_bound": 0, "lower_bound": 0}
    )
    start = time.monotonic()
    relation = problem.relation
    n = relation.n_rows
    k = problem.k
    limits = problem.limits

    if n < k:
        stats.wall_time = time.monotonic() - start
        return Infeasible(f"{n} rows cannot form a group of size {k}", stats)

    statics = _static_bounds(problem)
    # Suppression never creates values: a constant lower bound above the
    # input count can never be met.
    for t, lo, _ in statics:
        target = problem.sigma[t].target
        if lo is not None and lo > count_target(relation, target):
            stats.wall_time = time.monotonic() - start
            return Infeasible(
                f"({target}) occurs {count_target(relation, target)} "
                f"time(s) in the input, below the lower bound {lo}",
                stats,
            )

    ev = _Evaluator(problem)
    n_qi = ev.n_qi
    agree = ev.agree
    needs = ev.needs
    no_counts = (0,) * len(needs)
    row_full = list(zip(*ev.full_match)) if needs else [()] * n
    # Per static bound: its constraint, lo, hi, and suffix counts over
    # rows i..n-1 (i = 0..n) of rows off the target's QI part / on the
    # whole target.
    static_checks = [
        (t, lo, hi, _suffix_counts([not q for q in ev.qi_match[t]]), _suffix_counts(ev.full_match[t]))
        for t, lo, hi in statics
    ]

    groups: list[list[int]] = []
    masks: list[int] = []  # QI positions where every member agrees with the first
    stars: list[int] = []  # each group's stars per row
    counts: list[tuple[int, ...]] = []  # per group and constraint: members on the target
    memos: list[dict[int, int]] = []  # per group: row -> agree(first member, row)
    # A memo is kept per row that leads a group and filled lazily, so
    # sibling branches share it and set-up stays O(n).
    leader_memos: list[Optional[dict[int, int]]] = [None] * n
    totals = no_counts  # per constraint: the target's count in the output
    loss = 0  # stars of the groups as they stand
    deficit = 0  # rows still missing from undersized groups
    best_loss = n * n_qi + 1  # above any loss until an incumbent exists
    best: Optional[Clustering] = None
    prunes = stats.prunes
    # Leaves count stars only in the QI positions some bound reads.
    read_bits = [(p, 1 << p) for p in sorted(set().union(*ev.reads))]

    def count_prune(i, slot, mask, new_counts, new_totals) -> Optional[str]:
        """Is a constant bound violated in every completion, with row i in the slot?"""
        for t, lo, hi, suffix_off_qi, suffix_full in static_checks:
            if hi is not None:
                # The contribution of each group on the target's QI part.
                need = needs[t]
                contrib = [
                    c[t]
                    for s, (m, c) in enumerate(zip(masks, counts))
                    if s != slot and m & need == need
                ]
                if mask & need == need:
                    contrib.append(new_counts[t])
                # Each remaining row off the QI part can neutralize at most
                # one matching group; the rest keep at least their current
                # contribution, and the adversary spares the smallest.
                spare = len(contrib) - suffix_off_qi[i + 1]
                if spare > 0 and sum(sorted(contrib)[:spare]) > hi:
                    return "upper_bound"
            # The count can only grow by remaining fully-matching rows.
            if lo is not None and new_totals[t] + suffix_full[i + 1] < lo:
                return "lower_bound"
        return None

    # Depth-first without recursion. Row i's placement in force is
    # undone[i], the state it replaced; next_slot[i] is the slot to try
    # after it.
    next_slot = [0] * n
    undone: list[Optional[tuple]] = [None] * n
    max_nodes, time_budget = limits.max_nodes, limits.time_budget
    nodes = 1  # the root: no row placed
    aborted = (max_nodes is not None and nodes > max_nodes) or (
        time_budget is not None and time.monotonic() - start > time_budget
    )
    i = 0
    while not aborted:
        record = undone[i]
        if record is not None:  # take row i's placement back
            undone[i] = None
            slot, old_mask, old_stars, old_counts, totals, added, filled = record
            loss -= added
            deficit += filled
            if old_mask is None:
                groups.pop()
                masks.pop()
                stars.pop()
                counts.pop()
                memos.pop()
            else:
                groups[slot].pop()
                masks[slot] = old_mask
                stars[slot] = old_stars
                counts[slot] = old_counts
        # Find row i's next slot that no prune rules out. The cheap prunes
        # need only the group size and the new mask, and change no state.
        row_counts = row_full[i]
        rest = n - (i + 1)
        slot = next_slot[i]
        n_groups = len(groups)
        while slot <= n_groups:
            if slot < n_groups:
                size = len(groups[slot])
                filled = int(size < k)
            else:
                filled = 1 - k
            if deficit - filled > rest:
                prunes["underfill"] += 1
                slot += 1
                continue
            if slot < n_groups:
                memo = memos[slot]
                bits = memo.get(i)
                if bits is None:
                    bits = memo[i] = agree(groups[slot][0], i)
                prev = old_mask = masks[slot]
                old_stars = stars[slot]
                old_counts = counts[slot]
                mask = old_mask & bits
                new_stars = n_qi - mask.bit_count() if mask != old_mask else old_stars
                added = (size + 1) * new_stars - size * old_stars
            else:
                memo = leader_memos[i]
                if memo is None:
                    memo = leader_memos[i] = {}
                old_mask = old_stars = None
                prev = 0  # no group before; it subtracts counts of 0
                old_counts = no_counts
                mask, new_stars, added = ev.full, 0, 0
            if loss + added >= best_loss:
                prunes["loss_bound"] += 1
                slot += 1
                continue
            new_counts = tuple(map(int.__add__, old_counts, row_counts))
            new_totals = list(totals)
            for t, need in enumerate(needs):
                if prev & need == need:
                    new_totals[t] -= old_counts[t]
                if mask & need == need:
                    new_totals[t] += new_counts[t]
            reason = static_checks and count_prune(i, slot, mask, new_counts, new_totals)
            if not reason:
                break
            prunes[reason] += 1
            slot += 1
        else:  # row i has no placement left: back up a row
            if i == 0:
                break
            i -= 1
            continue

        # Put row i in the slot and enter the node below.
        undone[i] = (slot, old_mask, old_stars, old_counts, totals, added, filled)
        next_slot[i] = slot + 1
        if old_mask is None:
            groups.append([i])
            masks.append(mask)
            stars.append(0)
            counts.append(new_counts)
            memos.append(memo)
        else:
            groups[slot].append(i)
            masks[slot] = mask
            stars[slot] = new_stars
            counts[slot] = new_counts
        totals = tuple(new_totals)
        loss += added
        deficit -= filled
        nodes += 1
        if (max_nodes is not None and nodes > max_nodes) or (
            time_budget is not None and time.monotonic() - start > time_budget
        ):
            aborted = True
        elif i + 1 < n:
            i += 1
            next_slot[i] = 0
        else:
            # A leaf. The last placement passed the underfill and loss
            # prunes, so no group is undersized and the loss beats the
            # incumbent's: it is the new incumbent if it meets every
            # constraint.
            per_position = [0] * n_qi
            for p, bit in read_bits:
                per_position[p] = sum(len(g) for g, m in zip(groups, masks) if not m & bit)
            scored = (loss, *per_position, *totals)
            if not ev.violations(scored):
                best_loss = loss
                best = Clustering([tuple(g) for g in groups])
    stats.nodes_expanded = nodes

    solution = None
    if best is not None:
        rp, reports = _evaluate(problem, best)
        solution = _make_solution(problem, best, rp, reports, not aborted, stats)
    stats.wall_time = time.monotonic() - start

    if aborted:
        return Aborted(solution, stats)
    if solution is None:
        return Infeasible("no clustering satisfies every constraint", stats)
    return solution


# --- greedy heuristic ---------------------------------------------------


def solve_greedy(problem: Problem) -> Union[Solution, Unknown]:
    """Two-phase heuristic: agglomerate to size >= k, then repair.

    Phase 1 seeds one group per distinct QI projection and merges the
    cheapest pair (fewest new stars) until no group is undersized.
    Phase 2 walks toward constraint satisfaction: among row swaps, group
    merges and group splits it applies whichever removes the most
    violations (stars saved as tie-break), drawing lots with the seeded
    RNG among equals, until all constraints hold or no move helps.
    Unknown means the walk stalled, not that no solution exists.
    Moves are scored from group summaries; only the returned clustering
    is materialised.
    """
    stats = SolverStats()
    start = time.monotonic()
    relation = problem.relation
    n = relation.n_rows
    k = problem.k
    rng = random.Random(problem.limits.seed)

    if n < k:
        stats.wall_time = time.monotonic() - start
        return Unknown(f"{n} rows cannot form a group of size {k}", stats)

    ev = _Evaluator(problem)
    proj = ev.proj

    # Phase 1: groups of identical QI projection, in first-appearance
    # order. Each group keeps its slot in that order and a merge keeps
    # the lower slot, so slots order groups as list positions would, and
    # popping the least (cost, slot, slot) picks the pair a scan for
    # min((cost, position, position)) would. A merge bumps both slots'
    # versions, which retires the heap entries priced on old contents.
    # A merge of groups of a and b rows with masks mx and my keeps the
    # positions both hold and their first rows agree on, so it costs
    # a*|mx| + b*|my| - (a+b)*|kept| new stars.
    by_proj: dict[tuple, list[int]] = {}
    for i, p in enumerate(proj):
        by_proj.setdefault(p, []).append(i)
    members = dict(enumerate(by_proj.values()))
    masks = dict.fromkeys(members, ev.full)
    version = dict.fromkeys(members, 0)
    heap: list[tuple[int, int, int, int, int]] = []

    def push(x: int, y: int) -> None:
        a, b = len(members[x]), len(members[y])
        if a < k or b < k:
            mx, my = masks[x], masks[y]
            kept = mx & my & ev.agree(members[x][0], members[y][0])
            cost = a * mx.bit_count() + b * my.bit_count() - (a + b) * kept.bit_count()
            heapq.heappush(heap, (cost, x, y, version[x], version[y]))

    for x in members:
        for y in range(x + 1, len(members)):
            push(x, y)
    undersized = sum(len(g) < k for g in members.values())
    while undersized:
        _, x, y, vx, vy = heapq.heappop(heap)
        if version[x] != vx or version[y] != vy:
            continue
        undersized -= (len(members[x]) < k) + (len(members[y]) < k)
        masks[x] &= masks.pop(y) & ev.agree(members[x][0], members[y][0])
        members[x] += members.pop(y)
        undersized += len(members[x]) < k
        version[x] += 1
        version[y] += 1
        for z in members:
            if z != x:
                push(min(x, z), max(x, z))
    groups = [members[x] for x in sorted(members)]

    def candidate_moves():
        """Yield (touched positions, replacement groups) in a fixed order.

        Replacements take the touched positions in order; a surplus one
        is appended, and a touched position left over is deleted.
        """
        for x in range(len(groups)):
            for y in range(x + 1, len(groups)):
                gx, gy = groups[x], groups[y]
                yield (x, y), (gx + gy,)
                for a in range(len(gx)):
                    for b in range(len(gy)):
                        nx, ny = list(gx), list(gy)
                        nx[a], ny[b] = gy[b], gx[a]
                        yield (x, y), (nx, ny)
        for x, g in enumerate(groups):
            if len(g) >= 2 * k:
                ordered = sorted(g, key=lambda i: (proj[i], i))
                for cut in range(k, len(g) - k + 1):
                    yield (x,), (ordered[:cut], ordered[cut:])

    budget = problem.limits.max_nodes if problem.limits.max_nodes is not None else 200
    summaries = [ev.summary(g) for g in groups]
    totals = ev.totals(summaries)
    violations = ev.violations(totals)
    steps = 0
    while violations > 0:
        if steps >= budget:
            stats.wall_time = time.monotonic() - start
            return Unknown(f"repair budget of {budget} steps exhausted", stats)
        if (
            problem.limits.time_budget is not None
            and time.monotonic() - start > problem.limits.time_budget
        ):
            stats.wall_time = time.monotonic() - start
            return Unknown("repair ran out of time", stats)
        best_score: Optional[tuple[int, int]] = None
        ties: list[tuple] = []
        for touched, new in candidate_moves():
            stats.nodes_expanded += 1
            new_summaries = [ev.summary(g) for g in new]
            new_totals = ev.moved(totals, [summaries[x] for x in touched], new_summaries)
            score = (violations - ev.violations(new_totals), totals[0] - new_totals[0])
            if best_score is None or score > best_score:
                best_score, ties = score, []
            if score == best_score:
                ties.append((touched, new, new_summaries, new_totals))
        if best_score is None:
            stats.wall_time = time.monotonic() - start
            return Unknown("no applicable repair move", stats)
        if best_score <= (0, 0):
            stats.wall_time = time.monotonic() - start
            return Unknown("repair stalled: no move removes a violation", stats)
        touched, new, new_summaries, totals = ties[rng.randrange(len(ties))]
        for x, g, s in zip(touched, new, new_summaries):
            groups[x], summaries[x] = g, s
        for x in reversed(touched[len(new):]):
            del groups[x], summaries[x]
        groups.extend(new[len(touched):])
        summaries.extend(new_summaries[len(touched):])
        violations -= best_score[0]
        steps += 1

    clustering = Clustering([tuple(g) for g in groups])
    rp, reports = _evaluate(problem, clustering)
    stats.wall_time = time.monotonic() - start
    return _make_solution(problem, clustering, rp, reports, False, stats)
