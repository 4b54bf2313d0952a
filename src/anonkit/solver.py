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
terms. Branch and bound and greedy therefore score candidates from group
summaries and never build an output relation for one; build_anonymized
and check_all, the reference path, run only to materialise the Solution
a solver returns. The oracle, the ground truth for tests, evaluates every
partition on the reference path.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

from .checking import SatReport, _resolve, check_all, referenced_star_attributes
from .constraints import Constraint, ConstraintKind, EvalContext, Literal
from .errors import ContractError, OracleCapError, SchemaError
from .relation import (
    STAR,
    Relation,
    TargetValue,
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
        for i, a in enumerate(qi):
            relation.column_index(a)  # raises SchemaError when unknown
            if a in qi[:i]:  # its stars would count twice
                raise ContractError(f"quasi-identifier {a!r} is listed twice")
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


def _row_matches(row: Sequence, part: Sequence[tuple[int, str]]) -> bool:
    return all(row[col] == v for col, v in part)


def _join(a: tuple, b: tuple) -> tuple:
    """Output QI projection of two groups put together: shared values kept."""
    return tuple(x if x == y else STAR for x, y in zip(a, b))


class _Evaluator:
    """Scores clusterings of one problem from per-group summaries.

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
        self._problem = problem
        # Per constraint: the target's QI part as (QI position, value),
        # and whether each row matches the rest of the target.
        self._targets: list[tuple[tuple[tuple[int, str], ...], list[int]]] = []
        self._reads: list[tuple[int, ...]] = []
        self._inputs: list[dict] = []  # the input statistics fairness bounds see
        self._memo: list[dict[tuple[int, ...], tuple[int, Optional[int]]]] = []
        for c in problem.sigma:
            entries = c.target.sorted_entries()
            qi_part = tuple((qi_pos[a], v) for a, v in entries if a in qi_pos)
            other = [(relation.column_index(a), v) for a, v in entries if a not in qi_pos]
            match = [int(_row_matches(row, other)) for row in relation.rows]
            self._targets.append((qi_part, match))
            read = referenced_star_attributes(c)
            self._reads.append(tuple(p for a, p in qi_pos.items() if a in read))
            self._inputs.append(
                {
                    "initial_target_count": count_target(relation, c.target),
                    "initial_size": relation.n_rows,
                }
                if c.kind is ConstraintKind.FAIRNESS
                else {}
            )
            self._memo.append({})

    def uniform(self, group: Sequence[int]) -> tuple:
        """The group's QI projection in the output: its shared value or STAR."""
        return reduce(_join, (self.proj[i] for i in group))

    def summary(self, group: Sequence[int], uni: Optional[tuple] = None) -> tuple[int, ...]:
        if uni is None:
            uni = self.uniform(group)
        size = len(group)
        stars = [size if u is STAR else 0 for u in uni]
        counts = [
            sum(match[i] for i in group) if all(uni[p] == v for p, v in qi_part) else 0
            for qi_part, match in self._targets
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
        for c, read, inputs, memo in zip(problem.sigma, self._reads, self._inputs, self._memo):
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


@dataclass(frozen=True)
class _StaticBound:
    """A constant count bound, split into QI and pass-through target parts.

    The split matters to the prunes: only the QI part is subject to
    group uniformity, the rest is fixed per row.
    """

    target: TargetValue
    lo: Optional[int]
    hi: Optional[int]
    qi_part: tuple[tuple[int, str], ...]
    other_part: tuple[tuple[int, str], ...]


def _static_bounds(problem: Problem) -> list[_StaticBound]:
    out = []
    qi_set = set(problem.qi)
    for c in problem.sigma:
        lo = max(0, math.ceil(c.lower.value)) if isinstance(c.lower, Literal) else None
        hi = max(0, math.floor(c.upper.value)) if isinstance(c.upper, Literal) else None
        if lo is None and hi is None:
            continue
        qi_part = []
        other_part = []
        for a, v in c.target.sorted_entries():
            col = problem.relation.column_index(a)
            (qi_part if a in qi_set else other_part).append((col, v))
        out.append(_StaticBound(c.target, lo, hi, tuple(qi_part), tuple(other_part)))
    return out


def _suffix_counts(flags: Sequence[bool]) -> list[int]:
    """out[i] is the number of true flags at positions i.., with out[len] = 0."""
    return list(accumulate(reversed(flags), initial=0))[::-1]


def solve_exact(problem: Problem) -> SolveResult:
    """Branch and bound over partitions; optimal when it completes.

    Rows are assigned in index order to an existing group or a new one.
    A branch dies when (a) cells already starred reach the incumbent
    loss, (b) the unassigned rows cannot fill every undersized group,
    or (c)/(d) a constant count bound is provably violated in every
    completion of the branch. Leaves are checked from group summaries;
    only the returned clustering is materialised.
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
    for sb in statics:
        if sb.lo is not None and sb.lo > count_target(relation, sb.target):
            stats.wall_time = time.monotonic() - start
            return Infeasible(
                f"({sb.target}) occurs {count_target(relation, sb.target)} "
                f"time(s) in the input, below the lower bound {sb.lo}",
                stats,
            )

    rows = relation.rows
    ev = _Evaluator(problem)

    # Per static bound: which rows match the target's QI part / all of it.
    qi_match = [
        [_row_matches(r, sb.qi_part) for r in rows] for sb in statics
    ]
    full_match = [
        [qi_match[s][i] and _row_matches(rows[i], statics[s].other_part) for i in range(n)]
        for s in range(len(statics))
    ]
    # Suffix counts over rows i..n-1, for i = 0..n.
    suffix_non_qi_match = [_suffix_counts([not m for m in qm]) for qm in qi_match]
    suffix_full_match = [_suffix_counts(fm) for fm in full_match]

    groups: list[list[int]] = []
    unis: list[tuple] = []  # each group's output QI projection
    loss = 0  # stars of the groups as they stand
    deficit = 0  # rows still missing from undersized groups
    best: Optional[tuple[int, Clustering]] = None

    def count_prunes_fail(next_row: int) -> Optional[str]:
        """Can some completion still respect every constant bound?"""
        for s, sb in enumerate(statics):
            matching: list[int] = []  # contribution of each QI-matching group
            total = 0
            for g in groups:
                if all(qi_match[s][i] for i in g):
                    contrib = sum(1 for i in g if full_match[s][i])
                    matching.append(contrib)
                    total += contrib
            if sb.hi is not None:
                # Each remaining QI-mismatching row can neutralize at most
                # one matching group; the rest keep at least their current
                # contribution, and the adversary spares the smallest.
                spare = len(matching) - suffix_non_qi_match[s][next_row]
                if spare > 0 and sum(sorted(matching)[:spare]) > sb.hi:
                    return "upper_bound"
            if sb.lo is not None:
                # The count can only grow by remaining fully-matching rows.
                if total + suffix_full_match[s][next_row] < sb.lo:
                    return "lower_bound"
        return None

    def placements(i: int):
        """Put row i in each existing group, then in a new one.

        Yields once per placement no prune rules out, with that placement
        in force; the next resumption takes it back.
        """
        nonlocal loss, deficit
        proj = ev.proj[i]
        for slot in range(len(groups) + 1):
            if slot == len(groups):
                groups.append([i])
                unis.append(proj)
                old_uni, added, filled = None, 0, 1 - k
            else:
                g = groups[slot]
                old_uni = unis[slot]
                unis[slot] = _join(old_uni, proj)
                added = (len(g) + 1) * unis[slot].count(STAR) - len(g) * old_uni.count(STAR)
                filled = int(len(g) < k)
                g.append(i)
            loss += added
            deficit -= filled
            try:
                if deficit > n - (i + 1):
                    stats.prunes["underfill"] += 1
                    continue
                if best is not None and loss >= best[0]:
                    stats.prunes["loss_bound"] += 1
                    continue
                reason = count_prunes_fail(i + 1)
                if reason is not None:
                    stats.prunes[reason] += 1
                    continue
                yield True
            finally:
                loss -= added
                deficit += filled
                if old_uni is None:
                    groups.pop()
                    unis.pop()
                else:
                    groups[slot].pop()
                    unis[slot] = old_uni

    # Depth-first without recursion: the stack holds one placements()
    # generator per row placed so far, so its depth is the next row.
    stack = []
    aborted = False
    nodes = 0
    max_nodes, time_budget = limits.max_nodes, limits.time_budget
    while True:
        # Enter the node whose rows 0..len(stack)-1 are placed.
        nodes += 1
        if (max_nodes is not None and nodes > max_nodes) or (
            time_budget is not None and time.monotonic() - start > time_budget
        ):
            aborted = True
            break
        depth = len(stack)
        if depth < n:
            stack.append(placements(depth))
        elif not deficit:
            totals = ev.totals(map(ev.summary, groups, unis))
            if not ev.violations(totals) and (best is None or totals[0] < best[0]):
                best = (totals[0], Clustering([tuple(g) for g in groups]))
        # Resume the deepest row with placements left, dropping spent ones.
        while stack and not next(stack[-1], False):
            stack.pop()
        if not stack:
            break
    while stack:  # after an abort: undo the placements in force, deepest first
        stack.pop().close()
    stats.nodes_expanded = nodes

    solution = None
    if best is not None:
        clustering = best[1]
        rp, reports = _evaluate(problem, clustering)
        solution = _make_solution(problem, clustering, rp, reports, not aborted, stats)
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
    by_proj: dict[tuple, list[int]] = {}
    for i, p in enumerate(proj):
        by_proj.setdefault(p, []).append(i)
    members = dict(enumerate(by_proj.values()))
    unis = dict(enumerate(by_proj))
    version = dict.fromkeys(members, 0)
    heap: list[tuple[int, int, int, int, int]] = []

    def push(x: int, y: int) -> None:
        a, b = len(members[x]), len(members[y])
        if a < k or b < k:
            cost = (
                (a + b) * _join(unis[x], unis[y]).count(STAR)
                - a * unis[x].count(STAR)
                - b * unis[y].count(STAR)
            )
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
        members[x] += members.pop(y)
        undersized += len(members[x]) < k
        unis[x] = _join(unis[x], unis.pop(y))
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
