"""The solvers' group-summary evaluator against the reference path.

On seeded random 11-20-row relations and clusterings whose groups all
have at least k rows, the evaluator's totals must equal what
build_anonymized + check_all report: the loss, the stars per QI
attribute, each constraint's observed count and resolved bounds, and
the number of violated constraints. Moving summaries in and out of the
totals must give the same numbers as summing the moved clustering.
"""

import random

from anonkit import (
    Clustering,
    Problem,
    Relation,
    STAR,
    build_anonymized,
    check_all,
    count_stars,
    info_loss,
    parse_constraint_line,
)
from anonkit.solver import _Evaluator

QI = ("A", "B", "C")
SCHEMA = QI + ("D",)


def _target(rng):
    attrs = sorted(rng.sample(SCHEMA, rng.randint(1, 2)))
    return ", ".join(f'{a}="{rng.choice("xy" if a == "D" else "abc")}"' for a in attrs)


def _constraint_line(rng, k):
    """Diversity and fairness bounds reading N, S("attr"), C and R0."""
    a = rng.choice(SCHEMA)
    return rng.choice(
        [
            f"div: count({_target(rng)}) <= 0",
            f"div: {k} <= count({_target(rng)}) <= {k * rng.randint(1, 4)}",
            f"div: ceil_k(0.2 * N) <= count({_target(rng)})",
            f'div: count({_target(rng)}) <= N - S("{a}")',
            f'div: floor_k(N / 2 - S("{a}") / 3) <= count({_target(rng)})',
            f'fair: ceil_k(C / R0 * (N - S("{a}"))) <= count({_target(rng)})',
            f'fair: count({_target(rng)}) <= C - S("{a}") / 2',
            f"fair: C / 2 <= count({_target(rng)}) <= R0 - C / 3",
        ]
    )


def random_case(rng):
    """A problem with 11-20 rows and one of its clusterings into groups >= k."""
    n = rng.randint(11, 20)
    k = rng.randint(2, 4)
    values = "abc"[: rng.randint(2, 3)]
    rows = [tuple(rng.choice(values) for _ in QI) + (rng.choice("xy"),) for _ in range(n)]
    sigma = [
        parse_constraint_line(_constraint_line(rng, k), k=k)
        for _ in range(rng.randint(1, 5))
    ]
    order = rng.sample(range(n), n)
    sizes = []
    left = n
    while left >= 2 * k:
        size = rng.randint(k, left - k)
        sizes.append(size)
        left -= size
    sizes.append(left)
    groups, at = [], 0
    for size in sizes:
        groups.append(order[at : at + size])
        at += size
    return Problem(Relation(SCHEMA, rows), k, QI, sigma), groups


def _reference(problem, groups):
    rp = build_anonymized(problem.relation, Clustering(groups), problem.qi)
    return rp, check_all(problem.relation, rp, problem.sigma, problem.k)


def _moves(rng, groups, k):
    """One merge, one swap and (when a group is large enough) one split."""
    x, y = sorted(rng.sample(range(len(groups)), 2))
    yield (x, y), [groups[x] + groups[y]]
    a, b = rng.randrange(len(groups[x])), rng.randrange(len(groups[y]))
    nx, ny = list(groups[x]), list(groups[y])
    nx[a], ny[b] = groups[y][b], groups[x][a]
    yield (x, y), [nx, ny]
    for z, g in enumerate(groups):
        if len(g) >= 2 * k:
            cut = rng.randint(k, len(g) - k)
            yield (z,), [g[:cut], g[cut:]]


CASES = [random_case(random.Random(seed)) for seed in range(150)]


def test_totals_match_the_reference_path():
    violated = set()
    for problem, groups in CASES:
        ev = _Evaluator(problem)
        totals = ev.totals(ev.summary(g) for g in groups)
        rp, reports = _reference(problem, groups)
        n_qi = len(problem.qi)
        stars, counts = totals[1 : 1 + n_qi], totals[1 + n_qi :]
        assert totals[0] == info_loss(rp)
        assert list(stars) == [count_stars(rp, a) for a in problem.qi]
        assert list(counts) == [r.observed_count for r in reports]
        assert ev.bounds(stars) == [(r.resolved_lo, r.resolved_hi) for r in reports]
        assert ev.violations(totals) == sum(not r.satisfied for r in reports)
        violated.add(ev.violations(totals) > 0)
    assert violated == {False, True}


def test_group_mask_marks_the_kept_qi_columns():
    for problem, groups in CASES[:30]:
        ev = _Evaluator(problem)
        rp, _ = _reference(problem, groups)
        for g in groups:
            mask = ev.mask(g)
            for p, a in enumerate(problem.qi):
                col = rp.column_index(a)
                starred = {rp.rows[i][col] is STAR for i in g}
                assert starred == {not mask >> p & 1}


def test_moved_totals_match_a_fresh_sum():
    rng = random.Random(7)
    checked = 0
    for problem, groups in CASES:
        if len(groups) < 2:
            continue
        ev = _Evaluator(problem)
        summaries = [ev.summary(g) for g in groups]
        base = ev.totals(summaries)
        for touched, new in _moves(rng, groups, problem.k):
            moved = [list(g) for g in groups]
            for pos, g in zip(touched, new):
                moved[pos] = g
            for pos in reversed(touched[len(new) :]):
                del moved[pos]
            moved.extend(new[len(touched) :])
            delta = ev.moved(base, [summaries[x] for x in touched], [ev.summary(g) for g in new])
            assert delta == ev.totals(ev.summary(g) for g in moved)
            rp, reports = _reference(problem, moved)
            assert delta[0] == info_loss(rp)
            assert ev.violations(delta) == sum(not r.satisfied for r in reports)
            checked += 1
    assert checked > 300
