"""solve_exact against the earlier branch and bound, kept in oracles.py.

The two searches must visit the same nodes in the same order and prune
each placement for the same reason, so every counter and every answer
must agree. The problems are seeded: 0-14 rows, k from 2 to 4, constant
lower and upper bounds on QI-only, mixed and non-QI targets, fairness
and S(...) bounds, and budgets from one node to none.

Runs under pytest, or alone: `PYTHONPATH=src python tests/test_exact_differential.py`.
"""

from __future__ import annotations

import random
import warnings

from anonkit import Limits, Problem, Relation, Solution, parse_constraints, solve_exact
from anonkit.solver import Aborted

from oracles import reference_solve_exact

SCHEMA = ("A", "B", "C", "X")
PROBLEMS = 320


def _target(rng: random.Random, qi: tuple[str, ...]) -> str:
    """A QI-only, mixed or non-QI target; now and then a value not in the input."""
    kind = rng.choice(("qi", "qi", "mixed", "other"))
    attrs = []
    if kind != "other":
        attrs += rng.sample(qi, rng.randint(1, min(2, len(qi))))
    if kind != "qi":
        attrs.append("X")
    pairs = []
    for a in sorted(attrs):
        value = "zz" if rng.random() < 0.05 else f"{a.lower()}{rng.randrange(2 if a == 'X' else 3)}"
        pairs.append(f'{a}="{value}"')
    return ", ".join(pairs)


def _line(rng: random.Random, qi: tuple[str, ...], k: int, n: int) -> str:
    target = _target(rng, qi)
    shape = rng.choice(("lower", "upper", "upper", "both", "fair", "stars"))
    if shape == "lower":
        return f"div: {rng.choice((0, k, k + 1, 2 * k))} <= count({target})"
    if shape == "upper":
        return f"div: count({target}) <= {rng.randint(0, n)}"
    if shape == "both":
        lo = rng.choice((0, k))
        return f"div: {lo} <= count({target}) <= {lo + rng.randint(0, n)}"
    if shape == "fair":
        return f'fair: ceil_k(C / R0 * (N - S("{qi[0]}"))) <= count({target})'
    return f'div: count({target}) <= S("{rng.choice(qi)}") + {rng.randint(0, 3)}'


def random_problem(seed: int) -> Problem:
    rng = random.Random(seed)
    n = rng.randint(0, 14)
    k = rng.randint(2, 4)
    qi = SCHEMA[: rng.randint(1, 3)]
    domain = rng.randint(2, 3)
    rows = [
        tuple(f"{a.lower()}{rng.randrange(2 if a == 'X' else domain)}" for a in SCHEMA)
        for _ in range(n)
    ]
    text = "\n".join(_line(rng, qi, k, n) for _ in range(rng.randint(0, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bounds off the multiples of k are wanted here
        sigma = parse_constraints(text, k)
    # Unbounded runs only where the search is small enough to finish fast.
    budgets = (1, 2, 5, 40, 400, 4000) + ((None,) * 3 if n <= 10 else ())
    return Problem(Relation(SCHEMA, rows), k, qi, sigma, Limits(max_nodes=rng.choice(budgets)))


def _outcome(result) -> tuple:
    solution = result.best_so_far if isinstance(result, Aborted) else result
    answer = None
    if isinstance(solution, Solution):
        answer = (solution.loss, solution.clustering.groups, solution.optimal)
    stats = result.stats
    return type(result).__name__, stats.nodes_expanded, list(stats.prunes.items()), answer


def run_all() -> dict[str, int]:
    """Compare both searches on every seeded problem; the prunes fired in total."""
    fired = dict.fromkeys(("loss_bound", "underfill", "upper_bound", "lower_bound"), 0)
    for seed in range(PROBLEMS):
        problem = random_problem(seed)
        got, want = _outcome(solve_exact(problem)), _outcome(reference_solve_exact(problem))
        assert got == want, (seed, got, want)
        for name, count in got[2]:
            fired[name] += count
    return fired


def test_matches_the_reference_search_and_fires_every_prune():
    fired = run_all()
    assert all(fired.values()), fired


if __name__ == "__main__":
    fired = run_all()
    assert all(fired.values()), fired
    print(f"{PROBLEMS} problems agree; prunes fired: {fired}")
