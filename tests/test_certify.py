"""Every solver answer certifies on problems past the oracle's 10-row cap.

A certified Solution refines the input, is k-anonymous on the QI,
passes a fresh check_all whose reports equal the ones it carries, and
has a loss equal to its star count. Exact runs under a node budget; when
it proves its optimum greedy cannot beat it, and when it proves
infeasibility greedy cannot answer.
"""

import random
import warnings

from anonkit import (
    Aborted,
    Limits,
    Problem,
    Relation,
    Solution,
    build_anonymized,
    check_all,
    info_loss,
    is_k_anonymous,
    parse_constraint_line,
    refines,
    solve_exact,
    solve_greedy,
)

QI = ("A", "B", "C")


def certify(problem, sol):
    rp = sol.anonymized
    assert refines(problem.relation, rp)
    assert is_k_anonymous(rp, problem.qi, problem.k)
    assert rp == build_anonymized(problem.relation, sol.clustering, problem.qi)
    assert all(len(g) >= problem.k for g in sol.clustering.groups)
    fresh = check_all(problem.relation, rp, problem.sigma, problem.k)
    assert tuple(fresh) == sol.constraint_reports
    assert all(r.satisfied for r in fresh)
    assert sol.loss == info_loss(rp)


def random_problem(rng, limits):
    n = rng.randint(11, 20)
    k = rng.randint(2, 3)
    rows = [
        tuple(rng.choice("ab" if a != "C" else "abc") for a in QI) + (rng.choice("xy"),)
        for _ in range(n)
    ]
    lines = []
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(QI)
        v = rng.choice("ab")
        lines.append(
            rng.choice(
                [
                    f'div: count({a}="{v}") <= 0',
                    f'div: {k} <= count({a}="{v}", D="x")',
                    f'div: count({a}="{v}") <= N - S("{rng.choice(QI)}")',
                    f'fair: ceil_k(C / R0 * (N - S("{a}"))) <= count({a}="{v}")',
                ]
            )
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sigma = [parse_constraint_line(line, k=k) for line in lines]
    return Problem(Relation(QI + ("D",), rows), k, QI, sigma, limits)


def test_answers_certify_past_the_oracle_cap():
    rng = random.Random(2024)
    seen = {"greedy": 0, "optimal": 0, "incumbent": 0, "compared": 0}
    for _ in range(60):
        problem = random_problem(rng, Limits(max_nodes=3000, seed=rng.randrange(10)))
        greedy = solve_greedy(problem)
        if isinstance(greedy, Solution):
            certify(problem, greedy)
            seen["greedy"] += 1
        exact = solve_exact(problem)
        if isinstance(exact, Aborted):
            exact = exact.best_so_far
            if exact is not None:
                assert not exact.optimal
                certify(problem, exact)
                seen["incumbent"] += 1
        elif isinstance(exact, Solution):
            assert exact.optimal
            certify(problem, exact)
            seen["optimal"] += 1
            if isinstance(greedy, Solution):
                assert exact.loss <= greedy.loss
                seen["compared"] += 1
        else:  # proven infeasible
            assert not isinstance(greedy, Solution)
    assert min(seen.values()) >= 5, seen
