"""Solvers: clustering mechanics, oracle, branch and bound, greedy repair."""

import unittest

import pytest

from anonkit import (
    STAR,
    Aborted,
    Clustering,
    ContractError,
    Infeasible,
    Limits,
    LintWarning,
    OracleCapError,
    Problem,
    Relation,
    SchemaError,
    Solution,
    Unknown,
    build_anonymized,
    decide,
    info_loss,
    is_k_anonymous,
    oracle_min_loss,
    parse_constraint_line,
    refines,
    solve_exact,
    solve_greedy,
)
from anonkit.solver import _partitions, _suffix_counts

ASIAN_RANGE = parse_constraint_line('div: 3 <= count(ETH="Asian") <= 6', k=3)
HIDE_ASIAN = parse_constraint_line('div: count(ETH="Asian") <= 0', k=3)
FAIR_FEMALE = parse_constraint_line(
    'fair: ceil_k(C / R0 * (N - S("GEN"))) <= count(GEN="Female")', k=3
)

QI = ("GEN", "ETH")


def fixture_problem(r_initial, sigma=(), limits=Limits()):
    return Problem(r_initial, 3, QI, sigma, limits)


def assert_valid_solution(problem, sol):
    assert isinstance(sol, Solution)
    assert refines(problem.relation, sol.anonymized)
    assert is_k_anonymous(sol.anonymized, problem.qi, problem.k)
    assert sol.loss == info_loss(sol.anonymized)
    assert all(rep.satisfied for rep in sol.constraint_reports)
    assert len(sol.constraint_reports) == len(problem.sigma)
    covered = sorted(i for g in sol.clustering.groups for i in g)
    assert covered == list(range(problem.relation.n_rows))
    assert all(len(g) >= problem.k for g in sol.clustering.groups)


class TestClustering:
    def test_canonical_form(self):
        c = Clustering([(2, 0), (1,), (4, 3)])
        assert c.groups == ((0, 2), (1,), (3, 4))
        assert len(c) == 3

    def test_equal_regardless_of_input_order(self):
        assert Clustering([(0, 1), (2,)]) == Clustering([(2,), (1, 0)])

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ContractError):
            Clustering([(0, 1), (1, 2)])

    def test_empty_group_rejected(self):
        with pytest.raises(ContractError):
            Clustering([(0,), ()])

    def test_negative_index_rejected(self):
        with pytest.raises(ContractError):
            Clustering([(-1, 0)])


class TestProblem:
    def test_bad_k(self, r_initial):
        with pytest.raises(ContractError):
            Problem(r_initial, 0, QI)

    def test_empty_qi(self, r_initial):
        with pytest.raises(ContractError):
            Problem(r_initial, 3, ())

    def test_unknown_qi(self, r_initial):
        with pytest.raises(SchemaError):
            Problem(r_initial, 3, ("GEN", "ZIP"))

    def test_repeated_qi_attribute_rejected(self, r_initial):
        # Listed twice, a column's stars would be counted twice.
        for qi in (("GEN", "GEN"), ("GEN", "ETH", "GEN"), ["ETH", "ETH", "ETH"]):
            with pytest.raises(ContractError, match=f"quasi-identifier '{qi[-1]}' is listed twice"):
                Problem(r_initial, 3, qi)

    def test_pre_starred_input_rejected(self, r2):
        with pytest.raises(ContractError):
            Problem(r2, 3, QI)

    def test_unknown_constraint_attribute(self, r_initial):
        bad = parse_constraint_line('div: 0 <= count(ZIP="123")', k=3)
        with pytest.raises(SchemaError):
            Problem(r_initial, 3, QI, [bad])

    def test_positive_lower_bound_below_k_rejected(self, r_initial):
        with pytest.raises(ContractError):
            Problem(r_initial, 5, QI, [ASIAN_RANGE])
        # a fractional bound rounds up before the comparison
        with pytest.warns(LintWarning):
            frac = parse_constraint_line('div: 0.5 <= count(ETH="Asian")', k=1)
        with pytest.raises(ContractError):
            Problem(r_initial, 2, QI, [frac])

    def test_zero_and_at_least_k_lower_bounds_accepted(self, r_initial):
        Problem(r_initial, 3, QI, [ASIAN_RANGE])
        Problem(r_initial, 3, QI, [HIDE_ASIAN])


class TestLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_nodes": -1}, {"time_budget": -1.0}, {"time_budget": float("nan")},
         {"time_budget": float("inf")}],
    )
    def test_meaningless_budget_rejected(self, kwargs):
        with pytest.raises(ContractError):
            Limits(**kwargs)

    def test_zero_budgets_accepted(self):
        Limits(max_nodes=0, time_budget=0.0)


class TestBuildAnonymized:
    def test_uniform_groups_keep_their_values(self, r_initial):
        rp = build_anonymized(r_initial, Clustering([(0, 1, 2), (3, 4, 5), (6, 7, 8)]), QI)
        assert rp.rows[:3] == (("Female", "Asian"),) * 3
        assert rp.rows[3:6] == ((STAR, "White"),) * 3
        assert rp.rows[6:] == (("Male", "Black"),) * 3
        assert info_loss(rp) == 3

    def test_single_group_stars_every_mixed_column(self, r_initial):
        rp = build_anonymized(r_initial, Clustering([tuple(range(9))]), QI)
        assert all(cell is STAR for row in rp.rows for cell in row)
        assert info_loss(rp) == 18

    def test_mixed_grouping(self, r_initial):
        rp = build_anonymized(r_initial, Clustering([(0, 1, 2), (3, 6, 7), (4, 5, 8)]), QI)
        assert rp.rows[3] == (STAR, STAR)
        assert rp.rows[4] == ("Male", STAR)
        assert info_loss(rp) == 9
        assert is_k_anonymous(rp, QI, 3)

    def test_non_qi_columns_pass_through(self):
        r = Relation(("GEN", "ID"), [("F", "1"), ("M", "2")])
        rp = build_anonymized(r, Clustering([(0, 1)]), ("GEN",))
        assert rp.column("ID") == ("1", "2")
        assert rp.column("GEN") == (STAR, STAR)

    def test_partial_cover_rejected(self, r_initial):
        with pytest.raises(ContractError):
            build_anonymized(r_initial, Clustering([(0, 1, 2)]), QI)


class TestPartitions(unittest.TestCase):
    def test_pairs_of_four(self):
        got = sorted(tuple(p) for p in _partitions(4, 2))
        want = sorted(
            [
                ((0, 1, 2, 3),),
                ((0, 1), (2, 3)),
                ((0, 2), (1, 3)),
                ((0, 3), (1, 2)),
            ]
        )
        self.assertEqual(got, want)

    def test_unit_blocks_give_all_partitions(self):
        self.assertEqual(len(list(_partitions(3, 1))), 5)

    def test_whole_set_only(self):
        self.assertEqual(list(_partitions(3, 3)), [[(0, 1, 2)]])

    def test_oversized_minimum(self):
        self.assertEqual(list(_partitions(2, 3)), [])


class TestOracle:
    def test_identity_when_unconstrained_at_k1(self):
        r = Relation(("A",), [("x",), ("x",), ("y",)])
        sol = oracle_min_loss(Problem(r, 1, ("A",)))
        assert isinstance(sol, Solution)
        assert sol.loss == 0
        assert sol.optimal
        assert sol.clustering == Clustering([(0,), (1,), (2,)])

    def test_duplicate_rows_group_freely(self):
        r = Relation(("A",), [("a",), ("a",), ("b",), ("b",)])
        sol = oracle_min_loss(Problem(r, 2, ("A",)))
        assert sol.loss == 0
        assert sol.clustering == Clustering([(0, 1), (2, 3)])

    def test_too_few_rows(self):
        r = Relation(("A",), [("x",), ("y",)])
        out = oracle_min_loss(Problem(r, 3, ("A",)))
        assert isinstance(out, Infeasible)

    def test_cap_is_enforced(self):
        r = Relation(("A",), [("x",)] * 11)
        with pytest.raises(OracleCapError):
            oracle_min_loss(Problem(r, 2, ("A",)))
        with pytest.raises(OracleCapError):
            oracle_min_loss(Problem(Relation(("A",), [("x",)] * 4), 2, ("A",)), cap=3)

    def test_fixture_minimum_is_three_stars(self, r_initial):
        sol = oracle_min_loss(fixture_problem(r_initial, [ASIAN_RANGE]))
        assert isinstance(sol, Solution)
        assert sol.loss == 3
        assert_valid_solution(fixture_problem(r_initial, [ASIAN_RANGE]), sol)

    def test_fairness_constraint_in_the_mix(self, r_initial):
        problem = fixture_problem(r_initial, [ASIAN_RANGE, FAIR_FEMALE])
        sol = oracle_min_loss(problem)
        assert isinstance(sol, Solution)
        assert sol.loss == 3
        assert_valid_solution(problem, sol)

    def test_hiding_a_value_costs_more(self, r_initial):
        sol = oracle_min_loss(fixture_problem(r_initial, [HIDE_ASIAN]))
        assert isinstance(sol, Solution)
        assert sol.loss == 9

    def test_unreachable_lower_bound(self, r_initial):
        want_hispanic = parse_constraint_line('div: 3 <= count(ETH="Hispanic")', k=3)
        out = oracle_min_loss(fixture_problem(r_initial, [want_hispanic]))
        assert isinstance(out, Infeasible)

    def test_decide(self, r_initial):
        assert decide(fixture_problem(r_initial, [ASIAN_RANGE]))
        want_hispanic = parse_constraint_line('div: 3 <= count(ETH="Hispanic")', k=3)
        assert not decide(fixture_problem(r_initial, [want_hispanic]))


class TestSolveExact:
    def test_matches_oracle_on_the_fixture(self, r_initial):
        for sigma in ([], [ASIAN_RANGE], [ASIAN_RANGE, FAIR_FEMALE], [HIDE_ASIAN]):
            problem = fixture_problem(r_initial, sigma)
            exact = solve_exact(problem)
            reference = oracle_min_loss(problem)
            assert isinstance(exact, Solution)
            assert exact.optimal
            assert exact.loss == reference.loss
            assert_valid_solution(problem, exact)

    def test_too_few_rows(self):
        r = Relation(("A",), [("x",), ("y",)])
        out = solve_exact(Problem(r, 3, ("A",)))
        assert isinstance(out, Infeasible)

    def test_unreachable_lower_bound_detected_upfront(self, r_initial):
        want_hispanic = parse_constraint_line('div: 3 <= count(ETH="Hispanic")', k=3)
        out = solve_exact(fixture_problem(r_initial, [want_hispanic]))
        assert isinstance(out, Infeasible)
        assert "below the lower bound" in out.reason
        assert out.stats.nodes_expanded == 0

    def test_abort_without_incumbent(self, r_initial):
        out = solve_exact(fixture_problem(r_initial, limits=Limits(max_nodes=1)))
        assert isinstance(out, Aborted)
        assert out.best_so_far is None
        assert out.stats.nodes_expanded == 2

    def test_abort_with_incumbent(self, r_initial):
        # enough nodes to reach the first leaf (one all-absorbing group)
        # but nowhere near enough to finish
        problem = fixture_problem(r_initial, limits=Limits(max_nodes=12))
        out = solve_exact(problem)
        assert isinstance(out, Aborted)
        assert out.best_so_far is not None
        assert not out.best_so_far.optimal
        assert out.best_so_far.loss == 18

    def test_prunes_are_counted(self, r_initial):
        sol = solve_exact(fixture_problem(r_initial, [HIDE_ASIAN]))
        assert isinstance(sol, Solution)
        assert sol.loss == 9
        prunes = sol.stats.prunes
        assert set(prunes) == {"loss_bound", "underfill", "upper_bound", "lower_bound"}
        assert prunes["underfill"] > 0
        assert prunes["loss_bound"] > 0
        assert prunes["upper_bound"] > 0

    def test_budgeted_run_still_reports_wall_time(self, r_initial):
        out = solve_exact(fixture_problem(r_initial, limits=Limits(max_nodes=1)))
        assert out.stats.wall_time >= 0.0

    def test_suffix_counts(self):
        import random

        rng = random.Random(3)
        for n in (0, 1, 2, 7, 50):
            flags = [rng.random() < 0.4 for _ in range(n)]
            assert _suffix_counts(flags) == [sum(flags[i:]) for i in range(n + 1)]


class TestSolveGreedy:
    def test_fixture_with_asian_range(self, r_initial):
        problem = fixture_problem(r_initial, [ASIAN_RANGE])
        sol = solve_greedy(problem)
        assert isinstance(sol, Solution)
        assert not sol.optimal
        assert sol.loss == 3
        assert_valid_solution(problem, sol)

    def test_repair_reaches_feasibility(self, r_initial):
        problem = fixture_problem(r_initial, [HIDE_ASIAN])
        sol = solve_greedy(problem)
        assert isinstance(sol, Solution)
        assert sol.loss == 9
        assert_valid_solution(problem, sol)

    def test_same_seed_same_answer(self, r_initial):
        runs = [
            solve_greedy(fixture_problem(r_initial, [HIDE_ASIAN], Limits(seed=7)))
            for _ in range(2)
        ]
        assert runs[0].clustering == runs[1].clustering
        assert runs[0].anonymized == runs[1].anonymized
        assert runs[0].loss == runs[1].loss

    def test_too_few_rows_is_unknown(self):
        r = Relation(("A",), [("x",), ("y",)])
        out = solve_greedy(Problem(r, 3, ("A",)))
        assert isinstance(out, Unknown)

    def test_exhausted_budget(self, r_initial):
        problem = fixture_problem(r_initial, [HIDE_ASIAN], Limits(max_nodes=0))
        out = solve_greedy(problem)
        assert isinstance(out, Unknown)
        assert "budget" in out.reason

    def test_stall_on_an_unreachable_bound(self, r_initial):
        too_many = parse_constraint_line('div: 6 <= count(ETH="Asian")', k=3)
        out = solve_greedy(fixture_problem(r_initial, [too_many]))
        assert isinstance(out, Unknown)
        assert "stalled" in out.reason

    def test_loss_never_below_the_optimum(self, r_initial):
        for sigma in ([], [ASIAN_RANGE], [HIDE_ASIAN], [ASIAN_RANGE, FAIR_FEMALE]):
            problem = fixture_problem(r_initial, sigma)
            greedy = solve_greedy(problem)
            if not isinstance(greedy, Solution):
                continue
            reference = oracle_min_loss(problem)
            assert greedy.loss >= reference.loss


def _golden_relation(rows):
    return Relation(("A", "B", "C", "D"), [tuple(r) for r in rows])


class TestGolden:
    """Outcomes recorded before the solvers scored candidates from group
    summaries; the same search must still make the same choices."""

    def test_greedy_repair_with_rng_ties(self):
        # Four repair steps; three of them draw among 6, 10 and 2 tied moves.
        rows = ["baay", "babx", "babx", "aabx", "baby", "aaby", "aabx",
                "bbby", "abax", "abax", "abbx", "baax", "baay"]  # fmt: skip
        sigma = [
            parse_constraint_line(line, k=3)
            for line in (
                'fair: ceil_k(C / R0 * (N - S("B"))) <= count(B="b")',
                'fair: ceil_k(C / R0 * (N - S("C"))) <= count(C="a")',
                'div: count(C="b") <= 0',
            )
        ]
        problem = Problem(_golden_relation(rows), 3, ("A", "B", "C"), sigma, Limits(seed=5))
        sol = solve_greedy(problem)
        assert_valid_solution(problem, sol)
        assert sol.clustering == Clustering([(0, 1, 12), (2, 4, 11), (3, 5, 6, 9), (7, 8, 10)])
        assert sol.loss == 20
        assert sol.stats.nodes_expanded == 276

    def test_budgeted_exact_search(self):
        rows = ["caax", "cbbx", "caax", "bbax", "bcax", "cccy", "abcx",
                "cacy", "cacx", "bbax", "bbcx", "bbay", "abax", "abby"]  # fmt: skip
        sigma = [
            parse_constraint_line(line, k=3)
            for line in (
                'div: 3 <= count(A="a")',
                'div: count(B="b", D="x") <= 3',
                'fair: ceil_k(C / R0 * (N - S("A"))) <= count(A="b")',
            )
        ]
        limits = Limits(max_nodes=4000)
        problem = Problem(_golden_relation(rows), 3, ("A", "B", "C"), sigma, limits)
        out = solve_exact(problem)
        assert isinstance(out, Aborted)
        assert_valid_solution(problem, out.best_so_far)
        assert out.best_so_far.loss == 26
        assert out.best_so_far.clustering == Clustering(
            [(0, 1, 2, 3), (4, 9, 11), (5, 7, 8, 10), (6, 12, 13)]
        )
        assert out.stats.nodes_expanded == 4001
        assert out.stats.prunes == {
            "loss_bound": 4544,
            "underfill": 8072,
            "upper_bound": 168,
            "lower_bound": 1987,
        }
