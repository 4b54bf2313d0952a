"""Satisfaction checks: resolved bounds vs observed counts on the fixtures."""

import random

import pytest
from hypothesis import given, strategies as st

from anonkit import (
    STAR,
    Constraint,
    ConstraintKind,
    ContractError,
    EvalError,
    Relation,
    SchemaError,
    TargetValue,
    all_satisfied,
    check_all,
    check_diversity,
    check_fairness,
    count_stars,
    count_target,
    info_loss,
    parse_constraint_line,
    referenced_star_attributes,
    refines,
)
import anonkit.checking
from anonkit.constraints import EvalContext, eval_bound

from oracles import naive_count

ASIAN_RANGE = parse_constraint_line('div: 3 <= count(ETH="Asian") <= 6', k=3)
FAIR_FEMALE = parse_constraint_line(
    'fair: ceil_k(C / R0 * (N - S("GEN"))) <= count(GEN="Female")', k=3
)


class TestDiversity:
    def test_asian_range_fails_on_r1(self, r1):
        rep = check_diversity(r1, ASIAN_RANGE, k=3)
        assert rep.observed_count == 0
        assert (rep.resolved_lo, rep.resolved_hi) == (3, 6)
        assert not rep.satisfied

    def test_asian_range_holds_on_r2(self, r2):
        rep = check_diversity(r2, ASIAN_RANGE, k=3)
        assert rep.observed_count == 3
        assert rep.satisfied

    def test_variable_lower_bound_resolves_through_n(self, r1, r2):
        # 0.3 * 9 = 2.7 rounds up to the next multiple of 3
        sigma = parse_constraint_line('div: ceil_k(0.3 * N) <= count(ETH="Asian")', k=3)
        rep1 = check_diversity(r1, sigma, k=3)
        assert rep1.resolved_lo == 3
        assert rep1.resolved_hi is None
        assert not rep1.satisfied
        assert check_diversity(r2, sigma, k=3).satisfied

    def test_unrounded_upper_bound_floors(self, r2):
        sigma = parse_constraint_line('div: count(ETH="Asian") <= N / 2', k=3)
        rep = check_diversity(r2, sigma, k=3)
        assert rep.resolved_hi == 4
        assert rep.satisfied

    def test_wrong_kind_rejected(self, r2, r_initial):
        with pytest.raises(ContractError):
            check_diversity(r2, FAIR_FEMALE, k=3)
        with pytest.raises(ContractError):
            check_fairness(r_initial, r2, ASIAN_RANGE, k=3)


class TestFairness:
    def test_holds_on_r2(self, r_initial, r2):
        rep = check_fairness(r_initial, r2, FAIR_FEMALE, k=3)
        # 4/9 of the 3 rows left revealed, rounded up to a multiple of 3
        assert rep.resolved_lo == 3
        assert rep.observed_count == 3
        assert rep.satisfied

    def test_fails_on_r1(self, r_initial, r1):
        rep = check_fairness(r_initial, r1, FAIR_FEMALE, k=3)
        assert rep.resolved_lo == 3
        assert rep.observed_count == 0
        assert not rep.satisfied

    def test_identity_output_rounds_the_share_up(self, r_initial):
        # with nothing suppressed the share is the full input count, 4,
        # which the k-rounding lifts to 6, above the observed 4
        rep = check_fairness(r_initial, r_initial, FAIR_FEMALE, k=3)
        assert rep.resolved_lo == 6
        assert rep.observed_count == 4
        assert not rep.satisfied

    def test_heavier_suppression_still_binds(self, r_initial):
        rows = [("Female", "Asian"), ("Female", "Asian")]
        rows += [(STAR, "White")] * 7
        rp = Relation(("GEN", "ETH"), rows)
        rep = check_fairness(r_initial, rp, FAIR_FEMALE, k=3)
        # 4/9 * (9 - 7) = 8/9, rounded up to 3, above the 2 revealed
        assert rep.resolved_lo == 3
        assert rep.observed_count == 2
        assert not rep.satisfied

    def test_shape_mismatch_rejected(self, r_initial, r2):
        other_schema = Relation(("GEN", "ZIP"), [("Female", "1")] * 9)
        with pytest.raises(ContractError):
            check_fairness(other_schema, r2, FAIR_FEMALE, k=3)
        short = Relation(r_initial.schema, r_initial.rows[:6])
        with pytest.raises(ContractError):
            check_fairness(short, r2, FAIR_FEMALE, k=3)


class TestCheckAll:
    def test_reports_follow_input_order(self, r_initial, r2):
        reports = check_all(r_initial, r2, [ASIAN_RANGE, FAIR_FEMALE], k=3)
        assert [rep.constraint for rep in reports] == [ASIAN_RANGE, FAIR_FEMALE]
        assert all_satisfied(reports)

    def test_any_failure_breaks_all_satisfied(self, r_initial, r1):
        reports = check_all(r_initial, r1, [ASIAN_RANGE, FAIR_FEMALE], k=3)
        assert [rep.satisfied for rep in reports] == [False, False]
        assert not all_satisfied(reports)

    def test_fairness_needs_the_input_relation(self, r2):
        with pytest.raises(ContractError):
            check_all(None, r2, [FAIR_FEMALE], k=3)

    def test_unknown_attribute_names_the_constraint(self, r2):
        bad = parse_constraint_line('div: 0 <= count(ZIP="123")', k=3)
        with pytest.raises(SchemaError) as exc:
            check_all(None, r2, [ASIAN_RANGE, bad], k=3)
        assert "constraint 2" in str(exc.value)
        assert "ZIP" in str(exc.value)

    def test_empty_constraint_list(self, r2):
        assert check_all(None, r2, [], k=3) == []
        assert all_satisfied([])


class TestReportShape:
    def test_row_order_does_not_matter(self, r2):
        shuffled = Relation(r2.schema, tuple(reversed(r2.rows)))
        assert check_diversity(shuffled, ASIAN_RANGE, k=3) == check_diversity(
            r2, ASIAN_RANGE, k=3
        )

    def test_star_attribute_listing(self):
        assert referenced_star_attributes(FAIR_FEMALE) == {"GEN"}
        assert referenced_star_attributes(ASIAN_RANGE) == set()

    @given(
        lo=st.integers(0, 10),
        hi=st.one_of(st.none(), st.integers(0, 10)),
        gen=st.sampled_from(["Female", "Male"]),
    )
    def test_verdict_matches_the_arithmetic(self, lo, hi, gen):
        text = f'div: {lo} <= count(GEN="{gen}")'
        if hi is not None:
            text += f" <= {hi}"
        # parse with k=1 so arbitrary literal bounds do not trip the lint
        sigma = parse_constraint_line(text, k=1)
        rows = [("Female", "Asian")] * 3 + [(STAR, "White")] * 3 + [("Male", "Black")] * 3
        rp = Relation(("GEN", "ETH"), rows)
        rep = check_diversity(rp, sigma, k=3)
        observed = naive_count(rp, sigma.target)
        assert rep.observed_count == observed
        assert rep.satisfied == (lo <= observed and (hi is None or observed <= hi))


# --- count kernels and check_all against direct scans -----------------------

SCHEMA = ("A", "B", "C", "D")  # D is never starred, like a non-QI column
DOMAIN = ("a", "b", "c")
BOUND_TEXTS = {
    "div": ["", "1 <= ", "ceil_k(0.2 * N) <= ", "floor_k(N - S(\"A\") - S(\"B\")) <= "],
    "fair": ["ceil_k(C / R0 * (N - S(\"{a}\"))) <= ", "floor_k(C * N / R0) <= ", "C - S(\"{a}\") <= "],
}
UPPER_TEXTS = ["", " <= N - S(\"C\")", " <= 2", " <= R0 - C"]


def hand_stars(rel, attribute):
    j = rel.schema.index(attribute)
    return sum(1 for row in rel.rows if row[j] is STAR)


def random_pair(rng, n_rows):
    """An input relation and a random cell suppression of it."""
    rows = [tuple(rng.choice(DOMAIN) for _ in SCHEMA) for _ in range(n_rows)]
    starred = [
        tuple(STAR if a != "D" and rng.random() < 0.3 else v for a, v in zip(SCHEMA, row))
        for row in rows
    ]
    return Relation(SCHEMA, rows), Relation(SCHEMA, starred)


def random_constraint(rng):
    kind = rng.choice(("div", "fair"))
    attrs = rng.sample(SCHEMA, rng.randint(1, 3))
    # "z" never occurs, so some targets count nothing at all.
    target = ", ".join(f'{a}="{rng.choice(DOMAIN + ("z",))}"' for a in attrs)
    lower = rng.choice(BOUND_TEXTS[kind]).format(a=rng.choice(SCHEMA))
    upper = rng.choice(UPPER_TEXTS if kind == "fair" else UPPER_TEXTS[:3])
    if not lower and not upper:
        upper = " <= 3"
    return parse_constraint_line(f"{kind}: {lower}count({target}){upper}", k=1)


def expected_report(r, rp, c, k):
    """The report check_all should give, from hand counts and eval_bound."""
    fair = c.kind is ConstraintKind.FAIRNESS
    ctx = EvalContext(
        k=k,
        output_size=rp.n_rows,
        star_counts={a: hand_stars(rp, a) for a in rp.schema},
        initial_target_count=naive_count(r, c.target) if fair else None,
        initial_size=r.n_rows if fair else None,
    )
    lo = 0 if c.lower is None else eval_bound(c.lower, ctx, "lower")
    hi = None if c.upper is None else eval_bound(c.upper, ctx, "upper")
    observed = naive_count(rp, c.target)
    return (observed, lo, hi, lo <= observed and (hi is None or observed <= hi))


def assert_matches_direct_scans(r, rp, constraints, k):
    for a in SCHEMA:
        assert count_stars(rp, a) == hand_stars(rp, a)
    assert info_loss(rp) == sum(hand_stars(rp, a) for a in SCHEMA)
    for c in constraints:
        assert count_target(rp, c.target) == naive_count(rp, c.target)
        assert count_target(r, c.target) == naive_count(r, c.target)
    try:
        expected = [expected_report(r, rp, c, k) for c in constraints]
    except EvalError:  # C / R0 on an empty input
        with pytest.raises(EvalError):
            check_all(r, rp, constraints, k)
        return
    reports = check_all(r, rp, constraints, k)
    assert [rep.constraint for rep in reports] == list(constraints)
    got = [(rep.observed_count, rep.resolved_lo, rep.resolved_hi, rep.satisfied) for rep in reports]
    assert got == expected
    for c, rep in zip(constraints, reports):
        alone = check_fairness(r, rp, c, k) if c.kind is ConstraintKind.FAIRNESS else check_diversity(rp, c, k)
        assert alone == rep


class TestKernelsAgainstDirectScans:
    @pytest.mark.parametrize("seed", range(200))
    def test_small_relations(self, seed):
        rng = random.Random(seed)
        r, rp = random_pair(rng, rng.randint(0, 40))
        constraints = [random_constraint(rng) for _ in range(rng.randint(1, 6))]
        assert_matches_direct_scans(r, rp, constraints, k=rng.randint(1, 4))

    def test_large_relation(self):
        rng = random.Random(5000)
        r, rp = random_pair(rng, 6000)
        constraints = [random_constraint(rng) for _ in range(12)]
        assert_matches_direct_scans(r, rp, constraints, k=3)

    def test_target_tuple_follows_sorted_entries(self):
        # pairs given out of attribute order still meet the right columns
        rp = Relation(("B", "A"), [("1", "x"), ("x", "1"), ("1", "x")])
        assert count_target(rp, TargetValue([("B", "1"), ("A", "x")])) == 2
        assert count_target(rp, TargetValue([("A", "x"), ("B", "1")])) == 2

    def test_star_never_matches_a_value(self):
        rp = Relation(("A", "B"), [(STAR, "x"), ("x", STAR), (STAR, STAR)])
        assert count_target(rp, TargetValue.of(A="x")) == 1
        assert count_target(rp, TargetValue.of(A="x", B="x")) == 0
        assert count_stars(rp, "A") == 2
        assert info_loss(rp) == 4

    @pytest.mark.parametrize("seed", range(50))
    def test_refines_matches_a_cellwise_check(self, seed):
        rng = random.Random(seed)
        r, rp = random_pair(rng, rng.randint(0, 12))
        rows = [list(row) for row in rp.rows]
        if rows and rng.random() < 0.5:
            i, j = rng.randrange(len(rows)), rng.randrange(len(SCHEMA))
            rows[i][j] = rng.choice(DOMAIN + (STAR,))
        other = Relation(SCHEMA, rows)
        cellwise = all(
            b == a or b is STAR
            for ra, rb in zip(r.rows, other.rows)
            for a, b in zip(ra, rb)
        )
        assert refines(r, other) == cellwise


class TestCheckAllErrors:
    def test_first_bad_constraint_is_named(self, r_initial, r2):
        unknown_target = parse_constraint_line('div: 0 <= count(ZIP="1")', k=3)
        unknown_star = parse_constraint_line('div: S("AGE") <= count(GEN="Male")', k=3)
        with pytest.raises(SchemaError) as exc:
            check_all(r_initial, r2, [ASIAN_RANGE, FAIR_FEMALE, unknown_star, unknown_target], k=3)
        assert str(exc.value) == 'constraint 3 (GEN="Male"): unknown attribute(s): AGE'

    def test_missing_input_is_reported_in_constraint_order(self, r2):
        unknown = parse_constraint_line('div: 0 <= count(ZIP="1")', k=3)
        with pytest.raises(ContractError, match="needs the input relation"):
            check_all(None, r2, [ASIAN_RANGE, FAIR_FEMALE, unknown], k=3)
        with pytest.raises(SchemaError, match="constraint 2"):
            check_all(None, r2, [ASIAN_RANGE, unknown, FAIR_FEMALE], k=3)

    def test_fairness_without_input_relation(self, r2):
        with pytest.raises(ContractError, match="needs the input relation"):
            check_fairness(None, r2, FAIR_FEMALE, k=3)


def test_check_all_counts_each_column_once(monkeypatch, r_initial, r2):
    calls = []
    real = anonkit.checking.count_stars

    def counting(rel, attribute):
        calls.append(attribute)
        return real(rel, attribute)

    monkeypatch.setattr(anonkit.checking, "count_stars", counting)
    constraints = [ASIAN_RANGE, FAIR_FEMALE] * 10
    reports = check_all(r_initial, r2, constraints, k=3)
    assert len(reports) == 20
    assert len(calls) <= len(r2.schema)
