"""Implication, satisfiability and minimal cover over fixed-bound constraints."""

import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

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
    implies,
    is_satisfiable,
    minimal_cover,
    parse_constraint_line,
    range_for_target,
    to_fixed,
    to_fixed_all,
)

from oracles import (
    ATTRS,
    VALUES,
    random_sigma,
    random_target,
    satisfies,
    scan_is_satisfiable,
    scan_minimal_cover,
    scan_range_for_target,
)


def fc(lo, hi, **pairs):
    return FixedConstraint(TargetValue.of(**pairs), FrequencyRange(lo, hi))


# One city-level constraint, one three-attribute constraint, and a query
# in between; the derived range for the query's target is [4, 10].
CITY = fc(2, 10, CTY="Calgary")
TRIPLE = fc(4, 7, GEN="Female", ETH="Caucasian", CTY="Calgary")
QUERY = fc(5, 8, ETH="Caucasian", CTY="Calgary")


class TestRangeForTarget:
    def test_two_sided_derivation(self):
        delta, trace = range_for_target([CITY, TRIPLE], QUERY.target)
        assert delta == FrequencyRange(4, 10)
        assert [step.axiom for step in trace] == [
            Axiom.ATTRIBUTE_EXTENSION,
            Axiom.ATTRIBUTE_REDUCTION,
            Axiom.RANGE_INTERSECTION,
        ]
        assert trace[0].source is CITY
        assert trace[0].contributed == FrequencyRange(0, 10)
        assert trace[1].contributed == FrequencyRange(4, None)
        assert trace[2].source is None
        assert trace[2].contributed == delta

    def test_empty_set_derives_the_universal_range(self):
        delta, trace = range_for_target([], QUERY.target)
        assert delta == UNIVERSAL_RANGE
        assert len(trace) == 1
        assert trace[0].axiom is Axiom.RANGE_INTERSECTION

    def test_unrelated_targets_contribute_nothing(self):
        other = fc(7, 9, ZIP="123")
        delta, trace = range_for_target([other], QUERY.target)
        assert delta == UNIVERSAL_RANGE
        assert len(trace) == 1

    def test_adding_constraints_never_widens(self):
        for seed in range(150):
            rng = random.Random(seed)
            sigma = random_sigma(rng)
            tv = random_target(rng)
            before, _ = range_for_target(sigma, tv)
            extra = sigma + random_sigma(rng, max_len=2)
            after, _ = range_for_target(extra, tv)
            assert after.issubset(before)


class TestImplies:
    def test_derived_range_wider_than_query_is_not_implied(self):
        outcome = implies([CITY, TRIPLE], QUERY)
        assert outcome.derived_range == FrequencyRange(4, 10)
        assert not outcome.implied

    def test_the_gap_is_semantic_not_an_artifact(self):
        # four identical rows meet both set members yet break the query,
        # so the negative verdict above is the correct one
        rows = [("Female", "Caucasian", "Calgary")] * 4
        r = Relation(("GEN", "ETH", "CTY"), rows)
        assert satisfies(r, [CITY, TRIPLE])
        assert not satisfies(r, [QUERY])

    def test_member_is_implied(self):
        for member in (CITY, TRIPLE):
            assert implies([CITY, TRIPLE], member).implied

    def test_wider_query_on_same_target_is_implied(self):
        base = fc(3, 6, A="a")
        assert implies([base], fc(2, 8, A="a")).implied
        assert not implies([base], fc(4, 5, A="a")).implied

    def test_nothing_implies_a_proper_bound(self):
        assert not implies([], fc(1, 5, A="a")).implied
        assert implies([], fc(0, None, A="a")).implied


class TestSatisfiability:
    def test_conflicting_pair_is_unsatisfiable(self):
        sigma = [fc(6, 8, ETH="Caucasian", CTY="Calgary"), fc(1, 5, CTY="Calgary")]
        verdict = is_satisfiable(sigma)
        assert isinstance(verdict, Unsatisfiable)
        assert not verdict
        phi = verdict.false_constraint
        assert phi.target == TargetValue.of(CTY="Calgary")
        assert (phi.bounds.lo, phi.bounds.hi) == (6, 5)
        assert phi.bounds.is_empty

    def test_compatible_pair_with_witness(self):
        sigma = [fc(3, 6, A="a"), fc(3, 6, A="b")]
        verdict = is_satisfiable(sigma)
        assert isinstance(verdict, Satisfiable)
        assert verdict
        assert verdict.witness_counts == {
            TargetValue.of(A="a"): 3,
            TargetValue.of(A="b"): 3,
        }

    def test_empty_set_is_satisfiable(self):
        verdict = is_satisfiable([])
        assert isinstance(verdict, Satisfiable)
        assert verdict.witness_counts == {}

    def test_witness_counts_are_in_range_and_monotone(self):
        checked = 0
        for seed in range(300):
            rng = random.Random(seed)
            sigma = random_sigma(rng)
            verdict = is_satisfiable(sigma)
            if isinstance(verdict, Unsatisfiable):
                continue
            checked += 1
            for tv, count in verdict.witness_counts.items():
                delta, _ = range_for_target(sigma, tv)
                assert delta.contains(count)
            for small, n_small in verdict.witness_counts.items():
                for big, n_big in verdict.witness_counts.items():
                    if small.entries < big.entries:
                        # the more specific target can only match fewer rows
                        assert n_small >= n_big
        assert checked > 100

    def test_unsat_reports_the_least_specific_conflict(self):
        # both ends of the conflict occur in the set; the single-attribute
        # target is the one reported
        sigma = [
            fc(0, 2, A="a"),
            fc(6, 9, A="a", B="b"),
        ]
        verdict = is_satisfiable(sigma)
        assert isinstance(verdict, Unsatisfiable)
        assert verdict.false_constraint.target == TargetValue.of(A="a")


class TestMinimalCover:
    def test_mutually_independent_set_survives(self):
        sigma = [CITY, TRIPLE, QUERY]
        assert minimal_cover(sigma) == sigma

    def test_redundant_wider_constraint_is_dropped(self):
        tight = fc(3, 6, A="a")
        loose = fc(2, 8, A="a")
        assert minimal_cover([tight, loose]) == [tight]
        assert minimal_cover([loose, tight]) == [tight]

    def test_duplicates_collapse(self):
        c = fc(3, 6, A="a")
        assert minimal_cover([c, c]) == [c]

    def test_unsatisfiable_set_is_rejected(self):
        sigma = [fc(6, 8, A="a", B="b"), fc(1, 5, B="b")]
        with pytest.raises(InferenceError):
            minimal_cover(sigma)

    def test_cover_is_equivalent_and_irredundant(self):
        for seed in range(120):
            rng = random.Random(10_000 + seed)
            sigma = random_sigma(rng)
            if isinstance(is_satisfiable(sigma), Unsatisfiable):
                continue
            cover = minimal_cover(sigma)
            for c in cover:
                assert c in sigma
            for c in sigma:
                assert implies(cover, c).implied
            for i, c in enumerate(cover):
                rest = cover[:i] + cover[i + 1 :]
                assert not implies(rest, c).implied


class TestToFixed:
    def test_fairness_is_outside_the_fragment(self):
        eta = parse_constraint_line('fair: C <= count(GEN="F")', k=1)
        with pytest.raises(InferenceError) as exc:
            to_fixed(eta)
        assert "inference fragment" in str(exc.value)

    def test_variable_bounds_are_outside_the_fragment(self):
        sigma = parse_constraint_line('div: ceil_k(0.3 * N) <= count(A="a")', k=3)
        with pytest.raises(InferenceError):
            to_fixed(sigma)

    def test_fractional_literals_tighten_inward(self):
        sigma = parse_constraint_line('div: 2.5 <= count(A="a") <= 7.5', k=1)
        fixed = to_fixed(sigma)
        assert fixed.bounds == FrequencyRange(3, 7)

    def test_low_positive_lower_bound_draws_no_warning(self):
        # The "below k" lint belongs to parse_constraints(text, k).
        sigma = parse_constraint_line('div: 2 <= count(A="a")', k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert to_fixed(sigma).bounds == FrequencyRange(2, None)

    def test_to_fixed_all_preserves_order(self):
        lines = 'div: 3 <= count(A="a")\ndiv: count(B="b") <= 9'
        constraints = [
            parse_constraint_line(line, k=3) for line in lines.splitlines()
        ]
        fixed = to_fixed_all(constraints)
        assert [f.target for f in fixed] == [c.target for c in constraints]
        assert fixed[1].bounds == FrequencyRange(0, 9)

    def test_display_form(self):
        assert str(fc(3, 6, A="a")) == '(A="a") in [3,6]'
        assert str(fc(0, None, A="a")) == '(A="a") in [0,+inf]'


# Differential tests: the target-indexed logic layer against the all-pairs
# scan in oracles.py, on sets of up to 60 constraints over 3 attributes x
# 3 values: only 63 targets exist, so sets repeat targets and nest them.

_targets = st.dictionaries(
    st.sampled_from(ATTRS), st.sampled_from(VALUES), min_size=1, max_size=3
).map(lambda pairs: TargetValue(pairs.items()))


# Sizes drawn first: st.lists alone rarely grows past a dozen members.
_target_lists = st.integers(1, 60).flatmap(
    lambda n: st.lists(_targets, min_size=n, max_size=n)
)


@st.composite
def _free_sets(draw):
    """Arbitrary ranges, empty ones included: mostly unsatisfiable."""

    def one(tv):
        lo = draw(st.integers(0, 12))
        hi = draw(st.none() | st.integers(max(0, lo - 2), lo + 12))
        return FixedConstraint(tv, FrequencyRange(lo, hi))

    return [one(tv) for tv in draw(_target_lists)]


@st.composite
def _hidden_sets(draw):
    """Ranges around the counts of a hidden relation: always satisfiable."""
    rows = draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * len(ATTRS)), max_size=30))
    sigma = []
    for tv in draw(_target_lists):
        count = sum(all(row[ATTRS.index(a)] == v for a, v in tv.entries) for row in rows)
        lo = max(0, count - draw(st.integers(0, 4)))
        hi = draw(st.none() | st.integers(count, count + 4))
        sigma.append(FixedConstraint(tv, FrequencyRange(lo, hi)))
    return sigma


_sets = st.one_of(_free_sets(), _hidden_sets())


def _same_trace(got, want):
    assert got == want
    # Each step names the very member of the set it came from.
    assert [step.source for step in got[1]] == [step.source for step in want[1]]
    assert all(a.source is b.source for a, b in zip(got[1], want[1]))


class TestAgainstScan:
    @settings(max_examples=80, deadline=None)
    @given(_sets, st.lists(_targets, max_size=5))
    def test_matches_the_scan(self, sigma, queries):
        for tv in [c.target for c in sigma] + queries:
            _same_trace(range_for_target(sigma, tv), scan_range_for_target(sigma, tv))

        verdict = is_satisfiable(sigma)
        assert type(verdict) is type(scan_is_satisfiable(sigma))
        assert verdict == scan_is_satisfiable(sigma)

        if not verdict:
            with pytest.raises(InferenceError):
                minimal_cover(sigma)
            return
        got, want = minimal_cover(sigma), scan_minimal_cover(sigma)
        assert got == want
        assert all(a is b for a, b in zip(got, want))

    @settings(max_examples=80, deadline=None)
    @given(_sets, st.lists(_targets, max_size=5))
    def test_untraced_derivation_keeps_the_range_and_no_steps(self, sigma, queries):
        for tv in [c.target for c in sigma] + queries:
            assert range_for_target(sigma, tv, trace=False) == (range_for_target(sigma, tv)[0], ())

    def test_seeded_sets(self):
        # 200 seeded sets with narrow ranges; the sample must hold both
        # verdicts and covers that drop members, or it checks too little.
        rng = random.Random(7)
        verdicts, shrunk = Counter(), 0
        for _ in range(200):
            sigma = [
                FixedConstraint(random_target(rng), FrequencyRange(lo, lo + rng.randint(0, 6)))
                for lo in (rng.randint(0, 6) for _ in range(rng.randint(1, 60)))
            ]
            got = is_satisfiable(sigma)
            assert got == scan_is_satisfiable(sigma)
            verdicts[type(got)] += 1
            if got:
                cover = minimal_cover(sigma)
                assert cover == scan_minimal_cover(sigma)
                shrunk += len(cover) < len(sigma)
        assert verdicts[Satisfiable] and verdicts[Unsatisfiable] and shrunk
