"""Frequency ranges, rounding to multiples of k, bound evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anonkit import (
    BinOp,
    Constraint,
    ConstraintKind,
    ContractError,
    EvalContext,
    EvalError,
    FrequencyRange,
    Literal,
    Round,
    RoundMode,
    StarCount,
    TargetValue,
    Var,
    VarKind,
    ceil_to_multiple,
    eval_bound,
    floor_to_multiple,
)

TV = TargetValue.of(A="x")


class TestFrequencyRange:
    def test_universal(self):
        r = FrequencyRange(0, None)
        assert not r.is_empty
        assert r.contains(0)
        assert r.contains(10**9)

    def test_empty_keeps_its_ends(self):
        r = FrequencyRange(6, 5)
        assert r.is_empty
        assert (r.lo, r.hi) == (6, 5)
        assert str(r) == "[6,5]"

    def test_issubset(self):
        assert FrequencyRange(4, 6).issubset(FrequencyRange(2, 10))
        assert not FrequencyRange(4, None).issubset(FrequencyRange(2, 10))
        assert FrequencyRange(4, None).issubset(FrequencyRange(2, None))
        # empty inside everything, nothing non-empty inside empty
        assert FrequencyRange(6, 5).issubset(FrequencyRange(9, 2))
        assert not FrequencyRange(3, 3).issubset(FrequencyRange(6, 5))

    def test_negative_lo_rejected(self):
        with pytest.raises(ContractError):
            FrequencyRange(-1, 5)


class TestRounding:
    def test_documented_values(self):
        assert ceil_to_multiple(Fraction("0.9"), 3) == 3
        assert ceil_to_multiple(Fraction("4.9"), 3) == 6
        assert ceil_to_multiple(6, 3) == 6
        assert ceil_to_multiple(Fraction("-3.3"), 3) == 0
        assert floor_to_multiple(7, 3) == 6
        assert floor_to_multiple(6, 3) == 6
        assert floor_to_multiple(Fraction("0.5"), 3) == 0

    def test_bad_k(self):
        with pytest.raises(ContractError):
            ceil_to_multiple(1, 0)

    @given(
        st.fractions(min_value=-20, max_value=50, max_denominator=40),
        st.integers(1, 7),
    )
    def test_results_are_multiples_and_close(self, x, k):
        up = ceil_to_multiple(x, k)
        down = floor_to_multiple(x, k)
        assert up % k == 0 and down % k == 0
        assert up >= 0 and down >= 0
        assert up >= x
        if x >= 0:
            assert up - x < k
            assert x - down < k
            assert down <= x

    @given(
        st.fractions(min_value=0, max_value=30, max_denominator=20),
        st.fractions(min_value=0, max_value=30, max_denominator=20),
        st.integers(1, 5),
    )
    def test_monotone(self, x, y, k):
        lo, hi = sorted((x, y))
        assert ceil_to_multiple(lo, k) <= ceil_to_multiple(hi, k)
        assert floor_to_multiple(lo, k) <= floor_to_multiple(hi, k)


def fairness_lower() -> Round:
    # ceil_k((C / R0) * (N - S("GEN")))
    return Round(
        RoundMode.UP,
        BinOp(
            "*",
            BinOp("/", Var(VarKind.INITIAL_TARGET_COUNT), Var(VarKind.INITIAL_SIZE)),
            BinOp("-", Var(VarKind.OUTPUT_SIZE), StarCount("GEN")),
        ),
    )


class TestEvalBound:
    def test_fairness_bound(self):
        ctx = EvalContext(
            k=3, output_size=9, star_counts={"GEN": 6},
            initial_target_count=4, initial_size=9,
        )
        assert eval_bound(fairness_lower(), ctx, "lower") == 3

    def test_fractional_coefficient(self):
        # ceil_k(0.3 * (N - S("GEN"))) at N=9, S=6 -> ceil_3(0.9) = 3
        e = Round(
            RoundMode.UP,
            BinOp(
                "*",
                Literal(Fraction("0.3")),
                BinOp("-", Var(VarKind.OUTPUT_SIZE), StarCount("GEN")),
            ),
        )
        ctx = EvalContext(k=3, output_size=9, star_counts={"GEN": 6})
        assert eval_bound(e, ctx, "lower") == 3

    def test_literal_passthrough(self):
        ctx = EvalContext(k=2, output_size=0, star_counts={})
        assert eval_bound(Literal(6), ctx, "lower") == 6
        assert eval_bound(Literal(6), ctx, "upper") == 6

    def test_unrounded_position_rounding(self):
        ctx = EvalContext(k=3, output_size=7, star_counts={})
        half_n = BinOp("/", Var(VarKind.OUTPUT_SIZE), Literal(2))
        assert eval_bound(half_n, ctx, "lower") == 4  # 3.5 rounds up
        assert eval_bound(half_n, ctx, "upper") == 3  # 3.5 rounds down

    def test_negative_clamps_to_zero(self):
        ctx = EvalContext(k=2, output_size=1, star_counts={})
        e = BinOp("-", Var(VarKind.OUTPUT_SIZE), Literal(5))
        assert eval_bound(e, ctx, "lower") == 0
        assert eval_bound(e, ctx, "upper") == 0

    def test_missing_initial_stats(self):
        ctx = EvalContext(k=1, output_size=3, star_counts={})
        with pytest.raises(EvalError):
            eval_bound(Var(VarKind.INITIAL_SIZE), ctx, "lower")
        with pytest.raises(EvalError):
            eval_bound(Var(VarKind.INITIAL_TARGET_COUNT), ctx, "upper")

    def test_unknown_star_attribute(self):
        ctx = EvalContext(k=1, output_size=3, star_counts={"A": 0})
        with pytest.raises(EvalError):
            eval_bound(StarCount("B"), ctx, "lower")

    def test_runtime_division_by_zero(self):
        ctx = EvalContext(k=1, output_size=0, star_counts={})
        e = BinOp("/", Literal(1), Var(VarKind.OUTPUT_SIZE))
        with pytest.raises(EvalError):
            eval_bound(e, ctx, "lower")

    def test_bad_position(self):
        ctx = EvalContext(k=1, output_size=0, star_counts={})
        with pytest.raises(ContractError):
            eval_bound(Literal(1), ctx, "middle")

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 5))
    def test_round_node_yields_multiple_of_k(self, n, s, k):
        ctx = EvalContext(k=k, output_size=n, star_counts={"X": s})
        e = Round(RoundMode.UP, BinOp("-", Var(VarKind.OUTPUT_SIZE), StarCount("X")))
        assert eval_bound(e, ctx, "lower") % k == 0
        e2 = Round(RoundMode.DOWN, BinOp("-", Var(VarKind.OUTPUT_SIZE), StarCount("X")))
        assert eval_bound(e2, ctx, "upper") % k == 0


class TestConstraintValidation:
    def test_needs_a_bound(self):
        with pytest.raises(ContractError):
            Constraint(ConstraintKind.DIVERSITY, TV)

    def test_diversity_cannot_read_input_stats(self):
        for kind in (VarKind.INITIAL_SIZE, VarKind.INITIAL_TARGET_COUNT):
            with pytest.raises(ContractError):
                Constraint(ConstraintKind.DIVERSITY, TV, lower=Var(kind))
        # fairness may
        Constraint(ConstraintKind.FAIRNESS, TV, lower=Var(VarKind.INITIAL_SIZE))

    def test_rounding_must_be_outermost(self):
        inner = Round(RoundMode.UP, Literal(1))
        with pytest.raises(ContractError):
            Constraint(
                ConstraintKind.DIVERSITY, TV, lower=BinOp("+", inner, Literal(1))
            )
        Constraint(ConstraintKind.DIVERSITY, TV, lower=Round(RoundMode.UP, Literal(1)))

    def test_division_by_literal_zero(self):
        with pytest.raises(ContractError):
            BinOp("/", Literal(1), Literal(0))

    def test_fixed_bound_classification(self):
        c = Constraint(ConstraintKind.DIVERSITY, TV, lower=Literal(3), upper=Literal(6))
        assert c.is_fixed_bound
        assert c.fixed_bounds() == (3, 6)
        c2 = Constraint(ConstraintKind.DIVERSITY, TV, lower=Literal(3))
        assert c2.is_fixed_bound
        assert c2.fixed_bounds() == (3, None)
        c3 = Constraint(ConstraintKind.DIVERSITY, TV, upper=Var(VarKind.OUTPUT_SIZE))
        assert not c3.is_fixed_bound
        with pytest.raises(ContractError):
            c3.fixed_bounds()

    def test_fractional_fixed_bounds_round_inward(self):
        c = Constraint(
            ConstraintKind.DIVERSITY,
            TV,
            lower=Literal(Fraction("2.5")),
            upper=Literal(Fraction("7.5")),
        )
        assert c.fixed_bounds() == (3, 7)

    def test_literals_are_non_negative_fractions(self):
        for bad in (-1, Fraction(-1, 2), Fraction(1, -3)):
            with pytest.raises(ContractError):
                Literal(bad)
        for good in (0, 7, Fraction(1, 2)):
            assert Literal(good).value == good
            assert type(Literal(good).value) is Fraction
