"""Relation layer: construction, CSV round trips, counting, refinement."""

import pytest
from hypothesis import given, strategies as st

from anonkit import (
    STAR,
    ContractError,
    IngestError,
    Relation,
    SchemaError,
    TargetValue,
    count_stars,
    count_target,
    dump_relation,
    info_loss,
    is_k_anonymous,
    load_relation,
    refines,
)


class TestConstruction:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", "A"], [])

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            Relation(["A", ""], [])

    def test_ragged_row_rejected(self):
        with pytest.raises(ContractError):
            Relation(["A", "B"], [("x",)])

    def test_empty_relation_is_legal(self):
        r = Relation(["A"], [])
        assert r.n_rows == 0
        assert count_target(r, TargetValue.of(A="x")) == 0
        assert info_loss(r) == 0

    def test_unknown_column(self):
        r = Relation(["A"], [("x",)])
        with pytest.raises(SchemaError):
            r.column_index("B")


class TestTargetValue:
    def test_needs_a_pair(self):
        with pytest.raises(ContractError):
            TargetValue([])

    def test_repeated_attribute_rejected(self):
        with pytest.raises(ContractError):
            TargetValue([("A", "x"), ("A", "y")])

    def test_subset_relations(self):
        small = TargetValue.of(A="x")
        big = TargetValue.of(A="x", B="y")
        assert small.issubset(big)
        assert not big.issubset(small)
        assert big.issubset(big)

    def test_display_is_sorted(self):
        tv = TargetValue([("B", "y"), ("A", "x")])
        assert str(tv) == 'A="x", B="y"'


class TestCsv:
    def test_load_basic(self):
        r = load_relation("A,B\nx,*\n,y\n")
        assert r.schema == ("A", "B")
        assert r.rows[0] == ("x", STAR)
        assert r.rows[1] == ("", "y")

    def test_custom_star_token(self):
        r = load_relation("A\nNULL\n*\n", star_token="NULL")
        assert r.rows[0] == (STAR,)
        assert r.rows[1] == ("*",)

    def test_missing_header(self):
        with pytest.raises(IngestError):
            load_relation("")

    def test_duplicate_header(self):
        with pytest.raises(IngestError):
            load_relation("A,A\nx,y\n")

    def test_ragged_data_row(self):
        with pytest.raises(IngestError, match="row 1"):
            load_relation("A,B\nx,y\nz\n")

    def test_round_trip(self):
        text = 'A,B\nx,*\n"a,b",y\n'
        r = load_relation(text)
        assert load_relation(dump_relation(r)) == r

    def test_quoted_fields(self):
        r = load_relation('A\n"one, two"\n')
        assert r.rows[0] == ("one, two",)


class TestCounting:
    def test_star_never_matches(self):
        r = Relation(["A"], [("x",), (STAR,)])
        assert count_target(r, TargetValue.of(A="x")) == 1
        assert count_stars(r, "A") == 1

    def test_multi_attribute_target(self, r_initial):
        assert count_target(r_initial, TargetValue.of(GEN="Female", ETH="Asian")) == 3
        assert count_target(r_initial, TargetValue.of(GEN="Female")) == 4
        assert count_target(r_initial, TargetValue.of(ETH="Asian")) == 3

    def test_unknown_attribute(self, r_initial):
        with pytest.raises(SchemaError):
            count_target(r_initial, TargetValue.of(ZIP="123"))

    def test_value_counts_plus_stars_cover_column(self, r1):
        # per attribute: counts of each concrete value + stars = row count
        for attr in r1.schema:
            idx = r1.column_index(attr)
            concrete = {row[idx] for row in r1.rows if row[idx] is not STAR}
            total = sum(count_target(r1, TargetValue.of(**{attr: v})) for v in concrete)
            assert total + count_stars(r1, attr) == r1.n_rows


class TestRefines:
    def test_fixture_refinements(self, r_initial, r1, r2):
        assert refines(r_initial, r1)
        assert refines(r_initial, r2)
        assert not refines(r1, r_initial)  # un-starring is not refinement

    def test_value_rewrite_is_not_refinement(self):
        a = Relation(["A"], [("x",)])
        b = Relation(["A"], [("y",)])
        assert not refines(a, b)

    def test_schema_mismatch(self):
        a = Relation(["A"], [("x",)])
        b = Relation(["B"], [("x",)])
        assert not refines(a, b)

    def test_row_count_mismatch(self):
        a = Relation(["A"], [("x",)])
        b = Relation(["A"], [("x",), ("x",)])
        assert not refines(a, b)


@st.composite
def relation_and_masks(draw):
    n_cols = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 6))
    values = st.sampled_from(["u", "v", "w"])
    rows = [tuple(draw(values) for _ in range(n_cols)) for _ in range(n_rows)]
    schema = [f"A{i}" for i in range(n_cols)]
    mask1 = [[draw(st.booleans()) for _ in range(n_cols)] for _ in range(n_rows)]
    mask2 = [[draw(st.booleans()) for _ in range(n_cols)] for _ in range(n_rows)]
    return Relation(schema, rows), mask1, mask2


def _apply_mask(r: Relation, mask):
    rows = [
        tuple(STAR if mask[i][j] else cell for j, cell in enumerate(row))
        for i, row in enumerate(r.rows)
    ]
    return Relation(r.schema, rows)


@given(relation_and_masks())
def test_refines_transitive_and_loss_monotone(data):
    r, mask1, mask2 = data
    # second mask applied on top of the first only ever adds stars
    rp = _apply_mask(r, mask1)
    combined = [
        [mask1[i][j] or mask2[i][j] for j in range(len(r.schema))]
        for i in range(r.n_rows)
    ]
    rq = _apply_mask(r, combined)
    assert refines(r, rp)
    assert refines(rp, rq)
    assert refines(r, rq)
    assert info_loss(rp) <= info_loss(rq)


class TestKAnonymity:
    def test_k1_always_holds(self, r1):
        assert is_k_anonymous(r1, ["GEN", "ETH"], 1)

    def test_identical_projections(self):
        r = Relation(["A", "B"], [("x", "p"), ("x", "q"), ("x", "r")])
        assert is_k_anonymous(r, ["A"], 3)
        assert not is_k_anonymous(r, ["A"], 4)

    def test_star_is_an_ordinary_symbol(self):
        # [a,*],[a,*],[a,b]: the [a,b] projection is alone
        r = Relation(["A", "B"], [("a", STAR), ("a", STAR), ("a", "b")])
        assert not is_k_anonymous(r, ["A", "B"], 2)
        assert is_k_anonymous(r, ["A"], 2)

    def test_antitone_in_k(self, r2):
        assert is_k_anonymous(r2, ["GEN", "ETH"], 3)
        assert is_k_anonymous(r2, ["GEN", "ETH"], 2)
        assert is_k_anonymous(r2, ["GEN", "ETH"], 1)

    def test_empty_qi_rejected(self, r2):
        with pytest.raises(SchemaError):
            is_k_anonymous(r2, [], 2)

    def test_bad_k(self, r2):
        with pytest.raises(ContractError):
            is_k_anonymous(r2, ["GEN"], 0)


def test_info_loss_counts_all_stars(r1, r2):
    assert info_loss(r1) == 9
    assert info_loss(r2) == 6
    assert info_loss(Relation(["A", "B"], [(STAR, "a"), ("b", STAR)])) == 2


def test_fixtures_match_documented_counts(r_initial, r1, r2):
    assert r_initial.n_rows == 9
    assert count_target(r_initial, TargetValue.of(GEN="Female")) == 4
    assert count_target(r_initial, TargetValue.of(ETH="Asian")) == 3
    assert count_stars(r1, "GEN") == 6
    assert count_stars(r2, "GEN") == 6
    assert count_target(r2, TargetValue.of(ETH="Asian")) == 3
    assert count_target(r2, TargetValue.of(GEN="Female")) == 3
    assert count_target(r1, TargetValue.of(ETH="Asian")) == 0
    assert count_target(r1, TargetValue.of(GEN="Female")) == 0
