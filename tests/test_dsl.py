"""Constraint language: parsing, error positions, printing, round trips."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anonkit import (
    AnonError,
    BinOp,
    Constraint,
    ConstraintKind,
    LintWarning,
    Literal,
    ParseError,
    Round,
    RoundMode,
    SemanticError,
    StarCount,
    TargetValue,
    Var,
    VarKind,
    format_constraint,
    parse_constraint_line,
    parse_constraints,
)
from anonkit.dsl import MAX_NESTING

from oracles import reference_parse_file, reference_parse_line


class TestParsing:
    def test_fixed_bound_line(self):
        c = parse_constraint_line('div: 3 <= count(ETH="Asian") <= 6')
        assert c.kind is ConstraintKind.DIVERSITY
        assert c.target == TargetValue.of(ETH="Asian")
        assert c.lower == Literal(3)
        assert c.upper == Literal(6)

    def test_missing_upper_bound(self):
        c = parse_constraint_line('div: 3 <= count(ETH="Asian")')
        assert c.upper is None

    def test_missing_lower_bound(self):
        c = parse_constraint_line('div: count(ETH="Asian") <= 6')
        assert c.lower is None
        assert c.upper == Literal(6)

    def test_fairness_with_variables(self):
        c = parse_constraint_line('fair: ceil_k((C/R0)*(N - S("GEN"))) <= count(GEN="Female")')
        assert c.kind is ConstraintKind.FAIRNESS
        assert isinstance(c.lower, Round)
        assert c.lower.mode is RoundMode.UP
        mul = c.lower.inner
        assert isinstance(mul, BinOp) and mul.op == "*"
        assert mul.left == BinOp("/", Var(VarKind.INITIAL_TARGET_COUNT), Var(VarKind.INITIAL_SIZE))
        assert mul.right == BinOp("-", Var(VarKind.OUTPUT_SIZE), StarCount("GEN"))

    def test_multi_attribute_target(self):
        c = parse_constraint_line('div: 3 <= count(GEN="Female", ETH="Asian")')
        assert c.target == TargetValue.of(GEN="Female", ETH="Asian")

    def test_decimals_parse_exactly(self):
        c = parse_constraint_line('div: ceil_k(0.3 * N) <= count(A="x")')
        assert c.lower.inner.left == Literal(Fraction(3, 10))

    def test_file_with_comments_and_blanks(self):
        text = """
        # leading comment
        div: 3 <= count(ETH="Asian") <= 6

        fair: 0 <= count(GEN="Female")   # trailing comment
        """
        cs = parse_constraints(text)
        assert len(cs) == 2
        assert cs[1].kind is ConstraintKind.FAIRNESS

    def test_whitespace_insensitive(self):
        a = parse_constraint_line('div:3<=count(ETH="Asian")<=6')
        b = parse_constraint_line('div:  3  <=  count( ETH = "Asian" )  <=  6')
        assert a == b

    def test_escaped_quotes_in_value(self):
        c = parse_constraint_line('div: 1 <= count(A="say \\"hi\\"")')
        (pair,) = c.target.sorted_entries()
        assert pair == ("A", 'say "hi"')


class TestParseErrors:
    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_constraint_line('bound: 3 <= count(A="x")')

    def test_position_is_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_constraints('div: 3 <= count(ETH="Asian") <= 6\ndiv: 3 <= count(ETH=Asian)')
        assert exc.value.line == 2
        assert exc.value.column == 21

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_constraint_line('div: 3 <= count(A="x") <= 6 7')

    def test_unterminated_parenthesis(self):
        with pytest.raises(ParseError):
            parse_constraint_line('div: 3 <= count(A="x"')

    def test_rounding_inside_arithmetic(self):
        with pytest.raises(ParseError):
            parse_constraint_line('div: 1 + ceil_k(N) <= count(A="x")')

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_constraint_line('div: 3 <= count(A="x") <= $')


class TestSemanticErrors:
    def test_input_stats_in_diversity(self):
        for var in ("C", "R0"):
            with pytest.raises(SemanticError):
                parse_constraint_line(f'div: {var} <= count(A="x")')
        # same expressions are fine on a fairness line
        parse_constraint_line('fair: C <= count(A="x")')
        parse_constraint_line('fair: R0 <= count(A="x")')

    def test_duplicate_target_attribute(self):
        with pytest.raises(SemanticError) as exc:
            parse_constraint_line('div: 3 <= count(A="x", A="y")')
        assert exc.value.column is not None

    def test_no_bounds_at_all(self):
        with pytest.raises(SemanticError):
            parse_constraint_line('div: count(A="x")')

    def test_literal_zero_division(self):
        with pytest.raises(SemanticError):
            parse_constraint_line('div: N / 0 <= count(A="x")')
        with pytest.raises(SemanticError):
            parse_constraint_line('div: N / (0) <= count(A="x")')


# (how, text, error type, message, line, column). The CLI prints these
# messages and positions, so each one is pinned exactly. "line" parses
# with parse_constraint_line, "file" with parse_constraints.
PINNED_ERRORS = [
    ("line", 'div: 3 <= count(A="x") <= $', ParseError, "line 1, col 27: unexpected character '$'", 1, 27),
    ("line", 'div: 3 <= count(A="x") ~ 4', ParseError, "line 1, col 24: unexpected character '~'", 1, 24),
    ("line", 'div: 3 <= count(A="café") <= é', ParseError, "line 1, col 30: unexpected character 'é'", 1, 30),
    ("line", 'div: 1. <= count(A="x")', ParseError, "line 1, col 7: unexpected character '.'", 1, 7),
    ("line", 'div: 3 <= count(A="x)', ParseError, "line 1, col 19: unexpected character '\"'", 1, 19),
    ("line", 'div: 3 <= count(A="x\\"', ParseError, "line 1, col 19: unexpected character '\"'", 1, 19),
    ("line", 'div: 3 <= count(A="x"', ParseError, "line 1, col 22: unexpected end of line", 1, 22),
    ("line", 'div: 3 <= count(A="x"   # comment', ParseError, "line 1, col 22: unexpected end of line", 1, 22),
    ("line", "div:", ParseError, "line 1, col 5: unexpected end of line", 1, 5),
    ("line", "div: 3 <=", ParseError, "line 1, col 10: unexpected end of line", 1, 10),
    ("line", 'div: 3 <= count(A="x") <= 6 7', ParseError, "line 1, col 29: trailing input: '7'", 1, 29),
    ("line", 'div: 3 <= count(A="x") <= 6 )', ParseError, "line 1, col 29: trailing input: ')'", 1, 29),
    ("line", 'div: 3 <= cnt(A="x")', ParseError, "line 1, col 11: expected 'count', got 'cnt'", 1, 11),
    ("line", 'div: 3 <= 4 <= count(A="x")', ParseError, "line 1, col 11: expected 'count', got '4'", 1, 11),
    ("line", 'div: 1 + ceil_k(N) <= count(A="x")', ParseError, "line 1, col 10: ceil_k only applies to a whole bound", 1, 10),
    ("line", 'div: ceil_k(floor_k(N)) <= count(A="x")', ParseError, "line 1, col 13: floor_k only applies to a whole bound", 1, 13),
    ("line", 'div: N / 0 <= count(A="x")', SemanticError, "line 1, col 8: division by zero", 1, 8),
    ("line", 'div: N / (0) <= count(A="x")', SemanticError, "line 1, col 8: division by zero", 1, 8),
    ("line", 'div: N / 0.0 <= count(A="x")', SemanticError, "line 1, col 8: division by zero", 1, 8),
    ("line", 'div: 3 <= count(A="x", A="y")', SemanticError, "line 1, col 24: attribute 'A' repeated in target", 1, 24),
    ("line", 'div: 3 <= count(A="x", B="y", A="x")', SemanticError, "line 1, col 31: attribute 'A' repeated in target", 1, 31),
    ("line", 'div: C <= count(A="x")', SemanticError, "line 1, col 6: C reads the input relation; only fairness constraints may", 1, 6),
    ("line", 'div: ceil_k(N * R0) <= count(A="x")', SemanticError, "line 1, col 17: R0 reads the input relation; only fairness constraints may", 1, 17),
    ("line", 'div: count(A="x")', SemanticError, "line 1, col 1: constraint needs at least one bound", 1, 1),
    ("line", 'bound: 3 <= count(A="x")', ParseError, "line 1, col 1: expected 'div' or 'fair', got 'bound'", 1, 1),
    ("line", '3 <= count(A="x")', ParseError, "line 1, col 1: expected 'div' or 'fair', got '3'", 1, 1),
    ("line", 'div 3 <= count(A="x")', ParseError, "line 1, col 5: expected ':', got '3'", 1, 5),
    ("line", 'div: 3x <= count(A="x")', ParseError, "line 1, col 7: expected '<=', got 'x'", 1, 7),
    ("line", 'div: 3 <= count("x")', ParseError, "line 1, col 17: expected attribute name, got '\"x\"'", 1, 17),
    ("line", 'div: 3 <= count(A=x)', ParseError, "line 1, col 19: expected quoted value, got 'x'", 1, 19),
    ("line", 'div: 3 <= count(A="x" B="y")', ParseError, "line 1, col 23: expected ')', got 'B'", 1, 23),
    ("line", 'div: S(GEN) <= count(A="x")', ParseError, "line 1, col 8: expected quoted attribute, got 'GEN'", 1, 8),
    ("line", 'div: 3 <= count(A="x") <= ,', ParseError, "line 1, col 27: expected a value, got ','", 1, 27),
    ("line", "   # only a comment", ParseError, "line 1, col 1: expected a constraint", 1, 1),
    ("line", "", ParseError, "line 1, col 1: expected a constraint", 1, 1),
    ("file", 'div: 3 <= count(A="x") <= 6\n\n  # c\n\tdiv: 3 <= count(A="x") <= $', ParseError, "line 4, col 28: unexpected character '$'", 4, 28),
    ("file", 'div: 3 <= count(A="x")\u00a0<= 6\ndiv: 3 <= count(A="x") ~', ParseError, "line 2, col 24: unexpected character '~'", 2, 24),
    ("file", 'div: 3 <= count(ETH="Asian") <= 6\ndiv: 3 <= count(ETH=Asian)', ParseError, "line 2, col 21: expected quoted value, got 'Asian'", 2, 21),
    ("file", '# head\n   \nfair: C <= count(A="x")\ndiv: R0 <= count(A="x")', SemanticError, "line 4, col 6: R0 reads the input relation; only fairness constraints may", 4, 6),
]  # fmt: skip


@pytest.mark.parametrize("how, text, error, message, line, column", PINNED_ERRORS)
def test_pinned_error(how, text, error, message, line, column):
    parse = parse_constraint_line if how == "line" else parse_constraints
    with pytest.raises((ParseError, SemanticError)) as exc:
        parse(text)
    assert (type(exc.value), str(exc.value), exc.value.line, exc.value.column) == (
        error,
        message,
        line,
        column,
    )


def test_line_number_is_passed_through():
    with pytest.raises(ParseError) as exc:
        parse_constraint_line('div: 3 <= count(A="x") <= $', line_no=7)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        "line 7, col 27: unexpected character '$'",
        7,
        27,
    )


class TestNestingLimit:
    """Bounds nest at most MAX_NESTING deep, in parentheses and in operators."""

    def error(self, bound, line_no=1):
        with pytest.raises(ParseError) as exc:
            parse_constraint_line(f'div: count(A="x") <= {bound}', line_no=line_no)
        return str(exc.value), exc.value.line, exc.value.column

    def test_parentheses(self):
        assert MAX_NESTING == 100
        bound = "(" * 101 + "6" + ")" * 101
        # count(...) <= starts the bound in column 22; the 101st '(' is in 122.
        assert self.error(bound, 4) == (
            "line 4, col 122: bound nested more than 100 levels deep", 4, 122
        )
        parsed = parse_constraint_line(f'div: count(A="x") <= {bound[1:-1]}')
        assert parsed.upper == Literal(6)

    def test_operator_chain(self):
        chain = "*".join(["1"] * 100 + ["6"])
        node = parse_constraint_line(f'div: count(A="x") <= {chain}').upper
        depth = 0
        while isinstance(node, BinOp):
            node, depth = node.left, depth + 1
        assert depth == 100
        assert self.error(chain + "*1") == (
            "line 1, col 223: bound nested more than 100 levels deep", 1, 223
        )

    def test_only_open_parentheses_count(self):
        # 101 parenthesised terms side by side: 100 operators, one level of parentheses.
        bound = "+".join(["(1)"] * 101)
        assert isinstance(parse_constraint_line(f'div: {bound} <= count(A="x") <= {bound}').upper, BinOp)

    def test_depth_adds_up_across_parentheses(self):
        # 50 levels of (1 + (...)) hold 50 operators in 50 parentheses.
        bound = "(1 + " * 50 + "6" + ")" * 50
        assert parse_constraint_line(f'div: count(A="x") <= {bound}').upper is not None
        with pytest.raises(ParseError, match="nested more than 100"):
            parse_constraint_line(f'div: count(A="x") <= {bound} + ' + "+".join(["1"] * 51))

    def test_stray_character_is_still_reported_first(self):
        assert self.error("(" * 2000 + "6" + ")" * 2000 + " $")[0].endswith(
            "unexpected character '$'"
        )


class TestLayoutParsesAsBefore:
    def test_blank_and_whitespace_only_lines_are_skipped(self):
        text = ' \t \n\ndiv: 3 <= count(A="x")\n\u00a0\n   \r\ndiv: 6 <= count(B="y")\n\t'
        assert [format_constraint(c) for c in parse_constraints(text)] == [
            'div: 3 <= count(A="x")',
            'div: 6 <= count(B="y")',
        ]

    def test_trailing_comments(self):
        plain = parse_constraints('div: 3 <= count(A="x") <= 6\nfair: C <= count(B="y")')
        commented = parse_constraints(
            'div: 3 <= count(A="x") <= 6# tight\n'
            'fair: C <= count(B="y")   # "quoted" (parens) <= 7 $\n'
            "# whole-line comment"
        )
        assert commented == plain

    def test_hash_inside_a_value_is_not_a_comment(self):
        c = parse_constraint_line('div: 3 <= count(A="x # y") # z')
        assert c.target == TargetValue.of(A="x # y")

    def test_escapes_in_values(self):
        c = parse_constraint_line('div: 1 <= count(A="a\\"b", B="c\\\\", C="d\\\\\\"e")')
        assert dict(c.target.sorted_entries()) == {"A": 'a"b', "B": "c\\", "C": 'd\\"e'}

    def test_literals_keep_their_exact_values(self):
        c = parse_constraint_line('div: 007 <= count(A="x") <= 12.50')
        assert c.lower == Literal(Fraction(7)) and c.upper == Literal(Fraction(25, 2))
        assert isinstance(c.lower.value, Fraction) and isinstance(c.upper.value, Fraction)


class TestLints:
    def test_bound_off_the_k_grid_warns(self):
        with pytest.warns(LintWarning, match="multiple of k"):
            parse_constraints('div: 4 <= count(A="x")', k=3)

    def test_lower_bound_below_k_warns(self):
        # a positive bound below k is never on the k-grid either, so the
        # same line draws both lints
        with pytest.warns(LintWarning) as record:
            parse_constraints('div: 2 <= count(A="x") <= 6', k=3)
        messages = [str(w.message) for w in record]
        assert any("below k" in m for m in messages)
        assert any("multiple of k" in m for m in messages)

    def test_fractional_bounds_are_linted_exactly(self):
        # 4.5 = 9/2: its numerator is a multiple of 3, the value is not.
        with pytest.warns(LintWarning, match="upper bound 4.5 is not a multiple of k=3"):
            parse_constraints('div: count(A="x") <= 4.5', k=3)
        # 2.5 is below 3 although its numerator 5 is not.
        with pytest.warns(LintWarning) as record:
            parse_constraints('div: 2.5 <= count(A="x")', k=3)
        messages = [str(w.message) for w in record]
        assert "line 1: lower bound 2.5 is not a multiple of k=3" in messages
        assert "line 1: lower bound 2.5 is below k=3; revealed counts are 0 or at least k" in messages
        with pytest.warns(LintWarning, match="lower bound 0.5 is below k=1"):
            parse_constraints('div: 0.5 <= count(A="x")')

    def test_multiples_are_quiet(self, recwarn):
        parse_constraints('div: 3 <= count(A="x") <= 6', k=3)
        assert not [w for w in recwarn.list if issubclass(w.category, LintWarning)]


def _lints(parse):
    """Run parse; return its result and each lint as (message, file, line)."""
    with pytest.warns(LintWarning) as record:
        result = parse()
    return result, [(str(w.message), w.filename, w.lineno) for w in record]


class TestParseMemo:
    """parse_constraints memoises on (text, k) and behaves as if it did not."""

    @pytest.mark.parametrize(
        "text,k,expected",
        [
            (
                '# off the grid\ndiv: 2 <= count(A="x") <= 7\ndiv: count(B="y") <= 5\n',
                3,
                [
                    "line 2: lower bound 2 is not a multiple of k=3",
                    "line 2: lower bound 2 is below k=3; revealed counts are 0 or at least k",
                    "line 2: upper bound 7 is not a multiple of k=3",
                    "line 3: upper bound 5 is not a multiple of k=3",
                ],
            ),
            (
                '# fractional\ndiv: 0.5 <= count(A="x")\ndiv: 0.25 <= count(B="y") <= 3\n',
                1,
                [
                    "line 2: lower bound 0.5 is below k=1; revealed counts are 0 or at least k",
                    "line 3: lower bound 0.25 is below k=1; revealed counts are 0 or at least k",
                ],
            ),
        ],
    )
    def test_lints_warn_on_every_call(self, text, k, expected):
        calls = []
        for _ in range(3):
            calls.append(_lints(lambda: parse_constraints(text, k)))
        assert [message for message, _, _ in calls[0][1]] == expected
        assert {w[1] for w in calls[0][1]} == {__file__}
        assert calls[1] == calls[2] == calls[0]

    def test_lints_before_an_error_still_warn(self):
        text = 'div: 4 <= count(A="x")  # lints first\ndiv: 3 <= count(A=x)\n'
        for _ in range(2):
            with pytest.warns(LintWarning, match="line 1: lower bound 4") as record:
                with pytest.raises(ParseError):
                    parse_constraints(text, k=3)
            assert len(record) == 1

    def test_a_returned_list_is_the_callers(self):
        text = 'div: 3 <= count(A="x")  # returned list\n'
        first = parse_constraints(text)
        first.append(first[0])
        first[0] = None
        assert parse_constraints(text) == [parse_constraint_line('div: 3 <= count(A="x")')]

    def test_errors_repeat(self):
        text = 'div: 3 <= count(A="x")  # repeated error\ndiv: 3 <= count(A=x)\n'
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse_constraints(text)
            errors.append((str(exc.value), exc.value.line, exc.value.column))
        assert errors[0] == errors[1] == ("line 2, col 19: expected quoted value, got 'x'", 2, 19)

    def test_a_repeated_text_is_parsed_once(self, monkeypatch):
        import anonkit.dsl

        lines = []
        real = anonkit.dsl._parse_line

        def counting(*args):
            lines.append(args[-1])  # the line number
            return real(*args)

        monkeypatch.setattr(anonkit.dsl, "_parse_line", counting)
        text = 'div: 3 <= count(A="x")  # parsed once\n\ndiv: count(B="y") <= 6\n'
        first = parse_constraints(text, k=3)
        assert lines == [1, 2, 3]
        assert parse_constraints(text, k=3) == first
        assert lines == [1, 2, 3]
        parse_constraints(text, k=1)  # another k lints differently: a new entry
        assert lines == [1, 2, 3] * 2

    def test_more_texts_than_entries(self):
        texts = [f'div: {i} <= count(A="x")  # entry {i}' for i in range(40)]
        for _ in range(2):
            for i, text in enumerate(texts):
                assert parse_constraints(text) == [
                    Constraint(ConstraintKind.DIVERSITY, TargetValue.of(A="x"), Literal(i), None)
                ]


SHOWCASE_LINES = [
    'div: 3 <= count(ETH="Asian") <= 6',
    'div: 3 <= count(ETH="Asian")',
    'fair: ceil_k((C/R0)*(N - S("GEN"))) <= count(GEN="Female")',
    'div: 3 <= count(GEN="Female", ETH="Asian")',
    'div: ceil_k(0.3 * (N - S("GEN"))) <= count(GEN="Female")',
    'div: count(A="x") <= floor_k(N - 1)',
]


@pytest.mark.parametrize("line", SHOWCASE_LINES)
def test_print_parse_round_trip(line):
    c = parse_constraint_line(line)
    assert parse_constraint_line(format_constraint(c)) == c


# Random constraint ASTs restricted to what the grammar can spell
# (decimal literals, no nested rounding), for the round-trip property.


def _literals():
    # integers plus two-decimal-place numbers: everything NUMBER can spell
    return st.one_of(
        st.integers(0, 50).map(lambda n: Literal(Fraction(n))),
        st.integers(0, 5000).map(lambda n: Literal(Fraction(n, 100))),
    )


def _atoms(fairness: bool):
    options = [
        _literals(),
        st.just(Var(VarKind.OUTPUT_SIZE)),
        st.sampled_from(["GEN", "ETH", "A"]).map(StarCount),
    ]
    if fairness:
        options.append(st.just(Var(VarKind.INITIAL_SIZE)))
        options.append(st.just(Var(VarKind.INITIAL_TARGET_COUNT)))
    return st.one_of(options)


def _arith(fairness: bool):
    return st.recursive(
        _atoms(fairness),
        lambda children: st.builds(
            BinOp,
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children.filter(lambda e: e != Literal(0)),
        ),
        max_leaves=6,
    )


def _bounds(fairness: bool):
    arith = _arith(fairness)
    rounded = st.builds(Round, st.sampled_from([RoundMode.UP, RoundMode.DOWN]), arith)
    return st.one_of(arith, rounded)


@st.composite
def constraints(draw):
    fairness = draw(st.booleans())
    kind = ConstraintKind.FAIRNESS if fairness else ConstraintKind.DIVERSITY
    attrs = draw(st.sets(st.sampled_from(["GEN", "ETH", "CTY"]), min_size=1, max_size=3))
    target = TargetValue((a, draw(st.sampled_from(["x", "y"]))) for a in attrs)
    lower = draw(st.none() | _bounds(fairness))
    upper = draw(_bounds(fairness)) if lower is None else draw(st.none() | _bounds(fairness))
    return Constraint(kind, target, lower, upper)


@given(constraints())
def test_round_trip_property(constraint):
    line = format_constraint(constraint)
    assert parse_constraint_line(line) == constraint


# One-character edits draw from every character the grammar gives a
# meaning to, characters it rejects (a non-ASCII letter among them), a
# non-ASCII digit, which \\d accepts, and whitespace that splitlines does
# or does not split on.
EDIT_CHARS = ' \t\n\u00a0#"\\()<=:,+-*/._$~\u00e9\u0663019AZaz'


def _outcome(parse, text):
    """The parse result, or the error as (type, message, line, column)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LintWarning)
        try:
            return parse(text)
        except AnonError as e:
            return (type(e), str(e), getattr(e, "line", None), getattr(e, "column", None))


def _assert_parses_like_the_reference(text):
    assert _outcome(lambda t: parse_constraint_line(t, line_no=3), text) == _outcome(
        lambda t: reference_parse_line(t, 3), text
    )
    assert _outcome(parse_constraints, "# c\n" + text) == _outcome(
        reference_parse_file, "# c\n" + text
    )


def _one_character_edits(text):
    for i in range(len(text) + 1):
        for ch in EDIT_CHARS:
            yield text[:i] + ch + text[i:]
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
        for ch in EDIT_CHARS:
            yield text[:i] + ch + text[i + 1 :]


# Beyond the showcase: a comment a newline can end, an empty value one
# deletion leaves a lone quote in, and errors raised before a character
# that one insertion can put at the end of the line.
EDIT_SEEDS = SHOWCASE_LINES + [
    'div: 3 <= count(A="x") # c <= 6',
    'div: 3 <= count(A="")',
    'div: C <= count(A="x")',
    'div: S("") <= count(A="x")',
]


@pytest.mark.parametrize("line", EDIT_SEEDS)
def test_every_one_character_edit_parses_like_the_reference(line):
    for text in _one_character_edits(line):
        _assert_parses_like_the_reference(text)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edited_lines_parse_like_the_reference(data):
    pinned = [text for _, text, *_ in PINNED_ERRORS]
    line = data.draw(
        st.sampled_from(SHOWCASE_LINES + pinned) | constraints().map(format_constraint)
    )
    edit = data.draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit != "none":
        char = data.draw(st.sampled_from(EDIT_CHARS) | st.characters())
        i = data.draw(st.integers(0, len(line)))
        if edit == "insert":
            line = line[:i] + char + line[i:]
        elif edit == "delete":
            line = line[:i] + line[i + 1 :]
        else:
            line = line[:i] + char + line[i + 1 :]
    _assert_parses_like_the_reference(line)
