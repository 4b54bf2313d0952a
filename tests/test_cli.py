"""End-to-end command line behavior through main(), plus two script checks."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import anonkit
from anonkit.cli import build_parser, main

from conftest import INITIAL_CSV, R1_CSV, R2_CSV

ASIAN_RANGE_LINE = 'div: 3 <= count(ETH="Asian") <= 6'
FAIR_LINE = 'fair: ceil_k(C / R0 * (N - S("GEN"))) <= count(GEN="Female")'
IMPLIES_SET = (
    'div: 2 <= count(CTY="Calgary") <= 10\n'
    'div: 4 <= count(CTY="Calgary", ETH="Caucasian", GEN="Female") <= 7\n'
)
QUERY_LINE = 'div: 5 <= count(ETH="Caucasian", CTY="Calgary") <= 8'
UNSAT_SET = (
    'div: 6 <= count(ETH="Caucasian", CTY="Calgary") <= 8\n'
    'div: 1 <= count(CTY="Calgary") <= 5\n'
)
REDUNDANT_SET = 'div: 3 <= count(A="a") <= 6\ndiv: 2 <= count(A="a") <= 8\n'

EXPECTED_LOSS3_CSV = (
    "GEN,ETH\n"
    + "Female,Asian\n" * 3
    + "*,White\n" * 3
    + "Male,Black\n" * 3
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    paths = {
        "initial": tmp_path / "initial.csv",
        "r1": tmp_path / "r1.csv",
        "r2": tmp_path / "r2.csv",
        "sigma": tmp_path / "sigma.txt",
        "out": tmp_path / "out.csv",
        "report": tmp_path / "report.json",
    }
    paths["initial"].write_text(INITIAL_CSV)
    paths["r1"].write_text(R1_CSV)
    paths["r2"].write_text(R2_CSV)
    paths["sigma"].write_text(ASIAN_RANGE_LINE + "\n" + FAIR_LINE + "\n")
    return paths


class TestValidate:
    def test_passing_relation(self, capsys, files):
        code, out, _ = run(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_satisfied"] is True
        assert payload["reports"][0]["observed"] == 3
        assert payload["config"]["command"] == "validate"
        assert payload["version"]

    def test_failing_relation(self, capsys, files):
        code, out, _ = run(
            capsys,
            "validate",
            "--input", str(files["r1"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["all_satisfied"] is False
        assert payload["reports"][0]["observed"] == 0
        assert payload["reports"][0]["resolved_lo"] == 3

    def test_pretty_table(self, capsys, files):
        code, out, _ = run(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--pretty",
        )
        assert code == 0
        assert "ok" in out
        assert "all satisfied: yes" in out

    def test_fairness_needs_initial(self, capsys, files):
        code, _, err = run(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_constraint_reports_position(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("div: 3 <= count(ETH=Asian)\n")
        code, _, err = run(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--constraints", str(bad),
            "--k", "3",
        )
        assert code == 2
        assert "line 1" in err
        assert "col" in err

    def test_custom_star_token(self, capsys, files, tmp_path):
        alt = tmp_path / "alt.csv"
        alt.write_text(R2_CSV.replace("*", "?"))
        code, out, _ = run(
            capsys,
            "validate",
            "--input", str(alt),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--star", "?",
        )
        assert code == 0
        assert json.loads(out)["all_satisfied"] is True

    def test_missing_file(self, capsys, files, tmp_path):
        code, _, err = run(
            capsys,
            "validate",
            "--input", str(tmp_path / "nope.csv"),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_rewritten_values_are_not_a_suppression(self, capsys, tmp_path):
        initial = tmp_path / "init.csv"
        initial.write_text("A,B\nx,1\ny,2\n")
        out = tmp_path / "out.csv"
        out.write_text("A,B\nz,*\nz,*\n")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text('div: count(A="z") <= 3\n')
        code, stdout, err = run(
            capsys,
            "validate",
            "--input", str(out),
            "--initial", str(initial),
            "--constraints", str(sigma),
            "--k", "3",
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: {out} is not a cell suppression of {initial}\n"

    def test_row_count_mismatch_with_diversity_only(self, capsys, files, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("".join(R2_CSV.splitlines(keepends=True)[:7]))
        files["sigma"].write_text(ASIAN_RANGE_LINE + "\n")
        code, _, err = run(
            capsys,
            "validate",
            "--input", str(short),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert code == 2
        assert err.startswith("error:")
        assert "is not a cell suppression of" in err
        assert err.count("\n") == 1


class TestImplies:
    def test_not_implied(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(IMPLIES_SET)
        code, out, _ = run(
            capsys, "implies", "--constraints", str(sigma), "--query", QUERY_LINE
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["implied"] is False
        assert payload["derived_range"] == {"lo": 4, "hi": 10}

    def test_implied(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text('div: 3 <= count(A="a") <= 6\n')
        code, out, _ = run(
            capsys,
            "implies",
            "--constraints", str(sigma),
            "--query", 'div: 2 <= count(A="a") <= 8',
        )
        assert code == 0
        assert json.loads(out)["implied"] is True

    def test_explain_trace(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(IMPLIES_SET)
        code, out, _ = run(
            capsys,
            "implies",
            "--constraints", str(sigma),
            "--query", QUERY_LINE,
            "--explain",
        )
        assert code == 1
        trace = json.loads(out)["trace"]
        assert [step["axiom"] for step in trace] == [
            "attribute-extension",
            "attribute-reduction",
            "range-intersection",
        ]
        assert trace[-1]["source"] is None

    def test_pretty(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(IMPLIES_SET)
        code, out, _ = run(
            capsys,
            "implies",
            "--constraints", str(sigma),
            "--query", QUERY_LINE,
            "--pretty", "--explain",
        )
        assert code == 1
        assert "derived range: [4,10]" in out
        assert "implied:       no" in out
        assert "trace:" in out


class TestSatisfiable:
    def test_satisfiable_with_witness(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text('div: 3 <= count(A="a") <= 6\ndiv: 3 <= count(A="b") <= 6\n')
        code, out, _ = run(capsys, "satisfiable", "--constraints", str(sigma))
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfiable"] is True
        assert payload["witness"] == [
            {"target": {"A": "a"}, "count": 3},
            {"target": {"A": "b"}, "count": 3},
        ]

    def test_unsatisfiable(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(UNSAT_SET)
        code, out, _ = run(capsys, "satisfiable", "--constraints", str(sigma))
        assert code == 1
        payload = json.loads(out)
        assert payload["satisfiable"] is False
        assert payload["false_constraint"] == {
            "target": {"CTY": "Calgary"},
            "range": {"lo": 6, "hi": 5},
        }

    def test_pretty_unsat(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(UNSAT_SET)
        code, out, _ = run(
            capsys, "satisfiable", "--constraints", str(sigma), "--pretty"
        )
        assert code == 1
        assert "unsatisfiable" in out


class TestMincover:
    def test_drops_the_implied_line(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(REDUNDANT_SET)
        code, out, _ = run(capsys, "mincover", "--constraints", str(sigma))
        assert code == 0
        assert out == 'div: 3 <= count(A="a") <= 6\n'

    def test_cover_still_implies_the_originals(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(REDUNDANT_SET)
        code, out, _ = run(capsys, "mincover", "--constraints", str(sigma))
        assert code == 0
        cover = tmp_path / "cover.txt"
        cover.write_text(out)
        for line in REDUNDANT_SET.strip().splitlines():
            code, _, _ = run(
                capsys, "implies", "--constraints", str(cover), "--query", line
            )
            assert code == 0

    def test_quoted_values_round_trip(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text('div: 3 <= count(A="x\\"y") <= 6\ndiv: count(B="a\\\\b") <= 9\n')
        code, out, _ = run(capsys, "mincover", "--constraints", str(sigma))
        assert code == 0
        assert out == (
            'div: 3 <= count(A="x\\"y") <= 6\n'
            'div: 0 <= count(B="a\\\\b") <= 9\n'
        )
        cover = tmp_path / "cover.txt"
        cover.write_text(out)
        code, again, _ = run(capsys, "mincover", "--constraints", str(cover))
        assert code == 0
        assert again == out

    def test_unsatisfiable_set(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(UNSAT_SET)
        code, out, err = run(capsys, "mincover", "--constraints", str(sigma))
        assert code == 1
        assert out == ""
        assert "unsatisfiable" in err

    def test_satisfiability_is_checked_once(self, capsys, tmp_path, monkeypatch):
        import anonkit.inference

        # is_satisfiable and minimal_cover both check through _check.
        calls = []
        real = anonkit.inference._check

        def counting(sigma, index):
            calls.append(len(sigma))
            return real(sigma, index)

        monkeypatch.setattr(anonkit.inference, "_check", counting)
        for text, expected_code in ((REDUNDANT_SET, 0), (UNSAT_SET, 1)):
            sigma = tmp_path / "sigma.txt"
            sigma.write_text(text)
            calls.clear()
            code, _, _ = run(capsys, "mincover", "--constraints", str(sigma))
            assert code == expected_code
            assert calls == [2]


class TestAnonymize:
    def anonymize(self, capsys, files, constraints, mode, *extra):
        files["sigma"].write_text(constraints)
        return run(
            capsys,
            "anonymize",
            "--input", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--qi", "GEN,ETH",
            "--mode", mode,
            "--out", str(files["out"]),
            "--report", str(files["report"]),
            *extra,
        )

    @pytest.mark.parametrize("mode,optimal", [("greedy", False), ("exact", True), ("oracle", True)])
    def test_solves_the_fixture(self, capsys, files, mode, optimal):
        code, _, _ = self.anonymize(capsys, files, ASIAN_RANGE_LINE + "\n", mode)
        assert code == 0
        assert files["out"].read_text() == EXPECTED_LOSS3_CSV
        payload = json.loads(files["report"].read_text())
        assert payload["outcome"] == "solution"
        assert payload["loss"] == 3
        assert payload["optimal"] is optimal
        assert payload["clustering"] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert all(rep["satisfied"] for rep in payload["reports"])
        assert payload["config"]["mode"] == mode
        assert payload["config"]["qi"] == ["GEN", "ETH"]

    def test_infeasible(self, capsys, files):
        code, _, err = self.anonymize(
            capsys, files, 'div: 3 <= count(ETH="Hispanic")\n', "exact"
        )
        assert code == 1
        assert not files["out"].exists()
        payload = json.loads(files["report"].read_text())
        assert payload["outcome"] == "infeasible"
        assert "below the lower bound" in payload["reason"]
        assert "infeasible" in err

    def test_heuristic_gives_up(self, capsys, files):
        code, _, err = self.anonymize(
            capsys, files, 'div: 6 <= count(ETH="Asian")\n', "greedy"
        )
        assert code == 1
        assert not files["out"].exists()
        payload = json.loads(files["report"].read_text())
        assert payload["outcome"] == "unknown"
        assert "stalled" in payload["reason"]
        assert "unknown" in err

    def test_abort_keeps_the_incumbent(self, capsys, files):
        code, _, err = self.anonymize(
            capsys, files, "", "exact", "--max-nodes", "12"
        )
        assert code == 3
        assert "aborted" in err
        payload = json.loads(files["report"].read_text())
        assert payload["outcome"] == "aborted"
        assert payload["loss"] == 18
        assert payload["optimal"] is False
        assert files["out"].exists()

    def test_abort_without_incumbent(self, capsys, files):
        code, _, _ = self.anonymize(capsys, files, "", "exact", "--max-nodes", "1")
        assert code == 3
        assert not files["out"].exists()
        payload = json.loads(files["report"].read_text())
        assert payload["outcome"] == "aborted"
        assert "loss" not in payload

    def test_deep_search_aborts_without_recursion_error(self, capsys, files):
        # 1,500 rows put the search 1,500 levels deep before its first leaf.
        values = ("x", "y", "z")
        rows = [f"{values[i % 3]},{values[i // 3 % 3]}\n" for i in range(1500)]
        files["initial"].write_text("A,B\n" + "".join(rows))
        files["sigma"].write_text("")
        code, _, err = run(
            capsys,
            "anonymize",
            "--input", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "2",
            "--qi", "A,B",
            "--mode", "exact",
            "--max-nodes", "3000",
            "--out", str(files["out"]),
            "--report", str(files["report"]),
        )
        assert code == 3
        assert files["out"].exists()
        assert err.count("\n") == 1
        assert err.startswith("aborted")
        assert json.loads(files["report"].read_text())["stats"]["nodes_expanded"] == 3001

    def test_report_ends_with_newline(self, capsys, files):
        self.anonymize(capsys, files, ASIAN_RANGE_LINE + "\n", "greedy")
        assert files["report"].read_text().endswith("}\n")

    def test_same_seed_same_bytes(self, capsys, files, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            report = tmp_path / f"{name}.json"
            files["sigma"].write_text('div: count(ETH="Asian") <= 0\n')
            code = main([
                "anonymize",
                "--input", str(files["initial"]),
                "--constraints", str(files["sigma"]),
                "--k", "3",
                "--qi", "GEN,ETH",
                "--mode", "greedy",
                "--seed", "7",
                "--out", str(out),
                "--report", str(report),
            ])
            capsys.readouterr()
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_qi_attribute(self, capsys, files):
        code, _, err = run(
            capsys,
            "anonymize",
            "--input", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--qi", "GEN,ZIP",
            "--mode", "greedy",
            "--out", str(files["out"]),
            "--report", str(files["report"]),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_pre_starred_input_rejected(self, capsys, files):
        files["sigma"].write_text(ASIAN_RANGE_LINE + "\n")
        code, _, err = run(
            capsys,
            "anonymize",
            "--input", str(files["r2"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--qi", "GEN,ETH",
            "--mode", "greedy",
            "--out", str(files["out"]),
            "--report", str(files["report"]),
        )
        assert code == 2
        assert "suppressed" in err


class TestNonUtf8Input:
    """A file that is not UTF-8 is bad input: exit 2, one line naming it."""

    BAD_BYTES = 'div: 1 <= count(A="x")\xff\n'.encode("latin-1")

    def check(self, capsys, bad, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not valid UTF-8 (byte offset 22: invalid start byte)\n"

    def test_satisfiable(self, capsys, tmp_path):
        bad = tmp_path / "sigma.txt"
        bad.write_bytes(self.BAD_BYTES)
        self.check(capsys, bad, "satisfiable", "--constraints", str(bad))

    def test_implies_and_mincover(self, capsys, tmp_path):
        bad = tmp_path / "sigma.txt"
        bad.write_bytes(self.BAD_BYTES)
        self.check(capsys, bad, "implies", "--constraints", str(bad), "--query", QUERY_LINE)
        self.check(capsys, bad, "mincover", "--constraints", str(bad))

    def test_validate_constraints(self, capsys, files):
        files["sigma"].write_bytes(self.BAD_BYTES)
        self.check(
            capsys,
            files["sigma"],
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )

    @pytest.mark.parametrize("which", ["r2", "initial"])
    def test_validate_csv(self, capsys, files, which):
        files[which].write_bytes(b"GEN,ETH\nF\xe9male,Asian\n")
        code, out, err = run(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: {files[which]}: not valid UTF-8 "
            "(byte offset 9: invalid continuation byte)\n"
        )

    @pytest.mark.parametrize("which", ["initial", "sigma"])
    def test_anonymize(self, capsys, files, which):
        files["sigma"].write_text(ASIAN_RANGE_LINE + "\n")
        files[which].write_bytes(files[which].read_bytes() + b"\xff\n")
        code, out, err = run(
            capsys,
            "anonymize",
            "--input", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
            "--qi", "GEN,ETH",
            "--mode", "greedy",
            "--out", str(files["out"]),
            "--report", str(files["report"]),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {files[which]}: not valid UTF-8 (byte offset ")
        assert err.count("\n") == 1
        assert not files["out"].exists() and not files["report"].exists()


class TestContract:
    """Bad input exits 2, a negative verdict 1; each says so in one stderr line."""

    def anonymize(self, capsys, files, *extra, k="3", qi="GEN,ETH", out=None, report=None):
        return run(
            capsys,
            "anonymize",
            "--input", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", k,
            "--qi", qi,
            "--mode", "exact",
            "--out", str(out or files["out"]),
            "--report", str(report or files["report"]),
            *extra,
        )

    def check(self, result, code, first_words):
        got_code, out, err = result
        assert got_code == code
        assert err.count("\n") == 1 and err.startswith(first_words), err
        assert "Traceback" not in out + err

    @pytest.fixture
    def plain(self, files):
        files["sigma"].write_text("")
        return files

    def test_row_with_too_many_cells(self, capsys, plain):
        plain["initial"].write_text(INITIAL_CSV + "Male,White,extra\n")
        self.check(self.anonymize(capsys, plain), 2, "error: row 9: expected 2 cells, got 3")

    def test_cell_over_the_csv_field_limit(self, capsys, plain):
        plain["initial"].write_text(INITIAL_CSV + "x" * 200_000 + ",White\n")
        self.check(
            self.anonymize(capsys, plain),
            2,
            "error: CSV line 11: field larger than field limit (131072)",
        )

    def test_byte_order_marks_are_skipped(self, capsys, plain):
        bom = "\ufeff".encode()
        plain["initial"].write_bytes(bom + INITIAL_CSV.encode())
        plain["sigma"].write_bytes(bom + (ASIAN_RANGE_LINE + "\n").encode())
        code, _, err = self.anonymize(capsys, plain, qi="GEN")
        assert (code, err) == (0, "")
        assert plain["out"].read_text().startswith("GEN,ETH\n")

    def test_k_above_the_row_count(self, capsys, plain):
        self.check(self.anonymize(capsys, plain, k="10"), 1, "infeasible: ")

    @pytest.mark.parametrize("which", ["out", "report"])
    def test_unwritable_output(self, capsys, plain, tmp_path, which):
        missing = tmp_path / "missing" / "file"
        result = self.anonymize(capsys, plain, **{which: missing})
        self.check(result, 2, f"error: [Errno 2] No such file or directory: '{missing}'")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_validate_rejects_k_below_1(self, capsys, plain, k):
        # With no constraint in the file, nothing else would read k.
        argv = ["--input", str(plain["r2"]), "--constraints", str(plain["sigma"]), "--k", k]
        self.check(run(capsys, "validate", *argv), 2, f"error: k must be >= 1, got {k}")

    def test_repeated_qi_attribute(self, capsys, plain):
        self.check(
            self.anonymize(capsys, plain, qi="GEN,GEN"),
            2,
            "error: quasi-identifier 'GEN' is listed twice",
        )
        assert not plain["out"].exists() and not plain["report"].exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-nodes", "-1", "error: max_nodes must be >= 0, got -1"),
            ("--time-budget", "-1", "error: time_budget must be a finite number >= 0, got -1.0"),
            ("--time-budget", "nan", "error: time_budget must be a finite number >= 0, got nan"),
            ("--time-budget", "inf", "error: time_budget must be a finite number >= 0, got inf"),
        ],
    )
    def test_meaningless_budget(self, capsys, plain, flag, value, message):
        self.check(self.anonymize(capsys, plain, flag, value), 2, message)
        assert not plain["out"].exists() and not plain["report"].exists()


class TestLintWarnings:
    """Each lint is one `warning: <message>` line on stderr, on every run."""

    WARNING = "warning: line 1: lower bound 4 is not a multiple of k=3\n"

    def test_validate(self, capsys, files):
        files["sigma"].write_text('div: 4 <= count(ETH="Asian")\n')
        argv = ["--input", str(files["r2"]), "--constraints", str(files["sigma"]), "--k", "3"]
        for _ in range(2):
            code, _, err = run(capsys, "validate", *argv)
            assert (code, err) == (1, self.WARNING)

    def test_anonymize(self, capsys, files):
        files["sigma"].write_text('div: count(ETH="Asian") <= 4\ndiv: count(GEN="Male") <= 7.5\n')
        code, _, err = TestContract().anonymize(capsys, files)
        assert code == 0
        assert err == (
            "warning: line 1: upper bound 4 is not a multiple of k=3\n"
            "warning: line 2: upper bound 7.5 is not a multiple of k=3\n"
        )


class TestValidateQi:
    """validate --qi also checks k-anonymity on the listed attributes."""

    def validate(self, capsys, files, csv, *extra):
        files["sigma"].write_text(ASIAN_RANGE_LINE + "\n")
        argv = ["--input", str(files[csv]), "--constraints", str(files["sigma"]), "--k", "3"]
        return run(capsys, "validate", *argv, *extra)

    def test_k_anonymous_input_passes(self, capsys, files):
        code, out, err = self.validate(capsys, files, "r2", "--qi", "GEN,ETH", "--pretty")
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["ok   3-anonymous on GEN,ETH", "all satisfied: yes"]
        code, out, _ = self.validate(capsys, files, "r2", "--qi", "GEN, ETH")
        payload = json.loads(out)
        assert code == 0 and payload["k_anonymous"] is True
        assert payload["config"]["qi"] == ["GEN", "ETH"]

    def test_failure_is_one_fail_line_and_exit_1(self, capsys, files):
        # The unanonymized input meets the constraint but has a lone (Female, White).
        code, out, err = self.validate(capsys, files, "initial", "--qi", "GEN,ETH", "--pretty")
        assert (code, err) == (1, "")
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL 3-anonymous on GEN,ETH"
        ]
        assert out.splitlines()[-1] == "all satisfied: no"
        code, out, _ = self.validate(capsys, files, "initial", "--qi", "GEN,ETH")
        payload = json.loads(out)
        assert code == 1 and payload["k_anonymous"] is False and payload["all_satisfied"] is False

    def test_one_attribute_can_be_enough(self, capsys, files):
        code, _, _ = self.validate(capsys, files, "initial", "--qi", "ETH", "--pretty")
        assert code == 0

    def test_without_qi_nothing_changes(self, capsys, files):
        code, out, err = self.validate(capsys, files, "initial", "--pretty")
        assert (code, err) == (0, "")
        assert out == (
            'ok   observed    3 in        [3,6]  div: 3 <= count(ETH="Asian") <= 6\n'
            "all satisfied: yes\n"
        )
        payload = json.loads(self.validate(capsys, files, "initial")[1])
        assert "k_anonymous" not in payload and payload["config"]["qi"] is None

    @pytest.mark.parametrize(
        "qi, message",
        [
            ("GEN,AGE", "error: unknown attribute: 'AGE'"),
            ("ETH,ETH", "error: quasi-identifier 'ETH' is listed twice"),
            (",", "error: quasi-identifier set must be non-empty"),
        ],
    )
    def test_bad_attribute_list_exits_2(self, capsys, files, qi, message):
        code, out, err = self.validate(capsys, files, "r2", "--qi", qi)
        assert (code, out, err) == (2, "", message + "\n")


class TestDeepNesting:
    """A bound nested past the limit is one parse error, not a traceback."""

    DEEP_PARENS = "(" * 2000 + "6" + ")" * 2000
    LONG_CHAIN = "+".join(["0"] * 3000 + ["6"])
    SIGN_CHAIN = "- " * 3000 + "6"

    def check(self, result, message):
        code, out, err = result
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(message), err
        assert "Traceback" not in out + err

    def satisfiable(self, capsys, files, bound):
        files["sigma"].write_text(f'div: 3 <= count(ETH="Asian") <= {bound}\n')
        return run(capsys, "satisfiable", "--constraints", str(files["sigma"]), "--pretty")

    def validate(self, capsys, files, bound):
        files["sigma"].write_text(f'div: 3 <= count(ETH="Asian") <= {bound}\n')
        argv = ["--input", str(files["r2"]), "--constraints", str(files["sigma"]), "--k", "3"]
        return run(capsys, "validate", *argv, "--pretty")

    def anonymize(self, capsys, files, bound):
        files["sigma"].write_text(f'div: 3 <= count(ETH="Asian") <= {bound}\n')
        return TestContract().anonymize(capsys, files)

    @pytest.mark.parametrize("command", ["satisfiable", "validate", "anonymize"])
    def test_deep_parentheses(self, capsys, files, command):
        result = getattr(self, command)(capsys, files, self.DEEP_PARENS)
        # The bound starts in column 33; its 101st parenthesis is 100 further.
        self.check(result, "error: line 1, col 133: bound nested more than 100 levels deep")

    @pytest.mark.parametrize("command", ["satisfiable", "validate", "anonymize"])
    def test_long_operator_chain(self, capsys, files, command):
        result = getattr(self, command)(capsys, files, self.LONG_CHAIN)
        # The 101st '+' sits after 101 zeros and 100 pluses.
        self.check(result, "error: line 1, col 234: bound nested more than 100 levels deep")

    @pytest.mark.parametrize("command", ["satisfiable", "validate", "anonymize"])
    def test_long_sign_chain(self, capsys, files, command):
        result = getattr(self, command)(capsys, files, self.SIGN_CHAIN)
        self.check(result, "error: line 1, col 33: expected a value, got '-'")

    def test_deepest_accepted_parentheses(self, capsys, files):
        code, out, _ = self.satisfiable(capsys, files, "(" * 100 + "6" + ")" * 100)
        assert code == 0 and out.startswith("satisfiable")
        code, out, _ = self.validate(capsys, files, "(" * 100 + "6" + ")" * 100)
        assert code == 0 and out.endswith("all satisfied: yes\n")
        code, _, err = self.anonymize(capsys, files, "(" * 100 + "6" + ")" * 100)
        assert (code, err) == (0, "")

    def test_deepest_accepted_chain(self, capsys, files):
        chain = "+".join(["0"] * 100 + ["6"])
        code, out, _ = self.validate(capsys, files, chain)
        assert code == 0 and out.endswith("all satisfied: yes\n")
        assert out.count("0 + ") == 100  # printed back whole
        code, _, err = self.anonymize(capsys, files, chain)
        assert (code, err) == (0, "")
        # satisfiable reads only plain-number bounds, and says so.
        code, _, err = self.satisfiable(capsys, files, chain)
        assert code == 2 and "variable bounds" in err and err.count("\n") == 1

    def test_fairness_bound_at_the_limit(self, capsys, files):
        inner = "(" * 99 + 'C / R0 * (N - S("GEN"))' + ")" * 99
        files["sigma"].write_text(f'fair: ceil_k({inner}) <= count(GEN="Female")\n')
        code, _, err = TestContract().anonymize(capsys, files)
        assert (code, err) == (0, "")
        report = json.loads(files["report"].read_text())
        assert report["reports"][0]["constraint"] == (
            'fair: ceil_k(C / R0 * (N - S("GEN"))) <= count(GEN="Female")'
        )


@pytest.mark.skipif(shutil.which("anon") is None, reason="script not on PATH")
def test_installed_script_reports_its_version():
    proc = subprocess.run(["anon", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("anon ")


def test_module_reports_its_version():
    # One fresh process: the one-shot path, with no parser built before.
    env = dict(os.environ, PYTHONPATH=str(Path(anonkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "anonkit.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"anon {anonkit.__version__}\n"


class TestConstraintFileReuse:
    """Repeated requests on one constraint file answer as the first did."""

    LINTED_SET = 'div: 0.5 <= count(CTY="Calgary") <= 10\n' + IMPLIES_SET

    def twice(self, capsys, *argv):
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second
        return first

    def test_inference_commands(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(self.LINTED_SET)
        warning = "warning: line 1: lower bound 0.5 is below k=1; revealed counts are 0 or at least k\n"
        for argv, expected_code in (
            (["implies", "--query", QUERY_LINE], 1),
            (["implies", "--query", QUERY_LINE, "--explain", "--pretty"], 1),
            (["satisfiable"], 0),
            (["mincover"], 0),
        ):
            code, out, err = self.twice(capsys, *argv, "--constraints", str(sigma))
            assert (code, err) == (expected_code, warning)
            assert out

    def test_validate(self, capsys, files):
        files["sigma"].write_text('div: 4 <= count(ETH="Asian")\n' + FAIR_LINE + "\n")
        code, out, err = self.twice(
            capsys,
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        )
        assert (code, err) == (1, "warning: line 1: lower bound 4 is not a multiple of k=3\n")
        assert json.loads(out)["reports"][1]["satisfied"] is True

    def test_anonymize(self, capsys, files):
        runs = []
        for _ in range(2):
            runs.append(
                TestAnonymize().anonymize(capsys, files, 'div: 3 <= count(ETH="Asian") <= 7\n', "exact")
                + (files["out"].read_text(),)
            )
        assert runs[0] == runs[1]
        code, _, err, csv = runs[0]
        assert code == 0 and csv == EXPECTED_LOSS3_CSV
        assert err == "warning: line 1: upper bound 7 is not a multiple of k=3\n"

    def test_an_edited_file_is_read_again(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        argv = ["implies", "--constraints", str(sigma), "--query", QUERY_LINE]
        sigma.write_text(IMPLIES_SET)
        assert run(capsys, *argv)[0] == 1
        sigma.write_text(IMPLIES_SET + 'div: 5 <= count(ETH="Caucasian", CTY="Calgary") <= 7\n')
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["derived_range"] == {"lo": 5, "hi": 7}
        sigma.write_text(REDUNDANT_SET)
        assert run(capsys, "mincover", "--constraints", str(sigma))[1] == 'div: 3 <= count(A="a") <= 6\n'
        sigma.write_text(UNSAT_SET)
        assert run(capsys, "mincover", "--constraints", str(sigma))[0] == 1

    @pytest.mark.parametrize("command", ["implies", "satisfiable", "mincover"])
    def test_a_fairness_line_fails_every_time(self, capsys, tmp_path, command):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(ASIAN_RANGE_LINE + "\n" + FAIR_LINE + "\n")
        argv = [command, "--constraints", str(sigma)]
        if command == "implies":
            argv += ["--query", QUERY_LINE]
        code, out, err = self.twice(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            'error: (GEN="Female"): fairness constraints are outside the inference '
            "fragment; only fixed-bound diversity constraints qualify\n"
        )


class TestParserReuse:
    """main() builds its parser once; no call leaks state into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_rejected_call_then_valid_call(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            main(["anonymize", "--k", "three"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        code, _, _ = TestAnonymize().anonymize(capsys, files, ASIAN_RANGE_LINE + "\n", "exact")
        assert code == 0
        assert files["out"].read_text() == EXPECTED_LOSS3_CSV

    def test_flag_does_not_stick(self, capsys, files):
        argv = [
            "validate",
            "--input", str(files["r2"]),
            "--initial", str(files["initial"]),
            "--constraints", str(files["sigma"]),
            "--k", "3",
        ]
        code, out, _ = run(capsys, *argv, "--pretty")
        assert code == 0 and out.endswith("all satisfied: yes\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["all_satisfied"] is True

    def test_defaults_come_back(self, capsys, files):
        anonymize = TestContract().anonymize
        files["sigma"].write_text("")
        anonymize(capsys, files, "--seed", "7", "--max-nodes", "5")
        config = json.loads(files["report"].read_text())["config"]
        assert (config["seed"], config["max_nodes"]) == (7, 5)
        code, _, _ = anonymize(capsys, files)
        assert code == 0
        config = json.loads(files["report"].read_text())["config"]
        assert (config["seed"], config["max_nodes"], config["time_budget"]) == (0, None, None)

    @pytest.mark.parametrize("argv", [["--help"], ["anonymize", "--help"]])
    def test_help_is_the_same_every_time(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: anon ")

    def test_help_follows_columns_at_print_time(self, capsys, monkeypatch):
        texts = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["anonymize", "--help"])
            texts.append(capsys.readouterr().out)
        assert max(map(len, texts[0].splitlines())) <= 60
        assert texts[0] != texts[1]
