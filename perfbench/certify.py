"""Certify each answer of a pass from outside the CLI.

Anonymize answers are checked with the package's public checkers on the
files the CLI wrote. Validate verdicts are recomputed from the CSV files
with counts this module makes itself, and the logic-layer answers are
checked against the generator's satisfiable-by-construction file. Each
function returns a list of problems; an empty list certifies the answer.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

ANONYMIZE_CODES = {"solution": 0, "infeasible": 1, "unknown": 1, "aborted": 3}


def certify_anonymize(ak, req, rec) -> list[str]:
    info = req.info
    report = rec["report"]
    if report is None:
        return ["no report written"]
    if ANONYMIZE_CODES.get(report["outcome"]) != rec["code"]:
        return [f"exit {rec['code']} contradicts outcome {report['outcome']!r}"]
    wrote = Path(info["out"]).exists()
    if wrote != ("loss" in report):
        return ["output CSV and report disagree on whether a relation was found"]
    if not wrote:
        return []
    original = ak.load_relation(Path(info["input"]).read_text())
    published = ak.load_relation(Path(info["out"]).read_text())
    sigma = ak.parse_constraints(Path(info["constraints"]).read_text(), info["k"])
    problems = []
    if not ak.refines(original, published):
        problems.append("output is not a suppression of the input")
    if not ak.is_k_anonymous(published, info["qi"], info["k"]):
        problems.append(f"output is not {info['k']}-anonymous")
    if not ak.all_satisfied(ak.check_all(original, published, sigma, info["k"])):
        problems.append("a fresh check finds a violated constraint")
    if report["loss"] != ak.info_loss(published):
        problems.append(f"report loss {report['loss']} != {ak.info_loss(published)} stars in the CSV")
    return problems


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _count(header, rows, target: dict) -> int:
    idx = [(header.index(a), v) for a, v in target.items()]
    return sum(1 for r in rows if all(r[i] == v for i, v in idx))


def certify_validate(_ak, req, rec) -> list[str]:
    info = req.info
    k = info["k"]
    header, published = _read_csv(info["input"])
    _, initial = _read_csv(info["initial"])
    n = len(published)
    stars = {a: sum(1 for r in published if r[i] == "*") for i, a in enumerate(header)}
    try:
        payload = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return ["validate printed no JSON"]
    problems = []
    verdicts = []
    if len(payload["reports"]) != len(info["specs"]):
        return [f"{len(payload['reports'])} reports for {len(info['specs'])} constraints"]
    for spec, got in zip(info["specs"], payload["reports"]):
        observed = _count(header, published, spec["target"])
        if spec["kind"] == "fair":
            share = Fraction(_count(header, initial, spec["target"]), len(initial))
            lo = max(0, k * math.ceil(share * (n - stars[spec["star_attr"]]) / k))
            hi = None
        else:
            lo, hi = spec["lo"], spec["hi"]
        ok = lo <= observed and (hi is None or observed <= hi)
        verdicts.append(ok)
        expected = {"observed": observed, "resolved_lo": lo, "resolved_hi": hi, "satisfied": ok}
        actual = {key: got[key] for key in expected}
        if actual != expected:
            problems.append(f"{got['constraint']}: reported {actual}, expected {expected}")
    if payload["all_satisfied"] != all(verdicts) or rec["code"] != (0 if all(verdicts) else 1):
        problems.append("overall verdict or exit code disagrees with the constraint verdicts")
    return problems


def _target_key(target: dict) -> tuple:
    return tuple(sorted(target.items()))


def certify_satisfiable(_ak, req, rec) -> list[str]:
    try:
        payload = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        return ["satisfiable printed no JSON"]
    if rec["code"] != 0 or not payload.get("satisfiable"):
        return ["a set satisfied by a hidden relation was called unsatisfiable"]
    witness = {_target_key(w["target"]): w["count"] for w in payload["witness"]}
    problems = []
    for c in req.info["constraints"]:
        count = witness.get(_target_key(c["target"]))
        if count is None or count < c["lo"] or (c["hi"] is not None and count > c["hi"]):
            problems.append(f"witness {count} for ({c['target']}) outside [{c['lo']},{c['hi']}]")
    return problems


def certify_mincover(_ak, req, rec) -> list[str]:
    if rec["code"] != 0:
        return [f"mincover exited {rec['code']} on a satisfiable set"]
    cover = rec["stdout"].splitlines()
    problems = []
    if not set(cover) <= set(req.info["lines"]):
        problems.append("cover holds lines that are not in the input")
    if set(cover) & set(req.info["redundant"]):
        problems.append("cover keeps a planted implied line")
    if not set(req.info["essential"]) <= set(cover):
        problems.append("cover drops a line nothing else implies")
    return problems


def certify_implies(_ak, req, rec) -> list[str]:
    expected = req.info["implied"]
    if rec["code"] != (0 if expected else 1):
        return [f"implies exited {rec['code']} for a query that is {'' if expected else 'not '}implied"]
    return []


CERTIFIERS = {
    "anonymize": certify_anonymize,
    "validate": certify_validate,
    "satisfiable": certify_satisfiable,
    "mincover": certify_mincover,
    "implies": certify_implies,
}
