"""Command line front end.

Subcommands: validate (check constraints against an anonymized CSV),
implies / satisfiable / mincover (constraint logic over a constraint
file), anonymize (solve an instance and emit CSV + JSON artifacts).

Exit codes: 0 success / implied / satisfied; 1 negative verdict
(constraint failed, not implied, unsatisfiable, infeasible, heuristic
gave up); 2 bad input; 3 search aborted by limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .checking import SatReport, all_satisfied, check_all
from .constraints import Constraint, ConstraintKind, FrequencyRange, Literal
from .dsl import format_constraint, parse_constraint_line, parse_constraints
from .errors import AnonError, ContractError, IngestError, InferenceError
from .inference import (
    FixedConstraint,
    InferenceOutcome,
    Unsatisfiable,
    implies,
    is_satisfiable,
    minimal_cover,
    to_fixed,
    to_fixed_all,
)
from .relation import TargetValue, dump_relation, is_k_anonymous, load_relation, refines
from .solver import (
    Aborted,
    Infeasible,
    Limits,
    Problem,
    Solution,
    SolverStats,
    Unknown,
    oracle_min_loss,
    solve_exact,
    solve_greedy,
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs of one invocation; echoed into every JSON report."""

    command: str
    input_path: Optional[str] = None
    initial_path: Optional[str] = None
    constraints_path: Optional[str] = None
    k: Optional[int] = None
    qi: Optional[tuple[str, ...]] = None
    mode: Optional[str] = None
    seed: Optional[int] = None
    max_nodes: Optional[int] = None
    time_budget: Optional[float] = None
    star_token: str = "*"
    out_path: Optional[str] = None
    report_path: Optional[str] = None


def _target_json(tv: TargetValue) -> dict:
    return dict(tv.sorted_entries())


def _range_json(fr: FrequencyRange) -> dict:
    return {"lo": fr.lo, "hi": fr.hi}


def _fixed_json(fc: FixedConstraint) -> dict:
    return {"target": _target_json(fc.target), "range": _range_json(fc.bounds)}


def _report_json(rep: SatReport) -> dict:
    return {
        "constraint": format_constraint(rep.constraint),
        "target": _target_json(rep.constraint.target),
        "observed": rep.observed_count,
        "resolved_lo": rep.resolved_lo,
        "resolved_hi": rep.resolved_hi,
        "satisfied": rep.satisfied,
    }


def _stats_json(stats: SolverStats) -> dict:
    return {
        "nodes_expanded": stats.nodes_expanded,
        "prunes": stats.prunes,
        "wall_time": stats.wall_time,
    }


def _emit(payload: dict, pretty_lines: Optional[list[str]], pretty: bool) -> None:
    if pretty and pretty_lines is not None:
        print("\n".join(pretty_lines))
    else:
        print(json.dumps(payload, indent=2))


def _base_payload(config: RunConfig) -> dict:
    return {"version": __version__, "config": asdict(config)}


def _range_str(lo: int, hi: Optional[int]) -> str:
    return f"[{lo},{'+inf' if hi is None else hi}]"


def _read_text(path: str) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise IngestError(f"{path}: not valid UTF-8 (byte offset {e.start}: {e.reason})") from None
    # Drop a byte order mark here: utf-8-sig would count offsets from after it.
    return text.removeprefix("\ufeff")


# --- subcommands ----------------------------------------------------------


def _qi_list(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def cmd_validate(args) -> int:
    if args.k < 1:  # an empty constraint file would never read k
        raise ContractError(f"k must be >= 1, got {args.k}")
    qi = None if args.qi is None else _qi_list(args.qi)
    config = RunConfig(
        command="validate",
        input_path=args.input,
        initial_path=args.initial,
        constraints_path=args.constraints,
        k=args.k,
        qi=qi,
        star_token=args.star,
    )
    rp = load_relation(_read_text(args.input), star_token=args.star)
    initial = None
    if args.initial is not None:
        initial = load_relation(_read_text(args.initial), star_token=args.star)
        if not refines(initial, rp):
            raise ContractError(f"{args.input} is not a cell suppression of {args.initial}")
    constraints = parse_constraints(_read_text(args.constraints), args.k)
    reports = check_all(initial, rp, constraints, args.k)
    anonymous = qi is None or is_k_anonymous(rp, qi, args.k)
    ok = all_satisfied(reports) and anonymous

    payload = _base_payload(config)
    payload["reports"] = [_report_json(r) for r in reports]
    payload["all_satisfied"] = ok
    lines = []
    for r in reports:
        verdict = "ok" if r.satisfied else "FAIL"
        lines.append(
            f"{verdict:4} observed {r.observed_count:>4} in "
            f"{_range_str(r.resolved_lo, r.resolved_hi):>12}  "
            f"{format_constraint(r.constraint)}"
        )
    if qi is not None:
        payload["k_anonymous"] = anonymous
        verdict = "ok" if anonymous else "FAIL"
        lines.append(f"{verdict:4} {args.k}-anonymous on {','.join(qi)}")
    lines.append(f"all satisfied: {'yes' if ok else 'no'}")
    _emit(payload, lines, args.pretty)
    return 0 if ok else 1


# Inference forms of constraint files by text, filled and emptied like
# the parse memo in dsl. A set with a constraint outside the inference
# fragment raises on every call and is never stored.
_fixed: dict[str, tuple[FixedConstraint, ...]] = {}
_FIXED_ENTRIES = 8


def _load_fixed(path: str) -> list[FixedConstraint]:
    text = _read_text(path)
    constraints = parse_constraints(text)  # lints and parse errors, on every call
    fixed = _fixed.get(text)
    if fixed is None:
        fixed = tuple(to_fixed_all(constraints))
        if len(_fixed) >= _FIXED_ENTRIES:
            _fixed.clear()
        _fixed[text] = fixed
    return list(fixed)


def _trace_json(outcome: InferenceOutcome) -> list[dict]:
    out = []
    for step in outcome.trace:
        out.append(
            {
                "axiom": step.axiom.value,
                "contributed": _range_json(step.contributed),
                "source": None if step.source is None else _fixed_json(step.source),
            }
        )
    return out


def cmd_implies(args) -> int:
    config = RunConfig(command="implies", constraints_path=args.constraints)
    sigma = _load_fixed(args.constraints)
    query = to_fixed(parse_constraint_line(args.query))
    outcome = implies(sigma, query, trace=args.explain)

    payload = _base_payload(config)
    payload["query"] = _fixed_json(query)
    payload["derived_range"] = _range_json(outcome.derived_range)
    payload["implied"] = outcome.implied
    if args.explain:
        payload["trace"] = _trace_json(outcome)

    lines = [
        f"derived range: {outcome.derived_range}",
        f"query range:   {query.bounds}",
        f"implied:       {'yes' if outcome.implied else 'no'}",
    ]
    if args.explain:
        lines.append("trace:")
        for step in outcome.trace:
            src = f" from {step.source}" if step.source is not None else ""
            lines.append(f"  {step.axiom.value}: {step.contributed}{src}")
    _emit(payload, lines, args.pretty)
    return 0 if outcome.implied else 1


def cmd_satisfiable(args) -> int:
    config = RunConfig(command="satisfiable", constraints_path=args.constraints)
    sigma = _load_fixed(args.constraints)
    result = is_satisfiable(sigma)

    payload = _base_payload(config)
    lines = []
    if isinstance(result, Unsatisfiable):
        payload["satisfiable"] = False
        payload["false_constraint"] = _fixed_json(result.false_constraint)
        lines.append(f"unsatisfiable: derived empty range {result.false_constraint}")
        code = 1
    else:
        payload["satisfiable"] = True
        witness = sorted(
            result.witness_counts.items(),
            key=lambda kv: (len(kv[0]), kv[0].sorted_entries()),
        )
        payload["witness"] = [
            {"target": _target_json(tv), "count": c} for tv, c in witness
        ]
        lines.append("satisfiable")
        for tv, c in witness:
            lines.append(f"  count({tv}) = {c}")
        code = 0
    _emit(payload, lines, args.pretty)
    return code


def cmd_mincover(args) -> int:
    sigma = _load_fixed(args.constraints)
    try:
        cover = minimal_cover(sigma)  # checks satisfiability first
    except InferenceError:
        print("error: constraint set is unsatisfiable", file=sys.stderr)
        return 1
    for fc in cover:
        lo = Literal(fc.bounds.lo)  # printed even when it is 0
        hi = None if fc.bounds.hi is None else Literal(fc.bounds.hi)
        print(format_constraint(Constraint(ConstraintKind.DIVERSITY, fc.target, lo, hi)))
    return 0


def cmd_anonymize(args) -> int:
    qi = _qi_list(args.qi)
    config = RunConfig(
        command="anonymize",
        input_path=args.input,
        constraints_path=args.constraints,
        k=args.k,
        qi=qi,
        mode=args.mode,
        seed=args.seed,
        max_nodes=args.max_nodes,
        time_budget=args.time_budget,
        out_path=args.out,
        report_path=args.report,
    )
    limits = Limits(max_nodes=args.max_nodes, time_budget=args.time_budget, seed=args.seed)
    relation = load_relation(_read_text(args.input))
    constraints = parse_constraints(_read_text(args.constraints), args.k)
    problem = Problem(relation, args.k, qi, constraints, limits)

    if args.mode == "exact":
        result = solve_exact(problem)
    elif args.mode == "greedy":
        result = solve_greedy(problem)
    else:
        result = oracle_min_loss(problem)

    payload = _base_payload(config)
    solution: Optional[Solution] = None
    if isinstance(result, Solution):
        payload["outcome"] = "solution"
        solution = result
        code = 0
    elif isinstance(result, Infeasible):
        payload["outcome"] = "infeasible"
        payload["reason"] = result.reason
        payload["stats"] = _stats_json(result.stats)
        code = 1
    elif isinstance(result, Unknown):
        payload["outcome"] = "unknown"
        payload["reason"] = result.reason
        payload["stats"] = _stats_json(result.stats)
        code = 1
    else:
        payload["outcome"] = "aborted"
        payload["stats"] = _stats_json(result.stats)
        solution = result.best_so_far
        code = 3

    if solution is not None:
        payload["loss"] = solution.loss
        payload["optimal"] = solution.optimal
        payload["clustering"] = [list(g) for g in solution.clustering.groups]
        payload["reports"] = [_report_json(r) for r in solution.constraint_reports]
        payload["stats"] = _stats_json(solution.stats)
        Path(args.out).write_text(dump_relation(solution.anonymized))

    Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    if code != 0:
        print(f"{payload['outcome']}: {payload.get('reason', 'see report')}", file=sys.stderr)
    return code


# --- argument parsing -----------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `anon` parser, built on the first call and shared by every later one.

    `main` reuses it for each request in the process, so callers must not
    mutate it (add arguments, change defaults or rebind `func`).
    """
    parser = argparse.ArgumentParser(
        prog="anon",
        description="Constraint-aware k-anonymization by cell suppression.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check constraints against an anonymized CSV")
    p.add_argument("--input", required=True, help="anonymized relation (CSV)")
    p.add_argument("--initial", help="pre-anonymization relation, for fairness constraints")
    p.add_argument("--constraints", required=True, help="constraint file")
    p.add_argument("--k", required=True, type=int, help="anonymity parameter")
    p.add_argument("--qi", help="comma-separated quasi-identifiers; also check k-anonymity on them")
    p.add_argument("--star", default="*", help="suppression token in the CSV (default '*')")
    p.add_argument("--pretty", action="store_true", help="table output instead of JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("implies", help="does the constraint set imply a query constraint?")
    p.add_argument("--constraints", required=True)
    p.add_argument("--query", required=True, help="one constraint line, e.g. 'div: 5 <= count(A=\"x\") <= 8'")
    p.add_argument("--explain", action="store_true", help="include the rule-application trace")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_implies)

    p = sub.add_parser("satisfiable", help="check a constraint set for contradictions")
    p.add_argument("--constraints", required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_satisfiable)

    p = sub.add_parser("mincover", help="drop implied constraints, print the rest")
    p.add_argument("--constraints", required=True)
    p.set_defaults(func=cmd_mincover)

    p = sub.add_parser("anonymize", help="solve an anonymization instance")
    p.add_argument("--input", required=True, help="input relation (CSV, no stars)")
    p.add_argument("--constraints", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--qi", required=True, help="comma-separated quasi-identifier attributes")
    p.add_argument("--mode", required=True, choices=["exact", "greedy", "oracle"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None, help="seconds")
    p.add_argument("--out", required=True, help="anonymized CSV path")
    p.add_argument("--report", required=True, help="JSON report path")
    p.set_defaults(func=cmd_anonymize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (AnonError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
