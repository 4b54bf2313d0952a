#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the anon CLI.

    python3 perfbench/run.py --workload exact-bnb --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, each then traced
    python3 perfbench/run.py --size smoke --seconds 0   # every workload, tiny, in seconds

One process and one closed-loop client: the requests of a workload go
to ``anonkit.cli.main(argv)`` in-process, one after another, with no
extra threads. A pass sends every request of the workload once; whole
passes repeat while the next one fits in ``--seconds`` of request time.
Every answer of the first pass is certified from outside, and every
later pass must reproduce its output fingerprint exactly.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` the untraced passes are followed
by one traced pass, and the JSON carries the per-layer metrics instead.
Generated inputs live in ``.perfbench-work/`` and are deleted at exit;
fingerprints and traces are kept in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from certify import CERTIFIERS
from tracing import REQUEST, SOLVES, Tracer, greedy_phases, layer_totals
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_s_p50": "s",
    "request_s_tail": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in the JSON result. Times appear here only for
# layers every workload calls; the full table, with times of layers a
# workload never calls shown as n/a, is printed and saved beside it.
PER_LAYER = {
    "solver.nodes_expanded": "count",
    "solver.prunes.loss_bound": "count",
    "solver.prunes.underfill": "count",
    "solver.prunes.upper_bound": "count",
    "solver.prunes.lower_bound": "count",
    "solver.nodes_per_s": "1/s",
    "solver.feasible_eval_ratio": "ratio",
    "solver.build_anonymized.calls": "count",
    "checking.check_all.calls": "count",
    "checking.check_all.self_s": "s",
    "checking.check_all.us_per_call": "us",
    "relation.count_target.calls": "count",
    "relation.count_stars.calls": "count",
    "constraints.eval_bound.calls": "count",
    "solver.phase1_merges": "count",
    "solver.phase1_merges_per_s": "1/s",
    "solver.repair_moves_scored": "count",
    "solver.repair_moves_per_s": "1/s",
    "solver.repair_steps": "count",
    "relation.load_s": "s",
    "relation.load_rows_per_s": "1/s",
    "dsl.parse_s": "s",
    "dsl.parse_lines_per_s": "1/s",
    "inference.calls": "count",
    "inference.ops_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
TABLE_ONLY = {
    "solver.solve_s": "s",
    "solver.build_anonymized.self_s": "s",
    "relation.count_target.self_s": "s",
    "relation.count_stars.self_s": "s",
    "constraints.eval_bound.self_s": "s",
    "solver.phase1_s": "s",
    "solver.repair_s": "s",
    "relation.dump_s": "s",
    "inference.satisfiable_s": "s",
    "inference.mincover_s": "s",
    "inference.implies_s": "s",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ratio(num, den):
    return num / den if den else None


# --- requests ---------------------------------------------------------------


def execute(main, req) -> dict:
    """Send one request; return its exit code, output and duration."""
    if req.kind == "anonymize":
        for key in ("out", "report"):
            Path(req.info[key]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(req.argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a request that raises fails; the run goes on
            code, error = None, f"{type(e).__name__}: {e}"
        seconds = perf_counter() - start
    return {"seconds": seconds, "code": code, "error": error, "stdout": out.getvalue()}


def fingerprint_entry(req, rec) -> dict:
    """What must repeat exactly for the same seed: outcome, loss, output hashes."""
    entry = {"kind": req.kind, "code": rec["code"], "error": rec["error"]}
    if req.kind != "anonymize":
        entry["stdout_sha256"] = _sha256(rec["stdout"].encode())
        return entry
    report_path, out_path = Path(req.info["report"]), Path(req.info["out"])
    report = None
    if report_path.exists():
        try:
            report = json.loads(report_path.read_text())
        except json.JSONDecodeError:
            entry["report_sha256"] = _sha256(report_path.read_bytes())
    rec["report"] = report
    if report is not None:
        stripped = json.loads(json.dumps(report))
        stripped.get("stats", {}).pop("wall_time", None)
        entry["outcome"] = report["outcome"]
        entry["loss"] = report.get("loss")
        entry["report_sha256"] = _sha256(json.dumps(stripped, sort_keys=True).encode())
    entry["csv_sha256"] = _sha256(out_path.read_bytes()) if out_path.exists() else None
    return entry


def run_pass(main, requests, tracer=None) -> tuple[list[dict], list[dict]]:
    records, entries = [], []
    for j, req in enumerate(requests):
        if tracer is not None:
            tracer.request_id = j
        rec = execute(main, req)
        entries.append(fingerprint_entry(req, rec))
        records.append(rec)
    return records, entries


# --- metrics ----------------------------------------------------------------


def quality(requests, records) -> dict:
    """Answer quality of one pass; None where no request of the kind ran."""
    anonymize = [(q, r) for q, r in zip(requests, records) if q.kind == "anonymize"]
    exact = [r for q, r in anonymize if q.info["mode"] == "exact"]
    loss, answered = 0, 0
    for q, r in anonymize:
        if r.get("report") and "loss" in r["report"]:
            answered += 1
            loss += r["report"]["loss"]
        else:  # charged as if every QI cell were starred
            loss += q.info["n_rows"] * len(q.info["qi"])
    return {
        "loss_total": loss if anonymize else None,
        "answered_frac": _ratio(answered, len(anonymize)),
        "optimal_frac": _ratio(sum(1 for r in exact if (r.get("report") or {}).get("optimal")), len(exact)),
    }


def per_layer_metrics(tracer: Tracer, requests, records, overhead_s: float) -> dict:
    totals = layer_totals(tracer)

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(name):
        return totals[name]["self_s"] if name in totals else None

    solve_by_request: dict[int, float] = {}
    solve_ids = set()
    feasible = evals = 0
    names = tracer.names
    for sid in range(len(tracer.start)):
        name = names[tracer.name[sid]]
        if name in SOLVES:
            solve_ids.add(sid)
            r = tracer.request[sid]
            solve_by_request[r] = solve_by_request.get(r, 0.0) + tracer.end[sid] - tracer.start[sid]
        elif name == "checking.check_all" and tracer.parent[sid] in solve_ids:
            evals += 1
            feasible += tracer.aux[sid]

    stats = {j: (r.get("report") or {}).get("stats") for j, r in enumerate(records)}
    exact = [j for j, q in enumerate(requests) if q.kind == "anonymize" and q.info["mode"] == "exact"]
    greedy = [j for j, q in enumerate(requests) if q.kind == "anonymize" and q.info["mode"] == "greedy"]
    nodes = sum(stats[j]["nodes_expanded"] for j in exact if stats[j])
    prunes = {key: sum(stats[j]["prunes"].get(key, 0) for j in exact if stats[j])
              for key in ("loss_bound", "underfill", "upper_bound", "lower_bound")}  # fmt: skip
    exact_solve_s = sum(solve_by_request.get(j, 0.0) for j in exact)

    moves = {j: stats[j]["nodes_expanded"] for j in greedy if stats[j]}
    phases = greedy_phases(tracer)
    phase1_s = sum(p["phase1_s"] for p in phases)
    repair_s = sum(p["repair_s"] for p in phases)
    merges = sum(requests[p["request"]].info["distinct_qi"] - p["groups_after_phase1"] for p in phases)
    steps = sum(p["builds"] - moves.get(p["request"], 0) - 1 for p in phases)
    moves_scored = sum(moves.values())

    inference = [n for n in totals if n.startswith("inference.")]
    inference_calls = sum(calls(n) for n in inference)
    inference_s = sum(totals[n]["self_s"] for n in inference)
    check_all_total = totals["checking.check_all"]["total_s"] if "checking.check_all" in totals else 0.0
    load = totals.get("relation.load", {"aux": 0, "total_s": 0.0})
    parse = totals.get("dsl.parse", {"aux": 0, "total_s": 0.0})

    return {
        "solver.nodes_expanded": nodes,
        **{f"solver.prunes.{k}": v for k, v in prunes.items()},
        "solver.nodes_per_s": _ratio(nodes, exact_solve_s),
        "solver.feasible_eval_ratio": _ratio(feasible, evals),
        "solver.build_anonymized.calls": calls("solver.build_anonymized"),
        "solver.build_anonymized.self_s": self_s("solver.build_anonymized"),
        "checking.check_all.calls": calls("checking.check_all"),
        "checking.check_all.self_s": self_s("checking.check_all"),
        "checking.check_all.us_per_call": _ratio(check_all_total * 1e6, calls("checking.check_all")),
        "relation.count_target.calls": calls("relation.count_target"),
        "relation.count_target.self_s": self_s("relation.count_target"),
        "relation.count_stars.calls": calls("relation.count_stars"),
        "relation.count_stars.self_s": self_s("relation.count_stars"),
        "constraints.eval_bound.calls": calls("constraints.eval_bound"),
        "constraints.eval_bound.self_s": self_s("constraints.eval_bound"),
        "solver.phase1_s": phase1_s if phases else None,
        "solver.phase1_merges": merges,
        "solver.phase1_merges_per_s": _ratio(merges, phase1_s),
        "solver.repair_s": repair_s if phases else None,
        "solver.repair_moves_scored": moves_scored,
        "solver.repair_moves_per_s": _ratio(moves_scored, repair_s) if moves_scored else None,
        "solver.repair_steps": steps,
        "solver.solve_s": sum(solve_by_request.values()) if solve_by_request else None,
        "relation.load_s": self_s("relation.load"),
        "relation.load_rows_per_s": _ratio(load["aux"], load["total_s"]),
        "relation.dump_s": self_s("relation.dump"),
        "dsl.parse_s": self_s("dsl.parse"),
        "dsl.parse_lines_per_s": _ratio(parse["aux"], parse["total_s"]) if parse["aux"] else None,
        "inference.calls": inference_calls,
        "inference.ops_per_s": _ratio(inference_calls, inference_s),
        "inference.satisfiable_s": self_s("inference.satisfiable"),
        "inference.mincover_s": self_s("inference.mincover"),
        "inference.implies_s": self_s("inference.implies"),
        "cli.self_s": self_s(REQUEST),
        "trace.overhead_s": overhead_s,
    }


def _fmt(value, unit="") -> str:
    if value is None:
        return "n/a"
    text = f"{value}" if isinstance(value, int) else f"{value:.6g}"
    return text if unit in ("", "count") else f"{text} {unit}"


# --- one workload -----------------------------------------------------------


def _import_fresh():
    """Import anonkit from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "anonkit" or m.startswith("anonkit.")]:
        del sys.modules[name]
    return importlib.import_module("anonkit.cli")


def set_up(workload, seed: int, params: dict, workdir: Path):
    """Import anonkit afresh and write the workload's inputs; return the time taken."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    cli = _import_fresh()
    workdir.mkdir(parents=True)
    requests = workload.generate(seed, params, workdir)
    return perf_counter() - start, cli, requests


def run_workload(args) -> int:
    if not (ROOT / "src" / "anonkit" / "__init__.py").is_file():
        print(f"error: no anonkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative paths keep reports and fingerprints checkout-independent
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    workdir = Path(WORK_DIR) / workload.name
    Path(OUT_DIR).mkdir(exist_ok=True)
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def certify_pass(ak, requests, records) -> list:
    """Per request: why its answer fails, or None when it certifies."""
    why = []
    for req, rec in zip(requests, records):
        if rec["error"] is not None or rec["code"] in (None, 2):
            found = [rec["error"] or f"exit {rec['code']}"]
        else:
            found = CERTIFIERS[req.kind](ak, req, rec)
        why.append("; ".join(found) or None)
    return why


def count_failures(entries, base_entries, why) -> int:
    """Fail requests whose output differs from the first pass; count this pass's failures."""
    for j, entry in enumerate(entries):
        if entry != base_entries[j] and why[j] is None:
            why[j] = "output differs from the first pass"
    return sum(reason is not None for reason in why)


def measure(args, workload, workdir: Path) -> int:
    params = workload.sizes[args.size]
    setup_times = []
    passes = []  # per pass: request durations
    elapsed = 0.0
    failed = attempted = 0
    base_entries = None
    # Whole passes only, and none that would run past --seconds. A fresh
    # set-up precedes each pass, so set-ups are spread over the run too.
    while not passes or elapsed * (len(passes) + 1) / len(passes) <= args.seconds:
        seconds, cli, requests = set_up(workload, args.seed, params, workdir)
        setup_times.append(seconds)
        records, entries = run_pass(cli.main, requests)
        times = [r["seconds"] for r in records]
        passes.append(times)
        elapsed += sum(times)
        if base_entries is None:
            # Later passes repeat this work; taken here, the peak does not
            # grow with the number of passes the run has time for.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ak = sys.modules["anonkit"]
            if not Path(ak.__file__).resolve().is_relative_to(ROOT / "src"):
                print(f"error: imported anonkit from {ak.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
                return 2
            base_entries, base_records = entries, records
            why = certify_pass(ak, requests, records)
        attempted += len(requests)
        failed += count_failures(entries, base_entries, why)

    m = len(requests)
    # Other tenants of the machine slow it by up to 1.4x in bursts of a
    # fraction of a second. A request's time is its fastest over the
    # passes, which filters those bursts; a pass's wall time is estimated
    # as the sum of those times.
    slot_times = sorted(min(p[j] for p in passes) for j in range(m))
    tail_idx = m - 11 if m > 10 else m - 1  # highest rank with ten requests beyond it
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(slot_times),
        "request_s_p50": statistics.median(slot_times),
        "request_s_tail": slot_times[tail_idx],
        "peak_rss_mb": peak_rss_mb,
    }
    q = quality(requests, base_records)

    stem = f"{OUT_DIR}/{workload.name}-seed{args.seed}-{args.size}"
    fp_sha = _sha256(json.dumps(base_entries, sort_keys=True).encode())
    Path(f"{stem}.fingerprint.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "size": args.size,
                    "sha256": fp_sha, "requests": base_entries}, indent=1) + "\n"
    )  # fmt: skip

    print(f"workload {workload.name}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"  {m} requests per pass, {len(passes)} passes, {m * len(passes)} samples")
    print(f"  setup_s         {_fmt(e2e['setup_s'], 's')}  (median of {len(setup_times)} set-ups, one per pass)")
    print(f"  wall_s          {_fmt(e2e['wall_s'], 's')}  (sum of per-request best times)")
    print(f"  request_s_p50   {_fmt(e2e['request_s_p50'], 's')}")
    print(f"  request_s_tail  {_fmt(e2e['request_s_tail'], 's')}  "
          f"(p{100 * (tail_idx + 1) / m:.1f} of {m} requests, best of {len(passes)} passes each)")  # fmt: skip
    print(f"  loss_total      {_fmt(q['loss_total'], 'count')} stars")
    print(f"  answered_frac   {_fmt(q['answered_frac'])}")
    print(f"  optimal_frac    {_fmt(q['optimal_frac'])}")
    print(f"  failed_frac     {failed / attempted:.6g}  ({failed} of {attempted})")
    print(f"  peak_rss_mb     {_fmt(e2e['peak_rss_mb'], 'MB')}")
    print(f"  fingerprint     {fp_sha}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            records, entries = run_pass(tracer.wrap(REQUEST, cli.main), requests, tracer)
        finally:
            tracer.uninstall()
        attempted += m
        failed += count_failures(entries, base_entries, why)
        overhead = sum(r["seconds"] for r in records) - e2e["wall_s"]
        layers = per_layer_metrics(tracer, requests, records, overhead)
        tracer.write(f"{stem}.spans.tsv.gz")
        Path(f"{stem}.layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        print(f"  per-layer metrics of one traced pass ({len(tracer.start)} spans):")
        for name, unit in {**PER_LAYER, **TABLE_ONLY}.items():
            print(f"    {name:34} {_fmt(layers[name], unit)}")
        metrics = {name: {"value": layers[name] or 0, "unit": unit} for name, unit in PER_LAYER.items()}

    for j, reason in enumerate(why):
        if reason is not None:
            print(f"  FAILED request {j} ({requests[j].kind}): {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


# --- every workload ---------------------------------------------------------


def run_all(args) -> int:
    """Run each workload, then its traced run, each in a process of its own."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]  # fmt: skip
            proc = subprocess.run(argv, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            sys.stdout.flush()
            lines = proc.stdout.strip().splitlines()
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1]).get("correct") is True
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0, help="request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
