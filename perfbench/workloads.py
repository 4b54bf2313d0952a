"""Seeded inputs for the benchmark workloads.

Each generator writes the files that one pass of requests reads and
returns those requests, each with what certification needs to judge its
answer. Nothing here imports anonkit: the program under test only ever
sees the generated files. Every instance draws from its own RNG keyed by
(workload, seed, instance), so the same seed always gives the same
files, and a smoke-size run uses the first instances of a full-size one.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Request:
    """One CLI invocation and the facts its answer is certified against."""

    kind: str  # anonymize | validate | satisfiable | mincover | implies
    argv: list[str]
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # size name -> generator parameters
    generate: Callable[[int, dict, Path], list[Request]]


def _rng(*key) -> random.Random:
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random("/".join(str(k) for k in key))


def _write_csv(path: Path, header, rows) -> None:
    path.write_text(",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows))


def _anonymize(workdir, i, header, rows, constraints, *, k, qi, mode, max_nodes) -> Request:
    stem = f"{workdir}/i{i:03d}"
    inp, out, report = f"{stem}.in.csv", f"{stem}.out.csv", f"{stem}.report.json"
    _write_csv(Path(inp), header, rows)
    qi_cols = [header.index(a) for a in qi]
    argv = [
        "anonymize", "--input", inp, "--constraints", constraints,
        "--k", str(k), "--qi", ",".join(qi), "--mode", mode,
        "--max-nodes", str(max_nodes), "--seed", "0",
        "--out", out, "--report", report,
    ]  # fmt: skip
    info = {
        "input": inp,
        "constraints": constraints,
        "out": out,
        "report": report,
        "k": k,
        "qi": list(qi),
        "mode": mode,
        "n_rows": len(rows),
        "distinct_qi": len({tuple(r[c] for c in qi_cols) for r in rows}),
    }
    return Request("anonymize", argv, info)


# --- exact-bnb --------------------------------------------------------------

EXACT_SIGMA = (
    'div: 3 <= count(A="v0")\n'
    'fair: ceil_k(C / R0 * (N - S("A"))) <= count(A="v1")\n'
)


def gen_exact_bnb(seed: int, p: dict, workdir: Path) -> list[Request]:
    sigma = f"{workdir}/sigma.txt"
    Path(sigma).write_text(EXACT_SIGMA)
    reqs = []
    for i in range(p["instances"]):
        rng = _rng("exact-bnb", seed, i)
        rows = [
            (f"v{rng.randrange(3)}", f"v{rng.randrange(3)}", f"v{rng.randrange(3)}", f"x{rng.randrange(2)}")
            for _ in range(p["rows"])
        ]
        reqs.append(
            _anonymize(workdir, i, ("A", "B", "D", "X"), rows, sigma,
                       k=3, qi=("A", "B", "D"), mode="exact", max_nodes=p["max_nodes"])
        )  # fmt: skip
    return reqs


# --- greedy -----------------------------------------------------------------

GREEDY_HEADER = ("Q1", "Q2", "Q3", "Q4", "S")


def _merge_instance(rng, p: dict, workdir, i: int, empty: str) -> Request:
    """Many distinct QI projections and no constraints: phase 1 does the work."""
    rows = [
        tuple(f"v{rng.randrange(10)}" for _ in range(4)) + (f"w{rng.randrange(3)}",)
        for _ in range(p["merge_rows"])
    ]
    return _anonymize(workdir, i, GREEDY_HEADER, rows, empty,
                      k=5, qi=GREEDY_HEADER[:4], mode="greedy", max_nodes=8)  # fmt: skip


def _repair_instance(rng, p: dict, workdir, i: int) -> Request:
    """Upper bounds of 0 that phase 1 tends to leave violated: one repair round."""
    rows = [
        tuple(f"v{rng.randrange(3)}" for _ in range(4)) + (f"w{rng.randrange(3)}",)
        for _ in range(p["repair_rows"])
    ]
    lines = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.6:
            lines.append(f'div: count(Q{rng.randint(1, 4)}="v{rng.randrange(3)}") <= 0')
        else:
            a, b = sorted(rng.sample(range(1, 5), 2))
            lines.append(f'div: count(Q{a}="v{rng.randrange(3)}", Q{b}="v{rng.randrange(3)}") <= 0')
    rules = f"{workdir}/i{i:03d}.rules"
    Path(rules).write_text("\n".join(lines) + "\n")
    return _anonymize(workdir, i, GREEDY_HEADER, rows, rules,
                      k=3, qi=GREEDY_HEADER[:4], mode="greedy", max_nodes=1)  # fmt: skip


def gen_greedy(seed: int, p: dict, workdir: Path) -> list[Request]:
    empty = f"{workdir}/empty.txt"
    Path(empty).write_text("")
    reqs = []
    for i in range(p["instances"]):
        rng = _rng("greedy", seed, i)
        if i % 2 == 0:
            reqs.append(_merge_instance(rng, p, workdir, i, empty))
        else:
            reqs.append(_repair_instance(rng, p, workdir, i))
    return reqs


# --- audit ------------------------------------------------------------------

AUDIT_K = 10
AUDIT_HEADER = ("Q1", "Q2", "Q3", "Q4", "S1", "S2")


def _write_audit_relations(rng, n_groups: int, initial: str, published: str) -> None:
    """Write an input relation and a canonical 10-row-group suppression of it.

    Per group and QI column, the rows share one value with probability
    0.6 and draw independently otherwise; a column that ends up mixed is
    starred in the published relation.
    """
    with open(initial, "w") as fi, open(published, "w") as fp:
        fi.write(",".join(AUDIT_HEADER) + "\n")
        fp.write(",".join(AUDIT_HEADER) + "\n")
        for _ in range(n_groups):
            cols = []
            for _ in range(4):
                if rng.random() < 0.6:
                    cols.append([f"q{rng.randrange(6)}"] * AUDIT_K)
                else:
                    cols.append([f"q{v}" for v in rng.choices(range(6), k=AUDIT_K)])
            cols.append([f"s{v}" for v in rng.choices(range(4), k=AUDIT_K)])
            cols.append([f"t{v}" for v in rng.choices(range(3), k=AUDIT_K)])
            rows = list(zip(*cols))
            fi.write("".join(",".join(r) + "\n" for r in rows))
            mixed = [len(set(cols[c])) > 1 for c in range(4)]
            fp.write(
                "".join(
                    ",".join(["*" if mixed[c] else r[c] for c in range(4)] + list(r[4:])) + "\n"
                    for r in rows
                )
            )


def _audit_constraints(rng, n: int, n_rows: int) -> list[dict]:
    """Alternate fairness and diversity constraints over the audit schema."""
    specs = []
    for i in range(n):
        qa = f"Q{i // 2 % 4 + 1}"
        if i % 2 == 0:
            specs.append({"kind": "fair", "target": {qa: f"q{rng.randrange(6)}"}, "star_attr": qa})
        else:
            sb = rng.choice(("S1", "S2"))
            value = f"s{rng.randrange(4)}" if sb == "S1" else f"t{rng.randrange(3)}"
            # Bounds straddle the typical revealed count, so verdicts are mixed.
            share = n_rows // (6 * (4 if sb == "S1" else 3)) * 6 // 10
            lo = rng.randint(share * 8 // 10, share * 11 // 10) // AUDIT_K * AUDIT_K
            hi = lo + rng.randint(0, share // 3) // AUDIT_K * AUDIT_K
            specs.append({"kind": "div", "target": {qa: f"q{rng.randrange(6)}", sb: value}, "lo": lo, "hi": hi})
    return specs


def _target_text(target: dict) -> str:
    return ", ".join(f'{a}="{v}"' for a, v in sorted(target.items()))


def _audit_line(spec: dict) -> str:
    if spec["kind"] == "fair":
        return f'fair: ceil_k(C / R0 * (N - S("{spec["star_attr"]}"))) <= count({_target_text(spec["target"])})'
    return f'div: {spec["lo"]} <= count({_target_text(spec["target"])}) <= {spec["hi"]}'


def _fixed_line(target: dict, lo: int, hi) -> str:
    # The exact text `anon mincover` prints, so covers compare as strings.
    line = f"div: {lo} <= count({_target_text(target)})"
    return line if hi is None else f"{line} <= {hi}"


def _inference_file(rng, p: dict) -> dict:
    """A fixed-bound constraint file that a hidden relation satisfies.

    Every range contains the target's count in a hidden relation, so the
    set is satisfiable by construction. Planted looser copies of other
    lines are implied and must leave the minimal cover; lines on the
    reserved U attributes share no attribute with any other line, so no
    other line implies them and they must stay.
    """
    t_attrs = [f"T{j}" for j in range(1, 6)]
    u_attrs = ["U1", "U2", "U3"]
    hidden = [
        {**{a: f"t{rng.randrange(4)}" for a in t_attrs}, **{u: f"u{rng.randrange(10)}" for u in u_attrs}}
        for _ in range(p["hidden_rows"])
    ]

    counters: dict[tuple, Counter] = {}

    def true_count(target: dict) -> int:
        attrs = tuple(sorted(target))
        if attrs not in counters:
            counters[attrs] = Counter(tuple(row[a] for a in attrs) for row in hidden)
        return counters[attrs][tuple(target[a] for a in attrs)]

    lines: set[str] = set()
    general, redundant, essential = [], [], []

    def add(bucket, target, lo, hi) -> bool:
        line = _fixed_line(target, lo, hi)
        if line in lines:
            return False
        lines.add(line)
        bucket.append({"target": target, "lo": lo, "hi": hi, "line": line})
        return True

    u_targets = [{u: f"u{v}"} for u in u_attrs for v in range(10)]
    for target in rng.sample(u_targets, p["essential"]):
        c = true_count(target)
        add(essential, target, max(0, c - rng.randint(0, 15)), c + rng.randint(0, 15))
    while len(general) < p["lines"] - p["essential"] - p["redundant"]:
        size = rng.choices((1, 2, 3), weights=(3, 4, 3))[0]
        target = {a: f"t{rng.randrange(4)}" for a in rng.sample(t_attrs, size)}
        c = true_count(target)
        add(general, target, max(0, c - rng.randint(0, 15)), c + rng.randint(0, 15))
    while len(redundant) < p["redundant"]:
        base = rng.choice(general)
        add(redundant, base["target"], max(0, base["lo"] - rng.randint(1, 10)), base["hi"] + rng.randint(1, 10))

    ordered = general + redundant + essential
    rng.shuffle(ordered)
    queries = []
    for q in range(p["queries"]):
        base = rng.choice(general + essential)
        if q % 2 == 0:  # looser than a line of the file: implied
            lo, hi = max(0, base["lo"] - rng.randint(0, 5)), base["hi"] + rng.randint(0, 5)
            queries.append({"query": _fixed_line(base["target"], lo, hi), "implied": True})
        else:  # excludes the hidden count, which every derived range contains
            c = true_count(base["target"])
            queries.append({"query": _fixed_line(base["target"], c + 1, None), "implied": False})
    return {
        "text": "".join(spec["line"] + "\n" for spec in ordered),
        "constraints": [{"target": s["target"], "lo": s["lo"], "hi": s["hi"]} for s in ordered],
        "redundant": [s["line"] for s in redundant],
        "essential": [s["line"] for s in essential],
        "queries": queries,
    }


def gen_audit(seed: int, p: dict, workdir: Path) -> list[Request]:
    rng = _rng("audit", seed)
    initial, published = f"{workdir}/initial.csv", f"{workdir}/published.csv"
    _write_audit_relations(rng, p["rows"] // AUDIT_K, initial, published)
    specs = _audit_constraints(rng, p["constraints"], p["rows"])
    rules = f"{workdir}/audit.rules"
    Path(rules).write_text("".join(_audit_line(s) + "\n" for s in specs))

    inference = _inference_file(rng, p)
    fixed = f"{workdir}/fixed.rules"
    Path(fixed).write_text(inference["text"])

    reqs = [
        Request(
            "validate",
            ["validate", "--input", published, "--initial", initial,
             "--constraints", rules, "--k", str(AUDIT_K)],
            {"input": published, "initial": initial, "specs": specs, "k": AUDIT_K},
        ),
        Request("satisfiable", ["satisfiable", "--constraints", fixed],
                {"constraints": inference["constraints"]}),
        Request("mincover", ["mincover", "--constraints", fixed],
                {"lines": inference["text"].splitlines(), "redundant": inference["redundant"],
                 "essential": inference["essential"]}),
    ]  # fmt: skip
    for q in inference["queries"]:
        reqs.append(Request("implies", ["implies", "--constraints", fixed, "--query", q["query"]], q))
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-bnb",
            "B&B search and its leaf evaluations do almost all the work; ingest is negligible",
            {"full": {"instances": 160, "rows": 12, "max_nodes": 400},
             "smoke": {"instances": 3, "rows": 9, "max_nodes": 400}},
            gen_exact_bnb,
        ),
        Workload(
            "greedy",
            "phase 1's all-pairs merge scan, and a repair walk that rebuilds and re-checks the whole relation per candidate move",
            {"full": {"instances": 100, "merge_rows": 30, "repair_rows": 20},
             "smoke": {"instances": 4, "merge_rows": 12, "repair_rows": 10}},
            gen_greedy,
        ),
        Workload(
            "audit",
            "ingest, dsl, inference and one check_all on a 30k-row relation; no solver",
            {"full": {"rows": 30_000, "constraints": 20, "hidden_rows": 1000, "lines": 400,
                      "essential": 20, "redundant": 40, "queries": 24},
             "smoke": {"rows": 200, "constraints": 6, "hidden_rows": 100, "lines": 40,
                       "essential": 5, "redundant": 5, "queries": 2}},
            gen_audit,
        ),
    )
}  # fmt: skip
