"""Spans around the calls into each layer, recorded from outside.

The tracer replaces module-level names that callers look up at call
time (``anonkit.cli.load_relation``, ``anonkit.solver.build_anonymized``
and so on) with wrappers that record one span per call: name, start,
end, parent span and request id, plus one integer the analysis needs
(rows loaded, groups in a clustering, whether a check passed). Spans
stay in flat arrays until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, what to keep from (args, result))
WRAPPED = [
    ("anonkit.cli", "load_relation", "relation.load", lambda a, r: r.n_rows),
    ("anonkit.cli", "dump_relation", "relation.dump", lambda a, r: a[0].n_rows),
    ("anonkit.cli", "parse_constraints", "dsl.parse", lambda a, r: len(r)),
    ("anonkit.cli", "check_all", "checking.check_all", lambda a, r: all(x.satisfied for x in r)),
    ("anonkit.cli", "solve_exact", "solver.solve_exact", None),
    ("anonkit.cli", "solve_greedy", "solver.solve_greedy", None),
    ("anonkit.cli", "oracle_min_loss", "solver.oracle", None),
    ("anonkit.cli", "is_satisfiable", "inference.satisfiable", None),
    ("anonkit.cli", "minimal_cover", "inference.mincover", None),
    ("anonkit.cli", "implies", "inference.implies", None),
    ("anonkit.solver", "build_anonymized", "solver.build_anonymized", lambda a, r: len(a[1])),
    ("anonkit.solver", "check_all", "checking.check_all", lambda a, r: all(x.satisfied for x in r)),
    ("anonkit.checking", "count_target", "relation.count_target", None),
    ("anonkit.checking", "count_stars", "relation.count_stars", None),
    ("anonkit.checking", "eval_bound", "constraints.eval_bound", None),
]
REQUEST = "cli.request"
SOLVES = ("solver.solve_exact", "solver.solve_greedy", "solver.oracle")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.aux = array("q")
        self._stack = [-1]
        self.request_id = -1
        self._saved: list[tuple] = []

    def wrap(self, span_name, fn, keep=None):
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        start, end, name, parent, request, aux = (
            self.start, self.end, self.name, self.parent, self.request, self.aux
        )
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            aux.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if keep is not None:
                aux[sid] = keep(args, result)
            return result

        return traced

    def install(self):
        for module, attr, span_name, keep in WRAPPED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original, keep))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\trequest\tname\tstart\tend\taux\n")
            for sid in range(len(self.start)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{self.request[sid]}\t{self.names[self.name[sid]]}\t"
                    f"{self.start[sid]!r}\t{self.end[sid]!r}\t{self.aux[sid]}\n"
                )


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: calls, total (inclusive) seconds, self seconds, aux sum."""
    n = len(tracer.start)
    child = [0.0] * n
    for sid in range(n):
        p = tracer.parent[sid]
        if p >= 0:
            child[p] += tracer.end[sid] - tracer.start[sid]
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "aux": 0})
    for sid in range(n):
        t = totals[tracer.names[tracer.name[sid]]]
        dur = tracer.end[sid] - tracer.start[sid]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - child[sid]
        t["aux"] += tracer.aux[sid]
    return totals


def greedy_phases(tracer: Tracer) -> list[dict]:
    """Per greedy solve: phase-1 seconds, groups after phase 1, repair seconds, builds.

    Phase 1 runs from the call into solve_greedy to its first
    build_anonymized call; the clustering passed to that call is phase
    1's result. Repair is the rest of the solve.
    """
    solves = {}
    names = tracer.names
    for sid in range(len(tracer.start)):
        kind = names[tracer.name[sid]]
        if kind == "solver.solve_greedy":
            solves[sid] = {"request": tracer.request[sid], "first_build": None, "builds": 0}
        elif kind == "solver.build_anonymized" and tracer.parent[sid] in solves:
            s = solves[tracer.parent[sid]]
            s["builds"] += 1
            if s["first_build"] is None:
                s["first_build"] = sid
    out = []
    for sid, s in solves.items():
        fb = s["first_build"]
        if fb is None:  # returned before building anything
            continue
        out.append({
            "request": s["request"],
            "phase1_s": tracer.start[fb] - tracer.start[sid],
            "repair_s": tracer.end[sid] - tracer.start[fb],
            "groups_after_phase1": tracer.aux[fb],
            "builds": s["builds"],
        })  # fmt: skip
    return out
