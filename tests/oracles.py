"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with code
paths disjoint from the production modules: a row counter, a
satisfaction check on fixed constraints, an axiom-closure range
derivation, a reference constraint-line parser, the earlier
branch-and-bound search, and random instance generators. Slow and
simple on purpose.
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction
from typing import Optional, Sequence

from anonkit import (
    Axiom,
    BinOp,
    Constraint,
    ConstraintKind,
    FixedConstraint,
    FrequencyRange,
    InferenceError,
    Literal,
    ParseError,
    Relation,
    Round,
    RoundMode,
    Satisfiable,
    SemanticError,
    StarCount,
    TargetValue,
    Unsatisfiable,
    Var,
    VarKind,
)
from anonkit.constraints import BoundExpr
from anonkit.inference import TraceStep
from anonkit.relation import STAR, count_target
from anonkit.solver import (
    Aborted,
    Clustering,
    Infeasible,
    Problem,
    SolverStats,
    _evaluate,
    _Evaluator,
    _make_solution,
    _suffix_counts,
)

ATTRS = ("A", "B", "C")
VALUES = ("a", "b", "c")


def naive_count(relation: Relation, target: TargetValue) -> int:
    """Row count by direct scanning, no index juggling."""
    n = 0
    for row in relation.rows:
        ok = True
        for attr, value in target.entries:
            if row[relation.schema.index(attr)] != value:
                ok = False
        if ok:
            n += 1
    return n


def satisfies(relation: Relation, constraints: Sequence[FixedConstraint]) -> bool:
    for c in constraints:
        count = naive_count(relation, c.target)
        if count < c.bounds.lo:
            return False
        if c.bounds.hi is not None and count > c.bounds.hi:
            return False
    return True


def _intersect(
    a: tuple[int, Optional[int]], b: tuple[int, Optional[int]]
) -> tuple[int, Optional[int]]:
    lo = max(a[0], b[0])
    if a[1] is None:
        hi = b[1]
    elif b[1] is None:
        hi = a[1]
    else:
        hi = min(a[1], b[1])
    return (lo, hi)


def closure_range(
    sigma: Sequence[FixedConstraint], tv: TargetValue
) -> FrequencyRange:
    """Derive the range for tv by closing under the four rules to fixpoint.

    Same-target ranges carry over whole; a strictly smaller target
    passes its upper end; a strictly larger target passes its lower
    end; any two derived ranges intersect. The tightest derived range
    is returned (the universal range when nothing applies).
    """
    derived: set[tuple[int, Optional[int]]] = {(0, None)}
    for c in sigma:
        pair = (c.bounds.lo, c.bounds.hi)
        if c.target == tv:
            derived.add(pair)
        elif c.target.entries < tv.entries:
            derived.add((0, pair[1]))
        elif tv.entries < c.target.entries:
            derived.add((pair[0], None))
    changed = True
    while changed:
        changed = False
        for a in list(derived):
            for b in list(derived):
                combined = _intersect(a, b)
                if combined not in derived:
                    derived.add(combined)
                    changed = True
    # The tightest range is the one contained in all others; the full
    # intersection is itself derived, so it is in the set.
    tightest = (0, None)
    for pair in derived:
        tightest = _intersect(tightest, pair)
    return FrequencyRange(tightest[0], tightest[1])


def scan_range_for_target(
    sigma: Sequence[FixedConstraint], tv: TargetValue
) -> tuple[FrequencyRange, tuple[TraceStep, ...]]:
    """Derived range and trace by comparing tv with every member of the set."""
    delta = (0, None)
    steps: list[TraceStep] = []
    for c in sigma:
        if c.target == tv:
            contributed = c.bounds
            axiom = Axiom.FIXED_ATTRIBUTES
        elif c.target.entries < tv.entries:
            contributed = FrequencyRange(0, c.bounds.hi)
            axiom = Axiom.ATTRIBUTE_EXTENSION
        elif tv.entries < c.target.entries:
            contributed = FrequencyRange(c.bounds.lo, None)
            axiom = Axiom.ATTRIBUTE_REDUCTION
        else:
            continue
        steps.append(TraceStep(axiom, contributed, c))
        delta = _intersect(delta, (contributed.lo, contributed.hi))
    derived = FrequencyRange(*delta)
    steps.append(TraceStep(Axiom.RANGE_INTERSECTION, derived))
    return derived, tuple(steps)


def scan_is_satisfiable(sigma: Sequence[FixedConstraint]):
    """Satisfiability from a full scan per target, smallest target first."""
    targets = sorted({c.target for c in sigma}, key=lambda tv: (len(tv), tv.sorted_entries()))
    witness = {}
    for tv in targets:
        delta, _ = scan_range_for_target(sigma, tv)
        if delta.is_empty:
            return Unsatisfiable(FixedConstraint(tv, delta))
        witness[tv] = delta.lo
    return Satisfiable(witness)


def scan_minimal_cover(sigma: Sequence[FixedConstraint]) -> list[FixedConstraint]:
    """One pass in input order; each member is tested against the rest kept."""
    if isinstance(scan_is_satisfiable(sigma), Unsatisfiable):
        raise InferenceError("minimal cover is undefined for an unsatisfiable set")
    kept = [True] * len(sigma)
    for i, candidate in enumerate(sigma):
        rest = [c for j, c in enumerate(sigma) if kept[j] and j != i]
        delta, _ = scan_range_for_target(rest, candidate.target)
        if delta.issubset(candidate.bounds):
            kept[i] = False
    return [c for i, c in enumerate(sigma) if kept[i]]


def random_target(rng: random.Random, max_attrs: int = 3) -> TargetValue:
    n = rng.randint(1, max_attrs)
    attrs = rng.sample(ATTRS, n)
    return TargetValue((a, rng.choice(VALUES)) for a in attrs)


def random_fixed_constraint(rng: random.Random) -> FixedConstraint:
    lo = rng.randint(0, 8)
    if rng.random() < 0.25:
        hi = None
    else:
        hi = rng.randint(lo, 12)
    return FixedConstraint(random_target(rng), FrequencyRange(lo, hi))


def random_sigma(rng: random.Random, max_len: int = 3) -> list[FixedConstraint]:
    return [random_fixed_constraint(rng) for _ in range(rng.randint(0, max_len))]


def random_relation(
    rng: random.Random,
    max_rows: int = 12,
    n_attrs: int = 3,
    min_rows: int = 0,
) -> Relation:
    schema = ATTRS[:n_attrs]
    rows = [
        tuple(rng.choice(VALUES) for _ in schema)
        for _ in range(rng.randint(min_rows, max_rows))
    ]
    return Relation(schema, rows)


# --- reference parser --------------------------------------------------------
# The constraint-line tokenizer and parser as they stood before tokens
# became plain strings: one named group per token kind, and (kind, text,
# column) tuples built for every token. Lint is left out; it only warns.

_REF_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        \#.*
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<punct><=|[():,=+\-*/])
      | (?P<bad>\S)
      | \Z
    )
    """,
    re.VERBOSE,
)

_REF_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _ref_tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens = []
    end = 1
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        column = m.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line_no, column)
        end = m.end() + 1
        tokens.append((kind, m[kind], column))
    tokens.append(("end", "", end))
    return tokens


def _ref_unquote(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


class _RefLineParser:
    def __init__(self, tokens, line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of line", self.line_no, tok[2])
        self.pos += 1
        return tok

    def error(self, message: str, tok, cls: type = ParseError) -> Exception:
        return cls(message, self.line_no, tok[2])

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"expected {text!r}, got {tok[1]!r}", tok)

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def parse_constraint(self) -> Constraint:
        head = self.next()
        kind_name, text, _ = head
        if kind_name != "ident" or text not in ("div", "fair"):
            raise self.error(f"expected 'div' or 'fair', got {text!r}", head)
        kind = ConstraintKind.DIVERSITY if text == "div" else ConstraintKind.FAIRNESS
        self.kind = kind
        self.expect(":")
        lower = None
        if self.tokens[self.pos][:2] != ("ident", "count"):
            lower = self.parse_bound()
            self.expect("<=")
        tok = self.next()
        if tok[:2] != ("ident", "count"):
            raise self.error(f"expected 'count', got {tok[1]!r}", tok)
        self.expect("(")
        target = self.parse_target()
        self.expect(")")
        upper = None
        if self.at("<="):
            self.pos += 1
            upper = self.parse_bound()
        trailing = self.tokens[self.pos]
        if trailing[0] != "end":
            raise self.error(f"trailing input: {trailing[1]!r}", trailing)
        if lower is None and upper is None:
            raise self.error("constraint needs at least one bound", head, SemanticError)
        return Constraint(kind, target, lower, upper)

    def parse_target(self) -> TargetValue:
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            attr = self.next()
            if attr[0] != "ident":
                raise self.error(f"expected attribute name, got {attr[1]!r}", attr)
            self.expect("=")
            value = self.next()
            if value[0] != "string":
                raise self.error(f"expected quoted value, got {value[1]!r}", value)
            name = attr[1]
            if name in seen:
                raise self.error(f"attribute {name!r} repeated in target", attr, SemanticError)
            seen.add(name)
            pairs.append((name, _ref_unquote(value[1])))
            if not self.at(","):
                return TargetValue(pairs)
            self.pos += 1

    def parse_bound(self) -> BoundExpr:
        kind, text, _ = self.tokens[self.pos]
        if kind == "ident" and text in ("ceil_k", "floor_k"):
            self.pos += 1
            self.expect("(")
            inner = self.parse_arith()
            self.expect(")")
            return Round(RoundMode.UP if text == "ceil_k" else RoundMode.DOWN, inner)
        return self.parse_arith()

    def parse_arith(self, min_prec: int = 1) -> BoundExpr:
        node = self.parse_factor()
        while True:
            op = self.tokens[self.pos]
            prec = _REF_PRECEDENCE.get(op[1], 0)
            if prec < min_prec:
                return node
            self.pos += 1
            right = self.parse_arith(prec + 1)
            if op[1] == "/" and isinstance(right, Literal) and right.value == 0:
                raise self.error("division by zero", op, SemanticError)
            node = BinOp(op[1], node, right)

    def parse_factor(self) -> BoundExpr:
        tok = self.next()
        kind, text, _ = tok
        if kind == "number":
            return Literal(Fraction(text) if "." in text else int(text))
        if text == "(":
            node = self.parse_arith()
            self.expect(")")
            return node
        if kind == "ident":
            if text == "N":
                return Var(VarKind.OUTPUT_SIZE)
            if text == "R0":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_SIZE)
            if text == "C":
                self._check_initial_stat(tok)
                return Var(VarKind.INITIAL_TARGET_COUNT)
            if text == "S":
                self.expect("(")
                arg = self.next()
                if arg[0] != "string":
                    raise self.error(f"expected quoted attribute, got {arg[1]!r}", arg)
                self.expect(")")
                return StarCount(_ref_unquote(arg[1]))
            if text in ("ceil_k", "floor_k"):
                raise self.error(f"{text} only applies to a whole bound", tok)
        raise self.error(f"expected a value, got {text!r}", tok)

    def _check_initial_stat(self, tok) -> None:
        if self.kind is ConstraintKind.DIVERSITY:
            raise self.error(
                f"{tok[1]} reads the input relation; only fairness constraints may",
                tok,
                SemanticError,
            )


def reference_parse_line(line: str, line_no: int = 1) -> Constraint:
    """parse_constraint_line without lint, by the reference parser."""
    tokens = _ref_tokenize(line, line_no)
    if tokens[0][0] == "end":
        raise ParseError("expected a constraint", line_no, 1)
    return _RefLineParser(tokens, line_no).parse_constraint()


def reference_parse_file(text: str) -> list[Constraint]:
    """parse_constraints without lint, by the reference parser."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = _ref_tokenize(line, i)
        if tokens[0][0] != "end":
            out.append(_RefLineParser(tokens, i).parse_constraint())
    return out


# --- reference branch and bound ----------------------------------------------
# solve_exact as it stood before groups became bit masks: tuple projections
# joined cell by cell, each placement applied before any prune, and the
# count prunes recomputed from every group's members. It shares the leaf
# scoring by the group evaluator and the answer materialisation with the
# package.


def _row_matches(row: Sequence, part: Sequence[tuple[int, str]]) -> bool:
    return all(row[col] == v for col, v in part)


def _join(a: tuple, b: tuple) -> tuple:
    """Output QI projection of two groups put together: shared values kept."""
    return tuple(x if x == y else STAR for x, y in zip(a, b))


def _ref_static_bounds(problem: Problem) -> list[tuple]:
    """(target, lo, hi, QI part, other part) per constraint with a constant bound."""
    out = []
    qi_set = set(problem.qi)
    for c in problem.sigma:
        lo = max(0, math.ceil(c.lower.value)) if isinstance(c.lower, Literal) else None
        hi = max(0, math.floor(c.upper.value)) if isinstance(c.upper, Literal) else None
        if lo is None and hi is None:
            continue
        qi_part = []
        other_part = []
        for a, v in c.target.sorted_entries():
            col = problem.relation.column_index(a)
            (qi_part if a in qi_set else other_part).append((col, v))
        out.append((c.target, lo, hi, tuple(qi_part), tuple(other_part)))
    return out


def reference_solve_exact(problem: Problem):
    """solve_exact by the reference search; same results, counters included."""
    stats = SolverStats(
        prunes={"loss_bound": 0, "underfill": 0, "upper_bound": 0, "lower_bound": 0}
    )
    start = time.monotonic()
    relation = problem.relation
    n = relation.n_rows
    k = problem.k
    limits = problem.limits

    if n < k:
        stats.wall_time = time.monotonic() - start
        return Infeasible(f"{n} rows cannot form a group of size {k}", stats)

    statics = _ref_static_bounds(problem)
    for target, lo, _, _, _ in statics:
        if lo is not None and lo > count_target(relation, target):
            stats.wall_time = time.monotonic() - start
            return Infeasible(
                f"({target}) occurs {count_target(relation, target)} "
                f"time(s) in the input, below the lower bound {lo}",
                stats,
            )

    rows = relation.rows
    ev = _Evaluator(problem)
    qi_cols = [relation.column_index(a) for a in problem.qi]
    projections = [tuple(r[c] for c in qi_cols) for r in rows]

    qi_match = [[_row_matches(r, sb[3]) for r in rows] for sb in statics]
    full_match = [
        [qi_match[s][i] and _row_matches(rows[i], statics[s][4]) for i in range(n)]
        for s in range(len(statics))
    ]
    suffix_non_qi_match = [_suffix_counts([not m for m in qm]) for qm in qi_match]
    suffix_full_match = [_suffix_counts(fm) for fm in full_match]

    groups: list[list[int]] = []
    unis: list[tuple] = []
    loss = 0
    deficit = 0
    best = None

    def count_prunes_fail(next_row: int):
        for s, (_, lo, hi, _, _) in enumerate(statics):
            matching: list[int] = []
            total = 0
            for g in groups:
                if all(qi_match[s][i] for i in g):
                    contrib = sum(1 for i in g if full_match[s][i])
                    matching.append(contrib)
                    total += contrib
            if hi is not None:
                spare = len(matching) - suffix_non_qi_match[s][next_row]
                if spare > 0 and sum(sorted(matching)[:spare]) > hi:
                    return "upper_bound"
            if lo is not None:
                if total + suffix_full_match[s][next_row] < lo:
                    return "lower_bound"
        return None

    def placements(i: int):
        nonlocal loss, deficit
        proj = projections[i]
        for slot in range(len(groups) + 1):
            if slot == len(groups):
                groups.append([i])
                unis.append(proj)
                old_uni, added, filled = None, 0, 1 - k
            else:
                g = groups[slot]
                old_uni = unis[slot]
                unis[slot] = _join(old_uni, proj)
                added = (len(g) + 1) * unis[slot].count(STAR) - len(g) * old_uni.count(STAR)
                filled = int(len(g) < k)
                g.append(i)
            loss += added
            deficit -= filled
            try:
                if deficit > n - (i + 1):
                    stats.prunes["underfill"] += 1
                    continue
                if best is not None and loss >= best[0]:
                    stats.prunes["loss_bound"] += 1
                    continue
                reason = count_prunes_fail(i + 1)
                if reason is not None:
                    stats.prunes[reason] += 1
                    continue
                yield True
            finally:
                loss -= added
                deficit += filled
                if old_uni is None:
                    groups.pop()
                    unis.pop()
                else:
                    groups[slot].pop()
                    unis[slot] = old_uni

    stack = []
    aborted = False
    nodes = 0
    max_nodes, time_budget = limits.max_nodes, limits.time_budget
    while True:
        nodes += 1
        if (max_nodes is not None and nodes > max_nodes) or (
            time_budget is not None and time.monotonic() - start > time_budget
        ):
            aborted = True
            break
        depth = len(stack)
        if depth < n:
            stack.append(placements(depth))
        elif not deficit:
            totals = ev.totals(map(ev.summary, groups))
            if not ev.violations(totals) and (best is None or totals[0] < best[0]):
                best = (totals[0], Clustering([tuple(g) for g in groups]))
        while stack and not next(stack[-1], False):
            stack.pop()
        if not stack:
            break
    while stack:
        stack.pop().close()
    stats.nodes_expanded = nodes

    solution = None
    if best is not None:
        clustering = best[1]
        rp, reports = _evaluate(problem, clustering)
        solution = _make_solution(problem, clustering, rp, reports, not aborted, stats)
    stats.wall_time = time.monotonic() - start

    if aborted:
        return Aborted(solution, stats)
    if solution is None:
        return Infeasible("no clustering satisfies every constraint", stats)
    return solution
