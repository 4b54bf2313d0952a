"""Tabular data model with a suppression mark.

A relation is an immutable header plus rows of cells. A cell is either a
concrete string value or the suppression mark ``STAR``. Row order is
preserved from ingestion: the row index is the row's identity.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from operator import countOf, itemgetter
from typing import Iterable, Sequence, Union

from .errors import ContractError, IngestError, SchemaError


class _Star:
    """Singleton suppression mark. Matches no concrete value, only itself."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "STAR"

    def __reduce__(self):
        return (_Star, ())


STAR = _Star()

Cell = Union[str, _Star]


def is_star(cell: Cell) -> bool:
    return cell is STAR


@dataclass(frozen=True)
class Relation:
    """An ordered schema and a list of rows of cells.

    Invariants enforced at construction: attribute names are unique and
    non-empty, and every row has exactly one cell per attribute.
    """

    schema: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __init__(self, schema: Iterable[str], rows: Iterable[Iterable[Cell]]):
        schema = tuple(schema)
        if any(not isinstance(a, str) or not a for a in schema):
            raise SchemaError("attribute names must be non-empty strings")
        dupes = [a for a, n in Counter(schema).items() if n > 1]
        if dupes:
            raise SchemaError(f"duplicate attribute name(s): {', '.join(sorted(dupes))}")
        frozen_rows = tuple(map(tuple, rows))
        for i, row in enumerate(frozen_rows):
            if len(row) != len(schema):
                raise ContractError(
                    f"row {i}: expected {len(schema)} cells, got {len(row)}"
                )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", frozen_rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, attribute: str) -> int:
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise SchemaError(f"unknown attribute: {attribute!r}") from None

    def column(self, attribute: str) -> tuple[Cell, ...]:
        idx = self.column_index(attribute)
        return tuple(row[idx] for row in self.rows)


@dataclass(frozen=True)
class TargetValue:
    """A set of (attribute, concrete value) pairs counted together per row.

    Pairs use distinct attributes and never the suppression mark. Subset
    comparison is pairwise: one target is contained in another when every
    one of its pairs appears in the other.
    """

    entries: frozenset[tuple[str, str]] = field()

    def __init__(self, entries: Iterable[tuple[str, str]]):
        pairs = frozenset(entries)
        if not pairs:
            raise ContractError("target value must have at least one pair")
        attrs = [a for a, _ in pairs]
        if len(set(attrs)) != len(attrs):
            raise ContractError("target value repeats an attribute")
        for a, v in pairs:
            if not isinstance(v, str):
                raise ContractError(f"target value for {a!r} must be a concrete string")
        object.__setattr__(self, "entries", pairs)

    @classmethod
    def of(cls, **pairs: str) -> "TargetValue":
        return cls(pairs.items())

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.entries)

    def sorted_entries(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.entries))

    def issubset(self, other: "TargetValue") -> bool:
        return self.entries <= other.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ", ".join(f'{a}="{v}"' for a, v in self.sorted_entries())


def load_relation(csv_text: str | bytes, star_token: str = "*") -> Relation:
    """Read a header-first CSV into a relation.

    Data cells equal to ``star_token`` become the suppression mark; every
    other cell is kept verbatim as a concrete value.
    """
    if not star_token:
        raise ContractError("star token must be non-empty")
    if isinstance(csv_text, bytes):
        csv_text = csv_text.decode("utf-8")
    reader = csv.reader(io.StringIO(csv_text))
    rows: list[tuple[Cell, ...]] = []
    try:
        header = next(reader, None)
        if not header or all(not h for h in header):
            raise IngestError("empty input: missing header row")
        dupes = [a for a, n in Counter(header).items() if n > 1]
        if dupes:
            raise IngestError(f"duplicate header name(s): {', '.join(sorted(dupes))}")
        if any(not h for h in header):
            raise IngestError("blank attribute name in header")

        width = len(header)
        for i, raw in enumerate(reader):
            if len(raw) != width:
                raise IngestError(f"row {i}: expected {width} cells, got {len(raw)}")
            if star_token in raw:
                raw = [STAR if cell == star_token else cell for cell in raw]
            rows.append(tuple(raw))
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        raise IngestError(f"CSV line {reader.line_num}: {e}") from None
    return Relation(header, rows)


def dump_relation(relation: Relation, star_token: str = "*") -> str:
    """Render a relation back to CSV, writing the star token literally."""
    if not star_token:
        raise ContractError("star token must be non-empty")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(relation.schema)
    for row in relation.rows:
        writer.writerow([star_token if is_star(c) else c for c in row])
    return out.getvalue()


def count_target(relation: Relation, target: TargetValue) -> int:
    """Number of rows that carry every (attribute, value) pair of the target.

    The suppression mark never matches a concrete value.
    """
    entries = target.sorted_entries()
    get = itemgetter(*(relation.column_index(a) for a, _ in entries))
    want = entries[0][1] if len(entries) == 1 else tuple(v for _, v in entries)
    return countOf(map(get, relation.rows), want)


def count_stars(relation: Relation, attribute: str) -> int:
    """Number of suppressed cells in one attribute."""
    return countOf(map(itemgetter(relation.column_index(attribute)), relation.rows), STAR)


def refines(original: Relation, suppressed: Relation) -> bool:
    """True when ``suppressed`` equals ``original`` up to cell suppression.

    Requires identical schema and row count; each cell either matches the
    original or has been replaced by the suppression mark. Rewriting one
    concrete value to another is not refinement.
    """
    if original.schema != suppressed.schema:
        return False
    if original.n_rows != suppressed.n_rows:
        return False
    for row_a, row_b in zip(original.rows, suppressed.rows):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_b != cell_a and not is_star(cell_b):
                return False
    return True


def _check_qi(relation: Relation, qi: Sequence[str]) -> tuple[int, ...]:
    """The column index of each QI attribute, which must be known and listed once."""
    if not qi:
        raise SchemaError("quasi-identifier set must be non-empty")
    indices = []
    for i, a in enumerate(qi):
        indices.append(relation.column_index(a))  # raises SchemaError when unknown
        if a in qi[:i]:  # its stars would count twice
            raise ContractError(f"quasi-identifier {a!r} is listed twice")
    return tuple(indices)


def is_k_anonymous(relation: Relation, qi: Sequence[str], k: int) -> bool:
    """Every row's quasi-identifier projection occurs at least k times.

    The suppression mark is an ordinary symbol here: star matches star.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    indices = _check_qi(relation, qi)
    counts = Counter(tuple(row[i] for i in indices) for row in relation.rows)
    return all(n >= k for n in counts.values())


def info_loss(relation: Relation) -> int:
    """Total number of suppressed cells across the whole relation."""
    return sum(count_stars(relation, a) for a in relation.schema)
