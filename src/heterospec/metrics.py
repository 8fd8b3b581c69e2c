"""Per-iteration records, run summaries, cost-model speedup, CSV tables.

Acceptance rate tau is emitted tokens per verification call. The cost
model prices one decoding iteration as a fixed call cost plus a per-token
verification cost plus a per-layer drafting cost, and compares against
plain autoregressive decoding, which pays one call and one verified token
per emitted token. ``summarize`` takes the rank quantiles of accepting
iterations itself, and each report table's writer tallies its own rows.

Every CSV table is a schema line ending in "\\n", a header row and one row
per record, each ending in "\\r\\n", with floats as ``fmt_float`` gives them
and a missing value as "-". Cells are never quoted: a cell holding a comma,
a double quote or a line break cannot be written, and a row holding a
double quote is refused when read. The tables are written and parsed a
column at a time, with no ``csv`` module: the writer transposes the rows
and formats each column once per distinct value; the reader takes the
rows in blocks of a few hundred, splits each row of a block on "," and
casts each column once per distinct cell. Only when that fails does it go
row by row through the block, to report the first bad line. A table is
read back only if its first two lines are the written ones, each row
parsed by position into the fields of ``IterationRecord`` or
``RunSummary``. An ``IterationRecord`` is an immutable named tuple, so it
is its own trace row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice, repeat
from operator import attrgetter, contains
from typing import NamedTuple, get_type_hints

from .errors import ConfigError, check_setting, finite, utf8_errors

ITERATIONS_SCHEMA = "# heterospec-iterations v1"
SUMMARY_SCHEMA = "# heterospec-summary v1"
TCR_HISTOGRAM_SCHEMA = "# heterospec-tcr-histogram v1"
TCR_BY_ACCEPTED_SCHEMA = "# heterospec-tcr-by-accepted v1"
BIN_OCCUPANCY_SCHEMA = "# heterospec-bin-occupancy v1"


class IterationRecord(NamedTuple):
    prompt: int
    iteration: int
    entropy: float
    bin: int  # -1 when no binning model was consulted
    draft_depth: int
    top_n: int
    tree_size: int
    accepted_len: int
    emitted: int
    tcr: int  # 1-based value-order rank; tree_size + 1 when nothing accepted


@dataclass(frozen=True)
class CostModel:
    c_call: float = 1.0  # fixed cost of one target call
    c_tok: float = 0.05  # per verified token
    c_draft: float = 0.02  # per draft layer

    def __post_init__(self):
        check_setting(finite(self.c_call) and self.c_call > 0,
                      "cost.c_call", "finite and > 0", self.c_call)
        for key in ("c_tok", "c_draft"):
            value = getattr(self, key)
            check_setting(finite(value) and value >= 0, f"cost.{key}",
                          "finite and >= 0", value)

    def run_cost(self, records: list[IterationRecord]) -> float:
        return sum(self.c_call + self.c_tok * r.tree_size
                   + self.c_draft * r.draft_depth for r in records)

    def autoregressive_cost(self, emitted: int) -> float:
        return emitted * (self.c_call + self.c_tok)


@dataclass(frozen=True)
class RunSummary:
    prompts: int
    calls: int
    tokens: int
    emitted: int
    tau: float
    mean_accepted_len: float
    speedup: float | None
    # rank quantiles cover accepting iterations only; None when there are
    # none. Iterations that accepted nothing are counted in sentinels.
    tcr_p25: int | None
    tcr_p50: int | None
    tcr_p75: int | None
    tcr_p95: int | None
    sentinels: int


# trace and summary columns, the record fields in declaration order; a
# loose column (see _write_table) is one whose field is not typed int
ITERATION_FIELDS = IterationRecord._fields
_ITERATION_CASTS = tuple(map(get_type_hints(IterationRecord).get, ITERATION_FIELDS))
_ITERATION_LOOSE = tuple(i for i, cast in enumerate(_ITERATION_CASTS) if cast is float)
SUMMARY_FIELDS = ("arm", "alpha", *(f.name for f in fields(RunSummary)))
_SUMMARY_LOOSE = (1, *(i for i, f in enumerate(fields(RunSummary), 2)
                       if f.type != "int"))


def quantiles_nearest_rank(values: list[float], levels) -> list[float]:
    """Nearest-rank quantile at each level: the ceil(p*n)-th smallest value.
    The values are sorted once for all levels."""
    if not values:
        raise ValueError("quantile of empty list")
    for p in levels:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile level must be in (0, 1], got {p}")
    ordered = sorted(values)
    return [ordered[max(0, math.ceil(p * len(ordered)) - 1)] for p in levels]


def _tally(pairs) -> list[tuple[int, int, float]]:
    """(key, count, mean value) per key of (key, value) pairs, ascending key."""
    groups: dict[int, list[int]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return [(k, len(vs), sum(vs) / len(vs)) for k, vs in sorted(groups.items())]


def _by_rank(records: list[IterationRecord]) -> list[tuple[int, int, float]]:
    """(rank, count, mean accepted length) over accepting iterations."""
    return _tally((r.tcr, r.accepted_len) for r in records if r.accepted_len >= 1)


def summarize(records: list[IterationRecord],
              cost_model: CostModel | None = None) -> RunSummary:
    if not records:
        raise ValueError("cannot summarize an empty run")
    calls = len(records)
    tokens = sum(r.tree_size for r in records)
    emitted = sum(r.emitted for r in records)
    # sentinel ranks of nothing-accepted iterations would smear the upper
    # quantiles, so they are left out and counted in sentinels
    ranks = [r.tcr for r in records if r.accepted_len >= 1]
    p25, p50, p75, p95 = (quantiles_nearest_rank(ranks, (0.25, 0.5, 0.75, 0.95))
                          if ranks else (None,) * 4)
    speedup = None
    if cost_model is not None:
        speedup = (cost_model.autoregressive_cost(emitted)
                   / cost_model.run_cost(records))
    return RunSummary(
        prompts=len({r.prompt for r in records}),
        calls=calls,
        tokens=tokens,
        emitted=emitted,
        tau=emitted / calls,
        mean_accepted_len=sum(r.accepted_len for r in records) / calls,
        speedup=speedup,
        tcr_p25=p25, tcr_p50=p50, tcr_p75=p75, tcr_p95=p95,
        sentinels=sum(1 for r in records if r.accepted_len == 0),
    )


def validate_run(records: list[IterationRecord],
                 expected_emitted: int | None = None) -> list[str]:
    """Accounting invariants every run must satisfy; returns violations."""
    problems: list[str] = []
    for (prompt, iteration, _, _, depth, top_n, size, accepted, emitted,
         tcr) in records:
        found = []
        if emitted != accepted + 1:
            found.append("emitted != accepted_len + 1")
        if not 1 <= tcr <= size + 1:
            found.append(f"tcr {tcr} outside [1, tree_size+1]")
        if size > top_n:
            found.append(f"tree_size {size} > top_n {top_n}")
        if accepted > depth:
            found.append("accepted_len exceeds draft depth")
        if accepted and tcr > size:
            found.append("sentinel tcr with nonzero acceptance")
        if found:  # the location is formatted only for a failing record
            problems += [f"prompt {prompt} iteration {iteration}: {p}"
                         for p in found]
    if expected_emitted is not None:
        total = sum(r.emitted for r in records)
        if total != expected_emitted:
            problems.append(f"total emitted {total} != expected {expected_emitted}")
    return problems


def fmt_float(x: float) -> str:
    """The one float format of every artifact; reads back to the same double."""
    return "%.17g" % x


def _each(fn, values) -> list:
    """``fn`` of each of ``values``, called once per distinct value."""
    memo = {v: fn(v) for v in set(values)}
    return list(map(memo.__getitem__, values))


def _loose_cell(value) -> str:
    return "-" if value is None else fmt_float(value)


def _loose_cells(values: tuple) -> list[str]:
    """``_loose_cell`` of each value. ``_each`` formats equal values once,
    and 0.0 == -0.0, so when the column holds a zero, its zeros are
    formatted one by one."""
    cells = _each(_loose_cell, values)
    if 0 in values:
        cells = [fmt_float(v) if v == 0 else c for v, c in zip(values, cells)]
    return cells


def _write_table(path: str, schema: str, header: tuple[str, ...], rows,
                 loose: tuple[int, ...] = ()) -> None:
    """The schema line, the header row, then ``rows``, a column at a time.
    A cell in a ``loose`` column is a number, written by ``fmt_float``, or
    None, written as "-"; every other cell is an int or a string, written
    by ``str``. Each column is formatted once per distinct value. Every row
    must have one cell per header name, and no cell may hold a comma, a
    double quote or a line break."""
    columns = [column[1:] for column in zip(header, *rows, strict=True)]
    cells = [_loose_cells(column) if i in loose else _each(str, column)
             for i, column in enumerate(columns)]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    text = schema + "\n" + "\r\n".join(lines) + "\r\n"
    # the format has no quoting, so any extra separator came from a cell
    if '"' in text or text.count(",") != len(lines) * (len(header) - 1) \
            or text.count("\n") != len(lines) + 1 \
            or text.count("\r") != len(lines):
        raise ValueError(f"{path}: a cell holds a comma, a double quote or "
                         "a line break")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _columns(lines: list[str], width: int) -> list[tuple[str, ...]]:
    """The cells of ``lines``, at least one, split on ",", by column;
    ValueError unless each line holds ``width`` cells and no double
    quote."""
    if any(map(contains, lines, repeat('"'))):
        raise ValueError("quoted cell: cells are never quoted")
    columns = list(zip(*map(str.split, lines, repeat(",")), strict=True))
    if len(columns) != width:
        raise ValueError(f"{len(columns)} cells, expected {width}")
    return columns


_BLOCK_ROWS = 256  # rows split and cast together, so few cells live at once


def _read_csv(path: str, schema: str, header: tuple[str, ...], parse) -> list:
    """The lists ``parse(columns)`` gives for each block of up to
    ``_BLOCK_ROWS`` rows, the cells by column in header order, joined, of
    a table whose schema line and header row are the written ones. Rows
    may end in "\\r\\n", "\\n" or "\\r". When a block's rows cannot be
    parsed together, each is parsed alone to fail at the first bad line."""
    out = []
    with utf8_errors(path), open(path, "r", encoding="utf-8", newline="") as fh:
        if (first := fh.readline().rstrip("\n")) != schema:
            raise ConfigError(f"{path}:1: unexpected schema line {first!r}")
        second = fh.readline()
        if (got := second.rstrip("\r\n").split(",") if second else None) \
                != list(header):
            raise ConfigError(f"{path}:2: unexpected header row {got!r}")
        lineno = 3  # of the block's first row
        while rows := [row.rstrip("\r\n") for row in islice(fh, _BLOCK_ROWS)]:
            try:
                out += parse(_columns(rows, len(header)))
            except ValueError:
                for at, row in enumerate(rows, lineno):
                    try:
                        parse(_columns([row], len(header)))
                    except ValueError as exc:
                        raise ConfigError(f"{path}:{at}: bad row: {exc!r}") from None
                raise  # no row fails alone
            lineno += len(rows)
    return out


def write_iterations_csv(path: str, records: list[IterationRecord]) -> None:
    _write_table(path, ITERATIONS_SCHEMA, ITERATION_FIELDS, records,
                 _ITERATION_LOOSE)


def _iteration_records(columns: list[tuple[str, ...]]) -> list[IterationRecord]:
    casts = [_each(cast, column)
             for cast, column in zip(_ITERATION_CASTS, columns)]
    # tuple.__new__ is what IterationRecord._make calls, minus a Python frame
    return list(map(tuple.__new__, repeat(IterationRecord), zip(*casts)))


def read_iterations_csv(path: str) -> list[IterationRecord]:
    return _read_csv(path, ITERATIONS_SCHEMA, ITERATION_FIELDS, _iteration_records)


def write_summary_csv(path: str,
                      rows: list[tuple[str, int | None, RunSummary]]) -> None:
    """Each row is (arm name, alpha or None, summary)."""
    _write_table(path, SUMMARY_SCHEMA, SUMMARY_FIELDS,
                 ((arm, alpha, *attrgetter(*SUMMARY_FIELDS[2:])(s))
                  for arm, alpha, s in rows),
                 _SUMMARY_LOOSE)


def _summary_rows(columns: list[tuple[str, ...]]) -> list[dict[str, str]]:
    for column in columns[1:]:
        for value in column:
            if value != "-":
                float(value)
    return [dict(zip(SUMMARY_FIELDS, row)) for row in zip(*columns)]


def read_summary_csv(path: str) -> list[dict[str, str]]:
    """Rows by column name, as written; all but the arm hold a number or "-"."""
    return _read_csv(path, SUMMARY_SCHEMA, SUMMARY_FIELDS, _summary_rows)


def write_tcr_histogram_csv(path: str,
                            records: list[IterationRecord]) -> None:
    """Rank histogram over accepting iterations plus one sentinel row
    counting the iterations that accepted nothing."""
    rows = [(rank, count) for rank, count, _ in _by_rank(records)]
    rows.append(("sentinel", sum(1 for r in records if r.accepted_len == 0)))
    _write_table(path, TCR_HISTOGRAM_SCHEMA, ("rank", "count"), rows)


def write_tcr_by_accepted_csv(path: str,
                              records: list[IterationRecord]) -> None:
    """Mean accepted length per terminal rank, accepting iterations only."""
    _write_table(path, TCR_BY_ACCEPTED_SCHEMA,
                 ("tcr", "iterations", "mean_accepted_len"), _by_rank(records),
                 (2,))


def write_bin_occupancy_csv(path: str, records: list[IterationRecord],
                            edges: list[tuple[float, float]] | None = None) -> None:
    """Iteration count and mean accepted length per entropy bin. Bins that
    exist in the binning model but saw no iterations still get a row, so
    the count column always sums to the number of iterations."""
    stats = {b: (c, m) for b, c, m in
             _tally((r.bin, r.accepted_len) for r in records)}
    by_bin = dict(enumerate(edges or []))
    rows = [(b, *by_bin.get(b, (None, None)), *stats.get(b, (0, None)))
            for b in sorted(by_bin.keys() | stats.keys())]
    _write_table(path, BIN_OCCUPANCY_SCHEMA,
                 ("bin", "lo", "hi", "iterations", "mean_accepted_len"), rows,
                 (1, 2, 4))
