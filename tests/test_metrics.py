"""Run accounting: quantiles, summaries, cost-model speedup, rank bands,
invariant checks, and the CSV artifact formats, whose codec is checked
against the ``csv`` module's (tests/csv_reference.py)."""
from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import astuple, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import csv_reference
from conftest import chain_template_model, tcr_bands
from heterospec import metrics
from heterospec.control import HeteroConfig, decode_baseline
from heterospec.errors import ConfigError
from heterospec.metrics import (
    BIN_OCCUPANCY_SCHEMA,
    ITERATION_FIELDS,
    ITERATIONS_SCHEMA,
    SUMMARY_FIELDS,
    SUMMARY_SCHEMA,
    TCR_BY_ACCEPTED_SCHEMA,
    TCR_HISTOGRAM_SCHEMA,
    CostModel,
    IterationRecord,
    RunSummary,
    quantiles_nearest_rank,
    read_iterations_csv,
    read_summary_csv,
    summarize,
    validate_run,
    write_bin_occupancy_csv,
    write_iterations_csv,
    write_summary_csv,
    write_tcr_by_accepted_csv,
    write_tcr_histogram_csv,
)


def rec(accepted_len: int, tcr: int | None = None, tree_size: int = 18,
        entropy: float = 1.0, bin: int = -1, depth: int = 5, top_n: int = 20,
        prompt: int = 0, iteration: int = 0) -> IterationRecord:
    if tcr is None:
        tcr = tree_size + 1 if accepted_len == 0 else accepted_len
    return IterationRecord(prompt=prompt, iteration=iteration, entropy=entropy,
                           bin=bin, draft_depth=depth, top_n=top_n,
                           tree_size=tree_size, accepted_len=accepted_len,
                           emitted=accepted_len + 1, tcr=tcr)


def report_rows(write, records, *edges) -> list[str]:
    """The data rows, as written, of one report table of ``records``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write(path, records, *edges)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read().split("\r\n")[1:-1]


def test_cost_model_arithmetic():
    cm = CostModel(c_call=1.0, c_tok=0.05, c_draft=0.02)
    records = [rec(5, tree_size=10, depth=5), rec(5, tree_size=20, depth=8)]
    assert cm.run_cost(records) == pytest.approx(1.6 + 2.16)
    assert cm.autoregressive_cost(100) == pytest.approx(105.0)


def test_quantile_nearest_rank():
    values = [float(v) for v in range(1, 21)]
    assert quantiles_nearest_rank(values, (0.25, 0.50, 0.95, 1.0, 0.001)) == \
        [5.0, 10.0, 19.0, 20.0, 1.0]
    assert quantiles_nearest_rank([7.0], (0.25,)) == [7.0]
    assert quantiles_nearest_rank([3.0, 1.0, 2.0], ()) == []


def test_quantile_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        quantiles_nearest_rank([], (0.5,))
    with pytest.raises(ValueError):
        quantiles_nearest_rank([1.0], (0.5, 0.0))
    with pytest.raises(ValueError):
        quantiles_nearest_rank([1.0], (1.2,))


def test_summary_rank_quantiles_exclude_sentinels():
    records = [rec(5, tcr=t, iteration=i) for i, t in enumerate([1, 2, 3, 4])]
    records.append(rec(0, iteration=4))  # sentinel rank 19 must not smear p95
    s = summarize(records)
    assert (s.tcr_p25, s.tcr_p50, s.tcr_p75, s.tcr_p95, s.sentinels) == \
        (1, 2, 3, 4, 1)
    s = summarize([rec(0), rec(0, iteration=1)])
    assert (s.tcr_p25, s.tcr_p50, s.tcr_p75, s.tcr_p95, s.sentinels) == \
        (None, None, None, None, 2)


def test_summarize_uniform_full_accepts():
    records = [rec(5, tcr=5, iteration=i) for i in range(10)]
    s = summarize(records)
    assert (s.prompts, s.calls, s.tokens, s.emitted) == (1, 10, 180, 60)
    assert s.tau == 6.0
    assert s.mean_accepted_len == 5.0
    assert s.speedup is None
    assert (s.tcr_p25, s.tcr_p50, s.tcr_p75, s.tcr_p95) == (5, 5, 5, 5)
    assert s.sentinels == 0
    assert report_rows(write_tcr_histogram_csv, records) == ["5,10", "sentinel,0"]
    assert report_rows(write_bin_occupancy_csv, records) == ["-1,-,-,10,5"]


def test_speedup_equals_tau_when_only_calls_cost():
    records = [rec(3, iteration=i) for i in range(7)] + [rec(0, iteration=7)]
    s = summarize(records, CostModel(c_call=1.0, c_tok=0.0, c_draft=0.0))
    assert s.speedup == s.tau  # exact float equality


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_quantiles_match_recount():
    rng = np.random.default_rng(21)
    records = []
    for i in range(200):
        a = int(rng.integers(0, 6))
        t = int(rng.integers(1, 19)) if a else 19
        records.append(rec(a, tcr=t, iteration=i))
    s = summarize(records)
    ranks = [float(r.tcr) for r in records if r.accepted_len >= 1]
    # a recount: the ceil(p*n)-th smallest rank
    ranks.sort()
    assert [s.tcr_p25, s.tcr_p50, s.tcr_p75, s.tcr_p95] == [
        int(ranks[math.ceil(p * len(ranks)) - 1]) for p in (0.25, 0.50, 0.75, 0.95)]
    assert s.sentinels == sum(1 for r in records if r.accepted_len == 0)


def test_tcr_bands_quartiles_over_budget():
    # budget 20: band edges 5, 10, 15, 20; sentinels overflow to the last
    records = ([rec(5, tcr=2, iteration=i) for i in range(4)]
               + [rec(3, tcr=7, iteration=9)]
               + [rec(1, tcr=20, iteration=10)]
               + [rec(0, tcr=21, iteration=11)])
    bands = tcr_bands(records, budget=20)
    assert bands[0] == (4, 5.0)
    assert bands[1] == (1, 3.0)
    assert bands[2] == (0, None)
    assert bands[3] == (2, 0.5)
    assert sum(c for c, _ in bands) == len(records)


def test_tcr_bands_overflow_rank_lands_last():
    bands = tcr_bands([rec(2, tcr=25)], budget=20)
    assert bands == [(0, None), (0, None), (0, None), (1, 2.0)]


def test_tcr_histogram_and_bin_occupancy_rows():
    records = [rec(5, tcr=1, iteration=0), rec(5, tcr=1, iteration=1),
               rec(2, tcr=4, iteration=2, bin=2), rec(0, iteration=3, bin=2)]
    assert report_rows(write_tcr_histogram_csv, records) == \
        ["1,2", "4,1", "sentinel,1"]
    # (bin, lo, hi, iterations, mean accepted length) per observed bin
    assert report_rows(write_bin_occupancy_csv, records) == \
        ["-1,-,-,2,5", "2,-,-,2,1"]


def test_validate_run_catalog():
    assert validate_run([rec(5, tcr=5)]) == []
    bad_emitted = IterationRecord(0, 0, 1.0, -1, 5, 20, 18, 5, 7, 5)
    assert "emitted != accepted_len + 1" in validate_run([bad_emitted])[0]
    bad_tcr = rec(5, tcr=25)  # tree_size 18 allows at most 19
    assert "outside [1, tree_size+1]" in validate_run([bad_tcr])[0]
    oversized = rec(5, tcr=5, tree_size=30)
    assert "> top_n" in validate_run([oversized])[0]
    too_deep = rec(7, tcr=7)  # draft_depth 5
    assert "exceeds draft depth" in validate_run([too_deep])[0]
    sentinel_accept = rec(2, tcr=19)
    assert "sentinel tcr" in validate_run([sentinel_accept])[0]
    ok = [rec(5, tcr=5), rec(0)]
    assert validate_run(ok, expected_emitted=7) == []
    assert "total emitted 7 != expected 9" in validate_run(ok, 9)[0]


# ------------------------------------------------------------- CSV files


def test_iterations_csv_round_trip(tmp_path):
    records = [rec(5, tcr=3, entropy=0.1 + 0.2, iteration=0),
               rec(0, entropy=1.75e-3, iteration=1, bin=4),
               rec(2, tcr=2, entropy=3.0, iteration=2, prompt=1)]
    path = str(tmp_path / "iters.csv")
    write_iterations_csv(path, records)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == ITERATIONS_SCHEMA
    assert read_iterations_csv(path) == records  # %.17g keeps floats exact


def test_decode_trace_records_are_immutable_and_round_trip(tmp_path):
    model, tpl = chain_template_model()
    result = decode_baseline(model, model, tpl[:4],
                             HeteroConfig(depth=3, top_k=2, top_n=8,
                                          max_new_tokens=12))
    first = result.records[0]
    with pytest.raises(AttributeError):
        first.tcr = 0
    assert first._replace(tcr=0).tcr == 0 and first.tcr != 0
    path = str(tmp_path / "iters.csv")
    write_iterations_csv(path, result.records)
    back = read_iterations_csv(path)
    assert back == result.records
    for got, want in zip(back, result.records):
        assert type(got) is IterationRecord
        assert [type(v) for v in got] == [type(v) for v in want]


def test_iterations_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "iters.csv"
    path.write_text("# something-else v9\nprompt\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="schema"):
        read_iterations_csv(str(path))


def test_iterations_csv_rejects_other_header_or_row_width(tmp_path):
    path = tmp_path / "iters.csv"
    write_iterations_csv(str(path), [rec(5, tcr=3), rec(2, tcr=2, iteration=1)])
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[1]
    for where, edited in (
            (2, [lines[0], header.replace("prompt,iteration", "iteration,prompt"),
                 *lines[2:]]),
            (2, [lines[0], *lines[2:]]),  # no header row
            (3, [*lines[:2], lines[2].rstrip("\r") + ",7\r", *lines[3:]]),
            (4, [*lines[:3], lines[3].rsplit(",", 1)[0] + "\r", *lines[4:]])):
        path.write_text("\n".join(edited), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{where}: "):
            read_iterations_csv(str(path))


def test_summary_csv_round_trip(tmp_path):
    records = [rec(5, tcr=5, iteration=i) for i in range(4)]
    s_base = summarize(records, CostModel())
    s_none = summarize([rec(0)])  # no accepting iterations: "-" quantiles
    path = str(tmp_path / "summary.csv")
    write_summary_csv(path, [("baseline", None, s_base), ("adaptive", 3, s_none)])
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == SUMMARY_SCHEMA
    rows = read_summary_csv(path)
    assert [r["arm"] for r in rows] == ["baseline", "adaptive"]
    assert rows[0]["alpha"] == "-" and rows[1]["alpha"] == "3"
    assert float(rows[0]["tau"]) == s_base.tau
    assert float(rows[0]["speedup"]) == s_base.speedup
    assert rows[1]["tcr_p50"] == "-" and rows[1]["speedup"] == "-"
    assert int(rows[1]["sentinels"]) == 1


def test_tcr_histogram_csv_golden(tmp_path):
    records = [rec(5, tcr=1, iteration=i) for i in range(3)] + \
        [rec(0, iteration=3), rec(0, iteration=4)]
    path = tmp_path / "hist.csv"
    write_tcr_histogram_csv(str(path), records)
    assert path.read_bytes() == (
        TCR_HISTOGRAM_SCHEMA.encode() + b"\nrank,count\r\n1,3\r\nsentinel,2\r\n")


def test_tcr_by_accepted_csv(tmp_path):
    records = [rec(5, tcr=2, iteration=0), rec(4, tcr=2, iteration=1),
               rec(1, tcr=9, iteration=2), rec(0, iteration=3)]
    path = tmp_path / "by.csv"
    write_tcr_by_accepted_csv(str(path), records)
    assert path.read_bytes() == (
        TCR_BY_ACCEPTED_SCHEMA.encode()
        + b"\ntcr,iterations,mean_accepted_len\r\n2,2,4.5\r\n9,1,1\r\n")


def test_bin_occupancy_csv_covers_model_bins(tmp_path):
    records = [rec(5, tcr=5, bin=0, iteration=0),
               rec(3, tcr=3, bin=0, iteration=1),
               rec(1, tcr=1, bin=2, iteration=2)]
    edges = [(0.0, 0.5), (0.5, 1.5), (1.5, float("inf"))]
    path = tmp_path / "occ.csv"
    write_bin_occupancy_csv(str(path), records, edges)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BIN_OCCUPANCY_SCHEMA
    assert lines[1] == "bin,lo,hi,iterations,mean_accepted_len"
    assert lines[2] == "0,0,0.5,2,4"
    assert lines[3] == "1,0.5,1.5,0,-"  # unvisited bin still reported
    assert lines[4].startswith("2,1.5,inf,1,")
    counts = [int(line.split(",")[3]) for line in lines[2:]]
    assert sum(counts) == len(records)


def test_bin_occupancy_csv_without_edges(tmp_path):
    records = [rec(2, tcr=2, bin=-1)]
    path = tmp_path / "occ.csv"
    write_bin_occupancy_csv(str(path), records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "-1,-,-,1,2"


def test_single_node_tree_rank_histogram_is_point_mass():
    # a perfect draft verified through a 1-node tree always terminates at
    # rank 1, the sharpest possible rank distribution
    model, tpl = chain_template_model()
    cfg = HeteroConfig(depth=1, top_k=1, top_n=1, max_new_tokens=20)
    res = decode_baseline(model, model, tpl[:6], cfg)
    s = summarize(res.records)
    assert report_rows(write_tcr_histogram_csv, res.records) == \
        ["1,10", "sentinel,0"]
    assert s.sentinels == 0


# ------------------------------------------- the codec against csv module

FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   st.floats())
INTS = st.integers(-2 ** 62, 2 ** 62)
RECORDS = st.lists(st.builds(IterationRecord, *(
    FLOATS if name == "entropy" else INTS for name in ITERATION_FIELDS)),
    max_size=12)
SUMMARIES = st.builds(RunSummary, *(
    FLOATS if f.type == "float" else
    st.none() | FLOATS if f.type == "float | None" else
    st.none() | INTS if f.type == "int | None" else INTS
    for f in fields(RunSummary)))
# arm names csv.writer writes without quotes
ARMS = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=8)
SUMMARY_ROWS = st.lists(st.tuples(ARMS, st.none() | INTS, SUMMARIES), max_size=3)
EDGES = st.none() | st.lists(st.tuples(FLOATS, FLOATS), max_size=4)
BOTH_ZEROS = [rec(1, entropy=0.0), rec(1, entropy=-0.0, iteration=1),
              rec(1, entropy=0.0, iteration=2)]


def _rows_by_column(columns):
    return [list(row) for row in zip(*columns)]


def _written_tables(tmp: str, records, summary_rows, edges) -> list:
    """(path, schema, header, rows, loose) of every table the five public
    writers write, each written to its own file in ``tmp``."""
    calls = []
    real = metrics._write_table

    def spy(path, schema, header, rows, loose=()):
        rows = list(rows)
        calls.append((path, schema, header, rows, loose))
        real(path, schema, header, rows, loose)

    with mock.patch.object(metrics, "_write_table", spy):
        write_iterations_csv(os.path.join(tmp, "iterations.csv"), records)
        write_summary_csv(os.path.join(tmp, "summary.csv"), summary_rows)
        write_tcr_histogram_csv(os.path.join(tmp, "histogram.csv"), records)
        write_tcr_by_accepted_csv(os.path.join(tmp, "by.csv"), records)
        write_bin_occupancy_csv(os.path.join(tmp, "occupancy.csv"), records, edges)
    assert [schema for _, schema, *_ in calls] == [
        ITERATIONS_SCHEMA, SUMMARY_SCHEMA, TCR_HISTOGRAM_SCHEMA,
        TCR_BY_ACCEPTED_SCHEMA, BIN_OCCUPANCY_SCHEMA]
    return calls


@given(RECORDS, SUMMARY_ROWS, EDGES)
@example([], [], None)  # zero rows in all but the histogram
@example(BOTH_ZEROS, [("baseline", None, summarize(BOTH_ZEROS))],
         [(-0.0, 0.0), (0.0, math.inf)])
def test_tables_are_written_and_read_as_the_csv_module_does(records, summary_rows,
                                                             edges):
    with tempfile.TemporaryDirectory() as tmp:
        for path, schema, header, rows, loose in _written_tables(
                tmp, records, summary_rows, edges):
            reference = os.path.join(tmp, "reference.csv")
            csv_reference.write_table(reference, schema, header, rows, loose)
            with open(path, "rb") as got, open(reference, "rb") as want:
                assert got.read() == want.read()
            assert metrics._read_csv(path, schema, header, _rows_by_column) == \
                csv_reference.read_table(path, schema, header)
        want = [dict(zip(SUMMARY_FIELDS, row)) for row in csv_reference.read_table(
            os.path.join(tmp, "summary.csv"), SUMMARY_SCHEMA, SUMMARY_FIELDS)]
        assert read_summary_csv(os.path.join(tmp, "summary.csv")) == want


@given(RECORDS)
@example(BOTH_ZEROS)
def test_iterations_csv_reads_back_what_it_wrote(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "iterations.csv")
        write_iterations_csv(path, records)
        back = read_iterations_csv(path)
    # repr tells -0.0 from 0.0 and finds nan equal to nan
    assert repr(back) == repr(records)
    assert all(type(r) is IterationRecord for r in back)


def test_a_float_memo_keeps_both_zeros(tmp_path):
    # 0.0 == -0.0 and they hash alike, so formatting each distinct value
    # once must not write them as one string
    path = tmp_path / "iterations.csv"
    write_iterations_csv(str(path), BOTH_ZEROS)
    assert [line.split(",")[2] for line in
            path.read_text(encoding="utf-8").splitlines()[2:]] == ["0", "-0", "0"]


@given(ARMS | st.text(max_size=4))
@example('a,b')
@example('a"b')
@example("a\rb")
@example("a\nb")
def test_writer_refuses_a_cell_the_csv_module_would_quote(arm):
    summary = summarize([rec(1)])
    with tempfile.TemporaryDirectory() as tmp:
        reference = os.path.join(tmp, "reference.csv")
        csv_reference.write_table(reference, SUMMARY_SCHEMA, SUMMARY_FIELDS,
                                  [(arm, None, *astuple(summary))],
                                  metrics._SUMMARY_LOOSE)
        with open(reference, "rb") as fh:
            want = fh.read()
        path = os.path.join(tmp, "summary.csv")
        if b'"' in want:  # csv.writer quoted the arm
            with pytest.raises(ValueError, match="a cell holds a comma, a "
                               "double quote or a line break"):
                write_summary_csv(path, [(arm, None, summary)])
        else:
            write_summary_csv(path, [(arm, None, summary)])
            with open(path, "rb") as fh:
                assert fh.read() == want


@pytest.mark.parametrize("lineno", [3, 5, 7], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [
    "0,1,x,-1,5,20,18,3,4,3", "0,1,0.5,-1,5,20,18,3,4", "0,1,0.5,-1,5,20,18,3,4,3,3",
    '0,"1",0.5,-1,5,20,18,3,4,3', "", "0,1,0.5,-1,5,20,18,3,4,3.0"],
    ids=["not-a-number", "short", "long", "quoted", "blank", "float-in-int"])
def test_bad_row_is_reported_at_its_line(tmp_path, lineno, bad):
    path = tmp_path / "iterations.csv"
    write_iterations_csv(str(path), [rec(2, tcr=2, iteration=i) for i in range(5)])
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    lines[lineno - 2] = bad  # line 1 ends in "\n", so it shares lines[0]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{lineno}: "
                       "bad row: ValueError"):
        read_iterations_csv(str(path))


_BLOCK = metrics._BLOCK_ROWS  # rows start at line 3, a block at 3 + k * _BLOCK


@pytest.mark.parametrize("lineno", [2 + _BLOCK, 3 + _BLOCK, 3 + 2 * _BLOCK,
                                    2 + 2 * _BLOCK + 40],
                         ids=["first-block-end", "second-block-start",
                              "third-block-start", "last"])
def test_bad_row_past_the_first_block_is_reported_at_its_line(tmp_path, lineno):
    path = tmp_path / "iterations.csv"
    records = [rec(i % 3, tcr=i % 3 + 1, iteration=i) for i in range(2 * _BLOCK + 40)]
    write_iterations_csv(str(path), records)
    assert read_iterations_csv(str(path)) == records
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    lines[lineno - 2] = "0,1,x,-1,5,20,18,3,4,3"
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{lineno}: "
                       "bad row: ValueError"):
        read_iterations_csv(str(path))
