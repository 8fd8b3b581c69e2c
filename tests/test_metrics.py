"""Run accounting: quantiles, summaries, cost-model speedup, rank bands,
invariant checks, and the CSV artifact formats."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import chain_template_model
from heterospec.control import HeteroConfig, decode_baseline
from heterospec.metrics import (
    BIN_OCCUPANCY_SCHEMA,
    ITERATIONS_SCHEMA,
    SUMMARY_SCHEMA,
    TCR_BY_ACCEPTED_SCHEMA,
    TCR_HISTOGRAM_SCHEMA,
    CostModel,
    IterationRecord,
    per_bin_stats,
    quantile_nearest_rank,
    read_iterations_csv,
    read_summary_csv,
    summarize,
    tcr_bands,
    tcr_histogram,
    tcr_quantiles,
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


def test_tokens_verified_equals_tree_size():
    assert rec(3, tree_size=11).tokens_verified == 11


def test_cost_model_arithmetic():
    cm = CostModel(c_call=1.0, c_tok=0.05, c_draft=0.02)
    records = [rec(5, tree_size=10, depth=5), rec(5, tree_size=20, depth=8)]
    assert cm.run_cost(records) == pytest.approx(1.6 + 2.16)
    assert cm.autoregressive_cost(100) == pytest.approx(105.0)


def test_quantile_nearest_rank():
    values = [float(v) for v in range(1, 21)]
    assert quantile_nearest_rank(values, 0.25) == 5.0
    assert quantile_nearest_rank(values, 0.50) == 10.0
    assert quantile_nearest_rank(values, 0.95) == 19.0
    assert quantile_nearest_rank(values, 1.0) == 20.0
    assert quantile_nearest_rank([7.0], 0.25) == 7.0
    assert quantile_nearest_rank(values, 0.001) == 1.0


def test_quantile_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile_nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        quantile_nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        quantile_nearest_rank([1.0], 1.2)


def test_tcr_quantiles_exclude_sentinels():
    records = [rec(5, tcr=t, iteration=i) for i, t in enumerate([1, 2, 3, 4])]
    records.append(rec(0, iteration=4))  # sentinel rank 19 must not smear p95
    quants = tcr_quantiles(records)
    assert quants == {"p25": 1, "p50": 2, "p75": 3, "p95": 4}
    assert tcr_quantiles([rec(0), rec(0)]) is None


def test_summarize_uniform_full_accepts():
    records = [rec(5, tcr=5, iteration=i) for i in range(10)]
    s = summarize(records)
    assert (s.prompts, s.calls, s.tokens, s.emitted) == (1, 10, 180, 60)
    assert s.tau == 6.0
    assert s.mean_accepted_len == 5.0
    assert s.speedup is None
    assert (s.tcr_p25, s.tcr_p50, s.tcr_p75, s.tcr_p95) == (5, 5, 5, 5)
    assert s.sentinels == 0
    assert tcr_histogram(records) == [(5, 10)]
    assert per_bin_stats(records) == [(-1, 10, 5.0)]


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
    assert s.tcr_p25 == int(quantile_nearest_rank(ranks, 0.25))
    assert s.tcr_p50 == int(quantile_nearest_rank(ranks, 0.50))
    assert s.tcr_p75 == int(quantile_nearest_rank(ranks, 0.75))
    assert s.tcr_p95 == int(quantile_nearest_rank(ranks, 0.95))
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


def test_tcr_histogram_and_per_bin_stats():
    records = [rec(5, tcr=1, iteration=0), rec(5, tcr=1, iteration=1),
               rec(2, tcr=4, iteration=2, bin=2), rec(0, iteration=3, bin=2)]
    assert tcr_histogram(records) == [(1, 2), (4, 1)]
    stats = per_bin_stats(records)
    assert stats == [(-1, 2, 5.0), (2, 2, 1.0)]


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


def test_iterations_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "iters.csv"
    path.write_text("# something-else v9\nprompt\n", encoding="utf-8")
    with pytest.raises(ValueError, match="schema"):
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
    assert tcr_histogram(res.records) == [(1, 10)]
    assert s.sentinels == 0
