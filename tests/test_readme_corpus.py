"""The lab on real text: a frozen copy of the project's own README.

``data/readme-2c2ee05.txt`` holds the non-empty lines of README.md at
commit 2c2ee05, each stripped, one document per line. gen-corpus ->
compare runs on it through ``main`` in word and char mode, under the
default calibration filter and under ``accepting``. Many of its lines are
shorter than the 8-token prompt; calibrate and compare skip them with one
note line each. Every decode a run makes is greedy-exact, and each run's
outcome is pinned.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import check_decodes, recorded_decodes
from heterospec.cli import main

README_CORPUS = os.path.join(os.path.dirname(__file__), "data",
                             "readme-2c2ee05.txt")
README_SHA256 = "08e87003276e4cf24084aaba769d42fa802083616a70e6c251a61e455b8af902"
_COMMANDS = ("gen-corpus", "train-model", "calibrate", "compare")


def _skipped(count: int, of: int, split: str) -> str:
    return (f"heterospec: note: skipped {count} of {of} {split} documents "
            "shorter than prompts.prompt_tokens = 8\n")


def test_the_readme_corpus_is_the_frozen_file():
    with open(README_CORPUS, "rb") as fh:
        data = fh.read()
    assert hashlib.sha256(data).hexdigest() == README_SHA256
    assert (data.count(b"\n"), len(data)) == (416, 24901)


@pytest.mark.parametrize("mode,filter,ends", [
    ("word", "fully-accepted", (10, 12, 560, 607)),
    ("word", "accepting", (10, 12, 560, 704)),
    ("char", "fully-accepted",
     "heterospec: calibration: insufficient calibration samples: 2 distinct "
     "entropy values across 5 samples under filter 'fully-accepted' "
     "(need >= 8)\n"),
    ("char", "accepting", (1, 1, 1495, 1496)),
])
def test_the_readme_corpus_runs_to_its_pinned_end(tmp_path, mode, filter, ends):
    """``ends``: the calibration and eval documents skipped and the calls
    of the baseline and adaptive arms of a run that completes, or the one
    stderr line of a calibrate that exits 3."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"path": README_CORPUS},
                                "tokenization": mode,
                                "calibration": {"filter": filter}}),
                    encoding="utf-8")
    base = ["--config", str(path), "--out", str(tmp_path / "run")]
    outs, errs = {}, {}
    with recorded_decodes() as decodes:
        for command in _COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, *base])
            outs[command], errs[command] = out.getvalue(), err.getvalue()
            if code:
                break
    check_decodes(decodes, f"{mode} {filter}")
    if isinstance(ends, str):
        assert (command, code, errs[command]) == ("calibrate", 3, ends)
        return
    cal_skipped, eval_skipped, baseline_calls, adaptive_calls = ends
    assert code == 0
    assert errs == {"gen-corpus": "", "train-model": "",
                    "calibrate": _skipped(cal_skipped, 30, "calibration"),
                    "compare": _skipped(eval_skipped, 24, "eval")}
    rows = outs["compare"].splitlines()[1:]
    assert [row.split()[2] for row in rows] == [f"calls={baseline_calls}",
                                                f"calls={adaptive_calls}"]
    assert sorted(arm for arm, *_ in decodes) == (
        ["adaptive"] * (24 - eval_skipped) + ["baseline"] * (24 - eval_skipped)
        + ["calibration"] * (30 - cal_skipped))
