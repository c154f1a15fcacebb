"""Committed benchmark records.

A ``BENCH_<n>.json`` at the root of the repository records the
alternating parent and change runs of ``bench/run.py`` behind a change:
the two commits, ``src.lines``, the host, and per workload the seeds,
each run's final JSON line as ``bench/run.py`` printed it, and each
metric's median with quartiles.  Each record must hold every workload of
``BENCHMARK.json``, and every run in it must be correct with no failed
operation.
"""

import json
import pathlib
from statistics import quantiles

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_every_workload_correct(path):
    record = json.loads(path.read_text())
    assert {"parent", "change", "src.lines", "host", "workloads"} <= record.keys()
    assert set(record["workloads"]) == WORKLOADS
    for name, workload in record["workloads"].items():
        for side in ("parent", "change"):
            runs = [json.loads(line) for line in workload[side]["runs"]]
            assert len(runs) == len(workload["seeds"]), (name, side)
            for run in runs:
                assert run["correct"] is True and run["failed"] == 0, (name, side, run)
            summary = workload[side]["summary"]
            assert set(summary) == set(runs[0]["metrics"]), (name, side)
            for metric, stats in summary.items():
                values = [run["metrics"][metric]["value"] for run in runs]
                q1, median, q3 = quantiles(values, n=4)
                assert stats == pytest.approx({"q1": q1, "median": median, "q3": q3}), (name, side, metric)
