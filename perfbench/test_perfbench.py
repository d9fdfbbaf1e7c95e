"""Tests of the benchmark's own arithmetic and of its output contract.

Run from the repository root::

    python -m pytest perfbench -q

The smoke test sets up a database and runs a small ext-scaling command
three times (about half a minute on two CPUs).
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from spans import (
    METRIC_NAME,
    Recorder,
    coverage,
    layer_totals,
    load_spans,
    percentile,
    self_times,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_nested_children():
    spans = [
        (0, -1, "campaign", None, 0.0, 10.0),
        (1, 0, "simulator", None, 1.0, 4.0),
        (2, 1, "managers", None, 2.0, 3.0),
        (3, 0, "simulator", None, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_counts_only_the_covered_part_of_a_child():
    # A child that starts before its parent (a caller-measured span, or
    # clock skew) only removes the overlap; overlapping children are
    # removed once.
    spans = [
        (0, -1, "render", None, 2.0, 6.0),
        (1, 0, "stats.qos_study", None, 1.0, 3.0),
        (2, 0, "stats.qos_study", None, 4.0, 5.0),
        (3, 0, "plan", None, 4.5, 5.5),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 1.0 - 1.5)


def test_coverage_merges_overlaps():
    assert coverage([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert coverage([]) == 0.0


def test_layer_totals_count_outermost_calls_only():
    spans = [
        (0, -1, "managers", None, 0.0, 4.0),
        (1, 0, "global_opt", None, 0.5, 1.5),
        (2, 1, "global_opt", None, 0.6, 1.0),
        (3, 0, "local_opt", None, 2.0, 3.0),
    ]
    totals = layer_totals(spans, lambda name: name)
    assert totals["managers"] == (1, pytest.approx(4.0), pytest.approx(2.0))
    assert totals["global_opt"] == (1, pytest.approx(1.0), pytest.approx(1.0))
    assert totals["local_opt"] == (1, pytest.approx(1.0), pytest.approx(1.0))


def test_percentile_rule():
    # Highest ladder percentile with at least ten samples beyond it.
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(80) == 75.0
    assert tail_percentile(108) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    # The published tail is the rule's answer for the smallest
    # simulating workload.
    refs = json.loads(run.REFERENCES.read_text())["workloads"]
    smallest = min(refs["scaling-full"]["unique"], refs["quick-cold"]["unique"])
    assert tail_percentile(smallest) == run.SPEC_TAIL


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)
    assert percentile(list(range(101)), 75.0) == pytest.approx(75.0)
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_metric_names_and_units_match_benchmark_json():
    for section, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        published = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]
        assert published == list(spec)
        for name, _unit, _better in spec:
            assert METRIC_NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [n for n, _u, _b in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))


def test_recorder_round_trip(tmp_path):
    rec = Recorder(tmp_path)
    outer = rec.wrap("campaign", lambda: inner())
    inner = rec.wrap("simulator", lambda: 7, tag=lambda: "c4")
    counted = rec.count("atd.observe_calls", lambda x: x)
    assert outer() == 7
    counted(1)
    counted(2)
    rec.flush()
    by_pid, counts, main_pid = load_spans(tmp_path)
    spans = by_pid[main_pid]
    assert [s[2] for s in spans] == ["simulator", "campaign"]
    assert spans[0][1] == spans[1][0] and spans[0][3] == "c4"
    assert counts == {"atd.observe_calls": 2}


SMOKE = run.Workload(
    "smoke",
    ("ext-scaling", "--quick", "--scaling-cores", "4", "--workers", "2"),
    True,
)
SMOKE_REF = {
    "headers": {
        "ext-scaling.csv": (
            "cores,workload,RM3 saving,violation rate,"
            "RM instr/invocation,RM work fraction"
        )
    },
    "planned": 8,
    "unique": 8,
    "digests": {},
}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    bench = run.Run(ROOT, SMOKE, 2020, 1, SMOKE_REF)
    try:
        metrics = bench.traced() if trace else bench.untraced()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert bench.problems == []
    spec = run.PER_LAYER if trace else run.END_TO_END
    out = io.StringIO()
    with redirect_stdout(out):
        run.print_result(bench, metrics, spec)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _better in spec
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert result["metrics"]["simulator.runs"]["value"] == 8
        assert result["metrics"]["results.writes"]["value"] == 8
    else:
        assert result["metrics"]["wall_s"]["value"] > 0
