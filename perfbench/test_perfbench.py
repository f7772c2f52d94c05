"""Tests of the benchmark itself: span math, the metric contract, tiny runs.

Run with ``python3 -m pytest perfbench``. The smoke tests shrink every
workload through config overrides, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
from spans import Recorder, rebind, self_times, summarize
from workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = (
    "task.samples_per_domain=64",
    "train.batch_per_domain=16",
    "train.epochs=2",
    "train.extractor_hidden=8,8",
    "train.head_hidden=4",
)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and b [50, 90]; b holds c [60, 70].
    starts = [0, 10, 50, 60]
    ends = [100, 40, 90, 70]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents).tolist() == [30, 30, 30, 10]


def test_self_time_rejects_negative_durations():
    with pytest.raises(ValueError):
        self_times([5], [4], [-1])


def test_summarize_sums_by_name():
    out = summarize(["f", "g"], [0, 1, 1, 0], [0, 1, 3, 10], [6, 2, 5, 12], [-1, 0, 0, -1])
    assert out == {
        "f": {"calls": 2, "self_ns": 5.0, "total_ns": 8.0},
        "g": {"calls": 2, "self_ns": 3.0, "total_ns": 3.0},
    }


def test_recorder_nests_spans_and_counts():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: next(ticks))
    inner = rec.span("inner", lambda x: x + 1)
    outer = rec.span("outer", lambda x: inner(x) * 2)
    counted = rec.count("calls", lambda: None)
    assert outer(1) == 4
    counted()
    counted()
    names, name_ids, starts, ends, parents = rec.arrays()
    assert [names[i] for i in name_ids] == ["outer", "inner"]
    assert parents.tolist() == [-1, 0]
    assert starts.tolist() == [0, 1] and ends.tolist() == [3, 2]
    assert rec.counters == {"calls": 2}


def test_span_each_next_times_every_item():
    rec = Recorder()

    class Stream:
        def __iter__(self):
            yield from range(3)

    rebind([], Stream, "__iter__", lambda fn: rec.span_each_next("next", fn))
    assert list(Stream()) == [0, 1, 2]
    names, name_ids, *_ = rec.arrays()
    assert len(name_ids) == 4  # three items, then the call that ends the stream


def test_rebind_replaces_every_binding_of_the_object():
    def f():
        return "f"

    owner = SimpleNamespace(f=f)
    importer = SimpleNamespace(alias=f, other=len)
    rebind([owner, importer], owner, "f", lambda fn: lambda: fn() + "!")
    assert owner.f() == "f!" and importer.alias() == "f!" and importer.other is len


def test_stretch_percentiles_average_whole_stretches():
    # Four whole stretches with medians 10, 15, 20, 20, and a partial one left out.
    iter_ms = [10.0] * 150 + [20.0] * 250 + [99.0] * 50
    assert run.STRETCH == 100
    assert run.stretch_percentiles(iter_ms)[50] == pytest.approx(16.25)
    assert run.percentiles(iter_ms)[50] == 20.0
    short = [1.0, 2.0, 3.0, 4.0]
    assert run.stretch_percentiles(short) == run.percentiles(short)


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(layers.PER_LAYER)


def test_benchmark_json_keeps_the_format_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in BENCHMARK["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8 and len(BENCHMARK["per_layer"]) <= 128
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_per_layer_metrics_names_every_layer_metric():
    summary = {"trainer.step_source": {"calls": 4, "self_ns": 1e6, "total_ns": 2e6},
               "trainer.train": {"calls": 1, "self_ns": 1e6, "total_ns": 9e6}}
    values = layers.per_layer_metrics(summary, {layers.TAPE_ENTRIES: 40}, 0.1)
    assert set(values) == {m[0] for m in layers.PER_LAYER}
    assert values["autodiff.tape_entries_per_iter"] == 10
    assert values["trainer.step_source.ms"] == 0.25


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_end_to_end(name, tmp_path):
    workload = WORKLOADS[name]
    probes, units = run.measure(workload, 3, 0, run.child_env(), tmp_path, TINY)
    attempted, failed, problems, good = run.tally(workload, probes, units)
    assert problems == [] and failed == 0
    assert attempted == (len(workload.variants) + 1) * workload.runs_per_unit
    values = run.end_to_end(units, probes, good, attempted, failed)
    assert set(values) == {m[0] for m in END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in values.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    workload = WORKLOADS[name]
    untraced, traced = run.measure_traced(workload, 3, run.child_env(), tmp_path, TINY)
    attempted, failed, problems, _ = run.tally(workload, [], untraced + traced)
    assert problems == [] and failed == 0  # traced runs reproduce the untraced digests
    values = run.layer_values(untraced, traced)
    assert set(values) == {m[0] for m in layers.PER_LAYER}
    assert values["autodiff.tape_entries_per_iter"] > 0
    again = run.layer_values(untraced, run.measure_traced(
        workload, 3, run.child_env(), tmp_path, TINY)[1])
    counts = [m[0] for m in layers.PER_LAYER if m[1] == "count/iter"]
    assert {n: values[n] for n in counts} == {n: again[n] for n in counts}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moons_crma", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
