"""Smoke tests of the scripts under ``scripts/``, each run once at its smallest size."""

import importlib.util
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_batch_scaling_times_one_unit(tmp_path, monkeypatch):
    # the script reaches perfbench's run.spawn, run.tally, run.stretch_percentiles,
    # run.child_env and WORKLOAD.variants; one unit at 8 rows per domain is one child process
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    script = load_script("batch_scaling")
    times = script.one_unit(8, str(tmp_path))
    assert len(times) == 2 and all(math.isfinite(t) and t > 0 for t in times), times


def test_bit_digests_prints_the_same_line_for_two_runs(capsys):
    script = load_script("bit_digests")
    for _ in range(2):
        script.main(["moons_one_source"])
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    name, *digests, accuracy = first.split()
    assert name == "moons_one_source" and 0.0 <= float(accuracy) <= 1.0
    assert len(digests) == 3 and all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
