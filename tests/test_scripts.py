"""Smoke tests of the scripts under ``scripts/``, each run once at its smallest size."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_batch_scaling_times_one_unit(tmp_path, monkeypatch):
    # the script reaches perfbench's run.spawn, run.tally, run.stretch_percentiles,
    # run.child_env and WORKLOAD.variants; one unit at 8 rows per domain is one child process
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    spec = importlib.util.spec_from_file_location("batch_scaling", ROOT / "scripts" / "batch_scaling.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    times = script.one_unit(8, str(tmp_path))
    assert len(times) == 2 and all(math.isfinite(t) and t > 0 for t in times), times
