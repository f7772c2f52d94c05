"""Batch-size scaling of moons_crma's training iteration, timed by perfbench.

For each rows-per-domain size, runs one untraced perfbench unit of the
moons_crma workload (a fresh ``perfbench/child.py`` process at one BLAS
thread) with ``train.batch_per_domain`` set to the size and ``train.epochs``
scaled so that every run trains about as many iterations as the workload's
50 epochs at 128 rows. Each unit gives perfbench's ``iter_ms_p50`` of its
run and the run's first iteration. Repeats are interleaved over the sizes.
Prints, per size, the median over repeats with its min and max, and a
least-squares line through the ``iter_ms_p50`` medians (fixed ms plus ms
per row).

    python3 scripts/batch_scaling.py
"""

import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS  # noqa: E402

SIZES = (8, 32, 64, 96, 128)
REPEATS = 5
SEED = 1
WORKLOAD = WORKLOADS["moons_crma"]


def one_unit(rows: int, workdir: str) -> tuple[float, float]:
    """(iter_ms_p50, first iteration ms) of one run at ``rows`` rows per domain."""
    overrides = [f"train.batch_per_domain={rows}", f"train.epochs={round(50 * rows / 128)}"]
    spec = {"workload": WORKLOAD.name, "seed": SEED, "variant": WORKLOAD.variants[0],
            "workdir": workdir, "overrides": overrides}
    unit = run.spawn(spec, run.child_env(), run.CHILD_TIMEOUT_S)
    _, failed, problems, good = run.tally(WORKLOAD, [], [unit])
    if failed or problems:
        raise SystemExit(f"{rows} rows: {problems}")
    iter_ms = good[0]["iter_ms"]
    return run.stretch_percentiles(iter_ms)[50], iter_ms[0]


def main() -> None:
    results = {rows: [] for rows in SIZES}
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(REPEATS):
            for rows in SIZES:
                results[rows].append(one_unit(rows, workdir))

    print(f"moons_crma, {REPEATS} repeats; ms, median [min-max] over repeats")
    print(f"rows  {'iter_ms_p50':>20}  {'first iteration':>20}")
    for rows in SIZES:
        cells = []
        for column in zip(*results[rows]):
            cells.append(f"{statistics.median(column):6.2f} [{min(column):5.2f}-{max(column):5.2f}]")
        print(f"{rows:4d}  " + "  ".join(f"{cell:>20}" for cell in cells))
    medians = [statistics.median(p50 for p50, _ in results[rows]) for rows in SIZES]
    slope, fixed = np.polyfit(SIZES, medians, 1)
    print(f"fit: {fixed:.2f} ms fixed + {slope * 1e3:.2f} us per row; at {SIZES[-1]} rows "
          f"{fixed:.2f} ms fixed and {slope * SIZES[-1]:.2f} ms proportional")


if __name__ == "__main__":
    main()
