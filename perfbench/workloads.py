"""The benchmark's workloads and its end-to-end metrics.

Every workload is a closed loop with one client: the harness starts the
next unit (one training run, or one sweep) only after the previous unit's
process has exited. The seed given to the harness is the task and trainer
seed of every unit, so repeated units must reproduce each other bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str                   # relative to the checkout root
    variants: tuple[str, ...]     # method trained by each unit, cycled in order
    target_acc: float             # threshold for time_to_target_s
    runs_per_unit: int = 1
    sweep_args: tuple[str, ...] = ()  # set only for the CLI sweep workload


# The time_to_target_s thresholds sit at or below the 1st percentile of the
# first-epoch target accuracy over seeds 200-399 at the commit that defined
# the benchmark, so there at least 99% of runs reach their target at the
# first evaluation. A change that slows early learning pushes that to a
# later epoch, and the metric then grows by whole epochs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moons_crma",
            "full 50-epoch crma run on two_moons.cfg (M=3, K=2): all four phases, "
            "378 tape entries per iteration, so engine, head and phase costs show most",
            "configs/two_moons.cfg",
            ("crma",),
            target_acc=0.50,
        ),
        Workload(
            "ablate_sweep",
            "crma ablate on two_moons.cfg with 2-epoch runs: 16 short runs that each pay task "
            "generation, model init and artifact writes, the only load on cli and data",
            "configs/two_moons.cfg",
            ("ablate",),
            target_acc=0.40,
            runs_per_unit=16,
            sweep_args=("--train.epochs=2", "--run.num_seeds=2"),
        ),
    )
}

# (name, unit, better, bound). On the shared 2-vCPU host the benchmark was
# written on, the host's speed swings between two levels about 1.5x apart
# for 10-40 s at a time, so the timing metrics spread between invocations
# (see README.md); the timing bounds are therefore the largest allowed.
# Accuracy varies with the seed; memory and success barely move.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("runs_per_min", "1/min", "higher", 0.25),
    ("iters_per_s", "1/s", "higher", 0.25),
    ("iter_ms_p50", "ms", "lower", 0.25),
    ("iter_ms_p90", "ms", "lower", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("target_acc", "share", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("success_share", "share", "higher", 0.01),
)
