"""Bit digests of a fixed list of two-epoch training runs.

For each configuration, trains one run and prints one line: its name, the
``parameters_digest`` of the final model, a sha256 of the history rows, a
sha256 of the ``save_checkpoint`` bytes, and the final target accuracy.
A change meant to keep every bit is checked by a ``diff`` of this output
at two checkouts:

    PYTHONPATH=src python3 scripts/bit_digests.py > after.txt

The script uses only the package's public names, so it runs unchanged on
an older checkout.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from crma.cli import build_experiment_config, parse_config_text
from crma.data import generate_task
from crma.nn import parameters_digest
from crma.trainer import save_checkpoint, train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EPOCHS = 2

# name -> (config file, config-key overrides, sources kept (None: all), uniform pseudo-label weights)
OFF = {"train.intra_da": "false", "train.inter_da": "false", "train.ast": "false"}
RUNS = {
    "moons_crma": ("two_moons.cfg", {}, None, False),
    "moons_all_off": ("two_moons.cfg", OFF, None, False),
    "moons_intra_off": ("two_moons.cfg", {"train.intra_da": "false"}, None, False),
    "moons_intra_only": ("two_moons.cfg", {**OFF, "train.intra_da": "true"}, None, False),
    "moons_uniform": ("two_moons.cfg", {}, None, True),
    "moons_sgd_deep_heads": ("two_moons.cfg", {"train.optimizer": "sgd", "train.head_hidden": "32,16"}, None, False),
    "moons_odd_rotations": ("two_moons.cfg", {"task.source_shifts.1.rotation_deg": "7.3",
                                              "task.source_shifts.2.rotation_deg": "-123.45",
                                              "task.target_shift.rotation_deg": "52.9"}, None, False),
    "moons_one_source": ("two_moons.cfg", {}, 1, False),
    "blobs4_no_head_hidden": ("asym_blobs.cfg", {"train.head_hidden": ""}, None, False),
    "blobs4_no_head_hidden_uniform": ("asym_blobs.cfg", {"train.head_hidden": ""}, None, True),
}


def digest_line(name: str) -> str:
    """``name params_digest history_sha256 checkpoint_sha256 final_acc`` of one run."""
    config_file, overrides, sources, uniform = RUNS[name]
    text = (CONFIGS / config_file).read_text()
    cfg = build_experiment_config({**parse_config_text(text), **overrides, "train.epochs": str(EPOCHS)})
    task_spec = cfg.task
    if sources is not None:
        task_spec = replace(task_spec, source_shifts=task_spec.source_shifts[:sources])
    train_cfg = replace(cfg.train, uniform_pseudo_weights=uniform)
    state, history = train(train_cfg, generate_task(task_spec))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.ckpt")
        save_checkpoint(state, path)
        checkpoint = hashlib.sha256(path.read_bytes()).hexdigest()
    rows = hashlib.sha256(repr(history).encode()).hexdigest()
    params = parameters_digest(state.model.parameters())
    return f"{name} {params} {rows} {checkpoint} {history[-1]['target_acc']!r}"


def main(names=None) -> None:
    for name in names or RUNS:
        print(digest_line(name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
