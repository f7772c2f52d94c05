"""Bit digests of a fixed list of two-epoch training runs.

The first line names the host class, whose float64 bits the digests hold:

    host numpy=<version> dispatch=<level> openblas=<version> core=<core>

``dispatch`` is the highest of numpy's dispatch targets that is enabled
together with every lower one (numpy's baseline when none is), and ``core``
the kernel set OpenBLAS picked at load time; a field that cannot be read is
``?``. So a diff across hosts shows why their digests differ. Then, for each
configuration, trains one run and prints one line: its name, the
``parameters_digest`` of the final model, a sha256 of the history rows, a
sha256 of the ``save_checkpoint`` bytes, and the final target accuracy.
A change meant to keep every bit is checked by a ``diff`` of this output
at two checkouts:

    PYTHONPATH=src python3 scripts/bit_digests.py > after.txt

The script uses only the package's public names, so it runs unchanged on
an older checkout.
"""

import ctypes
import hashlib
import itertools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

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


def host_class() -> str:
    """``host numpy=... dispatch=... openblas=... core=...``, each field ``?`` when it cannot be read."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
        enabled = itertools.takewhile(__cpu_features__.get, __cpu_dispatch__)
        dispatch = [*__cpu_baseline__, *enabled][-1]
    except (ImportError, IndexError):
        dispatch = "?"
    openblas = core = "?"
    package = Path(np.__file__).parent
    for path in [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
            get_config, get_core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get_config.restype = get_core.restype = ctypes.c_char_p
        config = get_config().decode().split()  # "OpenBLAS <version> <build options>"
        openblas = config[1] if len(config) > 1 else "?"
        core = get_core().decode()
        break
    return f"host numpy={np.__version__} dispatch={dispatch} openblas={openblas} core={core}"


def main(names=None) -> None:
    print(host_class(), flush=True)
    for name in names or RUNS:
        print(digest_line(name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
