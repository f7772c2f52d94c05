"""Where the traced run wraps crma, and the per-layer metrics derived from it.

Each wrapped callable becomes a span named ``<layer>.<function>``; the
layer names are the package's modules. A function is wrapped where it
is defined and at every place another crma module bound it by import, so
``crma.nn.matmul`` and ``crma.autodiff.matmul`` both record
``autodiff.op.matmul``. Some names differ from the function they wrap:
``trainer.optimizer_step`` is ``SgdOptimizer.step``, ``data.next_batch``
is one ``next`` on the trainer's batch stream, and the ``cli.*`` writers
that live in ``crma.trainer`` are named after the layer that calls them.
"""

from __future__ import annotations

from spans import rebind

# Module-level functions of crma.autodiff and the Tensor methods that are ops.
OP_FUNCTIONS = ("matmul", "add_bias", "softmax", "add", "sub", "mul", "scalar_mul", "div")
OP_METHODS = ("abs", "relu", "log", "exp", "sum", "mean")
OPS = OP_FUNCTIONS + OP_METHODS

# (span name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("trainer.train", "trainer", "train"),
    ("trainer.step_source", "trainer", "step_source"),
    ("trainer.step_classifiers", "trainer", "step_classifiers"),
    ("trainer.step_extractor", "trainer", "step_extractor"),
    ("trainer.step_ast", "trainer", "step_ast"),
    ("trainer.evaluate", "trainer", "evaluate"),
    ("losses.source_ce_loss", "losses", "source_ce_loss"),
    ("losses.intra_consistency_loss", "losses", "intra_consistency_loss"),
    ("losses.inter_consistency_loss", "losses", "inter_consistency_loss"),
    ("losses.fuse_pseudo_labels", "losses", "fuse_pseudo_labels"),
    ("losses.ast_loss", "losses", "ast_loss"),
    ("data.generate_task", "data", "generate_task"),
    ("cli.build_experiment_config", "cli", "build_experiment_config"),
    ("cli.write_history_csv", "trainer", "write_history_csv"),
    ("cli.save_checkpoint", "trainer", "save_checkpoint"),
    ("cli.write_results", "cli", "write_results"),
) + tuple((f"autodiff.op.{op}", "autodiff", op) for op in OP_FUNCTIONS)

# (span name, module, class, method).
METHODS = (
    ("autodiff.backward", "autodiff", "Tape", "backward"),
    ("trainer.optimizer_step", "trainer", "SgdOptimizer", "step"),
    ("nn.forward_features", "nn", "CrmaModel", "forward_features"),
    ("nn.predict_pair", "nn", "CrmaModel", "predict_pair"),
    ("nn.final_prediction", "nn", "CrmaModel", "final_prediction"),
) + tuple((f"autodiff.op.{op}", "autodiff", "Tensor", op) for op in OP_METHODS)

TAPE_ENTRIES = "autodiff.tape_entries"

# Spans whose ``.ms`` is per call: they run once per epoch, run or sweep.
PER_CALL = {
    "trainer.evaluate",
    "nn.final_prediction",
    "data.generate_task",
    "cli.build_experiment_config",
    "cli.write_history_csv",
    "cli.save_checkpoint",
    "cli.write_results",
}
# Spans whose ``.ms`` is per training iteration.
PER_ITER = (
    "autodiff.backward",
    "trainer.step_source",
    "trainer.step_classifiers",
    "trainer.step_extractor",
    "trainer.step_ast",
    "trainer.optimizer_step",
    "nn.forward_features",
    "nn.predict_pair",
    "losses.source_ce_loss",
    "losses.intra_consistency_loss",
    "losses.inter_consistency_loss",
    "losses.fuse_pseudo_labels",
    "losses.ast_loss",
    "data.next_batch",
)
CALLS_PER_ITER = (
    "autodiff.backward",
    "trainer.optimizer_step",
    "nn.forward_features",
    "nn.predict_pair",
)


def crma_modules():
    import crma
    import crma.autodiff
    import crma.cli
    import crma.data
    import crma.losses
    import crma.nn
    import crma.seeds
    import crma.trainer

    return {
        "crma": crma,
        "autodiff": crma.autodiff,
        "cli": crma.cli,
        "data": crma.data,
        "losses": crma.losses,
        "nn": crma.nn,
        "seeds": crma.seeds,
        "trainer": crma.trainer,
    }


def instrument(recorder) -> None:
    """Wrap every traced crma callable with a span on ``recorder``."""
    mods = crma_modules()
    every = list(mods.values())
    for span_name, mod, attr in FUNCTIONS:
        rebind(every, mods[mod], attr, lambda fn, n=span_name: recorder.span(n, fn))
    for span_name, mod, cls, attr in METHODS:
        rebind(every, getattr(mods[mod], cls), attr, lambda fn, n=span_name: recorder.span(n, fn))
    rebind(every, mods["data"].BatchIterator, "__iter__",
           lambda fn: recorder.span_each_next("data.next_batch", fn))
    rebind(every, mods["autodiff"].Tape, "_record",
           lambda fn: recorder.count(TAPE_ENTRIES, fn))


# (name, unit, better) for every per-layer metric.
PER_LAYER = (
    ("autodiff.tape_entries_per_iter", "count/iter", "lower"),
    ("autodiff.forward.ms", "ms/iter", "lower"),
    *((f"{name}.ms", "ms/call" if name in PER_CALL else "ms/iter", "lower")
      for name in (*PER_ITER, *sorted(PER_CALL))),
    *((f"{name}.calls_per_iter", "count/iter", "lower") for name in CALLS_PER_ITER),
    *((f"autodiff.op.{op}.calls_per_iter", "count/iter", "lower") for op in OPS),
    *((f"autodiff.op.{op}.us", "us/call", "lower") for op in OPS),
    ("cli.train_share", "share", "higher"),
    ("bench.residual_share", "share", "lower"),
    ("bench.tracing_overhead_share", "share", "lower"),
)


def per_layer_metrics(summary: dict, counters: dict, overhead_share: float) -> dict:
    """Per-layer values from span summaries summed over the traced runs.

    Names absent from ``summary`` were never called and read as zero.
    """

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    iters = get("trainer.step_source", "calls")
    if iters < 1:
        raise ValueError("the traced runs made no training iteration")
    values = {
        "autodiff.tape_entries_per_iter": counters.get(TAPE_ENTRIES, 0) / iters,
        "autodiff.forward.ms": sum(get(f"autodiff.op.{op}", "self_ns") for op in OPS) / iters / 1e6,
    }
    for name in PER_ITER:
        values[f"{name}.ms"] = get(name, "self_ns") / iters / 1e6
    for name in PER_CALL:
        calls = get(name, "calls")
        values[f"{name}.ms"] = get(name, "self_ns") / calls / 1e6 if calls else 0.0
    for name in CALLS_PER_ITER:
        values[f"{name}.calls_per_iter"] = get(name, "calls") / iters
    for op in OPS:
        calls = get(f"autodiff.op.{op}", "calls")
        values[f"autodiff.op.{op}.calls_per_iter"] = calls / iters
        values[f"autodiff.op.{op}.us"] = (
            get(f"autodiff.op.{op}", "self_ns") / calls / 1e3 if calls else 0.0
        )
    sweep = get("cli.main", "total_ns")
    values["cli.train_share"] = get("trainer.train", "total_ns") / sweep if sweep else 0.0
    values["bench.residual_share"] = get("trainer.train", "self_ns") / get("trainer.train", "total_ns")
    values["bench.tracing_overhead_share"] = overhead_share
    return values
