"""Four-phase alternating training loop with confidence tracking.

Every iteration consumes one DomainBatch and runs, in order: source
supervision on all parameters, the classifier-side consistency
maximization (minimizing source CE minus the intra consistency), the
extractor-side consistency minimization, and the adaptive self-training
update. Each phase rebuilds its forward graph on a fresh tape and runs all
2M heads in one batched pass over the model's stacked head storage: the
target features feed every head, and the M source batches, which share
one grouped extractor pass, feed their own pairs. The two phases that
update one side only switch ``requires_grad`` off on the other side's
leaves for the whole phase, so its subgraph is never recorded and its
gradients are never computed, and the optimizer steps only the leaves
left trainable, as whole arrays.

``train`` and ``load_checkpoint`` build the state one way. Checkpoints have
one format, owned here: leaves, velocities, tracker and counters.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import struct
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from . import losses
from .autodiff import NumericError, Tape, Tensor
from .data import BatchIterator, DomainBatch, GeneratedTask
from .nn import CrmaModel, parameter_count
from .seeds import stream_rng, stream_seed

LOSS_CEILING = 1e6
MOMENTUM = 0.9
COSINE_FLOOR_FRACTION = 0.01

# glibc keeps this much free memory at the top of the heap when it trims it.
# Each phase frees its arrays when it ends; without the pad glibc hands them
# back to the system and the next phase page-faults them in again. On the
# moons shape 2 MiB was the smallest pad that removed those faults (1 MiB was
# not enough), so this leaves 2x headroom.
HEAP_TOP_PAD_BYTES = 4 << 20
_M_TOP_PAD = -2  # mallopt parameter number, from glibc's malloc.h

CHECKPOINT_MAGIC = b"CRMATRN\x00"
CHECKPOINT_VERSION = 2


class FormatError(ValueError):
    """A checkpoint file is malformed, truncated, or of the wrong version."""


class DivergedRunError(RuntimeError):
    """A loss went NaN/Inf or past the ceiling; carries partial history."""

    def __init__(self, message: str, iteration: int, history: list):
        super().__init__(message)
        self.iteration = iteration
        self.history = history


@dataclass
class AblationFlags:
    intra_da: bool = True
    inter_da: bool = True
    ast: bool = True


@dataclass
class TrainConfig:
    alpha: float = 0.5
    lam: float = 0.1                      # config key "lambda"
    base_lr: float = 1e-3
    extractor_lr_multiplier: float = 1.0  # 0.1 emulates a pretrained-extractor regime
    epochs: int = 50
    batch_per_domain: int = 128
    optimizer: str = "sgd_momentum"       # or "sgd"
    scheduler: str = "constant"           # or "cosine_annealing"
    ablation: AblationFlags = field(default_factory=AblationFlags)
    seed: int = 0
    num_extractor_steps: int = 1
    ast_start_epoch: int = 0
    uniform_pseudo_weights: bool = False
    extractor_hidden: tuple[int, ...] = (64, 64)
    head_hidden: tuple[int, ...] = (32,)

    def validate(self) -> None:
        values = (self.alpha, self.lam, self.base_lr, self.extractor_lr_multiplier)
        if not all(map(math.isfinite, values)):
            raise ValueError("alpha, lambda and learning rates must be finite")
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("alpha and lambda must be >= 0")
        if self.base_lr <= 0 or self.extractor_lr_multiplier <= 0:
            raise ValueError("learning rates must be > 0")
        if self.epochs < 1 or self.batch_per_domain < 1 or self.num_extractor_steps < 1:
            raise ValueError("epochs, batch size, and extractor steps must be >= 1")
        if self.ast_start_epoch < 0:
            raise ValueError(f"ast_start_epoch must be >= 0, got {self.ast_start_epoch}")
        if self.seed < 0:
            raise ValueError(f"train seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.scheduler not in ("constant", "cosine_annealing"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")


class ConfidenceTracker:
    """Cumulative per-domain mean of per-sample pair discrepancies.

    Stores exact sums and counts rather than an incremental mean so the
    running mean matches a full-history replay to float64 accuracy. Means
    never reset between epochs.
    """

    def __init__(self, num_domains: int):
        self.sums = np.zeros(num_domains)
        self.counts = np.zeros(num_domains, dtype=np.int64)

    def update(self, d_matrix: np.ndarray) -> None:
        self.sums += d_matrix.sum(axis=0)
        self.counts += d_matrix.shape[0]

    @property
    def means(self) -> np.ndarray:
        """Running means; zero for domains that have not seen a sample."""
        return self.sums / np.maximum(self.counts, 1)


class SgdOptimizer:
    """SGD with momentum over a model's storage leaves; plain SGD is momentum 0.

    ``leaves`` is ``(*extractor_leaves, *head_leaves)`` and ``velocities``
    holds one buffer per leaf in the same order. ``step`` updates exactly
    the leaves whose ``requires_grad`` is set, as whole arrays; every other
    leaf keeps both its values and its velocity bit-identical. At momentum 0
    a stepped leaf's velocity is its last gradient, up to the sign of a zero
    entry, and checkpoints store it.
    """

    def __init__(self, model: CrmaModel, momentum: float):
        self.momentum = momentum
        self.leaves = (*model.extractor_leaves, *model.head_leaves)
        self.velocities = tuple(np.zeros_like(leaf.values) for leaf in self.leaves)
        self._num_extractor = len(model.extractor_leaves)

    def zero_grad(self) -> None:
        for leaf in self.leaves:
            leaf.zero_grad()

    def step(self, lr: float, extractor_lr_multiplier: float = 1.0) -> None:
        for i, (leaf, velocity) in enumerate(zip(self.leaves, self.velocities)):
            if not leaf.requires_grad:
                continue
            grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.values)
            rate = lr * (extractor_lr_multiplier if i < self._num_extractor else 1.0)
            velocity *= self.momentum
            velocity += grad
            leaf.values -= rate * velocity


@dataclass
class TrainState:
    """A model, its config, and the optimizer and tracker they imply."""

    model: CrmaModel
    config: TrainConfig
    iteration: int = 0
    epoch: int = 0
    history: list = field(default_factory=list)
    optimizer: SgdOptimizer = field(init=False)
    tracker: ConfidenceTracker = field(init=False)

    def __post_init__(self) -> None:
        model, config = self.model, self.config
        self.optimizer = SgdOptimizer(model, MOMENTUM if config.optimizer == "sgd_momentum" else 0.0)
        self.tracker = ConfidenceTracker(model.num_domains)


def _keep_freed_heap() -> None:
    """Set glibc's heap top pad for this process; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD_BYTES)


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """Per-epoch learning rate; cosine anneals from base down to 1% of base."""
    if config.scheduler == "constant" or config.epochs == 1:
        return config.base_lr
    floor = COSINE_FLOOR_FRACTION * config.base_lr
    progress = epoch / (config.epochs - 1)
    return floor + 0.5 * (config.base_lr - floor) * (1.0 + math.cos(math.pi * progress))


@contextlib.contextmanager
def _frozen(leaves: Sequence[Tensor]):
    """Treat ``leaves`` as constants: ops on them alone record no tape node,
    a backward run inside the block computes no gradient for them, and an
    optimizer step inside it leaves their values and velocities as they are."""
    flags = [t.requires_grad for t in leaves]
    for t in leaves:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(leaves, flags):
            t.requires_grad = flag


def _descend(state: TrainState, tape: Tape, loss: Tensor, lr: float) -> float:
    """One optimizer step down ``loss``, recorded on ``tape``; returns the
    pre-step loss, or raises ``DivergedRunError`` when it is not finite or
    past ``LOSS_CEILING``."""
    value = loss.item()
    if not math.isfinite(value) or abs(value) > LOSS_CEILING:
        raise DivergedRunError(
            f"loss {value} at iteration {state.iteration}", state.iteration, state.history
        )
    state.optimizer.zero_grad()
    tape.backward(loss)
    state.optimizer.step(lr, extractor_lr_multiplier=state.config.extractor_lr_multiplier)
    return value


def step_source(state: TrainState, batch: DomainBatch, lr: float) -> float:
    """Minimize the summed source cross entropy over all parameters."""
    model = state.model
    with Tape() as tape:
        probs = model.head_probs(model.forward_features(batch.source_features))
        loss = losses.source_ce_loss(probs, batch.source_labels)
    return _descend(state, tape, loss, lr)


def step_classifiers(state: TrainState, batch: DomainBatch, lr: float) -> None:
    """One classifier-only step on L_src - L_intra; extractor frozen.

    Skipped entirely when the intra-consistency component is ablated.
    """
    if not state.config.ablation.intra_da:
        return
    model = state.model
    with _frozen(model.extractor_leaves):
        with Tape() as tape:
            source_probs = model.head_probs(model.forward_features(batch.source_features))
            src_loss = losses.source_ce_loss(source_probs, batch.source_labels)
            target_feats = model.forward_features(batch.target_features)
            intra = losses.intra_consistency_loss(model.head_probs(target_feats))
            objective = src_loss - intra
        _descend(state, tape, objective, lr)  # guards both component losses


def step_extractor(state: TrainState, batch: DomainBatch, lr: float):
    """Extractor-only steps on L_intra + alpha * L_inter; classifiers frozen.

    Ablated terms are dropped; with no terms left (both ablated, or a
    single source with intra ablated) the phase is skipped as a true no-op.
    Returns the first step's pre-step (L_intra, L_inter) values.
    """
    cfg = state.config
    model = state.model
    use_intra = cfg.ablation.intra_da
    use_inter = cfg.ablation.inter_da and model.num_domains >= 2
    if not use_intra and not use_inter:
        return None
    first_values = None
    with _frozen(model.head_leaves):
        for _ in range(cfg.num_extractor_steps):
            with Tape() as tape:
                probs = model.head_probs(model.forward_features(batch.target_features))
                # an ablated term enters as a constant 0.0
                intra = losses.intra_consistency_loss(probs) if use_intra else Tensor(0.0)
                inter = losses.inter_consistency_loss(probs) if use_inter else Tensor(0.0)
                objective = intra + inter * cfg.alpha
            if first_values is None:
                first_values = (intra.item(), inter.item())
            _descend(state, tape, objective, lr)
    return first_values


def step_ast(state: TrainState, batch: DomainBatch, lr: float):
    """Self-training step: fuse pseudo-labels, then minimize the KL loss.

    Per batch: measure the per-sample pair discrepancies, update the
    confidence tracker, THEN compute weights from the updated means
    (update-then-weight), fuse pseudo-labels and betas, and take one step
    on all parameters with the targets held constant.
    """
    cfg = state.config
    if not cfg.ablation.ast or state.epoch < cfg.ast_start_epoch:
        return None
    model = state.model
    with Tape() as tape:
        probs = model.head_probs(model.forward_features(batch.target_features))
        d_matrix, mean_values = losses.pair_statistics(probs.values)
        state.tracker.update(d_matrix)
        fused = losses.fuse_pseudo_labels(
            d_matrix,
            mean_values,
            state.tracker.means,
            cfg.lam,
            uniform=cfg.uniform_pseudo_weights,
        )
        loss = losses.ast_loss(probs, fused.probs, fused.betas)
    return _descend(state, tape, loss, lr), fused


def evaluate(model: CrmaModel, features: np.ndarray, labels: np.ndarray):
    """Accuracy of the averaged-head prediction, plus per-class accuracy."""
    _, predicted = model.final_prediction(features)
    labels = np.asarray(labels)
    accuracy = float(np.mean(predicted == labels))
    per_class = np.array(
        [
            float(np.mean(predicted[labels == c] == c)) if np.any(labels == c) else math.nan
            for c in range(model.num_classes)
        ]
    )
    return accuracy, per_class


def train(config: TrainConfig, task: GeneratedTask):
    """Run the full alternating loop; returns (state, per-epoch history).

    History rows are keyed by ``history_columns``: epoch-mean phase losses,
    learning rate, target test accuracy, and per-domain mean normalized
    weights and running means. Skipped phases log 0.0. Sets the process's heap
    top pad first (``HEAP_TOP_PAD_BYTES``), so heap freed by one phase stays
    mapped for the next.
    """
    config.validate()
    _keep_freed_heap()
    num_domains = task.num_sources
    model = CrmaModel(task.input_dim, task.spec.num_classes, num_domains, config.extractor_hidden,
                      config.head_hidden, stream_rng(config.seed, "init"))
    state = TrainState(model, config)
    iterator = BatchIterator(task, config.batch_per_domain, stream_seed(config.seed, "shuffle"))
    batches = iter(iterator)

    try:
        # every overflow ends in a NumericError or a loss check, the run's own report
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                state.epoch = epoch
                lr = learning_rate(config, epoch)
                src_sum = intra_sum = inter_sum = ast_sum = 0.0
                weight_sum = np.zeros(num_domains)
                weight_batches = 0
                for _ in range(iterator.batches_per_epoch):
                    batch = next(batches)
                    src_sum += step_source(state, batch, lr)
                    step_classifiers(state, batch, lr)
                    ext = step_extractor(state, batch, lr)
                    if ext is not None:
                        intra_sum += ext[0]
                        inter_sum += ext[1]
                    ast = step_ast(state, batch, lr)
                    if ast is not None:
                        ast_sum += ast[0]
                        weight_sum += ast[1].normalized_weights.mean(axis=0)
                        weight_batches += 1
                    state.iteration += 1
                accuracy, _ = evaluate(model, task.target_test_features, task.target_test_labels)
                n = iterator.batches_per_epoch
                mean_w = weight_sum / weight_batches if weight_batches else np.zeros(num_domains)
                values = (epoch, src_sum / n, intra_sum / n, inter_sum / n, ast_sum / n, lr, accuracy,
                          *mean_w.tolist(), *state.tracker.means.tolist())
                state.history.append(dict(zip(history_columns(num_domains), values, strict=True)))
    except NumericError as err:
        # a forward overflowed mid-run; surface it as a diverged run
        raise DivergedRunError(
            f"numeric overflow at iteration {state.iteration}: {err}",
            state.iteration,
            state.history,
        ) from err
    return state, state.history


def history_columns(num_domains: int) -> list[str]:
    cols = ["epoch", "L_src", "L_intra", "L_inter", "L_AST", "lr", "target_acc"]
    cols += [f"mean_w_{m}" for m in range(num_domains)]
    cols += [f"bar_L_{m}" for m in range(num_domains)]
    return cols


def write_history_csv(history: Sequence[dict], num_domains: int, fileobj: IO[str]) -> None:
    cols = history_columns(num_domains)
    fileobj.write(",".join(cols) + "\n")
    for row in history:
        fileobj.write(",".join(repr(row[c]) for c in cols) + "\n")


# checkpointing ---------------------------------------------------------------
#
# Little-endian binary:
#   magic (8 bytes) | version u32
#   input_dim u32 | num_classes u32 | num_domains u32
#   n_extractor_hidden u32, each width u32
#   n_head_hidden u32, each width u32
#   the arrays of _stored_arrays as raw little-endian blocks: every storage
#     leaf's values (f8), each leaf's velocity (f8), tracker sums (f8) and
#     counts (i8); shapes are implied by the header, so there is no framing
#   iteration u64 | epoch u64


def _stored_arrays(state: TrainState) -> list[np.ndarray]:
    """The arrays a checkpoint stores after its header, in file order."""
    opt, tracker = state.optimizer, state.tracker
    return [*(t.values for t in opt.leaves), *opt.velocities, tracker.sums, tracker.counts]


def save_checkpoint(state: TrainState, path) -> None:
    """Storage leaves, their velocities, tracker state, and counters."""
    model = state.model
    if state.tracker.sums.shape != (model.num_domains,):
        raise ValueError(
            f"tracker has {state.tracker.sums.size} domains, the model has {model.num_domains}"
        )
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<III", model.input_dim, model.num_classes, model.num_domains),
    ]
    for dims in (model.extractor_hidden, model.head_hidden):
        parts.append(struct.pack(f"<I{len(dims)}I", len(dims), *dims))
    for a in _stored_arrays(state):
        parts.append(a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes())
    parts.append(struct.pack("<QQ", state.iteration, state.epoch))
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_checkpoint(path, config: TrainConfig) -> TrainState:
    """The state ``save_checkpoint`` wrote; the optimizer's momentum comes from ``config``."""
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def header(fmt: str) -> tuple:
        # the only checked read: the size comparison below covers the body
        nonlocal pos
        n = struct.calcsize(fmt)
        if pos + n > len(data):
            raise FormatError(
                f"truncated trainer checkpoint: needed {n} bytes at offset {pos}, "
                f"file has {len(data)}"
            )
        pos += n
        return struct.unpack_from(fmt, data, pos - n)

    if header("<8s") != (CHECKPOINT_MAGIC,):
        raise FormatError("bad trainer checkpoint magic")
    (version,) = header("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported trainer checkpoint version {version}")
    input_dim, num_classes, num_domains = header("<III")
    (n_ext,) = header("<I")
    extractor_hidden = header(f"<{n_ext}I")
    (n_head,) = header("<I")
    head_hidden = header(f"<{n_head}I")
    # check the header's size claim before allocating the model it describes
    count = parameter_count(input_dim, num_classes, num_domains, extractor_hidden, head_hidden)
    # values and velocities, tracker sums and counts, two counters
    size = 8 * (2 * count + 2 * num_domains + 2)
    left = len(data) - pos
    if size > left:
        raise FormatError(
            f"truncated trainer checkpoint: the header implies {count} parameters, "
            f"{left} bytes are left at offset {pos}, {size} needed"
        )
    if size < left:
        raise FormatError(
            f"malformed trainer checkpoint: data ends at offset {pos + size}, "
            f"file has {len(data)} bytes ({left - size} trailing)"
        )
    try:
        model = CrmaModel(input_dim, num_classes, num_domains, extractor_hidden, head_hidden)
    except ValueError as exc:
        raise FormatError(f"malformed trainer checkpoint header: {exc}") from exc
    state = TrainState(model, config)
    for a in _stored_arrays(state):
        a.flat = np.frombuffer(data, a.dtype.newbyteorder("<"), a.size, pos)
        pos += a.nbytes
    state.iteration, state.epoch = struct.unpack_from("<QQ", data, pos)
    return state
