"""Synthetic multi-source tasks: generators, domain shifts, batching.

Two 2-d generators cover the interesting regimes: interleaved half-moons
(binary, nonlinear boundary) and Gaussian blobs on a circle (any K).
Domain shift is an affine map (rotation in degrees, scale, translation)
plus optional Gaussian noise. Target labels are held out of the training
surface; a stratified 20% target test split is reserved for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .seeds import stream_rng

GENERATORS = ("two_moons", "gaussian_blobs")
FEATURE_DIM = 2
TEST_FRACTION = 0.2
# Largest total size of a task's float64 feature arrays, sources and target.
MAX_FEATURE_BYTES = 2**30

# Generator spread when TaskSpec.generator_noise is left unset.
DEFAULT_NOISE = {"two_moons": 0.12, "gaussian_blobs": 0.55}


class InsufficientDataError(ValueError):
    """Too few samples per domain for the requested class count."""


@dataclass(frozen=True)
class ShiftSpec:
    """Affine domain shift: x -> scale * R(rotation_deg) x + translation (+ noise)."""

    rotation_deg: float = 0.0           # degrees, converted with math.radians when applied
    translation: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))
        if len(self.translation) != FEATURE_DIM:
            raise ValueError(f"translation must have {FEATURE_DIM} entries")
        values = (self.rotation_deg, *self.translation, self.scale, self.noise_std)
        if not all(map(math.isfinite, values)):
            raise ValueError("shift values must be finite")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass
class TaskSpec:
    """Everything needed to synthesize one multi-source adaptation task."""

    generator: str = "two_moons"
    num_classes: int = 2
    samples_per_domain: int = 2000
    source_shifts: list[ShiftSpec] = field(
        default_factory=lambda: [
            ShiftSpec(rotation_deg=0.0),
            ShiftSpec(rotation_deg=15.0),
            ShiftSpec(rotation_deg=30.0),
        ]
    )
    target_shift: ShiftSpec = field(default_factory=lambda: ShiftSpec(rotation_deg=45.0))
    seed: int = 0
    generator_noise: float | None = None

    def validate(self, num_tasks: int = 1) -> None:
        """Raise a ValueError for a spec that cannot be generated, or whose
        features, times the ``num_tasks`` held at once, exceed MAX_FEATURE_BYTES."""
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}; choose from {GENERATORS}")
        if self.generator == "two_moons" and self.num_classes != 2:
            raise ValueError("two_moons generates exactly 2 classes")
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if not self.source_shifts:
            raise ValueError("need at least one source domain")
        if self.seed < 0:
            raise ValueError(f"task seed must be >= 0, got {self.seed}")
        noise = self.generator_noise
        if noise is not None and not (math.isfinite(noise) and noise >= 0):
            raise ValueError(f"generator_noise must be finite and >= 0, got {noise}")
        if self.samples_per_domain < 4 * self.num_classes:
            raise InsufficientDataError(
                f"samples_per_domain={self.samples_per_domain} is below the "
                f"4*K={4 * self.num_classes} minimum"
            )
        feature_bytes = num_tasks * (len(self.source_shifts) + 1) * self.samples_per_domain * FEATURE_DIM * 8
        if feature_bytes > MAX_FEATURE_BYTES:
            tasks = f" for {num_tasks} tasks" if num_tasks > 1 else ""
            raise ValueError(f"samples_per_domain={self.samples_per_domain} implies {feature_bytes} "
                             f"bytes of features{tasks}, over the {MAX_FEATURE_BYTES}-byte bound")

    @property
    def noise(self) -> float:
        return DEFAULT_NOISE[self.generator] if self.generator_noise is None else self.generator_noise


@dataclass
class GeneratedTask:
    """A generated task bundle: labeled sources stacked, unlabeled target, test split."""

    spec: TaskSpec
    source_features: np.ndarray        # (M, N, d)
    source_labels: np.ndarray          # (M, N)
    target_features: np.ndarray        # 80% of target samples, labels withheld
    target_train_labels: np.ndarray    # held-out labels of target_features (metrics only)
    target_test_features: np.ndarray   # stratified 20% split
    target_test_labels: np.ndarray

    @property
    def num_sources(self) -> int:
        return self.source_features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.source_features.shape[2]


@dataclass
class DomainBatch:
    """One iteration's samples: a labeled batch per source, one target batch."""

    source_features: np.ndarray  # (M, n, d), the sources stacked
    source_labels: np.ndarray    # (M, n)
    target_features: np.ndarray
    source_indices: np.ndarray   # (M, n)
    target_indices: np.ndarray


# generators -----------------------------------------------------------------


def _balanced_counts(n: int, k: int) -> list[int]:
    counts = [n // k] * k
    for c in range(n % k):
        counts[c] += 1
    return counts


def _two_moons(n: int, noise: float, rng: np.random.Generator):
    # centered on the origin so a rotation shift turns the figure in place
    counts = _balanced_counts(n, 2)
    t0 = rng.uniform(0.0, math.pi, size=counts[0])
    t1 = rng.uniform(0.0, math.pi, size=counts[1])
    outer = np.column_stack([np.cos(t0) - 0.5, np.sin(t0) - 0.25])
    inner = np.column_stack([0.5 - np.cos(t1), 0.25 - np.sin(t1)])
    x = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(counts[0]), np.ones(counts[1])]).astype(np.int32)
    return x, y


def _gaussian_blobs(n: int, k: int, noise: float, rng: np.random.Generator):
    counts = _balanced_counts(n, k)
    radius = 2.0
    xs, ys = [], []
    for c in range(k):
        angle = 2.0 * math.pi * c / k
        center = np.array([radius * math.cos(angle), radius * math.sin(angle)])
        xs.append(center + noise * rng.standard_normal((counts[c], 2)))
        ys.append(np.full(counts[c], c, dtype=np.int32))
    return np.vstack(xs), np.concatenate(ys)


def _rotation_matrix(degrees: float) -> np.ndarray:
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def apply_shift(shift: ShiftSpec, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply the affine shift plus noise; raises ValueError if noise_std > 0 and rng is None."""
    out = (shift.scale * (x @ _rotation_matrix(shift.rotation_deg).T)) + np.asarray(shift.translation)
    if shift.noise_std > 0:
        if rng is None:
            raise ValueError("noise_std > 0 needs an rng")
        out = out + shift.noise_std * rng.standard_normal(out.shape)
    return out


def _generate_domain(spec: TaskSpec, shift: ShiftSpec, rng: np.random.Generator, name: str):
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if spec.generator == "two_moons":
            x, y = _two_moons(spec.samples_per_domain, spec.noise, rng)
        else:
            x, y = _gaussian_blobs(spec.samples_per_domain, spec.num_classes, spec.noise, rng)
        x = apply_shift(shift, x, rng)
    if not np.isfinite(x).all():
        raise ValueError(f"domain {name!r}: generated features are not all finite")
    return x, y


def target_test_counts(spec: TaskSpec) -> list[int]:
    """Target samples held out for the test split, per class; the rest train."""
    counts = _balanced_counts(spec.samples_per_domain, spec.num_classes)
    return [int(round(TEST_FRACTION * n)) for n in counts]


def generate_task(spec: TaskSpec) -> GeneratedTask:
    """Draw every domain from its seeded substream, stack the sources, split the target.

    ``target_features`` carries no labels; 20% of target samples (stratified
    by those labels) are set aside as the labeled test split. A domain whose
    features overflow to non-finite values is a ValueError that names it.
    """
    spec.validate()
    xs, ys = zip(*(
        _generate_domain(spec, shift, stream_rng(spec.seed, "data", m), f"source{m}")
        for m, shift in enumerate(spec.source_shifts)
    ))

    rng = stream_rng(spec.seed, "data", len(spec.source_shifts))
    tx, ty = _generate_domain(spec, spec.target_shift, rng, "target")

    test_idx = []
    for c, n_test in enumerate(target_test_counts(spec)):
        members = rng.permutation(np.flatnonzero(ty == c))
        test_idx.extend(members[:n_test])
    test_mask = np.zeros(ty.size, dtype=bool)
    test_mask[np.array(test_idx, dtype=np.int64)] = True

    return GeneratedTask(
        spec=spec,
        source_features=np.stack(xs),
        source_labels=np.stack(ys),
        target_features=tx[~test_mask],
        target_train_labels=ty[~test_mask],
        target_test_features=tx[test_mask],
        target_test_labels=ty[test_mask],
    )


# batching --------------------------------------------------------------------


class _IndexStream:
    """Endless stream of seeded shuffles of 0..n-1, consumed in chunks."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self._perm = rng.permutation(n)
        self._pos = 0

    def take(self, out: np.ndarray) -> None:
        """Fill ``out`` with the stream's next ``len(out)`` indices."""
        filled, count = 0, len(out)
        while filled < count:
            if self._pos == self.n:
                self._perm = self.rng.permutation(self.n)
                self._pos = 0
            grab = min(count - filled, self.n - self._pos)
            out[filled : filled + grab] = self._perm[self._pos : self._pos + grab]
            self._pos += grab
            filled += grab


class BatchIterator:
    """Seeded per-domain mini-batch stream.

    Each batch holds one labeled size-b batch per source plus one unlabeled
    size-b target batch, gathered from the task's arrays by one index per
    array. Every domain is consumed through chained seeded shuffles, so
    shorter domains wrap around into a fresh shuffle. One epoch is
    ceil(largest domain / b) batches, which covers every sample of every
    domain at least once.
    """

    def __init__(self, task: GeneratedTask, batch_per_domain: int, seed: int):
        num_sources, n = task.source_labels.shape
        sizes = {f"source{m}": n for m in range(num_sources)}
        sizes["target"] = len(task.target_features)
        for name, size in sizes.items():
            if size == 0:
                raise ValueError(f"domain {name!r} is empty")
            if batch_per_domain > size:
                raise ValueError(
                    f"batch_per_domain={batch_per_domain} exceeds domain {name!r} size {size}"
                )
        self.task = task
        self.batch_per_domain = int(batch_per_domain)
        self.batches_per_epoch = -(-max(sizes.values()) // self.batch_per_domain)
        self._streams = [
            _IndexStream(size, np.random.default_rng([seed, slot]))
            for slot, size in enumerate(sizes.values())
        ]

    def __iter__(self) -> Iterator[DomainBatch]:
        task = self.task
        rows = np.arange(task.num_sources)[:, None]
        while True:
            indices = np.empty((len(self._streams), self.batch_per_domain), dtype=np.int64)
            for stream, out in zip(self._streams, indices):
                stream.take(out)
            src_idx, tgt_idx = indices[:-1], indices[-1]
            yield DomainBatch(
                source_features=task.source_features[rows, src_idx],
                source_labels=task.source_labels[rows, src_idx],
                target_features=task.target_features[tgt_idx],
                source_indices=src_idx,
                target_indices=tgt_idx,
            )
