"""Synthetic multi-source tasks: generators, domain shifts, batching, file I/O.

Two 2-d generators cover the interesting regimes: interleaved half-moons
(binary, nonlinear boundary) and Gaussian blobs on a circle (any K).
Domain shift is an affine map (rotation, scale, translation) plus optional
Gaussian noise. Target labels are generated but held out of the training
surface; a stratified 20% target test split is reserved for evaluation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .nn import _Reader  # shared little-endian binary reader
from .seeds import stream_rng

GENERATORS = ("two_moons", "gaussian_blobs")
FEATURE_DIM = 2
TEST_FRACTION = 0.2

DATASET_MAGIC = b"CRMADSET"
DATASET_VERSION = 1

# Generator spread when TaskSpec.generator_noise is left unset.
DEFAULT_NOISE = {"two_moons": 0.12, "gaussian_blobs": 0.55}


class InsufficientDataError(ValueError):
    """Too few samples per domain for the requested class count."""


class DatasetFormatError(ValueError):
    """A dataset file is malformed, truncated, or of the wrong version."""


@dataclass(frozen=True)
class ShiftSpec:
    """Affine domain shift: x -> scale * R(rotation) x + translation (+ noise)."""

    rotation: float = 0.0               # radians
    translation: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0
    noise_std: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))
        if len(self.translation) != FEATURE_DIM:
            raise ValueError(f"translation must have {FEATURE_DIM} entries")
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
            ShiftSpec(rotation=0.0),
            ShiftSpec(rotation=math.radians(15.0)),
            ShiftSpec(rotation=math.radians(30.0)),
        ]
    )
    target_shift: ShiftSpec = field(default_factory=lambda: ShiftSpec(rotation=math.radians(45.0)))
    seed: int = 0
    generator_noise: float | None = None

    def validate(self) -> None:
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
        if self.samples_per_domain < 4 * self.num_classes:
            raise InsufficientDataError(
                f"samples_per_domain={self.samples_per_domain} is below the "
                f"4*K={4 * self.num_classes} minimum"
            )

    @property
    def noise(self) -> float:
        return DEFAULT_NOISE[self.generator] if self.generator_noise is None else self.generator_noise


@dataclass
class Domain:
    """One domain's feature matrix; labels only for sources."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None
    role: str  # "source" | "target"


@dataclass
class GeneratedTask:
    """A generated task bundle: labeled sources, unlabeled target, test split."""

    spec: TaskSpec
    sources: list[Domain]
    target: Domain                     # 80% of target samples, labels withheld
    target_train_labels: np.ndarray    # held-out labels of target.features (metrics only)
    target_test_features: np.ndarray   # stratified 20% split
    target_test_labels: np.ndarray

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def input_dim(self) -> int:
        return self.sources[0].features.shape[1]


@dataclass
class DomainBatch:
    """One iteration's samples: a labeled batch per source, one target batch."""

    source_features: np.ndarray  # (M, n, d), the sources stacked
    source_labels: np.ndarray    # (M, n)
    target_features: np.ndarray
    source_indices: list[np.ndarray]
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


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def apply_shift(shift: ShiftSpec, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply the affine shift; noise requires an rng and is skipped without one."""
    out = (shift.scale * (x @ _rotation_matrix(shift.rotation).T)) + np.asarray(shift.translation)
    if shift.noise_std > 0:
        if rng is None:
            raise ValueError("noise_std > 0 needs an rng")
        out = out + shift.noise_std * rng.standard_normal(out.shape)
    return out


def _generate_domain(spec: TaskSpec, shift: ShiftSpec, rng: np.random.Generator):
    if spec.generator == "two_moons":
        x, y = _two_moons(spec.samples_per_domain, spec.noise, rng)
    else:
        x, y = _gaussian_blobs(spec.samples_per_domain, spec.num_classes, spec.noise, rng)
    return apply_shift(shift, x, rng), y


def generate_task(spec: TaskSpec) -> GeneratedTask:
    """Draw every domain from its seeded substream and split the target.

    The target's labels never reach the Domain object handed to the
    trainer; 20% of target samples (stratified by those labels) are set
    aside as the labeled test split.
    """
    spec.validate()
    sources = []
    for m, shift in enumerate(spec.source_shifts):
        rng = stream_rng(spec.seed, "data", m)
        x, y = _generate_domain(spec, shift, rng)
        sources.append(Domain(name=f"source{m}", features=x, labels=y, role="source"))

    rng = stream_rng(spec.seed, "data", len(spec.source_shifts))
    tx, ty = _generate_domain(spec, spec.target_shift, rng)

    test_idx = []
    # the sorted labels; np.unique's first call would import numpy.ma
    for c in np.flatnonzero(np.bincount(ty)):
        members = np.flatnonzero(ty == c)
        members = rng.permutation(members)
        test_idx.extend(members[: int(round(TEST_FRACTION * members.size))])
    test_mask = np.zeros(ty.size, dtype=bool)
    test_mask[np.array(test_idx, dtype=np.int64)] = True

    target = Domain(name="target", features=tx[~test_mask], labels=None, role="target")
    return GeneratedTask(
        spec=spec,
        sources=sources,
        target=target,
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

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos == self.n:
                self._perm = self.rng.permutation(self.n)
                self._pos = 0
            grab = min(count - filled, self.n - self._pos)
            out[filled : filled + grab] = self._perm[self._pos : self._pos + grab]
            self._pos += grab
            filled += grab
        return out


class BatchIterator:
    """Seeded per-domain mini-batch stream.

    Each batch holds one labeled size-b batch per source plus one unlabeled
    size-b target batch. Every domain is consumed through chained seeded
    shuffles, so shorter domains wrap around into a fresh shuffle. One
    epoch is ceil(largest domain / b) batches, which covers every sample of
    every domain at least once.
    """

    def __init__(
        self,
        sources: Sequence[Domain],
        target: Domain,
        batch_per_domain: int,
        seed: int,
    ):
        domains = [*sources, target]
        for d in domains:
            if d.features.shape[0] == 0:
                raise ValueError(f"domain {d.name!r} is empty")
            if batch_per_domain > d.features.shape[0]:
                raise ValueError(
                    f"batch_per_domain={batch_per_domain} exceeds domain "
                    f"{d.name!r} size {d.features.shape[0]}"
                )
        self.sources = list(sources)
        self.target = target
        self.batch_per_domain = int(batch_per_domain)
        largest = max(d.features.shape[0] for d in domains)
        self.batches_per_epoch = -(-largest // self.batch_per_domain)
        self._streams = [
            _IndexStream(d.features.shape[0], np.random.default_rng([seed, slot]))
            for slot, d in enumerate(domains)
        ]

    def __iter__(self) -> Iterator[DomainBatch]:
        b = self.batch_per_domain
        while True:
            src_idx = [s.take(b) for s in self._streams[:-1]]
            tgt_idx = self._streams[-1].take(b)
            yield DomainBatch(
                source_features=np.stack([d.features[i] for d, i in zip(self.sources, src_idx)]),
                source_labels=np.stack([d.labels[i] for d, i in zip(self.sources, src_idx)]),
                target_features=self.target.features[tgt_idx],
                source_indices=src_idx,
                target_indices=tgt_idx,
            )


# file format ------------------------------------------------------------------
#
# Little-endian binary:
#   magic (8 bytes) | version u32
#   M u32 | K u32 | D u32 | samples_per_domain u32 | seed i64
#   generator: u16 length + utf-8 bytes
#   generator_noise f64 (NaN when unset)
#   M+1 shift records (sources then target), each:
#       rotation f64 | translation 2xf64 | scale f64 | noise_std f64
#   block count u32, then blocks, each:
#       role u8 (0 source, 1 target-train, 2 target-test)
#       name u16 length + utf-8 | n u64
#       features n*D f64 | has_labels u8 | labels n i32 (if present)
#
# Target-train labels are stored (round trips are lossless) but are routed
# to the held-out field on load, never onto the Domain object.

_ROLE_SOURCE, _ROLE_TARGET_TRAIN, _ROLE_TARGET_TEST = 0, 1, 2


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


def _pack_shift(shift: ShiftSpec) -> bytes:
    return struct.pack(
        "<5d", shift.rotation, shift.translation[0], shift.translation[1],
        shift.scale, shift.noise_std,
    )


def _pack_block(role: int, name: str, features: np.ndarray, labels: np.ndarray | None) -> bytes:
    parts = [struct.pack("<B", role), _pack_str(name), struct.pack("<Q", features.shape[0])]
    parts.append(np.ascontiguousarray(features, dtype="<f8").tobytes())
    if labels is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(np.ascontiguousarray(labels, dtype="<i4").tobytes())
    return b"".join(parts)


def save_dataset(task: GeneratedTask, path) -> None:
    spec = task.spec
    parts = [
        DATASET_MAGIC,
        struct.pack("<I", DATASET_VERSION),
        struct.pack(
            "<IIIIq",
            task.num_sources,
            spec.num_classes,
            FEATURE_DIM,
            spec.samples_per_domain,
            spec.seed,
        ),
        _pack_str(spec.generator),
        struct.pack("<d", math.nan if spec.generator_noise is None else spec.generator_noise),
    ]
    for shift in [*spec.source_shifts, spec.target_shift]:
        parts.append(_pack_shift(shift))
    blocks = [
        _pack_block(_ROLE_SOURCE, d.name, d.features, d.labels) for d in task.sources
    ]
    blocks.append(
        _pack_block(_ROLE_TARGET_TRAIN, task.target.name, task.target.features,
                    task.target_train_labels)
    )
    blocks.append(
        _pack_block(_ROLE_TARGET_TEST, "target_test", task.target_test_features,
                    task.target_test_labels)
    )
    parts.append(struct.pack("<I", len(blocks)))
    parts.extend(blocks)
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def _read_str(r: _Reader) -> str:
    (length,) = r.unpack("<H")
    return r.take(length).decode()


def _read_shift(r: _Reader) -> ShiftSpec:
    rotation, tx, ty, scale, noise = r.unpack("<5d")
    return ShiftSpec(rotation=rotation, translation=(tx, ty), scale=scale, noise_std=noise)


def load_dataset(path) -> GeneratedTask:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, "dataset")
    try:
        if r.take(8) != DATASET_MAGIC:
            raise DatasetFormatError("bad dataset magic")
        (version,) = r.unpack("<I")
        if version != DATASET_VERSION:
            raise DatasetFormatError(f"unsupported dataset version {version}")
        num_sources, num_classes, dim, samples_per_domain, seed = r.unpack("<IIIIq")
        if dim != FEATURE_DIM:
            raise DatasetFormatError(f"unsupported feature dim {dim}")
        generator = _read_str(r)
        (noise,) = r.unpack("<d")
        shifts = [_read_shift(r) for _ in range(num_sources + 1)]
        spec = TaskSpec(
            generator=generator,
            num_classes=num_classes,
            samples_per_domain=samples_per_domain,
            source_shifts=shifts[:-1],
            target_shift=shifts[-1],
            seed=seed,
            generator_noise=None if math.isnan(noise) else noise,
        )
        (n_blocks,) = r.unpack("<I")
        sources, target, train_labels, test_x, test_y = [], None, None, None, None
        for _ in range(n_blocks):
            (role,) = r.unpack("<B")
            name = _read_str(r)
            (n,) = r.unpack("<Q")
            features = r.array("<f8", n * dim).reshape(n, dim)
            (has_labels,) = r.unpack("<B")
            labels = r.array("<i4", n) if has_labels else None
            if role == _ROLE_SOURCE:
                sources.append(Domain(name=name, features=features, labels=labels, role="source"))
            elif role == _ROLE_TARGET_TRAIN:
                target = Domain(name=name, features=features, labels=None, role="target")
                train_labels = labels
            elif role == _ROLE_TARGET_TEST:
                test_x, test_y = features, labels
            else:
                raise DatasetFormatError(f"unknown block role {role} at offset {r.pos}")
            # target-train labels are optional (metrics only); the others are required
            if labels is None and role != _ROLE_TARGET_TRAIN:
                raise DatasetFormatError(f"block {name!r} has no labels")
            if labels is not None and np.any((labels < 0) | (labels >= num_classes)):
                raise DatasetFormatError(f"block {name!r} has labels outside [0, {num_classes})")
        r.expect_end()
    except DatasetFormatError:
        raise
    except ValueError as exc:  # _Reader truncation and struct errors
        raise DatasetFormatError(str(exc)) from exc
    if target is None or test_x is None or len(sources) != num_sources:
        raise DatasetFormatError("dataset file is missing required blocks")
    return GeneratedTask(
        spec=spec,
        sources=sources,
        target=target,
        target_train_labels=train_labels,
        target_test_features=test_x,
        target_test_labels=test_y,
    )
