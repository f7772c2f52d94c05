"""Shared feature extractor with one pair of classifier heads per source domain.

The model is a plain MLP stack: one extractor shared by all domains and
2M independently parameterized heads. Every trainable tensor belongs to
exactly one parameter group ("extractor" or "classifier.<m>.<branch>"),
which is what the trainer's alternating phases key on.

The heads are stored stacked: each head-layer slot (one layer's weight or
bias) is a single (2M, ...) leaf tensor in (domain, branch a, branch b)
order, and each head's Parameter holds a writable view of its row. Names,
groups, ``parameters()`` order, checkpoints and digests stay per head,
while every forward pass runs all 2M heads at once straight off the leaves,
which is also where their gradients land.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import DimensionError, Tensor, index, linear, softmax

EXTRACTOR_GROUP = "extractor"

CHECKPOINT_MAGIC = b"CRMANET\x00"
CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """A serialized file is malformed, truncated, or of the wrong version."""


def classifier_group(domain_index: int, branch: str) -> str:
    return f"classifier.{domain_index}.{branch}"


@dataclass
class Parameter:
    """One trainable tensor plus its group assignment.

    A head's ``tensor`` is a view of row ``row`` of its ``storage`` leaf,
    the tensor that training differentiates and steps; an extractor
    tensor is its own storage.
    """

    name: str
    group: str
    tensor: Tensor
    storage: Tensor | None = None
    row: int | None = None

    @property
    def leaf(self) -> Tensor:
        return self.tensor if self.storage is None else self.storage

    @property
    def grad(self):
        """This tensor's gradient, read from its leaf; None when it has none."""
        g = self.leaf.grad
        return g if g is None or self.row is None else g[self.row]


@dataclass
class Prediction:
    """Class probabilities of one head."""

    probs: Tensor
    domain_index: int
    branch: str


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _init_layers(rng, widths, name_prefix, group):
    params = []
    for i in range(len(widths) - 1):
        w = Tensor(_glorot(rng, widths[i], widths[i + 1]), requires_grad=True)
        b = Tensor(np.zeros(widths[i + 1]), requires_grad=True)
        params.append(Parameter(f"{name_prefix}.layer{i}.weight", group, w))
        params.append(Parameter(f"{name_prefix}.layer{i}.bias", group, b))
    return params


class FeatureExtractor:
    """MLP mapping inputs to features, relu after every layer."""

    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng: np.random.Generator):
        if input_dim < 1 or not hidden_dims:
            raise ValueError("extractor needs input_dim >= 1 and at least one layer")
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.feature_dim = self.hidden_dims[-1]
        widths = (self.input_dim, *self.hidden_dims)
        self.params = _init_layers(rng, widths, "extractor", EXTRACTOR_GROUP)

    def forward(self, x: Tensor) -> Tensor:
        """Features of x (n, d), or of G batches x (G, n, d) in one grouped pass."""
        if x.values.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise DimensionError(
                f"extractor expects (n, {self.input_dim}) or (G, n, {self.input_dim}) "
                f"inputs, got {x.shape}"
            )
        h = x
        for i in range(0, len(self.params), 2):
            h = linear(h, self.params[i].tensor, self.params[i + 1].tensor, relu=True)
        return h


class ClassifierHead:
    """MLP classifier: relu between hidden layers, linear output of width K."""

    def __init__(
        self,
        feature_dim: int,
        num_classes: int,
        hidden_dims: Sequence[int],
        domain_index: int,
        branch: str,
        rng: np.random.Generator,
    ):
        if branch not in ("a", "b"):
            raise ValueError(f"branch must be 'a' or 'b', got {branch!r}")
        self.feature_dim = int(feature_dim)
        self.num_classes = int(num_classes)
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.domain_index = int(domain_index)
        self.branch = branch
        widths = (self.feature_dim, *self.hidden_dims, self.num_classes)
        group = classifier_group(domain_index, branch)
        self.params = _init_layers(rng, widths, group, group)


def _mlp_logits(features: Tensor, slots: Sequence[Tensor]) -> Tensor:
    """Head logits from (weight, bias, weight, bias, ...) layer tensors.

    The tensors are one head's, or several heads' stacked along a leading
    head axis; relu between hidden layers, linear output.
    """
    h = features
    n_layers = len(slots) // 2
    for i in range(n_layers):
        h = linear(h, slots[2 * i], slots[2 * i + 1], relu=i < n_layers - 1)
    return h


class CrmaModel:
    """Shared extractor plus M pairs of domain-specific classifier heads."""

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        num_domains: int,
        extractor_hidden: Sequence[int] = (64, 64),
        head_hidden: Sequence[int] = (32,),
        rng: np.random.Generator | None = None,
    ):
        if num_domains < 1:
            raise ValueError(f"need at least one source domain, got {num_domains}")
        if num_classes < 2:
            raise ValueError(f"need at least two classes, got {num_classes}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_classes = int(num_classes)
        self.num_domains = int(num_domains)
        self.extractor = FeatureExtractor(input_dim, extractor_hidden, rng)
        # Initialization draw order is fixed: extractor first, then heads in
        # (domain, branch a, branch b) order; checkpoints use the same order.
        self.heads: dict[tuple[int, str], ClassifierHead] = {}
        for m in range(self.num_domains):
            for branch in ("a", "b"):
                self.heads[(m, branch)] = ClassifierHead(
                    self.extractor.feature_dim, num_classes, head_hidden, m, branch, rng
                )
        # one (2M, ...) leaf per head-layer slot; each head's tensor becomes a view of its row
        heads = list(self.heads.values())
        self.head_slots = []
        for j in range(len(heads[0].params)):
            rows = np.stack([head.params[j].tensor.values for head in heads])
            slot = Tensor(rows, requires_grad=True, copy=False)
            for h, head in enumerate(heads):
                p = head.params[j]
                p.tensor, p.storage, p.row = Tensor(slot.values[h], copy=False), slot, h
            self.head_slots.append(slot)

    @property
    def input_dim(self) -> int:
        return self.extractor.input_dim

    @property
    def feature_dim(self) -> int:
        return self.extractor.feature_dim

    def forward_features(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        return self.extractor.forward(x)

    def head_probs(self, features: Tensor) -> Tensor:
        """(2M, n, K) class probabilities of every head, in one batched pass.

        Heads are in (domain, branch a, branch b) order. Features (n, d)
        feed every head; features (M, n, d) feed domain m's rows to its
        own pair only.
        """
        return softmax(_mlp_logits(features, self.head_slots))

    def predict_pair(self, domain_index: int, features: Tensor) -> tuple[Prediction, Prediction]:
        """One domain's pair on ``features``, read from its rows of the head slots."""
        if not 0 <= domain_index < self.num_domains:
            raise IndexError(
                f"domain index {domain_index} out of range for {self.num_domains} domains"
            )
        rows = slice(2 * domain_index, 2 * domain_index + 2)
        probs = softmax(_mlp_logits(features, [index(slot, rows) for slot in self.head_slots]))
        return (
            Prediction(index(probs, 0), domain_index, "a"),
            Prediction(index(probs, 1), domain_index, "b"),
        )

    def final_prediction(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Average the probability vectors of all 2M heads.

        Returns (probs, labels); labels break argmax ties toward the lowest
        class index, so evaluation is deterministic.
        """
        head_probs = self.head_probs(self.forward_features(x)).values
        # pair sums added domain by domain, the order of a per-pair loop
        total = (head_probs[0::2] + head_probs[1::2]).sum(axis=0)
        probs = total / (2 * self.num_domains)
        return probs, np.argmax(probs, axis=1).astype(np.int32)

    def parameters(self) -> list[Parameter]:
        params = list(self.extractor.params)
        for m in range(self.num_domains):
            for branch in ("a", "b"):
                params.extend(self.heads[(m, branch)].params)
        return params

    def group_parameters(self, prefix: str) -> list[Parameter]:
        return [p for p in self.parameters() if p.group.startswith(prefix)]

    def leaves(self, prefix: str = "") -> list[Tensor]:
        """The storage leaves of the groups starting with ``prefix``, in parameters() order.

        These are the tensors training differentiates and steps.
        """
        return list({id(p.leaf): p.leaf for p in self.group_parameters(prefix)}.values())


def parameters_digest(params: Iterable[Parameter]) -> str:
    """SHA-256 over parameter names and raw little-endian float64 bytes."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.tensor.values, dtype="<f8").tobytes())
    return h.hexdigest()


# checkpoint format ----------------------------------------------------------
#
# Little-endian binary:
#   magic (8 bytes) | version u32
#   input_dim u32 | num_classes u32 | num_domains u32
#   n_extractor_hidden u32, each width u32
#   n_head_hidden u32, each width u32
#   parameter arrays as raw float64 blocks, in parameters() order
#     (shapes are implied by the header, so no per-array framing is needed)


def model_to_bytes(model: CrmaModel) -> bytes:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    ext = model.extractor
    head = model.heads[(0, "a")]
    parts.append(struct.pack("<III", ext.input_dim, model.num_classes, model.num_domains))
    parts.append(struct.pack("<I", len(ext.hidden_dims)))
    parts.append(struct.pack(f"<{len(ext.hidden_dims)}I", *ext.hidden_dims))
    parts.append(struct.pack("<I", len(head.hidden_dims)))
    if head.hidden_dims:
        parts.append(struct.pack(f"<{len(head.hidden_dims)}I", *head.hidden_dims))
    for p in model.parameters():
        parts.append(np.ascontiguousarray(p.tensor.values, dtype="<f8").tobytes())
    return b"".join(parts)


class _Reader:
    """Byte reader that reports the offset of any truncation."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated {self.what}: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(item * count), dtype=dtype).copy()

    def expect_end(self) -> None:
        """Reject bytes left over after the last field."""
        if self.pos != len(self.data):
            raise FormatError(
                f"malformed {self.what}: data ends at offset {self.pos}, "
                f"file has {len(self.data)} bytes ({len(self.data) - self.pos} trailing)"
            )


def model_from_bytes(data: bytes) -> CrmaModel:
    r = _Reader(data, "model checkpoint")
    if r.take(8) != CHECKPOINT_MAGIC:
        raise FormatError("bad model checkpoint magic")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported model checkpoint version {version}")
    input_dim, num_classes, num_domains = r.unpack("<III")
    (n_ext,) = r.unpack("<I")
    extractor_hidden = r.unpack(f"<{n_ext}I")
    (n_head,) = r.unpack("<I")
    head_hidden = r.unpack(f"<{n_head}I") if n_head else ()
    model = CrmaModel(
        input_dim, num_classes, num_domains, extractor_hidden, head_hidden
    )
    for p in model.parameters():
        arr = r.array("<f8", p.tensor.values.size)
        p.tensor.values[...] = arr.reshape(p.tensor.values.shape)
    r.expect_end()
    return model
