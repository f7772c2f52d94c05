"""Shared feature extractor with one pair of classifier heads per source domain.

The model is a plain MLP stack: one extractor shared by all domains and
2M independently parameterized heads. Every trainable tensor belongs to
exactly one parameter group ("extractor" or "classifier.<m>.<branch>"),
which is what the trainer's alternating phases key on.

The heads exist only in stacked form: ``CrmaModel`` allocates each
head-layer slot (one layer's weight or bias) as a single (2M, ...) leaf
tensor in (domain, branch a, branch b) order, draws each head's weights
straight into its row, and gives each head a Parameter that is a writable
view of that row. Names, groups, ``parameters()`` order and digests stay
per head, while every forward pass runs all 2M heads at once off the
leaves, which are also where their gradients land, what the optimizer
steps and what ``crma.trainer``'s checkpoint stores. No other module knows
which row is which head.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import DimensionError, Tensor, index, linear, softmax

EXTRACTOR_GROUP = "extractor"


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


class FeatureExtractor:
    """MLP mapping inputs to features, relu after every layer."""

    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng: np.random.Generator):
        if input_dim < 1 or not hidden_dims:
            raise ValueError("extractor needs input_dim >= 1 and at least one layer")
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.feature_dim = self.hidden_dims[-1]
        widths = (self.input_dim, *self.hidden_dims)
        self.params = []
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            w = Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)
            b = Tensor(np.zeros(fan_out), requires_grad=True)
            self.params.append(Parameter(f"extractor.layer{i}.weight", EXTRACTOR_GROUP, w))
            self.params.append(Parameter(f"extractor.layer{i}.bias", EXTRACTOR_GROUP, b))

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
        self.head_hidden = tuple(int(d) for d in head_hidden)
        widths = (self.feature_dim, *self.head_hidden, self.num_classes)
        groups = [classifier_group(m, b) for m in range(self.num_domains) for b in ("a", "b")]
        names = [f"layer{i}.{kind}" for i in range(len(widths) - 1) for kind in ("weight", "bias")]
        # one (2M, ...) leaf per head-layer slot: weight, bias, weight, bias, ...
        self.head_slots = [
            Tensor(np.zeros((len(groups), *shape)), requires_grad=True, copy=False)
            for fan_in, fan_out in zip(widths, widths[1:])
            for shape in ((fan_in, fan_out), (fan_out,))
        ]
        # Initialization draw order is fixed: extractor first, then heads in
        # (domain, branch a, branch b) order, layer by layer; biases stay zero.
        for h in range(len(groups)):
            for weight in self.head_slots[0::2]:
                weight.values[h] = _glorot(rng, *weight.shape[1:])
        # each head's parameters are views of its rows, in parameters() order
        self._head_params = [
            Parameter(f"{group}.{name}", group, Tensor(slot.values[h], copy=False), slot, h)
            for h, group in enumerate(groups)
            for name, slot in zip(names, self.head_slots)
        ]
        # the storage leaves training differentiates and steps, in parameters()
        # order, fixed for the model's life
        self.extractor_leaves = tuple(p.leaf for p in self.extractor.params)
        self.head_leaves = tuple(self.head_slots)

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
        return [*self.extractor.params, *self._head_params]

    def group_parameters(self, prefix: str) -> list[Parameter]:
        return [p for p in self.parameters() if p.group.startswith(prefix)]


def parameters_digest(params: Iterable[Parameter]) -> str:
    """SHA-256 over parameter names and raw little-endian float64 bytes."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.tensor.values, dtype="<f8").tobytes())
    return h.hexdigest()
