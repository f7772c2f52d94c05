"""Shared feature extractor with one pair of classifier heads per source domain.

The model is two tuples of storage leaves, the tensors that training
differentiates and steps and that ``crma.trainer``'s checkpoint stores:
``extractor_leaves`` (weight, bias, weight, bias, ...) for the shared MLP,
and ``head_leaves``, one (M, 2, ...) leaf per head-layer slot that stacks
the heads by domain m and branch (0 for a, 1 for b). One MLP helper runs
both stacks, so every forward pass runs all 2M heads at once.

Names exist only in ``parameters()``, which builds them on demand: the
extractor leaves, then each head's writable views of its entry of the
slots. A name's prefix is its group ("extractor" or
"classifier.<m>.<branch>"). Digests read them.
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor, index, linear, softmax

def _named(group: str, arrays: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
    """``<group>.layer<i>.weight``/``bias`` over (weight, bias, ...) arrays."""
    kinds = ("weight", "bias")
    return {f"{group}.layer{i // 2}.{kinds[i % 2]}": a for i, a in enumerate(arrays)}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _mlp(h, leaves: Sequence[Tensor], relu_last: bool) -> Tensor:
    """``h``, an array or a tensor, through (weight, bias, ...) layers, relu between them.

    The layers are one MLP's, or several heads' stacked along a leading
    head axis; ``relu_last`` also puts relu after the last layer.
    """
    n_layers = len(leaves) // 2
    for i in range(n_layers):
        h = linear(h, leaves[2 * i], leaves[2 * i + 1], relu=relu_last or i < n_layers - 1)
    return h


# Largest model CrmaModel builds, in bytes of float64 parameter values.
MAX_MODEL_BYTES = 2**30


def _mlp_size(widths: Sequence[int]) -> int:
    """Weight and bias entries of an MLP with these layer widths."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))


def parameter_count(input_dim: int, num_classes: int, num_domains: int,
                    extractor_hidden: Sequence[int], head_hidden: Sequence[int]) -> int:
    """Weight and bias entries of the extractor and all 2M heads."""
    widths = (input_dim, *extractor_hidden)
    return _mlp_size(widths) + 2 * num_domains * _mlp_size((widths[-1], *head_hidden, num_classes))


def validate_shape(input_dim: int, num_classes: int, num_domains: int,
                   extractor_hidden: Sequence[int], head_hidden: Sequence[int]) -> None:
    """Raises ValueError naming the first shape rule broken; allocates nothing."""
    narrowest = min((*extractor_hidden, *head_hidden), default=1)
    for ok, what in (
        (input_dim >= 1, f"input_dim {input_dim}, need >= 1"),
        (bool(extractor_hidden), "no extractor layer, need at least one"),
        (narrowest >= 1, f"a hidden width of {narrowest}, need >= 1"),
        (num_classes >= 2, f"num_classes {num_classes}, need >= 2"),
        (num_domains >= 1, f"num_domains {num_domains}, need >= 1"),
    ):
        if not ok:
            raise ValueError(what)
    count = parameter_count(input_dim, num_classes, num_domains, extractor_hidden, head_hidden)
    if 8 * count > MAX_MODEL_BYTES:
        raise ValueError(f"the model has {count} parameters, {8 * count} bytes of float64 "
                         f"values, over the {MAX_MODEL_BYTES}-byte bound")


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
        """Raises ValueError as ``validate_shape`` does, before any allocation."""
        validate_shape(input_dim, num_classes, num_domains, extractor_hidden, head_hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.num_domains = int(num_domains)
        self.extractor_hidden = tuple(int(d) for d in extractor_hidden)
        self.head_hidden = tuple(int(d) for d in head_hidden)
        self.feature_dim = self.extractor_hidden[-1]
        # Initialization draw order is fixed: extractor weights first, then the
        # heads domain by domain, branch a before b, layer by layer; biases stay zero.
        widths = (self.input_dim, *self.extractor_hidden)
        self.extractor_leaves = tuple(
            Tensor(init, requires_grad=True, copy=False)
            for fan_in, fan_out in zip(widths, widths[1:])
            for init in (_glorot(rng, fan_in, fan_out), np.zeros(fan_out))
        )
        widths = (self.feature_dim, *self.head_hidden, self.num_classes)
        self.head_leaves = tuple(
            Tensor(np.zeros((self.num_domains, 2, *shape)), requires_grad=True, copy=False)
            for fan_in, fan_out in zip(widths, widths[1:])
            for shape in ((fan_in, fan_out), (fan_out,))
        )
        for head in np.ndindex(self.num_domains, 2):
            for weight in self.head_leaves[0::2]:
                weight.values[head] = _glorot(rng, *weight.shape[2:])

    def forward_features(self, x) -> Tensor:
        """Features of x (n, d), or of G batches x (G, n, d) in one grouped pass."""
        return _mlp(x, self.extractor_leaves, relu_last=True)

    def head_probs(self, features: Tensor) -> Tensor:
        """(M, 2, n, K) class probabilities of every head, in one batched pass.

        Features (n, d) feed every head; features (M, n, d) feed domain
        m's rows to its own pair only.
        """
        return softmax(_mlp(features, self.head_leaves, relu_last=False))

    def predict_pair(self, domain_index: int, features: Tensor) -> tuple[Tensor, Tensor]:
        """Class probabilities of one domain's heads a and b, from its entry of the head leaves."""
        if not 0 <= domain_index < self.num_domains:
            raise IndexError(
                f"domain index {domain_index} out of range for {self.num_domains} domains"
            )
        leaves = [index(leaf, domain_index) for leaf in self.head_leaves]
        probs = softmax(_mlp(features, leaves, relu_last=False))
        return index(probs, 0), index(probs, 1)

    def final_prediction(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Average the probability vectors of all 2M heads.

        Returns (probs, labels); labels break argmax ties toward the lowest
        class index, so evaluation is deterministic.
        """
        head_probs = self.head_probs(self.forward_features(x)).values
        # pair sums added domain by domain, the order of a per-pair loop
        probs = (head_probs[:, 0] + head_probs[:, 1]).sum(axis=0) / (2 * self.num_domains)
        return probs, np.argmax(probs, axis=1).astype(np.int32)

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> writable values: the extractor leaves, then each head's
        views of its entry of the head leaves, domain by domain, branch a before b."""
        params = _named("extractor", [leaf.values for leaf in self.extractor_leaves])
        for m, branch in np.ndindex(self.num_domains, 2):
            views = [leaf.values[m, branch] for leaf in self.head_leaves]
            params |= _named(f"classifier.{m}.{'ab'[branch]}", views)
        return params


def parameters_digest(params: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over parameter names and raw little-endian float64 bytes."""
    h = hashlib.sha256()
    for name, values in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()
