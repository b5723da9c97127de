"""Magnitude pruning with explicit binary masks and rewinding to initialization.

A Mask covers exactly the prunable tensors of a ParamSet (weight matrices;
biases are never pruned and never counted in sparsity).  Masks only ever move
from 1 to 0: each pruning round removes the smallest-magnitude fraction of the
weights still surviving, either per layer or across all layers at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nn import MlpArchitecture, OptimizerState, ParamSet


class PruneScope(Enum):
    """Ranking unit for magnitude pruning: within each layer, or across all."""

    LAYERWISE = "layerwise"
    GLOBAL = "global"


class Mask:
    """Binary (0.0/1.0) float64 tensors over a ParamSet's prunable entries."""

    def __init__(self, entries: dict[str, np.ndarray]) -> None:
        self._entries: dict[str, np.ndarray] = {}
        for name, arr in entries.items():
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            # one elementwise pass, no sort; NaN fails both comparisons, -0.0 passes
            if not np.all((arr == 0.0) | (arr == 1.0)):
                raise ValueError(f"mask {name!r} must contain only 0.0 and 1.0")
            self._entries[name] = arr

    @classmethod
    def full(cls, params: ParamSet) -> "Mask":
        """All-ones mask over every prunable tensor."""
        return cls({n: np.ones_like(params[n]) for n in params.prunable_names()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def copy(self) -> "Mask":
        return Mask({n: a.copy() for n, a in self._entries.items()})

    def surviving(self) -> int:
        return int(sum(a.sum() for a in self._entries.values()))

    def total(self) -> int:
        return sum(a.size for a in self._entries.values())

    def is_subset_of(self, other: "Mask") -> bool:
        """True when every 1 in self is also 1 in other (monotonicity)."""
        return self.names() == other.names() and all(
            np.all(self._entries[n] <= other._entries[n]) for n in self._entries
        )

    def equals(self, other: "Mask") -> bool:
        return self.names() == other.names() and all(
            np.array_equal(self._entries[n], other._entries[n]) for n in self._entries
        )


def sparsity(mask: Mask) -> float:
    """Fraction of prunable weight positions masked out (biases excluded)."""
    total = mask.total()
    return (total - mask.surviving()) / total


def prune(params: ParamSet, mask: Mask, t_iter: float, scope: PruneScope) -> Mask:
    """Mask out the smallest surviving weights by absolute value.

    Under LAYERWISE scope each prunable tensor loses
    floor(t_iter * its_surviving_count) weights; under GLOBAL the same floor
    applies once to the total surviving count and the smallest magnitudes are
    taken across all tensors.  Ties break by (layer order, flat index)
    ascending.  The result is monotone with respect to the input mask.
    """
    if not 0.0 < t_iter < 1.0:
        raise ValueError("t_iter must be in (0, 1)")
    names = mask.names()
    if set(names) != set(params.prunable_names()):
        raise ValueError("mask does not cover the ParamSet's prunable tensors")
    if mask.surviving() == 0:
        raise ValueError("mask exhausted: no surviving weights left to prune")

    new_mask = mask.copy()
    if scope is PruneScope.LAYERWISE:
        for name in names:
            m = new_mask[name].reshape(-1)
            w = params[name].reshape(-1)
            alive = np.flatnonzero(m == 1.0)
            k = int(np.floor(t_iter * alive.size))
            if k == 0:
                continue
            # stable sort on magnitude keeps ascending flat index on ties
            order = np.argsort(np.abs(w[alive]), kind="stable")
            m[alive[order[:k]]] = 0.0
    else:
        mags, layer_ids, flat_ids = [], [], []
        for layer_id, name in enumerate(names):
            m = new_mask[name].reshape(-1)
            w = params[name].reshape(-1)
            alive = np.flatnonzero(m == 1.0)
            mags.append(np.abs(w[alive]))
            layer_ids.append(np.full(alive.size, layer_id))
            flat_ids.append(alive)
        mag = np.concatenate(mags)
        layer = np.concatenate(layer_ids)
        flat = np.concatenate(flat_ids)
        k = int(np.floor(t_iter * mag.size))
        if k > 0:
            # lexsort: last key is primary, so (magnitude, layer order, flat index)
            order = np.lexsort((flat, layer, mag))
            doomed = order[:k]
            for layer_id, name in enumerate(names):
                sel = flat[doomed[layer[doomed] == layer_id]]
                new_mask[name].reshape(-1)[sel] = 0.0
    return new_mask


@dataclass(frozen=True)
class InitSnapshot:
    """Frozen copy of the parameters at t=0, used for rewinding."""

    params: ParamSet
    seed: int
    fingerprint: str

    @classmethod
    def capture(cls, params: ParamSet, arch: MlpArchitecture, seed: int) -> "InitSnapshot":
        return cls(params=params.copy(), seed=seed, fingerprint=arch.fingerprint())


def param_fingerprint(params: ParamSet) -> str:
    """Architecture fingerprint recovered from a ParamSet's weight shapes."""
    sizes = []
    for name in params.prunable_names():
        out_dim, in_dim = params[name].shape
        if not sizes:
            sizes.append(in_dim)
        sizes.append(out_dim)
    return "mlp-" + "x".join(str(s) for s in sizes)


def rewind(
    params: ParamSet,
    snapshot: InitSnapshot,
    mask: Mask,
    state: OptimizerState,
) -> None:
    """Reset surviving weights (bitwise) and all biases to the snapshot.

    Masked-out weights become exactly 0, and the optimizer state is cleared:
    retraining starts from the original initialization with a fresh optimizer.
    """
    actual = param_fingerprint(params)
    if actual != snapshot.fingerprint:
        raise ValueError(
            f"fingerprint mismatch: params are {actual!r}, snapshot is {snapshot.fingerprint!r}"
        )
    for name in params.names():
        if name in mask:
            params[name][...] = snapshot.params[name] * mask[name]
        else:
            params[name][...] = snapshot.params[name]
    state.reset()
