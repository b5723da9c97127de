"""Magnitude pruning with explicit binary masks and rewinding to initialization.

A Mask is a ParamSet of 0.0/1.0 tensors over exactly the prunable tensors
of another, its ``*.weight`` entries in their order; biases are never pruned
and never counted in sparsity.  Masks only ever move from 1 to 0: each
pruning round removes the smallest-magnitude fraction of the weights still
surviving, either per layer or across all layers at once.  The rewind target
is the initialization itself, a ParamSet with the same names and shapes as
the one being trained.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .nn import OptimizerState, ParamSet


class PruneScope(Enum):
    """Ranking unit for magnitude pruning: within each layer, or across all."""

    LAYERWISE = "layerwise"
    GLOBAL = "global"


class Mask(ParamSet):
    """Binary (0.0/1.0) tensors over a ParamSet's prunable entries, in their order.

    A ParamSet like any other, whose every entry is checked to hold only 0.0
    and 1.0 (-0.0 passes, NaN fails) whenever a Mask is laid out (built,
    copied or re-laid over a loaded buffer with ``on_buffer``) or a file is
    decoded into it with ``load_params(path, out=mask)``.
    """

    def check(self) -> None:
        for name, arr in self._tensors.items():
            # every nonzero entry is 1.0; one bool temporary, no larger than the entry
            if np.count_nonzero(arr) != np.count_nonzero(arr == 1.0):
                raise ValueError(f"mask {name!r} must contain only 0.0 and 1.0")

    @classmethod
    def full(cls, params: ParamSet) -> "Mask":
        """All-ones mask over every prunable tensor."""
        return cls({n: np.ones_like(params[n]) for n in params.prunable_names()})

    def surviving(self) -> int:
        return int(self.buffer.sum())  # exact: a sum of 0s and 1s

    def total(self) -> int:
        return self.buffer.size


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
    flat = [new_mask[name].reshape(-1) for name in names]
    if scope is PruneScope.LAYERWISE:
        for name, m in zip(names, flat):
            alive, mags = _surviving_magnitudes(params[name], m)
            k = int(np.floor(t_iter * alive.size))
            if k > 0:
                m[alive[_smallest(mags, k)]] = 0.0
    else:
        alive, mags = zip(*(_surviving_magnitudes(params[n], m) for n, m in zip(names, flat)))
        # concatenated in layer order, flat index ascending within a layer
        mag = np.concatenate(mags)
        k = int(np.floor(t_iter * mag.size))
        if k > 0:
            chosen = np.split(_smallest(mag, k), np.cumsum([a.size for a in alive])[:-1])
            for m, a, part in zip(flat, alive, chosen):
                m[a[part]] = 0.0
    return new_mask


def _surviving_magnitudes(w: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the survivors of flat mask ``m``, ascending, and |w| there."""
    alive = np.flatnonzero(m)
    mags = w.reshape(-1).take(alive)
    return alive, np.abs(mags, out=mags)


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean selection of the k smallest of ``values``, found by partition;
    ties at the k-th value go to the earliest positions, as in a stable sort,
    and NaNs sort last."""
    kth = np.partition(values, k - 1)[k - 1]
    if np.isnan(kth):
        chosen, at_kth = ~np.isnan(values), np.isnan(values)
    else:
        chosen, at_kth = values < kth, values == kth
    chosen[np.flatnonzero(at_kth)[: k - np.count_nonzero(chosen)]] = True
    return chosen


def rewind(params: ParamSet, init: ParamSet, mask: Mask, state: OptimizerState) -> None:
    """Reset surviving weights (bitwise) and all biases to ``init``.

    Masked-out weights become exactly 0, and the optimizer state is cleared:
    retraining starts from the original initialization with a fresh optimizer.
    Raises ValueError unless ``params`` and ``init`` have the same names and
    shapes in the same order.
    """
    if params.shapes() != init.shapes():
        raise ValueError(f"layout mismatch: params are {params.shapes()}, init is {init.shapes()}")
    params.buffer[...] = init.buffer
    for name in mask:
        params[name] *= mask[name]
    state.reset()
