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
    ascending.  The result is a new Mask, monotone with respect to the
    input mask, which is left untouched.
    """
    if not 0.0 < t_iter < 1.0:
        raise ValueError("t_iter must be in (0, 1)")
    names = mask.names()
    if set(names) != set(params.prunable_names()):
        raise ValueError("mask does not cover the ParamSet's prunable tensors")
    if mask.surviving() == 0:
        raise ValueError("mask exhausted: no surviving weights left to prune")

    # (flat weight, byte mask of its survivors) of each layer, ranked per layer or all at once
    layers = [(params[n].reshape(-1), mask[n].reshape(-1) != 0.0) for n in names]
    groups = [[layer] for layer in layers] if scope is PruneScope.LAYERWISE else [layers]
    chosen = [c for group in groups for c in _smallest(group, t_iter)]
    # the selection is made: only now is the mask copied
    new_mask = mask.copy()
    for name, c in zip(names, chosen):
        if c is not None:
            new_mask[name].reshape(-1)[c] = 0.0
    return new_mask


_BLOCK = 1 << 16  # weights gathered per step into the magnitudes, to bound the temporary


def _smallest(layers: list[tuple[np.ndarray, np.ndarray]], t_iter: float) -> list[np.ndarray | None]:
    """Byte masks of the k = floor(t_iter * survivors) smallest |w| among the
    survivors of (flat weight, byte mask of survivors) pairs, or Nones when k
    is 0.  The k-th magnitude comes from an in-place partition of one array
    of the survivors' magnitudes.  Ties at it go to the earliest (layer, flat
    index), as in a stable sort, and NaNs sort last."""
    counts = [np.count_nonzero(alive) for _, alive in layers]
    k = int(np.floor(t_iter * sum(counts)))
    if k == 0:
        return [None] * len(layers)
    mags = np.empty(sum(counts))
    filled = 0
    for w, alive in layers:
        # boolean indexing by blocks bounds the temporary; np.compress would add an index array
        for start in range(0, w.size, _BLOCK):
            part = w[start : start + _BLOCK][alive[start : start + _BLOCK]]
            mags[filled : filled + part.size] = part
            filled += part.size
    np.abs(mags, out=mags)
    mags.partition(k - 1)
    kth = mags[k - 1]
    del mags  # freed before prune copies the mask
    chosen, ties = [], []
    for w, alive in layers:
        if np.isnan(kth):  # fewer than k survivors are not NaN
            at = np.isnan(w)
            below = ~at
        else:  # |w| < kth and |w| == kth, with no |w| temporary
            below = np.less(w, kth)
            below &= np.greater(w, -kth)
            at = np.equal(w, kth)
            at |= np.equal(w, -kth)
        below &= alive
        at &= alive
        chosen.append(below)
        ties.append(at)
    need = k - sum(np.count_nonzero(c) for c in chosen)
    for c, at in zip(chosen, ties):
        taken = np.flatnonzero(at)[:need]
        c[taken] = True
        need -= taken.size
    return chosen


def rewind(params: ParamSet, init: ParamSet, mask: Mask, state: OptimizerState) -> None:
    """Reset surviving weights (bitwise) and all biases to ``init``.

    Masked-out weights become exactly 0, and the optimizer state is cleared:
    retraining starts from the original initialization with a fresh optimizer.
    ``init`` may be ``params`` itself, already holding the initialization,
    as after ``load_params(init_path, out=params)``.  Raises ValueError
    unless ``params`` and ``init`` have the same names and shapes in the
    same order.
    """
    if params.shapes() != init.shapes():
        raise ValueError(f"layout mismatch: params are {params.shapes()}, init is {init.shapes()}")
    params.buffer[...] = init.buffer  # numpy skips the copy when init is params
    for name in mask:
        params[name] *= mask[name]
    state.reset()
