"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparse_lab import (
    LabeledDataset,
    MlpArchitecture,
    ParamSet,
    PruneScope,
    init_params,
    loss_and_grad,
)


def finite_difference_grads(params, batch, labels, h=1e-5):
    """Independent oracle: central differences of the scalar loss.

    Treats loss_and_grad's loss output as a black-box function of the
    parameters; never touches the analytic gradients.
    """
    out = {}
    for name in params.names():
        flat = params[name].reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(params, None, batch, labels)
            flat[i] = orig - h
            lm, _ = loss_and_grad(params, None, batch, labels)
            flat[i] = orig
            g[i] = (lp - lm) / (2 * h)
        out[name] = g.reshape(params[name].shape)
    return out


def gradient_mismatch(analytic, numeric, names):
    """max |a - f| / max(|a|, |f|, 1e-3) over all parameters."""
    worst = 0.0
    for name in names:
        a, f = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def brute_force_kept(weights, masks, t_iter, scope):
    """Independent prune oracle: the flat indices each layer keeps.

    Sorts the surviving (|value|, layer, flat index) entries and drops the
    first floor(t_iter * n) of them, over all layers (global scope) or
    within each layer (layerwise), so ties go to the lowest layer and index.
    """
    entries = []
    for layer, (w, m) in enumerate(zip(weights, masks)):
        fw, fm = w.reshape(-1), m.reshape(-1)
        entries.extend(
            (abs(float(fw[i])), layer, i) for i in range(fw.size) if fm[i] == 1.0
        )
    doomed = set()
    if scope is PruneScope.GLOBAL:
        for _, layer, i in sorted(entries)[: int(math.floor(t_iter * len(entries)))]:
            doomed.add((layer, i))
    else:
        for layer in range(len(weights)):
            mine = sorted(e for e in entries if e[1] == layer)
            for _, _, i in mine[: int(math.floor(t_iter * len(mine)))]:
                doomed.add((layer, i))
    return [
        {i for (_, l, i) in entries if l == layer and (layer, i) not in doomed}
        for layer in range(len(weights))
    ]


def make_params(weight_rows, bias=None):
    """Single-layer ParamSet from an explicit weight matrix."""
    w = np.asarray(weight_rows, dtype=np.float64)
    params = ParamSet()
    params.add("fc1.weight", w, prunable=True)
    params.add("fc1.bias", np.zeros(w.shape[0]) if bias is None else np.asarray(bias, float), prunable=False)
    return params


@pytest.fixture
def tiny_dataset():
    """Two well-separated points, one per class."""
    feats = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    return LabeledDataset(features=feats, labels=labels, num_classes=2, name="tiny")


@pytest.fixture
def small_arch():
    return MlpArchitecture([4, 5, 3])


@pytest.fixture
def small_net(small_arch):
    return init_params(small_arch, 7)
