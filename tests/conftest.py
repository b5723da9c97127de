"""Shared fixtures and helpers for the test suite.

The reference oracles (finite differences, the brute-force prune, the
kink-free net builder) live in ``sparse_lab.selftest``.
"""

from __future__ import annotations

# sparse_lab caps BLAS threads when it is imported, which only takes effect
# if numpy is not loaded yet: it must come before numpy, or tier-1 runs
# OpenBLAS on every core (tests/test_env.py checks the order).
from sparse_lab import LabeledDataset, MlpArchitecture, ParamSet, init_params

import numpy as np
import pytest


def make_params(weight_rows, bias=None):
    """Single-layer ParamSet from an explicit weight matrix."""
    w = np.asarray(weight_rows, dtype=np.float64)
    return ParamSet({"fc1.weight": w, "fc1.bias": np.zeros(w.shape[0]) if bias is None else bias})


@pytest.fixture
def tiny_dataset():
    """Two well-separated points, one per class."""
    feats = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    return LabeledDataset(features=feats, labels=labels, num_classes=2)


@pytest.fixture
def small_arch():
    return MlpArchitecture([4, 5, 3])


@pytest.fixture
def small_net(small_arch):
    return init_params(small_arch, 7)
