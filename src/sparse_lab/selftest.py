"""Built-in sanity suites for the CLI: gradient check and prune oracle.

Both suites check the fast paths against independent references: gradients
against central finite differences of the loss, and pruning against a
brute-force sort over (|value|, layer order, flat index).
"""

from __future__ import annotations

import numpy as np

from .nn import MlpArchitecture, ParamSet, forward_trace, init_params, loss_and_grad
from .pruning import Mask, PruneScope, prune
from .util import derive_seed


def fd_gradient(params: ParamSet, batch: np.ndarray, labels: np.ndarray, h: float = 1e-5) -> dict:
    """Central finite differences of the data loss w.r.t. every parameter."""
    grads = {}
    for name in params.names():
        w = params[name]
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(params, None, batch, labels)
            flat[i] = orig - h
            lm, _ = loss_and_grad(params, None, batch, labels)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_gradient_error(
    params: ParamSet, batch: np.ndarray, labels: np.ndarray, h: float = 1e-5
) -> float:
    """max over parameters of |analytic - fd| / max(|analytic|, |fd|, 1e-3)."""
    _, analytic = loss_and_grad(params, None, batch, labels)
    numeric = fd_gradient(params, batch, labels, h)
    worst = 0.0
    for name in params.names():
        a, f = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def _random_small_net(seed: int) -> tuple[ParamSet, np.ndarray, np.ndarray]:
    """A seeded net of <= 100 params with a batch placed away from ReLU kinks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for attempt in range(64):
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)) + 1)]
        arch = MlpArchitecture(sizes)
        if arch.param_count() > 100:
            continue
        params = init_params(arch, derive_seed(seed, "init", attempt))
        batch_rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "batch", attempt)))
        batch = batch_rng.standard_normal((4, sizes[0]))
        labels = batch_rng.integers(0, sizes[-1], size=4)
        _, pre, _ = forward_trace(params, None, batch)
        # keep pre-activations off the kink so finite differences stay smooth
        if all(np.abs(z).min() > 1e-3 for z in pre[:-1]):
            return params, batch, labels
    raise RuntimeError(f"could not build a kink-free test net for seed {seed}")


def run_gradient_check(num_nets: int = 5, tolerance: float = 1e-6) -> tuple[bool, str]:
    worst = 0.0
    for trial in range(num_nets):
        params, batch, labels = _random_small_net(1000 + trial)
        worst = max(worst, max_relative_gradient_error(params, batch, labels))
    ok = worst < tolerance
    return ok, f"gradient check: max relative error {worst:.3e} (tolerance {tolerance:.0e})"


def brute_force_prune(
    weights: list[np.ndarray], masks: list[np.ndarray], t_iter: float, scope: PruneScope
) -> list[set[int]]:
    """Reference kept sets: enumerate surviving weights, sort by
    (|value|, layer order, flat index), drop floor(t_iter * surviving)."""
    entries = []  # (|w|, layer, flat)
    for layer, (w, m) in enumerate(zip(weights, masks)):
        for flat in range(w.size):
            if m.reshape(-1)[flat] == 1.0:
                entries.append((abs(float(w.reshape(-1)[flat])), layer, flat))
    if scope is PruneScope.GLOBAL:
        entries.sort()
        doomed = entries[: int(np.floor(t_iter * len(entries)))]
    else:
        doomed = []
        for layer in range(len(weights)):
            layer_entries = sorted(e for e in entries if e[1] == layer)
            doomed.extend(layer_entries[: int(np.floor(t_iter * len(layer_entries)))])
    kept: list[set[int]] = [set() for _ in weights]
    doomed_set = {(e[1], e[2]) for e in doomed}
    for _mag, layer, flat in entries:
        if (layer, flat) not in doomed_set:
            kept[layer].add(flat)
    return kept


def run_prune_oracle(num_cases: int = 200) -> tuple[bool, str]:
    rng = np.random.Generator(np.random.PCG64(20240601))
    failures = 0
    for case in range(num_cases):
        n_layers = int(rng.integers(1, 4))
        shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 6))) for _ in range(n_layers)]
        params = ParamSet()
        weights, masks = [], []
        for i, shape in enumerate(shapes):
            # discrete magnitudes force ties to exercise the tie-break
            w = rng.choice([-0.5, -0.25, 0.0, 0.1, 0.25, 0.5], size=shape)
            params.add(f"fc{i + 1}.weight", w, prunable=True)
            params.add(f"fc{i + 1}.bias", np.zeros(shape[0]), prunable=False)
            weights.append(params[f"fc{i + 1}.weight"])
            masks.append((rng.random(shape) < 0.8).astype(np.float64))
        if sum(m.sum() for m in masks) == 0:
            continue
        mask = Mask({f"fc{i + 1}.weight": masks[i] for i in range(n_layers)})
        t_iter = float(rng.uniform(0.05, 0.95))
        scope = PruneScope.GLOBAL if case % 2 else PruneScope.LAYERWISE
        result = prune(params, mask, t_iter, scope)
        expected = brute_force_prune(weights, masks, t_iter, scope)
        for i in range(n_layers):
            got = set(np.flatnonzero(result[f"fc{i + 1}.weight"].reshape(-1) == 1.0))
            if got != expected[i]:
                failures += 1
                break
    ok = failures == 0
    return ok, f"prune oracle: {failures} mismatches over {num_cases} cases"


def run_selftest() -> tuple[bool, list[str]]:
    """Run all built-in suites; returns (all_ok, per-suite report lines)."""
    results = [run_gradient_check(), run_prune_oracle()]
    lines = [("PASS " if ok else "FAIL ") + msg for ok, msg in results]
    return all(ok for ok, _ in results), lines
