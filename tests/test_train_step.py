"""train's sparsity-aware step equals the plain masked loop, bit for bit.

``train`` zeroes the off-mask weights and velocities once, runs forward and
backward unmasked and updates only the survivors of sparse tensors.  The
oracle here is the public, still-masked ``loss_and_grad`` + ``sgd_step``
loop with the same shuffles.
"""

import hashlib

import numpy as np
import pytest

import sparse_lab.nn as nn
from sparse_lab import (
    DatasetSpec,
    Mask,
    MlpArchitecture,
    OptimizerState,
    SketchConfig,
    TrainConfig,
    init_params,
    loss_and_grad,
    run_sketch,
    sgd_step,
    synth_blobs,
    train,
)
from sparse_lab.util import derive_seed

# fc1 and fc2 are large enough for the survivor update, fc3 is not
ARCH = MlpArchitecture([24, 384, 24, 4])


def masked_loop(params, mask, state, ds, cfg):
    """The oracle: one masked loss_and_grad + sgd_step per minibatch."""
    n = ds.size
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "shuffle", epoch)))
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grads = loss_and_grad(params, mask, ds.features[idx], ds.labels[idx])
            sgd_step(params, grads, state, mask, cfg, epoch)


def random_mask(params, density, rng, empty=()):
    return Mask({
        n: np.zeros(params[n].shape) if n in empty
        else (rng.random(params[n].shape) < density).astype(np.float64)
        for n in params.prunable_names()
    })


def dirty_start(seed):
    """Params and velocities that are non-zero everywhere, off-mask included."""
    params = init_params(ARCH, seed)
    state = OptimizerState(params)
    rng = np.random.default_rng(seed)
    for n in params.names():
        params[n] = params[n] + 0.01 * rng.standard_normal(params[n].shape)
        state.velocity[n][...] = 0.01 * rng.standard_normal(params[n].shape)
    return params, state


def assert_same(a_params, a_state, b_params, b_state):
    for n in a_params.names():
        assert np.array_equal(a_params[n], b_params[n]), n
        assert np.array_equal(a_state.velocity[n], b_state.velocity[n]), n
    assert a_state.step_count == b_state.step_count


@pytest.mark.parametrize("crossover,min_size", [
    (0.0, 0), (nn.SURVIVOR_UPDATE_BELOW, nn.SURVIVOR_UPDATE_MIN_SIZE), (1.01, 0),
], ids=["dense-update", "default", "survivors-update"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("density,empty", [
    (1.0, ()), (0.5, ()), (0.1, ()), (0.001, ()), (0.5, ("fc2.weight",)),
])
def test_train_equals_masked_loop(monkeypatch, crossover, min_size, weight_decay, density, empty):
    monkeypatch.setattr(nn, "SURVIVOR_UPDATE_BELOW", crossover)
    monkeypatch.setattr(nn, "SURVIVOR_UPDATE_MIN_SIZE", min_size)
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    cfg = TrainConfig(epochs=3, lr=0.1, momentum=0.9, weight_decay=weight_decay,
                      batch_size=16, lr_milestones=(2,), seed=8)
    params, state = dirty_start(4)
    mask = random_mask(params, density, np.random.default_rng(5), empty)
    o_params, o_state = params.copy(), OptimizerState(params)
    for n in params.names():
        o_state.velocity[n][...] = state.velocity[n]

    train(params, mask, state, ds, cfg)
    masked_loop(o_params, mask, o_state, ds, cfg)
    assert_same(params, state, o_params, o_state)
    for n in mask.names():
        assert np.all(params[n][mask[n] == 0.0] == 0.0)
        assert np.all(state.velocity[n][mask[n] == 0.0] == 0.0)


def test_unmasked_train_equals_unmasked_loop():
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    cfg = TrainConfig(epochs=2, lr=0.05, momentum=0.5, weight_decay=1e-4, batch_size=32, seed=2)
    params, state = dirty_start(6)
    o_params, o_state = params.copy(), OptimizerState(params)
    for n in params.names():
        o_state.velocity[n][...] = state.velocity[n]
    train(params, None, state, ds, cfg)
    masked_loop(o_params, None, o_state, ds, cfg)
    assert_same(params, state, o_params, o_state)


def test_plan_splits_tensors_at_the_crossover():
    params = init_params(ARCH, 0)
    assert params["fc1.weight"].size >= nn.SURVIVOR_UPDATE_MIN_SIZE > params["fc3.weight"].size
    sparse = random_mask(params, nn.SURVIVOR_UPDATE_BELOW / 2, np.random.default_rng(1))
    mask = Mask({
        "fc1.weight": sparse["fc1.weight"],  # large and sparse: survivors only
        "fc2.weight": np.ones_like(params["fc2.weight"]),  # full: plain update
        "fc3.weight": sparse["fc3.weight"],  # small: masked dense update
    })
    plan = nn.StepPlan(mask)
    assert set(plan.survivors) == {"fc1.weight"}
    assert np.array_equal(plan.survivors["fc1.weight"], np.flatnonzero(mask["fc1.weight"]))
    assert set(plan.masks) == {"fc3.weight"}


def test_layer_names_worked_out_once_per_call(monkeypatch):
    calls = []
    real = nn._layer_names
    monkeypatch.setattr(nn, "_layer_names", lambda params: calls.append(1) or real(params))
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=8)
    params = init_params(ARCH, 0)
    mask = random_mask(params, 0.5, np.random.default_rng(5))
    train(params, mask, OptimizerState(params), ds, cfg)
    assert len(calls) == 1
    nn.evaluate(params, mask, ds, chunk_size=7)
    assert len(calls) == 2


# metrics.csv of this config, recorded from the masked-loop implementation
GOLDEN_METRICS_CSV_SHA256 = "d5f1c332c2f097c32b6dc58a0835680caee7ff0d59a6c475650c4496634e0463"


def test_metrics_csv_matches_golden_digest(tmp_path):
    cfg = SketchConfig(
        run_id="golden",
        arch=MlpArchitecture([64, 160, 8, 3]),
        train=TrainConfig(epochs=2, lr=0.1, momentum=0.9, batch_size=16, seed=11,
                          weight_decay=1e-4),
        dataset=DatasetSpec(kind="blobs", n_per_class=40, num_classes=3, dim=64,
                            separation=3.0, data_seed=1),
        t_iter=0.5,
        t_end=0.97,
        epsilon=0.2,
        noise_seed=2,
    )
    run = run_sketch(cfg, tmp_path / "r")
    # dense, then down to 98% sparsity: fc1 (10240 weights) goes to the survivor
    # update from round 3 on, the small fc2 and fc3 keep the masked dense update
    assert len(run.rounds) == 7
    digest = hashlib.sha256((tmp_path / "r" / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_METRICS_CSV_SHA256
