"""train's sparsity-aware step equals the plain masked loop, bit for bit.

``train`` zeroes the off-mask weights and velocities once, runs forward and
backward unmasked and updates only the survivors of sparse tensors.  The
oracle here is the still-masked loop of ``loss_and_grad`` and the planless
``sgd_step`` of ``tests/reference.py``, with the same shuffles.
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
    PruneScope,
    SketchConfig,
    TrainConfig,
    init_params,
    loss_and_grad,
    run_sketch,
    synth_blobs,
    train,
)
from sparse_lab.checkpoint import load_tensors
from sparse_lab.util import derive_seed

from reference import sgd_step

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


def mixed_mask(params):
    """fc1 half alive (all positions updated), fc2 at 5% (survivors only), fc3 half alive."""
    rng = np.random.default_rng(2)
    return Mask({n: (rng.random(params[n].shape) < d).astype(np.float64)
                 for n, d in zip(params.prunable_names(), (0.5, 0.05, 0.5))})


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_train_with_tensors_gathered_outside_the_dense_stretch(weight_decay):
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    cfg = TrainConfig(epochs=2, lr=0.1, momentum=0.9, weight_decay=weight_decay,
                      batch_size=16, seed=8)
    params, state = dirty_start(4)
    mask = mixed_mask(params)
    o_params, o_state = params.copy(), OptimizerState(params)
    o_state.velocity.buffer[...] = state.velocity.buffer
    train(params, mask, state, ds, cfg)
    masked_loop(o_params, mask, o_state, ds, cfg)
    assert_same(params, state, o_params, o_state)


def test_masked_bias_is_never_decayed(monkeypatch):
    # only a *.weight takes the survivor update, which always decays
    monkeypatch.setattr(nn, "SURVIVOR_UPDATE_BELOW", 1.01)
    monkeypatch.setattr(nn, "SURVIVOR_UPDATE_MIN_SIZE", 0)
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    cfg = TrainConfig(epochs=2, lr=0.1, momentum=0.9, weight_decay=1e-2, batch_size=16, seed=8)
    params = init_params(ARCH, 4)
    rng = np.random.default_rng(5)
    mask = Mask({n: (rng.random(params[n].shape) < 0.5).astype(np.float64)
                 for n in ("fc1.weight", "fc1.bias")})
    params["fc1.bias"] = rng.standard_normal(params["fc1.bias"].shape) * mask["fc1.bias"]
    state, o_params, o_state = OptimizerState(params), params.copy(), OptimizerState(params)
    train(params, mask, state, ds, cfg)
    masked_loop(o_params, mask, o_state, ds, cfg)
    assert_same(params, state, o_params, o_state)


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


def in_place_layout(step, params, mask):
    """Each in-place stretch as (tensors it covers, masked ones, decayed ones),
    names in buffer order.  Checks that a stretch and each of its parts span
    whole tensors and that each attached mask is its tensor's."""
    bounds = {n: (a, b) for n, a, b in params.offsets()}
    tensor_at = {span: n for n, span in bounds.items()}
    layout = []
    for whole, masks, decayed in step.stretches:
        def names(parts):
            return [tensor_at[(p.start + whole.start, p.stop + whole.start)] for p in parts]

        covered = [n for n, (a, b) in bounds.items() if whole.start <= a and b <= whole.stop]
        assert (bounds[covered[0]][0], bounds[covered[-1]][1]) == (whole.start, whole.stop)
        masked = names(p for p, _ in masks)
        for n, (_, m) in zip(masked, masks):
            assert np.array_equal(m, mask[n].reshape(-1)), n
        layout.append((covered, masked, names(decayed)))
    return layout


def test_plan_splits_tensors_at_the_crossover():
    params = init_params(ARCH, 0)
    assert params["fc1.weight"].size >= nn.SURVIVOR_UPDATE_MIN_SIZE > params["fc3.weight"].size
    sparse = random_mask(params, nn.SURVIVOR_UPDATE_BELOW / 2, np.random.default_rng(1))
    mask = Mask({
        "fc1.weight": sparse["fc1.weight"],  # large and sparse: survivors only
        "fc2.weight": np.ones_like(params["fc2.weight"]),  # full: in place, no mask
        "fc3.weight": sparse["fc3.weight"],  # small: in place with its mask
    })
    step = nn.Step(params, mask, TrainConfig(epochs=1))
    assert np.array_equal(step.gather, np.flatnonzero(mask["fc1.weight"]))
    assert in_place_layout(step, params, mask) == [
        (["fc1.bias", "fc2.weight", "fc2.bias", "fc3.weight", "fc3.bias"],
         ["fc3.weight"], ["fc2.weight", "fc3.weight"]),
    ]


def test_plan_splits_stretches_at_survivor_updated_tensors():
    params = init_params(ARCH, 0)
    mask = mixed_mask(params)
    step = nn.Step(params, mask, TrainConfig(epochs=1))
    offsets = {name: (start, stop) for name, start, stop in params.offsets()}
    assert np.array_equal(step.gather, np.flatnonzero(mask["fc2.weight"]) + offsets["fc2.weight"][0])
    assert in_place_layout(step, params, mask) == [
        (["fc1.weight", "fc1.bias"], ["fc1.weight"], ["fc1.weight"]),
        (["fc2.bias", "fc3.weight", "fc3.bias"], ["fc3.weight"], ["fc3.weight"]),
    ]


def test_layer_names_worked_out_once_per_call(monkeypatch):
    calls = []
    real = nn.Step.__init__
    monkeypatch.setattr(nn.Step, "__init__", lambda self, *a, **k: calls.append(1) or real(self, *a, **k))
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


# sha256 over every round's params.bin and mask.bin, then metrics.csv, of the two
# runs below, recorded from the per-tensor update.  np.array_equal ignores the
# sign of zero; these bytes do not.
GOLDEN_RUN_BYTES_SHA256 = "3ce5d924f17c121d177491576c0fc8d59e2f3bc13f5005056c7522ed89371744"


def golden_byte_configs():
    # every tensor under SURVIVOR_UPDATE_MIN_SIZE; 240 training samples in batches
    # of 64 end with a partial batch; the lr drops at epoch 2 of 3
    small = SketchConfig(
        run_id="small",
        arch=MlpArchitecture([32, 64, 32, 10]),
        train=TrainConfig(epochs=3, lr=0.1, momentum=0.9, weight_decay=1e-4, batch_size=64,
                          lr_milestones=(2,), seed=5),
        dataset=DatasetSpec(kind="blobs", n_per_class=30, num_classes=10, dim=32, data_seed=4),
        t_iter=0.5,
        t_end=0.99,
        epsilon=0.2,
        noise_seed=6,
    )
    # global scope: fc2 (10240 weights) reaches the survivor update a round before
    # fc1 (12288) does, and both end with dead units
    wide = SketchConfig(
        run_id="wide",
        arch=MlpArchitecture([96, 128, 80, 4]),
        train=TrainConfig(epochs=2, lr=0.1, momentum=0.9, weight_decay=1e-4, batch_size=32,
                          seed=9),
        dataset=DatasetSpec(kind="blobs", n_per_class=40, num_classes=4, dim=96, data_seed=8),
        t_iter=0.5,
        t_end=0.995,
        scope=PruneScope.GLOBAL,
        epsilon=0.1,
        noise_seed=3,
    )
    return small, wide


def test_run_bytes_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for cfg in golden_byte_configs():
        run_dir = tmp_path / cfg.run_id
        run = run_sketch(cfg, run_dir)
        for k in range(len(run.rounds)):
            for name in ("params.bin", "mask.bin"):
                digest.update((run_dir / f"round_{k:03d}" / name).read_bytes())
        digest.update((run_dir / "metrics.csv").read_bytes())
    last = load_tensors(tmp_path / "wide" / f"round_{len(run.rounds) - 1:03d}" / "mask.bin")
    assert (last["fc1.weight"].sum(axis=1) == 0).any()  # fc1 units with no input left
    assert (last["fc2.weight"].sum(axis=0) == 0).any()  # fc1 units with no output left
    assert digest.hexdigest() == GOLDEN_RUN_BYTES_SHA256


def test_rounds_of_a_run_reuse_the_step_buffers(tmp_path, monkeypatch):
    steps, kept = [], []
    real = nn.sgd_step
    monkeypatch.setattr(nn, "sgd_step", lambda *a: steps.append(a[-1]) or real(*a))
    small, _ = golden_byte_configs()
    run = run_sketch(small, tmp_path / "r", on_round=lambda m: kept.append(dict(steps[-1].buffers)))
    assert len(run.rounds) == len(kept) > 2
    assert all(step is steps[0] for step in steps)
    # forward (batch, activations), backward (gates, logit gradient) and evaluation
    # (the chunk's activations in the grown pre buffers; its masked weights go to
    # the gradient scratch)
    assert {"batch", "pre0", "post0", "gate0", "dlogits"} <= set(kept[0])
    for before, after in zip(kept, kept[1:]):
        assert before.keys() == after.keys()
        assert all(before[name] is after[name] for name in before)


def six_class_data():
    """Blobs whose labels reach 5: out of range for a 4-output network."""
    ds = synth_blobs(n_per_class=10, num_classes=6, dim=24, separation=2.0, seed=3)
    assert ds.labels.max() == 5
    return ds


def test_train_checks_labels_once_before_any_update(monkeypatch):
    params, state = dirty_start(5)
    mask = random_mask(params, 0.5, np.random.default_rng(5))
    before = params.buffer.tobytes(), state.velocity.buffer.tobytes()
    checks = []
    real = nn.Step.check_labels
    monkeypatch.setattr(nn.Step, "check_labels", lambda *a: checks.append(1) or real(*a))
    with pytest.raises(ValueError, match=r"label \d out of range \[0, 4\)"):
        train(params, mask, state, six_class_data(), TrainConfig(epochs=2, batch_size=8))
    assert (params.buffer.tobytes(), state.velocity.buffer.tobytes()) == before
    assert state.step_count == 0
    ds = synth_blobs(n_per_class=25, num_classes=4, dim=24, separation=2.0, seed=3)
    checks.clear()
    train(params, mask, state, ds, TrainConfig(epochs=2, batch_size=8))
    assert len(checks) == 1 and state.step_count == 26


def test_loss_and_grad_and_evaluate_check_their_own_labels():
    params = init_params(ARCH, 0)
    ds = six_class_data()
    with pytest.raises(ValueError, match=r"label \d out of range \[0, 4\)"):
        loss_and_grad(params, None, ds.features, ds.labels)
    with pytest.raises(ValueError, match=r"label \d out of range \[0, 4\)"):
        nn.evaluate(params, None, ds)
    with pytest.raises(ValueError, match="labels must have shape"):
        loss_and_grad(params, None, ds.features, ds.labels[:-1])
