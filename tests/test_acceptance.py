"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them as they complete).  Criteria 6 and 7 train the
double-descent pair through ``sweep`` on the four MNIST IDX files, found in
$SPARSE_LAB_MNIST_DIR or ./data/mnist.  With neither configured they skip,
naming the files; a configured directory that lacks one fails, naming it.
The gradient and prune oracles are those of ``sparse_lab.selftest``.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import sparse_lab.sketch as sketch_mod
from sparse_lab import (
    DatasetSpec,
    Mask,
    MlpArchitecture,
    OptimizerState,
    ParamSet,
    PruneScope,
    SketchConfig,
    TrainConfig,
    detect_phases,
    excess_logits,
    excess_output,
    forward,
    init_params,
    inject_symmetric_noise,
    load_idx,
    loss_and_grad,
    probe_along_run,
    prune,
    resume,
    rewind,
    run_sketch,
    sgd_step,
    sweep,
    synth_blobs,
    train,
)
from sparse_lab.cli import MNIST_FILES
from sparse_lab.selftest import brute_force_prune, max_relative_gradient_error, random_small_net


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: gradient correctness
# --------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        params, batch, labels = random_small_net(trial + 1)
        assert params.total_count() <= 100
        worst = max(worst, max_relative_gradient_error(params, batch, labels))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    report(1, ok, f"20 nets, max relative error {worst:.3e} (< 1e-6), {elapsed:.2f}s (< 10s)")


# --------------------------------------------------------------------------
# criterion 2: prune oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_2_prune_oracle_equivalence():
    rng = np.random.default_rng(20240814)
    cases = 0
    for scope in (PruneScope.LAYERWISE, PruneScope.GLOBAL):
        per_scope = 0
        while per_scope < 1000:
            n_layers = int(rng.integers(1, 4))
            budget = 20
            entries, weights, masks = [], [], []
            for i in range(n_layers):
                cols = int(rng.integers(1, max(2, budget // (n_layers - i) + 1)))
                cols = min(cols, budget)
                budget -= cols
                # half the draws use a discrete grid to force magnitude ties
                if rng.random() < 0.5:
                    w = rng.choice([-0.6, -0.3, 0.0, 0.15, 0.3, 0.6], size=(1, cols))
                else:
                    w = rng.standard_normal((1, cols))
                entries += [(f"fc{i+1}.weight", w), (f"fc{i+1}.bias", np.zeros(1))]
                weights.append(w)
                masks.append((rng.random((1, cols)) < 0.8).astype(np.float64))
            params = ParamSet(entries)
            if sum(int(m.sum()) for m in masks) == 0:
                continue
            mask = Mask({f"fc{i+1}.weight": masks[i] for i in range(n_layers)})
            t_iter = float(rng.uniform(0.02, 0.98))
            result = prune(params, mask, t_iter, scope)
            expected = brute_force_prune(weights, masks, t_iter, scope)
            for i in range(n_layers):
                got = set(np.flatnonzero(result[f"fc{i+1}.weight"].reshape(-1) == 1.0))
                assert got == expected[i], (
                    f"scope={scope.value} case={per_scope} layer={i} t_iter={t_iter}"
                )
            per_scope += 1
        cases += per_scope
    report(2, True, f"{cases} random tensors match the brute-force kept set exactly")


# --------------------------------------------------------------------------
# criterion 3: sketch arithmetic
# --------------------------------------------------------------------------

def lenet_blobs_config(run_id, scope, seed=3):
    """Real 266,610-parameter LeNet-300-100 wired to a tiny 784-dim dataset;
    epochs=0 exercises the exact prune/rewind loop arithmetic cheaply."""
    return SketchConfig(
        run_id=run_id,
        arch=MlpArchitecture([784, 300, 100, 10]),
        train=TrainConfig(epochs=0, lr=0.1, momentum=0.9, batch_size=128, seed=seed),
        dataset=DatasetSpec(kind="blobs", n_per_class=12, num_classes=10, dim=784,
                            separation=4.0, data_seed=1),
        t_iter=0.2,
        t_end=0.999,
        scope=scope,
    )


def test_criterion_3_sketch_arithmetic(tmp_path):
    # floor-free law: exactly 31 pruned rounds, final sparsity in [0.999, 0.9991]
    s, rounds_exact = 0.0, 0
    while s < 0.999:
        s = 1.0 - (1.0 - s) * 0.8
        rounds_exact += 1
    law = math.ceil(math.log(1 - 0.999) / math.log(1 - 0.2))
    ok_exact = rounds_exact == 31 and law == 31 and 0.999 <= s <= 0.9991

    # global scope on the real model: floor effects are negligible at this size
    run_g = run_sketch(lenet_blobs_config("arith-global", PruneScope.GLOBAL), tmp_path / "g")
    pruned_g = len(run_g.rounds) - 1
    final_g = run_g.rounds[-1].sparsity
    ok_global = pruned_g == 31 and 0.999 <= final_g <= 0.9991

    # layerwise scope: exact floored recurrence, within +-1 round of 31
    run_l = run_sketch(lenet_blobs_config("arith-layer", PruneScope.LAYERWISE), tmp_path / "l")
    living = [784 * 300, 300 * 100, 100 * 10]
    total = sum(living)
    oracle_rounds = 0
    oracle_sparsities = []
    while (total - sum(living)) / total < 0.999:
        living = [n - math.floor(0.2 * n) for n in living]
        oracle_rounds += 1
        oracle_sparsities.append((total - sum(living)) / total)
    pruned_l = len(run_l.rounds) - 1
    ok_layer = (
        pruned_l == oracle_rounds
        and abs(pruned_l - 31) <= 1
        and run_l.rounds[-1].sparsity >= 0.999
        and all(
            run_l.rounds[k + 1].sparsity == oracle_sparsities[k]
            for k in range(pruned_l)
        )
    )
    ok = ok_exact and ok_global and ok_layer
    report(3, ok, (
        f"law 31 rounds @ {s:.5f}; global {pruned_g} rounds @ {final_g:.5f}; "
        f"layerwise {pruned_l} rounds @ {run_l.rounds[-1].sparsity:.5f} == recurrence oracle"
    ))


# --------------------------------------------------------------------------
# criterion 4: rewind fidelity and mask stasis
# --------------------------------------------------------------------------

def test_criterion_4_rewind_fidelity_and_stasis():
    arch = MlpArchitecture([10, 24, 8])
    seed = 17
    params = init_params(arch, seed)
    init = params.copy()
    mask = Mask.full(params)
    state = OptimizerState(params)
    ds = synth_blobs(n_per_class=30, num_classes=8, dim=10, separation=3.0, seed=5)
    noisy, _ = inject_symmetric_noise(ds, 0.3, seed=6)
    cfg = TrainConfig(epochs=2, lr=0.1, momentum=0.9, weight_decay=1e-4,
                      batch_size=32, seed=seed)

    rng = np.random.default_rng(99)
    for round_k in range(1, 4):
        train(params, mask, state, noisy, cfg)
        mask = prune(params, mask, 0.3, PruneScope.LAYERWISE)
        rewind(params, init, mask, state)

        # surviving weights bitwise equal to the init immediately post-rewind
        for name in params.names():
            if name in mask:
                keep = mask[name] == 1.0
                assert np.array_equal(params[name][keep], init[name][keep])
                assert np.all(params[name][~keep] == 0.0)
            else:
                assert np.array_equal(params[name], init[name])

        # masked weights and velocities stay exactly 0.0 through 100 SGD steps
        for _ in range(100):
            idx = rng.choice(noisy.size, size=32, replace=False)
            _, grads = loss_and_grad(params, mask, noisy.features[idx], noisy.labels[idx])
            sgd_step(params, grads, state, mask, cfg, epoch=0)
            for name in mask.names():
                gone = mask[name] == 0.0
                assert np.all(params[name][gone] == 0.0)
                assert np.all(state.velocity[name][gone] == 0.0)
    report(4, True, "3 rounds: post-rewind bitwise fidelity and 100-step mask stasis hold")


# --------------------------------------------------------------------------
# criterion 5: label-noise contract
# --------------------------------------------------------------------------

def test_criterion_5_label_noise_contract():
    ds = synth_blobs(n_per_class=1000, num_classes=10, dim=2, separation=1.0, seed=1)
    assert ds.size == 10_000
    for epsilon in (0.1, 0.2, 0.5):
        noisy, record = inject_symmetric_noise(ds, epsilon, seed=42)
        expected = round(epsilon * 10_000)
        assert len(record.flipped_indices) == expected
        assert int(np.sum(noisy.labels != ds.labels)) == expected
        idx = np.array(record.flipped_indices)
        assert np.all(noisy.labels[idx] != np.array(record.original_labels))
        restored = noisy.labels.copy()
        restored[idx] = record.original_labels
        assert np.array_equal(restored, ds.labels)

    # flip-class marginal uniform within 3 sigma over 50 seeds (pooled offsets)
    C = 10
    counts = np.zeros(C - 1)
    total = 0
    for seed in range(50):
        noisy, record = inject_symmetric_noise(ds, 0.5, seed=seed)
        idx = np.array(record.flipped_indices)
        offsets = (noisy.labels[idx] - np.array(record.original_labels)) % C
        for o in range(1, C):
            counts[o - 1] += int(np.sum(offsets == o))
        total += idx.size
    p = 1.0 / (C - 1)
    sigma = math.sqrt(total * p * (1 - p))
    max_dev = float(np.max(np.abs(counts - total * p)))
    ok = max_dev <= 3 * sigma
    report(5, ok, (
        f"counts/inequality/reversal exact for eps in {{0.1, 0.2, 0.5}}; "
        f"marginal max deviation {max_dev:.0f} <= 3 sigma = {3 * sigma:.0f} over 50 seeds"
    ))


# --------------------------------------------------------------------------
# criteria 6 + 7: desk-scale double descent and the L2-regularized pairing
# --------------------------------------------------------------------------

def mnist_dir():
    """The configured MNIST directory, or None when none is configured.

    SPARSE_LAB_MNIST_DIR configures it when set, else ./data/mnist when it
    exists.  A configured directory must hold all four IDX files.
    """
    d = os.environ.get("SPARSE_LAB_MNIST_DIR") or (
        "data/mnist" if Path("data/mnist").is_dir() else None
    )
    if d is None:
        return None
    missing = [f for f in MNIST_FILES.values() if not (Path(d) / f).is_file()]
    if missing:
        pytest.fail(f"MNIST directory {d} lacks {', '.join(missing)}")
    return Path(d)


def test_a_configured_mnist_dir_must_hold_every_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPARSE_LAB_MNIST_DIR", raising=False)
    assert mnist_dir() is None
    *first, last = MNIST_FILES.values()
    for name in first:
        (tmp_path / name).write_bytes(b"")
    monkeypatch.setenv("SPARSE_LAB_MNIST_DIR", str(tmp_path))
    with pytest.raises(pytest.fail.Exception, match=last):
        mnist_dir()
    (tmp_path / last).write_bytes(b"")
    assert mnist_dir() == tmp_path


@pytest.fixture(scope="module")
def descent_pair(tmp_path_factory):
    """The criterion-6 run and its L2-regularized twin, with probe series.

    One ``sweep`` trains both on the MNIST recipe: 10,000 training images at
    label noise 0.5, LeNet-300-100, 30 epochs per round, 20% layerwise
    pruning to 99.9% sparsity, lambda in {0, 1e-4}.  ``probe_along_run``
    then probes each run on 256 fixed test images.
    """
    d = mnist_dir()
    if d is None:
        files = ", ".join(MNIST_FILES.values())
        pytest.skip(f"criteria 6 and 7 need the MNIST IDX files {files} "
                    "in $SPARSE_LAB_MNIST_DIR or ./data/mnist")
    started = time.perf_counter()
    spec = DatasetSpec(
        kind="idx", limit=10_000, **{f: str(d / name) for f, name in MNIST_FILES.items()}
    )
    base = SketchConfig(
        run_id="dd",
        arch=MlpArchitecture([784, 300, 100, 10]),
        train=TrainConfig(epochs=30, lr=0.1, momentum=0.9, batch_size=128),
        dataset=spec,
        t_iter=0.2,
        t_end=0.999,
        noise_seed=303,
    )
    lambdas = [0.0, 1e-4]
    out_root = tmp_path_factory.mktemp("mnist-dd")
    runs = sweep(base, lambdas, epsilons=[0.5], seeds=[7], out_root=out_root)
    test_set = load_idx(spec.test_images, spec.test_labels)
    prng = np.random.default_rng(1234)
    batch = test_set.features[np.sort(prng.choice(test_set.size, size=256, replace=False))]
    pair = {}
    for lam, run in zip(lambdas, runs):
        probes = probe_along_run(out_root / run.config.run_id, batch)
        pair[lam] = (run, [p.weight_l1_masked_out for p in probes])
    return {"pair": pair, "seconds": time.perf_counter() - started}


def dip_depth_points(run, delta=2.0):
    """(depth of the detected dip in accuracy points, report), or (None, report)."""
    report_ = detect_phases(run, delta)
    if not report_.detected:
        return None, report_
    accs = [100.0 * m.test_acc for m in run.rounds]
    j = report_.dip_round
    return max(accs[:j]) - accs[j], report_


def test_criterion_6_desk_scale_double_descent(descent_pair):
    run, _ = descent_pair["pair"][0.0]
    depth, rep = dip_depth_points(run, delta=2.0)
    hours = descent_pair["seconds"] / 3600
    ok = (
        rep.detected
        and rep.collapse_round is not None
        and rep.dip_sparsity < rep.recovery_sparsity
        and hours < 4.0
    )
    report(6, ok, (
        f"lambda=0: detected={rep.detected}, "
        f"dip {depth:.1f} pts at sparsity {rep.dip_sparsity:.3f}, recovery at "
        f"{rep.recovery_sparsity:.3f}, collapse at {rep.collapse_sparsity:.3f}; "
        f"pair trained in {hours:.2f} h (< 4 h)"
    ))


def test_criterion_7_regularization_effect(descent_pair):
    run0, l1_0 = descent_pair["pair"][0.0]
    run1, l1_1 = descent_pair["pair"][1e-4]
    assert len(l1_0) == len(l1_1)
    frac = float(np.mean(np.array(l1_1) <= np.array(l1_0)))
    depth0, _ = dip_depth_points(run0, delta=2.0)
    depth1, rep1 = dip_depth_points(run1, delta=2.0)
    dip_ok = (not rep1.detected) or (depth0 is not None and depth1 < depth0)
    ok = frac >= 0.75 and dip_ok
    dip_msg = "no dip" if not rep1.detected else f"dip {depth1:.1f} vs {depth0:.1f} pts"
    report(7, ok, (
        f"masked-out |w|: lambda run <= vanilla on "
        f"{frac:.0%} of rounds (>= 75%); regularized curve: {dip_msg}"
    ))


# --------------------------------------------------------------------------
# criterion 8: exact excess decomposition
# --------------------------------------------------------------------------

def test_criterion_8_exact_excess_decomposition():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
        params = init_params(MlpArchitecture(sizes), trial)
        mask = Mask({
            n: (rng.random(params[n].shape) < rng.uniform(0.3, 0.9)).astype(np.float64)
            for n in params.prunable_names()
        })
        batch = rng.standard_normal((int(rng.integers(1, 9)), sizes[0]))
        measured = excess_logits(params, mask, batch)
        independent = forward(params, None, batch) - forward(params, mask, batch)
        worst = max(worst, float(np.max(np.abs(independent - measured))))
        # and the probe's scalar summary agrees with the per-coordinate gap
        result = excess_output(params, mask, batch)
        assert result.y_exc_l1 == pytest.approx(
            float(np.abs(independent).sum(axis=1).mean()), abs=1e-12
        )
    ok = worst <= 1e-12
    report(8, ok, f"100 triples: max per-coordinate gap {worst:.2e} <= 1e-12")


# --------------------------------------------------------------------------
# criterion 9: reproducibility and resume
# --------------------------------------------------------------------------

def repro_config(run_id="repro", seed=11):
    return SketchConfig(
        run_id=run_id,
        arch=MlpArchitecture([6, 16, 3]),
        train=TrainConfig(epochs=2, lr=0.1, momentum=0.9, batch_size=16, seed=seed),
        dataset=DatasetSpec(kind="blobs", n_per_class=40, num_classes=3, dim=6,
                            separation=3.0, data_seed=4),
        t_iter=0.2,
        t_end=0.9,
        epsilon=0.2,
        noise_seed=8,
    )


def test_criterion_9_reproducibility_and_resume(tmp_path, monkeypatch):
    # identical configs, independent runs: byte-identical metrics.csv
    run_sketch(repro_config(), tmp_path / "a")
    run_sketch(repro_config(), tmp_path / "b")
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    ok_identical = bytes_a == (tmp_path / "b" / "metrics.csv").read_bytes()

    # sweep killed mid-run, rerun resumes and matches byte-for-byte
    grid = dict(lambdas=[0.0], epsilons=[0.2], seeds=[11])
    sweep(repro_config("swp"), out_root=tmp_path / "full", **grid)
    real_train = sketch_mod.train
    calls = {"n": 0}

    def dying_train(*args, **kwargs):
        if calls["n"] == 5:
            raise KeyboardInterrupt("simulated kill")
        calls["n"] += 1
        return real_train(*args, **kwargs)

    monkeypatch.setattr(sketch_mod, "train", dying_train)
    with pytest.raises(KeyboardInterrupt):
        sweep(repro_config("swp"), out_root=tmp_path / "killed", **grid)
    monkeypatch.setattr(sketch_mod, "train", real_train)
    sweep(repro_config("swp"), out_root=tmp_path / "killed", **grid)

    sub = "swp-lam0-eps0.2-s11"
    ok_resume = (
        (tmp_path / "full" / sub / "metrics.csv").read_bytes()
        == (tmp_path / "killed" / sub / "metrics.csv").read_bytes()
    )
    # and a no-op resume of a finished run leaves the metrics untouched
    resume(tmp_path / "a")
    ok_noop = (tmp_path / "a" / "metrics.csv").read_bytes() == bytes_a

    ok = ok_identical and ok_resume and ok_noop
    report(9, ok, (
        f"identical configs byte-identical: {ok_identical}; "
        f"killed+resumed sweep matches uninterrupted: {ok_resume}; no-op resume stable: {ok_noop}"
    ))
