"""Excess-output probes and amplification checks."""

from pathlib import Path

import numpy as np
import pytest

import sparse_lab.sketch as sketch_mod
from sparse_lab import (
    DatasetSpec,
    Mask,
    MlpArchitecture,
    ParamSet,
    SketchConfig,
    TrainConfig,
    amplification_check,
    excess_logits,
    excess_output,
    forward,
    init_params,
    probe_along_run,
    run_sketch,
)

from conftest import make_params


def two_layer(w1, w2):
    params = ParamSet()
    w1, w2 = np.asarray(w1, float), np.asarray(w2, float)
    params.add("fc1.weight", w1)
    params.add("fc1.bias", np.zeros(w1.shape[0]))
    params.add("fc2.weight", w2)
    params.add("fc2.bias", np.zeros(w2.shape[0]))
    return params


class TestExcessOutput:
    def test_all_ones_mask_zero_excess(self, small_net):
        batch = np.random.default_rng(0).standard_normal((4, 4))
        result = excess_output(small_net, Mask.full(small_net), batch)
        assert result.y_exc_l1 == 0.0
        assert result.weight_l1_masked_out == 0.0
        assert result.condition1_score == 0.0

    def test_already_zero_masked_weights_zero_excess(self):
        params = make_params([[1.0, 0.0, 2.0]])
        mask = Mask({"fc1.weight": np.array([[1.0, 0.0, 1.0]])})
        batch = np.random.default_rng(1).standard_normal((5, 3))
        result = excess_output(params, mask, batch)
        assert result.y_exc_l1 == 0.0

    def test_hand_worked_one_layer_case(self):
        # w = [1, 0.5], mask keeps only w0, input (2, 2):
        # full logit = 2*1 + 2*0.5 = 3, masked logit = 2, excess = 1
        params = make_params([[1.0, 0.5]])
        mask = Mask({"fc1.weight": np.array([[1.0, 0.0]])})
        batch = np.array([[2.0, 2.0]])
        result = excess_output(params, mask, batch)
        assert result.y_exc_l1 == 1.0
        # brute-force oracle: the masked weight's direct contribution
        assert result.y_exc_l1 == abs(0.5 * 2.0)
        assert result.weight_l1_masked_out == 0.5
        # condition 1 term: |w * x| = |0.5 * 2| = 1 per (weight, sample)
        assert result.condition1_score == 1.0

    def test_exact_decomposition_invariant(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            arch = MlpArchitecture([4, 6, 5, 3])
            params = init_params(arch, trial)
            mask = Mask({
                n: (rng.random(params[n].shape) < 0.7).astype(np.float64)
                for n in params.prunable_names()
            })
            batch = rng.standard_normal((8, 4))
            diff = excess_logits(params, mask, batch)
            full = forward(params, None, batch)
            masked = forward(params, mask, batch)
            # per-coordinate identity within 1e-12
            assert np.max(np.abs(full - (masked + diff))) <= 1e-12
            result = excess_output(params, mask, batch)
            expected_l1 = float(np.abs(diff).sum(axis=1).mean())
            assert result.y_exc_l1 == expected_l1

    def test_scale_covariance_on_linear_net(self):
        # one layer, no activation: excess responds exactly linearly
        rng = np.random.default_rng(9)
        w = rng.standard_normal((3, 5))
        mask_arr = (rng.random((3, 5)) < 0.5).astype(np.float64)
        batch = rng.standard_normal((6, 5))
        base = excess_output(make_params(w), Mask({"fc1.weight": mask_arr}), batch)
        for s in (2.0, 0.5, -3.0):
            scaled_w = w.copy()
            scaled_w[mask_arr == 0.0] *= s
            scaled = excess_output(make_params(scaled_w), Mask({"fc1.weight": mask_arr}), batch)
            assert scaled.y_exc_l1 == pytest.approx(abs(s) * base.y_exc_l1, rel=1e-12, abs=1e-12)

    def test_deterministic(self, small_net):
        rng = np.random.default_rng(3)
        mask = Mask({
            n: (rng.random(small_net[n].shape) < 0.5).astype(np.float64)
            for n in small_net.prunable_names()
        })
        batch = rng.standard_normal((7, 4))
        a = excess_output(small_net, mask, batch)
        b = excess_output(small_net, mask, batch)
        assert a == b


class TestAmplificationCheck:
    def test_identity_downstream_gives_one(self):
        params = two_layer(np.eye(2), np.eye(2))
        batch = np.array([[1.0, 2.0], [0.5, 0.25]])
        ratios = amplification_check(params, batch)
        assert ratios == [1.0]

    def test_scaled_downstream_gives_scale(self):
        params = two_layer(np.eye(2), 0.5 * np.eye(2))
        batch = np.array([[1.0, 2.0]])
        ratios = amplification_check(params, batch)
        assert ratios == [0.5]
        # linearity oracle on the one-layer tail: doubling the tail doubles it
        params2 = two_layer(np.eye(2), 1.0 * np.eye(2))
        assert amplification_check(params2, batch)[0] == 2 * ratios[0]

    def test_dead_relu_downstream_gives_zero(self):
        params = ParamSet()
        params.add("fc1.weight", np.eye(2))
        params.add("fc1.bias", np.zeros(2))
        params.add("fc2.weight", -np.eye(2))  # kills every unit
        params.add("fc2.bias", np.zeros(2))
        params.add("fc3.weight", np.ones((2, 2)))
        params.add("fc3.bias", np.zeros(2))
        batch = np.array([[3.0, 4.0]])  # positive first-layer activations
        ratios = amplification_check(params, batch)
        assert ratios[0] == 0.0  # path through the dead layer
        assert ratios[1] == 2.0  # |columns| of the all-ones output weight

    def test_single_layer_net_has_no_hidden_ratios(self):
        params = make_params([[1.0, 2.0]])
        assert amplification_check(params, np.array([[1.0, 1.0]])) == []

    def test_max_ratio_lands_in_condition2(self):
        params = two_layer(np.eye(2), 3.0 * np.eye(2))
        batch = np.array([[1.0, 1.0]])
        result = excess_output(params, Mask.full(params), batch)
        assert result.condition2_score == 3.0
        assert result.per_layer_amplification == (3.0,)


class TestProbeAlongRun:
    @pytest.fixture
    def finished_run(self, tmp_path):
        cfg = SketchConfig(
            run_id="probe-run",
            arch=MlpArchitecture([5, 12, 3]),
            train=TrainConfig(epochs=1, lr=0.1, momentum=0.9, batch_size=16, seed=4),
            dataset=DatasetSpec(kind="blobs", n_per_class=25, num_classes=3, dim=5,
                                separation=3.0, data_seed=6),
            t_iter=0.4, t_end=0.75, epsilon=0.2, noise_seed=8,
        )
        run = run_sketch(cfg, tmp_path / "run")
        return cfg, run, tmp_path / "run"

    def test_series_length_is_pruned_round_count(self, finished_run):
        _, run, run_dir = finished_run
        batch = np.random.default_rng(11).standard_normal((16, 5))
        series = probe_along_run(run_dir, batch)
        assert len(series) == len(run.rounds) - 1

    def test_probe_pairs_params_with_next_mask(self, finished_run):
        from sparse_lab.sketch import load_round_state

        _, run, run_dir = finished_run
        batch = np.random.default_rng(12).standard_normal((10, 5))
        series = probe_along_run(run_dir, batch)
        params0, _ = load_round_state(run_dir, 0)
        _, mask1 = load_round_state(run_dir, 1)
        direct = excess_output(params0, mask1, batch)
        assert series[0] == direct

    def test_reprobe_identical(self, finished_run):
        _, _, run_dir = finished_run
        batch = np.random.default_rng(13).standard_normal((8, 5))
        assert probe_along_run(run_dir, batch) == probe_along_run(run_dir, batch)

    def test_each_round_file_is_read_once(self, finished_run, monkeypatch):
        _, run, run_dir = finished_run
        assert len(run.rounds) >= 3
        reads = []
        for name in ("load_params", "load_tensors"):
            def counting(path, _load=getattr(sketch_mod, name)):
                reads.append(Path(path))
                return _load(path)
            monkeypatch.setattr(sketch_mod, name, counting)
        probe_along_run(run_dir, np.random.default_rng(14).standard_normal((4, 5)))
        assert reads
        assert len(reads) == len(set(reads))

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            probe_along_run(tmp_path, np.zeros((1, 5)))
