"""Network engine: init, forward, gradients, SGD, evaluation, training."""

import math

import numpy as np
import pytest

import sparse_lab.nn as nn
from sparse_lab import (
    LabeledDataset,
    Mask,
    MlpArchitecture,
    OptimizerState,
    ParamSet,
    TrainConfig,
    effective_lr,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    sgd_step,
    synth_blobs,
    train,
)

from sparse_lab.selftest import kink_free, max_relative_gradient_error

from conftest import make_params


class TestInitParams:
    def test_two_one_arch_shapes_and_zero_bias(self):
        params = init_params(MlpArchitecture([2, 1]), seed=123)
        assert params["fc1.weight"].shape == (1, 2)
        assert params["fc1.bias"].shape == (1,)
        assert params["fc1.bias"][0] == 0.0

    def test_same_seed_bitwise_identical(self):
        a = init_params(MlpArchitecture([3, 4, 2]), seed=99)
        b = init_params(MlpArchitecture([3, 4, 2]), seed=99)
        assert a.equals_bitwise(b)

    def test_different_seed_differs(self):
        a = init_params(MlpArchitecture([3, 4, 2]), seed=99)
        b = init_params(MlpArchitecture([3, 4, 2]), seed=100)
        assert not a.equals_bitwise(b)

    def test_lenet_300_100_param_count(self):
        # 784*300+300 + 300*100+100 + 100*10+10
        params = init_params(MlpArchitecture([784, 300, 100, 10]), seed=0)
        assert params.total_count() == 266_610

    def test_weights_within_fan_in_bound(self):
        params = init_params(MlpArchitecture([16, 8, 4]), seed=5)
        for name, fan_in in (("fc1.weight", 16), ("fc2.weight", 8)):
            bound = math.sqrt(1.0 / fan_in)
            assert np.all(np.abs(params[name]) <= bound)

    def test_bad_arch_rejected(self):
        with pytest.raises(ValueError):
            MlpArchitecture([5])
        with pytest.raises(ValueError):
            MlpArchitecture([5, 0, 2])


class TestForward:
    def test_zero_params_zero_logits(self):
        params = make_params(np.zeros((3, 4)))
        batch = np.random.default_rng(0).standard_normal((6, 4))
        assert np.all(forward(params, None, batch) == 0.0)

    def test_all_ones_mask_is_identity(self, small_net):
        batch = np.random.default_rng(1).standard_normal((5, 4))
        mask = Mask.full(small_net)
        np.testing.assert_array_equal(
            forward(small_net, mask, batch), forward(small_net, None, batch)
        )

    def test_hand_evaluated_affine_map(self):
        params = make_params([[2.0, -1.0]], bias=[0.5])
        logits = forward(params, None, np.array([[1.0, 1.0]]))
        assert logits.shape == (1, 1)
        assert logits[0, 0] == 1.5
        # independent oracle: plain matmul
        expected = np.array([[1.0, 1.0]]) @ np.array([[2.0, -1.0]]).T + 0.5
        np.testing.assert_array_equal(logits, expected)

    def test_shape_mismatch_names_layer(self, small_net):
        with pytest.raises(ValueError, match="fc1"):
            forward(small_net, None, np.zeros((2, 7)))

    def test_mask_absorption_property(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            arch = MlpArchitecture([3, 4, 4, 2])
            params = init_params(arch, trial)
            mask_arrays = {
                n: (rng.random(params[n].shape) < 0.6).astype(np.float64)
                for n in params.prunable_names()
            }
            mask = Mask(mask_arrays)
            premultiplied = params.copy()
            for n in mask.names():
                premultiplied[n] = premultiplied[n] * mask[n]
            batch = rng.standard_normal((4, 3))
            np.testing.assert_array_equal(
                forward(params, mask, batch), forward(premultiplied, None, batch)
            )
            # the masked backward pass is the premultiplied one, gradients masked
            labels = np.arange(4) % 2
            _, masked = loss_and_grad(params, mask, batch, labels)
            _, plain = loss_and_grad(premultiplied, None, batch, labels)
            for n in params.names():
                expected = plain[n] * mask[n] if n in mask else plain[n]
                np.testing.assert_array_equal(masked[n], expected)


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_c(self):
        params = make_params(np.zeros((10, 6)))
        batch = np.random.default_rng(3).standard_normal((8, 6))
        labels = np.arange(8) % 10
        loss, _ = loss_and_grad(params, None, batch, labels)
        assert abs(loss - math.log(10)) < 1e-12

    def test_gradient_matches_finite_differences_on_toy_net(self):
        # 5-parameter net: 4 weights + 1 bias
        params = init_params(MlpArchitecture([4, 1]), seed=11)
        rng = np.random.default_rng(12)
        batch = rng.standard_normal((3, 4))
        labels = np.zeros(3, dtype=np.int64)
        assert params.total_count() == 5
        assert max_relative_gradient_error(params, batch, labels) < 1e-6

    def test_gradient_exactness_randomized_nets(self):
        checked = 0
        for seed in range(10):
            arch = MlpArchitecture([3, 4, 3, 2])
            params = init_params(arch, 50 + seed)
            rng = np.random.default_rng(60 + seed)
            batch = rng.standard_normal((4, 3))
            labels = rng.integers(0, 2, size=4)
            # finite differences need the loss smooth around the point
            if not kink_free(params, batch):
                continue
            assert max_relative_gradient_error(params, batch, labels) < 1e-6
            checked += 1
        assert checked >= 5

    def test_masked_positions_get_exactly_zero_grad(self, small_net):
        mask_arrays = {n: np.ones_like(small_net[n]) for n in small_net.prunable_names()}
        mask_arrays["fc1.weight"][0, 0] = 0.0
        mask_arrays["fc2.weight"][2, 1] = 0.0
        mask = Mask(mask_arrays)
        rng = np.random.default_rng(8)
        _, grads = loss_and_grad(small_net, mask, rng.standard_normal((5, 4)), rng.integers(0, 3, 5))
        assert grads["fc1.weight"][0, 0] == 0.0
        assert grads["fc2.weight"][2, 1] == 0.0

    def test_label_out_of_range_raises(self, small_net):
        batch = np.zeros((2, 4))
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grad(small_net, None, batch, np.array([0, 3]))
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grad(small_net, None, batch, np.array([-1, 0]))


class TestSgdStep:
    def _single_weight(self, value):
        params = make_params([[value]])
        return params, OptimizerState(params)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        params, state = self._single_weight(1.0)
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, seed=0)
        grads = {"fc1.weight": np.zeros((1, 1)), "fc1.bias": np.zeros(1)}
        sgd_step(params, grads, state, None, cfg, epoch=0)
        assert params["fc1.weight"][0, 0] == 1.0

    def test_pure_weight_decay_closed_form(self):
        # w' = w - lr * (grad + wd * w) = 1 - 0.1 * 0.1 = 0.99
        params, state = self._single_weight(1.0)
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, weight_decay=0.1, seed=0)
        grads = {"fc1.weight": np.zeros((1, 1)), "fc1.bias": np.zeros(1)}
        sgd_step(params, grads, state, None, cfg, epoch=0)
        assert abs(params["fc1.weight"][0, 0] - 0.99) < 1e-15

    def test_decay_never_touches_biases(self):
        params = make_params([[1.0]], bias=[2.0])
        state = OptimizerState(params)
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.0, weight_decay=0.5, seed=0)
        grads = {"fc1.weight": np.zeros((1, 1)), "fc1.bias": np.zeros(1)}
        sgd_step(params, grads, state, None, cfg, epoch=0)
        assert params["fc1.bias"][0] == 2.0

    def test_milestone_schedule(self):
        cfg = TrainConfig(epochs=200, lr=0.1, lr_milestones=(80, 120), lr_gamma=0.1, seed=0)
        assert effective_lr(cfg, 0) == 0.1
        assert effective_lr(cfg, 79) == 0.1
        assert effective_lr(cfg, 80) == pytest.approx(0.01, rel=1e-15)
        assert effective_lr(cfg, 119) == pytest.approx(0.01, rel=1e-15)
        # at/after the second milestone: 0.1 * 0.1^2 = 0.001
        assert effective_lr(cfg, 120) == pytest.approx(0.001, rel=1e-15)
        assert effective_lr(cfg, 199) == pytest.approx(0.001, rel=1e-15)

    def test_schedule_is_nonincreasing_with_exact_drop_count(self):
        cfg = TrainConfig(epochs=50, lr=0.2, lr_milestones=(10, 20, 40), lr_gamma=0.5, seed=0)
        lrs = [effective_lr(cfg, e) for e in range(50)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        drops = sum(1 for a, b in zip(lrs, lrs[1:]) if b < a)
        assert drops == 3

    def test_momentum_accumulates(self):
        params, state = self._single_weight(0.0)
        cfg = TrainConfig(epochs=1, lr=1.0, momentum=0.5, seed=0)
        grads = {"fc1.weight": np.ones((1, 1)), "fc1.bias": np.zeros(1)}
        sgd_step(params, grads, state, None, cfg, epoch=0)   # v=1, w=-1
        sgd_step(params, grads, state, None, cfg, epoch=0)   # v=1.5, w=-2.5
        assert params["fc1.weight"][0, 0] == -2.5
        assert state.step_count == 2

    def test_masked_positions_forced_to_zero(self):
        params = make_params([[1.0, 2.0]])
        state = OptimizerState(params)
        mask = Mask({"fc1.weight": np.array([[0.0, 1.0]])})
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, seed=0)
        grads = {"fc1.weight": np.ones((1, 2)), "fc1.bias": np.zeros(1)}
        for _ in range(3):
            sgd_step(params, grads, state, mask, cfg, epoch=0)
        assert params["fc1.weight"][0, 0] == 0.0
        assert state.velocity["fc1.weight"][0, 0] == 0.0
        assert params["fc1.weight"][0, 1] != 0.0


class TestEvaluate:
    def test_separable_toy_set_perfect_accuracy(self, tiny_dataset):
        params = make_params([[0.0, 5.0], [5.0, 0.0]])
        loss, acc = evaluate(params, None, tiny_dataset)
        assert acc == 1.0
        assert loss < 0.01

    def test_zero_params_loss_is_log_c(self, tiny_dataset):
        params = make_params(np.zeros((2, 2)))
        loss, acc = evaluate(params, None, tiny_dataset)
        assert abs(loss - math.log(2)) < 1e-12

    def test_argmax_tie_breaks_to_lowest_class(self, tiny_dataset):
        # all-zero logits tie every class; predictions all fall to class 0
        params = make_params(np.zeros((2, 2)))
        _, acc = evaluate(params, None, tiny_dataset)
        assert acc == 0.5  # exactly the class-0 share of tiny_dataset

    def test_deterministic_across_calls(self):
        ds = synth_blobs(n_per_class=50, num_classes=2, dim=3, separation=1.0, seed=4)
        params = init_params(MlpArchitecture([3, 4, 2]), seed=2)
        assert evaluate(params, None, ds) == evaluate(params, None, ds)

    def test_chunking_does_not_change_result(self):
        ds = synth_blobs(n_per_class=30, num_classes=2, dim=3, separation=1.0, seed=4)
        params = init_params(MlpArchitecture([3, 4, 2]), seed=2)
        full = evaluate(params, None, ds, chunk_size=1024)
        chunked = evaluate(params, None, ds, chunk_size=7)
        assert full[1] == chunked[1]
        assert abs(full[0] - chunked[0]) < 1e-12

    def test_masks_once_per_call(self, monkeypatch):
        calls = []
        real = nn.effective_weights
        monkeypatch.setattr(nn, "effective_weights", lambda *a: calls.append(1) or real(*a))
        ds = synth_blobs(n_per_class=35, num_classes=2, dim=3, separation=1.0, seed=4)
        params = init_params(MlpArchitecture([3, 4, 2]), seed=2)
        mask = Mask({n: np.ones_like(params[n]) for n in params.prunable_names()})
        evaluate(params, mask, ds, chunk_size=7)  # 70 samples: 10 chunks
        assert len(calls) == 1

    def test_empty_dataset_unconstructable(self):
        with pytest.raises(ValueError):
            LabeledDataset(
                features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int),
                num_classes=2, name="empty",
            )


class TestTrain:
    def test_zero_epochs_is_noop(self, small_net, small_arch):
        ds = synth_blobs(n_per_class=20, num_classes=3, dim=4, separation=2.0, seed=1)
        before = small_net.copy()
        state = OptimizerState(small_net)
        history = train(small_net, None, state, ds, TrainConfig(epochs=0, seed=3))
        assert history == []
        assert small_net.equals_bitwise(before)

    def test_learns_separable_blobs(self):
        ds = synth_blobs(n_per_class=40, num_classes=2, dim=2, separation=10.0, seed=6)
        params = init_params(MlpArchitecture([2, 8, 2]), seed=6)
        state = OptimizerState(params)
        cfg = TrainConfig(epochs=50, lr=0.1, momentum=0.9, batch_size=16, seed=6)
        history = train(params, None, state, ds, cfg)
        assert len(history) == 50
        _, acc = evaluate(params, None, ds)
        assert acc == 1.0

    def test_bitwise_determinism(self):
        ds = synth_blobs(n_per_class=25, num_classes=3, dim=4, separation=3.0, seed=8)
        cfg = TrainConfig(epochs=5, lr=0.1, momentum=0.9, batch_size=8, seed=21)

        def run():
            params = init_params(MlpArchitecture([4, 6, 3]), seed=21)
            train(params, None, OptimizerState(params), ds, cfg)
            return params

        assert run().equals_bitwise(run())

    def test_masked_stasis_through_training(self):
        ds = synth_blobs(n_per_class=20, num_classes=2, dim=3, separation=2.0, seed=9)
        params = init_params(MlpArchitecture([3, 5, 2]), seed=9)
        rng = np.random.default_rng(10)
        mask = Mask({
            n: (rng.random(params[n].shape) < 0.5).astype(np.float64)
            for n in params.prunable_names()
        })
        for n in mask.names():
            params[n] = params[n] * mask[n]
        state = OptimizerState(params)
        train(params, mask, state, ds, TrainConfig(epochs=4, lr=0.1, momentum=0.9, batch_size=8, seed=2))
        for n in mask.names():
            gone = mask[n] == 0.0
            assert np.all(params[n][gone] == 0.0)
            assert np.all(state.velocity[n][gone] == 0.0)

    def test_epoch_metrics_in_range(self):
        ds = synth_blobs(n_per_class=20, num_classes=2, dim=3, separation=5.0, seed=3)
        params = init_params(MlpArchitecture([3, 4, 2]), seed=3)
        history = train(params, None, OptimizerState(params), ds,
                        TrainConfig(epochs=3, lr=0.05, batch_size=8, seed=3))
        for h in history:
            assert 0.0 <= h.train_acc <= 1.0
            assert h.train_loss >= 0.0
