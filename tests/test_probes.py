"""Excess-output probes and amplification checks."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparse_lab.probes as probes_mod
import sparse_lab.sketch as sketch_mod
from sparse_lab import (
    DatasetSpec,
    Mask,
    MlpArchitecture,
    ParamSet,
    SketchConfig,
    TrainConfig,
    amplification_check,
    cli_main,
    excess_logits,
    excess_output,
    forward,
    init_params,
    probe_along_run,
    run_sketch,
)
from sparse_lab.nn import Step, forward_trace
from sparse_lab.selftest import amplification_reference
from sparse_lab.sketch import load_dataset, load_round_state

from conftest import make_params


def two_layer(w1, w2):
    w1, w2 = np.asarray(w1, float), np.asarray(w2, float)
    return ParamSet({"fc1.weight": w1, "fc1.bias": np.zeros(w1.shape[0]),
                     "fc2.weight": w2, "fc2.bias": np.zeros(w2.shape[0])})


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
        params = ParamSet({
            "fc1.weight": np.eye(2), "fc1.bias": np.zeros(2),
            "fc2.weight": -np.eye(2), "fc2.bias": np.zeros(2),  # kills every unit
            "fc3.weight": np.ones((2, 2)), "fc3.bias": np.zeros(2),
        })
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

    def test_every_round_pairs_fresh_params_with_next_mask(self, tmp_path):
        # the pass decodes every round into one params set and one mask, and
        # runs through one pair of steps: state left in them would show here
        cfg = SketchConfig(
            run_id="shrinking",
            arch=MlpArchitecture([6, 16, 12, 3]),
            train=TrainConfig(epochs=1, lr=0.1, momentum=0.9, batch_size=16, seed=2),
            dataset=DatasetSpec(kind="blobs", n_per_class=25, num_classes=3, dim=6,
                                separation=3.0, data_seed=3),
            t_iter=0.3, t_end=0.85,
        )
        run_dir = tmp_path / "run"
        rounds = len(run_sketch(cfg, run_dir).rounds)
        survivors = [load_round_state(run_dir, k)[1].surviving() for k in range(rounds)]
        assert rounds >= 5 and all(a > b for a, b in zip(survivors, survivors[1:]))
        batch = np.random.default_rng(15).standard_normal((40, 6))
        series = probe_along_run(run_dir, batch)
        assert len(series) == rounds - 1
        for k in range(1, rounds):
            params, _ = load_round_state(run_dir, k - 1)
            _, mask = load_round_state(run_dir, k)
            assert series[k - 1] == excess_output(params, mask, batch), f"round {k}"

    def test_pass_peak_memory_is_one_round_state(self, tmp_path):
        # LeNet shape at the CLI's batch size.  The pass holds the params and
        # the mask (2 sets), the masked step's weights (1), the two steps' pass
        # buffers (1.3) and one layer's removed-weight temporaries (2): 6.3
        # sets.  A second round's params and mask held beside them exceed 6.5.
        arch = MlpArchitecture([784, 300, 100, 10])
        cfg = SketchConfig(
            run_id="lenet-probe",
            arch=arch,
            train=TrainConfig(epochs=1, lr=0.1, momentum=0.9, batch_size=32, seed=1),
            dataset=DatasetSpec(kind="blobs", n_per_class=4, num_classes=10, dim=784, data_seed=2),
            t_iter=0.5, t_end=0.9,
        )
        run_dir = tmp_path / "run"
        assert len(run_sketch(cfg, run_dir).rounds) >= 4
        batch = np.random.default_rng(16).standard_normal((probes_mod.PROBE_BATCH_SIZE, 784))
        tracemalloc.start()
        try:
            probe_along_run(run_dir, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * arch.param_count()

    def test_reprobe_identical(self, finished_run):
        _, _, run_dir = finished_run
        batch = np.random.default_rng(13).standard_normal((8, 5))
        assert probe_along_run(run_dir, batch) == probe_along_run(run_dir, batch)

    def test_each_round_file_is_read_once(self, finished_run, monkeypatch):
        _, run, run_dir = finished_run
        assert len(run.rounds) >= 3
        reads = []
        for name in ("load_params", "load_tensors"):
            def counting(path, *args, _load=getattr(sketch_mod, name), **kwargs):
                reads.append(Path(path))
                return _load(path, *args, **kwargs)
            monkeypatch.setattr(sketch_mod, name, counting)
        probe_along_run(run_dir, np.random.default_rng(14).standard_normal((4, 5)))
        # only what a probe uses: masks 1..R-1 and params 0..R-2 of R rounds
        last = len(run.rounds) - 1
        expected = {run_dir / f"round_{k:03d}" / "mask.bin" for k in range(1, last + 1)}
        expected |= {run_dir / f"round_{k:03d}" / "params.bin" for k in range(last)}
        assert len(reads) == len(set(reads))
        assert set(reads) == expected

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            probe_along_run(tmp_path, np.zeros((1, 5)))


# sha256 over probes.json then metrics.csv after each `probe` below, recorded
# from the per-sample amplification loop.  json floats carry every bit.
GOLDEN_PROBE_SHA256 = "b2cb1a986ddb0c00da0a90ab4e0b6d7ce3dbcae56f3cefcfd35dac4760fc02e6"


def golden_probe_configs():
    # 3 weight layers: one gate between a hidden layer and the output
    three = SketchConfig(
        run_id="three",
        arch=MlpArchitecture([8, 24, 16, 4]),
        train=TrainConfig(epochs=2, lr=0.1, momentum=0.9, batch_size=16, seed=3),
        dataset=DatasetSpec(kind="blobs", n_per_class=60, num_classes=4, dim=8,
                            separation=2.5, data_seed=5),
        t_iter=0.5, t_end=0.9, epsilon=0.1, noise_seed=2,
    )
    # 4 weight layers: the first hidden layer's Jacobian passes two gates
    four = SketchConfig(
        run_id="four",
        arch=MlpArchitecture([6, 16, 12, 8, 3]),
        train=TrainConfig(epochs=2, lr=0.1, momentum=0.9, batch_size=16, seed=7),
        dataset=DatasetSpec(kind="blobs", n_per_class=70, num_classes=3, dim=6,
                            separation=2.5, data_seed=9),
        t_iter=0.5, t_end=0.9, epsilon=0.1, noise_seed=4,
    )
    return three, four


def test_probe_files_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for cfg in golden_probe_configs():
        run_dir = tmp_path / cfg.run_id
        run = run_sketch(cfg, run_dir)
        _, test_set = load_dataset(cfg.dataset)
        assert test_set.size >= 37
        # 1 sample, then more than one 32-sample chunk and not a multiple of it
        for size in (1, 37):
            assert cli_main(["probe", "--run", str(run_dir), "--probe-size", str(size)]) == 0
            digest.update((run_dir / "probes.json").read_bytes())
            digest.update((run_dir / "metrics.csv").read_bytes())
    # a probed round of the deeper net has hidden units dead on every test sample
    params, _ = load_round_state(run_dir, len(run.rounds) - 2)
    _, pre, _ = forward_trace(params, None, test_set.features)
    assert any((z <= 0.0).all(axis=0).any() for z in pre[:-1])
    assert digest.hexdigest() == GOLDEN_PROBE_SHA256


def test_golden_probes_share_jacobians_in_late_rounds(tmp_path, monkeypatch):
    # the digest above covers the grouped path: the last probed round of each
    # run builds fewer Jacobians than it has samples, for every hidden layer
    calls = []
    real = probes_mod._gate_groups

    def recording(layers, pre, hidden):
        representatives, inverse = real(layers, pre, hidden)
        calls.append((len(representatives), len(inverse)))
        return representatives, inverse

    monkeypatch.setattr(probes_mod, "_gate_groups", recording)
    for cfg in golden_probe_configs():
        run_dir = tmp_path / cfg.run_id
        rounds = len(run_sketch(cfg, run_dir).rounds)
        calls.clear()
        assert cli_main(["probe", "--run", str(run_dir), "--probe-size", "37"]) == 0
        gated = len(cfg.arch.layer_sizes) - 3  # hidden layers with a gate in their chain
        assert len(calls) == gated * (rounds - 1)
        assert all(groups < samples == 37 for groups, samples in calls[-gated:])


def hexes(values):
    return [float.hex(v) for v in values]


def assert_matches_reference(params, batch):
    _, pre, _ = forward_trace(params, None, batch)
    got = amplification_check(params, batch)
    assert hexes(got) == hexes(amplification_reference(params, pre))
    return got


class TestStackedAmplification:
    CHUNK = probes_mod.AMPLIFICATION_CHUNK
    SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)

    @pytest.mark.parametrize("sizes", [
        [5, 7, 3],
        [6, 9, 7, 4],
        [6, 16, 12, 8, 3],
        [7, 10, 9, 8, 6, 4],
    ], ids=["1 hidden", "2 hidden", "3 hidden", "4 hidden"])
    @pytest.mark.parametrize("samples", SIZES)
    def test_bits_match_the_per_sample_reference(self, sizes, samples):
        params = init_params(MlpArchitecture(sizes), len(sizes) * 100 + samples)
        batch = np.random.default_rng(samples).standard_normal((samples, sizes[0]))
        assert_matches_reference(params, batch)

    @pytest.mark.parametrize("samples", SIZES)
    def test_a_layer_with_every_unit_dead(self, samples):
        params = init_params(MlpArchitecture([5, 8, 6, 4, 3]), 21)
        # the second hidden layer never fires, so with zero biases neither does the third
        params["fc2.bias"] = np.full(6, -1e3)
        batch = np.random.default_rng(samples).standard_normal((samples, 5))
        ratios = assert_matches_reference(params, batch)
        assert ratios[0] == 0.0 and ratios[1] == 0.0 and ratios[2] > 0.0

    @pytest.mark.parametrize("sizes", [[5, 1, 6, 3], [5, 6, 1, 4, 3], [5, 6, 4, 1, 3]],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("samples", SIZES)
    def test_a_hidden_layer_of_width_one(self, sizes, samples):
        params = init_params(MlpArchitecture(sizes), 5)
        for name in params.names():
            if name.endswith(".bias"):
                params[name] = np.full(params[name].shape, 1.0)  # mostly live units
        batch = np.random.default_rng(samples).standard_normal((samples, 5))
        ratios = assert_matches_reference(params, batch)
        assert ratios[0] > 0.0

    NETS = ([6, 9, 7, 4], [6, 16, 12, 8, 3], [7, 10, 9, 8, 6, 4])

    @pytest.mark.parametrize("rows", [1, 2], ids=["one row", "two rows alternating"])
    @pytest.mark.parametrize("sizes", NETS, ids=["2 hidden", "3 hidden", "4 hidden"])
    @pytest.mark.parametrize("samples", SIZES)
    def test_repeated_rows_share_a_jacobian(self, sizes, samples, rows):
        params = init_params(MlpArchitecture(sizes), len(sizes) * 100 + samples)
        distinct = np.random.default_rng(samples).standard_normal((rows, sizes[0]))
        batch = distinct[np.arange(samples) % rows]
        assert_matches_reference(params, batch)
        _, pre, _ = forward_trace(params, None, batch)
        layers = Step(params, None).layers()
        for hidden in range(len(sizes) - 3):
            representatives, inverse = probes_mod._gate_groups(layers, pre, hidden)
            assert len(representatives) <= min(rows, samples)
            assert [representatives[g] for g in inverse] == [s % len(representatives) for s in range(samples)]

    def zero_column_net(self):
        # 4-6-5-4-3: fc3 has a -0.0 and a +0.0 column, fc4 a +0.0 column
        params = init_params(MlpArchitecture([4, 6, 5, 4, 3]), 9)
        params["fc3.weight"][:, 3] = -0.0
        params["fc3.weight"][:, 4] = 0.0
        params["fc4.weight"][:, 1] = 0.0
        return params

    def gate_flips(self, samples):
        """Pre-activations whose gates differ only where a column is zeroed,
        except that every fourth sample also flips a live gate of layer 2."""
        rng = np.random.default_rng(samples)
        pre = [rng.standard_normal((samples, width)) for width in (6, 5, 4, 3)]
        base = pre[1][0].copy(), pre[2][0].copy()
        for s in range(samples):
            pre[1][s], pre[2][s] = base
            if s % 4 == 1:
                pre[1][s, 3] *= -1.0
            if s % 4 == 2:
                pre[1][s, 4] *= -1.0
                pre[2][s, 1] *= -1.0
            if s % 4 == 3:
                pre[1][s, 0] *= -1.0
        return pre

    @pytest.mark.parametrize("samples", SIZES)
    def test_gates_at_zero_columns_do_not_split_a_group(self, samples):
        params = self.zero_column_net()
        pre = self.gate_flips(samples)
        layers = Step(params, None).layers()
        got = probes_mod._amplification(layers, pre)
        assert hexes(got) == hexes(amplification_reference(params, pre))
        representatives, inverse = probes_mod._gate_groups(layers, pre, 0)
        assert list(representatives) == ([0, 3] if samples > 3 else [0])
        assert inverse == [int(s % 4 == 3) for s in range(samples)]
        assert list(probes_mod._gate_groups(layers, pre, 1)[0]) == [0]

    @pytest.mark.parametrize("samples", SIZES)
    def test_a_nan_column_keeps_its_gate_in_the_key(self, samples):
        params = self.zero_column_net()
        params["fc3.weight"][2, 4] = np.nan
        pre = self.gate_flips(samples)
        layers = Step(params, None).layers()
        got = probes_mod._amplification(layers, pre)
        assert hexes(got) == hexes(amplification_reference(params, pre))
        _, inverse = probes_mod._gate_groups(layers, pre, 0)
        assert inverse == [{0: 0, 1: 0, 2: 1, 3: 2}[s % 4] for s in range(samples)]

    def test_groups_are_the_distinct_keys_in_first_seen_order(self):
        params = self.zero_column_net()
        rng = np.random.default_rng(4)
        pre = [rng.standard_normal((300, width)) for width in (6, 5, 4, 3)]
        pre[1][:, :3] = rng.choice([-1.0, 1.0], size=(300, 1)) * [1.0, 1.0, -1.0]  # 2 patterns
        pre[2][:, [0, 2, 3]] = rng.choice([-1.0, 1.0], size=(300, 3))  # 8 patterns
        layers = Step(params, None).layers()
        representatives, inverse = probes_mod._gate_groups(layers, pre, 0)
        keys = [tuple(pre[1][s, :3] > 0.0) + tuple(pre[2][s, [0, 2, 3]] > 0.0) for s in range(300)]
        assert len(representatives) == len(set(keys)) == 16
        assert list(representatives) == [keys.index(k) for k in dict.fromkeys(keys)]
        assert all(keys[representatives[g]] == keys[s] for s, g in enumerate(inverse))
