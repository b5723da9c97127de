"""Magnitude pruning, sparsity accounting, and rewinding."""

import numpy as np
import pytest

from sparse_lab import (
    Mask,
    MlpArchitecture,
    OptimizerState,
    ParamSet,
    PruneScope,
    TrainConfig,
    init_params,
    prune,
    rewind,
    sgd_step,
    sparsity,
)

from sparse_lab.selftest import brute_force_prune, equals_bitwise, is_subset_of

from conftest import make_params


def single_layer(values):
    params = make_params(np.asarray(values, dtype=float).reshape(1, -1))
    return params, Mask.full(params)


class TestPrune:
    def test_hand_worked_example(self):
        # |w| = [0.5, 0.1, 0.3, 0.05, 0.4]; floor(0.4 * 5) = 2 smallest go
        params, mask = single_layer([0.5, -0.1, 0.3, 0.05, -0.4])
        out = prune(params, mask, t_iter=0.4, scope=PruneScope.LAYERWISE)
        np.testing.assert_array_equal(out["fc1.weight"], [[1.0, 0.0, 1.0, 0.0, 1.0]])

    def test_tie_break_lowest_flat_index(self):
        params, mask = single_layer([0.3] * 10)
        out = prune(params, mask, t_iter=0.2, scope=PruneScope.LAYERWISE)
        np.testing.assert_array_equal(out["fc1.weight"], [[0, 0, 1, 1, 1, 1, 1, 1, 1, 1]])

    def test_only_surviving_weights_ranked(self):
        # 0.05 is already masked; the two next-smallest of the survivors go
        params, mask = single_layer([0.5, -0.1, 0.3, 0.05, -0.4, 0.2])
        mask["fc1.weight"][0, 3] = 0.0
        out = prune(params, mask, t_iter=0.4, scope=PruneScope.LAYERWISE)  # floor(0.4*5)=2
        np.testing.assert_array_equal(out["fc1.weight"], [[1, 0, 1, 0, 1, 0]])

    def test_monotone_and_input_untouched(self):
        params = init_params(MlpArchitecture([6, 5, 3]), seed=3)
        mask = Mask.full(params)
        for _ in range(4):
            new = prune(params, mask, 0.3, PruneScope.LAYERWISE)
            assert is_subset_of(new, mask)
            mask = new
        assert Mask.full(params).surviving() == params["fc1.weight"].size + params["fc2.weight"].size

    def test_global_scope_ranks_across_layers(self):
        params = ParamSet({
            "fc1.weight": np.array([[10.0, 20.0]]), "fc1.bias": np.zeros(1),
            "fc2.weight": np.array([[0.1, 0.2]]), "fc2.bias": np.zeros(1),
        })
        mask = Mask.full(params)
        out = prune(params, mask, t_iter=0.5, scope=PruneScope.GLOBAL)
        # the two smallest magnitudes both live in fc2
        np.testing.assert_array_equal(out["fc1.weight"], [[1.0, 1.0]])
        np.testing.assert_array_equal(out["fc2.weight"], [[0.0, 0.0]])

    def test_layerwise_scope_prunes_each_layer(self):
        params = ParamSet({
            "fc1.weight": np.array([[10.0, 20.0]]), "fc1.bias": np.zeros(1),
            "fc2.weight": np.array([[0.1, 0.2]]), "fc2.bias": np.zeros(1),
        })
        out = prune(params, Mask.full(params), t_iter=0.5, scope=PruneScope.LAYERWISE)
        np.testing.assert_array_equal(out["fc1.weight"], [[0.0, 1.0]])
        np.testing.assert_array_equal(out["fc2.weight"], [[0.0, 1.0]])

    def test_global_tie_break_prefers_earlier_layer(self):
        params = ParamSet({
            "fc1.weight": np.array([[0.5, 0.5]]), "fc1.bias": np.zeros(1),
            "fc2.weight": np.array([[0.5, 0.5]]), "fc2.bias": np.zeros(1),
        })
        out = prune(params, Mask.full(params), t_iter=0.5, scope=PruneScope.GLOBAL)
        np.testing.assert_array_equal(out["fc1.weight"], [[0.0, 0.0]])
        np.testing.assert_array_equal(out["fc2.weight"], [[1.0, 1.0]])

    def test_mask_exhausted_error(self):
        params, mask = single_layer([1.0, 2.0])
        empty = Mask({"fc1.weight": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="mask exhausted"):
            prune(params, empty, 0.5, PruneScope.LAYERWISE)

    def test_t_iter_range_validated(self):
        params, mask = single_layer([1.0, 2.0])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                prune(params, mask, bad, PruneScope.LAYERWISE)

    def test_count_exactness_per_round(self):
        params = init_params(MlpArchitecture([20, 10, 5]), seed=1)
        mask = Mask.full(params)
        t = 0.2
        for _ in range(6):
            before = {n: int(mask[n].sum()) for n in mask.names()}
            mask = prune(params, mask, t, PruneScope.LAYERWISE)
            for n in mask.names():
                removed = before[n] - int(mask[n].sum())
                assert removed == int(np.floor(t * before[n]))


class TestMaskValidation:
    @pytest.mark.parametrize("bad", [np.nan, 0.5, -1.0, 2.0, np.inf, -np.inf, 1e-300])
    def test_non_binary_value_rejected(self, bad):
        arr = np.ones((3, 4))
        arr[2, 1] = bad
        with pytest.raises(ValueError, match=r"mask 'fc1.weight' must contain only 0.0 and 1.0"):
            Mask({"fc1.weight": arr})

    def test_zeros_ones_and_negative_zero_accepted(self):
        arr = np.array([[0.0, 1.0, -0.0], [1.0, 1.0, 0.0]])
        mask = Mask({"fc1.weight": arr})
        assert mask.surviving() == 3
        assert Mask({"fc1.weight": np.zeros((0, 4))}).total() == 0


class TestMaskContainer:
    def test_mask_is_a_paramset_on_one_buffer_in_prunable_order(self):
        params = init_params(MlpArchitecture([5, 4, 3, 2]), 1)
        mask = Mask.full(params)
        assert isinstance(mask, ParamSet)
        assert mask.names() == params.prunable_names()
        start = 0
        for name in mask:
            assert np.shares_memory(mask[name], mask.buffer)
            assert mask[name].__array_interface__["data"][0] == (
                mask.buffer.__array_interface__["data"][0] + 8 * start)
            start += mask[name].size
        assert start == mask.buffer.size == mask.total()

    def test_copy_is_a_mask_on_its_own_buffer(self):
        mask = Mask.full(init_params(MlpArchitecture([5, 4, 3]), 1))
        mask["fc1.weight"][0, 0] = 0.0
        copy = mask.copy()
        assert type(copy) is Mask
        assert copy.shapes() == mask.shapes()
        assert copy.buffer.tobytes() == mask.buffer.tobytes()
        assert not np.shares_memory(copy.buffer, mask.buffer)
        assert copy.surviving() == mask.surviving() == mask.total() - 1

    def test_laying_a_mask_on_a_buffer_checks_it(self):
        shapes = [("fc1.weight", (2, 2))]
        assert Mask.on_buffer(np.array([1.0, 0.0, -0.0, 1.0]), shapes).surviving() == 2
        with pytest.raises(ValueError, match="mask 'fc1.weight' must contain only 0.0 and 1.0"):
            Mask.on_buffer(np.array([1.0, 0.0, 0.5, 1.0]), shapes)


class TestSparsity:
    def test_full_mask_zero(self):
        params = init_params(MlpArchitecture([5, 4, 2]), seed=0)
        assert sparsity(Mask.full(params)) == 0.0

    def test_biases_excluded(self):
        params = init_params(MlpArchitecture([5, 4]), seed=0)
        mask = Mask.full(params)
        mask["fc1.weight"][0, :] = 0.0  # 5 of 20 weights
        assert sparsity(mask) == 5 / 20

    def test_floor_exact_recurrence(self):
        # sparsity after k rounds tracks the integer recurrence
        # s_{k+1} = s_k - floor(t * s_k), approximately 1 - 0.8^k
        params = init_params(MlpArchitecture([100, 50]), seed=2)
        mask = Mask.full(params)
        surviving = 100 * 50
        for k in range(1, 12):
            mask = prune(params, mask, 0.2, PruneScope.LAYERWISE)
            surviving -= int(np.floor(0.2 * surviving))
            assert mask.surviving() == surviving
            assert sparsity(mask) == (5000 - surviving) / 5000
            assert abs(sparsity(mask) - (1 - 0.8**k)) < 0.01


class TestRewind:
    def _setup(self, seed=4):
        arch = MlpArchitecture([4, 3, 2])
        params = init_params(arch, seed)
        init = params.copy()
        state = OptimizerState(params)
        # churn the parameters so rewind has work to do
        rng = np.random.default_rng(seed)
        for n in params.names():
            params[n] = params[n] + rng.standard_normal(params[n].shape)
            state.velocity[n][...] = rng.standard_normal(params[n].shape)
        state.step_count = 17
        return arch, params, init, state

    def test_full_mask_restores_bitwise(self):
        _, params, init, state = self._setup()
        rewind(params, init, Mask.full(params), state)
        assert equals_bitwise(params, init)

    def test_masked_positions_zeroed(self):
        _, params, init, state = self._setup()
        mask = Mask.full(params)
        mask["fc1.weight"][1, 2] = 0.0
        rewind(params, init, mask, state)
        assert params["fc1.weight"][1, 2] == 0.0
        assert state.velocity["fc1.weight"][1, 2] == 0.0
        # survivors bitwise equal to the init
        keep = mask["fc1.weight"] == 1.0
        np.testing.assert_array_equal(
            params["fc1.weight"][keep], init["fc1.weight"][keep]
        )

    def test_optimizer_state_cleared(self):
        _, params, init, state = self._setup()
        rewind(params, init, Mask.full(params), state)
        assert state.step_count == 0
        assert np.all(state.velocity.buffer == 0.0)

    def test_idempotent(self):
        _, params, init, state = self._setup()
        mask = Mask.full(params)
        mask["fc2.weight"][0, 1] = 0.0
        rewind(params, init, mask, state)
        first = params.copy()
        rewind(params, init, mask, state)
        assert equals_bitwise(params, first)

    def test_fingerprint_mismatch_rejected(self):
        _, params, init, state = self._setup()
        other = init_params(MlpArchitecture([4, 5, 2]), seed=1)
        with pytest.raises(ValueError, match="layout mismatch"):
            rewind(other, init, Mask.full(other), OptimizerState(other))

    def test_masked_stays_zero_through_sgd(self):
        _, params, init, state = self._setup()
        mask = Mask.full(params)
        mask["fc1.weight"][0, 0] = 0.0
        rewind(params, init, mask, state)
        cfg = TrainConfig(epochs=1, lr=0.1, momentum=0.9, weight_decay=1e-4, seed=0)
        rng = np.random.default_rng(0)
        for step in range(20):
            grads = {n: rng.standard_normal(params[n].shape) for n in params.names()}
            sgd_step(params, grads, state, mask, cfg, epoch=0)
            assert params["fc1.weight"][0, 0] == 0.0
            assert state.velocity["fc1.weight"][0, 0] == 0.0


class TestOracleEquivalence:
    """prune against a brute-force (|value|, layer, index) sort, small tensors."""

    @pytest.mark.parametrize("scope", [PruneScope.LAYERWISE, PruneScope.GLOBAL])
    def test_random_small_tensors(self, scope):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n_layers = int(rng.integers(1, 3))
            entries, weights, masks = [], [], []
            for i in range(n_layers):
                shape = (1, int(rng.integers(1, 11)))
                w = rng.choice([-0.4, -0.2, 0.0, 0.2, 0.4, 0.8], size=shape)
                entries += [(f"fc{i+1}.weight", w), (f"fc{i+1}.bias", np.zeros(1))]
                weights.append(w)
                masks.append((rng.random(shape) < 0.85).astype(np.float64))
            params = ParamSet(entries)
            if sum(m.sum() for m in masks) == 0:
                continue
            mask = Mask({f"fc{i+1}.weight": masks[i] for i in range(n_layers)})
            t_iter = float(rng.uniform(0.05, 0.95))
            result = prune(params, mask, t_iter, scope)
            expected = brute_force_prune(weights, masks, t_iter, scope)
            for i in range(n_layers):
                got = set(np.flatnonzero(result[f"fc{i+1}.weight"].reshape(-1) == 1.0))
                assert got == expected[i], f"scope={scope} layer={i} t={t_iter}"

    @pytest.mark.parametrize("scope", [PruneScope.LAYERWISE, PruneScope.GLOBAL])
    def test_heavy_ties(self, scope):
        # a few distinct magnitudes over hundreds of weights: most cuts fall inside a tie
        rng = np.random.default_rng(7)
        for case in range(12):
            shapes = [(12, 20), (8, 12), (3, 8)][: 1 + case % 3]
            entries, weights, masks = [], [], []
            for i, shape in enumerate(shapes):
                w = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0], size=shape)
                entries += [(f"fc{i+1}.weight", w), (f"fc{i+1}.bias", np.zeros(shape[0]))]
                weights.append(w)
                masks.append((rng.random(shape) < 0.7).astype(np.float64))
            params = ParamSet(entries)
            mask = Mask({f"fc{i+1}.weight": m for i, m in enumerate(masks)})
            t_iter = float(rng.uniform(0.05, 0.95))
            result = prune(params, mask, t_iter, scope)
            expected = brute_force_prune(weights, masks, t_iter, scope)
            for i in range(len(shapes)):
                got = set(np.flatnonzero(result[f"fc{i+1}.weight"].reshape(-1)))
                assert got == expected[i], f"case {case} layer {i} t={t_iter}"


def test_selection_matches_a_stable_sort_on_a_lenet_layer():
    rng = np.random.default_rng(3)
    # 300 x 784 weights rounded to 3 decimals: about 200 weights share each magnitude
    w = np.round(rng.uniform(-0.05, 0.05, size=(300, 784)), 3)
    params = make_params(w)
    mask = Mask({"fc1.weight": (rng.random(w.shape) < 0.6).astype(np.float64)})
    alive = np.flatnonzero(mask["fc1.weight"])
    k = int(np.floor(0.2 * alive.size))
    expected = mask["fc1.weight"].copy().reshape(-1)
    expected[alive[np.argsort(np.abs(w.reshape(-1)[alive]), kind="stable")[:k]]] = 0.0
    for scope in PruneScope:  # one layer: both scopes rank the same weights
        out = prune(params, mask, 0.2, scope)
        assert np.array_equal(out["fc1.weight"].reshape(-1), expected)


def test_nan_magnitudes_rank_last_like_a_stable_sort():
    params, mask = single_layer([np.nan, 0.3, -np.inf, 0.1, np.nan, 0.2])
    out = prune(params, mask, t_iter=0.9, scope=PruneScope.LAYERWISE)  # floor(0.9*6)=5
    # 0.1, 0.2, 0.3, inf go, then the first NaN by flat index
    np.testing.assert_array_equal(out["fc1.weight"], [[0, 0, 0, 0, 1, 0]])
