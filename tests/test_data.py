"""Dataset ingestion: IDX parsing, blobs, label noise, splitting."""

import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest

from sparse_lab import (
    DatasetSpec,
    LabeledDataset,
    MlpArchitecture,
    NoiseRecord,
    OptimizerState,
    TrainConfig,
    evaluate,
    export_idx,
    init_params,
    inject_symmetric_noise,
    load_idx,
    revert_noise,
    save_idx,
    split,
    synth_blobs,
    train,
)
from sparse_lab.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, MNIST_MEAN, MNIST_STD
from sparse_lab.util import ConfigError


def write_idx_pair(tmp_path, images, labels):
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    save_idx(images, labels, ip, lp)
    return ip, lp


class TestLoadIdx:
    def test_well_formed_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.size == 10
        assert ds.dim == 784
        assert ds.labels.min() >= 0 and ds.labels.max() < 10

    def test_normalization_of_extremes(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        images[0] = 255
        ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8)))
        # closed form from the constants: (p/255 - mean) / std
        assert ds.features[0, 0] == (1.0 - MNIST_MEAN) / MNIST_STD
        assert abs(ds.features[0, 0] - 2.8215) < 1e-3
        assert ds.features[1, 0] == (0.0 - MNIST_MEAN) / MNIST_STD

    def test_limit_truncates(self, tmp_path):
        images = np.zeros((10, 4, 4), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8) % 10
        ds = load_idx(*write_idx_pair(tmp_path, images, labels), limit=3)
        assert ds.size == 3
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])

    def test_bad_magic_error(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
        blob = bytearray(ip.read_bytes())
        blob[:4] = struct.pack(">I", 0)
        ip.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(ip, lp)

    def test_label_magic_checked_separately(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
        blob = bytearray(lp.read_bytes())
        blob[:4] = struct.pack(">I", IDX_IMAGE_MAGIC)  # image magic in a label file
        lp.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(ip, lp)

    def test_length_mismatch_error(self, tmp_path):
        ip, _ = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8))
        lp = tmp_path / "short_labels.idx"
        lp.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 2) + bytes(2))
        with pytest.raises(ValueError, match="length mismatch"):
            load_idx(ip, lp)

    def test_truncated_file_error(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((4, 3, 3), np.uint8), np.zeros(4, np.uint8))
        full = ip.read_bytes()
        ip.write_bytes(full[: len(full) - 5])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ip, lp)

    def test_round_trip_through_export(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(6, 5, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=6, dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        export_idx(ds, ip2, lp2, rows=5, cols=5)
        ds2 = load_idx(ip2, lp2)
        np.testing.assert_array_equal(ds.features, ds2.features)
        np.testing.assert_array_equal(ds.labels, ds2.labels)


class TestSynthBlobs:
    def test_balanced_construction(self):
        ds = synth_blobs(n_per_class=5, num_classes=2, dim=3, separation=1.0, seed=0)
        assert ds.size == 10
        assert np.sum(ds.labels == 0) == 5 and np.sum(ds.labels == 1) == 5

    def test_zero_separation_shares_center(self):
        a = synth_blobs(n_per_class=200, num_classes=2, dim=2, separation=0.0, seed=1)
        mean0 = a.features[a.labels == 0].mean(axis=0)
        mean1 = a.features[a.labels == 1].mean(axis=0)
        # same (zero) center: class means both near the origin
        assert np.all(np.abs(mean0) < 0.3) and np.all(np.abs(mean1) < 0.3)

    def test_separated_blobs_linearly_learnable(self):
        ds = synth_blobs(n_per_class=40, num_classes=2, dim=2, separation=10.0, seed=2)
        params = init_params(MlpArchitecture([2, 2]), seed=2)
        cfg = TrainConfig(epochs=30, lr=0.1, momentum=0.9, batch_size=16, seed=2)
        train(params, None, OptimizerState(params), ds, cfg)
        _, acc = evaluate(params, None, ds)
        assert acc == 1.0

    @pytest.mark.parametrize("args, digest", [
        ((100, 10, 784, 3.0, 0), "3ae348c02190829a3d8b10dc5e1a6bbd69ea057ecfaa6ce5b7a0770f55ebaca7"),
        ((7, 3, 5, 2.5, 11), "67bd15537c64072fdd568771efcc6e8363f072cd963ab7aa313ada8dba88e0a8"),
        ((4, 17, 2, 0.0, 3), "3434c595f6c89b5754977b15142e1f156cec9a6d898fdc23f6f3a48d4d350a87"),
    ])
    def test_bytes_are_pinned(self, args, digest):
        # sha256 of the features then the labels, as the class centres were first added
        ds = synth_blobs(*args)
        assert hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest() == digest

    def test_deterministic(self):
        a = synth_blobs(10, 3, 4, 2.0, seed=7)
        b = synth_blobs(10, 3, 4, 2.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_neighbor_centers_separation_apart(self):
        # many classes force a multi-axis grid; check the first two centers
        ds = synth_blobs(n_per_class=500, num_classes=5, dim=2, separation=8.0, seed=3)
        centers = [ds.features[ds.labels == c].mean(axis=0) for c in range(5)]
        d01 = np.linalg.norm(centers[0] - centers[1])
        assert abs(d01 - 8.0) < 0.5


class TestInjectSymmetricNoise:
    def test_epsilon_zero_is_identity(self):
        ds = synth_blobs(10, 3, 2, 1.0, seed=1)
        noisy, record = inject_symmetric_noise(ds, 0.0, seed=5)
        assert record.flipped_indices == ()
        np.testing.assert_array_equal(noisy.labels, ds.labels)

    def test_flip_count_and_inequality(self):
        ds = synth_blobs(5, 2, 2, 1.0, seed=2)  # N = 10
        noisy, record = inject_symmetric_noise(ds, 0.5, seed=6)
        assert len(record.flipped_indices) == 5
        for idx, orig in zip(record.flipped_indices, record.original_labels):
            assert noisy.labels[idx] != orig
            assert ds.labels[idx] == orig

    def test_original_dataset_untouched(self):
        ds = synth_blobs(20, 4, 2, 1.0, seed=3)
        before = ds.labels.copy()
        inject_symmetric_noise(ds, 0.3, seed=7)
        np.testing.assert_array_equal(ds.labels, before)

    @pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.5])
    def test_supported_sweep_values(self, epsilon):
        ds = synth_blobs(100, 10, 2, 1.0, seed=4)  # N = 1000
        noisy, record = inject_symmetric_noise(ds, epsilon, seed=8)
        assert len(record.flipped_indices) == round(epsilon * 1000)
        assert int(np.sum(noisy.labels != ds.labels)) == round(epsilon * 1000)

    def test_reversal_exact(self):
        ds = synth_blobs(50, 5, 3, 2.0, seed=5)
        noisy, record = inject_symmetric_noise(ds, 0.4, seed=9)
        restored = revert_noise(noisy, record)
        np.testing.assert_array_equal(restored.labels, ds.labels)

    def test_noise_flag_set_only_on_noisy_copy(self):
        ds = synth_blobs(10, 2, 2, 1.0, seed=6)
        noisy, record = inject_symmetric_noise(ds, 0.5, seed=10)
        assert ds.noise is None
        assert noisy.noise is record

    def test_single_class_with_noise_rejected(self):
        ds = LabeledDataset(
            features=np.zeros((4, 2)), labels=np.zeros(4, dtype=int),
            num_classes=1,
        )
        with pytest.raises(ValueError, match="2 classes"):
            inject_symmetric_noise(ds, 0.5, seed=1)
        inject_symmetric_noise(ds, 0.0, seed=1)  # epsilon 0 stays legal

    def test_flip_marginal_roughly_uniform(self):
        # pooled over seeds, each wrong class offset should appear ~1/(C-1)
        C, N = 4, 300
        ds = synth_blobs(N // C, C, 2, 1.0, seed=11)
        counts = np.zeros(C - 1)
        total = 0
        for seed in range(30):
            noisy, record = inject_symmetric_noise(ds, 0.5, seed=seed)
            idx = np.array(record.flipped_indices, dtype=int)
            offsets = (noisy.labels[idx] - np.array(record.original_labels)) % C
            for o in range(1, C):
                counts[o - 1] += int(np.sum(offsets == o))
            total += len(idx)
        p = 1.0 / (C - 1)
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) <= 3 * sigma)


class TestSplit:
    def test_sizes(self):
        ds = synth_blobs(5, 2, 2, 1.0, seed=1)  # N=10
        tr, te = split(ds, 0.8, seed=2)
        assert (tr.size, te.size) == (8, 2)

    def test_partition_law(self):
        ds = synth_blobs(25, 2, 2, 1.0, seed=3)
        tr, te = split(ds, 0.7, seed=4)
        combined = np.vstack([tr.features, te.features])
        assert combined.shape[0] == ds.size
        # every original row appears exactly once across the two sides
        original = {tuple(row) for row in ds.features}
        seen = [tuple(row) for row in combined]
        assert len(seen) == len(set(seen))
        assert set(seen) == original

    def test_deterministic(self):
        ds = synth_blobs(20, 2, 3, 1.0, seed=5)
        a = split(ds, 0.5, seed=6)
        b = split(ds, 0.5, seed=6)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_empty_side_rejected(self):
        ds = synth_blobs(1, 2, 2, 1.0, seed=7)  # N=2
        with pytest.raises(ValueError, match="empty"):
            split(ds, 0.1, seed=8)
        with pytest.raises(ValueError):
            split(ds, 0.99, seed=8)

    @pytest.mark.parametrize("n_per_class,num_classes,fraction,splits", [
        (3, 2, 0.05, False), (1, 1, 0.8, False), (1, 2, 0.1, False), (1, 2, 0.99, False),
        (3, 2, 0.95, False), (3, 2, 0.1, True), (1, 2, 0.5, True),
    ])
    def test_blobs_spec_refuses_what_split_refuses(self, n_per_class, num_classes, fraction, splits):
        ds = synth_blobs(n_per_class, num_classes, 2, 1.0, seed=7)
        spec = dict(kind="blobs", n_per_class=n_per_class, num_classes=num_classes,
                    train_fraction=fraction)
        if splits:
            split(ds, fraction, seed=8)
            DatasetSpec(**spec)
        else:
            with pytest.raises(ValueError, match="empty side"):
                split(ds, fraction, seed=8)
            with pytest.raises(ConfigError, match="empty side"):
                DatasetSpec(**spec)


def _blobs():
    return synth_blobs(3, 2, 4, 1.0, seed=0)  # N = 6, D = 4


@pytest.mark.parametrize("refused, word", [
    pytest.param(lambda _: NoiseRecord(1.5, (), (), 0), "epsilon", id="noise-epsilon"),
    pytest.param(lambda _: NoiseRecord(0.5, (1, 2), (0,), 0), "align", id="noise-align"),
    pytest.param(lambda _: NoiseRecord(0.5, (2, 1), (0, 0), 0), "sorted", id="noise-order"),
    pytest.param(lambda _: dataclasses.replace(_blobs(), labels=np.zeros(5, int)), "aligned",
                 id="dataset-labels-aligned"),
    pytest.param(lambda _: dataclasses.replace(_blobs(), features=np.full((6, 4), np.nan)), "finite",
                 id="dataset-finite"),
    pytest.param(lambda _: dataclasses.replace(_blobs(), labels=np.full(6, 2)), "lie in",
                 id="dataset-label-range"),
    pytest.param(lambda p: load_idx(*write_idx_pair(p, np.zeros((2, 2, 2), np.uint8),
                                                    np.zeros(2, np.uint8)), limit=0),
                 "limit", id="load-idx-limit"),
    pytest.param(lambda p: write_idx_pair(p, np.zeros((2, 4), np.uint8), np.zeros(2, np.uint8)),
                 "rows, cols", id="save-idx-image-shape"),
    pytest.param(lambda p: write_idx_pair(p, np.zeros((2, 2, 2), np.uint8), np.zeros(3, np.uint8)),
                 "align", id="save-idx-labels"),
    pytest.param(lambda p: export_idx(_blobs(), p / "i", p / "l", rows=3, cols=3), "rows*cols",
                 id="export-idx-dim"),
    pytest.param(lambda _: synth_blobs(0, 2, 4, 1.0, seed=0), "n_per_class", id="blobs-sizes"),
    pytest.param(lambda _: inject_symmetric_noise(_blobs(), -0.1, seed=0), "epsilon",
                 id="noise-injection-epsilon"),
    pytest.param(lambda _: split(_blobs(), 1.0, seed=0), "train_fraction", id="split-fraction"),
])
def test_data_checks_refuse_bad_input(tmp_path, refused, word):
    with pytest.raises(ValueError, match=re.escape(word)):
        refused(tmp_path)
