"""Dataset loading and synthesis: IDX files, Gaussian blob fallbacks,
symmetric label noise with an exact audit trail, and seeded splits.

A dataset is its features, labels, class count and noise record.  One IDX
reader and one IDX writer serve the image and the label file of a pair.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# community-standard MNIST normalization constants
MNIST_MEAN = 0.1307
MNIST_STD = 0.3081


@dataclass(frozen=True)
class NoiseRecord:
    """Audit trail of one symmetric label-noise injection.

    ``flipped_indices`` is sorted and unique; ``original_labels`` is aligned
    to it, so applying the originals back onto the noisy labels restores the
    clean dataset exactly.
    """

    epsilon: float
    flipped_indices: tuple[int, ...]
    original_labels: tuple[int, ...]
    noise_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if len(self.flipped_indices) != len(self.original_labels):
            raise ValueError("flipped_indices and original_labels must align")
        idx = self.flipped_indices
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("flipped_indices must be sorted and unique")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix [N, D] (float64) with integer labels in [0, num_classes).

    ``noise`` is None for clean data and carries the NoiseRecord once
    symmetric noise has been injected; the sketch loop uses it to assert
    that test data is never noised.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    noise: NoiseRecord | None = None

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"features must be [N>=1, D], got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must be a vector aligned with features")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _read_idx(path: str | Path, magic: int) -> np.ndarray:
    """The uint8 payload of an IDX file, in the shape its header lists.

    The header is ``magic`` (``0x0000_08nn``: unsigned bytes in nn dimensions),
    then nn big-endian uint32 sizes.
    """
    raw = Path(path).read_bytes()
    ndim = magic & 0xFF
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise ValueError(f"truncated file {path}: expected a {header}-byte header, got {len(raw)}")
    found, *shape = struct.unpack_from(f">{1 + ndim}I", raw)
    if found != magic:
        raise ValueError(f"bad magic in {path}: 0x{found:08x}, expected 0x{magic:08x}")
    size = math.prod(shape)
    if len(raw) < header + size:
        raise ValueError(f"truncated file {path}: expected {header + size} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=size, offset=header).reshape(shape)


def _write_idx(path: str | Path, magic: int, payload: np.ndarray) -> None:
    """Write a uint8 array as an IDX file: ``magic``, its sizes, its bytes."""
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + payload.ndim}I", magic, *payload.shape))
        f.write(payload.tobytes())


def load_idx(
    images_path: str | Path,
    labels_path: str | Path,
    limit: int | None = None,
) -> LabeledDataset:
    """Load an IDX image/label pair into a flattened, standardized dataset.

    Pixels are scaled to [0, 1] and standardized with the MNIST constants
    (mean 0.1307, std 0.3081); images flatten to D = rows * cols.  ``limit``
    truncates to the first samples.
    """
    images = _read_idx(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC)
    if len(images) != len(labels):
        raise ValueError(
            f"length mismatch: {images_path} has {len(images)} images but "
            f"{labels_path} has {len(labels)} labels"
        )
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    n, rows, cols = images.shape
    pixels = images.reshape(n, rows * cols)[:limit]
    features = (pixels.astype(np.float64) / 255.0 - MNIST_MEAN) / MNIST_STD
    return LabeledDataset(features=features, labels=labels[:limit], num_classes=10)


def save_idx(
    images: np.ndarray,
    labels: np.ndarray,
    images_path: str | Path,
    labels_path: str | Path,
) -> None:
    """Write raw uint8 images [N, rows, cols] and labels [N] as an IDX pair."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be [N, rows, cols], got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels must align with images")
    _write_idx(images_path, IDX_IMAGE_MAGIC, images)
    _write_idx(labels_path, IDX_LABEL_MAGIC, labels)


def export_idx(
    ds: LabeledDataset,
    images_path: str | Path,
    labels_path: str | Path,
    rows: int,
    cols: int,
) -> None:
    """Export a dataset to IDX by inverting the MNIST standardization.

    Exact round-trip for datasets that came from uint8 pixel grids; other
    feature values are clipped into [0, 255].
    """
    if ds.dim != rows * cols:
        raise ValueError(f"dataset dim {ds.dim} != rows*cols = {rows * cols}")
    pixels = (ds.features * MNIST_STD + MNIST_MEAN) * 255.0
    images = np.clip(np.rint(pixels), 0, 255).astype(np.uint8).reshape(ds.size, rows, cols)
    save_idx(images, ds.labels.astype(np.uint8), images_path, labels_path)


def synth_blobs(
    n_per_class: int,
    num_classes: int,
    dim: int,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Gaussian clusters with unit variance, centered on a grid lattice.

    Class c sits at ``separation`` times the coordinates of c unravelled into
    the smallest integer grid holding num_classes points, so nearest centers
    are exactly ``separation`` apart (all coincide when separation is 0).
    """
    if n_per_class < 1 or num_classes < 1 or dim < 1:
        raise ValueError("n_per_class, num_classes and dim must be >= 1")
    side = 1
    while side**dim < num_classes:
        side += 1
    # base-`side` digits of the class index, one digit per axis
    centers = np.zeros((num_classes, dim))
    for c in range(num_classes):
        rem, axis = c, 0
        while rem:
            rem, digit = divmod(rem, side)
            centers[c, axis] = digit
            axis += 1
    centers *= float(separation)

    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_per_class * num_classes
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    features = rng.standard_normal((n, dim))
    features.reshape(num_classes, n_per_class, dim)[...] += centers[:, None, :]  # rows grouped by class
    return LabeledDataset(features=features, labels=labels, num_classes=num_classes)


def inject_symmetric_noise(
    ds: LabeledDataset, epsilon: float, seed: int
) -> tuple[LabeledDataset, NoiseRecord]:
    """Flip round(epsilon * N) labels, each to a uniformly chosen other class.

    Indices are drawn uniformly without replacement.  The input dataset is
    left untouched; the returned NoiseRecord allows exact reversal.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0 and ds.num_classes < 2:
        raise ValueError("need at least 2 classes to flip labels")

    n = ds.size
    k = int(round(epsilon * n))
    rng = np.random.Generator(np.random.PCG64(seed))
    flipped = np.sort(rng.choice(n, size=k, replace=False)) if k else np.empty(0, dtype=np.int64)
    labels = ds.labels.copy()
    originals = labels[flipped].copy()
    if k:
        # uniform over the other C-1 classes, never the original
        offsets = rng.integers(1, ds.num_classes, size=k)
        labels[flipped] = (originals + offsets) % ds.num_classes
    record = NoiseRecord(
        epsilon=epsilon,
        flipped_indices=tuple(int(i) for i in flipped),
        original_labels=tuple(int(v) for v in originals),
        noise_seed=seed,
    )
    noisy = LabeledDataset(features=ds.features, labels=labels, num_classes=ds.num_classes, noise=record)
    return noisy, record


def revert_noise(ds: LabeledDataset, record: NoiseRecord) -> LabeledDataset:
    """Restore the clean labels recorded in a NoiseRecord."""
    labels = ds.labels.copy()
    labels[np.array(record.flipped_indices, dtype=np.int64)] = record.original_labels
    return LabeledDataset(features=ds.features, labels=labels, num_classes=ds.num_classes)


def train_count(n: int, train_fraction: float) -> int | None:
    """Training samples of a ``split`` of n samples at ``train_fraction``, or
    None when the split would leave the training or the test side empty."""
    n_train = int(round(train_fraction * n))
    return n_train if 1 <= n_train < n else None


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted train and test row indices of a ``split`` of n samples."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = train_count(n, train_fraction)
    if n_train is None:
        raise ValueError(f"split of {n} samples at fraction {train_fraction} leaves an empty side")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def take(ds: LabeledDataset, idx: np.ndarray) -> LabeledDataset:
    """The rows ``idx`` of ``ds`` as a new dataset, with no noise record."""
    return LabeledDataset(features=ds.features[idx], labels=ds.labels[idx], num_classes=ds.num_classes)


def split(
    ds: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint, exhaustive, seed-deterministic partition into train/test."""
    tr, te = split_indices(ds.size, train_fraction, seed)
    return take(ds, tr), take(ds, te)
