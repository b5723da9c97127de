"""Reference code the tests compare the package against.

Each function here is the plain form of something ``sparse_lab`` computes
another way: ``sgd_step`` is the masked update without a ``Step`` plan, which
``train``'s planned update must match bit for bit at every surviving position;
``forward`` and ``forward_trace`` are a whole pass built for one call;
``amplification_reference`` is the per-sample loop behind
``probes.amplification_check``, and ``removed_weight_scores`` the
boolean-index form of ``probes.excess_output``'s two removed-weight scores;
``parse_metrics_csv`` reads back what ``reporting`` writes, and ``save_idx``
writes the IDX files that ``data.load_idx`` reads.  The rest are comparisons (``equals_bitwise``,
``is_subset_of``) and readers (``load_round_state``) that only tests need.
The package itself never runs any of them.
"""

from __future__ import annotations

import struct
from pathlib import Path

# sparse_lab caps BLAS threads when it is imported, which only takes effect
# if numpy is not loaded yet (see conftest.py)
from sparse_lab.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from sparse_lab.nn import OptimizerState, ParamSet, Step, TrainConfig, effective_lr
from sparse_lab.pruning import Mask
from sparse_lab.reporting import METRICS_HEADER
from sparse_lab.rundir import MASK, PARAMS
from sparse_lab.sketch import load_round_file

import numpy as np


def sgd_step(
    params: ParamSet,
    grads: ParamSet,
    state: OptimizerState,
    mask: Mask | None,
    cfg: TrainConfig,
    epoch: int,
) -> None:
    """One SGD-with-momentum update, in place, from ``grads``.

    The L2 term enters as an additive gradient ``grad + weight_decay * w``
    on prunable tensors only.  Every masked-out position is re-zeroed in both
    the parameter and its velocity after the update.
    """
    lr = effective_lr(cfg, epoch)
    for name in params.names():
        g = grads[name]
        w = params[name]
        if cfg.weight_decay != 0.0 and params.is_prunable(name):
            g = g + cfg.weight_decay * w
        v = state.velocity[name]
        v *= cfg.momentum
        v += g
        w -= lr * v
        if mask is not None and name in mask:
            m = mask[name]
            w *= m
            v *= m
    state.step_count += 1


def forward_trace(
    params: ParamSet, mask: Mask | None, batch: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping intermediates.

    Returns (logits, pre_activations, activations) where activations[0] is
    the input batch and activations[l] is the post-ReLU output of layer l
    (the logits for the final layer).
    """
    return Step(params, mask).trace(batch)


def forward(params: ParamSet, mask: Mask | None, batch: np.ndarray) -> np.ndarray:
    """Compute logits [B, num_classes]; masked weights contribute exactly 0."""
    logits, _, _ = forward_trace(params, mask, batch)
    return logits


def excess_logits(params: ParamSet, mask: Mask, batch: np.ndarray) -> np.ndarray:
    """Per-sample, per-class excess output: forward(full) - forward(masked)."""
    return forward(params, None, batch) - forward(params, mask, batch)


def amplification_reference(params: ParamSet, pre: list[np.ndarray]) -> list[float]:
    """Per-sample reference for ``probes.amplification_check``.

    ``pre`` holds the unmasked pre-activations of a batch.  For each sample
    and hidden layer the Jacobian is built one layer at a time with the ReLU
    gate on the rows of the right operand; the induced L1 norms are summed
    in sample order and averaged.
    """
    layers = Step(params, None).layers()
    num_layers = len(layers)
    samples = pre[0].shape[0]
    if samples == 0:
        raise ValueError("batch must be a non-empty 2-D array")
    ratios: list[float] = []
    for hidden in range(num_layers - 1):
        # Jacobian of the tail starting after ReLU `hidden` (0-based hidden index)
        total = 0.0
        for s in range(samples):
            jac = layers[hidden + 1][0]
            for m in range(hidden + 2, num_layers):
                gate = (pre[m - 1][s] > 0.0).astype(np.float64)
                jac = layers[m][0] @ (gate[:, None] * jac)
            total += float(np.abs(jac).sum(axis=0).max())
        ratios.append(total / samples)
    return ratios


def removed_weight_scores(params: ParamSet, mask: Mask, batch: np.ndarray) -> tuple[float, float]:
    """(weight_l1_masked_out, condition1_score) of ``probes.excess_output``.

    Each layer's removed weights are gathered with a boolean index into a
    fresh ``|w|``, and each layer's input gets a fresh ``|activation|``; the
    layers are taken in the order of ``params``.
    """
    _, _, acts = forward_trace(params, None, batch)
    weight_l1 = 0.0
    prod_sum = 0.0
    prod_count = 0
    for idx, name in enumerate(params.prunable_names()):
        removed = mask[name] == 0.0
        n_removed = int(removed.sum())
        if n_removed == 0:
            continue
        w_abs = np.abs(params[name])
        weight_l1 += float(w_abs[removed].sum())
        w_abs *= removed
        prod_sum += float((np.abs(acts[idx]) @ w_abs.T).sum())
        prod_count += n_removed * batch.shape[0]
    return weight_l1, prod_sum / prod_count if prod_count else 0.0


def equals_bitwise(a: ParamSet, b: ParamSet) -> bool:
    """Same names and shapes in the same order, and the same bit pattern in
    every value: +0.0 differs from -0.0, and a NaN only equals its own payload."""
    return a.shapes() == b.shapes() and np.array_equal(a.buffer.view(np.uint64), b.buffer.view(np.uint64))


def is_subset_of(mask: Mask, other: Mask) -> bool:
    """True when every 1 in ``mask`` is also 1 in ``other`` (monotonicity)."""
    return mask.shapes() == other.shapes() and bool(np.all(mask.buffer <= other.buffer))


def load_round_state(run_dir: str | Path, k: int) -> tuple[ParamSet, Mask]:
    """Trained params and mask of completed round k, each decoded once into its buffer."""
    params = load_round_file(run_dir, k, PARAMS)
    mask = load_round_file(run_dir, k, MASK)
    return params, Mask.on_buffer(mask.buffer, mask.shapes())


def parse_metrics_csv(path: str | Path) -> list[dict]:
    """Parse an emitted metrics.csv back into per-row dicts (None for empty).

    ``reporting.reemit_metrics_csv`` writes the rows back byte-identically.
    """
    text = Path(path).read_text()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"unexpected metrics header in {path}")
    cols = METRICS_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(f"malformed row in {path}: {line!r}")
        row: dict = dict(zip(cols, cells))
        for key in cols:
            if key == "run_id":
                continue
            if row[key] == "":
                row[key] = None
            elif key in ("round", "seed"):
                row[key] = int(row[key])
            else:
                row[key] = float(row[key])
        rows.append(row)
    return rows


def save_idx(
    images: np.ndarray,
    labels: np.ndarray,
    images_path: str | Path,
    labels_path: str | Path,
) -> None:
    """Write raw uint8 images [N, rows, cols] and labels [N] as an IDX pair:
    each file holds its magic, its big-endian uint32 sizes and its bytes."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be [N, rows, cols], got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels must align with images")
    for path, magic, payload in ((images_path, IDX_IMAGE_MAGIC, images), (labels_path, IDX_LABEL_MAGIC, labels)):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + payload.ndim}I", magic, *payload.shape))
            f.write(payload.tobytes())
