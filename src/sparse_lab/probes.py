"""Output-perturbation diagnostics for pruned networks.

The excess output of a mask is measured operationally as the exact
difference between the full forward pass and the masked forward pass:
the total logit contribution of the weights the mask removes.  (A
per-weight decomposition is ill-defined once weights interact through
nonlinearities, so the full-minus-masked difference is the quantity this
module reports.)  Alongside it we score how small the removed-weight input
products are, and whether any downstream layer can amplify an injected
unit-L1 activation perturbation.

The amplification Jacobians are built as stacked per-sample GEMMs over
fixed chunks of samples, with no Python loop over the samples.  Three rules
keep the bits of the per-sample reference in ``tests/reference.py``: never
flatten a chunk's stack into one GEMM, add the per-sample norms in sample
order, and build one Jacobian per group of samples whose gates agree at every
column of a gated weight that holds an entry ``!= 0.0``.  At an all-zero
column either gate value gives the same product bits, so a group's samples
feed the same operands, in the same shapes, to every GEMM of the chain.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .nn import ParamSet, Step
from .pruning import Mask
from .rundir import MASK, PARAMS, ProbeResult, completed_rounds, read_config
from .rundir import load_probes, save_probes  # noqa: F401 - for the CLI and bench/tracer.py
from .sketch import load_round_file

PROBE_BATCH_SIZE = 256
# samples per stacked Jacobian GEMM in _amplification; bounds its temporaries
AMPLIFICATION_CHUNK = 32


def amplification_check(params: ParamSet, batch: np.ndarray) -> list[float]:
    """Worst-case L1 amplification from each hidden activation to the output.

    For every hidden layer the exact Jacobian of the output w.r.t. that
    layer's activation is assembled at each sample's ReLU pattern; its
    induced L1 norm (max column abs sum) is the largest possible
    ||output change||_1 / ||activation change||_1 over unit-L1 injected
    perturbations.  Returns the batch mean per hidden layer.

    The Jacobians are stacked per-sample GEMMs over fixed chunks of
    ``AMPLIFICATION_CHUNK`` samples: each layer multiplies a (chunk, out, k)
    stack of gated weights into the chunk's (k, n) or (chunk, k, n)
    Jacobians, one BLAS GEMM per sample.  The last hidden layer's Jacobian is
    the output weight for every sample, so its norm is taken once.  Two rules
    keep the result bit for bit that of the per-sample reference,
    ``amplification_reference`` in ``tests/reference.py``: the stack is never
    flattened into one (chunk * out, k) GEMM, whose BLAS blocking may sum the
    products in another order, and the norms are added to the total one
    sample at a time, in sample order.  A third saves work without moving a
    bit: the Jacobian is built once per group of samples whose gates agree at
    every column of each gated weight that holds an entry ``!= 0.0`` (a NaN
    counts), and each sample takes its group's norm.
    A column of ±0.0 entries times a gate of 0 or 1 keeps its bits, so the
    samples of a group feed bitwise-equal operands of the same shapes to
    every GEMM, and get equal Jacobians.  Only the set of samples shrinks:
    compacting a GEMM's operands instead changes its shape, and with it the
    summation order.
    """
    full = Step(params, None)
    _, pre, _ = full.trace(batch)
    return _amplification(full.layers(), pre)


def _amplification(layers: list[tuple[np.ndarray, np.ndarray]], pre: list[np.ndarray]) -> list[float]:
    """``amplification_check`` from the unmasked layers and pre-activations of a batch."""
    num_layers = len(layers)
    samples = pre[0].shape[0]
    if samples == 0:
        raise ValueError("batch must be a non-empty 2-D array")
    ratios: list[float] = []
    for hidden in range(num_layers - 1):
        if hidden + 2 == num_layers:
            # no ReLU between this layer and the output: one Jacobian for all samples
            norms = [float(np.abs(layers[-1][0]).sum(axis=0).max())] * samples
        else:
            representatives, inverse = _gate_groups(layers, pre, hidden)
            norms = []
            for start in range(0, len(representatives), AMPLIFICATION_CHUNK):
                rows = representatives[start : start + AMPLIFICATION_CHUNK]
                jac = layers[hidden + 1][0]
                for m in range(hidden + 2, num_layers):
                    gate = (pre[m - 1][rows] > 0.0).astype(np.float64)
                    # the gate zeroes the columns of W_m, not the rows of jac: same products
                    jac = np.matmul(layers[m][0] * gate[:, None, :], jac)
                np.abs(jac, out=jac)
                norms.extend(jac.sum(axis=1).max(axis=1).tolist())
            norms = [norms[group] for group in inverse]
        total = 0.0
        for norm in norms:  # in sample order, as the reference sums them
            total += norm
        ratios.append(total / samples)
    return ratios


def _gate_groups(
    layers: list[tuple[np.ndarray, np.ndarray]], pre: list[np.ndarray], hidden: int
) -> tuple[np.ndarray, list[int]]:
    """Group the samples whose Jacobians of hidden layer ``hidden`` are equal.

    A sample's key is its gates at the columns of each gated weight W_m of
    the chain (m = hidden+2 .. L-1) that hold an entry ``!= 0.0``; a NaN
    counts as nonzero.  Returns (representatives, inverse): the first sample
    of each group, in sample order, and each sample's group index.
    """
    bits = np.concatenate(
        [(pre[m - 1] > 0.0) & (layers[m][0] != 0.0).any(axis=0) for m in range(hidden + 2, len(layers))],
        axis=1,
    )  # a gate at an all-zero column reads False for every sample
    packed = np.packbits(bits, axis=1)
    groups: dict[bytes, int] = {}
    representatives: list[int] = []
    inverse: list[int] = []
    for sample, key in enumerate(packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()):
        group = groups.setdefault(key, len(representatives))
        if group == len(representatives):
            representatives.append(sample)
        inverse.append(group)
    return np.array(representatives, dtype=np.intp), inverse


def excess_output(
    params: ParamSet, mask: Mask, batch: np.ndarray, steps: tuple[Step, Step] | None = None
) -> ProbeResult:
    """Measure the output perturbation attached to a mask's removed weights.

    The unmasked and the masked pass run through ``steps``, an unmasked and
    a masked ``Step`` of ``params``, which a caller probing many masks keeps
    to reuse their buffers; without it a new pair is made.
    """
    batch = np.asarray(batch, dtype=np.float64)
    full, masked = (Step(params, None), Step(params, mask)) if steps is None else steps
    if full.params is not params or masked.params is not params:
        raise ValueError("the probe steps were not built for these parameters")
    # one unmasked pass serves the excess, the removed-weight products and the amplification
    logits, pre, acts = full.trace(batch)
    amp = _amplification(full.layers(), pre)
    diff = logits - masked.aim(mask).trace(batch, keep_pre=False)[0]
    y_exc_l1 = float(np.abs(diff).sum(axis=1).mean())

    weight_l1 = 0.0
    prod_sum = 0.0
    prod_count = 0
    for layer_idx, name in enumerate(mask.names()):
        w = params[name]
        removed = mask[name] == 0.0
        n_removed = int(removed.sum())
        if n_removed == 0:
            continue
        w_abs = np.abs(w)
        weight_l1 += float(w_abs[removed].sum())
        w_abs *= removed  # |w| at the removed positions, 0 elsewhere
        # |w_ij * a_j| for each masked (i, j) and each sample
        a = np.abs(acts[layer_idx])  # [B, fan_in]
        prod_sum += float((a @ w_abs.T).sum())
        prod_count += n_removed * batch.shape[0]

    return ProbeResult(
        y_exc_l1=y_exc_l1,
        per_layer_amplification=tuple(amp),
        weight_l1_masked_out=weight_l1,
        condition1_score=prod_sum / prod_count if prod_count else 0.0,
        condition2_score=max(amp) if amp else 0.0,
    )


def probe_along_run(run_dir: str | Path, probe_batch: np.ndarray) -> list[ProbeResult]:
    """Probe every pruned round of a checkpointed run.

    Entry k pairs round k's trained (pre-rewind) parameters with round k+1's
    mask, so the measured excess is exactly the contribution of the weights
    the next pruning step removes.  A run with R pruned rounds yields R
    results.  The pass holds one params set, one mask and one pair of steps:
    round k's mask is decoded into the mask, probed with round k-1's params,
    and then round k's params are decoded over those.  It reads only what a
    probe uses, each file once: the params of rounds 0..R-1 and the masks of
    rounds 1..R.  The mask is laid out from round 0's params.
    """
    cfg = read_config(run_dir)
    done = len(completed_rounds(run_dir, cfg.config_hash()))
    if done == 0:
        raise FileNotFoundError(f"no round checkpoints in {run_dir}")
    results: list[ProbeResult] = []
    params = load_round_file(run_dir, 0, PARAMS)
    mask = Mask.full(params)
    steps = (Step(params, None), Step(params, mask))
    for k in range(1, done):
        load_round_file(run_dir, k, MASK, mask)
        results.append(excess_output(params, mask, probe_batch, steps))
        if k < done - 1:
            load_round_file(run_dir, k, PARAMS, params)
    return results
