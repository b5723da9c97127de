"""Iterative prune/rewind/retrain sweeps with resumable checkpoints.

One run executes: train the dense network, then repeatedly prune the
smallest surviving weights, rewind the survivors to their initial values,
and retrain, until the mask reaches the target sparsity.  Every round is
checkpointed (params, mask, metrics) so a killed run continues from its
last completed round with bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

from . import reporting
from .checkpoint import (
    CheckpointError,
    load_params,
    load_tensors,
    save_params,
    save_tensors,
    verify_tensors,
)
from .data import LabeledDataset, inject_symmetric_noise, load_idx, split, synth_blobs
from .nn import OptimizerState, ParamSet, evaluate, init_params, train
from .pruning import Mask, prune, rewind, sparsity
from .reporting import DEFAULT_PHASE_DELTA, detect_phases
from .rundir import (
    INIT,
    MASK,
    PARAMS,
    DatasetSpec,
    RoundMetrics,
    SketchConfig,
    SketchRun,
    commit_round,
    completed_rounds,
    discard_partial_round,
    is_run_dir,
    load_manifest,
    read_config,
    round_dir,
    write_config,
)
from .util import derive_seed


def load_dataset(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize (clean train, clean test) for a DatasetSpec."""
    if spec.kind == "idx":
        train_ds = load_idx(spec.train_images, spec.train_labels, limit=spec.limit, name="idx/train")
        test_ds = load_idx(spec.test_images, spec.test_labels, name="idx/test")
        return train_ds, test_ds
    full = synth_blobs(
        spec.n_per_class, spec.num_classes, spec.dim, spec.separation, spec.data_seed
    )
    return split(full, spec.train_fraction, derive_seed(spec.data_seed, "split"))


def load_round_state(run_dir: str | Path, k: int) -> tuple[ParamSet, Mask]:
    """Trained params and mask of completed round k."""
    d = round_dir(run_dir, k)
    try:
        params = load_params(d / PARAMS)
        mask = Mask(load_tensors(d / MASK))
    except CheckpointError as exc:
        raise CheckpointError(f"round {k}: {exc}") from exc
    return params, mask


def _save_round(
    run_dir: Path,
    k: int,
    params: ParamSet,
    mask: Mask,
    metrics: RoundMetrics,
    epoch_history: list,
    config_hash: str,
) -> None:
    d = round_dir(run_dir, k)
    d.mkdir(parents=True, exist_ok=True)
    save_params(d / PARAMS, params)
    save_tensors(d / MASK, {n: mask[n] for n in mask.names()})
    commit_round(run_dir, k, metrics, epoch_history, config_hash)


def run_sketch(cfg: SketchConfig, run_dir: str | Path, on_round=None) -> SketchRun:
    """Execute one full run into ``run_dir``, resuming any prior progress.

    The directory is created if needed.  If it already holds a config, its
    hash must match ``cfg`` exactly; completed rounds are then reused without
    recomputation and execution continues from the first missing round.
    ``on_round`` (if given) is called with each newly computed RoundMetrics.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = cfg.config_hash()
    if is_run_dir(run_dir):
        existing = read_config(run_dir)
        if existing.config_hash() != cfg_hash:
            raise ValueError(
                f"refusing to reuse {run_dir}: it holds run "
                f"{existing.run_id!r} with a different config"
            )
    else:
        write_config(run_dir, cfg)
    reporting.write_manifest(run_dir, cfg.run_id, cfg_hash)

    rounds = completed_rounds(run_dir, cfg_hash)
    done_before = len(rounds)
    finished = load_manifest(run_dir).finished_at is not None
    if finished and rounds and rounds[-1].sparsity >= cfg.t_end:
        # nothing to train or write: check the last round's files, load nothing
        last = round_dir(run_dir, len(rounds) - 1)
        try:
            verify_tensors(last / PARAMS)
            verify_tensors(last / MASK)
        except CheckpointError as exc:
            raise CheckpointError(f"round {len(rounds) - 1}: {exc}") from exc
        return _as_run(cfg, rounds)

    train_clean, test_set = load_dataset(cfg.dataset)
    if cfg.arch.input_dim != train_clean.dim:
        raise ValueError(
            f"architecture expects input dim {cfg.arch.input_dim}, "
            f"dataset provides {train_clean.dim}"
        )
    if cfg.epsilon > 0:
        train_noisy, _ = inject_symmetric_noise(train_clean, cfg.epsilon, cfg.noise_seed)
    else:
        train_noisy = train_clean
    # test purity: label noise only ever touches the training split
    assert test_set.noise is None

    init_path = run_dir / INIT
    if init_path.exists():
        init = load_params(init_path)
        if init.shapes() != cfg.arch.param_shapes():
            raise CheckpointError(
                f"{init_path} holds tensors {init.shapes()}, not the initialization "
                f"of architecture {list(cfg.arch.layer_sizes)}"
            )
    else:
        init = init_params(cfg.arch, cfg.train.seed)
        save_params(init_path, init)

    discard_partial_round(run_dir, done_before)
    if rounds:
        params, mask = load_round_state(run_dir, len(rounds) - 1)
    else:
        params = init.copy()
        mask = Mask.full(params)

    state = OptimizerState(params)

    def run_round(k: int) -> None:
        nonlocal mask
        started = time.perf_counter()
        if k > 0:
            new_mask = prune(params, mask, cfg.t_iter, cfg.scope)
            if new_mask.surviving() == mask.surviving():
                raise RuntimeError(
                    f"pruning stalled at round {k}: t_iter={cfg.t_iter} removes "
                    f"no weights from {mask.surviving()} survivors"
                )
            mask = new_mask
            rewind(params, init, mask, state)
        history = train(params, mask, state, train_noisy, cfg.train)
        train_loss, train_acc = evaluate(params, mask, train_noisy)
        test_loss, test_acc = evaluate(params, mask, test_set)
        metrics = RoundMetrics(
            round=k,
            sparsity=sparsity(mask),
            final_train_loss=train_loss,
            final_train_acc=train_acc,
            test_loss=test_loss,
            test_acc=test_acc,
            wall_seconds=time.perf_counter() - started,
        )
        _save_round(run_dir, k, params, mask, metrics, history, cfg_hash)
        rounds.append(metrics)
        if on_round is not None:
            on_round(metrics)

    if not rounds:
        run_round(0)
    while sparsity(mask) < cfg.t_end:
        run_round(len(rounds))

    run = _as_run(cfg, rounds)
    # a finished run is left untouched; one killed before its stamp is finalized now
    if len(rounds) > done_before or not finished:
        reporting.finalize_run_dir(run, run_dir)
        reporting.finalize_manifest(run_dir)
    return run


def _as_run(cfg: SketchConfig, rounds: list[RoundMetrics]) -> SketchRun:
    """The SketchRun of ``rounds``, phases detected at the default delta."""
    run = SketchRun(config=cfg, rounds=rounds)
    if len(rounds) >= 4:
        run.phase_annotation = detect_phases(run, DEFAULT_PHASE_DELTA)
    return run


def resume(run_dir: str | Path) -> SketchRun:
    """Continue a run from its last completed round; a finished run is not written to."""
    run_dir = Path(run_dir)
    cfg = read_config(run_dir)
    return run_sketch(cfg, run_dir)


def _grid_tag(value: float) -> str:
    return f"{value:g}"


def sweep(
    base_cfg: SketchConfig,
    lambdas: list[float],
    epsilons: list[float],
    seeds: list[int],
    out_root: str | Path,
) -> list[SketchRun]:
    """Run the Cartesian product of L2 coefficients, noise levels, and seeds.

    Each combination gets run id ``<base>-lam<l>-eps<e>-s<seed>`` and its own
    directory under ``out_root``.  Already-finished combinations are reused
    via the resume path, so a killed sweep can simply be rerun.
    """
    if not lambdas or not epsilons or not seeds:
        raise ValueError("sweep grids must be non-empty")
    out_root = Path(out_root)
    combos = [
        (lam, eps, seed) for lam in lambdas for eps in epsilons for seed in seeds
    ]
    run_ids = [
        f"{base_cfg.run_id}-lam{_grid_tag(lam)}-eps{_grid_tag(eps)}-s{seed}"
        for lam, eps, seed in combos
    ]
    dupes = {r for r in run_ids if run_ids.count(r) > 1}
    if dupes:
        raise ValueError(f"duplicate run ids in sweep grid: {sorted(dupes)}")

    runs = []
    for run_id, (lam, eps, seed) in zip(run_ids, combos):
        cfg = replace(
            base_cfg,
            run_id=run_id,
            train=replace(base_cfg.train, weight_decay=lam, seed=seed),
            epsilon=eps,
        )
        runs.append(run_sketch(cfg, out_root / run_id))
    return runs
