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

import numpy as np

from . import reporting
from .checkpoint import CheckpointError, load_params, save_params, save_tensors, verify_tensors
from .checkpoint import load_tensors  # noqa: F401 - for bench/tracer.py
from .data import (LabeledDataset, inject_symmetric_noise, load_idx, split, split_indices,
                   synth_blobs, take)
from .nn import OptimizerState, ParamSet, evaluate, init_params, train
from .pruning import Mask, prune, rewind, sparsity
from .reporting import detect_phases
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
from .util import ConfigError, derive_seed


def load_dataset(spec: DatasetSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize (clean train, clean test) for a DatasetSpec."""
    if spec.kind == "idx":
        return (load_idx(spec.train_images, spec.train_labels, limit=spec.limit),
                load_idx(spec.test_images, spec.test_labels))
    return split(_blobs(spec), spec.train_fraction, derive_seed(spec.data_seed, "split"))


def load_test_set(spec: DatasetSpec) -> LabeledDataset:
    """The clean test split of ``load_dataset``, without building the training
    split: only the two test files of an idx spec are read."""
    if spec.kind == "idx":
        return load_idx(spec.test_images, spec.test_labels)
    full = _blobs(spec)
    _, test = split_indices(full.size, spec.train_fraction, derive_seed(spec.data_seed, "split"))
    return take(full, test)


def _blobs(spec: DatasetSpec) -> LabeledDataset:
    return synth_blobs(spec.n_per_class, spec.num_classes, spec.dim, spec.separation, spec.data_seed)


def load_round_file(run_dir: str | Path, k: int, name: str, out: ParamSet | None = None) -> ParamSet:
    """Completed round k's ``PARAMS`` or ``MASK`` file, decoded once, into
    ``out`` if given (see ``load_params``); a CheckpointError names the round."""
    try:
        return load_params(round_dir(run_dir, k) / name, out)
    except CheckpointError as exc:
        raise CheckpointError(f"round {k}: {exc}") from exc


def _save_round(run_dir: Path, params: ParamSet, mask: Mask, metrics: RoundMetrics) -> None:
    d = round_dir(run_dir, metrics.round)
    d.mkdir(parents=True, exist_ok=True)
    save_params(d / PARAMS, params)
    save_tensors(d / MASK, mask)
    commit_round(run_dir, metrics)


def run_sketch(cfg: SketchConfig, run_dir: str | Path, on_round=None) -> SketchRun:
    """Execute one full run into ``run_dir``, resuming any prior progress.

    Nothing is written until the dataset loads and fits ``cfg.arch``.  If
    the directory already holds a config, its hash must match ``cfg``
    exactly; completed rounds are then reused without recomputation and
    execution continues from the first missing round.
    ``on_round`` (if given) is called with each newly computed RoundMetrics.
    """
    run_dir = Path(run_dir)
    cfg_hash = cfg.config_hash()
    _refuse_foreign(run_dir, cfg)

    rounds = completed_rounds(run_dir, cfg_hash)
    done_before = len(rounds)
    manifest = load_manifest(run_dir)
    finished = manifest is not None and manifest.finished_at is not None
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
    if cfg.arch.num_classes < train_clean.num_classes:
        raise ValueError(
            f"architecture has {cfg.arch.num_classes} outputs, "
            f"dataset has {train_clean.num_classes} classes"
        )
    run_dir.mkdir(parents=True, exist_ok=True)
    if not is_run_dir(run_dir):
        write_config(run_dir, cfg)
    reporting.write_manifest(run_dir, cfg.run_id, cfg_hash)
    if cfg.epsilon > 0:
        train_noisy, _ = inject_symmetric_noise(train_clean, cfg.epsilon, cfg.noise_seed)
    else:
        train_noisy = train_clean
    # test purity: label noise only ever touches the training split
    assert test_set.noise is None

    # the run holds no copy of the initialization: round 0 trains the drawn
    # set itself, and every rewind decodes init.bin into params
    init_path = run_dir / INIT
    if init_path.exists():
        layout = verify_tensors(init_path)  # from the headers alone
        if layout != cfg.arch.param_shapes():
            raise CheckpointError(
                f"{init_path} holds tensors {layout}, not the initialization "
                f"of architecture {list(cfg.arch.layer_sizes)}"
            )
        # past round 0 the last round's params are decoded into the set below
        if rounds:
            params = ParamSet.on_buffer(np.empty(cfg.arch.param_count()), layout)
        else:
            params = load_params(init_path)
    else:
        params = init_params(cfg.arch, cfg.train.seed)
        save_params(init_path, params)

    discard_partial_round(run_dir, done_before)
    mask = Mask.full(params)
    if rounds:
        load_round_file(run_dir, len(rounds) - 1, PARAMS, params)
        load_round_file(run_dir, len(rounds) - 1, MASK, mask)

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
            state.step_for(params, mask)  # so the run's step frees the replaced mask now
            load_params(init_path, out=params)  # the rewind target is the stored file
            rewind(params, params, mask, state)
        history = train(params, mask, state, train_noisy, cfg.train)
        train_loss, train_acc = evaluate(params, mask, train_noisy, state=state)
        test_loss, test_acc = evaluate(params, mask, test_set, state=state)
        metrics = RoundMetrics(
            round=k,
            sparsity=sparsity(mask),
            final_train_loss=train_loss,
            final_train_acc=train_acc,
            test_loss=test_loss,
            test_acc=test_acc,
            wall_seconds=time.perf_counter() - started,
            config_hash=cfg_hash,
            epoch_train_loss=tuple(h.train_loss for h in history),
            epoch_train_acc=tuple(h.train_acc for h in history),
        )
        _save_round(run_dir, params, mask, metrics)
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


def _refuse_foreign(run_dir: Path, cfg: SketchConfig) -> None:
    """Raise ValueError if ``run_dir`` holds a run of another config."""
    if is_run_dir(run_dir):
        existing = read_config(run_dir)
        if existing.config_hash() != cfg.config_hash():
            raise ValueError(
                f"refusing to reuse {run_dir}: it holds run "
                f"{existing.run_id!r} with a different config"
            )


def _as_run(cfg: SketchConfig, rounds: list[RoundMetrics]) -> SketchRun:
    """The SketchRun of ``rounds``, phases detected at the default delta."""
    run = SketchRun(config=cfg, rounds=rounds)
    if len(rounds) >= reporting.MIN_PHASE_ROUNDS:
        run.phase_annotation = detect_phases(run)
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
    directory under ``out_root``.  All cells are checked before the first runs:
    a bad grid raises ConfigError with nothing written, and a cell directory
    that holds another config raises ValueError before any cell trains.
    Finished cells are reused via the resume path, so a killed sweep can
    simply be rerun.
    """
    if not lambdas or not epsilons or not seeds:
        raise ConfigError("sweep grids must be non-empty: give at least one lambda, epsilon and seed")
    cells = [
        replace(
            base_cfg,
            run_id=f"{base_cfg.run_id}-lam{_grid_tag(lam)}-eps{_grid_tag(eps)}-s{seed}",
            train=replace(base_cfg.train, weight_decay=lam, seed=seed),
            epsilon=eps,
        )
        for lam in lambdas for eps in epsilons for seed in seeds
    ]
    run_ids = [cfg.run_id for cfg in cells]
    dupes = {r for r in run_ids if run_ids.count(r) > 1}
    if dupes:
        raise ConfigError(f"duplicate run ids in sweep grid: {sorted(dupes)}")
    for cfg in cells:
        _refuse_foreign(Path(out_root) / cfg.run_id, cfg)
    return [run_sketch(cfg, Path(out_root) / cfg.run_id) for cfg in cells]
