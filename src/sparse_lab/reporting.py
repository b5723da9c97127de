"""Metrics CSV, curve files, phase detection, and the per-run manifest.

All emitted text is deterministic: LF newlines, comma separators, and
minimal round-trip-exact decimal rendering, so re-emitting from the same
checkpoints reproduces files byte for byte.  Wall-clock telemetry is kept
out of metrics.csv (stored per round in the checkpoints and summarized in
the manifest) so that identical configurations yield identical CSVs.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .rundir import (
    METRICS_CSV,
    PHASE,
    PhaseReport,
    ProbeResult,
    RunManifest,
    SketchRun,
    completed_rounds,
    load_manifest,
    load_probes,
    read_config,
    save_manifest,
    write_atomic,
    write_json,
)
from .util import BLAS_THREAD_VARS, TOOL_VERSION, ConfigError, fmt_num, fmt_sig17

DEFAULT_PHASE_DELTA = 1.0  # accuracy percentage points
MIN_PHASE_ROUNDS = 4  # the fewest rounds detect_phases reads
METRICS_HEADER = (
    "run_id,round,sparsity,epsilon,lambda,seed,"
    "train_loss,train_acc,test_loss,test_acc,y_exc_l1,wall_seconds"
)
CURVE_METRICS = ("train_loss", "train_acc", "test_loss", "test_acc", "y_exc_l1")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _host_info() -> str:
    return f"{platform.node()} {platform.platform()} python-{sys.version.split()[0]}"


def write_manifest(run_dir: str | Path, run_id: str, config_hash: str) -> None:
    """Create the manifest at run start; an existing one is left in place.

    ``blas`` is the BLAS numpy was built against, as numpy's build
    configuration names it, and ``threads`` the thread variables as the
    package import left them.
    """
    if load_manifest(run_dir) is not None:
        return
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    save_manifest(run_dir, RunManifest(
        run_id=run_id,
        config_hash=config_hash,
        tool_version=TOOL_VERSION,
        started_at=_now(),
        finished_at=None,
        host=_host_info(),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}" if blas else None,
        threads={name: os.environ.get(name) for name in ("SPARSE_LAB_THREADS", *BLAS_THREAD_VARS)},
    ))


def finalize_manifest(run_dir: str | Path) -> None:
    save_manifest(run_dir, replace(load_manifest(run_dir), finished_at=_now()))


def _metrics_rows(run: SketchRun, probes: list[ProbeResult] | None) -> list[dict]:
    """One metrics.csv row dict per round; None marks an empty field."""
    cfg = run.config
    return [
        {
            "run_id": cfg.run_id,
            "round": m.round,
            "sparsity": m.sparsity,
            "epsilon": cfg.epsilon,
            "lambda": cfg.train.weight_decay,
            "seed": cfg.train.seed,
            "train_loss": m.final_train_loss,
            "train_acc": m.final_train_acc,
            "test_loss": m.test_loss,
            "test_acc": m.test_acc,
            "y_exc_l1": probes[m.round].y_exc_l1 if probes is not None and m.round < len(probes) else None,
            "wall_seconds": None,
        }
        for m in run.rounds
    ]


def emit_metrics_csv(
    run: SketchRun,
    probes: list[ProbeResult] | None,
    path: str | Path,
) -> None:
    """Write one CSV row per round under the fixed 12-column header.

    Probe values align with rounds 0..R-1 (the excess removed from each
    trained round by the next mask); rounds without a probe get an empty
    field.  The wall_seconds column is always empty: wall time is telemetry,
    recorded in the round checkpoints, and including it would break the
    byte-identity of reruns.
    """
    if not run.rounds:
        raise ValueError("run has no rounds to emit")
    reemit_metrics_csv(_metrics_rows(run, probes), path)


def reemit_metrics_csv(rows: list[dict], path: str | Path) -> None:
    """Serialize row dicts under the header: the one writer of metrics.csv."""
    lines = [METRICS_HEADER]
    for row in rows:
        cells = []
        for key in METRICS_HEADER.split(","):
            value = row[key]
            if value is None:
                cells.append("")
            elif key in ("run_id", "round", "seed"):
                cells.append(str(value))
            else:
                cells.append(fmt_num(value))
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


def check_curves(runs: list[SketchRun], metrics: list[str]) -> None:
    """Raise ConfigError for a curve request that ``emit_curves`` would refuse."""
    for metric in metrics:
        if metric not in CURVE_METRICS:
            raise ConfigError(
                f"unknown metric {metric!r}; valid metrics: {', '.join(CURVE_METRICS)}"
            )
    if len({run.config.dataset for run in runs}) > 1:
        raise ConfigError("curve overlays require all runs to share one dataset")
    ids = [run.config.run_id for run in runs]
    shared = sorted({i for i in ids if ids.count(i) > 1})
    if shared:
        raise ConfigError(f"runs share the run id {shared[0]!r}, which names their curve files")


def emit_curves(
    runs: list[SketchRun],
    metric: str,
    out_dir: str | Path,
    probes_by_run: dict[str, list[ProbeResult] | None] | None = None,
) -> list[Path]:
    """Write one ``<run_id>.<metric>.curve.csv`` per run, plus pairs.txt.

    Curve rows are (sparsity, value) sorted by sparsity ascending, rendered
    with 17 significant digits.  pairs.txt lists vanilla/L2 run id pairs
    matched on (epsilon, seed) for overlay plotting.
    """
    check_curves(runs, [metric])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for run in runs:
        probes = (probes_by_run or {}).get(run.config.run_id)
        rows = sorted(
            ((row["sparsity"], row[metric]) for row in _metrics_rows(run, probes)),
            key=lambda r: r[0],
        )
        path = out_dir / f"{run.config.run_id}.{metric}.curve.csv"
        lines = [f"sparsity,{metric}"]
        lines.extend(f"{fmt_sig17(s)},{fmt_sig17(v)}" for s, v in rows if v is not None)
        write_atomic(path, "\n".join(lines) + "\n")
        written.append(path)

    vanilla = [run.config for run in runs if run.config.train.weight_decay == 0.0]
    l2 = [run.config for run in runs if run.config.train.weight_decay != 0.0]
    pairs = sorted((a.run_id, b.run_id) for a in vanilla for b in l2
                   if (a.epsilon, a.train.seed) == (b.epsilon, b.train.seed))
    pairs_path = out_dir / "pairs.txt"
    write_atomic(pairs_path, "".join(f"{a},{b}\n" for a, b in pairs))
    written.append(pairs_path)
    return written


def write_phase_report(run_dir: str | Path, report: PhaseReport) -> None:
    write_json(Path(run_dir) / PHASE, asdict(report))


def finalize_run_dir(run: SketchRun, run_dir: str | Path) -> list[ProbeResult] | None:
    """The one writer of metrics.csv (the rounds plus the stored probes, which
    it returns) and, when ``run.phase_annotation`` is set, of phase.json."""
    run_dir = Path(run_dir)
    probes = load_probes(run_dir)
    emit_metrics_csv(run, probes, run_dir / METRICS_CSV)
    if run.phase_annotation is not None:
        write_phase_report(run_dir, run.phase_annotation)
    return probes


def load_run(run_dir: str | Path) -> SketchRun:
    """Reconstruct a SketchRun from its completed rounds, without training.

    A pure reader: a round still being written is left alone, and
    ``phase_annotation`` stays None (see ``detect_phases``).
    """
    cfg = read_config(run_dir)
    return SketchRun(config=cfg, rounds=completed_rounds(run_dir, cfg.config_hash()))


def detect_phases(run: SketchRun, delta: float = DEFAULT_PHASE_DELTA) -> PhaseReport:
    """Locate a test-accuracy dip/recovery pair and the terminal collapse.

    ``delta`` is in accuracy percentage points (stored accuracies are
    fractions).  A dip exists at round j when some earlier round beats it by
    at least delta and some later round beats the dip by at least delta; the
    deepest qualifying j is reported, with its best predecessor and best
    successor.  The collapse is the last drop of at least delta below the
    running maximum that never wins delta back.
    """
    rounds = run.rounds
    if len(rounds) < MIN_PHASE_ROUNDS:
        raise ValueError(f"phase detection needs >= {MIN_PHASE_ROUNDS} rounds, run has {len(rounds)}")
    acc = [100.0 * m.test_acc for m in rounds]
    n = len(acc)

    dip_j: int | None = None
    for j in range(1, n - 1):
        best_before = max(acc[:j])
        best_after = max(acc[j + 1 :])
        if acc[j] <= best_before - delta and best_after >= acc[j] + delta:
            if dip_j is None or acc[j] < acc[dip_j]:
                dip_j = j

    collapse: int | None = None
    for t in range(1, n):
        running_max = max(acc[:t])
        if acc[t] > running_max - delta:
            continue
        recovered = any(acc[u] >= acc[t] + delta for u in range(t + 1, n))
        if not recovered:
            collapse = t
    k = None if dip_j is None else dip_j + 1 + int(np.argmax(acc[dip_j + 1 :]))

    def at(r: int | None) -> float | None:
        return None if r is None else rounds[r].sparsity

    return PhaseReport(
        detected=dip_j is not None, delta=delta,
        dip_round=dip_j, recovery_round=k, collapse_round=collapse,
        dip_sparsity=at(dip_j), recovery_sparsity=at(k), collapse_sparsity=at(collapse),
    )
