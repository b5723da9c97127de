"""The on-disk layout of a run directory and the records stored in it.

This module is the one place that knows the file names, the round
directory scheme and how a file gets written::

    config.json      the SketchConfig and its hash (checked on resume)
    manifest.json    RunManifest: provenance and start/finish times
    init.bin         the frozen initialization used for rewinding
    round_NNN/       params.bin, mask.bin, then metrics.json
    metrics.csv      one row per round
    probes.json      one ProbeResult per pruned round
    phase.json       the PhaseReport of the accuracy curve

Every file is written through ``write_atomic``, so a reader or a killed
writer sees the old contents or the new, never a part.  A round is complete
once its ``metrics.json`` exists: it is written last.  Readers list the
completed rounds and stop at the first one without it; only the writer
(``run_sketch``) reclaims such a half-written round.  Each stored record is
read back by one decoder that checks every value against the record's
annotations as it builds it, so a damaged record is a CheckpointError
naming the file and the field, while a record's own check raises ConfigError.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import EnumMeta
from pathlib import Path

from .data import train_count
from .nn import EpochMetrics, MlpArchitecture, TrainConfig
from .pruning import PruneScope
from .util import MAX_SEED, ConfigError

CONFIG = "config.json"
MANIFEST = "manifest.json"
INIT = "init.bin"
METRICS_CSV = "metrics.csv"
PROBES = "probes.json"
PHASE = "phase.json"
PARAMS = "params.bin"
MASK = "mask.bin"
ROUND_METRICS = "metrics.json"  # the commit marker of a round
RUN_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9._-]*"  # names a sweep cell's directory, unquoted in CSV


class CheckpointError(ValueError):
    """Raised when a checkpoint file is missing, truncated, or malformed."""


@dataclass(frozen=True)
class DatasetSpec:
    """Where the run's data comes from: an IDX file pair or synthetic blobs.

    Each kind reads and checks only its own fields.  ``idx`` reads the four
    file paths (non-empty) and ``limit`` (None for the whole training set,
    else >= 1); ``blobs`` reads ``n_per_class``, ``num_classes`` and ``dim``
    (each >= 1), ``separation`` (finite), ``train_fraction`` (in (0, 1),
    leaving both sides of the split non-empty) and ``data_seed`` (unsigned
    64-bit).
    """

    kind: str  # "idx" | "blobs"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    limit: int | None = None
    n_per_class: int = 100
    num_classes: int = 10
    dim: int = 32
    separation: float = 3.0
    train_fraction: float = 0.8
    data_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind == "idx":
            paths = (self.train_images, self.train_labels, self.test_images, self.test_labels)
            if not all(paths):
                raise ConfigError("dataset kind idx needs all four IDX file paths")
            if self.limit is not None and self.limit < 1:
                raise ConfigError(f"limit must be None or >= 1, got {self.limit}")
        elif self.kind == "blobs":
            if min(self.n_per_class, self.num_classes, self.dim) < 1:
                raise ConfigError("n_per_class, num_classes and dim must be >= 1")
            if not math.isfinite(self.separation):
                raise ConfigError(f"separation must be finite, got {self.separation}")
            if not 0.0 < self.train_fraction < 1.0:
                raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
            n = self.n_per_class * self.num_classes
            if train_count(n, self.train_fraction) is None:
                raise ConfigError(f"split of {n} samples at train_fraction {self.train_fraction} "
                                  "leaves an empty side")
            if not 0 <= self.data_seed <= MAX_SEED:
                raise ConfigError(f"data_seed must fit in unsigned 64 bits, got {self.data_seed}")
        else:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class SketchConfig:
    """Full recipe for one prune/rewind/retrain run."""

    run_id: str
    arch: MlpArchitecture
    train: TrainConfig
    dataset: DatasetSpec
    t_iter: float = 0.2
    t_end: float = 0.999
    scope: PruneScope = PruneScope.LAYERWISE
    epsilon: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not re.fullmatch(RUN_ID_PATTERN, self.run_id):
            raise ConfigError(f"run_id must match {RUN_ID_PATTERN}, got {self.run_id!r}")
        if not 0.0 < self.t_iter < 1.0:
            raise ConfigError("t_iter must be in (0, 1)")
        if not 0.0 < self.t_end < 1.0:
            raise ConfigError("t_end must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0, 1]")
        if not 0 <= self.noise_seed <= MAX_SEED:
            raise ConfigError(f"noise_seed must fit in unsigned 64 bits, got {self.noise_seed}")

    def config_hash(self) -> str:
        canonical = json.dumps(_config_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _config_dict(cfg: SketchConfig) -> dict:
    # the hash of every existing run directory depends on this exact shape
    return asdict(cfg) | {"arch": list(cfg.arch.layer_sizes), "scope": cfg.scope.value}


@dataclass(frozen=True)
class RoundMetrics:
    """Metrics of one round (round 0 is the dense baseline at sparsity 0)."""

    round: int
    sparsity: float
    final_train_loss: float
    final_train_acc: float
    test_loss: float
    test_acc: float
    wall_seconds: float


@dataclass(frozen=True)
class PhaseReport:
    """Operational double-descent readout for one accuracy-vs-sparsity curve."""

    detected: bool
    delta: float
    dip_round: int | None = None
    recovery_round: int | None = None
    collapse_round: int | None = None
    dip_sparsity: float | None = None
    recovery_sparsity: float | None = None
    collapse_sparsity: float | None = None


@dataclass
class SketchRun:
    """One completed (or in-progress) run: config plus ordered round metrics."""

    config: SketchConfig
    rounds: list[RoundMetrics] = field(default_factory=list)
    phase_annotation: PhaseReport | None = None


@dataclass(frozen=True)
class ProbeResult:
    """Excess-output measurements for one (params, mask) pair.

    y_exc_l1: mean over the probe batch of the L1 gap between full and
        masked logits.
    per_layer_amplification: worst-case L1 gain from each hidden layer's
        activation to the output, averaged over the batch (<= 1 means the
        downstream path cannot amplify a perturbation there).
    weight_l1_masked_out: total |w| mass sitting on masked-out positions.
    condition1_score: mean |w * x| over (masked weight, sample) pairs.
    condition2_score: max of per_layer_amplification (0 with no hidden layers).
    """

    y_exc_l1: float
    per_layer_amplification: tuple[float, ...]
    weight_l1_masked_out: float
    condition1_score: float
    condition2_score: float


@dataclass(frozen=True)
class RunManifest:
    """Provenance card written next to every run's checkpoints.

    ``threads`` maps ``SPARSE_LAB_THREADS`` and the BLAS thread variables to
    their values (None: unset).  Older manifests lack the last three fields.
    """

    run_id: str
    config_hash: str
    tool_version: str
    started_at: str
    finished_at: str | None
    host: str
    numpy: str | None = None
    blas: str | None = None
    threads: dict[str, str | None] | None = None


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is UTF-8) through a temp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload, sort_keys: bool = True) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable {path.stem} in {path} ({exc})") from exc


def _decode(value, hint, path: Path, where: str = "", optional=(), strict=True):
    """JSON ``value`` checked against the type ``hint`` and built as one: a
    dataclass (or a plain object, given as a dict of key types) from an object
    with each field but ``optional`` and, if ``strict``, no other key; a tuple
    or MlpArchitecture from a list; a dict from an object; an enum from one of
    its values; a float from any number.  Else CheckpointError naming the field."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is MlpArchitecture:  # stored as its list of layer sizes
        return MlpArchitecture(_decode(value, tuple[int, ...], path, where))
    if is_dataclass(hint) or isinstance(hint, dict):
        if not isinstance(value, dict):
            raise CheckpointError(f"{path}: {where or 'the record'} is not a JSON object")
        hints = hint if isinstance(hint, dict) else typing.get_type_hints(hint)
        prefix = f"{where}." if where else ""
        missing = [n for n in hints if n not in value and n not in optional]
        unexpected = [k for k in value if strict and k not in hints]
        for what, keys in (("missing", missing), ("unexpected", unexpected)):
            if keys:
                raise CheckpointError(f"{path}: {what} field '{prefix}{keys[0]}'")
        record = {n: _decode(value[n], h, path, prefix + n) for n, h in hints.items() if n in value}
        return hint(**record) if is_dataclass(hint) else record
    if origin is types.UnionType:
        for arm in args:
            with contextlib.suppress(CheckpointError):
                return _decode(value, arm, path, where)
    elif origin is tuple and isinstance(value, list):
        return tuple(_decode(v, args[0], path, where) for v in value)
    elif origin is dict and isinstance(value, dict):
        return {k: _decode(v, args[1], path, where) for k, v in value.items()}
    elif isinstance(hint, EnumMeta) and value in [m.value for m in hint]:
        return hint(value)
    elif origin is None and isinstance(value, {float: (int, float)}.get(hint, hint)):
        if not isinstance(value, bool):  # JSON true/false is no number
            return value
    raise CheckpointError(f"{path}: mistyped field '{where}'")


def is_run_dir(path: str | Path) -> bool:
    return (Path(path) / CONFIG).exists()


def round_dir(run_dir: str | Path, k: int) -> Path:
    return Path(run_dir) / f"round_{k:03d}"


def write_config(run_dir: str | Path, cfg: SketchConfig) -> None:
    write_json(Path(run_dir) / CONFIG, {"config": _config_dict(cfg), "config_hash": cfg.config_hash()})


def read_config(run_dir: str | Path) -> SketchConfig:
    path = Path(run_dir) / CONFIG
    if not path.exists():
        raise FileNotFoundError(f"no {CONFIG} in {run_dir}")
    stored = _decode(_read_json(path), {"config": SketchConfig, "config_hash": str}, path)
    if stored["config"].config_hash() != stored["config_hash"]:
        raise ValueError(f"config hash mismatch in {path}: file was modified")
    return stored["config"]


def commit_round(
    run_dir: str | Path,
    k: int,
    metrics: RoundMetrics,
    epoch_history: list[EpochMetrics],
    config_hash: str,
) -> None:
    """Write round k's metrics.json, which marks its tensors as complete."""
    write_json(round_dir(run_dir, k) / ROUND_METRICS, asdict(metrics) | {
        "config_hash": config_hash,
        "epoch_train_loss": [h.train_loss for h in epoch_history],
        "epoch_train_acc": [h.train_acc for h in epoch_history],
    })


def completed_rounds(run_dir: str | Path, expected_hash: str) -> list[RoundMetrics]:
    """Metrics of the completed rounds in order; reads only, deletes nothing."""
    done: list[RoundMetrics] = []
    while (path := round_dir(run_dir, len(done)) / ROUND_METRICS).exists():
        try:  # the record's extra keys are the config hash and the epoch history
            payload = _read_json(path)
            metrics = _decode(payload, RoundMetrics, path, strict=False)
        except CheckpointError as exc:
            raise CheckpointError(f"round {len(done)}: {exc}") from exc
        if payload.get("config_hash") != expected_hash:
            raise ValueError(f"round {len(done)}: checkpoint belongs to a different config")
        done.append(metrics)
    return done


def discard_partial_round(run_dir: str | Path, k: int) -> None:
    """Writer only: drop round k's directory, which a killed run left without metrics.json."""
    d = round_dir(run_dir, k)
    if d.is_dir():
        shutil.rmtree(d)


def save_manifest(run_dir: str | Path, manifest: RunManifest) -> None:
    write_json(Path(run_dir) / MANIFEST, asdict(manifest), sort_keys=False)


def load_manifest(run_dir: str | Path) -> RunManifest | None:
    path = Path(run_dir) / MANIFEST
    if not path.exists():
        return None
    return _decode(_read_json(path), RunManifest, path, optional=("numpy", "blas", "threads"))


def save_probes(run_dir: str | Path, probes: list[ProbeResult]) -> None:
    write_json(Path(run_dir) / PROBES, [asdict(p) for p in probes], sort_keys=False)


def load_probes(run_dir: str | Path) -> list[ProbeResult] | None:
    path = Path(run_dir) / PROBES
    if not path.exists():
        return None
    payload = _read_json(path)
    if not isinstance(payload, list):
        raise CheckpointError(f"{path}: the record is not a JSON list")
    return [_decode(d, ProbeResult, path, f"[{i}]") for i, d in enumerate(payload)]
