"""Command-line front door: sketch, sweep, probe, report, selftest.

A ``sketch`` or ``sweep`` flag sets one field of ``SketchConfig``,
``TrainConfig`` or ``DatasetSpec``; those records own every default and
every valid range, and the CLI owns only the four ``CLI_DEFAULTS``.  Options
may come from a flat key=value config file (keys match the long flag names);
explicit command-line flags override file values; no flag is abbreviated.
Exit codes (set by ``cli_main`` alone): 0 success, 1 ``ConfigError``, 2 other.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import probes, reporting, selftest, sketch
from .nn import MlpArchitecture, TrainConfig
from .pruning import PruneScope
from .rundir import DatasetSpec, SketchConfig, is_run_dir
from .util import ConfigError, derive_seed


def _int_list(s: str) -> list[int]:
    return [int(p) for p in s.split(",") if p.strip() != ""]


def _float_list(s: str) -> list[float]:
    return [float(p) for p in s.split(",") if p.strip() != ""]


def _limit(s: str) -> int | None:
    return int(s) or None  # 0 = the whole training set


# per-subcommand option tables: flag -> (converter, field it sets, help).  The
# field is "train.<name>" (TrainConfig), "dataset.<name>" (DatasetSpec) or a
# SketchConfig field; None marks an option the CLI reads itself.
SKETCH_OPTIONS: dict[str, tuple] = {
    "dataset": (str, None, "dataset kind: mnist | idx | blobs"),
    "data-dir": (str, None, "directory with the standard MNIST IDX files"),
    "train-images": (str, "dataset.train_images", "IDX image file for training (dataset=idx)"),
    "train-labels": (str, "dataset.train_labels", "IDX label file for training (dataset=idx)"),
    "test-images": (str, "dataset.test_images", "IDX image file for testing (dataset=idx)"),
    "test-labels": (str, "dataset.test_labels", "IDX label file for testing (dataset=idx)"),
    "limit": (_limit, "dataset.limit", "truncate the training set to this many samples (0 = all)"),
    "n-per-class": (int, "dataset.n_per_class", "blobs: samples per class"),
    "num-classes": (int, "dataset.num_classes", "blobs: number of classes"),
    "dim": (int, "dataset.dim", "blobs: feature dimension"),
    "separation": (float, "dataset.separation", "blobs: distance between neighboring class centers"),
    "train-fraction": (float, "dataset.train_fraction", "blobs: train split fraction"),
    "data-seed": (int, "dataset.data_seed", "blobs: generation/split seed"),
    "arch": (_int_list, None, "comma-separated layer sizes, e.g. 784,300,100,10"),
    "epochs": (int, "train.epochs", "training epochs per round"),
    "lr": (float, "train.lr", "learning rate"),
    "momentum": (float, "train.momentum", "SGD momentum"),
    "lambda": (float, "train.weight_decay", "L2 weight-decay coefficient"),
    "batch-size": (int, "train.batch_size", "minibatch size"),
    "milestones": (_int_list, "train.lr_milestones", "epochs at which the learning rate decays"),
    "gamma": (float, "train.lr_gamma", "learning-rate decay factor at each milestone"),
    "seed": (int, "train.seed", "training seed (init + shuffling)"),
    "epsilon": (float, "epsilon", "fraction of training labels to flip symmetrically"),
    "noise-seed": (int, "noise_seed", "label-noise seed"),
    "t-iter": (float, "t_iter", "fraction of surviving weights pruned per round"),
    "t-end": (float, "t_end", "target sparsity ending the run"),
    "scope": (PruneScope, "scope", "pruning scope: layerwise | global"),
    "run-id": (str, "run_id", "run identifier"),
    "out": (str, None, "output directory for checkpoints and metrics"),
}

# the defaults no record owns: epochs and run_id are required record fields
CLI_DEFAULTS = {"dataset": "blobs", "data-dir": "data/mnist", "epochs": 200, "run-id": "sketch"}

# the dataset options each --dataset kind reads; giving any other one is an error
DATASET_OPTIONS: dict[str, set[str]] = {
    "blobs": {"n-per-class", "num-classes", "dim", "separation", "train-fraction", "data-seed"},
    "idx": {"train-images", "train-labels", "test-images", "test-labels", "limit"},
    "mnist": {"data-dir", "limit"},
}

# the DatasetSpec file field -> its standard MNIST file name under --data-dir
MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

# sweep sets lambda, epsilon and seed in every cell from its three grids
SWEEP_OPTIONS: dict[str, tuple] = {
    k: v for k, v in SKETCH_OPTIONS.items() if k not in ("lambda", "epsilon", "seed")
} | {
    "lambdas": (_float_list, None, "comma-separated L2 coefficients"),
    "epsilons": (_float_list, None, "comma-separated label-noise fractions"),
    "seeds": (_int_list, None, "comma-separated training seeds"),
}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge_options(args: argparse.Namespace, table: dict[str, tuple]) -> dict:
    """The options a config file or an explicit flag gave; the flag wins."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    merged: dict = {}
    for key, (conv, _field, _help) in table.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr):  # flags default to argparse.SUPPRESS
            merged[key] = getattr(args, attr)
        elif key in file_values:
            try:
                merged[key] = conv(file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    return merged


def _add_table_options(parser: argparse.ArgumentParser, table: dict[str, tuple]) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    for key, (conv, _field, help_text) in table.items():
        parser.add_argument(f"--{key}", type=conv, default=argparse.SUPPRESS, help=help_text,
                            dest=key.replace("-", "_"))


def _build_sketch_config(args: argparse.Namespace, table: dict) -> tuple[dict, SketchConfig]:
    """The options a flag or the config file gave, and the config they set.

    Every field no option sets keeps its record's default.
    """
    given = _merge_options(args, table)
    if not given.get("out"):
        raise ConfigError("--out is required")
    kind = given.get("dataset", CLI_DEFAULTS["dataset"])
    if kind not in DATASET_OPTIONS:
        raise ConfigError(f"unknown dataset kind {kind!r} (expected mnist, idx, or blobs)")
    ignored = (set().union(*DATASET_OPTIONS.values()) - DATASET_OPTIONS[kind]) & set(given)
    if ignored:
        flags = ", ".join(f"--{k}" for k in sorted(ignored))
        raise ConfigError(f"dataset={kind} does not read {flags}")

    opts = CLI_DEFAULTS | given
    fields: dict[str, dict] = {"": {}, "train": {}, "dataset": {}}
    for key, (_conv, target, _help) in SKETCH_OPTIONS.items():
        if target is not None and key in opts:
            record, _, name = target.rpartition(".")
            fields[record][name] = opts[key]
    if kind == "mnist":
        fields["dataset"] |= {f: str(Path(opts["data-dir"]) / name) for f, name in MNIST_FILES.items()}
    spec = DatasetSpec(kind="blobs" if kind == "blobs" else "idx", **fields["dataset"])
    default_arch = [spec.dim, 64, 32, spec.num_classes] if kind == "blobs" else [784, 300, 100, 10]
    return opts, SketchConfig(arch=MlpArchitecture(opts.get("arch", default_arch)),
                              train=TrainConfig(**fields["train"]), dataset=spec, **fields[""])


def _cmd_sketch(args: argparse.Namespace) -> int:
    opts, cfg = _build_sketch_config(args, SKETCH_OPTIONS)
    run = sketch.run_sketch(cfg, opts["out"], on_round=_print_round)
    _print_run_summary(run, opts["out"])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    opts, base_cfg = _build_sketch_config(args, SWEEP_OPTIONS)
    grids = [opts.get(key, []) for key in ("lambdas", "epsilons", "seeds")]  # sweep refuses []
    runs = sketch.sweep(base_cfg, *grids, opts["out"])
    print(f"sweep complete: {len(runs)} runs under {opts['out']}")
    for run in runs:
        final = run.rounds[-1]
        print(f"  {run.config.run_id}: {len(run.rounds)} rounds, "
              f"final sparsity {final.sparsity:.5f}, test acc {final.test_acc:.4f}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.probe_size < 1:
        raise ConfigError(f"--probe-size must be at least 1, got {args.probe_size}")
    run_dir = Path(args.run)
    cfg = sketch.read_config(run_dir)
    _, test_set = sketch.load_dataset(cfg.dataset)
    size = min(args.probe_size, test_set.size)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.train.seed, "probe")))
    batch = test_set.features[np.sort(rng.choice(test_set.size, size=size, replace=False))]
    results = probes.probe_along_run(run_dir, batch)
    probes.save_probes(run_dir, results)
    reporting.finalize_run_dir(reporting.load_run(run_dir), run_dir)
    print(f"probed {len(results)} pruned rounds in {run_dir}")
    for k, p in enumerate(results):
        print(f"  round {k}: y_exc_l1 {p.y_exc_l1:.6g}, "
              f"masked |w| {p.weight_l1_masked_out:.6g}, "
              f"max amplification {p.condition2_score:.4g}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not 0.0 < args.delta < math.inf:
        raise ConfigError(f"--delta must be a positive finite number, got {args.delta}")
    run_dirs: list[Path] = []
    if args.sweep:
        run_dirs.extend(sorted(p for p in Path(args.sweep).iterdir() if is_run_dir(p)))
        if not run_dirs:
            raise ConfigError(f"--sweep {args.sweep} holds no run directory")
    for d in args.run or []:
        run_dirs.append(Path(d))
    if not run_dirs:
        raise ConfigError("report needs --run DIR (repeatable) or --sweep DIR")

    runs = [reporting.load_run(d) for d in run_dirs]
    metrics = [m.strip() for m in args.metrics.split(",")] if args.metrics else ["test_acc"]
    reporting.check_curves(runs, metrics)  # before anything is written

    probes_by_run = {}
    for run, d in zip(runs, run_dirs):
        if len(run.rounds) >= reporting.MIN_PHASE_ROUNDS:
            run.phase_annotation = reporting.detect_phases(run, args.delta)
        probes_by_run[run.config.run_id] = reporting.finalize_run_dir(run, d)

    out_dir = Path(args.out) if args.out else (Path(args.sweep) if args.sweep else run_dirs[0])
    for metric in metrics:
        reporting.emit_curves(runs, metric, out_dir, probes_by_run)

    for run in runs:
        note = ""
        if run.phase_annotation is not None:
            pa = run.phase_annotation
            note = (f" double descent detected (dip at sparsity {pa.dip_sparsity:.4f})"
                    if pa.detected else " no double descent at this delta")
        print(f"{run.config.run_id}: {len(run.rounds)} rounds{note}")
    print(f"curves written to {out_dir}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    ok, lines = selftest.run_selftest()
    for line in lines:
        print(line)
    if not ok:
        raise RuntimeError("selftest failed")
    return 0


def _print_round(metrics) -> None:
    print(f"round {metrics.round:3d}: sparsity {metrics.sparsity:.5f}, "
          f"train acc {metrics.final_train_acc:.4f}, test acc {metrics.test_acc:.4f}, "
          f"{metrics.wall_seconds:.1f}s")


def _print_run_summary(run, out: str) -> None:
    final = run.rounds[-1]
    print(f"run {run.config.run_id}: {len(run.rounds)} rounds, "
          f"final sparsity {final.sparsity:.5f}")
    if run.phase_annotation is not None and run.phase_annotation.detected:
        pa = run.phase_annotation
        print(f"double descent detected: dip at sparsity {pa.dip_sparsity:.4f}, "
              f"recovery at {pa.recovery_sparsity:.4f}")
    print(f"checkpoints and metrics.csv written to {out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-lab",
        description="Train/prune/rewind/retrain sweeps that trace the sparse double descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sketch = sub.add_parser("sketch", allow_abbrev=False, help="run one prune/rewind/retrain sweep")
    _add_table_options(p_sketch, SKETCH_OPTIONS)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="run a lambda x epsilon x seed grid")
    _add_table_options(p_sweep, SWEEP_OPTIONS)

    p_probe = sub.add_parser("probe", allow_abbrev=False,
                             help="measure excess output along a finished run")
    p_probe.add_argument("--run", required=True, help="run directory")
    p_probe.add_argument("--probe-size", type=int, default=probes.PROBE_BATCH_SIZE,
                         help="probe batch size (default %(default)s)")

    p_report = sub.add_parser("report", allow_abbrev=False,
                              help="regenerate metrics.csv, curves, and phase reports")
    p_report.add_argument("--run", action="append", help="run directory (repeatable)")
    p_report.add_argument("--sweep", default=None, help="directory containing run directories")
    p_report.add_argument("--out", default=None, help="where to write curve files")
    p_report.add_argument("--metrics", default=None, help="comma-separated curve metrics")
    p_report.add_argument("--delta", type=float, default=reporting.DEFAULT_PHASE_DELTA,
                          help="phase-detection threshold in accuracy percentage points")

    sub.add_parser("selftest", allow_abbrev=False, help="run the built-in gradient and prune checks")

    for cmd, fn in (("sketch", _cmd_sketch), ("sweep", _cmd_sweep), ("probe", _cmd_probe),
                    ("report", _cmd_report), ("selftest", _cmd_selftest)):
        sub.choices[cmd].set_defaults(func=fn)
    return parser


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; map its exit to our contract
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
