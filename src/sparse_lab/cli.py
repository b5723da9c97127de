"""Command-line front door: sketch, sweep, probe, report, selftest.

Options may come from a flat key=value config file (keys match the long
flag names); explicit command-line flags override file values.  Exit codes:
0 success, 1 configuration error, 2 runtime failure.
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
from .util import derive_seed


class ConfigError(ValueError):
    """Bad flag value, bad config file, or inconsistent options."""


def _int_list(s: str) -> list[int]:
    return [int(p) for p in s.split(",") if p.strip() != ""]


def _float_list(s: str) -> list[float]:
    return [float(p) for p in s.split(",") if p.strip() != ""]


# per-subcommand option tables: key -> (converter, default, help)
SKETCH_OPTIONS: dict[str, tuple] = {
    "dataset": (str, "blobs", "dataset kind: mnist | idx | blobs"),
    "data-dir": (str, "data/mnist", "directory with the standard MNIST IDX files"),
    "train-images": (str, "", "IDX image file for training (dataset=idx)"),
    "train-labels": (str, "", "IDX label file for training (dataset=idx)"),
    "test-images": (str, "", "IDX image file for testing (dataset=idx)"),
    "test-labels": (str, "", "IDX label file for testing (dataset=idx)"),
    "limit": (int, 0, "truncate the training set to this many samples (0 = all)"),
    "n-per-class": (int, 100, "blobs: samples per class"),
    "num-classes": (int, 10, "blobs: number of classes"),
    "dim": (int, 32, "blobs: feature dimension"),
    "separation": (float, 3.0, "blobs: distance between neighboring class centers"),
    "train-fraction": (float, 0.8, "blobs: train split fraction"),
    "data-seed": (int, 0, "blobs: generation/split seed"),
    "arch": (_int_list, None, "comma-separated layer sizes, e.g. 784,300,100,10"),
    "epochs": (int, 200, "training epochs per round"),
    "lr": (float, 0.1, "learning rate"),
    "momentum": (float, 0.9, "SGD momentum"),
    "lambda": (float, 0.0, "L2 weight-decay coefficient"),
    "batch-size": (int, 128, "minibatch size"),
    "milestones": (_int_list, [], "epochs at which the learning rate decays"),
    "gamma": (float, 0.1, "learning-rate decay factor at each milestone"),
    "seed": (int, 0, "training seed (init + shuffling)"),
    "epsilon": (float, 0.0, "fraction of training labels to flip symmetrically"),
    "noise-seed": (int, 0, "label-noise seed"),
    "t-iter": (float, 0.2, "fraction of surviving weights pruned per round"),
    "t-end": (float, 0.999, "target sparsity ending the run"),
    "scope": (str, "layerwise", "pruning scope: layerwise | global"),
    "run-id": (str, "sketch", "run identifier"),
    "out": (str, None, "output directory for checkpoints and metrics"),
}

# the dataset options each --dataset kind reads; giving any other one is an error
DATASET_OPTIONS: dict[str, set[str]] = {
    "blobs": {"n-per-class", "num-classes", "dim", "separation", "train-fraction", "data-seed"},
    "idx": {"train-images", "train-labels", "test-images", "test-labels", "limit"},
    "mnist": {"data-dir", "limit"},
}

SWEEP_EXTRA: dict[str, tuple] = {
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


def _merge_options(args: argparse.Namespace, table: dict[str, tuple]) -> tuple[dict, set[str]]:
    """file defaults <- config file <- explicit CLI flags.

    Returns the merged options and the keys set by a flag or the config file.
    """
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    unknown = set(file_values) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    merged: dict = {}
    given = set(file_values)
    for key, (conv, default, _help) in table.items():
        attr = key.replace("-", "_")
        cli_value = getattr(args, attr, None)
        if cli_value is not None:
            merged[key] = cli_value
            given.add(key)
        elif key in file_values:
            try:
                merged[key] = conv(file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        else:
            merged[key] = default
    return merged, given


def _add_table_options(parser: argparse.ArgumentParser, table: dict[str, tuple]) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    for key, (conv, _default, help_text) in table.items():
        parser.add_argument(f"--{key}", type=conv, default=None, help=help_text, dest=key.replace("-", "_"))


def _build_sketch_config(opts: dict, given: set[str]):
    kind = opts["dataset"]
    if kind not in DATASET_OPTIONS:
        raise ConfigError(f"unknown dataset kind {kind!r} (expected mnist, idx, or blobs)")
    ignored = (set().union(*DATASET_OPTIONS.values()) - DATASET_OPTIONS[kind]) & given
    if ignored:
        flags = ", ".join(f"--{k}" for k in sorted(ignored))
        raise ConfigError(f"dataset={kind} does not read {flags}")
    limit = opts["limit"] or None
    if kind == "mnist":
        d = Path(opts["data-dir"])
        spec = DatasetSpec(
            kind="idx",
            train_images=str(d / "train-images-idx3-ubyte"),
            train_labels=str(d / "train-labels-idx1-ubyte"),
            test_images=str(d / "t10k-images-idx3-ubyte"),
            test_labels=str(d / "t10k-labels-idx1-ubyte"),
            limit=limit,
        )
        default_arch = [784, 300, 100, 10]
    elif kind == "idx":
        for k in ("train-images", "train-labels", "test-images", "test-labels"):
            if not opts[k]:
                raise ConfigError(f"dataset=idx requires --{k}")
        spec = DatasetSpec(
            kind="idx",
            train_images=opts["train-images"],
            train_labels=opts["train-labels"],
            test_images=opts["test-images"],
            test_labels=opts["test-labels"],
            limit=limit,
        )
        default_arch = [784, 300, 100, 10]
    else:
        spec = DatasetSpec(
            kind="blobs",
            n_per_class=opts["n-per-class"],
            num_classes=opts["num-classes"],
            dim=opts["dim"],
            separation=opts["separation"],
            train_fraction=opts["train-fraction"],
            data_seed=opts["data-seed"],
        )
        default_arch = [opts["dim"], 64, 32, opts["num-classes"]]

    arch_sizes = opts["arch"] if opts["arch"] is not None else default_arch
    try:
        arch = MlpArchitecture(arch_sizes)
        train = TrainConfig(
            epochs=opts["epochs"],
            lr=opts["lr"],
            momentum=opts["momentum"],
            weight_decay=opts["lambda"],
            batch_size=opts["batch-size"],
            lr_milestones=tuple(opts["milestones"]),
            lr_gamma=opts["gamma"],
            seed=opts["seed"],
        )
        if opts["scope"] not in ("layerwise", "global"):
            raise ConfigError(f"scope must be layerwise or global, got {opts['scope']!r}")
        cfg = SketchConfig(
            run_id=opts["run-id"],
            arch=arch,
            train=train,
            dataset=spec,
            t_iter=opts["t-iter"],
            t_end=opts["t-end"],
            scope=PruneScope(opts["scope"]),
            epsilon=opts["epsilon"],
            noise_seed=opts["noise-seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _cmd_sketch(args: argparse.Namespace) -> int:
    opts, given = _merge_options(args, SKETCH_OPTIONS)
    if not opts["out"]:
        raise ConfigError("--out is required")
    cfg = _build_sketch_config(opts, given)
    run = sketch.run_sketch(cfg, opts["out"], on_round=_print_round)
    _print_run_summary(run, opts["out"])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = {**SKETCH_OPTIONS, **SWEEP_EXTRA}
    opts, given = _merge_options(args, table)
    if not opts["out"]:
        raise ConfigError("--out is required")
    for key in ("lambdas", "epsilons", "seeds"):
        if not opts[key]:
            raise ConfigError(f"--{key} must list at least one value")
    base_cfg = _build_sketch_config(opts, given)
    try:
        runs = sketch.sweep(base_cfg, opts["lambdas"], opts["epsilons"], opts["seeds"], opts["out"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"sweep complete: {len(runs)} runs under {opts['out']}")
    for run in runs:
        final = run.rounds[-1]
        print(f"  {run.config.run_id}: {len(run.rounds)} rounds, "
              f"final sparsity {final.sparsity:.5f}, test acc {final.test_acc:.4f}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.probe_size is not None and args.probe_size < 1:
        raise ConfigError(f"--probe-size must be at least 1, got {args.probe_size}")
    run_dir = Path(args.run)
    cfg = sketch.read_config(run_dir)
    _, test_set = sketch.load_dataset(cfg.dataset)
    size = min(args.probe_size or probes.PROBE_BATCH_SIZE, test_set.size)
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
    for d in args.run or []:
        run_dirs.append(Path(d))
    if not run_dirs:
        raise ConfigError("report needs --run DIR (repeatable) or --sweep DIR")

    runs = [reporting.load_run(d) for d in run_dirs]
    metrics = [m.strip() for m in args.metrics.split(",")] if args.metrics else ["test_acc"]
    try:
        reporting.check_curves(runs, metrics)  # before anything is written
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    probes_by_run = {}
    for run, d in zip(runs, run_dirs):
        if len(run.rounds) >= 4:
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

    p_sketch = sub.add_parser("sketch", help="run one prune/rewind/retrain sweep")
    _add_table_options(p_sketch, SKETCH_OPTIONS)

    p_sweep = sub.add_parser("sweep", help="run a lambda x epsilon x seed grid")
    _add_table_options(p_sweep, {**SKETCH_OPTIONS, **SWEEP_EXTRA})

    p_probe = sub.add_parser("probe", help="measure excess output along a finished run")
    p_probe.add_argument("--run", required=True, help="run directory")
    p_probe.add_argument("--probe-size", type=int, default=None, help="probe batch size (default 256)")

    p_report = sub.add_parser("report", help="regenerate metrics.csv, curves, and phase reports")
    p_report.add_argument("--run", action="append", help="run directory (repeatable)")
    p_report.add_argument("--sweep", default=None, help="directory containing run directories")
    p_report.add_argument("--out", default=None, help="where to write curve files")
    p_report.add_argument("--metrics", default=None, help="comma-separated curve metrics")
    p_report.add_argument("--delta", type=float, default=1.0,
                          help="phase-detection threshold in accuracy percentage points")

    sub.add_parser("selftest", help="run the built-in gradient and prune checks")

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
