"""The benchmark's workloads: inputs made from the workload seed, one timed
operation each, and the checks every operation's outputs must pass.

Every call into sparse_lab goes through a module attribute looked up at call
time (``sketch.run_sketch(...)``), so the wrappers installed by ``tracer``
see it.  A workload is built from the workload seed and the sha256 digests
its outputs must match (None: structural checks only).  Why each workload
exists is written in bench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import sparse_lab.checkpoint as checkpoint
import sparse_lab.cli as cli
import sparse_lab.sketch as sketch
from sparse_lab import DatasetSpec, MlpArchitecture, PruneScope, SketchConfig, TrainConfig

BENCH_DIR = Path(__file__).resolve().parent
LENET = (784, 300, 100, 10)


def derive(seed: int, purpose: str) -> int:
    """A 32-bit data, noise or train seed derived from the workload seed."""
    digest = hashlib.sha256(f"sparse-lab-bench/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class OpResult:
    """One timed operation of a workload."""

    wall_s: float = 0.0
    setup_s: float = 0.0  # set-up done by the benchmark itself (a fresh copy)
    attempted: int = 0
    failed: int = 0
    run_dir_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def check_training_outputs(run_dir: Path, t_end: float) -> list[str]:
    """Structural checks on a finished run directory.

    Masks only ever lose weights from round to round, every saved round's
    off-mask weights are exactly 0, and the final sparsity reaches t_end.
    """
    problems = []
    prev = None
    k = 0
    while (run_dir / f"round_{k:03d}").is_dir():
        d = run_dir / f"round_{k:03d}"
        mask = checkpoint.load_tensors(d / "mask.bin")
        params = checkpoint.load_tensors(d / "params.bin")
        for name, m in mask.items():
            if not np.all((m == 0.0) | (m == 1.0)):
                problems.append(f"round {k}: mask {name} is not binary")
            if prev is not None and np.any(m > prev[name]):
                problems.append(f"round {k}: mask {name} regrew weights")
            if np.any(params[name][m == 0.0] != 0.0):
                problems.append(f"round {k}: {name} has non-zero weights off the mask")
        prev = mask
        k += 1
    if prev is None:
        return [f"{run_dir.name}: no rounds saved"]
    total = sum(m.size for m in prev.values())
    final = 1.0 - sum(float(m.sum()) for m in prev.values()) / total
    if final < t_end:
        problems.append(f"final sparsity {final} below t_end {t_end}")
    rows = (run_dir / "metrics.csv").read_text().splitlines()[1:]
    if len(rows) != k:
        problems.append(f"metrics.csv has {len(rows)} rows for {k} rounds")
    return problems


def check_digests(res: OpResult, files: dict[str, Path], expected: dict[str, str] | None) -> list[str]:
    problems = []
    for rel, path in files.items():
        res.digests[rel] = sha256_file(path)
        if expected is not None and expected.get(rel) != res.digests[rel]:
            problems.append(f"{rel}: sha256 differs from the seed code's output")
    return problems


def lenet_config(seed: int, run_id: str, n_per_class: int, epochs: int) -> SketchConfig:
    return SketchConfig(
        run_id=run_id,
        arch=MlpArchitecture(LENET),
        train=TrainConfig(epochs=epochs, seed=derive(seed, "train")),
        dataset=DatasetSpec(kind="blobs", dim=LENET[0], num_classes=10,
                            n_per_class=n_per_class, data_seed=derive(seed, "data")),
        t_iter=0.2,
        t_end=0.999,
        scope=PruneScope.LAYERWISE,
        epsilon=0.5,
        noise_seed=derive(seed, "noise"),
    )


class SketchLenet:
    """One run_sketch of 784-300-100-10 on 784-dim blobs to 99.9% sparsity."""

    name = "sketch-lenet"

    def __init__(self, work: Path, seed: int, expected: dict[str, str] | None) -> None:
        self.cfg = lenet_config(seed, "lenet", n_per_class=100, epochs=2)
        self.expected = expected

    def op(self, op_dir: Path) -> OpResult:
        res = OpResult(attempted=1)
        run_dir = op_dir / self.cfg.run_id
        try:
            start = perf_counter()
            sketch.run_sketch(self.cfg, run_dir)
            res.wall_s = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            res.fail(f"run_sketch raised {exc!r}")
            return res
        res.run_dir_bytes = dir_bytes(op_dir)
        problems = check_training_outputs(run_dir, self.cfg.t_end)
        problems += check_digests(res, {"lenet/metrics.csv": run_dir / "metrics.csv"}, self.expected)
        if problems:
            res.fail("; ".join(problems))
        return res


class SweepSmall:
    """One sweep over lambda x epsilon x two train seeds of 32-64-32-10."""

    name = "sweep-small"
    lambdas = (0.0, 1e-4)
    epsilons = (0.2, 0.5)

    def __init__(self, work: Path, seed: int, expected: dict[str, str] | None) -> None:
        self.base = SketchConfig(
            run_id="sweep",
            arch=MlpArchitecture((32, 64, 32, 10)),
            train=TrainConfig(epochs=10),
            dataset=DatasetSpec(kind="blobs", data_seed=derive(seed, "data")),
            t_iter=0.2,
            t_end=0.99,
            noise_seed=derive(seed, "noise"),
        )
        self.seeds = [derive(seed, "train0"), derive(seed, "train1")]
        self.expected = expected

    def op(self, op_dir: Path) -> OpResult:
        cells = len(self.lambdas) * len(self.epsilons) * len(self.seeds)
        res = OpResult(attempted=cells)
        try:
            start = perf_counter()
            runs = sketch.sweep(self.base, list(self.lambdas), list(self.epsilons), self.seeds, op_dir)
            res.wall_s = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            res.failed = cells
            res.problems.append(f"sweep raised {exc!r}")
            return res
        res.run_dir_bytes = dir_bytes(op_dir)
        for run in runs:
            run_id = run.config.run_id
            run_dir = op_dir / run_id
            problems = check_training_outputs(run_dir, self.base.t_end)
            expected = None if self.expected is None else {
                k: v for k, v in self.expected.items() if k.startswith(run_id + "/")}
            problems += check_digests(res, {f"{run_id}/metrics.csv": run_dir / "metrics.csv"}, expected)
            if problems:
                res.fail(f"{run_id}: " + "; ".join(problems))
        return res


def fixture_config(seed: int) -> SketchConfig:
    """The finished run that analyze-run reads: LeNet-shaped, 1 epoch per round."""
    return lenet_config(seed, "lenet-probe", n_per_class=150, epochs=1)


class AnalyzeRun:
    """`sparse-lab probe` then `sparse-lab report` on a copy of a finished run."""

    name = "analyze-run"

    def __init__(self, work: Path, seed: int, expected: dict[str, str] | None) -> None:
        self.cfg = fixture_config(seed)
        self.fixture = work / "fixture"
        # A child process trains the fixture, so its memory stays out of peak_rss_mb.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "fixture", str(self.fixture), str(seed)],
            env={**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")},
            check=True,
        )
        problems = check_training_outputs(self.fixture, self.cfg.t_end)
        if problems:
            raise RuntimeError("fixture run is malformed: " + "; ".join(problems))
        self.rounds = len((self.fixture / "metrics.csv").read_text().splitlines()) - 1
        self.expected = expected

    def _cli(self, res: OpResult, argv: list[str]) -> bool:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.cli_main(argv)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            res.fail(f"{argv[0]} raised {exc!r}")
            return False
        if code != 0:
            res.fail(f"{argv[0]} exited {code}")
        return code == 0

    def op(self, op_dir: Path) -> OpResult:
        res = OpResult(attempted=2)
        run_dir = op_dir / "run"
        start = perf_counter()
        shutil.copytree(self.fixture, run_dir)
        res.setup_s = perf_counter() - start

        start = perf_counter()
        probed = self._cli(res, ["probe", "--run", str(run_dir)])
        reported = probed and self._cli(res, ["report", "--run", str(run_dir)])
        res.wall_s = perf_counter() - start
        res.run_dir_bytes = dir_bytes(op_dir)
        if not probed:
            res.fail("report skipped after probe failed")
        if not reported:
            return res

        curve = f"{self.cfg.run_id}.test_acc.curve.csv"
        files = {n: run_dir / n for n in ("probes.json", "metrics.csv", curve, "pairs.txt")}
        probes = json.loads(files["probes.json"].read_text())
        rows = files["metrics.csv"].read_text().splitlines()[1:]
        probe_problems = []
        if len(probes) != self.rounds - 1:
            probe_problems.append(f"{len(probes)} probes for {self.rounds} rounds")
        if not all(math.isfinite(p["y_exc_l1"]) for p in probes):
            probe_problems.append("non-finite y_exc_l1")
        report_problems = []
        if len(rows) != self.rounds or not (run_dir / f"round_{self.rounds - 1:03d}").is_dir():
            report_problems.append("round checkpoints or metrics.csv rows went missing")
        filled = [row.split(",")[10] != "" for row in rows]
        if filled != [True] * (self.rounds - 1) + [False]:
            report_problems.append("y_exc_l1 column is not filled for exactly the probed rounds")
        if len(files[curve].read_text().splitlines()) != self.rounds + 1:
            report_problems.append(f"{curve} does not have one row per round")
        digest_problems = check_digests(res, files, self.expected)
        probe_problems += [p for p in digest_problems if p.startswith("probes.json")]
        report_problems += [p for p in digest_problems if not p.startswith("probes.json")]
        if probe_problems:
            res.fail("probe: " + "; ".join(probe_problems))
        if report_problems:
            res.fail("report: " + "; ".join(report_problems))
        return res


WORKLOADS = {w.name: w for w in (SketchLenet, SweepSmall, AnalyzeRun)}


if __name__ == "__main__":
    # python3 bench/workloads.py fixture DIR SEED trains analyze-run's fixture.
    if len(sys.argv) != 4 or sys.argv[1] != "fixture":
        sys.exit("usage: workloads.py fixture DIR SEED")
    sketch.run_sketch(fixture_config(int(sys.argv[3])), Path(sys.argv[2]))
