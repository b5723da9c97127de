"""sparse-lab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload sketch-lenet --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Operations repeat until ``--seconds`` have passed.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` traced and untraced operations alternate and it holds the
per-layer metrics.  Either way every operation's outputs are checked.  The
full result, with provenance and every sample, goes to
``.bench_work/results/``; traced spans go next to it.  BLAS runs on one
thread (``SPARSE_LAB_THREADS=1``); the run is refused if that cap does not
take effect.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_REPEATS = 3
MAX_SECONDS = 120.0  # stop starting operations after this, whatever --seconds says
IMPORT_TIMER = "import sys, time; t = time.perf_counter(); import sparse_lab; print(time.perf_counter() - t)"


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


def blas_threads() -> tuple[int | None, str | None]:
    """Threads and build string reported by the OpenBLAS that numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(handle, f"{prefix}_get_num_threads64_", None)
            if get is not None:
                config = getattr(handle, f"{prefix}_get_config64_")
                config.restype = ctypes.c_char_p
                return int(get()), config().decode()
    return None, None


def cap_threads() -> None:
    """Import sparse_lab from src/ with BLAS capped to one thread."""
    if "numpy" in sys.modules:
        raise Refused("numpy was imported before the thread cap could be set")
    os.environ["SPARSE_LAB_THREADS"] = "1"
    for var in THREAD_VARS:
        # sparse_lab only fills these in when unset; a wider setting would win
        if os.environ.get(var, "1") != "1":
            del os.environ[var]
    sys.path.insert(0, str(SRC))
    import sparse_lab

    if Path(sparse_lab.__file__).resolve().parent != SRC / "sparse_lab":
        raise Refused(f"imported sparse_lab from {sparse_lab.__file__}, not from {SRC}")
    threads, _ = blas_threads()
    if any(os.environ.get(v) != "1" for v in THREAD_VARS) or threads not in (None, 1):
        raise Refused(f"BLAS thread cap did not take effect (BLAS reports {threads} threads)")


def provenance() -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():  # a plain source checkout has no revision to report
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "sparse_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = blas_threads()
    return {
        "git_revision": rev,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "runtime_config": config},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {
            "SPARSE_LAB_THREADS": os.environ["SPARSE_LAB_THREADS"],
            **{v: os.environ.get(v) for v in THREAD_VARS},
            "blas_runtime": threads,
        },
    }


def recorded_digests(workload: str, seed: int) -> tuple[dict[str, str] | None, str | None]:
    """The seed code's output digests for this seed, or None and the reason.

    Digests pin the exact floating-point results, so they only apply under
    the BLAS build and CPU kernel they were recorded with.
    """
    recorded = json.loads(DIGESTS_PATH.read_text())
    _, blas = blas_threads()
    if recorded["blas"] != blas:
        return None, f"digests were recorded under {recorded['blas']!r}, not {blas!r}"
    digests = recorded["outputs"].get(workload, {}).get(str(seed))
    return digests, None if digests else f"no digests recorded for seed {seed}"


def import_seconds() -> float:
    """Median seconds to import sparse_lab in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def spread(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def end_to_end(ops, import_s: float, ok_share: float) -> tuple[dict[str, float], dict]:
    """Medians over operations, or over every round for the round metrics."""
    samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "setup_s", "dense_round_s",
                                                       "sparse_round_s", "run_dir_mb")}
    for _, res, tr in ops:
        setups, rounds = tracer.round_times(tr.spans)
        samples["wall_s"].append(res.wall_s)
        samples["setup_s"].append(import_s + res.setup_s + sum(setups))
        samples["dense_round_s"] += [t for sp, t in rounds if sp < tracer.DENSE_BELOW]
        samples["sparse_round_s"] += [t for sp, t in rounds if sp >= tracer.SPARSE_FROM]
        samples["run_dir_mb"].append(res.run_dir_bytes / 2**20)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_share"] = ok_share
    return metrics, {k: spread(v) for k, v in samples.items()}


def per_layer(ops) -> tuple[dict[str, float], list[str]]:
    traced = [tracer.layer_metrics(tr.spans) for is_traced, _, tr in ops if is_traced]
    problems = []
    metrics = {}
    for key in traced[0]:
        values = [m[key] for m in traced]
        if key in tracer.EXACT_COUNTS:
            if len(set(values)) > 1:
                problems.append(f"{key} differs between traced operations: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    walls = {flag: [res.wall_s for is_traced, res, _ in ops if is_traced == flag] for flag in (True, False)}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "sparse_lab" / "__init__.py").is_file():
        raise Refused(f"no sparse_lab sources under {SRC}")
    cap_threads()
    import workloads  # imports numpy, so only after the cap

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    ops = []  # (traced, OpResult, Tracer)
    expected, unchecked = recorded_digests(args.workload, args.seed)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, expected)
        import_s = 0.0 if args.trace else import_seconds()
        started = perf_counter()
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 0
            op_dir = work / f"op{len(ops)}"
            table = tracer.LAYER_SPANS if traced else tracer.ROUND_MARKERS
            with tracer.Tracer(table, f"{tag}-op{len(ops)}") as tr:
                res = workload.op(op_dir)
            shutil.rmtree(op_dir, ignore_errors=True)
            ops.append((traced, res, tr))
            elapsed = perf_counter() - started
            kinds = {t for t, _, _ in ops}
            enough = not args.trace or (sum(t for t, _, _ in ops) >= 2 and kinds == {True, False})
            if (elapsed >= args.seconds and enough) or elapsed >= MAX_SECONDS:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(res.attempted for _, res, _ in ops)
    failed = sum(res.failed for _, res, _ in ops)
    problems = [p for _, res, _ in ops for p in res.problems]
    measured = [(t, res, tr) for t, res, tr in ops if res.wall_s > 0]
    if not measured:
        print("\n".join(f"problem: {p}" for p in problems))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics, count_problems = per_layer(measured)
        problems += count_problems
        wanted = spec["per_layer"]
        spreads = {}
    else:
        metrics, spreads = end_to_end(measured, import_s, (attempted - failed) / attempted)
        wanted = spec["end_to_end"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), "operations": len(ops), "import_s": import_s,
        "digests_unchecked": unchecked,
        "problems": problems, "samples": spreads, "all_metrics": metrics,
        "op_wall_s": [res.wall_s for _, res, _ in ops],
        "digests": [res.digests for _, res, _ in ops],
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(results / f"{tag}.spans.jsonl", [tr for _, _, tr in ops])

    if unchecked:
        print(f"note: structural output checks only; {unchecked}")
    for problem in problems:
        print(f"problem: {problem}")
    for m in wanted:
        s = spreads.get(m["name"], {})
        extra = f"  (median of {s['n']}, q1 {s.get('q1', s['median']):.6g}, q3 {s.get('q3', s['median']):.6g})" if s else ""
        print(f"{m['name']:28s} {metrics[m['name']]:14.6g} {m['unit']}{extra}")
    if not args.trace:
        print(f"{'failed_share':28s} {failed / attempted:14.6g} fraction  ({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        sys.exit(2)
