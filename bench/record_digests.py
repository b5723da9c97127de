"""Record the sha256 of every output file the benchmark checks, per workload seed.

    python3 bench/record_digests.py [SEED ...]   (default: seeds 0 to 9)

Run from the root of a source checkout whose outputs are known good; the
digests go to bench/digests.json, which bench/run.py compares against, with
the BLAS build and CPU kernel they were recorded under (recording under
another one starts the file afresh).  Outputs that fail a structural check
are not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(seeds: list[int]) -> int:
    run.cap_threads()
    import workloads  # imports numpy, so only after the cap

    _, blas = run.blas_threads()
    recorded = {"blas": blas, "outputs": {}}
    if run.DIGESTS_PATH.exists() and json.loads(run.DIGESTS_PATH.read_text())["blas"] == blas:
        recorded = json.loads(run.DIGESTS_PATH.read_text())
    work = run.WORK / "record-digests"
    try:
        for name, workload_cls in workloads.WORKLOADS.items():
            for seed in seeds:
                workload = workload_cls(work / f"{name}-{seed}", seed, None)
                res = workload.op(work / f"{name}-{seed}" / "op")
                if res.problems or res.wall_s == 0:
                    print(f"{name} seed {seed}: not recorded: {res.problems}", file=sys.stderr)
                    return 1
                recorded["outputs"].setdefault(name, {})[str(seed)] = res.digests
                print(f"{name} seed {seed}: {len(res.digests)} files")
                shutil.rmtree(work / f"{name}-{seed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or list(range(10))))
