"""Spans around calls into sparse_lab's layers, recorded from outside the program.

A wrapper replaces a function in the module namespace that *calls* it:
``sketch.py`` binds ``from .nn import train`` by name, so its rounds are
timed by wrapping ``sparse_lab.sketch.train``, not ``sparse_lab.nn.train``.
Functions that callers import lazily inside a function body (the CLI, and
``run_sketch``'s import of the reporting helpers) are looked up on their own
module at call time, so they are wrapped there.

Spans live in memory as ``[name, layer, start, end, parent, run_id, attrs]``
and are written out when the run ends.  A layer's self time is its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
from pathlib import Path
from time import perf_counter

NAME, LAYER, START, END, PARENT, RUN_ID, ATTRS = range(7)

# Per-layer counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "data.calls",
    "nn.steps",
    "nn.macs_issued",
    "nn.macs_useful",
    "pruning.weights_removed",
    "checkpoint.bytes_written",
    "checkpoint.files_written",
    "checkpoint.bytes_read",
    "sketch.rounds",
    "probes.calls",
)

DENSE_BELOW = 0.5  # a round is "dense" below this sparsity
SPARSE_FROM = 0.9  # and "sparse" from this sparsity on


def _survivors(mask, name: str, shape: tuple[int, int]) -> int:
    if mask is None or name not in mask:
        return shape[0] * shape[1]
    return int(mask[name].sum())


def _weight_shapes(params) -> list[tuple[str, tuple[int, int]]]:
    return [(n, params[n].shape) for n in params.prunable_names()]


def _sparsity(mask, params) -> float:
    shapes = _weight_shapes(params)
    total = sum(s[0] * s[1] for _, s in shapes)
    return 1.0 - sum(_survivors(mask, n, s) for n, s in shapes) / total


def _macs(params, mask, samples: int, backward: bool) -> tuple[int, int]:
    """Multiply-adds issued by the dense matmuls, and the share on live weights.

    A training sample costs a forward product, a weight-gradient product and,
    for every layer but the first, an input-gradient product, each of
    ``out * in`` multiply-adds.  Evaluation is the forward product alone.
    """
    issued = useful = 0
    for layer, (name, shape) in enumerate(_weight_shapes(params)):
        passes = (3 if layer > 0 else 2) if backward else 1
        issued += passes * shape[0] * shape[1]
        useful += passes * _survivors(mask, name, shape)
    return samples * issued, samples * useful


def _train_attrs(a, result) -> dict:
    issued, useful = _macs(a["params"], a["mask"], a["cfg"].epochs * a["train_set"].size, True)
    return {"sparsity": _sparsity(a["mask"], a["params"]), "macs_issued": issued, "macs_useful": useful}


def _evaluate_attrs(a, result) -> dict:
    issued, useful = _macs(a["params"], a["mask"], a["dataset"].size, False)
    return {"sparsity": _sparsity(a["mask"], a["params"]), "macs_issued": issued, "macs_useful": useful}


def _prune_attrs(a, result) -> dict:
    return {"removed": a["mask"].surviving() - result.surviving()}


def _file_attrs(a, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def _round_attrs(a, result) -> dict:
    return {"sparsity": _sparsity(a["mask"], a["params"])}


# (module under sparse_lab, attribute, layer, attrs hook)
ROUND_MARKERS = (
    ("sketch", "run_sketch", "sketch", None),
    ("sketch", "prune", "pruning", None),
    ("sketch", "train", "nn", _round_attrs),
    ("probes", "excess_output", "probes", _round_attrs),
)

LAYER_SPANS = (
    ("sketch", "run_sketch", "sketch", None),
    ("sketch", "sweep", "sketch", None),
    ("sketch", "read_config", "sketch", None),
    ("sketch", "load_dataset", "sketch", None),
    ("sketch", "detect_phases", "sketch", None),
    ("sketch", "synth_blobs", "data", None),
    ("sketch", "split", "data", None),
    ("sketch", "load_idx", "data", None),
    ("sketch", "inject_symmetric_noise", "data", None),
    ("sketch", "init_params", "nn", None),
    ("sketch", "train", "nn", _train_attrs),
    ("sketch", "evaluate", "nn", _evaluate_attrs),
    ("nn", "sgd_step", "nn", None),
    ("sketch", "prune", "pruning", _prune_attrs),
    ("sketch", "rewind", "pruning", None),
    ("sketch", "sparsity", "pruning", None),
    ("sketch", "save_params", "checkpoint", _file_attrs),
    ("sketch", "save_tensors", "checkpoint", _file_attrs),
    ("sketch", "load_params", "checkpoint", _file_attrs),
    ("sketch", "load_tensors", "checkpoint", _file_attrs),
    ("probes", "read_config", "sketch", None),
    ("probes", "excess_output", "probes", _round_attrs),
    ("probes", "probe_along_run", "probes", None),
    ("probes", "save_probes", "probes", None),
    ("probes", "load_probes", "probes", None),
    ("reporting", "load_probes", "probes", None),
    ("reporting", "detect_phases", "sketch", None),
    ("reporting", "write_manifest", "reporting", None),
    ("reporting", "finalize_run_dir", "reporting", None),
    ("reporting", "load_run", "reporting", None),
    ("reporting", "emit_metrics_csv", "reporting", None),
    ("reporting", "emit_curves", "reporting", None),
    ("reporting", "write_phase_report", "reporting", None),
    ("cli", "cli_main", "cli", None),
)


class Tracer:
    """Context manager that wraps every function in ``table`` while it is open."""

    def __init__(self, table, run_id: str) -> None:
        self.table = table
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str, hook):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer, hook in self.table:
            module = importlib.import_module(f"sparse_lab.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{module_name}.{attr}", layer, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every recorded span as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for tracer in tracers:
            for s in tracer.spans:
                f.write(json.dumps({
                    "name": s[NAME], "layer": s[LAYER], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run_id": s[RUN_ID], "attrs": s[ATTRS],
                }) + "\n")


def _dur(span) -> float:
    return span[END] - span[START]


def _children(spans: list[list]) -> dict[int, list[list]]:
    """Direct children of each span, keyed by its index in ``spans``."""
    out: dict[int, list[list]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            out.setdefault(s[PARENT], []).append(s)
    return out


def round_times(spans: list[list]) -> tuple[list[float], list[tuple[float, float]]]:
    """Per-run set-up seconds and (sparsity, seconds) for every round.

    On a training workload round 0 starts at ``run_sketch``'s first ``train``
    call, every later round at its ``prune`` call, and each round ends where
    the next one starts (the last one where ``run_sketch`` returns), so a
    round covers prune, rewind, train, evaluation and the checkpoint.  A
    round's sparsity is that of the mask it trains under.  Set-up is
    ``run_sketch``'s entry to its first ``train`` call.  On the read side a
    round is one ``excess_output`` probe.
    """
    kids = _children(spans)
    setups, rounds = [], []
    for i, s in enumerate(spans):
        if s[NAME] == "sketch.run_sketch":
            trains = [c for c in kids.get(i, []) if c[NAME] == "sketch.train"]
            if not trains:
                continue
            setups.append(trains[0][START] - s[START])
            starts = [trains[0][START]] + [c[START] for c in kids[i] if c[NAME] == "sketch.prune"]
            ends = starts[1:] + [s[END]]
            rounds += [(c[ATTRS]["sparsity"], b - a) for c, a, b in zip(trains, starts, ends)]
        elif s[NAME] == "probes.excess_output":
            rounds.append((s[ATTRS]["sparsity"], _dur(s)))
    return setups, rounds


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see bench/README.md)."""
    kids = _children(spans)
    self_s: dict[str, float] = {}
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        d = _dur(s)
        self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + d - sum(_dur(c) for c in kids.get(i, []))
        total[s[NAME]] = total.get(s[NAME], 0.0) + d
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        for k, v in (s[ATTRS] or {}).items():
            attr_sum[s[NAME], k] = attr_sum.get((s[NAME], k), 0) + v

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def c(*names: str) -> int:
        return sum(count.get(n, 0) for n in names)

    def a(name: str, key: str) -> int:
        return attr_sum.get((name, key), 0)

    step_ms: dict[str, list[float]] = {"dense": [], "sparse": []}
    sparse_macs = [0, 0]
    for i, s in enumerate(spans):
        if s[NAME] not in ("sketch.train", "sketch.evaluate"):
            continue
        sp = s[ATTRS]["sparsity"]
        if sp >= SPARSE_FROM:
            sparse_macs[0] += s[ATTRS]["macs_issued"]
            sparse_macs[1] += s[ATTRS]["macs_useful"]
        steps = sum(1 for k in kids.get(i, []) if k[NAME] == "nn.sgd_step")
        if s[NAME] == "sketch.train" and steps:
            bucket = "dense" if sp < DENSE_BELOW else "sparse" if sp >= SPARSE_FROM else None
            if bucket:
                step_ms[bucket].append(1000.0 * _dur(s) / steps)

    sketch_spans = [(i, s) for i, s in enumerate(spans) if s[NAME] == "sketch.run_sketch"]
    sketch_total = sum(_dur(s) for _, s in sketch_spans)
    sketch_covered = sum(_dur(k) for i, _ in sketch_spans for k in kids.get(i, []))
    data_loads = ("sketch.synth_blobs", "sketch.split", "sketch.load_idx", "sketch.inject_symmetric_noise")
    train_s = t("sketch.train")
    return {
        "data.load_s": t(*data_loads),
        "data.calls": c("sketch.synth_blobs", "sketch.load_idx"),
        "nn.train_s": train_s,
        "nn.steps": c("nn.sgd_step"),
        "nn.step_ms.dense": statistics.median(step_ms["dense"]) if step_ms["dense"] else 0.0,
        "nn.step_ms.sparse": statistics.median(step_ms["sparse"]) if step_ms["sparse"] else 0.0,
        "nn.sgd_step_s": t("nn.sgd_step"),
        "nn.sgd_step_share": t("nn.sgd_step") / train_s if train_s else 0.0,
        "nn.evaluate_s": t("sketch.evaluate"),
        "nn.macs_issued": a("sketch.train", "macs_issued") + a("sketch.evaluate", "macs_issued"),
        "nn.macs_useful": a("sketch.train", "macs_useful") + a("sketch.evaluate", "macs_useful"),
        "nn.useful_mac_share.sparse": sparse_macs[1] / sparse_macs[0] if sparse_macs[0] else 0.0,
        "pruning.prune_s": t("sketch.prune"),
        "pruning.rewind_s": t("sketch.rewind"),
        "pruning.weights_removed": a("sketch.prune", "removed"),
        "checkpoint.save_s": t("sketch.save_params", "sketch.save_tensors"),
        "checkpoint.bytes_written": a("sketch.save_params", "bytes") + a("sketch.save_tensors", "bytes"),
        "checkpoint.files_written": c("sketch.save_params", "sketch.save_tensors"),
        "checkpoint.load_s": t("sketch.load_params", "sketch.load_tensors"),
        "checkpoint.bytes_read": a("sketch.load_params", "bytes") + a("sketch.load_tensors", "bytes"),
        "sketch.self_s": self_s.get("sketch", 0.0),
        "sketch.rounds": c("sketch.train"),
        "sketch.child_share": sketch_covered / sketch_total if sketch_total else 0.0,
        "probes.excess_output_s": t("probes.excess_output"),
        "probes.calls": c("probes.excess_output"),
        "reporting.load_run_s": t("reporting.load_run"),
        "reporting.emit_s": t("reporting.emit_metrics_csv", "reporting.emit_curves", "reporting.write_phase_report"),
        "reporting.finalize_s": t("reporting.finalize_run_dir"),
        "cli.self_s": self_s.get("cli", 0.0),
    }
