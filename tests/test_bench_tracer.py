"""The benchmark's tracer still finds, wraps and binds what it traces.

``bench/tracer.py`` wraps functions by module and attribute name and binds
their parameters by name, so a rename in ``sparse_lab`` would otherwise show
only when the benchmark runs with tracing on.
"""

import importlib.util
import math
from pathlib import Path

import sparse_lab.cli as cli
import sparse_lab.sketch as sketch
from sparse_lab import DatasetSpec, MlpArchitecture, SketchConfig, TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_markers_resolve():
    tracer = load_tracer()
    with tracer.Tracer(tracer.ROUND_MARKERS, "markers"):
        pass


def test_layer_spans_count_rounds_probes_and_checkpoint_reads(tmp_path):
    tracer = load_tracer()
    cfg = SketchConfig(
        run_id="traced",
        arch=MlpArchitecture([6, 16, 3]),
        train=TrainConfig(epochs=1, lr=0.1, momentum=0.9, batch_size=16, seed=5),
        dataset=DatasetSpec(kind="blobs", n_per_class=30, num_classes=3, dim=6, data_seed=1),
        t_iter=0.3,
        t_end=0.8,
    )
    run_dir = tmp_path / "r"
    with tracer.Tracer(tracer.LAYER_SPANS, "guard") as t:
        sketch.run_sketch(cfg, run_dir)
        assert cli.cli_main(["probe", "--run", str(run_dir)]) == 0
        assert cli.cli_main(["report", "--run", str(run_dir)]) == 0
    # the CLI calls reporting module-qualified, so the wrappers see probe/report
    cli_spans = {i for i, s in enumerate(t.spans) if s[tracer.NAME] == "cli.cli_main"}
    under_cli = {s[tracer.NAME] for s in t.spans if s[tracer.PARENT] in cli_spans}
    assert {"reporting.finalize_run_dir", "reporting.load_run"} <= under_cli
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["sketch.rounds"] > 0
    assert metrics["probes.calls"] > 0
    assert metrics["checkpoint.bytes_read"] > 0
    # every checkpoint save goes through the wrapped sketch.save_params/save_tensors
    saved = [run_dir / "init.bin"] + [
        d / name for d in run_dir.glob("round_*") for name in ("params.bin", "mask.bin")
    ]
    assert metrics["checkpoint.bytes_written"] == sum(p.stat().st_size for p in saved)
    # train must keep calling nn.sgd_step once per step, or the step metrics go blank
    n_train = sketch.load_dataset(cfg.dataset)[0].size
    steps_per_round = cfg.train.epochs * math.ceil(n_train / cfg.train.batch_size)
    assert metrics["nn.steps"] == metrics["sketch.rounds"] * steps_per_round
    assert metrics["nn.sgd_step_s"] > 0
