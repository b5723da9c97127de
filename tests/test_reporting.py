"""Metrics CSV, curve files, pairing, and manifests."""

import json
import os

import numpy as np
import pytest

from sparse_lab import (
    DatasetSpec,
    MlpArchitecture,
    RoundMetrics,
    SketchConfig,
    SketchRun,
    TrainConfig,
    emit_curves,
    emit_metrics_csv,
    parse_metrics_csv,
    run_sketch,
)
from sparse_lab.probes import ProbeResult
from sparse_lab.reporting import METRICS_HEADER, reemit_metrics_csv


def make_run(run_id="r", weight_decay=0.0, epsilon=0.1, seed=7, accs=(0.9, 0.8, 0.85)):
    cfg = SketchConfig(
        run_id=run_id,
        arch=MlpArchitecture([4, 6, 2]),
        train=TrainConfig(epochs=1, seed=seed, weight_decay=weight_decay),
        dataset=DatasetSpec(kind="blobs", dim=4, num_classes=2),
        epsilon=epsilon,
    )
    rounds = [
        RoundMetrics(round=i, sparsity=i * 0.2, final_train_loss=0.5 - 0.01 * i,
                     final_train_acc=0.7 + 0.01 * i, test_loss=0.4, test_acc=a,
                     wall_seconds=1.25 + i)
        for i, a in enumerate(accs)
    ]
    return SketchRun(config=cfg, rounds=rounds)


def probe(value):
    return ProbeResult(
        y_exc_l1=value, per_layer_amplification=(0.5,),
        weight_l1_masked_out=2 * value, condition1_score=0.0, condition2_score=0.5,
    )


class TestEmitMetricsCsv:
    def test_one_round_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics_csv(make_run(accs=(0.9,)), None, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == METRICS_HEADER

    def test_round_zero_conventions(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics_csv(make_run(), None, path)
        first_row = path.read_text().splitlines()[1].split(",")
        assert first_row[1] == "0"   # round column
        assert first_row[2] == "0"   # sparsity field
        assert first_row[-1] == ""   # wall_seconds stays empty (telemetry)

    def test_reemit_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run = make_run()
        emit_metrics_csv(run, [probe(0.25), probe(0.125)], a)
        reemit_metrics_csv(parse_metrics_csv(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_probe_column_alignment(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics_csv(make_run(), [probe(0.25), probe(0.125)], path)
        rows = parse_metrics_csv(path)
        assert rows[0]["y_exc_l1"] == 0.25
        assert rows[1]["y_exc_l1"] == 0.125
        assert rows[2]["y_exc_l1"] is None  # terminal round has no next mask

    def test_lf_newlines_and_no_quoting(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_metrics_csv(make_run(), None, path)
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert b'"' not in blob

    def test_values_round_trip_exactly(self, tmp_path):
        run = make_run(weight_decay=1e-4)
        path = tmp_path / "m.csv"
        emit_metrics_csv(run, None, path)
        rows = parse_metrics_csv(path)
        for row, metrics in zip(rows, run.rounds):
            assert row["sparsity"] == metrics.sparsity
            assert row["train_loss"] == metrics.final_train_loss
            assert row["test_acc"] == metrics.test_acc
            assert row["lambda"] == 1e-4
        assert rows[0]["wall_seconds"] is None

    def test_empty_run_rejected(self, tmp_path):
        run = make_run()
        run.rounds = []
        with pytest.raises(ValueError, match="no rounds"):
            emit_metrics_csv(run, None, tmp_path / "m.csv")


class TestEmitCurves:
    def test_paired_runs_two_files_one_pair(self, tmp_path):
        vanilla = make_run("base-lam0-eps0.1-s7", weight_decay=0.0)
        l2 = make_run("base-lam0.0001-eps0.1-s7", weight_decay=1e-4)
        written = emit_curves([vanilla, l2], "test_acc", tmp_path)
        curve_files = [p for p in written if p.name.endswith(".curve.csv")]
        assert len(curve_files) == 2
        pairs = (tmp_path / "pairs.txt").read_text().splitlines()
        assert pairs == ["base-lam0-eps0.1-s7,base-lam0.0001-eps0.1-s7"]

    def test_unknown_metric_lists_valid_ones(self, tmp_path):
        with pytest.raises(ValueError) as err:
            emit_curves([make_run()], "foo", tmp_path)
        for name in ("train_loss", "train_acc", "test_loss", "test_acc", "y_exc_l1"):
            assert name in str(err.value)

    def test_rows_sorted_by_sparsity(self, tmp_path):
        run = make_run()
        run.rounds = list(reversed(run.rounds))  # simulate out-of-order emission
        emit_curves([run], "test_acc", tmp_path)
        lines = (tmp_path / "r.test_acc.curve.csv").read_text().splitlines()
        assert lines[0] == "sparsity,test_acc"
        sparsities = [float(l.split(",")[0]) for l in lines[1:]]
        assert sparsities == sorted(sparsities)
        assert all(b > a for a, b in zip(sparsities, sparsities[1:]))

    def test_seventeen_digit_round_trip(self, tmp_path):
        run = make_run(accs=(1 / 3, 2 / 7, 1 / 9, 0.5))
        emit_curves([run], "test_acc", tmp_path)
        lines = (tmp_path / "r.test_acc.curve.csv").read_text().splitlines()[1:]
        parsed = [float(l.split(",")[1]) for l in lines]
        assert parsed == [m.test_acc for m in run.rounds]

    def test_y_exc_curve_uses_probe_series(self, tmp_path):
        run = make_run()
        series = {"r": [probe(0.5), probe(0.25)]}
        emit_curves([run], "y_exc_l1", tmp_path, series)
        lines = (tmp_path / "r.y_exc_l1.curve.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 probed rounds (terminal round skipped)
        assert float(lines[1].split(",")[1]) == 0.5

    def test_mixed_datasets_rejected(self, tmp_path):
        a = make_run("a")
        b = make_run("b")
        object.__setattr__(b.config, "dataset", DatasetSpec(kind="blobs", dim=9))
        with pytest.raises(ValueError, match="share one dataset"):
            emit_curves([a, b], "test_acc", tmp_path)

    def test_mixed_lambda_grid_pairs_each_l2_run(self, tmp_path):
        runs = [
            make_run("s-lam0-eps0.1-s1", weight_decay=0.0),
            make_run("s-lam0.0001-eps0.1-s1", weight_decay=1e-4),
            make_run("s-lam0.001-eps0.1-s1", weight_decay=1e-3),
        ]
        emit_curves(runs, "test_acc", tmp_path)
        pairs = (tmp_path / "pairs.txt").read_text().splitlines()
        assert len(pairs) == 2
        assert all(p.startswith("s-lam0-eps0.1-s1,") for p in pairs)


class TestManifest:
    def test_written_and_finalized(self, tmp_path):
        cfg = SketchConfig(
            run_id="m",
            arch=MlpArchitecture([4, 10, 2]),
            train=TrainConfig(epochs=0, seed=1),
            dataset=DatasetSpec(kind="blobs", dim=4, num_classes=2, n_per_class=20),
            t_end=0.8,
        )
        run_sketch(cfg, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["run_id"] == "m"
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["finished_at"] is not None
        assert manifest["started_at"] <= manifest["finished_at"]
        assert manifest["tool_version"]

    def test_records_numpy_blas_and_thread_variables(self, tmp_path):
        cfg = SketchConfig(
            run_id="m",
            arch=MlpArchitecture([4, 10, 2]),
            train=TrainConfig(epochs=0, seed=1),
            dataset=DatasetSpec(kind="blobs", dim=4, num_classes=2, n_per_class=20),
            t_end=0.8,
        )
        run_sketch(cfg, tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert manifest["numpy"] == np.__version__
        assert manifest["blas"] == f"{blas['name']} {blas['version']}"
        names = ["SPARSE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]
        assert manifest["threads"] == {name: os.environ.get(name) for name in names}
        assert manifest["threads"]["OPENBLAS_NUM_THREADS"] is not None  # set at package import
