"""Command-line interface: subcommands, exit codes, config files."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sparse_lab import DatasetSpec, SketchConfig, TrainConfig, cli, cli_main, save_idx, sketch
from sparse_lab.reporting import parse_metrics_csv
from sparse_lab.rundir import CheckpointError, completed_rounds, read_config


def sketch_args(out, dataset="blobs", command="sketch", **overrides):
    """sketch or sweep argv; the blobs shape flags only when the dataset is blobs.

    sweep gets no --seed: its --seeds grid sets every cell's seed.
    """
    base = {"dataset": dataset}
    if dataset == "blobs":
        base.update({"dim": "8", "num-classes": "4", "n-per-class": "30", "separation": "3"})
    base.update({
        "epochs": "1",
        "t-iter": "0.3",
        "t-end": "0.8",
        "seed": "3",
        "run-id": "cli-test",
        "out": str(out),
    })
    base.update(overrides)
    if command == "sweep":
        del base["seed"]
    args = [command]
    for key, value in base.items():
        args.extend([f"--{key}", value])
    return args


def damaged(payload, key, damage):
    """``payload`` with the value at the path ``key`` dropped, set to 0 ("add"),
    put in a list ("list") or set to ``damage`` itself (a ``("set", value)`` pair);
    an empty ``key`` puts the whole payload in a list."""
    if not key:
        return [payload]
    head, *rest = key
    if rest:
        damaged(payload[head], rest, damage)
    elif damage == "drop":
        del payload[head]
    elif isinstance(damage, tuple):
        payload[head] = damage[1]
    else:
        payload[head] = 0 if damage == "add" else [payload[head]]
    return payload


GRID = ["--lambdas", "0", "--epsilons", "0", "--seeds", "1"]  # one sweep cell


class TestSketchCommand:
    def test_creates_checkpoints_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "runs" / "a"
        assert cli_main(sketch_args(out)) == 0
        assert (out / "config.json").exists()
        assert (out / "round_000" / "params.bin").exists()
        rows = parse_metrics_csv(out / "metrics.csv")
        assert rows[0]["round"] == 0
        assert rows[-1]["sparsity"] >= 0.8
        assert "rounds" in capsys.readouterr().out

    def test_out_of_range_t_iter_is_config_error(self, tmp_path, capsys):
        code = cli_main(sketch_args(tmp_path / "x", **{"t-iter": "1.5"}))
        assert code == 1
        assert "t_iter" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert cli_main(["sketch", "--no-such-flag", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_delta_is_not_a_training_option(self, tmp_path, capsys):
        # run_sketch always detects phases at the default delta; `report --delta` sets it
        assert cli_main(sketch_args(tmp_path / "x", delta="2")) == 1
        sweep = sketch_args(tmp_path / "g", command="sweep", delta="2")
        assert cli_main(sweep + GRID) == 1
        assert "--delta" in capsys.readouterr().err
        assert not (tmp_path / "x").exists() and not (tmp_path / "g").exists()

    @pytest.mark.parametrize("dataset,flag", [
        ("idx", "dim"), ("mnist", "separation"), ("mnist", "train-images"),
        ("blobs", "limit"), ("blobs", "data-dir"),
    ])
    def test_flag_the_dataset_never_reads_is_config_error(self, tmp_path, capsys, dataset, flag):
        assert cli_main(sketch_args(tmp_path / "x", dataset=dataset, **{flag: "5"})) == 1
        sweep = sketch_args(tmp_path / "g", dataset=dataset, command="sweep", **{flag: "5"})
        assert cli_main(sweep + GRID) == 1
        assert capsys.readouterr().err.count(f"does not read --{flag}") == 2
        assert not (tmp_path / "x").exists() and not (tmp_path / "g").exists()

    def test_missing_out_is_config_error(self, capsys):
        assert cli_main(["sketch", "--dataset", "blobs"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        args = sketch_args(tmp_path / "x", dataset="idx")
        args.extend(["--train-images", "/nonexistent/i", "--train-labels", "/nonexistent/l",
                     "--test-images", "/nonexistent/ti", "--test-labels", "/nonexistent/tl"])
        assert cli_main(args) == 2
        assert "runtime failure" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dataset,flag,value", [
        ("blobs", "n-per-class", "0"), ("blobs", "train-fraction", "1.5"), ("idx", "limit", "-3"),
    ])
    def test_dataset_field_out_of_range_is_config_error(self, tmp_path, capsys, dataset, flag, value):
        args = sketch_args(tmp_path / "x", dataset=dataset, **{flag: value})
        if dataset == "idx":
            args.extend(["--train-images", "a", "--train-labels", "b",
                         "--test-images", "c", "--test-labels", "d"])
        assert cli_main(args) == 1
        assert flag.replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_idx_dataset_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        d = tmp_path / "data"
        d.mkdir()
        save_idx(rng.integers(0, 256, (60, 4, 4), dtype=np.uint8),
                 rng.integers(0, 10, 60, dtype=np.uint8),
                 d / "tri", d / "trl")
        save_idx(rng.integers(0, 256, (20, 4, 4), dtype=np.uint8),
                 rng.integers(0, 10, 20, dtype=np.uint8),
                 d / "tei", d / "tel")
        args = sketch_args(
            tmp_path / "run", dataset="idx", arch="16,12,10", **{"t-end": "0.7"}
        )
        args.extend(["--train-images", str(d / "tri"), "--train-labels", str(d / "trl"),
                     "--test-images", str(d / "tei"), "--test-labels", str(d / "tel")])
        assert cli_main(args) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()


# sketch flags -> the config hash they must keep (existing run directories resume on it)
PINNED_CLI_HASHES = [
    ([], "32db080a1b52c603b6a10fe054088ff7428f8aa67594cda7feed47d99026821b"),
    (["--dataset", "mnist"], "bfc56ad8f41e5e913832188843b28bbe5b2a6898bf89976924beb6e7f9c73343"),
    (["--dataset", "mnist", "--data-dir", "d", "--limit", "10000", "--epsilon", "0.5",
      "--epochs", "30", "--seed", "7"],
     "44fd09331b9cf6c10ca594e370ac52dfec5d8d23dd3a2a4103570c0d9322b040"),
    (["--dataset", "idx", "--train-images", "a", "--train-labels", "b", "--test-images", "c",
      "--test-labels", "d", "--limit", "0"],
     "0c3adcdcf1e7e6d4597dd998ca4c4c2be5b30c9e4c59dcbd79e02d655a8cf4fe"),
    (["--n-per-class", "7", "--num-classes", "3", "--dim", "5", "--separation", "1.5",
      "--train-fraction", "0.6", "--data-seed", "4", "--arch", "5,9,3", "--epochs", "3",
      "--lr", "0.05", "--momentum", "0.5", "--lambda", "1e-4", "--batch-size", "16",
      "--milestones", "1,2", "--gamma", "0.5", "--seed", "2", "--epsilon", "0.3",
      "--noise-seed", "8", "--t-iter", "0.3", "--t-end", "0.95", "--scope", "global",
      "--run-id", "r"],
     "0a1d05e8ba395324578f3bf0dfa386e361851746fa241cc5df9e1896b72305b3"),
]


class TestFlagMapping:
    def test_cli_configs_keep_their_hashes(self, tmp_path, monkeypatch, capsys):
        hashes = []

        def capture(cfg, run_dir, on_round=None):
            hashes.append(cfg.config_hash())
            raise RuntimeError("captured")

        monkeypatch.setattr(sketch, "run_sketch", capture)
        for flags, _ in PINNED_CLI_HASHES:
            assert cli_main(["sketch", *flags, "--out", str(tmp_path / "x")]) == 2
        assert hashes == [h for _, h in PINNED_CLI_HASHES]

    def test_every_field_names_a_record_field(self):
        records = {"": SketchConfig, "train": TrainConfig, "dataset": DatasetSpec}
        for flag, (_conv, target, _help) in cli.SKETCH_OPTIONS.items():
            if target is not None:
                record, _, name = target.rpartition(".")
                assert name in {f.name for f in dataclasses.fields(records[record])}, flag

    def test_readme_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("sparse-lab ")]
        assert [argv[0] for argv in commands] == ["sketch", "sketch", "sweep", "probe", "report",
                                                  "selftest"]
        for argv in commands:
            args = cli._build_parser().parse_args(argv)
            if argv[0] in ("sketch", "sweep"):
                table = cli.SWEEP_OPTIONS if argv[0] == "sweep" else cli.SKETCH_OPTIONS
                cli._build_sketch_config(args, table)


class TestConfigFile:
    def test_file_values_used_and_cli_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "dataset = blobs\n"
            "dim = 8\n"
            "num-classes = 4\n"
            "n-per-class = 30\n"
            "epochs = 1\n"
            "t-iter = 0.3\n"
            "t-end = 0.8\n"
            "seed = 11\n"
            "run-id = from-file\n"
        )
        out = tmp_path / "r"
        code = cli_main(["sketch", "--config", str(cfg_file), "--out", str(out),
                         "--seed", "12"])  # CLI seed wins
        assert code == 0
        rows = parse_metrics_csv(out / "metrics.csv")
        assert rows[0]["run_id"] == "from-file"
        assert rows[0]["seed"] == 12

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("no-such-key = 5\n")
        assert cli_main(["sketch", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
        assert "no-such-key" in capsys.readouterr().err

    def test_config_key_the_dataset_never_reads_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "idx.cfg"
        cfg_file.write_text("dataset = idx\nn-per-class = 30\n")
        assert cli_main(["sketch", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1
        assert "does not read --n-per-class" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some words\n")
        assert cli_main(["sketch", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1


class TestSweepCommand:
    def test_grid_runs_and_reports(self, tmp_path, capsys):
        args = sketch_args(tmp_path / "grid", command="sweep")
        args.extend(["--lambdas", "0,0.0001", "--epsilons", "0.1", "--seeds", "3"])
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert (tmp_path / "grid" / "cli-test-lam0-eps0.1-s3" / "metrics.csv").exists()
        assert (tmp_path / "grid" / "cli-test-lam0.0001-eps0.1-s3" / "metrics.csv").exists()

    def test_foreign_cell_refused_before_any_cell_trains(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert cli_main(sketch_args(out, command="sweep") + GRID) == 0
        grid = ["--lambdas", "1e-4,0", "--epsilons", "0", "--seeds", "1"]
        assert cli_main(sketch_args(out, command="sweep", epochs="2") + grid) == 2
        assert "refusing to reuse" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["cli-test-lam0-eps0-s1"]

    def test_empty_grid_config_error(self, tmp_path, capsys):
        args = sketch_args(tmp_path / "grid", command="sweep")
        args.extend(["--lambdas", "", "--epsilons", "0.1", "--seeds", "1"])
        assert cli_main(args) == 1


class TestConfigBoundary:
    """Exit 1 with nothing written when a record rejects a value; exit 2 after that."""

    @pytest.mark.parametrize("flag,value", [
        ("t-iter", "1.5"), ("lr", "nan"), ("lr", "inf"), ("gamma", "inf"), ("lambda", "inf"),
        ("lambda", "nan"), ("separation", "nan"), ("separation", "inf"), ("noise-seed", "-1"),
    ])
    def test_rejected_value_exits_one_under_sketch_and_sweep(self, tmp_path, capsys, flag, value):
        assert cli_main(sketch_args(tmp_path / "x", **{flag: value})) == 1
        if flag == "lambda":  # sweep takes lambda only from its grid
            sweep = sketch_args(tmp_path / "g", command="sweep") + GRID[2:] + ["--lambdas", value]
        else:
            sweep = sketch_args(tmp_path / "g", command="sweep", **{flag: value}) + GRID
        assert cli_main(sweep) == 1
        assert "runtime failure" not in capsys.readouterr().err
        assert not (tmp_path / "x").exists() and not (tmp_path / "g").exists()

    @pytest.mark.parametrize("run_id", ["a,b", "a/b", "..", ".hidden", "../../esc"])
    def test_run_id_must_be_a_plain_name(self, tmp_path, capsys, run_id):
        out = tmp_path / "work" / "out"
        assert cli_main(sketch_args(out, **{"run-id": run_id})) == 1
        assert cli_main(sketch_args(out, command="sweep", **{"run-id": run_id}) + GRID) == 1
        assert capsys.readouterr().err.count("run_id") == 2
        assert list(tmp_path.iterdir()) == []

    def test_runtime_failure_in_a_cell_exits_two(self, tmp_path, capsys):
        # the data's 8 features do not fit a 4-input network: found only when the data loads
        assert cli_main(sketch_args(tmp_path / "x", arch="4,3,10")) == 2
        assert cli_main(sketch_args(tmp_path / "g", command="sweep", arch="4,3,10") + GRID) == 2
        assert capsys.readouterr().err.count("runtime failure: architecture expects input dim 4") == 2

    def test_too_few_outputs_for_the_classes_writes_nothing(self, tmp_path, capsys):
        # 4 classes do not fit 3 outputs: refused once the data loads, before any write
        out = tmp_path / "x"
        assert cli_main(sketch_args(out, arch="8,6,3")) == 2
        assert "architecture has 3 outputs, dataset has 4 classes" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(sketch_args(out, arch="8,6,4")) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("sizes", [
        {"n-per-class": "3", "num-classes": "2", "train-fraction": "0.05"},
        {"n-per-class": "1", "num-classes": "1"},
    ])
    def test_unsplittable_blobs_are_config_error(self, tmp_path, capsys, sizes):
        assert cli_main(sketch_args(tmp_path / "x", **sizes)) == 1
        assert cli_main(sketch_args(tmp_path / "g", command="sweep", **sizes) + GRID) == 1
        err = capsys.readouterr().err
        assert err.count("leaves an empty side") == 2 and "runtime failure" not in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_cell_refused_before_any_cell_runs(self, tmp_path, capsys):
        args = sketch_args(tmp_path / "g", command="sweep")
        assert cli_main(args + ["--lambdas", "0,-1", "--epsilons", "0", "--seeds", "1"]) == 1
        assert "weight_decay" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag,value", [("lambda", "0.5"), ("epsilon", "0.3"), ("seed", "5")])
    def test_sweep_takes_lambda_epsilon_seed_only_from_its_grids(self, tmp_path, capsys, flag, value):
        # without --{flag}s, a prefix match would read --{flag} as --{flag}s
        rest, at = list(GRID), GRID.index(f"--{flag}s")
        del rest[at:at + 2]
        assert cli_main(sketch_args(tmp_path / "g", command="sweep") + rest + [f"--{flag}", value]) == 1
        assert f"--{flag}" in capsys.readouterr().err
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"{flag} = {value}\n")
        args = sketch_args(tmp_path / "g", command="sweep") + GRID + ["--config", str(cfg_file)]
        assert cli_main(args) == 1
        assert repr(flag) in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_flags_are_not_abbreviated(self, tmp_path, capsys):
        assert cli_main(sketch_args(tmp_path / "x")[:-2] + ["--ou", str(tmp_path / "x")]) == 1
        assert "--ou" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestProbeAndReport:
    @pytest.fixture
    def run_dir(self, tmp_path):
        out = tmp_path / "runs" / "p"
        assert cli_main(sketch_args(out)) == 0
        return out

    def test_probe_fills_y_exc_column(self, run_dir, capsys):
        assert cli_main(["probe", "--run", str(run_dir)]) == 0
        assert (run_dir / "probes.json").exists()
        rows = parse_metrics_csv(run_dir / "metrics.csv")
        assert all(r["y_exc_l1"] is not None for r in rows[:-1])
        assert rows[-1]["y_exc_l1"] is None
        assert "probed" in capsys.readouterr().out

    def test_report_regenerates_identical_csv_and_curves(self, run_dir, capsys):
        before = (run_dir / "metrics.csv").read_bytes()
        assert cli_main(["report", "--run", str(run_dir), "--metrics", "test_acc,test_loss",
                         "--delta", "2.0"]) == 0
        assert (run_dir / "metrics.csv").read_bytes() == before
        assert (run_dir / "cli-test.test_acc.curve.csv").exists()
        assert (run_dir / "cli-test.test_loss.curve.csv").exists()
        assert (run_dir / "pairs.txt").exists()
        assert (run_dir / "phase.json").exists()

    def test_report_unknown_metric_config_error(self, run_dir, capsys):
        assert cli_main(["report", "--run", str(run_dir), "--metrics", "bogus"]) == 1
        assert "test_acc" in capsys.readouterr().err

    def test_report_refused_before_any_write(self, run_dir, capsys):
        def stamps():
            return {name: ((run_dir / name).read_bytes(), (run_dir / name).stat().st_mtime_ns)
                    for name in ("metrics.csv", "phase.json")}

        before = stamps()
        assert cli_main(["report", "--run", str(run_dir), "--delta", "5", "--metrics", "bogus"]) == 1
        assert "bogus" in capsys.readouterr().err
        assert stamps() == before
        assert not (run_dir / "pairs.txt").exists()

    def test_report_mixed_datasets_refused_before_any_write(self, run_dir, tmp_path, capsys):
        other = tmp_path / "runs" / "q"
        assert cli_main(sketch_args(other, **{"data-seed": "9", "run-id": "other"})) == 0
        dirs = (run_dir, other)
        before = {d: (d / "phase.json").stat().st_mtime_ns for d in dirs}
        assert cli_main(["report", "--run", str(run_dir), "--run", str(other), "--delta", "5"]) == 1
        assert "one dataset" in capsys.readouterr().err
        assert {d: (d / "phase.json").stat().st_mtime_ns for d in dirs} == before

    def test_report_shared_run_id_refused_before_any_write(self, run_dir, tmp_path, capsys):
        # both runs would write cli-test.test_acc.curve.csv, the second over the first
        other = tmp_path / "runs" / "q"
        assert cli_main(sketch_args(other, seed="4")) == 0
        dirs = (run_dir, other)
        before = {d: (d / "phase.json").stat().st_mtime_ns for d in dirs}
        out = tmp_path / "cmp"
        assert cli_main(["report", "--run", str(run_dir), "--run", str(other), "--out", str(out)]) == 1
        assert "share the run id 'cli-test'" in capsys.readouterr().err
        assert {d: (d / "phase.json").stat().st_mtime_ns for d in dirs} == before
        assert not out.exists()

    def test_report_needs_a_target(self, capsys):
        assert cli_main(["report"]) == 1

    def test_report_sweep_without_run_directories_names_it(self, tmp_path, capsys):
        (tmp_path / "grid" / "notes").mkdir(parents=True)
        assert cli_main(["report", "--sweep", str(tmp_path / "grid")]) == 1
        assert f"--sweep {tmp_path / 'grid'} holds no run directory" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_probe_size_below_one_is_config_error(self, run_dir, capsys, size):
        assert cli_main(["probe", "--run", str(run_dir), "--probe-size", size]) == 1
        assert "--probe-size" in capsys.readouterr().err
        assert not (run_dir / "probes.json").exists()

    @pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
    def test_report_delta_must_be_positive_and_finite(self, run_dir, capsys, delta):
        phase = (run_dir / "phase.json").read_bytes()
        assert cli_main(["report", "--run", str(run_dir), "--delta", delta]) == 1
        assert "--delta" in capsys.readouterr().err
        assert (run_dir / "phase.json").read_bytes() == phase
        assert not (run_dir / "pairs.txt").exists()

    @pytest.mark.parametrize("damage,error,message", [
        ("config_hash", ValueError, "round 1: checkpoint belongs to a different config"),
        ("torn", CheckpointError, "round 1: unreadable metrics"),
    ])
    def test_damaged_round_metrics_refused(self, run_dir, capsys, damage, error, message):
        path = run_dir / "round_001" / "metrics.json"
        if damage == "torn":
            path.write_bytes(path.read_bytes()[:40])
        else:
            path.write_text(json.dumps(json.loads(path.read_text()) | {"config_hash": "0" * 64}))
        with pytest.raises(error, match=message):
            completed_rounds(run_dir, read_config(run_dir).config_hash())
        assert cli_main(["probe", "--run", str(run_dir)]) == 2
        assert cli_main(["report", "--run", str(run_dir)]) == 2
        assert capsys.readouterr().err.count(f"runtime failure: {message}") == 2

    @pytest.mark.parametrize("name,command,key,damage,message", [
        ("config.json", "report", ("config", "train", "lr"), "drop",
         "missing field 'config.train.lr'"),
        ("config.json", "report", ("config", "dataset", "size"), "add",
         "unexpected field 'config.dataset.size'"),
        ("manifest.json", "sketch", ("note",), "add", "unexpected field 'note'"),
        ("manifest.json", "sketch", ("host",), "drop", "missing field 'host'"),
        ("round_003/metrics.json", "report", ("test_acc",), "drop", "round 3: .* missing field 'test_acc'"),
        ("round_003/metrics.json", "report", (), "list", "round 3: .* the record is not a JSON object"),
        ("probes.json", "report", (1, "y_exc_l1"), "drop", "missing field '\\[1\\].y_exc_l1'"),
        ("probes.json", "report", (0,), "list", "\\[0\\] is not a JSON object"),
        ("config.json", "report", ("config", "arch"), ("set", 5), "mistyped field 'config.arch'"),
        ("config.json", "report", ("config", "train", "lr"), ("set", "x"),
         "mistyped field 'config.train.lr'"),
        ("manifest.json", "sketch", ("threads", "OMP_NUM_THREADS"), ("set", 5),
         "mistyped field 'threads'"),
        ("config.json", "report", ("config", "scope"), ("set", "bogus"),
         "mistyped field 'config.scope'"),
    ])
    def test_malformed_record_names_file_and_field(self, run_dir, capsys, name, command, key, damage,
                                                   message):
        if name == "probes.json":
            assert cli_main(["probe", "--run", str(run_dir)]) == 0
        path = run_dir / name
        payload = damaged(json.loads(path.read_text()), key, damage)
        path.write_text(json.dumps(payload))
        argv = sketch_args(run_dir) if command == "sketch" else ["report", "--run", str(run_dir)]
        capsys.readouterr()
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert re.search(f"runtime failure: .*{message}", err) and str(path) in err, err

    def test_stored_value_a_record_rejects_exits_one(self, run_dir, capsys):
        # a record's own check is a ConfigError, read from a file or from a flag
        path = run_dir / "config.json"
        path.write_text(json.dumps(damaged(json.loads(path.read_text()), ("config", "train", "lr"),
                                           ("set", -1.0))))
        assert cli_main(["report", "--run", str(run_dir)]) == 1
        assert "error: lr must be positive" in capsys.readouterr().err

    def test_probe_then_report_keeps_probe_column(self, run_dir):
        assert cli_main(["probe", "--run", str(run_dir)]) == 0
        with_probes = (run_dir / "metrics.csv").read_bytes()
        assert cli_main(["report", "--run", str(run_dir)]) == 0
        assert (run_dir / "metrics.csv").read_bytes() == with_probes


class TestSelftest:
    def test_clean_build_exits_zero(self, capsys):
        assert cli_main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "gradient check" in out
        assert "prune oracle" in out
        assert "FAIL" not in out

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
