"""Sketch orchestration: the prune/rewind/retrain loop, phases, resume, sweep."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparse_lab.reporting as reporting_mod
import sparse_lab.sketch as sketch_mod
from sparse_lab import (
    DatasetSpec,
    MlpArchitecture,
    PhaseReport,
    PruneScope,
    RoundMetrics,
    SketchConfig,
    SketchRun,
    TrainConfig,
    cli_main,
    detect_phases,
    init_params,
    load_dataset,
    load_run,
    probe_along_run,
    resume,
    run_sketch,
    sweep,
)
from sparse_lab.checkpoint import CheckpointError, save_params
from sparse_lab.reporting import write_phase_report
from sparse_lab.rundir import (
    ProbeResult,
    RunManifest,
    commit_round,
    completed_rounds,
    load_manifest,
    load_probes,
    read_config,
    round_dir,
    save_manifest,
    save_probes,
    write_config,
)
from sparse_lab.util import ConfigError


def tiny_config(run_id="t", epochs=1, t_iter=0.2, t_end=0.9, epsilon=0.0, seed=5, weight_decay=0.0):
    # layers sized so the per-layer floor recurrence can actually reach t_end
    return SketchConfig(
        run_id=run_id,
        arch=MlpArchitecture([6, 16, 3]),
        train=TrainConfig(epochs=epochs, lr=0.1, momentum=0.9, batch_size=16,
                          seed=seed, weight_decay=weight_decay),
        dataset=DatasetSpec(kind="blobs", n_per_class=30, num_classes=3, dim=6,
                            separation=3.0, data_seed=1),
        t_iter=t_iter,
        t_end=t_end,
        epsilon=epsilon,
        noise_seed=2,
    )


def curve_run(accs, delta_cfg=None):
    """Synthetic SketchRun with the given test accuracies (percent)."""
    cfg = tiny_config()
    rounds = [
        RoundMetrics(round=i, sparsity=i / len(accs), final_train_loss=0.1,
                     final_train_acc=0.9, test_loss=0.1, test_acc=a / 100.0,
                     wall_seconds=0.0)
        for i, a in enumerate(accs)
    ]
    return SketchRun(config=cfg, rounds=rounds)


@pytest.mark.parametrize("n_per_class,train_fraction", [(30, 0.8), (7, 0.35), (1, 0.5)])
def test_load_test_set_is_the_test_split_of_load_dataset(n_per_class, train_fraction):
    spec = DatasetSpec(kind="blobs", n_per_class=n_per_class, num_classes=3, dim=5,
                       train_fraction=train_fraction, data_seed=4)
    _, expected = sketch_mod.load_dataset(spec)
    alone = sketch_mod.load_test_set(spec)
    assert alone.features.tobytes() == expected.features.tobytes()
    assert alone.labels.tolist() == expected.labels.tolist()
    assert (alone.num_classes, alone.noise) == (expected.num_classes, None)


class TestRunSketch:
    def test_single_pruned_round_when_first_prune_crosses_t_end(self, tmp_path):
        run = run_sketch(tiny_config(t_iter=0.5, t_end=0.3), tmp_path / "r")
        assert len(run.rounds) == 2  # dense + 1 pruned
        assert run.rounds[0].sparsity == 0.0
        assert run.rounds[1].sparsity >= 0.3

    def test_round_count_matches_recurrence_oracle(self, tmp_path):
        cfg = tiny_config(t_iter=0.2, t_end=0.9)
        run = run_sketch(cfg, tmp_path / "r")
        # oracle: per-layer floor recurrence until total sparsity >= t_end
        living = [6 * 16, 16 * 3]
        total = sum(living)
        pruned_rounds = 0
        while (total - sum(living)) / total < cfg.t_end:
            living = [s - math.floor(cfg.t_iter * s) for s in living]
            pruned_rounds += 1
        assert len(run.rounds) - 1 == pruned_rounds
        assert run.rounds[-1].sparsity == (total - sum(living)) / total

    def test_sparsity_strictly_increasing(self, tmp_path):
        run = run_sketch(tiny_config(), tmp_path / "r")
        sparsities = [m.sparsity for m in run.rounds]
        assert all(b > a for a, b in zip(sparsities, sparsities[1:]))
        assert sparsities[0] == 0.0
        assert sparsities[-1] >= 0.9

    def test_identical_configs_identical_metrics(self, tmp_path):
        run_a = run_sketch(tiny_config(epsilon=0.2), tmp_path / "a")
        run_b = run_sketch(tiny_config(epsilon=0.2), tmp_path / "b")
        assert [dataclasses.asdict(m) | {"wall_seconds": 0} for m in run_a.rounds] == \
               [dataclasses.asdict(m) | {"wall_seconds": 0} for m in run_b.rounds]
        csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert csv_a == csv_b

    def test_arch_dataset_dim_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        bad = SketchConfig(
            run_id=cfg.run_id, arch=MlpArchitecture([7, 4, 3]), train=cfg.train,
            dataset=cfg.dataset, t_iter=cfg.t_iter, t_end=cfg.t_end,
            epsilon=cfg.epsilon, noise_seed=cfg.noise_seed,
        )
        with pytest.raises(ValueError, match="input dim"):
            run_sketch(bad, tmp_path / "r")
        assert not (tmp_path / "r").exists()

    def test_noise_applied_to_train_only(self, tmp_path):
        from sparse_lab import evaluate, inject_symmetric_noise, load_dataset
        from sparse_lab.checkpoint import load_params
        from sparse_lab.pruning import Mask

        cfg = tiny_config(epochs=2, epsilon=0.5, t_end=0.3)
        run = run_sketch(cfg, tmp_path / "r")
        train_clean, test_set = load_dataset(cfg.dataset)
        noisy, _ = inject_symmetric_noise(train_clean, cfg.epsilon, cfg.noise_seed)

        params = load_params(tmp_path / "r" / "round_000" / "params.bin")
        mask = Mask.full(params)
        dense = run.rounds[0]
        # stored train metrics come from the noisy labels...
        loss_noisy, acc_noisy = evaluate(params, mask, noisy)
        assert (loss_noisy, acc_noisy) == (dense.final_train_loss, dense.final_train_acc)
        # ...and differ from a clean-label evaluation
        _, acc_clean = evaluate(params, mask, train_clean)
        assert acc_clean != acc_noisy
        # stored test metrics come from the untouched test split
        loss_test, acc_test = evaluate(params, mask, test_set)
        assert (loss_test, acc_test) == (dense.test_loss, dense.test_acc)

    def test_rounds_hold_each_parameter_sized_array_once(self, tmp_path):
        # paper-shaped layers, a few small rounds: the peak falls in round 1's prune
        cfg = SketchConfig(
            run_id="lenet",
            arch=MlpArchitecture([784, 300, 100, 10]),
            train=TrainConfig(epochs=1, lr=0.05, batch_size=64, seed=3),
            dataset=DatasetSpec(kind="blobs", n_per_class=20, num_classes=10, dim=784,
                                separation=3.0, data_seed=4),
            t_iter=0.5,
            t_end=0.7,
        )
        data_bytes = sum(a.nbytes for ds in load_dataset(cfg.dataset) for a in (ds.features, ds.labels))
        param_bytes = 8 * cfg.arch.param_count()
        tracemalloc.start()
        try:
            run = run_sketch(cfg, tmp_path / "r")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.rounds) == 3
        # params, velocity, gradient scratch and mask, with room for one more set
        # of prune's survivor magnitudes and new mask, and for the pass buffers;
        # a resident copy of init, kept masked weights or a copy of the mask
        # made before the selection would each add a whole set
        assert peak <= data_bytes + 7 * param_bytes

    def test_truncated_init_stops_the_next_rewind(self, tmp_path):
        run_dir = tmp_path / "r"
        init = run_dir / "init.bin"

        def truncate_after_round_0(metrics):
            if metrics.round == 0:
                init.write_bytes(init.read_bytes()[:-8])

        with pytest.raises(CheckpointError, match="init.bin"):
            run_sketch(tiny_config(), run_dir, on_round=truncate_after_round_0)
        assert len(completed_rounds(run_dir, tiny_config().config_hash())) == 1


class TestDetectPhases:
    @staticmethod
    def exhaustive_oracle(accs, delta):
        """All (i, j, k) with i<j<k, acc[j] <= acc[i]-delta, acc[k] >= acc[j]+delta."""
        hits = []
        n = len(accs)
        for j in range(n):
            for i in range(j):
                for k in range(j + 1, n):
                    if accs[j] <= accs[i] - delta and accs[k] >= accs[j] + delta:
                        hits.append((i, j, k))
        return hits

    def test_monotone_curve_not_detected(self):
        report = detect_phases(curve_run([95, 94, 93, 90, 85, 60]), delta=2.0)
        assert report.detected is False
        assert self.exhaustive_oracle([95, 94, 93, 90, 85, 60], 2.0) == []

    def test_worked_example(self):
        accs = [90, 89, 80, 85, 88, 40]
        report = detect_phases(curve_run(accs), delta=2.0)
        assert report.detected is True
        assert report.dip_round == 2
        assert report.recovery_round == 4
        assert report.dip_sparsity == pytest.approx(2 / 6)
        assert report.recovery_sparsity == pytest.approx(4 / 6)
        assert report.collapse_round == 5
        # dip must be a qualifying middle index per the exhaustive oracle
        oracle_js = {j for _, j, _ in self.exhaustive_oracle(accs, 2.0)}
        assert report.dip_round in oracle_js

    def test_plateau_curve_not_detected(self):
        # all values within delta of each other until the final collapse
        report = detect_phases(curve_run([90.0, 89.5, 89.2, 89.6, 90.1, 40.0]), delta=2.0)
        assert report.detected is False
        assert report.collapse_round == 5

    def test_detection_agrees_with_oracle_on_random_curves(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            accs = list(rng.uniform(40, 99, size=int(rng.integers(4, 10))))
            delta = float(rng.uniform(0.5, 10.0))
            report = detect_phases(curve_run(accs), delta=delta)
            hits = self.exhaustive_oracle(accs, delta)
            assert report.detected == bool(hits)
            if report.detected:
                assert report.dip_round in {j for _, j, _ in hits}
                assert report.dip_sparsity < report.recovery_sparsity

    def test_too_few_rounds_rejected(self):
        with pytest.raises(ValueError, match="4 rounds"):
            detect_phases(curve_run([90, 80, 95]), delta=1.0)


class TestResume:
    def test_noop_resume_returns_complete_run(self, tmp_path):
        cfg = tiny_config()
        first = run_sketch(cfg, tmp_path / "r")
        again = resume(tmp_path / "r")
        assert [dataclasses.asdict(m) for m in again.rounds] == [dataclasses.asdict(m) for m in first.rounds]

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        cfg = tiny_config(epochs=2)
        straight = run_sketch(cfg, tmp_path / "a")

        real_train = sketch_mod.train
        calls = {"n": 0}

        def dying_train(*args, **kwargs):
            if calls["n"] == 4:  # crash in the 5th round (index 4)
                raise KeyboardInterrupt("simulated kill")
            calls["n"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(sketch_mod, "train", dying_train)
        with pytest.raises(KeyboardInterrupt):
            run_sketch(cfg, tmp_path / "b")
        monkeypatch.setattr(sketch_mod, "train", real_train)

        # completed rounds' files survived the crash untouched
        pre_kill = {
            k: (tmp_path / "b" / f"round_{k:03d}" / "metrics.json").read_bytes()
            for k in range(4)
        }
        resumed = resume(tmp_path / "b")
        for k in range(4):
            post = (tmp_path / "b" / f"round_{k:03d}" / "metrics.json").read_bytes()
            assert post == pre_kill[k]

        # science columns identical to the uninterrupted run, byte for byte
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert len(resumed.rounds) == len(straight.rounds)

    def test_init_write_cut_short_then_resume_finishes(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run_sketch(cfg, tmp_path / "a")

        real_write_bytes = Path.write_bytes

        def cut_short(path, data):
            if path.name.startswith("init.bin"):
                real_write_bytes(path, data[: len(data) // 2])
                raise KeyboardInterrupt("simulated kill mid-write")
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", cut_short)
        with pytest.raises(KeyboardInterrupt):
            run_sketch(cfg, tmp_path / "b")
        monkeypatch.setattr(Path, "write_bytes", real_write_bytes)

        resume(tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert not list((tmp_path / "b").rglob("*.tmp"))

    def test_kill_while_saving_a_mask_then_resume_reclaims_the_round(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run_sketch(cfg, tmp_path / "a")

        real_save = sketch_mod.save_tensors

        def killed_in_round_3(path, tensors):
            if path.parent.name == "round_003":
                # a real kill skips write_atomic's clean-up and leaves the temp file
                path.with_name(path.name + ".tmp").write_bytes(b"torn")
                raise KeyboardInterrupt("simulated kill while saving round 3's mask")
            return real_save(path, tensors)

        monkeypatch.setattr(sketch_mod, "save_tensors", killed_in_round_3)
        with pytest.raises(KeyboardInterrupt):
            run_sketch(cfg, tmp_path / "b")
        monkeypatch.setattr(sketch_mod, "save_tensors", real_save)
        partial = tmp_path / "b" / "round_003"
        assert sorted(p.name for p in partial.iterdir()) == ["mask.bin.tmp", "params.bin"]

        real_discard = sketch_mod.discard_partial_round
        reclaimed = []

        def watched_discard(run_dir, k):
            real_discard(run_dir, k)
            reclaimed.append((k, partial.exists()))

        monkeypatch.setattr(sketch_mod, "discard_partial_round", watched_discard)
        resume(tmp_path / "b")
        assert reclaimed == [(3, False)]
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert not list((tmp_path / "b").rglob("*.tmp"))

    def test_readers_leave_a_round_in_progress_alone(self, tmp_path):
        run = run_sketch(tiny_config(), tmp_path / "r")
        in_progress = tmp_path / "r" / f"round_{len(run.rounds):03d}"
        in_progress.mkdir()
        (in_progress / "params.bin").write_bytes(b"being written")

        assert len(load_run(tmp_path / "r").rounds) == len(run.rounds)
        batch = np.random.default_rng(3).standard_normal((4, 6))
        assert len(probe_along_run(tmp_path / "r", batch)) == len(run.rounds) - 1
        assert (in_progress / "params.bin").read_bytes() == b"being written"

    def test_resume_of_finished_run_writes_nothing(self, tmp_path):
        run_sketch(tiny_config(), tmp_path / "r")

        def files():
            return {p: (p.read_bytes(), p.stat().st_mtime_ns)
                    for p in (tmp_path / "r").rglob("*") if p.is_file()}

        before = files()
        resume(tmp_path / "r")
        assert files() == before

    def test_resume_of_finished_run_does_no_set_up(self, tmp_path, monkeypatch):
        first = run_sketch(tiny_config(), tmp_path / "r")
        calls = []

        def counting(name):
            real = getattr(sketch_mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("load_dataset", "load_params", "load_tensors"):
            monkeypatch.setattr(sketch_mod, name, counting(name))
        again = resume(tmp_path / "r")
        assert calls == []
        assert again.rounds == first.rounds
        assert again.phase_annotation == first.phase_annotation

    def test_resume_keeps_phase_report_written_by_report(self, tmp_path):
        run_sketch(tiny_config(), tmp_path / "r")
        assert cli_main(["report", "--run", str(tmp_path / "r"), "--delta", "5"]) == 0
        resume(tmp_path / "r")
        assert json.loads((tmp_path / "r" / "phase.json").read_text())["delta"] == 5.0

    def test_kill_before_finalizing_then_resume_finalizes(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run_sketch(cfg, tmp_path / "a")

        real_finalize = reporting_mod.finalize_run_dir

        def killed_once(run, run_dir):
            monkeypatch.setattr(reporting_mod, "finalize_run_dir", real_finalize)
            raise KeyboardInterrupt("simulated kill after the last round")

        monkeypatch.setattr(reporting_mod, "finalize_run_dir", killed_once)
        with pytest.raises(KeyboardInterrupt):
            run_sketch(cfg, tmp_path / "b")
        manifest = tmp_path / "b" / "manifest.json"
        assert json.loads(manifest.read_text())["finished_at"] is None
        assert not (tmp_path / "b" / "metrics.csv").exists()

        resume(tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert json.loads(manifest.read_text())["finished_at"] is not None

    def test_manifest_without_provenance_fields_resumes(self, tmp_path):
        # a manifest written before numpy, blas and threads were recorded,
        # left unfinished by a kill after the last round
        run_sketch(tiny_config(), tmp_path / "r")
        csv = (tmp_path / "r" / "metrics.csv").read_bytes()
        manifest = tmp_path / "r" / "manifest.json"
        old = json.loads(manifest.read_text())
        assert {"numpy", "blas", "threads"} <= old.keys()
        for key in ("numpy", "blas", "threads"):
            del old[key]
        manifest.write_text(json.dumps(old | {"finished_at": None}))
        resume(tmp_path / "r")
        resumed = json.loads(manifest.read_text())
        assert resumed["finished_at"] is not None
        assert resumed["numpy"] is resumed["blas"] is resumed["threads"] is None
        assert (tmp_path / "r" / "metrics.csv").read_bytes() == csv

    def test_config_without_manifest_resumes(self, tmp_path):
        # a kill between writing config.json and manifest.json leaves this
        cfg = tiny_config()
        run_sketch(cfg, tmp_path / "a")
        (tmp_path / "b").mkdir()
        write_config(tmp_path / "b", cfg)
        resume(tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["finished_at"] is not None

    def test_mismatched_config_refused(self, tmp_path):
        run_sketch(tiny_config(seed=5), tmp_path / "r")
        with pytest.raises(ValueError, match="different config"):
            run_sketch(tiny_config(seed=6), tmp_path / "r")

    def test_corrupt_checkpoint_names_round(self, tmp_path):
        cfg = tiny_config()
        run_sketch(cfg, tmp_path / "r")
        last = max(int(p.name.split("_")[1]) for p in (tmp_path / "r").glob("round_*"))
        bad = tmp_path / "r" / f"round_{last:03d}" / "params.bin"
        bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
        with pytest.raises(CheckpointError, match=f"round {last}"):
            resume(tmp_path / "r")

    def test_init_of_another_architecture_refused_before_any_round(self, tmp_path):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        save_params(run_dir / "init.bin", init_params(MlpArchitecture([6, 9, 3]), 5))
        with pytest.raises(CheckpointError, match="init.bin"):
            run_sketch(tiny_config(), run_dir)
        assert not list(run_dir.glob("round_*"))

    @staticmethod
    def killed_after(cfg, run_dir, rounds, monkeypatch):
        """Run ``cfg`` into ``run_dir`` until ``rounds`` rounds are complete."""
        real_train = sketch_mod.train

        def dying_train(*args, **kwargs):
            if len(completed_rounds(run_dir, cfg.config_hash())) == rounds:
                raise KeyboardInterrupt("simulated kill")
            return real_train(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(sketch_mod, "train", dying_train)
            with pytest.raises(KeyboardInterrupt):
                run_sketch(cfg, run_dir)

    def test_resume_decodes_init_only_to_rewind(self, tmp_path, monkeypatch):
        cfg = tiny_config(epochs=2)
        run_sketch(cfg, tmp_path / "a")
        run_dir = tmp_path / "b"
        self.killed_after(cfg, run_dir, 2, monkeypatch)
        events = []
        real_load, real_prune = sketch_mod.load_params, sketch_mod.prune

        def load_params(path, *args, **kwargs):
            events.append(Path(path).name)
            return real_load(path, *args, **kwargs)

        def prune(*args, **kwargs):
            events.append("prune")
            return real_prune(*args, **kwargs)

        monkeypatch.setattr(sketch_mod, "load_params", load_params)
        monkeypatch.setattr(sketch_mod, "prune", prune)
        resume(run_dir)
        # the layout comes from init.bin's headers: the resume decodes only the
        # last round's files, and init.bin first as the next rewind's target
        assert events[:4] == ["params.bin", "mask.bin", "prune", "init.bin"]
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()

    def test_resume_refuses_init_of_another_architecture(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "r"
        self.killed_after(tiny_config(), run_dir, 1, monkeypatch)
        save_params(run_dir / "init.bin", init_params(MlpArchitecture([6, 9, 3]), 5))
        with pytest.raises(CheckpointError, match="init.bin"):
            resume(run_dir)
        assert len(list(run_dir.glob("round_*"))) == 1

    def test_tampered_config_refused(self, tmp_path):
        run_sketch(tiny_config(), tmp_path / "r")
        cfg_path = tmp_path / "r" / "config.json"
        payload = json.loads(cfg_path.read_text())
        payload["config"]["epsilon"] = 0.9
        cfg_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash mismatch"):
            resume(tmp_path / "r")


class TestSweep:
    def test_vanilla_l2_pair(self, tmp_path):
        runs = sweep(tiny_config("base"), [0.0, 1e-4], [0.1], [3], tmp_path)
        assert len(runs) == 2
        assert runs[0].config.run_id == "base-lam0-eps0.1-s3"
        assert runs[1].config.run_id == "base-lam0.0001-eps0.1-s3"
        assert runs[0].config.train.weight_decay == 0.0
        assert runs[1].config.train.weight_decay == 1e-4

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(tiny_config(), [], [0.1], [1], tmp_path)

    def test_product_count_and_distinct_ids(self, tmp_path):
        cfg = tiny_config("grid", t_end=0.5, epochs=0)
        runs = sweep(cfg, [0.0, 1e-4], [0.1, 0.2, 0.5], [1, 2], tmp_path)
        assert len(runs) == 12
        ids = [r.config.run_id for r in runs]
        assert len(set(ids)) == 12

    def test_duplicate_grid_values_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            sweep(tiny_config(), [0.0, 0.0], [0.1], [1], tmp_path)

    @pytest.mark.parametrize("lambdas,seeds", [([0.0, -1.0], [1]), ([0.0, math.nan], [1]), ([0.0], [1, -2])])
    def test_bad_cell_refused_before_any_cell_runs(self, tmp_path, lambdas, seeds):
        with pytest.raises(ConfigError):
            sweep(tiny_config(), lambdas, [0.1], seeds, tmp_path / "g")
        assert not (tmp_path / "g").exists()

    def test_rerunning_sweep_reuses_finished_runs(self, tmp_path):
        cfg = tiny_config("re", t_end=0.5)
        first = sweep(cfg, [0.0], [0.2], [1], tmp_path)
        mtime = (tmp_path / first[0].config.run_id / "round_000" / "metrics.json").stat().st_mtime_ns
        second = sweep(cfg, [0.0], [0.2], [1], tmp_path)
        assert (tmp_path / first[0].config.run_id / "round_000" / "metrics.json").stat().st_mtime_ns == mtime
        assert [dataclasses.asdict(m) for m in first[0].rounds] == [dataclasses.asdict(m) for m in second[0].rounds]


def every_field_config(limit=100):
    return SketchConfig(
        run_id="golden",
        arch=MlpArchitecture([8, 16, 4]),
        train=TrainConfig(epochs=5, lr=0.05, momentum=0.5, weight_decay=1e-4, batch_size=32,
                          lr_milestones=(2, 4), lr_gamma=0.5, seed=3),
        dataset=DatasetSpec(kind="idx", train_images="a", train_labels="b",
                            test_images="c", test_labels="d", limit=limit),
        t_iter=0.25, t_end=0.9, scope=PruneScope.GLOBAL, epsilon=0.3, noise_seed=9,
    )


def stored_round(k=2):
    return RoundMetrics(round=k, sparsity=0.36, final_train_loss=0.25, final_train_acc=0.875,
                        test_loss=0.5, test_acc=0.75, wall_seconds=1.5, config_hash="ab" * 32,
                        epoch_train_loss=(2.3025850929940455, 0.6931471805599453, 0.1),
                        epoch_train_acc=(0.1, 0.5, 0.9))


def write_rounds(run_dir, rounds):
    for metrics in rounds:
        round_dir(run_dir, metrics.round).mkdir()
        commit_round(run_dir, metrics)


# (writer, reader, record): each stored record reads back equal to what was written
STORED_RECORDS = {
    "config": (write_config, read_config, every_field_config()),
    "manifest": (save_manifest, load_manifest, RunManifest(
        run_id="golden", config_hash="ab" * 32, tool_version="0.1.0", started_at="t0",
        finished_at=None, host="h", numpy="2.4.6", blas="scipy-openblas",
        threads={"SPARSE_LAB_THREADS": "1", "OMP_NUM_THREADS": None})),
    "rounds": (write_rounds, lambda d: completed_rounds(d, "ab" * 32),
               [stored_round(k) for k in range(3)]),
    "probes": (save_probes, load_probes, [
        ProbeResult(y_exc_l1=0.5, per_layer_amplification=(1.25, 0.75), weight_l1_masked_out=3.0,
                    condition1_score=0.125, condition2_score=1.25),
        ProbeResult(y_exc_l1=0, per_layer_amplification=(), weight_l1_masked_out=0.0,
                    condition1_score=0.0, condition2_score=0.0)]),
}


class TestConfigRoundTrip:
    def test_config_hash_is_pinned(self):
        # existing run directories resume only while these hashes hold
        small = SketchConfig(
            run_id="t", arch=MlpArchitecture([8, 16, 4]), train=TrainConfig(epochs=1),
            dataset=DatasetSpec(kind="blobs", dim=8, num_classes=4, n_per_class=20), t_end=0.5,
        )
        assert small.config_hash() == "ad03002e6b58d9caa072cb19f56c858d9ae5f802a46753db5ea64de7f6d7eae2"
        every_field = SketchConfig(
            run_id="golden",
            arch=MlpArchitecture([8, 16, 4]),
            train=TrainConfig(epochs=5, lr=0.05, momentum=0.5, weight_decay=1e-4, batch_size=32,
                              lr_milestones=(2, 4), lr_gamma=0.5, seed=3),
            dataset=DatasetSpec(kind="idx", train_images="a", train_labels="b",
                                test_images="c", test_labels="d", limit=100),
            t_iter=0.25, t_end=0.9, scope=PruneScope.GLOBAL, epsilon=0.3, noise_seed=9,
        )
        assert every_field.config_hash() == "0b0f162795d77e0fe043091d6ab07f170dc60b20443664788475d9eba632166b"

    def test_json_round_trip_preserves_hash(self, tmp_path):
        cfg = tiny_config(epsilon=0.25)
        write_config(tmp_path, cfg)
        rebuilt = read_config(tmp_path)
        assert rebuilt.config_hash() == cfg.config_hash()
        assert rebuilt == cfg

    @pytest.mark.parametrize("name", list(STORED_RECORDS))
    def test_stored_record_round_trips(self, tmp_path, name):
        write, read, record = STORED_RECORDS[name]
        write(tmp_path, record)
        assert read(tmp_path) == record

    def test_round_metrics_bytes_are_pinned(self, tmp_path):
        # the sha256 of what commit_round wrote for this round before the
        # config hash and the epoch history were fields of RoundMetrics
        write_rounds(tmp_path, [stored_round()])
        written = (tmp_path / "round_002" / "metrics.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == \
            "9b03942e68a72e24a16ff924e92b10044f019ccbc42c40fc2e2c77e572f14b17"

    @pytest.mark.parametrize("limit", [None, 100])
    def test_config_without_dataset_limit_loads_only_when_it_was_none(self, tmp_path, limit):
        # a field whose default is None may be absent; the stored hash still decides
        cfg = every_field_config(limit)
        write_config(tmp_path, cfg)
        path = tmp_path / "config.json"
        payload = json.loads(path.read_text())
        del payload["config"]["dataset"]["limit"]
        path.write_text(json.dumps(payload))
        if limit is None:
            assert read_config(tmp_path) == cfg
        else:
            with pytest.raises(ValueError, match="config hash mismatch"):
                read_config(tmp_path)

    @pytest.mark.parametrize("kind,name,value", [("blobs", "limit", 5), ("blobs", "train_images", "a"),
                                                 ("idx", "dim", 8), ("idx", "data_seed", 1)])
    def test_dataset_field_its_kind_never_reads_refused(self, kind, name, value):
        # else one dataset would have a config hash per value of a field it ignores
        paths = {"train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"}
        given = (paths if kind == "idx" else {}) | {name: value}
        with pytest.raises(ConfigError, match=f"dataset kind {kind} does not read {name}"):
            DatasetSpec(kind=kind, **given)

    def test_phase_report_serializes(self, tmp_path):
        report = PhaseReport(detected=True, delta=2.0, dip_round=3, recovery_round=5,
                             dip_sparsity=0.5, recovery_sparsity=0.7)
        write_phase_report(tmp_path, report)
        payload = json.loads((tmp_path / "phase.json").read_text())
        assert payload["detected"] is True
        assert payload["dip_round"] == 3
