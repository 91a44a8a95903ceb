"""End-to-end command coverage through main(argv), no subprocesses."""

import json

import numpy as np
import pytest

from meshlift.cli import build_parser, main
from meshlift.coarsen import graclus_coarsen
from meshlift.config import resolve_config
from meshlift.graphs import build_mesh_graph
from meshlift.template import build_tube_body

from dense_views import dense

TINY = {
    "template": {"verts_per_ring": 3, "rings_per_bone": 2},
    "model": {"hidden": 32, "pose_width": 8, "level_widths": [8, 8, 4],
              "levels": 2},
    "train": {"batch_size": 4, "stage1_epochs": 6, "stage1_decay_epoch": 3,
              "stage2_epochs": 4, "stage2_decay_epoch": 2,
              "stage1_lr": 1e-3, "stage2_lr": 1e-3,
              "loss_weights": {"edge_start_epoch": 3}},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file, generated dataset, and both training stages, shared."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    data_dir = root / "data"
    rc = main(["gen-data", "--config", str(cfg_path), "--seed", "3",
               "--out", str(data_dir), "--count", "12"])
    assert rc == 0
    pose_dir = root / "pose"
    rc = main(["train-pose", "--config", str(cfg_path), "--seed", "3",
               "--dataset", str(data_dir / "dataset.jsonl"),
               "--out", str(pose_dir)])
    assert rc == 0
    full_dir = root / "full"
    rc = main(["train-full", "--config", str(cfg_path), "--seed", "3",
               "--dataset", str(data_dir / "dataset.jsonl"),
               "--checkpoint", str(pose_dir / "posenet.ckpt"),
               "--out", str(full_dir)])
    assert rc == 0
    return {"cfg": cfg_path, "data": data_dir, "pose": pose_dir,
            "full": full_dir, "root": root}


class TestGenData:
    def test_artifacts(self, workspace):
        data = workspace["data"]
        assert (data / "template.json").exists()
        assert (data / "config.resolved.json").exists()
        lines = (data / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 12
        row = json.loads(lines[0])
        assert set(row) >= {"pose2d", "pose3d", "mesh"}

    def test_deterministic(self, workspace, tmp_path, capsys):
        again = tmp_path / "again"
        rc = main(["gen-data", "--config", str(workspace["cfg"]), "--seed", "3",
                   "--out", str(again), "--count", "12"])
        assert rc == 0
        capsys.readouterr()
        assert (again / "dataset.jsonl").read_bytes() == \
            (workspace["data"] / "dataset.jsonl").read_bytes()

    def test_seed_override_lands_in_echo(self, workspace, tmp_path, capsys):
        out = tmp_path / "seeded"
        rc = main(["gen-data", "--config", str(workspace["cfg"]),
                   "--seed", "99", "--out", str(out), "--count", "2"])
        assert rc == 0
        capsys.readouterr()
        echoed = json.loads((out / "config.resolved.json").read_text())
        assert echoed["seed"] == 99

    def test_template_file_overrides_only_its_keys(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY, "template": {**TINY["template"],
                                                       "tube_radius": 25.0}}))
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"verts_per_ring": 5}))
        out = tmp_path / "layered"
        rc = main(["gen-data", "--config", str(cfg), "--template", str(spec),
                   "--out", str(out), "--count", "1"])
        assert rc == 0
        capsys.readouterr()
        echoed = json.loads((out / "config.resolved.json").read_text())["template"]
        assert echoed["tube_radius"] == 25.0
        assert echoed["verts_per_ring"] == 5
        assert echoed["rings_per_bone"] == 2


class TestCoarsen:
    def test_prints_levels_and_doubling(self, workspace, capsys):
        rc = main(["coarsen", "--config", str(workspace["cfg"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "levels=2" in out
        assert "doubling: ok" in out
        assert out.count("level ") == 3  # levels 0..2

    def test_levels_flag(self, workspace, capsys):
        rc = main(["coarsen", "--config", str(workspace["cfg"]),
                   "--levels", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "levels=3" in out


    def test_prints_hierarchy_table(self, workspace, capsys):
        rc = main(["coarsen", "--config", str(workspace["cfg"]), "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [dict(kv.split("=") for kv in line.split(": ", 1)[1].split())
                for line in out.splitlines() if line.startswith("level ")]
        cfg = resolve_config("desk", TINY, {"seed": 3})
        h = graclus_coarsen(build_mesh_graph(build_tube_body(cfg.template)),
                            cfg.model.levels, seed=3)
        assert len(rows) == h.num_levels + 1
        for c, row in enumerate(rows):
            lap = h.scaled_laplacians[c]
            adjacency = dense(h.levels[c])
            assert int(row["vertices"]) == h.level_size(c)
            ids = h.tree_ids[c]
            assert (int(row["real"]), int(row["fake"])) == (np.sum(ids >= 0),
                                                            np.sum(ids < 0))
            assert int(row["lap_nnz"]) == np.count_nonzero(dense(lap))
            assert int(row["d_max"]) == np.count_nonzero(adjacency, axis=1).max()
            assert float(row["lambda_max"]) == pytest.approx(lap.lambda_max, abs=1e-6)
            assert row["converged"] == str(lap.converged).lower()
            if not lap.converged:
                assert row["lambda_max"] == "2.000000"


class TestGradcheck:
    def test_all_pass(self, workspace, capsys):
        rc = main(["gradcheck", "--config", str(workspace["cfg"])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count(" ok") >= 14

    def test_batch_norm_checks_cover_every_input(self, workspace, capsys):
        main(["gradcheck", "--config", str(workspace["cfg"])])
        names = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert {"layer.batch_norm", "layer.batch_norm.gamma",
                "layer.batch_norm.beta", "layer.batch_norm.eval",
                "layer.batch_norm.relu", "layer.batch_norm.relu.eval"} <= names


class TestTrainOutputs:
    def test_stage1_artifacts(self, workspace):
        pose = workspace["pose"]
        assert (pose / "posenet.ckpt").exists()
        trace = (pose / "trace_stage1.csv").read_text().splitlines()
        assert trace[0] == ("epoch,iter,lr,L_pose,L_vertex,L_joint,"
                            "L_normal,L_edge,L_total")
        assert len(trace) == 1 + TINY["train"]["stage1_epochs"]

    def test_stage2_artifacts(self, workspace):
        full = workspace["full"]
        assert (full / "full.ckpt").exists()
        trace = (full / "trace_stage2.csv").read_text().splitlines()
        # 12 samples / batch 4 = 3 iterations per epoch
        assert len(trace) == 1 + 3 * TINY["train"]["stage2_epochs"]


class TestEvalInferExport:
    def test_eval_writes_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["eval", "--config", str(workspace["cfg"]), "--seed", "3",
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--checkpoint", str(workspace["full"] / "full.ckpt"),
                   "--input", "gt2d", "--tau", "5", "--tau", "15",
                   "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "mpjpe_mm:" in printed
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm", "f_at"}
        assert set(report["f_at"]) == {"5.0", "15.0"}

    def test_eval_accepts_every_input_mode(self, workspace, capsys):
        # quality ordering across modes is a trained-model property and
        # lives in the acceptance suite; here only the plumbing matters
        for mode in ("gt2d", "gt3d", "synth"):
            rc = main(["eval", "--config", str(workspace["cfg"]), "--seed", "3",
                       "--dataset", str(workspace["data"] / "dataset.jsonl"),
                       "--checkpoint", str(workspace["full"] / "full.ckpt"),
                       "--input", mode])
            out = capsys.readouterr().out
            assert rc == 0
            val = float(out.split("mpjpe_mm:")[1].splitlines()[0])
            assert val == val and val >= 0.0

    def test_infer_writes_obj(self, workspace, tmp_path, capsys):
        out = tmp_path / "meshes"
        rc = main(["infer", "--config", str(workspace["cfg"]), "--seed", "3",
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--checkpoint", str(workspace["full"] / "full.ckpt"),
                   "--index", "2", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        obj = (out / "pred_0002.obj").read_text().splitlines()
        assert obj[0].startswith("v ")
        assert any(line.startswith("f ") for line in obj)

    def test_export_template_obj(self, workspace, tmp_path, capsys):
        target = tmp_path / "body.obj"
        rc = main(["export-obj", "--config", str(workspace["cfg"]),
                   "--out", str(target)])
        capsys.readouterr()
        assert rc == 0
        assert target.read_text().startswith("v ")

    def test_export_dataset_mesh(self, workspace, tmp_path, capsys):
        target = tmp_path / "sample.obj"
        rc = main(["export-obj", "--config", str(workspace["cfg"]),
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--index", "1", "--out", str(target)])
        capsys.readouterr()
        assert rc == 0
        assert target.read_text().startswith("v ")


class TestErrors:
    def test_missing_required_flag(self, workspace, tmp_path, capsys):
        rc = main(["train-pose", "--config", str(workspace["cfg"]),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "--dataset" in err

    def test_nonexistent_dataset(self, workspace, tmp_path, capsys):
        rc = main(["train-pose", "--config", str(workspace["cfg"]),
                   "--dataset", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["train-pose", "train-full"])
    def test_one_sample_dataset_is_rejected(self, workspace, tmp_path, capsys,
                                            command):
        data = tmp_path / "one"
        assert main(["gen-data", "--config", str(workspace["cfg"]), "--seed", "3",
                     "--out", str(data), "--count", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        start = (["--checkpoint", str(workspace["pose"] / "posenet.ckpt")]
                 if command == "train-full" else [])
        rc = main([command, "--config", str(workspace["cfg"]), "--seed", "3",
                   "--dataset", str(data / "dataset.jsonl"), "--out", str(out),
                   *start])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training needs at least 2 samples, the dataset has 1"]
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("widths", [[32, 64], [64, 0], [64, -3]])
    def test_bad_level_widths_stop_train_pose_before_training(
            self, workspace, tmp_path, capsys, widths):
        """train-full would reject the lifter checkpoint; train-pose fails
        when it resolves the config, and writes nothing."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY, "model": {**TINY["model"],
                                                     "level_widths": widths}}))
        out = tmp_path / "pose"
        rc = main(["train-pose", "--config", str(cfg), "--seed", "3",
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: config.model.level_widths: expected")
        assert not out.exists()

    def test_checkpoint_config_mismatch(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--config", str(workspace["cfg"]), "--seed", "4",
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--checkpoint", str(workspace["full"] / "full.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "mismatch" in err

    def test_export_rejects_meshes_that_do_not_fit_the_template(
            self, workspace, tmp_path, capsys):
        lines = (workspace["data"] / "dataset.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            rec["mesh"] = rec["mesh"][:-1]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        v = len(records[0]["mesh"])
        rc = main(["export-obj", "--config", str(workspace["cfg"]),
                   "--dataset", str(bad), "--out", str(tmp_path / "m.obj")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"sample 0: mesh has {v} vertices but the template has {v + 1}" in err

    def test_index_out_of_range(self, workspace, tmp_path, capsys):
        rc = main(["infer", "--config", str(workspace["cfg"]), "--seed", "3",
                   "--dataset", str(workspace["data"] / "dataset.jsonl"),
                   "--checkpoint", str(workspace["full"] / "full.ckpt"),
                   "--index", "99", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "out of range" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        capsys.readouterr()
        assert e.value.code == 2

    def test_bad_input_choice_exits_2(self, workspace, capsys):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--input", "oracle"])
        capsys.readouterr()
        assert e.value.code == 2


# Each command's flags: --config and --profile choose the config, and the
# others are the ones the command reads.
TAKES = {
    "gen-data": {"seed", "template", "count", "out"},
    "coarsen": {"seed", "template", "levels"},
    "gradcheck": {"seed"},
    "train-pose": {"seed", "template", "levels", "dataset", "out"},
    "train-full": {"seed", "template", "levels", "dataset", "checkpoint", "out"},
    "eval": {"seed", "template", "levels", "dataset", "checkpoint", "input",
             "tau", "out"},
    "infer": {"seed", "template", "levels", "dataset", "checkpoint", "input",
              "index", "out"},
    "export-obj": {"template", "dataset", "index", "out"},
}
SHARED = {"config", "profile", "seed", "template", "levels", "dataset",
          "checkpoint", "input", "tau", "out"}
FLAG_VALUES = {"config": "c.json", "profile": "paper", "seed": "5",
               "template": "t.json", "levels": "2", "dataset": "d.jsonl",
               "checkpoint": "m.ckpt", "input": "synth", "tau": "5",
               "count": "3", "index": "1", "out": "o"}


def test_flag_command_pairs():
    assert sum(2 + len(flags) for flags in TAKES.values()) == 55


@pytest.mark.parametrize("command", sorted(TAKES))
def test_command_takes_only_the_flags_it_reads(command, capsys):
    parser = build_parser()
    for flag in {"config", "profile"} | TAKES[command]:
        args = parser.parse_args([command, f"--{flag}", FLAG_VALUES[flag]])
        assert vars(args)[flag] not in (None, "desk", 0, 64), flag  # not a default
    for flag in sorted(SHARED - {"config", "profile"} - TAKES[command]):
        with pytest.raises(SystemExit) as e:
            main([command, f"--{flag}", FLAG_VALUES[flag]])
        assert e.value.code == 2, flag
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
