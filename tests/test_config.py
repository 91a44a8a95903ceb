"""Config resolution: profiles, precedence, strictness, checkpoint checks."""

import json
import re
from pathlib import Path

import pytest

from meshlift.config import (RunConfig, check_checkpoint_config,
                             checkpoint_config, echo_config, from_dict,
                             load_config_file, resolve_config, to_dict)

DATA = Path(__file__).parent / "data"


class TestProfiles:
    def test_paper_defaults(self):
        cfg = resolve_config("paper")
        assert cfg.model.hidden == 4096
        assert cfg.model.level_widths == (64, 64, 32, 32)
        assert cfg.train.batch_size == 64
        assert cfg.train.stage1_epochs == 60
        assert cfg.train.stage1_decay_epoch == 30
        assert cfg.train.stage2_epochs == 15
        assert cfg.train.stage2_decay_epoch == 12
        assert cfg.train.loss_weights.edge == 20.0
        assert cfg.train.loss_weights.edge_start_epoch == 7
        assert cfg.train.include_pose_loss_stage2 is True

    def test_desk_profile_values(self):
        cfg = resolve_config("desk")
        assert cfg.model.hidden == 256
        assert cfg.model.dropout == 0.0
        assert cfg.model.across_level_residual is True
        assert cfg.train.batch_size == 32
        assert cfg.train.stage1_lr == cfg.train.stage2_lr == 0.03
        assert (cfg.train.stage1_epochs, cfg.train.stage1_decay_epoch) == (900, 450)
        assert (cfg.train.stage2_epochs, cfg.train.stage2_decay_epoch) == (1000, 800)
        assert cfg.train.freeze_posenet is True
        # never reached inside a desk run: the edge term swamps sign updates
        assert cfg.train.loss_weights.edge_start_epoch == 1001
        assert cfg.train.loss_weights.edge == 20.0  # weight itself untouched
        assert cfg.model.order == 3   # untouched by the profile
        assert cfg.model.levels == 3

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            resolve_config("huge")


class TestPrecedence:
    def test_file_overrides_profile(self):
        cfg = resolve_config("desk", {"model": {"hidden": 99}})
        assert cfg.model.hidden == 99
        assert cfg.train.batch_size == 32  # rest of profile kept

    def test_cli_overrides_file(self):
        cfg = resolve_config("desk", {"seed": 1}, {"seed": 42})
        assert cfg.seed == 42

    def test_nested_merge_keeps_siblings(self):
        cfg = resolve_config("desk", {"train": {"stage1_epochs": 50,
                                                "stage1_decay_epoch": 25}})
        assert cfg.train.stage1_epochs == 50
        assert cfg.train.batch_size == 32

    def test_partial_dict_override_merges_over_defaults(self):
        default = RunConfig().template.bone_lengths
        cfg = resolve_config("desk", {"template": {"bone_lengths": {"neck": 90.0}}},
                             {"template": {"bone_lengths": {"spine": 200.0}}})
        assert cfg.template.bone_lengths == {**default, "neck": 90.0, "spine": 200.0}
        assert list(cfg.template.bone_lengths) == list(default)
        with pytest.raises(ValueError, match="unknown bone 'tail'"):
            resolve_config("desk", overrides={"template": {"bone_lengths": {"tail": 1.0}}})


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            resolve_config("desk", {"modle": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError, match="unknown keys"):
            resolve_config("desk", {"model": {"hiden": 10}})
        with pytest.raises(ValueError, match="unknown keys"):
            resolve_config("desk", {"train": {"lr": 1.0}})
        with pytest.raises(ValueError, match="unknown"):
            resolve_config("desk", {"synth": {"p_mss": 0.1}})

    def test_validation_rules(self):
        with pytest.raises(ValueError, match="decay_epoch"):
            resolve_config("desk", {"train": {"stage1_epochs": 10,
                                              "stage1_decay_epoch": 10}})
        with pytest.raises(ValueError, match="lr"):
            resolve_config("desk", {"train": {"stage2_lr": 0.0}})
        with pytest.raises(ValueError, match="batch_size"):
            resolve_config("desk", {"train": {"batch_size": 1}})
        with pytest.raises(ValueError, match="input"):
            resolve_config("desk", {"eval": {"input": "oracle"}})
        with pytest.raises(ValueError, match="taus"):
            resolve_config("desk", {"eval": {"taus": []}})

    @pytest.mark.parametrize("widths", [[32, 64], [64, 0], [64, -3], []])
    def test_level_widths_positive_and_non_increasing(self, widths):
        with pytest.raises(ValueError, match=re.escape(
                f"config.model.level_widths: expected a non-empty, "
                f"non-increasing list of positives, got {widths}")):
            resolve_config("desk", {"model": {"level_widths": widths}})
        assert resolve_config("desk", {"model": {"level_widths": [64, 64, 8]}})

    @pytest.mark.parametrize("mask", [[-1], [], [0, 99], [3, 3]],
                             ids=["negative", "empty", "past-last-joint",
                                  "repeated"])
    def test_joint_mask_distinct_joint_indices(self, mask):
        with pytest.raises(ValueError, match=re.escape(
                f"config.eval.joint_mask: expected distinct joint indices in "
                f"0..11, got {mask}")):
            resolve_config("desk", {"eval": {"joint_mask": mask}})
        assert resolve_config("desk", {"eval": {"joint_mask": [11, 0]}})

    def test_loss_weights_parse(self):
        cfg = resolve_config("desk", {"train": {"loss_weights": {"edge": 5.0}}})
        assert cfg.train.loss_weights.edge == 5.0
        with pytest.raises(ValueError, match=r"config\.train\.loss_weights: "
                                             r"unknown keys \['edgy'\]"):
            resolve_config("desk", {"train": {"loss_weights": {"edgy": 5.0}}})


class TestFilesAndCheckpoints:
    def test_config_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 9, "model": {"levels": 2}}))
        cfg = resolve_config("desk", load_config_file(p))
        assert cfg.seed == 9 and cfg.model.levels == 2

    def test_bad_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_config_file(p)

    def test_echo_writes_resolved(self, tmp_path):
        cfg = resolve_config("desk", {"seed": 5})
        path = echo_config(cfg, tmp_path / "run")
        back = json.loads(path.read_text())
        assert back["seed"] == 5
        assert back["model"]["hidden"] == 256
        assert back["synth"]["enabled"] is True

    def test_checkpoint_cross_check(self):
        cfg = resolve_config("desk")
        stored = checkpoint_config(cfg)
        check_checkpoint_config(stored, cfg, True)  # no raise
        other = resolve_config("desk", {"seed": cfg.seed + 1})
        with pytest.raises(ValueError, match="mismatch on 'seed'"):
            check_checkpoint_config(stored, other, True)
        other2 = resolve_config("desk", {"model": {"levels": 2}})
        with pytest.raises(ValueError, match="mismatch on 'levels'"):
            check_checkpoint_config(stored, other2, True)

    @pytest.mark.parametrize("layer", [
        {"model": {"levels": 2}}, {"model": {"level_widths": [32, 16]}},
        {"model": {"order": 2}}, {"model": {"pose_width": 32}},
        {"model": {"across_level_residual": False}}, {"model": {"dropout": 0.1}},
        {"seed": 8}])
    def test_lifter_checkpoint_ignores_mesh_keys(self, layer):
        """The seed too: a lifter checkpoint's weights are loaded, not
        drawn, and the seed then draws only the fresh mesh regressor."""
        cfg = resolve_config("desk")
        check_checkpoint_config(checkpoint_config(cfg),
                                resolve_config("desk", layer), False)

    @pytest.mark.parametrize("layer, key", [
        ({"template": {"verts_per_ring": 5}}, "template"),
        ({"model": {"hidden": 128}}, "model.hidden"),
        ({"model": {"num_blocks": 3}}, "model.num_blocks")])
    def test_lifter_checkpoint_checks_lifter_keys(self, layer, key):
        cfg = resolve_config("desk")
        with pytest.raises(ValueError, match=f"mismatch on '{key}': "):
            check_checkpoint_config(checkpoint_config(cfg),
                                    resolve_config("desk", layer), False)

    @pytest.mark.parametrize("key, value", [
        ("across_level_residual", False), ("hidden", 128), ("num_blocks", 3),
        ("pose_width", 32)])
    def test_checkpoint_cross_check_names_model_keys(self, key, value):
        cfg = resolve_config("desk")
        stored = checkpoint_config(cfg)
        other = resolve_config("desk", {"model": {key: value}})
        with pytest.raises(ValueError, match=f"mismatch on 'model.{key}': "
                                             f"checkpoint has "):
            check_checkpoint_config(stored, other, True)


class TestCodec:
    @pytest.mark.parametrize("layer, path", [
        ({"synth": {"enabled": "false"}}, "config.synth.enabled"),
        ({"train": {"stage2_lr": float("nan")}}, "config.train.stage2_lr"),
        ({"eval": {"taus": [float("nan")]}}, "config.eval.taus[0]"),
        ({"template": {"tube_radius": float("inf")}},
         "config.template.tube_radius"),
        ({"template": {"verts_per_ring": 4.9}}, "config.template.verts_per_ring"),
        ({"seed": 7.5}, "config.seed"),
        ({"model": {"hidden": 3.7}}, "config.model.hidden"),
        ({"model": {"levels": True}}, "config.model.levels"),
        ({"model": {"level_widths": [64, "a"]}}, "config.model.level_widths[1]"),
        ({"train": {"loss_weights": 5}}, "config.train.loss_weights"),
    ])
    def test_malformed_value_names_its_path(self, layer, path):
        with pytest.raises(ValueError, match=re.escape(path + ": expected")):
            resolve_config("desk", layer)

    def test_json_forms_accepted(self):
        cfg = resolve_config("desk", {"synth": {"enabled": False},
                                      "train": {"decay_factor": 3},
                                      "eval": {"joint_mask": [0, 2]}})
        assert cfg.synth.enabled is False
        assert cfg.train.decay_factor == 3  # a JSON int is kept as given
        assert cfg.eval.joint_mask == (0, 2)

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_round_trip(self, profile):
        cfg = resolve_config(profile)
        assert from_dict(RunConfig, to_dict(cfg), "config") == cfg
        assert from_dict(RunConfig, json.loads(json.dumps(to_dict(cfg))),
                         "config") == cfg

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_echo_matches_golden_file(self, profile, tmp_path):
        path = echo_config(resolve_config(profile), tmp_path)
        golden = DATA / f"config_resolved_{profile}.json"
        assert path.read_bytes() == golden.read_bytes()
