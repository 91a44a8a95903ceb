"""Smoke test of the criterion-6 spread probe (tests/overfit_spread.py) on
the tiny configuration: its nudges are what it says, and variant 0 is a
plain run."""

import numpy as np
import pytest

import overfit_spread as probe
from meshlift import train
from meshlift.train import build_models, train_full, train_posenet

from test_train import tiny_cfg, tiny_data


@pytest.fixture(scope="module")
def stage1(tmp_path_factory):
    cfg = tiny_cfg()
    _, samples = tiny_data()
    out = tmp_path_factory.mktemp("s1")
    return cfg, samples, train_posenet(cfg, samples, out_dir=out).checkpoint_path


def mesh_values(meshnet):
    return np.concatenate([p.data.reshape(-1).copy()
                           for _, p in meshnet.named_parameters()])


def test_variant_0_is_a_plain_run(stage1):
    cfg, samples, ckpt = stage1
    plain = train_full(cfg, samples, ckpt, max_iterations=4)
    probed = probe.stage2(cfg, samples, ckpt, variant=0, max_iterations=4)
    assert probed.trace == plain.trace
    np.testing.assert_array_equal(mesh_values(probed.meshnet),
                                  mesh_values(plain.meshnet))


@pytest.mark.parametrize("variant", [1, 2])
def test_variant_moves_its_share_by_one_ulp(stage1, variant):
    cfg, _, ckpt = stage1
    before = mesh_values(build_models(cfg)[4])
    with probe.nudged(variant):
        (_, _, _, _, meshnet), restored = train._restore_models(ckpt, cfg)
    assert "meshnet" not in restored
    after = mesh_values(meshnet)
    moved = np.flatnonzero(after != before)
    assert moved.size == round(probe.SHARE * before.size)
    np.testing.assert_array_equal(moved, probe.nudge_indices(before.size, variant))
    np.testing.assert_array_equal(after[moved],
                                  np.nextafter(before[moved], np.float32(np.inf)))
    assert train._restore_models.__name__ == "_restore_models"


def test_choice_is_the_same_on_every_call():
    first = probe.nudge_indices(10_000, 3)
    assert first.size == 100 and np.unique(first).size == 100
    np.testing.assert_array_equal(first, probe.nudge_indices(10_000, 3))
    assert not np.array_equal(first, probe.nudge_indices(10_000, 4))
