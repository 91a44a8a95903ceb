"""The names and layouts that perfbench's tracer pins.

``perfbench/tracer.py`` replaces meshlift functions and methods by name,
calls ``graphs.chebyshev_conv`` with four positional arguments, and
unpacks every tape entry as ``(op, inputs, out, bw)``. This installs the
tracer and runs one taped float32 convolution, and one set of mesh losses
and their weighted total, through the patched names and their backward,
so a renamed function or a changed entry layout fails here instead of
only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

from meshlift import graphs
from meshlift import tensor as T
from meshlift.data import generate_synthetic_dataset
from meshlift.graphs import build_pose_graph, scaled_laplacian
from meshlift.layers import make_cheb_filter
from meshlift.losses import LossWeights, compute_mesh_losses, total_mesh_loss
from meshlift.template import TubeBodySpec
from meshlift.tensor import Tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_times_a_taped_conv_and_its_backward():
    lap = scaled_laplacian(build_pose_graph(4, [(0, 1), (1, 2), (2, 3)], []))
    filt = make_cheb_filter(2, 3, 3, np.random.default_rng(0), np.float32)
    x = Tensor(np.random.default_rng(1).standard_normal((4, 2, 2)),
               requires_grad=True, dtype=np.float32)
    original = graphs.chebyshev_conv
    tracer = Tracer()
    tracer.install()
    try:
        assert graphs.chebyshev_conv is not original
        tracer.phase = "stage2"
        with T.Tape() as tape:
            loss = T.reduce_sum(graphs.chebyshev_conv(x, lap, filt, 2))
        entries = len(tape.entries)
        T.backward(loss)
    finally:
        tracer.uninstall()
    assert graphs.chebyshev_conv is original
    assert tracer.calls[("stage2", "cheb.pose")] == 1
    assert tracer.calls[("stage2", "backward")] == 1
    assert tracer.count[("stage2", "tape_entries")] == entries == 2
    # every backward rule ran through the timing wrapper the tracer wrote
    # back into its entry
    assert sum(n for (_, span), n in tracer.calls.items()
               if span.startswith("bw.")) == entries
    assert x.grad.shape == (4, 2, 2)
    assert all(c.grad is not None for c in filt.coefficients)


def test_tracer_times_each_mesh_loss_and_every_loss_backward():
    """perfbench's STEP_PARTS names the four mesh losses: each one's span
    records its call, and every entry of the losses' tape, the weighted
    total's included, runs its backward through the tracer's wrapper."""
    spec = TubeBodySpec(verts_per_ring=3, rings_per_bone=2)
    template, samples = generate_synthetic_dataset(spec, 2, seed=0)
    gt_mesh = np.stack([s.mesh for s in samples], axis=1)
    gt_joints = np.stack([s.pose3d for s in samples], axis=1)
    pred = Tensor(gt_mesh + np.random.default_rng(2).normal(0, 5, gt_mesh.shape),
                  requires_grad=True, dtype=np.float32)
    weights = LossWeights()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "stage2"
        with T.Tape() as tape:
            parts = compute_mesh_losses(pred, gt_mesh, gt_joints, template.faces,
                                        template.joint_regressor)
            total = total_mesh_loss(parts, weights, weights.edge_start_epoch)
        entries = [entry[0] for entry in tape.entries]
        T.backward(total)
    finally:
        tracer.uninstall()
    for span in ("vertex_loss", "joint_loss", "normal_loss", "edge_loss"):
        assert tracer.calls[("stage2", span)] == 1, span
    assert tracer.count[("stage2", "tape_entries")] == len(entries)
    assert entries[-1] == "total_mesh_loss"
    assert sum(n for (_, span), n in tracer.calls.items()
               if span.startswith("bw.")) == len(entries)
    assert pred.grad.shape == gt_mesh.shape
