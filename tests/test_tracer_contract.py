"""The names and layouts that perfbench's tracer pins.

``perfbench/tracer.py`` replaces meshlift functions and methods by name,
calls ``graphs.chebyshev_conv`` with four positional arguments, and
unpacks every tape entry as ``(op, inputs, out, bw)``. This installs the
tracer, runs one taped float32 convolution through the patched name and
its backward, so a renamed function or a changed entry layout fails here
instead of only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

from meshlift import graphs
from meshlift import tensor as T
from meshlift.graphs import build_pose_graph, scaled_laplacian
from meshlift.layers import make_cheb_filter
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
