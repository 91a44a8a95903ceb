"""Trainable layers: linear, batchnorm, dropout, graph-conv block.

Weights are initialized uniform in (-s, s) with s = sqrt(6 / fan_in);
fan_in is n_in for linear layers and order * f_in for Chebyshev filters.
Biases start at zero, batchnorm at gamma=1 beta=0. A layer built with rng
None draws nothing: its weights are placeholders (uniform_weight) for the
checkpoint arrays that train.restore_state binds.
"""

from __future__ import annotations

import numpy as np

from meshlift import tensor as T
from meshlift.graphs import ChebFilter, ScaledLaplacian, chebyshev_conv
from meshlift.tensor import Tensor

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
INIT_BLOCK = 1 << 18  # about this many values per rng.uniform call


def uniform_weight(shape: tuple[int, int], fan_in: int,
                   rng: np.random.Generator | None, dtype=np.float32) -> Tensor:
    """A trainable (rows, cols) weight, uniform in (-s, s), s = sqrt(6 / fan_in).

    The values equal one rng.uniform(-s, s, shape) call cast to dtype, but
    are drawn in row blocks of about INIT_BLOCK values, so no full-size
    float64 temporary or copy is made. With rng None nothing is drawn or
    allocated: the weight is a read-only zero view of its shape, a
    placeholder for the checkpoint array that restore_state binds.
    """
    if rng is None:
        data = np.broadcast_to(np.zeros((), dtype=dtype), shape)
    else:
        s = np.sqrt(6.0 / fan_in)
        data = np.empty(shape, dtype=dtype)
        step = max(1, INIT_BLOCK // shape[1])
        for i in range(0, shape[0], step):
            block = data[i:i + step]
            block[...] = rng.uniform(-s, s, size=block.shape)
    w = Tensor._wrap(data)
    w.requires_grad = True
    return w


def _walk(name: str, value):
    """(dotted name, module or parameter) for value and everything below it.

    List items and ChebFilter coefficients are named by index; None and
    non-module objects (arrays, graphs, templates, numbers) are skipped.
    """
    if isinstance(value, ChebFilter):
        value = value.coefficients
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)
    elif isinstance(value, Module):
        yield name, value
        for attr, item in vars(value).items():
            yield from _walk(f"{name}.{attr}", item)
    elif isinstance(value, Tensor) and value.requires_grad:
        yield name, value


class Module:
    """Finds parameters (tensors with requires_grad) and batch norms by
    walking attributes in assignment order. The dotted names are the tensor
    names in checkpoints: renaming an attribute changes the file format."""

    def _items(self):
        for attr, value in vars(self).items():
            yield from _walk(attr, value)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self._items() if isinstance(p, Tensor)]

    def named_batchnorms(self) -> list[tuple[str, BatchNorm1d]]:
        return [(n, m) for n, m in self._items() if isinstance(m, BatchNorm1d)]


class Linear(Module):
    """y = x @ W + b for (batch, n_in) inputs."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.weight = uniform_weight((n_in, n_out), n_in, rng, dtype)
        self.bias = Tensor(np.zeros((1, n_out)), requires_grad=True, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        y = T.matmul(x, self.weight)
        return T.add(y, self.bias)


class BatchNorm1d(Module):
    """Per-feature normalization of an (..., features) input over all its
    leading axes: a (batch, features) lifter activation, or a (V, batch,
    features) mesh activation normalized over vertices and samples alike.
    Either is viewed as (rows, features) inside the op.

    Training mode normalizes by batch statistics (differentiable through
    them) and updates the running estimates with momentum 0.1; eval mode
    uses the frozen running estimates. Training on a batch of one is an
    error because the batch variance collapses. With relu=True the output
    is clamped at zero in place, the ReLU that follows every batch norm
    in both networks.

    One "batch_norm" tape entry, ReLU included. Its backward is the closed
    form (Ioffe & Szegedy, 2015), dx = gamma / sigma * (g - mean(g) - xhat
    * mean(g * xhat)) in training mode and g * gamma / sigma in eval mode,
    after g is masked by out > 0 when relu is set. Every elementwise
    expression keeps the order of the op chain it replaces (batch norm,
    then relu), so outputs, running estimates and gradients are
    bit-identical to that chain's. The column sums are einsums: on numpy
    2.4 they add the rows in the order of the axis-0 sum and give its bits
    (the chain-formula tests pin this), but run 2-4x faster and form no
    c * c or g * xhat temporary. The entry keeps only the centred input
    and its own output; backward recomputes xhat = centered / sigma, the
    same division.
    """

    def __init__(self, n: int, dtype=np.float32):
        self.gamma = Tensor(np.ones((1, n)), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros((1, n)), requires_grad=True, dtype=dtype)
        self.running_mean = np.zeros((1, n), dtype=dtype)
        self.running_var = np.ones((1, n), dtype=dtype)
        self.n = n

    def forward(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        n = self.n
        if x.ndim < 2 or x.shape[-1] != n:
            raise T.ShapeError("batchnorm", x.shape, (n,))
        dtype = T._check_dtype("batch_norm", x, self.gamma, self.beta)
        shape = x.shape
        xd = x.data.reshape(-1, n)
        b = xd.shape[0]
        if training:
            if b < 2:
                raise ValueError("batchnorm: training mode needs batch size >= 2")
            mean = np.einsum("ij->j", xd) / b
            centered = xd - mean
            var = np.einsum("ij,ij->j", centered, centered) / b
            sigma = np.sqrt(var + BN_EPS)
            self.running_mean = ((1 - BN_MOMENTUM) * self.running_mean
                                 + BN_MOMENTUM * mean).astype(dtype)
            self.running_var = ((1 - BN_MOMENTUM) * self.running_var
                                + BN_MOMENTUM * (var * (b / (b - 1)))).astype(dtype)
        else:
            centered = xd - self.running_mean.astype(dtype, copy=False)
            sigma = np.sqrt(self.running_var.astype(np.float64) + BN_EPS).astype(dtype)
        gamma = self.gamma.data
        out = centered / sigma  # xhat, then scaled and shifted in place
        out *= gamma
        out += self.beta.data
        if relu:
            np.maximum(out, 0, out=out)

        def bw(g, needs):
            g = g.reshape(-1, n)
            if relu:  # out > 0 exactly where the pre-ReLU output is
                g = g * (out > 0)
            xhat = centered / sigma
            gx = g * gamma
            dx = gx / sigma
            if training:  # through the batch variance (var = mean(c * c)), then mean
                gx *= xhat
                gx /= sigma
                t = np.multiply(-np.einsum("ij->j", gx) * (0.5 / sigma) / b,
                                centered, out=gx)
                dx += t
                dx += t
                dx += -np.einsum("ij->j", dx) / b
            return (dx.reshape(shape),
                    np.einsum("ij,ij->j", g, xhat).reshape(1, n),
                    np.einsum("ij->j", g).reshape(1, n))

        return T._apply("batch_norm", (x, self.gamma, self.beta),
                        out.reshape(shape), bw)


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when eval or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode needs an rng")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return T.mul(x, Tensor(mask, dtype=x.dtype))


def make_cheb_filter(f_in: int, f_out: int, order: int,
                     rng: np.random.Generator, dtype=np.float32) -> ChebFilter:
    return ChebFilter([uniform_weight((f_in, f_out), order * f_in, rng, dtype)
                       for _ in range(order)])


class GraphConvBlock(Module):
    """Chebyshev conv -> batchnorm (per feature over batch x vertices) -> ReLU,
    from a (V, batch, f_in) activation to a (V, batch, f_out) one: two tape
    entries, the conv and a batch norm with its ReLU fused (relu=True)."""

    def __init__(self, f_in: int, f_out: int, order: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.filter = make_cheb_filter(f_in, f_out, order, rng, dtype)
        self.bn = BatchNorm1d(f_out, dtype=dtype)

    def forward(self, x: Tensor, lap: ScaledLaplacian, training: bool) -> Tensor:
        y = chebyshev_conv(x, lap, self.filter, batch=x.shape[1])
        return self.bn.forward(y, training, relu=True)
