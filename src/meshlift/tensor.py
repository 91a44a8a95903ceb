"""Dense float tensors with taped reverse-mode differentiation.

Training math runs in float32; the numerical oracles (gradient checks,
spectral cross-checks) run the same ops in float64. Gradients are only
recorded while a Tape is active, so eval-mode forwards stay pure.

A tape keeps only what backward reads. Each entry is the 4-tuple (name,
inputs, output, backward_fn), in which the output is the entry's own
index on the tape and each input is the index of the entry that produced
it, the leaf Tensor itself when it needs a gradient, or None. Tensors are
not held, so an activation lives only as long as a backward rule keeps
its array; backward() drops each entry and each gradient once it has
been used, and sets .grad on leaves only. perfbench/tracer.py unpacks and
re-wraps entries by position, so the 4-tuple layout is fixed.

Broadcasting has one rule: add, sub and mul take operands of equal
shape, or one operand whose leading axis is 1 and whose other axes equal
the other's (a bias, a root joint), which is used for
every row; its gradient is the op's gradient summed over axis 0. matmul
is strictly 2-D. Every other batched layout is expressed through
explicit reshape / transpose / gather ops, so every recorded op keeps a
direct, auditable backward rule. The fused primitives
(graphs.chebyshev_conv, coarsen.upsample_features, layers.BatchNorm1d's
batch_norm and losses.face_edges) record one entry each through _apply,
with their own backward rule.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "GradCheckReport",
    "ShapeError",
    "Tape",
    "Tensor",
    "absolute",
    "active_tape",
    "add",
    "backward",
    "concat",
    "gather_rows",
    "gradient_check",
    "matmul",
    "mul",
    "norm_last",
    "normalize_last",
    "reduce_sum",
    "relu",
    "reshape",
    "scalar_mul",
    "sub",
    "transpose",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class ShapeError(ValueError):
    """An op received tensors whose shapes do not line up."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(int(d) for d in s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class Tape:
    """Execution-ordered record of primitive ops for one backward pass.

    Entries are appended in forward execution order, which is a valid
    topological order; backward() walks them in exact reverse. A tape can
    be consumed by backward() once, which drops its entries; a second call
    without a fresh forward is a hard error.
    """

    def __init__(self) -> None:
        self.entries: list[tuple] = []  # (name, input refs, index, backward_fn)
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")
        return False


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """N-d float array plus an optional gradient slot.

    data is always a contiguous float32 or float64 ndarray. grad, once
    populated by backward() on a leaf, has the same shape and dtype as
    data. A taped output carries its tape and its entry index there.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape", "index")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
                dtype = data.dtype
            else:
                dtype = np.float32
        self.data = np.ascontiguousarray(np.array(data, dtype=dtype))
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None
        self.index: int | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t.tape = None
        t.index = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _apply(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
           backward_fn: Callable) -> Tensor:
    out = Tensor._wrap(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape, out.index = tape, len(tape.entries)
        refs = tuple(t.index if t.tape is tape else t if t.requires_grad else None
                     for t in inputs)
        tape.entries.append((name, refs, out.index, backward_fn))
    return out


def _check_dtype(op: str, *ts: Tensor):
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise ValueError(f"{op}: dtype mismatch {d0} vs {t.data.dtype}")
    return d0


def _check_tensor(op: str, *ts):
    for t in ts:
        if not isinstance(t, Tensor):
            raise TypeError(f"{op}: expected Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# elementwise


def _check_pair(op: str, a: Tensor, b: Tensor) -> None:
    """Type, dtype and shape check shared by the elementwise binary ops."""
    _check_tensor(op, a, b)
    _check_dtype(op, a, b)
    sa, sb = a.shape, b.shape
    if sa != sb and not (len(sa) == len(sb) >= 1 and sa[1:] == sb[1:]
                         and 1 in (sa[0], sb[0])):
        raise ShapeError(op, sa, sb)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a full-shape gradient back to a one-row operand's shape."""
    return g if g.shape == shape else g.sum(axis=0, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_pair("add", a, b)
    sa, sb = a.shape, b.shape

    def bw(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(g, sb) if needs[1] else None)

    return _apply("add", (a, b), a.data + b.data, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_pair("sub", a, b)
    sa, sb = a.shape, b.shape

    def bw(g, needs):
        return (_unbroadcast(g, sa) if needs[0] else None,
                _unbroadcast(-g, sb) if needs[1] else None)

    return _apply("sub", (a, b), a.data - b.data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_pair("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g, needs):
        return (_unbroadcast(g * bd, ad.shape) if needs[0] else None,
                _unbroadcast(g * ad, bd.shape) if needs[1] else None)

    return _apply("mul", (a, b), ad * bd, bw)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    _check_tensor("scalar_mul", a)
    c = float(c)

    def bw(g, needs):
        return (g * c if needs[0] else None,)

    return _apply("scalar_mul", (a,), a.data * c, bw)


def absolute(a: Tensor) -> Tensor:
    _check_tensor("absolute", a)
    ad = a.data

    def bw(g, needs):
        # subgradient at 0 is 0 (np.sign(0) == 0)
        return (g * np.sign(ad) if needs[0] else None,)

    return _apply("absolute", (a,), np.abs(ad), bw)


def relu(a: Tensor) -> Tensor:
    _check_tensor("relu", a)
    out = np.maximum(a.data, 0)

    def bw(g, needs):  # out > 0 exactly where a > 0, and a can be freed
        return (g * (out > 0) if needs[0] else None,)

    return _apply("relu", (a,), out, bw)


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_tensor("matmul", a, b)
    _check_dtype("matmul", a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    ad, bd = a.data, b.data

    def bw(g, needs):
        ga = g @ bd.T if needs[0] else None
        gb = ad.T @ g if needs[1] else None
        return (ga, gb)

    return _apply("matmul", (a, b), ad @ bd, bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    _check_tensor("transpose", a)
    if axes is None:
        if a.ndim != 2:
            raise ShapeError("transpose", a.shape)
        axes = (1, 0)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("transpose", a.shape, axes)
    inv = tuple(np.argsort(axes))

    def bw(g, needs):
        return (np.ascontiguousarray(g.transpose(inv)) if needs[0] else None,)

    return _apply("transpose", (a,), np.ascontiguousarray(a.data.transpose(axes)), bw)


def reshape(a: Tensor, shape) -> Tensor:
    _check_tensor("reshape", a)
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError("reshape", a.shape, shape)
    old = a.shape

    def bw(g, needs):
        return (g.reshape(old) if needs[0] else None,)

    return _apply("reshape", (a,), a.data.reshape(shape), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ValueError("concat: empty input list")
    _check_tensor("concat", *ts)
    _check_dtype("concat", *ts)
    nd = ts[0].ndim
    axis = axis % nd
    ref = list(ts[0].shape)
    for t in ts[1:]:
        got = list(t.shape)
        if t.ndim != nd or got[:axis] + got[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise ShapeError("concat", ts[0].shape, t.shape)
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum([0] + sizes)

    def bw(g, needs):
        grads = []
        for i in range(len(sizes)):
            if needs[i]:
                sl = [slice(None)] * nd
                sl[axis] = slice(int(bounds[i]), int(bounds[i + 1]))
                grads.append(g[tuple(sl)])
            else:
                grads.append(None)
        return tuple(grads)

    return _apply("concat", ts, np.concatenate([t.data for t in ts], axis=axis), bw)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    _check_tensor("reduce_sum", a)
    shape = a.shape
    if axis is not None:
        axis = int(axis) % a.ndim
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g, needs):
        if not needs[0]:
            return (None,)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _apply("reduce_sum", (a,), out, bw)


def norm_last(a: Tensor) -> Tensor:
    """Euclidean norm along the last axis (the axis is dropped)."""
    _check_tensor("norm_last", a)
    ad = a.data
    r = np.sqrt(np.sum(ad * ad, axis=-1))

    def bw(g, needs):
        if not needs[0]:
            return (None,)
        denom = r[..., None]
        d = np.zeros_like(ad)
        np.divide(ad, denom, out=d, where=denom > 0)  # subgradient 0 at 0
        return (g[..., None] * d,)

    return _apply("norm_last", (a,), r, bw)


def normalize_last(a: Tensor, eps: float = 1e-8) -> Tensor:
    """Unit-normalize along the last axis; rows with norm < eps map to 0.

    The guard also zeroes the gradient of those rows, so degenerate rows
    contribute nothing to any downstream loss.
    """
    _check_tensor("normalize_last", a)
    ad = a.data
    r = np.sqrt(np.sum(ad * ad, axis=-1, keepdims=True))
    ok = r >= eps
    safe = np.where(ok, r, 1.0)
    out = np.where(ok, ad / safe, 0.0).astype(ad.dtype)

    def bw(g, needs):
        if not needs[0]:
            return (None,)
        gy = np.sum(g * out, axis=-1, keepdims=True)
        return (np.where(ok, (g - gy * out) / safe, 0.0).astype(out.dtype),)

    return _apply("normalize_last", (a,), out, bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows (axis 0) by an index list; repeats allowed.

    Backward scatter-adds the output gradient back into the source rows,
    so a row gathered twice receives the sum of both gradients.
    """
    _check_tensor("gather_rows", a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexError(f"gather_rows: index {int(bad)} out of range for {n} rows")
    shape = a.shape

    def bw(g, needs):
        if not needs[0]:
            return (None,)
        acc = np.zeros(shape, dtype=g.dtype)
        np.add.at(acc, idx, g)
        return (acc,)

    return _apply("gather_rows", (a,), a.data[idx], bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss over its recording tape.

    Sets .grad on every reachable leaf that requires a gradient
    (accumulating into any existing .grad); taped outputs get no .grad.
    Pending gradients are kept by entry index, and the sweep pops each
    entry and drops each gradient once it has been propagated, so memory
    falls as the sweep runs. Consumes the tape: calling backward a second
    time without re-running the forward raises.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward: loss must be a Tensor")
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise RuntimeError(
            "backward: loss is not attached to a tape; run the forward "
            "inside `with Tape():`")
    if tape.consumed:
        raise RuntimeError(
            "backward: tape already consumed; re-run the forward before "
            "calling backward again")
    tape.consumed = True
    entries, tape.entries = tape.entries, []

    # accumulated gradients, keyed by entry index or by leaf Tensor
    pending: dict = {loss.index: np.ones_like(loss.data)}
    while entries:
        _, refs, index, bw = entries.pop()
        g = pending.pop(index, None)
        if g is None:
            continue  # not an ancestor of the loss
        for ref, ig in zip(refs, bw(g, tuple(r is not None for r in refs))):
            if ref is not None and ig is not None:
                pending[ref] = pending[ref] + ig if ref in pending else ig
    for leaf, g in pending.items():  # every entry index has been popped
        leaf.grad = g if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# finite-difference oracle


class GradCheckReport(NamedTuple):
    max_rel_err: float
    worst_coord: int
    analytic: np.ndarray
    numeric: np.ndarray


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor,
                   epsilon: float = 1e-4) -> GradCheckReport:
    """Compare taped gradients of f against central finite differences.

    f must map a float64 tensor to a scalar tensor and be deterministic
    (fix any dropout masks; run batchnorm in a fixed mode). The relative
    error per coordinate is |a - n| / max(1e-8, |a| + |n|).
    """
    if x.data.dtype != np.float64:
        raise ValueError("gradient_check: x must be float64")
    base = x.data.copy()
    xg = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    with Tape():
        y = f(xg)
    if not isinstance(y, Tensor) or y.size != 1:
        raise ValueError("gradient_check: f must return a scalar Tensor")
    backward(y)
    if xg.grad is None:
        analytic = np.zeros_like(base)
    else:
        analytic = np.array(xg.grad, dtype=np.float64)
    ana = analytic.reshape(-1)
    if not np.all(np.isfinite(ana)):
        bad = int(np.flatnonzero(~np.isfinite(ana))[0])
        raise ValueError(f"gradient_check: non-finite analytic gradient at coordinate {bad}")

    flat = base.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        hi = base.copy()
        hi.reshape(-1)[i] += epsilon
        lo = base.copy()
        lo.reshape(-1)[i] -= epsilon
        fp = f(Tensor(hi, dtype=np.float64)).item()
        fm = f(Tensor(lo, dtype=np.float64)).item()
        num[i] = (fp - fm) / (2.0 * epsilon)
        if not np.isfinite(num[i]):
            raise ValueError(f"gradient_check: non-finite numeric derivative at coordinate {i}")

    rel = np.abs(ana - num) / np.maximum(1e-8, np.abs(ana) + np.abs(num))
    worst = int(np.argmax(rel)) if rel.size else 0
    worst_err = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(worst_err, worst, analytic, num.reshape(base.shape))
