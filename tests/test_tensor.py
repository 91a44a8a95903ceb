"""Tensor engine: forward values, taped backward, finite-difference oracle."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshlift import tensor as T
from meshlift.tensor import GradCheckReport, ShapeError, Tape, Tensor


def rand(*shape, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(dtype)


def grad_of(build, *leaves):
    """Run build() under a fresh tape, backward, return leaf grads."""
    with Tape():
        loss = build()
    T.backward(loss)
    return [lf.grad for lf in leaves]


class TestForwardValues:
    def test_add_sub_mul(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose(T.add(a, b).data, [[6, 8], [10, 12]])
        np.testing.assert_allclose(T.sub(a, b).data, [[-4, -4], [-4, -4]])
        np.testing.assert_allclose(T.mul(a, b).data, [[5, 12], [21, 32]])

    def test_matmul(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(T.matmul(a, b).data, [[11.0]])

    def test_reductions(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert T.reduce_sum(a).item() == 15.0

    def test_gather_rows_and_one_row_operands(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(T.gather_rows(a, [1, 0, 1]).data,
                                   [[3, 4], [1, 2], [3, 4]])
        # a one-row operand is used for every row, on either side
        b = Tensor(np.array([[7.0, 8.0]]))
        np.testing.assert_allclose(T.add(a, b).data, [[8, 10], [10, 12]])
        np.testing.assert_allclose(T.sub(b, a).data, [[6, 6], [4, 4]])
        np.testing.assert_allclose(T.mul(a, b).data, [[7, 16], [21, 32]])

    def test_concat_transpose_reshape(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(T.concat([a, b], axis=0).data, [[1, 2], [3, 4]])
        np.testing.assert_allclose(T.concat([a, b], axis=1).data, [[1, 2, 3, 4]])
        c = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        np.testing.assert_allclose(T.transpose(c, (1, 0)).data, c.data.T)
        d = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        np.testing.assert_allclose(T.transpose(d, (1, 0, 2)).data,
                                   d.data.transpose(1, 0, 2))
        np.testing.assert_allclose(T.reshape(c, (3, 2)).data, c.data.reshape(3, 2))


class TestErrors:
    def test_shape_mismatch_names_op(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="add"):
            T.add(a, b)
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(a, a)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("other", [(3, 1), (2, 4), (4,), (1, 1, 4)])
    def test_only_one_row_operands_broadcast(self, op, other):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones(other))
        f = getattr(T, op)
        with pytest.raises(ShapeError, match=op):
            f(a, b)
        with pytest.raises(ShapeError, match=op):
            f(b, a)

    def test_dtype_mismatch(self):
        a = Tensor(np.zeros(3), dtype=np.float32)
        b = Tensor(np.zeros(3), dtype=np.float64)
        with pytest.raises(ValueError, match="dtype"):
            T.add(a, b)

    def test_gather_out_of_range(self):
        a = Tensor(np.zeros((2, 2)))
        with pytest.raises(IndexError, match="gather_rows"):
            T.gather_rows(a, [0, 2])

    def test_backward_requires_scalar(self):
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        with Tape():
            y = T.mul(a, a)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(y)

    def test_backward_without_tape(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        y = T.reduce_sum(T.mul(a, a))  # no tape active: nothing recorded
        with pytest.raises(RuntimeError, match="tape"):
            T.backward(y)

    def test_double_backward_is_hard_error(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with Tape():
            y = T.reduce_sum(T.mul(a, a))
        T.backward(y)
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(y)

    def test_backward_frees_tape_without_cyclic_gc(self):
        # taped outputs point back at their tape, so the tape must not keep
        # holding them once backward is done
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                y = T.reduce_sum(T.mul(a, T.mul(a, Tensor(np.full(3, 2.0)))))
            T.backward(y)
            ref = weakref.ref(tape)
            del tape, y
            assert ref() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(a.grad, 4.0)


class TestBackwardValues:
    def test_add_mul_chain(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True, dtype=np.float64)
        b = Tensor(np.array([4.0, 5.0]), requires_grad=True, dtype=np.float64)
        (ga, gb) = grad_of(lambda: T.reduce_sum(T.mul(T.add(a, b), b)), a, b)
        np.testing.assert_allclose(ga, [4.0, 5.0])   # d/da sum((a+b)*b) = b
        np.testing.assert_allclose(gb, [10.0, 13.0])  # a + 2b

    def test_matmul_grads(self):
        a = Tensor(rand(2, 3, seed=1), requires_grad=True)
        b = Tensor(rand(3, 4, seed=2), requires_grad=True)
        (ga, gb) = grad_of(lambda: T.reduce_sum(T.matmul(a, b)), a, b)
        ones = np.ones((2, 4))
        np.testing.assert_allclose(ga, ones @ b.data.T)
        np.testing.assert_allclose(gb, a.data.T @ ones)

    def test_matmul_leading_axes_equal_reshape_chain(self):
        """A (V, B, k) left operand goes through one gemm over its V * B
        rows: the values and both gradients are the bits of the reshape ->
        matmul -> reshape chain, in one tape entry instead of three."""
        g = Tensor(rand(5, 3, 2, seed=3, dtype=np.float32))
        runs = []
        for direct in (True, False):
            a = Tensor(rand(5, 3, 4, seed=1, dtype=np.float32), requires_grad=True)
            b = Tensor(rand(4, 2, seed=2, dtype=np.float32), requires_grad=True)
            with Tape() as tape:
                if direct:
                    y = T.matmul(a, b)
                else:
                    y = T.reshape(T.matmul(T.reshape(a, (15, 4)), b), (5, 3, 2))
                loss = T.reduce_sum(T.mul(y, g))
            entries = len(tape.entries) - 2  # without mul and reduce_sum
            T.backward(loss)
            runs.append((entries, y.data, a.grad, b.grad))
        assert runs[0][0] == 1 and runs[1][0] == 3
        assert runs[0][1].shape == (5, 3, 2) and runs[0][2].shape == (5, 3, 4)
        for got, want in zip(runs[0][1:], runs[1][1:]):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.zeros((5, 3, 4))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 4, 2))))

    def test_gather_scatter_adds_repeats(self):
        a = Tensor(np.array([[1.0], [2.0]]), requires_grad=True, dtype=np.float64)
        (ga,) = grad_of(lambda: T.reduce_sum(T.gather_rows(a, [0, 0, 1])), a)
        np.testing.assert_allclose(ga, [[2.0], [1.0]])

    def test_same_tensor_both_sides(self):
        a = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
        (ga,) = grad_of(lambda: T.reduce_sum(T.mul(a, a)), a)
        np.testing.assert_allclose(ga, [6.0])

    def test_grad_accumulates_across_tapes(self):
        a = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        for _ in range(2):
            with Tape():
                y = T.reduce_sum(T.mul(a, Tensor(np.full(2, 3.0))))
            T.backward(y)
        np.testing.assert_allclose(a.grad, [6.0, 6.0])

    def test_no_recording_without_tape(self):
        a = Tensor(np.ones(2), requires_grad=True)
        y = T.mul(a, a)
        assert not y.requires_grad and y.tape is None

    def test_only_leaves_get_grad_and_leaves_accumulate(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        for _ in range(2):
            with Tape():
                h = T.mul(a, a)
                y = T.reduce_sum(T.add(h, T.mul(a, Tensor(np.full(2, 3.0)))))
            T.backward(y)
            assert h.grad is None and y.grad is None
        np.testing.assert_allclose(a.grad, 2 * (2 * a.data + 3.0))

    def test_entries_refer_to_inputs_by_number(self):
        a = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        c = Tensor(np.ones(2), dtype=np.float64)
        with Tape() as tape:
            h = T.mul(a, c)
            y = T.reduce_sum(T.add(h, a))
        assert (h.index, y.index) == (0, 2)
        assert [(name, refs, index) for name, refs, index, _ in tape.entries] == [
            ("mul", (a, None), 0), ("add", (0, a), 1), ("reduce_sum", (1,), 2)]

    def test_unreachable_branch_gets_no_grad(self):
        a = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with Tape():
            _ = T.reduce_sum(T.mul(b, b))  # dead branch
            y = T.reduce_sum(T.mul(a, Tensor(np.full(2, 2.0))))
        T.backward(y)
        assert b.grad is None
        np.testing.assert_allclose(a.grad, [2.0, 2.0])


# every primitive against the finite-difference oracle, float64
PRIMITIVE_CASES = [
    ("add", lambda x: T.reduce_sum(T.add(x, Tensor(rand(3, 4, seed=9)))), (3, 4)),
    ("sub", lambda x: T.reduce_sum(T.sub(Tensor(rand(3, 4, seed=9)), x)), (3, 4)),
    ("mul", lambda x: T.reduce_sum(T.mul(x, Tensor(rand(3, 4, seed=9)))), (3, 4)),
    ("matmul_a", lambda x: T.reduce_sum(T.matmul(x, Tensor(rand(4, 2, seed=9)))), (3, 4)),
    ("matmul_b", lambda x: T.reduce_sum(T.matmul(Tensor(rand(2, 3, seed=9)), x)), (3, 4)),
    ("matmul_3d", lambda x: T.reduce_sum(T.mul(T.matmul(x, Tensor(rand(4, 2, seed=9))), Tensor(rand(2, 3, 2, seed=8)))), (2, 3, 4)),
    ("transpose", lambda x: T.reduce_sum(T.mul(T.transpose(x, (1, 0)), Tensor(rand(4, 3, seed=9)))), (3, 4)),
    ("transpose3", lambda x: T.reduce_sum(T.mul(T.transpose(x, (2, 0, 1)), Tensor(rand(4, 2, 3, seed=9)))), (2, 3, 4)),
    ("reshape", lambda x: T.reduce_sum(T.mul(T.reshape(x, (6, 2)), Tensor(rand(6, 2, seed=9)))), (3, 4)),
    ("concat", lambda x: T.reduce_sum(T.mul(T.concat([x, x], axis=1), Tensor(rand(3, 8, seed=9)))), (3, 4)),
    ("gather", lambda x: T.reduce_sum(T.mul(T.gather_rows(x, [0, 2, 2, 1]), Tensor(rand(4, 3, seed=9)))), (3, 3)),
    # one-row operands: the gradient sums over the rows they were used for
    ("add_row_a", lambda x: T.reduce_sum(T.mul(T.add(x, Tensor(rand(5, 4, seed=9))), Tensor(rand(5, 4, seed=8)))), (1, 4)),
    ("add_row_b", lambda x: T.reduce_sum(T.mul(T.add(Tensor(rand(5, 4, seed=9)), x), Tensor(rand(5, 4, seed=8)))), (1, 4)),
    ("sub_row_a", lambda x: T.reduce_sum(T.mul(T.sub(x, Tensor(rand(5, 4, seed=9))), Tensor(rand(5, 4, seed=8)))), (1, 4)),
    ("sub_row_b", lambda x: T.reduce_sum(T.mul(T.sub(Tensor(rand(5, 4, seed=9)), x), Tensor(rand(5, 4, seed=8)))), (1, 4)),
    ("mul_row_a", lambda x: T.reduce_sum(T.mul(x, Tensor(rand(5, 4, seed=9)))), (1, 4)),
    ("mul_row_b", lambda x: T.reduce_sum(T.mul(Tensor(rand(5, 4, seed=9)), x)), (1, 4)),
    # the root-joint pattern: a gathered (1, B, 3) row subtracted from its own (J, B, 3) source
    ("sub_row_3d", lambda x: T.reduce_sum(T.mul(T.sub(x, T.gather_rows(x, [2])), Tensor(rand(4, 2, 3, seed=9)))), (4, 2, 3)),
]


@pytest.mark.parametrize("name,f,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, f, shape):
    x = Tensor(rand(*shape, seed=42) + 0.1, dtype=np.float64)  # nudge off kinks
    report = T.gradient_check(f, x)
    assert report.max_rel_err < 1e-6, (name, report.max_rel_err, report.worst_coord)


class TestGradientCheck:
    def test_requires_float64(self):
        x = Tensor(np.ones(2), dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            T.gradient_check(lambda t: T.reduce_sum(t), x)

    def test_returns_report(self):
        x = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        rep = T.gradient_check(lambda t: T.reduce_sum(T.mul(t, t)), x)
        assert isinstance(rep, GradCheckReport)
        np.testing.assert_allclose(rep.analytic, [2.0, 4.0], atol=1e-12)
        assert rep.max_rel_err < 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_flagged_with_coordinate(self):
        x = Tensor(np.array([0.0]), dtype=np.float64)
        with pytest.raises(ValueError, match="coordinate 0"):
            # t * sqrt(t) as a constant: analytic gradient sqrt(0) = 0, but
            # the step to -1e-2 takes the square root of a negative number
            T.gradient_check(
                lambda t: T.reduce_sum(T.mul(t, Tensor(np.sqrt(t.data)))), x,
                epsilon=1e-2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5))
# a relu pre-activation of -2.6e-4, inside the default step of 1e-4 times |c|
@example(seed=900, n=4, m=5)
def test_composite_expression_gradcheck_property(seed, n, m):
    """Random composite expressions keep analytic == numeric gradients."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((m, n)), dtype=np.float64)
    c = Tensor(rng.standard_normal((n, n)) + np.eye(n) * 3.0, dtype=np.float64)

    def f(x):
        z = T.matmul(x, c)
        h = T.mul(z, Tensor(z.data > 0, dtype=np.float64))  # a ReLU
        h = T.add(h, x)
        return T.reduce_sum(T.mul(T.add(h, Tensor(np.full((1, n), 0.05))), w))

    x = Tensor(rng.standard_normal((m, n)) + 0.2, dtype=np.float64)
    # f is piecewise linear: central differences are exact only if no step
    # carries a relu argument across zero. One coordinate step of size eps
    # moves those arguments by at most eps * max|c|.
    z = x.data @ c.data
    eps = min(1e-4, 0.5 * np.abs(z).min() / (1.0 + np.abs(c.data).max()))
    rep = T.gradient_check(f, x, epsilon=eps)
    assert rep.max_rel_err < 1e-5


def test_float32_training_float64_oracle_dtypes():
    # lists default to float32 (training dtype); float ndarrays keep theirs
    a32 = Tensor([[1.0, 1.0], [1.0, 1.0]])
    assert a32.dtype == np.float32
    out = T.matmul(a32, a32)
    assert out.dtype == np.float32
    kept = Tensor(np.ones(3, dtype=np.float64))
    assert kept.dtype == np.float64
