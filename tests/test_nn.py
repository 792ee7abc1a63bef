"""Kernel tests: every analytic gradient is checked against the
finite-difference oracle, and the optimizer against a scalar reimplementation."""

import math

import numpy as np
import pytest

from helpers import lstm_step, sigmoid

from boxcast.errors import NumericError, ShapeError
from boxcast.nn import (
    AdamState,
    LinearParams,
    LstmCellParams,
    LstmCellState,
    LstmSeq,
    adam_step,
    finite_diff_grad,
    l1_loss,
    linear_backward,
    linear_forward,
    lstm_gate_backward,
    relu,
)


def random_cell(rng, input_size=3, hidden_size=4):
    """Weights uniform on +-1/sqrt(H), both biases zero."""
    s = 1.0 / np.sqrt(hidden_size)
    return LstmCellParams(
        wx=rng.uniform(-s, s, (4 * hidden_size, input_size)),
        wh=rng.uniform(-s, s, (4 * hidden_size, hidden_size)),
        bx=np.zeros(4 * hidden_size), bh=np.zeros(4 * hidden_size))


def random_linear(rng, in_features, out_features):
    """Weights uniform on +-1/sqrt(fan_in), bias zero."""
    s = 1.0 / np.sqrt(in_features)
    return LinearParams(w=rng.uniform(-s, s, (out_features, in_features)),
                        b=np.zeros(out_features))


def random_state(rng, hidden_size=4, batch_shape=()):
    shape = tuple(batch_shape) + (hidden_size,)
    return LstmCellState(rng.normal(size=shape), rng.normal(size=shape))


def gate_backward(seq, dh, dc):
    """(da, dh_prev, dc_prev) of the single step a one-step cache holds; the
    backward writes da over the cache's gates."""
    dh_prev, dc_prev = lstm_gate_backward(seq, 0, dh, dc)
    return seq.gates[0], dh_prev, dc_prev


def assert_close_to_fd(analytic, numeric, rtol=1e-4, atol=1e-8):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class TestSigmoidRelu:
    def test_sigmoid_matches_definition_in_safe_range(self):
        x = np.linspace(-30, 30, 201)
        expected = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(sigmoid(x), expected, rtol=1e-12)

    def test_sigmoid_is_stable_at_extremes(self):
        x = np.array([-1e4, -750.0, 750.0, 1e4])
        with np.errstate(over="raise"):
            y = sigmoid(x)
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[-1] == 1.0

    def test_sigmoid_preserves_float32(self):
        x = np.array([-2.0, 0.5], dtype=np.float32)
        assert sigmoid(x).dtype == np.float32

    def test_relu_gradient_is_a_mask(self):
        rng = np.random.default_rng(0)
        # keep entries away from the kink so the FD stencil is one-sided-free
        x = rng.normal(size=12)
        x = np.where(np.abs(x) < 0.1, x + 0.2 * np.sign(x) + 0.01, x)
        w = rng.normal(size=12)

        def f(v):
            return float(np.sum(relu(v) * w))

        numeric = finite_diff_grad(f, x)
        analytic = w * (x > 0)
        assert_close_to_fd(analytic, numeric)


class TestLstmCell:
    def test_forward_matches_manual_gate_math(self):
        rng = np.random.default_rng(1)
        p = random_cell(rng)
        x = rng.normal(size=3)
        s = random_state(rng)
        new, _ = lstm_step(p, x, s)

        a = p.wx @ x + p.wh @ s.h + p.bx + p.bh
        H = 4

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        i, f = sig(a[:H]), sig(a[H:2 * H])
        g, o = np.tanh(a[2 * H:3 * H]), sig(a[3 * H:])
        c = f * s.c + i * g
        np.testing.assert_allclose(new.c, c, rtol=1e-12)
        np.testing.assert_allclose(new.h, o * np.tanh(c), rtol=1e-12)

    def test_hidden_state_stays_inside_unit_box(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            p = random_cell(rng, input_size=5, hidden_size=6)
            s = LstmCellState.zeros(6)
            for _ in range(40):
                x = rng.normal(scale=3.0, size=5)
                s, _ = lstm_step(p, x, s)
                assert np.all(np.abs(s.h) < 1.0)

    def test_batched_rows_equal_per_sample_calls(self):
        rng = np.random.default_rng(3)
        p = random_cell(rng)
        xb = rng.normal(size=(5, 3))
        sb = random_state(rng, batch_shape=(5,))
        batched, _ = lstm_step(p, xb, sb)
        for n in range(5):
            single, _ = lstm_step(
                p, xb[n], LstmCellState(sb.h[n], sb.c[n]))
            np.testing.assert_allclose(batched.h[n], single.h, rtol=1e-13)
            np.testing.assert_allclose(batched.c[n], single.c, rtol=1e-13)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(4)
        p = random_cell(rng)
        x = rng.normal(size=3)
        s = random_state(rng)
        a, _ = lstm_step(p, x, s)
        b, _ = lstm_step(p, x, s)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.c, b.c)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_pass_gates_match_sigmoid_and_tanh(self, dtype):
        """The step runs one tanh pass over all four gate lanes, using
        sigmoid(x) = (1 + tanh(x / 2)) / 2. Over pre-activations in
        [-40, 40] its gates stay within eight ulps of 1 of `sigmoid` and
        `np.tanh` (measured: 2.2e-16 at f64, 6.0e-8 at f32)."""
        grid = np.linspace(-40.0, 40.0, 321)
        H = grid.size
        pre = np.tile(grid, 4).astype(dtype)
        # one input of value 1 through wx = pre makes the pre-activations
        # exactly `pre` in every lane
        cell = LstmCellParams(wx=pre[:, None], wh=np.zeros((4 * H, H), dtype),
                              bx=np.zeros(4 * H, dtype),
                              bh=np.zeros(4 * H, dtype))
        _, seq = lstm_step(cell, np.ones(1, dtype),
                           LstmCellState.zeros(H, dtype=dtype))
        x = pre[:H]
        want = np.concatenate([sigmoid(x), sigmoid(x), np.tanh(x), sigmoid(x)])
        assert seq.gates.dtype == dtype
        np.testing.assert_allclose(seq.gates[0], want, rtol=0,
                                   atol=8 * np.finfo(dtype).eps)

    def test_shape_mismatch_raises(self):
        """A pass's state shapes are checked once, when it starts."""
        rng = np.random.default_rng(5)
        p = random_cell(rng)
        s = random_state(rng)
        with pytest.raises(ShapeError):
            LstmSeq.start(p, random_state(rng, hidden_size=7), 1)
        with pytest.raises(ShapeError):
            LstmSeq.start(p, LstmCellState(s.h, rng.normal(size=(2, 4))), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_cell(rng)
        x = rng.normal(size=3)
        s = random_state(rng)
        dh = rng.normal(size=4)
        dc = rng.normal(size=4)

        _, cache = lstm_step(p, x, s)
        da, dh_prev, dc_prev = gate_backward(cache, dh, dc)

        def with_inputs(params, hh, cc):
            new, _ = lstm_step(params, x, LstmCellState(hh, cc))
            return float(np.sum(new.h * dh) + np.sum(new.c * dc))

        # for one sample the gate gradient is the gradient on either bias,
        # and the weight gradients are its outer products with the inputs
        analytic = {"wx": np.outer(da, x), "wh": np.outer(da, s.h),
                    "bx": da, "bh": da}
        for name, grad in analytic.items():
            def f(v, name=name):
                return with_inputs(LstmCellParams(**{**p.__dict__, name: v}),
                                   s.h, s.c)

            assert_close_to_fd(grad, finite_diff_grad(f, getattr(p, name)))

        assert_close_to_fd(dh_prev, finite_diff_grad(
            lambda v: with_inputs(p, v, s.c), s.h))
        assert_close_to_fd(dc_prev, finite_diff_grad(
            lambda v: with_inputs(p, s.h, v), s.c))

    def test_batched_backward_sums_parameter_grads(self):
        rng = np.random.default_rng(6)
        p = random_cell(rng)
        xb = rng.normal(size=(4, 3))
        sb = random_state(rng, batch_shape=(4,))
        dh = rng.normal(size=(4, 4))
        dc = rng.normal(size=(4, 4))
        _, cache = lstm_step(p, xb, sb)
        da, dh_prev, dc_prev = gate_backward(cache, dh, dc)

        acc_wh = 0.0
        acc_b = 0.0
        for n in range(4):
            _, c1 = lstm_step(p, xb[n], LstmCellState(sb.h[n], sb.c[n]))
            da1, dh1, dc1 = gate_backward(c1, dh[n], dc[n])
            acc_wh = acc_wh + np.outer(da1, sb.h[n])
            acc_b = acc_b + da1
            np.testing.assert_allclose(da[n], da1, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(dh_prev[n], dh1, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(dc_prev[n], dc1, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(da.T @ cache.h[0], acc_wh,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(da.sum(axis=0), acc_b,
                                   rtol=1e-12, atol=1e-14)


class TestLinear:
    def test_forward_matches_manual_affine(self):
        rng = np.random.default_rng(7)
        p = random_linear(rng, 5, 3)
        x = rng.normal(size=5)
        np.testing.assert_allclose(linear_forward(p.w, p.b, x), p.w @ x + p.b,
                                   rtol=1e-13)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = random_linear(rng, 5, 3)
        x = rng.normal(size=(2, 5))
        dy = rng.normal(size=(2, 3))
        dw, db, dx = linear_backward(p.w, x, dy)

        def obj(w, b, xx):
            return float(np.sum(linear_forward(w, b, xx) * dy))

        assert_close_to_fd(dw, finite_diff_grad(lambda v: obj(v, p.b, x), p.w))
        assert_close_to_fd(db, finite_diff_grad(lambda v: obj(p.w, v, x), p.b))
        assert_close_to_fd(dx, finite_diff_grad(lambda v: obj(p.w, p.b, v), x))

    def test_bad_bias_shape_raises(self):
        rng = np.random.default_rng(9)
        p = random_linear(rng, 5, 3)
        with pytest.raises(ShapeError):
            linear_forward(p.w, np.zeros(4), rng.normal(size=5))


class TestL1Loss:
    def test_known_value(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[1.0, 0.0], [0.0, 4.0]])
        loss, grad = l1_loss(pred, target)
        assert loss == pytest.approx((0 + 2 + 3 + 0) / 4)
        np.testing.assert_array_equal(grad, np.array([[0.0, 0.25], [0.25, 0.0]]))

    def test_zero_at_equality_with_zero_grad(self):
        x = np.random.default_rng(10).normal(size=(3, 3))
        loss, grad = l1_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_matches_finite_differences_off_the_kinks(self):
        rng = np.random.default_rng(11)
        target = rng.normal(size=8)
        pred = target + np.where(rng.normal(size=8) > 0, 1.0, -1.0) \
            * rng.uniform(0.5, 2.0, size=8)
        loss, grad = l1_loss(pred, target)
        numeric = finite_diff_grad(lambda v: l1_loss(v, target)[0], pred)
        assert_close_to_fd(grad, numeric)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            l1_loss(np.zeros(3), np.zeros(4))

    def test_float32_differences_are_summed_in_float64(self):
        # 20000 differences of 3e34 sum to 6e38, past float32's 3.4e38
        pred = np.full(20000, 3e34, dtype=np.float32)
        loss, grad = l1_loss(pred, np.zeros_like(pred))
        assert loss == float(np.float32(3e34))
        assert grad.dtype == np.float32


class TestAdam:
    def test_matches_scalar_reference(self):
        """Independent scalar Adam, written out step by step."""
        rng = np.random.default_rng(12)
        p0 = rng.normal(size=4)
        params = {"w": p0.copy()}
        state = AdamState.init(params)
        gs = [rng.normal(size=4) for _ in range(5)]
        lr = 1e-2
        for g in gs:
            adam_step(state, params, {"w": g}, lr)

        ref = list(p0)
        m = [0.0] * 4
        v = [0.0] * 4
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, g in enumerate(gs, start=1):
            for j in range(4):
                m[j] = b1 * m[j] + (1 - b1) * g[j]
                v[j] = b2 * v[j] + (1 - b2) * g[j] * g[j]
                mhat = m[j] / (1 - b1 ** t)
                vhat = v[j] / (1 - b2 ** t)
                ref[j] -= lr * mhat / (math.sqrt(vhat) + eps)
        np.testing.assert_allclose(params["w"], ref, rtol=1e-10)
        assert state.t == 5

    def test_zero_gradient_from_fresh_moments_is_a_no_op(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.init(params)
        state.t = 7  # arbitrary step counter; moments are still zero
        before = params["w"].copy()
        adam_step(state, params, {"w": np.zeros(3)}, 0.1)
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 8

    def test_updates_happen_in_place(self):
        arr = np.array([1.0, 2.0])
        params = {"w": arr}
        state = AdamState.init(params)
        adam_step(state, params, {"w": np.array([0.5, -0.5])}, 0.1)
        assert params["w"] is arr
        assert not np.array_equal(arr, np.array([1.0, 2.0]))

    def test_non_finite_gradient_names_the_tensor(self):
        params = {"w": np.zeros(2), "b": np.zeros(2)}
        state = AdamState.init(params)
        with pytest.raises(NumericError, match="'b'"):
            adam_step(state, params, {"w": np.zeros(2),
                                      "b": np.array([1.0, np.nan])}, 0.1)

    def test_descends_a_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        state = AdamState.init(params)
        for _ in range(500):
            g = 2.0 * params["w"]
            adam_step(state, params, {"w": g}, 0.05)
        assert np.all(np.abs(params["w"]) < 1e-2)


class TestFiniteDiff:
    def test_exact_on_a_quadratic(self):
        # central differences are exact for polynomials of degree <= 2
        a = np.array([2.0, -1.0, 0.5])

        def f(x):
            return float(np.sum(a * x * x))

        x0 = np.array([1.0, 2.0, -3.0])
        np.testing.assert_allclose(finite_diff_grad(f, x0, eps=1e-3),
                                   2 * a * x0, rtol=1e-9)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.zeros(2))

    def test_bad_eps_raises(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), eps=0.0)
