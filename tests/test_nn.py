"""Kernel tests: every analytic gradient is checked against the
finite-difference oracle, and the optimizer against a scalar reimplementation."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import fd_grad, lstm_step, sigmoid

from boxcast.errors import NumericError, ShapeError
from boxcast.nn import (
    AdamState,
    LinearParams,
    LstmCellParams,
    LstmCellState,
    LstmSeq,
    TILE_MACS,
    TILE_MAX_NH,
    _l1_sum,
    _lstm_cell_from_preact,
    adam_step,
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


def full_size_step_inputs(rng, batch_shape, H=512, D=8):
    """A float32 hidden-512 cell with zero biases, an initial state of the
    batch shape and a projected input ``x_pre``, as one step reads them."""
    cell = LstmCellParams(
        wx=rng.uniform(-0.04, 0.04, (4 * H, D)).astype(np.float32),
        wh=rng.uniform(-0.04, 0.04, (4 * H, H)).astype(np.float32),
        bx=np.zeros(4 * H, np.float32), bh=np.zeros(4 * H, np.float32))
    init = LstmCellState(
        rng.normal(size=batch_shape + (H,)).astype(np.float32),
        rng.normal(size=batch_shape + (H,)).astype(np.float32))
    x_pre = rng.normal(size=batch_shape + (4 * H,)).astype(np.float32)
    return cell, init, x_pre


def step_gates(cell, init, x_pre):
    """Gate activations of one `_lstm_cell_from_preact` step."""
    seq = LstmSeq.start(cell, init, 1)
    _lstm_cell_from_preact(cell, x_pre, seq, 0)
    return seq.gates[0]


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

        numeric = fd_grad(f, x)
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

    @pytest.mark.parametrize("dtype, tol", [
        (np.float64, {"rtol": 1e-13}), (np.float32, {"atol": 1e-6})])
    @pytest.mark.parametrize("batch_shape", [(5,), (2, 3)])
    def test_batched_rows_equal_per_sample_calls(self, batch_shape, dtype,
                                                 tol):
        """Every row of a batched step, flat or 2-D batch, equals the step
        run on that row alone, up to rounding: the batch runs one matrix
        product where a single row runs a matrix-vector product (float32:
        within 1e-6 absolute, a few ulps of the O(1) states)."""
        rng = np.random.default_rng(3)
        p = random_cell(rng)
        p = LstmCellParams(*(t.astype(dtype) for t in
                             (p.wx, p.wh, p.bx, p.bh)))
        xb = rng.normal(size=batch_shape + (3,)).astype(dtype)
        sb = random_state(rng, batch_shape=batch_shape)
        sb = LstmCellState(sb.h.astype(dtype), sb.c.astype(dtype))
        batched, _ = lstm_step(p, xb, sb)
        assert batched.h.shape == batched.c.shape == batch_shape + (4,)
        assert batched.h.dtype == dtype
        for n in np.ndindex(batch_shape):
            single, _ = lstm_step(
                p, xb[n], LstmCellState(sb.h[n], sb.c[n]))
            np.testing.assert_allclose(batched.h[n], single.h, **tol)
            np.testing.assert_allclose(batched.c[n], single.c, **tol)

    @pytest.mark.parametrize("batch_shape", [(), (2,), (6,), (3, 4), (64,)])
    def test_step_never_copies_the_recurrent_weights(self, batch_shape):
        """One float32 full-size step (hidden 512) allocates less than
        ``wh`` itself: the recurrent product reads ``wh`` in place, neither
        copied to a contiguous transpose nor upcast, and the row tiles of a
        small batch, the halves at one row included, are views of it
        (measured peaks 3 KB at batch 1, whose halves write their lanes in
        place, 6 to 76 KB at 2 to 12 rows and 525 KB at 64, against
        4.19 MB)."""
        rng = np.random.default_rng(8)
        cell, init, x_pre = full_size_step_inputs(rng, batch_shape)
        seq = LstmSeq.start(cell, init, 1)
        assert (len(seq.tiles) > 1) == (batch_shape
                                        in [(), (2,), (6,), (3, 4)])
        tracemalloc.start()
        try:
            _lstm_cell_from_preact(cell, x_pre, seq, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cell.wh.nbytes, (peak, cell.wh.nbytes)

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

            assert_close_to_fd(grad, fd_grad(f, getattr(p, name)))

        assert_close_to_fd(dh_prev, fd_grad(
            lambda v: with_inputs(p, v, s.c), s.h))
        assert_close_to_fd(dc_prev, fd_grad(
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


def _batch_shapes(n):
    """The flat shape (n,) and a 2-D shape (n1, n2) of n rows."""
    n1 = max(d for d in range(1, int(n ** 0.5) + 1) if n % d == 0)
    return [(n,), (n1, n // n1)]


def reference_pass(cell, init, x_pres, tiles):
    """The step loop written out: per step ``a = (wh @ h.T).T + x_pre``,
    its product taken over ``tiles`` in forward order, then the activations
    lane by lane. Returns the (gates, c, h) stacks of `LstmSeq`."""
    H = cell.hidden_size
    h, c = init.h.reshape(-1, H), init.c.reshape(-1, H)
    gates, cs, hs = [], [c], [h]
    for x_pre in x_pres:
        a = np.concatenate([(cell.wh[tile] @ h.T).T for tile in tiles],
                           axis=-1)
        a += x_pre.reshape(-1, 4 * H)
        sigmoid_lanes = (a[:, :2 * H], a[:, 3 * H:])
        for lane in sigmoid_lanes:
            lane *= 0.5
        np.tanh(a, out=a)
        for lane in sigmoid_lanes:
            lane *= 0.5
            lane += 0.5
        i, f, g, o = (a[:, j * H:(j + 1) * H] for j in range(4))
        c = f * c
        c += i * g
        h = np.tanh(c)
        h *= o
        gates.append(a)
        cs.append(c)
        hs.append(h)
    batch = init.h.shape[:-1]
    return tuple(np.stack(s).reshape((len(s),) + batch + (-1,))
                 for s in (gates, cs, hs))


class _SignedZeroProduct(np.ndarray):
    """A ``wh`` whose product with any hidden state is exactly -0.0, which
    no BLAS product returns (its sums start from +0.0)."""

    def __array_ufunc__(self, ufunc, method, *args, out=None, **kwargs):
        out[0][...] = -0.0
        return out[0]


class TestRecurrentTiles:
    """At one row (hidden 512) a step runs its recurrent product as the two
    halves of ``wh``, at 2 to 12 rows as smaller row tiles, and at 13 or
    more as one product over all of ``wh``. Odd steps walk the tiles
    backward. One row and 13 or more keep the bits of the one product
    before tiles existed."""

    # Largest gate gap to the float64 step allowed at float32. Pre-
    # activations are sums of 512 products of O(0.04) weights and O(1)
    # states, so each rounds by ~1e-6; the gates' slopes are at most 1
    # (measured at most 2.7e-7 tiled and 9.4e-7 untiled).
    GATE_BOUND = 4e-6

    @pytest.mark.parametrize("batch_shape",
                             [s for n in range(1, 17) for s in _batch_shapes(n)],
                             ids=str)
    def test_gates_within_bound_of_float64(self, batch_shape):
        rng = np.random.default_rng(sum(batch_shape))
        cell, init, x_pre = full_size_step_inputs(rng, batch_shape)
        got = step_gates(cell, init, x_pre)
        # the same step at float64 on the same (float32-valued) inputs
        pre = (init.h.astype(np.float64) @ cell.wh.astype(np.float64).T
               + x_pre.astype(np.float64))
        H = cell.hidden_size
        want = np.concatenate([sigmoid(pre[..., :2 * H]),
                               np.tanh(pre[..., 2 * H: 3 * H]),
                               sigmoid(pre[..., 3 * H:])], axis=-1)
        assert got.shape == batch_shape + (4 * H,)
        assert float(np.abs(got - want).max()) <= self.GATE_BOUND

    @pytest.mark.parametrize("batch_shape",
                             [s for n in (1, 13, 14, 15, 16)
                              for s in _batch_shapes(n)] + [(64,), ()],
                             ids=str)
    def test_one_row_and_13_or_more_rows_keep_the_untiled_bits(
            self, batch_shape):
        """Bit for bit the gates of ``a = (wh @ h.T).T; a += x_pre`` and
        then the activations: that pre-activation, fed as the projected
        input of a step whose ``wh`` is zero, gives the reference. One row
        runs the two halves of ``wh``, 13 or more rows one tile."""
        rng = np.random.default_rng(20 + sum(batch_shape))
        cell, init, x_pre = full_size_step_inputs(rng, batch_shape)
        H = cell.hidden_size
        rows = (cell.wh @ init.h.reshape(-1, H).T).T
        rows += x_pre.reshape(-1, 4 * H)
        zero = LstmCellParams(cell.wx, np.zeros_like(cell.wh), cell.bx,
                              cell.bh)
        want = step_gates(zero, init, rows.reshape(x_pre.shape))
        seq = LstmSeq.start(cell, init, 1)
        assert seq.tiles == ((slice(0, 2 * H), slice(2 * H, 4 * H))
                             if init.h.size == H else (slice(0, 4 * H),))
        np.testing.assert_array_equal(step_gates(cell, init, x_pre), want)

    @pytest.mark.parametrize("batch_shape, dtype", [
        ((), np.float32), ((1,), np.float32), ((2,), np.float32),
        ((6,), np.float32), ((12,), np.float32), ((), np.float64)],
        ids=str)
    def test_reversed_steps_equal_the_reference_loop(self, batch_shape,
                                                     dtype):
        """A 4-step pass, whose odd steps walk the tiles backward, equals
        `reference_pass` bit for bit in its gates and states. At one row
        the reference runs the one product over all of ``wh``; at 2 to 12
        rows, whose tiles round apart from that product, it runs the same
        tiles in forward order."""
        rng = np.random.default_rng(40 + sum(batch_shape))
        cell, init, _ = full_size_step_inputs(rng, batch_shape)
        cell = LstmCellParams(*(t.astype(dtype) for t in
                                (cell.wx, cell.wh, cell.bx, cell.bh)))
        init = LstmCellState(init.h.astype(dtype), init.c.astype(dtype))
        H = cell.hidden_size
        x_pres = rng.normal(size=(4,) + batch_shape + (4 * H,)).astype(dtype)
        seq = LstmSeq.start(cell, init, len(x_pres))
        assert len(seq.tiles) > 1
        for t, x_pre in enumerate(x_pres):
            _lstm_cell_from_preact(cell, x_pre, seq, t)
        tiles = (slice(0, 4 * H),) if init.h.size == H else seq.tiles
        for got, want in zip((seq.gates, seq.c, seq.h),
                             reference_pass(cell, init, x_pres, tiles)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("t", [0, 1])
    def test_negative_zero_g_lane_stays_negative_zero(self, t):
        """A g-lane pre-activation of -0.0 gives tanh -0.0, as it did before
        the lane vectors: the g lane's shift is -0.0, which leaves every
        value as it is, where +0.0 would turn -0.0 into +0.0."""
        H = 4
        cell = random_cell(np.random.default_rng(9), hidden_size=H)
        cell.wh = cell.wh.view(_SignedZeroProduct)
        seq = LstmSeq.start(cell, LstmCellState.zeros(H), 2)
        _lstm_cell_from_preact(cell, np.full(4 * H, -0.0), seq, t)
        g = np.asarray(seq.gates[t, 2 * H:3 * H])
        assert (g == 0.0).all() and np.signbit(g).all()
        np.testing.assert_array_equal(seq.gates[t, :2 * H], 0.5)

    @pytest.mark.parametrize("n, hidden, tiles", [
        (1, 512, 2), (1, 8, 2), (2, 512, 4), (3, 512, 8), (4, 512, 8), (6, 512, 16),
        (8, 512, 16), (12, 512, 32), (13, 512, 1), (64, 512, 1),
        (2, 8, 1), (12, 128, 2), (2, 3072, 192), (3, 3072, 1)])
    def test_tile_count(self, n, hidden, tiles):
        """One row runs the two halves of ``wh``. From two rows, tiles are
        the largest power of two of rows with at most `TILE_MACS`
        multiply-adds each, and exist only while n * hidden <=
        `TILE_MAX_NH`."""
        # zero-stride weights: only their shapes are read
        zeros = np.broadcast_to(0.0, (4 * hidden, hidden))
        cell = LstmCellParams(zeros, zeros, zeros[:, 0], zeros[:, 0])
        seq = LstmSeq.start(cell, LstmCellState.zeros(hidden, (n,)), 0)
        assert len(seq.tiles) == tiles
        assert seq.tiles[0].start == 0 and seq.tiles[-1].stop >= 4 * hidden
        r = seq.tiles[0].stop
        assert all(t.stop - t.start == r for t in seq.tiles)
        if n == 1:
            assert r == 2 * hidden
        elif tiles > 1:
            assert r * n * hidden <= TILE_MACS < 2 * r * n * hidden
            assert n * hidden <= TILE_MAX_NH


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

        assert_close_to_fd(dw, fd_grad(lambda v: obj(v, p.b, x), p.w))
        assert_close_to_fd(db, fd_grad(lambda v: obj(p.w, v, x), p.b))
        assert_close_to_fd(dx, fd_grad(lambda v: obj(p.w, p.b, v), x))

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
        numeric = fd_grad(lambda v: l1_loss(v, target)[0], pred)
        assert_close_to_fd(grad, numeric)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            l1_loss(np.zeros(3), np.zeros(4))

    def test_empty_inputs_raise(self):
        """An empty batch has no mean: refused, not divided by zero."""
        with pytest.raises(ShapeError, match="empty"):
            l1_loss(np.zeros((0, 3, 4)), np.zeros((0, 3, 4)))

    def test_float32_differences_are_summed_in_float64(self):
        # 20000 differences of 3e34 sum to 6e38, past float32's 3.4e38
        pred = np.full(20000, 3e34, dtype=np.float32)
        loss, grad = l1_loss(pred, np.zeros_like(pred))
        assert loss == float(np.float32(3e34))
        assert grad.dtype == np.float32

    def test_blocks_with_the_whole_count_give_the_whole_gradient(self):
        """`_l1_sum` over row blocks, each dividing by the whole element
        count: the gradients are the whole array's bit for bit, and the
        summed blocks over that count are its mean."""
        rng = np.random.default_rng(13)
        pred = rng.normal(size=(7, 3, 4)).astype(np.float32)
        target = rng.normal(size=(7, 3, 4)).astype(np.float32)
        loss, grad = l1_loss(pred, target)
        sums, grads = zip(*(_l1_sum(p, t, pred.size) for p, t in zip(
            np.array_split(pred, 3), np.array_split(target, 3))))
        assert np.concatenate(grads).tobytes() == grad.tobytes()
        assert sum(sums) / pred.size == pytest.approx(loss, rel=1e-15)


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
        np.testing.assert_allclose(fd_grad(f, x0, eps=1e-3),
                                   2 * a * x0, rtol=1e-9)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NumericError):
            fd_grad(lambda x: float("nan"), np.zeros(2))

    def test_bad_eps_raises(self):
        with pytest.raises(ShapeError):
            fd_grad(lambda x: 0.0, np.zeros(2), eps=0.0)

    def test_flat_indices_select_entries_and_every_probe_is_restored(self):
        a = np.arange(6.0).reshape(2, 3) - 2.5
        x = np.random.default_rng(12).normal(size=(2, 3))
        before = x.copy()

        def f(v):
            return float(np.sum(a * v * v))

        full = fd_grad(f, x, eps=1e-3)
        assert full.shape == x.shape
        np.testing.assert_array_equal(fd_grad(f, x, [4, 1], eps=1e-3),
                                      full.reshape(-1)[[4, 1]])
        assert x.tobytes() == before.tobytes()
