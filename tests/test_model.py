"""Model tests: feature construction, the forward ops against hand-unrolled
oracles, the concatenation layer against an exact prefix-sum oracle, loss
values against closed forms, and the full backward pass against finite
differences."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    concat_trajectory_loop,
    fd_grad,
    gradcheck_case,
    loss_via_public_ops,
    lstm_step,
    make_boxes,
    param_count,
    random_window_and_targets,
)

from boxcast import model
from boxcast.errors import ConfigError, DataError, NumericError, ShapeError
from boxcast.model import (
    LOSS_MODES,
    MODE_TRAJ,
    MODE_TRAJ_AUTOENC,
    MODE_TRAJ_DEL,
    LossWeights,
    ModelDims,
    build_features,
    composite_loss,
    concat_trajectory,
    decode_future,
    encode,
    forward_train,
    init_params,
    loss_and_grads,
    predict,
    predict_from_window,
    reconstruct,
    reconstruction_target,
)
from boxcast.nn import LstmCellState, LstmSeq, linear_forward, relu
from boxcast.training import load_model, param_count_for, save_model

TINY = ModelDims(k=4, p=3, hidden=8, latent=6)


class TestBuildFeatures:
    def test_two_box_example(self):
        window = build_features(make_boxes([(0, 0, 2, 2), (1, 2, 2, 2)]))
        np.testing.assert_array_equal(
            window,
            [[0, 0, 2, 2, 0, 0, 0, 0], [1, 2, 2, 2, 1, 2, 0, 0]])

    def test_stationary_box_has_zero_deltas(self):
        window = build_features(make_boxes([(5, 6, 2, 3)] * 7))
        assert np.all(window[:, 4:] == 0)
        assert np.all(window[:, :4] == [5, 6, 2, 3])

    def test_delta_columns_match_independent_differencing(self):
        rng = np.random.default_rng(0)
        rows = np.abs(rng.normal(50, 10, size=(30, 4))) + 1.0
        window = build_features(make_boxes(rows))
        for i in range(30):
            for j in range(4):
                expected = 0.0 if i == 0 else rows[i][j] - rows[i - 1][j]
                assert window[i, 4 + j] == expected

    def test_predecessor_fills_first_delta_row(self):
        pred = make_boxes([(0.0, 0.0, 2.0, 2.0)], first_frame=9)[0]
        window = build_features(
            make_boxes([(1, 2, 2, 2), (2, 4, 2, 2)], first_frame=10),
            predecessor=pred)
        np.testing.assert_array_equal(window[0], [1, 2, 2, 2, 1, 2, 0, 0])

    def test_wrong_predecessor_frame_raises(self):
        pred = make_boxes([(0.0, 0.0, 2.0, 2.0)], first_frame=5)[0]
        with pytest.raises(DataError):
            build_features(make_boxes([(1, 2, 2, 2)], first_frame=10),
                           predecessor=pred)

    def test_frame_gap_raises(self):
        boxes = make_boxes([(0, 0, 2, 2)]) + make_boxes([(1, 1, 2, 2)], 2)
        with pytest.raises(DataError, match="consecutive"):
            build_features(boxes)

    def test_non_positive_size_raises(self):
        with pytest.raises(DataError, match="positive"):
            build_features(np.array([[0.0, 0.0, 0.0, 2.0]]))

    def test_accepts_plain_arrays(self):
        window = build_features(np.array([[0.0, 0.0, 2.0, 2.0],
                                          [1.0, 2.0, 2.0, 2.0]]))
        assert window.shape == (2, 8)


class TestReconstructionTarget:
    def test_two_row_example(self):
        window = np.array([[0, 0, 2, 2, 0, 0, 0, 0],
                           [1, 2, 2, 2, 1, 2, 0, 0]], dtype=float)
        expected = np.array([[1, 2, 2, 2, -1, -2, 0, 0],
                             [0, 0, 2, 2, 0, 0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(reconstruction_target(window), expected)

    def test_is_an_involution(self):
        rng = np.random.default_rng(1)
        window = rng.normal(size=(6, 8))
        np.testing.assert_array_equal(
            reconstruction_target(reconstruction_target(window)), window)

    def test_stationary_window_is_a_fixed_point(self):
        window = build_features(make_boxes([(5, 6, 2, 3)] * 4))
        np.testing.assert_array_equal(reconstruction_target(window), window)


class TestEncode:
    def test_zero_params_yield_fc_bias(self):
        params = init_params(TINY, seed=0)
        for t in params.tensors().values():
            t[...] = 0.0
        params.fc_latent.b[...] = np.arange(6, dtype=float)
        window, _ = random_window_and_targets(np.random.default_rng(2), 4, 3)
        z, state = encode(params, window)
        np.testing.assert_array_equal(z, np.arange(6, dtype=float))
        assert np.all(state.h == 0) and np.all(state.c == 0)

    def test_latent_length_for_reference_dims(self):
        dims = ModelDims(k=30, p=60, hidden=512, latent=256)
        params = init_params(dims, seed=3)
        window, _ = random_window_and_targets(np.random.default_rng(3), 30, 1)
        z, _ = encode(params, window)
        assert z.shape == (256,)

    def test_matches_manual_composition_bitwise(self):
        params = init_params(TINY, seed=4)
        window, _ = random_window_and_targets(np.random.default_rng(4), 4, 3)
        z, state = encode(params, window)

        s = LstmCellState.zeros(8, 1)
        for t in range(4):
            s, _ = lstm_step(params.enc, window[None, t], s)
        z_manual = linear_forward(params.fc_latent.w, params.fc_latent.b,
                                  relu(s.h))
        assert np.array_equal(state.h, s.h[0])
        assert np.array_equal(state.c, s.c[0])
        assert np.array_equal(z, z_manual[0])

    def test_wrong_row_count_raises(self):
        params = init_params(TINY, seed=5)
        window, _ = random_window_and_targets(np.random.default_rng(5), 6, 3)
        with pytest.raises(ShapeError, match=re.escape(
                "feature window has shape (6, 8), expected (4, 8)")):
            encode(params, window)


class TestDecoders:
    def test_zero_params_reconstruct_rows_equal_fc_bias(self):
        params = init_params(TINY, seed=6)
        for t in params.tensors().values():
            t[...] = 0.0
        params.fc_recon.b[...] = np.arange(8, dtype=float)
        out = reconstruct(params, np.zeros(6))
        assert out.shape == (4, 8)
        np.testing.assert_array_equal(out, np.tile(np.arange(8.0), (4, 1)))

    def test_zero_params_future_rows_equal_fc_bias(self):
        params = init_params(TINY, seed=7)
        for t in params.tensors().values():
            t[...] = 0.0
        params.fc_delta.b[...] = [1.0, 2.0, 3.0, 4.0]
        out = decode_future(params, np.zeros(6),
                            LstmCellState(np.zeros(8), np.zeros(8)))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))

    def test_reconstruct_matches_manual_unroll(self):
        params = init_params(TINY, seed=8)
        z = np.random.default_rng(8).normal(size=6)
        out = reconstruct(params, z)
        s = LstmCellState.zeros(8, 1)
        rows = []
        for _ in range(4):
            s, _ = lstm_step(params.auto_dec, z[None], s)
            rows.append(linear_forward(params.fc_recon.w, params.fc_recon.b,
                                       s.h[0]))
        np.testing.assert_allclose(out, np.stack(rows), rtol=1e-13, atol=1e-16)

    def test_decode_future_matches_manual_unroll(self):
        params = init_params(TINY, seed=9)
        rng = np.random.default_rng(9)
        z = rng.normal(size=6)
        enc_state = LstmCellState(rng.normal(size=8), rng.normal(size=8))
        out = decode_future(params, z, enc_state)
        s = LstmCellState(enc_state.h[None], enc_state.c[None])
        rows = []
        for _ in range(3):
            s, _ = lstm_step(params.fut_dec, z[None], s)
            rows.append(linear_forward(params.fc_delta.w, params.fc_delta.b,
                                       s.h[0]))
        np.testing.assert_allclose(out, np.stack(rows), rtol=1e-13, atol=1e-16)

    def test_cell_state_carry_flag_changes_the_rollout(self):
        params = init_params(TINY, seed=10)
        rng = np.random.default_rng(10)
        z = rng.normal(size=6)
        enc_state = LstmCellState(rng.normal(size=8), rng.normal(size=8))
        with_carry = decode_future(params, z, enc_state)
        params_h_only = init_params(TINY, seed=10, carry_cell_state=False)
        h_only = decode_future(params_h_only, z, enc_state)
        assert not np.allclose(with_carry, h_only)
        # h-only equals carrying an explicitly zeroed cell state
        zeroed = decode_future(
            params, z, LstmCellState(enc_state.h, np.zeros(8)))
        np.testing.assert_array_equal(h_only, zeroed)

    @pytest.mark.parametrize("carry", [True, False])
    @pytest.mark.parametrize("c_shape", [(6, 8), (3, 2, 8), (2, 3, 9)],
                             ids=str)
    def test_state_shapes_must_match_the_batch(self, carry, c_shape):
        """Each state tensor is checked against z's batch before the batch
        axes are flattened, so a cell state of the same size in another
        shape is refused too."""
        params = init_params(TINY, seed=11, carry_cell_state=carry)
        z = np.zeros((2, 3, 6))
        with pytest.raises(ShapeError, match="encoder state"):
            decode_future(params, z, LstmCellState(np.zeros((2, 3, 8)),
                                                   np.zeros(c_shape)))

    # TINY is k=4, p=3, hidden=8, latent=6
    @pytest.mark.parametrize("op, inputs, message", [
        pytest.param("encode", [(5, 8)],
                     "feature window has shape (5, 8), expected (4, 8)",
                     id="encode-k"),
        pytest.param("encode", [(2, 4, 7)],
                     "feature window has shape (2, 4, 7), expected (2, 4, 8)",
                     id="encode-width"),
        pytest.param("loss_and_grads", [(2, 5, 8), (2, 3, 4)],
                     "feature window has shape (2, 5, 8), expected (2, 4, 8)",
                     id="loss_and_grads-k"),
        pytest.param("loss_and_grads", [(4, 7), (3, 4)],
                     "feature window has shape (4, 7), expected (4, 8)",
                     id="loss_and_grads-width"),
        pytest.param("loss_and_grads", [(2, 3, 4, 8), (6, 3, 4)],
                     "target_boxes has shape (6, 3, 4), expected "
                     "(2, 3, 3, 4)",
                     id="loss_and_grads-target-batch"),
        pytest.param("reconstruct", [(2, 5)],
                     "z has shape (2, 5), expected (2, 6)",
                     id="reconstruct-z"),
        pytest.param("decode_future", [(5,), (8,), (8,)],
                     "z has shape (5,), expected (6,)",
                     id="decode_future-z"),
    ])
    def test_every_input_is_checked_against_the_dims(self, op, inputs,
                                                    message):
        """Each op checks each input against its batch shape and the
        trailing shape ``params.dims`` gives it, and names the input."""
        params = init_params(TINY, seed=12)
        arrays = [np.zeros(shape) for shape in inputs]
        if op == "loss_and_grads":
            arrays.append(LossWeights())
        if op == "decode_future":
            arrays[1:] = [LstmCellState(*arrays[1:])]
        with pytest.raises(ShapeError, match=re.escape(message)):
            getattr(model, op)(params, *arrays)


class TestConcatTrajectory:
    def test_two_step_example(self):
        out = concat_trajectory(np.array([[1.0, 1.0, 0.0, 0.0],
                                          [1.0, 1.0, 0.0, 0.0]]),
                                np.array([10.0, 20.0, 5.0, 8.0]))
        np.testing.assert_array_equal(out, [[11, 21, 5, 8], [12, 22, 5, 8]])

    def test_zero_deltas_repeat_the_anchor(self):
        anchor = np.array([3.0, 4.0, 5.0, 6.0])
        out = concat_trajectory(np.zeros((5, 4)), anchor)
        np.testing.assert_array_equal(out, np.tile(anchor, (5, 1)))

    def test_matches_prefix_sum_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = int(rng.integers(1, 8))
            deltas = rng.normal(size=(p, 4))
            anchor = rng.normal(size=4)
            out = concat_trajectory(deltas, anchor)
            # scalar prefix sums in the same accumulation order
            for j in range(4):
                acc = float(anchor[j])
                for i in range(p):
                    acc = acc + float(deltas[i, j])
                    assert out[i, j] == acc

    def test_per_step_difference_recovers_deltas_exactly(self):
        # values on a dyadic grid (multiples of 1/8) keep every partial sum
        # exactly representable, so the difference identity is exact
        rng = np.random.default_rng(12)
        deltas = rng.integers(-40, 40, size=(60, 4)) / 8.0
        anchor = rng.integers(0, 2400, size=4) / 8.0
        out = concat_trajectory(deltas, anchor)
        for i in range(1, 60):
            np.testing.assert_array_equal(out[i] - out[i - 1], deltas[i])
        np.testing.assert_array_equal(out[0] - anchor, deltas[0])

    def test_translation_equivariance_on_grid_values(self):
        rng = np.random.default_rng(13)
        deltas = rng.integers(-40, 40, size=(12, 4)) / 8.0
        anchor = rng.integers(0, 2400, size=4) / 8.0
        shift = np.array([17.0, -9.0, 0.0, 0.0])
        base = concat_trajectory(deltas, anchor)
        moved = concat_trajectory(deltas, anchor + shift)
        np.testing.assert_array_equal(moved, base + shift)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("delta_dtype,anchor_dtype", [
        (np.float32, np.float32), (np.float32, np.float64),
        (np.float64, np.float32), (np.float64, np.float64)])
    def test_bitwise_equal_to_the_step_loop(self, batch, delta_dtype,
                                            anchor_dtype):
        rng = np.random.default_rng(17)
        for p in (1, 2, 7, 60, 69):
            deltas = rng.normal(0.0, 3.0, size=batch + (p, 4)) \
                .astype(delta_dtype)
            anchor = rng.uniform(-1e3, 1e3, size=batch + (4,)) \
                .astype(anchor_dtype)
            out = concat_trajectory(deltas, anchor)
            expected = concat_trajectory_loop(deltas, anchor)
            assert out.dtype == expected.dtype
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    def test_empty_deltas_raise(self):
        with pytest.raises(DataError, match="empty"):
            concat_trajectory(np.zeros((0, 4)), np.zeros(4))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(14)
        deltas = rng.normal(size=(3, 5, 4))
        anchors = rng.normal(size=(3, 4))
        out = concat_trajectory(deltas, anchors)
        for n in range(3):
            np.testing.assert_array_equal(
                out[n], concat_trajectory(deltas[n], anchors[n]))


class TestForwardTrainAndPredict:
    def test_head_shapes(self):
        params = init_params(TINY, seed=15)
        window, _ = random_window_and_targets(np.random.default_rng(15), 4, 3)
        recon, boxes = forward_train(params, window)
        assert recon.shape == (4, 8)
        assert boxes.shape == (3, 4)

    def test_forward_train_composes_the_public_ops_bitwise(self):
        params = init_params(TINY, seed=16)
        window, _ = random_window_and_targets(np.random.default_rng(16), 4, 3)
        recon, boxes = forward_train(params, window)
        z, state = encode(params, window)
        np.testing.assert_array_equal(recon, reconstruct(params, z))
        np.testing.assert_array_equal(
            boxes,
            concat_trajectory(decode_future(params, z, state), window[-1, :4]))

    def test_auto_branch_weights_never_touch_the_future_head(self):
        params = init_params(TINY, seed=17)
        window, _ = random_window_and_targets(np.random.default_rng(17), 4, 3)
        _, boxes_before = forward_train(params, window)
        params.auto_dec.wx[...] = 0.0
        params.fc_recon.w[...] = 123.0
        _, boxes_after = forward_train(params, window)
        np.testing.assert_array_equal(boxes_before, boxes_after)

    def test_predict_equals_forward_train_future_head_bitwise(self):
        params = init_params(TINY, seed=18)
        rng = np.random.default_rng(18)
        rows = np.abs(rng.normal(100, 10, size=(4, 4))) + 1.0
        boxes = make_boxes(rows)
        _, from_train = forward_train(params, build_features(boxes))
        np.testing.assert_array_equal(predict(params, boxes), from_train)

    def test_predict_with_stubbed_constant_delta_head(self):
        params = init_params(TINY, seed=19)
        params.fc_delta.w[...] = 0.0
        params.fc_delta.b[...] = [1.0, 0.0, 0.0, 0.0]
        boxes = make_boxes([(97.0, 50.0, 10.0, 20.0)] * 3
                           + [(100.0, 50.0, 10.0, 20.0)])
        out = predict(params, boxes)
        np.testing.assert_array_equal(out, [[101, 50, 10, 20],
                                            [102, 50, 10, 20],
                                            [103, 50, 10, 20]])

    def test_wrong_history_length_raises(self):
        params = init_params(TINY, seed=20)
        with pytest.raises(DataError, match="k=4"):
            predict(params, make_boxes([(1, 1, 2, 2)] * 3))

    def test_single_precision_inference_path(self):
        params = init_params(TINY, seed=21).astype(np.float32)
        window, _ = random_window_and_targets(np.random.default_rng(21), 4, 3)
        out = predict_from_window(params, window.astype(np.float32))
        assert out.dtype == np.float32
        assert np.all(np.isfinite(out))


class TestTracedStepNames:
    """The benchmark times each LSTM step by rebinding these names in
    `boxcast.model`, so the drivers must call them through that module, once
    per step."""

    @pytest.fixture
    def steps(self):
        return []

    @pytest.fixture
    def calls(self, monkeypatch, steps):
        counts = {}
        for name in ("lstm_cell_forward", "_lstm_cell_from_preact",
                     "lstm_gate_backward"):
            def counting(*args, _name=name, _fn=getattr(model, name)):
                counts[_name] = counts.get(_name, 0) + 1
                if _name != "lstm_gate_backward":
                    steps.append((_name, args[0], args[1]))
                return _fn(*args)

            monkeypatch.setattr(model, name, counting)
        return counts

    @staticmethod
    def assert_step_args(steps, dtype):
        """What the tracer reads of a step call: the cell's widths from
        ``args[0]``; from ``args[1]`` the batch shape and the itemsize, and
        a last dim of D (an encoder row) or 4H (a decoder pre-activation)."""
        assert steps
        for name, cell, x in steps:
            assert isinstance(cell.input_size, int), name
            assert isinstance(cell.hidden_size, int), name
            width = cell.input_size if name == "lstm_cell_forward" \
                else 4 * cell.hidden_size
            assert x.shape[-1] == width, name
            assert x.dtype == dtype, name

    def test_predict_runs_k_encoder_and_p_decoder_steps(self, calls, steps):
        params = init_params(TINY, seed=30)
        predict(params, make_boxes([(10.0 + i, 20.0, 5.0, 8.0)
                                    for i in range(TINY.k)]))
        assert calls == {"lstm_cell_forward": TINY.k,
                         "_lstm_cell_from_preact": TINY.p}
        self.assert_step_args(steps, np.float64)

    def test_autoenc_training_step_runs_2k_plus_p_gate_backwards(self, calls,
                                                                 steps):
        params = init_params(TINY, seed=31)
        window, targets = random_window_and_targets(
            np.random.default_rng(31), 4, 3)
        loss_and_grads(params, window, targets,
                       LossWeights(mode=MODE_TRAJ_AUTOENC))
        assert calls == {"lstm_cell_forward": TINY.k,
                         "_lstm_cell_from_preact": TINY.k + TINY.p,
                         "lstm_gate_backward": 2 * TINY.k + TINY.p}
        self.assert_step_args(steps, np.float64)

    def test_float32_model_steps_read_float32_inputs(self, calls, steps):
        """Fed float64 windows and targets, a float32 model's inference and
        training steps both take float32 inputs."""
        params = init_params(TINY, seed=32).astype(np.float32)
        window, targets = random_window_and_targets(
            np.random.default_rng(32), 4, 3)
        predict_from_window(params, window)
        loss_and_grads(params, window, targets,
                       LossWeights(mode=MODE_TRAJ_AUTOENC))
        self.assert_step_args(steps, np.float32)


class TestTracerTargets:
    """perfbench's traced run rebinds each (module, attribute) its tracing
    module lists; this adds that every rebound target exists and is
    callable."""

    def test_every_traced_name_resolves(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        targets = tracing.targets()
        assert targets
        for module, attr, *_ in targets:
            assert callable(getattr(module, attr, None)), \
                f"{module.__name__}.{attr}"


class TestInferenceDtypeFlow:
    """A float32 model fed the float64 windows ``build_features`` makes must
    run its network in float32 (a mixed-dtype step upcasts the recurrent
    weights on every call) and still return float64 boxes."""

    def f32_case(self, seed):
        params = init_params(TINY, seed=seed).astype(np.float32)
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.normal(100, 10, size=(TINY.k + 1, 4))) + 1.0
        boxes = make_boxes(rows)
        return params, boxes[1:], boxes[0]

    def test_encode_runs_in_the_params_dtype(self):
        params, boxes, before = self.f32_case(40)
        window = build_features(boxes, before)
        assert window.dtype == np.float64
        z, state = encode(params, window)
        assert (z.dtype, state.h.dtype, state.c.dtype) == (np.float32,) * 3

    def test_decoders_cast_float64_inputs_to_the_params_dtype(self):
        params, _, _ = self.f32_case(41)
        rng = np.random.default_rng(41)
        z = rng.normal(size=TINY.latent).astype(np.float32)
        h, c = rng.normal(size=(2, TINY.hidden)).astype(np.float32)
        want = decode_future(params, z, LstmCellState(h, c))
        got = decode_future(params, z.astype(np.float64),
                            LstmCellState(h.astype(np.float64),
                                          c.astype(np.float64)))
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            reconstruct(params, z.astype(np.float64)), reconstruct(params, z))

    def test_predict_equals_forward_train_future_head_bitwise(self):
        params, boxes, before = self.f32_case(42)
        _, from_train = forward_train(params, build_features(boxes, before))
        np.testing.assert_array_equal(predict(params, boxes, before),
                                      from_train)

    def test_predict_returns_float64_boxes_on_the_float64_anchor(self):
        params, boxes, before = self.f32_case(43)
        window = build_features(boxes, before)
        out = predict(params, boxes, before)
        assert out.dtype == np.float64
        z, state = encode(params, window)
        deltas = decode_future(params, z, state)
        np.testing.assert_array_equal(
            out, concat_trajectory(deltas.astype(np.float64), window[-1, :4]))

    def test_loaded_tensors_are_float32(self, tmp_path):
        path = tmp_path / "m.bxw"
        save_model(init_params(TINY, seed=44), path)
        loaded, _ = load_model(path)
        assert loaded.dtype == np.float32
        for name, t in loaded.tensors().items():
            assert t.dtype == np.float32, name
            assert t.flags.writeable, name



class TestPredictMatchesTrainingHead:
    """`predict_from_window` is `forward_train`'s future head without the
    reconstruction branch, so the two agree bit for bit: any dims, either
    dtype, either carry setting, one window or a stack of them. A single
    window runs as a one-row batch, so it also gives its (1,) batch's
    bits."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7),
           p=st.integers(1, 7), hidden=st.integers(1, 24),
           latent=st.integers(1, 12),
           dtype=st.sampled_from([np.float32, np.float64]),
           carry=st.booleans(),
           batch=st.sampled_from([(), (1,), (3,), (5,), (2, 3)]))
    # a (2, 3) stack at latent 1: a stacked fc_latent product one output
    # column wide can round apart from the same rows stacked as (6,)
    @example(seed=943531865, k=1, p=1, hidden=6, latent=1, dtype=np.float32,
             carry=False, batch=(2, 3))
    def test_bitwise_equal(self, seed, k, p, hidden, latent, dtype, carry,
                           batch):
        rng = np.random.default_rng(seed)
        params = init_params(ModelDims(k=k, p=p, hidden=hidden,
                                       latent=latent),
                             seed=rng, carry_cell_state=carry).astype(dtype)
        windows = [random_window_and_targets(rng, k, p)[0]
                   for _ in range(int(np.prod(batch)))]
        window = np.stack(windows).reshape(batch + (k, 8))
        got = predict_from_window(params, window)
        _, want = forward_train(params, window)
        assert got.shape == batch + (p, 4)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if len(batch) == 2:
            # a 2-D batch runs its steps as the same rows, flattened
            flat = predict_from_window(params, np.stack(windows))
            assert got.tobytes() == flat.tobytes()
        if batch == ():
            one = predict_from_window(params, window[None])
            assert one.shape == (1, p, 4)
            assert got.tobytes() == one.tobytes()


class TestTrainingBatchIsItsFlatBatch:
    """`loss_and_grads` flattens its batch axes at entry, so a (2, 3) batch
    gives the loss and gradient bytes of the same six windows as a (6,)
    batch: any dims (latent 1, a one-column product, included), either
    dtype, either carry setting, every loss mode."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7),
           p=st.integers(1, 7), hidden=st.integers(1, 24),
           latent=st.integers(1, 12),
           dtype=st.sampled_from([np.float32, np.float64]),
           carry=st.booleans(), mode=st.sampled_from(LOSS_MODES))
    @example(seed=943531865, k=1, p=1, hidden=6, latent=1, dtype=np.float32,
             carry=False, mode=MODE_TRAJ_AUTOENC)
    def test_bitwise_equal(self, seed, k, p, hidden, latent, dtype, carry,
                           mode):
        rng = np.random.default_rng(seed)
        params = init_params(ModelDims(k=k, p=p, hidden=hidden,
                                       latent=latent),
                             seed=rng, carry_cell_state=carry).astype(dtype)
        pairs = [random_window_and_targets(rng, k, p) for _ in range(6)]
        window = np.stack([w for w, _ in pairs])
        targets = np.stack([t for _, t in pairs])
        weights = LossWeights(mode=mode)
        loss, terms, grads = loss_and_grads(
            params, window.reshape(2, 3, k, 8), targets.reshape(2, 3, p, 4),
            weights)
        flat_loss, flat_terms, flat_grads = loss_and_grads(
            params, window, targets, weights)
        assert (loss, terms) == (flat_loss, flat_terms)
        for name, g in grads.items():
            assert g.tobytes() == flat_grads[name].tobytes(), name


class TestBatchedMatchesPerSample:
    """Each row of a batched forecast is within a stated bound of the same
    window forecast alone: 1e-3 px at float32 (the bound batched evaluation
    is held to) and 1e-9 px at float64. The rows are not bitwise equal,
    since a batch of n rows runs one matrix product per step where a single
    window, a one-row batch, runs matrix-vector products (measured at full
    size, float32, on 64 synthetic windows at batches 2 to 64: at most
    1.8e-6 px)."""

    BOUND_PX = {np.float32: 1e-3, np.float64: 1e-9}

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7),
           p=st.integers(1, 7), hidden=st.integers(1, 24),
           latent=st.integers(1, 12),
           dtype=st.sampled_from([np.float32, np.float64]),
           carry=st.booleans(), n=st.integers(2, 9))
    def test_rows_within_bound(self, seed, k, p, hidden, latent, dtype,
                               carry, n):
        rng = np.random.default_rng(seed)
        params = init_params(ModelDims(k=k, p=p, hidden=hidden,
                                       latent=latent),
                             seed=rng, carry_cell_state=carry).astype(dtype)
        windows = np.stack([random_window_and_targets(rng, k, p)[0]
                            for _ in range(n)])
        batched = predict_from_window(params, windows)
        assert batched.shape == (n, p, 4)
        for j in range(n):
            single = predict_from_window(params, windows[j])
            gap = float(np.abs(batched[j] - single).max())
            assert gap <= self.BOUND_PX[dtype], (j, gap)


class TestTrainingDtypeFlow:
    """`loss_and_grads` casts its window and targets to ``params.dtype`` once
    at entry and runs the whole pass, backward included, in that dtype."""

    def test_float32_params_give_float32_gradients(self):
        params = init_params(TINY, seed=50).astype(np.float32)
        window, targets = random_window_and_targets(
            np.random.default_rng(50), 4, 3)
        assert window.dtype == targets.dtype == np.float64
        loss, terms, grads = loss_and_grads(params, window, targets,
                                            LossWeights())
        assert type(loss) is float
        assert all(type(v) is float for v in terms.values())
        assert [(name, g.shape, g.dtype) for name, g in grads.items()] == [
            (name, t.shape, np.float32)
            for name, t in params.tensors().items()]
        # no float64 step ran: float32 inputs give the very same bits
        loss32, _, grads32 = loss_and_grads(
            params, window.astype(np.float32), targets.astype(np.float32),
            LossWeights())
        assert loss == loss32
        for name, g in grads.items():
            np.testing.assert_array_equal(g, grads32[name], err_msg=name)

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_float32_matches_float64_on_the_same_weights(self, mode):
        """Same weights, same batch of 8 pixel-scale windows: the float32
        loss is within 1e-5 of the float64 one (relative), and every float32
        gradient tensor within 2e-5 of the float64 tensor's largest entry
        (measured on this case: 3.4e-7 and 1.3e-6)."""
        dims = ModelDims(k=6, p=5, hidden=32, latent=16)
        rng = np.random.default_rng(4)
        p32 = init_params(dims, seed=4).astype(np.float32)
        p64 = p32.astype(np.float64)
        pairs = [random_window_and_targets(rng, dims.k, dims.p)
                 for _ in range(8)]
        window = np.stack([w for w, _ in pairs])
        targets = np.stack([t for _, t in pairs])
        weights = LossWeights(mode=mode)
        l32, _, g32 = loss_and_grads(p32, window, targets, weights)
        l64, _, g64 = loss_and_grads(p64, window, targets, weights)
        assert abs(l32 - l64) <= 1e-5 * abs(l64)
        for name, want in g64.items():
            gap = np.abs(g32[name] - want).max()
            assert gap <= 2e-5 * np.abs(want).max(), name


FULL = ModelDims(k=30, p=60)


@pytest.fixture(scope="module")
def full_f32():
    """Full-size (hidden 512) float32 weights, as a weight file loads."""
    return init_params(FULL, seed=11).astype(np.float32)


def stacked_windows(rng, batch, k):
    windows = [random_window_and_targets(rng, k, 1)[0]
               for _ in range(int(np.prod(batch)))]
    return np.stack(windows).reshape(tuple(batch) + (k, 8))


class TestTiledBatchesAtFullSize:
    """The two equivalence properties above on batches whose steps run
    their recurrent product as row tiles of ``wh`` smaller than its
    halves: 2 to 12 rows at hidden 512. Tiny dims run all of ``wh`` as
    one tile."""

    @pytest.mark.parametrize("batch", [(2,), (2, 3), (12,)], ids=str)
    def test_predict_equals_forward_train_bitwise(self, full_f32, batch):
        seq = LstmSeq.start(full_f32.enc, LstmCellState.zeros(
            FULL.hidden, int(np.prod(batch)), np.float32), 0)
        assert len(seq.tiles) > 1
        window = stacked_windows(np.random.default_rng(sum(batch)), batch,
                                 FULL.k)
        got = predict_from_window(full_f32, window)
        _, want = forward_train(full_f32, window)
        assert got.shape == batch + (FULL.p, 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_batched_rows_within_bound_of_per_sample(self, full_f32, n):
        """Within `TestBatchedMatchesPerSample`'s float32 bound, 1e-3 px
        (measured: at most 1.2e-6 px)."""
        windows = stacked_windows(np.random.default_rng(30 + n), (n,),
                                  FULL.k)
        batched = predict_from_window(full_f32, windows)
        gap = max(float(np.abs(batched[j] - predict_from_window(
            full_f32, windows[j])).max()) for j in range(n))
        assert gap <= TestBatchedMatchesPerSample.BOUND_PX[np.float32], gap


class TestForecastBlocks:
    """`predict_from_window` runs n rows as ceil(n / `FORECAST_CHUNK`)
    near-equal blocks, as `loss_and_grads` runs its batch."""

    @pytest.mark.parametrize("n", [70, 129])
    def test_full_size_blocks_equal_forward_train_bitwise(self, full_f32, n):
        """70 rows run as two blocks of 35 and 129 as three of 43, every
        block past the 2-12 rows of the tiled recurrent product, so each
        row has the bits of the same rows run as one batch through
        `forward_train` (fixed 64-row chunks left tails of 6 and 1 rows,
        which round apart by up to 6.7e-7 px)."""
        window = stacked_windows(np.random.default_rng(n), (n,), FULL.k)
        got = predict_from_window(full_f32, window)
        _, want = forward_train(full_f32, window)
        assert got.shape == (n, FULL.p, 4)
        assert got.tobytes() == want.tobytes()

    def test_blocks_keep_the_batch_shape_and_the_callers_anchors(
            self, monkeypatch):
        """With the limit patched to 2, a (5, 1) float64 batch on float32
        weights runs blocks of 2, 2 and 1 rows. The result has the caller's
        batch shape and float64 boxes, and equals each block forecast on
        its own, bit for bit."""
        monkeypatch.setattr(model, "FORECAST_CHUNK", 2)
        params = init_params(TINY, seed=15).astype(np.float32)
        rng = np.random.default_rng(15)
        windows = np.stack([random_window_and_targets(rng, TINY.k, 1)[0]
                            for _ in range(5)])
        rows = []
        real = model.encode

        def recording(params, window):
            rows.append(len(window))
            return real(params, window)

        monkeypatch.setattr(model, "encode", recording)
        got = predict_from_window(params, windows[:, None])
        assert rows == [2, 2, 1]
        assert got.shape == (5, 1, TINY.p, 4)
        assert got.dtype == np.float64
        want = np.concatenate([predict_from_window(params, windows[j:j + 2])
                               for j in (0, 2, 4)])
        assert got.reshape(5, TINY.p, 4).tobytes() == want.tobytes()


# Run in a child process: full-size float32 forecasts of a single window
# and of batches of 1, 6 and 64, printed as their SHA-256 digests.
_FORECAST_DIGESTS = """
import hashlib, json
import numpy as np
from helpers import random_window_and_targets
from boxcast.model import ModelDims, init_params, predict_from_window
params = init_params(ModelDims(k=30, p=60), seed=11).astype(np.float32)
rng = np.random.default_rng(41)
windows = np.stack([random_window_and_targets(rng, 30, 1)[0]
                    for _ in range(64)])
cases = {"()": windows[0], "(1,)": windows[:1], "(6,)": windows[:6],
         "(64,)": windows}
print(json.dumps({name: hashlib.sha256(
    predict_from_window(params, w).tobytes()).hexdigest()
    for name, w in cases.items()}))
"""


def test_forecast_bits_do_not_depend_on_the_blas_thread_count():
    """The same forecasts at one and at two BLAS threads, each in its own
    child process (numpy fixes the BLAS pool when it loads), are equal bit
    for bit, and at each count a single window's forecast has the bytes of
    its (1,) batch's. Training gradients are not yet thread-count
    independent: some of their weight-gradient products round apart
    between the two counts."""
    paths = [str(Path(model.__file__).parents[1]), str(Path(__file__).parent)]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(paths)}
        out = subprocess.run([sys.executable, "-c", _FORECAST_DIGESTS],
                             env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        digests.append(json.loads(out.stdout.splitlines()[-1]))
    assert list(digests[0]) == ["()", "(1,)", "(6,)", "(64,)"]
    assert digests[0] == digests[1]
    assert all(d["()"] == d["(1,)"] for d in digests)


class TestFloat32WithinBoundOfFloat64:
    """On random dims, windows and batch shapes, float32 inference and
    training stay within the bounds the fixed cases state: forecasts within
    1e-3 px of float64 (`TestInferencePrecision`), the loss within 1e-5
    relative and gradients within 2e-5 (`TestTrainingDtypeFlow`).

    Three things had to be stated more exactly than the fixed cases do, as
    random draws broke the simple forms:
    - The loss may also differ by the float32 rounding of the boxes: a
      residual of ~1 px on ~150 px coordinates carries their ulp of ~1e-5
      px. The slack is two ulps of the largest coordinate per forecast
      step (measured at most 0.7 over 1500 draws).
    - Gradient gaps are measured against one scale for all tensors: the
      largest entry of the per-sample float64 gradients' mean absolute
      value. Rounding acts on those summands; the batch gradient itself can
      be ~0 where L1 signs cancel over the batch, and a saturated cell can
      leave a tensor whose gradient is 1e-17 of the others'. Measured at
      most 7.0e-6 of that scale over 3000 draws (1.0e-5 with widths 1 to
      3 drawn too, where cells saturate; widths start at 4).
    - The gradient check skips a draw where an L1 residual lies within the
      forecast bound of zero: float32 may take the other side of that kink,
      and the gradient then jumps by 2/n, which is not rounding.
    Hidden 128 at 12 rows runs row tiles of ``wh``."""

    FORECAST_PX, LOSS_RTOL, GRAD_ATOL = 1e-3, 1e-5, 2e-5

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           p=st.integers(1, 8),
           hidden=st.one_of(st.integers(4, 24), st.just(128)),
           latent=st.integers(1, 12), mode=st.sampled_from(LOSS_MODES),
           carry=st.booleans(),
           batch=st.sampled_from([(), (1,), (3,), (2, 3), (12,)]))
    def test_within_bound(self, seed, k, p, hidden, latent, mode, carry,
                          batch):
        rng = np.random.default_rng(seed)
        p32 = init_params(ModelDims(k=k, p=p, hidden=hidden, latent=latent),
                          seed=rng, carry_cell_state=carry
                          ).astype(np.float32)
        p64 = p32.astype(np.float64)
        n = int(np.prod(batch))
        # random walks, windowed with a predecessor so that no feature is
        # an exact zero
        start = np.concatenate([rng.uniform(50.0, 150.0, (n, 1, 2)),
                                rng.uniform(8.0, 20.0, (n, 1, 2))], axis=-1)
        boxes = start + np.cumsum(rng.normal(0.0, 1.5, (n, k + p + 1, 4)),
                                  axis=1)
        boxes[..., 2:] = np.maximum(boxes[..., 2:], 1.0)
        window = model.feature_windows(boxes[:, :k + 1], None,
                                       np.ones(n, dtype=bool))
        window = window.reshape(batch + (k, 8))
        targets = boxes[:, k + 1:].reshape(batch + (p, 4))

        forecast_gap = np.abs(predict_from_window(p32, window)
                              - predict_from_window(p64, window)).max()
        assert forecast_gap <= self.FORECAST_PX
        weights = LossWeights(mode=mode)
        l32, _, g32 = loss_and_grads(p32, window, targets, weights)
        l64, _, g64 = loss_and_grads(p64, window, targets, weights)
        ulp = float(np.spacing(np.float32(np.abs(boxes).max())))
        assert abs(l32 - l64) <= self.LOSS_RTOL * abs(l64) + 2 * p * ulp

        z, state = encode(p64, window)
        deltas = decode_future(p64, z, state)
        anchor = window[..., -1:, :4]
        residuals = [deltas - np.diff(np.concatenate([anchor, targets], -2),
                                      axis=-2)
                     if mode == MODE_TRAJ_DEL
                     else concat_trajectory(deltas, anchor[..., 0, :])
                     - targets]
        if mode == MODE_TRAJ_AUTOENC:
            residuals.append(reconstruct(p64, z) - reconstruction_target(window))
        assume(min(np.abs(r).min() for r in residuals) > self.FORECAST_PX)
        per_sample = [loss_and_grads(p64, w, t, weights)[2] for w, t in
                      zip(window.reshape(-1, k, 8), targets.reshape(-1, p, 4))]
        scale = max(np.mean([np.abs(g[name]) for g in per_sample], axis=0).max()
                    for name in g64)
        for name, want in g64.items():
            assert np.abs(g32[name] - want).max() <= self.GRAD_ATOL * scale, \
                name


class TestTrainingMemory:
    """Tracemalloc peak of one float32 traj+auto-enc `loss_and_grads` against
    the bytes it must hold: LSTM caches (gates, c and h buffers) plus the
    gradients. The encoder and the reconstruction decoder run k steps, the
    future decoder p. The budgets count a (T+1)-step h buffer per pass,
    which no pass keeps any more; `TestNoHiddenStateStack` bounds that
    tighter."""

    DIMS = ModelDims(k=10, p=20, hidden=64, latent=32)
    N = 64

    @classmethod
    def peak_and_budget(cls, cache_steps, rows=N):
        """(peak bytes, 1.25x the caches of runs of ``cache_steps`` steps
        over ``rows`` rows plus the gradient bytes)."""
        dims, n = cls.DIMS, cls.N
        params = init_params(dims, seed=5).astype(np.float32)
        rng = np.random.default_rng(5)
        window = rng.normal(size=(n, dims.k, 8)).astype(np.float32)
        targets = rng.normal(size=(n, dims.p, 4)).astype(np.float32)
        weights = LossWeights(mode=MODE_TRAJ_AUTOENC)
        loss_and_grads(params, window, targets, weights)
        H = dims.hidden
        cache_values = sum(t * rows * 4 * H + 2 * (t + 1) * rows * H
                           for t in cache_steps)
        grad_bytes = sum(t.nbytes for t in params.tensors().values())
        tracemalloc.start()
        try:
            loss_and_grads(params, window, targets, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, 1.25 * (cache_values * 4 + grad_bytes)

    def test_backward_runs_inside_the_forward_caches(self):
        """The backward pass writes its gate gradients over the forward
        caches and keeps no tanh(c) buffer, so the peak stays within 1.25x
        of all three sequences' caches plus the gradients (measured 0.72; a
        separate gates-shaped gradient buffer per sequence reads 1.61 when
        all three sequences are live at once)."""
        dims = self.DIMS
        peak, budget = self.peak_and_budget((dims.k, dims.k, dims.p))
        assert peak <= budget, (peak, budget)

    def test_decoder_branches_never_hold_caches_at_once(self):
        """Each decoder branch runs its backward pass and frees its caches
        before the next one allocates, and forms its head's per-step
        hidden-state gradients inside the backward loop, so the peak stays
        within 1.25x of the encoder's and the larger decoder's caches plus
        the gradients (measured 0.95; all three sequences live at once, with
        a stacked per-step head gradient, read 1.52)."""
        dims = self.DIMS
        peak, budget = self.peak_and_budget((dims.k, max(dims.k, dims.p)))
        assert peak <= budget, (peak, budget)

    def test_a_batch_of_four_blocks_holds_one_blocks_caches(self,
                                                            monkeypatch):
        """With `TRAIN_BLOCK_ROWS` at a quarter of the batch, each block
        frees its caches before the next allocates, so the peak stays
        within 1.25x of one block's encoder and larger decoder caches plus
        the gradients (measured 1.00; whole-batch caches read 3.43)."""
        dims = self.DIMS
        monkeypatch.setattr(model, "TRAIN_BLOCK_ROWS", self.N // 4)
        peak, budget = self.peak_and_budget((dims.k, max(dims.k, dims.p)),
                                            self.N // 4)
        assert peak <= budget, (peak, budget)


class TestNoHiddenStateStack:
    """No LSTM pass keeps a (T+1, n, H) stack of hidden states: a pass
    holds its gates, its cell-state stack, one (n, H) hidden state and a
    copy of its initial h, and the backward rebuilds the hidden states in
    the cell-state stack. Tracemalloc peaks at hidden 64, latent 32, k 30,
    p 60, float64, against that cache arithmetic."""

    DIMS = ModelDims(k=30, p=60, hidden=64, latent=32)

    @classmethod
    def cache_bytes(cls, steps, rows):
        """Bytes of one float64 pass's caches: (steps, rows, 4H) gates,
        (steps + 1, rows, H) cell states, and two (rows, H) hidden states
        (the pass's h and the initial copy)."""
        H = cls.DIMS.hidden
        return 8 * rows * H * (4 * steps + (steps + 1) + 2)

    @staticmethod
    def traced_peak(fn, *args):
        fn(*args)
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_training_step_holds_no_hidden_state_stack(self):
        """A 100-row traj+auto-enc `loss_and_grads` (one block) peaks
        within 1.12x of the encoder's and the future decoder's caches plus
        the gradients (measured 1.04; with both passes' h stacks, 1.23)."""
        dims, n = self.DIMS, 100
        params = init_params(dims, seed=5)
        rng = np.random.default_rng(5)
        window = rng.normal(size=(n, dims.k, 8))
        targets = rng.normal(size=(n, dims.p, 4))
        peak = self.traced_peak(loss_and_grads, params, window, targets,
                                LossWeights(mode=MODE_TRAJ_AUTOENC))
        grad_bytes = sum(t.nbytes for t in params.tensors().values())
        budget = 1.12 * (self.cache_bytes(dims.k, n)
                         + self.cache_bytes(dims.p, n) + grad_bytes)
        assert peak <= budget, (peak, budget)

    def test_forecast_holds_one_decoder_pass(self):
        """A 64-row `predict_from_window` peaks within 1.12x of the future
        decoder's caches (measured 1.04): the encoder's stacks are freed
        before the decoder allocates, since `encode` returns the encoder's
        own h and a copy of its final c, and neither pass keeps an h stack
        (the encoder's cell-state stack kept alive by a view, with both h
        stacks, read 1.44)."""
        dims, n = self.DIMS, 64
        params = init_params(dims, seed=6)
        window = np.random.default_rng(6).normal(size=(n, dims.k, 8))
        peak = self.traced_peak(predict_from_window, params, window)
        budget = 1.12 * self.cache_bytes(dims.p, n)
        assert peak <= budget, (peak, budget)


class TestParamCount:
    def test_reference_configuration_count(self):
        dims = ModelDims(k=30, p=60, hidden=512, latent=256)
        assert param_count(init_params(dims, seed=0)) == 4_360_460

    def test_tensor_count_matches_layer_arithmetic(self):
        for dims in (TINY, ModelDims(k=5, p=4, hidden=16, latent=12),
                     ModelDims(k=30, p=60, hidden=512, latent=256)):
            assert param_count(init_params(dims, seed=1)) == param_count_for(dims)


class TestInitParams:
    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_an_int_seed_is_checked_where_it_is_drawn(self, seed):
        """A seed that is not a Generator must be an int >= 0 (a bool is
        not one); numpy would refuse -1 with a bare ValueError."""
        message = f"^seed must be an int >= 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ConfigError, match=message):
            init_params(TINY, seed=seed)


class TestCompositeLoss:
    """`composite_loss` takes the delta rows the network emits. The cases
    are integer-valued boxes, so differencing them into deltas and summing
    deltas back into boxes round nowhere and every loss below is exact."""

    def integer_case(self):
        """(window, target boxes, target deltas) of k = 4, p = 3 boxes."""
        rng = np.random.default_rng(22)
        boxes = np.cumsum(rng.integers(-3, 4, size=(7, 4)), axis=0) \
            + np.array([100.0, 80.0, 20.0, 30.0])
        window, targets = build_features(boxes[:4]), boxes[4:]
        return window, targets, np.diff(targets, axis=0,
                                        prepend=window[-1, None, :4])

    def test_perfect_predictions_give_zero_loss_in_every_mode(self):
        window, targets, target_deltas = self.integer_case()
        for mode in LOSS_MODES:
            loss, _ = composite_loss(
                reconstruction_target(window), window, target_deltas.copy(),
                targets, LossWeights(mode=mode))
            assert loss == 0.0

    def test_weighted_sum_with_both_branch_l1_at_half(self):
        window, targets, target_deltas = self.integer_case()
        recon = reconstruction_target(window) + 0.5
        deltas = target_deltas.copy()
        deltas[0] += 0.5  # every box 0.5 off
        loss, terms = composite_loss(
            recon, window, deltas, targets,
            LossWeights(alpha=1.0, beta=2.0, mode=MODE_TRAJ_AUTOENC))
        assert loss == pytest.approx(1.5, rel=1e-12)
        assert terms["auto_enc"] == pytest.approx(0.5, rel=1e-12)
        assert terms["traj"] == pytest.approx(0.5, rel=1e-12)

    def test_traj_mode_ignores_reconstruction(self):
        window, targets, target_deltas = self.integer_case()
        deltas = target_deltas.copy()
        deltas[0] += 1.0  # every box 1.0 off
        loss, terms = composite_loss(
            None, window, deltas, targets, LossWeights(mode=MODE_TRAJ))
        assert loss == pytest.approx(2.0, rel=1e-12)
        assert "auto_enc" not in terms

    def test_traj_del_mode_supervises_deltas(self):
        window, targets, target_deltas = self.integer_case()
        deltas = target_deltas + 0.25
        loss, _ = composite_loss(None, window, deltas, targets,
                                 LossWeights(beta=2.0, mode=MODE_TRAJ_DEL))
        assert loss == pytest.approx(0.5, rel=1e-12)
        # the same deltas summed into boxes are 0.25, 0.5 and 0.75 off
        loss, _ = composite_loss(None, window, deltas, targets,
                                 LossWeights(beta=2.0, mode=MODE_TRAJ))
        assert loss == pytest.approx(1.0, rel=1e-12)

    def test_missing_reconstruction_rows_raise(self):
        window, targets, target_deltas = self.integer_case()
        with pytest.raises(ConfigError, match="reconstruction rows"):
            composite_loss(None, window, target_deltas, targets,
                           LossWeights(mode=MODE_TRAJ_AUTOENC))

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError):
            LossWeights(mode="everything")

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_loss_weights_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError, match=field):
            LossWeights(**{field: value})

    def test_batch_loss_is_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(27)
        params = init_params(TINY, seed=27)
        windows = []
        targets = []
        for _ in range(4):
            w, t = random_window_and_targets(rng, 4, 3)
            windows.append(w)
            targets.append(t)
        wb = np.stack(windows)
        tb = np.stack(targets)
        weights = LossWeights(mode=MODE_TRAJ_AUTOENC)
        batch_loss, _, _ = loss_and_grads(params, wb, tb, weights)
        singles = [loss_and_grads(params, w, t, weights)[0]
                   for w, t in zip(windows, targets)]
        assert batch_loss == pytest.approx(np.mean(singles), rel=1e-12)


class TestLossAndGrads:
    @pytest.mark.parametrize("mode", LOSS_MODES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_finite_differences(self, mode, seed):
        case_seed = 1000 * seed + 97 * LOSS_MODES.index(mode)
        params, window, targets = gradcheck_case(case_seed)
        weights = LossWeights(alpha=1.0, beta=2.0, mode=mode)
        _, _, grads = loss_and_grads(params, window, targets, weights)
        tensors = params.tensors()
        for name, tensor in tensors.items():
            numeric = fd_grad(
                lambda _: loss_via_public_ops(params, window, targets,
                                              weights), tensor)
            np.testing.assert_allclose(
                grads[name], numeric, rtol=1e-4, atol=1e-8,
                err_msg=f"tensor {name}, mode {mode}")

    @pytest.mark.parametrize("carry", [True, False])
    @pytest.mark.parametrize("dtype,batch", [(np.float64, None),
                                             (np.float32, 4)])
    def test_engine_loss_equals_public_op_composition(self, dtype, batch,
                                                      carry):
        """Bit for bit, on one float64 sample and on a float32 batch of 4
        (inputs given in float32, as `training.train` gives them)."""
        params, window, targets = gradcheck_case(7, carry_cell_state=carry)
        if batch is not None:
            cases = [gradcheck_case(7 + j, carry_cell_state=carry)
                     for j in range(batch)]
            window = np.stack([w for _, w, _ in cases])
            targets = np.stack([t for _, _, t in cases])
        params = params.astype(dtype)
        window, targets = window.astype(dtype), targets.astype(dtype)
        for mode in LOSS_MODES:
            weights = LossWeights(mode=mode)
            engine_loss, _, _ = loss_and_grads(params, window, targets, weights)
            assert engine_loss == loss_via_public_ops(
                params, window, targets, weights)

    def test_inactive_branch_gradients_are_zero(self):
        params, window, targets = gradcheck_case(8)
        for mode in (MODE_TRAJ, MODE_TRAJ_DEL):
            _, _, grads = loss_and_grads(params, window, targets,
                                         LossWeights(mode=mode))
            for name in ("auto_dec.wx", "auto_dec.wh", "auto_dec.bx",
                         "auto_dec.bh", "fc_recon.w", "fc_recon.b"):
                assert np.all(grads[name] == 0.0), name

    def test_batch_gradient_is_mean_of_per_sample_gradients(self):
        rng = np.random.default_rng(28)
        params = init_params(TINY, seed=28)
        ws, ts = [], []
        for _ in range(3):
            w, t = random_window_and_targets(rng, 4, 3)
            ws.append(w)
            ts.append(t)
        weights = LossWeights(mode=MODE_TRAJ_AUTOENC)
        _, _, batch_grads = loss_and_grads(params, np.stack(ws), np.stack(ts),
                                           weights)
        single_grads = [loss_and_grads(params, w, t, weights)[2]
                        for w, t in zip(ws, ts)]
        for name in batch_grads:
            mean_grad = np.mean([g[name] for g in single_grads], axis=0)
            np.testing.assert_allclose(batch_grads[name], mean_grad,
                                       rtol=1e-10, atol=1e-13,
                                       err_msg=name)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_reconstruction_term_skips_the_encoder_backward(
            self, monkeypatch):
        """A finite trajectory term with an overflowing alpha * reconstruction
        term raises once the reconstruction branch has run its forward pass:
        the future branch's backward has run, the encoder's never does."""
        params = init_params(TINY, seed=10)
        # pixel-scale boxes: both L1 terms are far above 1
        window, targets = random_window_and_targets(
            np.random.default_rng(10), TINY.k, TINY.p)
        cells = []
        real = model.lstm_gate_backward

        def recording(seq, *args):
            cells.append(seq.cell)
            return real(seq, *args)

        monkeypatch.setattr(model, "lstm_gate_backward", recording)
        weights = LossWeights(alpha=1e308, mode=MODE_TRAJ_AUTOENC)
        with pytest.raises(NumericError, match="non-finite loss inf"):
            loss_and_grads(params, window, targets, weights)
        assert len(cells) == TINY.p
        assert all(cell is params.fut_dec for cell in cells)

    def test_empty_batch_is_a_data_error_before_any_step(self, monkeypatch):
        """An empty batch raises DataError at entry: no step runs and no
        warning is printed. Forecasting the same empty batch returns an
        empty (0, p, 4) forecast."""
        params = init_params(TINY, seed=12)
        window = np.zeros((0, TINY.k, 8))
        steps = []
        monkeypatch.setattr(model, "lstm_cell_forward",
                            lambda *args: steps.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty training batch"):
                loss_and_grads(params, window, np.zeros((0, TINY.p, 4)),
                               LossWeights())
        assert steps == []
        monkeypatch.undo()
        assert predict_from_window(params, window).shape == (0, TINY.p, 4)

    def test_carry_flag_reaches_the_gradients(self):
        params, window, targets = gradcheck_case(9, carry_cell_state=False)
        weights = LossWeights(mode=MODE_TRAJ)
        _, _, grads = loss_and_grads(params, window, targets, weights)
        numeric = fd_grad(
            lambda _: loss_via_public_ops(params, window, targets, weights),
            params.enc.wx)
        np.testing.assert_allclose(grads["enc.wx"], numeric,
                                   rtol=1e-4, atol=1e-8)


class TestLossAndGradsInBlocks:
    """`loss_and_grads` runs a batch of more than `TRAIN_BLOCK_ROWS` rows as
    near-equal blocks. Here the constant is patched to 3, so a batch of 7
    rows runs as blocks of 3, 2 and 2."""

    N = 7

    @pytest.fixture(autouse=True)
    def blocks_of_three(self, monkeypatch):
        monkeypatch.setattr(model, "TRAIN_BLOCK_ROWS", 3)

    def batch(self, seed=40):
        """(params, 7 windows, their targets): the windows and targets of
        seven gradcheck cases, run through the first case's params."""
        cases = [gradcheck_case(seed + j) for j in range(self.N)]
        return (cases[0][0], np.stack([w for _, w, _ in cases]),
                np.stack([t for _, _, t in cases]))

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_gradients_match_finite_differences(self, mode):
        params, window, targets = self.batch()
        weights = LossWeights(alpha=1.0, beta=2.0, mode=mode)
        _, _, grads = loss_and_grads(params, window, targets, weights)
        for name, tensor in params.tensors().items():
            numeric = fd_grad(
                lambda _: loss_via_public_ops(params, window, targets,
                                              weights), tensor)
            np.testing.assert_allclose(
                grads[name], numeric, rtol=1e-4, atol=1e-8,
                err_msg=f"tensor {name}, mode {mode}")

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_loss_and_terms_equal_composite_loss(self, mode):
        """The blocks' float64 L1 sums divide once, so the loss and each
        term are the whole batch's `composite_loss` up to the order of
        the sums."""
        params, window, targets = self.batch()
        weights = LossWeights(mode=mode)
        loss, terms, _ = loss_and_grads(params, window, targets, weights)
        z, state = encode(params, window)
        deltas = decode_future(params, z, state)
        want, want_terms = composite_loss(reconstruct(params, z), window,
                                          deltas, targets, weights)
        np.testing.assert_allclose(loss, want, rtol=1e-12, atol=0)
        assert terms.keys() == want_terms.keys()
        for name, value in terms.items():
            np.testing.assert_allclose(value, want_terms[name], rtol=1e-12,
                                       atol=0, err_msg=name)

    @pytest.mark.parametrize("mode", LOSS_MODES)
    def test_gradients_match_the_batch_run_as_one_block(self, mode,
                                                        monkeypatch):
        """Only the sums over blocks reassociate, so in float64 each
        gradient stays within 1e-13 of its tensor's largest entry run as one
        block (measured: at most 4.9e-16)."""
        params, window, targets = self.batch()
        weights = LossWeights(mode=mode)
        _, _, blocked = loss_and_grads(params, window, targets, weights)
        monkeypatch.setattr(model, "TRAIN_BLOCK_ROWS", self.N)
        _, _, whole = loss_and_grads(params, window, targets, weights)
        for name, want in whole.items():
            scale = np.abs(want).max()
            assert np.abs(blocked[name] - want).max() <= 1e-13 * scale, name

    def test_two_calls_give_equal_bits(self):
        params, window, targets = self.batch()
        weights = LossWeights(mode=MODE_TRAJ_AUTOENC)
        first = loss_and_grads(params.astype(np.float32), window, targets,
                               weights)
        second = loss_and_grads(params.astype(np.float32), window, targets,
                                weights)
        assert first[:2] == second[:2]
        for name, grad in first[2].items():
            assert grad.tobytes() == second[2][name].tobytes(), name

    def test_a_non_finite_term_in_a_later_block_stops_before_its_backward(
            self, monkeypatch):
        """Row 4 sits in the second block (rows 3 and 4). Its infinite target
        makes the running trajectory term infinite there, so the first block
        has run every backward pass (p future, k reconstruction and k
        encoder steps) and the second block none."""
        params, window, targets = self.batch()
        targets[4, 0, 0] = np.inf
        cells = []
        real = model.lstm_gate_backward

        def recording(seq, *args):
            cells.append(seq.cell)
            return real(seq, *args)

        monkeypatch.setattr(model, "lstm_gate_backward", recording)
        with pytest.raises(NumericError, match="non-finite loss inf"):
            loss_and_grads(params, window, targets,
                           LossWeights(mode=MODE_TRAJ_AUTOENC))
        assert cells == ([params.fut_dec] * TINY.p
                         + [params.auto_dec] * TINY.k + [params.enc] * TINY.k)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_overflowing_first_block_skips_the_encoder_backward(
            self, monkeypatch):
        """As `TestLossAndGrads` checks on one window: the first block's
        reconstruction term overflows once its forward pass has run, after
        its future branch's backward and before any other."""
        params, window, targets = self.batch()
        cells = []
        real = model.lstm_gate_backward

        def recording(seq, *args):
            cells.append(seq.cell)
            return real(seq, *args)

        monkeypatch.setattr(model, "lstm_gate_backward", recording)
        with pytest.raises(NumericError, match="non-finite loss inf"):
            loss_and_grads(params, window * 1e3, targets,
                           LossWeights(alpha=1e308, mode=MODE_TRAJ_AUTOENC))
        assert cells == [params.fut_dec] * TINY.p

    def test_an_empty_batch_is_a_data_error_before_any_step(
            self, monkeypatch):
        params = init_params(TINY, seed=12)
        steps = []
        monkeypatch.setattr(model, "lstm_cell_forward",
                            lambda *args: steps.append(args))
        with pytest.raises(DataError, match="empty training batch"):
            loss_and_grads(params, np.zeros((0, TINY.k, 8)),
                           np.zeros((0, TINY.p, 4)), LossWeights())
        assert steps == []
