"""Training-loop tests: schedule values, batch assembly, optimization on a
small synthetic family, determinism, history output, and the binary weight
file including its failure modes."""

import copy
import dataclasses
import os
import re
import tempfile
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_form_param_count, make_boxes, param_count

from boxcast import model, training
from boxcast.data import (
    SYNTH_KINDS,
    Boxes,
    MiniTrack,
    SynthSpec,
    slice_minitracks,
    synth_tracks,
)
from boxcast.errors import ConfigError, DataError, NumericError
from boxcast.model import (
    MAX_PARAMS,
    MODE_TRAJ,
    LossWeights,
    ModelDims,
    build_features,
    init_params,
)
from boxcast.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from boxcast.training import (
    TrainConfig,
    _clip_global_norm,
    load_model,
    lr_schedule,
    param_count_for,
    save_model,
    stack_minitracks,
    train,
    write_history,
)

SMALL = dict(k=6, p=4, hidden=16, latent=8, batch_size=4, base_lr=0.003)


def small_minitracks(count=12, seed=0, loss_scale_start=(0.0, 0.0)):
    spec = SynthSpec(kind="constant-velocity", length=10,
                     start=loss_scale_start, velocity=(2.0, 1.0),
                     size=(10.0, 20.0), start_jitter=8.0,
                     velocity_jitter=0.5, seed=seed)
    out = []
    for t in synth_tracks(spec, count):
        out.extend(slice_minitracks(t, window=10, stride=10))
    return out


class TestSchedule:
    def test_piecewise_halving(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == 0.00141
        assert lr_schedule(4, cfg) == 0.00141
        assert lr_schedule(5, cfg) == 0.00141 * 0.5
        assert lr_schedule(9, cfg) == 0.00141 * 0.5
        assert lr_schedule(10, cfg) == 0.00141 * 0.25
        assert lr_schedule(29, cfg) == 0.00141 * 0.5 ** 5
        assert lr_schedule(5, cfg) == pytest.approx(0.000705)
        assert lr_schedule(29, cfg) == pytest.approx(4.40625e-05)

    def test_any_halving_count_gives_a_rate(self):
        """A halving count past the float range gives 0.0, where a float
        power of 0.5 would raise OverflowError, so a config of that many
        epochs is refused as any underflowing schedule is."""
        cfg = TrainConfig()
        assert lr_schedule(5 * 1000, cfg) == 0.00141 * 0.5 ** 1000
        assert lr_schedule(5 * 10 ** 400, cfg) == 0.0
        with pytest.raises(ConfigError, match="underflows to 0"):
            TrainConfig(epochs=10 ** 400)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule(-1, TrainConfig())

    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert (cfg.k, cfg.p) == (30, 60)
        assert (cfg.hidden, cfg.latent) == (512, 256)
        assert cfg.batch_size == 200
        assert cfg.epochs == 30
        assert cfg.halve_every == 5
        assert (cfg.alpha, cfg.beta) == (1.0, 2.0)
        assert (ADAM_BETA1, ADAM_BETA2) == (0.9, 0.999)
        assert ADAM_EPS == 1e-8

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(loss_mode="spiral")
        with pytest.raises(ConfigError):
            TrainConfig(grad_clip=-1.0)
        with pytest.raises(ConfigError, match="grad_clip"):
            TrainConfig(grad_clip=float("nan"))
        for field, value in (("alpha", float("nan")), ("beta", float("nan")),
                             ("alpha", float("inf")), ("beta", -1.0)):
            with pytest.raises(ConfigError, match=field):
                TrainConfig(**{field: value})


class TestRecordsCheckThemselves:
    """Each config record is valid once it is built: a bad field raises
    ConfigError from the constructor and from `dataclasses.replace` (the
    path `ablation_run` takes), and a built record cannot be changed."""

    CASES = [
        (ModelDims, {"k": 3, "p": 2}, "hidden", 0,
         "hidden must be a positive int, got 0"),
        (ModelDims, {"k": 3, "p": 2}, "k", 2.5,
         "k must be a positive int, got 2.5"),
        (LossWeights, {}, "mode", "spiral",
         "unknown loss mode 'spiral'; pick one of "
         "('traj-del', 'traj', 'traj+auto-enc')"),
        (LossWeights, {}, "alpha", float("nan"),
         "loss weight alpha must be finite and >= 0, got nan"),
        (TrainConfig, {}, "batch_size", 0,
         "batch_size must be a positive int, got 0"),
        (TrainConfig, {}, "latent", -1, "latent must be a positive int, got -1"),
        (TrainConfig, {}, "loss_mode", "spiral",
         "unknown loss mode 'spiral'; pick one of "
         "('traj-del', 'traj', 'traj+auto-enc')"),
        (TrainConfig, {}, "base_lr", 0.0, "base_lr must be positive, got 0.0"),
        (TrainConfig, {}, "epochs", 5400,
         "base_lr 0.00141 halved every 5 epochs underflows to 0 by the last "
         "of 5400 epochs"),
        (TrainConfig, {"epochs": 1200}, "halve_every", 1,
         "base_lr 0.00141 halved every 1 epochs underflows to 0 by the last "
         "of 1200 epochs"),
        (TrainConfig, {}, "seed", -1, "seed must be an int >= 0, got -1"),
        (SynthSpec, {}, "kind", "zigzag",
         f"unknown synthetic kind 'zigzag'; pick one of {SYNTH_KINDS}"),
        (SynthSpec, {}, "period", 0.0, "period must be positive, got 0.0"),
        (SynthSpec, {}, "seed", 2.5, "seed must be an int >= 0, got 2.5"),
        (SynthSpec, {}, "length", 2.5,
         "length must be a positive int, got 2.5"),
    ]

    @pytest.mark.parametrize("cls, valid, field, bad, message", CASES,
                             ids=[f"{c[0].__name__}.{c[2]}" for c in CASES])
    def test_a_bad_field_is_refused_when_the_record_is_made(
            self, cls, valid, field, bad, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ConfigError, match=exact):
            cls(**{**valid, field: bad})
        record = cls(**valid)
        with pytest.raises(ConfigError, match=exact):
            dataclasses.replace(record, **{field: bad})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, bad)

    CEILING_CASES = [
        (ModelDims, {"k": 3, "p": 2}, "hidden", 5000,
         "hidden 5000 and latent 256 make 311860268 parameters, above "
         "268435456"),
        (TrainConfig, {}, "latent", 57552,
         "hidden 512 and latent 57552 make 268437724 parameters, above "
         "268435456"),
        (TrainConfig, {}, "hidden", 1 << 40,
         f"hidden {1 << 40} and latent 256 make "
         f"{closed_form_param_count(1 << 40, 256)} parameters, above "
         f"268435456"),
        # 4 * hidden**2 would wrap to 0 in int64
        (ModelDims, {"k": 3, "p": 2}, "hidden", np.int64(1 << 40),
         f"hidden {1 << 40} and latent 256 make "
         f"{closed_form_param_count(1 << 40, 256)} parameters, above "
         f"268435456"),
    ]

    @pytest.mark.parametrize("cls, valid, field, bad, message", CEILING_CASES,
                             ids=[f"{c[0].__name__}.{c[2]}={c[3]!r}"
                                  for c in CEILING_CASES])
    def test_dims_past_the_ceiling_are_refused_when_the_record_is_made(
            self, cls, valid, field, bad, message):
        """Dims whose model would hold more than `MAX_PARAMS` scalars are
        refused as a bad field is, from the layout's arithmetic alone; the
        largest latent at hidden 512 is accepted."""
        self.test_a_bad_field_is_refused_when_the_record_is_made(
            cls, valid, field, bad, message)
        assert param_count_for(ModelDims(k=3, p=2, latent=57551)) \
            <= MAX_PARAMS == 1 << 28

    BOOL_CASES = [(ModelDims, {"k": 3, "p": 2}, "k", "k must be a positive int"),
                  (ModelDims, {"k": 3, "p": 2}, "p", "p must be a positive int"),
                  (SynthSpec, {}, "length", "length must be a positive int"),
                  (TrainConfig, {}, "seed", "seed must be an int >= 0")]

    @pytest.mark.parametrize("cls, valid, field, message", BOOL_CASES,
                             ids=[f"{c[0].__name__}.{c[2]}" for c in BOOL_CASES])
    def test_a_bool_is_not_an_int(self, cls, valid, field, message):
        with pytest.raises(ConfigError, match=f"^{message}, got True$"):
            cls(**{**valid, field: True})

    def test_numpy_integers_are_ints(self, tmp_path):
        """A NumPy integer passes every int field rule, and a model built
        on NumPy-int dims writes the bytes of the same model on int dims."""
        assert ModelDims(k=np.int64(3), p=2) == ModelDims(k=3, p=2)
        assert TrainConfig(seed=np.int64(4)).seed == 4
        assert SynthSpec(length=np.int32(5)).length == 5
        spec = SynthSpec(length=6)
        assert synth_tracks(spec, np.int64(2)) == synth_tracks(spec, 2)
        paths = []
        for kind in (int, np.int64):
            dims = ModelDims(*(kind(v) for v in (3, 2, 4, 2)))
            paths.append(tmp_path / f"{kind.__name__}.bxw")
            save_model(init_params(dims, seed=kind(5)), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestStacking:
    def test_windows_and_targets_split_the_boxes(self):
        mts = small_minitracks(count=3)
        windows, targets = stack_minitracks(mts, k=6, p=4)
        assert windows.shape == (3, 6, 8)
        assert targets.shape == (3, 4, 4)
        for j, mt in enumerate(mts):
            np.testing.assert_array_equal(
                windows[j],
                build_features(mt.boxes[:6], predecessor=mt.predecessor))
            np.testing.assert_array_equal(targets[j], mt.boxes.xywh[6:])

    def test_wrong_length_rejected(self):
        mts = small_minitracks(count=2)
        with pytest.raises(DataError, match="expected k\\+p"):
            stack_minitracks(mts, k=6, p=5)

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            stack_minitracks([], k=6, p=4)


def mixed_minitracks(seed, k, p, stride):
    """Mini-tracks of every synthetic kind, noisy, sliced so that the first
    slice of each track has no predecessor and the later ones have one."""
    out = []
    for i, kind in enumerate(SYNTH_KINDS):
        spec = SynthSpec(kind=kind, length=k + p + 2 * stride,
                         noise_std=0.7, start_jitter=5.0, velocity_jitter=1.0,
                         size_rate=(0.05, -0.1), seed=seed + i)
        for t in synth_tracks(spec, 2):
            out.extend(slice_minitracks(t, window=k + p, stride=stride))
    return out


def with_fault(mt, fault, k, at):
    """A copy of ``mt`` with one fault at window row ``at`` (< k)."""
    xywh, frames = mt.boxes.xywh.copy(), mt.boxes.frames.copy()
    pred = mt.predecessor
    if fault == "gap":
        frames[max(at, 1):] += 1
    elif fault == "size":
        xywh[at, 3] = -1.0
    elif fault == "pred-frame":
        pred = Boxes(xywh[:1], frames[:1] - 2)
    elif fault == "pred-size":
        row = (mt.boxes if pred is None else pred).xywh[:1].copy()
        row[0, 2] = 0.0
        pred = Boxes(row, frames[:1] - 1)
    else:  # "length"
        xywh, frames = xywh[:-1], frames[:-1]
    return dataclasses.replace(mt, boxes=Boxes(xywh, frames),
                               predecessor=pred)


class TestStackingEquivalence:
    """The one-pass stacked builder against per-mini-track `build_features`
    and per-mini-track target rows, the reference it replaced."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 8),
           p=st.integers(1, 8), stride=st.integers(1, 5))
    def test_arrays_equal_per_minitrack_building(self, seed, k, p, stride):
        mts = mixed_minitracks(seed, k, p, stride)
        assert any(mt.predecessor is None for mt in mts)
        assert any(mt.predecessor is not None for mt in mts)
        windows, targets = stack_minitracks(mts, k, p)
        want_w = np.stack([build_features(mt.boxes[:k], mt.predecessor)
                           for mt in mts])
        want_t = np.stack([mt.boxes[k:].xywh for mt in mts])
        assert windows.tobytes() == want_w.tobytes()
        assert targets.tobytes() == want_t.tobytes()
        assert windows.shape == want_w.shape
        assert targets.shape == want_t.shape

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(2, 6),
           p=st.integers(1, 4), data=st.data())
    def test_first_faulty_minitrack_raises_its_own_error(self, seed, k, p,
                                                         data):
        faults = ("gap", "size", "pred-frame", "pred-size", "length")
        mts = mixed_minitracks(seed, k, p, stride=2)
        j = data.draw(st.integers(1, len(mts) - 2), label="faulty index")
        fault = data.draw(st.sampled_from(faults), label="fault")
        later = data.draw(st.sampled_from(faults), label="later fault")
        at = data.draw(st.integers(0, k - 1), label="row")
        mts[j] = with_fault(mts[j], fault, k, at)
        mts[-1] = with_fault(mts[-1], later, k, 0)
        if fault == "length":
            want = DataError(f"mini-track {j} has {k + p - 1} boxes, "
                             f"expected k+p={k + p}")
        else:
            with pytest.raises(DataError) as alone:
                build_features(mts[j].boxes[:k], mts[j].predecessor)
            want = alone.value
        with pytest.raises(DataError) as stacked:
            stack_minitracks(mts, k, p)
        assert type(stacked.value) is type(want)
        assert str(stacked.value) == str(want)


class TestTrain:
    def test_loss_drops_sharply_when_overfitting(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=1, epochs=30,
                          halve_every=10, **SMALL)
        _, history = train(cfg, small_minitracks(seed=1))
        assert history[-1].loss < 0.5 * history[0].loss
        assert all(s.loss_auto_enc == 0.0 for s in history)
        assert all(s.loss_traj > 0.0 for s in history)

    def test_composite_mode_also_improves(self):
        cfg = TrainConfig(seed=2, epochs=8, **SMALL)
        _, history = train(cfg, small_minitracks(seed=2))
        assert history[-1].loss < history[0].loss
        assert all(s.loss_auto_enc > 0.0 for s in history)

    def test_two_runs_are_bit_identical(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=3, epochs=8, **SMALL)
        mts = small_minitracks(seed=3)
        params_a, hist_a = train(cfg, mts)
        params_b, hist_b = train(cfg, mts)
        for name, t in params_a.tensors().items():
            assert np.array_equal(t, params_b.tensors()[name]), name
        for a, b in zip(hist_a, hist_b):
            assert (a.epoch, a.loss, a.loss_auto_enc, a.loss_traj, a.lr) == \
                   (b.epoch, b.loss, b.loss_auto_enc, b.loss_traj, b.lr)

    def test_history_rows_follow_the_schedule(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=4, epochs=8, **SMALL)
        _, history = train(cfg, small_minitracks(seed=4))
        assert [s.epoch for s in history] == list(range(cfg.epochs))
        for s in history:
            assert s.lr == lr_schedule(s.epoch, cfg)
            assert s.seconds >= 0.0

    def test_on_epoch_sees_every_epoch_and_the_live_params(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=5, epochs=8, **SMALL)
        seen = []
        params, _ = train(cfg, small_minitracks(seed=5),
                          on_epoch=lambda p, s: seen.append((p, s.epoch)))
        assert [e for _, e in seen] == list(range(cfg.epochs))
        assert all(p is params for p, _ in seen)

    def test_input_minitracks_are_not_mutated(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=6, epochs=2, **SMALL)
        mts = small_minitracks(seed=6)
        snapshot = copy.deepcopy(mts)
        train(cfg, mts)
        assert mts == snapshot

    def test_grad_clip_changes_the_run(self):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=7, epochs=3, **SMALL)
        mts = small_minitracks(seed=7)
        free, _ = train(cfg, mts)
        from dataclasses import replace
        clipped, _ = train(replace(cfg, grad_clip=0.01), mts)
        assert any(not np.array_equal(a, clipped.tensors()[n])
                   for n, a in free.tensors().items())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_loss_aborts_with_location(self):
        boxes = make_boxes([(1e308, 0.0, 2.0, 2.0)] * 6
                           + [(-1e308, 0.0, 2.0, 2.0)] * 4)
        mt = MiniTrack(video_id="v", track_id="t", start_frame=0,
                       boxes=boxes, predecessor=None)
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=0, epochs=2, **SMALL)
        with pytest.raises(NumericError, match="epoch 0, batch 0"):
            train(cfg, [mt])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_skips_the_backward_pass(self, monkeypatch):
        boxes = make_boxes([(1e308 if i < 6 else -1e308, 0.0, 2.0, 2.0)
                            for i in range(10)])
        mt = MiniTrack(video_id="v", track_id="t", start_frame=0,
                       boxes=boxes, predecessor=None)
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=0, epochs=1, **SMALL)
        calls = []
        real = model.lstm_gate_backward

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(model, "lstm_gate_backward", counting)
        with pytest.raises(NumericError, match="non-finite loss"):
            train(cfg, [mt])
        assert calls == []
        train(cfg, small_minitracks(count=1))
        assert calls, "the counter must see the backward of a finite loss"


class TestFloat32Training:
    def test_trains_in_float32_from_the_seeded_draws(self, monkeypatch):
        cfg = TrainConfig(seed=9, epochs=2, **SMALL)
        real = training.adam_step
        steps = []

        def recording(state, params, grads, lr):
            if not steps:
                steps.append({n: t.copy() for n, t in params.items()})
            steps.append({a.dtype for d in (state.m, state.v, params, grads)
                          for a in d.values()})
            real(state, params, grads, lr)

        monkeypatch.setattr(training, "adam_step", recording)
        params, _ = train(cfg, small_minitracks(seed=9))
        # the first step starts from the float64 draws, rounded once
        start = init_params(cfg.dims(), seed=np.random.default_rng(cfg.seed))
        for name, t in start.tensors().items():
            np.testing.assert_array_equal(steps[0][name],
                                          t.astype(np.float32), err_msg=name)
        assert len(steps) > 1
        assert all(s == {np.dtype(np.float32)} for s in steps[1:])
        for name, t in params.tensors().items():
            assert t.dtype == np.float32, name

    def test_float32_gradient_norm_is_summed_in_float64(self):
        # 1e20 squared overflows float32: a float32 sum made the norm inf
        # and scaled every gradient to 0
        grads = {"w": np.array([1e20, 0.0], dtype=np.float32),
                 "b": np.array([0.0], dtype=np.float32)}
        _clip_global_norm(grads, 1.0)
        np.testing.assert_allclose(grads["w"], [1.0, 0.0], rtol=1e-6)
        assert grads["w"].dtype == np.float32

    def test_non_finite_gradient_norm_aborts_with_location(self, monkeypatch):
        real = training.loss_and_grads

        def inf_gradient(*args):
            loss, terms, grads = real(*args)
            grads["enc.wx"][0, 0] = np.inf
            return loss, terms, grads

        monkeypatch.setattr(training, "loss_and_grads", inf_gradient)
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=0, epochs=1,
                          grad_clip=1.0, **SMALL)
        with pytest.raises(NumericError, match="epoch 0, batch 0: "
                                               "non-finite gradient norm"):
            train(cfg, small_minitracks(seed=0))


class TestHistoryFile:
    def test_csv_round_trips_exactly(self, tmp_path):
        cfg = TrainConfig(loss_mode=MODE_TRAJ, seed=8, epochs=3, **SMALL)
        _, history = train(cfg, small_minitracks(seed=8))
        path = tmp_path / "history.csv"
        write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,loss_auto_enc,loss_traj,lr,seconds"
        assert len(lines) == 1 + len(history)
        for line, s in zip(lines[1:], history):
            cells = line.split(",")
            assert int(cells[0]) == s.epoch
            assert float(cells[1]) == s.loss
            assert float(cells[4]) == s.lr


class TestWeightFile:
    def test_round_trip_is_the_single_precision_projection(self, tmp_path):
        dims = ModelDims(k=6, p=4, hidden=16, latent=8)
        params = init_params(dims, seed=9)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        loaded, meta = load_model(path)
        assert loaded.dims == dims
        assert loaded.carry_cell_state is True
        for name, t in params.tensors().items():
            expected = t.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(loaded.tensors()[name], expected)
        assert meta["gate_order"] == "ifgo"
        assert meta["bias_convention"] == "dual"
        assert meta["latent_activation"] == "none"
        assert meta["decoder_init"] == "hc"
        assert meta["float_width"] == 4

    def test_save_load_save_is_byte_stable(self, tmp_path):
        dims = ModelDims(k=6, p=4, hidden=16, latent=8)
        params = init_params(dims, seed=10)
        a = tmp_path / "a.bxw"
        b = tmp_path / "b.bxw"
        save_model(params, a)
        loaded, _ = load_model(a)
        save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", [0, 17])
    def test_float32_draws_save_the_bytes_of_float64_draws(self, tmp_path,
                                                           seed):
        """`init_params` rounds its float64 draw to float32 once, as
        `save_model` rounds float64 parameters, so `bench` can draw float32
        parameters and hand its children the same weight file."""
        dims = ModelDims(k=6, p=4, hidden=16, latent=8)
        a = tmp_path / "a.bxw"
        b = tmp_path / "b.bxw"
        save_model(init_params(dims, seed=seed), a)
        save_model(init_params(dims, seed=seed, dtype=np.float32), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e39])
    def test_weights_not_finite_at_float32_write_no_file(self, tmp_path,
                                                         value):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8),
                             seed=13)
        params.tensors()["fut_dec.wh"][3, 5] = value  # 1e39 overflows f32
        path = tmp_path / "m.bxw"
        with pytest.raises(NumericError, match="fut_dec.wh"):
            save_model(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failed_replace_leaves_no_partial_file(self, tmp_path,
                                                     monkeypatch, existing):
        """The weight file is written beside ``path`` and moved into place
        with `os.replace`; when that fails, neither the file nor its
        temporary remains, and a file already at ``path`` is untouched."""
        path = tmp_path / "model.bxw"
        if existing:
            path.write_bytes(b"old weights")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8),
                             seed=14)
        with pytest.raises(OSError, match="replace failed"):
            save_model(params, path)
        assert [p.name for p in tmp_path.iterdir()] == (
            ["model.bxw"] if existing else [])
        if existing:
            assert path.read_bytes() == b"old weights"

    def test_hidden_only_decoder_flag_round_trips(self, tmp_path):
        dims = ModelDims(k=6, p=4, hidden=16, latent=8)
        params = init_params(dims, seed=11, carry_cell_state=False)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        loaded, meta = load_model(path)
        assert loaded.carry_cell_state is False
        assert meta["decoder_init"] == "h"

    def test_reference_file_size_lands_in_the_contract_band(self, tmp_path):
        dims = ModelDims(k=30, p=60, hidden=512, latent=256)
        params = init_params(dims, seed=12)
        assert param_count(params) == param_count_for(dims) == 4_360_460
        path = tmp_path / "full.bxw"
        save_model(params, path)
        size = path.stat().st_size
        assert size == 60 + 4 * 4_360_460 == 17_441_900
        megabytes = size / 1e6
        assert 17.0 <= megabytes <= 18.0

    def test_dims_guard_refuses_mismatched_files(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=13)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        with pytest.raises(ConfigError, match="do not match"):
            load_model(path, expect_dims=ModelDims(k=30, p=60, hidden=512,
                                                   latent=256))

    def test_wrong_magic_is_not_a_weight_file(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=14)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="not a weight file"):
            load_model(path)

    def test_future_version_is_refused(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=15)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2  # little-endian version word
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="version 2"):
            load_model(path)

    def test_truncated_payload_is_refused(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=16)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(DataError, match="truncated or corrupt"):
            load_model(path)

    def test_headerless_stub_is_too_short(self, tmp_path):
        path = tmp_path / "m.bxw"
        path.write_bytes(b"BOXC123")
        with pytest.raises(DataError, match="too short"):
            load_model(path)

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=17)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        raw = bytearray(path.read_bytes())
        raw[60 + 11] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            load_model(path)

    def test_corrupt_gate_tag_is_refused(self, tmp_path):
        params = init_params(ModelDims(k=6, p=4, hidden=16, latent=8), seed=18)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        raw = bytearray(path.read_bytes())
        raw[36:40] = b"ofgi"
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="gate order"):
            load_model(path)


def _traced_peak(fn):
    """``fn()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestWeightFileReads:
    """`load_model` holds one payload array and reads no further than the
    header promises; `save_model` holds one converted block of rows at a
    time. Both stay within 1.25x of the payload bytes on a full-size model,
    where a whole-file read, or a payload joined from per-tensor bytes,
    holds 2x."""

    FULL = ModelDims(k=30, p=60)
    PAYLOAD_BYTES = 4 * 4_360_460

    @pytest.fixture(scope="class")
    def full_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("full") / "full.bxw"
        save_model(init_params(self.FULL, seed=21), path)
        return path

    def test_load_holds_the_payload_once(self, full_file):
        load_model(full_file)  # imports and caches outside the trace
        _, peak = _traced_peak(lambda: load_model(full_file))
        assert peak <= 1.25 * self.PAYLOAD_BYTES

    def test_save_of_double_parameters_holds_the_payload_once(self,
                                                              tmp_path):
        params = init_params(self.FULL, seed=22)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        _, peak = _traced_peak(lambda: save_model(params, path))
        assert peak <= 1.25 * self.PAYLOAD_BYTES
        assert path.stat().st_size == 60 + self.PAYLOAD_BYTES

    def test_save_of_double_parameters_holds_one_block_at_a_time(
            self, tmp_path):
        """Each tensor is converted in blocks of whole rows, again for the
        write instead of being kept from the check: 0.03x the payload,
        where converting one whole tensor at a time took 0.30x and keeping
        every converted tensor 1.06x. The bytes are each tensor's float32
        values in order, after a header whose checksum covers them."""
        params = init_params(self.FULL, seed=22)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        _, peak = _traced_peak(lambda: save_model(params, path))
        assert peak <= 0.05 * self.PAYLOAD_BYTES
        payload = b"".join(t.astype("<f4").tobytes()
                           for t in params.tensors().values())
        raw = path.read_bytes()
        assert raw[60:] == payload
        assert int.from_bytes(raw[56:60], "little") == zlib.crc32(payload)
        assert load_model(path)[1]["hidden"] == self.FULL.hidden

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_fortran_order_tensor_saves_its_c_order_bytes(self, tmp_path,
                                                            dtype):
        """Blocks of rows are C order whatever the layout, so a model whose
        recurrent matrices are Fortran order writes the bytes of the
        C-order model, and converts them a block at a time, not whole."""
        params = init_params(self.FULL, seed=23, dtype=dtype)
        tensors = params.tensors()
        fortran = model.ModelParams.build(
            self.FULL, lambda name, _shape: np.asfortranarray(tensors[name])
            if name.endswith(".wh") else tensors[name])
        assert not fortran.tensors()["enc.wh"].flags.c_contiguous
        c_path = tmp_path / "c.bxw"
        f_path = tmp_path / "f.bxw"
        save_model(params, c_path)
        save_model(fortran, f_path)
        _, peak = _traced_peak(lambda: save_model(fortran, f_path))
        assert peak <= 0.05 * self.PAYLOAD_BYTES
        assert f_path.read_bytes() == c_path.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_save_through_a_pipe_writes_the_file_bytes(self, tmp_path):
        """The second pass writes in order and never seeks, so a pipe
        read by another thread receives what a regular file holds; the
        payload (~400 KB) is several pipe buffers long."""
        params = init_params(ModelDims(k=30, p=60, hidden=64, latent=32),
                             seed=25)
        path = tmp_path / "m.bxw"
        save_model(params, path)
        fifo = tmp_path / "pipe.bxw"
        os.mkfifo(fifo)
        piped = []
        reader = threading.Thread(
            target=lambda: piped.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            save_model(params, fifo)
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert piped == [path.read_bytes()]
        assert len(piped[0]) > 4 * 65536

    def test_tensors_are_independent_writable_float32_file_values(
            self, full_file, tmp_path):
        raw = full_file.read_bytes()
        loaded, _ = load_model(full_file)
        tensors = loaded.tensors()
        offset = 60
        for name, t in tensors.items():
            want = np.frombuffer(raw, "<f4", t.size, offset).reshape(t.shape)
            offset += 4 * t.size
            assert t.dtype == np.float32 and t.flags.writeable, name
            np.testing.assert_array_equal(t, want, err_msg=name)
        assert offset == len(raw)
        before = {name: t.copy() for name, t in tensors.items()}
        tensors["auto_dec.wh"][...] = 7.0
        for name, t in tensors.items():
            if name != "auto_dec.wh":
                np.testing.assert_array_equal(t, before[name], err_msg=name)
        copy_path = tmp_path / "copy.bxw"
        save_model(load_model(full_file)[0], copy_path)
        assert copy_path.read_bytes() == raw

    def test_an_oversized_file_is_refused_without_reading_its_tail(
            self, tmp_path):
        """A file 64 MiB longer than its header promises (sparse here) is
        refused with its true size, holding less than 1 MiB more than the
        payload, where a whole-file read would hold all of it."""
        path = tmp_path / "m.bxw"
        save_model(init_params(ModelDims(k=3, p=2, hidden=4, latent=2),
                               seed=23), path)
        expected = path.stat().st_size
        size = expected + (64 << 20)
        with open(path, "r+b") as fh:
            fh.truncate(size)

        def refused() -> str:
            with pytest.raises(DataError) as err:
                load_model(path)
            return str(err.value)

        message, peak = _traced_peak(refused)
        assert message == (f"weight file is {size} bytes, expected "
                           f"{expected}; truncated or corrupt")
        assert peak < (1 << 20) + expected - 60

    @pytest.mark.parametrize("hidden, latent, below", [
        (4632, 256, (4631, 256)), (512, 57552, (512, 57551)),
        (1 << 31, 2, None)])
    def test_an_over_ceiling_header_is_refused_from_its_dims(
            self, tmp_path, hidden, latent, below):
        """Header dims one past `MAX_PARAMS` (or far past it) are the
        ConfigError the same dims are as flags, raised before the file's
        size is compared or any payload byte allocated; the dims just
        under the ceiling, ``below``, are a size mismatch instead."""
        path = tmp_path / "m.bxw"
        save_model(init_params(ModelDims(k=3, p=2, hidden=4, latent=2),
                               seed=26), path)
        raw = path.read_bytes()

        def with_dims(h: int, z: int) -> Path:
            path.write_bytes(raw[:16] + h.to_bytes(4, "little")
                             + z.to_bytes(4, "little") + raw[24:])
            return path

        message, peak = _traced_peak(
            lambda: _refusal(with_dims(hidden, latent)))
        assert message == (f"hidden {hidden} and latent {latent} make "
                           f"{closed_form_param_count(hidden, latent)} "
                           f"parameters, above {MAX_PARAMS}")
        assert peak < 1 << 20
        if below is not None:
            with pytest.raises(DataError, match="^weight file is 2260 bytes, "
                               "expected [0-9]+; truncated or corrupt$"):
                load_model(with_dims(*below))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("damage", ["none", "slow-writer", "tail", "cut",
                                        "big-header"])
    def test_a_pipe_is_read_like_a_file(self, tmp_path, damage):
        """A pipe has no size to check in advance: it loads as its bytes
        would from a file, also when its writer sends them in small pieces,
        or is refused with the true count of its bytes. A header whose dims
        pass `MAX_PARAMS` is refused from the header alone, before its
        payload is allocated."""
        dims = ModelDims(k=3, p=2, hidden=4, latent=2)
        if damage == "slow-writer":  # ~400 KB, several pipe buffers long
            dims = ModelDims(k=3, p=2, hidden=64, latent=32)
        path = tmp_path / "m.bxw"
        save_model(init_params(dims, seed=24), path)
        raw = path.read_bytes()
        expected = len(raw)
        if damage == "tail":
            raw += b"x" * 100_000
        elif damage == "cut":
            raw = raw[:-100]
        elif damage == "big-header":  # hidden 2**24: 18 PB of payload
            raw = raw[:16] + (1 << 24).to_bytes(4, "little") + raw[20:]
        fifo = tmp_path / "pipe.bxw"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_write_slowly if damage ==
                                  "slow-writer" else Path.write_bytes,
                                  args=(fifo, raw), daemon=True)
        writer.start()
        try:
            if damage == "big-header":
                message, peak = _traced_peak(lambda: _refusal(fifo))
                assert re.fullmatch("hidden 16777216 and latent 2 make [0-9]+"
                                    " parameters, above 268435456", message)
                assert peak < 1 << 20
            elif damage in ("tail", "cut"):
                with pytest.raises(DataError, match=(
                        f"^weight file is {len(raw)} bytes, expected "
                        f"{expected}; truncated or corrupt$")):
                    load_model(fifo)
            else:
                piped, meta = load_model(fifo)
                from_file, file_meta = load_model(path)
                assert meta == file_meta
                for name, t in from_file.tensors().items():
                    np.testing.assert_array_equal(piped.tensors()[name], t)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()


def _write_slowly(path: Path, raw: bytes) -> None:
    """Write ``raw`` to ``path`` unbuffered, in 7 000-byte pieces with a
    pause after each, so a reader of a pipe finds it short many times."""
    with open(path, "wb", buffering=0) as fh:
        for start in range(0, len(raw), 7000):
            fh.write(raw[start:start + 7000])
            time.sleep(0.001)


def _refusal(path) -> str:
    """The message of the ConfigError `load_model` refuses ``path`` with."""
    with pytest.raises(ConfigError) as err:
        load_model(path)
    return str(err.value)


def _saved_model_bytes() -> bytes:
    """The bytes of a small saved model (60-byte header, 2 200-byte payload)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bxw"
        save_model(init_params(ModelDims(k=3, p=2, hidden=4, latent=2),
                               seed=19), path)
        return path.read_bytes()


_SAVED = _saved_model_bytes()


def _flip_bit(raw: bytes, pos: int, bit: int) -> bytes:
    out = bytearray(raw)
    out[pos] ^= 1 << bit
    return bytes(out)


def _set_byte(raw: bytes, pos: int, value: int) -> bytes:
    out = bytearray(raw)
    out[pos] = value
    return bytes(out)


_DAMAGED_FILES = st.one_of(
    st.builds(_flip_bit, st.just(_SAVED), st.integers(0, len(_SAVED) - 1),
              st.integers(0, 7)),
    st.integers(0, len(_SAVED) - 1).map(lambda n: _SAVED[:n]),
    st.builds(_set_byte, st.just(_SAVED), st.integers(0, 59),
              st.integers(0, 255)),
    st.binary(min_size=1, max_size=16).map(lambda tail: _SAVED + tail),
)


class TestLoadModelProperty:
    """A weight file with a flipped bit, a cut, an edited header byte or
    extra bytes is refused as a DataError or ConfigError, or loads as a
    model that `save_model` writes back byte for byte."""

    @settings(max_examples=50, deadline=None)
    @given(raw=_DAMAGED_FILES)
    def test_refused_or_written_back_unchanged(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.bxw"
            path.write_bytes(raw)
            try:
                params, _ = load_model(path)
            except (DataError, ConfigError):
                return
            save_model(params, path)
            assert path.read_bytes() == raw
