"""Evaluation tests: displacement metrics against closed forms, analytic
baselines on kinematics they should nail exactly, fold aggregation, the
throughput benchmark, and the loss-mode ablation harness."""

import math
import re
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from boxcast import evaluation, model
from boxcast.data import (
    SYNTH_KINDS,
    Boxes,
    SynthSpec,
    slice_all_minitracks,
    slice_minitracks,
    synth_tracks,
)
from boxcast.errors import ConfigError, DataError, NumericError, ShapeError
from boxcast.evaluation import (
    BASELINE_KINDS,
    MetricReport,
    ablation_run,
    ade,
    baseline_predict,
    benchmark_tps,
    evaluate,
    evaluate_baseline,
    evaluate_predictions,
    fde,
    fde_at,
    summarize_folds,
)
from boxcast.model import MODE_TRAJ, ModelDims, init_params, predict
from boxcast.training import TrainConfig, load_model, save_model, train

PER_SAMPLE_METRICS = {"ade": ade, "fde": fde,
                      "fde_at": lambda pred, gt: fde_at(pred, gt, 1)}


def cv_minitracks(k, p, count=4, velocity=(2.0, 1.0), seed=0, **kw):
    spec = SynthSpec(kind="constant-velocity", length=k + p,
                     velocity=velocity, seed=seed, **kw)
    out = []
    for t in synth_tracks(spec, count):
        out.extend(slice_minitracks(t, window=k + p, stride=k + p))
    return out


class TestMetrics:
    def test_three_four_five_offset(self):
        gt = np.tile([10.0, 20.0, 5.0, 8.0], (6, 1))
        pred = gt + [3.0, 4.0, 0.0, 0.0]
        assert ade(pred, gt) == 5.0
        assert fde(pred, gt) == 5.0
        assert all(fde_at(pred, gt, t) == 5.0 for t in range(1, 7))

    def test_linearly_growing_displacement(self):
        p = 8
        t = np.arange(1.0, p + 1)
        gt = np.zeros((p, 4)) + [0.0, 0.0, 2.0, 2.0]
        pred = gt.copy()
        pred[:, 0] += t
        for step in range(1, p + 1):
            assert fde_at(pred, gt, step) == float(step)
        assert ade(pred, gt) == pytest.approx((p + 1) / 2.0)
        assert fde(pred, gt) == fde_at(pred, gt, p)

    def test_sizes_do_not_enter_the_metrics(self):
        gt = np.tile([10.0, 20.0, 5.0, 8.0], (4, 1))
        pred = gt.copy()
        pred[:, 2:] = 999.0
        assert ade(pred, gt) == 0.0

    def test_step_bounds(self):
        gt = np.tile([0.0, 0.0, 1.0, 1.0], (3, 1))
        with pytest.raises(IndexError):
            fde_at(gt, gt, 0)
        with pytest.raises(IndexError):
            fde_at(gt, gt, 4)

    def test_shape_mismatch(self):
        a = np.zeros((3, 4))
        with pytest.raises(ShapeError):
            ade(a, np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            ade(np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(PER_SAMPLE_METRICS))
    def test_non_finite_forecast_is_a_numeric_error(self, name, bad):
        gt = np.tile([10.0, 20.0, 5.0, 8.0], (3, 1))
        pred = gt.copy()
        pred[1, 0] = bad
        with pytest.raises(NumericError, match="1 of them"):
            PER_SAMPLE_METRICS[name](pred, gt)

    # the centroid difference overflows, which numpy reports as a warning
    # before the NumericError is raised
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(PER_SAMPLE_METRICS))
    def test_overflowing_displacement_is_a_numeric_error(self, name):
        gt = np.tile([-1.5e308, 0.0, 2.0, 2.0], (3, 1))
        pred = gt * [-1.0, 1.0, 1.0, 1.0]
        with pytest.raises(NumericError):
            PER_SAMPLE_METRICS[name](pred, gt)


class TestEvaluatePredictions:
    def test_aggregation_matches_a_manual_average(self):
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(5):
            gt = rng.normal(100.0, 20.0, size=(7, 4))
            pred = gt + rng.normal(0.0, 3.0, size=(7, 4))
            pairs.append((pred, gt))
        report = evaluate_predictions(np.stack([pr for pr, _ in pairs]),
                                      np.stack([gt for _, gt in pairs]),
                                      input_k=9)
        disp = np.stack([np.hypot(*(pr[:, :2] - gt[:, :2]).T)
                         for pr, gt in pairs])
        assert report.ade == pytest.approx(disp.mean(), rel=1e-15)
        assert report.fde == pytest.approx(disp[:, -1].mean(), rel=1e-15)
        for t in range(1, 8):
            assert report.fde_at[t] == pytest.approx(disp[:, t - 1].mean(),
                                                     rel=1e-15)
        assert report.n_samples == 5
        assert report.horizon_p == 7
        assert report.input_k == 9
        assert report.fde == report.fde_at[7]

    def test_nonpositive_predicted_sizes_are_counted_not_clamped(self):
        gt = np.tile([10.0, 20.0, 5.0, 8.0], (4, 1))
        pred = gt.copy()
        pred[0, 2] = 0.0
        pred[2, 3] = -1.0
        report = evaluate_predictions(pred[None], gt[None], input_k=2)
        assert report.nonpositive_size_count == 2
        assert report.ade == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            evaluate_predictions(np.empty((0, 3, 4)), np.empty((0, 3, 4)),
                                 input_k=2)

    def test_only_matching_stacks_of_box_sequences_are_accepted(self):
        a = np.zeros((2, 3, 4))
        for pred, gt in ((a, np.zeros((2, 4, 4))),  # mismatched
                         (a[0], a[0]),  # one (p, 4) sequence, unstacked
                         (a[..., :3], a[..., :3]),  # not boxes
                         (a[:, :0], a[:, :0]),  # p = 0
                         (a[None], a[None])):  # an extra batch axis
            with pytest.raises(ShapeError):
                evaluate_predictions(pred, gt, input_k=2)

    def test_non_finite_metrics_raise_and_count_the_bad_samples(self):
        gt = np.tile([10.0, 20.0, 5.0, 8.0], (4, 1))
        inf_pred = gt.copy()
        inf_pred[3, 0] = np.inf
        nan_pred = gt.copy()
        nan_pred[1, 1] = np.nan
        pairs = [(gt, gt), (inf_pred, gt), (gt, gt), (nan_pred, gt)]
        with pytest.raises(NumericError, match="2 of them"):
            evaluate_predictions(np.stack([pr for pr, _ in pairs]),
                                 np.stack([gt for _, gt in pairs]),
                                 input_k=2)

    def test_extreme_coordinates_are_a_numeric_error_not_inf(self):
        # finite input whose constant-velocity extrapolation overflows
        track = np.tile([0.0, 5.0, 2.0, 2.0], (8, 1))
        track[:, 0] = [1e308 if i % 2 else -1e308 for i in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            pred = baseline_predict("constant-velocity", track[:5], 3)
        with pytest.raises(NumericError, match="1 of them"):
            evaluate_predictions(pred[None], track[5:][None], input_k=5)


class TestBaselines:
    def test_constant_velocity_is_exact_on_its_own_kinematics(self):
        mts = cv_minitracks(k=5, p=6)
        report = evaluate_baseline("constant-velocity", mts, k=5, p=6)
        assert report.ade == 0.0
        assert report.fde == 0.0

    def test_constant_acceleration_is_exact_on_its_own_kinematics(self):
        spec = SynthSpec(kind="constant-acceleration", length=12,
                         velocity=(2.0, 1.0), accel=(0.5, 0.25), seed=1)
        mts = []
        for t in synth_tracks(spec, 3):
            mts.extend(slice_minitracks(t, window=12, stride=12))
        report = evaluate_baseline("constant-acceleration", mts, k=5, p=7)
        assert report.ade == 0.0
        assert report.fde == 0.0

    def test_stationary_error_grows_as_t_times_speed(self):
        p = 6
        mts = cv_minitracks(k=4, p=p, velocity=(1.0, 2.0))
        report = evaluate_baseline("stationary", mts, k=4, p=p)
        speed = math.sqrt(5.0)
        for t in range(1, p + 1):
            assert report.fde_at[t] == pytest.approx(t * speed, rel=1e-12)
        assert report.ade == pytest.approx(speed * (p + 1) / 2.0, rel=1e-12)

    def test_velocity_uses_only_the_last_step(self):
        boxes = np.array([[0.0, 0.0, 10.0, 20.0],
                          [50.0, 9.0, 10.0, 20.0],
                          [51.0, 10.0, 11.0, 21.0]])
        pred = baseline_predict("constant-velocity", boxes, steps=3)
        np.testing.assert_array_equal(pred, [[52.0, 11.0, 12.0, 22.0],
                                             [53.0, 12.0, 13.0, 23.0],
                                             [54.0, 13.0, 14.0, 24.0]])

    def test_acceleration_triangular_accumulation(self):
        # positions 0, 1, 4 give v2=3, a=2: next steps 9, 16, 25 (squares)
        boxes = np.array([[0.0, 0.0, 2.0, 2.0],
                          [1.0, 0.0, 2.0, 2.0],
                          [4.0, 0.0, 2.0, 2.0]])
        pred = baseline_predict("constant-acceleration", boxes, steps=3)
        np.testing.assert_array_equal(pred[:, 0], [9.0, 16.0, 25.0])

    def test_stationary_repeats_the_anchor(self):
        boxes = np.array([[3.0, 4.0, 5.0, 6.0]])
        pred = baseline_predict("stationary", boxes, steps=4)
        np.testing.assert_array_equal(pred, np.tile([3.0, 4.0, 5.0, 6.0],
                                                    (4, 1)))

    def test_validation(self):
        boxes = np.tile([0.0, 0.0, 2.0, 2.0], (3, 1))
        with pytest.raises(ConfigError, match="unknown baseline"):
            baseline_predict("psychic", boxes, steps=2)
        with pytest.raises(ConfigError):
            baseline_predict("stationary", boxes, steps=0)
        with pytest.raises(DataError):
            baseline_predict("constant-velocity", boxes[:1], steps=2)
        with pytest.raises(DataError):
            baseline_predict("constant-acceleration", boxes[:2], steps=2)
        with pytest.raises(ShapeError):
            baseline_predict("stationary", boxes[0], steps=2)
        assert set(BASELINE_KINDS) == {"constant-velocity",
                                       "constant-acceleration", "stationary"}

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_steps_must_be_an_int(self, kind):
        """A float or a bool is no step count for any kind: 2.5 gave 2
        boxes from `np.repeat` but 3 from the velocity kinds'
        ``np.arange(1, steps + 1)``, and True gave 1. A NumPy int is one."""
        boxes = np.tile([0.0, 0.0, 2.0, 2.0], (3, 1))
        for steps in (2.5, True):
            with pytest.raises(ConfigError, match=f"^steps must be an int, "
                                                  f"got {steps!r}$"):
                baseline_predict(kind, boxes, steps)
        with pytest.raises(ConfigError, match="^steps must be >= 1, got 0$"):
            baseline_predict(kind, boxes, np.int64(0))
        assert baseline_predict(kind, boxes, np.int64(3)).shape == (3, 4)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_a_boxes_is_refused_for_its_rows(self, kind):
        boxes = Boxes(np.tile([0.0, 0.0, 2.0, 2.0], (3, 1)), range(3))
        with pytest.raises(ShapeError, match="not an array"):
            baseline_predict(kind, boxes, steps=2)
        assert baseline_predict(kind, boxes.xywh, steps=2).shape == (2, 4)

    @pytest.mark.parametrize("k,p", [(5, -3), (-2, 5), (0, 5), (5, 0),
                                     (2.5, 5)])
    def test_window_lengths_below_one_are_a_config_error(self, k, p):
        mts = cv_minitracks(k=4, p=5)
        with pytest.raises(ConfigError, match="must be a positive int"):
            evaluate_baseline("stationary", mts, k, p)


class TestEvaluateModel:
    def test_stub_delta_head_nails_matching_kinematics(self):
        dims = ModelDims(k=5, p=6, hidden=8, latent=4)
        params = init_params(dims, seed=2)
        for t in params.tensors().values():
            t[...] = 0.0
        params.fc_delta.b[...] = [2.0, 1.0, 0.0, 0.0]
        mts = cv_minitracks(k=5, p=6, velocity=(2.0, 1.0))
        report = evaluate(params, mts)
        assert report.ade == 0.0
        assert report.fde == 0.0
        assert report.nonpositive_size_count == 0
        assert report.horizon_p == 6
        assert report.input_k == 5

    def test_wrong_minitrack_length_rejected(self):
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=3)
        mts = cv_minitracks(k=5, p=5)
        with pytest.raises(DataError, match="expected k\\+p"):
            evaluate(params, mts)

    def test_empty_set_rejected(self):
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=4)
        with pytest.raises(ConfigError, match="empty"):
            evaluate(params, [])


def mixed_minitracks(k, p, per_kind, seed, **kw):
    """Noisy mini-tracks of every synthetic kind, with predecessors."""
    tracks = []
    for i, kind in enumerate(SYNTH_KINDS):
        tracks += synth_tracks(SynthSpec(
            kind=kind, length=k + p + 2, noise_std=0.75, start_jitter=200.0,
            velocity_jitter=2.0, seed=seed + i, **kw), per_kind)
    return slice_all_minitracks(tracks, k + p, 2)


def per_sample_displacements(forecast, mts, k, p):
    """The per-sample protocol as the reference: one forecast per
    mini-track, its centroid distance at every step from `fde_at` (so
    ``ade`` is the row mean and ``fde`` the last entry), stacked to
    (N, p); and the count of predicted sizes <= 0."""
    rows, nonpositive = [], 0
    for mt in mts:
        pred = forecast(mt.boxes[:k], mt.predecessor)
        gt = mt.boxes[k:].xywh
        rows.append([fde_at(pred, gt, t) for t in range(1, p + 1)])
        nonpositive += int(np.count_nonzero(pred[:, 2:] <= 0))
    return np.array(rows), nonpositive


class TestBatchedEvaluation:
    """Stacked scoring against the per-sample protocol: baselines bit for
    bit, a model within a stated bound (a batched GEMM may round
    differently from per-row products)."""

    BOUND_PX = 1e-3

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baseline_reports_equal_per_sample_scoring_bitwise(self, kind):
        k, p = 8, 10
        # small boxes, so noisy extrapolations reach sizes <= 0
        mts = mixed_minitracks(k, p, per_kind=3, seed=50, size=(4.0, 6.0))
        disp, nonpositive = per_sample_displacements(
            lambda boxes, _: baseline_predict(kind, boxes.xywh, p), mts, k, p)
        report = evaluate_baseline(kind, mts, k, p)
        per_step = disp.mean(axis=0)
        assert report.ade == float(disp.mean())
        assert report.fde == float(per_step[-1])
        assert report.fde_at == {t: float(per_step[t - 1])
                                 for t in range(1, p + 1)}
        assert report.nonpositive_size_count == nonpositive
        assert report.n_samples == len(mts) == 24
        if kind == "constant-acceleration":
            assert nonpositive > 0

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_baseline_predict_over_a_batch_equals_stacked_rows(self, kind):
        mts = mixed_minitracks(6, 4, per_kind=2, seed=60)
        rows = [mt.boxes.xywh[:6] for mt in mts]
        obs = np.stack(rows)
        want = np.stack([baseline_predict(kind, r, 5) for r in rows])
        np.testing.assert_array_equal(baseline_predict(kind, obs, 5), want)
        np.testing.assert_array_equal(
            baseline_predict(kind, obs.reshape(4, -1, 6, 4), 5),
            want.reshape(4, -1, 5, 4))

    def test_model_reports_stay_within_the_bound_of_per_sample_predict(
            self, tmp_path, capsys):
        dims = ModelDims(k=30, p=60, hidden=512, latent=256)
        path = tmp_path / "full.bxw"
        save_model(init_params(dims, seed=8), path)
        params, _ = load_model(path)
        mts = mixed_minitracks(dims.k, dims.p, per_kind=2, seed=80)
        disp, nonpositive = per_sample_displacements(
            lambda boxes, before: predict(params, boxes, before), mts,
            dims.k, dims.p)
        report = evaluate(params, mts)
        per_step = disp.mean(axis=0)
        gaps = [abs(report.ade - disp.mean())] + [
            abs(report.fde_at[t] - per_step[t - 1])
            for t in range(1, dims.p + 1)]
        with capsys.disabled():
            print(f"\n[batched vs per-sample] {len(mts)} windows: worst "
                  f"ADE/FDE@t gap {max(gaps):.3g} px "
                  f"(bound {self.BOUND_PX} px)")
        assert max(gaps) <= self.BOUND_PX
        assert report.fde == report.fde_at[dims.p]
        assert report.nonpositive_size_count == nonpositive
        assert report.n_samples == len(mts) == 16

    def test_sets_longer_than_one_chunk_keep_every_row(self, monkeypatch):
        """2 * `FORECAST_CHUNK` + 1 = 129 windows run as three near-equal
        blocks of 43 rows, whose forecasts, in order, are every window's."""
        dims = ModelDims(k=5, p=6, hidden=8, latent=4)
        params = init_params(dims, seed=9).astype(np.float32)
        mts = cv_minitracks(k=5, p=6, count=2 * model.FORECAST_CHUNK + 1,
                            start_jitter=20.0, velocity_jitter=1.0, seed=9)
        blocks, scored = [], []
        real_encode = model.encode
        real_score = evaluation.evaluate_predictions

        def encode(params, window):
            blocks.append(len(window))
            return real_encode(params, window)

        def score(pred, *args, **kwargs):
            scored.append(pred)
            return real_score(pred, *args, **kwargs)

        monkeypatch.setattr(model, "encode", encode)
        monkeypatch.setattr(evaluation, "evaluate_predictions", score)
        report = evaluate(params, mts)
        assert blocks == [43, 43, 43]
        assert report.n_samples == len(mts)
        monkeypatch.undo()
        want = np.stack([predict(params, mt.boxes[:5], mt.predecessor)
                         for mt in mts])
        assert np.abs(scored[0] - want).max() <= self.BOUND_PX


class TestInferencePrecision:
    """A loaded model infers at the weight file's float32; its forecasts
    must stay within a stated bound of the same weights run at float64."""

    BOUND_PX = 1e-3

    def test_float32_forecasts_and_metrics_stay_within_the_bound(
            self, tmp_path, capsys):
        dims = ModelDims(k=30, p=60, hidden=512, latent=256)
        path = tmp_path / "full.bxw"
        save_model(init_params(dims, seed=7), path)
        p32, _ = load_model(path)
        p64 = p32.astype(np.float64)
        tracks = []
        for i, kind in enumerate(SYNTH_KINDS):
            tracks += synth_tracks(SynthSpec(
                kind=kind, length=dims.k + dims.p + 30, noise_std=0.75,
                start_jitter=200.0, velocity_jitter=2.0, seed=70 + i), 2)
        mts = slice_all_minitracks(tracks, dims.k + dims.p, 30)
        assert len(mts) == 16
        worst = max(
            float(np.abs(predict(p32, mt.boxes[:dims.k], mt.predecessor)
                         - predict(p64, mt.boxes[:dims.k],
                                   mt.predecessor)).max())
            for mt in mts)
        r32, r64 = evaluate(p32, mts), evaluate(p64, mts)
        ade_gap, fde_gap = abs(r32.ade - r64.ade), abs(r32.fde - r64.fde)
        with capsys.disabled():
            print(f"\n[f32 vs f64] {len(mts)} windows: max forecast diff "
                  f"{worst:.3g} px, ADE gap {ade_gap:.3g} px, "
                  f"FDE gap {fde_gap:.3g} px (bound {self.BOUND_PX} px)")
        assert worst <= self.BOUND_PX
        assert ade_gap <= self.BOUND_PX
        assert fde_gap <= self.BOUND_PX


class TestSummarizeFolds:
    def test_equal_weight_per_fold(self):
        def rep(ade_v, fde_v, n):
            return MetricReport(ade=ade_v, fde=fde_v,
                                fde_at={1: fde_v}, n_samples=n,
                                horizon_p=1, input_k=1)
        summary = summarize_folds([rep(1.0, 2.0, 10),
                                   rep(2.0, 4.0, 1),
                                   rep(6.0, 6.0, 1)])
        assert summary["ade"] == pytest.approx(3.0)
        assert summary["fde"] == pytest.approx(4.0)
        assert summary["n_samples"] == 12

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            summarize_folds([])


class TestBenchmark:
    def test_single_thread_smoke(self):
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=5)
        report = benchmark_tps(params, threads=1, duration=0.05, n_windows=4)
        assert report.n_predictions > 0
        assert report.trajectories_per_second == pytest.approx(
            report.n_predictions / report.elapsed_s)
        assert report.equivalent_fps == pytest.approx(
            report.trajectories_per_second * 6)
        assert report.threads == 1
        assert report.dtype == "float32"
        assert (report.k, report.p) == (5, 6)

    def test_two_threads_start_one_child_at_two_blas_threads(self,
                                                             monkeypatch):
        """A count runs in one child process, whose BLAS thread-count
        variables all hold that count."""
        calls = []
        real = subprocess.run

        def run(*args, **kwargs):
            calls.append(kwargs["env"])
            return real(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=6)
        report = benchmark_tps(params, threads=2, duration=0.05, n_windows=4)
        [env] = calls
        assert [env[name] for name in ("OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")] == ["2", "2", "2"]
        assert report.threads == 2
        assert report.n_predictions > 0

    def test_validation(self):
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=7)
        with pytest.raises(ConfigError):
            benchmark_tps(params, threads=0)
        with pytest.raises(ConfigError):
            benchmark_tps(params, duration=0.0)
        with pytest.raises(ConfigError, match="^n_windows must be >= 1, "
                                              "got 0$"):
            benchmark_tps(params, n_windows=0)

    @pytest.mark.parametrize("name, value", [
        ("threads", True), ("threads", 1.0), ("n_windows", 2.5),
        ("n_windows", True)])
    def test_counts_must_be_ints_and_start_no_process(self, name, value,
                                                       monkeypatch):
        """A float or a bool thread or window count is refused before the
        weight file is written or a process starts: ``n_windows=2.5``
        started a child that failed, and ``threads=True`` ran with
        ``OPENBLAS_NUM_THREADS=True``."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "run", refuse)
        monkeypatch.setattr(evaluation, "save_model", refuse)
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=7)
        with pytest.raises(ConfigError, match=f"^{name} must be an int, "
                                              f"got {value!r}$"):
            benchmark_tps(params, **{name: value})

    @pytest.mark.parametrize("duration", [math.inf, 1e300])
    def test_duration_beyond_the_sleep_limit_starts_no_process(
            self, duration, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "run", refuse)
        params = init_params(ModelDims(k=5, p=6, hidden=8, latent=4), seed=7)
        with pytest.raises(ConfigError, match="duration"):
            benchmark_tps(params, duration=duration, n_windows=4)


class TestAblation:
    CFG = TrainConfig(k=5, p=4, hidden=8, latent=4, batch_size=4, epochs=2,
                      base_lr=0.003, halve_every=2, seed=0)

    def test_rows_cover_modes_by_horizon(self):
        mts = cv_minitracks(k=5, p=4, count=4, start_jitter=5.0, seed=8)
        rows = ablation_run(mts, self.CFG, horizons=(2, 4))
        assert [(r["mode"], r["horizon"]) for r in rows] == [
            ("traj-del", 2), ("traj-del", 4),
            ("traj", 2), ("traj", 4),
            ("traj+auto-enc", 2), ("traj+auto-enc", 4)]
        for r in rows:
            assert math.isfinite(r["ade"]) and r["ade"] >= 0.0
            assert math.isfinite(r["fde"]) and r["fde"] >= 0.0

    def test_truncated_scoring_is_prefix_consistent(self):
        # the ADE over a 1-step horizon equals that model's fde_at[1], so
        # truncation must reproduce the first-step column exactly
        mts = cv_minitracks(k=5, p=4, count=4, start_jitter=5.0, seed=9)
        rows = ablation_run(mts, self.CFG, modes=(MODE_TRAJ,),
                            horizons=(1, 4))
        assert rows[0]["ade"] == rows[0]["fde"]
        assert rows[0]["horizon"] == 1

    @pytest.mark.parametrize("retrain", [False, True])
    def test_horizon_beyond_p_is_refused_before_any_training(
            self, retrain, monkeypatch):
        """The scored targets are stacked at p, so neither protocol can
        score a longer horizon, and neither trains a model first."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", no_training)
        mts = cv_minitracks(k=5, p=4, count=4, seed=10)
        with pytest.raises(ConfigError, match="^horizon 8 exceeds the model "
                                              "horizon p=4$"):
            ablation_run(mts, self.CFG, modes=(MODE_TRAJ,), horizons=(2, 8),
                         retrain_per_horizon=retrain)

    @pytest.mark.parametrize("horizon", [2.7, True, "x"])
    def test_a_horizon_that_is_not_an_int_is_refused_before_any_training(
            self, horizon, monkeypatch):
        """``int(h)`` scored 2.7 as horizon 2 and True as horizon 1, and
        "x" ended in a bare ValueError. An int below 1 keeps its text."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", no_training)
        mts = cv_minitracks(k=5, p=4, count=4, seed=10)
        with pytest.raises(ConfigError, match=f"^horizon must be an int, got "
                                              f"{re.escape(repr(horizon))}$"):
            ablation_run(mts, self.CFG, modes=(MODE_TRAJ,),
                         horizons=(2, horizon))
        with pytest.raises(ConfigError, match=r"^bad horizons \[0, 2\]$"):
            ablation_run(mts, self.CFG, modes=(MODE_TRAJ,),
                         horizons=(2, np.int64(0)))

    @pytest.mark.parametrize("modes, horizons, message", [
        ((MODE_TRAJ, MODE_TRAJ), (2,), "loss mode 'traj' is listed twice"),
        ((MODE_TRAJ,), (2, 4, np.int64(2)), "horizon 2 is listed twice")],
        ids=["mode", "horizon"])
    @pytest.mark.parametrize("retrain", [False, True])
    def test_a_repeated_mode_or_horizon_is_refused_before_any_training(
            self, modes, horizons, message, retrain, monkeypatch):
        """Each repeat would train or score again and write its rows
        twice."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", no_training)
        mts = cv_minitracks(k=5, p=4, count=4, seed=10)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ablation_run(mts, self.CFG, modes=modes, horizons=horizons,
                         retrain_per_horizon=retrain)

    def test_retrain_per_horizon_fits_shorter_models(self):
        mts = cv_minitracks(k=5, p=4, count=4, start_jitter=5.0, seed=11)
        rows = ablation_run(mts, self.CFG, modes=(MODE_TRAJ,),
                            horizons=(2, 3), retrain_per_horizon=True)
        assert [(r["mode"], r["horizon"]) for r in rows] == [("traj", 2),
                                                             ("traj", 3)]
        for r in rows:
            assert math.isfinite(r["ade"])

    def test_retrain_protocol_matches_training_per_horizon(self):
        """Each row is the model trained on mini-tracks truncated to k + h,
        scored by `evaluate` on the truncated held-out set, bit for bit."""
        mts = cv_minitracks(k=5, p=4, count=4, start_jitter=5.0, seed=14)
        eval_mts = cv_minitracks(k=5, p=4, count=3, start_jitter=5.0,
                                 seed=15)
        modes, horizons = ("traj", "traj-del"), (2, 4)
        rows = ablation_run(mts, self.CFG, modes=modes, horizons=horizons,
                            eval_minitracks=eval_mts,
                            retrain_per_horizon=True)
        expected = []
        for m in modes:
            for h in horizons:
                pars, _ = train(replace(self.CFG, loss_mode=m, p=h),
                                [replace(mt, boxes=mt.boxes[:5 + h])
                                 for mt in mts])
                rep = evaluate(pars, [replace(mt, boxes=mt.boxes[:5 + h])
                                      for mt in eval_mts])
                expected.append({"mode": m, "horizon": h,
                                 "ade": rep.ade, "fde": rep.fde})
        assert rows == expected

    def test_runs_are_deterministic(self):
        mts = cv_minitracks(k=5, p=4, count=4, start_jitter=5.0, seed=12)
        a = ablation_run(mts, self.CFG, modes=(MODE_TRAJ,), horizons=(4,))
        b = ablation_run(mts, self.CFG, modes=(MODE_TRAJ,), horizons=(4,))
        assert a == b

    def test_bad_horizons_rejected(self):
        mts = cv_minitracks(k=5, p=4, count=4, seed=13)
        with pytest.raises(ConfigError):
            ablation_run(mts, self.CFG, horizons=())
        with pytest.raises(ConfigError):
            ablation_run(mts, self.CFG, horizons=(0, 2))
        with pytest.raises(ConfigError):
            ablation_run(mts, self.CFG, modes=("warp",), horizons=(2,))
