"""Metrics (ADE, FDE, FDE@t), evaluation over mini-tracks, analytic
baselines, cross-validation aggregation, the trajectories-per-second
benchmark, and the loss-mode ablation harness.

Displacement metrics use box centroids only; width/height errors never
enter them.

Evaluation is array-first: `evaluate`, `evaluate_baseline` and
`ablation_run` stack their N mini-tracks once with `stack_minitracks` (which
refuses k or p below 1, an empty set, or a length other than k + p) into
(N, k, 8) windows and (N, p, 4) targets. `ablation_run` stacks its scored set
once for both protocols and scores every horizon on a prefix of it. A model
forecasts the windows through `forecast`, in chunks of `FORECAST_CHUNK` rows
(CLI `predict` runs its stacked windows through it too), a baseline in one
`baseline_predict` call, and `evaluate_predictions` scores the (N, p, 4)
forecasts. The per-sample metrics `ade`, `fde` and `fde_at` are its N = 1
case.

Input-range policy: coordinates are accepted as long as they are finite, but
a metric is never reported as inf or NaN. When forecasts from extreme inputs
(such as centroids near +-1e308) overflow, `evaluate_predictions` raises
NumericError, naming how many of the N samples went non-finite, instead of
returning a non-finite ADE or FDE. The policy covers `ade`, `fde` and
`fde_at` too: a (p, 4) forecast holding NaN or inf raises NumericError.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import MiniTrack, SynthSpec, synth_tracks
from .errors import ConfigError, DataError, NumericError, ShapeError
from .model import (
    LOSS_MODES,
    ModelParams,
    build_features,
    predict,  # noqa: F401  read only by perfbench/tracing.py::targets
    predict_from_window,
)
from .training import stack_minitracks, train

BASELINE_KINDS = ("constant-velocity", "constant-acceleration", "stationary")

# Rows per `predict_from_window` call. A full-size float32 forecast holds
# about 0.89 MB of transient buffers per row (mostly the decoder's stacked
# gates), so a chunk peaks near 56 MB (tracemalloc). Measured on one BLAS
# thread, full size, float32, 2-core Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31):
# 55/145/294/349/368 forecasts/s at batch 1/8/32/64/128 (best of 5 runs of
# best of 5).
FORECAST_CHUNK = 64

__all__ = [
    "BASELINE_KINDS",
    "BenchReport",
    "MetricReport",
    "ablation_run",
    "ade",
    "baseline_predict",
    "benchmark_tps",
    "evaluate",
    "evaluate_baseline",
    "evaluate_predictions",
    "fde",
    "fde_at",
    "forecast",
    "summarize_folds",
]


@dataclass
class MetricReport:
    """Aggregate displacement metrics over a set of mini-tracks.

    ``fde_at`` maps every 1-based horizon step t to the mean displacement at
    that step, so ``fde == fde_at[p]``. ``nonpositive_size_count`` counts
    predicted boxes whose width or height came out <= 0 (they are reported,
    never clamped, since the metrics only read centroids).
    """

    ade: float
    fde: float
    fde_at: dict[int, float]
    n_samples: int
    horizon_p: int
    input_k: int
    nonpositive_size_count: int = 0


def ade(pred, gt) -> float:
    """Mean centroid Euclidean distance over all steps of (p, 4) boxes."""
    return evaluate_predictions(np.asarray(pred)[None], np.asarray(gt)[None],
                                input_k=0).ade


def fde_at(pred, gt, t: int) -> float:
    """Centroid Euclidean distance at 1-based future step t."""
    steps = evaluate_predictions(np.asarray(pred)[None],
                                 np.asarray(gt)[None], input_k=0).fde_at
    if t not in steps:
        raise IndexError(f"step t={t} outside the horizon 1..{len(steps)}")
    return steps[t]


def fde(pred, gt) -> float:
    """Centroid Euclidean distance at the final step."""
    return evaluate_predictions(np.asarray(pred)[None], np.asarray(gt)[None],
                                input_k=0).fde


def evaluate_predictions(pred: np.ndarray, gt: np.ndarray,
                         input_k: int) -> MetricReport:
    """Aggregate (N, p, 4) predicted boxes against (N, p, 4) ground truth.

    Raises ShapeError on other shapes, ConfigError when N is 0, and
    NumericError when the ADE or FDE is not finite (see the module's
    input-range policy).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    if pred.ndim != 3 or pred.shape[-1] != 4 or pred.shape[-2] < 1:
        raise ShapeError(f"expected (N, p, 4) box sequences, got {pred.shape}")
    d = pred[..., :2] - gt[..., :2]
    disp = np.hypot(d[..., 0], d[..., 1])
    n, p = disp.shape
    if n == 0:
        raise ConfigError("nothing to evaluate: empty prediction set")
    per_step = disp.mean(axis=0)
    ade_all, fde_all = float(disp.mean()), float(per_step[-1])
    if not (np.isfinite(ade_all) and np.isfinite(fde_all)):
        n_bad = int(np.count_nonzero(~np.isfinite(disp).all(axis=1)))
        raise NumericError(
            f"ADE {ade_all} / FDE {fde_all} over {n} samples, "
            f"{n_bad} of them with a non-finite centroid displacement; "
            f"coordinates are outside the range the metrics can represent")
    return MetricReport(
        ade=ade_all,
        fde=fde_all,
        fde_at={t: float(per_step[t - 1]) for t in range(1, p + 1)},
        n_samples=n,
        horizon_p=p,
        input_k=input_k,
        nonpositive_size_count=int(np.count_nonzero(pred[..., 2:] <= 0)),
    )


def forecast(params: ModelParams, windows: np.ndarray) -> np.ndarray:
    """(N, p, 4) model forecasts of (N, k, 8) windows, FORECAST_CHUNK rows
    per `predict_from_window` call. A row is within 1e-3 px (float32) of the
    same window forecast alone, not bit-equal: one window runs a
    matrix-vector product, a chunk a matrix product."""
    return np.concatenate([
        predict_from_window(params, windows[i:i + FORECAST_CHUNK])
        for i in range(0, len(windows), FORECAST_CHUNK)])


def evaluate(params: ModelParams, minitracks: list[MiniTrack]) -> MetricReport:
    """Evaluate a trained model over mini-tracks of length k + p."""
    d = params.dims
    windows, targets = stack_minitracks(minitracks, d.k, d.p)
    return evaluate_predictions(forecast(params, windows), targets,
                                input_k=d.k)


def evaluate_baseline(kind: str, minitracks: list[MiniTrack], k: int, p: int
                      ) -> MetricReport:
    """Evaluate one analytic baseline under the same protocol as `evaluate`."""
    windows, targets = stack_minitracks(minitracks, k, p)
    return evaluate_predictions(baseline_predict(kind, windows[..., :4], p),
                                targets, input_k=k)


def summarize_folds(reports: list[MetricReport]) -> dict:
    """Cross-validation summary: equal weight per fold (mean of fold means),
    regardless of how many samples each fold holds."""
    if not reports:
        raise ConfigError("no fold reports to summarize")
    return {
        "n_folds": len(reports),
        "ade": float(np.mean([r.ade for r in reports])),
        "fde": float(np.mean([r.fde for r in reports])),
        "n_samples": int(sum(r.n_samples for r in reports)),
        "weighting": "equal weight per fold (mean of fold means)",
    }


# ---------------------------------------------------------------------------
# analytic baselines


def baseline_predict(kind: str, past_boxes, steps: int) -> np.ndarray:
    """Extrapolate ``steps`` future boxes from past boxes without a model.

    ``past_boxes`` is an (..., n, 4) array of (cx, cy, w, h) rows with any
    leading batch shape (a `Boxes`' ``xywh``); the result is
    (..., steps, 4).

    constant-velocity       repeats the last observed per-frame change
    constant-acceleration   fits velocity and acceleration to the last three
    stationary              repeats the last box
    """
    if kind not in BASELINE_KINDS:
        raise ConfigError(
            f"unknown baseline {kind!r}; pick one of {BASELINE_KINDS}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    try:
        arr = np.asarray(past_boxes)
    except TypeError as e:  # e.g. a `Boxes`, which is not iterable
        raise ShapeError(f"past boxes are not an array: {e}") from None
    if arr.ndim < 2 or arr.shape[-1] != 4:
        raise ShapeError(f"past boxes have shape {arr.shape}, expected "
                         f"(..., n, 4)")
    n = arr.shape[-2]
    # the last boxes keep a length-1 step axis, (..., 1, 4), so they
    # broadcast against the (steps, 1) step counts
    anchor, before = arr[..., -1:, :], arr[..., -2:-1, :]
    i = np.arange(1, steps + 1, dtype=np.float64)[:, None]
    if kind == "stationary":
        if n < 1:
            raise DataError("stationary baseline needs at least 1 box")
        return np.repeat(anchor, steps, axis=-2)
    if kind == "constant-velocity":
        if n < 2:
            raise DataError("constant-velocity baseline needs at least 2 boxes")
        v = anchor - before
        return anchor + i * v
    if n < 3:
        raise DataError("constant-acceleration baseline needs at least 3 boxes")
    v2 = anchor - before
    v1 = before - arr[..., -3:-2, :]
    a = v2 - v1
    # under constant acceleration the i-th future step advances by
    # i*v2 + (1+2+...+i)*a
    return anchor + i * v2 + (i * (i + 1) / 2.0) * a


# ---------------------------------------------------------------------------
# throughput benchmark


@dataclass
class BenchReport:
    """One benchmark run at a fixed thread count.

    ``trajectories_per_second`` counts complete k-in/p-out forecasts;
    ``equivalent_fps`` converts to frames per second as TPS * p (each
    forecast covers p future frames). The timed region spans only the
    predict calls: windows are built beforehand and parameters are shared
    read-only across threads.
    """

    threads: int
    trajectories_per_second: float
    equivalent_fps: float
    n_predictions: int
    per_thread: list[int]
    elapsed_s: float
    duration_s: float
    k: int
    p: int
    hidden: int
    latent: int
    dtype: str = "float32"


def benchmark_tps(params: ModelParams, threads: int = 1, duration: float = 1.0,
                  n_windows: int = 32, seed: int = 0) -> BenchReport:
    """Measure forecast throughput on shared read-only parameters.

    Inference runs in single precision. Each thread loops over pre-built
    feature windows calling the predict path until the duration elapses;
    TPS is total completed forecasts over the measured wall-clock.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if not 0 < duration <= threading.TIMEOUT_MAX:
        raise ConfigError(f"duration must be positive and at most "
                          f"{threading.TIMEOUT_MAX:g} s, got {duration}")
    d = params.dims
    p32 = params if params.dtype == np.float32 else params.astype(np.float32)
    spec = SynthSpec(kind="constant-velocity", length=d.k, noise_std=1.0,
                     start_jitter=50.0, velocity_jitter=2.0, seed=seed)
    windows = [build_features(t.boxes).astype(np.float32)
               for t in synth_tracks(spec, n_windows)]

    counts = [0] * threads
    stop = threading.Event()
    barrier = threading.Barrier(threads + 1)

    def worker(ti: int) -> None:
        barrier.wait()
        n = 0
        while not stop.is_set():
            predict_from_window(p32, windows[n % len(windows)])
            n += 1
        counts[ti] = n

    pool = [threading.Thread(target=worker, args=(ti,), daemon=True)
            for ti in range(threads)]
    for th in pool:
        th.start()
    barrier.wait()
    t0 = time.perf_counter()
    time.sleep(duration)
    stop.set()
    for th in pool:
        th.join()
    elapsed = time.perf_counter() - t0
    total = int(sum(counts))
    return BenchReport(
        threads=threads,
        trajectories_per_second=total / elapsed,
        equivalent_fps=total / elapsed * d.p,
        n_predictions=total,
        per_thread=list(counts),
        elapsed_s=elapsed,
        duration_s=duration,
        k=d.k, p=d.p, hidden=d.hidden, latent=d.latent,
    )


# ---------------------------------------------------------------------------
# ablation harness


def ablation_run(minitracks: list[MiniTrack], cfg, modes=LOSS_MODES,
                 horizons=(15, 30, 45, 60), eval_minitracks=None,
                 retrain_per_horizon: bool = False) -> list[dict]:
    """Train one model per loss mode (shared seed) and score it at several
    horizons.

    By default one model per mode is trained at the full horizon cfg.p and
    shorter horizons are scored by truncating its predictions, matching how
    a single deployed model would be used; ``retrain_per_horizon`` instead
    fits a separate model with p set to each horizon. Returns one row dict
    (mode, horizon, ade, fde) per combination, in mode-major order.
    Both protocols score the same set, ``eval_minitracks`` (the training
    set by default) of length cfg.k + cfg.p, stacked once; a horizon h
    scores the first h forecast and target steps.
    """
    horizons = sorted(int(h) for h in horizons)
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"bad horizons {horizons}")
    for m in modes:
        if m not in LOSS_MODES:
            raise ConfigError(f"unknown loss mode {m!r}")
    if eval_minitracks is None:
        eval_minitracks = minitracks
    if not retrain_per_horizon and horizons[-1] > cfg.p:
        raise ConfigError(
            f"horizon {horizons[-1]} exceeds the model horizon p={cfg.p}")
    windows, targets = stack_minitracks(eval_minitracks, cfg.k, cfg.p)
    rows: list[dict] = []
    for mode in modes:
        if not retrain_per_horizon:
            pars, _ = train(replace(cfg, loss_mode=mode), minitracks)
            pred = forecast(pars, windows)
        for h in horizons:
            if retrain_per_horizon:
                pars, _ = train(replace(cfg, loss_mode=mode, p=h),
                                _truncate(minitracks, cfg.k + h))
                pred = forecast(pars, windows)
            rep = evaluate_predictions(pred[:, :h], targets[:, :h],
                                       input_k=cfg.k)
            rows.append({"mode": mode, "horizon": h,
                         "ade": rep.ade, "fde": rep.fde})
    return rows


def _truncate(minitracks: list[MiniTrack], length: int) -> list[MiniTrack]:
    out = []
    for mt in minitracks:
        if len(mt) < length:
            raise DataError(
                f"mini-track of length {len(mt)} too short to truncate to "
                f"{length}")
        out.append(replace(mt, boxes=mt.boxes[:length]))
    return out
