"""The benchmark's workloads: inputs made from a seed, the operation each
one times, and the checks on that operation's outputs.

Every workload is built from generated inputs only (synthetic tracks, a CSV
written with ``write_tracks``, a weight file written with ``save_model``)
and calls boxcast through the public names of its modules, looked up at
call time, so that the traced run can rebind them.

- ``stream``: one client in a closed loop; each request is one batch-1
  ``model.predict`` on 30 live boxes of one of eight tracks, taken in turn.
  Each track advances one frame per request, so consecutive requests for a
  track share 29 of 30 boxes.
- ``dataset``: each operation scores one track CSV: ``parse_tracks`` ->
  ``slice_all_minitracks`` -> the three baselines on every mini-track ->
  the model on a fixed subset of mini-tracks.
- ``train``: each operation is one ``training.train`` call of one epoch at
  the reference size (batch 200, ``traj+auto-enc``) over 200 mixed-kind
  mini-tracks, i.e. one optimizer step.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from boxcast import data, evaluation, model, training

FULL_DIMS = model.ModelDims(k=30, p=60)
# Offset between consecutive mini-tracks of a track, as in the paper's
# protocol; with k = 30 the observed windows do not overlap.
STRIDE = 30

# Largest centroid or size difference, in pixels, allowed between a
# forecast and the reference path (``forward_train``'s future head at f64).
# A float32 forecast of the full-size model differs by ~1e-4 px; swapping
# the input and forget gates moves it by ~0.7 px.
FORECAST_TOL_PX = 0.01
# Baselines are closed-form; they may differ from the benchmark's own
# extrapolation by rounding only.
BASELINE_TOL_PX = 1e-9
# Relative tolerance when comparing means that are summed in another order.
MEAN_RTOL = 1e-9


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, n)]


def _write_weights(seed: int, dims: model.ModelDims, path: Path) -> Path:
    training.save_model(model.init_params(dims, seed=seed), path)
    return path


class Workload:
    """One workload's inputs and operation.

    ``setup`` is the program's own set-up before the first timed operation;
    ``op(i)`` is operation ``i``, timed by the runner; ``digest`` shrinks an
    operation's output to what ``check`` needs, outside the timed region;
    ``check`` returns one pass/fail flag per digested output; ``items``
    counts the work an output stands for.
    """

    name = ""
    min_ops = 1
    warmup_ops = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def digest(self, out):
        return out

    def items(self, digest) -> int:
        return 1

    def check(self, digests: list) -> list[bool]:
        raise NotImplementedError

    def report(self, digests: list, times: list[float]) -> list[tuple]:
        """Workload-specific figures: (name, value, unit, samples)."""
        return []


# ---------------------------------------------------------------------------
# stream


STREAM_TRACKS_PER_KIND = 2
STREAM_TRACK_LEN = 300
STREAM_CHECK_EVERY = 16


class Stream(Workload):
    name = "stream"
    warmup_ops = 2

    def __init__(self, seed: int, workdir: Path, dims=FULL_DIMS):
        self.dims = dims
        wseed, *kseeds = _seeds(seed, 1 + len(data.SYNTH_KINDS))
        self.weights = _write_weights(wseed, dims, workdir / "stream.bxw")
        self.tracks = []
        for kind, ks in zip(data.SYNTH_KINDS, kseeds):
            spec = data.SynthSpec(
                kind=kind, length=STREAM_TRACK_LEN, noise_std=0.5,
                start_jitter=150.0, velocity_jitter=1.5,
                size_rate=(0.02, 0.05), seed=ks)
            self.tracks += data.synth_tracks(spec, STREAM_TRACKS_PER_KIND)
        self.params = None

    def request(self, i: int):
        """(boxes, predecessor) of request i: tracks in turn, each one frame
        further on than at its previous request."""
        k = self.dims.k
        track = self.tracks[i % len(self.tracks)]
        o = (i // len(self.tracks)) % (len(track) - k)
        return track.boxes[o + 1:o + 1 + k], track.boxes[o]

    def setup(self) -> None:
        self.params, _ = training.load_model(self.weights,
                                             expect_dims=self.dims)

    def op(self, i: int):
        boxes, predecessor = self.request(i)
        return model.predict(self.params, boxes, predecessor)

    def check(self, digests: list) -> list[bool]:
        shape = (self.dims.p, model.OUTPUT_DIM)
        ok = []
        for i, pred in enumerate(digests):
            good = (isinstance(pred, np.ndarray) and pred.shape == shape
                    and bool(np.isfinite(pred).all()))
            if good and i % STREAM_CHECK_EVERY == 0:
                window = model.build_features(*self.request(i))
                _, ref = model.forward_train(self.params, window)
                good = float(np.abs(pred - ref).max()) <= FORECAST_TOL_PX
            ok.append(good)
        return ok

    def report(self, digests, times):
        ms = np.asarray(times) * 1e3
        n = len(ms)
        return [
            ("forecast_p50_ms", float(np.percentile(ms, 50)), "ms", n),
            ("forecast_p90_ms", float(np.percentile(ms, 90)), "ms", n),
            ("forecast_p90_beyond", n - math.ceil(0.9 * n), "count", n),
            ("forecasts_per_s", n / float(np.sum(times)), "1/s", n),
        ]


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class _Group:
    """Tracks of one synth kind whose lengths are spread evenly over a range.

    The lengths are the same for every seed (only their order changes), so
    every seed gives the same number of rows and mini-tracks.
    """

    count: int
    length: tuple[int, int]   # inclusive
    gap: bool = False         # drop a run of frames so the parser splits it


DATASET_GROUPS = (
    _Group(count=16, length=(150, 450)),
    _Group(count=20, length=(10, 89)),   # too short for one k + p window
    _Group(count=2, length=(250, 350), gap=True),
)
DATASET_GAP_FRAMES = 5
DATASET_MODEL_SUBSET = 6
DATASET_BASELINE_SUBSET = 16


@dataclass
class PassResult:
    """Outputs and phase times of one scoring pass."""

    rows: int
    n_tracks: int
    n_minitracks: int
    baseline_reports: dict
    model_report: evaluation.MetricReport
    ingest_s: float
    baseline_s: float
    model_s: float


def _closed_form(kind: str, obs: np.ndarray, steps: int) -> np.ndarray:
    """Baseline forecasts of (M, n, 4) observed boxes: the last box plus i
    times the last velocity, plus i(i+1)/2 times the last acceleration for
    constant-acceleration, or the last box repeated."""
    last = obs[:, -1, None, :]
    i = np.arange(1, steps + 1, dtype=np.float64)[None, :, None]
    if kind == "stationary":
        return np.repeat(last, steps, axis=1)
    v2 = (obs[:, -1] - obs[:, -2])[:, None, :]
    if kind == "constant-velocity":
        return last + i * v2
    a = v2 - (obs[:, -2] - obs[:, -3])[:, None, :]
    return last + i * v2 + (i * (i + 1) / 2.0) * a


def _centroid_errors(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float]:
    """(ADE, FDE) of (M, p, 4) forecasts: mean over samples of the mean and
    the last centroid distance."""
    d = np.hypot(pred[..., 0] - gt[..., 0], pred[..., 1] - gt[..., 1])
    return float(d.mean(axis=1).mean()), float(d[:, -1].mean())


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


class Dataset(Workload):
    name = "dataset"
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path, dims=FULL_DIMS):
        self.dims = dims
        wseed, *kseeds = _seeds(seed, 1 + len(data.SYNTH_KINDS))
        self.weights = _write_weights(wseed, dims, workdir / "dataset.bxw")
        tracks, self.segments = _dataset_tracks(kseeds)
        self.csv = workdir / "tracks.csv"
        data.write_tracks(tracks, self.csv)
        self.rows = sum(len(t) for t in tracks)
        self._expect_minitracks()
        self.params = None

    def _expect_minitracks(self) -> None:
        """The mini-tracks the parser and slicer must produce, from the
        generated segments, and the fixed subsets the checks use."""
        k, p = self.dims.k, self.dims.p
        window = k + p
        keys, obs, gt, before = [], [], [], []
        for key, boxes in self.segments:
            arr = data.boxes_to_array(boxes)
            for o in range(0, len(boxes) - window + 1, STRIDE):
                keys.append(key + (boxes[o].frame,))
                obs.append(arr[o:o + k])
                gt.append(arr[o + k:o + window])
                before.append(boxes[o - 1] if o > 0 else None)
        self.mt_keys = keys
        self.mt_obs = np.stack(obs)
        self.mt_gt = np.stack(gt)
        self.mt_predecessor = before
        m = len(keys)
        self.model_idx = [int(j) for j in
                          np.linspace(0, m - 1, DATASET_MODEL_SUBSET)]
        self.baseline_idx = [int(j) for j in
                             np.linspace(0, m - 1, DATASET_BASELINE_SUBSET)]
        self.model_keys = [keys[j] for j in self.model_idx]

    def setup(self) -> None:
        self.params, _ = training.load_model(self.weights,
                                             expect_dims=self.dims)

    def op(self, i: int) -> PassResult:
        k, p = self.dims.k, self.dims.p
        t0 = perf_counter()
        tracks = data.parse_tracks(self.csv)
        mts = data.slice_all_minitracks(tracks, k + p, STRIDE)
        t1 = perf_counter()
        base = {kind: evaluation.evaluate_baseline(kind, mts, k, p)
                for kind in evaluation.BASELINE_KINDS}
        t2 = perf_counter()
        by_key = {(mt.video_id, mt.track_id, mt.start_frame): mt
                  for mt in mts}
        subset = [by_key[key] for key in self.model_keys if key in by_key]
        rep = evaluation.evaluate(self.params, subset)
        t3 = perf_counter()
        return PassResult(
            rows=sum(len(t) for t in tracks), n_tracks=len(tracks),
            n_minitracks=len(mts), baseline_reports=base, model_report=rep,
            ingest_s=t1 - t0, baseline_s=t2 - t1, model_s=t3 - t2)

    def items(self, digest: PassResult) -> int:
        return digest.rows

    def _references(self):
        """Expected baseline and model (ADE, FDE), and whether
        ``baseline_predict`` matches the closed form on a subset."""
        p = self.dims.p
        base = {kind: _centroid_errors(_closed_form(kind, self.mt_obs, p),
                                       self.mt_gt)
                for kind in evaluation.BASELINE_KINDS}
        direct_ok = True
        for kind in evaluation.BASELINE_KINDS:
            want = _closed_form(kind, self.mt_obs[self.baseline_idx], p)
            for j, w in zip(self.baseline_idx, want):
                got = evaluation.baseline_predict(kind, self.mt_obs[j], p)
                direct_ok &= bool(np.abs(got - w).max() <= BASELINE_TOL_PX)
        ades, fdes = [], []
        for j in self.model_idx:
            window = model.build_features(self.mt_obs[j],
                                          self.mt_predecessor[j])
            _, ref = model.forward_train(self.params, window)
            ades.append(evaluation.ade(ref, self.mt_gt[j]))
            fdes.append(evaluation.fde(ref, self.mt_gt[j]))
        return base, direct_ok, (float(np.mean(ades)), float(np.mean(fdes)))

    def check(self, digests: list) -> list[bool]:
        base_ref, direct_ok, model_ref = self._references()
        return [direct_ok and self._pass_ok(r, base_ref, model_ref)
                for r in digests]

    def _pass_ok(self, r: PassResult, base_ref, model_ref) -> bool:
        counts = (r.rows, r.n_tracks, r.n_minitracks,
                  r.model_report.n_samples)
        if counts != (self.rows, len(self.segments), len(self.mt_keys),
                      len(self.model_keys)):
            return False
        for kind, (ade, fde) in base_ref.items():
            rep = r.baseline_reports[kind]
            if not (rep.n_samples == len(self.mt_keys)
                    and _close(rep.ade, ade, MEAN_RTOL, BASELINE_TOL_PX)
                    and _close(rep.fde, fde, MEAN_RTOL, BASELINE_TOL_PX)):
                return False
        return (_close(r.model_report.ade, model_ref[0], 0.0, FORECAST_TOL_PX)
                and _close(r.model_report.fde, model_ref[1], 0.0,
                           FORECAST_TOL_PX))

    def report(self, digests, times):
        n = len(digests)
        ingest = sum(r.ingest_s for r in digests)
        base = sum(r.baseline_s for r in digests)
        mod = sum(r.model_s for r in digests)
        n_base = sum(r.n_minitracks for r in digests) \
            * len(evaluation.BASELINE_KINDS)
        n_model = sum(r.model_report.n_samples for r in digests)
        return [
            ("ingest_rows_per_s", sum(r.rows for r in digests) / ingest,
             "1/s", n),
            ("baseline_forecasts_per_s", n_base / base, "1/s", n_base),
            ("model_forecasts_per_s", n_model / mod, "1/s", n_model),
            ("pass_p50_ms", float(np.percentile(times, 50)) * 1e3, "ms", n),
        ]


def _dataset_tracks(kind_seeds):
    """Tracks to write, and the segments (key, boxes) parsing must give."""
    tracks, segments = [], []
    for kind, ks in zip(data.SYNTH_KINDS, kind_seeds):
        rng = np.random.default_rng(ks)
        serial = 0
        for group in DATASET_GROUPS:
            lengths = np.linspace(*group.length, group.count).round()
            for length in rng.permutation(lengths).astype(int).tolist():
                spec = data.SynthSpec(
                    kind=kind, length=length, noise_std=0.75,
                    start_jitter=200.0, velocity_jitter=2.0,
                    size_rate=(0.03, 0.06), seed=int(rng.integers(2**31)))
                t = data.synth_tracks(spec, 1)[0]
                t = replace(t, video_id=f"video-{serial % 3}",
                            track_id=f"{kind}-{serial:03d}")
                serial += 1
                if group.gap:
                    cut = int(rng.integers(length // 3, 2 * length // 3))
                    parts = [t.boxes[:cut], t.boxes[cut + DATASET_GAP_FRAMES:]]
                    t = replace(t, boxes=parts[0] + parts[1])
                    segments += [((t.video_id, f"{t.track_id}~{si}"), seg)
                                 for si, seg in enumerate(parts)]
                else:
                    segments.append(((t.video_id, t.track_id), t.boxes))
                tracks.append(t)
    return tracks, segments


# ---------------------------------------------------------------------------
# train


TRAIN_MINITRACKS_PER_KIND = 50
TRAIN_WINDOWS_PER_TRACK = 4


@dataclass
class TrainResult:
    params_sha256: str
    finite: bool
    loss: float


class Train(Workload):
    name = "train"
    min_ops = 2   # the determinism check compares repeats
    warmup_ops = 1   # the first call also faults in ~1 GB of fresh pages

    def __init__(self, seed: int, workdir: Path, dims=FULL_DIMS):
        self.cfg = training.TrainConfig(k=dims.k, p=dims.p,
                                        hidden=dims.hidden,
                                        latent=dims.latent, epochs=1,
                                        seed=seed)
        self.minitracks = []
        window = dims.k + dims.p
        for kind, ks in zip(data.SYNTH_KINDS,
                            _seeds(seed, len(data.SYNTH_KINDS))):
            spec = data.SynthSpec(
                kind=kind,
                length=window + STRIDE * (TRAIN_WINDOWS_PER_TRACK - 1),
                noise_std=0.75,
                start_jitter=200.0, velocity_jitter=2.0,
                size_rate=(0.03, 0.06), seed=ks)
            tracks = data.synth_tracks(spec, math.ceil(
                TRAIN_MINITRACKS_PER_KIND / TRAIN_WINDOWS_PER_TRACK))
            mts = data.slice_all_minitracks(tracks, window, STRIDE)
            self.minitracks += mts[:TRAIN_MINITRACKS_PER_KIND]

    def setup(self) -> None:
        c = self.cfg
        training.stack_minitracks(self.minitracks, c.k, c.p)
        model.init_params(c.dims(), seed=np.random.default_rng(c.seed),
                          carry_cell_state=c.carry_cell_state)

    def op(self, i: int):
        return training.train(self.cfg, self.minitracks)

    def digest(self, out) -> TrainResult:
        params, history = out
        h = hashlib.sha256()
        finite = all(math.isfinite(s.loss) for s in history)
        for name, t in params.tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(t).tobytes())
            finite = finite and bool(np.isfinite(t).all())
        return TrainResult(h.hexdigest(), finite, history[-1].loss)

    def items(self, digest) -> int:
        return len(self.minitracks) * self.cfg.epochs

    def check(self, digests: list) -> list[bool]:
        first = digests[0].params_sha256 if digests else None
        return [d.finite and d.params_sha256 == first for d in digests]

    def report(self, digests, times):
        n = len(times)
        samples = sum(self.items(d) for d in digests)
        return [("train_samples_per_s", samples / float(np.sum(times)),
                 "1/s", n)]


WORKLOADS = {w.name: w for w in (Stream, Dataset, Train)}
