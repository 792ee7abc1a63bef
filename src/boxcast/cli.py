"""Command-line surface for the forecasting pipeline.

Subcommands: synth | train | predict | eval | bench | ablate. Every option
can come from a flat ``key = value`` config file (``--config``); precedence
is CLI flag > config file > built-in default, and the effective merged
configuration is echoed into the run's output so any run can be reproduced
from its echo alone. The width options (k, p, hidden, latent) are defined
once and checked by `ModelDims` in every run; a run that reads
``--weights`` then echoes the file's widths, the model that ran. Exit
codes: 0 success, 2 configuration errors, 3 data, I/O and memory errors,
4 numeric failures such as a forecast or metric that is not finite.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np

from .data import (
    SynthSpec,
    _atomic_open,
    _write_rows,
    parse_tracks,
    slice_all_minitracks,
    split_folds,
    synth_tracks,
    write_tracks,
)
from .errors import ConfigError, DataError, NumericError, ParseError
from .evaluation import (
    BASELINE_KINDS,
    ablation_run,
    benchmark_tps,
    evaluate,
    evaluate_baseline,
    summarize_folds,
)
from .model import (LOSS_MODES, ModelDims, build_features, init_params,
                    predict_from_window)
from .training import (
    TrainConfig,
    load_model,
    save_model,
    train,
    write_history,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# value converters, shared by CLI flags and config files


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _float_pair(text: str) -> tuple[float, float]:
    parts = [s.strip() for s in str(text).split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _int_pair(text: str) -> tuple[int, int]:
    pair = _float_pair(text)
    # is_integer is False for inf and NaN, which int() cannot convert
    if not all(v.is_integer() for v in pair):
        raise ConfigError(f"expected two whole numbers, got {text!r}")
    return (int(pair[0]), int(pair[1]))


def _int_list(text: str) -> tuple[int, ...]:
    parts = [s.strip() for s in str(text).split(",") if s.strip()]
    if not parts:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return tuple(int(s) for s in parts)


def _thread_counts(text: str) -> tuple[int, ...]:
    # checked before `bench` starts any process: each count runs in one
    # child at that many BLAS threads
    counts, ceiling = _int_list(text), 4 * (os.cpu_count() or 1)
    if not all(1 <= n <= ceiling for n in counts):
        raise ConfigError(f"thread counts must be 1..{ceiling} (4 x the CPU "
                          f"count), got {text!r}")
    repeated = [n for i, n in enumerate(counts) if n in counts[:i]]
    if repeated:  # each would be measured again and repeat its row
        raise ConfigError(f"thread count {repeated[0]} is listed twice")
    return counts


def _str_list(text: str) -> tuple[str, ...]:
    parts = [s.strip() for s in str(text).split(",") if s.strip()]
    if not parts:
        raise ConfigError(f"expected a comma-separated list, got {text!r}")
    return tuple(parts)


def _fmt(value: Any) -> str:
    """Format one option value so the config-file parser reads it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# option registry


@dataclass(frozen=True)
class Opt:
    """One option: its config key, converter, default, and help text."""

    key: str
    type: Callable[[str], Any]
    default: Any
    help: str
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


def _width_opts() -> list[Opt]:
    """k, p, hidden, latent: the model's widths, in `ModelDims` order."""
    d = TrainConfig()
    return [
        Opt("k", int, d.k, "observed window length in frames"),
        Opt("p", int, d.p, "forecast horizon in frames"),
        Opt("hidden", int, d.hidden, "recurrent state width"),
        Opt("latent", int, d.latent, "latent vector width"),
    ]


def _train_opts() -> list[Opt]:
    d = TrainConfig()
    return [
        *_width_opts(),
        Opt("batch_size", int, d.batch_size, "mini-batch size"),
        Opt("epochs", int, d.epochs, "training epochs"),
        Opt("base_lr", float, d.base_lr, "initial learning rate"),
        Opt("halve_every", int, d.halve_every,
            "halve the learning rate every this many epochs"),
        Opt("alpha", float, d.alpha, "reconstruction loss weight"),
        Opt("beta", float, d.beta, "trajectory loss weight"),
        Opt("loss_mode", str, d.loss_mode,
            "one of: " + ", ".join(LOSS_MODES)),
        Opt("seed", int, d.seed, "random seed"),
        Opt("carry_cell_state", _bool, d.carry_cell_state,
            "start the future decoder from the encoder cell state too"),
        Opt("grad_clip", float, d.grad_clip,
            "global gradient-norm clip (0 disables)"),
    ]


def _synth_opts() -> list[Opt]:
    d = SynthSpec()
    return [
        Opt("out", str, None, "output CSV path", required=True),
        Opt("count", int, 20, "number of tracks to generate"),
        Opt("kind", str, d.kind, "kinematic family"),
        Opt("length", int, d.length, "frames per track"),
        Opt("start", _float_pair, d.start, "start centroid 'cx,cy'"),
        Opt("size", _float_pair, d.size, "start size 'w,h'"),
        Opt("velocity", _float_pair, d.velocity, "per-frame velocity 'vx,vy'"),
        Opt("accel", _float_pair, d.accel, "per-frame acceleration 'ax,ay'"),
        Opt("size_rate", _float_pair, d.size_rate,
            "per-frame size change 'rw,rh'"),
        Opt("amplitude", float, d.amplitude, "sinusoidal sway in pixels"),
        Opt("period", float, d.period, "sinusoidal period in frames"),
        Opt("go_frames", _int_pair, d.go_frames,
            "stop-and-go moving-segment bounds 'lo,hi'"),
        Opt("stop_frames", _int_pair, d.stop_frames,
            "stop-and-go standing-segment bounds 'lo,hi'"),
        Opt("noise_std", float, d.noise_std, "Gaussian pixel noise sigma"),
        Opt("start_jitter", float, d.start_jitter,
            "uniform per-track start offset bound"),
        Opt("velocity_jitter", float, d.velocity_jitter,
            "uniform per-track velocity offset bound"),
        Opt("seed", int, d.seed, "random seed"),
        Opt("frame_rate_hz", float, d.frame_rate_hz, "nominal frame rate"),
    ]


_DATA_OPTS = [
    Opt("data", str, None, "input track CSV", required=True),
    Opt("corner_format", _bool, False,
        "input stores corners x1,y1,x2,y2 instead of centroids"),
    Opt("stride", int, 30, "sliding-window stride in frames"),
]


def _command_opts(command: str) -> list[Opt]:
    out_dir = Opt("out", str, None, "output directory", required=True)
    if command == "synth":
        return _synth_opts()
    if command == "train":
        return [out_dir, *_DATA_OPTS, *_train_opts(),
                Opt("folds", int, 0,
                    "cross-validation fold count (0 trains once on "
                    "everything)")]
    if command == "predict":
        return [
            Opt("out", str, None, "output predictions CSV", required=True),
            Opt("weights", str, None, "weight file", required=True),
            _DATA_OPTS[0], _DATA_OPTS[1],
        ]
    if command == "eval":
        return [out_dir, *_DATA_OPTS,
                Opt("weights", str, None,
                    "weight file (omit when scoring a baseline)"),
                Opt("baseline", str, None,
                    "score an analytic baseline instead of a model: "
                    + ", ".join(BASELINE_KINDS)),
                *_width_opts()[:2]]
    if command == "bench":
        return [out_dir,
                Opt("weights", str, None,
                    "weight file (omit to benchmark fresh parameters)"),
                Opt("threads", _thread_counts, (1,),
                    "BLAS thread counts to measure, one process each, e.g. "
                    "'1,2,4' (at most 4 x the CPU count)"),
                Opt("duration", float, 1.0, "seconds per measurement"),
                Opt("n_windows", int, 32, "distinct input windows to cycle"),
                *_width_opts(),
                Opt("seed", int, 0, "seed for fresh params and windows")]
    if command == "ablate":
        return [out_dir, *_DATA_OPTS, *_train_opts(),
                Opt("modes", _str_list, LOSS_MODES,
                    "loss modes to compare"),
                Opt("horizons", _int_list, (15, 30, 45, 60),
                    "horizons to score, e.g. '15,30,45,60'"),
                Opt("eval_data", str, None,
                    "held-out track CSV (defaults to the training data)"),
                Opt("retrain_per_horizon", _bool, False,
                    "fit a separate model per horizon instead of truncating")]
    raise ConfigError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# config files, merging, echoes


def _parse_config_file(path: str, opts: list[Opt]) -> dict[str, Any]:
    by_key = {o.key: o for o in opts}
    vals: dict[str, Any] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        opt = by_key.get(key)
        if opt is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        vals[key] = _convert(opt, value.strip(),
                             f"{path}:{lineno}: bad value for {key}")
    return vals


def _convert(opt: Opt, text: str, where: str) -> Any:
    """``text`` through ``opt``'s converter; a refused value is a
    ConfigError that gives ``where`` and the converter's reason."""
    try:
        return opt.type(text)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _merge(opts: list[Opt], args: argparse.Namespace) -> dict[str, Any]:
    by_key = {o.key: o for o in opts}
    # flag values reach here as text and convert as config values do
    flags = {key: _convert(by_key[key], text,
                           f"bad value for {by_key[key].flag}")
             for key, text in vars(args).items()
             if key not in ("command", "config")}
    vals = {o.key: o.default for o in opts}
    config_path = getattr(args, "config", None)
    if config_path:
        vals.update(_parse_config_file(config_path, opts))
    vals.update(flags)
    for o in opts:
        if o.required and vals[o.key] is None:
            raise ConfigError(f"missing required option {o.flag} "
                              f"(or config key '{o.key}')")
    return vals


def _write_echo(path: str, command: str, vals: dict[str, Any],
                opts: list[Opt]) -> None:
    with _atomic_open(path) as fh:
        fh.write(f"# boxcast {command} configuration echo; rerun with "
                 f"`boxcast {command} --config <this file>`\n")
        fh.writelines(f"{o.key} = {_fmt(vals[o.key])}\n" for o in opts
                      if vals[o.key] is not None)


def _load_tracks(vals: dict[str, Any], key: str = "data"):
    """The tracks of the CSV named by option ``key``; none is a DataError."""
    tracks = parse_tracks(vals[key], vals.get("corner_format", False))
    if not tracks:
        raise DataError(f"no tracks found in {vals[key]}")
    return tracks


def _minitracks(tracks, window: int, stride: int, where: str):
    """The mini-tracks of ``tracks``; none is a DataError naming ``where``."""
    mts = slice_all_minitracks(tracks, window, stride)
    if not mts:
        raise DataError(f"no mini-tracks of length {window} in {where}")
    return mts


def _out_dir(vals: dict[str, Any], command: str) -> str:
    """Make the run's output directory and echo the merged configuration
    into its ``config.txt``; returns the directory."""
    out = vals["out"]
    os.makedirs(out, exist_ok=True)
    _write_echo(os.path.join(out, "config.txt"), command, vals,
                _command_opts(command))
    return out


def _of(cls, vals: dict[str, Any]):
    """A ``cls`` dataclass from the option values that name its fields."""
    keys = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vals.items() if k in keys})


def _load_weights(vals: dict[str, Any]):
    """The model in the ``weights`` file. Its widths replace the command's
    width options in ``vals``, so the run's echo names the model that
    ran."""
    params, _meta = load_model(vals["weights"])
    vals.update((f.name, getattr(params.dims, f.name))
                for f in fields(ModelDims) if f.name in vals)
    return params


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(vals: dict[str, Any]) -> None:
    tracks = synth_tracks(_of(SynthSpec, vals), vals["count"])
    write_tracks(tracks, vals["out"])
    _write_echo(vals["out"] + ".meta.txt", "synth", vals, _synth_opts())
    boxes = sum(len(t) for t in tracks)
    print(f"wrote {len(tracks)} tracks ({boxes} boxes) to {vals['out']}")


def _cmd_train(vals: dict[str, Any]) -> None:
    cfg = _of(TrainConfig, vals)
    tracks = _load_tracks(vals)
    window = cfg.k + cfg.p

    def run_one(mts, run_dir: str):
        os.makedirs(run_dir, exist_ok=True)
        params, history = train(
            cfg, mts,
            on_epoch=lambda _p, s: print(
                f"  epoch {s.epoch:3d}  loss {s.loss:.6f}  lr {s.lr:.3g}  "
                f"({s.seconds:.2f}s)"))
        save_model(params, os.path.join(run_dir, "model.bxw"))
        write_history(history, os.path.join(run_dir, "history.csv"))
        return params

    if vals["folds"] == 0:
        # sliced first, so data too short to slice leaves no output behind
        mts = _minitracks(tracks, window, vals["stride"], "the training split")
        out = _out_dir(vals, "train")
        print(f"training on {len(tracks)} tracks")
        run_one(mts, out)
        print(f"run artifacts in {out}")
        return

    # every fold is sliced first, so a fold too short to slice leaves no
    # output behind
    folds = []
    for fold, (train_tracks, test_tracks) in enumerate(
            split_folds(tracks, n_folds=vals["folds"], seed=cfg.seed)):
        folds.append((len(train_tracks), len(test_tracks),
                      _minitracks(train_tracks, window, vals["stride"],
                                  "the training split"),
                      _minitracks(test_tracks, window, vals["stride"],
                                  f"the test split of fold {fold}")))
    out = _out_dir(vals, "train")
    reports = []
    for fold, (n_train, n_test, train_mts, test_mts) in enumerate(folds):
        print(f"fold {fold}: {n_train} train / {n_test} test tracks")
        params = run_one(train_mts, os.path.join(out, f"fold_{fold}"))
        reports.append(evaluate(params, test_mts))
        print(f"fold {fold}: ADE {reports[-1].ade:.4f}  "
              f"FDE {reports[-1].fde:.4f}")
    summary = summarize_folds(reports)
    rows = [[f, r.ade, r.fde, r.n_samples]
            for f, r in enumerate(reports)]
    rows.append(["mean", summary["ade"], summary["fde"],
                 summary["n_samples"]])
    _write_rows(os.path.join(out, "cv_summary.csv"),
                ["fold", "ade", "fde", "n_samples"], rows)
    print(f"cross-validation mean ADE {summary['ade']:.4f}  "
          f"FDE {summary['fde']:.4f} (equal weight per fold)")


def _cmd_predict(vals: dict[str, Any]) -> None:
    params, _meta = load_model(vals["weights"])
    k = params.dims.k
    tracks = _load_tracks(vals)
    short = [t for t in tracks if len(t) < k]
    kept = [t for t in tracks if len(t) >= k]
    if not kept:
        raise DataError(f"all {len(short)} tracks are shorter than k={k}; "
                        f"nothing predicted")
    pred = predict_from_window(params, np.stack([
        build_features(t.boxes[-k:], t.boxes[-k - 1] if len(t) > k else None)
        for t in kept]))
    finite = np.isfinite(pred).all(axis=(1, 2))
    if not finite.all():
        t = kept[int(np.argmin(finite))]
        raise NumericError(
            f"forecast for track {t.key} is not finite; coordinates are "
            f"outside the range the model can represent")
    # warned only now, so a failing run prints its one error line alone
    for t in short:
        print(f"warning: track {t.key} has {len(t)} frames, needs {k}; "
              f"skipped", file=sys.stderr)
    # each track's rows are formed as they are written, never all at once
    rows = ([t.video_id, t.track_id, step, *map(repr, box)]
            for t, boxes in zip(kept, pred)
            for step, box in enumerate(boxes.tolist(), start=1))
    _write_rows(vals["out"],
                ["video_id", "track_id", "step", "cx", "cy", "w", "h"], rows)
    print(f"wrote {len(kept) * pred.shape[1]} rows ({len(kept)} tracks, "
          f"{len(short)} skipped) to {vals['out']}")


def _cmd_eval(vals: dict[str, Any]) -> None:
    baseline = vals["baseline"]
    if baseline is None and vals["weights"] is None:
        raise ConfigError("eval needs --weights or --baseline")
    _of(ModelDims, vals)  # checks k and p with or without weights
    params = None if vals["weights"] is None else _load_weights(vals)
    k, p = vals["k"], vals["p"]
    mts = _minitracks(_load_tracks(vals), k + p, vals["stride"], vals["data"])
    if baseline is not None:
        report = evaluate_baseline(baseline, mts, k, p)
        subject = f"baseline {baseline}"
    else:
        report = evaluate(params, mts)
        subject = f"model {vals['weights']}"
    out = _out_dir(vals, "eval")
    _write_rows(os.path.join(out, "metrics.csv"),
                ["ade", "fde", "n_samples", "horizon_p", "input_k",
                 "nonpositive_size_count"],
                [[report.ade, report.fde, report.n_samples, report.horizon_p,
                  report.input_k, report.nonpositive_size_count]])
    _write_rows(os.path.join(out, "per_step.csv"), ["step", "fde_at"],
                [[t, report.fde_at[t]] for t in sorted(report.fde_at)])
    print(f"{subject}: ADE {report.ade:.4f}  FDE {report.fde:.4f}  "
          f"({report.n_samples} samples)")


def _cmd_bench(vals: dict[str, Any]) -> None:
    dims = _of(ModelDims, vals)  # checks the widths with or without weights
    if vals["weights"] is not None:
        params = _load_weights(vals)
    else:
        # float32 draws save the bytes of float64 ones, at half the memory
        params = init_params(dims, seed=vals["seed"], dtype=np.float32)
    rows = []
    for n in vals["threads"]:
        rep = benchmark_tps(params, threads=n, duration=vals["duration"],
                            n_windows=vals["n_windows"], seed=vals["seed"])
        rows.append([rep.threads, rep.trajectories_per_second,
                     rep.equivalent_fps, rep.n_predictions, rep.elapsed_s,
                     rep.k, rep.p, rep.hidden, rep.latent, rep.dtype])
        print(f"threads {rep.threads:2d}: "
              f"{rep.trajectories_per_second:8.2f} forecasts/s "
              f"({rep.equivalent_fps:.0f} frames/s equivalent)")
    # measured first, so a refused setting leaves no output behind
    out = _out_dir(vals, "bench")
    _write_rows(os.path.join(out, "bench.csv"),
                ["threads", "trajectories_per_second", "equivalent_fps",
                 "n_predictions", "elapsed_s", "k", "p", "hidden", "latent",
                 "dtype"], rows)


def _cmd_ablate(vals: dict[str, Any]) -> None:
    cfg = _of(TrainConfig, vals)
    window = cfg.k + cfg.p
    mts = _minitracks(_load_tracks(vals), window, vals["stride"],
                      vals["data"])
    eval_mts = None
    if vals["eval_data"] is not None:
        eval_mts = _minitracks(_load_tracks(vals, "eval_data"), window,
                               vals["stride"], vals["eval_data"])
    rows = ablation_run(mts, cfg, modes=vals["modes"],
                        horizons=vals["horizons"], eval_minitracks=eval_mts,
                        retrain_per_horizon=vals["retrain_per_horizon"])
    out = _out_dir(vals, "ablate")
    _write_rows(os.path.join(out, "ablation.csv"),
                ["mode", "horizon", "ade", "fde"],
                [[r["mode"], r["horizon"], r["ade"], r["fde"]] for r in rows])
    for r in rows:
        print(f"{r['mode']:>14s}  horizon {r['horizon']:3d}  "
              f"ADE {r['ade']:.4f}  FDE {r['fde']:.4f}")


_COMMANDS = {
    "synth": (_cmd_synth, "generate synthetic track CSVs"),
    "train": (_cmd_train, "train a forecaster (optionally cross-validated)"),
    "predict": (_cmd_predict, "forecast future boxes for each track"),
    "eval": (_cmd_eval, "score a model or baseline on track data"),
    "bench": (_cmd_bench, "measure forecast throughput"),
    "ablate": (_cmd_ablate, "compare loss modes across horizons"),
}


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxcast",
        description="Bounding-box trajectory forecasting from box "
                    "coordinates alone.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_fn, blurb) in _COMMANDS.items():
        sub = subs.add_parser(command, help=blurb, description=blurb)
        sub.add_argument("--config", default=None,
                         help="flat key = value option file; CLI flags "
                              "override it")
        for opt in _command_opts(command):
            sub.add_argument(opt.flag, dest=opt.key,
                             default=argparse.SUPPRESS, help=opt.help)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = args.command
    fn = _COMMANDS[command][0]
    try:
        vals = _merge(_command_opts(command), args)
        # every output path checks finiteness itself, so floating-point
        # warnings would only print source lines ahead of the error line
        with np.errstate(all="ignore"):
            fn(vals)
        return 0
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (ParseError, DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"resource error: out of memory: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
