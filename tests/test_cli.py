"""Command-line tests: every subcommand end to end on tiny inputs, the
artifact files each run leaves behind, config-file precedence, the
reproduce-from-echo invariant, API/CLI output equivalence, and the exit-code
contract."""

import csv
import os
import subprocess
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import track_csvs

from boxcast import cli, evaluation, training
from boxcast.cli import _command_opts, main
from boxcast.data import (
    SYNTH_KINDS,
    Track,
    parse_tracks,
    slice_all_minitracks,
    split_folds,
    write_tracks,
)
from boxcast.evaluation import BASELINE_KINDS, ablation_run
from boxcast.model import (
    FORECAST_CHUNK,
    LOSS_MODES,
    ModelDims,
    build_features,
    init_params,
    predict,
    predict_from_window,
)
from boxcast.training import TrainConfig, load_model, save_model


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def synth_file(tmp_path, name="tracks.csv", count=4, length=10, seed=9,
               extra=()):
    path = tmp_path / name
    code = main(["synth", "--out", str(path), "--count", str(count),
                 "--length", str(length), "--seed", str(seed),
                 "--start-jitter", "6", "--velocity-jitter", "0.5",
                 *extra])
    assert code == 0
    return path


# one track whose cx alternates between +-1e308, so every difference
# overflows
EXTREME_CSV = "video_id,track_id,frame,cx,cy,w,h\n" + "".join(
    f"v,t,{f},{1e308 if f % 2 else -1e308!r},5,2,2\n" for f in range(12))


def extreme_file(tmp_path):
    path = tmp_path / "extreme.csv"
    path.write_text(EXTREME_CSV)
    return path


TINY_TRAIN = ["--k", "3", "--p", "3", "--hidden", "8", "--latent", "4",
              "--batch-size", "4", "--epochs", "2", "--stride", "4"]


class TestSynth:
    def test_writes_count_by_length_and_reparses(self, tmp_path, capsys):
        path = synth_file(tmp_path, count=5, length=12)
        rows = read_csv(path)
        assert len(rows) == 1 + 5 * 12
        tracks = parse_tracks(path)
        assert len(tracks) == 5
        assert all(len(t) == 12 for t in tracks)
        assert "wrote 5 tracks (60 boxes)" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a = synth_file(tmp_path, name="a.csv")
        b = synth_file(tmp_path, name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_meta_echo_sits_next_to_the_csv(self, tmp_path):
        path = synth_file(tmp_path, count=5)
        meta = (tmp_path / "tracks.csv.meta.txt").read_text()
        assert "count = 5" in meta
        assert "kind = constant-velocity" in meta


class TestTrain:
    def test_single_run_artifacts(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     *TINY_TRAIN])
        assert code == 0
        params, _meta = load_model(out / "model.bxw")
        assert params.dims == ModelDims(k=3, p=3, hidden=8, latent=4)
        history = read_csv(out / "history.csv")
        assert history[0] == ["epoch", "loss", "loss_auto_enc", "loss_traj",
                              "lr", "seconds"]
        assert len(history) == 1 + 2
        assert all(np.isfinite(float(r[1])) for r in history[1:])
        config = (out / "config.txt").read_text()
        assert "k = 3" in config and "epochs = 2" in config
        assert "epoch   0" in capsys.readouterr().out

    def test_fold_mode_artifacts(self, tmp_path):
        data = synth_file(tmp_path, count=6)
        out = tmp_path / "cv"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--folds", "3", *TINY_TRAIN])
        assert code == 0
        for fold in range(3):
            assert (out / f"fold_{fold}" / "model.bxw").exists()
            assert (out / f"fold_{fold}" / "history.csv").exists()
        summary = read_csv(out / "cv_summary.csv")
        assert summary[0] == ["fold", "ade", "fde", "n_samples"]
        assert len(summary) == 1 + 3 + 1
        assert summary[-1][0] == "mean"
        fold_ades = [float(r[1]) for r in summary[1:4]]
        assert float(summary[-1][1]) == pytest.approx(np.mean(fold_ades))

    def test_no_mini_tracks_exits_three(self, tmp_path, capsys):
        """The training set is sliced before the output directory is made,
        so nothing is written, not even ``config.txt``."""
        data = synth_file(tmp_path, length=5)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     *TINY_TRAIN]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "data error: no mini-tracks of length 6 in the training split\n")
        assert "training on" not in captured.out
        assert not out.exists()

    def test_a_fold_without_test_mini_tracks_exits_three(self, tmp_path,
                                                         capsys):
        """Every fold is sliced before anything is written, so fold 0's
        short test tracks stop the run before any fold trains and leave no
        output directory."""
        tracks = parse_tracks(synth_file(tmp_path, count=4))
        short = {t.key for t in split_folds(tracks, n_folds=2, seed=0)[0][1]}
        data = tmp_path / "cut.csv"
        write_tracks([Track(t.video_id, t.track_id,
                            t.boxes[:5] if t.key in short else t.boxes)
                      for t in tracks], data)
        out = tmp_path / "cv"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--folds", "2", "--seed", "0", *TINY_TRAIN]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("data error: no mini-tracks of length 6 in "
                                "the test split of fold 0\n")
        assert "fold 0:" not in captured.out
        assert not out.exists()

    def test_rerun_from_the_echo_reproduces_the_weights(self, tmp_path):
        data = synth_file(tmp_path)
        out_a = tmp_path / "a"
        assert main(["train", "--data", str(data), "--out", str(out_a),
                     *TINY_TRAIN]) == 0
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(out_a / "config.txt"),
                     "--out", str(out_b)]) == 0
        assert (out_a / "model.bxw").read_bytes() == \
               (out_b / "model.bxw").read_bytes()


class TestPredict:
    def make_weights(self, tmp_path, k=4, p=5):
        params = init_params(ModelDims(k=k, p=p, hidden=8, latent=4), seed=1)
        path = tmp_path / "w.bxw"
        save_model(params, path)
        return path

    def test_rows_match_the_library_bitwise(self, tmp_path):
        weights = self.make_weights(tmp_path)
        data = synth_file(tmp_path, count=2, length=6)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["video_id", "track_id", "step",
                           "cx", "cy", "w", "h"]
        assert len(rows) == 1 + 2 * 5
        params, _ = load_model(weights)
        tracks = parse_tracks(data)
        expected = predict_from_window(params, np.stack(
            [build_features(t.boxes[-4:], t.boxes[-5]) for t in tracks]))
        for track, exp in zip(tracks, expected):
            got = [r for r in rows[1:] if r[1] == track.track_id]
            assert [int(r[2]) for r in got] == [1, 2, 3, 4, 5]
            values = np.array([[float(v) for v in r[3:]] for r in got])
            assert values.tobytes() == exp.tobytes()
            # the batch-1 path sums in another order: within rounding only
            one = predict(params, track.boxes[-4:], track.boxes[-5])
            np.testing.assert_allclose(values, one, rtol=0, atol=1e-3)

    def test_every_row_kept_in_order_across_chunks(self, tmp_path, capsys):
        weights = self.make_weights(tmp_path)
        n = 2 * FORECAST_CHUNK + 1
        tracks = parse_tracks(synth_file(tmp_path, count=n, length=6))
        short = set(range(3, n, 10))
        for j in short:
            tracks[j] = replace(tracks[j], boxes=tracks[j].boxes[:3])
        data = tmp_path / "many.csv"
        write_tracks(tracks, data)
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(out)]) == 0
        kept = [t for j, t in enumerate(tracks) if j not in short]
        rows = read_csv(out)[1:]
        assert [(r[1], int(r[2])) for r in rows] == \
            [(t.track_id, step) for t in kept for step in range(1, 6)]
        captured = capsys.readouterr()
        warned = [line for line in captured.err.splitlines()
                  if line.startswith("warning: ")]
        assert warned == [f"warning: track {tracks[j].key} has 3 frames, "
                          f"needs 4; skipped" for j in sorted(short)]
        assert f"wrote {5 * len(kept)} rows ({len(kept)} tracks, " \
            f"{len(short)} skipped)" in captured.out

    def test_rows_are_written_as_they_are_formed(self, tmp_path, capsys):
        """The rows of a many-track run are never all held: the traced peak
        stays within 5x the (tracks, p, 4) float64 forecast array (3.1x),
        where a list of every row took 21x."""
        k, p, n = 4, 60, 500
        weights = self.make_weights(tmp_path, k=k, p=p)
        data = synth_file(tmp_path, count=n, length=k)
        args = ["predict", "--weights", str(weights), "--data", str(data),
                "--out", str(tmp_path / "pred.csv")]
        assert main(args) == 0  # imports and caches outside the trace
        tracemalloc.start()
        try:
            assert main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * p * 4 * np.dtype(np.float64).itemsize
        assert len(read_csv(tmp_path / "pred.csv")) == 1 + n * p
        assert f"wrote {n * p} rows ({n} tracks, 0 skipped)" in \
            capsys.readouterr().out

    def test_short_track_warns_and_is_skipped(self, tmp_path, capsys):
        weights = self.make_weights(tmp_path)
        tracks = parse_tracks(synth_file(tmp_path, count=2, length=6))
        tracks[1] = replace(tracks[1], boxes=tracks[1].boxes[:3])  # below k=4
        data = tmp_path / "mixed.csv"
        write_tracks(tracks, data)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 1 + 5
        err = capsys.readouterr().err
        assert "skipped" in err and "3 frames" in err

    def test_nothing_predictable_is_a_data_error(self, tmp_path, capsys):
        """The error line is the only stderr line: no skip warning
        precedes it."""
        weights = self.make_weights(tmp_path)
        tracks = parse_tracks(synth_file(tmp_path, count=3, length=3))
        data = tmp_path / "short.csv"
        write_tracks(tracks, data)
        out = tmp_path / "pred.csv"
        code = main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "data error: all 3 tracks are shorter than k=4; nothing "
            "predicted\n")
        assert not out.exists()


class TestEval:
    def test_perfect_stub_scores_zero(self, tmp_path, capsys):
        params = init_params(ModelDims(k=4, p=5, hidden=8, latent=4), seed=2)
        for t in params.tensors().values():
            t[...] = 0.0
        params.fc_delta.b[...] = [2.0, 1.0, 0.0, 0.0]
        weights = tmp_path / "stub.bxw"
        save_model(params, weights)
        data = tmp_path / "cv.csv"
        assert main(["synth", "--out", str(data), "--count", "3",
                     "--length", "9", "--velocity", "2,1"]) == 0
        out = tmp_path / "metrics"
        assert main(["eval", "--weights", str(weights), "--data", str(data),
                     "--out", str(out)]) == 0
        header, row = read_csv(out / "metrics.csv")
        record = dict(zip(header, row))
        assert float(record["ade"]) == 0.0
        assert float(record["fde"]) == 0.0
        assert record["n_samples"] == "3"
        per_step = read_csv(out / "per_step.csv")
        assert len(per_step) == 1 + 5
        assert all(float(r[1]) == 0.0 for r in per_step[1:])
        assert "ADE 0.0000" in capsys.readouterr().out

    def test_baseline_mode_needs_no_weights(self, tmp_path):
        data = tmp_path / "cv.csv"
        assert main(["synth", "--out", str(data), "--count", "3",
                     "--length", "9"]) == 0
        out = tmp_path / "metrics"
        assert main(["eval", "--baseline", "constant-velocity",
                     "--data", str(data), "--out", str(out),
                     "--k", "4", "--p", "5"]) == 0
        _header, row = read_csv(out / "metrics.csv")
        assert float(row[0]) == 0.0

    def test_no_mini_tracks_exits_three_and_writes_nothing(self, tmp_path,
                                                           capsys):
        data = synth_file(tmp_path, length=5)
        out = tmp_path / "metrics"
        assert main(["eval", "--baseline", "stationary", "--k", "3",
                     "--p", "3", "--data", str(data), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: no mini-tracks of length 6 in {data}\n")
        assert not out.exists()

    def test_weights_or_baseline_required(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        code = main(["eval", "--data", str(data),
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestBench:
    def test_one_row_per_thread_count(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out), "--threads", "1,2",
                     "--duration", "0.05", "--n-windows", "4",
                     "--k", "4", "--p", "3", "--hidden", "8",
                     "--latent", "4"])
        assert code == 0
        rows = read_csv(out / "bench.csv")
        assert rows[0][:3] == ["threads", "trajectories_per_second",
                               "equivalent_fps"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for r in rows[1:]:
            tps = float(r[1])
            assert tps > 0.0
            assert float(r[2]) == pytest.approx(tps * 3)
        assert (out / "config.txt").exists()

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("counts", ["1,{over}", "{over}", "1,0"])
    def test_thread_counts_over_the_ceiling_start_nothing(
            self, tmp_path, monkeypatch, capsys, via, counts):
        """A count above 4 x the CPU count (or below 1) exits 2 while the
        options are read, before any process starts or any file is
        written: `subprocess.run` raises if it is reached."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "run", refuse)
        ceiling = 4 * (os.cpu_count() or 1)
        value = counts.format(over=ceiling + 1)
        out = tmp_path / "bench"
        args = ["bench", "--out", str(out), "--duration", "0.01",
                "--k", "3", "--p", "3", "--hidden", "4", "--latent", "2"]
        if via == "flag":
            args += ["--threads", value]
        else:
            config = tmp_path / "bench.cfg"
            config.write_text(f"threads = {value}\n", encoding="utf-8")
            args += ["--config", str(config)]
        assert main(args) == 2
        [err] = capsys.readouterr().err.strip().splitlines()
        assert err.startswith("configuration error: ")
        name = "--threads" if via == "flag" else "threads"
        assert err.endswith(f"bad value for {name}: thread counts must be "
                            f"1..{ceiling} (4 x the CPU count), got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("value, repeated", [
        ("1,1", 1), ("2, 1,2", 2), ("1,2,1,2", 1)],
        ids=["pair", "spaced", "two-pairs"])
    def test_a_repeated_thread_count_starts_nothing(
            self, tmp_path, monkeypatch, capsys, value, repeated):
        """A repeated count would be measured again and write a second
        row; it exits 2 while the options are read, before any process
        starts or any file is written."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "run", refuse)
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--threads", value,
                     "--duration", "0.01", "--k", "3", "--p", "3",
                     "--hidden", "4", "--latent", "2"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: bad value for --threads: thread count "
            f"{repeated} is listed twice\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, reason", [
        ("--duration", "0", "duration must be positive and at most "
                            f"{threading.TIMEOUT_MAX:g} s, got 0.0"),
        ("--duration", "-1", "duration must be positive and at most "
                             f"{threading.TIMEOUT_MAX:g} s, got -1.0"),
        ("--duration", "nan", "duration must be positive and at most "
                              f"{threading.TIMEOUT_MAX:g} s, got nan"),
        ("--n-windows", "0", "n_windows must be >= 1, got 0"),
    ], ids=["duration-0", "duration-minus-1", "duration-nan", "n-windows-0"])
    def test_a_refused_setting_leaves_no_output(self, tmp_path, capsys,
                                                flag, value, reason):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--k", "3", "--p", "3",
                     "--hidden", "4", "--latent", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {reason}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_drawn_parameters_are_float32(self, tmp_path, monkeypatch):
        """Without --weights, `bench` draws float32 parameters, whose weight
        file is that of the float64 draw (see test_training)."""
        seen = []

        def measure(params, **kwargs):
            seen.append(params.dtype)
            return evaluation.BenchReport(
                threads=kwargs["threads"], trajectories_per_second=1.0,
                equivalent_fps=3.0, n_predictions=1, elapsed_s=1.0, k=4,
                p=3, hidden=8, latent=4)

        monkeypatch.setattr(cli, "benchmark_tps", measure)
        assert main(["bench", "--out", str(tmp_path / "bench"), "--k", "4",
                     "--p", "3", "--hidden", "8", "--latent", "4"]) == 0
        assert seen == [np.float32]

    def test_weights_file_sets_the_benchmarked_model(self, tmp_path):
        weights = tmp_path / "w.bxw"
        save_model(init_params(ModelDims(k=4, p=3, hidden=8, latent=4),
                               seed=1), weights)
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--weights", str(weights),
                     "--duration", "0.05", "--n-windows", "4"]) == 0
        [header, row] = read_csv(out / "bench.csv")
        dims = dict(zip(header, row))
        assert [dims[k] for k in ("threads", "k", "p", "hidden", "latent",
                                  "dtype")] == ["1", "4", "3", "8", "4",
                                                "float32"]
        assert float(dims["trajectories_per_second"]) > 0.0
        assert f"weights = {weights}" in (out / "config.txt").read_text()

    def test_a_failed_child_exits_three_with_its_last_error_line(
            self, tmp_path, monkeypatch, capsys):
        """A measuring process that fails ends `bench` with exit 3 and one
        line quoting the child's last stderr line, and leaves no output."""
        def run(argv, **_kwargs):
            return subprocess.CompletedProcess(
                argv, 1, stdout="",
                stderr="Traceback (most recent call last):\n  ...\n"
                       "MemoryError: Unable to allocate 1.00 GiB\n")

        monkeypatch.setattr(subprocess, "run", run)
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--threads", "2",
                     "--k", "3", "--p", "3", "--hidden", "4",
                     "--latent", "2", "--duration", "0.01"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "data error: the benchmark process (BLAS threads 2) exited "
            "with code 1: MemoryError: Unable to allocate 1.00 GiB\n")
        assert captured.out == ""
        assert not out.exists()

    def test_thread_ceiling_itself_is_accepted(self):
        ceiling = 4 * (os.cpu_count() or 1)
        threads = {o.key: o for o in _command_opts("bench")}["threads"]
        assert threads.type(f"1,{ceiling}") == (1, ceiling)


class TestAblate:
    def test_grid_matches_the_library_run(self, tmp_path):
        data = synth_file(tmp_path, count=4, length=6)
        out = tmp_path / "ablation"
        args = ["--data", str(data), "--out", str(out), "--k", "3",
                "--p", "3", "--hidden", "8", "--latent", "4",
                "--batch-size", "4", "--epochs", "1", "--stride", "6",
                "--horizons", "2,3"]
        assert main(["ablate", *args]) == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["mode", "horizon", "ade", "fde"]
        assert len(rows) == 1 + 3 * 2

        cfg = TrainConfig(k=3, p=3, hidden=8, latent=4, batch_size=4,
                          epochs=1)
        mts = slice_all_minitracks(parse_tracks(data), 6, 6)
        expected = ablation_run(mts, cfg, horizons=(2, 3))
        for row, exp in zip(rows[1:], expected):
            assert row[0] == exp["mode"]
            assert int(row[1]) == exp["horizon"]
            assert float(row[2]) == exp["ade"]
            assert float(row[3]) == exp["fde"]

    def test_modes_and_eval_data_match_the_library_run(self, tmp_path):
        """``--modes`` picks the loss modes and ``--eval-data`` scores a
        held-out file instead of the training data."""
        data = synth_file(tmp_path, count=4, length=6)
        held_out = synth_file(tmp_path, name="held_out.csv", count=3,
                              length=8, seed=4)
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(data), "--out", str(out),
                     "--eval-data", str(held_out),
                     "--modes", "traj, traj+auto-enc", "--k", "3",
                     "--p", "3", "--hidden", "8", "--latent", "4",
                     "--batch-size", "4", "--epochs", "1", "--stride", "2",
                     "--horizons", "3"]) == 0
        rows = read_csv(out / "ablation.csv")[1:]
        config = (out / "config.txt").read_text()
        assert "modes = traj,traj+auto-enc" in config
        assert f"eval_data = {held_out}" in config

        cfg = TrainConfig(k=3, p=3, hidden=8, latent=4, batch_size=4,
                          epochs=1)
        expected = ablation_run(
            slice_all_minitracks(parse_tracks(data), 6, 2), cfg,
            modes=("traj", "traj+auto-enc"), horizons=(3,),
            eval_minitracks=slice_all_minitracks(parse_tracks(held_out), 6,
                                                 2))
        assert rows == [[e["mode"], str(e["horizon"]), repr(e["ade"]),
                         repr(e["fde"])] for e in expected]
        on_training_data = ablation_run(
            slice_all_minitracks(parse_tracks(data), 6, 2), cfg,
            modes=("traj",), horizons=(3,))
        assert float(rows[0][2]) != on_training_data[0]["ade"]

    def test_eval_data_without_mini_tracks_exits_three(self, tmp_path,
                                                       capsys):
        """Short tracks and an empty file are refused as ``--data`` refuses
        them, before anything is written."""
        data = synth_file(tmp_path, count=4, length=6)
        short = synth_file(tmp_path, name="held_out.csv", length=5)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "ablation"
        for held_out, reason in ((short, "no mini-tracks of length 6 in"),
                                 (empty, "no tracks found in")):
            assert main(["ablate", "--data", str(data), "--out", str(out),
                         "--eval-data", str(held_out), "--k", "3", "--p",
                         "3", "--hidden", "8", "--latent", "4", "--epochs",
                         "1"]) == 3
            assert capsys.readouterr().err == (
                f"data error: {reason} {held_out}\n")
            assert not out.exists()

    def test_unknown_mode_exits_two_before_any_training(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", refuse)
        data = synth_file(tmp_path, count=4, length=6)
        capsys.readouterr()
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(data), "--out", str(out),
                     "--modes", "traj,bogus", "--k", "3", "--p", "3",
                     "--hidden", "8", "--latent", "4", "--epochs", "1",
                     "--horizons", "3"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown loss mode 'bogus'; pick one of "
            "('traj-del', 'traj', 'traj+auto-enc')\n")
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--modes", "traj,traj", "loss mode 'traj' is listed twice"),
        ("--horizons", "3,2,3", "horizon 3 is listed twice")],
        ids=["modes", "horizons"])
    def test_a_repeated_mode_or_horizon_exits_two_before_any_training(
            self, tmp_path, capsys, monkeypatch, option, value, message):
        """A repeated mode would train its model twice and a repeated
        horizon would score its rows twice; both are refused first."""
        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", refuse)
        data = synth_file(tmp_path, count=4, length=6)
        capsys.readouterr()
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(data), "--out", str(out),
                     "--k", "3", "--p", "3", "--hidden", "8", "--latent", "4",
                     "--epochs", "1", option, value]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_data_without_mini_tracks_exits_three(self, tmp_path, capsys):
        data = synth_file(tmp_path, length=5)
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(data), "--out", str(out),
                     "--k", "3", "--p", "3", "--hidden", "8", "--latent", "4",
                     "--epochs", "1"]) == 3
        assert capsys.readouterr().err == (
            f"data error: no mini-tracks of length 6 in {data}\n")
        assert not out.exists()

    @pytest.mark.parametrize("retrain", ["false", "true"])
    def test_horizon_beyond_p_exits_per_protocol(self, tmp_path, capsys,
                                                 monkeypatch, retrain):
        """Both protocols refuse the horizon before any model trains: the
        scored targets are stacked at p."""
        def no_training(*_args, **_kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluation, "train", no_training)
        data = synth_file(tmp_path, count=4, length=6)
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(data), "--out", str(out),
                     "--k", "3", "--p", "3", "--hidden", "8", "--latent", "4",
                     "--epochs", "1", "--horizons", "2,5",
                     "--retrain-per-horizon", retrain]) == 2
        assert capsys.readouterr().err == (
            "configuration error: horizon 5 exceeds the model horizon p=3\n")
        assert not out.exists()


class TestConfigFilesAndExitCodes:
    def test_cli_overrides_file_overrides_defaults(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("count = 3\nseed = 5\nlength = 8\n")
        out_a = tmp_path / "a.csv"
        assert main(["synth", "--config", str(config), "--out", str(out_a),
                     "--count", "6"]) == 0
        assert len(parse_tracks(out_a)) == 6  # CLI beat the file
        out_b = tmp_path / "b.csv"
        assert main(["synth", "--out", str(out_b), "--count", "6",
                     "--length", "8", "--seed", "5"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()  # file beat defaults

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("cadence = 3\n")
        code = main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_required_option(self, tmp_path, capsys):
        assert main(["synth"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "ghost.csv"),
                     "--out", str(tmp_path / "run"), *TINY_TRAIN])
        assert code == 3

    def test_malformed_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what\n1,2\n")
        code = main(["predict", "--weights", str(tmp_path / "w.bxw"),
                     "--data", str(bad), "--out", str(tmp_path / "p.csv")])
        assert code == 3  # weight file missing is already a data/I-O error

    def test_non_utf8_data_file_exits_three(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"video_id,track_id,frame,cx,cy,w,h\n"
                         b"v,t,0,1,1,2,2\n"
                         b"v,t,1,\xff\xfe,1,2,2\n")
        code = main(["eval", "--baseline", "constant-velocity", "--data",
                     str(data), "--out", str(tmp_path / "ev")])
        assert code == 3
        assert "line 3: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "synth.txt"
        config.write_bytes(b"count = 2\n# \xff\xfe\n")
        code = main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_extreme_coordinates_exit_four_not_inf(self, tmp_path, capsys):
        rows = ["video_id,track_id,frame,cx,cy,w,h"]
        rows += [f"v,t,{f},{1e308 if f % 2 else -1e308!r},5,2,2"
                 for f in range(12)]
        data = tmp_path / "extreme.csv"
        data.write_text("\n".join(rows) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["eval", "--baseline", "constant-velocity",
                         "--data", str(data), "--out", str(tmp_path / "ev"),
                         "--k", "6", "--p", "6", "--stride", "6"])
        captured = capsys.readouterr()
        assert code == 4
        assert "inf" not in captured.out
        assert "1 of them" in captured.err

    @pytest.mark.parametrize("lead", [0, 1, "short"])
    def test_non_finite_forecast_exits_four_and_writes_nothing(
            self, tmp_path, capsys, lead):
        """Ahead of the overflowing track: nothing, a normal track, or a
        track too short to forecast, whose skip warning is not printed."""
        weights = TestPredict().make_weights(tmp_path)
        header, _, extreme = EXTREME_CSV.partition("\n")
        n = {0: 0, 1: 6, "short": 3}[lead]
        ahead = "".join(f"v,a,{f},{10.0 + f},5,2,2\n" for f in range(n))
        data = tmp_path / "mixed.csv"
        data.write_text(f"{header}\n{ahead}{extreme}")
        out = tmp_path / "pred.csv"
        code = main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            "numeric failure: forecast for track ('v', 't') is not finite; "
            "coordinates are outside the range the model can represent\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_numeric_failure_prints_only_its_error_line(
            self, tmp_path, capsys, command):
        data = extreme_file(tmp_path)
        if command == "predict":
            args = ["predict", "--weights",
                    str(TestPredict().make_weights(tmp_path)),
                    "--out", str(tmp_path / "pred.csv")]
        else:
            args = ["eval", "--baseline", "constant-velocity", "--k", "6",
                    "--p", "6", "--stride", "6", "--out", str(tmp_path / "ev")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*args, "--data", str(data)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "train", "predict"])
    def test_frames_beyond_int64_exit_three(self, tmp_path, capsys, command):
        rows = ["video_id,track_id,frame,cx,cy,w,h"]
        rows += [f"v,t,{10**20 + f},{f},5,2,2" for f in range(12)]
        data = tmp_path / "far.csv"
        data.write_text("\n".join(rows) + "\n")
        args = {
            "eval": ["eval", "--baseline", "stationary", "--k", "3",
                     "--p", "3", "--out", str(tmp_path / "ev")],
            "train": ["train", "--out", str(tmp_path / "run"), *TINY_TRAIN],
            "predict": ["predict", "--weights",
                        str(TestPredict().make_weights(tmp_path)),
                        "--out", str(tmp_path / "pred.csv")],
        }[command]
        code = main([*args, "--data", str(data)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line 2: frame {10**20} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lr", ["inf", "1e39"])
    def test_weights_overflowing_float32_exit_four_and_write_no_file(
            self, tmp_path, capsys, lr):
        data = synth_file(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        # one batch in one epoch, so no later loss sees the broken weights
        code = main(["train", "--data", str(data), "--out", str(out),
                     *TINY_TRAIN, "--batch-size", "64", "--epochs", "1",
                     "--base-lr", lr])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: tensor ")
        assert err.count("\n") == 1
        assert not (out / "model.bxw").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "predict"])
    def test_out_of_memory_exits_three_and_writes_no_output(
            self, tmp_path, capsys, monkeypatch, command):
        """A MemoryError, as numpy raises when it cannot allocate an array,
        is one error line and exit 3; nothing is allocated here, the
        command's library call is patched to raise."""
        data = synth_file(tmp_path)
        weights = TestPredict().make_weights(tmp_path)
        capsys.readouterr()
        message = ("Unable to allocate 32.0 GiB for an array with shape "
                   "(2097152, 2048) and data type float64")

        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        module, name, out, written, args = {
            "synth": (cli, "synth_tracks", tmp_path / "big.csv", "big.csv",
                      []),
            "train": (training, "init_params", tmp_path / "run",
                      "run/model.bxw", ["--data", str(data), *TINY_TRAIN]),
            "predict": (cli, "predict_from_window", tmp_path / "pred.csv",
                        "pred.csv",
                        ["--data", str(data), "--weights", str(weights)]),
        }[command]
        monkeypatch.setattr(module, name, out_of_memory)
        code = main([command, "--out", str(out), *args])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == f"resource error: out of memory: {message}\n"
        assert not (tmp_path / written).exists()

    # (command, extra arguments, --out name, result file whose move fails)
    REPLACE_CASES = [
        ("synth", ["--count", "1", "--length", "5"], "s.csv", "s.csv"),
        ("synth", ["--count", "1", "--length", "5"], "s.csv",
         "s.csv.meta.txt"),
        ("train", [], "run", "config.txt"),
        ("train", [], "run", "model.bxw"),
        ("train", [], "run", "history.csv"),
        ("train", ["--folds", "2"], "run", "cv_summary.csv"),
        ("predict", [], "pred.csv", "pred.csv"),
        ("eval", [], "ev", "metrics.csv"),
        ("eval", [], "ev", "per_step.csv"),
        ("bench", ["--k", "3", "--p", "3", "--hidden", "4", "--latent", "2",
                   "--duration", "0.01"], "b", "bench.csv"),
        ("ablate", ["--horizons", "3"], "ab", "ablation.csv"),
    ]

    @pytest.mark.parametrize(
        "command, extra, out_name, failing", REPLACE_CASES,
        ids=[f"{c[0]}{'-folds' if '--folds' in c[1] else ''}-{c[3]}"
             for c in REPLACE_CASES])
    def test_a_failed_replace_leaves_no_partial_result_file(
            self, tmp_path, capsys, monkeypatch, command, extra, out_name,
            failing):
        """Every result file is written beside its path and moved into
        place with `os.replace`. When the move of one fails, the command
        exits 3 with one line, and neither that file nor any temporary
        file is left; the files written before it are whole."""
        data = synth_file(tmp_path)
        weights = TestPredict().make_weights(tmp_path)
        inputs = {"data": ["--data", str(data)],
                  "weights": ["--weights", str(weights)]}
        argv = {"synth": [],
                "train": inputs["data"] + TINY_TRAIN,
                "predict": inputs["data"] + inputs["weights"],
                "eval": inputs["data"] + inputs["weights"],
                "bench": [],
                "ablate": inputs["data"] + TINY_TRAIN}[command]
        real = os.replace

        def replace(src, dst):
            if Path(dst).name == failing:
                raise OSError("replace failed")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        capsys.readouterr()
        code = main([command, "--out", str(tmp_path / out_name), *argv,
                     *extra])
        assert code == 3
        assert capsys.readouterr().err == "data error: replace failed\n"
        monkeypatch.undo()
        left = [p.name for p in tmp_path.rglob("*")]
        assert failing not in left
        assert [n for n in left if n.endswith(".tmp")] == []
        if "config.txt" in left:
            assert (tmp_path / out_name / "config.txt").read_text(
                encoding="utf-8").endswith("\n")

    @pytest.mark.parametrize("command", ["synth", "predict"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_an_output_that_cannot_be_replaced_fails_by_its_own_name(
            self, tmp_path, capsys, command, target):
        """A result file replaces its target through a temporary file, but
        an --out in a directory that does not exist, or one that is a
        directory, is opened as it is: exit 3, and the one error line names
        the path given, not a temporary file."""
        data = synth_file(tmp_path)
        weights = TestPredict().make_weights(tmp_path)
        if target == "directory":
            out = tmp_path / "results"
            out.mkdir()
            reason = "[Errno 21] Is a directory"
        else:
            out = tmp_path / "missing" / "out.csv"
            reason = "[Errno 2] No such file or directory"
        argv = {"synth": ["--count", "1", "--length", "5"],
                "predict": ["--data", str(data), "--weights", str(weights)],
                }[command]
        capsys.readouterr()
        assert main([command, "--out", str(out), *argv]) == 3
        assert capsys.readouterr().err == f"data error: {reason}: '{out}'\n"
        assert [p.name for p in out.parent.glob(".*")] == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_output_is_written_through(self, tmp_path, capsys):
        """An --out that names a pipe (as /dev/stdout may) is written
        through, not replaced by a regular file."""
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        argv = ["--count", "2", "--length", "5", "--seed", "3"]
        assert main(["synth", "--out", str(fifo), *argv]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert fifo.is_fifo()
        want = tmp_path / "file.csv"
        assert main(["synth", "--out", str(want), *argv]) == 0
        assert got == [want.read_bytes()]

    def test_a_symlinked_output_is_written_through(self, tmp_path, capsys):
        """An --out that is a symlink keeps its link: the file it points
        to gets the result."""
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        argv = ["--count", "2", "--length", "5", "--seed", "3"]
        assert main(["synth", "--out", str(link), *argv]) == 0
        want = tmp_path / "file.csv"
        assert main(["synth", "--out", str(want), *argv]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == want.read_bytes()

    def test_a_learning_rate_that_underflows_exits_two_and_writes_nothing(
            self, tmp_path, capsys):
        """A base rate that halves to 0 by the last epoch is refused when
        the config is made: one line, exit 2, no output directory."""
        data = synth_file(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--k", "4", "--p", "3", "--hidden", "4", "--latent",
                     "2", "--epochs", "2", "--halve-every", "1",
                     "--base-lr", "5e-324"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: base_lr 5e-324 halved every 1 epochs "
            "underflows to 0 by the last of 2 epochs\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("k,p", [("5", "-3"), ("-2", "5"), ("0", "5"),
                                     ("-100", "150")])
    def test_baseline_window_lengths_below_one_exit_two(self, tmp_path,
                                                        capsys, k, p):
        data = synth_file(tmp_path)
        capsys.readouterr()
        out = tmp_path / "ev"
        code = main(["eval", "--baseline", "stationary", "--data", str(data),
                     "--out", str(out), "--k", k, "--p", p])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--noise-std", "nan"), ("--size", "nan,5"), ("--velocity", "inf,0"),
        ("--start-jitter", "nan"), ("--frame-rate-hz", "-30")])
    def test_non_finite_synth_values_exit_two_and_write_no_csv(
            self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["synth", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--start", "1e308,0", "--velocity", "1e308,0", "--count", "2",
         "--length", "5"],
        ["--size", "1e308,1e308", "--noise-std", "1e308"],
        ["--start-jitter", "1e308"]])
    def test_overflowing_synth_values_exit_two_and_write_no_csv(
            self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(["synth", "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--alpha", "nan"),
                                            ("--beta", "nan"),
                                            ("--alpha", "inf")])
    def test_non_finite_loss_weights_exit_two(self, tmp_path, capsys, flag,
                                              value):
        data = synth_file(tmp_path)
        capsys.readouterr()
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     *TINY_TRAIN, flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not (out / "config.txt").exists()

    @pytest.mark.parametrize("key,value", [
        ("go_frames", "inf,3"), ("go_frames", "1e400,3"),
        ("stop_frames", "2.9,3.7"), ("go_frames", "1e19,1e19"),
        ("seed", "-1")])
    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_synth_integer_values_exit_two_and_write_no_csv(
            self, tmp_path, capsys, key, value, via):
        out = tmp_path / "x.csv"
        config = tmp_path / "synth.cfg"
        config.write_text("kind = stop-and-go\ncount = 1\nlength = 5\n"
                          + (f"{key} = {value}\n" if via == "file" else ""))
        argv = ["synth", "--config", str(config), "--out", str(out)]
        if via == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        assert main(argv) == 2
        err = capsys.readouterr().err
        # a flag and a config line give the same reason, each with its
        # own location
        reason = {
            "inf,3": "expected two whole numbers, got 'inf,3'",
            "1e400,3": "expected two whole numbers, got '1e400,3'",
            "2.9,3.7": "expected two whole numbers, got '2.9,3.7'",
            "1e19,1e19": "go_frames must satisfy 1 <= lo <= hi < 2**63, "
                         f"got ({10**19}, {10**19})",
            "-1": "seed must be an int >= 0, got -1",
        }[value]
        assert err.startswith("configuration error: ")
        assert err.endswith(f": {reason}\n")
        assert err.count("\n") == 1
        # the flag's converter names the flag; a spec field's check does not
        if via == "flag" and value not in ("1e19,1e19", "-1"):
            assert f"bad value for --{key.replace('_', '-')}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "synth", "bench"])
    def test_negative_seed_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                        command):
        """`train` and `synth` leave the seed to their config record, and
        `bench`, which has none, to `init_params`, which checks the seed it
        draws from."""
        data = synth_file(tmp_path)
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "run"
        argv = {"train": ["--data", str(data), *TINY_TRAIN],
                "synth": ["--count", "1", "--length", "5"],
                "bench": ["--k", "3", "--p", "3", "--hidden", "4",
                          "--latent", "2", "--duration", "0.01"]}[command]
        assert main([command, "--out", str(out), *argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert captured.err.endswith(": seed must be an int >= 0, got -1\n")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["synth", "--flux", "9"]) == 2

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_bad_flag_value_exits_two(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x.csv"),
                     "--count", "many"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: bad value for --count: invalid literal "
            "for int() with base 10: 'many'\n")

    def test_bad_loss_mode_is_a_config_error(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        code = main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run"), "--loss-mode", "vibes",
                     *TINY_TRAIN])
        assert code == 2
        assert "loss mode" in capsys.readouterr().err


_HOSTILE = ["inf", "nan", "1e400", "-1", "", "x"]
# tiny valid values; sizes, counts, epochs and durations stay small because
# larger ones only allocate more or run longer and reach no other exit
_TINY = {
    "count": ["1", "3"], "length": ["1", "8"], "kind": list(SYNTH_KINDS),
    "start": ["0,0", "5.5,2"], "size": ["4,4"], "velocity": ["1,0.5"],
    "accel": ["0.1,0"], "size_rate": ["0.1,-0.1"], "amplitude": ["2"],
    "period": ["4"], "go_frames": ["1,2"], "stop_frames": ["1,3"],
    "noise_std": ["0.5"], "start_jitter": ["3"], "velocity_jitter": ["0.5"],
    "seed": ["0", "7"], "frame_rate_hz": ["25"], "k": ["2", "3"],
    "p": ["1", "3"], "hidden": ["2", "4"], "latent": ["1", "2"],
    "batch_size": ["1", "4"], "epochs": ["1", "2"], "base_lr": ["0.01"],
    "halve_every": ["1"], "alpha": ["0.5"], "beta": ["1"],
    "loss_mode": list(LOSS_MODES), "carry_cell_state": ["true", "false"],
    "grad_clip": ["0", "1"], "folds": ["0", "2"], "stride": ["1", "3"],
    "corner_format": ["true", "false"], "baseline": list(BASELINE_KINDS),
    "threads": ["1", "1,2"], "duration": ["0.01"], "n_windows": ["1", "2"],
    "modes": ["traj", "traj-del,traj+auto-enc"], "horizons": ["1", "1,2"],
    "retrain_per_horizon": ["true", "false"],
}
_BASE = {
    "synth": {"count": "2", "length": "6"},
    "train": {"k": "3", "p": "3", "hidden": "4", "latent": "2",
              "batch_size": "4", "epochs": "1", "stride": "2"},
    "predict": {},
    "eval": {"stride": "2"},
    "bench": {"k": "3", "p": "3", "hidden": "4", "latent": "2",
              "n_windows": "2", "duration": "0.01"},
    "ablate": {"k": "3", "p": "3", "hidden": "4", "latent": "2",
               "batch_size": "4", "epochs": "1", "stride": "2",
               "horizons": "1,2"},
}
_PATHS = {"data", "eval_data", "weights"}
# two gap-free 12-frame tracks, long enough for every tiny window
_LONG_CSV = "video_id,track_id,frame,cx,cy,w,h\n" + "".join(
    f"v,{tid},{f},{10.0 + f * v},{5.0 + f},4,6\n"
    for tid, v in (("a", 1.0), ("b", -0.5)) for f in range(12))


@st.composite
def _cli_cases(draw):
    """(command, [(key, value, 'flag' or 'file')], CSV text, corner
    format): options of one subcommand set to a tiny valid value, a hostile
    string or, for an input path, the drawn CSV or the tiny weight file.
    The CSV comes from the hostile-row strategy, or is a clean file of long
    tracks or the overflowing one, so runs also reach exits 0 and 4."""
    command = draw(st.sampled_from(sorted(_BASE)), label="command")
    keys = [o.key for o in _command_opts(command) if o.key != "out"]
    overrides = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=3,
                             unique=True), label="keys"):
        valid = ["<input>"] if key in _PATHS else _TINY[key]
        value = draw(st.one_of(st.sampled_from(valid),
                               st.sampled_from(_HOSTILE)), label=key)
        via = draw(st.sampled_from(["flag", "file"]), label="via")
        overrides.append((key, value, via))
    text, corner = draw(st.one_of(
        track_csvs(), st.sampled_from([(_LONG_CSV, False),
                                       (EXTREME_CSV, False)])), label="csv")
    return command, overrides, text, corner


class TestEveryFailureHasItsExitCode:
    """Whatever a subcommand's flags, config file and input CSV hold,
    `main` returns 0, 2, 3 or 4 and never lets an exception escape."""

    @settings(max_examples=50, deadline=None)
    @given(case=_cli_cases())
    @example(case=("synth", [("go_frames", "inf,3", "file")], "", False))
    @example(case=("train", [("seed", "-1", "flag")], "", False))
    def test_exit_code_is_documented(self, case):
        command, overrides, text, corner = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "tracks.csv"
            data.write_text(text, encoding="utf-8")
            weights = tmp / "w.bxw"
            save_model(init_params(ModelDims(k=3, p=3, hidden=4, latent=2),
                                   seed=0), weights)
            inputs = {"data": data, "eval_data": data, "weights": weights}
            file_vals = {"out": str(tmp / "out"), **_BASE[command]}
            keys = {o.key for o in _command_opts(command)}
            if "data" in keys:
                file_vals["data"] = str(data)
                file_vals["corner_format"] = str(corner).lower()
            if command in ("predict", "eval"):
                file_vals["weights"] = str(weights)
            flags = []
            for key, value, via in overrides:
                value = str(inputs[key]) if value == "<input>" else value
                if via == "file":
                    file_vals[key] = value
                else:
                    flags.append(f"--{key.replace('_', '-')}={value}")
            config = tmp / "run.cfg"
            config.write_text("".join(f"{k} = {v}\n"
                                      for k, v in file_vals.items()))
            code = main([command, "--config", str(config), *flags])
        assert code in (0, 2, 3, 4)
