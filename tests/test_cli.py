"""Command-line tests: every subcommand end to end on tiny inputs, the
artifact files each run leaves behind, config-file precedence, the
reproduce-from-echo invariant, API/CLI output equivalence, and the exit-code
contract."""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from boxcast.cli import main
from boxcast.data import parse_tracks, write_tracks
from boxcast.evaluation import ablation_run
from boxcast.model import ModelDims, init_params, predict
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


def extreme_file(tmp_path, frames=12):
    """One track whose cx alternates between +-1e308, so every difference
    overflows."""
    rows = ["video_id,track_id,frame,cx,cy,w,h"]
    rows += [f"v,t,{f},{1e308 if f % 2 else -1e308!r},5,2,2"
             for f in range(frames)]
    path = tmp_path / "extreme.csv"
    path.write_text("\n".join(rows) + "\n")
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
        for track in parse_tracks(data):
            expected = predict(params, track.boxes[-4:], track.boxes[-5])
            got = [r for r in rows[1:] if r[1] == track.track_id]
            assert [int(r[2]) for r in got] == [1, 2, 3, 4, 5]
            for r, exp in zip(got, expected):
                assert [float(v) for v in r[3:]] == list(exp)

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
        weights = self.make_weights(tmp_path)
        tracks = parse_tracks(synth_file(tmp_path, count=2, length=3))
        data = tmp_path / "short.csv"
        write_tracks(tracks, data)
        code = main(["predict", "--weights", str(weights), "--data",
                     str(data), "--out", str(tmp_path / "pred.csv")])
        assert code == 3
        assert "shorter than k=4" in capsys.readouterr().err


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
        from boxcast.data import slice_all_minitracks
        mts = slice_all_minitracks(parse_tracks(data), 6, 6)
        expected = ablation_run(mts, cfg, horizons=(2, 3))
        for row, exp in zip(rows[1:], expected):
            assert row[0] == exp["mode"]
            assert int(row[1]) == exp["horizon"]
            assert float(row[2]) == exp["ade"]
            assert float(row[3]) == exp["fde"]


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

    def test_non_finite_forecast_exits_four_and_writes_nothing(
            self, tmp_path, capsys):
        weights = TestPredict().make_weights(tmp_path)
        out = tmp_path / "pred.csv"
        code = main(["predict", "--weights", str(weights), "--data",
                     str(extreme_file(tmp_path)), "--out", str(out)])
        assert code == 4
        assert "track ('v', 't')" in capsys.readouterr().err
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

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["synth", "--flux", "9"]) == 2

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_bad_flag_value_exits_two(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x.csv"),
                     "--count", "many"]) == 2

    def test_bad_loss_mode_is_a_config_error(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        code = main(["train", "--data", str(data),
                     "--out", str(tmp_path / "run"), "--loss-mode", "vibes",
                     *TINY_TRAIN])
        assert code == 2
        assert "loss mode" in capsys.readouterr().err
