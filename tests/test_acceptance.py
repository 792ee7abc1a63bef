"""Release gate: nine numbered acceptance checks over the whole package.

Each test prints one `[criterion N] PASS/FAIL — ...` line with its measured
numbers (bypassing capture so the line is visible in any pytest run), then
asserts. All constants — seeds, learning rates, tolerances, reference
values — are pinned here so every run measures exactly the same thing.

Criterion list:
 1 analytic gradients vs central finite differences on 100+ tiny configs
 2 exact parameter count and single-precision weight-file size
 3 trajectory concatenation vs an independent prefix-sum oracle
 4 overfit sanity: noiseless constant-velocity tracks reach ADE < 2 px
 5 generalization sanity: the criterion-4 model on held-out tracks beats
   the stationary baseline, and its excess ADE over the constant-velocity
   baseline is at most a third of the stationary baseline's (3x the
   constant-velocity ADE alone would be ~4e-13 px on noiseless tracks)
 6 ablation direction: loss-mode ordering on noisy data (median of 3 seeds)
 7 CPU throughput benchmark at the full model size
 8 closed-form metric checks (exact)
 9 conditional: 3-fold protocol on externally supplied tracking CSVs
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from boxcast.data import (
    SynthSpec,
    parse_tracks,
    slice_all_minitracks,
    split_folds,
    synth_tracks,
)
from boxcast.evaluation import (
    benchmark_tps,
    evaluate,
    evaluate_baseline,
    evaluate_predictions,
    summarize_folds,
)
from boxcast.model import (
    LOSS_MODES,
    MODE_TRAJ,
    MODE_TRAJ_AUTOENC,
    MODE_TRAJ_DEL,
    LossWeights,
    ModelDims,
    concat_trajectory,
    init_params,
    loss_and_grads,
)
from boxcast.training import TrainConfig, param_count_for, save_model, train

from helpers import (
    coordinate_subset,
    fd_grad,
    gradcheck_case,
    loss_via_public_ops,
    param_count,
)

# reference values asserted or reported below
EXPECTED_PARAM_COUNT = 4_360_460
WEIGHT_FILE_MB_RANGE = (17.0, 18.0)
REFERENCE_TPS_POINTS = "38.91 (1 thread) -> 54.05 (2) -> 65.87 (4) -> 78.06 (8)"
REFERENCE_ADE_FDE = (21.61, 44.77)
# criterion 5: the model's excess over the constant-velocity baseline may be
# at most 1/3 of the stationary baseline's excess over it
KINEMATIC_GAP_FACTOR = 3.0

# the synthetic constant-velocity family shared by criteria 4-6: small
# coordinates keep LSTM gates in their responsive band so a 64-unit model
# can actually fit the data within the criterion-4 epoch budget
CV_FAMILY = SynthSpec(
    kind="constant-velocity",
    length=90,
    start=(12.0, 10.0),
    size=(4.0, 8.0),
    velocity=(1.2, 0.8),
    start_jitter=6.0,
    velocity_jitter=0.5,
    seed=100,
)


def _report(capsys, n, status, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {status} — {detail}")


def _verdict(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def full_size_params():
    """Parameters at the full model size (k=30, p=60, H=512, Z=256)."""
    return init_params(ModelDims(k=30, p=60, hidden=512, latent=256), seed=7)


@pytest.fixture(scope="module")
def overfit_run():
    """Criterion-4 training run, shared with criterion 5."""
    tracks = synth_tracks(CV_FAMILY, 20)
    minitracks = slice_all_minitracks(tracks, window=90, stride=30)
    cfg = TrainConfig(hidden=64, latent=32, batch_size=2, epochs=200,
                      base_lr=0.01, halve_every=40, seed=0)
    t0 = time.perf_counter()
    params, _ = train(cfg, minitracks)
    elapsed = time.perf_counter() - t0
    return {
        "params": params,
        "train_ade": evaluate(params, minitracks).ade,
        "elapsed_s": elapsed,
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_01_gradients_match_finite_differences(capsys):
    """>=100 random tiny configs (k=4, p=3, H=8, Z=6), all three loss
    modes: analytic gradients match central differences at rtol 1e-4."""
    rtol, atol = 1e-4, 1e-8
    cases_per_mode = 34  # 3 * 34 = 102 configs
    coords_per_tensor = 6
    t0 = time.perf_counter()
    n_cases = 0
    n_coords = 0
    worst = 0.0  # max |analytic - fd| / (atol + rtol * |fd|); <= 1 passes
    for mode_index, mode in enumerate(LOSS_MODES):
        weights = LossWeights(mode=mode)
        for j in range(cases_per_mode):
            seed = 5000 + 1000 * mode_index + j
            params, window, targets = gradcheck_case(seed)
            _, _, grads = loss_and_grads(params, window, targets, weights)
            rng = np.random.default_rng(seed + 17)

            def objective(_tensor):
                return loss_via_public_ops(params, window, targets, weights)

            for name, tensor in params.tensors().items():
                idx = coordinate_subset(rng, tensor.shape, coords_per_tensor)
                fd = fd_grad(objective, tensor, idx)
                analytic = grads[name].reshape(-1)[idx]
                err = np.abs(analytic - fd) / (atol + rtol * np.abs(fd))
                worst = max(worst, float(np.max(err)))
                n_coords += len(idx)
            n_cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 120.0
    _report(capsys, 1, _verdict(ok),
            f"{n_cases} configs x 3 modes checked at {n_coords} coordinates; "
            f"worst error {worst:.3f}x tolerance (rtol {rtol:g}); "
            f"{elapsed:.1f}s (limit 120s)")
    assert n_cases >= 100
    assert worst <= 1.0, (
        f"worst gradient error is {worst:.3f}x the rtol={rtol} tolerance")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 2: parameter count and weight-file size


def test_02_parameter_count_and_file_size(full_size_params, tmp_path, capsys):
    n_from_tensors = param_count(full_size_params)
    n_from_dims = param_count_for(full_size_params.dims)
    path = tmp_path / "full_size.bxw"
    save_model(full_size_params, path)
    size_bytes = path.stat().st_size
    size_mb = size_bytes / 1e6
    lo, hi = WEIGHT_FILE_MB_RANGE
    ok = (n_from_tensors == EXPECTED_PARAM_COUNT
          and n_from_dims == EXPECTED_PARAM_COUNT
          and lo <= size_mb <= hi)
    _report(capsys, 2, _verdict(ok),
            f"{n_from_tensors:,} parameters (expected {EXPECTED_PARAM_COUNT:,}); "
            f"float32 file {size_bytes:,} bytes = {size_mb:.4f} MB "
            f"(expected in [{lo}, {hi}])")
    assert n_from_tensors == EXPECTED_PARAM_COUNT
    assert n_from_dims == EXPECTED_PARAM_COUNT
    assert lo <= size_mb <= hi


# ---------------------------------------------------------------------------
# criterion 3: concatenation vs prefix-sum oracle


def _prefix_sum_oracle(deltas, anchor):
    """Independent sequential prefix sum in plain Python floats, column by
    column in the same left-to-right order the layer accumulates."""
    running = [float(v) for v in anchor]
    rows = []
    for step in np.asarray(deltas, dtype=np.float64):
        running = [running[c] + float(step[c]) for c in range(4)]
        rows.append(list(running))
    return np.array(rows, dtype=np.float64)


def test_03_concatenation_prefix_sum_oracle(capsys):
    rng = np.random.default_rng(33)
    n_exact = 0
    # 1000 draws on the dyadic grid (multiples of 1/8, bounded): sums are
    # exactly representable, so BOTH the oracle match and the per-step
    # difference invariant must be bit-exact
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        anchor = rng.integers(-800, 800, size=4) / 8.0
        deltas = rng.integers(-64, 64, size=(p, 4)) / 8.0
        boxes = concat_trajectory(deltas, anchor)
        assert np.array_equal(boxes, _prefix_sum_oracle(deltas, anchor))
        diffs = np.diff(np.vstack([anchor, boxes]), axis=0)
        assert np.array_equal(diffs, deltas)
        n_exact += 1
    # continuous draws: identical summation order still means bitwise equality
    n_continuous = 0
    for _ in range(200):
        p = int(rng.integers(1, 9))
        anchor = rng.normal(0.0, 200.0, size=4)
        deltas = rng.normal(0.0, 3.0, size=(p, 4))
        boxes = concat_trajectory(deltas, anchor)
        assert np.array_equal(boxes, _prefix_sum_oracle(deltas, anchor))
        n_continuous += 1
    _report(capsys, 3, "PASS",
            f"{n_exact} dyadic cases bit-equal to the prefix-sum oracle with "
            f"exact per-step differences; {n_continuous} continuous cases "
            f"bit-equal under identical summation order")


# ---------------------------------------------------------------------------
# criterion 4: overfit sanity


def test_04_overfit_noiseless_constant_velocity(overfit_run, capsys):
    """20 noiseless constant-velocity tracks, hidden=64, 200 epochs:
    training-set ADE must fall below 2 px in under 10 minutes."""
    ade = overfit_run["train_ade"]
    elapsed = overfit_run["elapsed_s"]
    ok = ade < 2.0 and elapsed < 600.0
    _report(capsys, 4, _verdict(ok),
            f"training-set ADE {ade:.4f} px (target < 2) after 200 epochs "
            f"in {elapsed:.1f}s (limit 600s, one core)")
    assert ade < 2.0, f"training-set ADE {ade:.4f} px did not reach < 2 px"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 5: generalization sanity


def test_05_generalization_against_baselines(overfit_run, capsys):
    """The criterion-4 model on 20 held-out tracks from the same kinematic
    family (new seed): ADE must beat the stationary baseline, and its excess
    over the constant-velocity baseline must be at most a third of the
    stationary baseline's excess over it:

        model_ade - cv_ade <= (stationary_ade - cv_ade) / 3

    The clause first read "within 3x the constant-velocity ADE". On these
    noiseless tracks that baseline repeats the generating per-frame change
    exactly, so its ADE is floating-point roundoff (~1.3e-13 px) and 3x of
    it is a bound no trained regressor can meet. The gap between the two
    baselines is the non-zero scale that "close to the kinematic baseline"
    needs; it keeps both baselines in the comparison and stays meaningful
    on data where the constant-velocity baseline is not exact. Measured on
    two hosts and at training seeds 0-3: bound 15.35 px against model ADE
    4.87-5.59 px, a margin of 2.7-3.2x.

    Negative control: an untrained model of the criterion-4 dims (~44.2 px,
    which does beat the stationary baseline's ~46.0 px) must fail the
    clause, so the clause can fail."""
    held_out = slice_all_minitracks(
        synth_tracks(replace(CV_FAMILY, seed=999), 20), window=90, stride=30)
    model_ade = evaluate(overfit_run["params"], held_out).ade
    untrained_ade = evaluate(
        init_params(overfit_run["params"].dims, seed=0), held_out).ade
    stationary_ade = evaluate_baseline("stationary", held_out, k=30, p=60).ade
    cv_ade = evaluate_baseline("constant-velocity", held_out, k=30, p=60).ade
    bound = cv_ade + (stationary_ade - cv_ade) / KINEMATIC_GAP_FACTOR
    beats_stationary = model_ade < stationary_ade
    within_bound = model_ade <= bound
    control_rejected = untrained_ade > bound
    ok = beats_stationary and within_bound and control_rejected
    _report(capsys, 5, _verdict(ok),
            f"model ADE {model_ade:.4f} px on held-out tracks; stationary "
            f"baseline {stationary_ade:.4f} (beats it: {beats_stationary}); "
            f"constant-velocity baseline {cv_ade:.3e}; bound cv + "
            f"(stationary - cv)/{KINEMATIC_GAP_FACTOR:g} = {bound:.4f} "
            f"(within it: {within_bound}, margin {bound / model_ade:.2f}x); "
            f"untrained control ADE {untrained_ade:.4f} (rejected: "
            f"{control_rejected})")
    assert beats_stationary, (
        f"model ADE {model_ade:.4f} is not below the stationary baseline's "
        f"{stationary_ade:.4f}")
    assert within_bound, (
        f"model ADE {model_ade:.4f} exceeds the bound {bound:.4f} = cv + "
        f"(stationary - cv)/{KINEMATIC_GAP_FACTOR:g} (constant-velocity "
        f"{cv_ade:.3e}, stationary {stationary_ade:.4f}): its excess over the "
        f"constant-velocity baseline is more than a third of the stationary "
        f"baseline's. The gap is the reference scale because on noiseless "
        f"tracks the constant-velocity ADE alone is roundoff (~1e-13 px)")
    assert control_rejected, (
        f"an untrained model (ADE {untrained_ade:.4f}) passes the bound "
        f"{bound:.4f}, so the clause cannot tell trained from untrained")


# ---------------------------------------------------------------------------
# criterion 6: ablation direction


def test_06_loss_mode_ordering_on_noisy_data(capsys):
    """Noisy family (sigma = 2 px), 200 training tracks, 100 held-out
    tracks; median over seeds (0, 1, 2) of final ADE must satisfy
    traj+auto-enc <= traj <= traj-del, each link with 5% slack."""
    noisy = replace(CV_FAMILY, noise_std=2.0)
    train_minis = slice_all_minitracks(
        synth_tracks(replace(noisy, seed=500), 200), window=90, stride=30)
    eval_minis = slice_all_minitracks(
        synth_tracks(replace(noisy, seed=1500), 100), window=90, stride=30)
    seeds = (0, 1, 2)
    slack = 1.05
    t0 = time.perf_counter()
    medians = {}
    for mode in LOSS_MODES:
        ades = []
        for seed in seeds:
            cfg = TrainConfig(hidden=64, latent=32, batch_size=50, epochs=30,
                              base_lr=0.005, halve_every=10, seed=seed,
                              loss_mode=mode)
            params, _ = train(cfg, train_minis)
            ades.append(evaluate(params, eval_minis).ade)
        medians[mode] = float(np.median(ades))
    elapsed = time.perf_counter() - t0
    autoenc_le_traj = medians[MODE_TRAJ_AUTOENC] <= slack * medians[MODE_TRAJ]
    traj_le_del = medians[MODE_TRAJ] <= slack * medians[MODE_TRAJ_DEL]
    ok = autoenc_le_traj and traj_le_del
    _report(capsys, 6, _verdict(ok),
            f"median ADE over seeds {seeds}: traj-del "
            f"{medians[MODE_TRAJ_DEL]:.3f}, traj {medians[MODE_TRAJ]:.3f}, "
            f"traj+auto-enc {medians[MODE_TRAJ_AUTOENC]:.3f}; ordering with "
            f"5% slack holds: {ok} ({elapsed:.0f}s for 9 runs)")
    assert autoenc_le_traj, (
        f"traj+auto-enc median {medians[MODE_TRAJ_AUTOENC]:.4f} exceeds "
        f"{slack} x traj median {medians[MODE_TRAJ]:.4f}")
    assert traj_le_del, (
        f"traj median {medians[MODE_TRAJ]:.4f} exceeds {slack} x traj-del "
        f"median {medians[MODE_TRAJ_DEL]:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: throughput benchmark


def test_07_throughput_benchmark(full_size_params, capsys):
    """The benchmark must complete and report TPS at the full model size.
    The >= 20 TPS single-thread floor and the multi > single comparison
    apply on a >= 4-core machine; measured numbers are always reported."""
    cores = os.cpu_count() or 1
    single = benchmark_tps(full_size_params, threads=1, duration=1.0,
                           n_windows=16, seed=0)
    detail = (f"single-thread {single.trajectories_per_second:.2f} TPS "
              f"(= {single.equivalent_fps:.0f} frames/s, "
              f"{single.n_predictions} forecasts in {single.elapsed_s:.2f}s; "
              f"1 BLAS thread (child process), "
              f"os.cpu_count() {os.cpu_count()})")
    hardware_ok = True
    if cores >= 4:
        multi = benchmark_tps(full_size_params, threads=4, duration=1.0,
                              n_windows=16, seed=0)
        hardware_ok = (single.trajectories_per_second >= 20.0
                       and multi.trajectories_per_second
                       > single.trajectories_per_second)
        detail += (f"; 4 BLAS threads {multi.trajectories_per_second:.2f} TPS "
                   f"(floor and scaling asserted: {hardware_ok})")
    else:
        detail += (f"; host has {cores} core(s), so the >= 4-core floor "
                   f"(>= 20 TPS) and scaling assertions do not apply")
    detail += f"; reference points for context: {REFERENCE_TPS_POINTS}"
    ok = single.n_predictions > 0 and single.trajectories_per_second > 0 \
        and hardware_ok
    _report(capsys, 7, _verdict(ok), detail)
    assert single.n_predictions > 0
    assert single.trajectories_per_second > 0.0
    assert single.equivalent_fps == pytest.approx(
        single.trajectories_per_second * 60)
    if cores >= 4:
        assert single.trajectories_per_second >= 20.0
        assert multi.trajectories_per_second > single.trajectories_per_second


# ---------------------------------------------------------------------------
# criterion 8: metric closed forms


def test_08_metric_closed_forms(capsys):
    p = 60
    t = np.arange(1, p + 1, dtype=np.float64)
    gt = np.stack([2.0 * t, 1.5 * t, np.full(p, 8.0), np.full(p, 6.0)],
                  axis=1)

    # constant (3, 4) centroid offset: every step's distance is exactly 5
    offset = np.zeros((p, 4))
    offset[:, 0] = 3.0
    offset[:, 1] = 4.0
    r = evaluate_predictions((gt + offset)[None], gt[None], input_k=30)
    assert r.ade == 5.0
    assert r.fde == 5.0
    assert all(r.fde_at[step] == 5.0 for step in range(1, p + 1))

    # linear divergence along one axis: distance at step t is exactly t,
    # so fde_at(t) = t, FDE = p, and ADE = (1 + ... + p)/p = 30.5 exactly
    divergence = np.zeros((p, 4))
    divergence[:, 0] = t
    r2 = evaluate_predictions((gt + divergence)[None], gt[None], input_k=30)
    assert all(r2.fde_at[step] == float(step) for step in range(1, p + 1))
    assert r2.fde == float(p)
    assert r2.ade == 30.5

    _report(capsys, 8, "PASS",
            "constant (3,4) offset gives ADE = FDE = fde_at(t) = 5 exactly; "
            "linear divergence gives fde_at(t) = t, FDE = 60, ADE = 30.5 "
            "exactly")


# ---------------------------------------------------------------------------
# criterion 9: external-dataset reproduction (conditional)


def test_09_external_tracks_three_fold_protocol(capsys):
    """Runs only when BOXCAST_EVAL_TRACKS points at a tracking CSV (or a
    directory of them): full 3-fold cross-validation at the default
    protocol, mean-of-folds ADE/FDE compared to the reference values
    21.61/44.77 within +-10%. The folds are the (train, test) tracks
    of `split_folds`, as in `train --folds`. Skipped otherwise: the
    protocol needs a real multi-thousand-track dataset, which this
    repository does not ship."""
    source = os.environ.get("BOXCAST_EVAL_TRACKS", "")
    if not source:
        _report(capsys, 9, "SKIP",
                "no external tracking CSVs supplied; set BOXCAST_EVAL_TRACKS "
                "to a CSV file or directory (add BOXCAST_EVAL_TRACKS_CORNER=1 "
                "for corner-format boxes) to run the 3-fold protocol")
        pytest.skip("BOXCAST_EVAL_TRACKS not set")
    corner = os.environ.get("BOXCAST_EVAL_TRACKS_CORNER", "") == "1"
    root = Path(source)
    paths = sorted(root.glob("*.csv")) if root.is_dir() else [root]
    tracks = []
    for path in paths:
        tracks.extend(parse_tracks(path, corner))
    reports = []
    for train_tracks, test_tracks in split_folds(tracks, n_folds=3, seed=0):
        params, _ = train(TrainConfig(),
                          slice_all_minitracks(train_tracks, 90, 30))
        reports.append(
            evaluate(params, slice_all_minitracks(test_tracks, 90, 30)))
    summary = summarize_folds(reports)
    ref_ade, ref_fde = REFERENCE_ADE_FDE
    ade_ok = abs(summary["ade"] - ref_ade) <= 0.10 * ref_ade
    fde_ok = abs(summary["fde"] - ref_fde) <= 0.10 * ref_fde
    ok = ade_ok and fde_ok
    _report(capsys, 9, _verdict(ok),
            f"3-fold mean ADE {summary['ade']:.2f} (reference {ref_ade} "
            f"+-10%: {ade_ok}), FDE {summary['fde']:.2f} (reference "
            f"{ref_fde} +-10%: {fde_ok}) over {summary['n_samples']} samples")
    assert ade_ok, (f"3-fold ADE {summary['ade']:.2f} outside "
                    f"{ref_ade} +-10%")
    assert fde_ok, (f"3-fold FDE {summary['fde']:.2f} outside "
                    f"{ref_fde} +-10%")
