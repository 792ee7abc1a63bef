"""Tests of the benchmark itself, at a small model width so they run fast.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from boxcast import data, evaluation, model

import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SMALL = model.ModelDims(k=30, p=60, hidden=16, latent=8)


def _make(cls, seed, workdir):
    workdir.mkdir()
    return cls(seed, workdir, dims=SMALL)


def _fingerprint(w, workdir) -> str:
    """Hash of everything a workload hands the program."""
    h = hashlib.sha256()
    for f in sorted(workdir.iterdir()):
        h.update(f.read_bytes())
    for t in getattr(w, "tracks", []) + getattr(w, "minitracks", []):
        h.update(data.boxes_to_array(t.boxes).tobytes())
        h.update(repr(getattr(t, "predecessor", None)).encode())
    h.update(repr(getattr(w, "cfg", None)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = _make(cls, 7, tmp_path / "a")
    b = _make(cls, 7, tmp_path / "b")
    assert _fingerprint(a, tmp_path / "a") == _fingerprint(b, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = _make(cls, 7, tmp_path / "a")
    b = _make(cls, 8, tmp_path / "b")
    assert _fingerprint(a, tmp_path / "a") != _fingerprint(b, tmp_path / "b")


def _bound_names():
    return [(m, a, getattr(m, a)) for m, a, _, _ in tracing.targets()]


def test_traced_run_restores_every_rebound_name(tmp_path):
    originals = _bound_names()
    w = _make(workloads.Stream, 0, tmp_path / "w")
    out = measure.measure(w, 0.05, trace=True)
    assert out.failed == 0
    assert any(s[tracing.NAME] == "nn.lstm_step.dec" for s in out.tracer.spans)
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr}"


def test_instrumented_rebinds_and_restores_on_error():
    originals = _bound_names()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer()):
            for module, attr, fn in originals:
                assert getattr(module, attr).__wrapped__ is fn
            raise RuntimeError("inside the traced region")
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["b", 5.0, 6.0, 0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    tot = tracing.span_totals(spans)
    assert tot["b"]["calls"] == 2 and tot["b"]["s"] == 4.0
    assert tot["b"]["self_s"] == 3.0


def test_wrong_forecast_counts_as_failed(tmp_path):
    w = _make(workloads.Stream, 0, tmp_path / "w")
    w.setup()
    n = workloads.STREAM_CHECK_EVERY + 1
    good = [w.op(i) for i in range(n)]
    assert w.check(good) == [True] * n
    shifted = w.check([g + 0.5 for g in good])
    assert shifted[0] is False and shifted[-1] is False
    nan = good[0].copy()
    nan[3, 1] = np.nan
    assert w.check([nan]) == [False]
    assert w.check([good[0][:-1]]) == [False]


def test_wrong_forecast_fails_the_run(tmp_path, monkeypatch):
    w = _make(workloads.Stream, 0, tmp_path / "w")
    real = model.predict
    monkeypatch.setattr(model, "predict",
                        lambda *a, **kw: real(*a, **kw) + 0.5)
    out = measure.measure(w, 0.05, trace=False)
    assert out.failed >= 1 and not out.correct


def test_wrong_baseline_fails_every_pass(tmp_path, monkeypatch):
    w = _make(workloads.Dataset, 0, tmp_path / "w")
    w.setup()
    assert w.check([w.op(0)]) == [True]
    real = evaluation.baseline_predict
    monkeypatch.setattr(evaluation, "baseline_predict",
                        lambda *a: real(*a) + 1e-6)
    assert w.check([w.op(0)]) == [False]


def test_train_determinism_check(tmp_path):
    w = _make(workloads.Train, 0, tmp_path / "w")
    a, b = (w.digest(w.op(i)) for i in range(2))
    assert a == b and w.check([a, b]) == [True, True]
    b.params_sha256 = "0" * 64
    assert w.check([a, b]) == [True, False]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metrics_match_benchmark_json(name, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = _make(workloads.WORKLOADS[name], 0, tmp_path / "w")
    plain = measure.measure(w, 0.0, trace=False)
    traced = measure.measure(w, 0.0, trace=True)
    assert plain.failed == 0 and traced.failed == 0
    assert set(plain.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced.metrics) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for metrics in (plain.metrics, traced.metrics):
        for metric, (_, unit) in metrics.items():
            assert units[metric] == unit, metric


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
