"""The bit ledger: SHA-256 digests of the outputs whose bits are a contract.

    PYTHONPATH=src python tests/bit_ledger.py

recomputes every entry in this environment and writes it into
``bit_ledger.json`` next to this file, printing any entry whose digest
changed. ``test_bit_ledger.py`` recomputes the same entries and compares
them; it never writes the file.

Two kinds of entry:

- ``weight_files``: the ``save_model`` bytes of seeded ``init_params``
  models. No BLAS product makes them, so one set holds everywhere.
- ``environments``: forecasts, ``loss_and_grads`` results and the result
  files of one tiny command-line run, which come from BLAS products and so
  may round apart from one BLAS build, CPU or thread count to another.
  Each record is keyed by `environment_stamp`; a test run whose stamp has
  no record skips these entries.

The entries cover each class of the recurrent product's tiling (one row,
small tiled batches, one product, and the two-block forecast set), the
training step in every loss mode, carry on and off, untiled and tiled, and
the files that `synth`, `train` (one model and two folds), `eval` and
`predict` write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from boxcast import model
from boxcast.cli import main as cli_main
from boxcast.model import (LOSS_MODES, LossWeights, ModelDims, init_params,
                           loss_and_grads, predict_from_window)
from boxcast.training import save_model

LEDGER = Path(__file__).with_name("bit_ledger.json")

FULL = ModelDims(k=30, p=60)
SMALL = ModelDims(k=30, p=60, hidden=32, latent=16)
# hidden 64 at 50 rows: each step runs two row tiles of ``wh``
TILED = ModelDims(k=30, p=60, hidden=64, latent=32)
FORECAST_ROWS = (1, 2, 6, 12, 13, 70)
CLI_FILES = ("synth.csv", "train/model.bxw", "train/history.csv",
             "train-folds/cv_summary.csv", "train-folds/fold_0/model.bxw",
             "train-folds/fold_1/model.bxw", "eval/metrics.csv",
             "eval/per_step.csv", "predict.csv")


def environment_stamp() -> dict:
    """What a BLAS product's bits may depend on: the numpy version, its
    BLAS build, the CPU model, the BLAS thread-count variables (None when
    unset) and the CPUs this process may run on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "?")) for key in
                         ("name", "version", "openblas configuration")),
        "cpu_model": cpu,
        **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _digest(*parts) -> str:
    """SHA-256 over bytes, strings and arrays (their dtype, shape and
    bytes), in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _tracks(dims: ModelDims, n: int, seed: int):
    """n random-walk tracks as (feature windows (n, k, 8), target boxes
    (n, p, 4)), each window built with its predecessor box."""
    rng = np.random.default_rng(seed)
    start = np.concatenate([rng.uniform(50.0, 150.0, (n, 1, 2)),
                            rng.uniform(8.0, 20.0, (n, 1, 2))], axis=-1)
    boxes = start + np.cumsum(
        rng.normal(0.0, 1.5, (n, dims.k + dims.p + 1, 4)), axis=1)
    boxes[..., 2:] = np.maximum(boxes[..., 2:], 1.0)
    window = model.feature_windows(boxes[:, :dims.k + 1], None,
                                   np.ones(n, dtype=bool))
    return window, boxes[:, dims.k + 1:]


@lru_cache(maxsize=None)
def _params(dims: ModelDims, dtype, carry: bool = True):
    return init_params(dims, seed=11, carry_cell_state=carry).astype(dtype)


def _weight_file(dims: ModelDims, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bxw"
        save_model(init_params(dims, seed=seed), path)
        return _digest(path.read_bytes())


def _forecast(n: int) -> str:
    window, _ = _tracks(FULL, n, seed=100 + n)
    return _digest(predict_from_window(_params(FULL, np.float32), window))


def _training(dims: ModelDims, dtype, n: int, mode: str, carry: bool
              ) -> str:
    window, targets = _tracks(dims, n, seed=200 + n)
    loss, terms, grads = loss_and_grads(
        _params(dims, dtype, carry), window, targets, LossWeights(mode=mode))
    return _digest(np.float64(loss),
                   *(p for name in sorted(terms)
                     for p in (name, np.float64(terms[name]))),
                   *(p for name, g in grads.items() for p in (name, g)))


@lru_cache(maxsize=None)
def _cli_run() -> dict[str, bytes]:
    """The result files of one tiny synth -> train -> train --folds 2 ->
    eval -> predict run, by their `CLI_FILES` name. ``history.csv`` loses
    its last column, the epoch's wall-clock seconds."""
    tiny = ["--k", "3", "--p", "4", "--hidden", "8", "--latent", "4",
            "--stride", "4"]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        data, weights = root / "synth.csv", root / "train" / "model.bxw"
        for argv in (
                ["synth", "--out", data, "--count", "6", "--length", "14",
                 "--seed", "3", "--start-jitter", "6"],
                ["train", "--out", root / "train", "--data", data, *tiny,
                 "--batch-size", "4", "--epochs", "2", "--seed", "5"],
                ["train", "--out", root / "train-folds", "--data", data,
                 *tiny, "--batch-size", "4", "--epochs", "2", "--seed", "5",
                 "--folds", "2"],
                ["eval", "--out", root / "eval", "--data", data,
                 "--weights", weights, "--stride", "4"],
                ["predict", "--out", root / "predict.csv",
                 "--data", data, "--weights", weights]):
            if cli_main([str(a) for a in argv]) != 0:
                raise RuntimeError(f"boxcast {argv[0]} failed")
        files = {name: (root / name).read_bytes() for name in CLI_FILES}
    files["train/history.csv"] = b"".join(
        line.rsplit(b",", 1)[0] + b"\n"
        for line in files["train/history.csv"].splitlines())
    return files


def weight_file_entries() -> dict[str, Callable[[], str]]:
    """Entry name -> the function that computes its digest, for the
    entries every environment shares."""
    return {f"save_model/hidden{dims.hidden}/seed{seed}":
            (lambda dims=dims, seed=seed: _weight_file(dims, seed))
            for dims in (SMALL, FULL) for seed in (0, 1)}


def environment_entries() -> dict[str, Callable[[], str]]:
    """Entry name -> the function that computes its digest, for the
    entries keyed by `environment_stamp`."""
    entries = {f"predict_from_window/f32-hidden512/n{n}":
               (lambda n=n: _forecast(n)) for n in FORECAST_ROWS}
    for dims, dtype, rows in ((SMALL, np.float64, (7, 130)),
                              (TILED, np.float32, (50,))):
        for n in rows:
            for mode in LOSS_MODES:
                for carry in (True, False):
                    name = (f"loss_and_grads/{np.dtype(dtype).name}-hidden"
                            f"{dims.hidden}/n{n}/{mode}/carry{int(carry)}")
                    entries[name] = (
                        lambda dims=dims, dtype=dtype, n=n, mode=mode,
                        carry=carry: _training(dims, dtype, n, mode, carry))
    for name in CLI_FILES:
        entries[f"cli/{name}"] = lambda name=name: _digest(_cli_run()[name])
    return entries


def load() -> dict:
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_entries(ledger: dict, stamp: dict) -> dict[str, str] | None:
    """The environment entries recorded under ``stamp``, or None."""
    return next((rec["entries"] for rec in ledger["environments"]
                 if rec["stamp"] == stamp), None)


def update(ledger: dict, stamp: dict, weight_files: dict[str, str],
           entries: dict[str, str]) -> list[str]:
    """Record ``weight_files`` and, under ``stamp``, ``entries`` in
    ``ledger``; returns the names whose recorded digest changed. The
    record of a stamp already in the ledger is replaced where it stands,
    and a new stamp's record goes last, so the order of the records does
    not depend on the order of the runs."""
    old = {**ledger["weight_files"],
           **(recorded_entries(ledger, stamp) or {})}
    changed = [name for name, d in {**weight_files, **entries}.items()
               if name in old and old[name] != d]
    ledger["weight_files"] = weight_files
    record = {"stamp": stamp, "entries": entries}
    records = ledger["environments"]
    i = next((i for i, rec in enumerate(records) if rec["stamp"] == stamp),
             len(records))
    records[i:i + 1] = [record]
    return changed


def main() -> int:
    ledger = load() if LEDGER.exists() else {"weight_files": {},
                                             "environments": []}
    stamp = environment_stamp()
    fresh = {name: fn() for name, fn in weight_file_entries().items()}
    env_fresh = {name: fn() for name, fn in environment_entries().items()}
    changed = update(ledger, stamp, fresh, env_fresh)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(fresh) + len(env_fresh)} entries under {stamp}")
    for name in changed:
        print(f"changed: {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
