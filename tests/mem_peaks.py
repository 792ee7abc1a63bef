"""Print the tracemalloc peaks of the weight-file and track-CSV paths, each
as a ratio to the bytes it moves.

    PYTHONPATH=src python tests/mem_peaks.py

Every path runs once untraced (imports and first-call caches) and then
once under tracemalloc, on seeded inputs written to a temporary directory:

- ``save``: `save_model` of full-size float64 parameters (k 30, p 60,
  hidden 512, latent 256), per payload byte;
- ``load``: `load_model` of that file, per payload byte;
- ``parse plain``: `parse_tracks` of a `write_tracks` file of four
  synthetic kinds, 12 tracks of 200 frames each (~1 MB, the file of
  `tests/test_data.py::TestParseMemory`), and of one with 36 tracks a kind
  (~3 MB), per input byte;
- ``parse csv``: the ~1 MB file with one id quoted, which sends it to the
  csv module's row reader, per input byte.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

from boxcast.data import (
    SYNTH_KINDS,
    SynthSpec,
    parse_tracks,
    synth_tracks,
    write_tracks,
)
from boxcast.model import ModelDims, init_params
from boxcast.training import load_model, param_count_for, save_model


def traced_peak(fn) -> int:
    """The peak bytes tracemalloc traces while ``fn()`` runs, after one
    untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def track_file(path: Path, per_kind: int) -> Path:
    tracks = []
    for i, kind in enumerate(SYNTH_KINDS):
        tracks += synth_tracks(SynthSpec(
            kind=kind, length=200, noise_std=0.5, start_jitter=100.0,
            velocity_jitter=1.0, seed=i), per_kind)
    write_tracks(tracks, path)
    return path


def main() -> int:
    dims = ModelDims(k=30, p=60, hidden=512, latent=256)
    payload = 4 * param_count_for(dims)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        weights = tmp / "m.bxw"
        params = init_params(dims, seed=0)
        rows = [("save", traced_peak(lambda: save_model(params, weights)),
                 payload)]
        del params
        rows.append(("load", traced_peak(lambda: load_model(weights)),
                     payload))
        plain = track_file(tmp / "plain.csv", 12)
        quoted = tmp / "quoted.csv"
        quoted.write_bytes(plain.read_bytes().replace(
            b",constant-velocity-0000,", b',"constant-velocity-0000",', 1))
        large = track_file(tmp / "large.csv", 36)
        for name, path in (("parse plain", plain), ("parse plain", large),
                           ("parse csv", quoted)):
            rows.append((name, traced_peak(lambda: parse_tracks(path)),
                         path.stat().st_size))
    for name, peak, size in rows:
        print(f"{name:12s} {size / 1e6:6.2f} MB  peak {peak / 1e6:6.2f} MB"
              f"  {peak / size:5.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
