"""Track ingestion, mini-track slicing, fold splitting, frame-rate
subsampling, and a synthetic-track generator used as the desk-scale dataset.

Track CSVs are UTF-8 with header ``video_id,track_id,frame,cx,cy,w,h`` and
one detection per row, pixels as floats. A corner-format variant
(``x1,y1,x2,y2`` columns) can be converted at parse time.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, ParseError

CENTROID_HEADER = ["video_id", "track_id", "frame", "cx", "cy", "w", "h"]
CORNER_HEADER = ["video_id", "track_id", "frame", "x1", "y1", "x2", "y2"]

SYNTH_KINDS = ("constant-velocity", "constant-acceleration", "sinusoidal",
               "stop-and-go")

__all__ = [
    "Box",
    "CsvFormat",
    "FoldSplit",
    "MiniTrack",
    "SYNTH_KINDS",
    "SynthSpec",
    "Track",
    "box_fields",
    "boxes_to_array",
    "parse_tracks",
    "slice_all_minitracks",
    "slice_minitracks",
    "split_folds",
    "subsample",
    "synth_tracks",
    "write_tracks",
]


@dataclass(frozen=True)
class Box:
    """One detection: centroid, size and frame index, all in source pixels."""

    cx: float
    cy: float
    w: float
    h: float
    frame: int


def boxes_to_array(boxes) -> np.ndarray:
    """(n, 4) float array of (cx, cy, w, h) rows."""
    return box_fields(boxes, len(boxes))[0]


_BOX_FIELDS = operator.attrgetter("cx", "cy", "w", "h", "frame")
_BOX_RECORD = np.dtype([("cx", np.float64), ("cy", np.float64),
                        ("w", np.float64), ("h", np.float64),
                        ("frame", np.int64)])


def box_fields(boxes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 4) float (cx, cy, w, h) rows and the (count,) int frames
    of ``count`` Box records from any iterable, gathered in one pass."""
    rec = np.fromiter(map(_BOX_FIELDS, boxes), dtype=_BOX_RECORD, count=count)
    return (np.stack([rec["cx"], rec["cy"], rec["w"], rec["h"]], axis=-1),
            rec["frame"])


@dataclass
class Track:
    """One tracked person in one video: boxes on strictly consecutive frames."""

    video_id: str
    track_id: str
    boxes: list[Box]
    frame_rate_hz: float = 30.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.video_id, self.track_id)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass
class MiniTrack:
    """A contiguous (k + p)-box slice of a track, plus the box immediately
    before the slice when the track has one (used for the first delta row)."""

    video_id: str
    track_id: str
    start_frame: int
    boxes: list[Box]
    predecessor: Box | None = None

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class CsvFormat:
    """Input CSV dialect: corner columns are converted to centroid/size."""

    corner_format: bool = False
    frame_rate_hz: float = 30.0


def parse_tracks(path, fmt: CsvFormat = CsvFormat()) -> list[Track]:
    """Read a track CSV into Track records.

    Rows group by (video_id, track_id) and sort by frame. A group whose
    frames have gaps is split at every gap into separate tracks whose ids
    get a ``~<segment>`` suffix. An empty file (header only or nothing)
    yields an empty list. A malformed file raises ParseError naming the
    1-based physical line at fault: bytes that are not UTF-8, CSV syntax,
    a wrong column count, a field that is not a number, a frame outside
    int64, a non-finite or non-positive box, or a frame repeated within a
    track (the line of the later row).
    """
    expected = CORNER_HEADER if fmt.corner_format else CENTROID_HEADER
    groups: dict[tuple[str, str], list[tuple[int, int, Box]]] = {}
    records = _records(_read_utf8(path))
    first = next(records, None)
    if first is None:
        return []
    if [c.strip() for c in first[1]] != expected:
        raise ParseError(
            f"header {first[1]!r} does not match expected {expected!r}",
            line=1)
    for line, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ParseError(f"expected 7 columns, got {len(row)}", line=line)
        try:
            frame = int(row[2])
            vals = [float(v) for v in row[3:7]]
        except ValueError as e:
            raise ParseError(f"bad numeric field: {e}", line=line) from None
        if not -2**63 <= frame < 2**63:  # `box_fields` gathers int64 frames
            raise ParseError(f"frame {frame} is outside the int64 range",
                             line=line)
        if fmt.corner_format:
            x1, y1, x2, y2 = vals
            vals = [(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1]
        cx, cy, w, h = vals
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite box fields", line=line)
        if w <= 0 or h <= 0:
            raise ParseError(f"non-positive box size w={w}, h={h}", line=line)
        groups.setdefault((row[0].strip(), row[1].strip()), []).append(
            (frame, line, Box(cx=cx, cy=cy, w=w, h=h, frame=frame)))

    tracks: list[Track] = []
    for (video_id, track_id), rows in groups.items():
        rows.sort()  # by frame, then line: lines are unique
        segments: list[list[Box]] = []
        prev = None
        for frame, line, box in rows:
            if frame == prev:
                raise ParseError(f"track ({video_id}, {track_id}) has "
                                 f"duplicate frame {prev}", line=line)
            if prev is None or frame != prev + 1:
                segments.append([])
            segments[-1].append(box)
            prev = frame
        for si, boxes in enumerate(segments):
            tid = track_id if len(segments) == 1 else f"{track_id}~{si}"
            tracks.append(Track(video_id=video_id, track_id=tid, boxes=boxes,
                                frame_rate_hz=fmt.frame_rate_hz))
    return tracks


def _records(text: str):
    """Each CSV record of ``text`` with the physical line it ends on. A CSV
    syntax error, such as a field over the csv module's size limit, is a
    ParseError at the line where it was seen."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise ParseError(f"malformed CSV: {e}", line=reader.line_num) from None


def _read_utf8(path) -> str:
    """The file's text; ParseError naming the line of the first byte that
    is not valid UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         line=raw.count(b"\n", 0, e.start) + 1) from None


def write_tracks(tracks, path) -> None:
    """Write tracks in the centroid CSV schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CENTROID_HEADER)
        for t in tracks:
            for b in t.boxes:
                writer.writerow([t.video_id, t.track_id, b.frame,
                                 repr(b.cx), repr(b.cy), repr(b.w), repr(b.h)])


def slice_minitracks(track: Track, window: int = 90,
                     stride: int = 30) -> list[MiniTrack]:
    """Sliding-window slices: offsets 0, stride, 2*stride, ... while a full
    window fits. Slices starting past the first box carry the preceding box
    so the first delta row of the feature window is real. Short tracks give
    an empty list.
    """
    if window < 2:
        raise ConfigError(f"window must be at least 2, got {window}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    out = []
    boxes = track.boxes
    for offset in range(0, len(boxes) - window + 1, stride):
        out.append(MiniTrack(
            video_id=track.video_id,
            track_id=track.track_id,
            start_frame=boxes[offset].frame,
            boxes=boxes[offset:offset + window],
            predecessor=boxes[offset - 1] if offset > 0 else None,
        ))
    return out


def slice_all_minitracks(tracks, window: int = 90, stride: int = 30
                         ) -> list[MiniTrack]:
    out = []
    for t in tracks:
        out.extend(slice_minitracks(t, window, stride))
    return out


@dataclass
class FoldSplit:
    """Assignment of whole tracks to folds.

    Splitting is always by track, never by mini-track, so overlapping
    windows of one track can never straddle the train/test boundary.
    """

    n_folds: int
    seed: int
    folds: list[list[tuple[str, str]]]

    def test_keys(self, fold: int) -> set[tuple[str, str]]:
        return set(self.folds[fold])

    def train_keys(self, fold: int) -> set[tuple[str, str]]:
        keys: set[tuple[str, str]] = set()
        for i, f in enumerate(self.folds):
            if i != fold:
                keys.update(f)
        return keys


def split_folds(tracks, n_folds: int = 3, seed: int = 0) -> FoldSplit:
    """Seeded shuffle then round-robin assignment of tracks to folds."""
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    keys = [t.key for t in tracks]
    if len(set(keys)) != len(keys):
        raise DataError("duplicate track keys in fold input")
    if len(keys) < n_folds:
        raise ConfigError(
            f"cannot split {len(keys)} tracks into {n_folds} folds")
    order = np.random.default_rng(seed).permutation(len(keys))
    folds: list[list[tuple[str, str]]] = [[] for _ in range(n_folds)]
    for j, idx in enumerate(order):
        folds[j % n_folds].append(keys[int(idx)])
    return FoldSplit(n_folds=n_folds, seed=seed, folds=folds)


@dataclass
class SynthSpec:
    """Generator settings for synthetic tracks.

    Kinds: 'constant-velocity' moves the centroid by ``velocity`` per frame;
    'constant-acceleration' adds ``0.5 * accel * i^2``; 'sinusoidal' adds a
    lateral sine (amplitude pixels, period frames) perpendicular to the
    velocity; 'stop-and-go' alternates moving and standing segments whose
    lengths draw uniformly from ``go_frames`` / ``stop_frames``.

    Width and height follow a linear law ``size + size_rate * i`` floored at
    1 px. ``start_jitter`` / ``velocity_jitter`` draw per-track uniform
    offsets so one spec yields a family of distinct tracks; ``noise_std``
    adds i.i.d. Gaussian pixel noise to every stored component.
    """

    kind: str = "constant-velocity"
    length: int = 90
    start: tuple[float, float] = (320.0, 240.0)
    size: tuple[float, float] = (40.0, 80.0)
    velocity: tuple[float, float] = (2.0, 1.0)
    accel: tuple[float, float] = (0.0, 0.0)
    size_rate: tuple[float, float] = (0.0, 0.0)
    amplitude: float = 10.0
    period: float = 30.0
    go_frames: tuple[int, int] = (20, 40)
    stop_frames: tuple[int, int] = (10, 30)
    noise_std: float = 0.0
    start_jitter: float = 0.0
    velocity_jitter: float = 0.0
    seed: int = 0
    frame_rate_hz: float = 30.0

    def validate(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"unknown synthetic kind {self.kind!r}; pick one of {SYNTH_KINDS}")
        if self.length < 1:
            raise ConfigError(f"length must be at least 1, got {self.length}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.size[0] <= 0 or self.size[1] <= 0:
            raise ConfigError(f"start size must be positive, got {self.size}")
        if self.period <= 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if self.start_jitter < 0 or self.velocity_jitter < 0:
            raise ConfigError("jitter values must be >= 0")
        for name in ("go_frames", "stop_frames"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise ConfigError(f"{name} must satisfy 1 <= lo <= hi, "
                                  f"got ({lo}, {hi})")


def synth_tracks(spec: SynthSpec, count: int) -> list[Track]:
    """Generate ``count`` tracks from one spec and one seeded stream.

    With all jitters and noise at zero the centroids follow the closed-form
    kinematics exactly. Per-track draws happen in a fixed order, so a fixed
    seed fixes every box.
    """
    spec.validate()
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(spec.seed)
    tracks = []
    for idx in range(count):
        start = np.array(spec.start) + rng.uniform(
            -spec.start_jitter, spec.start_jitter, 2)
        vel = np.array(spec.velocity) + rng.uniform(
            -spec.velocity_jitter, spec.velocity_jitter, 2)
        i = np.arange(spec.length, dtype=np.float64)
        if spec.kind == "constant-velocity":
            centroid = start + vel * i[:, None]
        elif spec.kind == "constant-acceleration":
            centroid = start + vel * i[:, None] \
                + 0.5 * np.array(spec.accel) * (i * i)[:, None]
        elif spec.kind == "sinusoidal":
            speed = float(np.hypot(*vel))
            normal = np.array([-vel[1], vel[0]]) / speed if speed > 0 \
                else np.array([0.0, 1.0])
            sway = spec.amplitude * np.sin(2.0 * np.pi * i / spec.period)
            centroid = start + vel * i[:, None] + sway[:, None] * normal
        else:  # stop-and-go
            moving = np.zeros(spec.length, dtype=bool)
            pos = 0
            go = True
            while pos < spec.length:
                lo, hi = spec.go_frames if go else spec.stop_frames
                seg = int(rng.integers(lo, hi + 1))
                if go:
                    moving[pos:pos + seg] = True
                pos += seg
                go = not go
            steps = np.concatenate([[0.0], np.cumsum(moving[1:])])
            centroid = start + vel * steps[:, None]
        sizes = np.maximum(
            1.0, np.array(spec.size) + np.array(spec.size_rate) * i[:, None])
        arr = np.concatenate([centroid, sizes], axis=1)
        arr = arr + rng.normal(0.0, spec.noise_std, arr.shape)
        arr[:, 2:] = np.maximum(1.0, arr[:, 2:])
        boxes = [Box(cx=float(r[0]), cy=float(r[1]), w=float(r[2]),
                     h=float(r[3]), frame=f)
                 for f, r in enumerate(arr)]
        tracks.append(Track(video_id="synth", track_id=f"{spec.kind}-{idx:04d}",
                            boxes=boxes, frame_rate_hz=spec.frame_rate_hz))
    return tracks


def subsample(track: Track, factor: int) -> Track:
    """Keep every ``factor``-th box, renumber frames consecutively, and
    divide the frame rate (e.g. factor 2 turns 30 Hz into 15 Hz)."""
    if not (isinstance(factor, int) and factor >= 1):
        raise ConfigError(f"factor must be an integer >= 1, got {factor!r}")
    if factor == 1:
        return replace(track, boxes=list(track.boxes))
    kept = track.boxes[::factor]
    boxes = [replace(b, frame=j) for j, b in enumerate(kept)]
    return Track(video_id=track.video_id, track_id=track.track_id,
                 boxes=boxes, frame_rate_hz=track.frame_rate_hz / factor)
