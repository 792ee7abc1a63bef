"""Track ingestion, mini-track slicing, fold splitting, and a synthetic-track
generator used as the desk-scale dataset.

Track CSVs are UTF-8 with header ``video_id,track_id,frame,cx,cy,w,h`` and
one detection per row, pixels as floats. A corner-format variant
(``x1,y1,x2,y2`` columns) can be converted at parse time.

A track's boxes are a `Boxes`: a read-only (n, 4) float64 ``xywh`` array
and an (n,) int64 ``frames`` array. Slices and single boxes (`Box`) are
zero-copy views of those arrays, so parsing, mini-track slicing and
stacking copy no box row by row. `parse_tracks` has two readers. It
splits a plain file with `str.split`, converts each CSV column once and
checks every row with vectorised tests: 25 520 rows take ~45 ms on one
core of a 2-core Xeon VM, against ~52 ms through the csv module. Any
other file, or a plain one that fails a check, is read by the csv module
one row at a time, which also names the first faulty line.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import ConfigError, DataError, ParseError, ShapeError

CENTROID_HEADER = ["video_id", "track_id", "frame", "cx", "cy", "w", "h"]
CORNER_HEADER = ["video_id", "track_id", "frame", "x1", "y1", "x2", "y2"]

SYNTH_KINDS = ("constant-velocity", "constant-acceleration", "sinusoidal",
               "stop-and-go")

__all__ = [
    "Box",
    "Boxes",
    "CsvFormat",
    "FoldSplit",
    "MiniTrack",
    "SYNTH_KINDS",
    "SynthSpec",
    "Track",
    "boxes_to_array",
    "parse_tracks",
    "slice_all_minitracks",
    "slice_minitracks",
    "split_folds",
    "synth_tracks",
    "write_tracks",
]


class Boxes:
    """Boxes held as two read-only arrays.

    ``xywh`` is the (n, 4) float64 (cx, cy, w, h) rows and ``frames`` the
    (n,) int64 frame numbers. A slice is a zero-copy `Boxes` view and an
    int index (negative ones too) a zero-copy one-row `Box` view; ``+``
    concatenates and ``==`` compares values. A `Boxes` is not iterable, so
    numpy never unpacks one box by box: pass its arrays. The arrays given
    are viewed, not copied. Nothing about the boxes is checked here:
    frames need not be consecutive nor sizes positive.
    """

    __slots__ = ("xywh", "frames")

    def __init__(self, xywh, frames):
        xywh = np.asarray(xywh, dtype=np.float64).view()
        frames = np.asarray(frames, dtype=np.int64).view()
        if xywh.ndim != 2 or xywh.shape[1] != 4 \
                or frames.shape != xywh.shape[:1]:
            raise ShapeError(f"box rows have shape {xywh.shape} and frames "
                             f"{frames.shape}, expected (n, 4) and (n,)")
        xywh.flags.writeable = False
        frames.flags.writeable = False
        self.xywh = xywh
        self.frames = frames

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i):
        if isinstance(i, slice):
            view = Boxes.__new__(Boxes)
        else:
            j = range(len(self.frames))[i]  # IndexError past either end
            view, i = Box.__new__(Box), slice(j, j + 1)
        # a slice of a read-only array is a read-only view: no checks
        view.xywh, view.frames = self.xywh[i], self.frames[i]
        return view

    def __add__(self, other):
        if not isinstance(other, Boxes):
            return NotImplemented
        return Boxes(np.concatenate([self.xywh, other.xywh]),
                     np.concatenate([self.frames, other.frames]))

    def __eq__(self, other):
        if not isinstance(other, Boxes):
            return NotImplemented
        return bool(np.array_equal(self.xywh, other.xywh)
                    and np.array_equal(self.frames, other.frames))

    __hash__ = None
    __iter__ = None

    def __repr__(self) -> str:
        return f"Boxes(xywh={self.xywh!r}, frames={self.frames!r})"


class Box(Boxes):
    """One box: the one-row `Boxes` view an int index returns, with its
    frame number as ``frame``."""

    @property
    def frame(self) -> int:
        return int(self.frames[0])


def boxes_to_array(boxes: Boxes) -> np.ndarray:
    """The read-only (n, 4) (cx, cy, w, h) rows of ``boxes``."""
    return boxes.xywh


@dataclass
class Track:
    """One tracked person in one video: boxes on strictly consecutive
    frames."""

    video_id: str
    track_id: str
    boxes: Boxes

    @property
    def key(self) -> tuple[str, str]:
        return (self.video_id, self.track_id)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass
class MiniTrack:
    """A contiguous (k + p)-box view of a track, plus the `Box` immediately
    before the slice when the track has one (used for the first delta row).
    """

    video_id: str
    track_id: str
    start_frame: int
    boxes: Boxes
    predecessor: Box | None = None

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class CsvFormat:
    """Input CSV dialect: corner columns are converted to centroid/size."""

    corner_format: bool = False


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

    There are two readers. A plain file (no quote, no NUL, LF or CRLF
    line ends, seven fields on every line but blank ones) is split with
    `str.split`, and each column is converted once, over the whole file,
    and checked as a whole. Any other text, and a plain file that fails a
    check, is read by the csv module one record at a time, which converts
    and checks each row and names the first faulty line.
    """
    text = _read_utf8(path)
    keys, frames, xywh = _columns(text, fmt) or _rows(text, fmt)
    if not keys:
        return []
    key_ids = {key: j for j, key in enumerate(dict.fromkeys(keys))}
    kid = np.fromiter(map(key_ids.__getitem__, keys), dtype=np.int64,
                      count=len(keys))
    # lexsort is stable: rows of one key and frame keep their file order
    order = np.lexsort((frames, kid))
    kid, frames, xywh = kid[order], frames[order], xywh[order]
    same_key = kid[1:] == kid[:-1]
    # a step past the int64 range wraps to a negative value, never 0 or 1
    step = np.diff(frames)
    dup = np.flatnonzero(same_key & (step == 0))
    if dup.size:
        j = int(dup[0]) + 1
        video_id, track_id = keys[order[j]]
        raise ParseError(f"track ({video_id}, {track_id}) has duplicate "
                         f"frame {frames[j]}",
                         line=_data_line(text, int(order[j])))
    names = list(key_ids)
    bounds = [0, *(np.flatnonzero(~same_key | (step != 1)) + 1).tolist(),
              len(order)]
    n_segments = np.bincount(kid[bounds[:-1]]).tolist()
    tracks: list[Track] = []
    segment = 0
    for a, b in zip(bounds, bounds[1:]):
        key = int(kid[a])
        segment = segment + 1 if a and kid[a - 1] == key else 0
        video_id, track_id = names[key]
        if n_segments[key] > 1:
            track_id = f"{track_id}~{segment}"
        tracks.append(Track(video_id=video_id, track_id=track_id,
                            boxes=Boxes(xywh[a:b], frames[a:b])))
    return tracks


def _columns(text: str, fmt: CsvFormat):
    """(keys, frames, xywh) of the data rows of a plain ``text``: the
    stripped (video_id, track_id) of each row, its int64 frame, and its
    (n, 4) (cx, cy, w, h) box. None when the text is not plain or any
    record is faulty; `_rows` then reads it, making the same checks."""
    fields = _plain_fields(text)
    if fields is None or _header_error(fields[:7], fmt):
        return None
    del fields[:7]
    try:
        frames = np.array(list(map(int, fields[2::7])), dtype=np.int64)
        vals = np.array([list(map(float, fields[i::7])) for i in range(3, 7)])
    except (ValueError, OverflowError):
        return None
    if fmt.corner_format:
        x1, y1, x2, y2 = vals
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0,
                             x2 - x1, y2 - y1])
    if not (np.isfinite(vals).all() and (vals[2:] > 0).all()):
        return None
    keys = list(zip(map(str.strip, fields[0::7]),
                    map(str.strip, fields[1::7])))
    return keys, frames, vals.T


def _plain_fields(text: str) -> list[str] | None:
    """The fields of every line of ``text`` that is not blank, seven a
    line, split at commas and line feeds; None unless the text is plain.

    Plain text has no quote, no NUL (the csv module of Python 3.10
    rejects it), a line feed after every carriage return, no line longer
    than the csv module's field size limit (so no field is) and seven
    fields on every line but blank data lines. The csv module splits such
    a line at its commas alone, so both give the same fields, except that
    a CRLF line's last field keeps its CR: whitespace that the header
    check and `float` strip. Blank data lines are dropped, as `_rows`
    drops blank records.
    """
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the final line feed: no line to filter
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    counts = set(map(str.count, lines, repeat(",")))
    if 0 in counts:
        lines[1:] = [line for line in islice(lines, 1, None) if line.strip()]
        counts = set(map(str.count, lines, repeat(",")))
    if counts != {6}:
        return None
    # the line list is freed before the split, so it is never held
    # together with the field list
    text = ",".join(lines)
    del lines
    return text.split(",")


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _header_error(row: list[str], fmt: CsvFormat) -> ParseError | None:
    expected = CORNER_HEADER if fmt.corner_format else CENTROID_HEADER
    if [c.strip() for c in row] == expected:
        return None
    return ParseError(f"header {row!r} does not match expected {expected!r}",
                      line=1)


def _data_line(text: str, j: int) -> int:
    """The physical line of data row ``j`` of ``text``: the j-th record
    after the header that is not blank."""
    records = _records(text)
    next(records)
    lines = (line for line, row in records if not _blank(row))
    return next(islice(lines, j, None))


def _rows(text: str, fmt: CsvFormat):
    """`_columns` of any ``text``, read by the csv module one record at a
    time; blank records are dropped. Raises the ParseError of the first
    faulty record in file order: the header, then each row's CSV syntax,
    column count, numbers, frame range, and finite, positive box."""
    records = _records(text)
    first = next(records, None)
    err = first and _header_error(first[1], fmt)
    if err:
        raise err
    keys, frames, vals = [], [], []
    for line, row in records:
        if len(row) != 7:
            if _blank(row):
                continue
            raise ParseError(f"expected 7 columns, got {len(row)}", line=line)
        try:
            frame = int(row[2])
            box = list(map(float, row[3:7]))
        except ValueError as e:
            raise ParseError(f"bad numeric field: {e}", line=line) from None
        if not -2**63 <= frame < 2**63:
            raise ParseError(f"frame {frame} is outside the int64 range",
                             line=line)
        if fmt.corner_format:
            x1, y1, x2, y2 = box
            box = [(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1]
        w, h = box[2:]
        if not all(map(math.isfinite, box)):
            raise ParseError("non-finite box fields", line=line)
        if w <= 0 or h <= 0:
            raise ParseError(f"non-positive box size w={w}, h={h}", line=line)
        keys.append((row[0].strip(), row[1].strip()))
        frames.append(frame)
        vals += box
    return (keys, np.array(frames, dtype=np.int64),
            np.array(vals, dtype=np.float64).reshape(-1, 4))


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
    is not valid UTF-8. Lines end as the csv module ends them: at a CR, an
    LF or a CRLF."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        ends = raw.count(b"\r", 0, e.start) + raw.count(b"\n", 0, e.start)
        ends -= raw.count(b"\r\n", 0, e.start)
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         line=ends + 1) from None


def write_tracks(tracks, path) -> None:
    """Write tracks in the centroid CSV schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CENTROID_HEADER)
        for t in tracks:
            n = len(t.boxes)
            writer.writerows(zip(
                [t.video_id] * n, [t.track_id] * n, t.boxes.frames.tolist(),
                *(map(repr, c) for c in t.boxes.xywh.T.tolist())))


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
            start_frame=int(boxes.frames[offset]),
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

    def partition(self, tracks, fold: int) -> tuple[list[Track], list[Track]]:
        """(train, test): the tracks of the other folds and those of
        ``fold``, each sorted by key, so the split alone fixes the order
        a fold's model is trained on."""
        by_key = {t.key: t for t in tracks}
        return ([by_key[k] for k in sorted(self.train_keys(fold))],
                [by_key[k] for k in sorted(self.test_keys(fold))])


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


@dataclass(frozen=True)
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
    ``frame_rate_hz`` is nominal: it is checked and echoed into the run's
    meta file, and no track or CSV stores it.

    A spec checks itself when it is made: an unknown kind or an
    out-of-range value is a ConfigError, so every built spec is valid.
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

    def __post_init__(self) -> None:
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(
                f"unknown synthetic kind {self.kind!r}; pick one of {SYNTH_KINDS}")
        if self.length < 1:
            raise ConfigError(f"length must be at least 1, got {self.length}")
        for name in _SYNTH_FLOAT_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        # written so that NaN fails every sign check too
        if not self.noise_std >= 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not (self.size[0] > 0 and self.size[1] > 0):
            raise ConfigError(f"start size must be positive, got {self.size}")
        if not self.period > 0:
            raise ConfigError(f"period must be positive, got {self.period}")
        if not (self.start_jitter >= 0 and self.velocity_jitter >= 0):
            raise ConfigError("jitter values must be >= 0")
        for name in ("start_jitter", "velocity_jitter"):
            # draws span [-jitter, jitter], whose width must be finite
            if not math.isfinite(2.0 * getattr(self, name)):
                raise ConfigError(f"{name} must be at most {_MAX_JITTER:g}, "
                                  f"got {getattr(self, name)}")
        if not self.frame_rate_hz > 0:
            raise ConfigError(
                f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        for name in ("go_frames", "stop_frames"):
            lo, hi = getattr(self, name)
            # the segment draw takes hi + 1 as an int64 bound
            if not 1 <= lo <= hi < 2**63:
                raise ConfigError(f"{name} must satisfy 1 <= lo <= hi < "
                                  f"2**63, got ({lo}, {hi})")
        _check_seed(self.seed)


def _check_seed(seed) -> int:
    """``seed``, or a ConfigError unless it is an int >= 0: numpy's
    generators refuse a negative seed with a bare ValueError."""
    if not (isinstance(seed, int) and seed >= 0):
        raise ConfigError(f"seed must be an int >= 0, got {seed!r}")
    return seed


_MAX_JITTER = np.finfo(np.float64).max / 2.0
_SYNTH_FLOAT_FIELDS = ("start", "size", "velocity", "accel", "size_rate",
                       "amplitude", "period", "noise_std", "start_jitter",
                       "velocity_jitter", "frame_rate_hz")


@np.errstate(over="ignore", invalid="ignore")
def synth_tracks(spec: SynthSpec, count: int) -> list[Track]:
    """Generate ``count`` tracks from one spec and one seeded stream.

    With all jitters and noise at zero the centroids follow the closed-form
    kinematics exactly. Per-track draws happen in a fixed order, so a fixed
    seed fixes every box. Finite spec values whose kinematics overflow
    float64 raise ConfigError from the finiteness check on each track, with
    no numpy overflow warning ahead of it.
    """
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
        if not np.isfinite(arr).all():
            raise ConfigError(
                f"track {idx} of this spec has non-finite boxes: its start, "
                f"size, motion or noise values overflow float64")
        tracks.append(Track(video_id="synth", track_id=f"{spec.kind}-{idx:04d}",
                            boxes=Boxes(arr, np.arange(spec.length))))
    return tracks

