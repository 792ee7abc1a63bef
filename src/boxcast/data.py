"""Track ingestion, mini-track slicing, fold splitting, and a synthetic-track
generator used as the desk-scale dataset.

Track CSVs are UTF-8 with header ``video_id,track_id,frame,cx,cy,w,h`` and
one detection per row, pixels as floats. A corner-format variant
(``x1,y1,x2,y2`` columns) can be converted at parse time.

A track's boxes are a `Boxes`: a read-only (n, 4) float64 ``xywh`` array
and an (n,) int64 ``frames`` array. Slices and single boxes (`Box`) are
zero-copy views of those arrays, so parsing, mini-track slicing and
stacking copy no box row by row. `parse_tracks` has two readers. It
splits a plain file with `str.split` and converts and checks it column
by column with vectorised tests, in chunks of ~64 KiB of text
(`PLAIN_CHUNK_CHARS`): 25 520 rows take ~45 ms on one core of a 2-core
Xeon VM, against ~52 ms through the csv module. Beyond the file's text
it keeps only the numeric columns and the distinct ids, so its
tracemalloc peak is ~2.25 bytes per input byte, where one string per
field of the file took 7.43. Any other file, or a plain one that fails a
check, is read by the csv module one row at a time, which also names the
first faulty line.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, ShapeError

CENTROID_HEADER = ["video_id", "track_id", "frame", "cx", "cy", "w", "h"]
CORNER_HEADER = ["video_id", "track_id", "frame", "x1", "y1", "x2", "y2"]

SYNTH_KINDS = ("constant-velocity", "constant-acceleration", "sinusoidal",
               "stop-and-go")

__all__ = [
    "Box",
    "Boxes",
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


def parse_tracks(path, corner_format: bool = False) -> list[Track]:
    """Read a track CSV into Track records; with ``corner_format`` its
    header and boxes are the corner ones, converted to centroid and size.

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
    `str.split` and converted column by column, `PLAIN_CHUNK_CHARS` of
    text at a time, and each chunk is checked as a whole; only the whole
    text, the distinct ids and the numeric columns are held. Any other
    text, and a plain file that fails a check, is read by the csv module
    one record at a time, which converts and checks each row and names the
    first faulty line.
    """
    text = _read_utf8(path)
    names, vid, tid, frames, xywh = _columns(text, corner_format) \
        or _rows(text, corner_format)
    if not frames.size:
        return []
    # a key is named by the first row that holds it, so keys sort in order
    # of first appearance
    _, first, pair = np.unique(vid * (tid.max() + 1) + tid,
                               return_index=True, return_inverse=True)
    kid = first[pair]
    # lexsort is stable: rows of one key and frame keep their file order
    order = np.lexsort((frames, kid))
    kid, frames, xywh = kid[order], frames[order], xywh[order]
    same_key = kid[1:] == kid[:-1]
    # a step past the int64 range wraps to a negative value, never 0 or 1
    step = np.diff(frames)
    dup = np.flatnonzero(same_key & (step == 0))
    if dup.size:
        j = int(dup[0]) + 1
        row = int(order[j])
        raise ParseError(f"track ({names[vid[row]]}, {names[tid[row]]}) has "
                         f"duplicate frame {frames[j]}",
                         line=_data_line(text, row))
    bounds = [0, *(np.flatnonzero(~same_key | (step != 1)) + 1).tolist(),
              len(order)]
    n_segments = np.bincount(kid[bounds[:-1]]).tolist()
    tracks: list[Track] = []
    segment = 0
    for a, b in zip(bounds, bounds[1:]):
        key = int(kid[a])
        segment = segment + 1 if a and kid[a - 1] == key else 0
        video_id, track_id = names[vid[key]], names[tid[key]]
        if n_segments[key] > 1:
            track_id = f"{track_id}~{segment}"
        tracks.append(Track(video_id=video_id, track_id=track_id,
                            boxes=Boxes(xywh[a:b], frames[a:b])))
    return tracks


def _codes(ids: dict[str, int], column: list[str]) -> np.ndarray:
    """Each string's int64 code in ``ids``, which numbers strings in order
    of first appearance, so ``list(ids)`` lists them by code; the column's
    new strings are added to it."""
    for s in dict.fromkeys(column):
        ids.setdefault(s, len(ids))
    return np.fromiter(map(ids.__getitem__, column), dtype=np.int64,
                       count=len(column))


# The text the plain reader splits, checks and converts at a time: its
# transient strings are bounded by this, not by the file's size
PLAIN_CHUNK_CHARS = 1 << 16


def _columns(text: str, corner_format: bool):
    """(names, vid, tid, frames, xywh) of the data rows of a plain
    ``text``: the distinct stripped strings of both id columns, each row's
    int64 indices of its video_id and track_id in ``names``, its int64
    frame and its (cx, cy, w, h) box, as an (n, 4) array. None when the text is not plain or any record is faulty;
    `_rows` then reads it, making the same checks.

    Plain text has no quote, no NUL (the csv module of Python 3.10
    rejects it), a line feed after every carriage return, no line longer
    than the csv module's field size limit (so no field is) and seven
    fields on every line but blank data lines. The csv module splits such
    a line at its commas alone, so both give the same fields, except that
    a CRLF line's last field keeps its CR: whitespace that the header
    check and `float` strip. Blank data lines are dropped, as `_rows`
    drops blank records. The text is read in chunks of whole lines, each
    ending at the first line feed ``PLAIN_CHUNK_CHARS`` characters or
    more after its start (`_plain_chunk`).
    """
    if '"' in text or "\0" in text or re.search("\r(?!\n)", text):
        return None
    ids: dict[str, int] = {}
    parts = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + PLAIN_CHUNK_CHARS) + 1 or len(text)
        part = _plain_chunk(text[start:end], start == 0, ids, corner_format)
        if part is None:
            return None
        parts.append(part)
        start = end
    if not parts:
        return None
    vid, tid, frames, vals = (np.concatenate(c, axis=-1)
                              for c in zip(*parts))
    return list(ids), vid, tid, frames, vals.T


def _plain_chunk(chunk: str, header: bool, ids: dict[str, int],
                 corner_format: bool):
    """(vid, tid, frames, vals) of the data rows of one chunk of whole
    lines of a plain text, ``vals`` as (4, n): `_columns`' checks and
    conversions of those lines, with the ids numbered in ``ids``. The
    first line of the ``header`` chunk is the header. None when a line is
    not plain or a record is faulty."""
    lines = chunk.split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the final line feed: no line to filter
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    counts = set(map(str.count, lines, repeat(",")))
    if 0 in counts:
        lines[header:] = [line for line in lines[header:] if line.strip()]
        counts = set(map(str.count, lines, repeat(",")))
    if not counts <= {6}:
        return None
    # a chunk of blank lines has no field, where "".split gives one
    fields = ",".join(lines).split(",") if lines else []
    if header:
        if _header_error(fields[:7], corner_format):
            return None
        del fields[:7]
    try:
        frames = np.array(list(map(int, fields[2::7])), dtype=np.int64)
        vals = np.array([list(map(float, fields[i::7])) for i in range(3, 7)])
    except (ValueError, OverflowError):
        return None
    if corner_format:
        x1, y1, x2, y2 = vals
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0,
                             x2 - x1, y2 - y1])
    if not (np.isfinite(vals).all() and (vals[2:] > 0).all()):
        return None
    return (_codes(ids, list(map(str.strip, fields[0::7]))),
            _codes(ids, list(map(str.strip, fields[1::7]))), frames, vals)


def _blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _header_error(row: list[str], corner_format: bool) -> ParseError | None:
    expected = CORNER_HEADER if corner_format else CENTROID_HEADER
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


def _rows(text: str, corner_format: bool):
    """`_columns` of any ``text``, read by the csv module one record at a
    time; blank records are dropped. Raises the ParseError of the first
    faulty record in file order: the header, then each row's CSV syntax,
    column count, numbers, frame range, and finite, positive box."""
    records = _records(text)
    first = next(records, None)
    err = first and _header_error(first[1], corner_format)
    if err:
        raise err
    videos, track_ids, frames, vals = [], [], [], []
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
        if corner_format:
            x1, y1, x2, y2 = box
            box = [(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1]
        w, h = box[2:]
        if not all(map(math.isfinite, box)):
            raise ParseError("non-finite box fields", line=line)
        if w <= 0 or h <= 0:
            raise ParseError(f"non-positive box size w={w}, h={h}", line=line)
        videos.append(row[0].strip())
        track_ids.append(row[1].strip())
        frames.append(frame)
        vals += box
    ids: dict[str, int] = {}
    vid, tid = _codes(ids, videos), _codes(ids, track_ids)
    return (list(ids), vid, tid, np.array(frames, dtype=np.int64),
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


@contextmanager
def _atomic_open(path, binary: bool = False):
    """A new file whose contents replace ``path`` in one step: the block
    writes a temporary file beside ``path`` (UTF-8 text with no newline
    translation, or bytes), which `os.replace` moves into place when the
    block ends. So ``path`` is either its old file or the whole new one; if
    the block or the move fails, the temporary file is removed. Every
    result file is written through it.

    Only a regular file, or a new one in an existing directory, is
    replaced. Any other ``path`` (a symlink, a pipe or a device such as
    /dev/stdout, a directory, a path whose directory is missing) is opened
    as it is, so it is written through, or refused with an error that
    names it."""
    path = Path(path)
    text = {} if binary else {"newline": "", "encoding": "utf-8"}
    if not path.parent.is_dir() or path.is_symlink() or (
            path.exists() and not path.is_file()):
        with open(path, "wb" if binary else "w", **text) as fh:
            yield fh
        return
    # A random name that open() creates exclusively: no other writer's file
    # is taken over, and the file gets the umask's mode (mkstemp's is 0600).
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb" if binary else "x", **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path, header: list[str], rows) -> None:
    """A CSV file of ``header`` and then ``rows``, through `_atomic_open`."""
    with _atomic_open(path) as fh:
        csv.writer(fh).writerows(chain([header], rows))


def write_tracks(tracks, path) -> None:
    """Write tracks in the centroid CSV schema; floats keep full precision."""
    _write_rows(path, CENTROID_HEADER, chain.from_iterable(
        zip(repeat(t.video_id), repeat(t.track_id), t.boxes.frames.tolist(),
            *(map(repr, c) for c in t.boxes.xywh.T.tolist()))
        for t in tracks))


def slice_minitracks(track: Track, window: int = 90,
                     stride: int = 30) -> list[MiniTrack]:
    """Sliding-window slices: offsets 0, stride, 2*stride, ... while a full
    window fits. Slices starting past the first box carry the preceding box
    so the first delta row of the feature window is real. Short tracks give
    an empty list.
    """
    _check_int("window", window, 2, "{name} must be at least {lo}, got {v}")
    _check_int("stride", stride, 1, "{name} must be at least {lo}, got {v}")
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


def split_folds(tracks, n_folds: int = 3, seed: int = 0
                ) -> list[tuple[list[Track], list[Track]]]:
    """Each fold's (train, test) tracks: a seeded shuffle of the tracks is
    dealt round-robin to ``n_folds`` folds; a fold's test side is its own
    tracks and its train side those of every other fold, each sorted by
    key, so the split alone fixes the order a fold's model is trained on.

    Splitting is always by track, never by mini-track, so overlapping
    windows of one track can never straddle the train/test boundary.
    """
    _check_int("n_folds", n_folds, 2, "need at least {lo} folds, got {v}")
    keys = [t.key for t in tracks]
    if len(set(keys)) != len(keys):
        raise DataError("duplicate track keys in fold input")
    if len(keys) < n_folds:
        raise ConfigError(
            f"cannot split {len(keys)} tracks into {n_folds} folds")
    order = np.random.default_rng(_check_seed(seed)).permutation(len(keys))
    fold_of = {keys[i]: j % n_folds for j, i in enumerate(order.tolist())}
    ranked = sorted(tracks, key=lambda t: t.key)
    return [([t for t in ranked if fold_of[t.key] != fold],
             [t for t in ranked if fold_of[t.key] == fold])
            for fold in range(n_folds)]


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
        _check_positive_ints(length=self.length)
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


def _is_int(v) -> bool:
    """The one integer test of the field rules: a Python or NumPy integer,
    never a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_int(name: str, v, lo: int,
               message: str = "{name} must be >= {lo}, got {v}") -> None:
    """A ConfigError unless ``v`` is an int (`_is_int`) of at least ``lo``:
    ``message``, formatted with ``name``, ``lo`` and ``v``, for an int
    below ``lo``. A float or a bool would otherwise run as a count."""
    if not _is_int(v):
        raise ConfigError(f"{name} must be an int, got {v!r}")
    if v < lo:
        raise ConfigError(message.format(name=name, lo=lo, v=v))


def _check_seed(seed) -> int:
    """``seed``, or a ConfigError unless it is an int >= 0 (`_is_int`):
    numpy's generators refuse a negative seed with a bare ValueError."""
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be an int >= 0, got {seed!r}")
    return seed


def _check_positive_ints(**values) -> None:
    """ConfigError naming the first of ``values`` that is not a positive
    int (`_is_int`)."""
    for name, v in values.items():
        if not (_is_int(v) and v >= 1):
            raise ConfigError(f"{name} must be a positive int, got {v!r}")


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
    _check_positive_ints(count=count)
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

