"""Shared test utilities: `Boxes` built from plain rows, random-but-realistic
inputs, the central-difference gradient oracle and a case generator for
gradient checks that steers clear of the objective's kinks, a row-by-row
track CSV parser that the column-wise `parse_tracks` must match,
the exp-form logistic function the one-tanh gate math is checked against,
the step-loop trajectory concatenation the cumulative sum is checked
against, a one-step LSTM helper, a parameter count summed over the tensors,
and a Hypothesis strategy for track CSVs with hostile lines mixed in.

The composite objective has two non-smooth surfaces: the L1 loss at exact
zero residual and the ReLU at exactly zero pre-activation. Central
differences with step eps are only trustworthy when every residual and every
ReLU input sits further than a safety margin from its kink, so the case
generator redraws until that holds.
"""

import csv
import io
import math

import numpy as np
from hypothesis import strategies as st

from boxcast.data import (
    CENTROID_HEADER,
    CORNER_HEADER,
    Boxes,
    Track,
)
from boxcast.errors import NumericError, ParseError, ShapeError
from boxcast.model import (
    LossWeights,
    ModelDims,
    build_features,
    composite_loss,
    concat_trajectory,
    decode_future,
    encode,
    init_params,
    reconstruct,
    reconstruction_target,
    MODE_TRAJ_AUTOENC,
)
from boxcast.nn import LstmSeq, lstm_cell_forward

KINK_MARGIN = 2e-3  # min distance of residuals / ReLU inputs from zero


def make_boxes(rows, first_frame=0):
    """`Boxes` of (cx, cy, w, h) ``rows`` on consecutive frames from
    ``first_frame``."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    return Boxes(rows, np.arange(len(rows)) + first_frame)


def sigmoid(x):
    """Numerically stable logistic function; never overflows on finite input.

    The LSTM step computes its gates through tanh instead (one pass over all
    four lanes); this exp form is the reference its tests compare against.
    """
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def lstm_step(cell, x, state):
    """One LSTM step from ``state``: (new state, the one-step sequence that
    holds the step's cache), through `LstmSeq.start` and
    `lstm_cell_forward`."""
    seq = LstmSeq.start(cell, state, 1)
    lstm_cell_forward(cell, x, seq, 0)
    return seq.final, seq


def concat_trajectory_loop(deltas, anchor):
    """`concat_trajectory` as an explicit loop over the p steps, adding one
    delta row at a time in the wider dtype: the oracle the cumulative-sum
    form must match bit for bit."""
    deltas = np.asarray(deltas)
    anchor = np.asarray(anchor)
    deltas = deltas.astype(np.result_type(deltas, anchor), copy=False)
    out = np.empty_like(deltas)
    acc = anchor
    for i in range(deltas.shape[-2]):
        acc = acc + deltas[..., i, :]
        out[..., i, :] = acc
    return out


def param_count(params):
    """Total number of learnable scalars, summed over the allocated tensors
    (the independent check on `param_count_for`'s layer arithmetic)."""
    return sum(t.size for t in params.tensors().values())


def random_window_and_targets(rng, k, p):
    """A plausible random-walk mini-track as (window (k,8), targets (p,4))."""
    start = rng.uniform(50.0, 150.0, size=2)
    size = rng.uniform(8.0, 20.0, size=2)
    steps = rng.normal(0.0, 1.5, size=(k + p, 4))
    boxes = np.concatenate([start, size]) + np.cumsum(steps, axis=0)
    boxes[:, 2:] = np.maximum(boxes[:, 2:], 1.0)
    window = build_features(boxes[:k])
    return window, boxes[k:].copy()


def loss_via_public_ops(params, window, targets, weights):
    """Objective value assembled from the public forward ops only; serves as
    the function under finite differences."""
    z, state = encode(params, window)
    recon = None
    if weights.mode == MODE_TRAJ_AUTOENC:
        recon = reconstruct(params, z)
    loss, _ = composite_loss(recon, window, decode_future(params, z, state),
                             targets, weights)
    return loss


def _kink_margin(params, window, targets):
    """Smallest distance of any residual or ReLU input from zero."""
    z, state = encode(params, window)
    recon = reconstruct(params, z)
    deltas = decode_future(params, z, state)
    anchor = window[-1, :4]
    boxes = concat_trajectory(deltas, anchor)
    target_deltas = np.diff(targets, axis=-2, prepend=anchor[None, :])
    margins = [
        np.min(np.abs(state.h)),
        np.min(np.abs(recon - reconstruction_target(window))),
        np.min(np.abs(boxes - targets)),
        np.min(np.abs(deltas - target_deltas)),
    ]
    return min(float(m) for m in margins)


def gradcheck_case(seed, k=4, p=3, hidden=8, latent=6, carry_cell_state=True):
    """Draw (params, window, targets) whose objective is locally smooth for
    every loss mode, redrawing (bounded) until the kink margin holds."""
    for attempt in range(64):
        rng = np.random.default_rng(seed + 7919 * attempt)
        dims = ModelDims(k=k, p=p, hidden=hidden, latent=latent)
        params = init_params(dims, seed=rng, carry_cell_state=carry_cell_state)
        # O(1)-scale coordinates keep every gate in its responsive band;
        # pixel-scale inputs saturate gates and pin some ReLU inputs at ~0,
        # which no amount of redrawing fixes
        start = rng.uniform(1.0, 3.0, size=2)
        size = rng.uniform(2.0, 4.0, size=2)
        steps = rng.normal(0.0, 0.3, size=(k, 4))
        boxes = np.concatenate([start, size]) + np.cumsum(steps, axis=0)
        boxes[:, 2:] = np.maximum(boxes[:, 2:], 0.5)
        window = build_features(boxes)
        # pull the targets toward the model outputs so small residuals do
        # occur and the margin check earns its keep
        z, state = encode(params, window)
        deltas = decode_future(params, z, state)
        pred = concat_trajectory(deltas, window[-1, :4])
        targets = pred + rng.normal(0.0, 0.5, size=pred.shape)
        if _kink_margin(params, window, targets) > KINK_MARGIN:
            return params, window, targets
    raise AssertionError(
        f"no well-conditioned gradcheck case found for seed {seed}")


def coordinate_subset(rng, shape, cap):
    """Up to ``cap`` distinct flat indices into an array of ``shape``."""
    size = int(np.prod(shape))
    if size <= cap:
        return np.arange(size)
    return np.sort(rng.choice(size, size=cap, replace=False))


def fd_grad(f, x, flat_indices=None, eps=1e-5):
    """Central differences of the scalar ``f(x)`` at the given flat indices
    of ``x`` (all of them, shaped as ``x``, when None): the oracle every
    analytic backward pass is checked against. Each coordinate is moved by
    +-eps in place and restored, so ``f`` may read ``x`` through its
    argument or directly (as a parameter tensor it closes over). A
    non-finite probe raises NumericError; eps <= 0 raises ShapeError."""
    if not eps > 0:
        raise ShapeError(f"eps must be positive, got {eps}")
    indices = range(x.size) if flat_indices is None else flat_indices
    out = np.zeros(len(indices))
    for j, i in enumerate(indices):
        idx = np.unravel_index(i, x.shape)
        orig = x[idx]
        x[idx] = orig + eps
        fp = float(f(x))
        x[idx] = orig - eps
        fm = float(f(x))
        x[idx] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite objective at coordinate {idx} "
                               f"during finite-difference probing")
        out[j] = (fp - fm) / (2.0 * eps)
    return out.reshape(x.shape) if flat_indices is None else out


def reference_parse_tracks(path, corner_format: bool = False) -> list[Track]:
    """`parse_tracks` one row at a time, as the reference it must match:
    the same tracks (ids, frames, boxes bit for bit), or a ParseError with
    the same message and line.

    Each row is checked as it is read; rows then group by key in
    first-appearance order, sort by (frame, line) and split at every gap,
    and each segment's `Boxes` is built from the rows it collected.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bad byte's line is the last line of its valid prefix plus one
        # more character, split at CR, LF and CRLF as the csv module splits
        prefix = raw[:e.start].decode("utf-8") + "x"
        line = len(io.StringIO(prefix, newline="").readlines())
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         line=line) from None
    expected = CORNER_HEADER if corner_format else CENTROID_HEADER
    groups: dict[tuple[str, str], list[tuple[int, int, list[float]]]] = {}
    records = _reference_records(text)
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
        if not -2**63 <= frame < 2**63:
            raise ParseError(f"frame {frame} is outside the int64 range",
                             line=line)
        if corner_format:
            x1, y1, x2, y2 = vals
            vals = [(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1]
        w, h = vals[2:]
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite box fields", line=line)
        if w <= 0 or h <= 0:
            raise ParseError(f"non-positive box size w={w}, h={h}", line=line)
        groups.setdefault((row[0].strip(), row[1].strip()), []).append(
            (frame, line, vals))

    tracks: list[Track] = []
    for (video_id, track_id), rows in groups.items():
        rows.sort()  # by frame, then line: lines are unique
        segments: list[list[tuple[int, list[float]]]] = []
        prev = None
        for frame, line, vals in rows:
            if frame == prev:
                raise ParseError(f"track ({video_id}, {track_id}) has "
                                 f"duplicate frame {prev}", line=line)
            if prev is None or frame != prev + 1:
                segments.append([])
            segments[-1].append((frame, vals))
            prev = frame
        for si, segment in enumerate(segments):
            tid = track_id if len(segments) == 1 else f"{track_id}~{si}"
            frames, xywh = zip(*segment)
            tracks.append(Track(video_id=video_id, track_id=tid,
                                boxes=Boxes(xywh, frames)))
    return tracks


def _reference_records(text: str):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise ParseError(f"malformed CSV: {e}", line=reader.line_num) from None


def _field(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


_GOOD_ROWS = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(0, 12),
              st.floats(-50, 50), st.floats(-50, 50),
              st.floats(1, 20), st.floats(1, 20)),
    max_size=30, unique_by=lambda r: r[:2])
_HOSTILE_INTS = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**20]))
_HOSTILE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 0.0]))
_HOSTILE_FIELDS = st.lists(
    st.one_of(_HOSTILE_INTS, _HOSTILE_FLOATS,
              st.text(alphabet="0123456789.eE+-nafi x", max_size=6)),
    max_size=9).map(lambda fields: ",".join(map(_field, fields)))
_HOSTILE_ROWS = st.tuples(
    st.sampled_from(["a", "b", '"a\nb"']), _HOSTILE_INTS, _HOSTILE_FLOATS,
    _HOSTILE_FLOATS, _HOSTILE_FLOATS, _HOSTILE_FLOATS,
).map(lambda r: ",".join([r[0], "t", *map(_field, r[1:])]))


@st.composite
def track_csvs(draw):
    """(text, corner format) of a track CSV: well-formed rows on distinct
    frames, so most tracks have gaps, and ids that may carry padding or
    quotes, with hostile lines (blank, wrong column counts, values beyond
    int64 or float range, a repeated frame, a quoted two-line id) mixed in
    at random positions. Lines end in LF or CRLF, one line may hold a
    lone CR anywhere in it, and the last line may have no line end, so
    both of `parse_tracks`'s tokenizers are reached."""
    corner = draw(st.booleans(), label="corner")
    good = draw(_GOOD_ROWS, label="good rows")
    lines = []
    for tid, frame, cx, cy, w, h in good:
        vals = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2) if corner \
            else (cx, cy, w, h)
        vid = draw(st.sampled_from(["v", "v "]), label="padded video id")
        tid = draw(st.sampled_from([tid, f" {tid}", f'"{tid}"']),
                   label="padded or quoted id")
        lines.append(",".join([vid, tid, str(frame), *map(repr, vals)]))
    hostile = [st.sampled_from(["", "  ", ","]), _HOSTILE_FIELDS,
               _HOSTILE_ROWS]
    if lines:
        hostile.append(st.sampled_from(lines))  # a repeated frame
    for bad in draw(st.lists(st.one_of(hostile), max_size=3), label="bad"):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    header = CORNER_HEADER if corner else CENTROID_HEADER
    lines.insert(0, ",".join(header))
    if draw(st.booleans(), label="lone CR"):
        i = draw(st.integers(0, len(lines) - 1), label="CR line")
        at = draw(st.integers(0, len(lines[i])), label="CR position")
        lines[i] = lines[i][:at] + "\r" + lines[i][at:]
    end = draw(st.sampled_from(["\n", "\r\n"]), label="line end")
    text = end.join(lines)
    if draw(st.booleans(), label="final line end"):
        text += end
    return text, corner
