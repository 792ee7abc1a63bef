"""Shared test utilities: random-but-realistic inputs, a case generator
for gradient checks that steers clear of the objective's kinks, a
row-by-row track CSV parser that the column-wise `parse_tracks` must match,
the exp-form logistic function the one-tanh gate math is checked against,
and a one-step LSTM helper.

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

from boxcast.data import (
    CENTROID_HEADER,
    CORNER_HEADER,
    Box,
    CsvFormat,
    Track,
)
from boxcast.errors import ParseError
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
    MODE_TRAJ_DEL,
)
from boxcast.nn import LstmSeq, lstm_cell_forward

KINK_MARGIN = 2e-3  # min distance of residuals / ReLU inputs from zero


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
    deltas = decode_future(params, z, state)
    boxes = None
    if weights.mode != MODE_TRAJ_DEL:
        boxes = concat_trajectory(deltas, window[..., -1, :4])
    loss, _ = composite_loss(recon, window, boxes, targets, weights,
                             pred_deltas=deltas)
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


def fd_grad_at(f, x, flat_indices, eps=1e-5):
    """Central differences of f at selected coordinates of x."""
    out = np.zeros(len(flat_indices))
    flat = x.reshape(-1)
    for j, idx in enumerate(flat_indices):
        orig = flat[idx]
        flat[idx] = orig + eps
        fp = f()
        flat[idx] = orig - eps
        fm = f()
        flat[idx] = orig
        out[j] = (fp - fm) / (2.0 * eps)
    return out


def reference_parse_tracks(path, fmt: CsvFormat = CsvFormat()) -> list[Track]:
    """`parse_tracks` one row at a time, as the reference it must match:
    the same tracks (ids, frames, boxes bit for bit), or a ParseError with
    the same message and line.

    Each row is checked and boxed as it is read; rows then group by key in
    first-appearance order, sort by (frame, line) and split at every gap.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason} at byte {e.start}",
                         line=raw.count(b"\n", 0, e.start) + 1) from None
    expected = CORNER_HEADER if fmt.corner_format else CENTROID_HEADER
    groups: dict[tuple[str, str], list[tuple[int, int, Box]]] = {}
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


def _reference_records(text: str):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise ParseError(f"malformed CSV: {e}", line=reader.line_num) from None
