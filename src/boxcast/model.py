"""Forecaster architecture: feature windows, encoder, the two decoders, the
trajectory concatenation layer, the composite loss, and a hand-derived
backward pass for the whole network.

The model consumes a window of k consecutive bounding boxes and emits the p
future boxes. Each input frame is an 8-vector (cx, cy, w, h, dcx, dcy, dw,
dh) whose last four entries are the frame-to-frame differences. A single
LSTM encodes the window; its final hidden state passes through ReLU and an
affine map to a compact latent summary z. Two LSTM branches consume z as a
constant per-step input:

- the reconstruction branch starts from zero state and must reproduce the
  input window backwards with negated differences (training-time
  regularizer only, never run at inference), and
- the future branch starts from the encoder's final state and emits one
  4-vector of per-frame deltas (dcx, dcy, dw, dh) per future step.

A parameter-free concatenation layer turns the delta sequence into absolute
boxes by running a cumulative sum seeded at the last observed box.

Functions here accept a single sample (window of shape (k, 8)) or a batch
of any leading shape ((..., k, 8)); results come back in the caller's batch
shape. Every array `encode`, `reconstruct`, `decode_future`,
`predict_from_window` and `loss_and_grads` take passes one entry step,
`_as_rows`: its shape must be the op's batch shape followed by the
trailing shape ``params.dims`` gives it (window (k, 8), target boxes
(p, 4), z (latent,), encoder state h and c (hidden,)), where the batch
shape is whatever leads the op's first input; a mismatch is a ShapeError
naming the input. The step then casts the array to ``params.dtype`` and
flattens its batch axes into one, so below the ops every tensor is (n, ...)
rows: a single window runs as a one-row batch and gives its bits, and a
(2, 3) batch gives the bits of the same six windows run as a (6,) batch.

The network runs in ``params.dtype``: since the entry step casts, a
float32 model loaded from a weight file runs every LSTM step in float32
even though ``build_features`` returns float64, and the forward pass,
backward pass and gradients of ``loss_and_grads`` all run in it.
`training.train` optimises float32 parameters, while ``init_params`` keeps
its float64 default for the finite-difference checks. The trajectory
anchor is not cast: ``concat_trajectory`` accumulates on the window's own
anchor, so a float64 window keeps float64 box arithmetic and only the
deltas come from the float32 network.

The public ops (`encode`, `reconstruct`, `decode_future`,
`concat_trajectory`, `forward_train`, `predict`) are composable pieces.
`predict_from_window` is the one batched forecast path: it runs its rows
in near-equal blocks of at most `FORECAST_CHUNK`, split by the same rule
(`_row_blocks`) as the training batch's blocks.

`loss_and_grads` is the training engine that runs the same math through
the same forward of the encoder and of each decoder branch
(`_run_encoder`, `_future_branch`, `_recon_branch`), keeps each
sequence's buffers as its caches, runs its backward pass inside them
(overwriting the gate activations with their gradients, and each spent
cell state with the hidden state the backward rebuilds from it), and
returns analytic parameter gradients. No pass keeps a stack of hidden
states: a decoder forms its head rows step by step inside its forward
loop, and the weight gradients read the hidden states the backward
rebuilt. It runs a batch of more than
`TRAIN_BLOCK_ROWS` rows as near-equal row blocks, one after another, and
within a block one decoder branch at a time: each branch's forward pass,
loss term and backward pass finish, and its caches are freed, before the
next branch allocates, so at most one block's encoder and one decoder's
caches are live at once, whatever the batch size. Each head's gradient on
the per-step hidden states is formed step by step inside the backward
loop. Every weight and bias gradient is formed by `nn`'s
`linear_param_grads` or its weight half `linear_weight_grad`, and added
into a gradient record of the parameter layout (a zero `ModelParams`),
one layer record per backward helper.
The objective has one definition, `composite_loss`, which takes the
network's outputs as it emits them (reconstruction rows and delta rows)
and is built from the per-term pieces `loss_and_grads` calls branch by
branch; of those, `_trajectory_term` alone picks what a loss mode
supervises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Box, Boxes, _check_positive_ints, _check_seed
from .errors import ConfigError, DataError, NumericError, ShapeError
from .nn import (
    LinearParams,
    LstmCellParams,
    LstmCellState,
    LstmSeq,
    _l1_sum,
    _lstm_cell_from_preact,
    linear_backward,
    linear_forward,
    linear_param_grads,
    linear_weight_grad,
    lstm_cell_forward,
    lstm_gate_backward,
    relu,
)

INPUT_DIM = 8   # cx, cy, w, h, dcx, dcy, dw, dh
OUTPUT_DIM = 4  # cx, cy, w, h (and their deltas on the future branch)

# Most rows one block of `loss_and_grads` runs: a larger batch runs as
# near-equal blocks, one at a time, so a training step's LSTM caches grow
# with this constant, not with the batch. The reference batch of 200 runs
# as two blocks of 100, which cuts `train`'s peak RSS from 304 to 222 MB.
# Smaller blocks cost time, as each step's products shrink: a 200-row step
# took 2380 ms whole, 2560 ms in blocks of 100 and 2760 ms in blocks of 50
# (hidden 512, float32, one BLAS thread, 2-core Xeon VM; median thread
# time of 6 alternating processes of 4 steps). Blocks of 100 never leave a
# tail of 1-12 rows, which would run the slower batch-1 or tiled
# recurrent products.
TRAIN_BLOCK_ROWS = 100

# Most rows one block of `predict_from_window` runs; a larger set runs as
# near-equal blocks, as `loss_and_grads` runs its batch. A full-size float32
# forecast holds about 0.65 MB of transient buffers per row (mostly the
# decoder's stacked gates; the encoder's buffers are freed before the
# decoder allocates), so a block peaks near 41 MB (tracemalloc).
# Measured on one BLAS thread, full size, float32, 2-core Xeon VM (numpy
# 2.4.6, OpenBLAS 0.3.31): 55/145/294/349/368 forecasts/s at batch
# 1/8/32/64/128 (best of 5 runs of best of 5).
FORECAST_CHUNK = 64

MODE_TRAJ_DEL = "traj-del"
MODE_TRAJ = "traj"
MODE_TRAJ_AUTOENC = "traj+auto-enc"
LOSS_MODES = (MODE_TRAJ_DEL, MODE_TRAJ, MODE_TRAJ_AUTOENC)

__all__ = [
    "INPUT_DIM",
    "LOSS_MODES",
    "MODE_TRAJ",
    "MODE_TRAJ_AUTOENC",
    "MODE_TRAJ_DEL",
    "OUTPUT_DIM",
    "LossWeights",
    "ModelDims",
    "ModelParams",
    "build_features",
    "composite_loss",
    "concat_trajectory",
    "decode_future",
    "encode",
    "feature_windows",
    "forward_train",
    "init_params",
    "loss_and_grads",
    "predict",
    "predict_from_window",
    "reconstruct",
    "reconstruction_target",
]


@dataclass(frozen=True)
class ModelDims:
    """Shape record: observed steps k, forecast steps p, LSTM width, latent
    width.

    It checks itself when it is made: a field that is not a positive int
    is a ConfigError, so every built record is valid.
    """

    k: int
    p: int
    hidden: int = 512
    latent: int = 256

    def __post_init__(self) -> None:
        _check_positive_ints(k=self.k, p=self.p, hidden=self.hidden,
                             latent=self.latent)


@dataclass
class ModelParams:
    """All learnable tensors plus the dims record.

    enc       LSTM over the 8-d per-frame features
    fc_latent affine hidden -> latent applied to relu(final hidden state)
    auto_dec  LSTM of the reconstruction branch (constant input z, zero init)
    fc_recon  affine hidden -> 8 mapping reconstruction states to feature rows
    fut_dec   LSTM of the future branch (constant input z, encoder-state init)
    fc_delta  affine hidden -> 4 mapping future states to per-frame deltas

    carry_cell_state: when True the future branch starts from the encoder's
    final (h, c); when False it takes h only and a zero cell state.
    """

    enc: LstmCellParams
    fc_latent: LinearParams
    auto_dec: LstmCellParams
    fc_recon: LinearParams
    fut_dec: LstmCellParams
    fc_delta: LinearParams
    dims: ModelDims
    carry_cell_state: bool = True

    def tensors(self) -> dict[str, np.ndarray]:
        """Live views of every learnable tensor, in the serialization order."""
        return {f"{layer}.{name}": getattr(getattr(self, layer), name)
                for layer, (_kind, shapes) in _layout(self.dims).items()
                for name in shapes}

    @property
    def dtype(self):
        return self.enc.wx.dtype

    @classmethod
    def build(cls, dims: ModelDims, make: Callable, carry_cell_state: bool = True
              ) -> "ModelParams":
        """A model whose tensors are ``make(name, shape)``, called once per
        tensor in the serialization order, with names as in `tensors()`."""
        return cls(**{layer: kind(**{name: make(f"{layer}.{name}", shape)
                                     for name, shape in shapes.items()})
                      for layer, (kind, shapes) in _layout(dims).items()},
                   dims=dims, carry_cell_state=carry_cell_state)

    def astype(self, dtype) -> "ModelParams":
        """Copy of the model with every tensor cast to ``dtype``."""
        tensors = self.tensors()
        return ModelParams.build(self.dims,
                                 lambda name, _shape: tensors[name].astype(dtype),
                                 self.carry_cell_state)


def _layout(dims: ModelDims) -> dict[str, tuple[type, dict[str, tuple]]]:
    """The parameter layout: each layer's type and its tensors' shapes, in
    serialization order (the weight-file payload order and the draw order of
    `init_params`). LSTM tensors are gate-major (i, f, g, o) on the 4H axis."""
    H, Z, G = dims.hidden, dims.latent, 4 * dims.hidden

    def cell(d: int):
        return LstmCellParams, {"wx": (G, d), "wh": (G, H), "bx": (G,), "bh": (G,)}

    def affine(n_in: int, n_out: int):
        return LinearParams, {"w": (n_out, n_in), "b": (n_out,)}

    return {"enc": cell(INPUT_DIM), "fc_latent": affine(H, Z),
            "auto_dec": cell(Z), "fc_recon": affine(H, INPUT_DIM),
            "fut_dec": cell(Z), "fc_delta": affine(H, OUTPUT_DIM)}


def init_params(dims: ModelDims, seed: int | np.random.Generator = 0,
                carry_cell_state: bool = True, dtype=np.float64) -> ModelParams:
    """Seeded parameter init.

    Every weight matrix draws uniform on +-1/sqrt(hidden), which is
    +-1/sqrt(fan_in) for the affine maps too since they all read a hidden
    state; all biases start at zero. Tensors are drawn in the
    `ModelParams.tensors()` order, so a fixed seed fixes every value. A
    seed that is not a Generator must be an int >= 0, or a ConfigError.
    """
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(_check_seed(seed))
    s = 1.0 / np.sqrt(dims.hidden)

    def draw(_name: str, shape: tuple) -> np.ndarray:
        if len(shape) == 1:  # a bias
            return np.zeros(shape, dtype=dtype)
        return rng.uniform(-s, s, shape).astype(dtype, copy=False)

    return ModelParams.build(dims, draw, carry_cell_state)


# ---------------------------------------------------------------------------
# feature construction


def build_features(boxes, predecessor: Box | None = None) -> np.ndarray:
    """Turn k consecutive boxes into the (k, 8) per-frame feature window.

    ``boxes`` is a `Boxes` (read as its arrays; frames must be consecutive)
    or a (k, 4) array of (cx, cy, w, h) rows, whose frames are not checked.
    Row i holds the box followed by its difference from row i-1. The first
    row's difference is taken against ``predecessor``, a one-row `Box` view,
    when one is supplied (it must sit exactly one frame before the window)
    and is zero otherwise. The one-window case of `feature_windows`.
    """
    arr, frames = _boxes_as_array(boxes)
    if arr.shape[0] < 1:
        raise DataError("feature window needs at least one box")
    if predecessor is None:
        pred_arr, pred_frames = arr[:1], frames
    else:
        pred_arr, pred_frames = predecessor.xywh, predecessor.frames
    ext = np.concatenate([pred_arr, arr])[None]
    ext_frames = None if frames is None \
        else np.concatenate([pred_frames[:1], frames])[None]
    return feature_windows(ext, ext_frames,
                           np.array([predecessor is not None]))[0]


def feature_windows(boxes: np.ndarray, frames: np.ndarray | None,
                    has_pred: np.ndarray) -> np.ndarray:
    """The (M, k, 8) feature windows of M stacked box windows, each as
    `build_features` builds it.

    ``boxes`` is (M, k + 1, 4) float64: row 0 of window j is its
    predecessor when ``has_pred[j]`` and is ignored otherwise, rows 1..k
    are the window.
    ``frames`` is the matching (M, k + 1) frame numbers, or None for boxes
    without frames (then no frame is checked). Raises the DataError
    `build_features` raises for the first faulty window, in window order.
    """
    window, window_frames = boxes[:, 1:], None
    gap = np.zeros(len(boxes), dtype=bool)
    pred_frame_bad = np.zeros_like(gap)
    if frames is not None:
        window_frames = frames[:, 1:]
        gaps = np.diff(window_frames, axis=1) != 1
        gap = gaps.any(axis=1)
        pred_frame_bad = has_pred & (frames[:, 0] != window_frames[:, 0] - 1)
    size_bad = (window[..., 2:] <= 0).any(axis=(1, 2))
    pred_size_bad = has_pred & (boxes[:, 0, 2:] <= 0).any(axis=1)
    bad = np.flatnonzero(gap | size_bad | pred_frame_bad | pred_size_bad)
    if bad.size:
        j = int(bad[0])
        if gap[j]:
            f = window_frames[j]
            i = int(np.flatnonzero(gaps[j])[0])
            raise DataError(f"frames must be consecutive: frame {f[i + 1]} "
                            f"follows {f[i]}")
        if size_bad[j]:
            raise DataError("box width and height must be positive")
        if pred_frame_bad[j]:
            raise DataError(
                f"predecessor frame {frames[j, 0]} is not one before the "
                f"window start {frames[j, 1]}")
        raise DataError("predecessor width and height must be positive")
    out = np.empty(window.shape[:-1] + (INPUT_DIM,), dtype=np.float64)
    out[..., :4] = window
    out[..., 4:] = boxes[:, 1:] - boxes[:, :-1]
    out[~has_pred, 0, 4:] = 0.0
    return out


def _boxes_as_array(boxes) -> tuple[np.ndarray, np.ndarray | None]:
    """((n, 4) floats, frames or None) of a Boxes or an array."""
    if isinstance(boxes, Boxes):
        return boxes.xywh, boxes.frames
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ShapeError(f"box array has shape {boxes.shape}, expected (n, 4)")
    return boxes.astype(np.float64, copy=False), None


def reconstruction_target(window: np.ndarray) -> np.ndarray:
    """Target of the reconstruction branch: the window with rows reversed and
    the four difference columns negated. Applying it twice is the identity."""
    _check_window(window)
    out = window[..., ::-1, :].copy()
    out[..., 4:] = -out[..., 4:]
    return out


def _check_window(window: np.ndarray) -> None:
    """The shape check of the functions that take a window but no model."""
    if window.ndim < 2 or window.shape[-1] != INPUT_DIM:
        raise ShapeError(
            f"feature window has shape {window.shape}, expected (..., k, {INPUT_DIM})")


# ---------------------------------------------------------------------------
# sequence drivers


def _run_encoder(params: ModelParams, window: np.ndarray
                 ) -> tuple[LstmSeq, np.ndarray, np.ndarray]:
    """Unroll the encoder over the window rows from a zero state, then
    ``fc_latent`` on the ReLU of its final hidden state: (the sequence,
    that ReLU, z). Each step projects its own row: one GEMM over the whole
    window would round differently from the per-row products the bitwise
    tests pin."""
    init = LstmCellState.zeros(params.dims.hidden, len(window),
                               dtype=params.dtype)
    xs = np.moveaxis(window, -2, 0)
    seq = LstmSeq.start(params.enc, init, len(xs))
    for t, x in enumerate(xs):
        lstm_cell_forward(params.enc, x, seq, t)
    h_relu = relu(seq.final.h)
    return seq, h_relu, linear_forward(params.fc_latent.w, params.fc_latent.b,
                                       h_relu)


def _run_constant_decoder(cell: LstmCellParams, head: LinearParams,
                          z: np.ndarray, steps: int, init: LstmCellState
                          ) -> tuple[LstmSeq, np.ndarray]:
    """Unroll a decoder that reads the same latent vector at every step and
    map each step's hidden state through ``head``: (the sequence, its
    (n, steps, out) head rows).

    The input projection ``z @ wx.T + bx + bh`` is computed once and reused,
    which is what makes the inference path cheap. The sequence keeps no
    stack of hidden states, only its one (n, H) ``seq.h``, so each step's
    head product is taken in the loop, as soon as the step has written
    its h and before the next step overwrites it, into that step's rows of
    one (steps, n, out) buffer; the bias is added once after the loop.
    These are the bits of one stacked product over the (steps, n, H)
    hidden states, which numpy runs as the same per-step products. The
    product is ``np.dot``, whose call costs less than ``np.matmul``'s: 140
    against 196 us for the 60 steps of a one-row float32 forecast at
    hidden 512 (one BLAS thread, 2-core Xeon VM).
    """
    seq = LstmSeq.start(cell, init, steps)
    x_pre = z @ cell.wx.T
    x_pre += seq.bias
    rows = np.empty((steps, len(z), len(head.b)),
                    dtype=np.result_type(seq.h, head.w))
    w = head.w.T
    for t in range(steps):
        _lstm_cell_from_preact(cell, x_pre, seq, t)
        np.dot(seq.h, w, out=rows[t])
    rows += head.b
    return seq, np.moveaxis(rows, 0, -2)


def _future_branch(params: ModelParams, z: np.ndarray,
                   enc_final: LstmCellState) -> tuple[LstmSeq, np.ndarray]:
    """The future branch for p steps, then ``fc_delta``: (its sequence, the
    (n, p, 4) delta rows). It starts from the encoder's final (h, c) when
    the model was built with carry_cell_state, from h and a zero cell
    otherwise."""
    c = enc_final.c if params.carry_cell_state else np.zeros_like(enc_final.h)
    return _run_constant_decoder(params.fut_dec, params.fc_delta, z,
                                 params.dims.p, LstmCellState(enc_final.h, c))


def _recon_branch(params: ModelParams, z: np.ndarray
                  ) -> tuple[LstmSeq, np.ndarray]:
    """The reconstruction branch for k steps from a zero state, then
    ``fc_recon``: (its sequence, the (n, k, 8) reconstruction rows)."""
    return _run_constant_decoder(
        params.auto_dec, params.fc_recon, z, params.dims.k,
        LstmCellState.zeros(params.dims.hidden, len(z), z.dtype))


# ---------------------------------------------------------------------------
# public forward ops


def _as_rows(params: ModelParams, name: str, a: np.ndarray, tail: tuple,
             batch: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """The entry step of every array a model op takes: (``a`` as rows, its
    batch shape).

    ``a.shape`` must be ``batch + tail``, or a ShapeError names ``name``;
    when ``batch`` is None it is whatever leads ``tail``, so an op passes
    its first input without one and every later input with the first's.
    Then ``a`` is cast to ``params.dtype`` (no copy when it already
    matches) and its batch axes are flattened into one, so an unbatched
    ``a`` comes back as one row. A float64 input reaching a float32 step
    would make NumPy upcast the whole recurrent weight matrix on every step,
    and a stacked product over two batch axes, or none, can round apart from
    the same rows over one.
    """
    shape = np.shape(a)
    if batch is None:
        batch = shape[:len(shape) - len(tail)]
    if shape != batch + tail:
        raise ShapeError(f"{name} has shape {shape}, expected {batch + tail}")
    return np.asarray(a, dtype=params.dtype).reshape((-1,) + tail), batch


def encode(params: ModelParams, window: np.ndarray
           ) -> tuple[np.ndarray, LstmCellState]:
    """Map a (..., k, 8) window to (latent vector z, encoder final state).

    The returned state is the raw final (h, c), which shares no memory
    with the encoder's stacks; the ReLU sits only on the path into the
    latent projection. All three are in ``params.dtype``, with the
    window's batch shape.
    """
    rows, batch = _as_rows(params, "feature window", window,
                           (params.dims.k, INPUT_DIM))
    seq, _, z = _run_encoder(params, rows)
    # ``seq.h`` is an array of its own, but the final c is a view into the
    # cell-state stack: a copy, so no view keeps that stack alive
    final = seq.final
    z, h, c = (a.reshape(batch + a.shape[-1:])
               for a in (z, final.h, final.c.copy()))
    return z, LstmCellState(h, c)


def reconstruct(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Run the reconstruction branch for k steps from a zero state; the
    (..., k, 8) rows approximate ``reconstruction_target`` of the encoded
    window."""
    rows, batch = _as_rows(params, "z", z, (params.dims.latent,))
    _, recon = _recon_branch(params, rows)
    return recon.reshape(batch + recon.shape[-2:])


def decode_future(params: ModelParams, z: np.ndarray,
                  enc_state: LstmCellState) -> np.ndarray:
    """Run the future branch for p steps and return the (..., p, 4) delta
    rows.

    The branch starts from the encoder's final state: (h, c) when the model
    was built with carry_cell_state, h with a fresh zero cell otherwise.
    """
    z, batch = _as_rows(params, "z", z, (params.dims.latent,))
    H = (params.dims.hidden,)
    h, _ = _as_rows(params, "encoder state h", enc_state.h, H, batch)
    c, _ = _as_rows(params, "encoder state c", enc_state.c, H, batch)
    _, deltas = _future_branch(params, z, LstmCellState(h, c))
    return deltas.reshape(batch + deltas.shape[-2:])


def concat_trajectory(deltas: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Cumulative sum of delta rows seeded at the anchor box.

    ``anchor`` is the (cx, cy, w, h) 4-vector of the last observed box (with
    a leading batch shape matching ``deltas`` when batched). Box i of the
    result is anchor plus the first i+1 deltas, accumulated strictly in step
    order, so ``out[i] - out[i-1]`` reproduces each delta row. The sum runs
    in the wider of the two dtypes, so float32 deltas on a float64 anchor
    give float64 boxes.
    """
    deltas = np.asarray(deltas)
    anchor = np.asarray(anchor)
    if deltas.ndim < 2 or deltas.shape[-1] != OUTPUT_DIM:
        raise ShapeError(
            f"deltas have shape {deltas.shape}, expected (..., p, {OUTPUT_DIM})")
    if deltas.shape[-2] == 0:
        raise DataError("empty delta sequence")
    if anchor.shape != deltas.shape[:-2] + (OUTPUT_DIM,):
        raise ShapeError(
            f"anchor has shape {anchor.shape}, expected "
            f"{deltas.shape[:-2] + (OUTPUT_DIM,)}")
    rows = np.concatenate([anchor[..., None, :], deltas], axis=-2,
                          dtype=np.result_type(deltas, anchor))
    # np.add.accumulate adds row by row, so no pairwise summation reorders it
    return np.cumsum(rows, axis=-2)[..., 1:, :]


def forward_train(params: ModelParams, window: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Training-time forward pass: (reconstruction rows, future boxes).

    Composes encode, reconstruct, decode_future and concat_trajectory; the
    anchor is the (cx, cy, w, h) part of the window's last row.
    """
    z, state = encode(params, window)
    recon = reconstruct(params, z)
    return recon, concat_trajectory(decode_future(params, z, state),
                                    window[..., -1, :4])


def predict(params: ModelParams, boxes, predecessor: Box | None = None
            ) -> np.ndarray:
    """Forecast the next p boxes from exactly k observed boxes, given as
    `build_features` takes them (a `Boxes` or a (k, 4) array, and an
    optional predecessor `Box`).

    The reconstruction branch never runs here. Matches the future-box head
    of ``forward_train`` bit for bit.
    """
    window = build_features(boxes, predecessor)
    if window.shape[0] != params.dims.k:
        raise DataError(
            f"predict needs exactly k={params.dims.k} boxes, got {window.shape[0]}")
    return predict_from_window(params, window)


def predict_from_window(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Forecast from an already-built (..., k, 8) feature window, the one
    batched forecast path; the boxes come back as (..., p, 4).

    The window's rows run ``encode`` and ``decode_future`` in
    ceil(n / `FORECAST_CHUNK`) blocks of near-equal length, one after
    another, so a forecast's transient buffers grow with `FORECAST_CHUNK`,
    not with n. One ``concat_trajectory`` then sums every row's deltas on
    its anchor, the (cx, cy, w, h) of its window's last row as the caller
    passed it (not cast), so a float64 window keeps float64 box arithmetic.
    """
    rows, batch = _as_rows(params, "feature window", window,
                           (params.dims.k, INPUT_DIM))
    deltas = np.concatenate([decode_future(params, *encode(params, block))
                             for block in _row_blocks(rows, FORECAST_CHUNK)])
    return concat_trajectory(deltas.reshape(batch + deltas.shape[1:]),
                             np.asarray(window)[..., -1, :4])


def _row_blocks(rows: np.ndarray, limit: int) -> list[np.ndarray]:
    """``rows`` split along its first axis into ceil(n / ``limit``) blocks
    of near-equal length (`np.array_split`), and one block when n is 0."""
    return np.array_split(rows, max(1, -(-len(rows) // limit)))


# ---------------------------------------------------------------------------
# loss


@dataclass(frozen=True)
class LossWeights:
    """Objective configuration: term weights and which branches train.

    mode 'traj-del'      weights the L1 on raw delta rows only
    mode 'traj'          weights the L1 on concatenated future boxes only
    mode 'traj+auto-enc' adds alpha * reconstruction L1 to the 'traj' term

    It checks itself when it is made: an unknown mode, or a weight that is
    not finite and >= 0, is a ConfigError.
    """

    alpha: float = 1.0
    beta: float = 2.0
    mode: str = MODE_TRAJ_AUTOENC

    def __post_init__(self) -> None:
        if self.mode not in LOSS_MODES:
            raise ConfigError(
                f"unknown loss mode {self.mode!r}; pick one of {LOSS_MODES}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"loss weight {name} must be finite and >= 0, got {value!r}")


def composite_loss(recon: np.ndarray | None, window: np.ndarray,
                   deltas: np.ndarray, target_boxes: np.ndarray,
                   weights: LossWeights) -> tuple[float, dict[str, float]]:
    """Weighted training objective over the active branches, taken from the
    network's outputs as it emits them: the reconstruction rows ``recon``
    and the future branch's (..., p, 4) delta rows ``deltas``.

    Per mode:
      traj-del       beta * L1(deltas, target deltas)
      traj           beta * L1(concat_trajectory(deltas, anchor), target_boxes)
      traj+auto-enc  the traj term + alpha * L1(recon, reconstruction_target)

    `_trajectory_term` picks what the mode supervises; the anchor is the
    (cx, cy, w, h) of the window's last row, and the target deltas derive
    from it and ``target_boxes``. ``recon`` is read, and must be given,
    only in traj+auto-enc mode. L1 terms are means over every element
    (batched inputs average over the batch too), so the loss of a batch is
    the mean of the per-sample losses. The sum is built from the per-term
    pieces `loss_and_grads` also uses, in the same order: beta * traj, then
    + alpha * auto. This is the objective the finite-difference checks of
    `loss_and_grads` differentiate.

    Returns (loss, unweighted per-term values).
    """
    _check_window(window)
    counts = {"traj": deltas.size, "auto_enc": window.size}
    sums = {"traj": _trajectory_term(deltas, window, target_boxes, weights,
                                     counts["traj"])[0]}
    if weights.mode == MODE_TRAJ_AUTOENC:
        if recon is None:
            raise ConfigError("traj+auto-enc mode needs the reconstruction rows")
        sums["auto_enc"] = _reconstruction_term(recon, window, weights,
                                                counts["auto_enc"])[0]
    return _weighted_sum(sums, counts, weights)


def _weighted_sum(sums: dict[str, float], counts: dict[str, int],
                  weights: LossWeights) -> tuple[float, dict[str, float]]:
    """(loss, per-term means) of the per-term L1 sums over ``counts``
    elements: beta * traj, then + alpha * auto_enc when it is present."""
    terms = {name: s / counts[name] for name, s in sums.items()}
    loss = weights.beta * terms["traj"]
    if "auto_enc" in terms:
        loss += weights.alpha * terms["auto_enc"]
    return loss, terms


def _trajectory_term(deltas: np.ndarray, window: np.ndarray,
                     target_boxes: np.ndarray, weights: LossWeights,
                     count: int) -> tuple[float, np.ndarray]:
    """The trajectory L1 sum and the beta-weighted gradient of its mean over
    ``count`` elements on the delta rows ``deltas``; the one place that
    picks what a loss mode supervises.

    In traj-del mode the deltas are compared with the target deltas, taken
    from the window's anchor (the (cx, cy, w, h) of its last row). In the
    other modes `concat_trajectory` sums the deltas on that anchor into
    boxes, compared with ``target_boxes``, and the boxes' gradient flows
    back to the deltas through a reverse cumulative sum.
    """
    anchor = window[..., -1, :4]
    if weights.mode == MODE_TRAJ_DEL:
        target = np.diff(target_boxes, axis=-2, prepend=anchor[..., None, :])
        l_traj, g_traj = _l1_sum(deltas, target, count)
        return l_traj, weights.beta * g_traj
    l_traj, g_traj = _l1_sum(concat_trajectory(deltas, anchor), target_boxes,
                             count)
    d_boxes = weights.beta * g_traj
    # box i collects deltas 1..i, so the delta at step t collects the
    # gradient of every box from t onward
    return l_traj, np.flip(np.cumsum(np.flip(d_boxes, axis=-2), axis=-2),
                           axis=-2)


def _reconstruction_term(recon: np.ndarray, window: np.ndarray,
                         weights: LossWeights, count: int
                         ) -> tuple[float, np.ndarray]:
    """The reconstruction L1 sum and the alpha-weighted gradient of its mean
    over ``count`` elements on ``recon``."""
    l_auto, g_auto = _l1_sum(recon, reconstruction_target(window), count)
    return l_auto, weights.alpha * g_auto


# ---------------------------------------------------------------------------
# training engine: forward with caches + hand-derived backward


def loss_and_grads(params: ModelParams, window: np.ndarray,
                   target_boxes: np.ndarray, weights: LossWeights
                   ) -> tuple[float, dict[str, float], dict[str, np.ndarray]]:
    """Composite loss plus analytic gradients for every learnable tensor.

    ``window`` is (k, 8) or (..., k, 8); ``target_boxes`` is (p, 4) behind
    the window's batch shape. Both pass the entry step (`_as_rows`): checked,
    cast to ``params.dtype`` and flattened to rows, so a single window gives
    its one-row batch's bits, a multi-axis batch its flattened batch's, and
    the whole pass, gradients included, runs in the params' dtype; the loss
    is summed in float64. Gradients accumulate into a zero `ModelParams` of
    the params' layout and dtype, and come back as its ``tensors()``;
    inactive branches contribute zeros. Batched gradients are the gradient
    of the batch-mean loss, which equals the mean of the per-sample
    gradients.

    The rows run as ceil(n / `TRAIN_BLOCK_ROWS`) blocks of near-equal row
    counts (`np.array_split`, as `predict_from_window` splits), one after
    another, so the LSTM caches of one block at most are live at once: they
    grow with `TRAIN_BLOCK_ROWS`, not with the batch. Each block runs `_block_grads`
    and adds into the one gradient record and into float64 L1 sums. Every block's
    head gradients divide by the element count of the whole batch, so they
    have the bits of the unblocked pass; the sums over blocks (the weight
    and bias gradients, the loss) divide once and reassociate, so only a
    batch of more than `TRAIN_BLOCK_ROWS` rows rounds apart from the whole
    batch run as one block. The loss and the terms come from the sums as
    `composite_loss` makes them: beta * traj, then + alpha * auto.

    An empty batch raises DataError before any forward step. A loss that
    is not finite raises NumericError as soon as the term that makes it so
    is added, before that block's branch runs its backward pass; that
    block's encoder backward pass never runs.
    """
    dims = params.dims
    window, batch = _as_rows(params, "feature window", window,
                             (dims.k, INPUT_DIM))
    target_boxes, _ = _as_rows(params, "target_boxes", target_boxes,
                               (dims.p, OUTPUT_DIM), batch)
    if 0 in batch:
        raise DataError(f"empty training batch: feature window has shape "
                        f"{batch + (dims.k, INPUT_DIM)}")

    grads = ModelParams.build(
        dims, lambda _name, shape: np.zeros(shape, dtype=params.dtype),
        params.carry_cell_state)
    counts = {"traj": target_boxes.size, "auto_enc": window.size}
    sums = {"traj": 0.0}
    if weights.mode == MODE_TRAJ_AUTOENC:
        sums["auto_enc"] = 0.0
    for rows, targets in zip(_row_blocks(window, TRAIN_BLOCK_ROWS),
                             _row_blocks(target_boxes, TRAIN_BLOCK_ROWS)):
        _block_grads(params, rows, targets, weights, counts, sums, grads)
    loss, terms = _weighted_sum(sums, counts, weights)
    return loss, terms, grads.tensors()


def _block_grads(params: ModelParams, window: np.ndarray,
                 target_boxes: np.ndarray, weights: LossWeights,
                 counts: dict[str, int], sums: dict[str, float],
                 grads: ModelParams) -> None:
    """One block of `loss_and_grads`: adds its L1 sums into ``sums`` and its
    gradients, each head's divided by the whole batch's ``counts``, into
    the gradient record ``grads``, each into the layer of its parameter.
    Its caches are freed when it returns.

    The decoder branches run one at a time, so at most the encoder's and
    one decoder's caches are live at once. In order: the encoder forward
    (`_run_encoder`, as `encode` runs it); the future branch's forward,
    head, trajectory term and backward; in traj+auto-enc mode the
    reconstruction branch's likewise; then ``fc_latent`` and the encoder
    backward, whose ``wx`` gradient is `linear_weight_grad` of the window
    rows against the gate gradients. Each branch frees its caches before
    the next one allocates. ``dz`` sums the future branch's part, then the
    reconstruction branch's. After each term the loss of the running sums
    must be finite.
    """
    enc, h_relu, z = _run_encoder(params, window)

    fut, deltas = _future_branch(params, z, enc.final)
    l_traj, d_deltas = _trajectory_term(deltas, window, target_boxes, weights,
                                        counts["traj"])
    sums["traj"] += l_traj
    _check_finite_loss(sums, counts, weights)

    dz, d_enc_h, d_enc_c = _constant_decoder_backward(
        fut, params.fc_delta, z, d_deltas, grads.fut_dec, grads.fc_delta)
    del fut  # freed before the reconstruction branch allocates its caches
    if not params.carry_cell_state:
        d_enc_c = np.zeros_like(d_enc_c)

    if weights.mode == MODE_TRAJ_AUTOENC:
        auto, recon = _recon_branch(params, z)
        l_auto, d_recon = _reconstruction_term(recon, window, weights,
                                               counts["auto_enc"])
        sums["auto_enc"] += l_auto
        _check_finite_loss(sums, counts, weights)
        dz_auto, _, _ = _constant_decoder_backward(
            auto, params.fc_recon, z, d_recon, grads.auto_dec, grads.fc_recon)
        del auto, recon
        dz = dz + dz_auto

    dw, db, d_hrelu = linear_backward(params.fc_latent.w, h_relu, dz)
    grads.fc_latent.w += dw
    grads.fc_latent.b += db
    dh_final = d_hrelu * (h_relu > 0) + d_enc_h

    da, _, _ = _unroll_backward(enc, dh_final, d_enc_c, None, None, grads.enc)
    grads.enc.wx += linear_weight_grad(np.moveaxis(window, -2, 0), da)


def _check_finite_loss(sums: dict[str, float], counts: dict[str, int],
                       weights: LossWeights) -> None:
    """NumericError when the loss of the running L1 sums is not finite."""
    loss = _weighted_sum(sums, counts, weights)[0]
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r}")


def _unroll_backward(seq: LstmSeq, dh: np.ndarray, dc: np.ndarray,
                     d_out: np.ndarray | None, w_out: np.ndarray | None,
                     cell_grads: LstmCellParams
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through an unrolled run, input side excluded.

    The upstream gradient enters at the final state and, when ``d_out``
    ((steps, n, out)) is given, at every step's hidden state through the
    output head ``h @ w_out.T`` of that step: step t's hidden state receives
    ``d_out[t] @ w_out``, formed inside the loop, so no (steps, n, H)
    stack of those gradients is held. The pass consumes the forward cache:
    each step's gate gradients overwrite its gate activations in
    ``seq.gates``, and each step's hidden state, rebuilt by
    `lstm_gate_backward`, overwrites its cell state in ``seq.c``; after the
    loop ``seq.h0`` goes into ``seq.c[0]``, so ``seq.c`` holds the hidden
    states h[0..T] and ``seq`` cannot be run backward twice. Adds the
    ``wh``, ``bx`` and ``bh`` gradients into the cell's gradient record
    ``cell_grads``, as `linear_param_grads` of the previous hidden states
    ``seq.c[:-1]`` against the gate gradients (the two biases get the same
    sum), and returns (per-step gate gradients, i.e. ``seq.gates`` (steps,
    n, 4H), dh_init, dc_init); the caller adds the ``wx`` gradient, which
    needs the steps' inputs.
    """
    da = seq.gates
    for t in reversed(range(len(da))):
        if d_out is not None:
            dh = dh + d_out[t] @ w_out
        dh, dc = lstm_gate_backward(seq, t, dh, dc)
    seq.c[0] = seq.h0
    dwh, db = linear_param_grads(seq.c[:-1], da)
    cell_grads.wh += dwh
    cell_grads.bx += db
    cell_grads.bh += db
    return da, dh, dc


def _constant_decoder_backward(seq: LstmSeq, head: LinearParams, z: np.ndarray,
                               d_out: np.ndarray, cell_grads: LstmCellParams,
                               head_grads: LinearParams
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through a constant-input decoder run and its output head.

    ``d_out`` is the upstream gradient on the head's (n, steps, out) rows.
    Adds the head's gradients into ``head_grads`` and the cell's into
    ``cell_grads``, the gradient records of those two layers, and returns
    (dz, dh_init, dc_init). The head's gradient on each step's hidden
    state is formed step by step inside the recurrent backward loop; its
    weight and bias gradients are `linear_param_grads` over all steps,
    taken after that loop from the hidden states it rebuilt in ``seq.c``.
    Because the input is the same z at every step, the input-side weight
    gradient reduces to `linear_weight_grad` of z against the gate
    gradients summed over the steps.
    """
    d_out = np.moveaxis(d_out, -2, 0)
    da, dh, dc = _unroll_backward(seq, np.zeros_like(seq.h0),
                                  np.zeros_like(seq.h0), d_out, head.w,
                                  cell_grads)
    dw, db = linear_param_grads(seq.c[1:], d_out)
    head_grads.w += dw
    head_grads.b += db
    da_sum = da.sum(axis=0)
    cell_grads.wx += linear_weight_grad(z, da_sum)
    dz = da_sum @ seq.cell.wx
    return dz, dh, dc
