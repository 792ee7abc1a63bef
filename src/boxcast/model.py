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
shape. Every array `encode`, `reconstruct`, `decode_future` and
`loss_and_grads` take passes one entry step, `_as_rows`: its shape must be
the op's batch shape followed by the trailing shape ``params.dims`` gives
it (window (k, 8), target boxes (p, 4), z (latent,), encoder state h and c
(hidden,)), where the batch shape is whatever leads the op's first input;
a mismatch is a ShapeError naming the input. The step then casts the
array to ``params.dtype`` and flattens its batch axes into one, so below
the ops every tensor's batch shape is ``()`` or ``(n,)``, and a (2, 3)
batch gives the bits of the same six windows run as a (6,) batch. A single
window is not bit-equal to its one-row batch: the output heads run one
stacked product over the steps, and numpy rounds ``(T, H) @ w.T`` apart
from ``(T, 1, H) @ w.T``.

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
`concat_trajectory`, `forward_train`, `predict`) are composable pieces;
`loss_and_grads` is the training engine that runs the same math through
the same forward of the encoder and of each decoder branch
(`_run_encoder`, `_future_branch`, `_recon_branch`), keeps each
sequence's stacked buffers as its caches, runs its backward pass inside
them (overwriting the gate activations with their gradients), and returns
analytic parameter gradients. It runs a batch of more than
`TRAIN_BLOCK_ROWS` rows as near-equal row blocks, one after another, and
within a block one decoder branch at a time: each branch's forward pass,
loss term and backward pass finish, and its caches are freed, before the
next branch allocates, so at most one block's encoder and one decoder's
caches are live at once, whatever the batch size. Each head's gradient on
the per-step hidden states is formed step by step inside the backward
loop.
The objective has one definition, `composite_loss`, built from the
per-term pieces `loss_and_grads` calls branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Box, Boxes
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
    lstm_cell_forward,
    lstm_gate_backward,
    relu,
)

INPUT_DIM = 8   # cx, cy, w, h, dcx, dcy, dw, dh
OUTPUT_DIM = 4  # cx, cy, w, h (and their deltas on the future branch)

# Most rows one block of `loss_and_grads` runs: a larger batch runs as
# near-equal blocks, one at a time, so a training step's LSTM caches grow
# with this constant, not with the batch. The reference batch of 200 runs
# as two blocks of 100, which cuts `train`'s peak RSS from 347 to 241 MB.
# Smaller blocks cost time, as each step's products shrink: a 200-row step
# took 2380 ms whole, 2560 ms in blocks of 100 and 2760 ms in blocks of 50
# (hidden 512, float32, one BLAS thread, 2-core Xeon VM; median thread
# time of 6 alternating processes of 4 steps). Blocks of 100 never leave a
# tail of 1-12 rows, which would run the slower batch-1 or tiled
# recurrent products.
TRAIN_BLOCK_ROWS = 100

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
        _check_positive_ints(self, ("k", "p", "hidden", "latent"))


def _check_positive_ints(record, names: tuple[str, ...]) -> None:
    """ConfigError naming the first of ``record``'s fields ``names`` that
    is not a positive int."""
    for name in names:
        v = getattr(record, name)
        if not (isinstance(v, int) and v >= 1):
            raise ConfigError(f"{name} must be a positive int, got {v!r}")


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
    `ModelParams.tensors()` order, so a fixed seed fixes every value.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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


def _unroll(step, xs, seq: LstmSeq) -> LstmSeq:
    """The sequence driver: ``step(seq.cell, x, seq, t)`` for each step input
    ``x`` in ``xs``, each call filling step ``t`` of ``seq`` in place."""
    for t, x in enumerate(xs):
        step(seq.cell, x, seq, t)
    return seq


def _run_encoder(params: ModelParams, window: np.ndarray
                 ) -> tuple[LstmSeq, np.ndarray, np.ndarray]:
    """Unroll the encoder over the window rows from a zero state, then
    ``fc_latent`` on the ReLU of its final hidden state: (the sequence,
    that ReLU, z). Each step projects its own row: one GEMM over the whole
    window would round differently from the per-row products the bitwise
    tests pin."""
    init = LstmCellState.zeros(params.dims.hidden, window.shape[:-2],
                               dtype=params.dtype)
    xs = np.moveaxis(window, -2, 0)
    seq = _unroll(lstm_cell_forward, xs,
                  LstmSeq.start(params.enc, init, len(xs)))
    h_relu = relu(seq.h[-1])
    return seq, h_relu, linear_forward(params.fc_latent.w, params.fc_latent.b,
                                       h_relu)


def _run_constant_decoder(cell: LstmCellParams, head: LinearParams,
                          z: np.ndarray, steps: int, init: LstmCellState
                          ) -> tuple[LstmSeq, np.ndarray]:
    """Unroll a decoder that reads the same latent vector at every step and
    map each step's hidden state through ``head``: (the sequence, its
    (..., steps, out) head rows).

    The input projection ``z @ wx.T + bx + bh`` is computed once and reused,
    which is what makes the inference path cheap. The head is one stacked
    product over the (steps, ..., H) hidden states.
    """
    seq = LstmSeq.start(cell, init, steps)
    x_pre = z @ cell.wx.T
    x_pre += seq.bias
    _unroll(_lstm_cell_from_preact, [x_pre] * steps, seq)
    return seq, np.moveaxis(seq.h[1:] @ head.w.T + head.b, 0, -2)


def _future_branch(params: ModelParams, z: np.ndarray,
                   enc_final: LstmCellState) -> tuple[LstmSeq, np.ndarray]:
    """The future branch for p steps, then ``fc_delta``: (its sequence, the
    (..., p, 4) delta rows). It starts from the encoder's final (h, c) when
    the model was built with carry_cell_state, from h and a zero cell
    otherwise."""
    c = enc_final.c if params.carry_cell_state else np.zeros_like(enc_final.h)
    return _run_constant_decoder(params.fut_dec, params.fc_delta, z,
                                 params.dims.p, LstmCellState(enc_final.h, c))


def _recon_branch(params: ModelParams, z: np.ndarray
                  ) -> tuple[LstmSeq, np.ndarray]:
    """The reconstruction branch for k steps from a zero state, then
    ``fc_recon``: (its sequence, the (..., k, 8) reconstruction rows)."""
    return _run_constant_decoder(
        params.auto_dec, params.fc_recon, z, params.dims.k,
        LstmCellState.zeros(params.dims.hidden, z.shape[:-1], z.dtype))


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
    matches) and its batch axes are flattened into one; an unbatched ``a``
    keeps its shape. A float64 input reaching a float32 step would make
    NumPy upcast the whole recurrent weight matrix on every step, and a
    stacked product over two batch axes can round apart from the same rows
    over one.
    """
    shape = np.shape(a)
    if batch is None:
        batch = shape[:len(shape) - len(tail)]
    if shape != batch + tail:
        raise ShapeError(f"{name} has shape {shape}, expected {batch + tail}")
    a = np.asarray(a, dtype=params.dtype)
    return (a.reshape((-1,) + tail) if batch else a), batch


def encode(params: ModelParams, window: np.ndarray
           ) -> tuple[np.ndarray, LstmCellState]:
    """Map a (..., k, 8) window to (latent vector z, encoder final state).

    The returned state is the raw final (h, c); the ReLU sits only on the
    path into the latent projection. All three are in ``params.dtype``,
    with the window's batch shape.
    """
    rows, batch = _as_rows(params, "feature window", window,
                           (params.dims.k, INPUT_DIM))
    seq, _, z = _run_encoder(params, rows)
    z, h, c = (a.reshape(batch + a.shape[-1:])
               for a in (z, seq.h[-1], seq.c[-1]))
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
    """Forecast from an already-built (..., k, 8) feature window (the
    benchmark hot path); the boxes come back as (..., p, 4)."""
    z, state = encode(params, window)
    deltas = decode_future(params, z, state)
    return concat_trajectory(deltas, window[..., -1, :4])


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
                   pred_boxes: np.ndarray | None, target_boxes: np.ndarray,
                   weights: LossWeights,
                   pred_deltas: np.ndarray | None = None
                   ) -> tuple[float, dict[str, float]]:
    """Weighted training objective over the active branches.

    Per mode:
      traj-del       beta * L1(pred_deltas, target deltas)
      traj           beta * L1(pred_boxes, target_boxes)
      traj+auto-enc  the traj term + alpha * L1(recon, reconstruction_target)

    Each mode needs the head it supervises: ``pred_deltas`` in traj-del
    mode, ``pred_boxes`` otherwise, and ``recon`` too in traj+auto-enc
    mode. Target deltas derive from ``target_boxes`` and the anchor stored
    in the window's last row. L1 terms are means over every element
    (batched inputs average over the batch too), so the loss of a batch is
    the mean of the per-sample losses. The sum is built from the per-term
    pieces `loss_and_grads` also uses, in the same order: beta * traj, then
    + alpha * auto. This is the objective the finite-difference checks of
    `loss_and_grads` differentiate.

    Returns (loss, unweighted per-term values).
    """
    _check_window(window)
    pred, head = (pred_deltas, "pred_deltas") \
        if weights.mode == MODE_TRAJ_DEL else (pred_boxes, "pred_boxes")
    if pred is None:
        raise ConfigError(f"mode {weights.mode!r} needs {head}")
    counts = {"traj": pred.size, "auto_enc": window.size}
    sums = {"traj": _trajectory_term(pred, window, target_boxes, weights,
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


def _trajectory_term(pred: np.ndarray, window: np.ndarray,
                     target_boxes: np.ndarray, weights: LossWeights,
                     count: int) -> tuple[float, np.ndarray]:
    """The trajectory L1 sum and the beta-weighted gradient of its mean over
    ``count`` elements on ``pred``: the delta rows in traj-del mode (against
    the target deltas, taken from the window's anchor), the future boxes
    otherwise."""
    target = target_boxes
    if weights.mode == MODE_TRAJ_DEL:
        target = np.diff(target_boxes, axis=-2,
                         prepend=window[..., -1, None, :4])
    l_traj, g_traj = _l1_sum(pred, target, count)
    return l_traj, weights.beta * g_traj


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
    cast to ``params.dtype`` and flattened to one batch axis, so a
    multi-axis batch gives its flattened batch's bits and the whole pass,
    gradients included, runs in the params' dtype; the loss is summed in
    float64. Gradients come back keyed like ``ModelParams.tensors()``;
    inactive branches contribute zeros. Batched gradients are the gradient
    of the batch-mean loss, which equals the mean of the per-sample
    gradients.

    The flattened batch runs as ceil(n / `TRAIN_BLOCK_ROWS`) blocks of
    near-equal row counts (`np.array_split`), one after another, so the
    LSTM caches of one block at most are live at once: they grow with
    `TRAIN_BLOCK_ROWS`, not with the batch. Each block runs `_block_grads`
    and adds into one gradient dict and into float64 L1 sums. Every block's
    head gradients divide by the element count of the whole batch, so they
    have the bits of the unblocked pass; the sums over blocks (the weight
    and bias gradients, the loss) divide once and reassociate, so only a
    batch of more than `TRAIN_BLOCK_ROWS` rows rounds apart from the whole
    batch run as one block. A single window and a batch of at most
    `TRAIN_BLOCK_ROWS` rows are one block. The loss and the terms come from
    the sums as `composite_loss` makes them: beta * traj, then
    + alpha * auto.

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

    grads = {name: np.zeros_like(t) for name, t in params.tensors().items()}
    counts = {"traj": target_boxes.size, "auto_enc": window.size}
    sums = {"traj": 0.0}
    if weights.mode == MODE_TRAJ_AUTOENC:
        sums["auto_enc"] = 0.0
    # a single (k, 8) window has no batch axis to split
    blocks = -(-len(window) // TRAIN_BLOCK_ROWS) if batch else 1
    for rows, targets in zip(np.array_split(window, blocks),
                             np.array_split(target_boxes, blocks)):
        _block_grads(params, rows, targets, weights, counts, sums, grads)
    loss, terms = _weighted_sum(sums, counts, weights)
    return loss, terms, grads


def _block_grads(params: ModelParams, window: np.ndarray,
                 target_boxes: np.ndarray, weights: LossWeights,
                 counts: dict[str, int], sums: dict[str, float],
                 grads: dict[str, np.ndarray]) -> None:
    """One block of `loss_and_grads`: adds its L1 sums into ``sums`` and its
    gradients, each head's divided by the whole batch's ``counts``, into
    ``grads``. Its caches are freed when it returns.

    The decoder branches run one at a time, so at most the encoder's and
    one decoder's caches are live at once. In order: the encoder forward
    (`_run_encoder`, as `encode` runs it); the future branch's forward,
    head, trajectory term and backward; in traj+auto-enc mode the
    reconstruction branch's likewise; then ``fc_latent`` and the encoder
    backward. Each branch frees its caches before the next one allocates.
    ``dz`` sums the future branch's part, then the reconstruction
    branch's. After each term the loss of the running sums must be finite.
    """
    enc, h_relu, z = _run_encoder(params, window)

    fut, deltas = _future_branch(params, z, enc.final)
    if weights.mode == MODE_TRAJ_DEL:
        l_traj, d_deltas = _trajectory_term(deltas, window, target_boxes,
                                            weights, counts["traj"])
    else:
        l_traj, d_boxes = _trajectory_term(
            concat_trajectory(deltas, window[..., -1, :4]), window,
            target_boxes, weights, counts["traj"])
        # box i collects deltas 1..i, so the delta at step t collects the
        # gradient of every box from t onward
        d_deltas = np.flip(np.cumsum(np.flip(d_boxes, axis=-2), axis=-2),
                           axis=-2)
    sums["traj"] += l_traj
    _check_finite_loss(sums, counts, weights)

    dz, d_enc_h, d_enc_c = _constant_decoder_backward(
        fut, params.fc_delta, z, d_deltas, grads, "fut_dec", "fc_delta")
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
            auto, params.fc_recon, z, d_recon, grads, "auto_dec", "fc_recon")
        del auto, recon
        dz = dz + dz_auto

    dw, db, d_hrelu = linear_backward(params.fc_latent.w, h_relu, dz)
    grads["fc_latent.w"] += dw
    grads["fc_latent.b"] += db
    dh_final = d_hrelu * (h_relu > 0) + d_enc_h

    da, _, _ = _unroll_backward(enc, dh_final, d_enc_c, None, None, grads,
                                "enc")
    xs = np.moveaxis(window, -2, 0)
    grads["enc.wx"] += da.reshape(-1, da.shape[-1]).T \
        @ xs.reshape(-1, xs.shape[-1])


def _check_finite_loss(sums: dict[str, float], counts: dict[str, int],
                       weights: LossWeights) -> None:
    """NumericError when the loss of the running L1 sums is not finite."""
    loss = _weighted_sum(sums, counts, weights)[0]
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss!r}")


def _unroll_backward(seq: LstmSeq, dh: np.ndarray, dc: np.ndarray,
                     d_out: np.ndarray | None, w_out: np.ndarray | None,
                     grads: dict[str, np.ndarray], prefix: str
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through an unrolled run, input side excluded.

    The upstream gradient enters at the final state and, when ``d_out``
    ((steps, ..., out)) is given, at every step's hidden state through the
    output head ``h @ w_out.T`` of that step: step t's hidden state receives
    ``d_out[t] @ w_out``, formed inside the loop, so no (steps, ..., H)
    stack of those gradients is held. The pass consumes the forward cache:
    each step's gate gradients overwrite its gate activations in
    ``seq.gates``, so ``seq`` cannot be run backward twice. Accumulates the
    ``wh``/``bx``/``bh`` gradients into ``grads`` and returns (per-step gate
    gradients, i.e. ``seq.gates`` (steps, ..., 4H), dh_init, dc_init).
    """
    da = seq.gates
    for t in reversed(range(len(da))):
        if d_out is not None:
            dh = dh + d_out[t] @ w_out
        dh, dc = lstm_gate_backward(seq, t, dh, dc)
    da2 = da.reshape(-1, da.shape[-1])
    h_prev = seq.h[:-1]
    grads[prefix + ".wh"] += da2.T @ h_prev.reshape(-1, h_prev.shape[-1])
    db = da2.sum(axis=0)
    grads[prefix + ".bx"] += db
    grads[prefix + ".bh"] += db
    return da, dh, dc


def _constant_decoder_backward(seq: LstmSeq, head: LinearParams, z: np.ndarray,
                               d_out: np.ndarray, grads: dict[str, np.ndarray],
                               prefix: str, head_prefix: str
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through a constant-input decoder run and its output head.

    ``d_out`` is the upstream gradient on the head's (..., steps, out) rows.
    Accumulates the head's and the cell's gradients into ``grads`` and
    returns (dz, dh_init, dc_init). The head's weight and bias gradients are
    one product over all steps; its gradient on each step's hidden state is
    formed step by step inside the recurrent backward loop. Because the
    input is the same z at every step, the input-side weight gradient
    reduces to one product with the summed gate gradients.
    """
    d_out = np.moveaxis(d_out, -2, 0)
    dw, db = linear_param_grads(seq.h[1:], d_out)
    grads[head_prefix + ".w"] += dw
    grads[head_prefix + ".b"] += db
    da, dh, dc = _unroll_backward(seq, np.zeros_like(seq.h[0]),
                                  np.zeros_like(seq.c[0]), d_out, head.w,
                                  grads, prefix)
    da_sum = da.sum(axis=0)
    grads[prefix + ".wx"] += da_sum.reshape(-1, da_sum.shape[-1]).T \
        @ z.reshape(-1, z.shape[-1])
    dz = da_sum @ seq.cell.wx
    return dz, dh, dc
