"""Dense numeric kernel: LSTM cell, linear map, ReLU, L1 loss and Adam.

Tensors are plain numpy arrays, row-major. Every vector op accepts either a
single sample (trailing feature axis only, e.g. shape ``(D,)``) or a batch
(``(N, D)``); batched results stack along the leading axis and equal the
per-sample results row for row, up to rounding: a batch runs a matrix
product where one sample runs a matrix-vector product. All ops are pure
functions of their inputs (no hidden state, no randomness), so identical
inputs give identical outputs and concurrent read-only use of shared
parameter tensors is safe.

Packed LSTM gate tensors use a fixed slice layout along the ``4H`` axis:
input gate, forget gate, cell candidate, output gate, in that order. Both
the input side and the recurrent side carry their own bias vector, and the
two are simply added, so the effective bias is ``bx + bh``.

An unrolled LSTM pass keeps its forward cache as stacked buffers allocated
once per sequence (`LstmSeq`): each step call writes its gates and new state
into its own index in place. The backward pass runs inside that cache:
`lstm_gate_backward` reads step t's gate activations and overwrites them
with their gradients, recomputing tanh(c) rather than storing it, so a
sequence's backward allocates no buffer of its own beyond a few per-step
temporaries. `linear_param_grads` is the weight-gradient half of
`linear_backward`, for a caller that forms the input gradient of a per-step
output head one step at a time inside that backward loop. The ops run in
the dtype of their parameters; the loss is summed in float64.

The LSTM step has one form: ``lstm_cell_forward(params, x, seq, t)``
writes step t of an `LstmSeq` in place and returns nothing; `LstmSeq.start`
allocates the pass, checks its state shapes once, picks the row tiles of
``wh`` its recurrent products run over and builds the (4H,) lane vectors of
its gate activations. Small batches (2-12 rows at H = 512) run tiles of at
most `TILE_MACS` multiply-adds: there one product over all of ``wh`` makes
OpenBLAS pack the whole 4 MiB matrix every step, while the tiles take its
small-matrix kernel, which reads ``wh`` in place (in the spirit of Diamos
et al., *Persistent RNNs*, ICML 2016). Both limits come from a sweep of
tile sizes at H = 512, float32, one BLAS thread (OpenBLAS 0.3.31, SkylakeX
kernels). One row runs the two halves of ``wh`` (the i, f lanes and the
g, o lanes) as gemvs that write their gate lanes in place, and 13+ rows
run one product. A step walks its tiles forward on even steps and backward
on odd ones, so it starts on the rows of ``wh`` the previous step read
last, part of which a 2 MiB L2 still holds. Against one product per step,
halves made a one-row step 1.08-1.12x faster at one BLAS thread and
1.18-1.21x at two; quarters ran 1.13-1.16x at one thread but 0.57x at two,
because OpenBLAS runs a gemv that small on one thread (H = 512, float32,
40 interleaved 90-step passes per run, OpenBLAS 0.3.31, 2-core Xeon VM
with 2 MiB L2 per core).
Every gate's pre-activation is its own dot product, so the split and the
order leave the bits of one product: a batch of 1 or of 13+ rows gives the
bits of the untiled step. The gate activations run as three calls over
all lanes, ``a *= scale``, tanh, then ``a *= scale; a += shift``, with the
(4H,) vectors `LstmSeq` holds; the g lane's factors 1 and -0.0 are exact.
Adam runs with the standard hyperparameters of Kingma & Ba (ICLR 2015):
`ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "AdamState",
    "LinearParams",
    "LstmCellParams",
    "LstmCellState",
    "LstmSeq",
    "TILE_MACS",
    "TILE_MAX_NH",
    "adam_step",
    "l1_loss",
    "linear_backward",
    "linear_forward",
    "linear_param_grads",
    "lstm_cell_forward",
    "lstm_gate_backward",
    "relu",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Row tiles of the recurrent product (see `_lstm_cell_from_preact`): each
# tile is at most TILE_MACS multiply-adds, and a step tiles only while its
# flattened batch n has n * H <= TILE_MAX_NH, i.e. 2 <= n <= 12 at H = 512.
TILE_MACS, TILE_MAX_NH = 1 << 19, 6144

# Per-lane (i, f, g, o) values of `LstmSeq.scale` and `LstmSeq.shift`; the
# g lane's -0.0 leaves every value as it is, -0.0 included, where +0.0
# would not.
_LANE_SCALE, _LANE_SHIFT = (0.5, 0.5, 1.0, 0.5), (0.5, 0.5, -0.0, 0.5)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class LstmCellParams:
    """Weights of one LSTM cell.

    wx : (4H, D) input-to-gate weights, gate-major (i, f, g, o)
    wh : (4H, H) hidden-to-gate weights
    bx : (4H,)  input-side bias
    bh : (4H,)  recurrent-side bias
    """

    wx: np.ndarray
    wh: np.ndarray
    bx: np.ndarray
    bh: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


@dataclass
class LstmCellState:
    """Hidden and cell activations of shape (..., H), always matching: (H,)
    for one sample. The model's ops flatten every batch to one axis before
    they reach a cell, so there the shape is (H,) or (N, H). Both stay,
    because a single model window runs unbatched (its one-row batch rounds
    apart in the output heads): ``zeros``' ``batch_shape`` serves () and
    (N,) alike."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, batch_shape: tuple = (),
              dtype=np.float64) -> "LstmCellState":
        shape = tuple(batch_shape) + (hidden_size,)
        return cls(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))


@dataclass
class LstmSeq:
    """The forward cache of one unrolled LSTM pass of T steps, as stacked
    buffers preallocated for the whole pass.

    gates : (T, ..., 4H) post-activation (i, f, g, o) of every step; the
            backward pass overwrites step t's with its pre-activation
            gradient (`lstm_gate_backward`), so after it the buffer holds
            gradients, not activations
    c, h  : (T+1, ..., H) cell and hidden states; index 0 holds the initial
            state and index t+1 the output of step t, so ``h[:-1]`` are the
            steps' previous hidden states
    cell  : the cell this pass runs, and ``bias`` its summed ``bx + bh``
    tiles : row slices of ``wh`` the recurrent product runs over, one per
            matrix product: the two halves of ``wh`` at one row, tiles of
            at most `TILE_MACS` multiply-adds while n * H <= `TILE_MAX_NH`,
            otherwise a single slice of all 4H rows
    scale, shift : (4H,) lane vectors of the gate activations: 0.5 and 0.5
            in the sigmoid lanes, 1 and -0.0 in the g lane

    tanh(c) is not kept: the backward pass recomputes it from ``c``.
    `start` checks the state shape once for the whole pass; each step call
    fills its own index in place. The network runs in the cell's dtype.
    The model's ops start a pass on an unbatched (H,) state or on (N, H)
    rows, and a step's ``reshape(-1, ...)`` to rows serves both, so ``...``
    here means one batch axis or none.
    """

    cell: LstmCellParams
    bias: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tiles: tuple[slice, ...]
    scale: np.ndarray
    shift: np.ndarray

    @classmethod
    def start(cls, cell: LstmCellParams, init: LstmCellState,
              steps: int) -> "LstmSeq":
        """Buffers for ``steps`` steps starting from ``init``."""
        H = cell.hidden_size
        _check_last_dim("state.h", init.h, H)
        if init.c.shape != init.h.shape:
            raise ShapeError(f"state.c has shape {init.c.shape}, state.h "
                             f"{init.h.shape}")
        dtype = cell.wh.dtype
        batch = init.h.shape[:-1]
        c = np.empty((steps + 1,) + batch + (H,), dtype=dtype)
        h = np.empty_like(c)
        c[0] = init.c
        h[0] = init.h
        n = init.h.size // H
        r = 4 * H
        if n == 1:
            r = 2 * H
        elif n >= 2 and n * H <= TILE_MAX_NH:
            r = min(r, 1 << ((TILE_MACS // (n * H)).bit_length() - 1))
        return cls(cell=cell, bias=cell.bx + cell.bh,
                   gates=np.empty((steps,) + batch + (4 * H,), dtype=dtype),
                   c=c, h=h,
                   tiles=tuple(slice(j, j + r) for j in range(0, 4 * H, r)),
                   scale=np.repeat(np.array(_LANE_SCALE, dtype), H),
                   shift=np.repeat(np.array(_LANE_SHIFT, dtype), H))

    @property
    def final(self) -> LstmCellState:
        return LstmCellState(self.h[-1], self.c[-1])


def _check_last_dim(name: str, arr: np.ndarray, expected: int) -> None:
    if arr.shape[-1] != expected:
        raise ShapeError(
            f"{name} has shape {arr.shape}, expected last dim {expected}")


def _gate_lanes(a: np.ndarray, H: int) -> tuple[np.ndarray, ...]:
    """Views of the (i, f, g, o) lanes of a packed (..., 4H) gate array."""
    return a[..., :H], a[..., H: 2 * H], a[..., 2 * H: 3 * H], a[..., 3 * H:]


def lstm_cell_forward(params: LstmCellParams, x: np.ndarray, seq: LstmSeq,
                      t: int) -> None:
    """Step ``t`` of ``seq`` on input x, (D,) or (N, D) matching the batch
    shape ``seq`` was started with, written in place into ``seq``."""
    x_pre = x @ params.wx.T
    x_pre += seq.bias
    _lstm_cell_from_preact(params, x_pre, seq, t)


def _lstm_cell_from_preact(params: LstmCellParams, x_pre: np.ndarray,
                           seq: LstmSeq, t: int) -> None:
    """Step ``t`` of ``seq`` given the already-projected input
    ``x @ wx.T + bx + bh``, written in place into ``seq``.

    Lets sequence drivers with a constant input compute that projection once
    instead of once per step.
    """
    H = params.hidden_size
    a = seq.gates[t]
    # Weight-left: with wh as the right operand OpenBLAS packs it slowly at
    # small batch, so ``wh @ h.T`` runs 1.5-2x faster than ``h @ wh.T`` at
    # batch 2-16 with the same bits (the same gemv at batch 1). Every batch
    # shape is flattened to rows for it. At 2-12 rows even that product
    # packs all of wh each step; split into row tiles of at most 2^19
    # multiply-adds, each product takes OpenBLAS's small-matrix kernel,
    # which reads wh in place: 2-2.5x faster at 2-6 rows, 1.2x at 12 (at
    # H = 512, float32, one thread). 13+ rows run one tile. One row runs
    # wh's two halves as gemvs that write their gate lanes in place, with
    # no (r, 1) temporary or transposed copy. Odd steps walk the tiles
    # backward, so each step starts on the tile the previous one read
    # last, which the L2 still partly holds (see the module docstring).
    # Each gate's pre-activation is its own dot product, so neither the
    # split nor the order moves a bit.
    rows, h_prev = a.reshape(-1, 4 * H), seq.h[t].reshape(-1, H)
    tiles = seq.tiles[::-1] if t % 2 else seq.tiles
    if len(h_prev) == 1:
        for tile in tiles:
            np.matmul(params.wh[tile], h_prev[0], out=rows[0, tile])
    else:
        for tile in tiles:
            rows[:, tile] = (params.wh[tile] @ h_prev.T).T
    a += x_pre
    # One tanh pass over all four lanes, since sigmoid(x) = (1 + tanh(x/2))/2:
    # halve the sigmoid lanes, tanh everything, then map those lanes back,
    # as three calls with the pass's (4H,) lane vectors.
    a *= seq.scale
    np.tanh(a, out=a)
    a *= seq.scale
    a += seq.shift
    i, f, g, o = _gate_lanes(a, H)
    c = seq.c[t + 1]
    np.multiply(f, seq.c[t], out=c)
    c += i * g
    h = np.tanh(c, out=seq.h[t + 1])
    h *= o


def lstm_gate_backward(seq: LstmSeq, t: int, dh: np.ndarray, dc: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Backward through step ``t`` of ``seq``, stopping at the gate
    pre-activations.

    Inputs are the gradients flowing into the step's outputs h and c.
    Overwrites ``seq.gates[t]`` with the gradient on the packed (i, f, g, o)
    pre-activation vector, consuming the step's gate activations, and returns
    ``(dh_prev, dc_prev)``. ``seq.gates[t]`` is then also the gradient on
    each bias; the caller turns it into the weight gradients (times the
    step's input for ``wx``, times ``seq.h[t]`` for ``wh``). tanh of the new
    cell state is recomputed from ``seq.c[t + 1]``.
    """
    H = seq.cell.hidden_size
    i, f, g, o = _gate_lanes(seq.gates[t], H)
    tc = np.tanh(seq.c[t + 1])
    # gradient reaching the new cell state: dc + dh * o * (1 - tanh(c)^2)
    dc_total = np.multiply(tc, tc)
    np.subtract(1.0, dc_total, out=dc_total)
    dc_total *= o
    dc_total *= dh
    dc_total += dc
    dc_prev = dc_total * f
    # Each lane's gradient is its activation derivative, s(1 - s) or
    # (1 - g)(1 + g), times the upstream factors, written over the lane once
    # every other lane that reads that activation is done with it: the o and
    # f lanes read only themselves, the i and g lanes read each other, so dg
    # is built aside and copied in after di.
    tmp = np.subtract(1.0, o)
    o *= tmp
    o *= dh
    o *= tc
    np.subtract(1.0, f, out=tmp)
    f *= tmp
    f *= dc_total
    f *= seq.c[t]
    dg = np.subtract(1.0, g)
    dg *= 1.0 + g
    dg *= dc_total
    dg *= i
    np.subtract(1.0, i, out=tmp)
    i *= tmp
    i *= dc_total
    i *= g
    g[...] = dg
    return seq.gates[t] @ seq.cell.wh, dc_prev


@dataclass
class LinearParams:
    """Affine map y = x @ w.T + b with w of shape (out, in), b of shape (out,)."""

    w: np.ndarray
    b: np.ndarray


def linear_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine map; x is (in,) or (..., in), result (out,) or (..., out)."""
    _check_last_dim("x", x, w.shape[1])
    if b.shape != (w.shape[0],):
        raise ShapeError(f"b has shape {b.shape}, expected ({w.shape[0]},)")
    return x @ w.T + b


def linear_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the affine map: returns (dw, db, dx), batch-summed."""
    return (*linear_param_grads(x, dy), dy @ w)


def linear_param_grads(x: np.ndarray, dy: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The (dw, db) of `linear_backward`, summed over every leading axis,
    for callers that form the input gradient ``dy @ w`` themselves."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    return dy2.T @ x2, dy2.sum(axis=0)


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over every element.

    Returns ``(loss, grad)`` with ``grad = sign(pred - target) / n`` where n
    is the total element count; the subgradient at exact ties is 0. The loss
    is summed in float64 whatever the inputs' dtype, so float32 differences
    too large to sum in float32 still give a finite loss. Empty inputs
    have no mean and raise ShapeError.
    """
    total, grad = _l1_sum(pred, target, pred.size)
    return total / pred.size, grad


def _l1_sum(pred: np.ndarray, target: np.ndarray, count: int
            ) -> tuple[float, np.ndarray]:
    """The absolute error summed in float64, and ``sign(pred - target) /
    count``: `l1_loss` before its one division. A block of a larger batch
    passes the whole batch's element count, so its gradient has the bits
    of the whole batch's, and the blocks' sums divide once."""
    if pred.shape != target.shape:
        raise ShapeError(
            f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError(f"_l1_sum of empty arrays of shape {pred.shape}")
    diff = pred - target
    return float(np.abs(diff).sum(dtype=np.float64)), np.sign(diff) / count


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict, and
    the step count. The hyperparameters are the module constants."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()}, t=0)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], lr: float) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    No weight decay. Raises NumericError naming the first tensor whose
    gradient contains a non-finite value.
    """
    if not lr > 0:
        raise ShapeError(f"learning rate must be positive, got {lr}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"grad for '{name}' has shape {g.shape}, param {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for tensor '{name}'")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
