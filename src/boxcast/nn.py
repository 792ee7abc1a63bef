"""Dense numeric kernel: LSTM cell, linear map, ReLU, L1 loss and Adam.

Tensors are plain numpy arrays, row-major. The LSTM ops take rows only:
every state, input and gate array of a pass is ``(N, ...)``, one sample
per row, a single sample being one row. The linear map, ReLU and the L1
loss take any leading shape. A row's result equals the same row run alone
up to rounding: N rows run a matrix product where one row runs
matrix-vector products. All ops are pure functions of their inputs (no
hidden state, no randomness), so identical inputs give identical outputs
and concurrent read-only use of shared parameter tensors is safe.

Packed LSTM gate tensors use a fixed slice layout along the ``4H`` axis:
input gate, forget gate, cell candidate, output gate, in that order. Both
the input side and the recurrent side carry their own bias vector, and the
two are simply added, so the effective bias is ``bx + bh``.

An unrolled LSTM pass keeps its forward cache as buffers allocated once
per sequence (`LstmSeq`): each step call writes its gates and new cell
state into its own index of stacked buffers in place, and its new hidden
state over the one (N, H) hidden state of the pass, once its recurrent
product has read it; no stack of hidden states is kept. The backward pass
runs inside that cache:
`lstm_gate_backward` reads step t's gate activations and overwrites them
with their gradients, recomputing tanh(c) rather than storing it, and
rebuilds h[t+1] = tanh(c[t+1]) * o, the forward's own product, in the
slot of c[t+1], which the rest of the backward never reads. Once the
caller puts the initial hidden state into c[0], the cell-state stack
holds every hidden state, which is what the weight gradients read. Like
checkpointed BPTT (Chen et al., arXiv:1604.06174) this trades a stored
tensor for recomputation, but the rebuild reruns no matrix product. So a
sequence's backward allocates no buffer of its own beyond a few per-step
temporaries. Every weight gradient of the network is one product,
`linear_weight_grad`: the rows of the output gradient transposed, times
the rows of the input, over every leading axis. `linear_param_grads` adds
the bias gradient, the output gradient summed over those rows. The model
takes both for its heads and, with the gate gradients as the output
gradient, for each LSTM's ``wh`` and biases, and the weight half alone for
each LSTM's ``wx``. The ops run in the dtype of their parameters; the loss
is summed in float64.

The LSTM step has one form: ``lstm_cell_forward(params, x, seq, t)``
writes step t of an `LstmSeq` in place and returns nothing; `LstmSeq.start`
allocates the pass, checks its state shapes once, picks the row tiles of
``wh`` its recurrent products run over and builds the (4H,) lane vectors of
its gate activations. One rule picks the tiles of every batch of n rows:
while 0 < n * H <= `TILE_MAX_NH`, a tile is the largest power of two of
rows of ``wh`` (4H at most) with at most `TILE_MACS` multiply-adds, and
each tile's product writes its gate lanes in place; otherwise there are no
tiles and the step runs one product over all of ``wh``. At H = 512 that
is the two halves of ``wh`` (the i, f lanes and the g, o lanes) at one
row, tiles of 512 to 64 rows at 2-12 rows and one product at 13+. A
tile's product takes OpenBLAS's gemv or small-matrix kernel, which reads
``wh`` in place, where one product over all of ``wh`` at 2-12 rows makes
OpenBLAS pack the whole 4 MiB matrix every step (in the spirit of Diamos
et al., *Persistent RNNs*, ICML 2016). Both limits come from a sweep of
tile sizes at H = 512, float32, one BLAS thread (OpenBLAS 0.3.31, SkylakeX
kernels). A step walks its tiles forward on even steps and backward on
odd ones, so it starts on the rows of ``wh`` the previous step read last,
part of which a 2 MiB L2 still holds. Against one product per step,
halves made a one-row step 1.08-1.12x faster at one BLAS thread and
1.18-1.21x at two; quarters ran 1.13-1.16x at one thread but 0.57x at two,
because OpenBLAS runs a gemv that small on one thread (H = 512, float32,
40 interleaved 90-step passes per run, OpenBLAS 0.3.31, 2-core Xeon VM
with 2 MiB L2 per core).
Every gate's pre-activation is its own dot product, so the product's form,
split and order leave the bits of one product: a batch of 1 or of 13+ rows
gives the bits of the untiled step, and ``tests/bit_ledger.json`` pins
those bits. The gate activations run as three calls over all lanes,
``a *= scale``, tanh, then ``a *= scale; a += shift``, with the (4H,)
vectors `LstmSeq` holds; the g lane's factors 1 and -0.0 are exact.
Adam runs with the standard hyperparameters of Kingma & Ba (ICLR 2015):
`ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

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
    "linear_weight_grad",
    "lstm_cell_forward",
    "lstm_gate_backward",
    "relu",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Row tiles of the recurrent product (see `LstmSeq.start`): each tile is at
# most TILE_MACS multiply-adds, and a step tiles only while its batch of n
# rows has 0 < n * H <= TILE_MAX_NH, i.e. 1 <= n <= 12 at H = 512.
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
    """Hidden and cell activations of matching shapes (..., H). The model's
    public ops take and return states in the caller's batch shape; a pass
    (`LstmSeq`) starts from (N, H) rows only, and ``zeros`` makes those."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, rows: int, dtype=np.float64
              ) -> "LstmCellState":
        return cls(*np.zeros((2, rows, hidden_size), dtype=dtype))


@dataclass
class LstmSeq:
    """The forward cache of one unrolled LSTM pass of T steps, as buffers
    preallocated for the whole pass.

    gates : (T, N, 4H) post-activation (i, f, g, o) of every step; the
            backward pass overwrites step t's with its pre-activation
            gradient (`lstm_gate_backward`), so after it the buffer holds
            gradients, not activations
    c     : (T+1, N, H) cell states; index 0 holds the initial state and
            index t+1 the output of step t. The backward pass overwrites
            index t+1 with the hidden state h[t+1] once step t is done
            (`lstm_gate_backward`), and the caller puts ``h0`` into index 0,
            so after it ``c`` holds the hidden states h[0..T]: ``c[:-1]``
            are the steps' previous hidden states, ``c[1:]`` their outputs
    h     : (N, H) hidden state: step t reads h[t] from it and, once its
            recurrent product is done, writes h[t+1] over it
    h0    : (N, H) copy of the initial hidden state, which ``h`` loses at
            step 0; the backward puts it into ``c[0]``
    cell  : the cell this pass runs, and ``bias`` its summed ``bx + bh``
    tiles : row slices of ``wh`` the recurrent product runs over, one per
            matrix product, each the largest power of two of rows (4H at
            most) with at most `TILE_MACS` multiply-adds, while
            0 < n * H <= `TILE_MAX_NH`; otherwise empty, and the step runs
            one product over all of ``wh``
    scale, shift : (4H,) lane vectors of the gate activations: 0.5 and 0.5
            in the sigmoid lanes, 1 and -0.0 in the g lane

    tanh(c) is not kept: the backward pass recomputes it from ``c``.
    `final` is ``h`` and ``c[-1]``, the state step T-1 wrote, valid only
    before the backward pass, which turns ``c[-1]`` into h[T]. `start`
    checks the state shape once for the whole pass: (N, H) rows, a single
    sample being one row; any other shape is a ShapeError. Each step call
    fills its own index, and ``h``, in place. The network runs in the
    cell's dtype.
    """

    cell: LstmCellParams
    bias: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    h0: np.ndarray
    tiles: tuple[slice, ...]
    scale: np.ndarray
    shift: np.ndarray

    @classmethod
    def start(cls, cell: LstmCellParams, init: LstmCellState,
              steps: int) -> "LstmSeq":
        """Buffers for ``steps`` steps starting from ``init``."""
        H = cell.hidden_size
        if init.h.shape[1:] != (H,) or init.c.shape != init.h.shape:
            raise ShapeError(f"state (h, c) has shapes {init.h.shape} and "
                             f"{init.c.shape}, expected (N, {H}) rows each")
        n = len(init.h)
        dtype = cell.wh.dtype
        c = np.empty((steps + 1, n, H), dtype=dtype)
        c[0] = init.c
        h = init.h.astype(dtype, order="C")
        tiles = ()
        if 0 < n * H <= TILE_MAX_NH:
            r = min(4 * H, 1 << ((TILE_MACS // (n * H)).bit_length() - 1))
            tiles = tuple(slice(j, j + r) for j in range(0, 4 * H, r))
        return cls(cell=cell, bias=cell.bx + cell.bh,
                   gates=np.empty((steps, n, 4 * H), dtype=dtype),
                   c=c, h=h, h0=h.copy(), tiles=tiles,
                   scale=np.repeat(np.array(_LANE_SCALE, dtype), H),
                   shift=np.repeat(np.array(_LANE_SHIFT, dtype), H))

    @property
    def final(self) -> LstmCellState:
        return LstmCellState(self.h, self.c[-1])


def _gate_lanes(a: np.ndarray, H: int) -> tuple[np.ndarray, ...]:
    """Views of the (i, f, g, o) lanes of a packed (..., 4H) gate array."""
    return a[..., :H], a[..., H: 2 * H], a[..., 2 * H: 3 * H], a[..., 3 * H:]


def lstm_cell_forward(params: LstmCellParams, x: np.ndarray, seq: LstmSeq,
                      t: int) -> None:
    """Step ``t`` of ``seq`` on the (N, D) input rows x, one per row
    ``seq`` was started with, written in place into ``seq``."""
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
    # batch 2-16 with the same bits. Each tile's product writes its lanes
    # of ``a`` in place, with no temporary or transposed copy, and takes
    # OpenBLAS's gemv or small-matrix kernel, which reads wh in place:
    # 2-2.5x faster than one product at 2-6 rows, 1.2x at 12 (H = 512,
    # float32, one thread). With no tiles the step runs one product and
    # copies it in, which beat the in-place form by 5-67% at 13-100 rows
    # (thread time, same setting). Odd steps walk the tiles backward, so
    # each step starts on the tile the previous one read last, which the
    # L2 still partly holds (see the module docstring). Each gate's
    # pre-activation is its own dot product, so neither the in-place form
    # nor the order moves a bit. Every product reads all of h before the
    # step writes h[t+1] over it below.
    if not seq.tiles:
        a[...] = (params.wh @ seq.h.T).T
    for tile in seq.tiles[::-1] if t % 2 else seq.tiles:
        np.matmul(params.wh[tile], seq.h.T, out=a[:, tile].T)
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
    h = np.tanh(c, out=seq.h)
    h *= o


def lstm_gate_backward(seq: LstmSeq, t: int, dh: np.ndarray, dc: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Backward through step ``t`` of ``seq``, stopping at the gate
    pre-activations.

    Inputs are the gradients flowing into the step's outputs h and c.
    Overwrites ``seq.gates[t]`` with the gradient on the packed (i, f, g, o)
    pre-activation vector, consuming the step's gate activations, and returns
    ``(dh_prev, dc_prev)``. ``seq.gates[t]`` is then also the gradient on
    each bias. tanh of the new cell state is recomputed from
    ``seq.c[t + 1]``, and then ``seq.c[t + 1]``, which the rest of the
    backward never reads, is overwritten with the step's hidden state
    ``tanh(c) * o``, the bits of the forward's h[t + 1]. The caller turns
    the pass's gate gradients into the weight gradients with
    `linear_weight_grad` (against the steps' inputs for ``wx``, against
    the previous hidden states ``seq.c[:-1]`` for ``wh``, once it has put
    ``seq.h0`` into ``seq.c[0]``).
    """
    H = seq.cell.hidden_size
    i, f, g, o = _gate_lanes(seq.gates[t], H)
    tc = np.tanh(seq.c[t + 1])
    # h[t + 1] as the forward formed it, in the slot of the spent c[t + 1]
    np.multiply(tc, o, out=seq.c[t + 1])
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
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(
            f"x has shape {x.shape}, expected last dim {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"b has shape {b.shape}, expected ({w.shape[0]},)")
    return x @ w.T + b


def linear_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the affine map: returns (dw, db, dx), batch-summed."""
    return (*linear_param_grads(x, dy), dy @ w)


def linear_param_grads(x: np.ndarray, dy: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The (dw, db) of `linear_backward`, summed over every leading axis:
    `linear_weight_grad` and ``dy`` summed over its rows. For callers that
    form the input gradient ``dy @ w`` themselves, or have none."""
    dy2 = dy.reshape(-1, dy.shape[-1])  # one copy when dy is a strided view
    return linear_weight_grad(x, dy2), dy2.sum(axis=0)


def linear_weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The weight gradient of ``y = x @ w.T + b`` for output gradient
    ``dy``: the rows of ``dy`` transposed, times the rows of ``x``, one
    product over every leading axis of the (..., out) and (..., in)
    arrays."""
    return dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])


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

    No weight decay. A learning rate that is not > 0 is a ConfigError.
    Raises NumericError naming the first tensor whose gradient contains a
    non-finite value.
    """
    if not lr > 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
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
