"""Dense numeric kernel: LSTM cell, linear map, ReLU, L1 loss, Adam, and a
finite-difference gradient oracle.

Tensors are plain numpy arrays, row-major. Every vector op accepts either a
single sample (trailing feature axis only, e.g. shape ``(D,)``) or a batch
(``(N, D)``); batched results stack along the leading axis and equal the
per-sample results row for row. All ops are pure functions of their inputs
(no hidden state, no randomness), so identical inputs give identical outputs
and concurrent read-only use of shared parameter tensors is safe.

Packed LSTM gate tensors use a fixed slice layout along the ``4H`` axis:
input gate, forget gate, cell candidate, output gate, in that order. Both
the input side and the recurrent side carry their own bias vector, and the
two are simply added, so the effective bias is ``bx + bh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "AdamState",
    "LinearParams",
    "LstmCellCache",
    "LstmCellParams",
    "LstmCellState",
    "adam_step",
    "finite_diff_grad",
    "l1_loss",
    "linear_backward",
    "linear_forward",
    "lstm_cell_forward",
    "lstm_gate_backward",
    "relu",
    "sigmoid",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; never overflows on finite input."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


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

    @classmethod
    def init(cls, rng: np.random.Generator, input_size: int, hidden_size: int,
             dtype=np.float64) -> "LstmCellParams":
        """Seeded init: weights uniform on +-1/sqrt(H), both biases zero."""
        s = 1.0 / np.sqrt(hidden_size)
        return cls(
            wx=rng.uniform(-s, s, (4 * hidden_size, input_size)).astype(dtype),
            wh=rng.uniform(-s, s, (4 * hidden_size, hidden_size)).astype(dtype),
            bx=np.zeros(4 * hidden_size, dtype=dtype),
            bh=np.zeros(4 * hidden_size, dtype=dtype),
        )


@dataclass
class LstmCellState:
    """Hidden and cell activations. Shapes (H,) or (N, H), always matching."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, batch_shape: tuple = (),
              dtype=np.float64) -> "LstmCellState":
        shape = tuple(batch_shape) + (hidden_size,)
        return cls(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))


@dataclass
class LstmCellCache:
    """Everything the backward pass needs from one forward step.

    ``gates`` packs the post-activation (i, f, g, o) values along the last
    axis; ``tc`` is tanh of the new cell state. The step's input is not kept:
    the caller owns the input projection and turns the gate gradients into
    its input-side gradients itself.
    """

    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray
    tc: np.ndarray
    params: LstmCellParams


def _check_last_dim(name: str, arr: np.ndarray, expected: int) -> None:
    if arr.shape[-1] != expected:
        raise ShapeError(
            f"{name} has shape {arr.shape}, expected last dim {expected}")


def lstm_cell_forward(params: LstmCellParams, x: np.ndarray,
                      state: LstmCellState) -> tuple[LstmCellState, LstmCellCache]:
    """One LSTM step.

    Inputs
    ------
    x : (D,) or (N, D) input vector(s)
    state : previous (h, c), shapes (H,) or (N, H) matching x's batch shape

    Returns (new state, cache for the backward pass).
    """
    _check_last_dim("x", x, params.input_size)
    _check_last_dim("state.h", state.h, params.hidden_size)
    if x.shape[:-1] != state.h.shape[:-1]:
        raise ShapeError(
            f"batch shapes differ: x {x.shape} vs state.h {state.h.shape}")
    x_pre = x @ params.wx.T + params.bx
    return _lstm_cell_from_preact(params, x_pre, state)


def _lstm_cell_from_preact(params: LstmCellParams, x_pre: np.ndarray,
                           state: LstmCellState
                           ) -> tuple[LstmCellState, LstmCellCache]:
    """Cell step given the already-projected input ``x @ wx.T + bx``.

    Lets sequence drivers with a constant input compute that projection once
    instead of once per step.
    """
    H = params.hidden_size
    a = x_pre + state.h @ params.wh.T + params.bh
    gates = np.empty_like(a)
    gates[..., : 2 * H] = sigmoid(a[..., : 2 * H])
    gates[..., 2 * H: 3 * H] = np.tanh(a[..., 2 * H: 3 * H])
    gates[..., 3 * H:] = sigmoid(a[..., 3 * H:])
    i = gates[..., :H]
    f = gates[..., H: 2 * H]
    g = gates[..., 2 * H: 3 * H]
    o = gates[..., 3 * H:]
    c_new = f * state.c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    cache = LstmCellCache(h_prev=state.h, c_prev=state.c,
                          gates=gates, tc=tc, params=params)
    return LstmCellState(h_new, c_new), cache


def lstm_gate_backward(cache: LstmCellCache, dh: np.ndarray,
                       dc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through one cell step, stopping at the gate pre-activations.

    Inputs are the gradients flowing into this step's outputs h and c.
    Returns ``(da, dh_prev, dc_prev)`` where ``da`` is the gradient on the
    packed (i, f, g, o) pre-activation vector; it is also the gradient on
    each bias, and the caller turns it into the weight gradients (``da.T``
    times the step's input for ``wx``, times ``cache.h_prev`` for ``wh``).
    """
    H = cache.params.hidden_size
    gates = cache.gates
    i = gates[..., :H]
    f = gates[..., H: 2 * H]
    g = gates[..., 2 * H: 3 * H]
    o = gates[..., 3 * H:]
    tc = cache.tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    da = np.empty_like(gates)
    da[..., :H] = dc_total * g * i * (1.0 - i)
    da[..., H: 2 * H] = dc_total * cache.c_prev * f * (1.0 - f)
    da[..., 2 * H: 3 * H] = dc_total * i * (1.0 - g * g)
    da[..., 3 * H:] = dh * tc * o * (1.0 - o)
    dh_prev = da @ cache.params.wh
    dc_prev = dc_total * f
    return da, dh_prev, dc_prev


@dataclass
class LinearParams:
    """Affine map y = x @ w.T + b with w of shape (out, in), b of shape (out,)."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, in_features: int,
             out_features: int, dtype=np.float64) -> "LinearParams":
        """Seeded init: weights uniform on +-1/sqrt(fan_in), bias zero."""
        s = 1.0 / np.sqrt(in_features)
        return cls(
            w=rng.uniform(-s, s, (out_features, in_features)).astype(dtype),
            b=np.zeros(out_features, dtype=dtype),
        )


def linear_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine map; x is (in,) or (..., in), result (out,) or (..., out)."""
    _check_last_dim("x", x, w.shape[1])
    if b.shape != (w.shape[0],):
        raise ShapeError(f"b has shape {b.shape}, expected ({w.shape[0]},)")
    return x @ w.T + b


def linear_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the affine map: returns (dw, db, dx), batch-summed."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    return dy2.T @ x2, dy2.sum(axis=0), dy @ w


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error over every element.

    Returns ``(loss, grad)`` with ``grad = sign(pred - target) / n`` where n
    is the total element count; the subgradient at exact ties is 0.
    """
    if pred.shape != target.shape:
        raise ShapeError(
            f"pred shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.abs(diff).sum() / n)
    return loss, np.sign(diff) / n


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def init(cls, params: dict[str, np.ndarray], beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0, beta1=beta1, beta2=beta2, eps=eps,
        )


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
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time. The oracle every analytic backward pass in this package is checked
    against."""
    if not eps > 0:
        raise ShapeError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        fp = float(f(xp))
        xm = x.copy()
        xm[idx] -= eps
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(
                f"non-finite objective at coordinate {idx} during "
                f"finite-difference probing")
        grad[idx] = (fp - fm) / (2.0 * eps)
    return grad
