"""End-to-end optimization: batching, the halving learning-rate schedule,
loss-mode selection, and versioned binary weight serialization.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .data import MiniTrack, _atomic_open, _check_positive_ints, _check_seed
from .errors import ConfigError, DataError, NumericError
from .model import (
    INPUT_DIM,
    MODE_TRAJ_AUTOENC,
    OUTPUT_DIM,
    LossWeights,
    ModelDims,
    ModelParams,
    build_features,  # read only by perfbench/tracing.py::targets
    feature_windows,
    init_params,
    loss_and_grads,
    param_count_for,
)
from .nn import AdamState, adam_step

__all__ = [
    "EpochStats",
    "TrainConfig",
    "load_model",
    "lr_schedule",
    "save_model",
    "stack_minitracks",
    "train",
    "write_history",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the full-scale reference setup.

    Adam's betas and epsilon are not among them: they are the `nn`
    constants `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`.

    It checks itself when it is made, so every built config is valid: the
    shape and loss fields by building its `ModelDims` and `LossWeights`,
    then its own fields. A bad field, or a schedule whose last rate
    (`lr_schedule` of the last epoch) underflows to 0, is a ConfigError.
    """

    k: int = 30
    p: int = 60
    hidden: int = 512
    latent: int = 256
    batch_size: int = 200
    epochs: int = 30
    base_lr: float = 0.00141
    halve_every: int = 5
    alpha: float = 1.0
    beta: float = 2.0
    loss_mode: str = MODE_TRAJ_AUTOENC
    seed: int = 0
    carry_cell_state: bool = True
    grad_clip: float = 0.0  # 0 disables clipping

    def __post_init__(self) -> None:
        self.dims()
        _check_positive_ints(batch_size=self.batch_size, epochs=self.epochs,
                             halve_every=self.halve_every)
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not lr_schedule(self.epochs - 1, self) > 0:
            raise ConfigError(f"base_lr {self.base_lr} halved every "
                              f"{self.halve_every} epochs underflows to 0 by "
                              f"the last of {self.epochs} epochs")
        self.loss_weights()
        if not self.grad_clip >= 0:
            raise ConfigError(f"grad_clip must be >= 0, got {self.grad_clip}")
        _check_seed(self.seed)

    def dims(self) -> ModelDims:
        return ModelDims(k=self.k, p=self.p, hidden=self.hidden,
                         latent=self.latent)

    def loss_weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, beta=self.beta,
                           mode=self.loss_mode)


@dataclass
class EpochStats:
    """One history row; the loss columns are means over the epoch's samples.

    ``loss`` is the weighted objective; ``loss_auto_enc`` and ``loss_traj``
    are the raw per-branch L1 means (0.0 when a branch is inactive).
    ``seconds`` is wall-clock and is the one field exempt from the
    determinism contract.
    """

    epoch: int
    loss: float
    loss_auto_enc: float
    loss_traj: float
    lr: float
    seconds: float


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for an epoch: the base rate halved every
    ``halve_every`` epochs (piecewise constant, non-increasing)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    # 0.5 ** n is 0.0 from n = 1075 on, while a halving count past the
    # float range (~1.8e308) would make the power raise OverflowError
    return cfg.base_lr * 0.5 ** min(epoch // cfg.halve_every, 1075)


def stack_minitracks(minitracks: list[MiniTrack], k: int, p: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Build the training arrays: feature windows (M, k, 8) over the first k
    boxes (using each mini-track's predecessor when present) and target
    boxes (M, p, 4) over the last p.

    Each mini-track's predecessor `Box` (or its first box) and its boxes
    are joined by one `np.concatenate` per array, and the windows built by
    one `feature_windows` call; a faulty mini-track raises the error
    `build_features` raises on it, the first one in list order.
    """
    ModelDims(k=k, p=p)  # checks k and p
    if not minitracks:
        raise ConfigError("empty mini-track set")
    n = k + p
    m = next((j for j, mt in enumerate(minitracks) if len(mt) != n),
             len(minitracks))
    if m:
        good = minitracks[:m]
        has_pred = np.array([mt.predecessor is not None for mt in good])
        # each row is the predecessor slot (the first box when there is
        # none) followed by the k + p boxes
        slots = []
        for mt in good:
            slots += (mt.boxes[:1] if mt.predecessor is None
                      else mt.predecessor, mt.boxes)
        rows = np.concatenate([b.xywh for b in slots]).reshape(
            m, n + 1, OUTPUT_DIM)
        frames = np.concatenate([b.frames for b in slots]).reshape(m, n + 1)
        windows = feature_windows(rows[:, :k + 1], frames[:, :k + 1],
                                  has_pred)
    if m < len(minitracks):
        raise DataError(
            f"mini-track {m} has {len(minitracks[m])} boxes, expected "
            f"k+p={n}")
    return windows, rows[:, k + 1:].copy()


def train(cfg: TrainConfig, minitracks: list[MiniTrack],
          on_epoch: Callable[[ModelParams, EpochStats], None] | None = None
          ) -> tuple[ModelParams, list[EpochStats]]:
    """Run the full optimization loop and return (params, history).

    Each epoch reshuffles the mini-tracks with the seeded generator, walks
    batches of ``batch_size`` (final short batch included), computes the
    composite loss with gradients averaged over the batch, and applies one
    Adam step at the scheduled rate. Deterministic for a fixed seed: two
    runs produce bit-identical parameters and histories (timing aside).
    Never mutates the input mini-tracks. A non-finite loss, gradient or
    gradient norm aborts with epoch/batch diagnostics.

    Training runs in float32, the precision of the weight file: the seeded
    initial values are drawn as float64 and rounded once, and the returned
    parameters and the Adam moments are float32. Losses and the clipping
    norm are summed in float64.

    Each batch is one `loss_and_grads` call, which runs it in row blocks
    of at most `model.TRAIN_BLOCK_ROWS` rows: a step's LSTM caches grow
    with that constant, not with ``batch_size``. A batch of more rows
    rounds apart from the same batch run as one block, in the sums over
    its blocks only; training stays deterministic.
    """
    windows, targets = (a.astype(np.float32) for a in
                        stack_minitracks(minitracks, cfg.k, cfg.p))
    m = windows.shape[0]
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg.dims(), seed=rng,
                         carry_cell_state=cfg.carry_cell_state,
                         dtype=np.float32)
    weights = cfg.loss_weights()
    tensors = params.tensors()
    opt = AdamState.init(tensors)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(epoch, cfg)
        order = rng.permutation(m)
        sum_loss = 0.0
        sum_auto = 0.0
        sum_traj = 0.0
        for bi, start in enumerate(range(0, m, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            try:
                loss, terms, grads = loss_and_grads(
                    params, windows[idx], targets[idx], weights)
                if cfg.grad_clip > 0:
                    _clip_global_norm(grads, cfg.grad_clip)
                adam_step(opt, tensors, grads, lr)
            except NumericError as e:
                raise NumericError(f"epoch {epoch}, batch {bi}: {e}") from None
            n = len(idx)
            sum_loss += loss * n
            sum_auto += terms.get("auto_enc", 0.0) * n
            sum_traj += terms.get("traj", 0.0) * n
        stats = EpochStats(
            epoch=epoch,
            loss=sum_loss / m,
            loss_auto_enc=sum_auto / m,
            loss_traj=sum_traj / m,
            lr=lr,
            seconds=time.perf_counter() - t0,
        )
        history.append(stats)
        if on_epoch is not None:
            on_epoch(params, stats)
    return params, history


def _clip_global_norm(grads: dict[str, np.ndarray], clip: float) -> None:
    """Scale every gradient in place so their joint L2 norm is at most
    ``clip``. The squares are summed in float64, so a float32 gradient
    whose square overflows float32 still clips; a norm that is not finite
    even so raises NumericError."""
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise NumericError(f"non-finite gradient norm {norm!r}")
    if norm > clip:
        scale = clip / norm
        for g in grads.values():
            g *= scale


def write_history(history: list[EpochStats], path) -> None:
    """History CSV: epoch, loss, loss_auto_enc, loss_traj, lr, seconds."""
    with _atomic_open(path) as fh:
        fh.write("epoch,loss,loss_auto_enc,loss_traj,lr,seconds\n")
        fh.writelines(f"{s.epoch},{s.loss!r},{s.loss_auto_enc!r},"
                      f"{s.loss_traj!r},{s.lr!r},{s.seconds!r}\n"
                      for s in history)


# ---------------------------------------------------------------------------
# weight-file serialization
#
# Little-endian binary. 60-byte header:
#   magic           4s   b"BOXC"
#   format version  u32  1
#   k, p, hidden, latent, input_dim, output_dim   6 x u32
#   float width     u32  4 (single-precision storage)
#   gate order tag  4s   b"ifgo" (input, forget, candidate, output)
#   bias convention 4s   b"dual" (separate input-side and recurrent biases)
#   latent activation tag 4s  b"none" (the latent projection is linear)
#   decoder init tag      4s  b"hc" (future branch starts from the encoder's
#                              hidden and cell state) or b"h" (hidden only)
#   tensor count    u32  18
#   payload crc32   u32
# followed by the tensors of ModelParams.tensors(), in that order, each as
# raw float32 C-order bytes. Shapes are implied by the dims fields.

MAGIC = b"BOXC"
FORMAT_VERSION = 1
GATE_ORDER_TAG = b"ifgo"
BIAS_CONVENTION_TAG = b"dual"
LATENT_ACTIVATION_TAG = b"none"
_HEADER = struct.Struct("<4s8I4s4s4s4s2I")
N_TENSORS = 18
# values per converted block of a save: 256 KiB of float32
SAVE_SLICE_VALUES = 1 << 16


def save_model(params: ModelParams, path) -> None:
    """Write the versioned single-precision weight file described above.

    It makes two passes over the tensors, converting each to little-endian
    C-order float32 in both, a block of whole rows at a time (see
    `_stored`; a float32 C-order tensor is not copied at all). So at most
    one converted block of `SAVE_SLICE_VALUES` values, or one row when a
    row is longer, is held at a time: 0.03x the payload bytes for float64
    parameters at full size, where holding one converted tensor at a time
    took 0.30x. The first pass checks each block and folds it into the
    checksum, and opens no file: a tensor that is not finite at single
    precision raises NumericError before any file is opened, so no weight
    file holds inf or NaN. The second writes the header and then each
    block, in order, so a pipe is written like a file. The bytes go
    through `data._atomic_open`, so ``path`` is either its old file or the
    whole new one."""
    d = params.dims
    tensors = params.tensors()
    crc = 0
    for name, t in tensors.items():
        for block in _stored(t):
            if not np.isfinite(block).all():
                raise NumericError(f"tensor {name} is not finite at float32; "
                                   f"no weight file written")
            crc = zlib.crc32(block, crc)
    dec_tag = b"hc" if params.carry_cell_state else b"h"
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, d.k, d.p, d.hidden, d.latent,
        INPUT_DIM, OUTPUT_DIM, 4,
        GATE_ORDER_TAG, BIAS_CONVENTION_TAG, LATENT_ACTIVATION_TAG,
        dec_tag.ljust(4, b"\x00"), N_TENSORS, crc)
    with _atomic_open(path, binary=True) as fh:
        fh.write(header)
        for t in tensors.values():
            fh.writelines(_stored(t))


def _stored(t: np.ndarray) -> Iterator[np.ndarray]:
    """``t`` as the weight file stores it, in order: little-endian C-order
    float32 blocks of whole rows (axis 0), each of at most
    `SAVE_SLICE_VALUES` values or of one row when a row is longer. Rows in
    order are the C order of any memory layout, so a block of a
    Fortran-order tensor is converted alone; a block of a float32 C-order
    tensor is a view of ``t``. A value past the float32 range becomes inf,
    which `save_model` refuses."""
    rows = max(1, SAVE_SLICE_VALUES // math.prod(t.shape[1:]))
    for start in range(0, len(t), rows):
        with np.errstate(over="ignore"):
            block = np.ascontiguousarray(t[start:start + rows], dtype="<f4")
        yield block


def load_model(path, expect_dims: ModelDims | None = None
               ) -> tuple[ModelParams, dict]:
    """Read a weight file back into float32 parameters plus a header echo.

    The tensors hold the stored float32 values as writable arrays, so a
    loaded model runs inference at the precision it was saved in and
    ``save_model`` writes the same bytes back. They are views of one
    float32 array, into which the payload is read once.

    Rejects wrong magic bytes, unsupported versions or convention tags,
    truncated or oversized payloads, and checksum mismatches. When
    ``expect_dims`` is given, a file with different dims is refused. Every
    header check runs on the first 60 bytes, before the payload is read:
    the dims are a `ModelDims`, so dims that are not positive or whose
    model would pass `model.MAX_PARAMS` are a ConfigError before any
    payload byte is allocated or read. No byte past the payload the header
    promises is held: a regular file of any other size is refused from its
    `os.fstat` size before anything is allocated, and every file is read
    one way (see `_read_payload`).
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataError(f"weight file too short ({len(head)} bytes)")
        (magic, version, k, p, hidden, latent, input_dim, output_dim,
         float_width, gate, bias, act, dec_tag, n_tensors, crc) = \
            _HEADER.unpack(head)
        if magic != MAGIC:
            raise DataError(f"bad magic {magic!r}; not a weight file")
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported weight-file version {version} "
                f"(this build reads version {FORMAT_VERSION})")
        if float_width != 4:
            raise ConfigError(f"unsupported float width {float_width}")
        for tag, expected, what in (
                (gate, GATE_ORDER_TAG, "gate order"),
                (bias, BIAS_CONVENTION_TAG, "bias convention"),
                (act, LATENT_ACTIVATION_TAG, "latent activation")):
            if tag != expected:
                raise ConfigError(f"unsupported {what} tag {tag!r} "
                                  f"(expected {expected!r})")
        dec_tag = dec_tag.rstrip(b"\x00")
        if dec_tag not in (b"hc", b"h"):
            raise ConfigError(f"unsupported decoder init tag {dec_tag!r}")
        if input_dim != INPUT_DIM or output_dim != OUTPUT_DIM:
            raise ConfigError(
                f"weight file has input/output dims {input_dim}/{output_dim}, "
                f"this build uses {INPUT_DIM}/{OUTPUT_DIM}")
        if n_tensors != N_TENSORS:
            raise ConfigError(f"weight file lists {n_tensors} tensors, "
                              f"expected {N_TENSORS}")
        dims = ModelDims(k=k, p=p, hidden=hidden, latent=latent)
        if expect_dims is not None and dims != expect_dims:
            raise ConfigError(f"weight file dims {dims} do not match the "
                              f"configured {expect_dims}")
        n_bytes = 4 * param_count_for(dims)
        payload, left = _read_payload(fh, n_bytes)
    if left != n_bytes:
        raise DataError(
            f"weight file is {_HEADER.size + left} bytes, expected "
            f"{_HEADER.size + n_bytes}; truncated or corrupt")
    if zlib.crc32(payload) != crc:
        raise DataError("weight-file checksum mismatch; payload is corrupt")

    floats = payload.view("<f4").astype(np.float32, copy=False)
    offset = 0

    def take(_name: str, shape: tuple) -> np.ndarray:
        nonlocal offset
        n = int(np.prod(shape))
        offset += n
        return floats[offset - n:offset].reshape(shape)

    params = ModelParams.build(dims, take, carry_cell_state=(dec_tag == b"hc"))
    meta = {
        "version": version,
        "k": k, "p": p, "hidden": hidden, "latent": latent,
        "input_dim": input_dim, "output_dim": output_dim,
        "float_width": float_width,
        "gate_order": gate.decode(),
        "bias_convention": bias.decode(),
        "latent_activation": act.decode(),
        "decoder_init": dec_tag.decode(),
    }
    return params, meta


def _read_payload(fh, n: int) -> tuple[np.ndarray | None, int]:
    """The next ``n`` bytes of ``fh`` as one writable uint8 array, and the
    count of bytes from the position to the end of the file.

    A regular file's length is known first, so one of any other length is
    neither allocated for nor read (the array is None). Every other input,
    a regular file of the right length, a pipe or a device (whose
    `os.fstat` size reads 0), is read one way: one ``readinto`` into an
    array of exactly ``n`` bytes, which waits for a pipe's writer until
    the array is full or the input ends. ``n`` is at most 4 *
    `model.MAX_PARAMS`, since the header's dims passed `ModelDims`'s
    ceiling. Past ``n`` bytes, the rest is counted in 64 KiB reads and not
    held."""
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and (left := st.st_size - fh.tell()) != n:
        return None, left
    payload = np.empty(n, dtype=np.uint8)
    got = fh.readinto(payload)
    return payload, got + sum(map(len, iter(partial(fh.read, 1 << 16), b"")))
