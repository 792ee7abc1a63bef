"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: `instrumented` rebinds
the public names of boxcast's layers in the namespace each caller looks them
up in (``boxcast.evaluation.predict``, ``boxcast.model.lstm_cell_forward``,
``boxcast.training.adam_step`` ...) to wrappers that record a span around
the original call, and puts every original back on exit. Nothing under
``src/`` changes, and code that runs outside the ``with`` block executes the
original, uninstrumented functions.

A span is ``[name, start, end, parent, root, units]``: ``parent`` is the
index of the enclosing span (-1 for none), ``root`` the index of the
outermost span of the same operation (the identifier every span of one
request shares) and ``units`` an optional per-call quantity (rows parsed,
forecasts returned, LSTM step shapes). Spans stay in memory until the run
writes them out. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from boxcast import data, evaluation, model, training

NAME, START, END, PARENT, ROOT, UNITS = range(6)

# Benchmark-owned root spans: one per set-up and one per timed operation.
SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"


def _rows(args, out):
    return sum(len(t) for t in out)


def _forecasts(args, out):
    return out.shape[0] if out.ndim == 3 else 1


def _enc_step(args, out):
    """(batch rows, input width, hidden width, itemsize) of an encoder step."""
    params, x = args[0], args[1]
    return (int(np.prod(x.shape[:-1], dtype=np.int64)), params.input_size,
            params.hidden_size, x.dtype.itemsize)


def _dec_step(args, out):
    """As `_enc_step`; input width 0 because the decoder's input projection
    is computed once before its loop."""
    params, x_pre = args[0], args[1]
    return (int(np.prod(x_pre.shape[:-1], dtype=np.int64)), 0,
            params.hidden_size, x_pre.dtype.itemsize)


def targets():
    """(module, attribute, span name, units) for every rebound name.

    A function reached from several modules is listed once per namespace
    that calls it, under one span name.
    """
    return [
        (data, "parse_tracks", "data.parse_tracks", _rows),
        (data, "slice_all_minitracks", "data.slice_all_minitracks", None),
        (model, "build_features", "model.build_features", None),
        (training, "build_features", "model.build_features", None),
        (model, "encode", "model.encode", None),
        (model, "decode_future", "model.decode_future", None),
        (model, "concat_trajectory", "model.concat_trajectory", None),
        (model, "predict", "model.predict", _forecasts),
        (evaluation, "predict", "model.predict", _forecasts),
        (model, "composite_loss", "model.composite_loss", None),
        (training, "loss_and_grads", "model.loss_and_grads", None),
        (model, "init_params", "model.init_params", None),
        (training, "init_params", "model.init_params", None),
        # encoder steps go through the public cell; decoder steps through
        # the pre-activation step the constant-input decoders call
        (model, "lstm_cell_forward", "nn.lstm_step.enc", _enc_step),
        (model, "_lstm_cell_from_preact", "nn.lstm_step.dec", _dec_step),
        (model, "lstm_gate_backward", "nn.lstm_gate_backward", None),
        (model, "linear_backward", "nn.linear_backward", None),
        (training, "adam_step", "nn.adam_step", None),
        (training, "stack_minitracks", "training.stack_minitracks", None),
        (training, "train", "training.train", None),
        (training, "load_model", "training.load_model", None),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "evaluate_baseline", "evaluation.evaluate_baseline", None),
        (evaluation, "evaluate_predictions", "evaluation.evaluate_predictions",
         None),
        (evaluation, "baseline_predict", "evaluation.baseline_predict", None),
    ]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, units=None):
        """``fn`` with a span recorded around every call."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            rec = [name, 0.0, 0.0, parent,
                   spans[parent][ROOT] if parent >= 0 else idx, None]
            spans.append(rec)
            open_.append(idx)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                open_.pop()
            if units is not None:
                rec[UNITS] = units(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "trace": s[ROOT],
                    "units": s[UNITS]}) + "\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target to a traced wrapper; restore all on exit, also
    when the body raises."""
    saved = []
    try:
        for module, attr, name, units in targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, units))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, summed duration, summed self time, units."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "units": []})
        agg["calls"] += 1
        agg["s"] += s[END] - s[START]
        agg["self_s"] += own
        if s[UNITS] is not None:
            agg["units"].append(s[UNITS])
    return out


def _step_cost(batch, width, hidden, itemsize):
    """Computed (not measured) flops and bytes of one LSTM step.

    Flops: the gate GEMMs 2*N*4H*(D + H), plus about 17*N*H element-wise
    operations (bias adds, gate activations, cell and hidden updates).
    Bytes: the weights read once (4H*(D + H) plus the biases a step adds)
    and the activations read (x or its projection, h, c) and written (gates,
    c, tanh(c), h). D is 0 for a decoder step, whose input projection, input
    bias included, was computed once before the loop.
    """
    g = 4 * hidden
    flops = 2 * batch * g * (width + hidden) + 17 * batch * hidden
    weights = g * (width + hidden) + (2 if width else 1) * g
    acts = batch * ((width if width else g) + 2 * hidden + g + 3 * hidden)
    return flops, (weights + acts) * itemsize


def layer_metrics(spans, op_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark, 0 for layers not reached.

    ``op_wall_s`` is the wall time of the traced operation loop; the
    ``trace.layer_self_share`` metric is the share of it that the layer
    spans' self times cover.
    """
    tot = span_totals(spans)

    def get(name):
        return tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                              "units": []})

    m: dict[str, tuple[float, str]] = {}
    m["data.parse_tracks.s"] = (get("data.parse_tracks")["s"], "s")
    m["data.slice_all_minitracks.s"] = (
        get("data.slice_all_minitracks")["s"], "s")
    m["data.rows"] = (float(sum(get("data.parse_tracks")["units"])), "count")
    for name in ("model.build_features", "model.encode",
                 "model.decode_future", "model.concat_trajectory",
                 "model.predict"):
        a = get(name)
        m[f"{name}.calls"] = (float(a["calls"]), "count")
        m[f"{name}.self_s"] = (a["self_s"], "s")
        m[f"{name}.us_per_call"] = (
            1e6 * a["s"] / a["calls"] if a["calls"] else 0.0, "us")
    pred = get("model.predict")
    m["model.forecasts_per_call"] = (
        sum(pred["units"]) / pred["calls"] if pred["calls"] else 0.0, "count")
    for part in ("enc", "dec"):
        a = get(f"nn.lstm_step.{part}")
        costs = [_step_cost(*u) for u in a["units"]]
        n = len(costs)
        m[f"nn.lstm_step.{part}.calls"] = (float(a["calls"]), "count")
        m[f"nn.lstm_step.{part}.self_s"] = (a["self_s"], "s")
        m[f"nn.lstm_step.{part}.computed_flops_per_call"] = (
            sum(c[0] for c in costs) / n if n else 0.0, "flop")
        m[f"nn.lstm_step.{part}.computed_bytes_per_call"] = (
            sum(c[1] for c in costs) / n if n else 0.0, "B")
    m["nn.lstm_gate_backward.calls"] = (
        float(get("nn.lstm_gate_backward")["calls"]), "count")
    for name in ("nn.lstm_gate_backward", "nn.linear_backward",
                 "nn.adam_step", "model.loss_and_grads",
                 "model.composite_loss", "training.train",
                 "evaluation.evaluate", "evaluation.evaluate_baseline"):
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in ("model.init_params", "training.stack_minitracks",
                 "training.load_model", "evaluation.evaluate_predictions"):
        m[f"{name}.s"] = (get(name)["s"], "s")
    bp = get("evaluation.baseline_predict")
    m["evaluation.baseline_predict.calls"] = (float(bp["calls"]), "count")
    m["evaluation.baseline_predict.self_s"] = (bp["self_s"], "s")

    # coverage of the timed loop: self time of every layer span whose
    # operation is a timed one, against the loop's wall time
    covered = sum(own for s, own in zip(spans, self_times(spans))
                  if s[NAME] != OP_SPAN and spans[s[ROOT]][NAME] == OP_SPAN)
    m["trace.layer_self_share"] = (
        covered / op_wall_s if op_wall_s > 0 else 0.0, "ratio")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
