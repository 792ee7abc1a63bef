"""Times one workload and, on request, traces it.

The untraced run gives the end-to-end metrics. The traced run repeats the
same operations on the same inputs with spans recorded, which gives the
per-layer metrics and, by the difference of the two loops' wall times, the
tracing overhead.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracing import OP_SPAN, SETUP_SPAN, Tracer, instrumented, layer_metrics

SETUP_REPEATS = 11
# The layer spans' self times must cover this share of the traced loop's
# wall time, give or take.
COVERAGE_TOL = 0.10


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[tuple] = field(default_factory=list)
    tracer: Tracer | None = None
    op_seconds: list[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        share = self.metrics.get("trace.layer_self_share")
        covered = share is None or abs(share[0] - 1.0) <= COVERAGE_TOL
        return self.failed == 0 and covered


def _loop(w, op, seconds=None, n_ops=None):
    """Run ``op(0), op(1), ...`` until ``seconds`` have passed (and at least
    ``w.min_ops`` ran) or, given ``n_ops``, exactly that many times.
    Returns (per-op seconds, digests, loop wall seconds)."""
    times, digests = [], []
    start = perf_counter()
    i = 0
    while (i < n_ops if n_ops is not None
           else i < w.min_ops or perf_counter() - start < seconds):
        t0 = perf_counter()
        out = op(i)
        times.append(perf_counter() - t0)
        digests.append(w.digest(out))
        i += 1
    return times, digests, perf_counter() - start


def measure(w, seconds: float, trace: bool) -> Outcome:
    """Untraced, time operations for ``seconds``. Traced, time them for
    half of that, then repeat the same operations with spans recorded."""
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        w.setup()
        setup.append(perf_counter() - t0)
    for i in range(w.warmup_ops):
        w.digest(w.op(i))
    times, digests, wall = _loop(w, w.op,
                                 seconds=seconds / 2 if trace else seconds)

    if not trace:
        ok = w.check(digests)
        items = sum(w.items(d) for d in digests)
        metrics = {
            "latency_p50_ms": (float(np.percentile(times, 50)) * 1e3, "ms"),
            "latency_p90_ms": (float(np.percentile(times, 90)) * 1e3, "ms"),
            "throughput_per_s": (items / float(np.sum(times)), "1/s"),
            "setup_s": (float(np.median(setup)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        report = w.report(digests, times) + [
            ("setup_s", metrics["setup_s"][0], "s", len(setup)),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1)]
        return Outcome(len(ok), ok.count(False), metrics, report,
                       op_seconds=times)

    tracer = Tracer()
    with instrumented(tracer):
        tracer.wrap(SETUP_SPAN, w.setup)()
        _, t_digests, t_wall = _loop(w, tracer.wrap(OP_SPAN, w.op),
                                     n_ops=len(times))
    ok = w.check(digests) + w.check(t_digests)
    metrics = layer_metrics(tracer.spans, t_wall)
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["trace.untraced_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (t_wall - wall, "s")
    metrics["trace.overhead_share"] = ((t_wall - wall) / wall, "ratio")
    return Outcome(len(ok), ok.count(False), metrics, tracer=tracer,
                   op_seconds=times)
