"""boxcast benchmark: one workload per run, or all three with ``all``.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Run from the root of a boxcast checkout; the package is imported from its
``src/``. Inputs come from ``--seed`` only. With ``--trace 0`` the run
times the workload untraced and reports the end-to-end metrics; with
``--trace 1`` it times the same operations untraced and then traced, and
reports the per-layer metrics and the tracing overhead. Report lines (the
environment, then one line per figure with its unit and sample count) come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, stamped with
the environment, and for traced runs every span, go under ``.perfbench/``.

End-to-end metrics, on each workload's own operation (a forecast request
on ``stream``, a scoring pass over one CSV on ``dataset``, an optimizer
step on ``train``): ``latency_p50_ms``, ``latency_p90_ms``,
``throughput_per_s`` (forecasts, CSV rows or training samples per second),
``setup_s`` (median of repeated set-ups) and ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("stream", "dataset", "train")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> dict:
    """Set every BLAS thread-count variable to 1; numpy must not be loaded
    yet, since BLAS reads them once. Returns the values found before."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    before = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    for v in BLAS_THREAD_VARS:
        os.environ[v] = "1"
    return before


def environment(pinned_from: dict) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_pinned_by_benchmark": True,
        "blas_thread_vars_before_pinning": pinned_from,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "boxcast" / "__init__.py").is_file():
        print(f"no boxcast sources under {ROOT / 'src'}; run the benchmark "
              f"from a boxcast checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pinned_from = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure
    from workloads import WORKLOADS

    env = environment(pinned_from)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        w = WORKLOADS[args.workload](args.seed, Path(workdir))
        outcome = measure(w, args.seconds, bool(args.trace))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env,
                   "report": [dict(zip(("name", "value", "unit", "samples"),
                                       r)) for r in outcome.report],
                   "untraced_op_seconds": outcome.op_seconds,
                   **result}, fh, indent=1)
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / f"{tag}.spans.jsonl")

    print(f"perfbench {tag}")
    print("environment " + json.dumps(env))
    for name, value, unit, n in outcome.report:
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
