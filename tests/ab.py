"""A/B benchmark of a base revision against the work tree.

    python3 tests/ab.py --label NAME [--base REV] [--workloads W,...]
                        [--pairs N] [--seed S] [--seconds T] [--aa]

Run from anywhere inside a boxcast git checkout. Both sides are
`git archive` exports into two sibling directories of one temporary
parent, so they are built the same way and differ only in their files:

- ``base``: the commit REV (default ``HEAD``);
- ``work``: the work tree as ``git add -A`` would commit it (tracked
  changes and untracked files that are not ignored), written as a tree
  object through a temporary index, so the checkout's own index is left
  alone. With ``--aa`` it is REV again, for an A/A run of the base
  against itself.

For each workload, pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once in
each tree, base first when i is even and work first when it is odd, and
reads the run's last stdout line, perfbench's JSON result. ``perfbench/``
is run as it is in each tree; no file of it is changed.

The result goes to ``BENCH_<label>.json`` at the root of the checkout:
both revisions, the command, the order of every pair, the environment
stamp of each side (from the ``.perfbench/<tag>.json`` that run.py writes
in its tree), each run's metrics, and per workload and metric:

- each side's median and interquartile range (inclusive quartiles);
- the median over pairs of the work/base ratio;
- ``wins``: the pairs in which work reads better than base, by the
  metric's direction in ``BENCHMARK.json`` (ties count for neither side;
  null for a metric it does not list).

A gain may be claimed when work wins at least 9 pairs in 10 and the two
medians differ by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("stream", "dataset", "train")
SIDES = ("base", "work")


def _git(repo: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True,
                          env=env).stdout.strip()


def work_tree_object(repo: Path) -> str:
    """The id of a tree object holding the work tree as ``git add -A``
    would stage it, built in a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git(repo, "read-tree", "HEAD", env=env)
        _git(repo, "add", "-A", env=env)
        return _git(repo, "write-tree", env=env)


def export(repo: Path, treeish: str, dest: Path) -> None:
    """``git archive`` of ``treeish`` unpacked into ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(repo), "archive", treeish],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float
             ) -> tuple[dict, dict]:
    """One perfbench run in ``tree``: its JSON result and the environment
    stamp of the result file it wrote."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(float(seconds))],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no error output"])[-1]
        raise RuntimeError(f"{workload} in {tree} exited with "
                           f"{proc.returncode}: {tail}")
    stamp = json.loads((tree / ".perfbench" / f"{workload}-seed{seed}-trace0"
                        ".json").read_text(encoding="utf-8"))["environment"]
    return json.loads(lines[-1]), stamp


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of ``values``."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the median work/base ratio over the
    pairs, and work's wins, from ``runs[side][i]``, the JSON result of
    pair i on that side. ``better`` maps a metric to "lower" or
    "higher"."""
    out = {}
    for name, first in runs["base"][0]["metrics"].items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        work = [r["metrics"][name]["value"] for r in runs["work"]]
        sign = {"lower": -1, "higher": 1}.get(better.get(name))
        out[name] = {
            "unit": first["unit"],
            "better": better.get(name),
            "base": spread(base),
            "work": spread(work),
            "median_pair_ratio": statistics.median(
                w / b for b, w in zip(base, work) if b != 0)
            if any(base) else None,
            "wins": None if sign is None else
            sum(sign * (w - b) > 0 for b, w in zip(base, work)),
            "pairs": len(base),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--aa", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS) or args.pairs < 1:
        ap.error(f"workloads are among {','.join(WORKLOADS)}; pairs >= 1")

    repo = Path(_git(Path(__file__).resolve().parent,
                     "rev-parse", "--show-toplevel"))
    base_rev = _git(repo, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    work_tree = base_rev if args.aa else work_tree_object(repo)
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    result = {
        "label": args.label,
        "base_rev": base_rev,
        "work": {"aa": args.aa, "head_rev": _git(repo, "rev-parse", "HEAD"),
                 "tree": work_tree},
        "src_trees": {side: _git(repo, "rev-parse", f"{rev}:src")
                      for side, rev in zip(SIDES, (base_rev, work_tree))},
        "command": f"python3 perfbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds:g}",
        "pairs": args.pairs,
        "environment": {},
        "workloads": {},
    }
    parent = Path(tempfile.mkdtemp(prefix="boxcast-ab-"))
    try:
        trees = {side: parent / side for side in SIDES}
        export(repo, base_rev, trees["base"])
        export(repo, work_tree, trees["work"])
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            order = []
            for i in range(args.pairs):
                sides = SIDES if i % 2 == 0 else SIDES[::-1]
                order.append(sides[0])
                for side in sides:
                    res, stamp = run_once(trees[side], workload, args.seed,
                                          args.seconds)
                    runs[side].append(res)
                    result["environment"][side] = stamp
                print(f"{workload} pair {i + 1}/{args.pairs}: " + "  ".join(
                    f"{side} peak_rss_mb "
                    f"{runs[side][-1]['metrics']['peak_rss_mb']['value']:.2f}"
                    for side in SIDES), flush=True)
            metrics = summarize(runs, better)
            result["workloads"][workload] = {
                "first": order,
                "correct": all(r["correct"] for s in SIDES for r in runs[s]),
                "failed": {s: sum(r["failed"] for r in runs[s])
                           for s in SIDES},
                "metrics": metrics,
                "runs": {s: [{k: m["value"] for k, m in r["metrics"].items()}
                             for r in runs[s]] for s in SIDES},
            }
            for name, m in metrics.items():
                print(f"{workload} {name}: base {m['base']['median']:.6g} "
                      f"(IQR {m['base']['iqr']:.3g})  work "
                      f"{m['work']['median']:.6g} (IQR "
                      f"{m['work']['iqr']:.3g})  ratio "
                      f"{m['median_pair_ratio'] or 0:.4f}  wins {m['wins']}/"
                      f"{m['pairs']}", flush=True)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    out = repo / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
