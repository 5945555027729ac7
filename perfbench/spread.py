"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 101:110] [--trace 0|1]
                                [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload, sequentially, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it reports the
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, compared with a third of the metric's bound.  With
``--out`` the summary is written as JSON; ``baseline.json`` is that file for
the benchmark's seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl
from provenance import ROOT


def _seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(x) for x in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    p.add_argument("--seeds", default="101:110")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    bench = json.loads((Path(ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = _seeds(args.seeds)
    summary = {"seconds": bench["run_seconds"], "seeds": seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, bench["run_seconds"], args.trace) for s in seeds]
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            if bound is not None:
                stats["bound"] = bound
                stats["within_third_of_bound"] = stats["spread"] < bound / 3
            metrics[name] = stats
            print(f"{workload:18s} {name:24s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""), file=sys.stderr)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
