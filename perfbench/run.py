"""hetfb benchmark: CLI jobs in fresh interpreters, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the code under test is always
``<checkout>/src``.  The benchmark is a closed loop with one client: a round
is one fresh interpreter (``worker.py``) that imports ``hetfb.cli`` and runs
the workload's jobs one after another through ``hetfb.cli.run(argv)``.
Rounds repeat until ``--seconds`` is spent (at least one); a wall time is
the sum over jobs of each job's median over rounds, and every other metric
is the median over rounds.  No thread-count variable is set, so the library
runs as its users run it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and reports the per-layer metrics (see
``tracer.py``), the tracing overhead being the traced minus the untraced
wall.  Outputs are checked against ``reference.json`` after all rounds,
outside the timed calls.  The last line of standard output is one JSON
object; a result file with provenance goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from provenance import ROOT, SRC
from tracer import REPEAT_TARGETS, TARGETS, metric_prefix

WORKER = wl.HERE / "worker.py"
OUT_DIR = wl.HERE / "out"
RESULTS_DIR = wl.HERE / "results"
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 150.0

# CLI subcommands whose job wall is reported per layer, from untraced rounds.
COMMANDS = ("simulate", "analytic", "optimize", "min-m")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        p = metric_prefix(target)
        units.update({f"{p}.calls": "count", f"{p}.s": "s", f"{p}.self_s": "s"})
    for target in REPEAT_TARGETS:
        units[f"{metric_prefix(target)}.repeat_ratio"] = "ratio"
    units.update({f"command.{c}.s": "s" for c in COMMANDS})
    units.update({
        "specfun.errors": "count",
        "quad.errors": "count",
        "montecarlo.peak_alloc_mib": "MiB",
        "montecarlo.trials_per_s": "trials/s",
        "simulate.trials_per_s": "trials/s",
        "simulate.time_to_se_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def run_round(jobs_path: Path, round_dir: Path, trace: bool) -> dict:
    round_dir.mkdir(parents=True)
    proc, setup = _spawn([str(jobs_path), str(round_dir), "1" if trace else "0"])
    _finish(proc)
    with open(round_dir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = setup
    result["traced"] = trace
    result["wall_s"] = sum(j["wall_s"] for j in result["jobs"])
    return result


def probe_setup() -> float:
    proc, setup = _spawn(["--probe"])
    _finish(proc)
    return setup


# -- metrics -----------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _job_trials(job: dict) -> int:
    rows = job["rows"] or []
    return int(float(rows[0]["trials"])) if rows and "trials" in rows[0] else 0


def _simulate_rates(rnd: dict, jobs: list[dict]) -> tuple[float, float]:
    """(trials per second over simulate jobs, time to TARGET_SE on imperfect goodput)."""
    trials = wall = to_se = 0.0
    for spec, job in zip(jobs, rnd["jobs"]):
        if not spec["argv"][0] == "simulate":
            continue
        trials += _job_trials(job)
        wall += job["wall_s"]
        if spec["check"] == "imperfect":
            se = next((float(r["std_error"]) for r in job["rows"] or []
                       if r["metric"] == "goodput"), math.nan)
            if math.isfinite(se):  # a failed job is already counted by the gate
                to_se += job["wall_s"] * (se / wl.TARGET_SE) ** 2
    return (trials / wall if wall else 0.0), to_se


def _job_medians(rounds: list[dict], value) -> list[float]:
    """Each job's median of ``value(job)`` over rounds, in job order.

    Summed over jobs, these are steadier than the median of round totals:
    on a shared host a slow spell that hits one job of a round no longer
    decides which round is the median one.
    """
    return [_median(value(r["jobs"][i]) for r in rounds) for i in range(len(rounds[0]["jobs"]))]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    wall = sum(_job_medians(rounds, lambda j: j["wall_s"]))
    rows = sum(_job_medians(rounds, lambda j: len(j["rows"] or [])))
    return {
        "setup_s": _median(setups),
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_rss_mib": _median(r["peak_rss_mib"] for r in rounds),
    }


def per_layer(rounds: list[dict], jobs: list[dict]) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    names = per_layer_units()
    layer_names = [n for n in names if n in traced[0]["trace"]["layers"]]
    out = {n: _median(r["trace"]["layers"][n] for r in traced) for n in layer_names}
    mc_spans = [f"{metric_prefix(t)}.s" for t in TARGETS if t.startswith("montecarlo.")]
    mc_time = [sum(r["trace"]["layers"][k] for k in mc_spans) for r in traced]
    mc_trials = [sum(_job_trials(j) for j in r["jobs"]) for r in traced]
    out["montecarlo.trials_per_s"] = _median(
        n / t if t else 0.0 for n, t in zip(mc_trials, mc_time)
    )
    job_walls = _job_medians(plain, lambda j: j["wall_s"])
    for command in COMMANDS:
        out[f"command.{command}.s"] = sum(
            w for spec, w in zip(jobs, job_walls) if spec["argv"][0] == command
        )
    rates = [_simulate_rates(r, jobs) for r in plain]
    out["simulate.trials_per_s"] = _median(r[0] for r in rates)
    out["simulate.time_to_se_s"] = _median(r[1] for r in rates)
    out["trace.overhead_s"] = _median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    out["trace.unattributed_s"] = _median(
        r["wall_s"] - sum(v for k, v in r["trace"]["layers"].items() if k.endswith(".self_s"))
        for r in traced
    )
    return {n: out[n] for n in names}


# -- main ------------------------------------------------------------------------------


def _cpu_ticks() -> list[int] | None:
    """Aggregate CPU ticks from /proc/stat (user .. steal), or None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to others while the rounds ran."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def seed_role(seed: int) -> str:
    return {wl.DEFAULT_SEED: "default", wl.HELDOUT_SEED: "held-out"}.get(seed, "other")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(SRC, "hetfb").is_dir():
        print(f"no package under test at {SRC}/hetfb", file=sys.stderr)
        return 2
    jobs = wl.make_jobs(args.workload, args.seed)
    reference = wl.load_reference()
    run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        jobs_path = run_dir / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        modes = (False, True) if args.trace else (False,)
        rounds = []
        ticks = _cpu_ticks()
        t_start = time.perf_counter()
        while True:
            t_iter = time.perf_counter()
            for traced in modes:
                rounds.append(run_round(jobs_path, run_dir / f"round{len(rounds)}", traced))
            now = time.perf_counter()
            if now - t_start + (now - t_iter) > args.seconds:
                break
        steal = steal_share(ticks, _cpu_ticks())
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    for rnd in rounds:
        for spec, job in zip(jobs, rnd["jobs"]):
            attempted += spec["rows"]
            failed += wl.check_job(spec, job["rows"], reference)
    if args.trace:
        units, metrics = per_layer_units(), per_layer(rounds, jobs)
    else:
        units, metrics = END_TO_END, end_to_end(rounds, setups)

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": seed_role(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": rounds[0]["provenance"],
        "cpu_steal_share": steal,
        "reference_provenance": reference.get("provenance"),
        "jobs": [{"name": j["name"], "argv": j["argv"], "rows": j["rows"]} for j in jobs],
        "rounds": [
            {"traced": r["traced"], "setup_s": r["setup_s"], "wall_s": r["wall_s"],
             "peak_rss_mib": r["peak_rss_mib"],
             "job_wall_s": {j["name"]: j["wall_s"] for j in r["jobs"]},
             "job_codes": {j["name"]: j["code"] for j in r["jobs"]},
             "absent": (r["trace"] or {}).get("absent")}
            for r in rounds
        ],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
