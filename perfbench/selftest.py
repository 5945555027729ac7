"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that every traced name is found and wrapped at each of its binding
sites, that a missing name is recorded as absent, that the correctness gate
passes reference rows and flags doctored or missing ones, that every seed
draws only reference-covered grid points, and that the reported metrics are
exactly the ones ``BENCHMARK.json`` lists.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads as wl
from provenance import ROOT, import_cli
from tracer import TARGETS, Tracer


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def hetfb_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if m is not None and n.startswith("hetfb")}


def test_wrapping(cli) -> Tracer:
    originals = {}
    for target in TARGETS:
        mod, *path = target.split(".")
        obj = sys.modules[f"hetfb.{mod}"]
        for attr in path:
            obj = vars(obj)[attr] if attr == path[-1] else getattr(obj, attr)
        originals[target] = obj
    tracer = Tracer(TARGETS + ("specfun.no_such_function",))
    tracer.install()
    check(tracer.absent == ["specfun.no_such_function"], f"absent names {tracer.absent}")
    for target, original in originals.items():
        check(bool(tracer.sites.get(target)), f"{target} has no wrapped binding site")
        for name, mod in hetfb_modules().items():
            for attr, value in vars(mod).items():
                check(value is not original, f"{name}.{attr} still binds unwrapped {target}")
    goodput = sys.modules["hetfb.goodput"]
    for attr in ("marcum_q1", "quad_checked"):
        check(hasattr(getattr(goodput, attr), "__perfbench_target__"),
              f"goodput.{attr} is not wrapped")
    mixture = sys.modules["hetfb.analytic"].ScheduledCqiMixture
    check(hasattr(vars(mixture)["pdf"], "__perfbench_target__"), "mixture pdf not wrapped")

    with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
        t0 = time.perf_counter()
        code = cli.run(["min-m", "--users-grid", "5", "--gamma", "0.9", "--out", tmp])
        wall = time.perf_counter() - t0
    check(code == 0, f"traced min-m exit code {code}")
    layers = tracer.summary()["layers"]
    check(layers["analytic.minimum_best_m.calls"] == 1, "minimum_best_m not counted once")
    check(layers["analytic.average_sum_rate.calls"] >= 1, "average_sum_rate not counted")
    check(layers["cli.emit.calls"] == 1, "cli.emit not counted once")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    check(0 < self_sum <= wall, f"self times {self_sum} exceed wall {wall}")
    check(layers["specfun.no_such_function.calls"] == 0, "absent name reports calls")
    return tracer


def _rows_from_reference(job: dict, reference: dict) -> list[dict]:
    """The CSV rows a correct program prints for ``job``."""
    kind = job["check"]
    if kind in ("perfect", "imperfect"):
        return [{"metric": m, "value": repr(v), "std_error": "0.01", "trials": "8192"}
                for m, v in reference["closed_form"][job["ref"]].items()]
    if kind == "recorded":
        ref = reference["recorded"][job["ref"]]
        return [{"metric": "sum_rate", "value": repr(ref["value"]), "std_error": "0.01",
                 "trials": "8192"}]
    argv = job["argv"]
    if kind == "goodput":
        table = reference["goodput"][job["ref"]]
        betas = argv[argv.index("--beta-grid") + 1].split(",")
        return [{"beta": b, "strategy": s, **{k: repr(v) for k, v in table[f"{b}:{s}"].items()}}
                for b in betas for s in ("fixed", "variable")]
    if kind == "optimize":
        sw2 = argv[argv.index("--est-err-grid") + 1].split(",")
        alpha = argv[argv.index("--alpha-grid") + 1].split(",")
        return [{"est_err_var": s, "alpha": a,
                 **{k: repr(v) for k, v in reference["optimize"][f"{s}:{a}"].items()}}
                for s in sw2 for a in alpha]
    users = argv[argv.index("--users-grid") + 1].split(",")
    return [{"users": u, "gamma": g,
             **{k: str(int(v)) for k, v in reference["min_m"][f"{u}:{g}"].items()}}
            for u in users for g in wl.MINM_GAMMAS.split(",")]


DOCTOR = {
    "perfect": ("value", lambda v: float(v) + 0.2),
    "imperfect": ("value", lambda v: float(v) + 0.2),
    "recorded": ("value", lambda v: float(v) - 0.2),
    "goodput": ("goodput", lambda v: float(v) * (1 + 1e-4)),
    "optimize": ("beta1_opt", lambda v: float(v) + 1e-3),
    "min_m": ("m_exact", lambda v: int(v) + 1),
}


def test_gate(reference: dict) -> None:
    for workload in wl.WORKLOADS:
        for seed in range(200):
            for job in wl.make_jobs(workload, seed):
                rows = _rows_from_reference(job, reference)  # KeyError: pool not covered
                check(len(rows) == job["rows"], f"{workload} {job['name']} row count")
        check(wl.make_jobs(workload, 3) == wl.make_jobs(workload, 3), "jobs not deterministic")
        check(wl.make_jobs(workload, 3) != wl.make_jobs(workload, 4), "seed does not vary jobs")
        for job in wl.make_jobs(workload, wl.DEFAULT_SEED):
            rows = _rows_from_reference(job, reference)
            check(wl.check_job(job, rows, reference) == 0, f"{job['name']}: reference rows fail")
            column, doctor = DOCTOR[job["check"]]
            bad = copy.deepcopy(rows)
            bad[-1][column] = str(doctor(bad[-1][column]))
            check(wl.check_job(job, bad, reference) == 1, f"{job['name']}: doctored row passes")
            check(wl.check_job(job, rows[:-1], reference) == 1,
                  f"{job['name']}: missing row passes")
            check(wl.check_job(job, None, reference) == job["rows"],
                  f"{job['name']}: failed job does not fail all rows")


def test_metrics(tracer: Tracer) -> None:
    bench = json.loads((Path(ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end metrics differ from BENCHMARK.json")
    check(layers == run.per_layer_units(), "per_layer metrics differ from BENCHMARK.json")
    job = {"name": "x", "code": 0, "wall_s": 1.5,
           "rows": [{"metric": "goodput", "value": "1", "std_error": "0.002", "trials": "8"}]}
    spec = [{"argv": ["simulate"], "check": "imperfect"}]
    plain = {"traced": False, "wall_s": 1.5, "setup_s": 0.8, "peak_rss_mib": 90.0,
             "jobs": [job], "trace": None}
    traced = dict(plain, traced=True, wall_s=1.6, trace=tracer.summary())
    check(set(run.end_to_end([plain], [0.8])) == set(e2e), "end-to-end output keys")
    out = run.per_layer([plain, traced], spec)
    check(list(out) == list(layers), "per-layer output keys")
    check(abs(out["simulate.time_to_se_s"] - 1.5 * 4) < 1e-9, "time_to_se_s formula")


def main() -> None:
    cli = import_cli()
    tracer = test_wrapping(cli)
    test_gate(wl.load_reference())
    test_metrics(tracer)
    print("selftest ok")


if __name__ == "__main__":
    main()
