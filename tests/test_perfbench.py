"""The benchmark harness's self-test, run against the library in this tree.

``perfbench`` traces library names (such as ``analytic.selection_coefficients``
and ``goodput.quad_checked``) by binding site, so a library refactor that
drops one breaks the benchmark; running its self-test here catches that.
Each workload's default-seed jobs also run here through ``hetfb.cli.run``
and the benchmark's correctness gate.
"""

import csv
import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hetfb.montecarlo as mc
from hetfb import cli
from hetfb.channel import (
    Cluster,
    CorrelatedChannelConfig,
    ImpairmentParams,
    StrategyParams,
    SystemConfig,
    pdp_exponential,
)
from hetfb.montecarlo import ExperimentSpec

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "selftest ok" in proc.stdout


def test_traced_names_stay_on_the_calling_thread(monkeypatch):
    # the tracer keeps one call stack, so no name it wraps may run in a
    # Monte Carlo chunk thread
    tracer = _load("tracer")
    targets = set()
    for target in tracer.TARGETS:
        module, qualname = target.split(".", 1)
        targets.add((f"hetfb.{module}", qualname))

    in_workers = set()

    def profile(frame, event, arg):
        if event == "call":
            in_workers.add((frame.f_globals.get("__name__"), frame.f_code.co_qualname))

    monkeypatch.setattr(mc, "_worker_count", lambda n_chunks: min(n_chunks, 2))
    s = SystemConfig(16, (Cluster(1, 2), Cluster(4, 2)), 2, 10.0)
    imp = ImpairmentParams(0.01, 0.98)
    trials = 2 * mc.CHUNK_TRIALS + 1
    corr = SystemConfig(16, (Cluster(2, 3),), 2, 10.0)
    threading.setprofile(profile)  # every thread started from here on
    try:
        mc.run_perfect(ExperimentSpec("subband", s, trials=trials, seed=1))
        mc.run_imperfect_grid(
            ExperimentSpec("subband", s, impairments=imp, trials=trials, seed=2),
            [StrategyParams(beta0=1.0), StrategyParams(beta1=0.8)],
        )
        mc.run_perfect(
            ExperimentSpec(
                "correlated", corr, trials=trials, seed=3,
                correlated=CorrelatedChannelConfig(64, 4, tuple(pdp_exponential(8, 3.0))),
            )
        )
        for strategy in ("homogeneous", "separate"):
            mc.run_strategy_comparison(s, strategy, subband_size=2, trials=trials, seed=4)
    finally:
        threading.setprofile(None)
    assert ("hetfb.montecarlo", "run_perfect.<locals>.chunk") in in_workers
    assert not in_workers & targets


@pytest.mark.parametrize("workload", ["mc_simulate", "analytic"])
def test_benchmark_jobs_pass_the_correctness_gate(tmp_path, workload):
    # every job of a default-seed round, checked against the recorded
    # reference as the benchmark checks it (simulate rows within |z| <= 5)
    workloads = _load("workloads")
    reference = workloads.load_reference()
    failed = {}
    for i, job in enumerate(workloads.make_jobs(workload, workloads.DEFAULT_SEED)):
        out = tmp_path / f"job{i}"
        assert cli.run(job["argv"] + ["--out", str(out)]) == 0, job["name"]
        (path,) = out.glob("*.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed[job["name"]] = workloads.check_job(job, rows, reference)
    assert not any(failed.values()), failed
