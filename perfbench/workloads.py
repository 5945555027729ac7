"""Workload definitions: seeded CLI argv generation and the correctness gate.

Every job is one ``hetfb`` CLI invocation (the argv list handed to
``hetfb.cli.run``).  The CLI flags and the CSV it writes are the stable
contract, so nothing here imports the library.

Two workloads: ``mc_simulate`` (the Monte Carlo engine) and ``analytic``
(the closed-form engine: ``--beta-grid`` goodput tables, then the scalar
``optimize`` and ``min-m`` callers).  Grid points are drawn from fixed pools
so that ``reference.json`` (recorded at the seed commit by
``make_reference.py``) covers every row any seed can request.  The pools are
narrow enough that the work per round does not depend on the seed: the seed
moves *which* points are computed, not how many or how hard they are.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; keep it for verifying claims.
HELDOUT_SEED = 20261017

WORKLOADS = ("mc_simulate", "analytic")

# -- Monte Carlo jobs ---------------------------------------------------------

IMPAIRED = ["--set", "est_err_var=0.01", "--set", "alpha=0.98"]
BETA0_POOL = (1.0, 1.25, 1.5, 1.75)
BETA1_POOL = (0.6, 0.65, 0.7, 0.75)
# Trials are whole 2048-trial chunks so no partial chunk skews the cost.
TRIALS = {"perfect": 10240, "fixed": 8192, "variable": 8192, "correlated": 8192, "large": 8192}
LARGE = ["--set", 'clusters=[{"eta": 1, "users": 20}, {"eta": 4, "users": 20}]']
CORRELATED = [
    "--set", "model=correlated",
    "--set", "num_subcarriers=256",
    "--set", "num_taps=16",
    "--set", "pdp_decay=4.0",
    "--set", "n_rbs=32",
    "--set", 'clusters=[{"eta": 2, "users": 10}]',
    "--set", "best_m=4",
]
# |z| bound for simulate rows; wide enough that a change of random streams
# (estimates move within their standard error) does not trip it.
Z_BOUND = 5.0
# Standard error the imperfect goodput jobs are scaled to for time_to_se_s.
TARGET_SE = 1e-3

# -- analytic goodput tables --------------------------------------------------

GOODPUT_CONFIGS = {
    "m4_10db": IMPAIRED,
    "m2_10db": IMPAIRED + ["--set", "best_m=2"],
    "m4_20db": IMPAIRED + ["--set", "snr_db=20"],
    "m2_20db": IMPAIRED + ["--set", "best_m=2", "--set", "snr_db=20"],
    "near_perfect": ["--set", "est_err_var=0.0003", "--set", "alpha=0.9997"],
    # Small enough for the coefficient route; every other config takes the cdf route.
    "small_coeff": IMPAIRED + [
        "--set", "n_rbs=16",
        "--set", 'clusters=[{"eta": 1, "users": 2}, {"eta": 4, "users": 2}]',
        "--set", "best_m=1",
    ],
}
BETA_BASES = (0.35, 0.65)
BETA_OFFSETS = tuple(round(0.01 * i, 2) for i in range(8))
BETA0_SCALE = "5"

# -- optimizer and minimum best-M ----------------------------------------------

SW2_POOL = tuple(round(0.002 * i, 3) for i in range(1, 21))
ALPHA_POOL = tuple(round(0.9 + 0.005 * j, 3) for j in range(20))
OPT_SW2_COUNT, OPT_ALPHA_COUNT = 8, 6
# One user count from each pair (5, 6), (7, 8), ...: the best-M scan length
# falls with the user count, so stratifying keeps the work seed-independent.
MINM_FIRST, MINM_STRATA = 5, 41
MINM_GAMMAS = "0.9,0.99"

# Analytic rows: |value - ref| <= ATOL + RTOL * |ref|.  ATOL covers the
# near-perfect outages, which are rounding noise around 1e-11.
ATOL, RTOL = 1e-9, 1e-6
# Optimizer arguments: golden-section tolerance is 1e-6 on [0, 1] for beta1
# and 1e-6 * hi (hi < 10 here) for beta0.
BETA_TOL = 1e-5


def key(value) -> str:
    """Canonical text of a grid value, as the CLI prints it."""
    return format(float(value), ".12g")


def grid(values) -> str:
    return ",".join(key(v) for v in values)


def beta_grid(offset: float) -> list[float]:
    return [round(b + offset, 2) for b in BETA_BASES]


def _simulate(name, argv, trials, seed, check, ref):
    return {
        "name": name,
        "argv": ["simulate", "--trials", str(trials), "--seed", str(seed)] + argv,
        "check": check,
        "ref": ref,
        "rows": 1 if check != "imperfect" else 3,
    }


def _goodput_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for name, argv in GOODPUT_CONFIGS.items():
        betas = beta_grid(rng.choice(BETA_OFFSETS))
        jobs.append({
            "name": name,
            "argv": ["analytic", "--beta-grid", grid(betas), "--beta0-scale", BETA0_SCALE]
            + argv,
            "check": "goodput",
            "ref": name,
            "rows": 2 * len(betas),
        })
    return jobs


def _optimize_jobs(rng: random.Random) -> list[dict]:
    sw2 = sorted(rng.sample(SW2_POOL, OPT_SW2_COUNT))
    alpha = sorted(rng.sample(ALPHA_POOL, OPT_ALPHA_COUNT))
    users = [MINM_FIRST + 2 * i + rng.randrange(2) for i in range(MINM_STRATA)]
    return [
        {
            "name": "optimize",
            "argv": ["optimize", "--est-err-grid", grid(sw2), "--alpha-grid", grid(alpha)],
            "check": "optimize",
            "ref": "optimize",
            "rows": len(sw2) * len(alpha),
        },
        {
            "name": "min_m",
            "argv": ["min-m", "--users-grid", grid(users), "--gamma", MINM_GAMMAS],
            "check": "min_m",
            "ref": "min_m",
            "rows": len(users) * len(MINM_GAMMAS.split(",")),
        },
    ]


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one round; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc_simulate":
        mc = [rng.randrange(2**31) for _ in range(5)]
        b0, b1 = rng.choice(BETA0_POOL), rng.choice(BETA1_POOL)
        return [
            _simulate("perfect", [], TRIALS["perfect"], mc[0], "perfect", "perfect"),
            _simulate("fixed", IMPAIRED + ["--set", f"beta0={key(b0)}"], TRIALS["fixed"],
                      mc[1], "imperfect", f"fixed:{key(b0)}"),
            _simulate("variable", IMPAIRED + ["--set", f"beta1={key(b1)}"], TRIALS["variable"],
                      mc[2], "imperfect", f"variable:{key(b1)}"),
            _simulate("correlated", CORRELATED, TRIALS["correlated"], mc[3], "recorded",
                      "correlated"),
            _simulate("large", LARGE, TRIALS["large"], mc[4], "perfect", "large"),
        ]
    if workload == "analytic":
        return _goodput_jobs(rng) + _optimize_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- correctness gate -----------------------------------------------------------


def _num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _close(value: float, ref: float, atol: float = ATOL, rtol: float = RTOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _within_z(value: float, se: float, ref: float, ref_se: float = 0.0) -> bool:
    spread = math.hypot(se, ref_se)
    return (
        math.isfinite(value) and math.isfinite(spread) and spread > 0
        and abs(value - ref) <= Z_BOUND * spread
    )


def _check_simulate(job, rows, reference) -> int:
    by_metric = {r.get("metric"): r for r in rows}
    if job["check"] == "recorded":
        ref = reference["recorded"][job["ref"]]
        expected = {"sum_rate": (ref["value"], ref["std_error"])}
    else:
        expected = {m: (v, 0.0) for m, v in reference["closed_form"][job["ref"]].items()}
    failed = 0
    for metric, (ref, ref_se) in expected.items():
        row = by_metric.get(metric)
        if row is None or not _within_z(_num(row["value"]), _num(row["std_error"]), ref, ref_se):
            failed += 1
    return failed


def _check_keyed(rows, table, key_cols, checks) -> tuple[int, int]:
    """(rows that are wrong, duplicated or unknown; distinct reference keys seen)."""
    seen = set()
    failed = 0
    for row in rows:
        k = ":".join(key(_num(row.get(c))) if c != "strategy" else row.get(c, "")
                     for c in key_cols)
        ref = table.get(k)
        if ref is None or k in seen or not all(ok(_num(row.get(c)), ref[c]) for c, ok in checks):
            failed += 1
        if ref is not None:
            seen.add(k)
    return failed, len(seen)


def _exact(value: float, ref: float) -> bool:
    return value == ref


def _beta(value: float, ref: float) -> bool:
    return _close(value, ref, BETA_TOL * max(1.0, abs(ref)), 0.0)


def check_job(job: dict, rows: list[dict] | None, reference: dict) -> int:
    """Number of failed rows of one job; a job without output fails them all."""
    if rows is None:
        return job["rows"]
    kind = job["check"]
    if kind in ("perfect", "imperfect", "recorded"):
        return _check_simulate(job, rows, reference)
    if kind == "goodput":
        failed, seen = _check_keyed(
            rows, reference["goodput"][job["ref"]], ("beta", "strategy"),
            (("goodput", _close), ("outage", _close)),
        )
    elif kind == "optimize":
        failed, seen = _check_keyed(
            rows, reference["optimize"], ("est_err_var", "alpha"),
            (("beta0_opt", _beta), ("beta1_opt", _beta), ("r0_opt", _close),
             ("r1_approx_opt", _close), ("m_star", _exact)),
        )
    elif kind == "min_m":
        failed, seen = _check_keyed(
            rows, reference["min_m"], ("users", "gamma"),
            (("m_exact", _exact), ("m_approx", _exact)),
        )
    else:
        raise ValueError(f"unknown check {kind!r}")
    return min(failed + max(job["rows"] - seen, 0), job["rows"])
