"""Record the reference rows the correctness gate compares against.

Run once at the commit whose outputs define "correct" (the benchmark's
seed commit), from the repository root:

    python3 perfbench/make_reference.py

It drives the same CLI as the benchmark over every pool point any seed can
draw, and writes ``perfbench/reference.json``:

* ``closed_form``: closed-form values of each simulate row, taken from the
  ``analytic`` column of ``simulate --cross-validate``; the scheduling
  outage is ``(1 - p)^K`` with ``p = eta_max * M / N``;
* ``recorded``: the correlated-model sum rate, which has no closed form,
  from one long run with its standard error;
* ``goodput``, ``optimize``, ``min_m``: the analytic rows, keyed by grid
  point.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from provenance import collect, import_cli

RECORDED_TRIALS = 204800
RECORDED_SEED = 987654321


def _run(cli, argv: list[str], out: Path) -> list[dict]:
    code = cli.run(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"reference job failed with exit code {code}: {argv}")
    with open(out / f"{argv[0].replace('-', '_')}.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _scheduling_outage(n_rbs: int, clusters: list[dict], best_m: int) -> float:
    eta_max = max(c["eta"] for c in clusters)
    users = sum(c["users"] for c in clusters)
    return (1.0 - eta_max * best_m / n_rbs) ** users


def main() -> None:
    cli = import_cli()
    ref = {"provenance": collect(), "closed_form": {}, "recorded": {}}
    default_clusters = [{"eta": 1, "users": 10}, {"eta": 4, "users": 10}]
    with tempfile.TemporaryDirectory(dir=wl.HERE) as tmp:
        out = Path(tmp)
        xv = ["simulate", "--cross-validate", "--trials", "2048", "--seed", "1"]
        for name, extra in (("perfect", []), ("large", wl.LARGE)):
            rows = _run(cli, xv + extra, out)
            ref["closed_form"][name] = {"sum_rate": float(rows[0]["analytic"])}
        sched = _scheduling_outage(64, default_clusters, 4)
        for strategy, pool in (("fixed", wl.BETA0_POOL), ("variable", wl.BETA1_POOL)):
            param = "beta0" if strategy == "fixed" else "beta1"
            for beta in pool:
                rows = _run(cli, xv + wl.IMPAIRED + ["--set", f"{param}={wl.key(beta)}"], out)
                by = {r["metric"]: float(r["analytic"]) for r in rows}
                ref["closed_form"][f"{strategy}:{wl.key(beta)}"] = {
                    "goodput": by[f"{strategy}_rate_goodput"],
                    "outage": by[f"{strategy}_rate_outage"],
                    "scheduling_outage": sched,
                }

        rows = _run(cli, ["simulate", "--trials", str(RECORDED_TRIALS), "--seed",
                          str(RECORDED_SEED)] + wl.CORRELATED, out)
        ref["recorded"]["correlated"] = {
            "value": float(rows[0]["value"]),
            "std_error": float(rows[0]["std_error"]),
            "trials": RECORDED_TRIALS,
        }

        all_betas = sorted({b for o in wl.BETA_OFFSETS for b in wl.beta_grid(o)})
        ref["goodput"] = {}
        for name, argv in wl.GOODPUT_CONFIGS.items():
            rows = _run(cli, ["analytic", "--beta-grid", wl.grid(all_betas), "--beta0-scale",
                              wl.BETA0_SCALE] + argv, out)
            ref["goodput"][name] = {
                f"{wl.key(float(r['beta']))}:{r['strategy']}":
                    {"goodput": float(r["goodput"]), "outage": float(r["outage"])}
                for r in rows
            }

        rows = _run(cli, ["optimize", "--est-err-grid", wl.grid(wl.SW2_POOL),
                          "--alpha-grid", wl.grid(wl.ALPHA_POOL)], out)
        ref["optimize"] = {
            f"{wl.key(float(r['est_err_var']))}:{wl.key(float(r['alpha']))}": {
                c: float(r[c])
                for c in ("beta0_opt", "r0_opt", "beta1_opt", "r1_approx_opt", "m_star")
            }
            for r in rows
        }

        users = f"{wl.MINM_FIRST}:{wl.MINM_FIRST + 2 * wl.MINM_STRATA - 1}:1"
        rows = _run(cli, ["min-m", "--users-grid", users, "--gamma", wl.MINM_GAMMAS], out)
        ref["min_m"] = {
            f"{wl.key(float(r['users']))}:{wl.key(float(r['gamma']))}":
                {"m_exact": float(r["m_exact"]), "m_approx": float(r["m_approx"])}
            for r in rows
        }

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
