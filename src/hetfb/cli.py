"""Command line interface: config loading, experiment subcommands, figure data.

Subcommands
-----------
simulate   run the configured Monte Carlo experiment (optionally
           cross-validating against the closed forms)
analytic   closed-form sum-rate / goodput tables over a users or beta grid
min-m      minimum feedback amount vs. number of users
optimize   optimal beta0/beta1 over an impairment grid
figure     emit the data series of a named figure with its documented
           default parameters

Every run writes a CSV (12 significant digits) plus a JSON manifest
echoing the resolved configuration and seed.  Exit codes: 0 ok,
2 validation error, 3 numerical failure, 4 cross-validation flagged.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys as _sys
from pathlib import Path

from . import __version__, analytic, goodput, montecarlo
from ._quad import QuadratureError
from .channel import Cluster, CorrelatedChannelConfig, ImpairmentParams, SystemConfig
from .channel import pdp_exponential
from .goodput import StrategyParams
from .montecarlo import ExperimentSpec
from .specfun import ConvergenceError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CROSSVAL = 4

DEFAULT_CONFIG = {
    "model": "subband",
    "n_rbs": 64,
    "clusters": [{"eta": 1, "users": 10}, {"eta": 4, "users": 10}],
    "best_m": 4,
    "snr_db": 10.0,
    "trials": 100_000,
    "seed": 12345,
}

# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            cfg[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key.strip()] = raw
    return cfg


def system_from_config(cfg: dict) -> SystemConfig:
    clusters = tuple(
        Cluster(subband_size=int(c["eta"]), num_users=int(c["users"]))
        for c in cfg["clusters"]
    )
    return SystemConfig(
        num_rbs=int(cfg["n_rbs"]),
        clusters=clusters,
        best_m=int(cfg["best_m"]),
        snr=10.0 ** (float(cfg["snr_db"]) / 10.0),
    )


def impairments_from_config(cfg: dict) -> ImpairmentParams | None:
    if "alpha" not in cfg and "est_err_var" not in cfg:
        return None
    return ImpairmentParams(
        est_error_var=float(cfg.get("est_err_var", 0.0)),
        delay_corr=float(cfg.get("alpha", 1.0)),
    )


def correlated_from_config(cfg: dict) -> CorrelatedChannelConfig:
    n_sc = int(cfg["num_subcarriers"])
    n_rbs = int(cfg["n_rbs"])
    pdp = pdp_exponential(int(cfg["num_taps"]), float(cfg["pdp_decay"]))
    return CorrelatedChannelConfig(
        num_subcarriers=n_sc,
        subcarriers_per_rb=n_sc // n_rbs,
        pdp=tuple(pdp),
    )


def strategy_from_config(cfg: dict) -> StrategyParams | None:
    beta0 = cfg.get("beta0")
    beta1 = cfg.get("beta1")
    if beta0 is None and beta1 is None:
        return None
    if beta0 is not None and beta1 is not None:
        raise ValueError("set exactly one of beta0/beta1 in the config")
    return StrategyParams(
        beta0=None if beta0 is None else float(beta0),
        beta1=None if beta1 is None else float(beta1),
    )


def parse_grid(text: str) -> list[float]:
    """Comma list ("1,2,5") or start:stop:step range ("5:50:5"), inclusive."""
    text = text.strip()
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"range grid needs start:stop:step, got {text!r}")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("grid step must be positive")
        out = []
        x = start
        while x <= stop + 1e-9 * max(abs(stop), 1.0):
            out.append(round(x, 12))
            x += step
        return out
    return [float(p) for p in text.split(",") if p.strip()]


def split_users(total: int, fractions: list[float]) -> list[int]:
    """Integer cluster sizes close to the requested fractions, summing to total."""
    sizes = [int(f * total) for f in fractions]
    order = sorted(range(len(fractions)), key=lambda i: fractions[i] * total - sizes[i], reverse=True)
    for i in range(total - sum(sizes)):
        sizes[order[i % len(order)]] += 1
    return sizes


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        dt = datetime.datetime.now(datetime.timezone.utc)
    return dt.isoformat()


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Sidecar metadata; each emitted data file references exactly one."""

    command: str
    config: dict
    seed: int | None
    artifact_version: str
    timestamp: str
    outputs: list[str]
    columns: list[str]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def emit(rows, columns, *, out_dir, name, fmt, command, config, seed) -> list[str]:
    """Write the result table and its manifest; returns the written paths."""
    if not rows:
        raise ValueError("refusing to emit an empty result set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "csv":
        data_path = out / f"{name}.csv"
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
    elif fmt == "json":
        data_path = out / f"{name}.json"
        payload = {"columns": list(columns), "rows": [{c: row[c] for c in columns} for row in rows]}
        with open(data_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_fmt)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    written.append(str(data_path))

    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        artifact_version=__version__,
        timestamp=_timestamp(),
        outputs=list(written),
        columns=list(columns),
    )
    manifest_path = out / f"{name}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    written.append(str(manifest_path))
    return written


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args, cfg) -> tuple[list[dict], list[str], int]:
    system = system_from_config(cfg)
    imp = impairments_from_config(cfg)
    strategy = strategy_from_config(cfg)
    spec = ExperimentSpec(
        model=cfg.get("model", "subband"),
        system=system,
        correlated=correlated_from_config(cfg) if cfg.get("model") == "correlated" else None,
        impairments=imp,
        strategy=strategy,
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    exit_code = EXIT_OK
    if args.cross_validate:
        report = montecarlo.cross_validate(spec)
        columns = ["metric", "empirical", "std_error", "analytic", "z"]
        rows = [
            {
                "metric": e.name,
                "empirical": e.empirical,
                "std_error": e.std_error,
                "analytic": e.analytic,
                "z": e.z_score,
            }
            for e in report.entries
        ]
        if report.flagged:
            exit_code = EXIT_CROSSVAL
        return rows, columns, exit_code

    columns = ["metric", "value", "std_error", "trials"]
    rows = []
    if imp is None:
        est = montecarlo.run_perfect(spec)
        rows.append(
            {"metric": "sum_rate", "value": est.value, "std_error": est.std_error, "trials": est.trials}
        )
    else:
        if strategy is None:
            raise ValueError("imperfect simulation needs beta0 or beta1 in the config")
        res = montecarlo.run_imperfect(spec)
        for name, est in (
            ("goodput", res.goodput),
            ("outage", res.outage),
            ("scheduling_outage", res.scheduling_outage),
        ):
            rows.append(
                {"metric": name, "value": est.value, "std_error": est.std_error, "trials": est.trials}
            )
    return rows, columns, exit_code


def _cmd_analytic(args, cfg) -> tuple[list[dict], list[str], int]:
    system = system_from_config(cfg)
    imp = impairments_from_config(cfg)
    if args.full_feedback:
        system = dataclasses.replace(system, best_m=system.m_full)
    if imp is None:
        grid = [int(u) for u in parse_grid(args.users_grid)]
        fractions = [c.num_users / system.num_users for c in system.clusters]
        rows = []
        for k in grid:
            sizes = split_users(k, fractions)
            sys_k = dataclasses.replace(
                system,
                clusters=tuple(
                    Cluster(c.subband_size, n) for c, n in zip(system.clusters, sizes)
                ),
            )
            rows.append(
                {
                    "users": k,
                    "best_m": sys_k.best_m,
                    "sum_rate": analytic.average_sum_rate(sys_k),
                }
            )
        return rows, ["users", "best_m", "sum_rate"], EXIT_OK
    rows = []
    for beta in parse_grid(args.beta_grid):
        r0, p0 = goodput.fixed_rate_metrics(system, imp, args.beta0_scale * beta)
        r1, p1 = goodput.variable_rate_metrics(system, imp, beta)
        rows.append(
            {
                "beta": beta,
                "strategy": "fixed",
                "goodput": r0,
                "outage": p0,
            }
        )
        rows.append({"beta": beta, "strategy": "variable", "goodput": r1, "outage": p1})
    return rows, ["beta", "strategy", "goodput", "outage"], EXIT_OK


def _cmd_min_m(args, cfg) -> tuple[list[dict], list[str], int]:
    system = system_from_config(cfg)
    gammas = parse_grid(args.gamma)
    fractions = [c.num_users / system.num_users for c in system.clusters]
    rows = []
    for k in [int(u) for u in parse_grid(args.users_grid)]:
        sizes = split_users(k, fractions)
        sys_k = dataclasses.replace(
            system,
            clusters=tuple(Cluster(c.subband_size, n) for c, n in zip(system.clusters, sizes)),
        )
        for gamma, res in zip(gammas, analytic.minimum_best_m(sys_k, gammas)):
            rows.append(
                {"users": k, "gamma": gamma, "m_exact": res.exact, "m_approx": res.approx}
            )
    return rows, ["users", "gamma", "m_exact", "m_approx"], EXIT_OK


def _cmd_optimize(args, cfg) -> tuple[list[dict], list[str], int]:
    system = system_from_config(cfg)
    m_star = analytic.minimum_best_m(system, args.gamma).exact
    rows = []
    for sw2 in parse_grid(args.est_err_grid):
        for alpha in parse_grid(args.alpha_grid):
            imp = ImpairmentParams(est_error_var=sw2, delay_corr=alpha)
            b0, r0 = goodput.optimize_beta0(system, imp)
            b1, r1 = goodput.optimize_beta1(system, imp)
            rows.append(
                {
                    "est_err_var": sw2,
                    "alpha": alpha,
                    "beta0_opt": b0,
                    "r0_opt": r0,
                    "beta1_opt": b1,
                    "r1_approx_opt": r1,
                    "m_star": m_star,
                }
            )
    columns = ["est_err_var", "alpha", "beta0_opt", "r0_opt", "beta1_opt", "r1_approx_opt", "m_star"]
    return rows, columns, EXIT_OK


# -- figure recipes ---------------------------------------------------------


def _figure_1(trials, seed):
    cfg = CorrelatedChannelConfig(
        num_subcarriers=256,
        subcarriers_per_rb=8,
        pdp=tuple(pdp_exponential(16, 4.0)),
    )
    snr = 10.0
    combos = [(eta, m) for eta in (1, 2, 4) for m in (2, 4)]
    rows = []
    for k in (2, 5, 10, 15, 20, 25, 30):
        grid = montecarlo.correlated_rate_grid(cfg, snr, k, combos, trials, (seed, k))
        for (eta, m), est in grid.items():
            rows.append(
                {
                    "users": k,
                    "eta": eta,
                    "best_m": m,
                    "sum_rate": est.value,
                    "std_error": est.std_error,
                    "trials": est.trials,
                }
            )
    return rows, ["users", "eta", "best_m", "sum_rate", "std_error", "trials"]


def _fig3_system(k: int, m: int) -> SystemConfig:
    half = k // 2
    return SystemConfig(
        num_rbs=64,
        clusters=(Cluster(1, half), Cluster(4, k - half)),
        best_m=m,
        snr=10.0,
    )


def _figure_3(trials, seed):
    imp = ImpairmentParams(est_error_var=0.01, delay_corr=0.98)
    k = 20
    rows = []
    betas = [round(0.05 * i, 2) for i in range(1, 20)]
    for snr_db in (10.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        for m in (2, 4, 16):
            system = dataclasses.replace(_fig3_system(k, m), snr=snr)
            for beta in betas:
                r1, _ = goodput.variable_rate_metrics(system, imp, beta)
                rows.append(
                    {
                        "snr_db": snr_db,
                        "beta1": beta,
                        "best_m": m,
                        "method": "exact",
                        "goodput": r1,
                    }
                )
        for beta in betas:
            rows.append(
                {
                    "snr_db": snr_db,
                    "beta1": beta,
                    "best_m": 16,
                    "method": "jensen",
                    "goodput": goodput.i3_jensen(beta, k, imp, snr),
                }
            )
    return rows, ["snr_db", "beta1", "best_m", "method", "goodput"]


def _figure_4a(trials, seed):
    rows = []
    for k in range(5, 51):
        sys_k = _fig3_system(k, 1)
        gammas = (0.9, 0.99)
        for gamma, res in zip(gammas, analytic.minimum_best_m(sys_k, gammas)):
            rows.append({"users": k, "gamma": gamma, "m_exact": res.exact, "m_approx": res.approx})
    return rows, ["users", "gamma", "m_exact", "m_approx"]


def _figure_4b(trials, seed):
    rows = []
    for k in (10, 20, 30, 40, 50):
        for frac in [round(0.1 * i, 1) for i in range(1, 10)]:
            k1 = round(frac * k)
            sys_k = SystemConfig(
                num_rbs=64,
                clusters=(Cluster(1, k1), Cluster(4, k - k1)),
                best_m=1,
                snr=10.0,
            )
            res = analytic.minimum_best_m(sys_k, 0.99)
            rows.append({"users": k, "k1_fraction": frac, "m_exact": res.exact})
    return rows, ["users", "k1_fraction", "m_exact"]


def _fig5_system(k: int, m: int) -> SystemConfig:
    per = k // 4
    return SystemConfig(
        num_rbs=64,
        clusters=tuple(Cluster(eta, per) for eta in (1, 2, 4, 8)),
        best_m=m,
        snr=10.0,
    )


def _figure_5(trials, seed):
    rows = []
    for m in (2, 4):
        for k in (8, 16, 24, 32, 40):
            system = _fig5_system(k, m)
            series = {
                "joint": montecarlo.run_strategy_comparison(
                    system, "joint", trials=trials, seed=(seed, m, k, 0)
                ),
                "homogeneous_eta2": montecarlo.run_strategy_comparison(
                    system, "homogeneous", subband_size=2, trials=trials, seed=(seed, m, k, 1)
                ),
                "homogeneous_eta4": montecarlo.run_strategy_comparison(
                    system, "homogeneous", subband_size=4, trials=trials, seed=(seed, m, k, 2)
                ),
                "separate": montecarlo.run_strategy_comparison(
                    system, "separate", trials=trials, seed=(seed, m, k, 3)
                ),
            }
            for name, est in series.items():
                rows.append(
                    {
                        "users": k,
                        "best_m": m,
                        "strategy": name,
                        "sum_rate": est.value,
                        "std_error": est.std_error,
                    }
                )
    return rows, ["users", "best_m", "strategy", "sum_rate", "std_error"]


def _figure_6(trials, seed):
    imp = ImpairmentParams(est_error_var=0.01, delay_corr=0.98)
    rows = []
    betas = [round(0.05 * i, 2) for i in range(1, 21)]
    for k in (10, 20):
        system = _fig3_system(k, 16)
        for beta in betas:
            r0, p0 = goodput.fixed_rate_metrics(system, imp, 10.0 * beta)
            r1, p1 = goodput.variable_rate_metrics(system, imp, beta)
            rows.append(
                {"users": k, "beta": beta, "strategy": "fixed", "goodput": r0, "outage": p0}
            )
            rows.append(
                {"users": k, "beta": beta, "strategy": "variable", "goodput": r1, "outage": p1}
            )
    return rows, ["users", "beta", "strategy", "goodput", "outage"]


def _figure_7(trials, seed):
    system = _fig3_system(10, 16)
    rows = []
    sw2_grid = [round(0.005 * i, 3) for i in range(0, 21)]
    alpha_grid = [round(0.9 + 0.005 * i, 3) for i in range(0, 19)]
    for sw2 in sw2_grid:
        for alpha in alpha_grid:
            imp = ImpairmentParams(est_error_var=sw2, delay_corr=alpha)
            b0, _ = goodput.optimize_beta0(system, imp)
            b1, _ = goodput.optimize_beta1(system, imp)
            rows.append(
                {"est_err_var": sw2, "alpha": alpha, "beta0_opt": b0, "beta1_opt": b1}
            )
    return rows, ["est_err_var", "alpha", "beta0_opt", "beta1_opt"]


def _figure_8(trials, seed):
    imp = ImpairmentParams(est_error_var=0.01, delay_corr=0.98)
    rows = []
    for k in (8, 12, 16, 20, 24, 28, 32, 36, 40):
        system = _fig5_system(k, 1)
        b0, _ = goodput.optimize_beta0(system, imp)
        b1, _ = goodput.optimize_beta1(system, imp)
        m_star = analytic.minimum_best_m(system, 0.99).exact
        sys_star = dataclasses.replace(system, best_m=min(m_star, system.m_full))
        r0, p0 = goodput.fixed_rate_metrics(sys_star, imp, b0)
        r1, p1 = goodput.variable_rate_metrics(sys_star, imp, b1)
        rows.append(
            {
                "users": k,
                "strategy": "fixed",
                "beta_opt": b0,
                "m_star": sys_star.best_m,
                "goodput": r0,
                "outage": p0,
            }
        )
        rows.append(
            {
                "users": k,
                "strategy": "variable",
                "beta_opt": b1,
                "m_star": sys_star.best_m,
                "goodput": r1,
                "outage": p1,
            }
        )
    return rows, ["users", "strategy", "beta_opt", "m_star", "goodput", "outage"]


_FIGURES = {
    "1": (_figure_1, 20_000),
    "3": (_figure_3, 0),
    "4a": (_figure_4a, 0),
    "4b": (_figure_4b, 0),
    "5": (_figure_5, 20_000),
    "6": (_figure_6, 0),
    "7": (_figure_7, 0),
    "8": (_figure_8, 0),
}


def _cmd_figure(args, cfg) -> tuple[list[dict], list[str], int]:
    recipe, default_trials = _FIGURES[args.name]
    trials = args.trials if args.trials is not None else (default_trials or None)
    seed = args.seed if args.seed is not None else int(cfg["seed"])
    rows, columns = recipe(trials, seed)
    return rows, columns, EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetfb",
        description="Heterogeneous best-M partial-feedback downlink: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="run the configured Monte Carlo experiment")
    common(p)
    p.add_argument("--cross-validate", action="store_true")

    p = sub.add_parser("analytic", help="closed-form tables")
    common(p)
    p.add_argument("--users-grid", default="5:50:5")
    p.add_argument("--beta-grid", default="0.1:0.9:0.2")
    p.add_argument("--beta0-scale", type=float, default=10.0, help="beta0 = scale * beta")
    p.add_argument("--full-feedback", action="store_true")

    p = sub.add_parser("min-m", help="minimum feedback amount table")
    common(p)
    p.add_argument("--gamma", default="0.9,0.99")
    p.add_argument("--users-grid", default="5:50:1")

    p = sub.add_parser("optimize", help="optimal beta0/beta1 over an impairment grid")
    common(p)
    p.add_argument("--est-err-grid", default="0,0.05,0.1")
    p.add_argument("--alpha-grid", default="0.9,0.95,0.99")
    p.add_argument("--gamma", type=float, default=0.99)

    p = sub.add_parser("figure", help="reproduce a named figure's data series")
    common(p)
    p.add_argument("name", choices=sorted(_FIGURES.keys()))
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "min-m": _cmd_min_m,
    "optimize": _cmd_optimize,
    "figure": _cmd_figure,
}


def _error_record(kind: str, exc: Exception) -> str:
    return json.dumps({"error": {"type": kind, "message": str(exc)}})


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.trials is not None:
            cfg["trials"] = args.trials
        if args.seed is not None:
            cfg["seed"] = args.seed
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(_error_record("validation", exc), file=_sys.stderr)
        return EXIT_VALIDATION

    name = args.command.replace("-", "_")
    if args.command == "figure":
        name = f"figure_{args.name}"
    try:
        rows, columns, code = _HANDLERS[args.command](args, cfg)
        emit(
            rows,
            columns,
            out_dir=args.out,
            name=name,
            fmt=args.format,
            command=args.command,
            config=cfg,
            seed=cfg.get("seed"),
        )
    except (ValueError, KeyError, TypeError) as exc:
        print(_error_record("validation", exc), file=_sys.stderr)
        return EXIT_VALIDATION
    except (QuadratureError, ConvergenceError, ArithmeticError) as exc:
        print(_error_record("numerical", exc), file=_sys.stderr)
        return EXIT_NUMERICAL
    return code


def main() -> None:
    _sys.exit(run())
