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

Each handler returns its rows (``simulate`` also its exit code), built by
row builders that the figure recipes share with the subcommands.  A row is
a dict, and the keys of the first row are the table's columns.  Every run
writes a CSV (12 significant digits) plus a JSON manifest recording the
configuration that ran: the resolved config of ``simulate``, or of a
closed-form subcommand without its seed and trials; the figure, seed and
trial count of a Monte Carlo figure; ``null`` for a closed-form figure.
The manifest's top-level seed is that configuration's seed, if it has one.
Exit codes: 0 ok, 2 validation error (a bad config, argument or
output path), 3 numerical failure, 4 cross-validation flagged, 5 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import math
import os
import sys as _sys
import traceback
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
EXIT_INTERNAL = 5

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


def load_config(path: str | None, overrides: list[str], defaults: dict = DEFAULT_CONFIG) -> dict:
    cfg = dict(defaults)
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


_REQUIRED = object()


def _config_value(cfg: dict, key: str, kind, default=_REQUIRED):
    """``kind(cfg[key])``; a missing or mistyped key raises ``ValueError``.

    A bool is not a number here, and an int key takes a float only when it
    is integral (``1e5``), so no value is silently truncated.
    """
    if key not in cfg and default is _REQUIRED:
        raise ValueError(f"config key {key!r} is missing")
    value = cfg.get(key, default)
    try:
        if isinstance(value, bool) and kind in (int, float):
            raise TypeError(f"expected a number, got {value!r}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def system_from_config(cfg: dict) -> SystemConfig:
    raw = _config_value(cfg, "clusters", list)
    if not all(isinstance(c, dict) for c in raw):
        raise ValueError('config key "clusters" must list {"eta": ..., "users": ...} objects')
    clusters = tuple(
        Cluster(subband_size=_config_value(c, "eta", int), num_users=_config_value(c, "users", int))
        for c in raw
    )
    try:
        snr = 10.0 ** (_config_value(cfg, "snr_db", float) / 10.0)
    except OverflowError:  # past ~3083 dB; SystemConfig rejects the inf
        snr = math.inf
    return SystemConfig(
        num_rbs=_config_value(cfg, "n_rbs", int),
        clusters=clusters,
        best_m=_config_value(cfg, "best_m", int),
        snr=snr,
    )


def impairments_from_config(cfg: dict) -> ImpairmentParams | None:
    if "alpha" not in cfg and "est_err_var" not in cfg:
        return None
    return ImpairmentParams(
        est_error_var=_config_value(cfg, "est_err_var", float, 0.0),
        delay_corr=_config_value(cfg, "alpha", float, 1.0),
    )


def correlated_from_config(cfg: dict) -> CorrelatedChannelConfig:
    n_sc = _config_value(cfg, "num_subcarriers", int)
    n_rbs = _config_value(cfg, "n_rbs", int)
    if n_rbs < 1 or n_sc % n_rbs:
        raise ValueError(f"config key 'n_rbs' must divide num_subcarriers={n_sc}, got {n_rbs}")
    pdp = pdp_exponential(_config_value(cfg, "num_taps", int), _config_value(cfg, "pdp_decay", float))
    return CorrelatedChannelConfig(
        num_subcarriers=n_sc,
        subcarriers_per_rb=n_sc // n_rbs,
        pdp=tuple(pdp),
    )


def strategy_from_config(cfg: dict) -> StrategyParams | None:
    betas = {k: _config_value(cfg, k, float) for k in ("beta0", "beta1") if cfg.get(k) is not None}
    return StrategyParams(**betas) if betas else None


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


def _user_grid_systems(system: SystemConfig, users_grid: str) -> list[tuple[int, SystemConfig]]:
    """(k, ``system`` with k users split in its cluster proportions) per grid point."""
    fractions = [c.num_users / system.num_users for c in system.clusters]
    out = []
    for u in parse_grid(users_grid):
        if not u.is_integer():
            raise ValueError(f"--users-grid: expected integer user counts, got {u!r}")
        k = int(u)
        sizes = split_users(k, fractions)
        clusters = tuple(Cluster(c.subband_size, n) for c, n in zip(system.clusters, sizes))
        out.append((k, dataclasses.replace(system, clusters=clusters)))
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
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


def emit(rows, *, out_dir, name, fmt, command, config, seed) -> list[str]:
    """Write the result table and its manifest; returns the written paths.

    The columns are the keys of the first row, in order.
    """
    if not rows:
        raise ValueError("refusing to emit an empty result set")
    columns = list(rows[0])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        data_path = out / f"{name}.csv"
        with open(data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
    elif fmt == "json":
        data_path = out / f"{name}.json"
        payload = {"columns": columns, "rows": [{c: row[c] for c in columns} for row in rows]}
        with open(data_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_fmt)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")

    manifest = dict(
        command=command, config=config, seed=seed, artifact_version=__version__,
        timestamp=_timestamp(), outputs=[str(data_path)], columns=columns,
    )
    manifest_path = out / f"{name}.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    return [str(data_path), str(manifest_path)]


# ---------------------------------------------------------------------------
# Row builders, shared by the subcommands and the figure recipes
# ---------------------------------------------------------------------------


def _estimate_rows(estimates: dict) -> list[dict]:
    """One row per named Monte Carlo estimate."""
    return [
        {"metric": name, "value": est.value, "std_error": est.std_error, "trials": est.trials}
        for name, est in estimates.items()
    ]


def _goodput_rows(system, imp, beta0, beta1, leads, detail=lambda beta: {}) -> list[dict]:
    """Per entry of ``leads``, a fixed-rate row at its ``beta0``, then a variable-rate row.

    The variable-rate row is at the entry's ``beta1``.  One goodput table
    call evaluates every row.  Each row holds its lead, the strategy,
    ``detail(beta)``, goodput and outage.
    """
    r0, p0, r1, p1 = (v.tolist() for v in goodput._metrics_table(system, imp, beta0, beta1))
    rows = []
    for i, lead in enumerate(leads):
        rows.append({**lead, "strategy": "fixed", **detail(beta0[i]), "goodput": r0[i],
                     "outage": p0[i]})
        rows.append({**lead, "strategy": "variable", **detail(beta1[i]), "goodput": r1[i],
                     "outage": p1[i]})
    return rows


def _min_m_rows(systems, gammas) -> list[dict]:
    """Minimum best-M per (users, gamma), for ``systems`` listing (users, system)."""
    results = analytic.minimum_best_m([sys_k for _, sys_k in systems], gammas)
    return [
        {"users": k, "gamma": gamma, "m_exact": res.exact, "m_approx": res.approx}
        for (k, _), per_gamma in zip(systems, results)
        for gamma, res in zip(gammas, per_gamma)
    ]


def _optimize_rows(system, sw2_grid, alpha_grid) -> list[dict]:
    """Optimal beta0 and beta1, with their goodputs, over an impairment grid."""
    cells = [ImpairmentParams(est_error_var=sw2, delay_corr=alpha)
             for sw2 in sw2_grid for alpha in alpha_grid]
    b0, r0 = (v.tolist() for v in goodput.optimize_beta0_grid(system, cells))
    b1, r1 = (v.tolist() for v in goodput.optimize_beta1_grid(system, cells))
    return [
        {"est_err_var": imp.est_error_var, "alpha": imp.delay_corr, "beta0_opt": b0[i],
         "r0_opt": r0[i], "beta1_opt": b1[i], "r1_approx_opt": r1[i]}
        for i, imp in enumerate(cells)
    ]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_simulate(args, cfg) -> tuple[list[dict], int]:
    system = system_from_config(cfg)
    imp = impairments_from_config(cfg)
    strategy = strategy_from_config(cfg)
    spec = ExperimentSpec(
        model=cfg.get("model", "subband"),
        system=system,
        correlated=correlated_from_config(cfg) if cfg.get("model") == "correlated" else None,
        impairments=imp,
        strategy=strategy,
        trials=_config_value(cfg, "trials", int),
        seed=_config_value(cfg, "seed", int),
    )
    if args.cross_validate:
        report = montecarlo.cross_validate(spec)
        rows = [
            {"metric": e.name, "empirical": e.empirical, "std_error": e.std_error,
             "analytic": e.analytic, "z": e.z_score}
            for e in report.entries
        ]
        return rows, EXIT_CROSSVAL if report.flagged else EXIT_OK
    if imp is None:
        return _estimate_rows({"sum_rate": montecarlo.run_perfect(spec)}), EXIT_OK
    if strategy is None:
        raise ValueError("imperfect simulation needs beta0 or beta1 in the config")
    res = montecarlo.run_imperfect(spec)
    estimates = {"goodput": res.goodput, "outage": res.outage,
                 "scheduling_outage": res.scheduling_outage}
    return _estimate_rows(estimates), EXIT_OK


def _cmd_analytic(args, cfg) -> list[dict]:
    system = system_from_config(cfg)
    imp = impairments_from_config(cfg)
    if args.full_feedback:
        system = dataclasses.replace(system, best_m=system.m_full)
    if imp is None:
        systems = _user_grid_systems(system, args.users_grid)
        rates = analytic.average_sum_rate([sys_k for _, sys_k in systems]).tolist()
        return [
            {"users": k, "best_m": sys_k.best_m, "sum_rate": rate}
            for (k, sys_k), rate in zip(systems, rates)
        ]
    betas = parse_grid(args.beta_grid)
    return _goodput_rows(system, imp, [args.beta0_scale * beta for beta in betas], betas,
                         [{"beta": beta} for beta in betas])


def _cmd_min_m(args, cfg) -> list[dict]:
    system = system_from_config(cfg)
    return _min_m_rows(_user_grid_systems(system, args.users_grid), parse_grid(args.gamma))


def _cmd_optimize(args, cfg) -> list[dict]:
    system = system_from_config(cfg)
    m_star = analytic.minimum_best_m(system, args.gamma).exact
    rows = _optimize_rows(system, parse_grid(args.est_err_grid), parse_grid(args.alpha_grid))
    return [dict(row, m_star=m_star) for row in rows]


# -- figure recipes ---------------------------------------------------------

_FIG_IMPAIRMENTS = ImpairmentParams(est_error_var=0.01, delay_corr=0.98)


def _figure_1(trials, seed):
    cfg = CorrelatedChannelConfig(
        num_subcarriers=256, subcarriers_per_rb=8, pdp=tuple(pdp_exponential(16, 4.0))
    )
    combos = [(eta, m) for eta in (1, 2, 4) for m in (2, 4)]
    rows = []
    for k in (2, 5, 10, 15, 20, 25, 30):
        grid = montecarlo.correlated_rate_grid(cfg, 10.0, k, combos, trials, (seed, k))
        for (eta, m), est in grid.items():
            rows.append({"users": k, "eta": eta, "best_m": m, "sum_rate": est.value,
                         "std_error": est.std_error, "trials": est.trials})
    return rows


def _fig3_system(k: int, m: int) -> SystemConfig:
    half = k // 2
    return SystemConfig(64, (Cluster(1, half), Cluster(4, k - half)), best_m=m, snr=10.0)


def _figure_3():
    k = 20
    betas = [round(0.05 * i, 2) for i in range(1, 20)]
    rows = []
    for snr_db in (10.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        for m in (2, 4, 16):
            system = dataclasses.replace(_fig3_system(k, m), snr=snr)
            _, _, r1, _ = goodput._metrics_table(system, _FIG_IMPAIRMENTS, [], betas)
            rows += [
                {"snr_db": snr_db, "beta1": beta, "best_m": m, "method": "exact", "goodput": r}
                for beta, r in zip(betas, r1.tolist())
            ]
        r1 = goodput.i3_jensen(betas, k, _FIG_IMPAIRMENTS, snr)
        rows += [
            {"snr_db": snr_db, "beta1": beta, "best_m": 16, "method": "jensen", "goodput": r}
            for beta, r in zip(betas, r1.tolist())
        ]
    return rows


def _figure_4a():
    return _min_m_rows([(k, _fig3_system(k, 1)) for k in range(5, 51)], (0.9, 0.99))


def _figure_4b():
    cases = [(k, frac) for k in (10, 20, 30, 40, 50)
             for frac in [round(0.1 * i, 1) for i in range(1, 10)]]
    systems = []
    for k, frac in cases:
        k1 = round(frac * k)
        clusters = (Cluster(1, k1), Cluster(4, k - k1))
        systems.append(SystemConfig(64, clusters, best_m=1, snr=10.0))
    return [
        {"users": k, "k1_fraction": frac, "m_exact": res.exact}
        for (k, frac), res in zip(cases, analytic.minimum_best_m(systems, 0.99))
    ]


def _fig5_system(k: int, m: int) -> SystemConfig:
    clusters = tuple(Cluster(eta, k // 4) for eta in (1, 2, 4, 8))
    return SystemConfig(64, clusters, best_m=m, snr=10.0)


# (series, strategy, common subband size) of figure 5, in seed order
_FIG5_SERIES = (
    ("joint", "joint", None),
    ("homogeneous_eta2", "homogeneous", 2),
    ("homogeneous_eta4", "homogeneous", 4),
    ("separate", "separate", None),
)


def _figure_5(trials, seed):
    rows = []
    for m in (2, 4):
        for k in (8, 16, 24, 32, 40):
            system = _fig5_system(k, m)
            for i, (series, strategy, eta) in enumerate(_FIG5_SERIES):
                est = montecarlo.run_strategy_comparison(
                    system, strategy, subband_size=eta, trials=trials, seed=(seed, m, k, i)
                )
                rows.append({"users": k, "best_m": m, "strategy": series,
                             "sum_rate": est.value, "std_error": est.std_error})
    return rows


def _figure_6():
    rows = []
    for k in (10, 20):
        betas = [round(0.05 * i, 2) for i in range(1, 21)]
        rows += _goodput_rows(_fig3_system(k, 16), _FIG_IMPAIRMENTS, [10.0 * b for b in betas],
                              betas, [{"users": k, "beta": b} for b in betas])
    return rows


def _figure_7():
    sw2_grid = [round(0.005 * i, 3) for i in range(0, 21)]
    alpha_grid = [round(0.9 + 0.005 * i, 3) for i in range(0, 19)]
    rows = _optimize_rows(_fig3_system(10, 16), sw2_grid, alpha_grid)
    for row in rows:
        del row["r0_opt"], row["r1_approx_opt"]
    return rows


def _figure_8():
    systems = [_fig5_system(k, 1) for k in (8, 12, 16, 20, 24, 28, 32, 36, 40)]
    rows = []
    for system, res in zip(systems, analytic.minimum_best_m(systems, 0.99)):
        b0, _ = goodput.optimize_beta0(system, _FIG_IMPAIRMENTS)
        b1, _ = goodput.optimize_beta1(system, _FIG_IMPAIRMENTS)
        m_star = min(res.exact, system.m_full)
        sys_star = dataclasses.replace(system, best_m=m_star)
        rows += _goodput_rows(
            sys_star, _FIG_IMPAIRMENTS, [b0], [b1], [{"users": system.num_users}],
            lambda beta: {"beta_opt": beta, "m_star": m_star},
        )
    return rows


_FIGURES = {
    "1": _figure_1, "3": _figure_3, "4a": _figure_4a, "4b": _figure_4b,
    "5": _figure_5, "6": _figure_6, "7": _figure_7, "8": _figure_8,
}
# The Monte Carlo figures and their default trial counts; the rest are closed-form.
_FIGURE_TRIALS = {"1": 20_000, "5": 20_000}


def _run_config(args, cfg) -> dict | None:
    """The configuration a command runs, which its manifest records.

    ``analytic``, ``min-m`` and ``optimize`` compute the subband model's
    closed forms: they refuse another ``model`` and use no seed or trials.
    """
    if args.command == "simulate":
        return cfg
    if args.command != "figure":
        if cfg.get("model", "subband") != "subband":
            raise ValueError(f"config key 'model': the closed forms cover the subband model "
                             f"only, got {cfg['model']!r}")
        return {key: value for key, value in cfg.items() if key not in ("seed", "trials")}
    if args.name not in _FIGURE_TRIALS:
        return None
    return {"figure": args.name, "seed": _config_value(cfg, "seed", int),
            "trials": _config_value(cfg, "trials", int)}


def _cmd_figure(args, figure_run) -> list[dict]:
    recipe = _FIGURES[args.name]
    return recipe(figure_run["trials"], figure_run["seed"]) if figure_run else recipe()


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``run`` call."""
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

_EXIT_CODES = {
    "validation": EXIT_VALIDATION, "numerical": EXIT_NUMERICAL, "internal": EXIT_INTERNAL
}


def _fail(exc: Exception, kind: str | None = None) -> int:
    """Print the JSON error record of ``exc``; return its exit code.

    ``kind`` defaults to what the class of ``exc`` says: a bad input
    (``ValueError``), a numerical failure or, for anything else, a bug.
    """
    if kind is None:
        if isinstance(exc, ValueError):
            kind = "validation"
        elif isinstance(exc, (QuadratureError, ConvergenceError, ArithmeticError)):
            kind = "numerical"
        else:
            # a bug, not a bad input: keep the traceback, then the one-line record
            traceback.print_exc(file=_sys.stderr)
            kind = "internal"
    print(json.dumps({"error": {"type": kind, "message": str(exc)}}), file=_sys.stderr)
    return _EXIT_CODES[kind]


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    defaults = DEFAULT_CONFIG
    if args.command == "figure" and args.name in _FIGURE_TRIALS:
        defaults = {**DEFAULT_CONFIG, "trials": _FIGURE_TRIALS[args.name]}
    try:
        cfg = load_config(args.config, args.overrides, defaults)
        if args.trials is not None:
            cfg["trials"] = args.trials
        if args.seed is not None:
            cfg["seed"] = args.seed
    except (ValueError, OSError) as exc:
        return _fail(exc, "validation")

    name = f"figure_{args.name}" if args.command == "figure" else args.command.replace("-", "_")
    # each handler gets the configuration it runs, and the manifest records it
    try:
        config = _run_config(args, cfg)
        result = _HANDLERS[args.command](args, config)
    except Exception as exc:
        return _fail(exc)
    rows, code = result if args.command == "simulate" else (result, EXIT_OK)
    try:
        emit(rows, out_dir=args.out, name=name, fmt=args.format, command=args.command,
             config=config, seed=(config or {}).get("seed"))
    except OSError as exc:
        # the output path is at fault, not the program
        return _fail(exc, "validation")
    except Exception as exc:
        return _fail(exc)
    return code


def main() -> None:
    _sys.exit(run())


if __name__ == "__main__":
    main()
