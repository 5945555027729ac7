"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Statistical criteria use fixed seeds, so outcomes are
reproducible bit for bit.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from hetfb.analytic import (
    _poly_mul,
    _poly_power_bruteforce,
    _xi_exact,
    average_sum_rate,
    coverage_prob,
    feedback_set_pmf,
    i1,
    minimum_best_m,
    reported_cqi_cdf,
    selection_coefficients,
)
from hetfb.channel import Cluster, CorrelatedChannelConfig, ImpairmentParams, SystemConfig
from hetfb.channel import pdp_exponential
from hetfb.goodput import (
    StrategyParams,
    fixed_rate_metrics,
    i2,
    i3_jensen,
    i3_quadrature,
    i3_upper_bound,
    i4,
    optimize_beta0,
    optimize_beta1,
    variable_rate_metrics,
)
from hetfb.montecarlo import (
    ExperimentSpec,
    correlated_rate_grid,
    run_imperfect_grid,
    run_perfect,
    run_strategy_comparison,
)

IMP_REF = ImpairmentParams(est_error_var=0.01, delay_corr=0.98)
SNR_10DB = 10.0


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:>2}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def two_cluster(k: int, m: int, eta=(1, 4), n: int = 64) -> SystemConfig:
    half = k // 2
    return SystemConfig(
        n, (Cluster(eta[0], half), Cluster(eta[1], k - half)), m, SNR_10DB
    )


def four_cluster(k: int, m: int) -> SystemConfig:
    base, extra = divmod(k, 4)
    sizes = [base + (1 if g < extra else 0) for g in range(4)]
    return SystemConfig(
        64, tuple(Cluster(eta, s) for eta, s in zip((1, 2, 4, 8), sizes)), m, SNR_10DB
    )


def marcum_ref(a: float, b: float) -> float:
    if b == 0:
        return 1.0
    if a == 0:
        return math.exp(-0.5 * b * b)
    return stats.ncx2.sf(b * b, 2, a * a)


def order_weight_quadrature(func, b: int, scale: float) -> float:
    """Oracle integral of ``func`` against d(F^b), F exponential mean scale."""

    def integrand(x):
        log_sf = -x / scale
        dens = b * math.exp((b - 1) * math.log(-math.expm1(log_sf)) + log_sf) / scale
        return func(x) * dens

    hi = scale * (math.log(max(b, 2)) + 45.0)
    val, _ = integrate.quad(
        integrand, 0.0, hi, points=[scale * math.log(max(b, 2))], limit=400
    )
    return val


# ---------------------------------------------------------------------------
# 1. coefficient exactness
# ---------------------------------------------------------------------------


def test_criterion_01_coefficient_exactness():
    checked = 0
    eta_pool = [
        t
        for size in (1, 2, 3)
        for t in itertools.combinations((1, 2, 4, 8), size)
    ]
    for n in (4, 8):
        for etas in eta_pool:
            if n % etas[-1]:
                continue
            for m in range(1, n // etas[-1] + 1):
                quotas = [(etas[-1] // e) * m for e in etas]
                if max(quotas) > 4:
                    continue  # exactness grid: small quotas, 3 clusters included
                sys_cfg = SystemConfig(n, tuple(Cluster(e, 3) for e in etas), m, SNR_10DB)
                xi = [_xi_exact(sys_cfg.num_subbands(g), q) for g, q in enumerate(quotas)]
                assert all(sum(v) == 1 for v in xi)
                dist = feedback_set_pmf(sys_cfg)
                total_p = Fraction(0)
                for tau in itertools.product(*(range(4) for _ in etas)):
                    total_p += dist.probability_exact(tau)
                    if all(t == 0 for t in tau):
                        continue
                    table = selection_coefficients(sys_cfg, tau)
                    brute = [Fraction(1)]
                    for g, t in enumerate(tau):
                        brute = _poly_mul(brute, _poly_power_bruteforce(xi[g], t))
                    assert list(table.theta_exact) == brute
                    assert sum(table.theta_exact) == 1
                    checked += 1
                assert total_p == 1
    report(
        1,
        "selection-coefficient recursion == exact polynomial expansion",
        checked >= 200,
        f"{checked} feedback-set instances verified exactly",
    )


# ---------------------------------------------------------------------------
# 2. reported-CQI law oracle
# ---------------------------------------------------------------------------


def test_criterion_02_reported_cdf_oracle():
    sys_cfg = SystemConfig(4, (Cluster(1, 1), Cluster(2, 1)), 1, SNR_10DB)
    symbolic_ok = _xi_exact(4, 2) == [Fraction(-1), Fraction(2)]

    xs = np.linspace(0.0, 10.0, 401)
    f = -np.expm1(-xs)
    reference = 2.0 * f**3 - f**4
    numeric_err = float(np.max(np.abs(reported_cqi_cdf(xs, sys_cfg, 0) - reference)))

    rng = np.random.default_rng(20240201)
    z = rng.exponential(1.0, size=(100_000, 4))
    top2 = np.argsort(-z, axis=1)[:, :2]
    sample = z[(top2 == 0).any(axis=1), 0]
    pvalue = stats.kstest(sample, lambda x: reported_cqi_cdf(x, sys_cfg, 0)).pvalue

    ok = symbolic_ok and numeric_err <= 1e-12 and pvalue > 0.01
    report(
        2,
        "best-2-of-4 reported CDF equals (F_(3)+F_(4))/2 = 2F^3 - F^4",
        ok,
        f"max CDF error {numeric_err:.2e}, KS p={pvalue:.3f} on 1e5 draws",
    )


# ---------------------------------------------------------------------------
# 3. closed forms vs quadrature
# ---------------------------------------------------------------------------


def test_criterion_03_closed_forms_match_quadrature():
    bs = (1, 2, 8, 20, 40)
    worst = 0.0

    for b in bs:
        for a in (0.2, 1.0, 5.0, 10.0, 50.0):
            oracle = order_weight_quadrature(lambda x: math.log2(1 + a * x), b, 1.0)
            worst = max(worst, abs(i1(a, b) - oracle))

    varpi = IMP_REF.alpha_w * IMP_REF.delay_corr
    scale = IMP_REF.estimate_var
    for b in bs:
        for a in (0.1, 0.5, 1.0, 2.0, 5.0):
            vth = IMP_REF.alpha_w * math.sqrt(a)
            oracle = order_weight_quadrature(
                lambda x: marcum_ref(varpi * math.sqrt(x), vth), b, scale
            )
            worst = max(worst, abs(i2(a, b, IMP_REF) - oracle))
        for a in (0.1, 0.3, 0.5, 0.7, 0.9):
            oracle = order_weight_quadrature(
                lambda x: marcum_ref(varpi * math.sqrt(x), IMP_REF.alpha_w * math.sqrt(a * x)),
                b,
                scale,
            )
            worst = max(worst, abs(i4(a, b, IMP_REF) - oracle))

    report(
        3,
        "rate/success moment integrals match defining-integral quadrature to 1e-7",
        worst <= 1e-7,
        f"worst |closed - quadrature| = {worst:.2e} over b in {bs}",
    )


# ---------------------------------------------------------------------------
# 4. analytic vs Monte Carlo, perfect feedback
# ---------------------------------------------------------------------------


def test_criterion_04_perfect_feedback_cross_validation():
    trials = 100_000
    worst_z = 0.0
    exact_full = True
    seed = 411
    for k in (4, 10, 20):
        for m in (2, 4, 16):
            sys_cfg = two_cluster(k, m)
            analytic_rate = average_sum_rate(sys_cfg)
            if m == 16:
                exact_full &= analytic_rate == i1(SNR_10DB, k)
            est = run_perfect(
                ExperimentSpec("subband", sys_cfg, trials=trials, seed=seed)
            )
            worst_z = max(worst_z, abs(est.value - analytic_rate) / est.std_error)
            seed += 1
    report(
        4,
        "closed-form sum rate within 3 SE of 1e5-trial simulation (9 configs)",
        worst_z <= 3.0 and exact_full,
        f"worst |z| = {worst_z:.2f}; full feedback equals the order-statistics rate exactly",
    )


# ---------------------------------------------------------------------------
# 5. analytic vs Monte Carlo, imperfect feedback
# ---------------------------------------------------------------------------


def test_criterion_05_imperfect_feedback_cross_validation():
    trials = 100_000
    betas = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst_z = 0.0
    for k, seed in ((10, 521), (20, 522)):
        sys_cfg = two_cluster(k, 16)  # full feedback: every block always covered
        strategies = [StrategyParams(beta0=10.0 * b) for b in betas] + [
            StrategyParams(beta1=b) for b in betas
        ]
        spec = ExperimentSpec(
            "subband", sys_cfg, impairments=IMP_REF, trials=trials, seed=seed
        )
        results = run_imperfect_grid(spec, strategies)
        for strat, res in zip(strategies, results):
            if strat.beta0 is not None:
                r_ref, p_ref = fixed_rate_metrics(sys_cfg, IMP_REF, strat.beta0)
            else:
                r_ref, p_ref = variable_rate_metrics(sys_cfg, IMP_REF, strat.beta1)
            p_ref /= coverage_prob(sys_cfg)
            worst_z = max(worst_z, abs(res.goodput.value - r_ref) / res.goodput.std_error)
            if res.outage.std_error > 0:
                worst_z = max(worst_z, abs(res.outage.value - p_ref) / res.outage.std_error)
            else:
                # no outage event observed: consistent only with a tiny reference
                assert res.outage.value == 0.0 and p_ref < 1e-6
    report(
        5,
        "goodput/outage closed forms within 3 SE of 1e5-trial simulation",
        worst_z <= 3.0,
        f"worst |z| = {worst_z:.2f} over K in (10, 20), 5-point beta grid, both strategies",
    )


# ---------------------------------------------------------------------------
# 6. minimum feedback reproduction
# ---------------------------------------------------------------------------


def test_criterion_06_minimum_best_m():
    worst_gap = 0
    for k in range(5, 51):
        for gamma in (0.9, 0.99):
            res = minimum_best_m(two_cluster(k, 1), gamma)
            worst_gap = max(worst_gap, abs(res.exact - res.approx))
    uniform = True
    for k in (10, 40):
        values = set()
        for frac in np.arange(0.1, 0.95, 0.1):
            k1 = round(float(frac) * k)
            sys_cfg = SystemConfig(
                64, (Cluster(1, k1), Cluster(4, k - k1)), 1, SNR_10DB
            )
            values.add(minimum_best_m(sys_cfg, 0.99).exact)
        uniform &= len(values) == 1
    report(
        6,
        "exact vs approximate minimum best-M within 1; partition invariance",
        worst_gap <= 1 and uniform,
        f"max |exact - approx| = {worst_gap} for K=5..50; invariant over cluster splits",
    )


# ---------------------------------------------------------------------------
# 7. correlated-model qualitative behaviour
# ---------------------------------------------------------------------------


def test_criterion_07_correlated_model_orderings():
    cfg = CorrelatedChannelConfig(256, 8, tuple(pdp_exponential(16, 4.0)))
    combos = [(eta, m) for eta in (1, 2, 4) for m in (2, 4)]
    trials = 20_000
    low = correlated_rate_grid(cfg, SNR_10DB, 5, combos, trials, 711)
    high = correlated_rate_grid(cfg, SNR_10DB, 30, combos, trials, 712)

    slopes = {c: high[c].value - low[c].value for c in combos}
    eta4_max = max(slopes[(4, 2)], slopes[(4, 4)])
    others_min = min(v for c, v in slopes.items() if c[0] != 4)
    smallest_slope = eta4_max < others_min

    lowest = all(high[(1, 2)].value < high[c].value for c in combos if c != (1, 2))

    a, b = high[(1, 4)].value, high[(2, 2)].value
    gap = abs(a - b) / min(a, b)
    ok = smallest_slope and lowest and gap <= 0.02
    report(
        7,
        "coarse subbands flatten growth; starved feedback lowest; matched pairs close",
        ok,
        f"eta4 slope {eta4_max:.3f} < others {others_min:.3f}; gap {100*gap:.2f}% <= 2%",
    )


# ---------------------------------------------------------------------------
# 8. feedback-organization comparison
# ---------------------------------------------------------------------------


def test_criterion_08_strategy_ordering():
    trials = 20_000
    ok = True
    details = []
    for m in (2, 4):
        sys_cfg = four_cluster(40, m)
        joint = run_strategy_comparison(sys_cfg, "joint", trials=trials, seed=(81, m))
        # intermediate common sizes: coarse for the finest cluster and
        # redundant for the coarsest one at the same time
        hom2 = run_strategy_comparison(
            sys_cfg, "homogeneous", subband_size=2, trials=trials, seed=(82, m)
        )
        hom4 = run_strategy_comparison(
            sys_cfg, "homogeneous", subband_size=4, trials=trials, seed=(83, m)
        )
        sep = run_strategy_comparison(sys_cfg, "separate", trials=trials, seed=(84, m))

        def exceeds(a, b):
            return a.value - b.value > 3.0 * math.hypot(a.std_error, b.std_error)

        ok &= exceeds(joint, hom2) and exceeds(joint, hom4)
        ok &= exceeds(hom2, sep) and exceeds(hom4, sep)
        details.append(
            f"M={m}: joint {joint.value:.3f} > hom {hom2.value:.3f}/{hom4.value:.3f} > separate {sep.value:.3f}"
        )
    report(8, "joint > homogeneous > separate feedback, gaps beyond 3 SE", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. bound / approximation / unimodality checks
# ---------------------------------------------------------------------------


def test_criterion_09_bound_and_approximation_checks():
    bound_ok = True
    for snr in (0.01, 0.1):
        for a in (0.1, 0.5, 0.9):
            for b in (1, 4, 20):
                ub = i3_upper_bound(a, b, IMP_REF, snr)
                exact = i3_quadrature(a, b, IMP_REF, snr)
                bound_ok &= ub >= exact

    ratios = [
        i3_quadrature(0.5, b, IMP_REF, SNR_10DB) / i3_jensen(0.5, b, IMP_REF, SNR_10DB)
        for b in (5, 10, 20, 50, 100)
    ]
    jensen_ok = all(x < y for x, y in zip(ratios, ratios[1:])) and all(r < 1 for r in ratios)

    unimodal_ok = True
    optimum_ok = True
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for imp, k, snr in (
        (IMP_REF, 10, SNR_10DB),
        (IMP_REF, 20, 100.0),
        (ImpairmentParams(0.05, 0.9), 10, SNR_10DB),
        (ImpairmentParams(0.0, 0.95), 20, SNR_10DB),
    ):
        vals = np.array([i3_jensen(float(x), k, imp, snr) for x in grid])
        peak = int(np.argmax(vals))
        rising = np.all(np.diff(vals[: peak + 1]) >= -1e-12)
        falling = np.all(np.diff(vals[peak:]) <= 1e-12)
        unimodal_ok &= bool(rising and falling)
        sys_cfg = two_cluster(k, 16)
        b1, _ = optimize_beta1(replace(sys_cfg, snr=snr), imp)
        optimum_ok &= abs(b1 - grid[peak]) <= 1e-3

    ok = bound_ok and jensen_ok and unimodal_ok and optimum_ok
    report(
        9,
        "low-SNR bound holds; mean-value ratio rises to 1; goodput curve unimodal",
        ok,
        f"ratios {np.round(ratios, 4).tolist()}",
    )


# ---------------------------------------------------------------------------
# 10. optimized-parameter trends and strategy gap
# ---------------------------------------------------------------------------


def test_criterion_10_optimization_trends():
    sys10 = two_cluster(10, 16)
    sw2_grid = (0.0, 0.05, 0.1)
    alpha_grid = (0.9, 0.95, 0.99)
    beta0 = {}
    beta1 = {}
    for sw2 in sw2_grid:
        for alpha in alpha_grid:
            imp = ImpairmentParams(sw2, alpha)
            beta0[(sw2, alpha)], _ = optimize_beta0(sys10, imp)
            beta1[(sw2, alpha)], _ = optimize_beta1(sys10, imp)

    tol = 1e-4
    trends_ok = True
    for table in (beta0, beta1):
        for alpha in alpha_grid:
            col = [table[(s, alpha)] for s in sw2_grid]
            trends_ok &= all(x >= y - tol for x, y in zip(col, col[1:]))
        for sw2 in sw2_grid:
            row = [table[(sw2, a)] for a in alpha_grid]
            trends_ok &= all(x <= y + tol for x, y in zip(row, row[1:]))

    gap_ok = True
    gaps = []
    for k in (10, 20, 40):
        sys_cfg = four_cluster(k, 1)
        b0, _ = optimize_beta0(sys_cfg, IMP_REF)
        b1, _ = optimize_beta1(sys_cfg, IMP_REF)
        m_star = minimum_best_m(sys_cfg, 0.99).exact
        sys_star = replace(sys_cfg, best_m=min(m_star, sys_cfg.m_full))
        r0, _ = fixed_rate_metrics(sys_star, IMP_REF, b0)
        r1, _ = variable_rate_metrics(sys_star, IMP_REF, b1)
        gap_ok &= r1 > r0
        gaps.append(f"K={k}: {r1:.3f} > {r0:.3f}")

    report(
        10,
        "optimal parameters shrink with worse impairments; variable rate beats fixed",
        trends_ok and gap_ok,
        "; ".join(gaps),
    )


# ---------------------------------------------------------------------------
# 11. determinism of every emitting subcommand
# ---------------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    from hetfb.cli import run

    jobs = [("simulate", ["--trials", "2000"])]
    jobs += [("figure", [name]) for name in ("3", "4a", "4b", "6", "7", "8")]
    jobs += [("figure", [name, "--trials", "600"]) for name in ("1", "5")]

    identical = True
    for i, (command, extra) in enumerate(jobs):
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}_{i}_{attempt}"
            args = [command] + extra + ["--out", str(out), "--seed", "1234"]
            code = run(args)
            assert code == 0, f"{command} {extra} exited {code}"
            csvs = sorted(out.glob("*.csv"))
            assert csvs, "no data emitted"
            outputs.append(b"".join(p.read_bytes() for p in csvs))
        identical &= outputs[0] == outputs[1]
    report(
        11,
        "simulate and every figure subcommand are byte-identical for a fixed seed",
        identical,
        f"{len(jobs)} subcommands x 2 runs",
    )
