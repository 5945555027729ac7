"""Per-layer tracing by wrapping named library callables in place.

Each target ``<module>.<name>`` (or ``<module>.<Class>.<method>``) is looked
up in ``hetfb.<module>``.  A function is replaced, by object identity, in
every loaded ``hetfb`` module that binds it: ``goodput`` imports
``marcum_q1`` and ``quad_checked`` by name, so patching ``specfun`` alone
would miss those calls.  A method is replaced on its class, which every
instance and every re-export share.  A target missing from the tree under
test is recorded as absent and reports zero calls.

Self time is a span's duration minus the time of the wrapped spans it
called.  Spans live in memory and are summarized when the job ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

TARGETS = (
    "cli.emit",
    "montecarlo.run_perfect",
    "montecarlo.run_imperfect_grid",
    "analytic.average_sum_rate",
    "analytic.minimum_best_m",
    "analytic.selection_coefficients",
    "analytic.feedback_set_pmf",
    "analytic.i1",
    "analytic.coverage_prob",
    "analytic.ScheduledCqiMixture.expect",
    "analytic.ScheduledCqiMixture.expect_log_rate",
    "analytic.ScheduledCqiMixture.sf",
    "analytic.ScheduledCqiMixture.pdf",
    "analytic.ReportedCqiLaw.sf",
    "analytic.ReportedCqiLaw.pdf",
    "goodput.fixed_rate_metrics",
    "goodput.variable_rate_metrics",
    "goodput.i2",
    "goodput.i4",
    "goodput.i3_quadrature",
    "goodput.i3_jensen",
    "goodput.optimize_beta0",
    "goodput.optimize_beta1",
    "specfun.marcum_q1",
    "specfun.exp_integral_e1_scaled",
    "specfun.gauss_2f1",
    "specfun.bessel_i0e",
    "_quad.quad_checked",
)
# Targets whose distinct arguments are counted (calls / distinct = repeat ratio).
REPEAT_TARGETS = ("analytic.minimum_best_m", "analytic.average_sum_rate")
# Errors counted as they leave a wrapped call, by class name so that the
# classes may move between modules.
ERROR_CLASSES = {"ConvergenceError": "specfun.errors", "QuadratureError": "quad.errors"}
MC_PREFIX = "montecarlo."


def metric_prefix(target: str) -> str:
    """Metric names start with a letter: ``_quad.x`` is reported as ``quad.x``."""
    return target.lstrip("_")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active", "args")

    def __init__(self, count_args: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0
        self.args = set() if count_args else None


class Tracer:
    """Install with ``install()``; read results with ``summary()``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats = {t: _Stat(t in REPEAT_TARGETS) for t in self.targets}
        self.errors = dict.fromkeys(ERROR_CLASSES.values(), 0)
        self.absent: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self.mc_peak_bytes = 0
        self._stack: list[list[float]] = []
        self._mc_depth = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hetfb" or name.startswith("hetfb."))
        }
        for target in self.targets:
            mod_name, *path = target.split(".")
            owner = modules.get(f"hetfb.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = None if owner is None else vars(owner).get(path[-1])
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                self.sites[target] = [f"{owner.__module__}.{owner.__qualname__}"]
                continue
            self.sites[target] = []
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.sites[target].append(f"{name}.{attr}")

    def _wrap(self, target: str, fn):
        stat = self.stats[target]
        stack = self._stack
        clock = time.perf_counter
        is_mc = target.startswith(MC_PREFIX)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stat.args is not None:
                stat.args.add(repr((args, sorted(kwargs.items()))))
            if is_mc:
                self._mc_enter()
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_time += dt - frame[0]
                if stat.active == 0:
                    stat.total += dt
                if stack:
                    stack[-1][0] += dt
                if is_mc:
                    self._mc_exit()

        wrapper.__perfbench_target__ = target
        return wrapper

    def _count_error(self, exc: Exception) -> None:
        metric = ERROR_CLASSES.get(type(exc).__name__)
        if metric is not None and not getattr(exc, "_perfbench_counted", False):
            self.errors[metric] += 1
            exc._perfbench_counted = True

    def _mc_enter(self) -> None:
        if self._mc_depth == 0:
            tracemalloc.start()
        self._mc_depth += 1

    def _mc_exit(self) -> None:
        self._mc_depth -= 1
        if self._mc_depth == 0:
            self.mc_peak_bytes = max(self.mc_peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        layers = {}
        for target, st in self.stats.items():
            p = metric_prefix(target)
            layers[f"{p}.calls"] = st.calls
            layers[f"{p}.s"] = st.total
            layers[f"{p}.self_s"] = st.self_time
        for target in REPEAT_TARGETS:
            st = self.stats[target]
            layers[f"{metric_prefix(target)}.repeat_ratio"] = (
                st.calls / len(st.args) if st.args else 0.0
            )
        layers.update(self.errors)
        layers["montecarlo.peak_alloc_mib"] = self.mc_peak_bytes / 2**20
        return {"layers": layers, "absent": list(self.absent), "sites": self.sites}
