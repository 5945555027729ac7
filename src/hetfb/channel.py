"""Channel models, their configuration and the feedback-imperfection model.

Two channel models are supported:

* a general correlated model: each user's frequency response is the DFT of
  L i.i.d. complex Gaussian taps weighted by a normalized power delay
  profile, giving correlated subcarrier gains;
* a multi-cluster subband fading model: users are grouped into clusters by
  coherence bandwidth, the response is flat within a subband of
  ``subband_size`` resource blocks and i.i.d. across subbands and users.

Imperfections (estimation error plus feedback delay) follow a first-order
Gauss-Markov evolution: the scheduler sees an outdated estimate ``h_hat``
while transmission happens over ``h_tilde = alpha*(h_hat + w) +
sqrt(1-alpha^2)*eps``.  The draws themselves live in ``montecarlo``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cluster",
    "SystemConfig",
    "CorrelatedChannelConfig",
    "ImpairmentParams",
    "pdp_exponential",
    "cluster_feedback_quota",
]

_PDP_NORM_TOL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """One group of users sharing a coherence bandwidth."""

    subband_size: int  # resource blocks per subband (eta)
    num_users: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.subband_size):
            raise ValueError(f"subband_size must be a power of two, got {self.subband_size}")
        if self.num_users < 0:
            raise ValueError("num_users must be nonnegative")


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one multi-cluster downlink experiment.

    ``best_m`` is the base feedback amount of the coarsest cluster; finer
    clusters scale it by ``eta_max / subband_size`` so that every cluster
    reports the same fraction of its subbands.  ``snr`` is linear.
    """

    num_rbs: int
    clusters: tuple[Cluster, ...]
    best_m: int
    snr: float

    def __post_init__(self) -> None:
        if self.num_rbs < 1:
            raise ValueError("num_rbs must be >= 1")
        if not self.clusters:
            raise ValueError("at least one cluster is required")
        object.__setattr__(self, "clusters", tuple(self.clusters))
        sizes = [c.subband_size for c in self.clusters]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("cluster subband sizes must be strictly increasing")
        if sizes[-1] > self.num_rbs or self.num_rbs % sizes[-1] != 0:
            raise ValueError("the largest subband size must divide num_rbs")
        if any(self.num_rbs % s != 0 for s in sizes):
            raise ValueError("every subband size must divide num_rbs")
        if self.num_users < 1:
            raise ValueError("total number of users must be >= 1")
        if not 1 <= self.best_m <= self.m_full:
            raise ValueError(
                f"best_m must lie in [1, {self.m_full}] for this configuration"
            )
        if not 0.0 < self.snr < math.inf:
            raise ValueError("snr must be positive and finite (linear scale)")

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_users(self) -> int:
        return sum(c.num_users for c in self.clusters)

    @property
    def eta_max(self) -> int:
        return self.clusters[-1].subband_size

    @property
    def m_full(self) -> int:
        """Feedback amount at which every subband of every user is reported."""
        return self.num_rbs // self.eta_max

    @property
    def report_prob(self) -> float:
        """Probability that a given user reports a given subband."""
        return self.eta_max * self.best_m / self.num_rbs

    def num_subbands(self, g: int) -> int:
        return self.num_rbs // self.clusters[g].subband_size


@dataclass(frozen=True)
class CorrelatedChannelConfig:
    """Tap-domain description of the correlated subcarrier model."""

    num_subcarriers: int
    subcarriers_per_rb: int
    pdp: tuple[float, ...]  # tap powers sigma_l^2, normalized to 1

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.num_subcarriers):
            raise ValueError("num_subcarriers must be a power of two")
        if self.subcarriers_per_rb < 1 or self.num_subcarriers % self.subcarriers_per_rb:
            raise ValueError("subcarriers_per_rb must divide num_subcarriers")
        object.__setattr__(self, "pdp", tuple(float(p) for p in self.pdp))
        if len(self.pdp) < 1:
            raise ValueError("at least one tap is required")
        if abs(sum(self.pdp) - 1.0) > _PDP_NORM_TOL:
            raise ValueError("tap powers must sum to 1")

    @property
    def num_taps(self) -> int:
        return len(self.pdp)

    @property
    def num_rbs(self) -> int:
        return self.num_subcarriers // self.subcarriers_per_rb


@dataclass(frozen=True)
class ImpairmentParams:
    """Estimation-error variance and delay correlation of the feedback."""

    est_error_var: float  # sigma_w^2
    delay_corr: float  # alpha

    def __post_init__(self) -> None:
        if not 0.0 <= self.est_error_var < 1.0:
            raise ValueError("est_error_var must lie in [0, 1)")
        if not 0.0 <= self.delay_corr <= 1.0:
            raise ValueError("delay_corr must lie in [0, 1]")
        if self._denom <= 0.0:
            raise ValueError(
                "degenerate impairments (delay_corr=1 with est_error_var=0); "
                "use the perfect-feedback path instead"
            )

    @property
    def _denom(self) -> float:
        a = self.delay_corr
        return a * a * self.est_error_var + 1.0 - a * a

    @property
    def alpha_w(self) -> float:
        """Composite impairment scale; recomputed on access, never cached."""
        return math.sqrt(2.0 / self._denom)

    @property
    def estimate_var(self) -> float:
        """Variance of the channel estimate h_hat (so h keeps unit variance)."""
        return 1.0 - self.est_error_var


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def pdp_exponential(num_taps: int, decay: float) -> np.ndarray:
    """Exponentially decaying tap powers, normalized to unit total power."""
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    if not 0.0 < decay < math.inf:
        raise ValueError("decay must be positive and finite")
    l = np.arange(num_taps)
    scale = -math.expm1(-1.0 / decay) / (-math.expm1(-num_taps / decay))
    return scale * np.exp(-l / decay)


def cluster_feedback_quota(sys: SystemConfig, g: int) -> int:
    """Number of CQI values a user in cluster ``g`` reports."""
    return (sys.eta_max // sys.clusters[g].subband_size) * sys.best_m


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = rng.standard_normal(shape + (2,))
    return math.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])


def _dft_phases(cfg: CorrelatedChannelConfig) -> np.ndarray:
    l = np.arange(cfg.num_taps)[:, None]
    n = np.arange(cfg.num_subcarriers)[None, :]
    return np.exp(-2j * math.pi * l * n / cfg.num_subcarriers)


# Multiply-adds of one complex matrix product from which OpenBLAS runs it on
# every core.  Products this small gain about a tenth in wall time for twice
# the CPU time that way, and they fight the Monte Carlo chunk threads.
_BLAS_THREADED_MACS = 2**16


def _correlated_gain_map(cfg: CorrelatedChannelConfig):
    """The map of i.i.d. unit taps (..., users, L) to subcarrier gains (..., users, Nc).

    Its tap scaling and DFT phases are built once, for every call of the
    map.  Users are multiplied in groups small enough that BLAS runs each
    product on the calling thread; every gain is one dot product over the
    taps either way, so the grouping does not change a bit.
    """
    sigma = np.sqrt(np.asarray(cfg.pdp))
    phases = _dft_phases(cfg)
    group = max(1, (_BLAS_THREADED_MACS - 1) // phases.size)

    def gains(taps: np.ndarray) -> np.ndarray:
        scaled = taps * sigma
        out = np.empty(scaled.shape[:-1] + phases.shape[1:], dtype=complex)
        for lo in range(0, scaled.shape[-2], group):
            np.matmul(scaled[..., lo : lo + group, :], phases, out=out[..., lo : lo + group, :])
        return out

    return gains
