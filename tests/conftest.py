import pytest

from hetfb.channel import Cluster, ImpairmentParams, SystemConfig

# Orders of the moment integrals on both sides of 20, where a float sum of
# their alternating mixtures loses the most digits to the binomial weights.
MOMENT_ORDERS = (1, 2, 3, 8, 12, 16, 20, 21, 30, 40)


@pytest.fixture
def imp_default() -> ImpairmentParams:
    return ImpairmentParams(est_error_var=0.01, delay_corr=0.98)


@pytest.fixture
def small_system() -> SystemConfig:
    # two clusters, four blocks: small enough for exact-coefficient checks
    return SystemConfig(
        num_rbs=4, clusters=(Cluster(1, 2), Cluster(2, 2)), best_m=1, snr=10.0
    )


def two_cluster_system(num_users: int, best_m: int, snr: float = 10.0) -> SystemConfig:
    half = num_users // 2
    return SystemConfig(
        num_rbs=64,
        clusters=(Cluster(1, half), Cluster(4, num_users - half)),
        best_m=best_m,
        snr=snr,
    )
