"""Finite-population sampling designs, count distributions, estimators, and
two independent verification engines (exhaustive enumeration, seeded Monte
Carlo) for their closed-form moments."""

from .population import (
    Adjacency,
    ClassifiedPopulation,
    NetworkPartition,
    Population,
    SizeWeights,
    compute_networks,
    extend_pps,
    flatten_networks,
)
from .distributions import (
    CountVector,
    fpc,
    multinomial_cov,
    multinomial_pmf,
    mvhyper_cov,
    mvhyper_pmf,
    sample_counts,
)
from .designs import (
    AcsSample,
    DrawSequence,
    GroupedSample,
    acs,
    pps_wor_extended,
    pps_wr,
    random_group_split,
    srs,
)
from .estimators import (
    acs_mean,
    acs_variance,
    estimates,
    hansen_hurvitz,
    hh_variance,
    random_group_variance_estimate,
    rg_pair_expectation,
    sample_mean,
    srs_mean_variance,
)
from .verify import (
    DesignConfig,
    EnumerationLimitError,
    Instance,
    Moments,
    MomentReport,
    RelativeEfficiencyReport,
    Tolerances,
    count_moments,
    enumerate_count_distribution,
    enumerate_moments,
    relative_efficiency,
    run_monte_carlo,
    theoretical_moments,
)

__version__ = "0.1.0"
