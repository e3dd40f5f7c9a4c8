"""Heterogeneous autoregressive gamma realized-volatility models with leverage.

Estimation, closed-form MGF recursions under the physical and risk-neutral
measures, exact path simulation, and COS option pricing for the HARG,
P-LHARG, and ZM-LHARG model variants.
"""

from .errors import (
    CalibrationInfeasibleError,
    InversionDomainError,
    LhargError,
    LikelihoodDomainError,
    MappingSingularError,
    NumericalError,
    RecursionDomainError,
    ValidationError,
)
from .model import (
    MarketState,
    ModelParams,
    N_LAGS,
    ParabolicForm,
    expand_weights,
    filter_innovations,
    leverage,
    parabolic_form,
    state_from_series,
    stationarity_margin,
    stationary_mean_rv,
    stationary_state,
    theta_noncentrality,
)
from .mgf import Cumulants, cumulants, mgf_p, mgf_q
from .simulate import PathSet, simulate_paths, simulate_y_snapshots

__version__ = "0.1.0"
