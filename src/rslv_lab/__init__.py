"""Numerical laboratory for regime-switching local-volatility models.

Subpackages cover the coefficient fields and domain types (regime_model),
the coercivity analysis (condition_c), the Galerkin sub-density solvers
(fokker_planck), volatility surfaces (dupire), the interacting-particle
simulator (particles) and statistical verification helpers (stats).
"""

from .regime_model import (
    RegimeModel, IntensityTable, HorizonConfig, Measure, a_eps_batch, ratio_r_eps_batch,
)
from .condition_c import (
    CoercivityCertificate, D3Report, GridSearchReport,
    CertificateError, RecoveryFailure,
    gamma_k_submatrix, satisfies_condition_c, criterion_d3,
    criterion_identity, criterion_diag, grid_search_diag,
    coercivity_certificate, recover_alpha_from_point,
)
from .fokker_planck import (
    SpatialGrid, PDSConfig, GridSolution, NumericalError,
    solve_fbm, solve_jump_fbm, solve_rslv, solve_lv,
)
from .dupire import VolSurface, ArbitrageError, dupire_from_calls
from .particles import (
    SimPlan, SimResult, cond_expect_f2, init_ensemble, simulate, price_calls,
)
from .stats import (
    TestReport, normal_cdf, bs_call, ks_statistic, l1_hist_distance, moments, mc_stderr,
)

__version__ = "0.1.0"
