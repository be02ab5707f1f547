"""Numerical laboratory for regime-switching local-volatility models.

Subpackages cover the coefficient fields and domain types (regime_model),
the coercivity analysis (condition_c), the Galerkin sub-density solvers
(fokker_planck), volatility surfaces (dupire), the interacting-particle
simulator (particles) and statistical verification helpers (stats).
"""

__version__ = "0.1.0"
