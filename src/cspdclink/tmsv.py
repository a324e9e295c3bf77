"""Two-mode squeezed vacuum statistics.

Per-mode squeezing parameters scale with the normalisation-constant products,
so fixing the mean pair number of the reference mode fixes every mode:
``mu_k = sinh^2(ratio_k * arcsinh(sqrt(mu0)))``.  The pair-number distribution
of each mode is thermal.
"""

from __future__ import annotations

import numpy as np


def mean_photon_number(mu0, ratio):
    """Mean pair number sinh^2(ratio * arcsinh(sqrt(mu0))).

    Equals ``mu0`` at ratio 1 and approaches ``ratio^2 * mu0`` as mu0 -> 0.
    Broadcasts over arrays of ratios.
    """
    mu0_arr = np.asarray(mu0, dtype=float)
    ratio_arr = np.asarray(ratio, dtype=float)
    if np.any(mu0_arr < 0.0):
        raise ValueError("mu0 must be non-negative")
    if np.any(ratio_arr <= 0.0):
        raise ValueError("ratio must be positive")
    out = np.sinh(ratio_arr * np.arcsinh(np.sqrt(mu0_arr))) ** 2
    return float(out) if out.ndim == 0 else out


def thermal_distribution(mu, n):
    """Thermal pair-number probability mu^n / (mu + 1)^(n + 1)."""
    mu_arr = np.asarray(mu, dtype=float)
    n_arr = np.asarray(n)
    if np.any(mu_arr < 0.0):
        raise ValueError("mu must be non-negative")
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.integer):
        raise ValueError("n must be a non-negative integer")
    out = mu_arr**n_arr / (mu_arr + 1.0) ** (n_arr + 1)
    return float(out) if out.ndim == 0 else out
