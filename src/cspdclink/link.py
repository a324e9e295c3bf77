"""Elementary-link heralding and fidelity model.

Two symmetric nodes each hold a pair source; idlers meet at a midpoint
station and a single detector click heralds entanglement between the stored
signal photons.  With loss folded into mu' = eta_att eta_det mu, one mode
heralds with probability 2 mu' / (mu' + 1)^2 and yields fidelity
(mu' + 1)^2 / (mu + 1)^3.  Multiplexed modes run independent trials, so the
aggregate heralding probability is 1 - prod_k (1 - p_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect

from . import tmsv
from .spectral import ModeTable

DEFAULT_ATTENUATION_DB_PER_KM = 0.2


def attenuation(l_el_km: float, alpha_att_db_per_km: float) -> float:
    """One-arm fibre transmission 10^(-alpha (L/2) / 10) to the midpoint."""
    if l_el_km < 0.0:
        raise ValueError(f"l_el_km={l_el_km}: must be non-negative")
    if alpha_att_db_per_km < 0.0:
        raise ValueError(f"alpha_att_db_per_km={alpha_att_db_per_km}: must be non-negative")
    return 10.0 ** (-alpha_att_db_per_km * (l_el_km / 2.0) / 10.0)


@dataclass(frozen=True)
class LinkParams:
    """Symmetric elementary link: both halves share loss and efficiency.

    Lengths stay in km because the attenuation coefficient is per km.
    """

    l_el_km: float
    eta_det: float
    mu0: float
    alpha_att_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM

    def __post_init__(self) -> None:
        if self.l_el_km < 0.0:
            raise ValueError(f"l_el_km={self.l_el_km}: must be non-negative")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError(f"eta_det={self.eta_det}: must lie in (0, 1]")
        if self.mu0 < 0.0:
            raise ValueError(f"mu0={self.mu0}: must be non-negative")
        if self.alpha_att_db_per_km < 0.0:
            raise ValueError(
                f"alpha_att_db_per_km={self.alpha_att_db_per_km}: must be non-negative"
            )

    @property
    def eta_att(self) -> float:
        return attenuation(self.l_el_km, self.alpha_att_db_per_km)


@dataclass(frozen=True)
class LinkReport:
    """Per-mode and aggregate link figures for one (L, mu0) scenario."""

    params: LinkParams
    k: np.ndarray
    mu_k: np.ndarray
    p_single_k: np.ndarray
    f_k: np.ndarray
    p_multi: float
    mu_multi: float
    f_min: float

    @property
    def center_index(self) -> int:
        return self.k.size // 2

    @property
    def p_single_center(self) -> float:
        return float(self.p_single_k[self.center_index])

    @property
    def f_center(self) -> float:
        return float(self.f_k[self.center_index])


def _check_efficiency(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name}={value}: must lie in (0, 1]")


def heralding_probability_single(mu, eta_att: float, eta_det: float):
    """Probability that exactly one midpoint detector clicks in one trial.

    2 mu' / (mu' + 1)^2 with mu' = eta_att eta_det mu; never exceeds 1/2.
    """
    _check_efficiency("eta_att", eta_att)
    _check_efficiency("eta_det", eta_det)
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0.0):
        raise ValueError("mu must be non-negative")
    mu_p = eta_att * eta_det * mu_arr
    out = 2.0 * mu_p / (mu_p + 1.0) ** 2
    return float(out) if out.ndim == 0 else out


def fidelity_single(mu, eta_att: float, eta_det: float):
    """Overlap of the heralded two-node state with the one-excitation target.

    (mu' + 1)^2 / (mu + 1)^3; equals 1 at mu = 0 and decreases in mu.
    """
    _check_efficiency("eta_att", eta_att)
    _check_efficiency("eta_det", eta_det)
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0.0):
        raise ValueError("mu must be non-negative")
    mu_p = eta_att * eta_det * mu_arr
    out = (mu_p + 1.0) ** 2 / (mu_arr + 1.0) ** 3
    return float(out) if out.ndim == 0 else out


def evaluate_link(modes: ModeTable, params: LinkParams) -> LinkReport:
    """Per-mode heralding figures and their multiplexed aggregates.

    The survival product 1 - p_multi accumulates in log space, so hundreds of
    modes lose no precision.
    """
    mu_k = np.asarray(tmsv.mean_photon_number(params.mu0, modes.ratio))
    eta_att = params.eta_att
    p_k = np.asarray(heralding_probability_single(mu_k, eta_att, params.eta_det))
    f_k = np.asarray(fidelity_single(mu_k, eta_att, params.eta_det))
    p_multi = -math.expm1(float(np.sum(np.log1p(-p_k))))
    return LinkReport(
        params=params,
        k=modes.k.copy(),
        mu_k=mu_k,
        p_single_k=p_k,
        f_k=f_k,
        p_multi=p_multi,
        mu_multi=float(np.sum(mu_k)),
        f_min=float(np.min(f_k)),
    )


def solve_mu0_for_fidelity(
    f_target: float,
    l_el_km: float,
    eta_det: float,
    alpha_att_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM,
    mu_max: float = 1.0,
) -> float:
    """Reference mean photon number reaching a centre-mode fidelity target.

    Bisection on the strictly decreasing mu0 -> fidelity map over
    [0, mu_max]; the returned mu0 reproduces the target to well within 1e-6
    absolute in fidelity.
    """
    eta_att = attenuation(l_el_km, alpha_att_db_per_km)
    f_floor = fidelity_single(mu_max, eta_att, eta_det)
    if not f_floor < f_target < 1.0:
        raise ValueError(
            f"fidelity target {f_target} outside the achievable range "
            f"({f_floor:.6f}, 1.0) for mu0 in [0, {mu_max}]"
        )
    mu0 = bisect(
        lambda mu: fidelity_single(mu, eta_att, eta_det) - f_target,
        0.0,
        mu_max,
        xtol=1e-12,
    )
    return float(mu0)


def improvement_ratios(report: LinkReport) -> tuple[float, float]:
    """Multiplexed-over-single ratios (mu_multi / mu0, p_multi / p_single_0)."""
    p0 = report.p_single_center
    if p0 == 0.0:
        raise ValueError(
            "improvement ratios undefined: reference mode never heralds (mu0 = 0)"
        )
    return report.mu_multi / report.params.mu0, report.p_multi / p0
