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
import sys
from dataclasses import dataclass

import numpy as np

from . import tmsv
from .spectral import ModeTable

DEFAULT_ATTENUATION_DB_PER_KM = 0.2

# The solve stops once a Newton step or the bracket width falls to
# _SOLVE_RTOL = 2^-50 relative.  The root is at least (1 - F) / 3 > 2^-55 for
# any float F < 1, so from [0, mu_max < 2^1024] bisection alone gets there
# within 1024 + 55 + 50 = 1129 halvings; the cap sits above that count.
_SOLVE_RTOL = 4.0 * sys.float_info.epsilon
_SOLVE_MAX_ITERATIONS = 1200


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


def _checked_loaded_mean(mu, eta_att: float, eta_det: float):
    """(mu, mu') as float arrays after checking the efficiencies and mu >= 0."""
    _check_efficiency("eta_att", eta_att)
    _check_efficiency("eta_det", eta_det)
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0.0):
        raise ValueError("mu must be non-negative")
    return mu_arr, eta_att * eta_det * mu_arr


def _heralding(mu_p):
    return 2.0 * mu_p / (mu_p + 1.0) ** 2


def _fidelity(mu, mu_p):
    return (mu_p + 1.0) ** 2 / (mu + 1.0) ** 3


def heralding_probability_single(mu, eta_att: float, eta_det: float):
    """Probability that exactly one midpoint detector clicks in one trial.

    2 mu' / (mu' + 1)^2 with mu' = eta_att eta_det mu; never exceeds 1/2.
    """
    _, mu_p = _checked_loaded_mean(mu, eta_att, eta_det)
    out = _heralding(mu_p)
    return float(out) if out.ndim == 0 else out


def fidelity_single(mu, eta_att: float, eta_det: float):
    """Overlap of the heralded two-node state with the one-excitation target.

    (mu' + 1)^2 / (mu + 1)^3; equals 1 at mu = 0 and decreases in mu.
    """
    mu_arr, mu_p = _checked_loaded_mean(mu, eta_att, eta_det)
    out = _fidelity(mu_arr, mu_p)
    return float(out) if out.ndim == 0 else out


def evaluate_link(modes: ModeTable, params: LinkParams) -> LinkReport:
    """Per-mode heralding figures and their multiplexed aggregates.

    ``LinkParams`` has checked eta_det and mu0, and mu_k >= 0 follows from
    mu0 >= 0, so only the computed eta_att is checked here.  The survival
    product 1 - p_multi accumulates in log space, so hundreds of modes lose
    no precision.
    """
    eta_att = params.eta_att
    _check_efficiency("eta_att", eta_att)
    mu_k = np.asarray(tmsv.mean_photon_number(params.mu0, modes.ratio))
    mu_p = eta_att * params.eta_det * mu_k
    p_k = _heralding(mu_p)
    f_k = _fidelity(mu_k, mu_p)
    return LinkReport(
        params=params,
        k=modes.k.copy(),
        mu_k=mu_k,
        p_single_k=p_k,
        f_k=f_k,
        p_multi=-math.expm1(float(np.log1p(-p_k).sum())),
        mu_multi=float(mu_k.sum()),
        f_min=float(f_k.min()),
    )


def solve_mu0_for_fidelity(
    f_target: float,
    l_el_km: float,
    eta_det: float,
    alpha_att_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM,
    mu_max: float = 1.0,
) -> float:
    """Reference mean photon number reaching a centre-mode fidelity target.

    With eta = eta_att eta_det, F(mu) = target has one root in (0, mu_max):
    the root of the cubic (eta mu + 1)^2 - F (mu + 1)^3, expanded as
    c0 + mu (c1 + mu (c2 + mu c3)).  Its constant term 1 - F is exact, so
    the root keeps full relative accuracy as F -> 1.  Newton steps start at
    the linearised root c0 / (3 - 2 eta) inside a bracket kept from the sign
    of the cubic; a step that leaves the bracket is replaced by bisection.
    The result is within a few ulp of the exact root for the float eta, and
    reproduces the target to about 1e-15.  Raises ``ValueError`` for an
    unreachable target and ``RuntimeError`` if the iteration cap is reached.
    """
    eta_att = attenuation(l_el_km, alpha_att_db_per_km)
    _check_efficiency("eta_att", eta_att)
    _check_efficiency("eta_det", eta_det)
    if not 0.0 < mu_max < math.inf:
        raise ValueError(f"mu_max={mu_max}: must be positive and finite")
    eta = eta_att * eta_det
    # F(mu_max) as r^2 / (mu_max + 1): no intermediate overflows for any float mu_max
    r = (eta * mu_max + 1.0) / (mu_max + 1.0)
    f_floor = r * r / (mu_max + 1.0)
    if not f_floor < f_target < 1.0:
        raise ValueError(
            f"fidelity target {f_target} outside the achievable range "
            f"({f_floor:.6f}, 1.0) for mu0 in [0, {mu_max}]"
        )
    c0 = 1.0 - f_target
    c1 = 2.0 * eta - 3.0 * f_target
    c2 = eta * eta - 3.0 * f_target
    c3 = -f_target
    lo, hi = 0.0, mu_max
    mu = c0 / (3.0 - 2.0 * eta)
    if not mu < hi:
        mu = 0.5 * hi
    for _ in range(_SOLVE_MAX_ITERATIONS):
        g = c0 + mu * (c1 + mu * (c2 + mu * c3))
        if g > 0.0:
            lo = mu
        elif g < 0.0:
            hi = mu
        else:
            return mu
        step = g / (c1 + mu * (2.0 * c2 + 3.0 * c3 * mu))
        if abs(step) <= _SOLVE_RTOL * mu:
            return mu - step
        mu -= step
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
        if hi - lo <= _SOLVE_RTOL * hi:
            return mu
    raise RuntimeError(
        f"fidelity solve for target {f_target} at L={l_el_km} km did not converge "
        f"in {_SOLVE_MAX_ITERATIONS} iterations"
    )


def improvement_ratios(report: LinkReport) -> tuple[float, float]:
    """Multiplexed-over-single ratios (mu_multi / mu0, p_multi / p_single_0)."""
    mu0, p0 = report.params.mu0, report.p_single_center
    if mu0 == 0.0:
        raise ValueError(
            "improvement ratios undefined: reference mode never heralds (mu0 = 0)"
        )
    if p0 == 0.0:
        raise ValueError(
            f"improvement ratios undefined: the reference-mode heralding probability "
            f"at mu0 = {mu0!r} rounds to 0"
        )
    return report.mu_multi / mu0, report.p_multi / p0
