"""Ring-resonator line-shape relations.

Everything here treats one resonator at a time: the unit-peak Airy resonance
profile, its finesse / free-spectral-range / linewidth relations, and the
location of the joint resonance indices for a doubly resonant signal/idler
pair pumped at a fixed frequency.

Frequencies are plain cycles-per-second (Hz) throughout; angular frequencies
never appear in the public surface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

C_VACUUM = 299_792_458.0  # m/s

# Below this finesse the resonance peaks are too broad for a sum of
# independent Lorentzians to stand in for the exact Airy profile.
LORENTZIAN_FINESSE_FLOOR = 10.0


class LowFinesseWarning(UserWarning):
    """Resonance peaks too broad for the Lorentzian-sum treatment."""


@dataclass(frozen=True)
class CavityParams:
    """Free spectral range and finesse of one resonator.

    The full width at half maximum is derived, ``fwhm = fsr / finesse``, so
    ``fwhm * finesse == fsr`` holds by construction; the linewidth must be
    finite and positive.  Construction emits a :class:`LowFinesseWarning`
    below finesse 10; exact Airy evaluation stays valid there, but the
    per-peak Lorentzian treatment does not.
    """

    fsr: float
    finesse: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fsr < math.inf:
            raise ValueError(f"fsr={self.fsr}: must be positive and finite")
        if self.finesse <= 0.0:
            raise ValueError(f"finesse={self.finesse}: must be positive")
        if not 0.0 < self.fwhm < math.inf:
            raise ValueError(
                f"finesse={self.finesse}: gives the linewidth fsr / finesse = "
                f"{self.fwhm!r} Hz; it must be positive and finite"
            )
        if not self.lorentzian_valid:
            warnings.warn(
                f"finesse={self.finesse:g} is below {LORENTZIAN_FINESSE_FLOOR:g}: "
                "Lorentzian-sum treatment of the resonance profile is not trusted",
                LowFinesseWarning,
                stacklevel=3,  # past the dataclass-generated __init__ to the caller
            )

    @property
    def fwhm(self) -> float:
        return self.fsr / self.finesse

    @property
    def lorentzian_valid(self) -> bool:
        return self.finesse >= LORENTZIAN_FINESSE_FLOOR


def airy_normalized(nu, cav: CavityParams):
    """Unit-peak periodic resonance profile.

    Evaluates ``1 / (1 + (2 finesse / pi)^2 sin^2(pi nu / fsr))``: 1 exactly on
    resonance (``nu`` an integer multiple of the FSR) and strictly positive
    everywhere.  The phase is folded to the nearest resonance before the sine
    so periodicity survives large ``nu / fsr``.

    Accepts scalars or arrays of ``nu``.
    """
    x = np.asarray(nu, dtype=float) / cav.fsr
    s = np.sin(np.pi * (x - np.round(x)))
    out = 1.0 / (1.0 + (2.0 * cav.finesse / np.pi) ** 2 * s * s)
    return float(out) if np.ndim(nu) == 0 else out


def resonance_indices(
    nu_s0: float, nu_p0: float, sig: CavityParams, idl: CavityParams
) -> tuple[int, int]:
    """Resonance orders (K_S, K_I) forming the joint peak nearest a seed.

    K_S rounds the signal seed onto the signal grid; K_I is then chosen to
    minimise the residual K_S * FSR_S + K_I * FSR_I - nu_p0, which the rounding
    bounds by half an idler FSR.  Half-grid ties round to even for
    deterministic output.
    """
    if not nu_s0 < nu_p0:
        raise ValueError(f"signal seed {nu_s0} must lie below the pump {nu_p0}")
    k_s = round(nu_s0 / sig.fsr)
    k_i = round((nu_p0 - k_s * sig.fsr) / idl.fsr)
    return int(k_s), int(k_i)


def find_main_cluster(
    nu_s_seed: float, nu_p0: float, sig: CavityParams, idl: CavityParams
) -> tuple[int, int]:
    """Locate the best-matched joint resonance near an approximate seed.

    Searches the signal orders within one full cluster period around the seed
    for the (K_S, K_I) pair minimising |K_S FSR_S + K_I FSR_I - nu_p0|; ties
    resolve to the lower K_S.  With K_I the nearest idler order, that residual
    is the remainder of nu_p0 - K_S (FSR_S - FSR_I) centred on zero modulo
    FSR_I: a triangle wave in K_S whose zeros lie at
    K_S = (nu_p0 - j FSR_I) / (FSR_S - FSR_I) for integer j.  Its minimum over
    the window lies beside one of the zeros inside it or just beyond its ends,
    so only those orders are evaluated, or the whole window where it holds
    fewer orders than zeros.  The seed only needs to be accurate to a
    fraction of the cluster spacing.
    """
    base_s, base_i = resonance_indices(nu_s_seed, nu_p0, sig, idl)
    dfsr = sig.fsr - idl.fsr
    if dfsr == 0.0:
        # equal FSRs: every signal order is an equally good cluster centre
        return base_s, base_i
    halfwidth = math.ceil(0.5 * idl.fsr / abs(dfsr)) + 2
    lo, hi = base_s - halfwidth, base_s + halfwidth
    # zero j of the triangle wave sits where (nu_p0 - m dfsr) / FSR_I = j;
    # rounding the ends outward takes in the nearest zero beyond each end
    u_lo, u_hi = sorted(((nu_p0 - lo * dfsr) / idl.fsr, (nu_p0 - hi * dfsr) / idl.fsr))
    zeros = range(math.floor(u_lo), math.ceil(u_hi) + 1)
    if len(zeros) > hi - lo:
        candidates = set(range(lo, hi + 1))
    else:
        candidates = set()
        for j in zeros:
            # two orders of slack on each side absorb rounding in the zero
            zero = math.floor((nu_p0 - j * idl.fsr) / dfsr)
            candidates.update(m for m in range(zero - 2, zero + 4) if lo <= m <= hi)

    def residual(m_s: int) -> tuple[float, int]:
        m_i = round((nu_p0 - m_s * sig.fsr) / idl.fsr)
        return abs(m_s * sig.fsr + m_i * idl.fsr - nu_p0), m_i

    # sorted first, so min keeps the lower K_S on ties
    best = min(sorted(candidates), key=lambda m: residual(m)[0])
    return best, residual(best)[1]


def airy_lorentzian_sum(nu, cav: CavityParams, m_lo: int, m_hi: int):
    """Sum of unit-peak Lorentzians standing in for the Airy profile.

    Adds ``1 / (1 + (4 / fwhm^2)(nu - m fsr)^2)`` for resonance orders
    ``m_lo..m_hi`` inclusive.  Below the validity floor of the approximation
    the cavity warned at construction.
    """
    if m_lo > m_hi:
        raise ValueError(f"empty resonance window: m_lo={m_lo} > m_hi={m_hi}")
    x = np.asarray(nu, dtype=float)
    inv_hwhm_sq = 4.0 / cav.fwhm**2
    out = np.zeros_like(x)
    term = np.empty_like(x)
    for m in range(m_lo, m_hi + 1):
        # in place, so that one buffer serves every order
        np.subtract(x, m * cav.fsr, out=term)
        term *= term
        term *= inv_hwhm_sq
        term += 1.0
        out += np.divide(1.0, term, out=term)
    return float(out) if np.ndim(nu) == 0 else out
