"""Ring-resonator line-shape relations.

Everything here treats one resonator at a time: the unit-peak Airy resonance
profile, its finesse / free-spectral-range / linewidth relations, the peak
enhancement factor of the buildup field, and the location of the joint
resonance indices for a doubly resonant signal/idler pair pumped at a fixed
frequency.

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
class MirrorSet:
    """Mirror reflectivities and loop geometry of one ring resonator.

    ``loss`` is the round-trip intensity survival factor (1 = lossless),
    ``l_opt`` the round-trip optical path length and ``l_init`` the optical
    path from the generation point to the output mirror, both in metres.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    loss: float = 1.0
    l_opt: float = 1.0
    l_init: float = 0.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3", "r4"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value}: reflectivity must lie in [0, 1]")
        if not 0.0 < self.loss <= 1.0:
            raise ValueError(f"loss={self.loss}: round-trip survival must lie in (0, 1]")
        if self.l_opt <= 0.0:
            raise ValueError(f"l_opt={self.l_opt}: round-trip path must be positive")
        if not 0.0 <= self.l_init <= self.l_opt:
            raise ValueError(
                f"l_init={self.l_init}: must lie in [0, l_opt={self.l_opt}]"
            )
        if self.g >= 1.0:
            raise ValueError(
                "g=1: lossless closed cavity has no steady state (divergent buildup)"
            )

    @property
    def g(self) -> float:
        """Round-trip amplitude survival sqrt(R1 R2 R3 R4 G)."""
        return math.sqrt(self.r1 * self.r2 * self.r3 * self.r4 * self.loss)

    @property
    def fsr(self) -> float:
        """Resonance spacing c / l_opt in Hz."""
        return C_VACUUM / self.l_opt


@dataclass(frozen=True)
class CavityParams:
    """Free spectral range and finesse of one resonator.

    The full width at half maximum is derived, ``fwhm = fsr / finesse``, so
    ``fwhm * finesse == fsr`` holds by construction.  Construction emits a
    :class:`LowFinesseWarning` below finesse 10; exact Airy evaluation stays
    valid there, but the per-peak Lorentzian treatment does not.
    """

    fsr: float
    finesse: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fsr < math.inf:
            raise ValueError(f"fsr={self.fsr}: must be positive and finite")
        if self.finesse <= 0.0:
            raise ValueError(f"finesse={self.finesse}: must be positive")
        if not self.lorentzian_valid:
            warnings.warn(
                f"finesse={self.finesse:g} is below {LORENTZIAN_FINESSE_FLOOR:g}: "
                "Lorentzian-sum treatment of the resonance profile is not trusted",
                LowFinesseWarning,
                stacklevel=2,
            )

    @property
    def fwhm(self) -> float:
        return self.fsr / self.finesse

    @property
    def lorentzian_valid(self) -> bool:
        return self.finesse >= LORENTZIAN_FINESSE_FLOOR

    @classmethod
    def from_mirrors(cls, mirrors: MirrorSet) -> "CavityParams":
        return cls(fsr=mirrors.fsr, finesse=finesse_from_mirrors(mirrors))


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


def finesse_from_mirrors(mirrors: MirrorSet) -> float:
    """Finesse pi sqrt(g) / (1 - g) of the resonator.

    ``g >= 1`` is rejected at :class:`MirrorSet` construction.
    """
    g = mirrors.g
    return math.pi * math.sqrt(g) / (1.0 - g)


def enhancement_factor(mirrors: MirrorSet) -> float:
    """Peak intensity buildup R2 R3 (1 - R4) G / (1 - g)^2.

    For a cavity that is lossless apart from the output mirror
    (R2 = R3 = G = 1) this reduces to (1 + sqrt(R4)) / (1 - sqrt(R4)).
    """
    g = mirrors.g
    return mirrors.r2 * mirrors.r3 * (1.0 - mirrors.r4) * mirrors.loss / (1.0 - g) ** 2


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
    base_s, _ = resonance_indices(nu_s_seed, nu_p0, sig, idl)
    dfsr = sig.fsr - idl.fsr
    if dfsr == 0.0:
        # equal FSRs: every signal order is an equally good cluster centre
        return resonance_indices(nu_s_seed, nu_p0, sig, idl)
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
    ``m_lo..m_hi`` inclusive.  Warns when the finesse is below the validity
    floor of the approximation.
    """
    if m_lo > m_hi:
        raise ValueError(f"empty resonance window: m_lo={m_lo} > m_hi={m_hi}")
    if not cav.lorentzian_valid:
        warnings.warn(
            f"finesse={cav.finesse:g} is below {LORENTZIAN_FINESSE_FLOOR:g}: "
            "Lorentzian-sum values are not trusted at this finesse",
            LowFinesseWarning,
            stacklevel=2,
        )
    x = np.asarray(nu, dtype=float)
    inv_hwhm_sq = 4.0 / cav.fwhm**2
    out = np.zeros_like(x)
    for m in range(m_lo, m_hi + 1):
        out += 1.0 / (1.0 + inv_hwhm_sq * (x - m * cav.fsr) ** 2)
    return float(out) if np.ndim(nu) == 0 else out
