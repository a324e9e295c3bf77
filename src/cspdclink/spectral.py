"""Mode decomposition of the doubly resonant pair-source spectrum.

Under monochromatic pumping the joint spectrum collapses onto the energy
conservation line and, within the main cluster, splits into discrete joint
modes indexed k = -M..M.  Each mode carries an unnormalised signal (idler)
amplitude: the principal square root of the product of its own resonance
amplitude and the energy-conservation partner resonance evaluated at the
mirrored frequency.  The squared moduli of these amplitudes integrate to the
normalisation constants C_{S,k}, C_{I,k}, whose products set the per-mode
squeezing weights used downstream.

All integrals run over frequency in Hz.  The absolute scale of the
normalisation constants therefore depends on that convention, but only
ratios of constants enter any derived quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, airy_normalized

# Relative stopping tolerance and iteration cap of the AGM.  Each step takes
# about the square root of the ratio of its two arguments: a ratio of 1e9
# converges in 8 steps, 1e100 in 11, so the cap only ends non-finite input.
_AGM_REL_TOL = 1e-15
_AGM_MAX_ITER = 64


class QuadratureError(RuntimeError):
    """A normalisation integral did not evaluate to a finite positive value."""

    def __init__(self, mode: int, value: float):
        self.mode = mode
        self.value = value
        super().__init__(
            f"normalisation integral for mode k={mode} evaluated to {value!r}, "
            "not a finite positive number"
        )


@dataclass(frozen=True)
class SourceSpec:
    """Pump and resonator description of the source around its main cluster.

    ``k_s``/``k_i`` are the resonance orders of the centre joint mode and
    ``side_modes`` the number of modes kept on each side of it (total
    2 * side_modes + 1).
    """

    nu_p0: float
    sig: CavityParams
    idl: CavityParams
    k_s: int
    k_i: int
    side_modes: int

    def __post_init__(self) -> None:
        if self.nu_p0 <= 0.0:
            raise ValueError(f"nu_p0={self.nu_p0}: pump frequency must be positive")
        if self.side_modes < 0:
            raise ValueError(f"side_modes={self.side_modes}: must be non-negative")
        residual = abs(self.k_s * self.sig.fsr + self.k_i * self.idl.fsr - self.nu_p0)
        if residual > 0.5 * self.idl.fsr:
            raise ValueError(
                f"(k_s, k_i)=({self.k_s}, {self.k_i}) misses the pump by "
                f"{residual:.6g} Hz, more than half an idler FSR"
            )

    @property
    def mode_indices(self) -> np.ndarray:
        """Mode indices -M..M in ascending order."""
        return np.arange(-self.side_modes, self.side_modes + 1)

    def signal_center(self, k):
        return (self.k_s + np.asarray(k)) * self.sig.fsr

    def idler_center(self, k):
        return (self.k_i - np.asarray(k)) * self.idl.fsr


@dataclass(frozen=True)
class ModeTable:
    """Per-mode decomposition data in ascending mode order.

    ``ratio`` is (C_S,k C_I,k) / (C_S,0 C_I,0); ``mu_k`` stays ``None`` until
    a mean photon number assignment fills it.
    """

    k: np.ndarray
    delta: np.ndarray
    c_s: np.ndarray
    c_i: np.ndarray
    ratio: np.ndarray
    mu_k: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.k.size
        if any(arr.size != n for arr in (self.delta, self.c_s, self.c_i, self.ratio)):
            raise ValueError("mode table columns must share one length")
        if np.any(self.c_s <= 0.0) or np.any(self.c_i <= 0.0):
            raise ValueError("normalisation constants must be positive")
        if self.ratio[self.center_index] != 1.0:
            raise ValueError("centre-mode ratio must be exactly 1")

    @property
    def center_index(self) -> int:
        return self.k.size // 2

    def index_of(self, k: int) -> int:
        i = int(k) - int(self.k[0])
        if not 0 <= i < self.k.size:
            raise IndexError(f"mode k={k} outside table range {self.k[0]}..{self.k[-1]}")
        return i

    def envelope_argmax(self) -> int:
        """Mode index with the smallest |detuning|; lower k wins ties."""
        return int(self.k[np.argmin(np.abs(self.delta))])


def cluster_detuning(spec: SourceSpec, k):
    """Residual (K_S + k) FSR_S + (K_I - k) FSR_I - nu_p0 of joint mode k."""
    return spec.signal_center(k) + spec.idler_center(k) - spec.nu_p0


def _lorentzian_amplitude(x, gamma):
    # complex unit-peak resonance amplitude, 1 / (1 - 2i x / gamma)
    return 1.0 / (1.0 - 2j * x / gamma)


def mode_amplitude_signal(spec: SourceSpec, k: int, nu_s):
    """Unnormalised signal amplitude of joint mode k at frequency ``nu_s``.

    Principal square root of the product of the signal resonance amplitude
    and the idler resonance amplitude evaluated at the energy-conserving
    partner frequency; modulus never exceeds 1.
    """
    nu = np.asarray(nu_s, dtype=float)
    own = _lorentzian_amplitude(nu - spec.signal_center(k), spec.sig.fwhm)
    partner = _lorentzian_amplitude(
        spec.nu_p0 - nu - spec.idler_center(k), spec.idl.fwhm
    )
    out = np.sqrt(own * partner)
    return complex(out) if np.ndim(nu_s) == 0 else out


def mode_amplitude_idler(spec: SourceSpec, k: int, nu_i):
    """Unnormalised idler amplitude of joint mode k; mirror of the signal case."""
    nu = np.asarray(nu_i, dtype=float)
    partner = _lorentzian_amplitude(
        spec.nu_p0 - nu - spec.signal_center(k), spec.sig.fwhm
    )
    own = _lorentzian_amplitude(nu - spec.idler_center(k), spec.idl.fwhm)
    out = np.sqrt(partner * own)
    return complex(out) if np.ndim(nu_i) == 0 else out


def _agm(a, b):
    """Elementwise arithmetic-geometric mean of positive arrays.

    Stops once every pair agrees to ``_AGM_REL_TOL`` relative, or after
    ``_AGM_MAX_ITER`` steps; a non-finite input gives a non-finite mean,
    left to the caller's check.
    """
    for _ in range(_AGM_MAX_ITER):
        if np.all(np.abs(a - b) <= _AGM_REL_TOL * a):
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return 0.5 * (a + b)


def _norm_integral(delta, g_s: float, g_i: float):
    """Integral of [1+(2x/g_s)^2]^(-1/2) [1+(2(x+delta)/g_i)^2]^(-1/2) dx.

    A complete elliptic integral of the first kind; with n = g_s/2 and
    q = g_i/2 it equals 2 pi n q / AGM(sqrt(delta^2 + (n+q)^2), 2 sqrt(n q))
    (Byrd & Friedman 267; Borwein & Borwein, Pi and the AGM).  Symmetric
    under g_s <-> g_i, so it is the squared norm of the signal and the
    idler amplitude alike.
    """
    n, q = 0.5 * g_s, 0.5 * g_i
    a = np.hypot(np.asarray(delta, dtype=float), n + q)
    b = np.full_like(a, 2.0 * math.sqrt(n * q))
    return 2.0 * math.pi * n * q / _agm(a, b)


def _checked_norms(spec: SourceSpec, ks: np.ndarray):
    """Detunings and common normalisation constants C_S = C_I of modes ``ks``."""
    delta = np.asarray(cluster_detuning(spec, ks), dtype=float)
    c2 = _norm_integral(delta, spec.sig.fwhm, spec.idl.fwhm)
    bad = ~(np.isfinite(c2) & (c2 > 0.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise QuadratureError(int(ks[i]), float(c2[i]))
    return delta, np.sqrt(c2)


def normalization_constants(spec: SourceSpec, k: int) -> tuple[float, float]:
    """Closed-form normalisation constants (C_S, C_I) of joint mode k.

    Each constant is the square root of the integral of the corresponding
    squared mode amplitude over frequency; the two integrals are equal, so
    C_S == C_I exactly.  A :class:`QuadratureError` names the mode if the
    value is not finite and positive.
    """
    _, c = _checked_norms(spec, np.array([int(k)]))
    return float(c[0]), float(c[0])


def mode_table(spec: SourceSpec) -> ModeTable:
    """Detunings, normalisation constants and squeeze ratios for all modes,
    in ascending mode order, from one vectorised closed-form evaluation."""
    ks = spec.mode_indices
    delta, c = _checked_norms(spec, ks)
    center = ks.size // 2
    ratio = (c * c) / (c[center] * c[center])
    return ModeTable(k=ks, delta=delta, c_s=c, c_i=c.copy(), ratio=ratio)


def xi(spec: SourceSpec, m_s: int, m_i: int, nu_s, nu_i):
    """Product of unit-peak Lorentzians centred at m_s FSR_S and m_i FSR_I."""
    ls = 1.0 / (1.0 + (2.0 * (np.asarray(nu_s) - m_s * spec.sig.fsr) / spec.sig.fwhm) ** 2)
    li = 1.0 / (1.0 + (2.0 * (np.asarray(nu_i) - m_i * spec.idl.fsr) / spec.idl.fwhm) ** 2)
    out = ls * li
    return float(out) if (np.ndim(nu_s) == 0 and np.ndim(nu_i) == 0) else out


def pump_envelope(nu_s, nu_i, nu_p0: float, sigma_p: float):
    """Gaussian stand-in exp[-(nu_s + nu_i - nu_p0)^2 / (2 sigma_p^2)].

    Figure-reproduction device only; the physical CW pump is treated as
    monochromatic everywhere else.
    """
    if sigma_p <= 0.0:
        raise ValueError(f"sigma_p={sigma_p}: must be positive")
    detuning = np.asarray(nu_s, dtype=float) + np.asarray(nu_i, dtype=float) - nu_p0
    return np.exp(-(detuning**2) / (2.0 * sigma_p**2))


def jsa_approx(spec: SourceSpec, nu_s, nu_i):
    """Joint spectral amplitude summed over the 2M+1 joint modes.

    Each summand is the product of the principal square roots of the signal
    and idler Lorentzian amplitude pairs of one mode.  Scalars broadcast
    against arrays in the usual way.
    """
    ns = np.asarray(nu_s, dtype=float)
    ni = np.asarray(nu_i, dtype=float)
    out = np.zeros(np.broadcast(ns, ni).shape, dtype=complex)
    g_s, g_i = spec.sig.fwhm, spec.idl.fwhm
    for k in range(-spec.side_modes, spec.side_modes + 1):
        a = spec.signal_center(k)
        b = spec.idler_center(k)
        u_s = 1.0 / (1.0 + 2j * (ns - a) / g_s)
        v_s = 1.0 / (1.0 + 2j * (spec.nu_p0 - ns - b) / g_i)
        u_i = 1.0 / (1.0 + 2j * (spec.nu_p0 - ni - a) / g_s)
        v_i = 1.0 / (1.0 + 2j * (ni - b) / g_i)
        out = out + np.sqrt(u_s * v_s) * np.sqrt(u_i * v_i)
    return complex(out) if out.ndim == 0 else out


def jsi_approx(spec: SourceSpec, nu_s, nu_i, sigma_p: float | None = None):
    """Joint spectral intensity summed over the 2M+1 joint modes.

    Each summand is the square-rooted product of the four real Lorentzians of
    one mode, i.e. the squared modulus of the signal amplitude times that of
    the idler amplitude.  ``sigma_p`` optionally multiplies in the Gaussian
    pump envelope for figure reproduction.
    """
    ns = np.asarray(nu_s, dtype=float)
    ni = np.asarray(nu_i, dtype=float)
    out = np.zeros(np.broadcast(ns, ni).shape)
    g_s, g_i = spec.sig.fwhm, spec.idl.fwhm
    for k in range(-spec.side_modes, spec.side_modes + 1):
        a = spec.signal_center(k)
        b = spec.idler_center(k)
        w_s = (
            (1.0 + (2.0 * (ns - a) / g_s) ** 2)
            * (1.0 + (2.0 * (spec.nu_p0 - ns - b) / g_i) ** 2)
        ) ** -0.5
        w_i = (
            (1.0 + (2.0 * (spec.nu_p0 - ni - a) / g_s) ** 2)
            * (1.0 + (2.0 * (ni - b) / g_i) ** 2)
        ) ** -0.5
        out = out + w_s * w_i
    if sigma_p is not None:
        out = out * pump_envelope(ns, ni, spec.nu_p0, sigma_p)
    return float(out) if out.ndim == 0 else out


def signal_spectrum_samples(
    spec: SourceSpec, k_window: tuple[int, int] = (-1, 1), n_points: int = 2001
):
    """Uniform sweep of the signal spectrum across a mode window.

    Returns ``(nu, airy_product, xi_center)``: the exact normalised Airy
    product A0_S(nu) A0_I(nu_p0 - nu) and the centre-mode Lorentzian pair
    evaluated on the energy conservation line, sampled from half an FSR below
    mode ``k_window[0]`` to half an FSR above mode ``k_window[1]``.
    """
    k_lo, k_hi = k_window
    if k_lo > k_hi:
        raise ValueError(f"empty mode window: {k_lo} > {k_hi}")
    if n_points < 2:
        raise ValueError(f"n_points={n_points}: need at least 2 samples")
    lo = spec.signal_center(k_lo) - 0.5 * spec.sig.fsr
    hi = spec.signal_center(k_hi) + 0.5 * spec.sig.fsr
    nu = np.linspace(lo, hi, n_points)
    airy_product = airy_normalized(nu, spec.sig) * airy_normalized(
        spec.nu_p0 - nu, spec.idl
    )
    xi_center = xi(spec, spec.k_s, spec.k_i, nu, spec.nu_p0 - nu)
    return nu, airy_product, xi_center
