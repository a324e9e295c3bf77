"""Numerical self-checks.

Each check measures one figure of the package against an independent route
and returns a :class:`Record`.  ``cspdclink verify`` renders the records of
:func:`verify_records` for the configured source; the acceptance tests call
the same checks on their own inputs and hold them to their own tolerances.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams, airy_lorentzian_sum, airy_normalized
from .spectral import (
    SourceSpec,
    cluster_detuning,
    jsa_approx,
    jsi_approx,
    mode_amplitude_signal,
    normalization_constants,
)
from .tmsv import thermal_distribution

# Step of the sinh-mapped variable in the trapezoid route to a mode norm, and
# the half-width of its window in units of the wider linewidth.  Beyond the
# window the exact 1/x^2 tails are added.
_NORM_STEP = 1e-3
_NORM_HALF_WIDTHS = 1e5


class Record(NamedTuple):
    """One check result.

    ``tol`` is ``None`` for a figure that is reported but not asserted, and
    ``measured`` is ``None`` for a check that could not run; neither fails.
    """

    name: str
    measured: float | None
    tol: float | None
    note: str
    passed: bool


def _asserted(name: str, measured: float, tol: float, note: str = "") -> Record:
    return Record(name, measured, tol, note, measured <= tol)


def degenerate_source(gamma_hz: float, side_modes: int = 0, fsr: float = 100e6) -> SourceSpec:
    """Source with equal linewidths ``gamma_hz`` and zero centre detuning:
    each mode profile is an exact Lorentzian, whose norm integral is
    pi * gamma / 2."""
    cav = CavityParams(fsr=fsr, finesse=fsr / gamma_hz)
    return SourceSpec(nu_p0=2_000_000 * fsr, sig=cav, idl=cav,
                      k_s=1_000_000, k_i=1_000_000, side_modes=side_modes)


def check_normalisation_oracle(gammas_hz=(1e6, 2e6, 4e6)) -> Record:
    """Closed-form norm of the degenerate source against pi * gamma / 2."""
    worst = 0.0
    for gamma in gammas_hz:
        c_s, _ = normalization_constants(degenerate_source(gamma), 0)
        worst = max(worst, abs(c_s**2 / (math.pi * gamma / 2.0) - 1.0))
    return _asserted("normalisation-closed-form-oracle", worst, 1e-13,
                     "degenerate Lorentzian norm vs pi*gamma/2")


def _trapezoid_mode_norm(spec: SourceSpec, k: int) -> float:
    """Independent route to the C_S^2 integral of mode k.

    The squared amplitude has two peaks |delta| apart.  Each half of the
    window, split at their midpoint, gets its own grid nu = peak +/- h sinh(t)
    with h the narrower half-width, so the narrower peak is resolved however
    far the linewidths differ.  The trapezoid rule runs on the nodes as
    rounded, and one Richardson step against every other node cancels its
    step^2 error.  Beyond the window the exact 1/x^2 tails of the two peaks,
    (g_S g_I / |delta|) atanh(|delta| / (2 H)), are added; that is
    g_S g_I / (2 H) at delta = 0.
    """
    delta = float(cluster_detuning(spec, k))
    g_s, g_i = spec.sig.fwhm, spec.idl.fwhm
    mid = float(spec.signal_center(k)) - delta / 2.0
    d = abs(delta) / 2.0
    half = _NORM_HALF_WIDTHS * max(g_s, g_i) + abs(delta)
    h = min(g_s, g_i) / 2.0
    t_lo, t_hi = math.asinh((half - d) / h), math.asinh(d / h)
    n = 2 * math.ceil((t_lo + t_hi) / (2.0 * _NORM_STEP)) + 1
    # distance from the midpoint: from ``half`` down to zero, where both
    # grids share their last node
    u = d - h * np.sinh(np.linspace(-t_lo, t_hi, n))
    total = 0.0
    for nu in (mid - u, (mid + u)[::-1]):
        values = np.abs(mode_amplitude_signal(spec, k, nu)) ** 2
        fine = np.trapezoid(values, nu)
        coarse = np.trapezoid(values[::2], nu[::2])
        total += (4.0 * fine - coarse) / 3.0
    ratio = abs(delta) / (2.0 * half)
    atanh_ratio = math.atanh(ratio) / ratio if ratio > 0.0 else 1.0
    return float(total) + g_s * g_i / (2.0 * half) * atanh_ratio


def check_mode_normalisation(spec: SourceSpec, modes=None) -> Record:
    """Closed-form norms against the trapezoid route; by default at the
    centre mode and the two outermost modes."""
    if modes is None:
        modes = sorted({-spec.side_modes, 0, spec.side_modes})
    worst = 0.0
    for k in modes:
        c_s, _ = normalization_constants(spec, k)
        worst = max(worst, abs(_trapezoid_mode_norm(spec, k) / c_s**2 - 1.0))
    return _asserted("mode-function-normalisation", worst, 1e-8,
                     "closed form vs independent trapezoid integral")


def central_grid(spec: SourceSpec):
    """Signal and idler axes of 200 points each, spanning up to four modes
    and a half on either side of the centre mode."""
    span = min(4, spec.side_modes) + 0.5
    nu_s = np.linspace(spec.signal_center(0) - span * spec.sig.fsr,
                       spec.signal_center(0) + span * spec.sig.fsr, 200)
    nu_i = np.linspace(spec.idler_center(0) - span * spec.idl.fsr,
                       spec.idler_center(0) + span * spec.idl.fsr, 200)
    return nu_s, nu_i


def check_jsa_jsi_grid(spec: SourceSpec) -> Record:
    """max | |amplitude|^2 - intensity | on the :func:`central_grid`."""
    nu_s, nu_i = central_grid(spec)
    amp = jsa_approx(spec, nu_s[:, None], nu_i[None, :])
    intensity = jsi_approx(spec, nu_s[:, None], nu_i[None, :])
    measured = float(np.max(np.abs(np.abs(amp) ** 2 - intensity)))
    if spec.side_modes == 0:
        return _asserted("jsa-jsi-grid", measured, 1e-12,
                         "single mode: amplitude-squared equals intensity exactly")
    # cross terms dropped by the intensity form scale as 1/(F_S F_I);
    # the 1e-3 floor is the design-point bound for finesse >= 61/83
    tol = max(1e-3, 4.0 / (spec.sig.finesse * spec.idl.finesse))
    return _asserted("jsa-jsi-grid", measured, tol,
                     "max | |amplitude|^2 - intensity | over the central modes")


def check_thermal(mus=(0.01, 0.1, 1.0)) -> Record:
    """Sum and mean of the pair-number distribution at each mean ``mu``:
    summed until the geometric tail drops below 1e-12, plus that tail
    exactly."""
    worst = 0.0
    for mu in mus:
        q = mu / (mu + 1.0)
        n_max = max(60, math.ceil(math.log(1e-12) / math.log(q)) + 1) if q > 0.0 else 60
        n = np.arange(n_max + 1)
        p = np.asarray(thermal_distribution(mu, n))
        tail_total = q ** (n_max + 1)
        tail_mean = q ** (n_max + 1) * ((n_max + 1) - n_max * q) * (mu + 1.0)
        worst = max(
            worst,
            abs(float(p.sum()) + tail_total - 1.0),
            abs(float(np.sum(n * p)) + tail_mean - mu),
        )
    return _asserted("thermal-distribution", worst, 1e-9,
                     "normalisation and mean of the pair-number distribution")


def check_lorentzian_sum(label: str, cav: CavityParams) -> Record:
    """Largest gap between the Lorentzian sum over orders -50..50 and the
    Airy profile across one FSR.  Asserted from finesse 30, reported
    from 10, and not run below 10."""
    if not cav.lorentzian_valid:
        return Record(f"lorentzian-approximation-{label}", None, None,
                      f"finesse={cav.finesse:g} is below 10; per-peak Lorentzian "
                      "treatment not trusted", True)
    nu = np.linspace(0.0, cav.fsr, 100_001)
    approx = airy_lorentzian_sum(nu, cav, -50, 50)
    measured = float(np.max(np.abs(approx - airy_normalized(nu, cav))))
    name = f"lorentzian-sum-vs-airy-{label}"
    if cav.finesse >= 30.0:
        return _asserted(name, measured, 1e-3)
    return Record(name, measured, None, "finesse below 30; 1e-3 bound not asserted", True)


def verify_records(spec: SourceSpec) -> list[Record]:
    """Every check of ``cspdclink verify`` on ``spec``, in report order."""
    return [
        check_normalisation_oracle(),
        check_mode_normalisation(spec),
        check_jsa_jsi_grid(spec),
        check_thermal(),
        check_lorentzian_sum("signal", spec.sig),
        check_lorentzian_sum("idler", spec.idl),
    ]
