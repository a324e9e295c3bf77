import math

import numpy as np
import pytest

from cspdclink.cavity import C_VACUUM, CavityParams, find_main_cluster
from cspdclink.spectral import SourceSpec, mode_table

PUMP_WAVELENGTH_NM = 435.5359
SIGNAL_SEED_NM = 606.0
FSR_SIGNAL_HZ = 121.120e6
FSR_IDLER_HZ = 121.189e6
HF_FINESSE = (61.0, 83.0)
LF_FINESSE = (30.0, 30.0)
SIDE_MODES = 50


def make_source(finesse_sig, finesse_idl, side_modes=SIDE_MODES):
    sig = CavityParams(fsr=FSR_SIGNAL_HZ, finesse=finesse_sig)
    idl = CavityParams(fsr=FSR_IDLER_HZ, finesse=finesse_idl)
    nu_p0 = C_VACUUM / (PUMP_WAVELENGTH_NM * 1e-9)
    k_s, k_i = find_main_cluster(C_VACUUM / (SIGNAL_SEED_NM * 1e-9), nu_p0, sig, idl)
    return SourceSpec(nu_p0=nu_p0, sig=sig, idl=idl, k_s=k_s, k_i=k_i,
                      side_modes=side_modes)


@pytest.fixture(scope="session")
def hf_spec():
    return make_source(*HF_FINESSE)


@pytest.fixture(scope="session")
def hf_modes(hf_spec):
    return mode_table(hf_spec)


@pytest.fixture(scope="session")
def lf_spec():
    return make_source(*LF_FINESSE)


@pytest.fixture(scope="session")
def lf_modes(lf_spec):
    return mode_table(lf_spec)


def adjacent_overlap_bound(gamma_hz, detuning_hz):
    """Closed-form overlap gamma / AGM(sqrt(D^2 + gamma^2), gamma) of two
    normalised equal-width, zero-detuning mode functions D apart: the
    elliptic norm integral at detuning D divided by pi * gamma / 2."""
    a, b = math.hypot(detuning_hz, gamma_hz), float(gamma_hz)
    for _ in range(32):  # quadratic convergence: ample for D / gamma up to 1e9
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return gamma_hz / a


def normalized_mode_overlap(spec, k, j, span_fsr=30.0, step_hz=4e3):
    """|integral of conj(psi_k) psi_j| / sqrt(N_k N_j) by dense trapezoid
    plus analytic 1/x^2 tails, with the norms N taken the same way;
    independent of the package's closed form."""
    from cspdclink.spectral import cluster_detuning, mode_amplitude_signal

    lo = float(spec.signal_center(min(k, j))) - span_fsr * spec.sig.fsr
    hi = float(spec.signal_center(max(k, j))) + span_fsr * spec.sig.fsr
    nu = np.arange(lo, hi, step_hz)
    hi = float(nu[-1])
    amp = {m: mode_amplitude_signal(spec, m, nu) for m in (k, j)}
    # far from both centres each amplitude tends to sqrt(g_S g_I) / (2 |nu - a|)
    # with a the midpoint of its signal resonance and mirrored idler resonance
    mid = {m: float(spec.signal_center(m)) - float(cluster_detuning(spec, m)) / 2.0
           for m in (k, j)}
    scale = spec.sig.fwhm * spec.idl.fwhm / 4.0

    def integral(m, n):
        tails = scale * (1.0 / math.sqrt((mid[m] - lo) * (mid[n] - lo))
                         + 1.0 / math.sqrt((hi - mid[m]) * (hi - mid[n])))
        return np.trapezoid(np.conj(amp[m]) * amp[n], nu) + tails

    norms = integral(k, k).real * integral(j, j).real
    return float(abs(integral(k, j)) / math.sqrt(norms))


def mpmath_mode_norm(delta_hz, g_s_hz, g_i_hz, dps=30):
    """Mode-norm integral of [1+(2x/g_S)^2]^(-1/2) [1+(2(x+delta)/g_I)^2]^(-1/2)
    by mpmath quadrature at ``dps`` digits; independent of the package's
    closed form.  The breakpoints must be in ascending order: for delta < 0
    the list [-inf, -delta - pad, -delta, 0, pad, inf] gives a value 1.1e-3
    too large at mode k = 878 of the 61/83 design source."""
    import mpmath

    with mpmath.workdps(dps):
        d, g_s, g_i = (mpmath.mpf(v) for v in (delta_hz, g_s_hz, g_i_hz))

        def f(x):
            return 1 / mpmath.sqrt((1 + (2 * x / g_s) ** 2)
                                   * (1 + (2 * (x + d) / g_i) ** 2))

        peaks = sorted({mpmath.mpf(0), -d})
        pad = 100 * max(g_s, g_i)
        return float(mpmath.quad(
            f, [-mpmath.inf, peaks[0] - pad, *peaks, peaks[-1] + pad, mpmath.inf]
        ))
