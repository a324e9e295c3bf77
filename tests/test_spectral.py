import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdclink.cavity import CavityParams, airy_normalized
from cspdclink.checks import (
    central_grid,
    check_jsa_jsi_grid,
    check_mode_normalisation,
    check_normalisation_oracle,
    degenerate_source,
)
from cspdclink.spectral import (
    ModeTable,
    QuadratureError,
    SourceSpec,
    cluster_detuning,
    jsa_approx,
    jsi_approx,
    mode_amplitude_idler,
    mode_amplitude_signal,
    mode_table,
    normalization_constants,
    signal_spectrum_samples,
    xi,
)
from conftest import (
    HF_FINESSE,
    LF_FINESSE,
    adjacent_overlap_bound,
    make_source,
    mpmath_mode_norm,
    normalized_mode_overlap,
)

# main-cluster half-width floor(FSR_I / (2 |FSR_S - FSR_I|)) of the design FSRs
CLUSTER_HALF_WIDTH = 878


def test_cluster_detuning_is_linear_in_k(hf_spec):
    steps = np.diff([cluster_detuning(hf_spec, k) for k in np.arange(-50, 51)])
    expected = hf_spec.sig.fsr - hf_spec.idl.fsr
    np.testing.assert_allclose(steps, expected, rtol=1e-9)
    assert expected == pytest.approx(-69e3, rel=1e-12)


def test_cluster_detuning_zero_on_exact_alignment():
    spec = degenerate_source(2e6)
    assert cluster_detuning(spec, 0) == 0.0


def test_mode_amplitude_unit_modulus_at_joint_center():
    spec = degenerate_source(2e6)
    psi = mode_amplitude_signal(spec, 0, float(spec.signal_center(0)))
    phi = mode_amplitude_idler(spec, 0, float(spec.idler_center(0)))
    assert abs(psi) == pytest.approx(1.0, abs=1e-15)
    assert abs(phi) == pytest.approx(1.0, abs=1e-15)


def test_mode_amplitude_half_max_at_half_linewidth():
    gamma = 2e6
    spec = degenerate_source(gamma)
    psi = mode_amplitude_signal(spec, 0, float(spec.signal_center(0)) + gamma / 2.0)
    assert abs(psi) ** 2 == pytest.approx(0.5, rel=1e-12)
    phi = mode_amplitude_idler(spec, 0, float(spec.idler_center(0)) + gamma / 2.0)
    assert abs(phi) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_mode_amplitude_modulus_bounded(hf_spec):
    rng = np.random.default_rng(3)
    nu = float(hf_spec.signal_center(0)) + rng.uniform(-5e8, 5e8, size=200)
    assert np.all(np.abs(mode_amplitude_signal(hf_spec, 2, nu)) <= 1.0 + 1e-12)


def test_mode_amplitude_phase_is_half_the_resonance_phases(hf_spec):
    # principal root: arg psi = (atan(2x / g_S) - atan(2(x + delta) / g_I)) / 2
    rng = np.random.default_rng(5)
    for k in (-17, 23):
        x = rng.uniform(-1e7, 1e7, size=50)
        psi = mode_amplitude_signal(hf_spec, k, float(hf_spec.signal_center(k)) + x)
        delta = float(cluster_detuning(hf_spec, k))
        expected = 0.5 * (np.arctan(2.0 * x / hf_spec.sig.fwhm)
                          - np.arctan(2.0 * (x + delta) / hf_spec.idl.fwhm))
        np.testing.assert_allclose(np.angle(psi), expected, atol=1e-9)


def test_mode_amplitudes_build_the_jsi_summand(hf_spec):
    # mode k of the full source equals mode 0 of a source recentred on it
    rng = np.random.default_rng(11)
    for k in (-17, 0, 23):
        shifted = type(hf_spec)(
            nu_p0=hf_spec.nu_p0, sig=hf_spec.sig, idl=hf_spec.idl,
            k_s=hf_spec.k_s + k, k_i=hf_spec.k_i - k, side_modes=0,
        )
        nu_s = float(hf_spec.signal_center(k)) + rng.uniform(-3e8, 3e8, size=40)
        nu_i = float(hf_spec.idler_center(k)) + rng.uniform(-3e8, 3e8, size=40)
        summand = (
            np.abs(mode_amplitude_signal(hf_spec, k, nu_s)) ** 2
            * np.abs(mode_amplitude_idler(hf_spec, k, nu_i)) ** 2
        )
        np.testing.assert_allclose(
            summand, jsi_approx(shifted, nu_s, nu_i), rtol=1e-12
        )


@pytest.mark.parametrize("gamma_mhz", [1.0, 2.0, 4.0])
def test_normalization_degenerate_closed_form(gamma_mhz):
    # oracle: at zero detuning and equal linewidths the squared-modulus
    # profile is a Lorentzian of width gamma, integrating to pi*gamma/2
    assert check_normalisation_oracle((gamma_mhz * 1e6,)).measured <= 1e-13


def test_normalization_against_independent_trapezoid(hf_spec):
    # far modes of a finesse-1000 source sit many linewidths off resonance,
    # where a tail that ignores the peak separation reads 1.6e-5 off; the
    # other wide sources have linewidths 10x to 1000x apart, whose narrower
    # peak the independent route must resolve
    cases = [(hf_spec, (-50, -7, 0, 31)),
             (make_source(1000.0, 1000.0, side_modes=CLUSTER_HALF_WIDTH), (-878, 300, 878)),
             (make_source(10.0, 10000.0, side_modes=CLUSTER_HALF_WIDTH), (-878, 0, 878))]
    cases += [(make_source(*finesse), (-50, 0, 50))
              for finesse in ((10.0, 1000.0), (20.0, 400.0), (30.0, 300.0))]
    for spec, modes in cases:
        assert check_mode_normalisation(spec, modes).measured <= 1e-9, spec


@pytest.mark.parametrize("k", [0, 25, -50, 199, -400, 878, -878])
def test_normalization_matches_mpmath_across_the_cluster(k):
    spec = make_source(*HF_FINESSE, side_modes=CLUSTER_HALF_WIDTH)
    c_s, c_i = normalization_constants(spec, k)
    exact = mpmath_mode_norm(float(cluster_detuning(spec, k)),
                             spec.sig.fwhm, spec.idl.fwhm)
    assert c_s == c_i
    assert c_s**2 == pytest.approx(exact, rel=1e-12)


@given(st.floats(min_value=-60.0, max_value=60.0),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=25, deadline=None)
def test_normalization_matches_mpmath_hypothesis(detuning_widths, width_ratio):
    # one mode detuned by detuning_widths * max(g_S, g_I), g_S = width_ratio * g_I
    fsr, g_i = 2e9, 2e6
    g_s = width_ratio * g_i
    delta = detuning_widths * max(g_s, g_i)
    spec = SourceSpec(
        nu_p0=20 * fsr - delta,
        sig=CavityParams(fsr=fsr, finesse=fsr / g_s),
        idl=CavityParams(fsr=fsr, finesse=fsr / g_i),
        k_s=10, k_i=10, side_modes=0,
    )
    c_s, c_i = normalization_constants(spec, 0)
    exact = mpmath_mode_norm(float(cluster_detuning(spec, 0)),
                             spec.sig.fwhm, spec.idl.fwhm)
    assert c_s == c_i
    assert c_s**2 == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("finesse", [HF_FINESSE, LF_FINESSE])
def test_mode_table_covers_the_whole_cluster(finesse):
    table = mode_table(make_source(*finesse, side_modes=CLUSTER_HALF_WIDTH))
    assert table.k.size == 2 * CLUSTER_HALF_WIDTH + 1
    for column in (table.c_s, table.c_i, table.ratio):
        assert np.all(np.isfinite(column)) and np.all(column > 0.0)
    product = table.c_s * table.c_i
    order = np.argsort(np.abs(table.delta), kind="stable")
    assert np.all(np.diff(product[order]) <= 0.0)


def test_normalization_envelope_peaks_at_center(hf_modes):
    center = hf_modes.center_index
    assert np.all(hf_modes.c_s[center] >= hf_modes.c_s)
    assert np.all(hf_modes.c_i[center] >= hf_modes.c_i)


def test_squeeze_ratio_square_sum(hf_modes):
    assert np.sum(hf_modes.ratio**2) == pytest.approx(71.1, abs=0.5)


def test_envelope_monotone_in_detuning(hf_modes):
    product = hf_modes.c_s * hf_modes.c_i
    order = np.argsort(np.abs(hf_modes.delta), kind="stable")
    assert np.all(np.diff(product[order]) <= 0.0)
    assert hf_modes.envelope_argmax() == 0


def test_mode_table_validation(hf_modes):
    assert hf_modes.ratio[hf_modes.center_index] == 1.0
    assert hf_modes.index_of(0) == hf_modes.center_index
    assert hf_modes.index_of(-50) == 0
    with pytest.raises(IndexError):
        hf_modes.index_of(51)
    with pytest.raises(ValueError):
        ModeTable(
            k=np.array([0]), delta=np.array([0.0]), c_s=np.array([-1.0]),
            c_i=np.array([1.0]), ratio=np.array([1.0]),
        )


def test_quadrature_failure_carries_estimate(hf_spec, monkeypatch):
    import cspdclink.spectral as spectral

    monkeypatch.setattr(
        spectral, "_norm_integral", lambda delta, *widths: delta * np.nan
    )
    with pytest.raises(QuadratureError) as err:
        spectral.normalization_constants(hf_spec, 3)
    assert err.value.mode == 3
    assert math.isnan(err.value.value)


def test_xi_peak_and_half_max(hf_spec):
    m_s, m_i = hf_spec.k_s, hf_spec.k_i
    nu_s0 = m_s * hf_spec.sig.fsr
    nu_i0 = m_i * hf_spec.idl.fsr
    assert xi(hf_spec, m_s, m_i, nu_s0, nu_i0) == 1.0
    # representing the offset at ~5e14 Hz costs ~0.03 Hz of rounding
    half = xi(hf_spec, m_s, m_i, nu_s0 + hf_spec.sig.fwhm / 2.0, nu_i0)
    assert half == pytest.approx(0.5, rel=1e-6)


def test_xi_matches_direct_formula(hf_spec):
    # duplicate-formula oracle written out independently
    rng = np.random.default_rng(5)
    g_s, g_i = hf_spec.sig.fwhm, hf_spec.idl.fwhm
    for _ in range(25):
        m_s = hf_spec.k_s + rng.integers(-3, 4)
        m_i = hf_spec.k_i + rng.integers(-3, 4)
        nu_s = m_s * hf_spec.sig.fsr + rng.uniform(-1e8, 1e8)
        nu_i = m_i * hf_spec.idl.fsr + rng.uniform(-1e8, 1e8)
        direct = (
            1.0 / (1.0 + 4.0 * (nu_s - m_s * hf_spec.sig.fsr) ** 2 / g_s**2)
        ) * (
            1.0 / (1.0 + 4.0 * (nu_i - m_i * hf_spec.idl.fsr) ** 2 / g_i**2)
        )
        assert xi(hf_spec, m_s, m_i, nu_s, nu_i) == pytest.approx(direct, rel=1e-12)


def test_jsa_single_mode_unit_peak():
    spec = degenerate_source(2e6)
    value = jsa_approx(spec, float(spec.signal_center(0)), float(spec.idler_center(0)))
    assert abs(value) == pytest.approx(1.0, abs=1e-15)


def test_jsa_squared_equals_jsi_for_single_mode():
    spec = degenerate_source(2e6)
    rng = np.random.default_rng(1)
    nu_s = float(spec.signal_center(0)) + rng.uniform(-3e8, 3e8, size=(50, 1))
    nu_i = float(spec.idler_center(0)) + rng.uniform(-3e8, 3e8, size=(1, 50))
    amp = jsa_approx(spec, nu_s, nu_i)
    intensity = jsi_approx(spec, nu_s, nu_i)
    assert np.max(np.abs(np.abs(amp) ** 2 - intensity)) <= 1e-12


def _amplitude_max(spec):
    nu_s, nu_i = central_grid(spec)
    return float(np.max(np.abs(jsa_approx(spec, nu_s[:, None], nu_i[None, :]))))


def test_jsa_squared_tracks_jsi_on_grid(hf_spec):
    assert check_jsa_jsi_grid(hf_spec).measured <= 1e-3
    assert _amplitude_max(hf_spec) <= 1.0 + 1e-2


def test_jsa_jsi_deviation_shrinks_with_finesse(hf_spec, lf_spec):
    assert check_jsa_jsi_grid(hf_spec).measured <= check_jsa_jsi_grid(lf_spec).measured
    assert _amplitude_max(lf_spec) <= 1.0 + 1e-2


def test_jsi_cross_mode_peaks_are_suppressed(hf_spec):
    for j, k in ((0, 1), (-2, 2), (1, 4)):
        value = jsi_approx(
            hf_spec,
            float(hf_spec.signal_center(j)),
            float(hf_spec.idler_center(k)),
        )
        assert value <= 1e-2


def test_jsi_nonnegative_and_peaked_on_modes(hf_spec):
    rng = np.random.default_rng(9)
    nu_s = float(hf_spec.signal_center(0)) + rng.uniform(-6e8, 6e8, size=300)
    nu_i = float(hf_spec.idler_center(0)) + rng.uniform(-6e8, 6e8, size=300)
    values = jsi_approx(hf_spec, nu_s, nu_i)
    assert np.all(values >= 0.0)
    # unit peak needs zero cluster detuning on the probed mode
    spec = degenerate_source(2e6, side_modes=2)
    on_peak = jsi_approx(
        spec, float(spec.signal_center(1)), float(spec.idler_center(1))
    )
    assert on_peak == pytest.approx(1.0, abs=1e-6)


def test_jsi_summand_symmetry_under_center_exchange():
    # equal linewidths and zero detuning: reflecting both frequencies about
    # their mode centres leaves each summand unchanged
    spec = degenerate_source(2e6)
    rng = np.random.default_rng(21)
    ds = rng.uniform(-5e7, 5e7, size=30)
    di = rng.uniform(-5e7, 5e7, size=30)
    a = jsi_approx(spec, spec.signal_center(0) + ds, spec.idler_center(0) + di)
    b = jsi_approx(spec, spec.signal_center(0) - ds, spec.idler_center(0) - di)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_mode_overlap_falls_with_separation_and_finesse(hf_spec, lf_spec):
    # adjacent modes are not strictly orthogonal; the residual overlap decays
    # with mode separation and with finesse (measured regression values)
    adjacent_hf = normalized_mode_overlap(hf_spec, 0, 1)
    second_hf = normalized_mode_overlap(hf_spec, 0, 2)
    adjacent_lf = normalized_mode_overlap(lf_spec, 0, 1)
    assert second_hf < adjacent_hf < adjacent_lf
    assert adjacent_hf == pytest.approx(5.07e-2, rel=0.02)
    assert adjacent_lf == pytest.approx(1.01e-1, rel=0.02)
    assert normalized_mode_overlap(hf_spec, 0, 25) < 5e-3


@pytest.mark.parametrize("gamma", [2e6, 100e6 / 30.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_mode_overlap_matches_closed_form_on_degenerate_source(gamma, n):
    # equal widths and zero detuning: the overlap of modes n FSR apart is the
    # elliptic norm integral at detuning n * FSR over pi * gamma / 2
    spec = degenerate_source(gamma)
    expected = adjacent_overlap_bound(gamma, n * spec.sig.fsr)
    assert normalized_mode_overlap(spec, 0, n) == pytest.approx(expected, rel=1e-3)


def test_signal_spectrum_center_coincidence(hf_spec):
    nu, airy_product, xi_center = signal_spectrum_samples(hf_spec, (-1, 1), 4001)
    step = nu[1] - nu[0]
    assert abs(nu[np.argmax(airy_product)] - nu[np.argmax(xi_center)]) <= step
    assert airy_product.max() >= 0.99
    assert xi_center.max() >= 0.99


def test_signal_spectrum_mode_spacing(hf_spec):
    nu, airy_product, _ = signal_spectrum_samples(hf_spec, (-1, 1), 12001)
    above = airy_product > 0.5
    edges = np.flatnonzero(np.diff(above.astype(int)) == 1)
    peaks = nu[edges]
    assert peaks.size == 3
    np.testing.assert_allclose(np.diff(peaks), hf_spec.sig.fsr, rtol=1e-3)


def _modes_above_half_envelope(spec, half_window=200):
    ks = np.arange(-half_window, half_window + 1)
    centers = spec.signal_center(ks)
    peaks = airy_normalized(centers, spec.sig) * airy_normalized(
        spec.nu_p0 - centers, spec.idl
    )
    return int(np.sum(peaks >= 0.5 * peaks.max()))


def test_cluster_envelope_widens_at_low_finesse(hf_spec, lf_spec):
    hf_width = _modes_above_half_envelope(hf_spec)
    lf_width = _modes_above_half_envelope(lf_spec)
    assert lf_width > hf_width
    assert 15 <= hf_width <= 25
    assert 50 <= lf_width <= 70


def test_spectrum_samples_input_validation(hf_spec):
    with pytest.raises(ValueError):
        signal_spectrum_samples(hf_spec, (2, -2), 100)
    with pytest.raises(ValueError):
        signal_spectrum_samples(hf_spec, (-1, 1), 1)


def test_source_spec_rejects_off_cluster_indices(hf_spec):
    with pytest.raises(ValueError):
        type(hf_spec)(
            nu_p0=hf_spec.nu_p0, sig=hf_spec.sig, idl=hf_spec.idl,
            k_s=hf_spec.k_s + 40_000, k_i=hf_spec.k_i, side_modes=1,
        )
    with pytest.raises(ValueError):
        type(hf_spec)(
            nu_p0=hf_spec.nu_p0, sig=hf_spec.sig, idl=hf_spec.idl,
            k_s=hf_spec.k_s, k_i=hf_spec.k_i, side_modes=-1,
        )
