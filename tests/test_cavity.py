import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdclink.cavity import (
    C_VACUUM,
    CavityParams,
    LowFinesseWarning,
    airy_lorentzian_sum,
    airy_normalized,
    find_main_cluster,
    resonance_indices,
)
from conftest import make_source

HF_SIG = CavityParams(fsr=121.120e6, finesse=61.0)


def test_airy_peak_is_exactly_one():
    assert airy_normalized(3 * HF_SIG.fsr, HF_SIG) == 1.0
    assert airy_normalized(0.0, HF_SIG) == 1.0


def test_airy_midpoint_matches_scanned_minimum():
    # independent oracle: dense scan of the profile minimum over one period
    nu = np.linspace(0.0, HF_SIG.fsr, 2_000_001)
    scanned_min = float(np.min(airy_normalized(nu, HF_SIG)))
    at_midpoint = airy_normalized(HF_SIG.fsr / 2.0, HF_SIG)
    assert at_midpoint == pytest.approx(scanned_min, rel=1e-9)
    # frozen from symbolic evaluation of 1 / (1 + (122/pi)^2)
    assert at_midpoint == pytest.approx(6.6266220016945247e-4, rel=1e-12)


@pytest.mark.parametrize("m", [-2, 0, 1, 5])
def test_airy_half_max_at_half_linewidth(m):
    # small-angle oracle: half max sits fwhm/2 from each peak
    value = airy_normalized(m * HF_SIG.fsr + HF_SIG.fwhm / 2.0, HF_SIG)
    assert abs(value - 0.5) <= 1e-3


@pytest.mark.parametrize("finesse", [30.0, 45.0, 61.0, 83.0, 200.0])
def test_airy_half_max_property(finesse):
    cav = CavityParams(fsr=1e8, finesse=finesse)
    assert abs(airy_normalized(cav.fwhm / 2.0, cav) - 0.5) <= 2e-3


def test_airy_periodicity_and_bounds():
    cav = CavityParams(fsr=121.120e6, finesse=61.0)
    nu = np.linspace(-2.3 * cav.fsr, 2.7 * cav.fsr, 5001)
    values = airy_normalized(nu, cav)
    shifted = airy_normalized(nu + cav.fsr, cav)
    np.testing.assert_allclose(shifted, values, rtol=1e-12)
    assert np.all(values > 0.0)
    assert np.all(values <= 1.0)
    on_peak = np.isclose(nu / cav.fsr, np.round(nu / cav.fsr), rtol=0.0, atol=1e-12)
    assert np.all((values < 1.0) | on_peak)


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=10.0, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_airy_bounds_hypothesis(x, finesse):
    cav = CavityParams(fsr=1.0, finesse=finesse)
    value = airy_normalized(x, cav)
    assert 0.0 < value <= 1.0


def test_cavity_params_identity_and_validity_flag():
    cav = CavityParams(fsr=121.120e6, finesse=61.0)
    assert cav.fwhm * cav.finesse == pytest.approx(cav.fsr, rel=1e-15)
    assert cav.lorentzian_valid
    with pytest.warns(LowFinesseWarning):
        low = CavityParams(fsr=1e8, finesse=2.0)
    assert not low.lorentzian_valid


@pytest.mark.filterwarnings("ignore::cspdclink.cavity.LowFinesseWarning")
@pytest.mark.parametrize("g", [0.5, 0.9, 0.99])
def test_partial_wave_sum_consistency(g):
    # brute-force oracle: the buildup series sum_n (g e^(-i phi))^n, truncated
    # after 1e4 round trips, must reproduce the unit-peak profile of finesse
    # pi sqrt(g) / (1 - g) scaled by its peak 1 / (1 - g)^2, to 1e-6
    cav = CavityParams(fsr=C_VACUUM / 2.5, finesse=math.pi * math.sqrt(g) / (1.0 - g))
    nu = np.linspace(0.0, cav.fsr, 101)
    z = g * np.exp(-2j * np.pi * nu / cav.fsr)
    total = np.zeros_like(z)
    for _ in range(10_000):
        total = total * z + 1.0
    closed = airy_normalized(nu, cav) / (1.0 - g) ** 2
    np.testing.assert_allclose(np.abs(total) ** 2, closed, rtol=1e-6)


def test_resonance_indices_exact_alignment():
    sig = CavityParams(fsr=100e6, finesse=60.0)
    idl = CavityParams(fsr=80e6, finesse=60.0)
    nu_s0 = 123.0 * sig.fsr
    nu_p0 = nu_s0 + 456.0 * idl.fsr
    assert resonance_indices(nu_s0, nu_p0, sig, idl) == (123, 456)


def test_resonance_indices_rounding_bound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        sig = CavityParams(fsr=rng.uniform(50e6, 200e6), finesse=50.0)
        idl = CavityParams(fsr=rng.uniform(50e6, 200e6), finesse=50.0)
        nu_s0 = rng.uniform(1e14, 6e14)
        nu_p0 = nu_s0 + rng.uniform(1e14, 4e14)
        k_s, k_i = resonance_indices(nu_s0, nu_p0, sig, idl)
        assert abs(k_s * sig.fsr + k_i * idl.fsr - nu_p0) <= idl.fsr / 2.0


def test_resonance_indices_half_grid_ties_round_to_even():
    sig = CavityParams(fsr=1.0, finesse=50.0)
    idl = CavityParams(fsr=1.0, finesse=50.0)
    assert resonance_indices(10.5, 100.0, sig, idl)[0] == 10
    assert resonance_indices(11.5, 100.0, sig, idl)[0] == 12
    # idler side: remainder lands exactly on a half grid step
    assert resonance_indices(10.0, 17.5, sig, idl) == (10, 8)


def test_resonance_indices_requires_seed_below_pump():
    sig = CavityParams(fsr=1e8, finesse=50.0)
    with pytest.raises(ValueError):
        resonance_indices(2e14, 1e14, sig, sig)


def test_find_main_cluster_reproduces_design_point():
    spec = make_source(61.0, 83.0)
    assert (spec.k_s, spec.k_i) == (4084371, 1597761)
    # the seed rounding alone lands ~66 orders away; the residual scan is
    # what pins the cluster centre
    assert abs(spec.k_s * spec.sig.fsr + spec.k_i * spec.idl.fsr - spec.nu_p0) < 2e4


def scan_main_cluster(nu_s_seed, nu_p0, sig, idl):
    """Reference search: the residual at every signal order of the window
    find_main_cluster searches, first minimum (lower K_S) on ties."""
    base_s, _ = resonance_indices(nu_s_seed, nu_p0, sig, idl)
    halfwidth = math.ceil(0.5 * idl.fsr / abs(sig.fsr - idl.fsr)) + 2
    m_s = np.arange(base_s - halfwidth, base_s + halfwidth + 1, dtype=float)
    m_i = np.round((nu_p0 - m_s * sig.fsr) / idl.fsr)
    best = int(np.argmin(np.abs(m_s * sig.fsr + m_i * idl.fsr - nu_p0)))
    return int(m_s[best]), int(m_i[best])


@given(fsr_i=st.floats(5e7, 5e8), period=st.floats(1.5, 3e4),
       sign=st.sampled_from([-1.0, 1.0]), nu_p0=st.floats(1e14, 1e15),
       seed_frac=st.floats(0.2, 0.8))
@settings(max_examples=300, deadline=None)
def test_find_main_cluster_equals_the_scan(fsr_i, period, sign, nu_p0, seed_frac):
    # period = FSR_I / |FSR_S - FSR_I|, the cluster spacing in signal orders
    sig = CavityParams(fsr=fsr_i * (1.0 + sign / period), finesse=50.0)
    idl = CavityParams(fsr=fsr_i, finesse=50.0)
    seed = seed_frac * nu_p0
    assert find_main_cluster(seed, nu_p0, sig, idl) == scan_main_cluster(seed, nu_p0, sig, idl)


@given(fsr_s=st.integers(1, 40), fsr_i=st.integers(1, 40),
       nu_p0=st.integers(100, 5000), seed=st.integers(1, 99))
@settings(max_examples=300, deadline=None)
def test_find_main_cluster_equals_the_scan_on_integer_grids(fsr_s, fsr_i, nu_p0, seed):
    # integer frequencies tie residuals exactly, so the lower-K_S rule shows
    if fsr_s == fsr_i:
        fsr_s += 1
    sig = CavityParams(fsr=float(fsr_s), finesse=50.0)
    idl = CavityParams(fsr=float(fsr_i), finesse=50.0)
    args = (float(seed), float(nu_p0), sig, idl)
    assert find_main_cluster(*args) == scan_main_cluster(*args)


@pytest.mark.parametrize("ratio", [1e-9, 1e3, 1e9])
def test_find_main_cluster_equals_the_scan_for_far_apart_fsrs(ratio):
    # FSR_S >> FSR_I puts about FSR_S / FSR_I residual zeros in a window of
    # seven orders, so only the orders themselves are evaluated
    sig = CavityParams(fsr=121.12e6 * ratio, finesse=50.0)
    idl = CavityParams(fsr=121.12e6, finesse=50.0)
    args = (C_VACUUM / 606e-9, C_VACUUM / 435.5359e-9, sig, idl)
    assert find_main_cluster(*args) == scan_main_cluster(*args)


def test_airy_lorentzian_sum_peak_and_neighbor_tail():
    cav = CavityParams(fsr=121.120e6, finesse=61.0)
    value = airy_lorentzian_sum(0.0, cav, -50, 50)
    neighbors = sum(
        1.0 / (1.0 + (2.0 * cav.finesse * n) ** 2)
        for n in range(-50, 51) if n != 0
    )
    assert value == pytest.approx(1.0 + neighbors, rel=1e-12)
    assert abs(value - 1.0) < 5e-4


@pytest.mark.parametrize("finesse,bound", [(30.0, 1e-3), (61.0, 1e-3), (83.0, 1e-3)])
def test_airy_lorentzian_sum_tracks_airy(finesse, bound):
    cav = CavityParams(fsr=1e8, finesse=finesse)
    nu = np.linspace(0.0, cav.fsr, 100_001)
    deviation = np.abs(airy_lorentzian_sum(nu, cav, -50, 50) - airy_normalized(nu, cav))
    assert float(deviation.max()) <= bound


def test_airy_lorentzian_sum_rejects_empty_window():
    with pytest.raises(ValueError):
        airy_lorentzian_sum(0.0, HF_SIG, 3, 2)


def test_low_finesse_warns_once_at_construction():
    with pytest.warns(LowFinesseWarning):
        low = CavityParams(fsr=1e8, finesse=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        airy_lorentzian_sum(0.0, low, -5, 5)
