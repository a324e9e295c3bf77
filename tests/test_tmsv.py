import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdclink.checks import check_thermal
from cspdclink.tmsv import mean_photon_number, thermal_distribution


def test_thermal_distribution_values():
    assert thermal_distribution(0.0, 0) == 1.0
    assert thermal_distribution(0.0, 3) == 0.0
    assert thermal_distribution(1.0, 1) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("mu", [0.0, 0.01, 0.1, 1.0, 5.0])
def test_thermal_normalization_and_mean(mu):
    assert check_thermal((mu,)).measured <= 1e-9


def test_thermal_distribution_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_distribution(-0.1, 0)
    with pytest.raises(ValueError):
        thermal_distribution(0.1, -1)
    with pytest.raises(ValueError):
        thermal_distribution(0.1, 1.5)


def test_mean_photon_number_reference_mode():
    assert mean_photon_number(0.010, 1.0) == pytest.approx(0.010, rel=1e-15)
    assert mean_photon_number(0.0, 0.5) == 0.0


def test_mean_photon_number_small_signal_limit():
    for mu0 in (1e-4, 1e-3, 0.01, 0.1):
        for ratio in (0.2, 0.6, 0.95):
            mu_k = mean_photon_number(mu0, ratio)
            limit = ratio**2 * mu0
            assert abs(mu_k - limit) / limit <= 2.0 * mu0


@given(st.floats(min_value=1e-6, max_value=0.99),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_mean_photon_number_monotone_in_mu0(mu0, ratio):
    assert mean_photon_number(mu0 * 1.5, ratio) > mean_photon_number(mu0, ratio)


def test_argmax_preserved_through_loading():
    rng = np.random.default_rng(13)
    for mu0 in (1e-3, 0.05, 0.7):
        ratios = rng.uniform(0.05, 1.0, size=31)
        mu = mean_photon_number(mu0, ratios)
        assert np.argmax(mu) == np.argmax(ratios)


def test_mean_photon_number_rejects_bad_input():
    with pytest.raises(ValueError):
        mean_photon_number(-0.1, 1.0)
    with pytest.raises(ValueError):
        mean_photon_number(0.1, 0.0)


def test_squeeze_ratio_center_is_exactly_one(hf_modes):
    assert hf_modes.ratio[hf_modes.index_of(0)] == 1.0


def test_squeeze_ratio_envelope_and_square_sum(hf_modes):
    assert np.all(hf_modes.ratio <= 1.0)
    assert np.all(hf_modes.ratio > 0.0)
    assert np.sum(hf_modes.ratio**2) == pytest.approx(71.1, abs=0.5)


def test_multiplexed_mean_photon_numbers(hf_modes, lf_modes):
    mu_hf = mean_photon_number(0.010, hf_modes.ratio)
    assert np.sum(mu_hf) == pytest.approx(0.711, abs=0.005)
    mu_lf = mean_photon_number(0.038, lf_modes.ratio)
    assert np.sum(mu_lf) == pytest.approx(3.46, abs=0.02)

