import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cspdclink.checks import degenerate_source
from cspdclink.link import (
    LinkParams,
    attenuation,
    evaluate_link,
    fidelity_single,
    heralding_probability_single,
    improvement_ratios,
    solve_mu0_for_fidelity,
)
from cspdclink.spectral import mode_table


def test_attenuation_values():
    assert attenuation(0.0, 0.2) == 1.0
    assert attenuation(100.0, 0.2) == pytest.approx(0.1, rel=1e-12)
    assert attenuation(25.0, 0.2) == pytest.approx(10**-0.25, rel=1e-12)


def test_default_attenuation_back_solves_from_known_link_figures():
    # 0.2 dB/km is pinned by inverting the fidelity expression at the
    # 100 km / mu0 = 0.038 / eta_det = 0.9 operating point, F = 0.9003
    mu0, eta_det, fidelity = 0.038, 0.9, 0.9003
    mu_prime = math.sqrt(fidelity * (1.0 + mu0) ** 3) - 1.0
    eta_att = mu_prime / (eta_det * mu0)
    alpha = -10.0 * math.log10(eta_att) / (100.0 / 2.0)
    assert alpha == pytest.approx(0.2, abs=2e-3)


def test_heralding_probability_values():
    assert heralding_probability_single(0.0, 1.0, 1.0) == 0.0
    eta25 = attenuation(25.0, 0.2)
    assert 100 * heralding_probability_single(0.010, eta25, 0.9) == pytest.approx(
        1.00, abs=5e-3
    )
    eta100 = attenuation(100.0, 0.2)
    assert 100 * heralding_probability_single(0.038, eta100, 0.9) == pytest.approx(
        0.679, abs=5e-4
    )


def test_fidelity_values():
    assert fidelity_single(0.0, 1.0, 1.0) == 1.0
    eta25 = attenuation(25.0, 0.2)
    assert fidelity_single(0.010, eta25, 0.9) == pytest.approx(0.9804, abs=5e-5)
    eta100 = attenuation(100.0, 0.2)
    assert fidelity_single(0.038, eta100, 0.9) == pytest.approx(0.9003, abs=5e-5)


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_heralding_probability_bounded_by_half(mu, eta_att, eta_det):
    p = heralding_probability_single(mu, eta_att, eta_det)
    assert 0.0 <= p <= 0.5 + 1e-15  # equality at mu' = 1, up to rounding


def test_heralding_probability_peaks_at_unit_loaded_mean():
    assert heralding_probability_single(1.0, 1.0, 1.0) == 0.5
    grid = np.linspace(0.0, 5.0, 2001)
    p = heralding_probability_single(grid, 1.0, 1.0)
    assert grid[np.argmax(p)] == pytest.approx(1.0, abs=5e-3)


def test_fidelity_bounded_and_strictly_decreasing():
    grid = np.linspace(0.0, 1.0, 2001)
    for eta in (0.05, 0.3, 1.0):
        f = fidelity_single(grid, eta, 0.9)
        assert np.all(f <= 1.0)
        assert np.all(np.diff(f) < 0.0)


def test_quantities_nonincreasing_in_distance():
    lengths = np.linspace(0.0, 200.0, 41)
    etas = np.array([attenuation(length, 0.2) for length in lengths])
    for mu in (0.01, 0.075, 0.5):
        probs = np.array([heralding_probability_single(mu, eta, 0.9) for eta in etas])
        fids = np.array([fidelity_single(mu, eta, 0.9) for eta in etas])
        assert np.all(np.diff(probs) <= 0.0)
        assert np.all(np.diff(fids) <= 0.0)


def test_evaluate_link_single_mode_degenerates():
    modes = mode_table(degenerate_source(2e6))
    params = LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.02)
    report = evaluate_link(modes, params)
    assert report.p_multi == pytest.approx(report.p_single_center, rel=1e-12)
    assert report.mu_multi == pytest.approx(0.02, rel=1e-12)
    assert report.f_min == pytest.approx(report.f_center, rel=1e-15)
    assert improvement_ratios(report) == (pytest.approx(1.0), pytest.approx(1.0))


def test_evaluate_link_reproduces_design_operating_points(hf_modes):
    report = evaluate_link(hf_modes, LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.010))
    assert 100 * report.p_multi == pytest.approx(51.2, abs=0.3)
    assert report.mu_multi == pytest.approx(0.711, abs=0.005)
    assert report.f_min == pytest.approx(0.9804, abs=2e-4)

    report = evaluate_link(hf_modes, LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.054))
    assert 100 * report.p_multi == pytest.approx(97.8, abs=0.2)
    assert report.f_min == pytest.approx(0.9014, abs=2e-4)


def test_multiplexing_never_hurts(hf_modes):
    for mu0 in (0.001, 0.02, 0.075):
        report = evaluate_link(hf_modes, LinkParams(l_el_km=50.0, eta_det=0.9, mu0=mu0))
        assert report.p_multi >= float(np.max(report.p_single_k))
        assert report.p_multi >= report.p_single_center


def test_minimum_fidelity_sits_on_envelope_argmax(hf_modes):
    report = evaluate_link(hf_modes, LinkParams(l_el_km=50.0, eta_det=0.9, mu0=0.05))
    argmax_position = hf_modes.index_of(hf_modes.envelope_argmax())
    assert report.f_min == report.f_k[argmax_position]


def test_log_space_product_matches_naive(hf_modes):
    report = evaluate_link(hf_modes, LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.054))
    naive = 1.0 - np.prod(1.0 - report.p_single_k)
    assert abs(report.p_multi - naive) <= 1e-12


def test_evaluate_link_maps_photon_numbers_once(hf_modes, monkeypatch):
    # mu_k is mapped once per evaluation and shared by p_k and f_k
    from cspdclink import tmsv

    original, calls = tmsv.mean_photon_number, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tmsv, "mean_photon_number", counted)
    evaluate_link(hf_modes, LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.01))
    assert len(calls) == 1


def test_evaluate_link_rejects_underflowed_attenuation(hf_modes):
    params = LinkParams(l_el_km=100000.0, eta_det=0.9, mu0=0.01)
    assert params.eta_att == 0.0
    with pytest.raises(ValueError, match=r"eta_att=0\.0: must lie in \(0, 1\]"):
        evaluate_link(hf_modes, params)


def test_solver_round_trip():
    target = fidelity_single(0.02, attenuation(25.0, 0.2), 0.9)
    mu0 = solve_mu0_for_fidelity(target, 25.0, 0.9)
    assert mu0 == pytest.approx(0.02, rel=1e-12)


def assert_solve_matches_mpmath_root(target, length, eta_det, alpha):
    """The solved mu0 against a 40-digit root of (eta mu + 1)^2 - F (mu + 1)^3
    on (0, 1), with eta the float eta_att * eta_det the package uses:
    forward error at most 2e-15 relative, and the exact fidelity at mu0
    within 1e-15 of the target."""
    import mpmath

    mu0 = solve_mu0_for_fidelity(target, length, eta_det, alpha)
    eta = attenuation(length, alpha) * eta_det
    with mpmath.workdps(40):
        f, e, mu = mpmath.mpf(target), mpmath.mpf(eta), mpmath.mpf(mu0)
        root = mpmath.findroot(lambda m: (e * m + 1) ** 2 - f * (m + 1) ** 3,
                               (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
        forward = float(abs(mu - root) / root)
        backward = float(abs((e * mu + 1) ** 2 / (mu + 1) ** 3 - f))
    assert forward <= 2e-15, (mu0, float(root))
    assert backward <= 1e-15, (mu0, float(root))


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.05, max_value=1.0),
       st.sampled_from([0.0, 0.2, 0.35]),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       st.floats(min_value=1.0, max_value=15.0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_solver_matches_mpmath_root(length, eta_det, alpha, w, u, near_one):
    # targets uniform in (F_floor, 1), or at 1 - F = 10^-u
    f_floor = fidelity_single(1.0, attenuation(length, alpha), eta_det)
    target = 1.0 - 10.0**-u if near_one else f_floor + w * (1.0 - f_floor)
    assume(f_floor < target < 1.0)
    assert_solve_matches_mpmath_root(target, length, eta_det, alpha)


@pytest.mark.parametrize("length,eta_det,alpha", [
    (25.0, 0.9, 0.2), (0.0, 1.0, 0.0), (500.0, 0.05, 0.35),
])
def test_solver_matches_mpmath_root_at_the_range_ends(length, eta_det, alpha):
    f_floor = fidelity_single(1.0, attenuation(length, alpha), eta_det)
    assert_solve_matches_mpmath_root(math.nextafter(f_floor, 1.0), length, eta_det, alpha)
    assert_solve_matches_mpmath_root(1.0 - 2.0**-52, length, eta_det, alpha)


@pytest.mark.parametrize("length,target,expected", [
    (25.0, 0.9014, 0.054),
    (50.0, 0.9010, 0.044),
    (100.0, 0.9003, 0.038),
])
def test_solver_design_targets(length, target, expected):
    assert solve_mu0_for_fidelity(target, length, 0.9) == pytest.approx(
        expected, abs=1e-3
    )


def test_solver_rejects_unreachable_target():
    with pytest.raises(ValueError, match="achievable range"):
        solve_mu0_for_fidelity(0.05, 25.0, 0.9)
    with pytest.raises(ValueError, match="achievable range"):
        solve_mu0_for_fidelity(1.0, 25.0, 0.9)


def test_solver_floor_holds_for_huge_mu_max():
    # the floor F(mu_max) is computed in plain floats, so a huge mu_max
    # neither overflows (RuntimeWarning is an error here) nor moves the root
    assert solve_mu0_for_fidelity(0.9, 25.0, 0.9, mu_max=1e200) == \
        solve_mu0_for_fidelity(0.9, 25.0, 0.9)


@pytest.mark.parametrize("kwargs,message", [
    ({"mu_max": 0.0}, "mu_max=0.0"),
    ({"mu_max": math.inf}, "mu_max=inf"),
    ({"mu_max": math.nan}, "mu_max=nan"),
    ({"eta_det": 0.0}, "eta_det=0.0"),
    ({"eta_det": 1.5}, "eta_det=1.5"),
    ({"l_el_km": 100000.0}, "eta_att=0.0"),
])
def test_solver_checks_its_inputs(kwargs, message):
    args = {"f_target": 0.9, "l_el_km": 25.0, "eta_det": 0.9, **kwargs}
    with pytest.raises(ValueError, match=message):
        solve_mu0_for_fidelity(**args)


def test_solver_raises_instead_of_returning_an_unconverged_root(monkeypatch):
    import cspdclink.link as link

    monkeypatch.setattr(link, "_SOLVE_MAX_ITERATIONS", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 iterations"):
        solve_mu0_for_fidelity(0.9, 100.0, 0.9)


def test_improvement_ratios_guard(hf_modes):
    report = evaluate_link(hf_modes, LinkParams(l_el_km=25.0, eta_det=0.9, mu0=0.0))
    with pytest.raises(ValueError, match="mu0 = 0"):
        improvement_ratios(report)
    # a positive mu0 whose loaded mean 1e-300 * 1e-30 * 0.9 underflows to 0
    report = evaluate_link(hf_modes, LinkParams(l_el_km=3000.0, eta_det=0.9, mu0=1e-300))
    assert report.p_single_center == 0.0
    with pytest.raises(ValueError, match=r"at mu0 = 1e-300 rounds to 0"):
        improvement_ratios(report)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(l_el_km=-1.0, eta_det=0.9, mu0=0.01)
    with pytest.raises(ValueError):
        LinkParams(l_el_km=1.0, eta_det=0.0, mu0=0.01)
    with pytest.raises(ValueError):
        LinkParams(l_el_km=1.0, eta_det=0.9, mu0=-0.01)
    with pytest.raises(ValueError):
        attenuation(-1.0, 0.2)
