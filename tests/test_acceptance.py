"""Acceptance suite.

Each test prints one pass/fail line with the measured quantities at its
stated tolerance (run with ``pytest tests/test_acceptance.py -v -s`` to see
every line).  The first seven checks pin the design operating points of
the high- and low-finesse sources; the property checks at the end run on
synthetic parameters only.
"""

import numpy as np

from cspdclink.cavity import (
    C_VACUUM,
    CavityParams,
    airy_normalized,
    find_main_cluster,
)
from cspdclink.checks import (
    check_jsa_jsi_grid,
    check_lorentzian_sum,
    check_mode_normalisation,
    check_normalisation_oracle,
    check_thermal,
)
from cspdclink.link import (
    LinkParams,
    attenuation,
    evaluate_link,
    fidelity_single,
    heralding_probability_single,
    improvement_ratios,
    solve_mu0_for_fidelity,
)
from cspdclink.spectral import SourceSpec
from cspdclink.tmsv import mean_photon_number
from conftest import adjacent_overlap_bound, normalized_mode_overlap

ETA_DET = 0.9

# (length_km, mu0): reference SM heralding %, fidelity, MM mean, MM heralding %
TABLE_HF = {
    (25.0, 0.010): (1.00, 0.9804, 0.711, 51.2),
    (25.0, 0.054): (5.18, 0.9014, 3.83, 97.8),
    (25.0, 0.075): (7.05, 0.8672, 5.31, 99.5),
    (50.0, 0.010): (0.566, 0.9761, 0.711, 33.2),
    (50.0, 0.044): (2.44, 0.9010, 3.12, 82.8),
    (50.0, 0.075): (4.09, 0.8397, 5.31, 94.9),
    (100.0, 0.010): (0.180, 0.9723, 0.711, 12.0),
    (100.0, 0.038): (0.679, 0.9003, 2.70, 38.4),
    (100.0, 0.075): (1.33, 0.8159, 5.31, 61.4),
}

# (length_km, mu0): reference improvement ratios (mean, heralding)
RATIOS_HF = {
    (25.0, 0.010): (71.1, 51.1),
    (25.0, 0.054): (70.9, 18.9),
    (25.0, 0.075): (70.8, 14.1),
    (50.0, 0.010): (71.1, 58.7),
    (50.0, 0.044): (71.0, 33.9),
    (50.0, 0.075): (70.8, 23.2),
    (100.0, 0.010): (71.1, 66.9),
    (100.0, 0.038): (71.0, 56.5),
    (100.0, 0.075): (70.8, 46.1),
}


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def sig3(x):
    return float(f"{x:.3g}")


def test_accept_1_link_table_reproduction(hf_modes):
    failures = []
    for (length, mu0), (p_sm, fid, mu_mm, p_mm) in TABLE_HF.items():
        eta_att = attenuation(length, 0.2)
        got_p_sm = 100.0 * heralding_probability_single(mu0, eta_att, ETA_DET)
        got_fid = fidelity_single(mu0, eta_att, ETA_DET)
        report = evaluate_link(
            hf_modes,
            LinkParams(l_el_km=length, eta_det=ETA_DET, mu0=mu0),
        )
        if sig3(got_p_sm) != p_sm:
            failures.append(f"SM P({length},{mu0})={got_p_sm:.4f} vs {p_sm}")
        if abs(got_fid - fid) > 5e-5:
            failures.append(f"F({length},{mu0})={got_fid:.5f} vs {fid}")
        if abs(report.mu_multi - mu_mm) > 0.01 * mu_mm:
            failures.append(f"MM mu({length},{mu0})={report.mu_multi:.4f} vs {mu_mm}")
        if abs(100.0 * report.p_multi - p_mm) > 0.01 * p_mm:
            failures.append(f"MM P({length},{mu0})={100 * report.p_multi:.3f} vs {p_mm}")
    check(
        "link-table-reproduction",
        not failures,
        failures or "9 scenarios, SM to 3 significant figures, MM within 1%",
    )


def test_accept_2_improvement_ratios(hf_modes):
    failures = []
    for (length, mu0), (mu_ratio, p_ratio) in RATIOS_HF.items():
        report = evaluate_link(
            hf_modes, LinkParams(l_el_km=length, eta_det=ETA_DET, mu0=mu0)
        )
        got_mu, got_p = improvement_ratios(report)
        if abs(got_mu - mu_ratio) > 0.5:
            failures.append(f"mu ratio({length},{mu0})={got_mu:.2f} vs {mu_ratio}")
        if abs(got_p - p_ratio) > 0.01 * p_ratio:
            failures.append(f"p ratio({length},{mu0})={got_p:.2f} vs {p_ratio}")
    check(
        "improvement-ratios",
        not failures,
        failures or "9 scenarios within +-0.5 (mean) and 1% (heralding)",
    )


def test_accept_3_low_finesse_table(lf_modes):
    report = evaluate_link(
        lf_modes, LinkParams(l_el_km=100.0, eta_det=ETA_DET, mu0=0.038)
    )
    mu_ratio, p_ratio = improvement_ratios(report)
    ok = (
        abs(report.mu_multi - 3.46) <= 0.02
        and abs(100.0 * report.p_multi - 46.3) <= 0.5
        and abs(mu_ratio - 91.1) <= 0.5
        and abs(p_ratio - 68.1) <= 0.5
    )
    check(
        "low-finesse-table",
        ok,
        f"mu_multi={report.mu_multi:.3f} (3.46+-0.02), "
        f"p_multi={100 * report.p_multi:.1f}% (46.3+-0.5), "
        f"ratios=({mu_ratio:.1f}, {p_ratio:.1f}) vs (91.1, 68.1)",
    )


def test_accept_4_fidelity_solver():
    targets = ((25.0, 0.9014, 0.054), (50.0, 0.9010, 0.044), (100.0, 0.9003, 0.038))
    solved = [solve_mu0_for_fidelity(t, length, ETA_DET) for length, t, _ in targets]
    ok = all(
        abs(got - expected) <= 1e-3
        for got, (_, _, expected) in zip(solved, targets)
    )
    check(
        "fidelity-solver",
        ok,
        ", ".join(
            f"L={length:g}: mu0={got:.4f} (target {expected})"
            for got, (length, _, expected) in zip(solved, targets)
        ),
    )


def test_accept_5_resonance_indices():
    sig = CavityParams(fsr=121.120e6, finesse=61.0)
    idl = CavityParams(fsr=121.189e6, finesse=83.0)
    nu_p0 = C_VACUUM / 435.5359e-9
    k_s, k_i = find_main_cluster(C_VACUUM / 606e-9, nu_p0, sig, idl)
    ok = (k_s, k_i) == (4084371, 1597761)
    check("resonance-indices", ok, f"(K_S, K_I)=({k_s}, {k_i}) vs (4084371, 1597761)")


def test_accept_6_quadrature_oracle():
    worst = check_normalisation_oracle((1e6, 2e6, 4e6)).measured
    check(
        "normalisation-closed-form-oracle",
        worst <= 1e-13,
        f"max relative deviation from pi*gamma/2 = {worst:.3e} (tol 1e-13)",
    )


def test_accept_7_amplitude_intensity_equivalence(hf_spec):
    dev_full = check_jsa_jsi_grid(hf_spec).measured
    single = SourceSpec(
        nu_p0=hf_spec.nu_p0, sig=hf_spec.sig, idl=hf_spec.idl,
        k_s=hf_spec.k_s, k_i=hf_spec.k_i, side_modes=0,
    )
    dev_single = check_jsa_jsi_grid(single).measured
    ok = dev_full <= 1e-3 and dev_single <= 1e-12
    check(
        "amplitude-intensity-equivalence",
        ok,
        f"200x200 grid deviation {dev_full:.3e} (tol 1e-3), "
        f"single mode {dev_single:.3e} (tol 1e-12)",
    )


# ---- property checks on synthetic parameters only ---------------------------


def synthetic_source(finesse_sig, finesse_idl, side_modes=3):
    # exact centre alignment: 3e6 * 1e8 + 2e6 * 100.063e6 is float-exact
    sig = CavityParams(fsr=100e6, finesse=finesse_sig)
    idl = CavityParams(fsr=100.063e6, finesse=finesse_idl)
    nu_p0 = 3_000_000 * sig.fsr + 2_000_000 * idl.fsr
    return SourceSpec(nu_p0=nu_p0, sig=sig, idl=idl,
                      k_s=3_000_000, k_i=2_000_000, side_modes=side_modes)


def test_accept_8a_thermal_distribution():
    worst = check_thermal((0.004, 0.06, 0.8, 2.5)).measured
    check("thermal-normalisation-and-mean", worst <= 1e-9,
          f"max deviation {worst:.3e} (tol 1e-9)")


def test_accept_8b_mode_function_normalisation():
    worst = max(
        check_mode_normalisation(spec, (-3, 0, 2)).measured
        for spec in (synthetic_source(33.0, 52.0), synthetic_source(76.0, 41.0))
    )
    check("mode-function-normalisation", worst <= 1e-9,
          f"max relative deviation {worst:.3e} (tol 1e-9)")


def test_accept_8c_near_orthogonality():
    # distinct modes at finesse >= 30, adjacent pairs included
    slack = 1e-2
    ok = True
    details = []
    for f_sig, f_idl in ((30.0, 30.0), (61.0, 83.0)):
        spec = synthetic_source(f_sig, f_idl)
        # the larger linewidth, from the stated finesse rather than the package
        gamma = max(spec.sig.fsr / f_sig, spec.idl.fsr / f_idl)
        for k, j in ((0, 1), (0, 2), (-1, 1)):
            overlap = normalized_mode_overlap(spec, k, j)
            bound = adjacent_overlap_bound(gamma, abs(k - j) * spec.sig.fsr)
            ok = ok and overlap <= (1.0 + slack) * bound
            details.append(f"finesse({f_sig:g},{f_idl:g}) modes({k},{j})="
                           f"{overlap:.4e} (B={bound:.4e})")
    check("near-orthogonality", ok,
          f"overlap <= (1 + {slack:g}) * gamma / AGM(sqrt(D^2 + gamma^2), gamma); "
          + ", ".join(details))


def test_accept_8d_monotonicity_grids():
    mu_grid = np.linspace(0.0, 1.0, 401)
    ok = True
    for eta_att in (0.08, 0.4, 1.0):
        fid = fidelity_single(mu_grid, eta_att, 0.85)
        ok = ok and bool(np.all(np.diff(fid) < 0.0))
    eta_grid = np.linspace(0.05, 1.0, 200)
    for mu in (0.01, 0.3, 0.9):
        p_of_eta = np.array(
            [heralding_probability_single(mu, eta, 0.85) for eta in eta_grid]
        )
        f_of_eta = np.array([fidelity_single(mu, eta, 0.85) for eta in eta_grid])
        ok = ok and bool(np.all(np.diff(p_of_eta) > 0.0))
        ok = ok and bool(np.all(np.diff(f_of_eta) > 0.0))
    check("monotonicity-grids", ok,
          "fidelity decreasing in mu; both figures increasing in transmission")


def test_accept_8e_multiplexing_never_hurts():
    from cspdclink.spectral import mode_table

    spec = synthetic_source(47.0, 38.0, side_modes=6)
    modes = mode_table(spec)
    ok = True
    for mu0 in (0.003, 0.05, 0.4):
        report = evaluate_link(modes, LinkParams(l_el_km=70.0, eta_det=0.8, mu0=mu0))
        ok = ok and report.p_multi >= report.p_single_center
        ok = ok and report.p_multi >= float(np.max(report.p_single_k))
    check("multiplexing-never-hurts", ok,
          "aggregate heralding >= every per-mode probability")


def test_accept_8f_argmax_preservation():
    rng = np.random.default_rng(17)
    ok = True
    for mu0 in (1e-3, 0.08, 0.9):
        ratios = rng.uniform(0.02, 1.0, size=41)
        mu = np.asarray(mean_photon_number(mu0, ratios))
        ok = ok and int(np.argmax(mu)) == int(np.argmax(ratios))
    check("squeeze-argmax-preservation", ok,
          "loading preserves the envelope argmax")


def test_accept_8g_airy_periodicity_and_bounds():
    cav = CavityParams(fsr=77e6, finesse=44.0)
    nu = np.linspace(-3.1 * cav.fsr, 3.1 * cav.fsr, 20_001)
    values = airy_normalized(nu, cav)
    periodic = np.allclose(airy_normalized(nu + cav.fsr, cav), values, rtol=1e-12)
    bounded = bool(np.all(values > 0.0) and np.all(values <= 1.0))
    peak = airy_normalized(2 * cav.fsr, cav) == 1.0
    check("airy-periodicity-and-bounds", periodic and bounded and peak,
          "profile periodic, in (0, 1], unit on resonance")


def test_accept_8h_lorentzian_sum_accuracy():
    worst = max(
        check_lorentzian_sum("signal", CavityParams(fsr=77e6, finesse=finesse)).measured
        for finesse in (30.0, 47.0, 90.0)
    )
    check("lorentzian-sum-vs-airy", worst <= 1e-3,
          f"max deviation {worst:.3e} over finesse >= 30 (tol 1e-3)")
