import json
import re
from pathlib import Path

import numpy as np
import pytest

from cspdclink.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERIC_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_modes,
    build_parser,
    build_solve,
    build_spectrum,
    build_table,
    main,
)
from cspdclink.config import load_config
from test_golden import GOLDEN, _config_texts

HF_TEXT = """\
[source]
pump_wavelength_nm = 435.5359
fsr_signal_mhz = 121.120
fsr_idler_mhz = 121.189
finesse_signal = 61.0
finesse_idler = 83.0
signal_seed_wavelength_nm = 606.0
modes_per_side = 50

[link]
lengths_km = 25, 50, 100
attenuation_db_per_km = 0.2
detector_efficiency = 0.9
mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075
"""

LF_TEXT = HF_TEXT.replace("finesse_signal = 61.0", "finesse_signal = 30.0") \
                 .replace("finesse_idler = 83.0", "finesse_idler = 30.0") \
                 .replace("lengths_km = 25, 50, 100", "lengths_km = 100") \
                 .replace("mu0_by_length = 0.010 0.054 0.075; "
                          "0.010 0.044 0.075; 0.010 0.038 0.075",
                          "mu0 = 0.038")


@pytest.fixture(scope="module")
def hf_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "hf.ini"
    path.write_text(HF_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def lf_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "lf.ini"
    path.write_text(LF_TEXT)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    preamble = [line for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("# ")]
    header = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return preamble, header, rows


def test_modes_artifact(hf_config, tmp_path):
    out = tmp_path / "a"
    assert main(["modes", "--config", hf_config, "--out", str(out), "--quiet"]) == EXIT_OK
    preamble, header, rows = read_csv(out / "modes.csv")
    assert any(line == "# k_signal = 4084371" for line in preamble)
    assert len(rows) == 101
    assert header[:5] == ["k", "delta_hz", "c_s", "c_i", "ratio"]
    ks = [int(row[0]) for row in rows]
    assert ks == list(range(-50, 51))
    by_k = {int(row[0]): row for row in rows}
    assert float(by_k[0][4]) == 1.0
    # envelope maximum sits on the smallest |detuning|
    ratios = np.array([float(row[4]) for row in rows])
    deltas = np.array([float(row[1]) for row in rows])
    assert np.argmax(ratios) == np.argmin(np.abs(deltas))
    # one mean-photon column per requested mu0 value
    assert sum(1 for name in header if name.startswith("mu_k_at_mu0_")) == 5


def test_modes_envelope_decays_slower_at_low_finesse(hf_config, lf_config, tmp_path):
    out_hf, out_lf = tmp_path / "hf", tmp_path / "lf"
    assert main(["modes", "--config", hf_config, "--out", str(out_hf), "--quiet"]) == EXIT_OK
    assert main(["modes", "--config", lf_config, "--out", str(out_lf), "--quiet"]) == EXIT_OK

    def edge_ratio(path):
        _, _, rows = read_csv(path)
        by_k = {int(row[0]): float(row[4]) for row in rows}
        return max(by_k[50], by_k[-50])

    assert edge_ratio(out_lf / "modes.csv") > edge_ratio(out_hf / "modes.csv")


REFERENCE_ROWS = {
    # (length, mu0): (p_single %, fidelity, mu_multi, p_multi %)
    (25.0, 0.010): ("1", "0.9804", "0.712", "51.2"),
    (25.0, 0.054): ("5.18", "0.9014", "3.83", "97.8"),
    (25.0, 0.075): ("7.05", "0.8672", "5.31", "99.5"),
    (50.0, 0.010): ("0.566", "0.9761", "0.712", "33.2"),
    (50.0, 0.044): ("2.44", "0.901", "3.12", "82.8"),
    (50.0, 0.075): ("4.09", "0.8397", "5.31", "94.9"),
    (100.0, 0.010): ("0.18", "0.9723", "0.712", "12"),
    (100.0, 0.038): ("0.679", "0.9003", "2.7", "38.4"),
    (100.0, 0.075): ("1.33", "0.8159", "5.31", "61.4"),
}


def test_table_matches_reference_layout(hf_config, tmp_path):
    out = tmp_path / "t"
    assert main(["table", "--config", hf_config, "--out", str(out), "--quiet"]) == EXIT_OK
    _, header, rows = read_csv(out / "table.csv")
    assert len(rows) == 18
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        key = (float(row[col["l_el_km"]]), float(row[col["mu0"]]))
        p_sm, fid, mu_mm, p_mm = REFERENCE_ROWS[key]
        if row[col["case"]] == "SM":
            assert row[col["heralding_prob_pct"]] == p_sm
            assert row[col["fidelity"]] == fid
            assert row[col["mu_ratio"]] == ""
        else:
            assert row[col["mean_photon_number"]] == mu_mm
            assert row[col["heralding_prob_pct"]] == p_mm
            assert row[col["fidelity"]] == fid
            assert row[col["mu_ratio"]] != ""


def test_table_full_heralding_prob_is_the_fraction_of_the_json_percent(hf_config, tmp_path):
    out = tmp_path / "t"
    for fmt in ("csv", "json"):
        assert main(["table", "--config", hf_config, "--out", str(out),
                     "--format", fmt, "--quiet"]) == EXIT_OK
    _, header, rows = read_csv(out / "table_full.csv")
    col = {name: i for i, name in enumerate(header)}
    assert "heralding_prob_pct" not in col
    json_rows = json.loads((out / "table.json").read_text())["rows"]
    assert len(rows) == len(json_rows)
    mm = [(row, js) for row, js in zip(rows, json_rows) if row[col["case"]] == "MM"]
    assert len(mm) == 9
    for row, js in mm:
        assert js["case"] == "MM"
        assert float(row[col["heralding_prob"]]) * 100.0 == js["heralding_prob_pct"]


def test_table_low_finesse_row(lf_config, tmp_path):
    out = tmp_path / "t"
    assert main(["table", "--config", lf_config, "--out", str(out), "--quiet"]) == EXIT_OK
    _, header, rows = read_csv(out / "table.csv")
    col = {name: i for i, name in enumerate(header)}
    mm = next(row for row in rows if row[col["case"]] == "MM")
    assert mm[col["mean_photon_number"]] == "3.46"
    assert mm[col["heralding_prob_pct"]] == "46.3"
    assert mm[col["fidelity"]] == "0.9003"
    assert mm[col["mu_ratio"]] == "91.1"
    assert mm[col["p_ratio"]] == "68.1"


def test_table_from_fidelity_targets_only(hf_config, tmp_path):
    text = HF_TEXT.replace(
        "mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
        "fidelity_targets_by_length = 0.9014; 0.9010; 0.9003",
    )
    cfg = tmp_path / "targets.ini"
    cfg.write_text(text)
    out = tmp_path / "t"
    assert main(["table", "--config", str(cfg), "--out", str(out), "--format", "json",
                 "--quiet"]) == EXIT_OK
    payload = json.loads((out / "table.json").read_text())
    sm = {row["l_el_km"]: row for row in payload["rows"] if row["case"] == "SM"}
    assert sm[25.0]["mu0"] == pytest.approx(0.054, abs=1e-3)
    assert sm[50.0]["mu0"] == pytest.approx(0.044, abs=1e-3)
    assert sm[100.0]["mu0"] == pytest.approx(0.038, abs=1e-3)
    for length, target in ((25.0, 0.9014), (50.0, 0.9010), (100.0, 0.9003)):
        assert sm[length]["fidelity"] == pytest.approx(target, abs=1e-4)
        assert sm[length]["mu0_origin"] == f"fidelity_target={target!r}"


def test_spectrum_artifact(hf_config, tmp_path):
    out = tmp_path / "s"
    assert main(["spectrum", "--config", hf_config, "--out", str(out),
                 "--window", "1", "--points", "6001", "--jsi-slice",
                 "--quiet"]) == EXIT_OK
    _, header, rows = read_csv(out / "spectrum.csv")
    assert header == ["nu_hz", "airy_product", "xi_center", "jsi_approx"]
    data = np.array([[float(x) for x in row] for row in rows])
    nu, airy_product, xi_center = data[:, 0], data[:, 1], data[:, 2]
    step = nu[1] - nu[0]
    # three per-mode peaks spaced by one signal FSR
    above = airy_product > 0.5
    rising = np.flatnonzero(np.diff(above.astype(int)) == 1)
    assert rising.size == 3
    np.testing.assert_allclose(np.diff(nu[rising]), 121.120e6, rtol=1e-3)
    # the centre-mode column peaks where the full spectrum peaks
    assert abs(nu[np.argmax(airy_product)] - nu[np.argmax(xi_center)]) <= step
    assert airy_product.max() >= 0.99
    assert xi_center.max() >= 0.99


def test_spectrum_window_forms(hf_config, tmp_path):
    out = tmp_path / "s"
    assert main(["spectrum", "--config", hf_config, "--out", str(out),
                 "--window", "0:2", "--points", "11", "--quiet"]) == EXIT_OK
    assert main(["spectrum", "--config", hf_config, "--out", str(out),
                 "--window", "nonsense", "--quiet"]) == EXIT_CONFIG_ERROR


def test_verify_passes_on_design_configs(hf_config, lf_config, tmp_path, capsys):
    assert main(["verify", "--config", hf_config, "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 6
    assert "[FAIL]" not in out
    assert main(["verify", "--config", lf_config, "--out", str(tmp_path)]) == EXIT_OK


def test_verify_passes_at_high_finesse_across_the_cluster(tmp_path, capsys):
    # the normalisation check's independent route must resolve far-detuned
    # modes whose two peaks sit many linewidths apart
    text = HF_TEXT.replace("finesse_signal = 61.0", "finesse_signal = 1000.0") \
                  .replace("finesse_idler = 83.0", "finesse_idler = 1000.0") \
                  .replace("modes_per_side = 50", "modes_per_side = 878")
    cfg = tmp_path / "hf1000.ini"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] mode-function-normalisation" in out


def test_verify_flags_low_finesse(hf_config, tmp_path, capsys):
    text = HF_TEXT.replace("finesse_signal = 61.0", "finesse_signal = 2.0")
    cfg = tmp_path / "low.ini"
    cfg.write_text(text)
    with pytest.warns(UserWarning):
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "[WARN] lorentzian-approximation-signal" in out
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED)


def test_verify_single_mode_reports_exact_equality(hf_config, tmp_path, capsys):
    text = HF_TEXT.replace("modes_per_side = 50", "modes_per_side = 0")
    cfg = tmp_path / "m0.ini"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tol=1.0e-12" in out
    assert "exactly" in out


SHIPPED = Path(__file__).resolve().parents[1] / "configs"

VERIFY_PASSED = [("PASS", name) for name in (
    "normalisation-closed-form-oracle", "mode-function-normalisation", "jsa-jsi-grid",
    "thermal-distribution", "lorentzian-sum-vs-airy-signal", "lorentzian-sum-vs-airy-idler",
)]


@pytest.mark.filterwarnings("ignore::cspdclink.cavity.LowFinesseWarning")
@pytest.mark.parametrize("source,expected", [
    ("highfinesse.ini", VERIFY_PASSED),
    ("lowfinesse.ini", VERIFY_PASSED),
    (("finesse_signal = 61.0", "finesse_signal = 2.0"),
     VERIFY_PASSED[:4] + [("WARN", "lorentzian-approximation-signal"), VERIFY_PASSED[5]]),
    (("modes_per_side = 50", "modes_per_side = 0"), VERIFY_PASSED),
])
def test_verify_line_contract(tmp_path, capsys, source, expected):
    # one "[STATUS] name:" line per check in a fixed order, then the verdict
    if isinstance(source, str):
        cfg = SHIPPED / source
    else:
        cfg = tmp_path / "edited.ini"
        cfg.write_text(HF_TEXT.replace(*source))
    # --quiet keeps the records: they are the command's result
    for quiet in ([], ["--quiet"]):
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path), *quiet]) == EXIT_OK
        *lines, verdict = capsys.readouterr().out.splitlines()
        assert [re.match(r"\[(\w+)\] ([\w-]+): ", line).groups() for line in lines] == expected
        assert verdict == "verification passed"


BUILDERS = {
    "modes": (build_modes, []),
    "table": (build_table, []),
    "spectrum": (build_spectrum, ["--window", "2", "--points", "501", "--jsi-slice"]),
    "solve": (build_solve, []),
}


@pytest.mark.parametrize("command", sorted(BUILDERS))
def test_builder_writes_and_prints_nothing(tmp_path, monkeypatch, capsys, command):
    # the golden run's config and arguments; main writes what the builder returns
    build, extra = BUILDERS[command]
    cfg = tmp_path / "targets.ini"
    cfg.write_text(_config_texts()["targets"])
    written = tmp_path / "written"
    for fmt in ("csv", "json"):
        assert main([command, "--config", str(cfg), "--out", str(written),
                     "--format", fmt, "--quiet", *extra]) == EXIT_OK
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    artifacts, summary = build(load_config(str(cfg)),
                               build_parser().parse_args([command, "--config", str(cfg), *extra]))
    assert list(work.iterdir()) == []
    assert capsys.readouterr() == ("", "")
    assert "{paths}" in summary
    files = {f"{artifact.stem}.{fmt}": artifact
             for artifact in artifacts for fmt in artifact.formats}
    assert sorted(files) == sorted(path.name for path in written.iterdir())
    assert {f"targets/{name}" for name in files} <= set(GOLDEN)
    for name, artifact in files.items():
        path = written / name
        if path.suffix == ".csv":
            header = read_csv(path)[1]
        else:
            header = list(json.loads(path.read_text())["rows"][0])
        assert [column for column, _ in artifact.columns] == header


def test_solve_command(hf_config, tmp_path, capsys):
    text = HF_TEXT.replace(
        "mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
        "fidelity_targets_by_length = 0.9014; 0.9010; 0.9003",
    )
    cfg = tmp_path / "solve.ini"
    cfg.write_text(text)
    out = tmp_path / "s"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, header, rows = read_csv(out / "solve.csv")
    assert header == ["l_el_km", "fidelity_target", "mu0", "fidelity_achieved"]
    solved = {float(row[0]): float(row[2]) for row in rows}
    assert solved[25.0] == pytest.approx(0.054, abs=1e-3)
    assert solved[100.0] == pytest.approx(0.038, abs=1e-3)


@pytest.mark.parametrize("command", ["solve", "table"])
def test_failed_fidelity_round_trip_is_a_numeric_error(tmp_path, capsys, monkeypatch,
                                                       command):
    import cspdclink.cli as cli

    monkeypatch.setattr(cli, "solve_mu0_for_fidelity", lambda target, *args: 0.5)
    cfg = tmp_path / "targets.ini"
    cfg.write_text(HF_TEXT.replace("[link]\n", "[link]\nfidelity_targets = 0.9\n"))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_NUMERIC_ERROR
    assert "round trip failed" in capsys.readouterr().err
    assert not out.exists()


def test_solve_without_targets_is_a_config_error(hf_config, capsys):
    assert main(["solve", "--config", hf_config, "--quiet"]) == EXIT_CONFIG_ERROR
    assert "fidelity_targets" in capsys.readouterr().err


def test_unreachable_target_is_a_numeric_error(tmp_path, capsys):
    text = HF_TEXT.replace(
        "mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
        "fidelity_targets = 0.05",
    )
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["table", "--config", str(cfg), "--quiet"]) == EXIT_NUMERIC_ERROR
    assert "achievable range" in capsys.readouterr().err


def test_attenuation_underflow_is_a_numeric_error(tmp_path, capsys):
    # 0.2 dB/km over 50000 km per arm: 10^-10000 underflows to 0.0
    text = HF_TEXT.replace("lengths_km = 25, 50, 100", "lengths_km = 25 100000").replace(
        "mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
        "mu0 = 0.01",
    )
    cfg = tmp_path / "far.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main(["table", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == EXIT_NUMERIC_ERROR
    assert capsys.readouterr().err == "numeric failure: eta_att=0.0: must lie in (0, 1]\n"
    assert not out.exists()


def test_config_error_exit(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[source]\nfsr_signal_mhz = -3\n")
    assert main(["modes", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert "configuration error" in capsys.readouterr().err


def test_quadrature_failure_exit_names_the_mode(hf_config, tmp_path, capsys,
                                                monkeypatch):
    import cspdclink.spectral as spectral

    monkeypatch.setattr(
        spectral, "_norm_integral", lambda delta, *widths: delta * np.nan
    )
    code = main(["modes", "--config", hf_config, "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_NUMERIC_ERROR
    err = capsys.readouterr().err
    assert "k=-50" in err and "not a finite positive number" in err


@pytest.mark.parametrize("mutation,field", [
    (("mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
      "mu0 = nan"), "link.mu0"),
    (("modes_per_side = 50", "modes_per_side = 2000"), "source.modes_per_side"),
    # above mu0 = 1 the fidelity is at most 1/2 at any loss
    (("mu0_by_length = 0.010 0.054 0.075; 0.010 0.044 0.075; 0.010 0.038 0.075",
      "mu0 = 1e300"), "link.mu0"),
    (("0.010 0.038 0.075", "0.010 0.038 1.5"), "link.mu0_by_length"),
])
def test_out_of_domain_config_exits_before_any_artifact(tmp_path, capsys,
                                                          mutation, field):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(HF_TEXT.replace(*mutation))
    out = tmp_path / "out"
    for command in ("modes", "table"):
        code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == EXIT_CONFIG_ERROR
        assert field in capsys.readouterr().err
    assert not out.exists()
