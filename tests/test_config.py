import pytest

from cspdclink.cli import EXIT_CONFIG_ERROR, main
from cspdclink.config import ConfigError, load_config

BASE = """\
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
detector_efficiency = 0.9
mu0 = 0.010
"""


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_load_resolves_cluster_and_defaults(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert (cfg.source.k_s, cfg.source.k_i) == (4084371, 1597761)
    assert cfg.alpha_att_db_per_km == 0.2
    assert cfg.out_format == "csv"
    assert cfg.table_sigfigs == 3
    assert cfg.lengths_km == (25.0, 50.0, 100.0)
    assert cfg.mu0_by_length == ((0.010,),) * 3
    echo = dict(cfg.echo)
    assert echo["k_signal"] == "4084371"
    assert echo["attenuation_db_per_km"] == "0.2"


def test_explicit_indices_skip_the_search(tmp_path):
    text = BASE.replace("signal_seed_wavelength_nm = 606.0",
                        "k_signal = 4084371\nk_idler = 1597761")
    cfg = load_config(write(tmp_path, text))
    assert (cfg.source.k_s, cfg.source.k_i) == (4084371, 1597761)


def test_grouped_mu0_lists(tmp_path):
    text = BASE.replace(
        "mu0 = 0.010",
        "mu0_by_length = 0.010 0.054; 0.010 0.044; 0.010 0.038",
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.mu0_by_length == ((0.010, 0.054), (0.010, 0.044), (0.010, 0.038))
    assert cfg.mu0_values == (0.010, 0.054, 0.044, 0.038)


def test_fidelity_targets_alone_are_sufficient(tmp_path):
    text = BASE.replace("mu0 = 0.010", "fidelity_targets = 0.95")
    cfg = load_config(write(tmp_path, text))
    assert cfg.fidelity_targets_by_length == ((0.95,),) * 3
    assert cfg.mu0_values == ()


@pytest.mark.parametrize("mutation,field", [
    (("mu0 = 0.010", "mu0 = "), "link.mu0"),
    (("mu0 = 0.010", ""), "link:"),
    (("lengths_km = 25, 50, 100\n", ""), "link.lengths_km"),
    (("detector_efficiency = 0.9", "detector_efficiency = 1.3"),
     "link.detector_efficiency"),
    (("fsr_signal_mhz = 121.120", "fsr_signal_mhz = -1"), "source.fsr_signal_mhz"),
    (("modes_per_side = 50", "modes_per_side = -2"), "source.modes_per_side"),
    (("mu0 = 0.010", "mu0 = 0.010\nfidelity_targets = 1.5"), "fidelity targets"),
    (("mu0 = 0.010", "mu0 = 0.010\nbogus_key = 1"), "link.bogus_key"),
    (("mu0 = 0.010", "mu0 = nan"), "link.mu0"),
    (("mu0 = 0.010", "mu0 = 0.010, inf"), "link.mu0"),
    (("finesse_signal = 61.0", "finesse_signal = inf"), "source.finesse_signal"),
])
def test_field_level_errors(tmp_path, mutation, field):
    old, new = mutation
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(write(tmp_path, BASE.replace(old, new)))


def test_modes_per_side_bounded_by_cluster_half_width(tmp_path):
    # floor(FSR_I / (2 |FSR_S - FSR_I|)) = floor(121.189 / 0.138) = 878
    assert load_config(write(tmp_path, BASE.replace(
        "modes_per_side = 50", "modes_per_side = 878"))).source.side_modes == 878
    # rejected from the config value alone, before any per-mode array exists
    for side_modes in (879, 10**15):
        with pytest.raises(ConfigError, match=r"source\.modes_per_side.*878"):
            load_config(write(tmp_path, BASE.replace(
                "modes_per_side = 50", f"modes_per_side = {side_modes}")))
    # equal FSRs: every order lies in one cluster, so no bound applies
    equal = BASE.replace("fsr_idler_mhz = 121.189", "fsr_idler_mhz = 121.120") \
                .replace("pump_wavelength_nm = 435.5359", "pump_frequency_mhz = 2422.4") \
                .replace("signal_seed_wavelength_nm = 606.0",
                         "k_signal = 10\nk_idler = 10") \
                .replace("modes_per_side = 50", "modes_per_side = 5000")
    assert load_config(write(tmp_path, equal)).source.side_modes == 5000


def test_pump_specification_is_exclusive(tmp_path):
    text = BASE.replace(
        "pump_wavelength_nm = 435.5359",
        "pump_wavelength_nm = 435.5359\npump_frequency_mhz = 1.0e9",
    )
    with pytest.raises(ConfigError, match="pump_wavelength_nm / pump_frequency_mhz"):
        load_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="pump_wavelength_nm / pump_frequency_mhz"):
        load_config(write(tmp_path, text.replace(
            "pump_wavelength_nm = 435.5359\npump_frequency_mhz = 1.0e9", "")))


def test_seed_required_without_indices(tmp_path):
    text = BASE.replace("signal_seed_wavelength_nm = 606.0\n", "")
    with pytest.raises(ConfigError, match="signal_seed"):
        load_config(write(tmp_path, text))


def test_indices_must_come_as_a_pair(tmp_path):
    text = BASE.replace("signal_seed_wavelength_nm = 606.0",
                        "signal_seed_wavelength_nm = 606.0\nk_signal = 4084371")
    with pytest.raises(ConfigError, match="k_signal and k_idler"):
        load_config(write(tmp_path, text))


def test_grouped_lists_must_match_length_count(tmp_path):
    text = BASE.replace("mu0 = 0.010", "mu0_by_length = 0.01; 0.02")
    with pytest.raises(ConfigError, match="one\\s+per configured length"):
        load_config(write(tmp_path, text))


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_output_and_spectrum_sections(tmp_path, capsys):
    text = BASE + (
        "\n[output]\ndirectory = artifacts\nformat = json\ntable_sigfigs = 4\n"
        "\n[spectrum]\npoints = 501\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.out_dir == "artifacts"
    assert cfg.out_format == "json"
    assert cfg.table_sigfigs == 4
    assert cfg.spectrum_points == 501
    unknown = write(tmp_path, text + "pump_sigma_mhz = 2.5\n")
    assert main(["modes", "--config", unknown, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert "spectrum.pump_sigma_mhz: unknown key" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="output.format"):
        load_config(write(tmp_path, text.replace("format = json", "format = xml")))
