import math
import re
import tracemalloc
from pathlib import Path

import pytest

from cspdclink.cli import EXIT_CONFIG_ERROR, main
from cspdclink.config import SCHEMA, ConfigError, load_config

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
    (("mu0 = 0.010", "mu0 = 0.010\nfidelity_targets = 1.5"), "link.fidelity_targets"),
    (("mu0 = 0.010", "mu0 = 0.010\nbogus_key = 1"), "link.bogus_key"),
    (("mu0 = 0.010", "mu0 = nan"), "link.mu0"),
    (("mu0 = 0.010", "mu0 = 0.010, inf"), "link.mu0"),
    (("finesse_signal = 61.0", "finesse_signal = inf"), "source.finesse_signal"),
    (("finesse_signal = 61.0", "finesse_signal = 5e-324"), "source.finesse_signal"),
    (("finesse_idler = 83.0", "finesse_idler = 5e-324"), "source.finesse_idler"),
])
def test_field_level_errors(tmp_path, mutation, field):
    old, new = mutation
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(write(tmp_path, BASE.replace(old, new)))


def test_modes_per_side_bounded_by_cluster_half_width(tmp_path, capsys):
    # floor(FSR_I / (2 |FSR_S - FSR_I|)) = floor(121.189 / 0.138) = 878
    assert load_config(write(tmp_path, BASE.replace(
        "modes_per_side = 50", "modes_per_side = 878"))).source.side_modes == 878
    # rejected from the config value alone, before any per-mode array exists
    for side_modes in (879, 10**15):
        with pytest.raises(ConfigError, match=r"source\.modes_per_side.*878"):
            load_config(write(tmp_path, BASE.replace(
                "modes_per_side = 50", f"modes_per_side = {side_modes}")))
    # equal FSRs: every order lies in one cluster, so no half-width applies;
    # the window is bounded only by the resonance orders staying positive
    equal = BASE.replace("fsr_idler_mhz = 121.189", "fsr_idler_mhz = 121.120") \
                .replace("pump_wavelength_nm = 435.5359", "pump_frequency_mhz = 2422400") \
                .replace("signal_seed_wavelength_nm = 606.0",
                         "k_signal = 10000\nk_idler = 10000")
    assert load_config(write(tmp_path, equal.replace(
        "modes_per_side = 50", "modes_per_side = 9999"))).source.side_modes == 9999
    with pytest.raises(ConfigError, match=r"source\.modes_per_side.*order 0\b"):
        load_config(write(tmp_path, equal.replace(
            "modes_per_side = 50", "modes_per_side = 10000")))
    out = tmp_path / "out"
    huge = write(tmp_path, equal.replace("modes_per_side = 50", f"modes_per_side = {10**13}"))
    assert main(["modes", "--config", huge, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "source.modes_per_side" in capsys.readouterr().err
    assert not out.exists()


def test_frequencies_beyond_the_float_range_are_config_errors(tmp_path):
    # 1e303 MHz is an infinite FSR in Hz
    with pytest.raises(ConfigError, match=r"source: fsr=inf"):
        load_config(write(tmp_path, BASE.replace("121.120", "1e303")))
    # a 1e-306 Hz signal FSR puts the seed's order beyond the float range
    tiny = BASE.replace("121.120", "1e-312").replace("modes_per_side = 50",
                                                    "modes_per_side = 0")
    with pytest.raises(ConfigError, match=r"^source: "):
        load_config(write(tmp_path, tiny))


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


# Keys whose edge values rules joining several keys refuse in BASE, so that
# only their own domain check is asserted there.
JOINED = {
    "source.pump_wavelength_nm": "the pump frequency leaves the float range",
    "source.pump_frequency_mhz": "the signal seed must lie below the pump",
    "source.fsr_signal_mhz": "the cluster half-width falls below modes_per_side",
    "source.fsr_idler_mhz": "the cluster half-width falls below modes_per_side",
    "source.finesse_signal": "the linewidth fsr / finesse leaves the float range",
    "source.finesse_idler": "the linewidth fsr / finesse leaves the float range",
    "source.k_signal": "the orders must meet the pump within half an idler FSR",
    "source.k_idler": "the orders must meet the pump within half an idler FSR",
    "source.signal_seed_wavelength_nm": "the seed frequency leaves the float range",
}

# The edit of BASE that makes room for a key: it drops the other half of its
# either/or pair.
MAKE_ROOM = {
    "pump_frequency_mhz": ("pump_wavelength_nm = 435.5359\n", ""),
    "signal_seed_frequency_mhz": ("signal_seed_wavelength_nm = 606.0\n", ""),
    "k_signal": ("signal_seed_wavelength_nm = 606.0\n",
                 "k_signal = 4084371\nk_idler = 1597761\n"),
}
MAKE_ROOM["k_idler"] = MAKE_ROOM["k_signal"]

NUMERIC_KEYS = [
    f"{section}.{name}"
    for section, keys in SCHEMA.items()
    for name, key in keys.items()
    if key.kind not in ("choice", "text")
]


def with_value(name, raw):
    """BASE with ``section.key = raw``; grouped keys get one group per length."""
    section, key = name.split(".")
    if SCHEMA[section][key].kind == "groups":
        raw = "; ".join([raw] * 3)
    text = BASE.replace(*MAKE_ROOM.get(key, ("", "")))
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"{key} ="))
    header = f"[{section}]\n"
    if header not in text:
        text += "\n" + header
    return text.replace(header, f"{header}{key} = {raw}\n")


def domain_edges(kind, domain):
    """(inside, outside) value pairs at each finite end of an interval."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    edges = []
    for bound, is_open, inward in ((lo, domain[0] == "(", 1.0), (hi, domain[-1] == ")", -1.0)):
        if math.isinf(bound):
            continue
        if kind == "int":
            edges.append((int(bound), int(bound - inward)))
        elif is_open:
            edges.append((math.nextafter(bound, bound + inward), bound))
        else:
            edges.append((bound, math.nextafter(bound, bound - inward)))
    return edges


@pytest.mark.filterwarnings("ignore::cspdclink.cavity.LowFinesseWarning")
@pytest.mark.parametrize("name", NUMERIC_KEYS)
def test_every_numeric_key_is_checked_against_its_domain(tmp_path, capsys, name):
    section, key = name.split(".")
    spec = SCHEMA[section][key]
    edges = domain_edges(spec.kind, spec.domain)
    assert edges, f"{name}: domain {spec.domain} has no finite end"
    out = tmp_path / "out"
    for inside, outside in edges:
        path = write(tmp_path, with_value(name, repr(inside)))
        if name in JOINED:
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert "must lie in" not in str(err.value), JOINED[name]
        else:
            load_config(path)
        for raw in (repr(outside), "nan", "inf"):
            path = write(tmp_path, with_value(name, raw))
            assert main(["modes", "--config", path, "--out", str(out), "--quiet"]) \
                == EXIT_CONFIG_ERROR, raw
            assert f"configuration error: {name}: " in capsys.readouterr().err, raw
    assert not out.exists()


def test_fsrs_one_hz_apart_exit_2_without_a_per_order_array(tmp_path, capsys):
    # the cluster nearest the seed is centred 20 million orders below zero; the
    # scan this replaced built 924 MiB arrays to find it
    text = BASE.replace("fsr_idler_mhz = 121.189", "fsr_idler_mhz = 121.120001")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["modes", "--config", write(tmp_path, text), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "source.modes_per_side" in err and "order -20641798" in err
    assert peak < 1e6
    assert not out.exists()


def test_readme_states_every_key_and_its_domain_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)` \| [^|]+ \| ([^|]+?) \|", readme, re.MULTILINE)

    def shown(key):
        if isinstance(key.domain, str):
            return key.domain
        return ", ".join(key.domain) if key.domain else "any"

    assert len(rows) == len(dict(rows))
    assert dict(rows) == {
        f"{section}.{name}": shown(key)
        for section, keys in SCHEMA.items() for name, key in keys.items()
    }
