"""Run-configuration parsing.

One INI-style file with flat sections and units in the key names describes a
run; everything converts to Hz / km once, here.  :data:`SCHEMA` states each
key's kind and domain once, and one reader checks every key against it.  The
rules that join keys stay in :func:`load_config`, which also builds the
deterministic key/value echo that artifacts embed to stay self-describing.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .cavity import C_VACUUM, CavityParams, find_main_cluster
from .link import DEFAULT_ATTENUATION_DB_PER_KM
from .spectral import SourceSpec


class ConfigError(ValueError):
    """Invalid or incomplete run configuration; the message names the field."""


REQUIRED = "required"


class Key(NamedTuple):
    """One config key: ``kind`` is ``float``, ``int``, ``floats`` (a comma- or
    space-separated list), ``groups`` (``;``-separated float lists, one per
    link length), ``choice`` or ``text``; ``domain`` is the interval, such as
    ``(0, 1]``, that every number must lie in, or the words of a choice;
    ``default`` is the value of an absent key, :data:`REQUIRED`, or ``None``
    where :func:`load_config` resolves the absence."""

    kind: str
    domain: Any = None
    default: Any = None


SCHEMA: dict[str, dict[str, Key]] = {
    "source": {
        "pump_wavelength_nm": Key("float", "(0, inf)"),
        "pump_frequency_mhz": Key("float", "(0, inf)"),
        "fsr_signal_mhz": Key("float", "(0, inf)", REQUIRED),
        "fsr_idler_mhz": Key("float", "(0, inf)", REQUIRED),
        "finesse_signal": Key("float", "(0, inf)", REQUIRED),
        "finesse_idler": Key("float", "(0, inf)", REQUIRED),
        "k_signal": Key("int", "[1, inf)"),
        "k_idler": Key("int", "[1, inf)"),
        "signal_seed_wavelength_nm": Key("float", "(0, inf)"),
        "signal_seed_frequency_mhz": Key("float", "(0, inf)"),
        "modes_per_side": Key("int", "[0, inf)", REQUIRED),
    },
    "link": {
        "lengths_km": Key("floats", "[0, inf)", REQUIRED),
        "attenuation_db_per_km": Key("float", "[0, inf)", DEFAULT_ATTENUATION_DB_PER_KM),
        "detector_efficiency": Key("float", "(0, 1]", REQUIRED),
        "mu0": Key("floats", "[0, inf)", ()),
        "mu0_by_length": Key("groups", "[0, inf)"),
        "fidelity_targets": Key("floats", "(0, 1)", ()),
        "fidelity_targets_by_length": Key("groups", "(0, 1)"),
    },
    "output": {
        "directory": Key("text", default="out"),
        "format": Key("choice", ("csv", "json"), "csv"),
        "table_sigfigs": Key("int", "[1, inf)", 3),
    },
    "spectrum": {
        "points": Key("int", "[2, inf)", 2001),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (SI frequencies, km distances)."""

    source: SourceSpec
    lengths_km: tuple[float, ...]
    alpha_att_db_per_km: float
    eta_det: float
    mu0_by_length: tuple[tuple[float, ...], ...]
    fidelity_targets_by_length: tuple[tuple[float, ...], ...]
    out_dir: str
    out_format: str
    table_sigfigs: int
    spectrum_points: int
    echo: tuple[tuple[str, str], ...]

    @property
    def mu0_values(self) -> tuple[float, ...]:
        """All requested reference mean photon numbers, deduplicated in order."""
        seen: list[float] = []
        for group in self.mu0_by_length:
            for value in group:
                if value not in seen:
                    seen.append(value)
        return tuple(seen)


@functools.cache
def _interval(domain: str) -> Callable[[float], bool]:
    """Membership test of an interval written like ``(0, 1]``; nan is in none."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    closed_lo, closed_hi = domain[0] == "[", domain[-1] == "]"
    return lambda x: (lo < x or closed_lo and x == lo) and (x < hi or closed_hi and x == hi)


def _number(name: str, kind: str, domain: str, raw: str) -> float:
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        what = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{name}: not {what}: {raw!r}") from None
    if not _interval(domain)(value):
        raise ConfigError(f"{name}: must lie in {domain}, got {raw}")
    return value


def _numbers(name: str, domain: str, raw: str) -> tuple[float, ...]:
    items = raw.replace(",", " ").split()
    if not items:
        raise ConfigError(f"{name}: empty list")
    return tuple(_number(name, "float", domain, item) for item in items)


def _parse(name: str, key: Key, raw: str) -> Any:
    """Value of one key from its raw text, checked against its domain."""
    if key.kind == "groups":
        return tuple(_numbers(name, key.domain, group) for group in raw.split(";"))
    if key.kind == "floats":
        return _numbers(name, key.domain, raw)
    if key.kind == "choice":
        if raw not in key.domain:
            raise ConfigError(
                f"{name}: must be one of {', '.join(key.domain)}, got {raw!r}"
            )
        return raw
    if key.kind == "text":
        return raw
    return _number(name, key.kind, key.domain, raw)


def _read(parser: configparser.ConfigParser) -> dict[str, Any]:
    """Checked values of every key present, plus the defaults of absent ones.

    Key names are unique across sections, so the result is keyed by name.
    """
    values: dict[str, Any] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for name, raw in parser[section].items():
            if name not in SCHEMA[section]:
                raise ConfigError(f"{section}.{name}: unknown key")
            values[name] = _parse(f"{section}.{name}", SCHEMA[section][name], raw)
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            if name in values or key.default is None:
                continue
            if key.default is REQUIRED:
                raise ConfigError(f"{section}.{name}: required")
            values[name] = key.default
    return values


def _frequency_hz(values: dict[str, Any], wavelength_key: str, frequency_key: str) -> float:
    """Frequency in Hz from whichever of a wavelength (nm) / frequency (MHz)
    pair is set; ``load_config`` has checked that exactly one is."""
    if wavelength_key in values:
        key, metres = wavelength_key, values[wavelength_key] * 1e-9
        hz = C_VACUUM / metres if metres else math.inf
    else:
        key, hz = frequency_key, 1e6 * values[frequency_key]
    if not 0.0 < hz < math.inf:
        raise ConfigError(f"source.{key}: gives {hz!r} Hz, outside the float range")
    return hz


def _cavity(values: dict[str, Any], side: str) -> CavityParams:
    """The signal or idler resonator; a linewidth outside the float range
    names that side's finesse key."""
    try:
        return CavityParams(
            fsr=1e6 * values[f"fsr_{side}_mhz"], finesse=values[f"finesse_{side}"]
        )
    except ValueError as exc:
        field = f"source.finesse_{side}" if str(exc).startswith("finesse=") else "source"
        raise ConfigError(f"{field}: {exc}") from exc


def _by_length(
    values: dict[str, Any], shared_key: str, grouped_key: str
) -> tuple[tuple[float, ...], ...]:
    """The shared list followed by each length's own group."""
    n_lengths = len(values["lengths_km"])
    grouped = values.get(grouped_key, ((),) * n_lengths)
    if len(grouped) != n_lengths:
        raise ConfigError(
            f"link.{grouped_key}: {len(grouped)} ';'-separated groups, expected one "
            f"per configured length ({n_lengths})"
        )
    return tuple(values[shared_key] + group for group in grouped)


def _groups_text(groups: tuple[tuple[float, ...], ...]) -> str:
    return "; ".join(" ".join(repr(value) for value in group) for group in groups)


def load_config(path: str) -> RunConfig:
    """Parse and resolve a run-configuration file.

    Raises :class:`ConfigError` naming the offending field on any problem.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError(f"config file not found or unreadable: {path}")
    v = _read(parser)

    # --- source ---
    if ("pump_wavelength_nm" in v) == ("pump_frequency_mhz" in v):
        raise ConfigError(
            "source: exactly one of pump_wavelength_nm / pump_frequency_mhz is required"
        )
    nu_p0 = _frequency_hz(v, "pump_wavelength_nm", "pump_frequency_mhz")
    side_modes = v["modes_per_side"]
    sig, idl = (_cavity(v, side) for side in ("signal", "idler"))
    if sig.fsr != idl.fsr:
        # beyond the cluster half-width the modes belong to neighbouring clusters
        half_width = math.floor(idl.fsr / (2.0 * abs(sig.fsr - idl.fsr)))
        if side_modes > half_width:
            raise ConfigError(
                f"source.modes_per_side: {side_modes} exceeds the main-cluster "
                f"half-width floor(FSR_I / (2 |FSR_S - FSR_I|)) = {half_width}"
            )

    if ("k_signal" in v) != ("k_idler" in v):
        raise ConfigError("source: k_signal and k_idler must be given together")
    if "k_signal" not in v:
        if ("signal_seed_wavelength_nm" in v) == ("signal_seed_frequency_mhz" in v):
            raise ConfigError(
                "source: without explicit k_signal/k_idler, exactly one of "
                "signal_seed_wavelength_nm / signal_seed_frequency_mhz is required"
            )
        nu_seed = _frequency_hz(v, "signal_seed_wavelength_nm", "signal_seed_frequency_mhz")
        if not nu_seed < nu_p0:
            raise ConfigError("source: the signal seed must lie below the pump frequency")
    try:
        if "k_signal" in v:
            k_s, k_i = v["k_signal"], v["k_idler"]
        else:
            k_s, k_i = find_main_cluster(nu_seed, nu_p0, sig, idl)
        source = SourceSpec(
            nu_p0=nu_p0, sig=sig, idl=idl, k_s=k_s, k_i=k_i, side_modes=side_modes
        )
    except (ValueError, OverflowError) as exc:
        # an overflow is a seed-to-FSR ratio beyond the float range
        field = "source.modes_per_side" if str(exc).startswith("side_modes=") else "source"
        raise ConfigError(f"{field}: {exc}") from exc

    # --- link ---
    lengths = v["lengths_km"]
    mu0_by_length = _by_length(v, "mu0", "mu0_by_length")
    targets_by_length = _by_length(v, "fidelity_targets", "fidelity_targets_by_length")
    if not any(mu0_by_length) and not any(targets_by_length):
        raise ConfigError(
            "link: at least one of mu0 / mu0_by_length / fidelity_targets / "
            "fidelity_targets_by_length is required"
        )

    echo = (
        ("pump_frequency_hz", repr(nu_p0)),
        ("fsr_signal_hz", repr(sig.fsr)),
        ("fsr_idler_hz", repr(idl.fsr)),
        ("finesse_signal", repr(sig.finesse)),
        ("finesse_idler", repr(idl.finesse)),
        ("fwhm_signal_hz", repr(sig.fwhm)),
        ("fwhm_idler_hz", repr(idl.fwhm)),
        ("k_signal", str(k_s)),
        ("k_idler", str(k_i)),
        ("modes_per_side", str(side_modes)),
        ("lengths_km", " ".join(repr(length) for length in lengths)),
        ("attenuation_db_per_km", repr(v["attenuation_db_per_km"])),
        ("detector_efficiency", repr(v["detector_efficiency"])),
        ("mu0_by_length", _groups_text(mu0_by_length)),
        ("fidelity_targets_by_length", _groups_text(targets_by_length)),
        ("table_sigfigs", str(v["table_sigfigs"])),
    )

    return RunConfig(
        source=source,
        lengths_km=lengths,
        alpha_att_db_per_km=v["attenuation_db_per_km"],
        eta_det=v["detector_efficiency"],
        mu0_by_length=mu0_by_length,
        fidelity_targets_by_length=targets_by_length,
        out_dir=v["directory"],
        out_format=v["format"],
        table_sigfigs=v["table_sigfigs"],
        spectrum_points=v["points"],
        echo=echo,
    )
