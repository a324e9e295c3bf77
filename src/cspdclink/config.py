"""Run-configuration parsing.

A run is described by one INI-style file with flat sections and explicit
units in the key names; everything converts to Hz / km once, here.  The
resolved configuration also carries a deterministic key/value echo that
output artifacts embed so runs stay self-describing.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .cavity import C_VACUUM, CavityParams, find_main_cluster
from .link import DEFAULT_ATTENUATION_DB_PER_KM
from .spectral import SourceSpec


class ConfigError(ValueError):
    """Invalid or incomplete run configuration; the message names the field."""


_KNOWN_KEYS = {
    "source": {
        "pump_wavelength_nm",
        "pump_frequency_mhz",
        "fsr_signal_mhz",
        "fsr_idler_mhz",
        "finesse_signal",
        "finesse_idler",
        "k_signal",
        "k_idler",
        "signal_seed_wavelength_nm",
        "signal_seed_frequency_mhz",
        "modes_per_side",
    },
    "link": {
        "lengths_km",
        "attenuation_db_per_km",
        "detector_efficiency",
        "mu0",
        "mu0_by_length",
        "fidelity_targets",
        "fidelity_targets_by_length",
    },
    "output": {"directory", "format", "table_sigfigs"},
    "spectrum": {"points"},
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


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: not a finite number: {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [piece for piece in raw.replace(",", " ").split() if piece]
    if not items:
        raise ConfigError(f"{section}.{key}: empty list")
    return tuple(_parse_float(section, key, piece) for piece in items)


def _parse_grouped_floats(
    section: str, key: str, raw: str, n_groups: int
) -> tuple[tuple[float, ...], ...]:
    groups = raw.split(";")
    if len(groups) != n_groups:
        raise ConfigError(
            f"{section}.{key}: {len(groups)} ';'-separated groups, expected one "
            f"per configured length ({n_groups})"
        )
    return tuple(_parse_float_list(section, key, group) for group in groups)


def _require_positive(section: str, key: str, value: float) -> float:
    if value <= 0.0:
        raise ConfigError(f"{section}.{key}: must be positive, got {value}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and resolve a run-configuration file.

    Raises :class:`ConfigError` naming the offending field on any problem.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
    for section in ("source", "link"):
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    src = parser["source"]
    lnk = parser["link"]
    out = parser["output"] if "output" in parser else {}
    spc = parser["spectrum"] if "spectrum" in parser else {}

    # --- source ---
    if ("pump_wavelength_nm" in src) == ("pump_frequency_mhz" in src):
        raise ConfigError(
            "source: exactly one of pump_wavelength_nm / pump_frequency_mhz is required"
        )
    if "pump_wavelength_nm" in src:
        lam = _require_positive(
            "source", "pump_wavelength_nm",
            _parse_float("source", "pump_wavelength_nm", src["pump_wavelength_nm"]),
        )
        nu_p0 = C_VACUUM / (lam * 1e-9)
    else:
        nu_p0 = 1e6 * _require_positive(
            "source", "pump_frequency_mhz",
            _parse_float("source", "pump_frequency_mhz", src["pump_frequency_mhz"]),
        )

    for key in ("fsr_signal_mhz", "fsr_idler_mhz", "finesse_signal", "finesse_idler",
                "modes_per_side"):
        if key not in src:
            raise ConfigError(f"source.{key}: required")
    sig = CavityParams(
        fsr=1e6 * _require_positive(
            "source", "fsr_signal_mhz",
            _parse_float("source", "fsr_signal_mhz", src["fsr_signal_mhz"]),
        ),
        finesse=_require_positive(
            "source", "finesse_signal",
            _parse_float("source", "finesse_signal", src["finesse_signal"]),
        ),
    )
    idl = CavityParams(
        fsr=1e6 * _require_positive(
            "source", "fsr_idler_mhz",
            _parse_float("source", "fsr_idler_mhz", src["fsr_idler_mhz"]),
        ),
        finesse=_require_positive(
            "source", "finesse_idler",
            _parse_float("source", "finesse_idler", src["finesse_idler"]),
        ),
    )
    side_modes = _parse_int("source", "modes_per_side", src["modes_per_side"])
    if side_modes < 0:
        raise ConfigError(f"source.modes_per_side: must be non-negative, got {side_modes}")
    if sig.fsr != idl.fsr:
        # beyond the cluster half-width the modes belong to neighbouring clusters
        half_width = math.floor(idl.fsr / (2.0 * abs(sig.fsr - idl.fsr)))
        if side_modes > half_width:
            raise ConfigError(
                f"source.modes_per_side: {side_modes} exceeds the main-cluster "
                f"half-width floor(FSR_I / (2 |FSR_S - FSR_I|)) = {half_width}"
            )

    if ("k_signal" in src) != ("k_idler" in src):
        raise ConfigError("source: k_signal and k_idler must be given together")
    if "k_signal" in src:
        k_s = _parse_int("source", "k_signal", src["k_signal"])
        k_i = _parse_int("source", "k_idler", src["k_idler"])
    else:
        if ("signal_seed_wavelength_nm" in src) == ("signal_seed_frequency_mhz" in src):
            raise ConfigError(
                "source: without explicit k_signal/k_idler, exactly one of "
                "signal_seed_wavelength_nm / signal_seed_frequency_mhz is required"
            )
        if "signal_seed_wavelength_nm" in src:
            seed_lam = _require_positive(
                "source", "signal_seed_wavelength_nm",
                _parse_float(
                    "source", "signal_seed_wavelength_nm", src["signal_seed_wavelength_nm"]
                ),
            )
            nu_seed = C_VACUUM / (seed_lam * 1e-9)
        else:
            nu_seed = 1e6 * _require_positive(
                "source", "signal_seed_frequency_mhz",
                _parse_float(
                    "source", "signal_seed_frequency_mhz", src["signal_seed_frequency_mhz"]
                ),
            )
        if not nu_seed < nu_p0:
            raise ConfigError(
                "source: the signal seed must lie below the pump frequency"
            )
        k_s, k_i = find_main_cluster(nu_seed, nu_p0, sig, idl)

    try:
        source = SourceSpec(
            nu_p0=nu_p0, sig=sig, idl=idl, k_s=k_s, k_i=k_i, side_modes=side_modes
        )
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc

    # --- link ---
    if "lengths_km" not in lnk:
        raise ConfigError("link.lengths_km: required")
    lengths = _parse_float_list("link", "lengths_km", lnk["lengths_km"])
    if any(length < 0.0 for length in lengths):
        raise ConfigError("link.lengths_km: lengths must be non-negative")

    alpha = DEFAULT_ATTENUATION_DB_PER_KM
    if "attenuation_db_per_km" in lnk:
        alpha = _parse_float(
            "link", "attenuation_db_per_km", lnk["attenuation_db_per_km"]
        )
        if alpha < 0.0:
            raise ConfigError(
                f"link.attenuation_db_per_km: must be non-negative, got {alpha}"
            )

    if "detector_efficiency" not in lnk:
        raise ConfigError("link.detector_efficiency: required")
    eta_det = _parse_float("link", "detector_efficiency", lnk["detector_efficiency"])
    if not 0.0 < eta_det <= 1.0:
        raise ConfigError(
            f"link.detector_efficiency: must lie in (0, 1], got {eta_det}"
        )

    shared_mu0: tuple[float, ...] = ()
    if "mu0" in lnk:
        shared_mu0 = _parse_float_list("link", "mu0", lnk["mu0"])
        if any(value < 0.0 for value in shared_mu0):
            raise ConfigError("link.mu0: values must be non-negative")
    grouped_mu0: tuple[tuple[float, ...], ...] = tuple(() for _ in lengths)
    if "mu0_by_length" in lnk:
        grouped_mu0 = _parse_grouped_floats(
            "link", "mu0_by_length", lnk["mu0_by_length"], len(lengths)
        )
        if any(value < 0.0 for group in grouped_mu0 for value in group):
            raise ConfigError("link.mu0_by_length: values must be non-negative")
    mu0_by_length = tuple(
        shared_mu0 + group for group in grouped_mu0
    )

    shared_targets: tuple[float, ...] = ()
    if "fidelity_targets" in lnk:
        shared_targets = _parse_float_list(
            "link", "fidelity_targets", lnk["fidelity_targets"]
        )
    grouped_targets: tuple[tuple[float, ...], ...] = tuple(() for _ in lengths)
    if "fidelity_targets_by_length" in lnk:
        grouped_targets = _parse_grouped_floats(
            "link", "fidelity_targets_by_length",
            lnk["fidelity_targets_by_length"], len(lengths),
        )
    targets_by_length = tuple(shared_targets + group for group in grouped_targets)
    for group in targets_by_length:
        if any(not 0.0 < value < 1.0 for value in group):
            raise ConfigError("link fidelity targets must lie strictly in (0, 1)")

    if all(not group for group in mu0_by_length) and all(
        not group for group in targets_by_length
    ):
        raise ConfigError(
            "link: at least one of mu0 / mu0_by_length / fidelity_targets / "
            "fidelity_targets_by_length is required"
        )

    # --- output ---
    out_dir = out.get("directory", "out")
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: must be 'csv' or 'json', got {out_format!r}")
    table_sigfigs = 3
    if "table_sigfigs" in out:
        table_sigfigs = _parse_int("output", "table_sigfigs", out["table_sigfigs"])
        if table_sigfigs < 1:
            raise ConfigError(
                f"output.table_sigfigs: must be at least 1, got {table_sigfigs}"
            )

    # --- spectrum ---
    spectrum_points = 2001
    if "points" in spc:
        spectrum_points = _parse_int("spectrum", "points", spc["points"])
        if spectrum_points < 2:
            raise ConfigError(
                f"spectrum.points: need at least 2 samples, got {spectrum_points}"
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
        ("attenuation_db_per_km", repr(alpha)),
        ("detector_efficiency", repr(eta_det)),
        ("mu0_by_length", "; ".join(
            " ".join(repr(value) for value in group) for group in mu0_by_length
        )),
        ("fidelity_targets_by_length", "; ".join(
            " ".join(repr(value) for value in group) for group in targets_by_length
        )),
        ("table_sigfigs", str(table_sigfigs)),
    )

    return RunConfig(
        source=source,
        lengths_km=lengths,
        alpha_att_db_per_km=alpha,
        eta_det=eta_det,
        mu0_by_length=mu0_by_length,
        fidelity_targets_by_length=targets_by_length,
        out_dir=out_dir,
        out_format=out_format,
        table_sigfigs=table_sigfigs,
        spectrum_points=spectrum_points,
        echo=echo,
    )
