"""Frequency-multiplexed entanglement generation over repeater elementary
links fed by a doubly resonant cavity-enhanced pair source."""

__version__ = "0.1.0"

from .cavity import (
    C_VACUUM,
    CavityParams,
    LowFinesseWarning,
    airy_lorentzian_sum,
    airy_normalized,
    find_main_cluster,
    resonance_indices,
)
from .config import ConfigError, RunConfig, load_config
from .link import (
    LinkParams,
    LinkReport,
    attenuation,
    evaluate_link,
    fidelity_single,
    heralding_probability_single,
    improvement_ratios,
    solve_mu0_for_fidelity,
)
from .spectral import (
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
from .tmsv import (
    mean_photon_number,
    thermal_distribution,
)

__all__ = [
    "C_VACUUM",
    "CavityParams",
    "ConfigError",
    "LinkParams",
    "LinkReport",
    "LowFinesseWarning",
    "ModeTable",
    "QuadratureError",
    "RunConfig",
    "SourceSpec",
    "airy_lorentzian_sum",
    "airy_normalized",
    "attenuation",
    "cluster_detuning",
    "evaluate_link",
    "fidelity_single",
    "find_main_cluster",
    "heralding_probability_single",
    "improvement_ratios",
    "jsa_approx",
    "jsi_approx",
    "load_config",
    "mean_photon_number",
    "mode_amplitude_idler",
    "mode_amplitude_signal",
    "mode_table",
    "normalization_constants",
    "resonance_indices",
    "signal_spectrum_samples",
    "solve_mu0_for_fidelity",
    "thermal_distribution",
    "xi",
]
