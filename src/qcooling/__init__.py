"""Cooling dynamics of a damped quantum oscillator: closed-form laws,
Fock-space master-equation integrators with time-dependent rates, the
diagonal population ladder, and thermal-correlator verification tools."""

from .core import PhysicalScales, high_temp_occupation, occupation_from_temperature
from .laws import (CoolingParams, LawKind, evaluate_law,
                   half_thermalization_time, time_to_value)
from .lindblad import (IntegrationError, IntegratorConfig, RateLaw, RateModel,
                       Trajectory, check_density_matrix, default_dim,
                       integrate, lindblad_rhs, mean_occupation, number_state,
                       thermal_state)
from .ladder import evolve_populations
from .correlators import (LadderOp, ModeGrid, SpectralDensityResult,
                          bath_occupations, brute_force_four_point,
                          decay_constant, evolved_spectral_density,
                          thermal_two_point, wick_four_point)

__version__ = "0.1.0"

__all__ = [
    "PhysicalScales", "occupation_from_temperature", "high_temp_occupation",
    "LawKind", "CoolingParams", "evaluate_law",
    "half_thermalization_time", "time_to_value",
    "RateLaw", "RateModel", "IntegratorConfig", "Trajectory",
    "IntegrationError", "thermal_state", "number_state", "mean_occupation",
    "lindblad_rhs", "integrate", "default_dim", "check_density_matrix",
    "evolve_populations",
    "LadderOp", "thermal_two_point", "wick_four_point",
    "brute_force_four_point", "ModeGrid",
    "SpectralDensityResult", "evolved_spectral_density", "decay_constant",
    "bath_occupations",
]
