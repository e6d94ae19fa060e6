import qcooling

PUBLIC = {
    "PhysicalScales", "occupation_from_temperature", "high_temp_occupation",
    "LawKind", "CoolingParams", "evaluate_law", "half_thermalization_time",
    "time_to_value",
    "RateLaw", "RateModel", "IntegratorConfig", "Trajectory", "IntegrationError",
    "thermal_state", "number_state", "mean_occupation", "lindblad_rhs",
    "integrate", "default_dim", "check_density_matrix",
    "evolve_populations",
    "LadderOp", "thermal_two_point", "wick_four_point", "brute_force_four_point",
    "ModeGrid", "SpectralDensityResult", "evolved_spectral_density",
    "decay_constant", "bath_occupations",
}


def test_public_surface_is_pinned():
    # growing or shrinking the API is a reviewed change to this list
    assert len(PUBLIC) == 30
    assert len(qcooling.__all__) == len(set(qcooling.__all__))
    assert set(qcooling.__all__) == PUBLIC
    for name in qcooling.__all__:
        assert getattr(qcooling, name) is not None
