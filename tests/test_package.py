import treegibbs


def test_public_names():
    # the package exports its functions and types, not its submodules
    assert sorted(treegibbs.__all__) == [
        "Ball", "Classification", "FiniteVolumeMeasure", "FixedPointResult", "LambdaModel",
        "ReducedFieldAssignment", "build_ball", "check_unordered", "classify",
        "commensurability_exact", "commensurability_float", "commensurability_multiplicative",
        "consistency_residual", "correlation_decay", "difference_set", "finite_volume_measure",
        "finite_volume_spectrum", "generic_model", "marginalize", "markov_model",
        "markov_property_residual", "model_from_dict", "model_to_dict", "potential_norm",
        "potts_model", "potts_theta", "propagate_fields", "recursion_map", "spectrum_lattice_check",
        "ti_fixed_points", "two_point_correlation", "zero_fields",
    ]
    assert all(hasattr(treegibbs, name) for name in treegibbs.__all__)
    # test-only names stay out of the library
    assert not hasattr(treegibbs, "dlr_conditional") and not hasattr(treegibbs, "distance")
    assert not hasattr(treegibbs.Ball, "children")
