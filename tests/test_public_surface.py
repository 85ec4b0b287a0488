"""The package's public surface: the names a run, perfbench or the
acceptance gate use, none of the test-only layer that the tests now hold
themselves (``paper_checks``), and none of the record classes whose values
are now the plain dicts and arguments their callers handle."""

import importlib
import pkgutil

import whipflow

RETIRED = ("Trajectory", "backward_transform", "sigma_decay_check",
           "compatibility_predicate", "relative_energy_identity_check",
           "ContractError", "EnergyReport", "DecayFit", "GeneralizedResidual",
           "GeodesicTensionProblem")


def test_every_public_name_resolves():
    assert len(set(whipflow.__all__)) == len(whipflow.__all__)
    for name in whipflow.__all__:
        assert hasattr(whipflow, name), name


def test_no_module_defines_a_retired_name():
    modules = [whipflow] + [
        importlib.import_module(f"whipflow.{info.name}")
        for info in pkgutil.iter_modules(whipflow.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        for name in RETIRED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
