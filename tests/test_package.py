"""The package namespace: ``bosp`` exports exactly what its layer modules declare."""

import bosp
from bosp import (checkpoint, ensembles, errors, evolve, experiments, gauge, invariants,
                  lingroup, spectral)

LAYERS = (spectral, lingroup, evolve, gauge, invariants, ensembles, checkpoint, experiments,
          errors)


def test_all_is_the_layers_all_in_order():
    assert bosp.__all__ == [name for module in LAYERS for name in module.__all__]
    assert len(bosp.__all__) == len(set(bosp.__all__)) == 70


def test_each_name_is_its_module_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(bosp, name) is getattr(module, name), (module.__name__, name)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from bosp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bosp.__all__)


def test_result_types_and_checkpoint_errors_are_exported():
    assert bosp.RhsBo is gauge.RhsBo and bosp.H1Check is invariants.H1Check
    assert issubclass(bosp.VersionError, bosp.CheckpointError)
    # the format constants stay in their module; bosp has __version__ only
    assert checkpoint.VERSION == 2 and not hasattr(bosp, "VERSION")
