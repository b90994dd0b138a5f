"""The package namespace: ``bosp`` exports exactly what its layer modules declare,
and each exported name is used by the package, a demo or a tool."""

import ast
import pathlib

import bosp
from bosp import (checkpoint, ensembles, errors, evolve, experiments, gauge, invariants,
                  lingroup, spectral)

LAYERS = (spectral, lingroup, evolve, gauge, invariants, ensembles, checkpoint, experiments,
          errors)


def test_all_is_the_layers_all_in_order():
    assert bosp.__all__ == [name for module in LAYERS for name in module.__all__]
    assert len(bosp.__all__) == len(set(bosp.__all__)) == 63


def test_each_name_is_its_module_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(bosp, name) is getattr(module, name), (module.__name__, name)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from bosp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bosp.__all__)


def test_result_types_and_checkpoint_errors_are_exported():
    assert bosp.GboTerms is gauge.GboTerms and bosp.InvariantReport is invariants.InvariantReport
    assert issubclass(bosp.VersionError, bosp.CheckpointError)
    # the format constants stay in their module; bosp has __version__ only
    assert checkpoint.VERSION == 2 and not hasattr(bosp, "VERSION")


ROOT = pathlib.Path(__file__).resolve().parents[1]

# Public names that no module, demo or tool uses, each kept for its reason.
UNREACHED = {
    "propagate": "the paper's free group V(t); acceptance criterion 1 reads it",
    "rhs_gbo_terms": "the a-d terms of the gbo gauge equation, each pinned against a dense "
                     "brute force; the residual projects their sum once, so it cannot show them",
    "reconstruct_u": "the bo gauge inverse; acceptance criterion 9 reads it",
    "remove_mean_bo": "the Galilean reduction to zero mean",
}


def _referenced_names() -> set:
    """Every name loaded and attribute read in the package modules (not
    ``__init__.py``), the demos and the tools, and every name the demos and
    tools import from a module."""
    package = sorted(path for path in (ROOT / "src" / "bosp").glob("*.py")
                     if path.name != "__init__.py")
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("tools/*.py"))
    names = set()
    for path in package + scripts:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path in scripts:
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_or_kept_for_a_reason():
    unreached = set(bosp.__all__) - _referenced_names()
    unused, stale = sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)
    assert not unused, f"{unused}: used by no module, demo or tool; delete, or keep with a reason"
    assert not stale, f"{stale}: exported and used, or no longer exported; drop from UNREACHED"
