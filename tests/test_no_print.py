"""The library reports through return values, records and logging, not print.

Only the command-line front end writes to the terminal; a stray debug
``print`` anywhere else in the package fails here.
"""

import ast
import pathlib

import bosp

PACKAGE = pathlib.Path(bosp.__file__).resolve().parent


def _print_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_no_print_outside_cli():
    offenders = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "cli.py" and (lines := _print_calls(path))}
    assert offenders == {}


def test_guard_sees_print_calls():
    assert _print_calls(PACKAGE / "cli.py")
