"""Integer powers of value arrays go through ``spectral._power``.

numpy's ``values ** p`` calls the vectorized ``pow`` for p >= 3, which is
tens of times slower than repeated multiplication on negative bases (see
the ``spectral`` module docstring).  A ``**`` whose base and exponent are
both variables (``vals ** k``, ``vals ** (k + 1)``) in the solver, the
invariants or the gauge code fails here.  A literal base or exponent
(``2.0 ** (-1.0 / k)``, ``zr**3``) is allowed, and so is an exponent with a
float literal in it (``lam ** (-1.0 / k)``): that is a fractional power,
which ``_power`` does not compute.
"""

import ast
import pathlib

import bosp

PACKAGE = pathlib.Path(bosp.__file__).resolve().parent
GUARDED = ("evolve.py", "invariants.py", "gauge.py")


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _has_float_literal(node):
    return any(isinstance(sub, ast.Constant) and isinstance(sub.value, float)
               for sub in ast.walk(node))


def _variable_powers(source):
    tree = ast.parse(source)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and not _is_number(node.left) and not _is_number(node.right)
            and not _has_float_literal(node.right)]


def test_no_variable_integer_power_in_numerics():
    offenders = {name: lines for name in GUARDED
                 if (lines := _variable_powers((PACKAGE / name).read_text()))}
    assert offenders == {}


def test_guard_sees_variable_powers():
    flagged = "a = vals ** k\nb = vals ** (k + 1)\nc = np.abs(v) ** p\nd = f(x) ** -k\n"
    assert _variable_powers(flagged) == [1, 2, 3, 4]
    allowed = ("a = 2.0 ** (-1.0 / k)\nb = zr**3\nc = 2 ** lvl\nd = lam ** (-1.0 / k)\n"
               "e = x ** -2\n")
    assert _variable_powers(allowed) == []
