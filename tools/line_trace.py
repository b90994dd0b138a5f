"""List the statements of ``src/bosp`` that a pytest run never executes.

    python tools/line_trace.py [pytest args]

Runs pytest in this process (with the checkout's ``src`` first on
``sys.path``) under ``sys.settrace``, recording the executed lines of code
that lives under ``src/bosp`` only.  Then it prints, for every module under
``src/bosp`` (modules the run never imported included), each statement none
of whose lines ran, as ``path:line: source``, and a count.  Docstrings,
``def``/``class`` lines, imports, ``pass``, ``global`` and ``nonlocal`` are not
listed: they run at import or compile to nothing.  A compound statement
(``if``, ``for``, ``while``, ``with``) counts by its header only; a ``try``
is not listed itself, its body is.  Exits with pytest's exit code.

Standard library and pytest only: a stand-in for a coverage package.
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bosp"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Pass, ast.Global, ast.Nonlocal, ast.Try)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _span(node: ast.stmt) -> range:
    """The lines whose execution shows that ``node`` ran: a compound statement's header."""
    children = getattr(node, "body", []) + getattr(node, "orelse", [])
    end = node.end_lineno
    if children:
        end = max(node.lineno, min(child.lineno for child in children) - 1)
    return range(node.lineno, end + 1)


def statements(path: pathlib.Path) -> list:
    """(first line, span) of every listable statement of a module, in line order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED) \
                and not _is_docstring(node):
            found.append((node.lineno, _span(node)))
    return sorted(found)


def trace_pytest(args: list) -> tuple:
    """Run pytest on ``args`` under the tracer; returns (exit code, executed lines per file)."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(global_)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), executed


def report(executed: dict) -> list:
    """``path:line: source`` of every statement none of whose lines ran."""
    lines, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text().splitlines()
        for first, span in statements(path):
            total += 1
            if ran.isdisjoint(span):
                lines.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    lines.append(f"{len(lines)} of {total} statements never ran")
    return lines


def main(argv=None) -> int:
    code, executed = trace_pytest(list(sys.argv[1:] if argv is None else argv))
    print("\n".join(report(executed)))
    return code


if __name__ == "__main__":
    sys.exit(main())
