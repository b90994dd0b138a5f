"""tools/line_trace.py: a traced pytest run lists the statements it never reached."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "line_trace.py"


def test_unreached_statements_are_listed():
    proc = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider",
                           "tests/test_integer_powers.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # the CLI's entry point never runs under pytest; the module bodies of bosp do
    assert any(re.fullmatch(r"src/bosp/cli\.py:\d+: sys\.exit\(main\(\)\)", line)
               for line in lines)
    assert not any(line.endswith(": ZERO_MEAN_TOL = 1e-10") for line in lines)
    assert re.fullmatch(r"\d+ of \d+ statements never ran", lines[-1])
