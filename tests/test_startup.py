"""Start-up guard: bredon imports no `dataclasses`, `typing` or `inspect`.

Each of those modules, with what it pulls in, costs milliseconds on every
cold start.  Both runs use a fresh interpreter without the site module,
like the benchmark's fresh starts.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLAGSHIP = ROOT / "specs" / "vafa_witten.json"
HEAVY = ("dataclasses", "typing", "inspect")

# the benchmark's set-up code, then the heavy modules that were loaded
SETUP = ("import sys; sys.path.insert(0, sys.argv[1]); import bredon; "
         "from bredon.specfile import parse_spec; "
         "parse_spec(open(sys.argv[2], encoding='utf-8').read())")
CLI = ("import sys, os; sys.path.insert(0, sys.argv[1]); import bredon.cli; "
       "code = bredon.cli.main(['ktheory', sys.argv[2], '--format', "
       "'machine', '--output', os.devnull]); assert code == 0, code")
REPORT = f"; print(sorted(m for m in {HEAVY!r} if m in sys.modules))"


@pytest.mark.parametrize("code", [SETUP, CLI], ids=["setup", "cli"])
def test_no_heavy_modules_at_start(code):
    result = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code + REPORT,
         str(ROOT / "src"), str(FLAGSHIP)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
