import re
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs in a fresh interpreter: what importing the library and the CLI loads.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
HEAVY = ("dataclasses", "inspect", "hashlib", "fractions", "decimal", "magnitudes.laws")
before = set(sys.modules)
import magnitudes
assert not [m for m in HEAVY if m in set(sys.modules) - before], "import magnitudes"
import magnitudes.cli
assert not [m for m in HEAVY if m in set(sys.modules) - before], "import magnitudes.cli"

from magnitudes import LawReport, law_sets, list_laws, run_suite
from magnitudes import laws
assert run_suite is laws.run_suite and LawReport is laws.LawReport
assert law_sets() == laws.law_sets() and list_laws() == laws.list_laws()
assert "magnitudes.laws" in sys.modules
try:
    magnitudes.nonexistent
except AttributeError:
    pass
else:
    raise AssertionError("magnitudes.nonexistent resolved")
print("ok")
"""


def test_library_and_cli_import_without_the_law_suite():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, SRC], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_no_module_imports_dataclasses():
    for path in Path(SRC, "magnitudes").rglob("*.py"):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path
