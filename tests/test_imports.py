import importlib
import inspect
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

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


def test_names_the_benchmark_binds_resolve():
    """perfbench wraps, reads and calls these library names; each must resolve
    here, so a deletion fails the suite and not only a benchmark run."""
    traced = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["function_names"]()
    for name in [*traced, "models.Overlap", "embed.ApproxPolicy"]:
        mod, *attrs = name.split(".")
        obj = importlib.import_module(f"magnitudes.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr)
    from magnitudes import embed, hom, power

    x = object()
    for fn, args in (
        (hom.product, (x, x, embed.ApproxPolicy(30))),
        (hom.quotient, (x, x, embed.ApproxPolicy(30))),
        (power.pow, (x, x, 30)),
        (power.nth_root, (x, 2, 30)),
        (embed.fourth_proportional, (x, x, x, 30)),
    ):
        inspect.signature(fn).bind(*args)
