"""The benchmark under bench/ keeps measuring the package.

The benchmark's tracer wraps the package functions named in
``bench/tracing.WRAPPED``.  A name that no longer resolves is only warned
about, and the metrics built on it read 0, so a rename would silently blind
a per-layer metric; these tests fail instead.  They read bench/ and change
nothing in it.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, function_name",
                         [entry[:2] for entry in load_tracing().WRAPPED])
def test_traced_function_resolves(module_name, function_name):
    module = importlib.import_module(f"simplecurrents.{module_name}")
    assert callable(getattr(module, function_name, None)), \
        f"bench traces simplecurrents.{module_name}.{function_name}, which is gone"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
