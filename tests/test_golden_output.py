"""The demos and every `simplecurrents reproduce` example print exactly the
recorded text in tests/golden_output/ (stdout, byte for byte)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from simplecurrents import golden

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "golden_output"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_every_demo_and_example_has_a_recording():
    names = {f"{d.stem}.txt" for d in DEMOS} | {f"reproduce-{e}.txt" for e in golden.EXAMPLES}
    assert names == {p.name for p in EXPECTED.iterdir()}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    assert run_python(str(demo)) == (EXPECTED / f"{demo.stem}.txt").read_bytes()


@pytest.mark.parametrize("example", sorted(golden.EXAMPLES))
def test_reproduce_output(example):
    assert (run_python("-m", "simplecurrents.cli", "reproduce", example)
            == (EXPECTED / f"reproduce-{example}.txt").read_bytes())
