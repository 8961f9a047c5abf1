"""Every demo script runs to completion from a copy, and the CSVs two of
them write are the package's own output for the same inputs.

The copies run in a temporary directory, so the files the demos write next
to themselves never touch the checkout. Without matplotlib the demos skip
their figures.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blowdown
from blowdown import default_scenario, integrate, smc, write_manifold
from blowdown.scenario_io import trajectory_csv

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Directory of the copies, and each demo's completed process."""
    where = tmp_path_factory.mktemp("demos")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(blowdown.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    done = {}
    for script in DEMOS:
        shutil.copy(script, where)
        done[script.name] = subprocess.run(
            [sys.executable, script.name], cwd=where, env=env,
            capture_output=True, text=True, timeout=300)
    return where, done


@pytest.mark.parametrize("name", [script.name for script in DEMOS])
def test_demo_exits_cleanly(runs, name):
    result = runs[1][name]
    assert result.returncode == 0, result.stderr


def test_default_trajectory_csv(runs):
    written = (runs[0] / "default_trajectory.csv").read_text()
    assert written == trajectory_csv(integrate(default_scenario()))


def test_manifold_csv(runs, tmp_path):
    grid = smc.manifold_grid((-1.5e-3, 1.5e-3), (-12.0, 12.0),
                             default_scenario().parameters.lambda_q,
                             steps=61)
    write_manifold(*grid, tmp_path / "manifold.csv")
    assert ((runs[0] / "manifold.csv").read_bytes()
            == (tmp_path / "manifold.csv").read_bytes())
