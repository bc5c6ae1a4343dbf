"""Each demo script runs to completion and writes the CSV it announces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetcap

DEMOS = Path(__file__).parents[1] / "demos"
# demo -> the CSV its docstring says it writes, or None
WRITES = {
    "bosonic_regions.py": "bosonic_p2p.csv",
    "cmg_vs_projection.py": None,
    "point_to_point_bb84.py": None,
    "qmac_pentagon.py": "qmac_boundary.csv",
    "srm_decoder_trend.py": "srm_sweep.csv",
    "theta_swap_interference.py": None,
}


def test_every_demo_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(qnetcap.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    csv = WRITES[name]
    if csv is not None:
        assert (tmp_path / csv).stat().st_size > 0
