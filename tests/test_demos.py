"""Each demo script runs to completion and writes the CSV it announces,
with the bytes of the command line that its docstring names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetcap

DEMOS = Path(__file__).parents[1] / "demos"
# demo -> the CSV its docstring says it writes and the command that writes
# it, or None
WRITES = {
    "bosonic_regions.py": ("bosonic_p2p.csv", "bosonic p2p --param 0.9 1.0 --grid 41"),
    "cmg_vs_projection.py": None,
    "point_to_point_bb84.py": None,
    "qmac_pentagon.py": ("qmac_boundary.csv", "region mac --builtin bb84_qmac --grid 21"),
    "srm_decoder_trend.py": ("srm_sweep.csv", "sim quantum --builtin bb84_p2p"
                             " --param 0.3 20 --delta 0.4 --seed 0"),
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
    if WRITES[name] is not None:
        csv, command = WRITES[name]
        cli = tmp_path / "cli"
        cli.mkdir()
        subprocess.run([sys.executable, "-m", "qnetcap.cli", *command.split(), "--out", csv],
                       cwd=cli, env=env, check=True, timeout=120)
        assert (tmp_path / csv).read_bytes() == (cli / csv).read_bytes()
