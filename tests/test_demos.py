"""Each demo script runs to completion with the stdout of its fixture, and
writes the CSV it announces with the bytes of the fixture of the
tests/golden/COMMANDS row for the command line that its docstring names."""

import pytest
from golden import rewrite

# demo -> the CSV its docstring says it writes and that row's fixture, or None
WRITES = {
    "bosonic_regions.py": ("bosonic_p2p.csv", "bosonic_p2p_0.9_1.0_grid41.csv"),
    "cmg_vs_projection.py": None,
    "point_to_point_bb84.py": None,
    "qmac_pentagon.py": ("qmac_boundary.csv", "region_mac_bb84_qmac_grid21.txt"),
    "srm_decoder_trend.py": ("srm_sweep.csv", "sim_quantum_bb84_p2p_r0.3_seeds20.csv"),
    "theta_swap_interference.py": None,
}


def test_every_demo_listed():
    assert sorted(p.name for p in rewrite.DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_runs(name, tmp_path):
    done = rewrite.run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (rewrite.GOLDEN / f"demo_{name[:-3]}.txt").read_bytes()
    if WRITES[name] is not None:
        csv, fixture = WRITES[name]
        assert (tmp_path / csv).read_bytes() == (rewrite.GOLDEN / fixture).read_bytes()
