"""Exact decoding error of the square-root measurement at toy blocklengths.

Random codebooks at rate 0.3 on the BB84 link, decoded with typicality
projectors sandwiched into a square-root measurement.  The exact average
error falls from n = 2 to n = 8 but not monotonically: at these tiny
blocklengths the sample-entropy lattice is coarse, and the width-0.4
window around H(rho) = 0.6009 happens to capture less of the average
state at n = 6 (about 78%) than at n = 4 (about 90%).  The asymptotic
story only smooths out once the lattice is fine.  Writes srm_sweep.csv
with ``qnetcap sim quantum --builtin bb84_p2p --param 0.3 20 --delta 0.4
--seed 0``: blocklengths 2, 4, 6 and 8, seeds 0 to 19.
"""

import sys

import numpy as np

from qnetcap.cli import main

code = main("sim quantum --builtin bb84_p2p --param 0.3 20 --delta 0.4 --seed 0"
            " --out srm_sweep.csv".split())
if code != 0:
    sys.exit(code)
rows = np.loadtxt("srm_sweep.csv", delimiter=",", skiprows=1)

print(" n   mean exact error   mean diagnostic bound")
for n in (2, 4, 6, 8):
    block = rows[rows[:, 0] == n]
    print(f"{n:2d}   {np.mean(block[:, 4]):16.4f}   {np.mean(block[:, 5]):21.4f}")
print("wrote srm_sweep.csv (20 seeds per blocklength)")
