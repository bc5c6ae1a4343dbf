"""Exact decoding error of the square-root measurement at toy blocklengths.

Random codebooks at rate 0.3 on the BB84 link, decoded with typicality
projectors sandwiched into a square-root measurement.  The exact average
error falls from n = 2 to n = 8 but not monotonically: at these tiny
blocklengths the sample-entropy lattice is coarse, and the width-0.4
window around H(rho) = 0.6009 happens to capture less of the average
state at n = 6 (about 78%) than at n = 4 (about 90%).  The asymptotic
story only smooths out once the lattice is fine.  Writes srm_sweep.csv.
"""

import numpy as np

from qnetcap.channels import builtin
from qnetcap.codesim import export_error_csv, srm_error_sweep

ch = builtin("bb84_p2p")
blocklengths = (2, 4, 6, 8)
rows = srm_error_sweep(
    ch, rate=0.3, blocklengths=blocklengths, delta=0.4, seeds=range(20)
)

print(" n   mean exact error   mean diagnostic bound")
for n in blocklengths:
    errs = [r[4] for r in rows if r[0] == n]
    bounds = [r[5] for r in rows if r[0] == n]
    print(f"{n:2d}   {np.mean(errs):16.4f}   {np.mean(bounds):21.4f}")

export_error_csv(rows, "srm_sweep.csv")
print("wrote srm_sweep.csv (20 seeds per blocklength)")
