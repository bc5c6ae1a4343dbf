"""Rate region of the two-sender BB84 multiple-access channel.

With uniform inputs the region is the pentagon R1 <= 0.6009,
R2 <= 0.6009, R1 + R2 <= 1.  Sweeping both senders' input weights and
taking the union does not grow it: the uniform pentagon already is the
whole region here.  Writes the union boundary to qmac_boundary.csv with
``qnetcap region mac --builtin bb84_qmac --grid 21``.
"""

import sys

import numpy as np

from qnetcap.channels import builtin
from qnetcap.cli import main
from qnetcap.entropic import ProbDist
from qnetcap.network import mac_region

ch = builtin("bb84_qmac")
u = ProbDist.uniform(("0", "1"))

pentagon = mac_region(ch, u, u)
print("uniform-input pentagon:")
for coeffs, bound in pentagon.inequalities:
    terms = " + ".join(
        f"{c:g}*{name}" for c, name in zip(coeffs, pentagon.coordinate_names) if c
    )
    print(f"    {terms} <= {bound:.4f}")

code = main("region mac --builtin bb84_qmac --grid 21 --out qmac_boundary.csv".split())
if code != 0:
    sys.exit(code)
rows = np.loadtxt("qmac_boundary.csv", delimiter=",", skiprows=1)
outside = sum(
    not pentagon.contains((r1, r2), tol=1e-9) for _, r1, r2 in rows
)
print(f"\nunion boundary over a 21x21 input grid: {len(rows)} samples, "
      f"{outside} outside the uniform pentagon beyond 1e-9")
print("wrote qmac_boundary.csv")
