"""Gaussian interference regions under three detection strategies.

Point-to-point first: over a lossy thermal channel, homodyne wins at low
photon number (less detection noise), heterodyne wins at high photon
number (twice the bandwidth), and joint detection beats both everywhere.
Writes the curves to bosonic_p2p.csv with the README command
``qnetcap bosonic p2p --param 0.9 1.0 --grid 41``.

Then the two-sender networks.  A weakly coupled beam-splitter network
(direct transmissivity 1/16, cross 1/2) satisfies the very-strong
condition for coherent detection, so its capacity region is the
interference-free rectangle.  A strongly coupled one (direct 0.3, cross
0.6) gives the pentagon with a shared sum bound.
"""

import sys

from qnetcap.bosonic import (
    BosonicICParams,
    bosonic_si,
    bosonic_vsi,
    c_heterodyne,
    c_homodyne,
)
from qnetcap.cli import main

code = main("bosonic p2p --param 0.9 1.0 --grid 41 --out bosonic_p2p.csv".split())
if code != 0:
    sys.exit(code)
print("wrote bosonic_p2p.csv (eta = 0.9, NB = 1)")
print(f"crossover: hom {c_homodyne(0.9, 1.0, 1.0):.4f} vs "
      f"het {c_heterodyne(0.9, 1.0, 1.0):.4f} at NS = 1; "
      f"hom {c_homodyne(0.9, 100.0, 1.0):.4f} vs "
      f"het {c_heterodyne(0.9, 100.0, 1.0):.4f} at NS = 100")

for ns in (1.0, 100.0):
    p = BosonicICParams(1 / 16, 1 / 2, 1 / 2, 1 / 16, ns, ns, 1.0, 1.0)
    print(f"\nweak direct coupling, NS = {ns:g}:")
    for mode in ("hom", "het", "joint"):
        cond, rect = bosonic_vsi(p, mode)
        b = [bound for _, bound in rect.inequalities]
        print(f"    {mode:5s} very strong: {str(cond):5s}  "
              f"rectangle corner ({b[0]:.4f}, {b[1]:.4f})")

p = BosonicICParams(0.3, 0.6, 0.6, 0.3, 100.0, 100.0, 1.0, 1.0)
print("\nstrong coupling, NS = 100:")
for mode in ("hom", "het", "joint"):
    cond, pent = bosonic_si(p, mode)
    b = {tuple(c): bound for c, bound in pent.inequalities}
    b1, b2, bs = b[(1.0, 0.0)], b[(0.0, 1.0)], b[(1.0, 1.0)]
    print(f"    {mode:5s} strong: {str(cond):5s}  "
          f"R1 <= {b1:.4f}, R2 <= {b2:.4f}, sum <= {bs:.4f}, "
          f"slant corner ({b1:.4f}, {bs - b1:.4f})")
