"""Two routes to the common-message rate region, one answer.

The nine-inequality region in the net rates (R1, R2) can also be reached
the long way: write each receiver's constraints in the split rates
(R1p, R1c, R2p, R2c), intersect, and project onto R1 = R1p + R1c,
R2 = R2p + R2c by Fourier-Motzkin elimination.  The demo builds both for
a random code distribution on the shared-output BB84 channel and checks
exactly that each implies every row of the other.
"""

from qnetcap.channels import builtin
from qnetcap.network import (
    cmg_region,
    cmg_region_via_projection,
    random_cmg_distribution,
)
from qnetcap.regions import implied_share

ch = builtin("bb84_qmac")
dist = random_cmg_distribution(ch, seed=7)

direct = cmg_region(ch, dist)
projected = cmg_region_via_projection(ch, dist)

print("direct construction:")
for coeffs, bound in direct.inequalities:
    print(f"    {coeffs[0]:+.0f} R1 {coeffs[1]:+.0f} R2 <= {bound:.6f}")
print("after projection:")
for coeffs, bound in projected.inequalities:
    print(f"    {coeffs[0]:+.0f} R1 {coeffs[1]:+.0f} R2 <= {bound:.6f}")

share = implied_share(direct, projected)
print(f"rows implied by the other region: {share:.6f} (1 when the regions are equal)")
