"""How much classical information fits through one BB84-style qubit link.

The sender picks |0> or |+>.  Three receivers of increasing power:
measure in the computational basis (the induced channel is a Z channel),
measure in the best rotated basis (a binary symmetric channel), or keep
the quantum outputs and decode jointly (the Holevo rate).  The jump from
0.399 to 0.601 bits is the gain of collective decoding.
"""

import math

from qnetcap.channels import Povm, builtin, induced_classical_channel
from qnetcap.network import classical_capacity_BA, hsw_capacity

ch = builtin("bb84_p2p")

t_z = induced_classical_channel(ch, Povm.computational(2))
c_z, p_z = classical_capacity_BA(t_z)
print("computational-basis measurement induces")
for row in t_z:
    print("   ", " ".join(f"{v:.4f}" for v in row))
print(f"capacity {c_z:.4f} bits at input weights "
      f"({p_z.prob(0):.4f}, {p_z.prob(1):.4f})")

best = -math.pi / 8  # halfway between the two signal states
c_r, _ = classical_capacity_BA(
    induced_classical_channel(ch, Povm.qubit_projective(best))
)
print(f"\nrotated basis at {best:+.4f} rad: capacity {c_r:.4f} bits")

hsw = hsw_capacity(ch)
c_h, p_h = hsw
print(f"\njoint detection (Holevo): capacity {c_h:.4f} bits at "
      f"({p_h.prob('0'):.4f}, {p_h.prob('1'):.4f})")
print(f"certified: {hsw.value:.12f} <= C <= {hsw.upper:.12f} "
      f"(gap {hsw.upper - hsw.value:.1e} after {hsw.iterations} steps)")
print(f"collective gain over the best single-shot basis: {c_h - c_r:.4f} bits")
