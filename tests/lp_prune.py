"""LP reference for the redundancy prune of ``regions``.

This is the prune ``fm_project`` used before it pruned by exact polygon
geometry and Kohler's rule: one LP per row, over any number of
coordinates.  ``test_regions.assert_same_prune`` checks that the exact
prune keeps the very rows it keeps.
"""

import numpy as np
from scipy.optimize import linprog

from qnetcap.errors import POLYGON_TOL


def lp_prune(rows, dim, free=0):
    """Drop rows whose bound cannot be attained: maximize c . z over the
    remaining rows (z >= 0, except the last ``free`` coordinates, whose
    signs only rows state); if the optimum stays below b the row is
    redundant."""
    rows = list(rows)
    keep = list(range(len(rows)))
    for i in list(keep):
        others = [j for j in keep if j != i]
        c, b = rows[i]
        a_ub = np.array([rows[j][0] for j in others]) if others else None
        b_ub = np.array([rows[j][1] for j in others]) if others else None
        res = linprog(
            -c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0, None)] * (dim - free) + [(None, None)] * free,
            method="highs",
        )
        if res.status == 0 and -res.fun <= b + POLYGON_TOL:
            keep.remove(i)
    return [rows[j] for j in keep]
