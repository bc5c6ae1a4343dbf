"""Row-loop reference for the Fourier-Motzkin projection of ``regions``.

This is the algorithm ``fm_project`` used before it worked on stacked rows:
each row is a (c, b, history) tuple that is normalised, split by the sign of
its coefficient and combined one pair at a time, and the exact prune and
``implied_share`` read each support value with their own dot products over
the candidate points and rays of ``LoopPolygon``.  ``test_regions`` checks
that the stacked code gives the same rows, byte for byte, keeps the same row
objects and implies the same share.
"""

import numpy as np

from qnetcap.errors import INFO_CLAMP, MEMBERSHIP_TOL, POLYGON_TOL, ZERO_COEFF_TOL, InvariantError
from qnetcap.regions import HalfspaceRegion


def _normalize_rows(rows):
    """Scale rows to unit max coefficient, drop tautologies, dedupe; entries
    after (c, b) ride along as part of the dedupe key.

    A row with no coefficients left and a negative bound is an infeasibility
    witness; the caller decides how to report it.
    """
    out = []
    seen = set()
    for c, b, *rest in rows:
        scale = float(np.max(np.abs(c)))
        if scale < ZERO_COEFF_TOL:
            if b < -INFO_CLAMP:
                raise InvariantError("inequality system is infeasible")
            continue
        c = c / scale
        b = b / scale
        key = (*np.round(c, 10), round(b, 10), *rest)
        if key in seen:
            continue
        seen.add(key)
        out.append((c, b, *rest))
    return out


def _eliminate_variable(rows, col, max_history):
    """One Fourier-Motzkin step removing the variable at index ``col`` from
    rows (c, b, history); a combined row whose history has more than
    ``max_history`` members is not formed."""
    combined, pos, neg = [], [], []
    for row in rows:
        v = row[0][col]
        if abs(v) < ZERO_COEFF_TOL:
            combined.append(row)
        elif v > 0:
            pos.append(row)
        else:
            neg.append(row)
    for cp, bp, hp in pos:
        for cn, bn, hn in neg:
            if (hp | hn).bit_count() > max_history:
                continue
            # scale so the col coefficients cancel exactly
            c = cp * (-cn[col]) + cn * cp[col]
            b = bp * (-cn[col]) + bn * cp[col]
            c[col] = 0.0
            combined.append((c, b, hp | hn))
    return combined


class LoopPolygon:
    """The polygon {c . R <= b for the active (c, b) of rows, R >= 0} over
    ``dim`` = 1 or 2 coordinates (1-D is 2-D with R2 = 0), every row active
    at first.  Every b must be >= 0, so the origin is feasible.

    Built once per row set: every pairwise intersection of the rows and the
    two axes, and the candidate recession rays (both axes and +- the
    perpendicular of each row), each with a count of the active rows it
    violates by more than POLYGON_TOL or climbs; switching a row moves one
    column of counts.  Every candidate that meets the active rows lies in
    their polygon and every vertex and extreme ray of it is a candidate, so
    the maximum over candidates is exact.
    """

    def __init__(self, rows, dim):
        coeffs = np.zeros((len(rows), 2))
        coeffs[:, :dim] = np.reshape([c for c, _ in rows], (-1, dim))
        bounds = np.array([b for _, b in rows], dtype=float)
        lines = np.concatenate([coeffs, -np.eye(2)])
        rhs = np.concatenate([bounds, [0.0, 0.0]])
        i, j = np.triu_indices(len(lines), 1)
        det = lines[i, 0] * lines[j, 1] - lines[i, 1] * lines[j, 0]
        crossing = np.abs(det) > ZERO_COEFF_TOL  # parallel lines do not meet
        i, j, det = i[crossing], j[crossing], det[crossing]
        points = np.stack([rhs[i] * lines[j, 1] - rhs[j] * lines[i, 1],
                           lines[i, 0] * rhs[j] - lines[j, 0] * rhs[i]], axis=1) / det[:, None]
        self.points = points[np.all(points >= -POLYGON_TOL, axis=1)]
        self.outside = self.points @ coeffs.T > bounds + POLYGON_TOL
        perps = coeffs[:, ::-1] * [-1.0, 1.0]
        rays = np.concatenate([np.eye(2), perps, -perps])
        rays = rays[np.any(rays != 0.0, axis=1)]
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        self.rays = rays[np.all(rays >= -POLYGON_TOL, axis=1)]
        self.climbing = self.rays @ coeffs.T > POLYGON_TOL
        self.violated = self.outside.sum(axis=1)
        self.blocked = self.climbing.sum(axis=1)

    def switch(self, i, step):
        """Make row ``i`` active (step +1) or inactive (step -1)."""
        self.violated += step * self.outside[:, i]
        self.blocked += step * self.climbing[:, i]

    def support(self, c):
        """max c . R over the polygon of the active rows, or inf when it is
        unbounded along c."""
        c = np.asarray(c, dtype=float)
        if np.any(self.rays[self.blocked == 0, : c.size] @ c > POLYGON_TOL):
            return np.inf
        return float(np.max(self.points[self.violated == 0, : c.size] @ c))


def loop_exact_prune(rows, dim):
    polygon = LoopPolygon(rows, dim)
    kept = []
    for i, (c, b) in enumerate(rows):
        polygon.switch(i, -1)
        if not polygon.support(c) <= b + POLYGON_TOL:
            polygon.switch(i, +1)
            kept.append(rows[i])
    return kept


def loop_implied_share(a, b):
    def implied(rows, region):
        polygon = LoopPolygon(region.inequalities, region.dim)
        return sum(polygon.support(c) <= bound + MEMBERSHIP_TOL for c, bound in rows)

    rows = len(a.inequalities) + len(b.inequalities)
    if rows == 0:
        return 1.0
    return (implied(a.inequalities, b) + implied(b.inequalities, a)) / rows


def loop_fm_project(region, keep_matrix, new_names):
    m = np.array(keep_matrix, dtype=float)
    k, n = m.shape
    rows = []
    for c, b in region.inequalities:
        rows.append((np.concatenate([np.zeros(k), c]), b))
    for j in range(k):
        eq = np.concatenate([-np.eye(k)[j], m[j]])
        rows.append((eq.copy(), 0.0))
        rows.append((-eq, 0.0))
    for i in range(n):
        row = np.zeros(k + n)
        row[k + i] = -1.0
        rows.append((row, 0.0))

    rows = _normalize_rows([(c, b, 1 << i) for i, (c, b) in enumerate(rows)])
    remaining = list(range(k, k + n))
    while remaining:
        # fewest-products heuristic
        def cost(col):
            p = sum(1 for c, _, _ in rows if c[col] > ZERO_COEFF_TOL)
            q = sum(1 for c, _, _ in rows if c[col] < -ZERO_COEFF_TOL)
            return p * q

        col = min(remaining, key=cost)
        remaining.remove(col)
        eliminated = n - len(remaining)
        rows = _normalize_rows(_eliminate_variable(rows, col, eliminated + 1))

    final = _normalize_rows([(c[:k].copy(), b) for c, b, _ in rows])
    final = loop_exact_prune(final, k)
    if not final:
        raise InvariantError("projection produced an unbounded region")
    return HalfspaceRegion(new_names, final)
