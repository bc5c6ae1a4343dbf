"""Half-space rate-region geometry.

A region is a finite list of inequalities c . R <= b over named nonnegative
rate coordinates.  This module provides membership, intersection,
Fourier-Motzkin projection onto one or two new coordinates with exact
redundancy pruning, the exact equality test ``equivalent`` for regions of one
or two coordinates (with ``implied_share``, the share of rows each region
implies of the other), 2-D boundary sampling for plots, and JSON export.
Of the package it imports only ``errors``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import INFO_CLAMP, MEMBERSHIP_TOL, POLYGON_TOL, ZERO_COEFF_TOL, InvariantError


def clamp_information(values):
    """Zero out roundoff negatives of an information quantity or rate bound
    (returned as a float) or of an array of them; anything below
    -INFO_CLAMP is an entropic bug."""
    v = np.asarray(values, dtype=float)
    if (v < -INFO_CLAMP).any():
        raise InvariantError(f"information quantity {float(v.min()):.3e} below clamp")
    return np.maximum(v, 0.0) if v.ndim else max(float(v), 0.0)


class HalfspaceRegion:
    """Inequalities c . R <= b over named coordinates, with implicit R >= 0.

    Bounds pass ``clamp_information``: roundoff negatives read as 0, and
    lower bounds signal an upstream entropic bug.
    """

    def __init__(self, coordinate_names, inequalities):
        names = tuple(str(n) for n in coordinate_names)
        if len(names) != len(set(names)):
            raise InvariantError(f"repeated coordinate names {names}")
        coefficients, bounds = [], []
        for coeffs, bound in inequalities:
            c = np.array(coeffs, dtype=float).reshape(-1)
            if c.size != len(names):
                raise InvariantError(
                    f"coefficient vector of length {c.size} for {len(names)} coordinates"
                )
            b = float(bound)
            if not np.isfinite(b) or not np.all(np.isfinite(c)):
                raise InvariantError("non-finite inequality")
            c.setflags(write=False)
            coefficients.append(c)
            bounds.append(b)
        self.coordinate_names = names
        self.inequalities = tuple(zip(coefficients, clamp_information(bounds).tolist()))

    @property
    def dim(self) -> int:
        return len(self.coordinate_names)

    def contains(self, point, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``point`` satisfies every row and R >= 0 to within ``tol``."""
        p = np.asarray(point, dtype=float).reshape(-1)
        if p.size != self.dim:
            raise InvariantError(f"point of length {p.size} in {self.dim}-D region")
        if np.any(p < -tol):
            return False
        return all(float(c @ p) <= b + tol for c, b in self.inequalities)

    def __repr__(self) -> str:
        return (
            f"HalfspaceRegion({self.coordinate_names}, "
            f"{len(self.inequalities)} inequalities)"
        )


def intersect(a: HalfspaceRegion, b: HalfspaceRegion) -> HalfspaceRegion:
    if a.coordinate_names != b.coordinate_names:
        raise InvariantError(
            f"coordinate names differ: {a.coordinate_names} vs {b.coordinate_names}"
        )
    return HalfspaceRegion(a.coordinate_names, a.inequalities + b.inequalities)


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


# perfbench/layertrace.py counts LP calls by wrapping this name; the library makes none
def linprog(*args, **kwargs):
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


class _Polygon:
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


def _exact_prune(rows, dim):
    """Drop redundant rows over one or two coordinates: rows are tested in
    order, each against the rows still kept other than itself, and dropped
    when their support value is at most b + POLYGON_TOL; a row along which the
    others are unbounded is kept."""
    polygon = _Polygon(rows, dim)
    kept = []
    for i, (c, b) in enumerate(rows):
        polygon.switch(i, -1)
        if not polygon.support(c) <= b + POLYGON_TOL:
            polygon.switch(i, +1)
            kept.append(rows[i])
    return kept


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


def fm_project(region: HalfspaceRegion, keep_matrix, new_names) -> HalfspaceRegion:
    """Project onto one or two new coordinates s = M . R by Fourier-Motzkin
    elimination.

    ``keep_matrix`` rows express each new coordinate as a nonnegative
    combination of the old ones (e.g. R1 = R1p + R1c).  Old coordinates are
    eliminated one at a time (fewest pairings first); the final rows are
    pruned exactly (``_exact_prune``).

    Each row carries its history, the original rows it combines, as a
    bitmask.  After s eliminations a row is lambda . (A, b) with lambda >= 0
    supported on its history and lambda . A_E = 0 over the s eliminated
    columns A_E.  The extreme rays of that cone give the projection; their
    supports have at most s + 1 members, so a row with a longer history is
    redundant and is not formed (Kohler's rule: D. A. Kohler, 1967;
    J.-L. Imbert, "Fourier's elimination: which to choose?", PPCP 1993).
    Each extreme ray is one of the step before or combines two, so all are
    formed with their supports as histories, if rows that differ in history
    are never merged.
    """
    m = np.array(keep_matrix, dtype=float)
    new_names = tuple(str(n) for n in new_names)
    k, n = m.shape
    if len(new_names) != k:
        raise InvariantError(f"{len(new_names)} names for {k} map rows")
    if k > 2:
        raise InvariantError(f"projection onto {k} coordinates; at most 2 are supported")
    if n != region.dim:
        raise InvariantError(f"map over {n} coordinates, region has {region.dim}")
    if np.any(m < 0):
        raise InvariantError("projection map must have nonnegative entries")

    # extended variable order: (new coords, old coords)
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
    final = _exact_prune(final, k)
    if not final:
        # no constraint is left, or each is redundant against nonnegativity
        raise InvariantError("projection produced an unbounded region")
    return HalfspaceRegion(new_names, final)


def implied_share(a: HalfspaceRegion, b: HalfspaceRegion) -> float:
    """The share of the rows of two regions over the same one or two
    coordinates that the other region implies: a row is implied when its
    support value over the other region is at most its bound +
    MEMBERSHIP_TOL.  A region that is unbounded along a row of the other
    does not imply it."""
    if a.coordinate_names != b.coordinate_names:
        raise InvariantError(
            f"coordinate names differ: {a.coordinate_names} vs {b.coordinate_names}"
        )
    if a.dim > 2:
        raise InvariantError(f"exact comparison needs at most 2 coordinates, got {a.dim}")

    def implied(rows, region):
        support = _Polygon(region.inequalities, region.dim).support
        return sum(support(c) <= bound + MEMBERSHIP_TOL for c, bound in rows)

    rows = len(a.inequalities) + len(b.inequalities)
    if rows == 0:
        return 1.0
    return (implied(a.inequalities, b) + implied(b.inequalities, a)) / rows


def equivalent(a: HalfspaceRegion, b: HalfspaceRegion) -> bool:
    """Whether two regions over the same one or two coordinates are the
    same set: every row of each is implied by the other
    (``implied_share`` is 1)."""
    return implied_share(a, b) == 1.0


def radial_extents(coeffs, bounds, thetas) -> np.ndarray:
    """Distance from the origin to the boundary of {c . R <= b, R >= 0}
    along each direction (cos theta, sin theta), for a stack of bound
    vectors that share one set of coefficient rows.

    ``coeffs`` is (rows, 2), ``bounds`` is (G, rows); returns (G, angles).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    speed = coeffs[:, :1] * np.cos(thetas) + coeffs[:, 1:] * np.sin(thetas)
    moving = speed > ZERO_COEFF_TOL
    reach = np.where(moving, bounds[:, :, None] / np.where(moving, speed, 1.0), np.inf)
    t = reach.min(axis=1, initial=np.inf)
    unbounded = ~np.isfinite(t)
    if np.any(unbounded):
        theta = float(np.asarray(thetas)[np.nonzero(unbounded)[1][0]])
        raise InvariantError(f"region unbounded along direction {theta:.4f}")
    return np.maximum(t, 0.0)


def boundary_sample(region: HalfspaceRegion, n_angles: int):
    """Radial boundary sweep of a 2-D region over theta in [0, pi/2].

    Returns a list of (theta, R1, R2) with (R1, R2) the farthest region point
    along direction (cos theta, sin theta).
    """
    if region.dim != 2:
        raise InvariantError(f"boundary sweep needs a 2-D region, got {region.dim}-D")
    if n_angles < 2:
        raise InvariantError("need at least 2 angles")
    thetas = np.linspace(0.0, np.pi / 2, n_angles)
    coeffs = np.reshape([c for c, _ in region.inequalities], (-1, 2))
    bounds = [[b for _, b in region.inequalities]]
    t = radial_extents(coeffs, bounds, thetas)[0]
    return [
        (float(theta), float(r * np.cos(theta)), float(r * np.sin(theta)))
        for theta, r in zip(thetas, t)
    ]


def region_to_json(region: HalfspaceRegion) -> dict:
    return {
        "coords": list(region.coordinate_names),
        "ineqs": [
            {"c": [float(v) + 0.0 for v in c], "b": float(b)}
            for c, b in region.inequalities
        ],
    }


def region_from_json(doc) -> HalfspaceRegion:
    """The reader of ``region_to_json``'s public format, kept so a round
    trip pins that format."""
    try:
        names = doc["coords"]
        rows = [(item["c"], item["b"]) for item in doc["ineqs"]]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"bad region document: {exc}") from None
    return HalfspaceRegion(names, rows)


def save_region_json(region: HalfspaceRegion, path) -> None:
    Path(path).write_text(json.dumps(region_to_json(region), sort_keys=True) + "\n")


def polymatroid_slacks(quantities: dict) -> dict:
    """Slack of each ordering inequality for one receiver's split-rate
    quantities {a, b, c, d} (``network.cmg_informations``): all five are
    nonnegative when the four values come from entropic evaluation.
    These are the polymatroid orderings under which the Chong-Motani-Garg
    split-rate systems project onto the nine-inequality common-message
    region of the interference channel."""
    a, b, c, d = (float(quantities[k]) for k in "abcd")
    return {
        "b-a": b - a,
        "d-b": d - b,
        "c-a": c - a,
        "d-c": d - c,
        "b+c-a-d": b + c - a - d,
    }
