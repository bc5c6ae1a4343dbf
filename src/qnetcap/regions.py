"""Half-space rate-region geometry.

A region is a finite list of inequalities c . R <= b over named nonnegative
rate coordinates.  This module provides membership, intersection,
Fourier-Motzkin projection onto new coordinates with redundancy pruning
(exact polygon geometry onto one or two coordinates, LPs onto more), the
exact equality test ``equivalent`` for regions of one or two coordinates,
2-D boundary sampling for plots, JSON/CSV export, and the polymatroid sanity
checks for split-rate systems.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .qstate import InvariantError

MEMBERSHIP_TOL = 1e-7
BOUND_CLAMP = 1e-9
# raw FM output grows fast; prune mid-elimination past this row count
PRUNE_THRESHOLD = 64
# a row is redundant when its bound is attained within this much
PRUNE_TOL = 1e-9
# a polygon vertex or ray may violate a row by this much
VERTEX_TOL = 1e-9


class HalfspaceRegion:
    """Inequalities c . R <= b over named coordinates, with implicit R >= 0.

    Bounds within -1e-9 of zero are clamped to 0; bounds more negative than
    that are rejected (they signal an upstream entropic bug, not roundoff).
    """

    def __init__(self, coordinate_names, inequalities):
        names = tuple(str(n) for n in coordinate_names)
        if len(names) != len(set(names)):
            raise InvariantError(f"repeated coordinate names {names}")
        rows = []
        for coeffs, bound in inequalities:
            c = np.array(coeffs, dtype=float).reshape(-1)
            if c.size != len(names):
                raise InvariantError(
                    f"coefficient vector of length {c.size} for {len(names)} coordinates"
                )
            b = float(bound)
            if not np.isfinite(b) or not np.all(np.isfinite(c)):
                raise InvariantError("non-finite inequality")
            if b < 0.0:
                if b < -BOUND_CLAMP:
                    raise InvariantError(f"negative bound {b:.3e} beyond clamp")
                b = 0.0
            c.setflags(write=False)
            rows.append((c, b))
        self.coordinate_names = names
        self.inequalities = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.coordinate_names)

    def contains(self, point, tol: float = MEMBERSHIP_TOL):
        """Whether ``point`` satisfies every row and R >= 0 to within ``tol``.
        An (N, k) array of N points gives a bool array of N verdicts."""
        p = np.asarray(point, dtype=float)
        points = p if p.ndim == 2 else p.reshape(1, -1)
        if points.shape[1] != self.dim:
            raise InvariantError(
                f"point of length {points.shape[1]} in {self.dim}-D region"
            )
        inside = np.all(points >= -tol, axis=1)
        for c, b in self.inequalities:
            inside &= points @ c <= b + tol
        return inside if p.ndim == 2 else bool(inside[0])

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
    """Scale rows to unit max coefficient, drop tautologies, dedupe.

    A row with no coefficients left and a negative bound is an infeasibility
    witness; the caller decides how to report it.
    """
    out = []
    seen = set()
    for c, b in rows:
        scale = float(np.max(np.abs(c)))
        if scale < 1e-12:
            if b < -1e-9:
                raise InvariantError("inequality system is infeasible")
            continue
        c = c / scale
        b = b / scale
        key = tuple(np.round(c, 10)) + (round(b, 10),)
        if key in seen:
            continue
        seen.add(key)
        out.append((c, b))
    return out


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call: importing
    scipy.optimize takes about 0.3 s and only the LP pruning of systems over
    more than two coordinates needs it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _lp_prune(rows, dim, free=0):
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
        if res.status == 0 and -res.fun <= b + PRUNE_TOL:
            keep.remove(i)
    return [rows[j] for j in keep]


def _support_2d(rows, dim):
    """The support function of the polygon {c . R <= b for (c, b) in rows,
    R >= 0} over ``dim`` = 1 or 2 coordinates: ``support(c, active)`` is
    max c . R over the polygon of the ``active`` rows (a boolean mask, all
    rows when None), or inf when that polygon is unbounded along c.  A 1-D
    system is the 2-D one with R2 = 0.  Every b must be >= 0, so the origin
    is feasible.

    Built once per row set: every pairwise intersection of the rows and the
    two axes, with the rows each violates by more than VERTEX_TOL, and the
    candidate recession rays (both axes and +- the perpendicular of each
    row), with the rows each ray climbs.  A query masks columns of these
    tables; no row set is solved again.  Every candidate that meets the
    active rows lies in their polygon and every vertex and extreme ray of
    it is a candidate, so the maximum over candidates is exact.
    """
    coeffs = np.zeros((len(rows), 2))
    coeffs[:, :dim] = np.reshape([c for c, _ in rows], (-1, dim))
    bounds = np.array([b for _, b in rows], dtype=float)
    lines = np.concatenate([coeffs, -np.eye(2)])
    rhs = np.concatenate([bounds, [0.0, 0.0]])
    i, j = np.triu_indices(len(lines), 1)
    det = lines[i, 0] * lines[j, 1] - lines[i, 1] * lines[j, 0]
    crossing = np.abs(det) > 1e-12  # parallel lines do not meet
    i, j, det = i[crossing], j[crossing], det[crossing]
    points = np.stack([rhs[i] * lines[j, 1] - rhs[j] * lines[i, 1],
                       lines[i, 0] * rhs[j] - lines[j, 0] * rhs[i]], axis=1) / det[:, None]
    outside = points @ coeffs.T > bounds + VERTEX_TOL
    inside = np.all(points >= -VERTEX_TOL, axis=1)
    perps = coeffs[:, ::-1] * [-1.0, 1.0]
    rays = np.concatenate([np.eye(2), perps, -perps])
    rays = rays[np.any(rays != 0.0, axis=1)]
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    rays = rays[np.all(rays >= -VERTEX_TOL, axis=1)]
    climbing = rays @ coeffs.T > VERTEX_TOL

    def support(c, active=None):
        c = np.asarray(c, dtype=float)
        if active is None:
            active = np.ones(len(bounds), dtype=bool)
        unblocked = ~np.any(climbing[:, active], axis=1)
        if np.any(rays[unblocked, : c.size] @ c > VERTEX_TOL):
            return np.inf
        meets = inside & ~np.any(outside[:, active], axis=1)
        return float(np.max(points[meets, : c.size] @ c))

    return support


def _exact_prune(rows, dim):
    """``_lp_prune`` over one or two coordinates, by exact polygon geometry:
    rows are tested in order, each against the rows still kept other than
    itself, and dropped when their support value is at most b + PRUNE_TOL;
    a row along which the others are unbounded is kept."""
    support = _support_2d(rows, dim)
    keep = np.ones(len(rows), dtype=bool)
    for i, (c, b) in enumerate(rows):
        keep[i] = False
        keep[i] = not support(c, keep) <= b + PRUNE_TOL
    return [row for row, kept in zip(rows, keep) if kept]


def _eliminate_variable(rows, col):
    """One Fourier-Motzkin step removing the variable at index ``col``."""
    zero, pos, neg = [], [], []
    for c, b in rows:
        v = c[col]
        if abs(v) < 1e-12:
            zero.append((c, b))
        elif v > 0:
            pos.append((c, b))
        else:
            neg.append((c, b))
    combined = list(zero)
    for cp, bp in pos:
        for cn, bn in neg:
            # scale so the col coefficients cancel exactly
            c = cp * (-cn[col]) + cn * cp[col]
            b = bp * (-cn[col]) + bn * cp[col]
            c[col] = 0.0
            combined.append((c, b))
    return combined


def fm_project(region: HalfspaceRegion, keep_matrix, new_names) -> HalfspaceRegion:
    """Project onto new coordinates s = M . R by Fourier-Motzkin elimination.

    ``keep_matrix`` rows express each new coordinate as a nonnegative
    combination of the old ones (e.g. R1 = R1p + R1c).  Old coordinates are
    eliminated one at a time (fewest pairings first); past PRUNE_THRESHOLD
    rows the system is pruned by LP.  The final rows are pruned exactly
    (``_exact_prune``) onto one or two coordinates and by LP onto more.
    The two prunes agree up to their tolerances (PRUNE_TOL and VERTEX_TOL
    here, the LP solver's own feasibility tolerance there): a row redundant
    by a margin between the two can be kept by one and dropped by the
    other.  They keep the same rows in the same order on the systems of the
    test suite and on the seeded common-message systems.
    """
    m = np.array(keep_matrix, dtype=float)
    new_names = tuple(str(n) for n in new_names)
    k, n = m.shape
    if len(new_names) != k:
        raise InvariantError(f"{len(new_names)} names for {k} map rows")
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

    rows = _normalize_rows(rows)
    remaining = list(range(k, k + n))
    while remaining:
        # fewest-products heuristic
        def cost(col):
            p = sum(1 for c, _ in rows if c[col] > 1e-12)
            q = sum(1 for c, _ in rows if c[col] < -1e-12)
            return p * q

        col = min(remaining, key=cost)
        remaining.remove(col)
        rows = _normalize_rows(_eliminate_variable(rows, col))
        if len(rows) > PRUNE_THRESHOLD:
            # the old coordinates are free in these LPs: elimination reads
            # R >= 0 only from rows, so those rows must stay
            rows = _lp_prune(rows, k + n, free=n)
    if not rows:
        raise InvariantError("projection produced an empty inequality system")

    final = [(c[:k].copy(), b) for c, b in rows]
    final = _normalize_rows(final)
    final = _exact_prune(final, k) if k <= 2 else _lp_prune(final, k)
    if not final:
        # every constraint was redundant against nonnegativity alone
        raise InvariantError("projection produced an unbounded region")
    return HalfspaceRegion(new_names, final)


def equivalent(a: HalfspaceRegion, b: HalfspaceRegion) -> bool:
    """Whether two regions over the same one or two coordinates are the
    same set: every row of each is implied by the other (its support value
    over the other region is at most its bound + MEMBERSHIP_TOL).  A region
    that is unbounded along a row of the other is therefore never
    equivalent."""
    if a.coordinate_names != b.coordinate_names:
        raise InvariantError(
            f"coordinate names differ: {a.coordinate_names} vs {b.coordinate_names}"
        )
    if a.dim > 2:
        raise InvariantError(f"exact comparison needs at most 2 coordinates, got {a.dim}")

    def implied(rows, region):
        support = _support_2d(region.inequalities, region.dim)
        return all(support(c) <= bound + MEMBERSHIP_TOL for c, bound in rows)

    return implied(a.inequalities, b) and implied(b.inequalities, a)


def radial_extents(coeffs, bounds, thetas) -> np.ndarray:
    """Distance from the origin to the boundary of {c . R <= b, R >= 0}
    along each direction (cos theta, sin theta), for a stack of bound
    vectors that share one set of coefficient rows.

    ``coeffs`` is (rows, 2), ``bounds`` is (G, rows); returns (G, angles).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    speed = coeffs[:, :1] * np.cos(thetas) + coeffs[:, 1:] * np.sin(thetas)
    moving = speed > 1e-12
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


def export_boundary_csv(region: HalfspaceRegion, path, n_angles: int = 181) -> None:
    """Write the boundary sweep as CSV with header theta,R1,R2."""
    lines = ["theta,R1,R2"]
    for theta, r1, r2 in boundary_sample(region, n_angles):
        lines.append(f"{theta:.10g},{r1:.10g},{r2:.10g}")
    Path(path).write_text("\n".join(lines) + "\n")


def region_to_json(region: HalfspaceRegion) -> dict:
    return {
        "coords": list(region.coordinate_names),
        "ineqs": [
            {"c": [float(v) + 0.0 for v in c], "b": float(b)}
            for c, b in region.inequalities
        ],
    }


def region_from_json(doc) -> HalfspaceRegion:
    try:
        names = doc["coords"]
        rows = [(item["c"], item["b"]) for item in doc["ineqs"]]
    except (KeyError, TypeError) as exc:
        raise InvariantError(f"bad region document: {exc}") from None
    return HalfspaceRegion(names, rows)


def save_region_json(region: HalfspaceRegion, path) -> None:
    Path(path).write_text(json.dumps(region_to_json(region), sort_keys=True) + "\n")


POLYMATROID_SLACK_TOL = -1e-8


def polymatroid_slacks(quantities: dict) -> dict:
    """Slack of each ordering inequality for one receiver's split-rate
    quantities {a, b, c, d}: all five are nonnegative when the four values
    come from entropic evaluation."""
    a, b, c, d = (float(quantities[k]) for k in "abcd")
    return {
        "b-a": b - a,
        "d-b": d - b,
        "c-a": c - a,
        "d-c": d - c,
        "b+c-a-d": b + c - a - d,
    }


def polymatroid_check(channel, cmg_dist):
    """Check both receivers' split-rate orderings for a common-message code
    distribution on an interference channel.

    Returns (ok, report); the report names the first violated inequality.
    """
    from .network import cmg_informations

    info = cmg_informations(channel, cmg_dist)
    for rx in ("1", "2"):
        quantities = {k: info[k + rx] for k in "abcd"}
        for name, slack in polymatroid_slacks(quantities).items():
            if slack < POLYMATROID_SLACK_TOL:
                labeled = name.replace("a", "a" + rx).replace("b", "b" + rx)
                labeled = labeled.replace("c", "c" + rx).replace("d", "d" + rx)
                return False, f"violated {labeled}: slack {slack:.3e}"
    return True, "all orderings hold"
