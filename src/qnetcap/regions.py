"""Half-space rate-region geometry.

A region is a finite list of inequalities c . R <= b over named nonnegative
rate coordinates.  This module provides membership, intersection,
Fourier-Motzkin projection onto one or two new coordinates with exact
redundancy pruning, the exact equality test ``equivalent`` for regions of one
or two coordinates (with ``implied_share``, the share of rows each region
implies of the other), 2-D boundary sampling for plots, and JSON export.
The prune and ``implied_share`` read support values in array passes over
one table of candidate points and rays (``_Polygon``).  A support value
only falls as rows become active, so two passes settle most rows of the
prune, kept or dropped, whatever the order of the rows; only rows that
neither pass settles are tested one at a time in their order.
Of the package it imports only ``errors``.
Regions hold plain floats, so building and printing one needs no numpy;
only the functions that do array work import it.
"""

from __future__ import annotations

import math
import numbers

from .errors import INFO_CLAMP, MEMBERSHIP_TOL, POLYGON_TOL, ZERO_COEFF_TOL, InvariantError


def clamp_information(values):
    """Zero out roundoff negatives of an information quantity or rate bound
    (a real number, returned as a float) or of an array of them; anything
    below -INFO_CLAMP is an entropic bug.  A zero of either sign reads as
    0.0, and a number needs no numpy."""
    if isinstance(values, numbers.Real):
        v = float(values)
        if v < -INFO_CLAMP:
            raise InvariantError(f"information quantity {v:.3e} below clamp")
        return 0.0 if v <= 0.0 else v
    import numpy as np

    v = np.asarray(values, dtype=float)
    if (v < -INFO_CLAMP).any():
        raise InvariantError(f"information quantity {float(v.min()):.3e} below clamp")
    return np.maximum(v, 0.0)


class HalfspaceRegion:
    """Inequalities c . R <= b over named coordinates, with implicit R >= 0.

    Each row is a pair (c, b): a tuple of floats and a float.  Bounds pass
    ``clamp_information``: roundoff negatives read as 0, and lower bounds
    signal an upstream entropic bug.
    """

    def __init__(self, coordinate_names, inequalities):
        names = tuple(str(n) for n in coordinate_names)
        if len(names) != len(set(names)):
            raise InvariantError(f"repeated coordinate names {names}")
        rows = []
        for coeffs, bound in inequalities:
            c = tuple(map(float, coeffs))
            if len(c) != len(names):
                raise InvariantError(
                    f"coefficient vector of length {len(c)} for {len(names)} coordinates"
                )
            b = float(bound)
            if not all(map(math.isfinite, c + (b,))):
                raise InvariantError("non-finite inequality")
            rows.append((c, clamp_information(b)))
        self.coordinate_names = names
        self.inequalities = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.coordinate_names)

    def contains(self, point, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``point`` satisfies every row and R >= 0 to within ``tol``."""
        import numpy as np

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


def _normalize(coeffs, bounds, history):
    """Scale each row of the stack c . R <= b to unit max |c|, drop
    tautologies, and keep the first of the rows that share c and b rounded
    to 10 decimals and their entry of ``history``.

    The key holds the history, so rows of distinct histories never share
    one: when every history left is distinct no key is built and every row
    is kept, in order.  Only stacks with a repeated history (the final one,
    where every history is 0) are deduplicated.

    A row with no coefficients left and a negative bound is an infeasibility
    witness.
    """
    import numpy as np

    scale = np.abs(coeffs).max(axis=1)
    live = scale >= ZERO_COEFF_TOL
    if (bounds[~live] < -INFO_CLAMP).any():
        raise InvariantError("inequality system is infeasible")
    coeffs, bounds = coeffs[live] / scale[live, None], bounds[live] / scale[live]
    history = [h for h, alive in zip(history, live.tolist()) if alive]
    if len(set(history)) == len(history):
        return coeffs, bounds, history
    first = {}
    keys = zip(map(tuple, np.round(coeffs, 10).tolist()), np.round(bounds, 10).tolist(), history)
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    rows = list(first.values())
    return coeffs[rows], bounds[rows], [history[i] for i in rows]


# perfbench/layertrace.py counts LP calls by wrapping this name; the library makes none
def linprog(*args, **kwargs):
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


class _Polygon:
    """The polygons {c . R <= b for the active (c, b) of rows, R >= 0} over
    ``dim`` = 1 or 2 coordinates (1-D is 2-D with R2 = 0), for any set of
    active rows.  Every b must be >= 0, so the origin is feasible.

    Built once per row set: every pairwise intersection of the rows and the
    two axes, and the candidate recession rays (both axes and +- the
    perpendicular of each row).  Tables of shape (rows, candidates) hold
    each row's value at every point, whether it violates the point by more
    than POLYGON_TOL and whether it climbs along every ray.  Every candidate
    that meets the active rows lies in their polygon and every vertex and
    extreme ray of it is a candidate, so the maximum over candidates is
    exact, also with inactive rows' candidates.  The candidates that meet a
    set of rows shrink as rows join it, so a support value can only fall as
    rows become active.
    """

    def __init__(self, rows, dim):
        import numpy as np

        coeffs = np.zeros((len(rows), 2))
        coeffs[:, :dim] = np.reshape([c for c, _ in rows], (-1, dim))
        bounds = np.array([b for _, b in rows], dtype=float)
        lines = np.concatenate([coeffs, -np.eye(2)])
        rhs = np.concatenate([bounds, [0.0, 0.0]])
        i, j = np.nonzero(np.arange(len(lines))[:, None] < np.arange(len(lines)))  # pairs i < j
        det = lines[i, 0] * lines[j, 1] - lines[i, 1] * lines[j, 0]
        crossing = np.abs(det) > ZERO_COEFF_TOL  # parallel lines do not meet
        i, j, det = i[crossing], j[crossing], det[crossing]
        points = np.stack([rhs[i] * lines[j, 1] - rhs[j] * lines[i, 1],
                           lines[i, 0] * rhs[j] - lines[j, 0] * rhs[i]], axis=1) / det[:, None]
        points = points[(points >= -POLYGON_TOL).all(axis=1)]
        self.heights = coeffs @ points.T
        self.bounds = bounds
        self.outside = self.heights > bounds[:, None] + POLYGON_TOL
        perps = coeffs[:, ::-1] * [-1.0, 1.0]
        rays = np.concatenate([np.eye(2), perps, -perps])
        rays = rays[(rays != 0.0).any(axis=1)]
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        self.climbing = coeffs @ rays[(rays >= -POLYGON_TOL).all(axis=1)].T > POLYGON_TOL

    def supports(self, active):
        """max c . R for the c of every row over the polygon of the rows of
        the boolean mask ``active`` other than itself, or inf where that
        polygon is unbounded along c: one array pass over the tables."""
        import numpy as np

        violated = self.outside[active].sum(axis=0)
        blocked = self.climbing[active].sum(axis=0)
        # a candidate meets the active rows other than row i when none of
        # them, or row i alone, violates or climbs it
        own = active[:, None]
        feasible = (violated == 0) | (violated == 1) & own & self.outside
        free = (blocked == 0) | (blocked == 1) & own & self.climbing
        values = np.where(feasible, self.heights, -math.inf).max(axis=1)
        return np.where((self.climbing & free).any(axis=1), math.inf, values)


def _exact_prune(rows, dim):
    """Drop redundant rows over one or two coordinates: rows are tested in
    order, each against the rows still kept other than itself, and dropped
    when their support value is at most b + POLYGON_TOL; a row along which the
    others are unbounded is kept.  The kept rows are the objects passed in.

    In that walk a row is tested with at most every other row active and at
    least the rows that every order keeps, and its support value only falls
    as rows become active (``_Polygon``).  So two passes over one polygon
    decide a row whatever the order: a row that all the other rows do not
    imply is kept, and a row that those always-kept rows imply is dropped.
    Only the rows neither pass decides are walked in order, each with the
    rows kept so far and every later row active, as the full walk has them.
    """
    import numpy as np

    polygon = _Polygon(rows, dim)
    limits = polygon.bounds + POLYGON_TOL
    kept = polygon.supports(np.ones(len(rows), dtype=bool)) > limits
    order = np.arange(len(rows))
    for i in np.flatnonzero(~kept & (polygon.supports(kept) > limits)).tolist():
        kept[i] = polygon.supports(kept | (order > i))[i] > limits[i]
    return [rows[i] for i in np.flatnonzero(kept).tolist()]


def fm_project(region: HalfspaceRegion, keep_matrix, new_names) -> HalfspaceRegion:
    """Project onto one or two new coordinates s = M . R by Fourier-Motzkin
    elimination.

    ``keep_matrix`` rows express each new coordinate as a nonnegative
    combination of the old ones (e.g. R1 = R1p + R1c).  Old coordinates are
    eliminated one at a time (fewest pairings first) on the whole stack of
    rows: one coefficient matrix, one bound vector and one history per row.
    A step keeps the rows without the coordinate, then adds every pair of a
    row with a positive and a row with a negative coefficient that Kohler's
    rule allows (positive rows outer), and normalises the stack
    (``_normalize``).  The final rows are pruned exactly (``_exact_prune``).

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
    import numpy as np

    try:
        m = np.array(keep_matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvariantError(f"projection map is not a matrix: {exc}") from None
    if m.ndim != 2 or not m.size:
        raise InvariantError(f"projection map of shape {m.shape} is not a nonempty matrix")
    if not np.all(np.isfinite(m)):
        raise InvariantError("projection map has a non-finite entry")
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

    # extended variable order (new coords, old coords): the region's rows,
    # s_j >= m_j . R and s_j <= m_j . R for each j, then R >= 0
    eq = np.concatenate([-np.eye(k), m], axis=1)
    coeffs = np.concatenate([
        np.concatenate([np.zeros((len(region.inequalities), k)),
                        np.reshape([c for c, _ in region.inequalities], (-1, n))], axis=1),
        np.stack([eq, -eq], axis=1).reshape(2 * k, k + n),
        -np.eye(n, k + n, k),
    ])
    bounds = np.zeros(len(coeffs))
    bounds[: len(region.inequalities)] = [b for _, b in region.inequalities]
    coeffs, bounds, history = _normalize(coeffs, bounds, [1 << i for i in range(len(coeffs))])
    remaining = list(range(k, k + n))
    while remaining:
        pairings = (coeffs > ZERO_COEFF_TOL).sum(axis=0) * (coeffs < -ZERO_COEFF_TOL).sum(axis=0)
        col = min(remaining, key=pairings.__getitem__)
        remaining.remove(col)
        most = n - len(remaining) + 1  # members of a history after this step
        v = coeffs[:, col]
        zero = np.abs(v) < ZERO_COEFF_TOL
        neg = np.nonzero(v <= -ZERO_COEFF_TOL)[0].tolist()
        pairs = [(i, j) for i in np.nonzero(v >= ZERO_COEFF_TOL)[0].tolist() for j in neg
                 if (history[i] | history[j]).bit_count() <= most]
        p, q = np.reshape(np.array(pairs, dtype=int), (-1, 2)).T
        # scale so the col coefficients cancel exactly: -(x y) + y x is +0.0
        combined = coeffs[p] * -v[q, None] + coeffs[q] * v[p, None]
        coeffs, bounds, history = _normalize(
            np.concatenate([coeffs[zero], combined]),
            np.concatenate([bounds[zero], bounds[p] * -v[q] + bounds[q] * v[p]]),
            [history[i] for i in np.flatnonzero(zero).tolist()]
            + [history[i] | history[j] for i, j in pairs],
        )

    coeffs, bounds, _ = _normalize(coeffs[:, :k], bounds, [0] * len(bounds))
    final = _exact_prune(list(zip(coeffs, bounds)), k)
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
    rows = a.inequalities + b.inequalities
    if not rows:
        return 1.0
    import numpy as np

    # one polygon over both regions, each side read with the other side's rows active
    polygon = _Polygon(rows, a.dim)
    limits = polygon.bounds + MEMBERSHIP_TOL
    in_b = np.arange(len(rows)) >= len(a.inequalities)
    implied = np.where(in_b, polygon.supports(~in_b), polygon.supports(in_b)) <= limits
    return int(implied.sum()) / len(rows)


def equivalent(a: HalfspaceRegion, b: HalfspaceRegion) -> bool:
    """Whether two regions over the same one or two coordinates are the
    same set: every row of each is implied by the other
    (``implied_share`` is 1)."""
    return implied_share(a, b) == 1.0


def radial_extents(coeffs, bounds, thetas):
    """Distance from the origin to the boundary of {c . R <= b, R >= 0}
    along each direction (cos theta, sin theta), for a stack of bound
    vectors that share one set of coefficient rows.

    ``coeffs`` is (rows, 2), ``bounds`` is (G, rows); returns (G, angles).
    """
    import numpy as np

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
    import numpy as np

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
            {"c": [v + 0.0 for v in c], "b": b}
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
