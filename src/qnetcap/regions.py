"""Half-space rate-region geometry.

A region is a finite list of inequalities c . R <= b over named nonnegative
rate coordinates.  This module provides membership, intersection,
Fourier-Motzkin projection onto new coordinates (with LP redundancy pruning),
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

    def contains(self, point, tol: float = MEMBERSHIP_TOL) -> bool:
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
    scipy.optimize takes about 0.5 s and only the LP pruning needs it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _lp_prune(rows, dim):
    """Drop rows whose bound cannot be attained: maximize c . z over the
    remaining rows (z >= 0); if the optimum stays below b the row is
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
            bounds=[(0, None)] * dim,
            method="highs",
        )
        if res.status == 0 and -res.fun <= b + 1e-9:
            keep.remove(i)
    return [rows[j] for j in keep]


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
    eliminated one at a time (fewest pairings first) with LP redundancy
    pruning to keep the system small.
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
            rows = _lp_prune(rows, k + n)
    if not rows:
        raise InvariantError("projection produced an empty inequality system")

    final = [(c[:k].copy(), b) for c, b in rows]
    final = _normalize_rows(final)
    final = _lp_prune(final, k)
    if not final:
        # every constraint was redundant against nonnegativity alone
        raise InvariantError("projection produced an unbounded region")
    return HalfspaceRegion(new_names, final)


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
