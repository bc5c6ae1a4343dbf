"""Error types, the tolerance table, and standard-library input checks.

The command line reports flag and JSON-syntax errors from here before any
numerical library is imported.  ``channels`` re-exports both error types
and ``qstate`` re-exports ``InvariantError``.

Every threshold the library compares against is named once below with its
meaning; modules import it from here.  Each layer accepts what the layer
before it produces (``tests/test_packaging.py`` asserts these):

* a measured row Tr[E_y rho] misses 1 by the state's trace defect plus the
  POVM's completeness defect times ||rho||_1: about 2 PROB_SUM_TOL <= DERIVED_SUM_TOL;
* a joint-table row multiplies k accepted factors (k = 5 for ``hk`` and
  ``cmg``): (1 + PROB_SUM_TOL)^k - 1 <= DERIVED_SUM_TOL;
* a bosonic rate becomes a region bound: CLOSED_FORM_TOL <= INFO_CLAMP;
* exact region equality reads polygon vertices: POLYGON_TOL <= MEMBERSHIP_TOL.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path


class SchemaError(ValueError):
    """A document, name, or argument does not match the expected structure."""


class InvariantError(ValueError):
    """A numerical invariant failed (non-PSD state, negative information, ...)."""


HERMITICITY_TOL = 1e-10  # largest entry of m - m^dagger of an accepted matrix
PSD_TOL = -1e-10  # least eigenvalue of an accepted matrix
PROB_SUM_TOL = 1e-10  # |sum - 1| of a distribution, a trace, or sum(E) - I
PROB_NEGATIVE_TOL = 1e-12  # a probability down to -this is roundoff of 0
DERIVED_SUM_TOL = 1e-9  # |sum - 1| of a joint table or a measured row
EIG_CUTOFF = 1e-12  # eigenvalues at or below this add no entropy and no SRM hit
INFO_CLAMP = 1e-9  # an information or rate bound down to -this is 0
MEMBERSHIP_TOL = 1e-7  # slack of region membership and exact equality
POLYGON_TOL = 1e-9  # slack of polygon vertices, rays and redundant rows
ZERO_COEFF_TOL = 1e-12  # a row coefficient or determinant below this is 0
BA_GAP_TOL = 1e-9  # Blahut-Arimoto stops once upper - lower is below this
SUPPORT_RELATIVE_CUTOFF = 1e-12  # sigma's support: eigenvalues above this x max
CLOSED_FORM_TOL = 1e-12  # roundoff of a bosonic rate, threshold test or eta sum
ETA_CONSISTENCY_TOL = 1e-9  # |sqrt(eta11 eta12) - sqrt(eta21 eta22)|
PROJECTOR_TOL = 1e-8  # largest entry of V^dagger V - I of projector columns
PINV_RELATIVE_CUTOFF = 1e-10  # SRM support: S eigenvalues above this x max


def read_json(path, what: str):
    """Parse the JSON file at ``path``; an unreadable or malformed file is a
    SchemaError naming ``what`` the file should hold.  JSON (RFC 8259) has
    no NaN, Infinity or -Infinity, so the file may hold none of them, not
    even under a key its reader ignores."""

    def non_finite(name):
        raise SchemaError(f"{what} file {path} is not JSON: non-finite number {name}")

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file {path} is not JSON: {exc}") from None


def whole_number(value, what: str) -> int:
    """``value`` as an int when it is a finite whole number; otherwise a
    SchemaError naming ``what`` it counts."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise SchemaError(f"{what} must be a whole number, got {value!r}")
    return whole


def real_floats(values, what: str) -> list[float]:
    """``values`` as floats when each is a real number, not a bool (a whole
    number or Fraction beyond the float range reads as inf of its sign);
    otherwise a SchemaError naming ``what`` they are and the values at fault."""
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, numbers.Real)]
    if bad:
        raise SchemaError(f"{what} must be real numbers, got {bad}")
    floats = []
    for v in values:
        try:
            floats.append(float(v))
        except OverflowError:
            floats.append(math.inf if v > 0 else -math.inf)
    return floats


def finite_reals(values, what: str) -> list[float]:
    """``real_floats(values, what)`` when every float is finite; otherwise
    a SchemaError naming ``what`` they are."""
    floats = real_floats(values, what)
    if not all(math.isfinite(v) for v in floats):
        raise SchemaError(f"{what} must be finite, got {floats}")
    return floats
