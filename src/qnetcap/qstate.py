"""Dense complex-matrix quantum states: the one matrix rule, density
matrices, partial traces, and the JSON matrix encoding.

Every matrix that stands for a state or a measurement element passes
``psd_matrix``: square, finite, Hermitian within HERMITICITY_TOL and with
least eigenvalue at least PSD_TOL.  ``DensityMatrix`` and ``channels.Povm``
both apply it.  Inputs that fail are rejected rather than repaired: silent
symmetrization hides modeling bugs upstream.  Values are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HERMITICITY_TOL, PROB_SUM_TOL, PSD_TOL, InvariantError, real_floats


def psd_matrix(entries, what: str = "matrix") -> np.ndarray:
    """The one matrix rule: ``entries`` as a new complex array that is
    square, nonempty and finite, Hermitian within HERMITICITY_TOL (largest
    entry of m - m^dagger), and whose least eigenvalue is at least PSD_TOL.
    Otherwise an InvariantError naming ``what``."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvariantError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantError(f"{what} has non-finite entries")
    herm_defect = np.max(np.abs(m - m.conj().T))
    if herm_defect > HERMITICITY_TOL:
        raise InvariantError(f"{what} is not Hermitian: defect {herm_defect:.3e}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < PSD_TOL:
        raise InvariantError(f"{what} is not PSD: min eigenvalue {min_eig:.3e}")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace matrix that passes ``psd_matrix``, tagged with its
    subsystem dimensions.

    ``dims`` is the ordered list of subsystem dimensions whose product equals
    the matrix size; it is carried on the value (not inferred) so that
    partial traces are unambiguous.
    """

    entries: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, entries, dims):
        m = psd_matrix(entries)
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise InvariantError(f"subsystem dimensions must be positive: {dims}")
        if math.prod(dims) != m.shape[0]:
            raise InvariantError(
                f"dims {dims} have product {math.prod(dims)}, "
                f"matrix has size {m.shape[0]}"
            )
        trace_defect = abs(m.trace() - 1.0)
        if trace_defect > PROB_SUM_TOL:
            raise InvariantError(f"trace differs from 1 by {trace_defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def ket_projector(vector) -> np.ndarray:
    """|v><v| as a plain, unchecked complex array."""
    v = np.array(vector, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def pure_state(vector, dims=None) -> DensityMatrix:
    """Density matrix |v><v| of a state vector normalized within PROB_SUM_TOL."""
    entries = ket_projector(vector)
    return DensityMatrix(entries, (len(entries),) if dims is None else dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all subsystems not listed in ``keep`` (indices into dims).

    The kept subsystems stay in their original order.
    """
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep:
        raise InvariantError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise InvariantError(f"keep indices {keep} out of range for {n} subsystems")
    return DensityMatrix(reduce_blocks(rho.entries, rho.dims, keep),
                         [rho.dims[k] for k in keep])


def reduce_blocks(blocks: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace of every matrix in a stack ``blocks`` of shape
    (..., D, D) whose subsystem dimensions are ``dims``, keeping the sorted
    subsystem indices ``keep``.  Returns raw arrays; nothing is validated.
    """
    lead = blocks.shape[:-2]
    dims = list(dims)
    t = blocks.reshape(lead + tuple(dims) + tuple(dims))
    # trace from the highest index down so earlier positions do not shift
    for idx in reversed([i for i in range(len(dims)) if i not in keep]):
        t = np.trace(t, axis1=len(lead) + idx, axis2=len(lead) + idx + len(dims))
        dims.pop(idx)
    d = math.prod(dims)
    return t.reshape(lead + (d, d))


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major list of [re, im] pairs.

    Signed zeros are normalized to +0.0 so serialization is stable under a
    load/dump round trip.
    """
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in flat]


def matrix_from_json(pairs, size: int) -> np.ndarray:
    """The size x size matrix of ``size**2`` row-major [re, im] pairs.  Each
    number is read by ``errors.real_floats`` (SchemaError); a wrong shape
    or a non-finite entry is an InvariantError."""
    if not (isinstance(pairs, list) and len(pairs) == size * size
            and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise InvariantError(f"matrix encoding must be {size * size} [re, im] pairs")
    arr = np.array(real_floats([v for p in pairs for v in p], "matrix entries"))
    if not np.all(np.isfinite(arr)):
        raise InvariantError("matrix encoding has non-finite entries")
    return (arr[0::2] + 1j * arr[1::2]).reshape(size, size)
