"""Finite classical-quantum channel models.

A channel maps tuples of classical input symbols (one or two senders) to
density matrices on one or two named quantum output systems.  This module
holds the channel type, POVMs, JSON load/dump, a registry of worked example
channels, and the classical channel a measurement induces.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import PROB_SUM_TOL, InvariantError, SchemaError, finite_reals
from .qstate import (
    DensityMatrix,
    ket_projector,
    matrix_from_json,
    matrix_to_json,
    psd_matrix,
    pure_state,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


class CqChannel:
    """Map from classical input tuples to output density matrices.

    ``input_alphabets`` is a tuple of one or two symbol tuples (symbols are
    canonicalized to str), ``outputs`` maps each full input tuple to a
    DensityMatrix, and ``output_names`` labels the subsystem slots of the
    output dims, e.g. ("B",) or ("B1", "B2").
    """

    def __init__(self, input_alphabets, outputs, output_names=None):
        alphabets = tuple(tuple(str(s) for s in a) for a in input_alphabets)
        if not 1 <= len(alphabets) <= 2:
            raise SchemaError(f"{len(alphabets)} input alphabets; need 1 or 2")
        for a in alphabets:
            if not a:
                raise SchemaError("empty input alphabet")
            if len(a) != len(set(a)):
                raise SchemaError(f"alphabet {a} has repeated symbols")

        canon = {}
        for key, rho in outputs.items():
            if not isinstance(key, tuple):
                key = (key,)
            canon[tuple(str(s) for s in key)] = rho
        combos = set(itertools.product(*alphabets))
        missing = combos - set(canon)
        if missing:
            raise SchemaError(f"no output for input {sorted(missing)[0]}")
        extra = set(canon) - combos
        if extra:
            raise SchemaError(f"output for unknown input {sorted(extra)[0]}")
        dims = None
        for combo in sorted(combos):
            rho = canon[combo]
            if not isinstance(rho, DensityMatrix):
                raise SchemaError(f"output for input {combo} is not a DensityMatrix")
            if dims is None:
                dims = rho.dims
            elif rho.dims != dims:
                raise InvariantError(
                    f"output dims {rho.dims} at input {combo} differ from {dims}"
                )

        if output_names is None:
            output_names = ("B",) if len(dims) == 1 else tuple(
                f"B{i + 1}" for i in range(len(dims))
            )
        output_names = tuple(str(n) for n in output_names)
        if len(output_names) != len(dims):
            raise SchemaError(
                f"{len(output_names)} output names for {len(dims)} subsystems"
            )
        if not 1 <= len(output_names) <= 2:
            raise SchemaError(f"{len(output_names)} quantum outputs; need 1 or 2")

        self.input_alphabets = alphabets
        self.outputs = canon
        self.output_names = output_names
        self.dims = dims

    @property
    def n_inputs(self) -> int:
        return len(self.input_alphabets)

    @property
    def output_dim(self) -> int:
        return math.prod(self.dims)

    def output(self, *symbols) -> DensityMatrix:
        key = tuple(str(s) for s in symbols)
        try:
            return self.outputs[key]
        except KeyError:
            raise SchemaError(f"no output for input {key}") from None

    def input_tuples(self):
        return itertools.product(*self.input_alphabets)

    def single_alphabet(self) -> tuple:
        """The input alphabet of a single-input channel; any other channel
        is a schema error."""
        if self.n_inputs != 1:
            raise SchemaError(
                f"expected a single-input channel, got {self.n_inputs} input(s)")
        return self.input_alphabets[0]


class Povm:
    """Measurement: elements of one size that pass ``qstate.psd_matrix``
    and sum to the identity.

    Completeness is held to ``PROB_SUM_TOL`` in the spectral norm of
    sum(E) - I, which bounds |Tr[(sum(E) - I) rho]| / ||rho||_1, so with a
    state's own trace defect the outcome probabilities sum to 1 within
    DERIVED_SUM_TOL, the tolerance of a transition row.  Outcomes are
    numbered by element order.
    """

    def __init__(self, elements):
        mats = [np.asarray(e, dtype=complex) for e in elements]
        if not mats:
            raise SchemaError("empty POVM")
        if mats[0].ndim != 2:
            raise SchemaError(f"element 0 has shape {mats[0].shape}, want a matrix")
        d = mats[0].shape[0]
        for k, e in enumerate(mats):
            if e.shape != (d, d):
                raise SchemaError(f"element {k} has shape {e.shape}, want {(d, d)}")
        mats = tuple(psd_matrix(e, f"element {k}") for k, e in enumerate(mats))
        defect = float(np.linalg.norm(sum(mats) - np.eye(d), 2))
        if defect > PROB_SUM_TOL:
            raise InvariantError(f"POVM completeness defect {defect:.3e}")
        for e in mats:
            e.setflags(write=False)
        self.elements = mats

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def computational(cls, dim: int) -> "Povm":
        """Projectors onto the standard basis, outcome k for basis state k."""
        eye = np.eye(dim, dtype=complex)
        return cls([np.outer(eye[:, k], eye[:, k].conj()) for k in range(dim)])

    @classmethod
    def qubit_projective(cls, angle: float) -> "Povm":
        """Qubit projectors onto directions angle and angle + pi/2."""
        v0 = np.array([np.cos(angle), np.sin(angle)])
        v1 = np.array([-np.sin(angle), np.cos(angle)])
        return cls([np.outer(v0, v0), np.outer(v1, v1)])


def measurement_probabilities(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome distribution Tr[E_y rho] in the POVM's element order.

    An element may have eigenvalues down to ``PSD_TOL``, so a trace may be
    slightly negative.  Such traces read as 0 and the others are scaled so
    the sum stays Tr[sum(E) rho], within DERIVED_SUM_TOL of 1; with no
    negative trace nothing is rescaled."""
    if povm.dim != rho.dim:
        raise SchemaError(f"POVM dim {povm.dim} vs state dim {rho.dim}")
    raw = np.array([np.trace(e @ rho.entries).real for e in povm.elements])
    p = np.clip(raw, 0.0, None)
    if (raw < 0.0).any():
        p *= raw.sum() / p.sum()
    return p


def induced_classical_channel(ch: CqChannel, povm: Povm) -> np.ndarray:
    """Transition matrix p(y|x) = Tr[E_y rho_x] for a single-input channel.

    Rows follow the input alphabet order, columns the POVM element order; the
    matrix's consumers check its rows with ``entropic.transition_matrix``.
    """
    return np.array([measurement_probabilities(povm, ch.output(x))
                     for x in ch.single_alphabet()])


# ---------------------------------------------------------------------------
# worked example channels

def bb84_p2p() -> CqChannel:
    """Point-to-point channel 0 -> |0><0|, 1 -> |+><+|."""
    return CqChannel(
        (("0", "1"),),
        {("0",): pure_state(KET0), ("1",): pure_state(KET_PLUS)},
    )


def bb84_qmac() -> CqChannel:
    """Two-sender channel emitting one of the four BB84 states.

    Sender 2 flips the encoding basis: x2=0 row is {|0>, |+>}, x2=1 row is
    {|->, |1>}.  Also serves as an interference channel in which both
    receivers observe the same system B.
    """
    table = {
        ("0", "0"): pure_state(KET0),
        ("1", "0"): pure_state(KET_PLUS),
        ("0", "1"): pure_state(KET_MINUS),
        ("1", "1"): pure_state(KET1),
    }
    return CqChannel((("0", "1"), ("0", "1")), table)


def theta_swap(theta: float) -> CqChannel:
    """Two-qubit swap interaction of strength theta.

    00 -> |00>, 11 -> |11>, 01 -> cos(t)|01> + sin(t)|10>,
    10 -> -sin(t)|01> + cos(t)|10>; receiver m keeps qubit Bm.
    theta = pi/2 is a full swap.
    """
    c, s = np.cos(theta), np.sin(theta)
    v01 = np.array([0.0, c, s, 0.0])
    v10 = np.array([0.0, -s, c, 0.0])
    table = {
        ("0", "0"): pure_state(np.array([1.0, 0, 0, 0]), dims=(2, 2)),
        ("0", "1"): pure_state(v01, dims=(2, 2)),
        ("1", "0"): pure_state(v10, dims=(2, 2)),
        ("1", "1"): pure_state(np.array([0.0, 0, 0, 1.0]), dims=(2, 2)),
    }
    return CqChannel((("0", "1"), ("0", "1")), table)


def bb84_bc() -> CqChannel:
    """Broadcast channel: receiver 1 gets the clean BB84 state, receiver 2 a
    depolarized copy (30% white noise)."""
    clean = {"0": ket_projector(KET0), "1": ket_projector(KET_PLUS)}
    eye = np.eye(2, dtype=complex) / 2.0
    table = {}
    for x, rho in clean.items():
        noisy = 0.7 * rho + 0.3 * eye
        joint = np.kron(rho, noisy)
        table[(x,)] = DensityMatrix(joint, (2, 2))
    return CqChannel((("0", "1"),), table)


def bb84_relay() -> CqChannel:
    """Relay channel with inputs (x, x1): the relay observes the source's
    BB84 state on B1; the destination observes the four-state encoding of
    (x, x1) on B."""
    src = {"0": ket_projector(KET0), "1": ket_projector(KET_PLUS)}
    dest = {
        ("0", "0"): ket_projector(KET0),
        ("1", "0"): ket_projector(KET_PLUS),
        ("0", "1"): ket_projector(KET_MINUS),
        ("1", "1"): ket_projector(KET1),
    }
    table = {}
    for x in ("0", "1"):
        for x1 in ("0", "1"):
            joint = np.kron(src[x], dest[(x, x1)])
            table[(x, x1)] = DensityMatrix(joint, (2, 2))
    return CqChannel((("0", "1"), ("0", "1")), table, output_names=("B1", "B"))


_BUILTINS = {
    "bb84_p2p": (bb84_p2p, 0),
    "bb84_qmac": (bb84_qmac, 0),
    "theta_swap": (theta_swap, 1),
    "bb84_bc": (bb84_bc, 0),
    "bb84_relay": (bb84_relay, 0),
}


def builtin(name: str) -> CqChannel:
    """Construct a named example channel.

    Parameters are written in the name itself, e.g. "theta_swap(1.5)".
    Each must read as a finite float; anything else is a SchemaError.
    """
    name, params = name.strip(), []
    if name.endswith(")") and "(" in name:
        base, _, inside = name[:-1].partition("(")
        name = base.strip()
        inside = inside.strip()
        if inside:
            try:
                params = [float(tok) for tok in inside.split(",")]
            except ValueError:
                raise SchemaError(f"bad parameter list in {name!r}") from None
    if name not in _BUILTINS:
        raise SchemaError(
            f"unknown builtin channel {name!r}; known: {', '.join(sorted(_BUILTINS))}"
        )
    factory, arity = _BUILTINS[name]
    if len(params) != arity:
        raise SchemaError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return factory(*finite_reals(params, f"{name} parameters"))


# ---------------------------------------------------------------------------
# JSON interchange
#
# {"alphabets": [[symbols]], "dims": [ints], "outputs": {"x1,x2": matrix}}
# with matrices encoded row-major as [re, im] pairs.

def _key_string(combo) -> str:
    for s in combo:
        if "," in s:
            raise SchemaError(f"symbol {s!r} contains a comma")
    return ",".join(combo)


def load_channel(doc) -> CqChannel:
    """Build a channel from a parsed schema document.  Only the JSON shape
    is checked here; ``CqChannel`` checks the channel."""
    if not isinstance(doc, dict):
        raise SchemaError("channel document must be an object")
    for key in ("alphabets", "dims", "outputs"):
        if key not in doc:
            raise SchemaError(f"channel document missing {key!r}")
    alphabets = doc["alphabets"]
    if not isinstance(alphabets, list) or not all(isinstance(a, list) for a in alphabets):
        raise SchemaError("'alphabets' must be a list of symbol lists")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise SchemaError("'dims' must be a list of positive integers")
    size = math.prod(dims)
    raw = doc["outputs"]
    if not isinstance(raw, dict):
        raise SchemaError("'outputs' must be an object")

    outputs = {}
    for key, entry in raw.items():
        try:
            m = matrix_from_json(entry, size)
        except ValueError as exc:
            raise SchemaError(f"output for input {key!r}: {exc}") from None
        try:
            outputs[tuple(key.split(","))] = DensityMatrix(m, dims)
        except InvariantError as exc:
            raise InvariantError(f"output for input {key!r}: {exc}") from None
    return CqChannel(alphabets, outputs)


def dump_channel(ch: CqChannel) -> dict:
    """Schema document for a channel; json.dumps(..., sort_keys=True) of the
    result round-trips byte-identically through load_channel."""
    return {
        "alphabets": [list(a) for a in ch.input_alphabets],
        "dims": list(ch.dims),
        "outputs": {
            _key_string(combo): matrix_to_json(ch.outputs[combo].entries)
            for combo in ch.input_tuples()
        },
    }
