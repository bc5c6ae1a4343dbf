"""Entropy and information functionals over probability vectors and labeled
classical-quantum joint states.

All logarithms are base 2; every quantity is in bits.  Classical registers are
treated as orthogonal diagonal blocks, so the entropy of a classical/quantum
subset decomposes as H(p) + sum_c p(c) H(rho_c); subsets with no quantum label
marginalize the table directly instead of building any matrix.

Entropies are stacked eigensolves: each H(S) forms every group block
sum_{rows in c} p(row) rho_row at once, for one probability table or a stack
of G tables sharing the conditional states, and diagonalizes them in one
``np.linalg.eigvalsh`` call.  Reduced blocks are computed once per quantum
subset and kept on the state.  Only user input (``ProbDist``, the table given
to ``LabeledCqState``) is validated; intermediates are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, InvariantError, reduce_blocks

PROB_SUM_TOL = 1e-10
EIG_CUTOFF = 1e-12  # below the spectral noise floor of state validation


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Nonnegative weights over a named finite alphabet, summing to one."""

    symbols: tuple
    weights: np.ndarray

    def __init__(self, symbols, weights):
        symbols = tuple(symbols)
        w = np.array(weights, dtype=float).reshape(-1)
        if len(symbols) != w.size:
            raise InvariantError(
                f"{len(symbols)} symbols but {w.size} weights"
            )
        if not np.all(np.isfinite(w)):
            raise InvariantError("weights must be finite")
        if w.size and float(w.min()) < -1e-12:
            raise InvariantError(f"negative weight {float(w.min()):.3e}")
        w = np.maximum(w, 0.0)
        if abs(float(w.sum()) - 1.0) > PROB_SUM_TOL:
            raise InvariantError(f"weights sum to {float(w.sum())!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "weights", w)

    def prob(self, symbol) -> float:
        return float(self.weights[self.symbols.index(symbol)])

    def items(self):
        return zip(self.symbols, self.weights)

    @classmethod
    def uniform(cls, symbols) -> "ProbDist":
        symbols = tuple(symbols)
        return cls(symbols, np.full(len(symbols), 1.0 / len(symbols)))

    @classmethod
    def point_mass(cls, symbols, at) -> "ProbDist":
        symbols = tuple(symbols)
        w = np.zeros(len(symbols))
        w[symbols.index(at)] = 1.0
        return cls(symbols, w)


def _entropy_bits(values, cutoff: float = 0.0):
    """-sum v log2 v over the last axis, counting only entries above cutoff."""
    v = np.asarray(values, dtype=float)
    v = np.where(v > cutoff, v, 1.0)  # 1 log 1 adds an exact zero
    return -(v * np.log2(v)).sum(axis=-1)


def shannon_entropy(p: ProbDist) -> float:
    """H(p) in bits, with 0 log 0 := 0."""
    return float(_entropy_bits(p.weights))


def binary_entropy(p: float) -> float:
    """H2(p) = -p log p - (1-p) log(1-p)."""
    if not 0.0 <= p <= 1.0:
        raise InvariantError(f"binary entropy argument {p!r} outside [0, 1]")
    return float(_entropy_bits([p, 1.0 - p]))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log rho): Shannon entropy of the spectrum.

    Eigenvalues below 1e-12 contribute zero.
    """
    return float(_entropy_bits(np.linalg.eigvalsh(rho.entries), cutoff=EIG_CUTOFF))


def g_thermal(n: float) -> float:
    """Entropy g(N) = (N+1) log(N+1) - N log N of a thermal state with mean
    photon number N; g(0) = 0."""
    if not 0 <= n < np.inf:
        raise InvariantError(f"mean photon number {n!r} is not finite and >= 0")
    if n == 0:
        return 0.0
    return float((n + 1) * np.log2(n + 1) - n * np.log2(n))


class LabeledCqState:
    """Joint state of named classical registers and named quantum subsystems.

    ``registers`` is an ordered list of (name, alphabet) pairs; ``table`` maps
    each full classical symbol tuple to (probability, conditional
    DensityMatrix); ``quantum_names`` labels the subsystems of the conditional
    matrices, one name per dims slot.  Tuples missing from the table have
    probability zero.

    The table is held as arrays in its own row order (the register symbol
    indices, probabilities and conditional matrices of each row), plus one
    zero row that pads classical groups of unequal size.
    """

    def __init__(self, registers, table, quantum_names):
        self.registers = tuple((str(n), tuple(a)) for n, a in registers)
        self.register_names = tuple(n for n, _ in self.registers)
        self.quantum_names = tuple(str(n) for n in quantum_names)
        if set(self.register_names) & set(self.quantum_names):
            raise InvariantError("classical and quantum names overlap")
        index = [{s: i for i, s in enumerate(a)} for _, a in self.registers]
        codes, probs, blocks = [], [], []
        dims = None
        for key, (p, rho) in table.items():
            key = tuple(key)
            if len(key) != len(self.registers):
                raise InvariantError(
                    f"tuple {key} has {len(key)} symbols for "
                    f"{len(self.registers)} registers"
                )
            try:
                codes.append([ix[s] for ix, s in zip(index, key)])
            except KeyError:
                raise InvariantError(f"tuple {key} is outside the alphabets") from None
            p = float(p)
            if not np.isfinite(p):
                raise InvariantError(f"non-finite probability at {key}")
            if p < -1e-12:
                raise InvariantError(f"negative probability {p:.3e} at {key}")
            if not isinstance(rho, DensityMatrix):
                raise InvariantError(f"conditional at {key} is not a DensityMatrix")
            if dims is None:
                dims = rho.dims
            elif rho.dims != dims:
                raise InvariantError(
                    f"conditional dims differ: {rho.dims} at {key} vs {dims}"
                )
            probs.append(max(p, 0.0))
            blocks.append(rho.entries)
        if dims is not None and len(dims) != len(self.quantum_names):
            raise InvariantError(
                f"{len(self.quantum_names)} quantum names for {len(dims)} dims"
            )
        total = sum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvariantError(f"table probabilities sum to {total!r}, not 1")
        self.dims = dims
        d = int(np.prod(dims))
        self._codes = np.array(codes, dtype=np.intp).reshape(len(codes), -1)
        self._probs = np.array([probs + [0.0]])
        self._blocks = np.concatenate([blocks, np.zeros((1, d, d), complex)])
        self._slots = {}
        self._reduced = {}
        self._entropies = {}

    def _split(self, names):
        names = set(names)
        unknown = names - set(self.register_names) - set(self.quantum_names)
        if unknown:
            raise InvariantError(f"unknown names {sorted(unknown)}")
        classical = [i for i, n in enumerate(self.register_names) if n in names]
        quantum = [i for i, n in enumerate(self.quantum_names) if n in names]
        return classical, quantum

    def _group_slots(self, classical) -> np.ndarray:
        """Rows grouped by their symbols on ``classical``: a (groups, members)
        array of row indices, groups in order of first appearance and members
        in table order, padded with the zero row."""
        key = tuple(classical)
        if key not in self._slots:
            groups: dict[tuple, list] = {}
            for row, code in enumerate(self._codes[:, key].tolist()):
                groups.setdefault(tuple(code), []).append(row)
            width = max(len(rows) for rows in groups.values())
            slots = np.full((len(groups), width), len(self._codes))
            for i, rows in enumerate(groups.values()):
                slots[i, : len(rows)] = rows
            self._slots[key] = slots
        return self._slots[key]

    def _reduced_blocks(self, quantum) -> np.ndarray:
        key = tuple(quantum)
        if key not in self._reduced:
            self._reduced[key] = reduce_blocks(self._blocks, self.dims, key)
        return self._reduced[key]

    def entropy(self, names, probs=None):
        """Joint entropy H(S) of any mix of classical and quantum names, bits.

        With ``probs``, a stack of G probability tables of shape
        (G, |A1|, ..., |Ak|) that replace the state's own probabilities and
        share its conditional states, returns the G entropies as an array.
        Entries of ``probs`` at tuples missing from the table are ignored.

        H(S) = H(p_C) + sum_c p(c) H(rho_c): the weighted blocks of each
        classical group c are summed in table order, and all group blocks go
        through one stacked eigensolve.  Without ``probs`` each subset is
        evaluated once per state and its value kept.
        """
        classical, quantum = self._split(names)
        if probs is None:
            key = (tuple(classical), tuple(quantum))
            if key in self._entropies:
                return self._entropies[key]
            rows = self._probs
        else:
            probs = np.asarray(probs, dtype=float)
            rows = np.zeros((len(probs), len(self._codes) + 1))
            rows[:, :-1] = probs[(slice(None),) + tuple(self._codes.T)]
        slots = self._group_slots(classical)
        members = rows[:, slots]  # (G, groups, members)
        # cumulative sums keep the table-order accumulation of a row loop
        weights = members.cumsum(axis=-1)[..., -1]
        h = _entropy_bits(weights)
        if quantum:
            blocks = self._reduced_blocks(quantum)[slots]
            mixed = (members[..., None, None] * blocks).cumsum(axis=2)[:, :, -1]
            live = weights > 0.0
            pc = weights[live]
            spectra = np.linalg.eigvalsh(mixed[live] / pc[:, None, None])
            terms = np.zeros(weights.shape)
            terms[live] = pc * _entropy_bits(spectra, cutoff=EIG_CUTOFF)
            h = terms.cumsum(axis=-1)[:, -1] + h
        if probs is not None:
            return h
        self._entropies[key] = float(h[0])
        return self._entropies[key]


def conditional_mutual_information(state: LabeledCqState, a, b, c=(), probs=None):
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), in bits.

    A and C must be classical register names; B may mix classical registers
    and quantum subsystem labels.  With C empty this is the plain mutual
    information I(A;B).  ``probs`` is a stack of probability tables as in
    ``LabeledCqState.entropy``; with it the result is an array.
    """
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise InvariantError("register sets overlap")
    quantum = set(state.quantum_names)
    if a & quantum or c & quantum:
        raise InvariantError("A and C must be classical register sets")
    h_c = state.entropy(c, probs) if c else 0.0
    return (
        state.entropy(a | c, probs)
        + state.entropy(b | c, probs)
        - state.entropy(a | b | c, probs)
        - h_c
    )


def cq_state(alphabet, conditionals, p: ProbDist, register="X", quantum_names=("B",)) -> LabeledCqState:
    """Build the joint state sum_x p(x) |x><x| (x) rho_x."""
    table = {}
    for x in alphabet:
        table[(x,)] = (p.prob(x), conditionals[x])
    return LabeledCqState([(register, tuple(alphabet))], table, quantum_names)


def holevo_information(channel, p: ProbDist) -> float:
    """I(X;B) of the joint state induced by a single-input cq channel."""
    if len(channel.input_alphabets) != 1:
        raise InvariantError("holevo_information needs a single-input channel")
    alphabet = channel.input_alphabets[0]
    conditionals = {x: channel.outputs[(x,)] for x in alphabet}
    state = cq_state(alphabet, conditionals, p, quantum_names=channel.output_names)
    return conditional_mutual_information(state, {"X"}, set(channel.output_names))
