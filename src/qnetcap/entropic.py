"""Entropy and information functionals over probability vectors and labeled
classical-quantum joint states.

All logarithms are base 2; every quantity is in bits.  Classical registers are
treated as orthogonal diagonal blocks, so the entropy of a classical/quantum
subset decomposes as H(p) + sum_c p(c) H(rho_c); subsets with no quantum label
marginalize the table directly instead of building any matrix.

Every state is a product grid, one row per tuple of its register alphabets.
Each H(S) mixes every group block sum_{rows in c} p(row) rho_row at once and
diagonalizes them in one ``np.linalg.eigvalsh`` call; a group of one live row
reads that row's entropy, diagonalized once per state.  A product stack
(``LabeledCqState.on_tables``) is G tables, products of per-register weights,
on one state's conditional states.  A group's normalized state depends only on
the weights of the registers outside the grouping, so it is diagonalized once
per setting of those.  Only user input (``ProbDist``, the table given to
``LabeledCqState``, a transition matrix) is validated, by the one probability
rule of ``_probabilities``; intermediates are plain arrays.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DERIVED_SUM_TOL, EIG_CUTOFF, PROB_NEGATIVE_TOL, PROB_SUM_TOL,
                     InvariantError, SchemaError)
from .qstate import DensityMatrix, reduce_blocks


def _probabilities(values, what: str, sum_tol: float = PROB_SUM_TOL) -> np.ndarray:
    """The one definition of a probability vector, applied along the last
    axis of ``values``: every entry finite, none below -PROB_NEGATIVE_TOL
    (smaller negatives are roundoff, returned as 0), and each sum within
    ``sum_tol`` of 1: PROB_SUM_TOL for a given distribution, DERIVED_SUM_TOL
    for one built from several.  Otherwise an InvariantError naming ``what``."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise InvariantError(f"{what} must be finite")
    if (v < -PROB_NEGATIVE_TOL).any():
        raise InvariantError(f"{what} have a negative entry {float(v.min()):.3e}")
    v = np.maximum(v, 0.0)
    off = np.abs(v.sum(axis=-1, keepdims=True) - 1.0)
    if (off > sum_tol).any():
        worst = v.sum(axis=-1).flat[off.argmax()]
        raise InvariantError(f"{what} sum to {float(worst)!r}, not 1")
    return v


def transition_matrix(transition) -> np.ndarray:
    """A channel's p(y|x) as a float matrix whose rows pass
    ``_probabilities`` within DERIVED_SUM_TOL; anything but a matrix is a SchemaError."""
    t = np.asarray(transition, dtype=float)
    if t.ndim != 2:
        raise SchemaError("transition must be a matrix")
    return _probabilities(t, "transition rows", DERIVED_SUM_TOL)


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Nonnegative weights over a finite alphabet of distinct symbols,
    summing to one."""

    symbols: tuple
    weights: np.ndarray

    def __init__(self, symbols, weights):
        symbols = tuple(symbols)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if len(symbols) != w.size:
            raise InvariantError(
                f"{len(symbols)} symbols but {w.size} weights"
            )
        if len(set(symbols)) != len(symbols):
            raise SchemaError(f"symbols {symbols} have a repeated symbol")
        w = _probabilities(w, "weights")
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


def _entropy_bits(values, cutoff: float = 0.0):
    """-sum v log2 v over the last axis, counting only entries above cutoff."""
    v = np.asarray(values, dtype=float)
    v = np.where(v > cutoff, v, 1.0)  # 1 log 1 adds an exact zero
    return -(v * np.log2(v)).sum(axis=-1)


def shannon_entropy(p: ProbDist) -> float:
    """H(p) in bits, with 0 log 0 := 0; the Shannon entropy the README
    documents for classical distributions."""
    return float(_entropy_bits(p.weights))


def binary_entropy(p: float) -> float:
    """H2(p) = -p log p - (1-p) log(1-p); the README's binary entropy."""
    return float(_entropy_bits(_probabilities([p, 1.0 - p], "[p, 1 - p]")))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log rho): Shannon entropy of the spectrum.

    Eigenvalues at or below EIG_CUTOFF contribute zero.
    """
    return float(_entropy_bits(np.linalg.eigvalsh(rho.entries), cutoff=EIG_CUTOFF))


def g_thermal(n: float) -> float:
    """Entropy g(N) = (N+1) log(N+1) - N log N of a thermal state with mean
    photon number N, g(0) = 0, as (log1p(N) + N log1p(1/N)) log2(e), which
    does not cancel at large N; below 1e-300, where 1/N overflows,
    N log1p(1/N) is N (log1p(N) - ln N)."""
    if not 0 <= n < np.inf:
        raise InvariantError(f"mean photon number {n!r} is not finite and >= 0")
    if n == 0:
        return 0.0
    tail = math.log1p(1 / n) if n > 1e-300 else math.log1p(n) - math.log(n)
    return (math.log1p(n) + n * tail) * math.log2(math.e)


class LabeledCqState:
    """Joint state of named classical registers and named quantum subsystems.

    ``registers`` is an ordered list of (name, alphabet) pairs; ``table`` maps
    each full classical symbol tuple to (probability, conditional
    DensityMatrix); ``quantum_names`` labels the subsystems of the conditional
    matrices, one name per dims slot.  The probabilities sum to 1 within
    DERIVED_SUM_TOL, as rows that multiply accepted factors do.

    The state is held as a product grid: the probability and conditional
    matrix of every tuple of the product of the register alphabets, in the
    C order of one axis per register.  The table is spread onto its
    alphabets in register order, and a tuple missing from it is a row of
    probability 0 with a zero block; ``joint_state`` hands its grid, axes in
    sampling order, to ``_arrays`` directly.  ``on_tables`` gives the same
    state under a stack of G tables, whose entropies are arrays.
    """

    def __init__(self, registers, table, quantum_names):
        registers = tuple((str(n), tuple(a)) for n, a in registers)
        quantum_names = tuple(str(n) for n in quantum_names)
        index = [{s: i for i, s in enumerate(a)} for _, a in registers]
        codes, probs, blocks = [], [], []
        dims, seen = None, set()
        for key, (p, rho) in table.items():
            key = tuple(key)
            if len(key) != len(registers):
                raise InvariantError(
                    f"tuple {key} has {len(key)} symbols for "
                    f"{len(registers)} registers"
                )
            if key in seen:  # "0" and ("0",) name one tuple, which has one row
                raise InvariantError(f"tuple {key} is listed twice")
            seen.add(key)
            try:
                codes.append([ix[s] for ix, s in zip(index, key)])
            except KeyError:
                raise InvariantError(f"tuple {key} is outside the alphabets") from None
            if not isinstance(rho, DensityMatrix):
                raise InvariantError(f"conditional at {key} is not a DensityMatrix")
            if dims is None:
                dims = rho.dims
            elif rho.dims != dims:
                raise InvariantError(
                    f"conditional dims differ: {rho.dims} at {key} vs {dims}"
                )
            probs.append(float(p))
            blocks.append(rho.entries)
        if dims is not None and len(dims) != len(quantum_names):
            raise InvariantError(
                f"{len(quantum_names)} quantum names for {len(dims)} dims"
            )
        shape = [len(a) for _, a in registers]
        at = tuple(np.array(codes, dtype=np.intp).reshape(len(codes), len(registers)).T)
        grid = np.zeros(shape)
        grid[at] = probs
        probs = _probabilities(grid.reshape(-1), "table probabilities", DERIVED_SUM_TOL)
        d = math.prod(dims)
        grid = np.zeros([*shape, d, d], complex)
        grid[at] = blocks
        self._arrays(registers, quantum_names, dims, probs, grid.reshape(-1, d, d),
                     tuple(range(len(registers))))

    def _arrays(self, registers, quantum_names, dims, probs, blocks, axes):
        """The state of a product grid: the probability and conditional
        matrix of each row, rows in the C order of the grid whose axes are
        the registers ``axes`` names, one axis per register."""
        self.registers = tuple(registers)
        self.register_names = tuple(n for n, _ in registers)
        self.quantum_names = quantum_names
        if set(self.register_names) & set(self.quantum_names):
            raise InvariantError("classical and quantum names overlap")
        self.dims = dims
        self._probs, self._blocks, self._axes, self._weights = probs, blocks, axes, None
        self._shape = tuple(len(registers[r][1]) for r in axes)
        self._slots, self._reduced, self._row_entropies, self._entropies = {}, {}, {}, {}

    def _split(self, names):
        names = set(names)
        unknown = names - set(self.register_names) - set(self.quantum_names)
        if unknown:
            raise InvariantError(f"unknown names {sorted(unknown)}")
        classical = [i for i, n in enumerate(self.register_names) if n in names]
        quantum = [i for i, n in enumerate(self.quantum_names) if n in names]
        return classical, quantum

    def _group_slots(self, classical) -> np.ndarray:
        """Rows grouped by their symbols on ``classical``, by reshaping the
        grid with the kept axes first: a (groups, members) array of row
        indices, groups in order of first appearance and members in row
        order, every group as wide as the others."""
        key = tuple(classical)
        if key not in self._slots:
            order = sorted(range(len(self._axes)), key=lambda i: self._axes[i] not in key)
            rows = np.arange(len(self._blocks)).reshape(self._shape).transpose(order)
            self._slots[key] = rows.reshape(math.prod(rows.shape[: len(key)]), -1)
        return self._slots[key]

    def _reduced_blocks(self, quantum) -> np.ndarray:
        key = tuple(quantum)
        if key not in self._reduced:
            self._reduced[key] = reduce_blocks(self._blocks, self.dims, key)
        return self._reduced[key]

    def _row_entropy(self, quantum) -> np.ndarray:
        """H(rho_row) on ``quantum`` of every row (a zero block's is 0), from
        one stacked eigensolve per state, whatever its probability tables."""
        key = tuple(quantum)
        if key not in self._row_entropies:
            spectra = np.linalg.eigvalsh(self._reduced_blocks(key))
            self._row_entropies[key] = _entropy_bits(spectra, cutoff=EIG_CUTOFF)
        return self._row_entropies[key]

    def on_tables(self, weights) -> "LabeledCqState":
        """This state under a product stack of tables, sharing its
        conditional states and what it keeps of them: ``weights`` holds one
        (G_r, |A_r|) array per register, in register order, and the G =
        prod_r G_r tables are the products prod_r w_r[g_r, a_r] (a dict
        table's missing tuple too; its block is zero), points in the C order
        of (g_1, ..., g_k).  Its ``entropy`` gives arrays of G values."""
        stack = copy.copy(self)
        stack._weights = [(w, w.sum(-1), w / w.sum(-1, keepdims=True)) for w in map(np.asarray, weights)]
        stack._entropies = {}
        return stack

    def _stack_entropy(self, kept, quantum) -> np.ndarray:
        """``entropy`` on a product stack; register r's point and symbol are
        the einsum subscripts g[r] and a[r].  With D the registers outside
        ``kept``, p(c) is the kept weights times D's sums, and a group's
        state mixes its rows by D's weights over their sums alone: one
        ``eigvalsh`` of prod_{r in D} G_r x |groups| matrices (D empty reads
        ``_row_entropy``), spread over the kept axes by one weighted sum."""
        g, a = "abcdefghijkl"[: len(self._weights)], "mnopqrstuvwx"[: len(self._weights)]
        spec = ",".join(g[r] + a[r] if r in kept else g[r] for r in range(len(g)))
        points = [w if r in kept else s for r, (w, s, _) in enumerate(self._weights)]
        p = np.einsum(f"{spec}->{g}" + "".join(a[r] for r in kept), *points)
        h = _entropy_bits(p.reshape(math.prod(p.shape[: len(g)]), -1))
        if quantum:
            self._entropies[tuple(kept), ()] = h
            drop = [r for r in range(len(g)) if r not in kept]
            rows = "".join(a[r] for r in self._axes)  # the grid's axes, in its own order
            if drop:
                sub = "".join(g[r] for r in drop) + "".join(a[r] for r in kept)
                blocks = self._reduced_blocks(quantum)
                mixed = np.einsum(",".join(g[r] + a[r] for r in drop) + f",{rows}...->{sub}...",
                                  *(self._weights[r][2] for r in drop),
                                  blocks.reshape(self._shape + blocks.shape[1:]))
                spectra = _entropy_bits(np.linalg.eigvalsh(mixed), cutoff=EIG_CUTOFF)
            else:
                sub, spectra = rows, self._row_entropy(quantum).reshape(self._shape)
            h = np.einsum(f"{spec},{sub}->{g}", *points, spectra).reshape(h.shape) + h
        return h

    def entropy(self, names):
        """Joint entropy H(S) of any mix of classical and quantum names, bits.

        H(S) = H(p_C) + sum_c p(c) H(rho_c): the weighted blocks of each
        classical group c are summed in row order, and all go through one
        stacked eigensolve; when no group has two rows of nonzero weight,
        H(rho_c) is read from ``_row_entropy``, diagonalized once per state
        and quantum subset.  The terms are summed in group order.  A product
        stack has its own rule (``_stack_entropy``).  Each subset is evaluated
        once per state and kept, with the H(p_C) it passes on the way.
        """
        classical, quantum = self._split(names)
        key = (tuple(classical), tuple(quantum))
        if key in self._entropies:
            return self._entropies[key]
        if self._weights is not None:
            return self._entropies.setdefault(key, self._stack_entropy(classical, quantum))
        slots = self._group_slots(classical)
        members = self._probs[slots]  # (groups, members)
        # cumulative sums keep the row-order accumulation of a row loop
        weights = members.cumsum(axis=1)[:, -1]
        h = float(_entropy_bits(weights))
        if quantum:
            self._entropies[key[0], ()] = h
            if np.count_nonzero(members) == np.count_nonzero(weights):  # one live row per live group
                terms = (members * self._row_entropy(quantum)[slots]).sum(axis=1)
            else:
                blocks = self._reduced_blocks(quantum)[slots]
                mixed = (members[..., None, None] * blocks).cumsum(axis=1)[:, -1]
                live = weights > 0.0
                spectra = np.linalg.eigvalsh(mixed[live] / weights[live, None, None])
                terms = np.zeros(weights.shape)
                terms[live] = weights[live] * _entropy_bits(spectra, cutoff=EIG_CUTOFF)
            h = float(terms.cumsum()[-1] + h)
        self._entropies[key] = h
        return h


def conditional_mutual_information(state: LabeledCqState, a, b, c=()):
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), in bits, an array on a
    product stack (``LabeledCqState.on_tables``).

    A and C must be classical register names; B may mix classical registers
    and quantum subsystem labels.  With C empty this is the plain mutual
    information I(A;B).  H(C) comes last, so it is read from what H(BC) kept
    when B is quantum.
    """
    a, b, c = set(a), set(b), set(c)
    if (a & b) or (a & c) or (b & c):
        raise InvariantError("register sets overlap")
    quantum = set(state.quantum_names)
    if a & quantum or c & quantum:
        raise InvariantError("A and C must be classical register sets")
    return (
        state.entropy(a | c)
        + state.entropy(b | c)
        - state.entropy(a | b | c)
        - (state.entropy(c) if c else 0.0)
    )


def holevo_information(channel, p: ProbDist) -> float:
    """I(X;B) of the joint state sum_x p(x) |x><x| (x) rho_x induced by a
    single-input cq channel."""
    alphabet = channel.single_alphabet()
    table = {(x,): (p.prob(x), channel.outputs[(x,)]) for x in alphabet}
    state = LabeledCqState([("X", alphabet)], table, channel.output_names)
    return conditional_mutual_information(state, {"X"}, set(channel.output_names))
