"""Capacity and achievable-rate computations for finite-dimensional network
channels: point-to-point, multiple access, interference, broadcast, and relay.

A ``CodeDistribution`` is a random-coding scheme's input distribution: its
parts, its deterministic input maps and its structure (factors in sampling
order, register order, how each channel input is read).  Every network rate
bound is an I(A;B|C) of one state, ``joint_state(ch, dist)``, built as the
product grid of its registers' alphabets; each region names its terms and
rows as data, and one evaluator, ``_terms``, computes every term on one
state, which may be a product stack of per-sender grid points
(``LabeledCqState.on_tables``); the entropies a state keeps are the only
cache.  The five ``random_*_distribution`` generators are one seeded draw.
Interference-channel operations accept either a two-output channel or a
single-output channel, in which case both receivers observe the same
system; broadcast and relay ones need two outputs (``_TWO_OUTPUT_KINDS``).
"""

from __future__ import annotations

import functools
import itertools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import CqChannel
from .entropic import (LabeledCqState, ProbDist, _entropy_bits, conditional_mutual_information,
                       transition_matrix)
from .errors import (BA_GAP_TOL, EIG_CUTOFF, INFO_CLAMP, SUPPORT_RELATIVE_CUTOFF, SchemaError,
                     whole_number)
from .regions import HalfspaceRegion, clamp_information, fm_project, intersect, radial_extents

# grid points evaluated per stacked entropy call; bounds sweep memory
_GRID_CHUNK = 512


def _receiver_names(ch: CqChannel):
    """Quantum labels observed by receivers 1 and 2; a single-output channel
    is read as both receivers sharing that system."""
    if len(ch.output_names) == 1:
        return ch.output_names[0], ch.output_names[0]
    return ch.output_names[0], ch.output_names[1]


def input_pair(ch: CqChannel):
    """The two input alphabets of a two-input channel; any other channel is
    a schema error."""
    if ch.n_inputs != 2:
        raise SchemaError(f"expected a two-input channel, got {ch.n_inputs} input(s)")
    return ch.input_alphabets


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All probability vectors of length k with entries on a uniform grid of
    ``resolution`` points per edge, one per row, in lexicographic order of
    their k - 1 cuts among the ``resolution`` + k - 2 slots.  A length or
    resolution that is not a whole number (1.0 reads as 1, 11.0 as 11), a
    length below 1 or a resolution below 2 is a SchemaError."""
    k = whole_number(k, "grid length")
    if k < 1:
        raise SchemaError(f"grid length {k} < 1")
    resolution = whole_number(resolution, "grid resolution")
    if resolution < 2:
        raise SchemaError(f"grid resolution {resolution} < 2")
    steps = resolution - 1
    cuts = [(-1, *c, steps + k - 1) for c in itertools.combinations(range(steps + k - 1), k - 1)]
    return (np.diff(np.array(cuts, dtype=np.intp), axis=1) - 1) / steps


def _grid_pairs(k1: int, k2: int, resolution: int):
    """Product distributions p1(x1) p2(x2) over two simplex grids, first
    grid outermost, in chunks of at most ``_GRID_CHUNK`` points, each the
    (outer, inner) grid points it multiplies; a grid may be any iterable of rows."""
    inner = np.array(list(simplex_grid(k2, resolution)))
    points = iter(simplex_grid(k1, resolution))
    while outer := list(itertools.islice(points, max(1, _GRID_CHUNK // len(inner)))):
        outer = np.array(outer)
        for lo in range(0, len(inner), _GRID_CHUNK):
            yield outer, inner[lo : lo + _GRID_CHUNK]


# ---------------------------------------------------------------------------
# code distributions

# Structure of each kind of distribution: its factors in sampling order as
# (part, registers drawn, registers conditioned on), the register order of
# its joint state, and each channel input as a register or as a (map,
# registers) pair.  Register names are separated by spaces.
_LAYOUTS = {
    "p2p": ([("X", "X", "")], "X", ["X"]),
    "mac": ([("X1", "X1", ""), ("X2", "X2", "")], "X1 X2", ["X1", "X2"]),
    "coded-time-share": (
        [("Q", "Q", ""), ("X1|Q", "X1", "Q"), ("X2|Q", "X2", "Q")],
        "Q X1 X2", ["X1", "X2"]),
    "hk": (
        [("Q", "Q", ""), ("U1|Q", "U1", "Q"), ("U2|Q", "U2", "Q"),
         ("W1|Q", "W1", "Q"), ("W2|Q", "W2", "Q")],
        "Q U1 U2 W1 W2", [("f1", "U1 W1"), ("f2", "U2 W2")]),
    "cmg": (
        [("Q", "Q", ""), ("W1|Q", "W1", "Q"), ("W2|Q", "W2", "Q"),
         ("X1|W1Q", "X1", "W1 Q"), ("X2|W2Q", "X2", "W2 Q")],
        "Q W1 X1 W2 X2", ["X1", "X2"]),
    "superposition": ([("W", "W", ""), ("X|W", "X", "W")], "W X", ["X"]),
    "marton": ([("U1U2", "U1 U2", "")], "U1 U2", [("f", "U1 U2")]),
    "relay-pdf": ([("UXX1", "U X X1", "")], "U X X1", ["X", "X1"]),
}
# kinds whose receivers B1 and B2 are distinct outputs (relay: B1 and B)
_TWO_OUTPUT_KINDS = ("superposition", "marton", "relay-pdf")


def _keys(alphabets: dict, registers: str) -> tuple:
    """Every choice of symbols of ``registers`` in alphabet-product order:
    a symbol for one register, a tuple for several."""
    names = registers.split()
    if len(names) == 1:
        return tuple(alphabets[names[0]])
    return tuple(itertools.product(*(alphabets[r] for r in names)))


class CodeDistribution:
    """Input-distribution structure of a random-coding scheme; use the
    per-kind classmethods.

    ``parts`` maps part names to a ProbDist (unconditional) or to a dict
    from conditioning symbols (a tuple when there are several) to
    ProbDists; ``maps`` holds the deterministic maps from auxiliary symbols
    to channel inputs.  ``factors``, ``registers`` and ``inputs`` are the
    kind's ``_LAYOUTS`` entry.  Construction checks the parts and maps
    against it and records ``alphabets``, register -> symbols in first-row
    or first-appearance order.
    """

    def __init__(self, kind: str, parts: dict, maps: dict | None = None):
        if kind not in _LAYOUTS:
            raise SchemaError(f"unknown distribution kind {kind!r}")
        self.kind = kind
        self.factors, self.registers, self.inputs = _LAYOUTS[kind]
        self.parts, self.maps, self.alphabets = dict(parts), {}, {}
        for key, regs, given in self.factors:
            if given:
                table, domain = self.parts[key], _keys(self.alphabets, given)
                for c in domain:
                    if c not in table:
                        raise SchemaError(f"conditional table missing row {c}")
                self.parts[key] = {c: table[c] for c in domain}
            rows = list(self.parts[key].values()) if given else [self.parts[key]]
            if not all(isinstance(pd, ProbDist) for pd in rows):
                raise SchemaError(f"a row of {key} is not a ProbDist")
            regs = regs.split()
            if len(regs) == 1:
                alphabet = rows[0].symbols
                for pd in rows:
                    if set(pd.symbols) != set(alphabet):
                        raise SchemaError(f"{key} is over {pd.symbols}, but {regs[0]} "
                                          f"takes the alphabet {alphabet}")
                self.alphabets[regs[0]] = alphabet
                continue
            if not all(isinstance(s, tuple) and len(s) == len(regs)
                       for pd in rows for s in pd.symbols):
                raise SchemaError(f"{key} must be over ({', '.join(regs)}) tuples")
            for k, r in enumerate(regs):
                self.alphabets[r] = tuple(dict.fromkeys(s[k] for pd in rows for s in pd.symbols))
        for name, regs in (r for r in self.inputs if not isinstance(r, str)):
            joint = next((key for key, r, _ in self.factors if r == regs), None)
            f = (maps or {}).get(name, {})
            domain = self.parts[joint].symbols if joint else _keys(self.alphabets, regs)
            for key in domain:
                if key not in f:
                    raise SchemaError(f"deterministic map missing {key}")
            self.maps[name] = {key: str(f[key]) for key in domain}

    def _values_within(self, **alphabets) -> "CodeDistribution":
        """Self, once each named map's values lie in its channel alphabet."""
        for name, alphabet in alphabets.items():
            for val in self.maps[name].values():
                if val not in alphabet:
                    raise SchemaError(f"map value {val!r} outside alphabet")
        return self

    @classmethod
    def p2p(cls, p: ProbDist) -> "CodeDistribution":
        return cls("p2p", {"X": p})

    @classmethod
    def mac(cls, p1: ProbDist, p2: ProbDist) -> "CodeDistribution":
        return cls("mac", {"X1": p1, "X2": p2})

    @classmethod
    def coded_time_share(cls, q: ProbDist, x1_given_q: dict, x2_given_q: dict) -> "CodeDistribution":
        return cls("coded-time-share", {"Q": q, "X1|Q": x1_given_q, "X2|Q": x2_given_q})

    @classmethod
    def no_time_share(cls, p1: ProbDist, p2: ProbDist) -> "CodeDistribution":
        """Coded-time-share structure with a trivial one-symbol Q."""
        q = ProbDist(("0",), [1.0])
        return cls.coded_time_share(q, {"0": p1}, {"0": p2})

    @classmethod
    def hk(cls, q, u1_given_q, u2_given_q, w1_given_q, w2_given_q, f1, f2,
           x1_alphabet, x2_alphabet) -> "CodeDistribution":
        parts = {"Q": q, "U1|Q": u1_given_q, "U2|Q": u2_given_q,
                 "W1|Q": w1_given_q, "W2|Q": w2_given_q}
        dist = cls("hk", parts, {"f1": f1, "f2": f2})
        return dist._values_within(f1=x1_alphabet, f2=x2_alphabet)

    @classmethod
    def cmg(cls, q, w1_given_q, w2_given_q, x1_given_w1q, x2_given_w2q) -> "CodeDistribution":
        return cls("cmg", {"Q": q, "W1|Q": w1_given_q, "W2|Q": w2_given_q,
                           "X1|W1Q": x1_given_w1q, "X2|W2Q": x2_given_w2q})

    @classmethod
    def superposition(cls, w: ProbDist, x_given_w: dict) -> "CodeDistribution":
        return cls("superposition", {"W": w, "X|W": x_given_w})

    @classmethod
    def marton(cls, joint: ProbDist, f: dict, x_alphabet) -> "CodeDistribution":
        return cls("marton", {"U1U2": joint}, {"f": f})._values_within(f=x_alphabet)

    @classmethod
    def relay_pdf(cls, joint: ProbDist) -> "CodeDistribution":
        return cls("relay-pdf", {"UXX1": joint})


# ---------------------------------------------------------------------------
# the joint state and its information terms

def joint_state(ch: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    """The joint classical-quantum state of ``dist``'s registers and
    ``ch``'s outputs: one row per choice of register symbols, holding its
    probability and the channel output at the inputs those symbols give.

    Rows are the C-order product of the registers' alphabets, one axis per
    register in sampling order (a joint factor's registers in its own
    order).  A channel-input register runs over the channel's alphabet,
    which its own factor must cover exactly and a joint factor may cover in
    part; any other register runs over ``dist.alphabets``.  A joint factor
    (unconditional) is spread onto the product of its registers' alphabets,
    a tuple it does not list weighing 0, and puts its weight on its first
    register.  Each register's weights, and each row's output, are gathered
    by the rows' symbol indices; a row's probability multiplies its
    register weights in register order.
    """
    if ch.n_inputs != len(dist.inputs):
        raise SchemaError(f"a {dist.kind} distribution needs a "
                          f"{len(dist.inputs)}-input channel, got {ch.n_inputs}")
    alphabets = dict(dist.alphabets)
    drawn_alone = {regs for _, regs, _ in dist.factors}
    for r, a in zip(dist.inputs, ch.input_alphabets):
        if isinstance(r, str):
            if not set(alphabets[r]) <= set(a) or r in drawn_alone and set(alphabets[r]) != set(a):
                raise SchemaError(f"{r} is over {alphabets[r]}, but the channel "
                                  f"takes the alphabet {a}")
            alphabets[r] = a
        else:
            dist._values_within(**{r[0]: a})
    factors = [(key, regs.split(), given.split()) for key, regs, given in dist.factors]
    axes = [r for _, regs, _ in factors for r in regs]
    # per register, its symbol index on every row
    codes = dict(zip(axes, np.indices([len(alphabets[r]) for r in axes]).reshape(len(axes), -1)))
    weights = {}
    for key, regs, given in factors:
        if len(regs) > 1:
            pd = dist.parts[key]
            at = [[alphabets[r].index(s[k]) for s in pd.symbols] for k, r in enumerate(regs)]
            table = np.zeros([len(alphabets[r]) for r in regs])
            table[tuple(at)] = pd.weights
        else:
            # conditioning registers are auxiliaries, so the rows of a
            # conditional part are in the product order of their alphabets
            rows = dist.parts[key].values() if given else [dist.parts[key]]
            table = np.reshape([[pd.prob(s) for s in alphabets[regs[0]]] for pd in rows],
                               [len(alphabets[g]) for g in given] + [-1])
        weights[regs[0]] = table[tuple(codes[g] for g in given + regs)]
    names = dist.registers.split()
    inputs = []
    for r, a in zip(dist.inputs, ch.input_alphabets):
        if isinstance(r, str):
            inputs.append(codes[r])
            continue
        regs = r[1].split()
        lookup = np.zeros([len(alphabets[g]) for g in regs], np.intp)
        for key, val in dist.maps[r[0]].items():
            lookup[tuple(map(tuple.index, (alphabets[g] for g in regs), key))] = a.index(val)
        inputs.append(lookup[tuple(codes[g] for g in regs)])
    d = ch.output_dim
    outputs = np.reshape([ch.outputs[t].entries for t in ch.input_tuples()],
                         [*map(len, ch.input_alphabets), d, d])
    st = LabeledCqState.__new__(LabeledCqState)
    st._arrays([(r, alphabets[r]) for r in names], ch.output_names, ch.dims,
               functools.reduce(operator.mul, (weights[r] for r in names if r in weights)),
               outputs[tuple(inputs)], tuple(map(names.index, axes)))
    return st


# perfbench/layertrace.py counts state builds by wrapping these names; ROADMAP (A) deletes this line
p2p_state = mac_state = cts_state = hk_state = cmg_state = superposition_state = marton_state = relay_state = joint_state  # noqa: E501


def _terms(st: LabeledCqState, ch: CqChannel, terms: dict) -> dict:
    """Each unclamped I(A;B|C) of ``terms`` (name -> (A, B, C), register and
    output names separated by spaces, B1 and B2 standing for receivers 1 and
    2) on ``st``: a float per term, or an array on a product stack.  A
    repeated term re-reads the entropies ``st`` keeps."""
    receivers = dict(zip(("B1", "B2"), _receiver_names(ch)))
    out = {}
    for name, spec in terms.items():
        a, b, c = (frozenset(receivers.get(n, n) for n in part.split()) for part in spec)
        out[name] = conditional_mutual_information(st, a, b, c)
    return out


def _informations(ch: CqChannel, dist: CodeDistribution, kind: str, terms: dict) -> dict:
    """``_terms`` on the joint state of a ``kind`` distribution, clamped; a
    ``_TWO_OUTPUT_KINDS`` kind needs a channel with two outputs."""
    if dist.kind != kind:
        raise SchemaError(f"need a {kind} distribution, got {dist.kind}")
    if kind in _TWO_OUTPUT_KINDS and len(ch.output_names) != 2:
        raise SchemaError(f"a {kind} distribution needs a two-output channel, "
                          f"got {len(ch.output_names)} output(s)")
    return {n: clamp_information(v) for n, v in _terms(joint_state(ch, dist), ch, terms).items()}


def _grid_states(ch: CqChannel, grid: int):
    """The product input distributions of a two-input channel's simplex
    grid: per ``_grid_pairs`` chunk, the uniform state's product stack
    (``LabeledCqState.on_tables``) of the chunk's two senders' points.  A
    grid that is not a whole number (11.0 reads as 11), or below 3, which
    visits only deterministic inputs, is a SchemaError."""
    grid = whole_number(grid, "grid")
    if grid < 3:
        raise SchemaError(f"grid {grid} < 3 visits only deterministic inputs, "
                          "where every information is 0")
    a1, a2 = input_pair(ch)
    st = joint_state(ch, CodeDistribution.mac(ProbDist.uniform(a1), ProbDist.uniform(a2)))
    for pair in _grid_pairs(len(a1), len(a2), grid):
        yield st.on_tables(pair)


def _rows(values: dict, rows) -> list:
    """Half-space rows (coeffs, bound) from (coeffs, [term names]); each
    bound is summed left to right from its first term."""
    return [(c, functools.reduce(operator.add, map(values.get, names)))
            for c, names in rows]


# ---------------------------------------------------------------------------
# point-to-point


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """A Blahut-Arimoto capacity in bits with its certificate: ``value`` is
    the information of ``distribution`` and value <= C <= ``upper``.
    ``converged`` says whether upper - value fell below BA_GAP_TOL within
    the ``iterations`` updates made.  Unpacks as (value, distribution)."""

    value: float
    distribution: ProbDist
    upper: float
    iterations: int
    converged: bool

    def __getitem__(self, index):
        return (self.value, self.distribution)[index]


def _blahut_arimoto(divergences, symbols, max_iter: int) -> CapacityResult:
    """From the uniform p, iterate p <- p 2^(D - max D) / Z, where
    ``divergences(p)`` gives each input's D(output || mean output) in bits.
    Each step brackets C between p . D and max D; stop once they are less
    than BA_GAP_TOL apart or after ``max_iter`` updates."""
    if max_iter < 0:
        raise SchemaError(f"max_iter must be >= 0, got {max_iter}")
    p = np.full(len(symbols), 1.0 / len(symbols))
    for iterations in range(max_iter + 1):
        d = divergences(p)
        lower, upper = float(p @ d), float(np.max(d))
        if upper - lower < BA_GAP_TOL or iterations == max_iter:
            break
        p = p * np.exp2(d - upper)
        p = p / p.sum()
    return CapacityResult(clamp_information(lower), ProbDist(symbols, p), upper,
                          iterations, upper - lower < BA_GAP_TOL)


def classical_capacity_BA(transition, max_iter: int = 20000):
    """Blahut-Arimoto capacity of a discrete memoryless channel whose
    ``transition`` rows are p(y|x); a CapacityResult over row indices."""
    t = transition_matrix(transition)
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.where(t > 0, np.log2(np.where(t > 0, t, 1.0)), 0.0)

    def divergences(r):
        qbar = r @ t
        with np.errstate(divide="ignore"):
            logq = np.where(qbar > 0, np.log2(np.where(qbar > 0, qbar, 1.0)), 0.0)
        return np.sum(t * (logt - logq[None, :]), axis=1)

    return _blahut_arimoto(divergences, range(t.shape[0]), max_iter)


def hsw_capacity(ch: CqChannel, max_iter: int = 20000, *, grid_resolution=None):
    """Holevo capacity max_p chi(p) by the Blahut-Arimoto iteration for cq
    channels (Nagaoka 1998; Li and Cai, arXiv:1905.08235); a CapacityResult.

    Each step takes one ``eigh`` of sigma = sum_x p_x rho_x and every
    D(rho_x || sigma) = -H(rho_x) - Tr[rho_x log sigma] on sigma's support
    (eigenvalues above ``SUPPORT_RELATIVE_CUTOFF`` times the largest; rho_x
    has no weight off it whenever p_x > 0); every H(rho_x) comes from one
    ``eigvalsh`` of the stack of outputs.  ``grid_resolution`` has no
    effect.
    """
    alphabet = ch.single_alphabet()
    if grid_resolution is not None:
        warnings.warn("hsw_capacity no longer searches a grid; grid_resolution "
                      "has no effect", DeprecationWarning, stacklevel=2)
    rhos = np.stack([ch.output(x).entries for x in alphabet])
    neg_h = -_entropy_bits(np.linalg.eigvalsh(rhos), cutoff=EIG_CUTOFF)

    def divergences(p):
        w, v = np.linalg.eigh(np.tensordot(p, rhos, axes=1))
        support = w > SUPPORT_RELATIVE_CUTOFF * w[-1]
        v = v[:, support]
        # <v_j| rho_x |v_j> for every input x and support eigenvector j
        weights = (v.conj() * (rhos @ v)).sum(axis=1).real
        return neg_h - weights @ np.log2(w[support])

    return _blahut_arimoto(divergences, alphabet, max_iter)


def __getattr__(name):
    # perfbench's layer tracer wraps ``network.minimize`` by name to count
    # Nelder-Mead evaluations; no capacity searches any more, so scipy's
    # optimizer is imported only when something asks for it
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# multiple access

# boundary directions of mac_region_union, from R1 (theta 0) to R2 (pi/2)
_MAC_ANGLES = 61

_MAC_TERMS = {"X1": ("X1", "B1 B2", "X2"), "X2": ("X2", "B1 B2", "X1"),
              "X1X2": ("X1 X2", "B1 B2", "")}
_MAC_ROWS = [([1, 0], ["X1"]), ([0, 1], ["X2"]), ([1, 1], ["X1X2"])]


def mac_region(ch: CqChannel, p1: ProbDist, p2: ProbDist) -> HalfspaceRegion:
    """Pentagon {R1 <= I(X1;B|X2), R2 <= I(X2;B|X1), R1+R2 <= I(X1X2;B)}."""
    t = _informations(ch, CodeDistribution.mac(p1, p2), "mac", _MAC_TERMS)
    return HalfspaceRegion(("R1", "R2"), _rows(t, _MAC_ROWS))


def mac_region_union(ch: CqChannel, grid: int = 21):
    """Pointwise-max boundary of mac_region over a product simplex grid (>= 3).

    Returns _MAC_ANGLES rows (theta, R1, R2), like boundary_sample.
    """
    coeffs = np.array([c for c, _ in _MAC_ROWS], dtype=float)
    thetas = np.linspace(0.0, np.pi / 2, _MAC_ANGLES)
    radii = np.zeros(_MAC_ANGLES)
    for st in _grid_states(ch, grid):
        t = _terms(st, ch, _MAC_TERMS)
        bounds = np.stack([b for _, b in _rows(t, _MAC_ROWS)], axis=1)
        radii = np.maximum(radii, radial_extents(coeffs, clamp_information(bounds),
                                                 thetas).max(axis=0))
    return [
        (float(th), float(r * np.cos(th)), float(r * np.sin(th)))
        for th, r in zip(thetas, radii)
    ]


_CORNER_TERMS = {
    "X1;B1": ("X1", "B1", ""), "X1;B2": ("X1", "B2", ""),
    "X2;B1": ("X2", "B1", ""), "X2;B2": ("X2", "B2", ""),
    "X1;B1|X2": ("X1", "B1", "X2"), "X2;B2|X1": ("X2", "B2", "X1"),
}


def successive_decoding_corners(ch: CqChannel, p1: ProbDist, p2: ProbDist) -> dict:
    """Interference-channel rate pairs reached by successive decoding at
    both receivers (the thesis's successive-decoding strategies for the cq
    interference channel); each lies in one of the four Han-Kobayashi
    regions whose messages are wholly personal or wholly common.

    P1: rx1 decodes both (interference first), rx2 treats its signal last;
    P4: both receivers decode only their own sender.  Keys "P1".."P4".
    """
    i = _informations(ch, CodeDistribution.mac(p1, p2), "mac", _CORNER_TERMS)
    return {
        "P1": (i["X1;B1|X2"], min(i["X2;B1"], i["X2;B2"])),
        "P2": (min(i["X1;B1|X2"], i["X1;B2"]), min(i["X2;B1"], i["X2;B2|X1"])),
        "P3": (min(i["X1;B1"], i["X1;B2"]), i["X2;B2|X1"]),
        "P4": (i["X1;B1"], i["X2;B2"]),
    }


# ---------------------------------------------------------------------------
# interference: very strong / strong / Sato

def vsi_check(ch: CqChannel, grid: int = 21) -> bool:
    """Whether cross observations dominate: I(X1;B1|X2) <= I(X1;B2) and
    I(X2;B2|X1) <= I(X2;B1), within INFO_CLAMP, for every product input
    distribution on the grid (>= 3, see ``_grid_states``).  Each chunk
    checks the two (own, cross) pairs in turn and stops at a violation."""
    for st in _grid_states(ch, grid):
        for own, cross in (("X1;B1|X2", "X1;B2"), ("X2;B2|X1", "X2;B1")):
            i = _terms(st, ch, {n: _CORNER_TERMS[n] for n in (own, cross)})
            if np.any(i[own] > i[cross] + INFO_CLAMP):
                return False
    return True


_IC_TERMS = {
    "R1": ("X1", "B1", "X2 Q"), "R2": ("X2", "B2", "X1 Q"),
    "X1X2;B1": ("X1 X2", "B1", "Q"), "X1X2;B2": ("X1 X2", "B2", "Q"),
    "X1X2;B1B2": ("X1 X2", "B1 B2", "Q"),
}


def _ic_informations(ch: CqChannel, dist: CodeDistribution, *sums) -> dict:
    """The rectangle terms R1, R2 and the ``sums`` of _IC_TERMS."""
    terms = {n: _IC_TERMS[n] for n in ("R1", "R2", *sums)}
    return _informations(ch, dist, "coded-time-share", terms)


def vsi_capacity(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Rectangle {R1 <= I(X1;B1|X2 Q), R2 <= I(X2;B2|X1 Q)} for one coded
    time-sharing distribution; the capacity region under very strong
    interference is the union of these over distributions."""
    t = _ic_informations(ch, dist)
    return HalfspaceRegion(("R1", "R2"), [([1, 0], t["R1"]), ([0, 1], t["R2"])])


def si_capacity(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Adds the strong-interference sum bound
    min{I(X1X2;B1|Q), I(X1X2;B2|Q)} to the rectangle."""
    t = _ic_informations(ch, dist, "X1X2;B1", "X1X2;B2")
    rows = [
        ([1, 0], t["R1"]),
        ([0, 1], t["R2"]),
        ([1, 1], min(t["X1X2;B1"], t["X1X2;B2"])),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def sato_outer(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Outer bound with the joint-output sum rate I(X1X2;B1B2|Q)."""
    t = _ic_informations(ch, dist, "X1X2;B1B2")
    rows = [([1, 0], t["R1"]), ([0, 1], t["R2"]), ([1, 1], t["X1X2;B1B2"])]
    return HalfspaceRegion(("R1", "R2"), rows)


# ---------------------------------------------------------------------------
# interference: Han-Kobayashi and common-message splitting

# receiver m decodes its personal message U_m and both common messages W1, W2
_HK_TERMS = {
    "U1W1;B1|W2Q": ("U1 W1", "B1", "W2 Q"),
    "U1;B1|W1W2Q": ("U1", "B1", "W1 W2 Q"),
    "W2;B1|U1W1Q": ("W2", "B1", "U1 W1 Q"),
    "U1W2;B1|W1Q": ("U1 W2", "B1", "W1 Q"),
    "U1W1W2;B1|Q": ("U1 W1 W2", "B1", "Q"),
    "U2W2;B2|W1Q": ("U2 W2", "B2", "W1 Q"),
    "U2;B2|W1W2Q": ("U2", "B2", "W1 W2 Q"),
    "W1;B2|U2W2Q": ("W1", "B2", "U2 W2 Q"),
    "U2W1;B2|W2Q": ("U2 W1", "B2", "W2 Q"),
    "U2W1W2;B2|Q": ("U2 W1 W2", "B2", "Q"),
}
_HK_ROWS = [
    ([1, 0], ["U1W1;B1|W2Q"]),
    ([1, 0], ["U1;B1|W1W2Q", "W1;B2|U2W2Q"]),
    ([0, 1], ["U2W2;B2|W1Q"]),
    ([0, 1], ["W2;B1|U1W1Q", "U2;B2|W1W2Q"]),
    ([1, 1], ["U1W1W2;B1|Q", "U2;B2|W1W2Q"]),
    ([1, 1], ["U1;B1|W1W2Q", "U2W1W2;B2|Q"]),
    ([1, 1], ["U1W2;B1|W1Q", "U2W1;B2|W2Q"]),
    ([2, 1], ["U1;B1|W1W2Q", "U2W1;B2|W2Q", "U1W1W2;B1|Q"]),
    ([1, 2], ["U1W2;B1|W1Q", "U2;B2|W1W2Q", "U2W1W2;B2|Q"]),
]


def hk_region(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Nine-inequality achievable region from personal messages U and common
    messages W decoded at both receivers."""
    t = _informations(ch, dist, "hk", _HK_TERMS)
    return HalfspaceRegion(("R1", "R2"), _rows(t, _HK_ROWS))


_CMG_TERMS = {
    "a1": ("X1", "B1", "W1 W2 Q"),
    "b1": ("X1", "B1", "W2 Q"),
    "c1": ("X1 W2", "B1", "W1 Q"),
    "d1": ("X1 W2", "B1", "Q"),
    "a2": ("X2", "B2", "W1 W2 Q"),
    "b2": ("X2", "B2", "W1 Q"),
    "c2": ("X2 W1", "B2", "W2 Q"),
    "d2": ("X2 W1", "B2", "Q"),
}
_CMG_ROWS = [
    ([1, 0], ["b1"]),
    ([1, 0], ["a1", "c2"]),
    ([0, 1], ["b2"]),
    ([0, 1], ["a2", "c1"]),
    ([1, 1], ["d1", "a2"]),
    ([1, 1], ["a1", "d2"]),
    ([1, 1], ["c1", "c2"]),
    ([2, 1], ["d1", "a1", "c2"]),
    ([1, 2], ["d2", "a2", "c1"]),
]
# each receiver's system over the split rates (R1p, R1c, R2p, R2c)
_CMG_SPLIT_ROWS = (
    [([1, 0, 0, 0], ["a1"]), ([1, 1, 0, 0], ["b1"]),
     ([1, 0, 0, 1], ["c1"]), ([1, 1, 0, 1], ["d1"])],
    [([0, 0, 1, 0], ["a2"]), ([0, 0, 1, 1], ["b2"]),
     ([0, 1, 1, 0], ["c2"]), ([0, 1, 1, 1], ["d2"])],
)


def cmg_informations(ch: CqChannel, dist: CodeDistribution) -> dict:
    """The eight split-rate quantities of the common-message scheme.

    For receiver 1: a1 = I(X1;B1|W1W2Q), b1 = I(X1;B1|W2Q),
    c1 = I(X1W2;B1|W1Q), d1 = I(X1W2;B1|Q); receiver 2 swaps roles.
    """
    return _informations(ch, dist, "cmg", _CMG_TERMS)


def _cmg_direct(q: dict) -> HalfspaceRegion:
    return HalfspaceRegion(("R1", "R2"), _rows(q, _CMG_ROWS))


def _cmg_split(q: dict):
    names = ("R1p", "R1c", "R2p", "R2c")
    return tuple(HalfspaceRegion(names, _rows(q, rows)) for rows in _CMG_SPLIT_ROWS)


def _cmg_projected(q: dict) -> HalfspaceRegion:
    keep = [[1, 1, 0, 0], [0, 0, 1, 1]]
    return fm_project(intersect(*_cmg_split(q)), keep, ("R1", "R2"))


def cmg_region(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Nine-inequality common-message region in the net rates (R1, R2)."""
    return _cmg_direct(cmg_informations(ch, dist))


def cmg_region_via_projection(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Project the intersected split-rate systems onto R1 = R1p + R1c,
    R2 = R2p + R2c; the direct nine-inequality region must agree."""
    return _cmg_projected(cmg_informations(ch, dist))


def cmg_regions(ch: CqChannel, dist: CodeDistribution):
    """``cmg_region`` and ``cmg_region_via_projection`` from one
    evaluation of the eight terms."""
    q = cmg_informations(ch, dist)
    return _cmg_direct(q), _cmg_projected(q)


# ---------------------------------------------------------------------------
# broadcast and relay

def superposition_region(bc: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Cloud-center coding: receiver 2 decodes the cloud W at rate R,
    receiver 1 decodes W and the satellite X at extra rate R1."""
    t = _informations(bc, dist, "superposition", {
        "X;B1|W": ("X", "B1", "W"), "W;B2": ("W", "B2", ""), "X;B1": ("X", "B1", "")})
    rows = [([1, 0], t["X;B1|W"]), ([0, 1], t["W;B2"]), ([1, 1], t["X;B1"])]
    return HalfspaceRegion(("R1", "R"), rows)


def marton_region(bc: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Binning over correlated auxiliaries U1, U2 with x = f(u1, u2)."""
    t = _informations(bc, dist, "marton", {
        "U1;B1": ("U1", "B1", ""), "U2;B2": ("U2", "B2", ""), "U1;U2": ("U1", "U2", "")})
    # the binning penalty can exceed the single-user rates; an empty claim
    # is a zero claim, not a negative one
    rows = [
        ([1, 0], t["U1;B1"]),
        ([0, 1], t["U2;B2"]),
        ([1, 1], max(0.0, t["U1;B1"] + t["U2;B2"] - t["U1;U2"])),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def relay_pdf_rate(rc: CqChannel, dist: CodeDistribution) -> float:
    """Partial decode-and-forward: the relay decodes the part U of the
    message; rate min{I(X X1;B), I(U;B1|X1) + I(X;B|X1 U)}, outputs (B1, B)."""
    # receiver 1 is the relay, receiver 2 the destination
    t = _informations(rc, dist, "relay-pdf", {
        "XX1;B": ("X X1", "B2", ""), "U;B1|X1": ("U", "B1", "X1"),
        "X;B|X1U": ("X", "B2", "X1 U")})
    return min(t["XX1;B"], t["U;B1|X1"] + t["X;B|X1U"])


def relay_df_rate(rc: CqChannel, joint_xx1: ProbDist) -> float:
    """Decode-and-forward rate min{I(X X1;B), I(X;B1|X1)}: the thesis's
    partial decode-forward theorem at U = X, where the relay decodes the
    whole message."""
    joint = ProbDist([(x, x, x1) for x, x1 in joint_xx1.symbols], joint_xx1.weights)
    return relay_pdf_rate(rc, CodeDistribution.relay_pdf(joint))


# ---------------------------------------------------------------------------
# seeded random code distributions

def _draw(kind: str, ch: CqChannel, seed: int, auxiliary: dict, alpha: float):
    """Seeded ``kind`` distribution over the ``auxiliary`` register
    alphabets and ``ch``'s input alphabets: each row, factor by factor and
    key by key, is Dirichlet(alpha) over its registers' symbols; then each
    map value is drawn uniformly from its channel input's alphabet."""
    factors, _, inputs = _LAYOUTS[kind]
    alphabets = dict(auxiliary)
    alphabets.update((r, a) for r, a in zip(inputs, ch.input_alphabets) if isinstance(r, str))
    rng = np.random.default_rng(seed)

    def row(regs):
        symbols = _keys(alphabets, regs)
        return ProbDist(symbols, rng.dirichlet(alpha * np.ones(len(symbols))))

    parts = {key: {c: row(regs) for c in _keys(alphabets, given)} if given else row(regs)
             for key, regs, given in factors}
    maps = {r[0]: {k: a[rng.integers(len(a))] for k in _keys(alphabets, r[1])}
            for r, a in zip(inputs, ch.input_alphabets) if not isinstance(r, str)}
    return CodeDistribution(kind, parts, maps)


def _time_share_alphabet(q_size: int) -> tuple:
    """The time-sharing alphabet "0", ..., str(q_size - 1)."""
    if not q_size >= 1:
        raise SchemaError(f"q_size must be >= 1, got {q_size}")
    return tuple(map(str, range(q_size)))


def random_cmg_distribution(ch: CqChannel, seed: int, q_size: int = 2) -> CodeDistribution:
    """Seeded fully random common-message distribution; W alphabets match
    the channel input alphabets."""
    a1, a2 = input_pair(ch)
    q = _time_share_alphabet(q_size)
    return _draw("cmg", ch, seed, {"Q": q, "W1": a1, "W2": a2}, 1.0)


def random_hk_distribution(ch: CqChannel, seed: int, q_size: int = 2) -> CodeDistribution:
    """Seeded random split-message distribution with random deterministic
    input maps; U and W alphabets match the channel input alphabets."""
    a1, a2 = input_pair(ch)
    q = _time_share_alphabet(q_size)
    return _draw("hk", ch, seed, {"Q": q, "U1": a1, "U2": a2, "W1": a1, "W2": a2}, 1.0)


def random_superposition_distribution(bc: CqChannel, seed: int) -> CodeDistribution:
    """Seeded superposition distribution: a binary cloud W and X given W,
    each drawn from a Dirichlet(2) prior."""
    bc.single_alphabet()
    return _draw("superposition", bc, seed, {"W": ("0", "1")}, 2.0)


def random_marton_distribution(bc: CqChannel, seed: int) -> CodeDistribution:
    """Seeded Marton distribution: a Dirichlet(2) joint over binary (u1, u2)
    and a uniformly drawn map to the channel input."""
    bc.single_alphabet()
    return _draw("marton", bc, seed, {"U1": ("0", "1"), "U2": ("0", "1")}, 2.0)


def random_relay_distribution(rc: CqChannel, seed: int) -> CodeDistribution:
    """Seeded partial decode-and-forward distribution: a Dirichlet(2) joint
    over (u, x, x1) with a binary U."""
    input_pair(rc)
    return _draw("relay-pdf", rc, seed, {"U": ("0", "1")}, 2.0)
