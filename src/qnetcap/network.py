"""Capacity and achievable-rate computations for finite-dimensional network
channels: point-to-point, multiple access, interference, broadcast, and relay
models built from a CqChannel plus a code distribution.

Every rate bound is an entropic quantity of one joint classical-quantum
state; this module builds those states and assembles the inequality systems.
Interference-channel operations accept either a two-output channel or a
single-output channel, in which case both receivers observe the same system.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import CqChannel, SchemaError
from .entropic import (LabeledCqState, ProbDist, conditional_mutual_information,
                       von_neumann_entropy)
from .qstate import InvariantError
from .regions import HalfspaceRegion, fm_project, intersect, radial_extents

INFO_CLAMP = 1e-9
# grid points evaluated per stacked entropy call; bounds sweep memory
_GRID_CHUNK = 512


def _clamp(value: float) -> float:
    """Zero out roundoff negatives; anything worse is an entropic bug."""
    if value < -INFO_CLAMP:
        raise InvariantError(f"information quantity {value:.3e} below clamp")
    return max(value, 0.0)


def _clamp_stack(values: np.ndarray) -> np.ndarray:
    """``_clamp`` over an array of information quantities."""
    if np.any(values < -INFO_CLAMP):
        raise InvariantError(
            f"information quantity {float(values.min()):.3e} below clamp"
        )
    return np.maximum(values, 0.0)


def _receiver_names(ch: CqChannel):
    """Quantum labels observed by receivers 1 and 2; a single-output channel
    is read as both receivers sharing that system."""
    if len(ch.output_names) == 1:
        return ch.output_names[0], ch.output_names[0]
    return ch.output_names[0], ch.output_names[1]


def simplex_grid(k: int, resolution: int):
    """All probability vectors of length k with entries on a uniform grid of
    ``resolution`` points per edge."""
    if resolution < 2:
        raise SchemaError(f"grid resolution {resolution} < 2")
    steps = resolution - 1
    for cuts in itertools.combinations(range(steps + k - 1), k - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + k - 2 - prev)
        yield np.array(parts, dtype=float) / steps


def _grid_pairs(k1: int, k2: int, resolution: int):
    """Product distributions p1(x1) p2(x2) over two simplex grids, first
    grid outermost, as stacked (n, k1, k2) tables of at most
    ``_GRID_CHUNK`` points."""
    inner = np.array(list(simplex_grid(k2, resolution)))
    points = simplex_grid(k1, resolution)
    while outer := list(itertools.islice(points, max(1, _GRID_CHUNK // len(inner)))):
        outer = np.array(outer)
        for lo in range(0, len(inner), _GRID_CHUNK):
            w2 = inner[lo : lo + _GRID_CHUNK]
            yield (outer[:, None, :, None] * w2[None, :, None, :]).reshape(-1, k1, k2)


# ---------------------------------------------------------------------------
# code distributions

class CodeDistribution:
    """Input-distribution structure of a random-coding scheme.

    ``parts`` maps register names to either a ProbDist (unconditional) or a
    dict from conditioning tuples to ProbDists; ``maps`` holds deterministic
    symbol maps (the functions turning auxiliary symbols into channel
    inputs).  Use the per-kind classmethods.
    """

    def __init__(self, kind: str, parts: dict, maps: dict | None = None):
        self.kind = kind
        self.parts = dict(parts)
        self.maps = dict(maps) if maps else {}

    @staticmethod
    def _conditional(table: dict, domain) -> dict:
        out = {}
        for key in domain:
            if key not in table:
                raise SchemaError(f"conditional table missing row {key}")
            row = table[key]
            if not isinstance(row, ProbDist):
                raise SchemaError(f"row {key} is not a ProbDist")
            out[key] = row
        return out

    @staticmethod
    def _total_map(f: dict, domain, codomain) -> dict:
        out = {}
        codomain = set(codomain)
        for key in domain:
            if key not in f:
                raise SchemaError(f"deterministic map missing {key}")
            val = str(f[key])
            if val not in codomain:
                raise SchemaError(f"map value {val!r} outside alphabet")
            out[key] = val
        return out

    @classmethod
    def p2p(cls, p: ProbDist) -> "CodeDistribution":
        return cls("p2p", {"X": p})

    @classmethod
    def mac(cls, p1: ProbDist, p2: ProbDist) -> "CodeDistribution":
        return cls("mac", {"X1": p1, "X2": p2})

    @classmethod
    def coded_time_share(cls, q: ProbDist, x1_given_q: dict, x2_given_q: dict) -> "CodeDistribution":
        parts = {
            "Q": q,
            "X1|Q": cls._conditional(x1_given_q, q.symbols),
            "X2|Q": cls._conditional(x2_given_q, q.symbols),
        }
        return cls("coded-time-share", parts)

    @classmethod
    def no_time_share(cls, p1: ProbDist, p2: ProbDist) -> "CodeDistribution":
        """Coded-time-share structure with a trivial one-symbol Q."""
        q = ProbDist(("0",), [1.0])
        return cls.coded_time_share(q, {"0": p1}, {"0": p2})

    @classmethod
    def hk(cls, q, u1_given_q, u2_given_q, w1_given_q, w2_given_q, f1, f2,
           x1_alphabet, x2_alphabet) -> "CodeDistribution":
        parts = {
            "Q": q,
            "U1|Q": cls._conditional(u1_given_q, q.symbols),
            "U2|Q": cls._conditional(u2_given_q, q.symbols),
            "W1|Q": cls._conditional(w1_given_q, q.symbols),
            "W2|Q": cls._conditional(w2_given_q, q.symbols),
        }
        u1 = next(iter(parts["U1|Q"].values())).symbols
        u2 = next(iter(parts["U2|Q"].values())).symbols
        w1 = next(iter(parts["W1|Q"].values())).symbols
        w2 = next(iter(parts["W2|Q"].values())).symbols
        maps = {
            "f1": cls._total_map(f1, itertools.product(u1, w1), x1_alphabet),
            "f2": cls._total_map(f2, itertools.product(u2, w2), x2_alphabet),
        }
        return cls("hk", parts, maps)

    @classmethod
    def cmg(cls, q, w1_given_q, w2_given_q, x1_given_w1q, x2_given_w2q) -> "CodeDistribution":
        parts = {
            "Q": q,
            "W1|Q": cls._conditional(w1_given_q, q.symbols),
            "W2|Q": cls._conditional(w2_given_q, q.symbols),
        }
        w1 = next(iter(parts["W1|Q"].values())).symbols
        w2 = next(iter(parts["W2|Q"].values())).symbols
        parts["X1|W1Q"] = cls._conditional(
            x1_given_w1q, itertools.product(w1, q.symbols)
        )
        parts["X2|W2Q"] = cls._conditional(
            x2_given_w2q, itertools.product(w2, q.symbols)
        )
        return cls("cmg", parts)

    @classmethod
    def superposition(cls, w: ProbDist, x_given_w: dict) -> "CodeDistribution":
        return cls(
            "superposition",
            {"W": w, "X|W": cls._conditional(x_given_w, w.symbols)},
        )

    @classmethod
    def marton(cls, joint: ProbDist, f: dict, x_alphabet) -> "CodeDistribution":
        pairs = joint.symbols
        if not all(isinstance(s, tuple) and len(s) == 2 for s in pairs):
            raise SchemaError("marton joint must be over (u1, u2) pairs")
        return cls(
            "marton",
            {"U1U2": joint},
            {"f": cls._total_map(f, pairs, x_alphabet)},
        )

    @classmethod
    def relay_pdf(cls, joint: ProbDist) -> "CodeDistribution":
        if not all(isinstance(s, tuple) and len(s) == 3 for s in joint.symbols):
            raise SchemaError("relay joint must be over (u, x, x1) triples")
        return cls("relay-pdf", {"UXX1": joint})


def _expect_kind(dist: CodeDistribution, *kinds):
    if dist.kind not in kinds:
        raise SchemaError(f"need a {' or '.join(kinds)} distribution, got {dist.kind}")


# ---------------------------------------------------------------------------
# joint-state builders

def p2p_state(ch: CqChannel, p: ProbDist) -> LabeledCqState:
    if ch.n_inputs != 1:
        raise SchemaError("point-to-point state needs a single-input channel")
    alphabet = ch.input_alphabets[0]
    table = {(x,): (p.prob(x), ch.output(x)) for x in alphabet}
    return LabeledCqState([("X", alphabet)], table, ch.output_names)


def mac_state(ch: CqChannel, p1: ProbDist, p2: ProbDist) -> LabeledCqState:
    if ch.n_inputs != 2:
        raise SchemaError("MAC state needs a two-input channel")
    a1, a2 = ch.input_alphabets
    table = {
        (x1, x2): (p1.prob(x1) * p2.prob(x2), ch.output(x1, x2))
        for x1 in a1
        for x2 in a2
    }
    return LabeledCqState([("X1", a1), ("X2", a2)], table, ch.output_names)


def cts_state(ch: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    """State for coded time sharing: p(q) p(x1|q) p(x2|q) x rho_{x1,x2}."""
    _expect_kind(dist, "coded-time-share")
    q = dist.parts["Q"]
    a1, a2 = ch.input_alphabets
    table = {}
    for qs in q.symbols:
        p1, p2 = dist.parts["X1|Q"][qs], dist.parts["X2|Q"][qs]
        for x1 in a1:
            for x2 in a2:
                table[(qs, x1, x2)] = (
                    q.prob(qs) * p1.prob(x1) * p2.prob(x2),
                    ch.output(x1, x2),
                )
    regs = [("Q", q.symbols), ("X1", a1), ("X2", a2)]
    return LabeledCqState(regs, table, ch.output_names)


def hk_state(ch: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    _expect_kind(dist, "hk")
    q = dist.parts["Q"]
    f1, f2 = dist.maps["f1"], dist.maps["f2"]
    u1a = next(iter(dist.parts["U1|Q"].values())).symbols
    u2a = next(iter(dist.parts["U2|Q"].values())).symbols
    w1a = next(iter(dist.parts["W1|Q"].values())).symbols
    w2a = next(iter(dist.parts["W2|Q"].values())).symbols
    table = {}
    for qs in q.symbols:
        pu1 = dist.parts["U1|Q"][qs]
        pu2 = dist.parts["U2|Q"][qs]
        pw1 = dist.parts["W1|Q"][qs]
        pw2 = dist.parts["W2|Q"][qs]
        for u1, u2, w1, w2 in itertools.product(u1a, u2a, w1a, w2a):
            prob = (
                q.prob(qs)
                * pu1.prob(u1)
                * pu2.prob(u2)
                * pw1.prob(w1)
                * pw2.prob(w2)
            )
            rho = ch.output(f1[(u1, w1)], f2[(u2, w2)])
            table[(qs, u1, u2, w1, w2)] = (prob, rho)
    regs = [
        ("Q", q.symbols),
        ("U1", u1a),
        ("U2", u2a),
        ("W1", w1a),
        ("W2", w2a),
    ]
    return LabeledCqState(regs, table, ch.output_names)


def cmg_state(ch: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    _expect_kind(dist, "cmg")
    q = dist.parts["Q"]
    a1, a2 = ch.input_alphabets
    w1a = next(iter(dist.parts["W1|Q"].values())).symbols
    w2a = next(iter(dist.parts["W2|Q"].values())).symbols
    table = {}
    for qs in q.symbols:
        pw1, pw2 = dist.parts["W1|Q"][qs], dist.parts["W2|Q"][qs]
        for w1, w2 in itertools.product(w1a, w2a):
            px1 = dist.parts["X1|W1Q"][(w1, qs)]
            px2 = dist.parts["X2|W2Q"][(w2, qs)]
            for x1, x2 in itertools.product(a1, a2):
                prob = (
                    q.prob(qs)
                    * pw1.prob(w1)
                    * px1.prob(x1)
                    * pw2.prob(w2)
                    * px2.prob(x2)
                )
                table[(qs, w1, x1, w2, x2)] = (prob, ch.output(x1, x2))
    regs = [
        ("Q", q.symbols),
        ("W1", w1a),
        ("X1", a1),
        ("W2", w2a),
        ("X2", a2),
    ]
    return LabeledCqState(regs, table, ch.output_names)


def superposition_state(bc: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    _expect_kind(dist, "superposition")
    if bc.n_inputs != 1:
        raise SchemaError("broadcast needs a single-input channel")
    w = dist.parts["W"]
    alphabet = bc.input_alphabets[0]
    table = {}
    for ws in w.symbols:
        px = dist.parts["X|W"][ws]
        for x in alphabet:
            table[(ws, x)] = (w.prob(ws) * px.prob(x), bc.output(x))
    return LabeledCqState(
        [("W", w.symbols), ("X", alphabet)], table, bc.output_names
    )


def marton_state(bc: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    _expect_kind(dist, "marton")
    if bc.n_inputs != 1:
        raise SchemaError("broadcast needs a single-input channel")
    joint = dist.parts["U1U2"]
    f = dist.maps["f"]
    u1a = tuple(dict.fromkeys(u1 for u1, _ in joint.symbols))
    u2a = tuple(dict.fromkeys(u2 for _, u2 in joint.symbols))
    table = {}
    for (u1, u2), prob in joint.items():
        table[(u1, u2)] = (float(prob), bc.output(f[(u1, u2)]))
    return LabeledCqState([("U1", u1a), ("U2", u2a)], table, bc.output_names)


def relay_state(rc: CqChannel, dist: CodeDistribution) -> LabeledCqState:
    _expect_kind(dist, "relay-pdf")
    if rc.n_inputs != 2:
        raise SchemaError("relay needs a two-input channel (x, x1)")
    joint = dist.parts["UXX1"]
    ua = tuple(dict.fromkeys(u for u, _, _ in joint.symbols))
    table = {}
    for (u, x, x1), prob in joint.items():
        table[(u, x, x1)] = (float(prob), rc.output(x, x1))
    regs = [("U", ua), ("X", rc.input_alphabets[0]), ("X1", rc.input_alphabets[1])]
    return LabeledCqState(regs, table, rc.output_names)


# ---------------------------------------------------------------------------
# point-to-point

# Eigenvalues of sigma at or below this fraction of its largest one count as
# zero: D(rho || sigma) takes log sigma on the other eigenvectors (sigma's
# support) and drops rho's weight outside them, which is zero whenever rho
# enters sigma with positive weight.
SUPPORT_RELATIVE_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """A Blahut-Arimoto capacity in bits with its certificate: ``value`` is
    the information of ``distribution`` and value <= C <= ``upper``.
    ``converged`` says whether upper - value fell below the tolerance within
    the ``iterations`` updates made.  Unpacks as (value, distribution)."""

    value: float
    distribution: ProbDist
    upper: float
    iterations: int
    converged: bool

    def __getitem__(self, index):
        return (self.value, self.distribution)[index]


def _blahut_arimoto(divergences, symbols, tol: float, max_iter: int) -> CapacityResult:
    """From the uniform p, iterate p <- p 2^(D - max D) / Z, where
    ``divergences(p)`` gives each input's D(output || mean output) in bits.
    Each step brackets C between p . D and max D; stop once they are less
    than ``tol`` apart or after ``max_iter`` updates."""
    if max_iter < 0:
        raise SchemaError(f"max_iter must be >= 0, got {max_iter}")
    p = np.full(len(symbols), 1.0 / len(symbols))
    for iterations in range(max_iter + 1):
        d = divergences(p)
        lower, upper = float(p @ d), float(np.max(d))
        if upper - lower < tol or iterations == max_iter:
            break
        p = p * np.exp2(d - upper)
        p = p / p.sum()
    return CapacityResult(
        _clamp(lower), ProbDist(symbols, p), upper, iterations, upper - lower < tol
    )


def classical_capacity_BA(transition, tol: float = 1e-9, max_iter: int = 20000):
    """Blahut-Arimoto capacity of a discrete memoryless channel whose
    ``transition`` rows are p(y|x); a CapacityResult over row indices."""
    t = np.asarray(transition, dtype=float)
    if t.ndim != 2:
        raise SchemaError("transition must be a matrix")
    if np.any(t < -1e-12):
        raise InvariantError("negative transition probability")
    t = np.clip(t, 0.0, None)
    if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-9:
        raise InvariantError("transition rows must sum to 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.where(t > 0, np.log2(np.where(t > 0, t, 1.0)), 0.0)

    def divergences(r):
        qbar = r @ t
        with np.errstate(divide="ignore"):
            logq = np.where(qbar > 0, np.log2(np.where(qbar > 0, qbar, 1.0)), 0.0)
        return np.sum(t * (logt - logq[None, :]), axis=1)

    return _blahut_arimoto(divergences, range(t.shape[0]), tol, max_iter)


def hsw_capacity(ch: CqChannel, tol: float = 1e-9, max_iter: int = 20000, *,
                 grid_resolution=None):
    """Holevo capacity max_p chi(p) by the Blahut-Arimoto iteration for cq
    channels (Nagaoka 1998; Li and Cai, arXiv:1905.08235); a CapacityResult.

    Each step takes one ``eigh`` of sigma = sum_x p_x rho_x and every
    D(rho_x || sigma) = -H(rho_x) - Tr[rho_x log sigma] on sigma's support
    (``SUPPORT_RELATIVE_CUTOFF``).  ``grid_resolution`` has no effect.
    """
    if ch.n_inputs != 1:
        raise SchemaError("hsw_capacity needs a single-input channel")
    if grid_resolution is not None:
        warnings.warn("hsw_capacity no longer searches a grid; grid_resolution "
                      "has no effect", DeprecationWarning, stacklevel=2)
    alphabet = ch.input_alphabets[0]
    rhos = np.stack([ch.output(x).entries for x in alphabet])
    neg_h = -np.array([von_neumann_entropy(ch.output(x)) for x in alphabet])

    def divergences(p):
        w, v = np.linalg.eigh(np.tensordot(p, rhos, axes=1))
        support = w > SUPPORT_RELATIVE_CUTOFF * w[-1]
        v = v[:, support]
        # <v_j| rho_x |v_j> for every input x and support eigenvector j
        weights = (v.conj() * (rhos @ v)).sum(axis=1).real
        return neg_h - weights @ np.log2(w[support])

    return _blahut_arimoto(divergences, alphabet, tol, max_iter)


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

def mac_region(ch: CqChannel, p1: ProbDist, p2: ProbDist) -> HalfspaceRegion:
    """Pentagon {R1 <= I(X1;B|X2), R2 <= I(X2;B|X1), R1+R2 <= I(X1X2;B)}."""
    st = mac_state(ch, p1, p2)
    b = set(ch.output_names)
    i1 = conditional_mutual_information(st, {"X1"}, b, {"X2"})
    i2 = conditional_mutual_information(st, {"X2"}, b, {"X1"})
    i12 = conditional_mutual_information(st, {"X1", "X2"}, b)
    return HalfspaceRegion(
        ("R1", "R2"),
        [([1, 0], _clamp(i1)), ([0, 1], _clamp(i2)), ([1, 1], _clamp(i12))],
    )


def mac_region_union(ch: CqChannel, grid: int = 21, n_angles: int = 61):
    """Pointwise-max boundary of mac_region over a product simplex grid.

    Returns a list of (theta, R1, R2) like boundary_sample.
    """
    a1, a2 = ch.input_alphabets
    st = mac_state(ch, ProbDist.uniform(a1), ProbDist.uniform(a2))
    b = set(ch.output_names)
    coeffs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    thetas = np.linspace(0.0, np.pi / 2, n_angles)
    cos, sin = np.cos(thetas), np.sin(thetas)
    radii = np.zeros(n_angles)
    for probs in _grid_pairs(len(a1), len(a2), grid):
        bounds = np.stack([
            conditional_mutual_information(st, {"X1"}, b, {"X2"}, probs=probs),
            conditional_mutual_information(st, {"X2"}, b, {"X1"}, probs=probs),
            conditional_mutual_information(st, {"X1", "X2"}, b, probs=probs),
        ], axis=1)
        t = radial_extents(coeffs, _clamp_stack(bounds), thetas)
        radii = np.maximum(radii, np.hypot(t * cos, t * sin).max(axis=0))
    return [
        (float(th), float(r * np.cos(th)), float(r * np.sin(th)))
        for th, r in zip(thetas, radii)
    ]


def successive_decoding_corners(ch: CqChannel, p1: ProbDist, p2: ProbDist) -> dict:
    """Interference-channel rate pairs reachable by decoding orders.

    P1: rx1 decodes both (interference first), rx2 treats its signal last;
    P4: both receivers decode only their own sender.  Keys "P1".."P4".
    """
    st = mac_state(ch, p1, p2)
    b1, b2 = _receiver_names(ch)
    i = {
        ("X1", "B1"): conditional_mutual_information(st, {"X1"}, {b1}),
        ("X1", "B2"): conditional_mutual_information(st, {"X1"}, {b2}),
        ("X2", "B1"): conditional_mutual_information(st, {"X2"}, {b1}),
        ("X2", "B2"): conditional_mutual_information(st, {"X2"}, {b2}),
        ("X1", "B1|X2"): conditional_mutual_information(st, {"X1"}, {b1}, {"X2"}),
        ("X2", "B2|X1"): conditional_mutual_information(st, {"X2"}, {b2}, {"X1"}),
    }
    i = {k: _clamp(v) for k, v in i.items()}
    return {
        "P1": (
            i[("X1", "B1|X2")],
            min(i[("X2", "B1")], i[("X2", "B2")]),
        ),
        "P2": (
            min(i[("X1", "B1|X2")], i[("X1", "B2")]),
            min(i[("X2", "B1")], i[("X2", "B2|X1")]),
        ),
        "P3": (
            min(i[("X1", "B1")], i[("X1", "B2")]),
            i[("X2", "B2|X1")],
        ),
        "P4": (i[("X1", "B1")], i[("X2", "B2")]),
    }


# ---------------------------------------------------------------------------
# interference: very strong / strong / Sato

def vsi_check(ch: CqChannel, grid: int = 21, tol: float = 1e-9) -> bool:
    """Whether cross observations dominate: I(X1;B1|X2) <= I(X1;B2) and
    I(X2;B2|X1) <= I(X2;B1) for every product input distribution on the
    grid."""
    a1, a2 = ch.input_alphabets
    b1, b2 = _receiver_names(ch)
    st = mac_state(ch, ProbDist.uniform(a1), ProbDist.uniform(a2))
    for probs in _grid_pairs(len(a1), len(a2), grid):
        own1 = conditional_mutual_information(st, {"X1"}, {b1}, {"X2"}, probs=probs)
        cross1 = conditional_mutual_information(st, {"X1"}, {b2}, probs=probs)
        own2 = conditional_mutual_information(st, {"X2"}, {b2}, {"X1"}, probs=probs)
        cross2 = conditional_mutual_information(st, {"X2"}, {b1}, probs=probs)
        if np.any(own1 > cross1 + tol) or np.any(own2 > cross2 + tol):
            return False
    return True


def _ic_bounds(ch: CqChannel, dist: CodeDistribution):
    st = cts_state(ch, dist)
    b1, b2 = _receiver_names(ch)
    r1 = conditional_mutual_information(st, {"X1"}, {b1}, {"X2", "Q"})
    r2 = conditional_mutual_information(st, {"X2"}, {b2}, {"X1", "Q"})
    return st, b1, b2, _clamp(r1), _clamp(r2)


def vsi_capacity(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Rectangle {R1 <= I(X1;B1|X2 Q), R2 <= I(X2;B2|X1 Q)} for one coded
    time-sharing distribution; the capacity region under very strong
    interference is the union of these over distributions."""
    _, _, _, r1, r2 = _ic_bounds(ch, dist)
    return HalfspaceRegion(("R1", "R2"), [([1, 0], r1), ([0, 1], r2)])


def si_capacity(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Adds the strong-interference sum bound
    min{I(X1X2;B1|Q), I(X1X2;B2|Q)} to the rectangle."""
    st, b1, b2, r1, r2 = _ic_bounds(ch, dist)
    s1 = conditional_mutual_information(st, {"X1", "X2"}, {b1}, {"Q"})
    s2 = conditional_mutual_information(st, {"X1", "X2"}, {b2}, {"Q"})
    rows = [
        ([1, 0], r1),
        ([0, 1], r2),
        ([1, 1], _clamp(min(s1, s2))),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def sato_outer(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Outer bound with the joint-output sum rate I(X1X2;B1B2|Q)."""
    st, b1, b2, r1, r2 = _ic_bounds(ch, dist)
    joint = {b1, b2}
    s = conditional_mutual_information(st, {"X1", "X2"}, joint, {"Q"})
    rows = [([1, 0], r1), ([0, 1], r2), ([1, 1], _clamp(s))]
    return HalfspaceRegion(("R1", "R2"), rows)


# ---------------------------------------------------------------------------
# interference: Han-Kobayashi and common-message splitting

def hk_region(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Nine-inequality achievable region from personal messages U and common
    messages W decoded at both receivers."""
    st = hk_state(ch, dist)
    b1, b2 = _receiver_names(ch)

    def info(a, b, c):
        return _clamp(conditional_mutual_information(st, set(a), {b}, set(c)))

    rows = [
        ([1, 0], info(("U1", "W1"), b1, ("W2", "Q"))),
        ([1, 0], info(("U1",), b1, ("W1", "W2", "Q"))
         + info(("W1",), b2, ("U2", "W2", "Q"))),
        ([0, 1], info(("U2", "W2"), b2, ("W1", "Q"))),
        ([0, 1], info(("W2",), b1, ("U1", "W1", "Q"))
         + info(("U2",), b2, ("W1", "W2", "Q"))),
        ([1, 1], info(("U1", "W1", "W2"), b1, ("Q",))
         + info(("U2",), b2, ("W1", "W2", "Q"))),
        ([1, 1], info(("U1",), b1, ("W1", "W2", "Q"))
         + info(("U2", "W1", "W2"), b2, ("Q",))),
        ([1, 1], info(("U1", "W2"), b1, ("W1", "Q"))
         + info(("U2", "W1"), b2, ("W2", "Q"))),
        ([2, 1], info(("U1",), b1, ("W1", "W2", "Q"))
         + info(("U2", "W1"), b2, ("W2", "Q"))
         + info(("U1", "W1", "W2"), b1, ("Q",))),
        ([1, 2], info(("U1", "W2"), b1, ("W1", "Q"))
         + info(("U2",), b2, ("W1", "W2", "Q"))
         + info(("U2", "W1", "W2"), b2, ("Q",))),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def cmg_informations(ch: CqChannel, dist: CodeDistribution) -> dict:
    """The eight split-rate quantities of the common-message scheme.

    For receiver 1: a1 = I(X1;B1|W1W2Q), b1 = I(X1;B1|W2Q),
    c1 = I(X1W2;B1|W1Q), d1 = I(X1W2;B1|Q); receiver 2 swaps roles.
    """
    st = cmg_state(ch, dist)
    b1, b2 = _receiver_names(ch)

    def info(a, b, c):
        return _clamp(conditional_mutual_information(st, set(a), {b}, set(c)))

    return {
        "a1": info(("X1",), b1, ("W1", "W2", "Q")),
        "b1": info(("X1",), b1, ("W2", "Q")),
        "c1": info(("X1", "W2"), b1, ("W1", "Q")),
        "d1": info(("X1", "W2"), b1, ("Q",)),
        "a2": info(("X2",), b2, ("W1", "W2", "Q")),
        "b2": info(("X2",), b2, ("W1", "Q")),
        "c2": info(("X2", "W1"), b2, ("W2", "Q")),
        "d2": info(("X2", "W1"), b2, ("Q",)),
    }


def cmg_region(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Nine-inequality common-message region in the net rates (R1, R2)."""
    q = cmg_informations(ch, dist)
    rows = [
        ([1, 0], q["b1"]),
        ([1, 0], q["a1"] + q["c2"]),
        ([0, 1], q["b2"]),
        ([0, 1], q["a2"] + q["c1"]),
        ([1, 1], q["d1"] + q["a2"]),
        ([1, 1], q["a1"] + q["d2"]),
        ([1, 1], q["c1"] + q["c2"]),
        ([2, 1], q["d1"] + q["a1"] + q["c2"]),
        ([1, 2], q["d2"] + q["a2"] + q["c1"]),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def cmg_split_systems(ch: CqChannel, dist: CodeDistribution):
    """The two receivers' four-inequality systems over the split rates
    (R1p, R1c, R2p, R2c): receiver m decodes its personal rate and both
    common rates as a three-sender MAC."""
    q = cmg_informations(ch, dist)
    names = ("R1p", "R1c", "R2p", "R2c")
    sys1 = HalfspaceRegion(
        names,
        [
            ([1, 0, 0, 0], q["a1"]),
            ([1, 1, 0, 0], q["b1"]),
            ([1, 0, 0, 1], q["c1"]),
            ([1, 1, 0, 1], q["d1"]),
        ],
    )
    sys2 = HalfspaceRegion(
        names,
        [
            ([0, 0, 1, 0], q["a2"]),
            ([0, 0, 1, 1], q["b2"]),
            ([0, 1, 1, 0], q["c2"]),
            ([0, 1, 1, 1], q["d2"]),
        ],
    )
    return sys1, sys2


def cmg_region_via_projection(ch: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Project the intersected split-rate systems onto R1 = R1p + R1c,
    R2 = R2p + R2c; the direct nine-inequality region must agree."""
    sys1, sys2 = cmg_split_systems(ch, dist)
    keep = [[1, 1, 0, 0], [0, 0, 1, 1]]
    return fm_project(intersect(sys1, sys2), keep, ("R1", "R2"))


# ---------------------------------------------------------------------------
# broadcast and relay

def superposition_region(bc: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Cloud-center coding: receiver 2 decodes the cloud W at rate R,
    receiver 1 decodes W and the satellite X at extra rate R1."""
    st = superposition_state(bc, dist)
    if len(bc.output_names) != 2:
        raise SchemaError("superposition needs a two-output broadcast channel")
    b1, b2 = bc.output_names
    r1 = conditional_mutual_information(st, {"X"}, {b1}, {"W"})
    r = conditional_mutual_information(st, {"W"}, {b2})
    total = conditional_mutual_information(st, {"X"}, {b1})
    rows = [
        ([1, 0], _clamp(r1)),
        ([0, 1], _clamp(r)),
        ([1, 1], _clamp(total)),
    ]
    return HalfspaceRegion(("R1", "R"), rows)


def marton_region(bc: CqChannel, dist: CodeDistribution) -> HalfspaceRegion:
    """Binning over correlated auxiliaries U1, U2 with x = f(u1, u2)."""
    st = marton_state(bc, dist)
    if len(bc.output_names) != 2:
        raise SchemaError("marton needs a two-output broadcast channel")
    b1, b2 = bc.output_names
    i1 = _clamp(conditional_mutual_information(st, {"U1"}, {b1}))
    i2 = _clamp(conditional_mutual_information(st, {"U2"}, {b2}))
    i_uu = _clamp(conditional_mutual_information(st, {"U1"}, {"U2"}))
    # the binning penalty can exceed the single-user rates; an empty claim
    # is a zero claim, not a negative one
    rows = [
        ([1, 0], i1),
        ([0, 1], i2),
        ([1, 1], max(0.0, i1 + i2 - i_uu)),
    ]
    return HalfspaceRegion(("R1", "R2"), rows)


def relay_pdf_rate(rc: CqChannel, dist: CodeDistribution) -> float:
    """Partial decode-and-forward: the relay decodes the part U of the
    message; rate min{I(X X1;B), I(U;B1|X1) + I(X;B|X1 U)}."""
    st = relay_state(rc, dist)
    if len(rc.output_names) != 2:
        raise SchemaError("relay needs a two-output channel (B1, B)")
    b_relay, b_dest = rc.output_names
    direct = conditional_mutual_information(st, {"X", "X1"}, {b_dest})
    relay_part = conditional_mutual_information(st, {"U"}, {b_relay}, {"X1"})
    rest = conditional_mutual_information(st, {"X"}, {b_dest}, {"X1", "U"})
    return _clamp(min(_clamp(direct), _clamp(relay_part) + _clamp(rest)))


def relay_df_rate(rc: CqChannel, joint_xx1: ProbDist) -> float:
    """Full decode-and-forward: U = X."""
    triples = {}
    for (x, x1), p in joint_xx1.items():
        triples[(x, x, x1)] = float(p)
    joint = ProbDist(tuple(triples), list(triples.values()))
    return relay_pdf_rate(rc, CodeDistribution.relay_pdf(joint))


# ---------------------------------------------------------------------------
# seeded random code distributions

def _dirichlet_rows(rng, keys, alphabet):
    return {
        key: ProbDist(alphabet, rng.dirichlet(np.ones(len(alphabet))))
        for key in keys
    }


def random_cmg_distribution(ch: CqChannel, seed: int, q_size: int = 2) -> CodeDistribution:
    """Seeded fully random common-message distribution; W alphabets match
    the channel input alphabets."""
    rng = np.random.default_rng(seed)
    a1, a2 = ch.input_alphabets
    qa = tuple(str(i) for i in range(q_size))
    q = ProbDist(qa, rng.dirichlet(np.ones(q_size)))
    w1 = _dirichlet_rows(rng, qa, a1)
    w2 = _dirichlet_rows(rng, qa, a2)
    x1 = _dirichlet_rows(rng, itertools.product(a1, qa), a1)
    x2 = _dirichlet_rows(rng, itertools.product(a2, qa), a2)
    return CodeDistribution.cmg(q, w1, w2, x1, x2)


def random_hk_distribution(ch: CqChannel, seed: int, q_size: int = 2) -> CodeDistribution:
    """Seeded random split-message distribution with random deterministic
    input maps; U and W alphabets match the channel input alphabets."""
    rng = np.random.default_rng(seed)
    a1, a2 = ch.input_alphabets
    qa = tuple(str(i) for i in range(q_size))
    q = ProbDist(qa, rng.dirichlet(np.ones(q_size)))
    u1 = _dirichlet_rows(rng, qa, a1)
    u2 = _dirichlet_rows(rng, qa, a2)
    w1 = _dirichlet_rows(rng, qa, a1)
    w2 = _dirichlet_rows(rng, qa, a2)
    f1 = {
        (u, w): a1[int(rng.integers(len(a1)))]
        for u, w in itertools.product(a1, a1)
    }
    f2 = {
        (u, w): a2[int(rng.integers(len(a2)))]
        for u, w in itertools.product(a2, a2)
    }
    return CodeDistribution.hk(q, u1, u2, w1, w2, f1, f2, a1, a2)
