"""Reference computations the benchmark checks qnetcap's outputs against.

Nothing here calls qnetcap code.  Joint tables, entropies, region vertices
and closed forms are written out again in plain numpy, so that a wrong
answer from the program cannot also be the expected answer.  Channels and
code distributions are read only as data (their output matrices and
probability tables).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EIG_FLOOR = 1e-12


def xlogx_sum(values) -> float:
    """-sum v log2 v over the entries above the eigenvalue floor."""
    v = np.asarray(values, dtype=float)
    v = v[v > EIG_FLOOR]
    return float(-np.sum(v * np.log2(v)))


def h2(p: float) -> float:
    return xlogx_sum([p, 1.0 - p])


def g_thermal(n: float) -> float:
    return 0.0 if n == 0 else (n + 1) * math.log2(n + 1) - n * math.log2(n)


def reduce_to(rho, dims, keep):
    """Partial trace of ``rho`` onto the subsystem indices in ``keep``."""
    n = len(dims)
    if len(keep) == n:
        return rho
    rows = "abcdefgh"[:n]
    cols = "".join(c.upper() if i in keep else c for i, c in enumerate(rows))
    out = "".join(rows[i] for i in keep) + "".join(rows[i].upper() for i in keep)
    d = math.prod(dims[i] for i in keep)
    t = np.einsum(f"{rows}{cols}->{out}", rho.reshape(tuple(dims) * 2))
    return t.reshape(d, d)


class CqTable:
    """Joint distribution over named classical registers, each row carrying
    the conditional output matrix of the channel."""

    def __init__(self, registers, quantum, dims, rows):
        self.registers = tuple(registers)
        self.quantum = tuple(quantum)
        self.dims = tuple(dims)
        self.rows = [(k, float(p), rho) for k, p, rho in rows if p > 0.0]

    def entropy(self, names) -> float:
        """H(S) as the entropy of the block-diagonal state: one unnormalised
        block sum_{rows in group} p rho_S per value of the classical part."""
        cl = [i for i, r in enumerate(self.registers) if r in names]
        qu = [i for i, r in enumerate(self.quantum) if r in names]
        blocks = {}
        for key, p, rho in self.rows:
            g = tuple(key[i] for i in cl)
            term = p * reduce_to(rho, self.dims, qu) if qu else p
            blocks[g] = blocks.get(g, 0.0) + term
        if not qu:
            return xlogx_sum(list(blocks.values()))
        return sum(xlogx_sum(np.linalg.eigvalsh(b)) for b in blocks.values())

    def cmi(self, a, b, c=()) -> float:
        """I(A;B|C), clamped at zero like a rate bound."""
        a, b, c = set(a), set(b), set(c)
        h_c = self.entropy(c) if c else 0.0
        v = self.entropy(a | c) + self.entropy(b | c) - self.entropy(a | b | c) - h_c
        return max(v, 0.0)


def _w(pd):
    return dict(zip(pd.symbols, (float(x) for x in pd.weights)))


def _rows_of(table):
    return {k: _w(v) for k, v in table.items()}


def _alphabet(table):
    return next(iter(table.values())).symbols


def _table(ch, names, keys, prob, inputs):
    rows = []
    for key in keys:
        s = dict(zip(names, key))
        rows.append((key, prob(s), ch.outputs[inputs(s)].entries))
    return CqTable(names, ch.output_names, ch.dims, rows)


def receivers(ch):
    names = ch.output_names
    return (names[0], names[0]) if len(names) == 1 else (names[0], names[1])


def cmg_table(ch, dist):
    p = dist.parts
    q, w1, w2 = _w(p["Q"]), _rows_of(p["W1|Q"]), _rows_of(p["W2|Q"])
    x1, x2 = _rows_of(p["X1|W1Q"]), _rows_of(p["X2|W2Q"])
    a1, a2 = ch.input_alphabets
    names = ("Q", "W1", "X1", "W2", "X2")
    keys = itertools.product(p["Q"].symbols, _alphabet(p["W1|Q"]), a1,
                             _alphabet(p["W2|Q"]), a2)
    return _table(
        ch, names, keys,
        lambda s: (q[s["Q"]] * w1[s["Q"]][s["W1"]] * x1[(s["W1"], s["Q"])][s["X1"]]
                   * w2[s["Q"]][s["W2"]] * x2[(s["W2"], s["Q"])][s["X2"]]),
        lambda s: (s["X1"], s["X2"]),
    )


def hk_table(ch, dist):
    p = dist.parts
    q = _w(p["Q"])
    parts = {n: _rows_of(p[n + "|Q"]) for n in ("U1", "U2", "W1", "W2")}
    f1, f2 = dist.maps["f1"], dist.maps["f2"]
    names = ("Q", "U1", "U2", "W1", "W2")
    keys = itertools.product(
        p["Q"].symbols, *(_alphabet(p[n + "|Q"]) for n in names[1:])
    )
    return _table(
        ch, names, keys,
        lambda s: q[s["Q"]] * math.prod(parts[n][s["Q"]][s[n]] for n in names[1:]),
        lambda s: (f1[(s["U1"], s["W1"])], f2[(s["U2"], s["W2"])]),
    )


def cts_table(ch, dist):
    p = dist.parts
    q, x1, x2 = _w(p["Q"]), _rows_of(p["X1|Q"]), _rows_of(p["X2|Q"])
    keys = itertools.product(p["Q"].symbols, *ch.input_alphabets)
    return _table(
        ch, ("Q", "X1", "X2"), keys,
        lambda s: q[s["Q"]] * x1[s["Q"]][s["X1"]] * x2[s["Q"]][s["X2"]],
        lambda s: (s["X1"], s["X2"]),
    )


def superposition_table(bc, dist):
    w, x = _w(dist.parts["W"]), _rows_of(dist.parts["X|W"])
    keys = itertools.product(dist.parts["W"].symbols, bc.input_alphabets[0])
    return _table(bc, ("W", "X"), keys, lambda s: w[s["W"]] * x[s["W"]][s["X"]],
                  lambda s: (s["X"],))


def marton_table(bc, dist):
    joint, f = _w(dist.parts["U1U2"]), dist.maps["f"]
    return _table(bc, ("U1", "U2"), joint, lambda s: joint[(s["U1"], s["U2"])],
                  lambda s: (f[(s["U1"], s["U2"])],))


def relay_table(rc, dist):
    joint = _w(dist.parts["UXX1"])
    return _table(rc, ("U", "X", "X1"), joint,
                  lambda s: joint[(s["U"], s["X"], s["X1"])],
                  lambda s: (s["X"], s["X1"]))


def cmg_infos(ch, dist) -> dict:
    t = cmg_table(ch, dist)
    b1, b2 = receivers(ch)
    return {
        "a1": t.cmi({"X1"}, {b1}, {"W1", "W2", "Q"}),
        "b1": t.cmi({"X1"}, {b1}, {"W2", "Q"}),
        "c1": t.cmi({"X1", "W2"}, {b1}, {"W1", "Q"}),
        "d1": t.cmi({"X1", "W2"}, {b1}, {"Q"}),
        "a2": t.cmi({"X2"}, {b2}, {"W1", "W2", "Q"}),
        "b2": t.cmi({"X2"}, {b2}, {"W1", "Q"}),
        "c2": t.cmi({"X2", "W1"}, {b2}, {"W2", "Q"}),
        "d2": t.cmi({"X2", "W1"}, {b2}, {"Q"}),
    }


def cmg_bounds(q) -> list:
    """The nine right-hand sides of the common-message region, in order."""
    return [
        q["b1"], q["a1"] + q["c2"], q["b2"], q["a2"] + q["c1"],
        q["d1"] + q["a2"], q["a1"] + q["d2"], q["c1"] + q["c2"],
        q["d1"] + q["a1"] + q["c2"], q["d2"] + q["a2"] + q["c1"],
    ]


def ordering_slacks(q, rx) -> list:
    a, b, c, d = (q[k + rx] for k in "abcd")
    return [b - a, d - b, c - a, d - c, b + c - a - d]


def hk_some_bounds(ch, dist) -> dict:
    """Rows 0, 2 and 6 of the Han-Kobayashi region."""
    t = hk_table(ch, dist)
    b1, b2 = receivers(ch)
    return {
        0: t.cmi({"U1", "W1"}, {b1}, {"W2", "Q"}),
        2: t.cmi({"U2", "W2"}, {b2}, {"W1", "Q"}),
        6: t.cmi({"U1", "W2"}, {b1}, {"W1", "Q"})
        + t.cmi({"U2", "W1"}, {b2}, {"W2", "Q"}),
    }


def vertices(rows, tol=1e-9):
    """Vertices of {c . R <= b, R >= 0} in the plane, by intersecting every
    pair of boundary lines and keeping the feasible points."""
    lines = [(np.asarray(c, float), float(b)) for c, b in rows]
    lines += [(np.array([-1.0, 0.0]), 0.0), (np.array([0.0, -1.0]), 0.0)]
    found = []
    for (c1, b1), (c2, b2) in itertools.combinations(lines, 2):
        m = np.array([c1, c2])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        pt = np.linalg.solve(m, [b1, b2])
        if all(float(c @ pt) <= b + tol for c, b in lines):
            if not any(np.max(np.abs(pt - v)) < 1e-7 for v in found):
                found.append(pt)
    return sorted(found, key=lambda v: (round(v[0], 7), round(v[1], 7)))


def same_vertices(rows_a, rows_b, tol=1e-7) -> bool:
    va, vb = vertices(rows_a), vertices(rows_b)
    return len(va) == len(vb) and all(
        np.max(np.abs(x - y)) <= tol for x, y in zip(va, vb)
    )


def radial_point(rows, theta):
    """Farthest point of a 2-D region along direction theta."""
    d = np.array([math.cos(theta), math.sin(theta)])
    t = min(b / float(np.dot(c, d)) for c, b in rows if float(np.dot(c, d)) > 1e-12)
    return t * d


def binary_channel_capacity(t) -> float:
    """Capacity of a two-input channel with rows t[0], t[1], by golden-section
    search of the (concave) mutual information over the input weight."""
    t = np.asarray(t, float)

    def info(p):
        out = p * t[0] + (1 - p) * t[1]
        return xlogx_sum(out) - p * xlogx_sum(t[0]) - (1 - p) * xlogx_sum(t[1])

    lo, hi = 0.0, 1.0
    g = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if info(m1) < info(m2):
            lo = m1
        else:
            hi = m2
    return info((lo + hi) / 2)


def bosonic_p2p_row(eta, ns, nb):
    """(hom, het, holevo) capacities of the lossy thermal channel."""
    base = (1 - eta) * nb
    return (
        0.5 * math.log2(1 + 4 * eta * ns / (2 * base + 1)),
        math.log2(1 + eta * ns / (base + 1)),
        g_thermal(eta * ns + base) - g_thermal(base),
    )


def bosonic_hk_joint_bounds(e11, e12, e21, e22, ns1, ns2, nb1, nb2, l1, l2):
    """The nine joint-detection rate-splitting bounds: each rate term is the
    thermal-entropy gain g(P + U + floor) - g(U + floor) at its receiver."""
    fl1 = max(0.0, 1 - e11 - e21) * nb1
    fl2 = max(0.0, 1 - e12 - e22) * nb2
    u1, u2 = l2 * e21 * ns2, l1 * e12 * ns1
    w1, w2 = (1 - l2) * e21 * ns2, (1 - l1) * e12 * ns1
    p1, p2 = e11 * ns1, e22 * ns2
    p1p, p2p = l1 * p1, l2 * p2

    def t1(p):
        return g_thermal(p + u1 + fl1) - g_thermal(u1 + fl1)

    def t2(p):
        return g_thermal(p + u2 + fl2) - g_thermal(u2 + fl2)

    return [
        t1(p1), t1(p1p) + t2(w2), t2(p2), t2(p2p) + t1(w1),
        t1(p1 + w1) + t2(p2p), t2(p2 + w2) + t1(p1p),
        t1(p1p + w1) + t2(p2p + w2),
        t1(p1 + w1) + t1(p1p) + t2(p2p + w2),
        t2(p2 + w2) + t2(p2p) + t1(p1p + w1),
    ]
