"""Row-by-row reference for ``network.joint_state``.

This is the builder ``joint_state`` used before it gathered its rows from
arrays: rows nest the factors in sampling order as Python tuples, each
row's probability is ``math.prod`` of its register weights in register
order, and each row's output is looked up with ``CqChannel.output``.
Parity tests compare ``joint_state``'s rows against ``table``, and its
row groups against ``row_groups``, the row walk that grouped the rows of
a state before every state was a product grid.
"""

import math
import operator

import numpy as np


def registers(ch, dist) -> list:
    """(name, alphabet) pairs of ``dist``'s registers in register order; a
    register that is a channel input runs over the channel's alphabet."""
    alphabets = dict(dist.alphabets)
    for r, a in zip(dist.inputs, ch.input_alphabets):
        if isinstance(r, str):
            alphabets[r] = a
    return [(r, alphabets[r]) for r in dist.registers.split()]


def table(ch, dist) -> dict:
    """Register symbol tuple -> (probability, channel output), in sampling
    order."""
    alphabets = dict(registers(ch, dist))
    drawn, rows = [], [((), ())]  # (symbols, weights) in sampling order
    for key, regs, given in dist.factors:
        regs, at = regs.split(), [drawn.index(g) for g in given.split()]
        pds = dist.parts[key] if at else {(): dist.parts[key]}
        if len(regs) > 1:
            choices = {c: [(s, (float(w),) + (1.0,) * (len(s) - 1)) for s, w in pd.items()]
                       for c, pd in pds.items()}
        else:
            choices = {c: [((s,), (pd.prob(s),)) for s in alphabets[regs[0]]]
                       for c, pd in pds.items()}
        # conditional parts are keyed by one symbol, or a tuple of several
        pick = operator.itemgetter(*at) if at else (lambda symbols: ())
        rows = [(s + cs, w + cw) for s, w in rows for cs, cw in choices[pick(s)]]
        drawn += regs
    names = dist.registers.split()
    if drawn != names:
        arrange = operator.itemgetter(*map(drawn.index, names))
        rows = [(arrange(s), arrange(w)) for s, w in rows]
    reads = [(None, operator.itemgetter(names.index(r))) if isinstance(r, str) else
             (dist.maps[r[0]], operator.itemgetter(*map(names.index, r[1].split())))
             for r in dist.inputs]
    return {s: (math.prod(w), ch.output(*[get(s) if f is None else f[get(s)]
                                          for f, get in reads]))
            for s, w in rows}


def row_groups(codes, key):
    """Rows grouped by their symbol indices ``codes`` (rows, registers) on
    the registers ``key``: a (groups, members) array of row indices, groups
    in order of first appearance and members in row order."""
    groups: dict[tuple, list] = {}
    for row, code in enumerate(codes[:, list(key)].tolist()):
        groups.setdefault(tuple(code), []).append(row)
    return np.array(list(groups.values()), dtype=np.intp)
