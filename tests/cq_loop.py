"""Row-by-row reference for entropies of labeled cq states.

This is the algorithm ``LabeledCqState.entropy`` used before it was
stacked: rows with positive probability are grouped by their classical
symbols, each group's block is summed one row at a time from validated
partial traces, and each group gets its own eigensolve.  Parity tests
compare the stacked kernel against it.
"""

import numpy as np

from qnetcap.qstate import partial_trace


def loop_entropy(registers, table, quantum_names, names) -> float:
    names = set(names)
    classical = [i for i, (n, _) in enumerate(registers) if n in names]
    keep = [i for i, n in enumerate(quantum_names) if n in names]
    groups = {}
    for key, (p, rho) in table.items():
        if p > 0:
            groups.setdefault(tuple(key[i] for i in classical), []).append((p, rho))
    h = 0.0
    for members in groups.values():
        pc = sum(p for p, _ in members)
        h -= pc * np.log2(pc)
        if keep:
            block = sum(p * partial_trace(rho, keep).entries for p, rho in members)
            lam = np.linalg.eigvalsh(block / pc)
            lam = lam[lam > 1e-12]
            h -= pc * float(np.sum(lam * np.log2(lam)))
    return float(h)


def loop_cmi(registers, table, quantum_names, a, b, c=()) -> float:
    """I(A;B|C) from four ``loop_entropy`` calls."""
    a, b, c = set(a), set(b), set(c)

    def h(names):
        return loop_entropy(registers, table, quantum_names, names) if names else 0.0

    return h(a | c) + h(b | c) - h(a | b | c) - h(c)
