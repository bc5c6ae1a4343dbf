"""Dense reference for the square-root measurement and its diagnostics.

This is the algorithm ``codesim`` used before it worked from projector
columns: every detection operator P_m = P_avg C_m P_avg is a dense
d x d sandwich, the measurement is S^{-1/2} P_m S^{-1/2}, the exact
error is a trace of a product, and the diagnostic runs an M^2 loop of
dense traces.  Parity tests compare the column form against it.
"""

from functools import reduce

import numpy as np

from qnetcap.channels import Povm, SchemaError
from qnetcap.codesim import PINV_RELATIVE_CUTOFF, projector_set


def _word_state(ch, word):
    mats = [ch.output(x).entries for x in word]
    return reduce(np.kron, mats) if len(mats) > 1 else mats[0]


def _detection_operators(projs):
    pbar = projs.average
    return [pbar @ c @ pbar for c in projs.conditional]


def square_root_measurement(ch, codebook, delta, projs=None):
    if projs is None:
        projs = projector_set(ch, codebook, delta)
    ps = _detection_operators(projs)
    s = sum(ps)
    s = (s + s.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(s)
    top = float(evals[-1]) if len(evals) else 0.0
    cutoff = PINV_RELATIVE_CUTOFF * max(top, 0.0)
    keep = evals > cutoff
    inv_root = (evecs[:, keep] * evals[keep] ** -0.5) @ evecs[:, keep].conj().T
    lams = []
    for p in ps:
        lam = inv_root @ p @ inv_root
        lams.append((lam + lam.conj().T) / 2.0)
    info = {
        "s_rank": int(keep.sum()),
        "dim": s.shape[0],
        "pinv_cutoff": cutoff,
        "delta": projs.delta,
    }
    return Povm.complete(
        lams,
        labels=tuple(range(len(lams))),
        remainder_label="fail",
        info=info,
    )


def exact_error(ch, codebook, povm):
    if len(povm.elements) < codebook.M:
        raise SchemaError(
            f"POVM has {len(povm.elements)} outcomes for {codebook.M} messages"
        )
    errs = []
    for m, word in enumerate(codebook.codewords):
        rho = _word_state(ch, word)
        hit = float(np.trace(povm.elements[m] @ rho).real)
        errs.append(1.0 - hit)
    return float(np.clip(np.mean(errs), 0.0, 1.0))


def hn_diagnostic(ch, codebook, projs):
    ps = _detection_operators(projs)
    eye = np.eye(ps[0].shape[0], dtype=complex)
    vals = []
    for m, word in enumerate(codebook.codewords):
        rho = _word_state(ch, word)
        miss = float(np.trace((eye - ps[m]) @ rho).real)
        confuse = sum(
            float(np.trace(ps[k] @ rho).real)
            for k in range(codebook.M)
            if k != m
        )
        vals.append(2.0 * miss + 4.0 * confuse)
    return float(np.mean(vals))
