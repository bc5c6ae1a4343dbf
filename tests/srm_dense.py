"""Dense reference for the square-root measurement and its diagnostics.

This is the algorithm ``codesim`` used before it worked from projector
columns: every detection operator P_m = P_avg C_m P_avg is a dense
d x d sandwich, the measurement is S^{-1/2} P_m S^{-1/2}, the exact
error is a dense trace Tr[Lambda_m rho_m], and the diagnostic runs an
M^2 loop of dense traces Tr[P_k rho_m].  Each trace of a product is
taken as an elementwise sum over the two dense matrices.  Parity tests
compare the column form against it.

It also keeps the per-word typical-projector column builder that
``codesim`` used before it built every word's columns in one batched
pass (``sequence_columns``, and the projectors' columns built with it
one word at a time), so the batched builder can be held to it byte for
byte.
"""

from functools import reduce

import numpy as np

from qnetcap.channels import Povm, SchemaError
from qnetcap.codesim import _codebook_frequencies, _spectrum, projector_set
from qnetcap.errors import PINV_RELATIVE_CUTOFF


def sequence_columns(bases, logs, n, dim, center, delta):
    """Orthonormal columns: the product eigenvectors whose per-sequence
    sample entropy sits within delta of the target value.

    ``bases[i]`` and ``logs[i]`` give position i's eigenvectors and log
    eigenvalues; a sequence with any zero-weight eigenvector is never
    typical.  When every sequence is typical the columns are the
    standard basis, so the projector is exactly the identity.
    """
    total = reduce(np.add.outer, logs).ravel() if n > 1 else logs[0]
    with np.errstate(invalid="ignore"):
        mask = np.abs(-total / n - center) <= delta
    full = dim**n
    if mask.all():
        return np.eye(full, dtype=complex)
    sel = np.flatnonzero(mask)
    if len(sel) == 0:
        return np.zeros((full, 0), dtype=complex)
    digits = np.stack(np.unravel_index(sel, (dim,) * n), axis=1)
    cols = np.ones((len(sel), 1), dtype=complex)
    for pos in range(n):
        u = bases[pos][:, digits[:, pos]].T
        cols = (cols[:, :, None] * u[:, None, :]).reshape(len(sel), -1)
    return cols.T


def typical_columns(entries, n, delta):
    vecs, logs, entropy, _ = _spectrum(entries)
    return sequence_columns([vecs] * n, [logs] * n, n, len(entries), entropy, delta)


def cond_typical_columns(ch, word, delta):
    """Centred on the mean output entropy of the word's symbols."""
    spectra = {x: _spectrum(ch.output(x).entries) for x in word}
    h_emp = float(np.mean([spectra[x][2] for x in word]))
    bases = [spectra[x][0] for x in word]
    logs = [spectra[x][1] for x in word]
    return sequence_columns(bases, logs, len(word), ch.output_dim, h_emp, delta)


def decoder_columns(ch, codebook, delta):
    """The average projector's columns, then each codeword's conditional
    projector's, one word at a time."""
    freq = _codebook_frequencies(ch, codebook)
    mean = sum(freq.prob(x) * ch.output(x).entries for x in ch.input_alphabets[0])
    return [typical_columns(mean, codebook.n, delta),
            *(cond_typical_columns(ch, w, delta) for w in codebook.codewords)]


def _word_state(ch, word):
    mats = [ch.output(x).entries for x in word]
    return reduce(np.kron, mats) if len(mats) > 1 else mats[0]


def _trace_product(rho, op):
    """Tr[op rho] for Hermitian rho as the elementwise sum vdot(rho, op):
    d^2 work where the matrix product costs d^3."""
    return float(np.vdot(rho, op).real)


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
    povm = Povm([*lams, np.eye(s.shape[0], dtype=complex) - sum(lams)])
    return povm, {"s_rank": int(keep.sum()), "pinv_cutoff": cutoff}


def exact_error(ch, codebook, povm):
    if len(povm.elements) < codebook.M:
        raise SchemaError(
            f"POVM has {len(povm.elements)} outcomes for {codebook.M} messages"
        )
    errs = []
    for m, word in enumerate(codebook.codewords):
        rho = _word_state(ch, word)
        hit = _trace_product(rho, povm.elements[m])
        errs.append(1.0 - hit)
    return float(np.clip(np.mean(errs), 0.0, 1.0))


def hn_diagnostic(ch, codebook, projs):
    ps = _detection_operators(projs)
    eye = np.eye(ps[0].shape[0], dtype=complex)
    vals = []
    for m, word in enumerate(codebook.codewords):
        rho = _word_state(ch, word)
        miss = _trace_product(rho, eye - ps[m])
        confuse = sum(
            _trace_product(rho, ps[k])
            for k in range(codebook.M)
            if k != m
        )
        vals.append(2.0 * miss + 4.0 * confuse)
    return float(np.mean(vals))
