"""Per-trial reference for the classical typical-set decoder.

This is the algorithm ``classical_typical_decode_sim`` used before it was
vectorised: each trial draws its codebook with one ``rng.choice`` call and
each output symbol with another, then decodes that trial on its own.
Parity tests require the vectorised decoder to give the same tally.
"""

import numpy as np

from qnetcap.channels import SchemaError
from qnetcap.codesim import ClassicalDecodeResult, message_count
from qnetcap.entropic import ProbDist, shannon_entropy
from qnetcap.qstate import InvariantError


def classical_typical_decode_sim(transition, p, rate, n, delta, trials, seed=0):
    t = np.array(transition, dtype=float)
    if t.ndim != 2:
        raise SchemaError("transition must be a matrix")
    if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-10:
        raise InvariantError("transition rows must be probability vectors")
    if n < 1 or trials < 1 or rate < 0 or delta < 0:
        raise SchemaError("need n >= 1, trials >= 1, rate >= 0, delta >= 0")
    weights = np.asarray(p.weights, dtype=float)
    if len(weights) != t.shape[0]:
        raise SchemaError(f"prior has {len(weights)} symbols, transition {t.shape[0]} rows")
    out = weights @ t
    h_out = shannon_entropy(ProbDist(range(t.shape[1]), out))
    with np.errstate(divide="ignore"):
        log_t = np.log2(t)
        log_out = np.log2(out)
    h_rows = np.array(
        [shannon_entropy(ProbDist(range(t.shape[1]), row)) for row in t]
    )
    m_count = message_count(n, rate)
    rng = np.random.default_rng(seed)
    errors = atypical = none = multi = wrong = 0
    for _ in range(trials):
        cb = rng.choice(len(weights), size=(m_count, n), p=weights)
        xn = cb[0]
        yn = np.array([rng.choice(t.shape[1], p=t[x]) for x in xn])
        if abs(-log_out[yn].sum() / n - h_out) > delta:
            atypical += 1
            errors += 1
            continue
        sample = -log_t[cb, yn[None, :]].sum(axis=1) / n
        centers = h_rows[cb].mean(axis=1)
        with np.errstate(invalid="ignore"):
            matches = np.flatnonzero(np.abs(sample - centers) <= delta)
        if len(matches) != 1 or matches[0] != 0:
            errors += 1
        if len(matches) == 0:
            none += 1
        elif len(matches) > 1:
            multi += 1
        if np.any(matches != 0):
            wrong += 1
    return ClassicalDecodeResult(
        trials=trials,
        errors=errors,
        output_atypical=atypical,
        no_match=none,
        multi_match=multi,
        wrong_match=wrong,
    )
