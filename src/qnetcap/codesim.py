"""Exact small-blocklength simulation of block-coded quantum decoding.

Builds explicit n-fold typical and conditionally typical projectors, the
square-root measurement over a random codebook, and the exact average
error probability of that measurement.  There are no asymptotics here,
only exact numbers at desk scale.

Each typical projector is spanned by product eigenvectors, so the
decoder works from its orthonormal columns V (d x r, d = dim^n) rather
than from dense d x d products: the detection operators are
P_m = W_m W_m^dagger with W_m = P_avg V_m, and the square-root
measurement is Lambda_m = B_m B_m^dagger with B = S^{-1/2} W and
S = W W^dagger (the Gram form of Hausladen et al., PRA 54, 1869, 1996),
taken from the thin SVD of W, so S is never formed.  Hits
Tr[Lambda_m rho_m] and the operator-union diagnostic's Tr[P_k rho_m]
are read off the columns through per-letter state factors: each output
state is read as rho_x = F_x F_x^dagger with F_x its eigenvectors times
the square roots of its eigenvalues above EIG_CUTOFF (dim x r_x, from
the eigensolve the typical projectors already make; what the dropped
eigenvalues move is bounded at ``_column_weights``), and a column c
weighs ||(F_{x_1} (x) ... (x) F_{x_n})^dagger c||^2, applied one channel
use at a time, so a rank-1 output shrinks the work at every use and a
full-rank one costs what applying rho_x does.
``srm_error_sweep`` therefore forms no d x d operator:
no projector, S, POVM element or word state.  The columns are the data
of a ``ProjectorSet``; its dense d x d projectors are derived from them
on first read.  The measurement is an ``SrmPovm``: its factors B_m,
which certify its positivity in place of an eigensolve per element, and
the dense elements, likewise derived on first read.  ``exact_error``
scores only an ``SrmPovm``, reading each hit from its factors with the
sweep's own formula, and ``hn_diagnostic`` reads only columns, so
neither forms a d x d matrix.  A byte budget on the dense matrices that
reading every view would keep bounds n, and it also bounds the sweep,
so the sweep accepts exactly the codebooks whose dense measurement
could be built.  Each check runs once, at the entry point where its
input arrives.

One batched builder, ``_typical_columns``, makes every typical
projector's columns; ``srm_error_sweep`` diagonalises each input
letter's and the prior's mean output state once per sweep, and builds
one average projector per blocklength for every seed's codebook.

Conditional typicality is judged against the empirical conditional
entropy of the actual codeword, not the ensemble average: at n <= 10
the ensemble window is so loose that every sequence qualifies, and no
trend would be visible.  A classical Monte-Carlo decoder with the same
typicality rules serves as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropic import ProbDist, _entropy_bits, transition_matrix
from .errors import (EIG_CUTOFF, PINV_RELATIVE_CUTOFF, PROJECTOR_TOL, PSD_TOL, InvariantError,
                     SchemaError, whole_number)

# bytes of dense arrays one call may keep at once: complex d x d matrices
# for the quantum decoder, one trial's draws for the classical one
DENSE_BUDGET_BYTES = 2**30
COMPLEX_BYTES = 16
# bytes of draws the classical decoder works on per chunk of trials
CLASSICAL_CHUNK_BYTES = 2**19


def _check_budget(dim, n, mats):
    """Reject a call that would keep ``mats`` dense dim^n x dim^n matrices
    beyond the byte budget, before anything is allocated; else their bytes."""
    need = mats * COMPLEX_BYTES * dim ** (2 * n)
    if need > DENSE_BUDGET_BYTES:
        raise SchemaError(
            f"blocklength {n} over a dimension-{dim} output keeps {mats} dense "
            f"{dim}^{n} x {dim}^{n} matrices, {need / 2**30:.3g} GiB; "
            f"the budget is {DENSE_BUDGET_BYTES / 2**30:.3g} GiB"
        )
    return need


def _srm_matrices(m_count):
    """Dense matrices an SRM keeps once its views are read: the projector
    set's (average plus one per codeword) and the POVM's (one per
    codeword plus the remainder)."""
    return 2 * (m_count + 1)


def _check_blocklength(n):
    if not n >= 1:
        raise SchemaError(f"blocklength must be >= 1, got {n}")


def message_count(n, rate):
    """Codebook size for rate R >= 0 at blocklength n >= 1, never below one."""
    _check_blocklength(n)
    if not rate >= 0:
        raise SchemaError(f"rate must be >= 0, got {rate}")
    try:
        return max(1, round(2.0 ** (n * rate)))
    except OverflowError:
        raise SchemaError(
            f"rate {rate} at blocklength {n} asks for over 2^1024 codewords"
        ) from None


@dataclass(frozen=True)
class Codebook:
    """Block code: M codewords of length n over a channel input alphabet."""

    n: int
    codewords: tuple
    prior: object = None

    def __post_init__(self):
        _check_blocklength(self.n)
        words = tuple(tuple(str(s) for s in w) for w in self.codewords)
        if not words:
            raise SchemaError("codebook needs at least one codeword")
        for m, w in enumerate(words):
            if len(w) != self.n:
                raise SchemaError(
                    f"codeword {m} has length {len(w)}, blocklength is {self.n}"
                )
        object.__setattr__(self, "codewords", words)

    @property
    def M(self):
        return len(self.codewords)

    @classmethod
    def random(cls, alphabet, n, rate, seed, prior=None):
        """Draw M = max(1, round(2^{nR})) codewords i.i.d. from the prior.

        The same seed always reproduces the same codebook.
        """
        alphabet = tuple(str(s) for s in alphabet)
        prior = _draw_prior(alphabet, prior)
        rng = np.random.default_rng(seed)
        draws = rng.choice(len(alphabet), size=(message_count(n, rate), n),
                           p=prior.weights)
        words = tuple(tuple(alphabet[i] for i in row) for row in draws)
        return cls(n=n, codewords=words, prior=prior)


def _draw_prior(alphabet, prior):
    """``prior`` with its weights in ``alphabet``'s order, uniform when
    None; a SchemaError unless its symbols are those of ``alphabet``."""
    if prior is None:
        return ProbDist.uniform(alphabet)
    if set(prior.symbols) != set(alphabet):
        raise SchemaError("prior must be over the channel input alphabet")
    if prior.symbols == alphabet:
        return prior
    return ProbDist(alphabet, [prior.prob(x) for x in alphabet])


def _spectrum(entries):
    """Eigenvectors and log eigenvalues of a state's matrix, eigenvalues
    nonincreasing, its von Neumann entropy, and the adjoint of its factor,
    from one eigensolve.

    Only the eigenvalues above EIG_CUTOFF have finite logs, and only they
    enter the factor F = V sqrt(lambda), so rho = F F^dagger up to the
    dropped eigenvalues (see ``_column_weights``); it is returned as the
    contiguous r x dim array F^dagger.
    """
    vals, vecs = np.linalg.eigh(entries)
    entropy = float(_entropy_bits(vals, cutoff=EIG_CUTOFF))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > EIG_CUTOFF
    logs = np.full(len(vals), -np.inf)
    logs[keep] = np.log2(vals[keep])
    factor_h = np.ascontiguousarray((vecs[:, keep] * np.sqrt(vals[keep])).conj().T)
    return vecs, logs, entropy, factor_h


def _typical_columns(spectra, words, centers, delta):
    """Orthonormal columns of K typical projectors, built in one pass:
    block k is spanned by the product eigenvectors of word k whose
    per-sequence sample entropy sits within delta of ``centers[k]``.

    ``spectra`` are ``_spectrum`` results of states of one dimension and
    ``words`` a (K, n) integer array indexing them, position by position.
    The log weights are summed from the left, the order of an outer sum,
    and every (word, sequence) column comes from one n-step Kronecker
    recursion; a sequence with any zero-weight eigenvector is never
    typical.  A word whose every sequence is typical gets the standard
    basis, so its projector is exactly the identity.
    """
    k_count, n = words.shape
    dim = len(spectra[0][1])
    logs = np.array([s[1] for s in spectra])
    total = logs[words[:, 0]]
    for pos in range(1, n):
        total = (total[:, :, None] + logs[words[:, pos]][:, None, :]).reshape(k_count, -1)
    with np.errstate(invalid="ignore"):
        mask = np.abs(-total / n - np.asarray(centers)[:, None]) <= delta
    full = mask.all(axis=1)
    which, seq = np.nonzero(mask & ~full[:, None])
    digits = np.unravel_index(seq, (dim,) * n)
    bases = np.array([s[0] for s in spectra])
    cols = np.ones((len(seq), 1), dtype=complex)
    for pos in range(n):
        u = bases[words[which, pos], :, digits[pos]]
        cols = (cols[:, :, None] * u[:, None, :]).reshape(len(seq), dim ** (pos + 1))
    edges = np.searchsorted(which, np.arange(k_count + 1))
    return [np.eye(dim**n, dtype=complex) if full[k] else cols[edges[k]:edges[k + 1]].T
            for k in range(k_count)]


def _span_projector(v):
    """Dense projector V V^dagger onto orthonormal columns V."""
    if v.shape[1] == v.shape[0]:
        return np.eye(v.shape[0], dtype=complex)
    return v @ v.conj().T


def _check_delta(delta):
    if not (math.isfinite(delta) and delta >= 0):
        raise SchemaError(f"typicality width must be finite and >= 0, got {delta}")


def _check_decoder_args(ch, delta):
    ch.single_alphabet()
    _check_delta(delta)


def typical_projector(rho, n, delta):
    """Projector onto the delta-typical subspace of n copies of rho, the
    thesis's typical projector: rank at most 2^{n(H(rho)+delta)}, and
    weight Tr[P rho^{(x)n}] the chance that rho's spectrum draws a typical
    sequence.  Its columns come from the batched builder
    ``_typical_columns``, with one word."""
    _check_blocklength(n)
    _check_delta(delta)
    _check_budget(rho.dim, n, 1)
    spectrum = _spectrum(rho.entries)
    (cols,) = _typical_columns([spectrum], np.zeros((1, n), dtype=int), [spectrum[2]], delta)
    return _span_projector(cols)


def _symbol_spectra(ch, symbols):
    """``_spectrum`` of each symbol's output state, one eigensolve per
    distinct symbol."""
    return {x: _spectrum(ch.output(x).entries) for x in dict.fromkeys(symbols)}


def _codeword_spectra(ch, codebook):
    return _symbol_spectra(ch, (x for w in codebook.codewords for x in w))


def cond_typical_projector(ch, xn, delta):
    """Projector onto outputs typical for the given input word, the
    thesis's conditionally typical projector: rank at most
    2^{n(H(B|X=x^n)+delta)}, and it holds all of a pure output word.

    The typicality center is the empirical conditional entropy: the mean
    output entropy of the symbols actually appearing in ``xn``.  Its
    columns come from the batched builder ``_typical_columns``, with one
    word, after one eigensolve per distinct symbol.
    """
    word = tuple(str(s) for s in xn)
    _check_decoder_args(ch, delta)
    if not word:
        raise SchemaError("empty input word")
    _check_budget(ch.output_dim, len(word), 1)
    spectra = _symbol_spectra(ch, word)
    states = [spectra[x] for x in word]
    center = np.mean([s[2] for s in states])
    (cols,) = _typical_columns(states, np.arange(len(word))[None], [center], delta)
    return _span_projector(cols)


def _blocks(arrays, what):
    """Complex copies of ``arrays``, read-only, each a matrix with the row
    count of the first (SchemaError); block k is named ``what`` k."""
    blocks = tuple(np.array(a, dtype=complex) for a in arrays)
    rows = blocks[0].shape[:1] if blocks and blocks[0].ndim == 2 else None
    for k, b in enumerate(blocks):
        if b.ndim != 2 or b.shape[:1] != rows:
            raise SchemaError(f"{what} {k} has shape {b.shape}; every {what} needs "
                              "two axes and the same row count")
        b.setflags(write=False)
    return blocks


def _check_orthonormal(v, what):
    if np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])), initial=0.0) > PROJECTOR_TOL:
        raise InvariantError(f"{what} columns are not orthonormal")


@dataclass(frozen=True)
class ProjectorSet:
    """Average-output typical projector plus one conditional projector
    per codeword, all at the same typicality width, as orthonormal columns.

    ``average_columns`` is a d x r matrix V and ``columns`` one d x r_m
    matrix V_m per codeword; the decoder reads only these.  The
    constructor checks that every block has d rows (SchemaError) and
    orthonormal columns (InvariantError), so each V V^dagger is a
    projector.  The dense ``average`` and ``conditional`` projectors are
    derived from the columns on first read and kept, so a decoder that
    reads only columns forms no d x d matrix.  All arrays are read-only.
    """

    average_columns: np.ndarray
    columns: tuple

    def __post_init__(self):
        # block 0 is the average projector's, block m + 1 codeword m's
        avg, *cols = _blocks((self.average_columns, *self.columns), "projector block")
        _check_orthonormal(avg, "average projector")
        for m, v in enumerate(cols):
            _check_orthonormal(v, f"conditional projector {m}")
        object.__setattr__(self, "average_columns", avg)
        object.__setattr__(self, "columns", tuple(cols))

    @cached_property
    def average(self) -> np.ndarray:
        dense = _span_projector(self.average_columns)
        dense.setflags(write=False)
        return dense

    @cached_property
    def conditional(self) -> tuple:
        conds = tuple(_span_projector(v) for v in self.columns)
        for a in conds:
            a.setflags(write=False)
        return conds


def _codebook_frequencies(ch, codebook):
    """The codebook's prior, over the channel input alphabet, or else its symbol frequencies."""
    alphabet = ch.input_alphabets[0]
    if codebook.prior is not None:
        return _draw_prior(alphabet, codebook.prior)
    counts = {s: 0 for s in alphabet}
    for w in codebook.codewords:
        for s in w:
            counts[s] += 1
    total = codebook.n * codebook.M
    return ProbDist(alphabet, [counts[s] / total for s in alphabet])


def _mean_spectrum(ch, freq):
    return _spectrum(sum(freq.prob(x) * ch.output(x).entries for x in ch.input_alphabets[0]))


def _decoder_columns(codebooks, spectra, mean, delta):
    """Orthonormal columns of the average typical projector that codebooks
    of one blocklength share, and per codebook those of each codeword's
    conditional typical projector, from one ``_typical_columns`` pass.

    The average projector is that of the mean output state, whose
    ``_spectrum`` is ``mean``, centred on its own entropy; each
    codeword's is centred on the mean entropy of its symbols, given
    ``spectra`` of at least the codeword symbols.
    """
    states = [mean, *spectra.values()]
    index = {x: i for i, x in enumerate(spectra, 1)}
    words = np.array([[0] * codebooks[0].n]
                     + [[index[x] for x in w] for cb in codebooks for w in cb.codewords])
    entropies = np.array([s[2] for s in states])
    centers = np.concatenate([[mean[2]], np.mean(entropies[words[1:]], axis=1)])
    avg, *cols = _typical_columns(states, words, centers, delta)
    edges = np.cumsum([0] + [cb.M for cb in codebooks])
    return avg, [tuple(cols[a:b]) for a, b in zip(edges, edges[1:])]


def projector_set(ch, codebook, delta):
    """Build the decoder's projectors for a codebook, the average one from
    the mean output state under ``_codebook_frequencies``.  A codeword symbol
    the channel has no output for is a SchemaError from ``CqChannel.output``."""
    _check_decoder_args(ch, delta)
    _check_budget(ch.output_dim, codebook.n, codebook.M + 1)
    avg, (cols,) = _decoder_columns([codebook], _codeword_spectra(ch, codebook),
                                    _mean_spectrum(ch, _codebook_frequencies(ch, codebook)), delta)
    return ProjectorSet(avg, cols)


def _detection_columns(avg_cols, cols):
    """W = [W_1 ... W_M] with W_m = P_avg V_m, so the detection operator
    P_m = P_avg C_m P_avg equals W_m W_m^dagger; also the M + 1 block
    edges, W_m being columns edges[m] to edges[m + 1].  P_avg is applied
    through its columns, and not at all when it is the identity."""
    v = np.concatenate(cols, axis=1)
    if avg_cols.shape[1] < avg_cols.shape[0]:
        v = avg_cols @ (avg_cols.conj().T @ v)
    return v, np.cumsum([0] + [c.shape[1] for c in cols])


def _check_stage(ch, codebook, stage, kind, rule):
    """An SRM stage is a ``kind``, as ``rule`` says, with one block per message
    (a ProjectorSet's conditional projector columns or an SrmPovm's factors)
    acting on the output space of an n-letter word; else a SchemaError."""
    if not isinstance(stage, kind):
        raise SchemaError(f"{rule}, got {type(stage).__name__}")
    blocks, d, what = ((stage.factors, stage.dim, "factors") if kind is SrmPovm else
                       (stage.columns, stage.average_columns.shape[0], "conditional projectors"))
    if len(blocks) != codebook.M:
        raise SchemaError(f"{len(blocks)} {what} for {codebook.M} messages")
    want = ch.output_dim ** codebook.n
    if d != want:
        raise SchemaError(f"{what} act on dimension {d}, codewords on {want}")


def _srm_factors(w):
    """B = S^{-1/2} W with S = W W^dagger inverted on its support, from
    the thin SVD W = U Sigma X^dagger as B = U_keep X_keep^dagger; also
    the support rank and the cutoff.

    The support keeps sigma^2 above ``PINV_RELATIVE_CUTOFF`` times the
    largest sigma^2, the largest eigenvalue of S.  The SVD works on the
    smaller side of W, so neither the d x d S nor the Gram matrix
    W^dagger W is formed.
    """
    u, sigma, xh = np.linalg.svd(w, full_matrices=False)
    evals = sigma**2
    cutoff = PINV_RELATIVE_CUTOFF * float(evals[0]) if len(evals) else 0.0
    keep = evals > cutoff
    return u[:, keep] @ xh[keep], int(keep.sum()), cutoff


@dataclass(frozen=True)
class SrmPovm:
    """Square-root measurement: elements B_k B_k^dagger of d x r_k factors
    B_k, plus the remainder I - sum_k B_k B_k^dagger as the final
    (failure) outcome; ``info`` is a dict of construction diagnostics.

    Only the factors are checked (SchemaError unless each is a matrix
    with the row count of the first); they are kept, copied and
    read-only, as the ``factors`` tuple, so a caller can read
    Tr[E_k rho] as the sum over B_k's columns b of b^dagger rho b.  Each
    element (L + L^dagger)/2, with L = B_k B_k^dagger, is exactly
    Hermitian and the remainder makes the sum the identity, so no dense
    check could fail.  Positivity is certified from the factors instead
    of by an eigensolve per element: each B_k B_k^dagger is positive
    semidefinite, and the remainder's least eigenvalue is
    1 - lambda_max(B^dagger B) for B = [B_1 ... B_K], read from the
    smaller of B^dagger B and B B^dagger (InvariantError below PSD_TOL).

    The dense ``elements`` are built on first read and kept, read-only,
    straight from that formula: each is (L + L.conj().T) / 2.0 and the
    remainder is np.eye(d) - sum(elements).
    """

    factors: tuple
    info: dict

    def __post_init__(self):
        bs = _blocks(self.factors, "factor")
        if not bs:
            raise SchemaError("empty POVM")
        d = bs[0].shape[0]
        stack = np.concatenate(bs, axis=1)
        gram = stack.conj().T @ stack if stack.shape[1] < d else stack @ stack.conj().T
        low = 1.0 - float(np.linalg.eigvalsh(gram)[-1]) if len(gram) else 1.0
        if not low >= PSD_TOL:
            raise InvariantError(f"element {len(bs)} is not PSD: min eigenvalue {low:.3e}")
        object.__setattr__(self, "factors", bs)
        object.__setattr__(self, "info", dict(self.info))

    @cached_property
    def elements(self) -> tuple:
        # one unsymmetrized product L is alive at a time
        lams = tuple((lam + lam.conj().T) / 2.0 for lam in (b @ b.conj().T for b in self.factors))
        elements = (*lams, np.eye(self.dim) - sum(lams))
        for e in elements:
            e.setflags(write=False)
        return elements

    @property
    def dim(self) -> int:
        return self.factors[0].shape[0]


def square_root_measurement(ch, codebook, delta, projs=None):
    """Square-root (pretty good) measurement for the codebook.

    Each detection operator P_m = W_m W_m^dagger sandwiches the
    codeword's conditional projector between average projectors; the
    measurement normalizes them by S^{-1/2} on the support of
    S = sum P_m = W W^dagger, as Lambda_m = B_m B_m^dagger with
    B = S^{-1/2} W (see ``_srm_factors``), and appends the remainder as
    the final (failure) outcome.  It is returned as an ``SrmPovm`` of the
    factors B_m, which certify its positivity.  The support rank and
    pseudo-inverse cutoff are reported in its info dict, as ``s_rank``
    and ``pinv_cutoff``, so rank deficiency is visible rather than
    silently absorbed.  ``projs``, if given, must be this codebook's
    ``ProjectorSet`` (see ``_check_stage``).
    """
    _check_budget(ch.output_dim, codebook.n, _srm_matrices(codebook.M))
    if projs is None:
        projs = projector_set(ch, codebook, delta)
    _check_stage(ch, codebook, projs, ProjectorSet,
                 "square_root_measurement reads a ProjectorSet")
    w, edges = _detection_columns(projs.average_columns, projs.columns)
    b, rank, cutoff = _srm_factors(w)
    return SrmPovm(np.split(b, edges[1:-1], axis=1), {"s_rank": rank, "pinv_cutoff": cutoff})


def exact_error(ch, codebook, srm):
    """Average over messages of 1 - Tr[Lambda_m rho_{x^n(m)}], exactly, for
    the square-root measurement ``srm`` (an ``SrmPovm`` with one factor B_m
    per message; anything else is a SchemaError).

    Each hit is read from B_m as ``srm_error_sweep`` reads its own,
    through the letters' state factors (``_column_weights``), so no word
    state is formed.
    """
    _check_stage(ch, codebook, srm, SrmPovm, "exact_error scores an SrmPovm")
    return _factor_error(_codeword_spectra(ch, codebook), codebook.codewords, srm.factors)


def _mean_error(hits):
    return float(np.clip(np.mean([1.0 - h for h in hits]), 0.0, 1.0))


def _column_weights(spectra, word, cols):
    """<c| rho_word |c> = ||F_word^dagger c||^2 for each column c, where
    F_word = F_{x_1} (x) ... (x) F_{x_n} is the product of the letters'
    state factors from ``spectra`` (see ``_spectrum``).

    The factors are applied one channel use at a time, as one batched
    product: use i maps the axis of length dim that follows the i - 1
    axes already done to an axis of length r_{x_i}.  The batch is the
    product of the ranks so far, so over rank-1 letters each use is one
    1 x dim product, and over full-rank ones the work is that of
    applying rho_{x_i}.

    F_x F_x^dagger misses rho_x by the eigenvalues at or below
    EIG_CUTOFF, at most dim - 1 of them, each of size at most
    e = max(EIG_CUTOFF, -PSD_TOL).  So for 0 <= E <= I (a POVM element
    or detection operator) the hit Tr[E rho_word] read from E's columns
    is within about n (dim - 1) e of the dense trace: the mean error
    moves by at most that, the HN value, which sums 2 + 4 (M - 1) hits,
    by 4M - 2 times that, and both far less when the dropped
    eigenvalues are roundoff of 0.
    """
    k = cols.shape[1]
    if not k:
        return np.zeros(0)
    # a column block split off a wider array reshapes into a strided view
    # that matmul reads without BLAS, so its sums would round differently
    # from a copy's; every caller's block is read in the same layout
    out = np.ascontiguousarray(cols)
    done = 1
    for x in word:
        factor_h = spectra[x][3]
        out = np.matmul(factor_h, out.reshape(done, factor_h.shape[1], -1))
        done *= factor_h.shape[0]
    out = out.reshape(done, k)
    return np.einsum("ij,ij->j", out.conj(), out).real


def _factor_error(spectra, codewords, factors):
    """Mean error of the POVM B_m B_m^dagger: the hit Tr[Lambda_m rho_m]
    is the sum over B_m's columns of b^dagger rho_m b."""
    return _mean_error(
        _column_weights(spectra, word, b).sum() for word, b in zip(codewords, factors)
    )


def _hn_bound(ch, spectra, codewords, w, edges):
    """Mean of 2 Tr[(I - P_m) rho_m] + 4 sum_{k != m} Tr[P_k rho_m]: the
    weights of W's columns under rho_m summed over W_m's block give
    Tr[P_m rho_m], and the other blocks the sum over k != m."""
    traces = {x: np.trace(ch.output(x).entries).real for x in spectra}
    vals = []
    for m, word in enumerate(codewords):
        weights = _column_weights(spectra, word, w)
        own = weights[edges[m]:edges[m + 1]].sum()
        miss = math.prod(traces[x] for x in word) - own
        confuse = weights.sum() - own
        vals.append(2.0 * miss + 4.0 * confuse)
    return float(np.mean(vals))


def hn_diagnostic(ch, codebook, projs):
    """Average of 2 Tr[(I - P_m) rho_m] + 4 sum_{k != m} Tr[P_k rho_m].

    An operator-union bound on the square-root measurement's error,
    evaluated exactly.  It is a diagnostic column, often far above the
    exact error (and above 1) at these blocklengths.  Tr[P_k rho_m] is
    the sum over W_k's columns of w^dagger rho_m w.  ``projs`` must be the
    codebook's ``ProjectorSet`` (see ``_check_stage``).
    """
    _check_stage(ch, codebook, projs, ProjectorSet, "hn_diagnostic reads a ProjectorSet")
    w, edges = _detection_columns(projs.average_columns, projs.columns)
    return _hn_bound(ch, _codeword_spectra(ch, codebook), codebook.codewords, w, edges)


def srm_error_sweep(ch, rate, blocklengths, delta, seeds, prior=None):
    """Exact error and diagnostic rows over blocklengths and seeds.

    Returns (n, R, seed, delta, exact_error, hn_bound) tuples in sweep
    order, one per (blocklength, seed) pair; each blocklength and seed
    must be a whole number (SchemaError).  Each row comes from the
    projector columns alone: the hit Tr[Lambda_m rho_m] is the sum over
    B_m's columns of b^dagger rho_m b, so no projector, S, POVM element
    or word state is formed.

    All codebooks share the prior's mean output state, diagonalised once,
    and per blocklength its average projector: each ``_decoder_columns``
    pass serves as many seeds as the budget admits at one SRM's need.
    """
    _check_decoder_args(ch, delta)
    blocklengths = tuple(whole_number(n, "blocklength") for n in blocklengths)
    seeds = tuple(whole_number(s, "seed") for s in seeds)
    alphabet = ch.input_alphabets[0]
    prior = _draw_prior(alphabet, prior)
    # reject the whole sweep before computing anything
    need = {n: _check_budget(ch.output_dim, n, _srm_matrices(message_count(n, rate)))
            for n in blocklengths}
    spectra = _symbol_spectra(ch, alphabet)
    mean = _mean_spectrum(ch, prior)
    rows = []
    for n in blocklengths:
        group = DENSE_BUDGET_BYTES // need[n]
        for start in range(0, len(seeds), group):
            part = seeds[start:start + group]
            books = [Codebook.random(alphabet, n, rate, seed, prior) for seed in part]
            avg, col_sets = _decoder_columns(books, spectra, mean, delta)
            for seed, cb, cols in zip(part, books, col_sets):
                w, edges = _detection_columns(avg, cols)
                b, _, _ = _srm_factors(w)
                rows.append((n, rate, seed, delta,
                             _factor_error(spectra, cb.codewords, np.split(b, edges[1:-1], axis=1)),
                             _hn_bound(ch, spectra, cb.codewords, w, edges)))
    return rows


@dataclass(frozen=True)
class ClassicalDecodeResult:
    """Tally of a classical typical-set decoding run.

    ``wrong_match`` counts trials where some wrong codeword looked
    conditionally typical, whether or not the true one did.
    """

    trials: int
    errors: int
    output_atypical: int
    no_match: int
    multi_match: int
    wrong_match: int

    @property
    def error_rate(self):
        return self.errors / self.trials


def _trial_bytes(m_count, n, outputs):
    """Bytes one decoding trial keeps: per codebook symbol its uniform, its
    index and two gathered logs; per output symbol its uniform, its index
    and the row CDF it is compared against."""
    return 8 * (4 * m_count * n + (outputs + 2) * n)


def classical_typical_decode_sim(transition, p, rate, n, delta, trials, seed=0):
    """Monte-Carlo typical-set decoder over random classical codebooks.

    Each trial draws a fresh codebook i.i.d. from ``p``, sends message 0,
    samples the channel, and decodes: fail if the output sequence is not
    typical for the output marginal, otherwise accept a codeword exactly
    when the output is conditionally typical for it (empirical centers,
    same rule as the quantum decoder) and succeed only on a unique,
    correct match.

    Random stream: ``np.random.default_rng(seed)`` gives one uniform per
    draw, consumed trial by trial in order; within a trial the M x n
    codebook comes first (row-major), then the n output symbols.  Each
    uniform u picks the first symbol whose normalised cumulative
    probability exceeds u, as ``Generator.choice`` does, so the tally is
    the one a loop of ``rng.choice`` calls would give.  Trials run in
    chunks of about ``CLASSICAL_CHUNK_BYTES``; a codebook whose single
    trial would keep more than ``DENSE_BUDGET_BYTES`` is a SchemaError.
    """
    t = transition_matrix(transition)
    n = whole_number(n, "blocklength")
    trials = whole_number(trials, "trial count")
    if n < 1 or trials < 1:
        raise SchemaError(f"need n >= 1 and trials >= 1, got n={n}, trials={trials}")
    _check_delta(delta)
    weights = np.asarray(p.weights, dtype=float)
    if len(weights) != t.shape[0]:
        raise SchemaError(f"prior has {len(weights)} symbols, transition {t.shape[0]} rows")
    m_count = message_count(n, rate)
    per_trial = _trial_bytes(m_count, n, t.shape[1])
    if per_trial > DENSE_BUDGET_BYTES:
        raise SchemaError(
            f"rate {rate} at blocklength {n} gives {m_count} codewords; one trial "
            f"keeps {per_trial / 2**30:.3g} GiB, the budget is "
            f"{DENSE_BUDGET_BYTES / 2**30:.3g} GiB"
        )
    out = weights @ t
    h_out = float(_entropy_bits(out))
    h_rows = _entropy_bits(t)
    with np.errstate(divide="ignore"):
        log_t = np.log2(t)
        log_out = np.log2(out)
    prior_cdf = weights.cumsum()
    prior_cdf /= prior_cdf[-1]
    row_cdf = t.cumsum(axis=1)
    row_cdf /= row_cdf[:, -1:]
    words = m_count * n
    chunk = max(1, CLASSICAL_CHUNK_BYTES // per_trial)
    rng = np.random.default_rng(seed)
    errors = atypical = none = multi = wrong = 0
    for done in range(0, trials, chunk):
        k = min(chunk, trials - done)
        u = rng.random((k, words + n))
        cb = prior_cdf.searchsorted(u[:, :words], side="right").reshape(k, m_count, n)
        xn = cb[:, 0, :]
        yn = np.sum(row_cdf[xn] <= u[:, words:, None], axis=2)
        off = np.abs(-log_out[yn].sum(axis=1) / n - h_out) > delta
        sample = -log_t[cb, yn[:, None, :]].sum(axis=2) / n
        centers = h_rows[cb].mean(axis=2)
        with np.errstate(invalid="ignore"):
            matches = np.abs(sample - centers) <= delta
        count = matches.sum(axis=1)
        own = matches[:, 0]
        typical = ~off
        atypical += int(off.sum())
        errors += int(np.sum(off | (count != 1) | ~own))
        none += int(np.sum(typical & (count == 0)))
        multi += int(np.sum(typical & (count > 1)))
        wrong += int(np.sum(typical & (count > own)))
    return ClassicalDecodeResult(
        trials=trials,
        errors=errors,
        output_atypical=atypical,
        no_match=none,
        multi_match=multi,
        wrong_match=wrong,
    )
