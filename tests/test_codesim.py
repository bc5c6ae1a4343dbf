import itertools
import math
import tracemalloc
from functools import reduce

import classical_loop
import numpy as np
import pytest
import scipy.linalg as sla
import srm_dense

from qnetcap.channels import CqChannel, Povm, SchemaError, builtin, induced_classical_channel
from qnetcap.codesim import (
    CLASSICAL_CHUNK_BYTES,
    Codebook,
    ProjectorSet,
    SrmPovm,
    classical_typical_decode_sim,
    cond_typical_projector,
    exact_error,
    hn_diagnostic,
    message_count,
    projector_set,
    square_root_measurement,
    srm_error_sweep,
    _trial_bytes,
    typical_projector,
)
from qnetcap.entropic import ProbDist, binary_entropy, von_neumann_entropy
from qnetcap.network import classical_capacity_BA
from qnetcap.qstate import DensityMatrix, InvariantError, pure_state

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def diag_state(*probs):
    return DensityMatrix(np.diag(probs).astype(complex), (len(probs),))


def mixed_channel():
    return CqChannel(
        (("a", "b"),),
        {("a",): diag_state(0.9, 0.1), ("b",): diag_state(0.5, 0.5)},
    )


class TestCodebook:
    def test_random_reproducible(self):
        a = Codebook.random(("0", "1"), 5, 0.4, seed=7)
        b = Codebook.random(("0", "1"), 5, 0.4, seed=7)
        c = Codebook.random(("0", "1"), 5, 0.4, seed=8)
        assert a.codewords == b.codewords
        assert a.codewords != c.codewords
        assert a.M == message_count(5, 0.4) == 4

    def test_rate_zero_single_message(self):
        cb = Codebook.random(("0", "1"), 4, 0.0, seed=1)
        assert cb.M == 1

    def test_validation(self):
        with pytest.raises(SchemaError, match="rate"):
            Codebook.random(("0", "1"), 4, -0.3, seed=0)
        with pytest.raises(SchemaError):
            Codebook(n=3, codewords=())
        with pytest.raises(SchemaError):
            Codebook(n=3, codewords=(("0", "1"),))
        with pytest.raises(SchemaError):
            Codebook.random(
                ("0", "1"), 3, 0.5, seed=0, prior=ProbDist(("x", "y"), [0.5, 0.5])
            )

    @pytest.mark.parametrize("prior", [ProbDist(("a", "b"), [0.5, 0.5]),
                                       ProbDist(("0", "1", "2"), [0.4, 0.4, 0.2])],
                             ids=["other symbols", "extra symbol"])
    def test_prior_over_other_symbols_meets_the_channel(self, prior):
        # a bare ValueError from ProbDist.prob, or an average projector of a
        # "mean state" of trace 0.8
        cb = Codebook(n=2, codewords=(("0", "1"), ("1", "0")), prior=prior)
        for build in (projector_set, square_root_measurement):
            with pytest.raises(SchemaError, match="prior must be over the channel input alphabet"):
                build(builtin("bb84_p2p"), cb, 0.4)

    def test_prior_in_another_order_is_the_same_prior(self):
        ch = builtin("bb84_p2p")
        words = (("0", "1"), ("1", "1"))
        ordered = Codebook(n=2, codewords=words, prior=ProbDist(("0", "1"), [0.3, 0.7]))
        swapped = Codebook(n=2, codewords=words, prior=ProbDist(("1", "0"), [0.7, 0.3]))
        a, b = projector_set(ch, ordered, 0.4), projector_set(ch, swapped, 0.4)
        assert np.array_equal(a.average_columns, b.average_columns)

    def test_drawing_under_a_prior_in_another_order(self):
        ch = builtin("bb84_p2p")
        ordered, swapped = ProbDist(("0", "1"), [0.3, 0.7]), ProbDist(("1", "0"), [0.7, 0.3])
        for seed in range(4):
            a = Codebook.random(("0", "1"), 5, 0.6, seed, prior=ordered)
            b = Codebook.random(("0", "1"), 5, 0.6, seed, prior=swapped)
            assert a.codewords == b.codewords
            assert b.prior.symbols == ("0", "1") and list(b.prior.weights) == [0.3, 0.7]
        sweep = (ch, 0.3, (2, 4), 0.4, (0, 1, 2))
        assert repr(srm_error_sweep(*sweep, prior=swapped)) == repr(
            srm_error_sweep(*sweep, prior=ordered))

    def test_drawing_under_a_prior_over_other_symbols(self):
        prior = ProbDist(("0", "2"), [0.5, 0.5])
        with pytest.raises(SchemaError, match="prior must be over the channel input alphabet"):
            Codebook.random(("0", "1"), 3, 0.5, seed=0, prior=prior)
        with pytest.raises(SchemaError, match="prior must be over the channel input alphabet"):
            srm_error_sweep(builtin("bb84_p2p"), 0.3, (2,), 0.4, (0,), prior=prior)


class TestTypicalProjector:
    def test_pure_state_rank_one(self):
        rho = pure_state(KET_PLUS)
        proj = typical_projector(rho, 3, 0.1)
        assert np.isclose(np.trace(proj).real, 1.0, atol=1e-12)
        rho3 = reduce(np.kron, [rho.entries] * 3)
        assert np.isclose(np.trace(proj @ rho3).real, 1.0, atol=1e-12)

    def test_maximally_mixed_identity(self):
        proj = typical_projector(diag_state(0.5, 0.5), 4, 0.1)
        assert np.array_equal(proj, np.eye(16))

    @pytest.mark.parametrize("delta", [0.2, 0.25, 0.35, 0.6])
    def test_binomial_tail_oracle(self, delta):
        rho = diag_state(0.9, 0.1)
        n = 6
        proj = typical_projector(rho, n, delta)
        rho_n = reduce(np.kron, [rho.entries] * n)
        weight = float(np.trace(proj @ rho_n).real)
        h = binary_entropy(0.1)
        expect = 0.0
        for k in range(n + 1):
            seq_p = 0.9 ** (n - k) * 0.1**k
            if abs(-math.log2(seq_p) / n - h) <= delta:
                expect += math.comb(n, k) * seq_p
        assert np.isclose(weight, expect, atol=1e-10)
        if delta == 0.2:
            # the entropy window falls between lattice points here
            assert weight == 0.0
        else:
            assert weight > 0.3

    def test_support_weight_trend(self):
        # Per-draw weights are lattice-quantized at these blocklengths and
        # can dip; the approach toward full weight shows in the ensemble
        # mean. Each draw is still pinned to the combinatorial oracle.
        rng = np.random.default_rng(3)
        ps = [float(max(rng.dirichlet([2, 2]))) for _ in range(40)]
        sums = {n: 0.0 for n in (2, 4, 6, 8)}
        for p in ps:
            rho = diag_state(p, 1.0 - p)
            h = binary_entropy(p)
            for n in sums:
                proj = typical_projector(rho, n, 0.4)
                rho_n = reduce(np.kron, [rho.entries] * n)
                weight = float(np.trace(proj @ rho_n).real)
                expect = sum(
                    math.comb(n, k) * p ** (n - k) * (1.0 - p) ** k
                    for k in range(n + 1)
                    if abs(
                        -math.log2(p ** (n - k) * (1.0 - p) ** k) / n - h
                    )
                    <= 0.4
                )
                assert np.isclose(weight, expect, atol=1e-10)
                sums[n] += weight
        means = [sums[n] / len(ps) for n in (2, 4, 6, 8)]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[-1] >= 0.9

    @pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf])
    def test_width_must_be_finite_and_nonnegative(self, delta):
        with pytest.raises(SchemaError, match="typicality width"):
            typical_projector(diag_state(0.5, 0.5), 4, delta)
        with pytest.raises(SchemaError, match="typicality width"):
            srm_error_sweep(builtin("bb84_p2p"), 0.3, [4], delta, [0])

    def test_budget_enforced(self):
        with pytest.raises(SchemaError):
            typical_projector(diag_state(0.5, 0.5), 15, 0.1)
        with pytest.raises(SchemaError):
            typical_projector(diag_state(0.25, 0.25, 0.25, 0.25), 8, 0.1)

    def test_budget_counts_every_matrix(self):
        # one 2^13 x 2^13 complex matrix is 1 GiB; a projector set keeps
        # M + 1 of them, so it is rejected before anything is allocated
        cb = Codebook(n=13, codewords=(("0",) * 13,))
        with pytest.raises(SchemaError, match="budget"):
            projector_set(builtin("bb84_p2p"), cb, 0.4)

    def test_projector_is_projector(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real, (2,))
        proj = typical_projector(rho, 4, 0.3)
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-8


class TestCondTypicalProjector:
    def test_pure_outputs_rank_one(self):
        ch = builtin("bb84_p2p")
        word = ("0", "1", "1", "0")
        proj = cond_typical_projector(ch, word, 0.4)
        assert np.isclose(np.trace(proj).real, 1.0, atol=1e-12)
        out = reduce(np.kron, [ch.output(x).entries for x in word])
        assert np.allclose(proj @ out, out, atol=1e-12)

    def test_constant_word_matches_typical(self):
        ch = mixed_channel()
        word = ("a",) * 4
        cond = cond_typical_projector(ch, word, 0.25)
        plain = typical_projector(ch.output("a"), 4, 0.25)
        assert np.allclose(cond, plain, atol=1e-12)

    def test_rank_bound_exact(self):
        ch = mixed_channel()
        rng = np.random.default_rng(19)
        for _ in range(10):
            word = tuple(rng.choice(["a", "b"], size=6))
            delta = float(rng.uniform(0.05, 0.5))
            proj = cond_typical_projector(ch, word, delta)
            count = int(round(np.trace(proj).real))
            h_emp = float(
                np.mean([von_neumann_entropy(ch.output(x)) for x in word])
            )
            assert count <= 2.0 ** (6 * (h_emp + delta)) + 1e-9

    def test_two_input_channel_rejected(self):
        with pytest.raises(SchemaError):
            cond_typical_projector(builtin("bb84_qmac"), ("0", "1"), 0.3)


class TestProjectorSet:
    def test_rejects_non_projector(self):
        # columns that are not orthonormal span no projector V V^dagger
        eye = np.eye(4, dtype=complex)
        skew = np.stack([eye[:, 0], (eye[:, 0] + eye[:, 1]) / np.sqrt(2)], axis=1)
        for avg, cols in [(eye, (2.0 * eye,)), (eye, (skew,)), (eye[:, :2] * 0.5, ())]:
            with pytest.raises(InvariantError, match="not orthonormal"):
                ProjectorSet(avg, cols)

    def test_shape_mismatch(self):
        eye4, eye8 = np.eye(4), np.eye(8)
        with pytest.raises(SchemaError):
            ProjectorSet(eye4, (eye8[:, :2],))
        with pytest.raises(SchemaError):
            ProjectorSet(eye4, (eye4, eye4[0]))
        with pytest.raises(SchemaError):
            ProjectorSet(eye4[0], ())

    def test_dense_projectors_derived_from_columns(self):
        eye = np.eye(4, dtype=complex)
        v = np.stack([eye[:, 0], (eye[:, 1] + 1j * eye[:, 2]) / np.sqrt(2)], axis=1)
        projs = ProjectorSet(eye, (v, eye[:, :0]))
        assert np.array_equal(projs.average, eye)
        assert np.array_equal(projs.conditional[0], v @ v.conj().T)
        assert not projs.conditional[1].any() and projs.conditional[1].shape == (4, 4)
        arrays = (projs.average_columns, projs.average) + projs.columns + projs.conditional
        assert not any(a.flags.writeable for a in arrays)

    def test_projector_set_round_trips_its_columns(self):
        ch = mixed_channel()
        cb = Codebook.random(("a", "b"), 6, 0.6, seed=3)
        projs = projector_set(ch, cb, 0.3)
        again = ProjectorSet(projs.average_columns, projs.columns)
        assert np.array_equal(again.average, projs.average)
        for a, b in zip(again.conditional, projs.conditional, strict=True):
            assert np.array_equal(a, b)

    def test_entry_points_check_arguments(self):
        ch = mixed_channel()
        cb = Codebook.random(("a", "b"), 3, 0.6, seed=0)
        for delta in (math.nan, -0.1, math.inf):
            with pytest.raises(SchemaError):
                projector_set(ch, cb, delta)
            with pytest.raises(SchemaError):
                srm_error_sweep(ch, 0.6, (3,), delta, (0,))
            with pytest.raises(SchemaError):
                cond_typical_projector(ch, ("a", "b"), delta)
        with pytest.raises(SchemaError, match=r"no output for input \('z',\)"):
            projector_set(ch, Codebook(n=2, codewords=(("a", "z"),)), 0.3)
        with pytest.raises(SchemaError):
            projector_set(builtin("bb84_qmac"), cb, 0.3)
        with pytest.raises(SchemaError):
            srm_error_sweep(builtin("bb84_qmac"), 0.6, (3,), 0.3, (0,))

    def test_zero_blocklength_rejected(self):
        ch = mixed_channel()
        with pytest.raises(SchemaError, match="blocklength"):
            Codebook(n=0, codewords=((),))
        with pytest.raises(SchemaError, match="blocklength"):
            srm_error_sweep(ch, 0.3, (2, 0), 0.4, (0,))
        with pytest.raises(SchemaError, match="blocklength"):
            typical_projector(ch.output("a"), 0, 0.4)


class TestSquareRootMeasurement:
    def test_single_message_support_projector(self):
        ch = builtin("bb84_p2p")
        cb = Codebook(n=3, codewords=(("0", "1", "0"),))
        povm = square_root_measurement(ch, cb, 0.4)
        lam = povm.elements[0]
        assert np.max(np.abs(lam @ lam - lam)) <= 1e-8
        projs = projector_set(ch, cb, 0.4)
        p0 = projs.average @ projs.conditional[0] @ projs.average
        rho = reduce(np.kron, [ch.output(x).entries for x in ("0", "1", "0")])
        err = exact_error(ch, cb, povm)
        assert err <= 1.0 - float(np.trace(p0 @ rho).real) + 1e-9

    def test_orthogonal_codewords_perfect(self):
        ch = CqChannel(
            (("a", "b"),), {("a",): pure_state(KET0), ("b",): pure_state(KET1)}
        )
        cb = Codebook(n=2, codewords=(("a", "a"), ("b", "b")))
        povm = square_root_measurement(ch, cb, 0.5)
        assert exact_error(ch, cb, povm) <= 1e-10

    def test_matches_independent_construction(self):
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.25, seed=5)
        assert cb.M == 2
        delta = 0.4
        povm = square_root_measurement(ch, cb, delta)

        # second path: brute-force typicality enumeration, scipy sqrtm
        def brute_cond(word):
            bases, logs = [], []
            for x in word:
                evals, evecs = np.linalg.eigh(ch.output(x).entries)
                bases.append(evecs)
                logs.append(
                    [math.log2(v) if v > 1e-12 else -math.inf for v in evals]
                )
            h = float(
                np.mean([von_neumann_entropy(ch.output(x)) for x in word])
            )
            proj = np.zeros((16, 16), dtype=complex)
            for seq in itertools.product(range(2), repeat=4):
                lp = sum(logs[i][s] for i, s in enumerate(seq))
                if abs(-lp / 4 - h) <= delta:
                    col = reduce(
                        np.kron, [bases[i][:, s] for i, s in enumerate(seq)]
                    )
                    proj += np.outer(col, col.conj())
            return proj

        mean = sum(0.5 * ch.output(x).entries for x in ("0", "1"))
        evals, evecs = np.linalg.eigh(mean)
        h_bar = float(-sum(v * math.log2(v) for v in evals if v > 1e-12))
        pbar = np.zeros((16, 16), dtype=complex)
        for seq in itertools.product(range(2), repeat=4):
            lp = sum(math.log2(evals[s]) for s in seq)
            if abs(-lp / 4 - h_bar) <= delta:
                col = reduce(np.kron, [evecs[:, s] for s in seq])
                pbar += np.outer(col, col.conj())
        ps = [pbar @ brute_cond(w) @ pbar for w in cb.codewords]
        s = sum(ps)
        # QR-iteration eigensolver, a different code path from the
        # divide-and-conquer driver used by the implementation
        w_s, v_s = sla.eigh(s, driver="ev")
        keep = w_s > 1e-8
        inv_root = (v_s[:, keep] * w_s[keep] ** -0.5) @ v_s[:, keep].conj().T
        errs = [
            1.0
            - float(
                np.trace(
                    inv_root
                    @ ps[m]
                    @ inv_root
                    @ reduce(np.kron, [ch.output(x).entries for x in w])
                ).real
            )
            for m, w in enumerate(cb.codewords)
        ]
        assert np.isclose(exact_error(ch, cb, povm), np.mean(errs), atol=1e-10)

    def test_rank_reported(self):
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.25, seed=5)
        povm = square_root_measurement(ch, cb, 0.4)
        assert 0 < povm.info["s_rank"] <= 16
        assert len(povm.elements) == cb.M + 1

    def test_diagnostic_needs_one_projector_per_message(self):
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.5, seed=9)
        fewer = Codebook(n=4, codewords=cb.codewords[:-1])
        with pytest.raises(SchemaError):
            hn_diagnostic(ch, cb, projector_set(ch, fewer, 0.4))

    def test_stages_reject_another_codebooks_projectors(self):
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.6, seed=1)
        assert cb.M == 5
        first3 = projector_set(ch, Codebook(n=4, codewords=cb.codewords[:3]), 0.4)
        with pytest.raises(SchemaError, match="3 conditional projectors for 5 messages"):
            square_root_measurement(ch, cb, 0.4, projs=first3)
        # five 2-letter codewords on the 4-letter codebook's projectors
        short = Codebook(n=2, codewords=tuple(w[:2] for w in cb.codewords))
        projs = projector_set(ch, cb, 0.4)
        with pytest.raises(SchemaError, match="dimension 16, codewords on 4"):
            hn_diagnostic(ch, short, projs)
        with pytest.raises(SchemaError, match="dimension 16, codewords on 4"):
            square_root_measurement(ch, short, 0.4, projs=projs)

    def test_stages_reject_the_wrong_stage_type(self):
        # an SrmPovm where projectors belong once raised an AttributeError
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.6, seed=1)
        povm = square_root_measurement(ch, cb, 0.4)
        with pytest.raises(SchemaError, match="^hn_diagnostic reads a ProjectorSet, got SrmPovm$"):
            hn_diagnostic(ch, cb, povm)
        with pytest.raises(SchemaError, match="^square_root_measurement reads a ProjectorSet, "
                                              "got SrmPovm$"):
            square_root_measurement(ch, cb, 0.4, projs=povm)
        with pytest.raises(SchemaError, match="^exact_error scores an SrmPovm, got ProjectorSet$"):
            exact_error(ch, cb, projector_set(ch, cb, 0.4))

    def test_relabeling_invariance(self):
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.5, seed=9)
        flipped = Codebook(
            n=4, codewords=tuple(reversed(cb.codewords)), prior=cb.prior
        )
        e1 = exact_error(ch, cb, square_root_measurement(ch, cb, 0.4))
        e2 = exact_error(ch, flipped, square_root_measurement(ch, flipped, 0.4))
        assert np.isclose(e1, e2, atol=1e-10)


class TestFactorPovm:
    @staticmethod
    def srm_factors():
        ch = mixed_channel()
        cb = Codebook.random(("a", "b"), 5, 0.6, seed=2)
        projs = projector_set(ch, cb, 0.4)
        povm = square_root_measurement(ch, cb, 0.4, projs=projs)
        # B_m B_m^dagger = Lambda_m for B_m = Lambda_m^{1/2} restricted
        # to its range
        factors = []
        for lam in povm.elements[:-1]:
            evals, evecs = np.linalg.eigh(lam)
            keep = evals > 1e-12
            factors.append(evecs[:, keep] * np.sqrt(evals[keep]))
        return povm, factors

    def test_matches_dense_elements(self):
        povm, factors = self.srm_factors()
        rebuilt = SrmPovm(factors, povm.info)
        for a, b in zip(rebuilt.elements, povm.elements, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_rejects_scaled_factor_like_dense_check(self):
        povm, factors = self.srm_factors()
        m = max(range(len(factors)), key=lambda k: factors[k].shape[1])
        factors[m] = 1.01 * factors[m]
        with pytest.raises(InvariantError, match="eigenvalue"):
            SrmPovm(factors, povm.info)
        scaled = list(povm.elements[:-1])
        scaled[m] = 1.01**2 * scaled[m]
        with pytest.raises(InvariantError, match="eigenvalue"):
            Povm([*scaled, np.eye(povm.dim) - sum(scaled)])

    def test_elements_exactly_hermitian_and_complete(self):
        # the seeded SRM and a POVM rebuilt from other factors of its
        # elements; SrmPovm checks neither property on the dense side
        srm, factors = self.srm_factors()
        for povm in (srm, SrmPovm(factors, srm.info)):
            for e in povm.elements:
                assert np.array_equal(e, e.conj().T)
                assert not e.flags.writeable
                assert e.base is None or not e.base.flags.writeable
            assert np.max(np.abs(sum(povm.elements) - np.eye(povm.dim))) <= 1e-14

    @pytest.mark.parametrize("ch, n, seed, width", [(builtin("bb84_p2p"), 8, 1, 1),
                                                    (mixed_channel(), 6, 3, 32),
                                                    (mixed_channel(), 7, 1, 96)])
    def test_elements_have_the_bytes_of_the_formula(self, ch, n, seed, width):
        # the perfbench stage codebook, whose factors are single columns,
        # and mixed ones with wider factors; the order of the sums is part
        # of the bytes, and at n = 7 so is the sign of zeros that halving
        # by `* 0.5` instead of `/ 2.0` would keep
        cb = Codebook.random(ch.single_alphabet(), n, 0.6, seed=seed)
        povm = square_root_measurement(ch, cb, 0.4)
        assert max(b.shape[1] for b in povm.factors) == width
        lams = [(lam + lam.conj().T) / 2.0 for lam in (b @ b.conj().T for b in povm.factors)]
        want = (*lams, np.eye(povm.dim, dtype=complex) - sum(lams))
        assert len(povm.elements) == len(want) == cb.M + 1
        for got, ref in zip(povm.elements, want):
            assert got.tobytes() == ref.tobytes()

    def test_shape_checks(self):
        # a scalar factor has no row count to compare the others with
        for factors in ([], [np.eye(4)[:, :2], np.eye(2)], [1.0], [np.ones(4)],
                        [np.eye(2), np.ones((2, 2, 1))]):
            with pytest.raises(SchemaError, match="empty POVM|factor"):
                SrmPovm(factors, {})

    def test_appends_remainder(self):
        povm = SrmPovm([np.diag([0.5, 0.5])], {})
        assert len(povm.elements) == 2
        assert np.allclose(povm.elements[1], np.diag([0.75, 0.75]))

    def test_does_not_alias_caller_arrays(self):
        factor = np.diag([0.5, 0.5]).astype(complex)
        info = {"s_rank": 2}
        povm = SrmPovm([factor], info)
        factor[0, 0] = 1.0
        info["s_rank"] = 0
        assert povm.info == {"s_rank": 2}
        assert np.array_equal(povm.factors[0], np.diag([0.5, 0.5]))
        assert np.array_equal(povm.elements[0], np.diag([0.25, 0.25]))
        assert np.array_equal(povm.elements[1], np.diag([0.75, 0.75]))
        assert not povm.factors[0].flags.writeable
        for e in povm.elements:
            assert not e.flags.writeable
            assert e.base is None or not e.base.flags.writeable

    def test_zero_width_factor(self):
        # an empty conditional typical set gives a d x 0 factor
        povm = SrmPovm([np.eye(4)[:, :2], np.zeros((4, 0))], {})
        assert np.array_equal(povm.elements[1], np.zeros((4, 4)))
        assert np.array_equal(povm.elements[2], np.diag([0.0, 0.0, 1.0, 1.0]))


class TestDenseViews:
    def test_views_are_built_on_first_read(self):
        ch = mixed_channel()
        cb = Codebook.random(("a", "b"), 6, 0.6, seed=3)
        projs = projector_set(ch, cb, 0.4)
        povm = square_root_measurement(ch, cb, 0.4, projs=projs)
        assert not {"average", "conditional"} & vars(projs).keys()
        assert "elements" not in vars(povm)
        d = povm.dim

        def span(v):
            return np.eye(d, dtype=complex) if v.shape[1] == d else v @ v.conj().T

        lams = [(lam + lam.conj().T) / 2.0 for lam in (b @ b.conj().T for b in povm.factors)]
        for obj, name, want in (
            (projs, "average", [span(projs.average_columns)]),
            (projs, "conditional", [span(v) for v in projs.columns]),
            (povm, "elements", [*lams, np.eye(d, dtype=complex) - sum(lams)]),
        ):
            first = getattr(obj, name)
            assert getattr(obj, name) is first
            got = [first] if name == "average" else first
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert not any(g.flags.writeable for g in got)

    def test_stages_keep_no_dense_matrix(self):
        # the perfbench srm-decoder stage codebook (d = 256, M = 28); two
        # d x d complex matrices are 2 MiB
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 8, 0.6, seed=1)
        stage = {}
        stages = {
            "projs": lambda: projector_set(ch, cb, 0.4),
            "povm": lambda: square_root_measurement(ch, cb, 0.4, projs=stage["projs"]),
            "err": lambda: exact_error(ch, cb, stage["povm"]),
            "hn": lambda: hn_diagnostic(ch, cb, stage["projs"]),
        }
        for key, run in stages.items():
            tracemalloc.start()
            try:
                stage[key] = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, key


class TestExactError:
    def test_povm_too_small(self):
        # SRMs of one and of M - 1 codewords: every message needs its own factor
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 2, 1.0, seed=0)
        assert cb.M == 4
        for m in (1, 3):
            fewer = square_root_measurement(ch, Codebook(n=2, codewords=cb.codewords[:m]), 0.4)
            with pytest.raises(SchemaError, match=f"{m} factors for 4 messages"):
                exact_error(ch, cb, fewer)

    def test_povm_of_a_larger_codebook(self):
        # scored against the SRM of all five codewords, the first three would
        # read 0.4097; their own SRM gives 0.2112
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 4, 0.6, seed=1)
        first3 = Codebook(n=4, codewords=cb.codewords[:3])
        with pytest.raises(SchemaError, match="5 factors for 3 messages"):
            exact_error(ch, first3, square_root_measurement(ch, cb, 0.4))
        own = exact_error(ch, first3, square_root_measurement(ch, first3, 0.4))
        assert abs(own - 0.2112) < 1e-4

    def test_povm_of_wrong_dimension(self):
        # an SRM on 8 dimensions against two qubit channel uses
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 2, 0.5, seed=0)
        assert cb.M == 2
        eye = np.eye(8, dtype=complex)
        with pytest.raises(SchemaError, match="dimension 8"):
            exact_error(ch, cb, SrmPovm([eye[:, :2], eye[:, 2:4]], {}))

    def test_dense_povm_rejected(self):
        # a checked dense measurement of the right size is not an SRM
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), 2, 0.5, seed=0)
        eye = np.eye(4, dtype=complex)
        with pytest.raises(SchemaError, match="scores an SrmPovm, got Povm"):
            exact_error(ch, cb, Povm([eye / 4, eye / 4, eye / 2]))


def assert_dense_parity(ch, cb, delta, rate=None, seed=None):
    """Column-form SRM, exact error and diagnostic against the dense
    sandwich reference in ``srm_dense``; given the ``rate`` and ``seed``
    that drew the random codebook ``cb``, also the sweep row for its
    blocklength, rate and seed."""
    projs = projector_set(ch, cb, delta)
    povm = square_root_measurement(ch, cb, delta, projs=projs)
    ref, ref_info = srm_dense.square_root_measurement(ch, cb, delta, projs=projs)
    assert povm.info["s_rank"] == ref_info["s_rank"]
    assert abs(povm.info["pinv_cutoff"] - ref_info["pinv_cutoff"]) <= (
        1e-12 * ref_info["pinv_cutoff"]
    )
    for e, r in zip(povm.elements, ref.elements, strict=True):
        assert np.max(np.abs(e - r)) <= 1e-12
    assert_hit_parity(ch, cb, delta, projs, povm, ref, rate, seed)
    return projs, povm


def assert_hit_parity(ch, cb, delta, projs, povm, ref, rate=None, seed=None,
                      err_tol=1e-12, hn_tol=1e-12):
    """``exact_error`` of ``povm``, ``hn_diagnostic`` of ``projs`` and, given
    ``rate`` and ``seed``, the sweep row against the dense reference, whose
    measurement is ``ref``; returns the largest error and HN deviations."""
    err = exact_error(ch, cb, povm)
    ref_err = srm_dense.exact_error(ch, cb, ref)
    assert abs(err - ref_err) <= err_tol
    hn = hn_diagnostic(ch, cb, projs)
    ref_hn = srm_dense.hn_diagnostic(ch, cb, projs)
    assert abs(hn - ref_hn) <= hn_tol
    if rate is None:
        return abs(err - ref_err), abs(hn - ref_hn)
    (row,) = srm_error_sweep(ch, rate, (cb.n,), delta, (seed,))
    assert row[:4] == (cb.n, rate, seed, delta)
    assert abs(row[4] - ref_err) <= err_tol
    assert abs(row[5] - ref_hn) <= hn_tol
    return max(abs(err - ref_err), abs(row[4] - ref_err)), max(abs(hn - ref_hn), abs(row[5] - ref_hn))


class TestDenseParity:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_criterion_seven_trials(self, n):
        ch = builtin("bb84_p2p")
        for seed in range(20):
            assert_dense_parity(ch, Codebook.random(("0", "1"), n, 0.3, seed), 0.4, 0.3, seed)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("rate", [0.3, 0.6])
    def test_mixed_channel(self, n, rate):
        # conditional ranks above one, unlike the pure BB84 outputs
        ch = mixed_channel()
        for seed in range(5):
            cb = Codebook.random(("a", "b"), n, rate, seed)
            projs, _ = assert_dense_parity(ch, cb, 0.4, rate, seed)
            assert max(v.shape[1] for v in projs.columns) > 1

    def test_sweep_builds_no_projectors_or_povm(self, monkeypatch):
        import qnetcap.codesim as codesim

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a dense object")

        monkeypatch.setattr(codesim, "ProjectorSet", refuse)
        monkeypatch.setattr(codesim, "SrmPovm", refuse)
        rows = srm_error_sweep(mixed_channel(), 0.6, (2, 5), 0.4, range(2))
        assert [r[:3] for r in rows] == [(2, 0.6, 0), (2, 0.6, 1), (5, 0.6, 0), (5, 0.6, 1)]

    def test_exact_error_and_diagnostic_build_no_dense_matrix(self, monkeypatch):
        import qnetcap.channels as channels
        import qnetcap.codesim as codesim

        def refuse(*args, **kwargs):
            raise AssertionError("a stage built a dense matrix")

        ch = mixed_channel()
        cb = Codebook.random(("a", "b"), 5, 0.6, seed=1)
        projs = projector_set(ch, cb, 0.4)
        povm = square_root_measurement(ch, cb, 0.4, projs=projs)
        assert len(povm.factors) == cb.M
        assert not any(b.flags.writeable for b in povm.factors)
        with monkeypatch.context() as patch:
            for module, name in ((codesim, "_span_projector"),
                                 (codesim.SrmPovm, "__post_init__"),
                                 (channels.Povm, "__init__")):
                patch.setattr(module, name, refuse)
            err = exact_error(ch, cb, povm)
            hn = hn_diagnostic(ch, cb, projs)
        ref, _ = srm_dense.square_root_measurement(ch, cb, 0.4, projs=projs)
        assert abs(err - srm_dense.exact_error(ch, cb, ref)) <= 1e-12
        assert abs(hn - srm_dense.hn_diagnostic(ch, cb, projs)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sweep_error_is_staged_exact_error(self, n):
        # one hit formula serves both paths, so the numbers agree exactly
        cases = [(builtin("bb84_p2p"), 0.3, seed) for seed in range(3)]
        if n == 6:
            cases.append((mixed_channel(), 0.6, 2))
        for ch, rate, seed in cases:
            cb = Codebook.random(ch.input_alphabets[0], n, rate, seed)
            (row,) = srm_error_sweep(ch, rate, (n,), 0.4, (seed,))
            assert row[4] == exact_error(ch, cb, square_root_measurement(ch, cb, 0.4))

    def test_all_typical_and_empty_windows(self):
        # under a prior on "b" the average state is maximally mixed, so
        # every sequence is typical for it and for the word bbbb; at width
        # 0.01 no sequence is typical for aaaa or abab
        ch = mixed_channel()
        prior = ProbDist(("a", "b"), [0.0, 1.0])
        words = (tuple("aaaa"), tuple("bbbb"), tuple("abab"))
        cb = Codebook(n=4, codewords=words, prior=prior)
        projs, povm = assert_dense_parity(ch, cb, 0.01)
        assert np.array_equal(projs.average, np.eye(16))
        assert np.array_equal(projs.conditional[1], np.eye(16))
        assert [v.shape[1] for v in projs.columns] == [0, 16, 0]
        assert povm.info["s_rank"] == 16

    def test_zero_support(self):
        # no length-6 sequence is 0.2-typical for diag(0.9, 0.1), so the
        # average projector and every detection operator vanish
        ch = mixed_channel()
        prior = ProbDist(("a", "b"), [1.0, 0.0])
        cb = Codebook(n=6, codewords=(tuple("aaaaaa"), tuple("bbbbbb")), prior=prior)
        projs, povm = assert_dense_parity(ch, cb, 0.2)
        assert not projs.average.any()
        assert povm.info["s_rank"] == 0
        assert povm.info["pinv_cutoff"] == 0.0
        assert not any(e.any() for e in povm.elements[:-1])
        assert np.array_equal(povm.elements[-1], np.eye(64))
        assert exact_error(ch, cb, povm) == 1.0


def assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class _Proxy:
    """A module whose named attributes are replaced and the rest read
    through."""

    def __init__(self, real, **replaced):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestBatchedColumns:
    """Every typical projector's columns come from one batched builder;
    the per-word builder it replaced is kept in ``srm_dense``."""

    def test_matches_per_word_reference(self):
        import qnetcap.codesim as codesim

        kinds = set()
        for ch in (builtin("bb84_p2p"), mixed_channel()):
            alphabet = ch.input_alphabets[0]
            for n in range(1, 7):
                d = ch.output_dim**n
                cb = Codebook.random(alphabet, n, 0.6, seed=n)
                for delta in (0.0, 0.1, 0.25, 0.4, 1.0, 5.0):
                    projs = projector_set(ch, cb, delta)
                    ref = srm_dense.decoder_columns(ch, cb, delta)
                    for got, want in zip((projs.average_columns, *projs.columns), ref,
                                         strict=True):
                        assert_same_array(got, want)
                        r = want.shape[1]
                        kinds.add("empty" if r == 0 else "all typical" if r == d else "partial")
                    word = cb.codewords[-1]
                    assert_same_array(cond_typical_projector(ch, word, delta),
                                      codesim._span_projector(
                                          srm_dense.cond_typical_columns(ch, word, delta)))
                    for x in alphabet:
                        rho = ch.output(x)
                        assert_same_array(typical_projector(rho, n, delta),
                                          codesim._span_projector(
                                              srm_dense.typical_columns(rho.entries, n, delta)))
        assert kinds == {"empty", "all typical", "partial"}

    @pytest.mark.parametrize("ch", [builtin("bb84_p2p"), mixed_channel()], ids=["bb84", "mixed"])
    def test_sweep_diagonalises_each_letter_once(self, ch, monkeypatch):
        import qnetcap.codesim as codesim

        shapes = []

        def eigh(a):
            shapes.append(a.shape)
            return np.linalg.eigh(a)

        monkeypatch.setattr(codesim, "np", _Proxy(np, linalg=_Proxy(np.linalg, eigh=eigh)))
        rows = srm_error_sweep(ch, 0.6, (2, 3, 5), 0.4, range(4))
        assert len(rows) == 12
        # one per input letter, then one for the prior's mean output state
        assert len(shapes) == len(ch.input_alphabets[0]) + 1 == 3


# (channel, rate, width, prior) of sweeps whose average projectors are
# partial, all typical (the maximally mixed mean of a prior on "b") and
# empty (no sequence is 0.2-typical for diag(0.9, 0.1)), as in
# TestDenseParity.test_all_typical_and_empty_windows
SHARED_AVERAGE_CASES = [
    (builtin("bb84_p2p"), 0.6, 0.4, None),
    (builtin("bb84_p2p"), 0.6, 0.4, ProbDist(("0", "1"), [0.8, 0.2])),
    (mixed_channel(), 0.6, 0.4, None),
    (mixed_channel(), 0.6, 0.25, ProbDist(("a", "b"), [0.3, 0.7])),
    (mixed_channel(), 0.6, 0.01, ProbDist(("a", "b"), [0.0, 1.0])),
    (mixed_channel(), 0.6, 0.01, None),
    (mixed_channel(), 0.6, 0.2, ProbDist(("a", "b"), [1.0, 0.0])),
]
SHARED_AVERAGE_IDS = ["bb84", "bb84-skewed", "mixed", "mixed-skewed", "mixed-all-typical",
                      "mixed-narrow", "mixed-empty"]


class TestSharedAverageColumns:
    """The sweep builds one average projector per blocklength, with the
    conditional columns of a group of seeds' codebooks in the same pass;
    every row is the one the one-codebook path gives, bit for bit."""

    @pytest.mark.parametrize("ch, rate, delta, prior", SHARED_AVERAGE_CASES,
                             ids=SHARED_AVERAGE_IDS)
    def test_rows_are_the_one_codebook_rows(self, ch, rate, delta, prior):
        blocklengths, seeds = range(1, 7), range(4)
        rows = srm_error_sweep(ch, rate, blocklengths, delta, seeds, prior)
        assert rows == [row for n in blocklengths for seed in seeds
                        for row in srm_error_sweep(ch, rate, (n,), delta, (seed,), prior)]
        alphabet = ch.input_alphabets[0]
        for n, r, seed, d, err, hn in rows:
            cb = Codebook.random(alphabet, n, rate, seed, prior)
            projs = projector_set(ch, cb, delta)
            assert err == exact_error(ch, cb, square_root_measurement(ch, cb, delta, projs=projs))
            assert hn == hn_diagnostic(ch, cb, projs)

    def test_cases_reach_every_window(self):
        kinds = set()
        for ch, rate, delta, prior in SHARED_AVERAGE_CASES:
            for n in range(1, 7):
                cb = Codebook.random(ch.input_alphabets[0], n, rate, 0, prior)
                d = ch.output_dim**n
                projs = projector_set(ch, cb, delta)
                for v in (projs.average_columns, *projs.columns):
                    r = v.shape[1]
                    kinds.add("empty" if r == 0 else "all typical" if r == d else "partial")
        assert kinds == {"empty", "all typical", "partial"}

    @pytest.mark.parametrize("ch, rate, delta, prior", SHARED_AVERAGE_CASES,
                             ids=SHARED_AVERAGE_IDS)
    def test_budget_groups_keep_the_rows(self, ch, rate, delta, prior, monkeypatch):
        import qnetcap.codesim as codesim

        passes = []
        build = codesim._decoder_columns

        def counted(codebooks, *args):
            passes.append(len(codebooks))
            return build(codebooks, *args)

        seeds = range(5)
        for n in range(1, 7):
            want = srm_error_sweep(ch, rate, (n,), delta, seeds, prior)
            need = (codesim._srm_matrices(message_count(n, rate)) * codesim.COMPLEX_BYTES
                    * ch.output_dim ** (2 * n))
            for per_pass in (1, 2):
                with monkeypatch.context() as patch:
                    patch.setattr(codesim, "DENSE_BUDGET_BYTES", per_pass * need)
                    patch.setattr(codesim, "_decoder_columns", counted)
                    passes.clear()
                    assert srm_error_sweep(ch, rate, (n,), delta, seeds, prior) == want
                assert passes == [per_pass] * (5 // per_pass) + [1] * (5 % per_pass)


class TestSweepArguments:
    """The sweep reads ``blocklengths`` and ``seeds`` once, as whole numbers."""

    def test_generator_seeds(self):
        ch = mixed_channel()
        rows = srm_error_sweep(ch, 0.6, [2, 4], 0.4, (s for s in range(3)))
        assert rows == srm_error_sweep(ch, 0.6, [2, 4], 0.4, [0, 1, 2])
        assert [r[:3] for r in rows] == [(n, 0.6, s) for n in (2, 4) for s in range(3)]

    def test_generator_blocklengths(self):
        ch = mixed_channel()
        rows = srm_error_sweep(ch, 0.6, (n for n in [2, 4]), 0.4, [0, 1])
        assert rows == srm_error_sweep(ch, 0.6, [2, 4], 0.4, [0, 1])
        assert len(rows) == 4

    def test_fractional_seed_rejected(self):
        with pytest.raises(SchemaError, match="seed must be a whole number, got 1.5"):
            srm_error_sweep(mixed_channel(), 0.6, [2], 0.4, [0, 1.5])

    def test_fractional_blocklength_rejected(self):
        with pytest.raises(SchemaError, match="blocklength must be a whole number, got 2.5"):
            srm_error_sweep(mixed_channel(), 0.6, [2, 2.5], 0.4, [0])

    def test_empty_sweep_builds_nothing(self, monkeypatch):
        import qnetcap.codesim as codesim

        def refuse(*args, **kwargs):
            raise AssertionError("an empty sweep built typical columns")

        monkeypatch.setattr(codesim, "_typical_columns", refuse)
        assert srm_error_sweep(mixed_channel(), 0.6, [], 0.4, range(3)) == []
        assert srm_error_sweep(mixed_channel(), 0.6, [2, 4], 0.4, []) == []


def rotated_state(probs, seed):
    """diag(probs) in a seeded random basis, so an eigensolve returns its
    zero eigenvalues as roundoff rather than exact zeros."""
    n = len(probs)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (q * np.asarray(probs)) @ q.conj().T
    return DensityMatrix((m + m.conj().T) / 2, (n,))


def factor_ranks(ch):
    import qnetcap.codesim as codesim

    return [codesim._spectrum(ch.output(x).entries)[3].shape[0] for x in ch.input_alphabets[0]]


class TestFactoredHits:
    """Hits are read through per-letter state factors F_x, rho_x = F_x F_x^dagger
    on the eigenvalues above EIG_CUTOFF: parity with the dense reference on
    outputs of every rank, and on pure outputs whose zero eigenvalues the
    eigensolve returns as +-1e-17."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_qutrit_with_rank_two_output(self, n):
        ch = CqChannel((("a", "b", "c"),), {
            ("a",): rotated_state([0.7, 0.3, 0.0], seed=1),
            ("b",): rotated_state([1.0, 0.0, 0.0], seed=2),
            ("c",): diag_state(0.5, 0.3, 0.2),
        })
        assert factor_ranks(ch) == [2, 1, 3]
        for rate in (0.3, 0.6):
            for seed in range(3):
                cb = Codebook.random(("a", "b", "c"), n, rate, seed)
                projs = projector_set(ch, cb, 0.4)
                povm = square_root_measurement(ch, cb, 0.4, projs=projs)
                ref, _ = srm_dense.square_root_measurement(ch, cb, 0.4, projs=projs)
                assert_hit_parity(ch, cb, 0.4, projs, povm, ref, rate, seed)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_rotated_pure_outputs(self, n):
        ch = CqChannel((("a", "b"),), {
            (x,): pure_state([np.cos(t), np.sin(t) * np.exp(1j * t)])
            for x, t in (("a", 0.3), ("b", 1.2))
        })
        # here +1.2e-16 and -4.2e-17; their signs depend on the LAPACK build
        least = [np.linalg.eigvalsh(ch.output(x).entries)[0] for x in ("a", "b")]
        assert any(least) and max(map(abs, least)) < 1e-15
        assert factor_ranks(ch) == [1, 1]
        for seed in range(5):
            cb = Codebook.random(("a", "b"), n, 0.3, seed)
            assert_dense_parity(ch, cb, 0.4, 0.3, seed)


    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_dropped_eigenvalues_move_hits_within_bound(self, n):
        # accepted outputs whose least eigenvalues, -5e-11 and 5e-13, are
        # at or below EIG_CUTOFF but are not roundoff: the factors drop
        # them and the dense reference keeps them, so a hit moves by up to
        # n (dim - 1) 5e-11, the error by that, and the HN value, which
        # sums 2 + 4 (M - 1) hits, by (4M - 2) times that; 2e-12, above
        # the cutoff, is kept
        ch = CqChannel((("a", "b", "c", "d"),), {
            ("a",): diag_state(1 + 5e-11, -5e-11),
            ("b",): rotated_state([1 - 5e-13, 5e-13], seed=3),
            ("c",): diag_state(0.6, 0.4),
            ("d",): rotated_state([1 - 2e-12, 2e-12], seed=4),
        })
        assert factor_ranks(ch) == [1, 1, 2, 2]
        hit_tol = n * (2 - 1) * 5e-11
        moved = []
        for seed in range(3):
            cb = Codebook.random(("a", "b", "c", "d"), n, 0.4, seed)
            projs = projector_set(ch, cb, 0.4)
            povm = square_root_measurement(ch, cb, 0.4, projs=projs)
            ref, _ = srm_dense.square_root_measurement(ch, cb, 0.4, projs=projs)
            moved += assert_hit_parity(ch, cb, 0.4, projs, povm, ref, 0.4, seed,
                                       err_tol=hit_tol, hn_tol=(4 * cb.M - 2) * hit_tol)
        # what is dropped shows: the values leave the 1e-12 of exact parity
        assert max(moved) > 1e-12


class TestErrorTrend:
    def test_error_trend(self):
        # The mean error decays overall, but not pointwise: the average
        # projector keeps eigenvalue strings with at most floor(0.3037 n)
        # minor-eigenvalue slots here, so its captured weight dips at n=6
        # (0.7848, vs 0.8951 at n=4 and 0.9007 at n=8; see
        # TestTypicalWindowWeight) and the error bumps with it. Freeze
        # that shape so a silent change to the window convention shows up.
        ch = builtin("bb84_p2p")
        rows = srm_error_sweep(
            ch, rate=0.3, blocklengths=(2, 4, 6, 8), delta=0.4, seeds=range(5)
        )
        means = {}
        for n, _, _, _, err, hn in rows:
            means.setdefault(n, []).append(err)
            assert hn >= err - 1e-9
        avg = {n: np.mean(means[n]) for n in (2, 4, 6, 8)}
        assert avg[4] < avg[2]
        assert avg[8] < avg[6]
        assert avg[8] < avg[2]
        assert avg[6] > avg[4]


def window_weight(n, delta=0.4):
    """W(n) = Tr[P rho^(x)n] for rho the uniform mean output of bb84_p2p,
    eigenvalues (1 +- 1/sqrt(2))/2, and P its delta-typical projector, by
    the O(n) binomial count: the product eigenvectors with k major factors
    have sample entropy -(k log major + (n - k) log minor)/n, and P keeps
    them when that is within delta of H(rho)."""
    major = (1 + 1 / math.sqrt(2)) / 2
    minor = 1 - major
    h = binary_entropy(major)
    return sum(math.comb(n, k) * major**k * minor**(n - k) for k in range(n + 1)
               if abs(-(k * math.log2(major) + (n - k) * math.log2(minor)) / n - h) <= delta)


class TestTypicalWindowWeight:
    """The weight of the average typical window behind criterion 7's
    non-monotone mean error (rate 0.3, width 0.4, uniform prior)."""

    @staticmethod
    def mean_output(ch):
        return DensityMatrix(sum(0.5 * ch.output(x).entries for x in ("0", "1")), ch.dims)

    def test_count_is_the_projector_weight(self):
        rho = self.mean_output(builtin("bb84_p2p"))
        for n in range(1, 9):
            dense = reduce(np.kron, [rho.entries] * n)
            weight = np.vdot(dense, typical_projector(rho, n, 0.4)).real
            assert abs(weight - window_weight(n)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_decoder_window_is_the_uniform_mean_window(self, n):
        # Codebook.random records the uniform prior, so the decoder's
        # average projector is the window of the uniform mean output, not
        # of the codebook's letter frequencies
        ch = builtin("bb84_p2p")
        cb = Codebook.random(("0", "1"), n, 0.3, seed=0)
        assert list(cb.prior.weights) == [0.5, 0.5]
        want = typical_projector(self.mean_output(ch), n, 0.4)
        assert np.array_equal(projector_set(ch, cb, 0.4).average, want)

    def test_weight_dips(self):
        weights = {n: window_weight(n) for n in range(2, 41, 2)}
        assert (round(weights[4], 4), round(weights[6], 4)) == (0.8951, 0.7848)
        dips = [n for n in range(4, 41, 2) if weights[n] < weights[n - 2]]
        assert dips == [6, 12, 16, 22, 26, 32, 36]


class TestClassicalSim:
    def test_noiseless_low_rate(self):
        res = classical_typical_decode_sim(
            np.eye(2), ProbDist(("0", "1"), [0.5, 0.5]),
            rate=0.3, n=10, delta=0.5, trials=200, seed=4,
        )
        assert res.error_rate <= 0.05
        assert res.output_atypical == 0

    def test_rate_above_capacity_fails(self):
        z = [[1.0, 0.0], [0.5, 0.5]]
        res = classical_typical_decode_sim(
            z, ProbDist(("0", "1"), [0.6, 0.4]),
            rate=0.9, n=10, delta=0.3, trials=100, seed=4,
        )
        assert res.error_rate >= 0.8

    def test_wrong_match_rate_within_packing_bound(self):
        z = np.array([[1.0, 0.0], [0.5, 0.5]])
        p = ProbDist(("0", "1"), [0.6, 0.4])
        n, rate, delta, trials = 12, 0.1, 0.3, 300
        # mutual information of the test channel at this input
        q = np.array([0.6, 0.4]) @ z
        mi = (
            -(q[0] * math.log2(q[0]) + q[1] * math.log2(q[1]))
            - 0.4 * 1.0
        )
        res = classical_typical_decode_sim(
            z, p, rate=rate, n=n, delta=delta, trials=trials, seed=21
        )
        m = message_count(n, rate)
        bound = (m - 1) * 2.0 ** (-n * (mi - 2 * delta))
        margin = 4.0 / math.sqrt(trials)
        assert res.wrong_match / trials <= bound + margin

    def test_deterministic_given_seed(self):
        z = [[0.9, 0.1], [0.2, 0.8]]
        p = ProbDist(("0", "1"), [0.5, 0.5])
        a = classical_typical_decode_sim(z, p, 0.3, 8, 0.3, 50, seed=1)
        b = classical_typical_decode_sim(z, p, 0.3, 8, 0.3, 50, seed=1)
        assert a == b

    def test_validation(self):
        p = ProbDist(("0", "1"), [0.5, 0.5])
        with pytest.raises(InvariantError):
            classical_typical_decode_sim([[0.5, 0.2], [0.5, 0.5]], p, 0.3, 4, 0.3, 10)
        with pytest.raises(SchemaError):
            classical_typical_decode_sim(np.eye(2), p, 0.3, 0, 0.3, 10)
        with pytest.raises(SchemaError):
            classical_typical_decode_sim(
                np.eye(3), p, 0.3, 4, 0.3, 10
            )

    @pytest.mark.parametrize("kw", [
        {"delta": math.nan},
        {"delta": math.inf},
        {"n": 12.5},
        {"trials": 10.5},
        {"rate": math.nan},
        # one trial of 2^40 and 2^60 codewords of length 40 and 30
        {"rate": 1.0, "n": 40},
        {"rate": 2.0, "n": 30},
    ])
    def test_invalid_input_is_schema_error(self, kw):
        args = {"rate": 0.1, "n": 12, "delta": 0.4, "trials": 10, **kw}
        with pytest.raises(SchemaError):
            classical_typical_decode_sim(
                np.eye(2), ProbDist(("0", "1"), [0.5, 0.5]), **args
            )

    def test_whole_float_counts_accepted(self):
        p = ProbDist(("0", "1"), [0.5, 0.5])
        a = classical_typical_decode_sim(np.eye(2), p, 0.3, 8.0, 0.3, 20.0, seed=1)
        b = classical_typical_decode_sim(np.eye(2), p, 0.3, 8, 0.3, 20, seed=1)
        assert a == b and type(a.trials) is int


def _bb84_computational():
    ch = builtin("bb84_p2p")
    transition = induced_classical_channel(ch, Povm.computational(ch.output_dim))
    return transition, ProbDist.uniform(ch.input_alphabets[0])


class TestClassicalLoopParity:
    """The vectorised decoder draws the same random stream as the per-trial
    loop in ``classical_loop`` and must give the same tally."""

    @staticmethod
    def assert_parity(transition, prior, rate, n, delta, trials, seed):
        fast = classical_typical_decode_sim(transition, prior, rate, n, delta, trials, seed)
        loop = classical_loop.classical_typical_decode_sim(
            transition, prior, rate, n, delta, trials, seed
        )
        assert fast == loop
        return fast

    def test_readme_configuration(self):
        transition, prior = _bb84_computational()
        for seed in range(20):
            self.assert_parity(transition, prior, 0.1, 12, 0.4, 2000, seed)

    @pytest.mark.parametrize("transition,weights,rate,n,delta,trials", [
        # delta 0: only the sent word itself can match
        (np.eye(2), [0.5, 0.5], 0.3, 6, 0.0, 200),
        # non-uniform prior
        ([[0.9, 0.1], [0.2, 0.8]], [0.7, 0.3], 0.3, 10, 0.3, 300),
        # three outputs with a zero entry: -inf logs in the samples
        ([[0.5, 0.0, 0.5], [0.1, 0.6, 0.3]], [0.4, 0.6], 0.25, 9, 0.35, 300),
        # narrow window: about half the outputs are atypical
        ([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5], 0.2, 10, 0.02, 300),
    ])
    def test_configurations(self, transition, weights, rate, n, delta, trials):
        prior = ProbDist(tuple("abc"[: len(weights)]), weights)
        res = self.assert_parity(transition, prior, rate, n, delta, trials, seed=5)
        assert res.errors > 0

    def test_inputs_at_the_sum_tolerance(self):
        # the prior and every row pass the probability rule, but the output
        # marginal sums to 1 + 1.7e-10; its entropy is taken without a
        # second check, and the tally is the loop's on the normalised input
        prior = ProbDist(("a", "b"), [0.5 + 4e-11] * 2)
        t = np.array([[0.5 + 4.5e-11] * 2, [0.9 + 4.5e-11, 0.1 + 4.5e-11]])
        assert classical_capacity_BA(t).value == pytest.approx(0.1476, abs=1e-4)
        fast = classical_typical_decode_sim(t, prior, 0.1, 10, 0.3, 300, seed=5)
        loop = classical_loop.classical_typical_decode_sim(
            t / t.sum(axis=1, keepdims=True), ProbDist.uniform("ab"), 0.1, 10, 0.3,
            300, seed=5)
        assert fast == loop and fast.errors > 0

    def test_several_chunks(self):
        transition, prior = _bb84_computational()
        m = message_count(12, 1.0)
        assert 50 * _trial_bytes(m, 12, 2) > 3 * CLASSICAL_CHUNK_BYTES
        self.assert_parity(transition, prior, 1.0, 12, 0.4, 50, seed=2)
