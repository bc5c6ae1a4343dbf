import fractions

import numpy as np
import pytest

from qnetcap.errors import SchemaError
from qnetcap.qstate import (
    DensityMatrix,
    InvariantError,
    reduce_blocks,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    pure_state,
)

KET0 = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def rand_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (d,))


def kron(*states):
    """Product state of DensityMatrix factors; subsystem dims concatenate."""
    entries = states[0].entries
    for rho in states[1:]:
        entries = np.kron(entries, rho.entries)
    return DensityMatrix(entries, sum((rho.dims for rho in states), ()))


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(InvariantError):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantError):
            DensityMatrix(m, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(InvariantError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_dims_product_is_not_taken_modulo_2_64(self):
        # 6 * 3074457345618258603 = 2**64 + 2, which int64 arithmetic reads as 2
        with pytest.raises(InvariantError, match="product 18446744073709551618"):
            DensityMatrix(np.eye(2) / 2, (6, 3074457345618258603))

    def test_tolerates_tiny_asymmetry(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-12
        rho = DensityMatrix(m, (2,))
        assert rho.dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = bad
        with pytest.raises(InvariantError):
            DensityMatrix(m, (2,))

    def test_entries_read_only(self):
        rho = pure_state(KET0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0


class TestOperations:
    def test_pure_state_projector(self):
        rho = pure_state(KET_PLUS)
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))

    def test_tensor_then_partial_trace_recovers_factors(self):
        rng = np.random.default_rng(7)
        a = rand_state(rng, 2)
        b = rand_state(rng, 3)
        ab = kron(a, b)
        assert ab.dims == (2, 3)
        assert np.allclose(partial_trace(ab, [0]).entries, a.entries, atol=1e-12)
        assert np.allclose(partial_trace(ab, [1]).entries, b.entries, atol=1e-12)

    def test_partial_trace_three_factors(self):
        rng = np.random.default_rng(11)
        a, b, c = rand_state(rng, 2), rand_state(rng, 2), rand_state(rng, 3)
        abc = kron(a, b, c)
        ac = partial_trace(abc, [0, 2])
        assert ac.dims == (2, 3)
        assert np.allclose(ac.entries, kron(a, c).entries, atol=1e-12)

    def test_partial_trace_keep_order_is_sorted(self):
        rng = np.random.default_rng(3)
        a, b = rand_state(rng, 2), rand_state(rng, 3)
        ab = kron(a, b)
        # keep indices are positions, not a permutation request
        assert partial_trace(ab, [1, 0]).dims == (2, 3)

    def test_reduce_blocks_matches_partial_trace_per_matrix(self):
        rng = np.random.default_rng(19)
        states = [rand_state(rng, 12) for _ in range(3)]
        stack = np.array([rho.entries for rho in states])
        for keep in ([0], [1], [2], [0, 2], [0, 1, 2]):
            reduced = reduce_blocks(stack, (2, 3, 2), keep)
            for rho, block in zip(states, reduced):
                one = partial_trace(DensityMatrix(rho.entries, (2, 3, 2)), keep)
                assert np.array_equal(block, one.entries)


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pairs = matrix_to_json(m)
        assert len(pairs) == 9 and len(pairs[0]) == 2
        back = matrix_from_json(pairs, 3)
        assert np.allclose(back, m)

    def test_non_finite_encoding_rejected(self):
        pairs = matrix_to_json(np.eye(2) / 2)
        pairs[3] = [float("nan"), 0.0]
        with pytest.raises(InvariantError):
            matrix_from_json(pairs, 2)

    @pytest.mark.parametrize("entry, error", [
        (True, SchemaError), ("1", SchemaError), (None, SchemaError),
        (10**400, InvariantError), (-(10**400), InvariantError),
        (fractions.Fraction(-(10**400)), InvariantError),
    ], ids=["bool", "string", "null", "huge", "-huge", "-huge fraction"])
    def test_entries_follow_the_number_rule(self, entry, error):
        # a real number, not a bool, finite as a float
        pairs = matrix_to_json(np.eye(2) / 2)
        pairs[3] = [entry, 0.0]
        with pytest.raises(error):
            matrix_from_json(pairs, 2)

    def test_whole_and_rational_entries_read_as_floats(self):
        pairs = [[1, 0], [0, 0], [0, 0], [fractions.Fraction(1, 2), np.float32(0)]]
        assert np.array_equal(matrix_from_json(pairs, 2), np.diag([1.0, 0.5]))

    def test_row_major_order(self):
        m = np.array([[1.0, 2.0j], [3.0, 4.0]])
        assert matrix_to_json(m) == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]
