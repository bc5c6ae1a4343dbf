import json

import numpy as np
import pytest

from qnetcap.channels import (
    CqChannel,
    Povm,
    SchemaError,
    builtin,
    dump_channel,
    induced_classical_channel,
    load_channel,
    measurement_probabilities,
    theta_swap,
)
from qnetcap.codesim import srm_error_sweep
from qnetcap.entropic import ProbDist, holevo_information, transition_matrix
from qnetcap.errors import PROB_SUM_TOL, PSD_TOL
from qnetcap.network import (classical_capacity_BA, hsw_capacity, random_marton_distribution,
                             random_superposition_distribution)
from qnetcap.qstate import DensityMatrix, InvariantError, partial_trace, pure_state

KET0 = np.array([1.0, 0.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def rand_state(rng, d, dims=None):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims or (d,))


class TestCqChannel:
    def test_missing_output_rejected(self):
        with pytest.raises(SchemaError):
            CqChannel((("0", "1"),), {("0",): pure_state(KET0)})

    def test_extra_output_rejected(self):
        with pytest.raises(SchemaError):
            CqChannel(
                (("0",),),
                {("0",): pure_state(KET0), ("1",): pure_state(KET0)},
            )

    def test_mixed_dims_rejected(self):
        with pytest.raises(InvariantError):
            CqChannel(
                (("0", "1"),),
                {
                    ("0",): pure_state(KET0),
                    ("1",): pure_state(np.array([1.0, 0, 0, 0]), dims=(2, 2)),
                },
            )

    @pytest.mark.parametrize("alphabets", [((),), (("0",), ())])
    def test_empty_alphabet_rejected(self, alphabets):
        with pytest.raises(SchemaError, match="empty input alphabet"):
            CqChannel(alphabets, {})

    @pytest.mark.parametrize("call", [
        lambda ch: holevo_information(ch, ProbDist.uniform("01")),
        hsw_capacity,
        lambda ch: induced_classical_channel(ch, Povm.computational(2)),
        lambda ch: srm_error_sweep(ch, 0.3, (2,), 0.4, (0,)),
        lambda ch: random_superposition_distribution(ch, 0),
        lambda ch: random_marton_distribution(ch, 0),
    ], ids=["holevo_information", "hsw_capacity", "induced_classical_channel",
            "srm_error_sweep", "random_superposition", "random_marton"])
    def test_single_input_entry_points_share_one_check(self, call):
        with pytest.raises(SchemaError,
                           match=r"^expected a single-input channel, got 2 input\(s\)$"):
            call(builtin("bb84_qmac"))

    def test_symbols_canonicalized(self):
        ch = CqChannel(
            ((0, 1),),
            {(0,): pure_state(KET0), (1,): pure_state(KET_PLUS)},
        )
        assert ch.input_alphabets == (("0", "1"),)
        assert ch.output(1).entries[0, 1] == pytest.approx(0.5)

    def test_default_names(self):
        ch = builtin("bb84_p2p")
        assert ch.output_names == ("B",)


class TestBuiltins:
    def test_names_listed(self):
        with pytest.raises(SchemaError, match="known: bb84_bc, bb84_p2p, .*theta_swap"):
            builtin("nope")

    @pytest.mark.parametrize("name", ["theta_swap(nan)", "theta_swap(inf)",
                                      "theta_swap(1e400)"])
    def test_non_finite_parameter_is_schema_error(self, name):
        with pytest.raises(SchemaError, match="must be finite"):
            builtin(name)

    def test_real_parameters_reach_the_factory_as_floats(self):
        ref = builtin("theta_swap(1.0)")
        for name in ("theta_swap(1)", "theta_swap( 1e0 )", "theta_swap(+1.000)"):
            ch = builtin(name)
            for key, rho in ch.outputs.items():
                assert rho.entries.dtype == complex
                assert np.array_equal(rho.entries, ref.outputs[key].entries)

    @pytest.mark.parametrize("name", ["theta_swap(True)", "theta_swap(1.2, )",
                                      "theta_swap(1+2j)"])
    def test_parameter_that_is_not_a_float_is_schema_error(self, name):
        with pytest.raises(SchemaError, match="bad parameter list"):
            builtin(name)

    def test_unknown_rejected(self):
        with pytest.raises(SchemaError):
            builtin("nope")

    def test_qmac_states(self):
        ch = builtin("bb84_qmac")
        assert np.allclose(ch.output(0, 0).entries, np.outer(KET0, KET0))
        assert np.allclose(ch.output(1, 0).entries, np.outer(KET_PLUS, KET_PLUS))
        assert np.allclose(ch.output(0, 1).entries, np.outer(KET_MINUS, KET_MINUS))
        assert np.allclose(ch.output(1, 1).entries, np.diag([0.0, 1.0]))

    def test_theta_swap_full_swap(self):
        ch = builtin(f"theta_swap({np.pi / 2})")
        v10 = np.zeros(4)
        v10[2] = 1.0
        assert np.allclose(ch.output(0, 1).entries, np.outer(v10, v10))

    def test_theta_swap_zero_identity(self):
        ch = builtin("theta_swap(0.0)")
        v01 = np.zeros(4)
        v01[1] = 1.0
        assert np.allclose(ch.output(0, 1).entries, np.outer(v01, v01))

    def test_paren_params(self):
        ch = builtin("theta_swap(1.5)")
        ref = theta_swap(1.5)
        for key in ch.outputs:
            assert np.allclose(ch.outputs[key].entries, ref.outputs[key].entries)

    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            builtin("theta_swap")
        with pytest.raises(SchemaError):
            builtin("bb84_p2p(1.0)")

    def test_relay_and_bc_shapes(self):
        rc = builtin("bb84_relay")
        assert rc.output_names == ("B1", "B")
        bc = builtin("bb84_bc")
        assert bc.n_inputs == 1
        assert bc.output_names == ("B1", "B2")

    def test_relay_and_bc_outputs_match_pure_state_factors(self):
        # the joint states built from pure_state factors, bit for bit
        def ket(v):
            return pure_state(v).entries

        eye = np.eye(2, dtype=complex) / 2.0
        src = {"0": ket(KET0), "1": ket(KET_PLUS)}
        dest = {("0", "0"): ket(KET0), ("1", "0"): ket(KET_PLUS),
                ("0", "1"): ket(KET_MINUS), ("1", "1"): ket(np.array([0.0, 1.0]))}
        expected = {
            "bb84_relay": {(x, x1): np.kron(src[x], dest[(x, x1)]) for x, x1 in dest},
            "bb84_bc": {(x,): np.kron(r, 0.7 * r + 0.3 * eye) for x, r in src.items()},
        }
        for name, table in expected.items():
            ch = builtin(name)
            assert set(ch.outputs) == set(table)
            for key, joint in table.items():
                got = ch.outputs[key].entries
                assert got.dtype == joint.dtype and got.tobytes() == joint.tobytes()


class TestPovm:
    def test_computational(self):
        povm = Povm.computational(3)
        assert len(povm) == 3
        assert np.allclose(sum(povm.elements), np.eye(3))

    def test_incomplete_rejected(self):
        with pytest.raises(InvariantError):
            Povm([np.diag([1.0, 0.0])])

    def test_negative_element_rejected(self):
        with pytest.raises(InvariantError, match="eigenvalue"):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_shape_faults_are_schema_errors(self):
        with pytest.raises(SchemaError, match="empty POVM"):
            Povm([])
        with pytest.raises(SchemaError, match="element 1 has shape"):
            Povm([np.eye(2), np.eye(3)])
        with pytest.raises(SchemaError, match=r"element 0 has shape \(\)"):
            Povm([1.0])

    def test_state_rule_applies_to_elements(self):
        # the Hermiticity tolerance of a state (1e-10), not a looser one
        skew = np.diag([0.5, 0.5]).astype(complex)
        skew[0, 1] = 5e-10
        for bad in (skew, np.diag([0.5, np.nan])):
            with pytest.raises(InvariantError):
                DensityMatrix(bad, (2,))
            with pytest.raises(InvariantError, match="element 0"):
                Povm([bad, np.eye(2) - bad])

    def test_completeness_at_the_probability_tolerance(self):
        # completeness is a probability total, held to PROB_SUM_TOL
        with pytest.raises(InvariantError, match="completeness"):
            Povm([np.diag([1 + 5e-10, 0.0]), np.diag([0.0, 1 + 5e-10])])
        Povm([np.diag([1 + 5e-11, 0.0]), np.diag([0.0, 1 + 5e-11])])

    def test_accepted_povm_induces_accepted_transition(self):
        rng = np.random.default_rng(23)
        qutrits = CqChannel((tuple("0123"),),
                            {(str(k),): rand_state(rng, 3) for k in range(4)})
        verdicts = set()
        for ch in [builtin("bb84_p2p"), qutrits] * 100:
            d = ch.output_dim
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            basis, _ = np.linalg.qr(g)
            eps = rng.uniform(0.0, 5e-10, size=d)
            elements = [(1 + e) * np.outer(u, u.conj()) for e, u in zip(eps, basis.T)]
            try:
                povm = Povm(elements)
            except InvariantError:
                verdicts.add("rejected")
                continue
            verdicts.add("accepted")
            transition_matrix(induced_classical_channel(ch, povm))
        assert verdicts == {"accepted", "rejected"}
        # eigenvalues down to PSD_TOL: the first two elements are negative
        # on |0>, which bb84's first state occupies alone
        bb84 = builtin("bb84_p2p")
        cases = [(-0.9e-10, -0.9e-10, 0.5)]
        cases += [(*rng.uniform(PSD_TOL, 0.0, size=2), rng.uniform()) for _ in range(50)]
        for n0, n1, a in cases:
            povm = Povm([np.diag([n0, a]), np.diag([n1, 1 - a]), np.diag([1 - n0 - n1, 0.0])])
            rows = transition_matrix(induced_classical_channel(bb84, povm))
            assert np.all(rows >= 0.0)

    def test_accepted_state_and_povm_give_accepted_rows(self):
        # each input is off by 0.9e-10, within PROB_SUM_TOL; their rows by 1.8e-10
        e = 0.9e-10
        povm = Povm([np.diag([1 + e, 0.0]), np.diag([0.0, 1 + e])])
        rho = DensityMatrix(np.diag([0.5 + e / 2, 0.5 + e / 2]), (2,))
        rows = induced_classical_channel(CqChannel((("0",),), {("0",): rho}), povm)
        assert abs(rows.sum() - 1.0) > PROB_SUM_TOL
        assert classical_capacity_BA(rows).value == 0.0

    def test_measurement_probabilities(self):
        povm = Povm.qubit_projective(0.0)
        p = measurement_probabilities(povm, pure_state(KET_PLUS))
        assert np.allclose(p, [0.5, 0.5])

    def test_dimension_mismatch_is_schema_error(self):
        # a POVM that does not fit the state is a wrong pairing of inputs
        qutrit = pure_state(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(SchemaError, match="POVM dim 2 vs state dim 3"):
            measurement_probabilities(Povm.qubit_projective(0.3), qutrit)


class TestInducedClassical:
    def test_bb84_computational_is_z_channel(self):
        t = induced_classical_channel(builtin("bb84_p2p"), Povm.computational(2))
        assert np.allclose(t, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12)

    def test_bb84_rotated_is_bsc(self):
        t = induced_classical_channel(
            builtin("bb84_p2p"), Povm.qubit_projective(-np.pi / 8)
        )
        q = np.sin(np.pi / 8) ** 2
        assert np.allclose(t, [[1 - q, q], [q, 1 - q]], atol=1e-12)

    def test_identity_povm(self):
        t = induced_classical_channel(
            builtin("bb84_p2p"), Povm([np.eye(2)])
        )
        assert np.allclose(t, [[1.0], [1.0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        table = {(str(k),): rand_state(rng, 3) for k in range(4)}
        ch = CqChannel((tuple("0123"),), table)
        t = induced_classical_channel(ch, Povm.computational(3))
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_two_input_rejected(self):
        with pytest.raises(SchemaError):
            induced_classical_channel(builtin("bb84_qmac"), Povm.computational(2))


class TestDerivedChannels:
    def test_full_swap_marginal_ignores_x1(self):
        # receiver 1's qubit B1 carries x2 alone under a full swap
        ch = builtin(f"theta_swap({np.pi / 2})")
        for x2 in "01":
            a = partial_trace(ch.output("0", x2), [0]).entries
            b = partial_trace(ch.output("1", x2), [0]).entries
            assert np.allclose(a, b, atol=1e-12)
            assert np.allclose(a, np.diag([1.0, 0.0]) if x2 == "0" else np.diag([0.0, 1.0]))


class TestJsonInterchange:
    def test_round_trip_byte_identical(self):
        ch = builtin("bb84_qmac")
        doc = dump_channel(ch)
        text = json.dumps(doc, sort_keys=True)
        again = dump_channel(load_channel(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text

    @pytest.mark.parametrize("doc", [None, [1, 2], "ch.json"])
    def test_document_must_be_an_object(self, doc):
        # the command line reads the file; the loader takes the parsed document
        with pytest.raises(SchemaError, match="^channel document must be an object$"):
            load_channel(doc)

    def test_missing_key_schema_error(self):
        with pytest.raises(SchemaError):
            load_channel({"alphabets": [["0"]], "dims": [2]})

    def test_missing_output_schema_error(self):
        doc = dump_channel(builtin("bb84_p2p"))
        del doc["outputs"]["1"]
        with pytest.raises(SchemaError, match="'1'"):
            load_channel(doc)

    def test_non_psd_matrix_names_tuple(self):
        doc = dump_channel(builtin("bb84_p2p"))
        doc["outputs"]["1"] = [[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]]
        with pytest.raises(InvariantError, match="'1'"):
            load_channel(doc)

    def test_boolean_dimension_schema_error(self):
        doc = dump_channel(builtin("bb84_p2p"))
        doc["dims"] = [True]
        with pytest.raises(SchemaError, match="dims"):
            load_channel(doc)

    def test_bad_matrix_size_schema_error(self):
        doc = dump_channel(builtin("bb84_p2p"))
        doc["outputs"]["1"] = [[1.0, 0.0]]
        with pytest.raises(SchemaError):
            load_channel(doc)

    def test_non_finite_entry_schema_error(self):
        doc = dump_channel(builtin("bb84_p2p"))
        doc["outputs"]["0"][0][0] = float("nan")
        with pytest.raises(SchemaError, match="'0'"):
            load_channel(doc)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(SchemaError):
            load_channel(tmp_path / "missing.json")
