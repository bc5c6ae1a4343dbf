import decimal
import functools
import itertools

import numpy as np
import pytest
from cq_loop import loop_entropy

from qnetcap.channels import CqChannel, theta_swap
from qnetcap.codesim import classical_typical_decode_sim
from qnetcap.entropic import (
    LabeledCqState,
    ProbDist,
    binary_entropy,
    conditional_mutual_information,
    g_thermal,
    shannon_entropy,
    von_neumann_entropy,
)
from qnetcap.errors import DERIVED_SUM_TOL, SchemaError
from qnetcap.network import CodeDistribution, classical_capacity_BA, joint_state
from qnetcap.qstate import DensityMatrix, InvariantError, pure_state

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def rand_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (d,))


def rand_two_part(rng, da, db):
    g = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (da, db))


class TestScalarEntropies:
    def test_binary_entropy_frozen(self):
        assert np.isclose(binary_entropy(0.5), 1.0)
        assert np.isclose(binary_entropy(0.2), 0.7219280948873623, atol=1e-12)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_entropy_domain(self):
        with pytest.raises(InvariantError):
            binary_entropy(1.2)

    def test_shannon_uniform(self):
        p = ProbDist.uniform(range(8))
        assert np.isclose(shannon_entropy(p), 3.0)

    def test_shannon_point_mass(self):
        p = ProbDist("abc", [0.0, 1.0, 0.0])
        assert shannon_entropy(p) == 0.0

    def test_von_neumann_matches_spectrum(self):
        rho = DensityMatrix(np.diag([0.5, 0.25, 0.25]).astype(complex), (3,))
        assert np.isclose(von_neumann_entropy(rho), 1.5)

    def test_von_neumann_pure_state_zero(self):
        assert np.isclose(von_neumann_entropy(pure_state(KET_PLUS)), 0.0, atol=1e-9)

    def test_prob_dist_validation(self):
        with pytest.raises(InvariantError):
            ProbDist("ab", [0.6, 0.6])
        with pytest.raises(InvariantError):
            ProbDist("ab", [1.2, -0.2])
        # tiny negatives from float arithmetic are clamped
        p = ProbDist("ab", [1.0 + 1e-13, -1e-13])
        assert p.prob("b") == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prob_dist_rejects_non_finite(self, bad):
        with pytest.raises(InvariantError):
            ProbDist("abc", [1.0, bad, 0.0])

    def test_prob_dist_rejects_repeated_symbols(self):
        # prob("0") would read only the first of the two entries
        with pytest.raises(SchemaError, match="repeated symbol"):
            ProbDist(("0", "0", "1"), [0.25, 0.25, 0.5])


def _capacity(transition):
    res = classical_capacity_BA(transition)
    return res.value, res.upper, tuple(res.distribution.weights)


class TestTransitionRule:
    """Both consumers of a transition matrix give one verdict per matrix."""

    CONSUMERS = {
        "capacity": _capacity,
        "decoder": lambda t: classical_typical_decode_sim(
            t, ProbDist.uniform("01"), rate=0.1, n=4, delta=0.4, trials=5, seed=0),
    }

    @pytest.mark.parametrize("consumer", CONSUMERS.values(), ids=CONSUMERS.keys())
    @pytest.mark.parametrize("transition,error", [
        ([[np.nan, 1.0], [0.2, 0.8]], InvariantError),
        ([[np.inf, 0.0], [0.2, 0.8]], InvariantError),
        ([[1.0 + 1e-11, -1e-11], [0.2, 0.8]], InvariantError),
        ([[1.0 + 1e-13, -1e-13], [0.2, 0.8]], None),
        ([[0.5, 0.5 + 2 * DERIVED_SUM_TOL], [0.2, 0.8]], InvariantError),
        ([0.5, 0.5], SchemaError),
    ], ids=["nan", "inf", "negative", "tiny-negative", "row-sum-off", "vector"])
    def test_one_verdict(self, consumer, transition, error):
        if error is None:
            clipped = np.maximum(np.array(transition), 0.0)
            assert consumer(transition) == consumer(clipped)
        else:
            with pytest.raises(error):
                consumer(transition)


class TestGThermal:
    def test_zero(self):
        assert g_thermal(0.0) == 0.0

    def test_against_thermal_state_series(self):
        # direct spectrum: p_k = N^k / (N+1)^(k+1); truncate far into the tail
        for n in [0.1, 0.5, 1.0, 5.0]:
            k = np.arange(0, 3000)
            logp = k * np.log(n) - (k + 1) * np.log(n + 1.0)
            p = np.exp(logp)
            h = -np.sum(p * logp) / np.log(2.0)
            assert np.isclose(g_thermal(n), h, atol=1e-6)

    def test_monotone(self):
        xs = np.linspace(0.0, 10.0, 50)
        gs = [g_thermal(x) for x in xs]
        assert all(b > a for a, b in zip(gs, gs[1:]))

    def test_against_decimal_oracle(self):
        # (N+1) ln(N+1) - N ln N cancels all but ~100 of 400 digits at N = 1e300
        ctx = decimal.Context(prec=400)
        for n in np.geomspace(1e-12, 1e300, 60).tolist():
            big = decimal.Decimal(n)
            up = ctx.add(big, 1)
            nats = ctx.subtract(ctx.multiply(up, ctx.ln(up)), ctx.multiply(big, ctx.ln(big)))
            exact = ctx.divide(nats, ctx.ln(2))
            assert abs(g_thermal(n) - float(exact)) <= 1e-15 * float(exact)

    def test_large_photon_numbers(self):
        assert g_thermal(1e15) == pytest.approx(51.2716164641994, rel=1e-15)
        assert g_thermal(1e17) == pytest.approx(57.91547265397412, rel=1e-15)

    def test_subnormal_photon_number(self):
        # 1/N overflows here; g(N) ~ N (1 - ln N) / ln 2
        n = 1e-310
        assert g_thermal(n) == pytest.approx(n * (1 - np.log(n)) / np.log(2), rel=1e-12)


class TestLabeledCqState:
    def bb84_state(self, p0=0.5):
        table = {(0,): (p0, pure_state(KET0)), (1,): (1 - p0, pure_state(KET_PLUS))}
        return LabeledCqState([("X", (0, 1))], table, ("B",))

    def test_classical_marginal_entropy(self):
        st = self.bb84_state(0.6)
        assert np.isclose(st.entropy({"X"}), binary_entropy(0.6))

    def test_quantum_marginal_entropy_uniform_bb84(self):
        # avg of |0><0| and |+><+| has eigenvalues cos^2(pi/8), sin^2(pi/8)
        st = self.bb84_state(0.5)
        expect = binary_entropy(np.cos(np.pi / 8) ** 2)
        assert np.isclose(st.entropy({"B"}), expect, atol=1e-12)

    def test_joint_entropy_block_structure(self):
        # H(XB) = H(X) + sum_x p(x) H(rho_x); pure conditionals give H(X)
        st = self.bb84_state(0.3)
        assert np.isclose(st.entropy({"X", "B"}), binary_entropy(0.3), atol=1e-9)

    def test_holevo_uniform_bb84(self):
        st = self.bb84_state(0.5)
        chi = conditional_mutual_information(st, {"X"}, {"B"})
        assert np.isclose(chi, binary_entropy(np.cos(np.pi / 8) ** 2), atol=1e-12)

    def test_unknown_name_rejected(self):
        st = self.bb84_state()
        with pytest.raises(InvariantError):
            st.entropy({"Z"})

    def test_quantum_conditioning_rejected(self):
        st = self.bb84_state()
        with pytest.raises(InvariantError):
            conditional_mutual_information(st, {"B"}, {"X"})

    def test_probability_sum_checked(self):
        with pytest.raises(InvariantError):
            LabeledCqState(
                [("X", (0, 1))],
                {(0,): (0.7, pure_state(KET0)), (1,): (0.7, pure_state(KET1))},
                ("B",),
            )

    def test_non_finite_probability_rejected(self):
        with pytest.raises(InvariantError):
            LabeledCqState(
                [("X", (0, 1))],
                {(0,): (np.nan, pure_state(KET0)), (1,): (1.0, pure_state(KET1))},
                ("B",),
            )

    def test_symbol_outside_alphabet_rejected(self):
        with pytest.raises(InvariantError):
            LabeledCqState([("X", (0,))], {(1,): (1.0, pure_state(KET0))}, ("B",))

    @pytest.mark.parametrize("rest", [{}, {"1": (0.5, pure_state(KET0))}])
    def test_two_keys_naming_one_tuple_rejected(self, rest):
        # "0" and ("0",) both name the tuple ("0",), whose grid row holds one
        # state, whether or not the probabilities sum to 1
        with pytest.raises(InvariantError, match=r"tuple \('0',\) is listed twice"):
            LabeledCqState([("X", ("0", "1"))],
                           {"0": (0.5, pure_state(KET0)), ("0",): (0.5, pure_state(KET1)),
                            **rest}, ("B",))

    def test_two_quantum_parts_partial(self):
        rng = np.random.default_rng(23)
        r0, r1 = rand_two_part(rng, 2, 2), rand_two_part(rng, 2, 2)
        st = LabeledCqState(
            [("X", (0, 1))],
            {(0,): (0.5, r0), (1,): (0.5, r1)},
            ("B1", "B2"),
        )
        # H(B1) uses the partial trace of the averaged state
        avg = 0.5 * r0.entries + 0.5 * r1.entries
        avg_b1 = avg.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        expect = -sum(
            lam * np.log2(lam)
            for lam in np.linalg.eigvalsh(avg_b1)
            if lam > 1e-12
        )
        assert np.isclose(st.entropy({"B1"}), expect, atol=1e-12)


class TestInformationInequalities:
    def random_ccq(self, rng):
        # two classical bits, one qutrit
        table = {}
        probs = rng.dirichlet(np.ones(4))
        for idx, (x, y) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            table[(x, y)] = (probs[idx], rand_state(rng, 3))
        return LabeledCqState([("X", (0, 1)), ("Y", (0, 1))], table, ("B",))

    def test_cmi_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            st = self.random_ccq(rng)
            assert conditional_mutual_information(st, {"X"}, {"B"}, {"Y"}) >= -1e-9
            assert conditional_mutual_information(st, {"X"}, {"Y", "B"}) >= -1e-9

    def test_chain_rule(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            st = self.random_ccq(rng)
            lhs = conditional_mutual_information(st, {"X", "Y"}, {"B"})
            rhs = conditional_mutual_information(
                st, {"X"}, {"B"}
            ) + conditional_mutual_information(st, {"Y"}, {"B"}, {"X"})
            assert np.isclose(lhs, rhs, atol=1e-9)

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            st = self.random_ccq(rng)
            assert st.entropy({"B"}) + 1e-9 >= st.entropy({"X", "B"}) - st.entropy({"X"})

    def test_product_state_zero_information(self):
        rho = pure_state(np.array([1.0, 0.0, 0.0]))
        table = {
            (x, y): (0.25, rho)
            for x in (0, 1)
            for y in (0, 1)
        }
        st = LabeledCqState([("X", (0, 1)), ("Y", (0, 1))], table, ("B",))
        assert np.isclose(conditional_mutual_information(st, {"X"}, {"B"}), 0.0, atol=1e-12)
        assert np.isclose(conditional_mutual_information(st, {"X"}, {"Y"}), 0.0, atol=1e-12)


def all_subsets(names):
    return [
        set(s)
        for r in range(1, len(names) + 1)
        for s in itertools.combinations(names, r)
    ]


def product_tables(weights):
    """The tables of a product stack (``LabeledCqState.on_tables``), one
    per point in the C order of the registers' weight rows: the outer
    product of one row per register."""
    for rows in itertools.product(*weights):
        yield functools.reduce(np.multiply.outer, rows)


def dirichlet_rows(rng, size, zeros=()):
    """``size`` = (G, k) Dirichlet rows, entries ``zeros`` (row, column
    pairs) set to 0 and their rows renormalized."""
    w = rng.dirichlet(np.ones(size[1]), size=size[0])
    for g, a in zeros:
        w[g, a] = 0.0
    return w / w.sum(axis=1, keepdims=True)


class TestStackedParity:
    """The stacked kernel against the row loop in ``cq_loop``, to 1e-12."""

    def assert_matches_loop(self, registers, table, quantum_names):
        st = LabeledCqState(registers, table, quantum_names)
        names = [n for n, _ in registers] + list(quantum_names)
        for subset in all_subsets(names):
            expect = loop_entropy(registers, table, quantum_names, subset)
            assert abs(st.entropy(subset) - expect) <= 1e-12, subset

    def test_marton_joint_over_subset_of_pairs(self):
        rng = np.random.default_rng(3)
        pairs = [("0", "0"), ("0", "1"), ("1", "1")]
        probs = rng.dirichlet(np.ones(len(pairs)))
        table = {pair: (p, rand_two_part(rng, 2, 2)) for pair, p in zip(pairs, probs)}
        registers = [("U1", ("0", "1")), ("U2", ("0", "1"))]
        self.assert_matches_loop(registers, table, ("B1", "B2"))

    def test_relay_triples_with_zero_rows(self):
        rng = np.random.default_rng(5)
        triples = list(itertools.product("ab", "01", "01"))[:7]
        probs = rng.dirichlet(np.ones(len(triples)))
        probs[[1, 4]] = 0.0
        probs /= probs.sum()
        table = {t: (p, rand_two_part(rng, 2, 2)) for t, p in zip(triples, probs)}
        registers = [("U", ("a", "b")), ("X", ("0", "1")), ("X1", ("0", "1"))]
        self.assert_matches_loop(registers, table, ("B1", "B"))

    def test_group_with_zero_probability(self):
        rng = np.random.default_rng(7)
        keys = list(itertools.product((0, 1, 2), (0, 1)))
        probs = rng.dirichlet(np.ones(len(keys)))
        probs[[k for k, (x, _) in enumerate(keys) if x == 2]] = 0.0
        probs /= probs.sum()
        table = {key: (p, rand_state(rng, 3)) for key, p in zip(keys, probs)}
        registers = [("X", (0, 1, 2)), ("Y", (0, 1))]
        self.assert_matches_loop(registers, table, ("B",))

    def test_three_subsystems_reduced_over_middle(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(3))
        table = {}
        for x, p in enumerate(probs):
            g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            m = g @ g.conj().T
            table[(x,)] = (p, DensityMatrix(m / np.trace(m).real, (2, 3, 2)))
        registers = [("X", (0, 1, 2))]
        names = ("A", "M", "C")
        st = LabeledCqState(registers, table, names)
        for subset in ({"A", "C"}, {"X", "A", "C"}):
            expect = loop_entropy(registers, table, names, subset)
            assert abs(st.entropy(subset) - expect) <= 1e-12
        self.assert_matches_loop(registers, table, names)

    def test_stacked_tables_match_one_table_at_a_time(self):
        rng = np.random.default_rng(13)
        keys = list(itertools.product((0, 1), (0, 1, 2)))
        states = {key: rand_two_part(rng, 2, 2) for key in keys}
        registers = [("X", (0, 1)), ("Y", (0, 1, 2))]
        names = ("B1", "B2")
        weights = [dirichlet_rows(rng, (3, 2), zeros=[(1, 0)]),
                   dirichlet_rows(rng, (2, 3), zeros=[(0, 0), (0, 2)])]
        st = LabeledCqState(
            registers, {key: (1 / 6, rho) for key, rho in states.items()}, names
        )
        stacked_st = st.on_tables(weights)
        tables = list(product_tables(weights))
        for subset in all_subsets(["X", "Y", "B1", "B2"]):
            stacked = stacked_st.entropy(subset)
            assert stacked.shape == (len(tables),)
            for g, probs in enumerate(tables):
                table = {key: (probs[key], rho) for key, rho in states.items()}
                expect = loop_entropy(registers, table, names, subset)
                assert abs(stacked[g] - expect) <= 1e-12, (subset, g)

    def test_three_register_product_stack_matches_loop(self):
        # unequal alphabets and stack sizes, mixed two-part outputs, and
        # zero weights on some axis entries, over every subset
        rng = np.random.default_rng(23)
        registers = [("U", ("a", "b", "c")), ("X", (0, 1)), ("Y", (0, 1, 2, 3))]
        names = ("B1", "B2")
        keys = list(itertools.product(*(a for _, a in registers)))
        states = {key: rand_two_part(rng, 2, 3) for key in keys}
        # X's rows sum to 0.5, 1 and 2: each group's block is normalized by
        # its own weight, in the loop as by the dropped sums on the stack
        weights = [dirichlet_rows(rng, (2, 3), zeros=[(1, 1)]),
                   dirichlet_rows(rng, (3, 2), zeros=[(2, 0)]) * [[0.5], [1.0], [2.0]],
                   dirichlet_rows(rng, (4, 4), zeros=[(0, 3), (3, 0), (3, 2)])]
        st = LabeledCqState(
            registers, {key: (1 / len(keys), rho) for key, rho in states.items()}, names
        ).on_tables(weights)
        tables = [{key: (p, states[key]) for key, p in zip(keys, probs.reshape(-1))}
                  for probs in product_tables(weights)]
        assert len(tables) == 2 * 3 * 4
        for subset in all_subsets(["U", "X", "Y", "B1", "B2"]):
            got = st.entropy(subset)
            for g, table in enumerate(tables):
                expect = loop_entropy(registers, table, names, subset)
                assert abs(got[g] - expect) <= 1e-12, (subset, g)

    def test_product_stack_on_a_permuted_grid_matches_loop(self):
        # a cmg state keeps its grid axes in sampling order (Q W1 W2 X1 X2),
        # not register order (Q W1 X1 W2 X2); the stack is in register order
        ch = theta_swap(1.2)
        bits = ("0", "1")
        u = ProbDist.uniform(bits)
        dist = CodeDistribution.cmg(u, {q: u for q in bits}, {q: u for q in bits},
                                    {wq: u for wq in itertools.product(bits, bits)},
                                    {wq: u for wq in itertools.product(bits, bits)})
        st = joint_state(ch, dist)
        assert st._axes != tuple(range(5))
        rng = np.random.default_rng(29)
        weights = [dirichlet_rows(rng, (n, 2), zeros=z)
                   for n, z in ((1, ()), (2, [(1, 0)]), (1, ()), (2, ()), (1, [(0, 1)]))]
        registers = list(st.registers)
        keys = list(itertools.product(bits, repeat=5))
        stacked = st.on_tables(weights)
        tables = [{key: (p, ch.output(key[2], key[4])) for key, p in zip(keys, probs.reshape(-1))}
                  for probs in product_tables(weights)]
        for subset in all_subsets(["Q", "W1", "X1", "W2", "X2", "B1", "B2"]):
            got = stacked.entropy(subset)
            for g, table in enumerate(tables):
                expect = loop_entropy(registers, table, ch.output_names, subset)
                assert abs(got[g] - expect) <= 1e-12, (subset, g)


class TestOneRowGroups:
    """Subsets holding every register group one row each; their entropy is
    H(p) + sum_row p(row) H(rho_row), against the row loop in ``cq_loop``,
    which diagonalizes p rho / p, on a two-sender channel with mixed outputs."""

    registers = [("X1", ("0", "1", "2")), ("X2", ("0", "1"))]
    names = ("B1", "B2")
    one_row = [{"X1", "X2"} | s for s in all_subsets(["B1", "B2"])]

    def channel(self):
        rng = np.random.default_rng(17)
        keys = itertools.product(*(a for _, a in self.registers))
        return CqChannel([a for _, a in self.registers],
                         {key: rand_two_part(rng, 2, 2) for key in keys}, self.names)

    def table(self, ch, probs):
        keys = itertools.product(*(a for _, a in self.registers))
        return {key: (p, ch.outputs[key]) for key, p in zip(keys, probs.reshape(-1))}

    def test_single_states_match_loop(self):
        ch = self.channel()
        p1 = ProbDist(("0", "1", "2"), [0.5, 0.0, 0.5])
        p2 = ProbDist(("0", "1"), [0.3, 0.7])
        grid = joint_state(ch, CodeDistribution.mac(p1, p2))
        table = self.table(ch, np.outer(p1.weights, p2.weights))
        from_dict = LabeledCqState(self.registers, table, self.names)
        for subset in self.one_row:
            expect = loop_entropy(self.registers, table, self.names, subset)
            assert abs(grid.entropy(subset) - expect) <= 1e-12, subset
            assert abs(from_dict.entropy(subset) - expect) <= 1e-12, subset

    def test_stacks_with_zero_rows_match_loop(self, monkeypatch):
        ch = self.channel()
        uniform = [ProbDist.uniform(a) for _, a in self.registers]
        st = joint_state(ch, CodeDistribution.mac(*uniform))
        rng = np.random.default_rng(19)
        weights = [dirichlet_rows(rng, (3, 3), zeros=[(1, 0), (2, 0), (2, 1)]),
                   dirichlet_rows(rng, (2, 2), zeros=[(1, 1)])]
        stacked = st.on_tables(weights)
        for subset in self.one_row:
            got = stacked.entropy(subset)
            for g, probs in enumerate(product_tables(weights)):
                table = self.table(ch, probs)
                expect = loop_entropy(self.registers, table, self.names, subset)
                assert abs(got[g] - expect) <= 1e-12, (subset, g)
        # the rows' entropies are kept by the state every stack shares
        solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(1) or real(m))
        for subset in self.one_row:
            st.on_tables([w[::-1] for w in weights]).entropy(subset)
        assert not solves


class TestEntropyMemo:
    def test_kept_values_equal_a_fresh_state(self, monkeypatch):
        rng = np.random.default_rng(14)
        keys = list(itertools.product((0, 1), (0, 1, 2)))
        weights = rng.dirichlet(np.ones(len(keys)))
        table = {key: (w, rand_two_part(rng, 2, 2)) for key, w in zip(keys, weights)}
        args = ([("X", (0, 1)), ("Y", (0, 1, 2))], table, ("B1", "B2"))
        subsets = all_subsets(["X", "Y", "B1", "B2"])
        st = LabeledCqState(*args)
        first = [st.entropy(subset) for subset in subsets]
        solves = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(1) or real(m))
        again = [st.entropy(subset) for subset in reversed(subsets)][::-1]
        assert not solves
        monkeypatch.undo()
        fresh = [LabeledCqState(*args).entropy(subset) for subset in subsets]
        assert first == again == fresh

    @pytest.mark.parametrize("stacked", [False, True])
    def test_classical_part_kept_on_the_way_is_exact(self, monkeypatch, stacked):
        rng = np.random.default_rng(15)
        keys = list(itertools.product((0, 1), (0, 1, 2)))
        weights = rng.dirichlet(np.ones(len(keys)))
        table = {key: (w, rand_two_part(rng, 2, 2)) for key, w in zip(keys, weights)}
        args = ([("X", (0, 1)), ("Y", (0, 1, 2))], table, ("B1", "B2"))
        stack = [dirichlet_rows(rng, (2, 2), zeros=[(1, 0)]), dirichlet_rows(rng, (2, 3))]

        def state():
            st = LabeledCqState(*args)
            return st.on_tables(stack) if stacked else st

        subsets = all_subsets(["X", "Y", "B1", "B2"])
        classical = [s for s in subsets if not s & {"B1", "B2"}]
        st = state()
        for subset in subsets:
            if subset & {"B1", "B2"}:
                st.entropy(subset)
        calls = []
        real_eig, real_group = np.linalg.eigvalsh, LabeledCqState._group_slots
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or real_eig(m))
        monkeypatch.setattr(LabeledCqState, "_group_slots",
                            lambda self, c: calls.append(c) or real_group(self, c))
        kept = [st.entropy(subset) for subset in classical]
        assert not calls
        monkeypatch.undo()
        fresh = [state().entropy(subset) for subset in classical]
        if stacked:
            assert [h.tobytes() for h in kept] == [h.tobytes() for h in fresh]
        else:
            assert kept == fresh and all(type(h) is float for h in kept)
