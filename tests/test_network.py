import itertools
import json
import math
import re
from pathlib import Path

import joint_loop
import numpy as np
import pytest
from cq_loop import loop_cmi, loop_entropy

from qnetcap import network
from qnetcap.channels import CqChannel, SchemaError, bb84_qmac, builtin, theta_swap
from qnetcap.entropic import (
    LabeledCqState,
    ProbDist,
    binary_entropy,
    conditional_mutual_information,
    holevo_information,
)
from qnetcap.errors import SUPPORT_RELATIVE_CUTOFF
from qnetcap.network import (
    CodeDistribution,
    classical_capacity_BA,
    cmg_informations,
    cmg_region,
    cmg_region_via_projection,
    hk_region,
    hsw_capacity,
    joint_state,
    mac_region,
    mac_region_union,
    marton_region,
    random_cmg_distribution,
    random_hk_distribution,
    random_marton_distribution,
    random_relay_distribution,
    random_superposition_distribution,
    relay_df_rate,
    relay_pdf_rate,
    sato_outer,
    si_capacity,
    simplex_grid,
    successive_decoding_corners,
    superposition_region,
    vsi_capacity,
    vsi_check,
)
from qnetcap.qstate import DensityMatrix, InvariantError, partial_trace, pure_state
from qnetcap.regions import boundary_sample, polymatroid_slacks

H_BB84 = binary_entropy(np.cos(np.pi / 8) ** 2)  # ~0.6009

UNIF2 = ProbDist(("0", "1"), [0.5, 0.5])


def uniform_no_ts():
    return CodeDistribution.no_time_share(UNIF2, UNIF2)


def hk_assignment(ch, personal1, personal2, p1, p2):
    """HK distribution with each sender all-personal or all-common."""
    a1, a2 = ch.input_alphabets
    q = ProbDist(("0",), [1.0])
    one = ProbDist(("0",), [1.0])

    def side(personal, alphabet, p):
        if personal:
            u = {"0": p}
            w = {"0": one}
            f = {(s, "0"): s for s in alphabet}
        else:
            u = {"0": one}
            w = {"0": p}
            f = {("0", s): s for s in alphabet}
        return u, w, f

    u1, w1, f1 = side(personal1, a1, p1)
    u2, w2, f2 = side(personal2, a2, p2)
    return CodeDistribution.hk(q, u1, u2, w1, w2, f1, f2, a1, a2)


def cmg_from_hk(dist):
    """Fold the personal register into X: p(x|w,q) = sum over u with
    f(u,w) = x."""
    q = dist.parts["Q"]
    out_w1, out_w2, out_x1, out_x2 = {}, {}, {}, {}
    for side, (ukey, wkey, fkey, xdict, wdict) in {
        1: ("U1|Q", "W1|Q", "f1", out_x1, out_w1),
        2: ("U2|Q", "W2|Q", "f2", out_x2, out_w2),
    }.items():
        f = dist.maps[fkey]
        xa = tuple(dict.fromkeys(f.values()))
        for qs in q.symbols:
            pu = dist.parts[ukey][qs]
            pw = dist.parts[wkey][qs]
            wdict[qs] = pw
            for w in pw.symbols:
                weights = {x: 0.0 for x in xa}
                for u in pu.symbols:
                    weights[f[(u, w)]] += pu.prob(u)
                xdict[(w, qs)] = ProbDist(xa, [weights[x] for x in xa])
    return CodeDistribution.cmg(q, out_w1, out_w2, out_x1, out_x2)


class TestSimplexGrid:
    def test_counts_and_sums(self):
        pts = list(simplex_grid(2, 21))
        assert len(pts) == 21
        assert all(np.isclose(p.sum(), 1.0) for p in pts)
        pts3 = list(simplex_grid(3, 5))
        assert len(pts3) == 15  # C(4+2, 2)

    def test_contains_uniform_for_odd(self):
        pts = list(simplex_grid(2, 21))
        assert any(np.allclose(p, [0.5, 0.5]) for p in pts)

    @pytest.mark.parametrize("k, resolution", [(1, 5), (2, 2), (2, 21), (3, 11), (5, 6)])
    def test_points_equal_a_per_point_build(self, k, resolution):
        # the former generator: each point from its k - 1 cuts, one at a time
        steps = resolution - 1
        expect = []
        for cuts in itertools.combinations(range(steps + k - 1), k - 1):
            parts, prev = [], -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(steps + k - 2 - prev)
            expect.append(np.array(parts, dtype=float) / steps)
        got = simplex_grid(k, resolution)
        assert got.shape == (len(expect), k)
        assert got.tobytes() == np.array(expect).tobytes()

    @pytest.mark.parametrize("resolution", [11.5, "11", None])
    def test_rejects_a_resolution_that_is_not_whole(self, resolution):
        with pytest.raises(SchemaError, match="grid resolution must be a whole number"):
            simplex_grid(2, resolution)

    def test_reads_a_whole_float_resolution_as_its_int(self):
        assert simplex_grid(2, 11.0).tobytes() == simplex_grid(2, 11).tobytes()

    def test_grid_pairs_read_any_iterable_of_rows(self, monkeypatch):
        # a grid handed over one row at a time gives the same chunks
        def chunks():
            return [(o.tobytes(), i.tobytes()) for o, i in network._grid_pairs(3, 2, 11)]

        stacked = chunks()
        real = network.simplex_grid
        monkeypatch.setattr(network, "simplex_grid", lambda k, r: iter(list(real(k, r))))
        assert chunks() == stacked


class TestBlahutArimoto:
    def test_z_channel(self):
        c, p = classical_capacity_BA([[1.0, 0.0], [0.5, 0.5]])
        assert np.isclose(c, binary_entropy(0.2) - 0.4, atol=1e-6)
        assert np.isclose(p.weights[0], 0.6, atol=1e-4)

    def test_bsc(self):
        q = np.sin(np.pi / 8) ** 2
        c, p = classical_capacity_BA([[1 - q, q], [q, 1 - q]])
        assert np.isclose(c, 1.0 - binary_entropy(q), atol=1e-6)
        assert np.isclose(p.weights[0], 0.5, atol=1e-4)

    def test_noiseless(self):
        c, p = classical_capacity_BA(np.eye(3))
        assert np.isclose(c, np.log2(3), atol=1e-6)
        assert np.allclose(p.weights, 1 / 3, atol=1e-4)

    def test_argmax_achieves_capacity(self):
        rng = np.random.default_rng(11)
        t = rng.dirichlet(np.ones(4), size=3)
        c, p = classical_capacity_BA(t)

        def mi(r):
            qbar = r @ t
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = t * (np.log2(t / qbar[None, :]))
            return float(np.nansum(r[:, None] * contrib))

        assert np.isclose(mi(p.weights), c, atol=1e-6)
        for _ in range(20):
            assert mi(rng.dirichlet(np.ones(3))) <= c + 1e-6

    def test_bad_rows_rejected(self):
        with pytest.raises(InvariantError):
            classical_capacity_BA([[0.5, 0.2], [0.5, 0.5]])

    def test_certificate(self):
        exact = binary_entropy(0.2) - 0.4
        done = classical_capacity_BA([[1.0, 0.0], [0.5, 0.5]])
        assert done.converged and done.upper - done.value < 1e-9
        assert done.value <= exact + 1e-12 and exact <= done.upper + 1e-12
        cut = classical_capacity_BA([[1.0, 0.0], [0.5, 0.5]], max_iter=3)
        assert not cut.converged and cut.iterations == 3
        assert cut.value <= exact <= cut.upper
        assert cut.upper - cut.value > 1e-3

    def test_negative_max_iter_rejected(self):
        with pytest.raises(SchemaError):
            classical_capacity_BA(np.eye(2), max_iter=-1)


class TestHswCapacity:
    def test_bb84(self):
        c, p = hsw_capacity(builtin("bb84_p2p"))
        assert np.isclose(c, H_BB84, atol=1e-6)
        assert np.isclose(p.weights[0], 0.5, atol=1e-3)

    def test_identical_outputs(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex), (2,))
        ch = CqChannel((("0", "1"),), {("0",): rho, ("1",): rho})
        c, _ = hsw_capacity(ch)
        assert np.isclose(c, 0.0, atol=1e-9)

    def test_matches_ba_on_embedded_classical(self):
        rng = np.random.default_rng(13)
        t = rng.dirichlet(np.ones(3), size=3)
        outputs = {
            (str(x),): DensityMatrix(np.diag(t[x]).astype(complex), (3,))
            for x in range(3)
        }
        ch = CqChannel((("0", "1", "2"),), outputs)
        c_ba, _ = classical_capacity_BA(t)
        c_hsw, _ = hsw_capacity(ch)
        assert np.isclose(c_hsw, c_ba, atol=1e-4)

    @pytest.mark.parametrize("name", [
        "bb84_p2p", "trine", "bb84_four", "qutrit_mub", "embedded_classical",
        "qutrit_random_0", "qutrit_random_1", "qutrit_random_2",
    ])
    def test_certificate(self, name):
        ch = HSW_SETS[name]()
        alphabet = ch.input_alphabets[0]
        res = hsw_capacity(ch)
        assert res.converged and res.upper - res.value <= 1e-9
        st = joint_state(ch, CodeDistribution.p2p(ProbDist.uniform(alphabet)))
        b = set(ch.output_names)
        chi = conditional_mutual_information(
            st.on_tables([res.distribution.weights[None]]), {"X"}, b)
        assert abs(res.value - chi[0]) <= 1e-12
        grid = simplex_grid(len(alphabet), 11)
        best = conditional_mutual_information(st.on_tables([grid]), {"X"}, b).max()
        assert res.value >= best - 1e-9

    def test_bb84_value(self):
        assert abs(hsw_capacity(builtin("bb84_p2p")).value - 0.600876036692856) <= 1e-12

    @pytest.mark.parametrize("name", ["qutrit_mub", "qutrit_random_0"])
    def test_global_unitary_invariance(self, name):
        ch = HSW_SETS[name]()
        base = hsw_capacity(ch)
        for seed in range(3):
            u = random_unitary(3, seed)
            turned = hsw_capacity(rotated(ch, u))
            assert abs(turned.value - base.value) <= 1e-12
            assert abs(turned.iterations - base.iterations) <= 1

    def test_tight_boundary_reports_certificate(self):
        ch = state_set([[1, 0], [1, 1], [0, 1]])  # |0>, |+>, |1>: C = 1
        res = hsw_capacity(ch)
        assert res.value <= 1.0 <= res.upper
        assert res.converged == (res.upper - res.value < 1e-9)
        assert res.converged or res.iterations == 20000
        cut = hsw_capacity(ch, max_iter=10)
        assert not cut.converged and cut.iterations == 10
        assert cut.value <= 1.0 <= cut.upper

    @pytest.mark.parametrize("seed", [None, 4])
    def test_rank_deficient_sigma(self, seed):
        # the two BB84 states inside a qutrit, as they are (sigma has an
        # exact zero eigenvalue) or rotated (a roundoff one); without the
        # support cutoff, log2 of either turns the iteration into NaN
        u = np.eye(3) if seed is None else random_unitary(3, seed)
        outputs = {}
        for x, v in (("0", [1, 0, 0]), ("1", [1, 1, 0])):
            w = u @ np.array(v, dtype=complex)
            outputs[(x,)] = pure_state(w / np.linalg.norm(w))
        ch = CqChannel((("0", "1"),), outputs)
        sigma = sum(rho.entries for rho in outputs.values()) / 2
        w = np.linalg.eigvalsh(sigma)
        assert w[0] <= SUPPORT_RELATIVE_CUTOFF * w[-1]
        res = hsw_capacity(ch)
        assert res.converged and abs(res.value - H_BB84) <= 1e-12
        assert abs(res.upper - H_BB84) <= 1e-9

    def test_result_unpacks_as_pair(self):
        res = hsw_capacity(builtin("bb84_p2p"))
        c, p = res
        assert (c, p) == (res[0], res[1]) == (res.value, res.distribution)

    def test_grid_resolution_has_no_effect(self):
        ch = trine_channel()
        with pytest.warns(DeprecationWarning, match="grid_resolution"):
            old = hsw_capacity(ch, grid_resolution=11)
        new = hsw_capacity(ch)
        assert old.value == new.value and old.iterations == new.iterations


class TestMacRegion:
    def test_bb84_qmac_pentagon(self):
        region = mac_region(builtin("bb84_qmac"), UNIF2, UNIF2)
        bounds = {tuple(c): b for c, b in region.inequalities}
        assert np.isclose(bounds[(1.0, 0.0)], H_BB84, atol=1e-9)
        assert np.isclose(bounds[(0.0, 1.0)], H_BB84, atol=1e-9)
        assert np.isclose(bounds[(1.0, 1.0)], 1.0, atol=1e-9)

    def test_point_mass_degenerate(self):
        region = mac_region(
            builtin("bb84_qmac"), UNIF2, ProbDist(("0", "1"), [1.0, 0.0])
        )
        bounds = {tuple(c): b for c, b in region.inequalities}
        assert bounds[(0.0, 1.0)] == 0.0

    def test_corner_on_sum_facet(self):
        rng = np.random.default_rng(17)
        ch = builtin("bb84_qmac")
        for _ in range(5):
            p1 = ProbDist(("0", "1"), rng.dirichlet([1, 1]))
            p2 = ProbDist(("0", "1"), rng.dirichlet([1, 1]))
            st = joint_state(ch, CodeDistribution.mac(p1, p2))
            i1 = conditional_mutual_information(st, {"X1"}, {"B"})
            i2c = conditional_mutual_information(st, {"X2"}, {"B"}, {"X1"})
            i12 = conditional_mutual_information(st, {"X1", "X2"}, {"B"})
            assert np.isclose(i1 + i2c, i12, atol=1e-9)

    def test_union_contains_members_and_uniform(self):
        ch = builtin("bb84_qmac")
        union = mac_region_union(ch, grid=5)
        member = mac_region(ch, UNIF2, UNIF2)
        for (_, r1, r2), (_, m1, m2) in zip(
            union, boundary_sample(member, 61), strict=True
        ):
            assert np.hypot(r1, r2) >= np.hypot(m1, m2) - 1e-9

    def test_union_rejects_a_grid_below_3(self, monkeypatch):
        # grid 2 visits only deterministic inputs: its union was 0 in every
        # direction, where grid 3 reaches 0.6009
        monkeypatch.setattr(network, "joint_state", lambda *args: pytest.fail("state built"))
        with pytest.raises(SchemaError, match="grid 2 < 3"):
            mac_region_union(builtin("bb84_qmac"), grid=2)

    @pytest.mark.parametrize("sweep", [mac_region_union, vsi_check])
    @pytest.mark.parametrize("grid", [11.5, "11", None])
    def test_sweeps_reject_a_grid_that_is_not_whole(self, sweep, grid):
        # the value as written: the string "11" reads '11', not 11
        with pytest.raises(SchemaError, match=re.escape(f"grid must be a whole number, got {grid!r}")):
            sweep(builtin("bb84_qmac"), grid=grid)

    @pytest.mark.parametrize("sweep", [mac_region_union, vsi_check])
    def test_sweeps_read_a_whole_float_grid_as_its_int(self, sweep):
        ch = theta_swap(1.2)
        assert repr(sweep(ch, grid=5.0)) == repr(sweep(ch, grid=5))

    def test_union_monotone_in_grid(self):
        ch = builtin("bb84_qmac")
        coarse = mac_region_union(ch, grid=3)
        fine = mac_region_union(ch, grid=5)
        for (_, a1, a2), (_, b1, b2) in zip(coarse, fine):
            assert np.hypot(b1, b2) >= np.hypot(a1, a2) - 1e-9


class TestThetaSwapClosedForms:
    """The interference-channel entropies of the swap interaction have
    closed forms; the generic state machinery must reproduce them."""

    @pytest.mark.parametrize("theta", [1.2, 2.0])
    def test_entropy_formulas(self, theta):
        rng = np.random.default_rng(23)
        ch = builtin(f"theta_swap({theta})")
        c2 = np.cos(theta) ** 2
        s2 = np.sin(theta) ** 2
        for _ in range(3):
            a1, b1_ = rng.dirichlet([1, 1])
            a2, b2_ = rng.dirichlet([1, 1])
            p1 = ProbDist(("0", "1"), [a1, b1_])
            p2 = ProbDist(("0", "1"), [a2, b2_])
            st = joint_state(ch, CodeDistribution.mac(p1, p2))
            h = st.entropy
            # output entropy of each receiver
            assert np.isclose(
                h({"B1"}),
                binary_entropy(a1 + (b1_ * a2 - a1 * b2_) * s2),
                atol=1e-9,
            )
            assert np.isclose(
                h({"B2"}),
                binary_entropy(a2 + (a1 * b2_ - b1_ * a2) * s2),
                atol=1e-9,
            )
            # conditioned on both inputs the two outputs are equally mixed
            mix = (a1 * b2_ + b1_ * a2) * binary_entropy(c2)
            assert np.isclose(h({"X1", "X2", "B1"}) - h({"X1", "X2"}), mix, atol=1e-9)
            assert np.isclose(h({"X1", "X2", "B2"}) - h({"X1", "X2"}), mix, atol=1e-9)
            # cross-conditioned output entropies
            assert np.isclose(
                h({"X1", "B2"}) - h({"X1"}),
                a1 * binary_entropy(b2_ * c2) + b1_ * binary_entropy(a2 * c2),
                atol=1e-9,
            )
            assert np.isclose(
                h({"X2", "B1"}) - h({"X2"}),
                a2 * binary_entropy(b1_ * c2) + b2_ * binary_entropy(a1 * c2),
                atol=1e-9,
            )


class TestVsi:
    def test_window(self):
        assert vsi_check(builtin("theta_swap(1.5)"), grid=9)
        assert not vsi_check(builtin("theta_swap(0.5)"), grid=9)

    def test_product_channel_fails(self):
        # both outputs carry only the own sender's symbol: cross info is 0
        zero = np.zeros(4)
        vecs = {}
        for x1 in "01":
            for x2 in "01":
                v = np.zeros(2)
                v[int(x1)] = 1.0
                w = np.zeros(2)
                w[int(x2)] = 1.0
                vecs[(x1, x2)] = np.kron(v, w)
        table = {
            k: DensityMatrix(np.outer(v, v).astype(complex), (2, 2))
            for k, v in vecs.items()
        }
        ch = CqChannel((("0", "1"), ("0", "1")), table, output_names=("B1", "B2"))
        assert not vsi_check(ch, grid=5)

    def test_full_swap_capacity_vanishes(self):
        region = vsi_capacity(builtin(f"theta_swap({np.pi / 2})"), uniform_no_ts())
        for _, b in region.inequalities:
            assert b < 1e-6

    def test_vsi_inside_si_inside_mac(self):
        ch = builtin("theta_swap(1.5)")
        dist = uniform_no_ts()
        vsi = vsi_capacity(ch, dist)
        si = si_capacity(ch, dist)
        for _, r1, r2 in boundary_sample(vsi, 17):
            assert si.contains([r1, r2], tol=1e-7)
        # strong-interference region sits inside each receiver's MAC region
        for keep in (0, 1):
            sub = CqChannel(ch.input_alphabets,
                            {k: partial_trace(rho, [keep]) for k, rho in ch.outputs.items()})
            mac = mac_region(sub, UNIF2, UNIF2)
            for _, r1, r2 in boundary_sample(si, 17):
                assert mac.contains([r1, r2], tol=1e-7)

    def test_sato_sum_uses_joint_output(self):
        ch = builtin("theta_swap(1.5)")
        dist = uniform_no_ts()
        sato = sato_outer(ch, dist)
        si = si_capacity(ch, dist)
        sum_of = lambda reg: {tuple(c): b for c, b in reg.inequalities}[(1.0, 1.0)]
        assert sum_of(sato) >= sum_of(si) - 1e-9
        # the joint output of a unitary encoding of (x1, x2) holds ~2 bits,
        # far above each single-receiver sum
        assert sum_of(sato) > sum_of(si) + 0.1

    def test_time_sharing_mixes_rectangles(self):
        ch = builtin("theta_swap(1.5)")
        q = ProbDist(("0", "1"), [0.5, 0.5])
        skew1 = ProbDist(("0", "1"), [0.9, 0.1])
        skew2 = ProbDist(("0", "1"), [0.1, 0.9])
        dist = CodeDistribution.coded_time_share(
            q, {"0": skew1, "1": skew2}, {"0": skew2, "1": skew1}
        )
        mixed = vsi_capacity(ch, dist)
        r0 = vsi_capacity(ch, CodeDistribution.no_time_share(skew1, skew2))
        r1 = vsi_capacity(ch, CodeDistribution.no_time_share(skew2, skew1))
        bound = lambda reg, i: {tuple(c): b for c, b in reg.inequalities}[
            (1.0, 0.0) if i == 0 else (0.0, 1.0)
        ]
        # conditioning on Q averages the two assignments' bounds
        assert np.isclose(
            bound(mixed, 0), 0.5 * (bound(r0, 0) + bound(r1, 0)), atol=1e-9
        )


class TestHkRegion:
    def test_trivial_registers_give_rectangle(self):
        ch = builtin("bb84_qmac")
        dist = hk_assignment(ch, True, True, UNIF2, UNIF2)
        region = hk_region(ch, dist)
        st = joint_state(ch, CodeDistribution.mac(UNIF2, UNIF2))
        i1 = conditional_mutual_information(st, {"X1"}, {"B"})
        i2 = conditional_mutual_information(st, {"X2"}, {"B"})
        assert region.contains([i1 - 1e-9, i2 - 1e-9])
        assert not region.contains([i1 + 1e-6, i2 + 1e-6])

    def test_all_common_reaches_strong_interference_sums(self):
        ch = builtin("theta_swap(1.5)")
        dist = hk_assignment(ch, False, False, UNIF2, UNIF2)
        region = hk_region(ch, dist)
        st = joint_state(ch, CodeDistribution.mac(UNIF2, UNIF2))
        s1 = conditional_mutual_information(st, {"X1", "X2"}, {"B1"})
        s2 = conditional_mutual_information(st, {"X1", "X2"}, {"B2"})
        cap = min(s1, s2)
        sums = [
            b for c, b in region.inequalities if np.allclose(c, [1, 1])
        ]
        assert np.isclose(min(sums), cap, atol=1e-9)

    def test_each_distinct_term_evaluated_once(self, monkeypatch):
        real, calls = network.conditional_mutual_information, []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "conditional_mutual_information", counted)
        ch = theta_swap(1.2)
        hk_region(ch, random_hk_distribution(ch, 0))
        assert len(calls) == len(set(calls)) == 10

    def test_each_distinct_entropy_diagonalized_once(self, monkeypatch):
        real_cmi, terms = network.conditional_mutual_information, []

        def recorded(st, a, b, c=()):
            terms.append((st, set(a), set(b), set(c)))
            return real_cmi(st, a, b, c)

        real_eig, solves = np.linalg.eigvalsh, []

        def counted(m):
            # the number of matrices in one call
            solves.append(math.prod(np.shape(m)[:-2]))
            return real_eig(m)

        def quantum(recorded):
            # B holds the quantum outputs: H(BC) and H(ABC) need an eigensolve
            return {frozenset(s) for _, a, b, c in recorded for s in (b | c, a | b | c)}

        ch, qmac = theta_swap(1.2), bb84_qmac()
        # on bb84_qmac both receivers read B, so corner and sum terms repeat
        cases = [
            (hk_region, ch, random_hk_distribution(ch, 0)),
            (si_capacity, qmac, uniform_no_ts()),
            (successive_decoding_corners, qmac, UNIF2, UNIF2),
        ]
        # the grid sweeps run in several chunks, one product stack each
        inside, outside = theta_swap(1.5), theta_swap(0.5)
        sweeps = [
            (vsi_check, inside, 11, True),
            (mac_region_union, qmac, 11, None),
            # grid 3: the first chunk's first (own, cross) pair already fails
            (vsi_check, outside, 3, False),
        ]
        monkeypatch.setattr(network, "conditional_mutual_information", recorded)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(network, "_GRID_CHUNK", 7)
        for region, *args in cases:
            terms.clear()
            solves.clear()
            region(*args)
            assert len(solves) == len(quantum(terms)) < 2 * len(terms)
        per_chunk = {}
        for sweep, sweep_ch, grid, verdict in sweeps:
            terms.clear()
            solves.clear()
            result = sweep(sweep_ch, grid=grid)
            chunks = {}
            for term in terms:
                chunks.setdefault(id(term[0]), []).append(term)
            subsets = [quantum(chunk) for chunk in chunks.values()]
            alphabets = dict(zip(("X1", "X2"), map(len, sweep_ch.input_alphabets)))
            pairs = network._grid_pairs(*alphabets.values(), grid)
            # the rule: a subset keeping registers K is G_D x groups matrices
            # per chunk, G_D the product of the dropped registers' point
            # counts and groups that of the kept alphabets; one keeping
            # every register reads the rows' entropies, diagonalized once
            # per sweep, one matrix per row
            rows = math.prod(alphabets.values())
            one_row = {s for s in subsets[0] if set(alphabets) <= s}
            assert one_row
            expect = len(one_row) * rows
            for subset, (outer, inner) in zip(subsets, pairs):
                sizes = dict(zip(alphabets, (len(outer), len(inner))))
                for s in subset - one_row:
                    expect += math.prod(alphabets[r] if r in s else sizes[r] for r in alphabets)
            assert sum(solves) == expect
            # one eigvalsh call per distinct subset, rows once per sweep
            assert len(solves) == len(one_row) + sum(len(s - one_row) for s in subsets)
            if verdict is False:
                # stopped in its first chunk, after the first pair's subsets
                assert result is False and len(chunks) == 1 and len(terms) == 2
                assert subsets[0] < per_chunk[vsi_check]
                continue
            total = len(list(network._grid_pairs(*alphabets.values(), grid)))
            assert len(chunks) == total > 1 and subsets == [subsets[0]] * total
            assert len(subsets[0]) < 2 * len(terms) // total
            assert verdict is None or result is verdict
            per_chunk[sweep] = subsets[0]

    def test_vsi_sweep_matrix_count_is_pinned(self, monkeypatch):
        real_eig, solves = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(
            math.prod(np.shape(m)[:-2])) or real_eig(m))
        assert vsi_check(theta_swap(1.5), grid=11)
        # the channel's four outputs are checked on construction; one chunk
        # of 11 x 11 points: H(B1) and H(B2) at all 121 points, H(X1 B2) and
        # H(X2 B1) at 11 settings of the dropped sender x 2 groups, and
        # H(X1 X2 B1), H(X1 X2 B2) once per row
        assert sum(solves) == 4 + 2 * 121 + 2 * 11 * 2 + 2 * 4 == 298
        assert len(solves) == 10

    def test_contains_successive_decoding_corners(self):
        ch = builtin("theta_swap(1.2)")
        corners = successive_decoding_corners(ch, UNIF2, UNIF2)
        regions = [
            hk_region(ch, hk_assignment(ch, per1, per2, UNIF2, UNIF2))
            for per1 in (True, False)
            for per2 in (True, False)
        ]
        for name, point in corners.items():
            assert any(
                r.contains(list(point), tol=1e-7) for r in regions
            ), f"{name} {point} outside all four assignments"


class TestCmgRegion:
    def test_projection_oracle_random_dists(self):
        ch = builtin("bb84_qmac")
        for seed in (1, 2):
            dist = random_cmg_distribution(ch, seed)
            direct = cmg_region(ch, dist)
            projected = cmg_region_via_projection(ch, dist)
            rng = np.random.default_rng(seed + 100)
            disagree = 0
            for _ in range(400):
                p = rng.uniform(0.0, 1.1, size=2)
                if direct.contains(p, tol=1e-6) != projected.contains(p, tol=1e-6):
                    disagree += 1
            assert disagree == 0

    def test_contains_matched_hk(self):
        ch = builtin("theta_swap(1.2)")
        for seed in (3, 4):
            hk_dist = random_hk_distribution(ch, seed)
            hk = hk_region(ch, hk_dist)
            cmg = cmg_region(ch, cmg_from_hk(hk_dist))
            for _, r1, r2 in boundary_sample(hk, 21):
                assert cmg.contains([r1, r2], tol=1e-6)

    def test_informations_ordering(self):
        ch = builtin("bb84_qmac")
        info = cmg_informations(ch, random_cmg_distribution(ch, 7))
        for rx in ("1", "2"):
            a, b, c, d = (info[k + rx] for k in "abcd")
            assert a <= b + 1e-9 and b <= d + 1e-9
            assert a <= c + 1e-9 and c <= d + 1e-9
            assert a + d <= b + c + 1e-8


class TestPolymatroidCheck:
    def test_holds_on_random_distributions(self):
        ch = builtin("bb84_qmac")
        for seed in range(10):
            info = cmg_informations(ch, random_cmg_distribution(ch, seed))
            for rx in ("1", "2"):
                slacks = polymatroid_slacks({k: info[k + rx] for k in "abcd"})
                assert min(slacks.values()) >= -1e-8, (seed, rx, slacks)

    def test_report_names_violation(self):
        s = polymatroid_slacks({"a": 0.4, "b": 0.3, "c": 0.3, "d": 0.5})
        assert s["b-a"] < 0


class TestBroadcast:
    def test_superposition_cloud_only(self):
        # W = X: no satellite rate left for receiver 1
        bc = builtin("bb84_bc")
        w = UNIF2
        x_given_w = {
            "0": ProbDist(("0", "1"), [1.0, 0.0]),
            "1": ProbDist(("0", "1"), [0.0, 1.0]),
        }
        dist = CodeDistribution.superposition(w, x_given_w)
        region = superposition_region(bc, dist)
        bounds = {tuple(c): b for c, b in region.inequalities}
        assert bounds[(1.0, 0.0)] < 1e-9
        assert bounds[(0.0, 1.0)] > 0.1

    def test_superposition_markov_identity(self):
        bc = builtin("bb84_bc")
        rng = np.random.default_rng(31)
        w = ProbDist(("0", "1"), rng.dirichlet([1, 1]))
        x_given_w = {
            s: ProbDist(("0", "1"), rng.dirichlet([1, 1])) for s in ("0", "1")
        }
        dist = CodeDistribution.superposition(w, x_given_w)
        st = joint_state(bc, dist)
        lhs = conditional_mutual_information(st, {"W", "X"}, {"B1"})
        rhs = conditional_mutual_information(st, {"X"}, {"B1"})
        assert np.isclose(lhs, rhs, atol=1e-9)

    def test_marton_independent_sum(self):
        bc = builtin("bb84_bc")
        pairs = [(u1, u2) for u1 in "01" for u2 in "01"]
        joint = ProbDist(tuple(pairs), [0.25] * 4)
        f = {(u1, u2): u1 for u1, u2 in pairs}
        region = marton_region(bc, CodeDistribution.marton(joint, f, ("0", "1")))
        bounds = {tuple(c): b for c, b in region.inequalities}
        assert np.isclose(
            bounds[(1.0, 1.0)], bounds[(1.0, 0.0)] + bounds[(0.0, 1.0)], atol=1e-9
        )

    def test_marton_correlated_penalty(self):
        bc = builtin("bb84_bc")
        pairs = (("0", "0"), ("1", "1"))
        joint = ProbDist(pairs, [0.5, 0.5])
        f = {p: p[0] for p in pairs}
        region = marton_region(bc, CodeDistribution.marton(joint, f, ("0", "1")))
        bounds = {tuple(c): b for c, b in region.inequalities}
        # I(U1;U2) = 1 bit knocks the sum below the individual bounds
        assert bounds[(1.0, 1.0)] < bounds[(1.0, 0.0)] + bounds[(0.0, 1.0)] - 0.5

    def test_marton_sum_floor(self):
        bc = builtin("bb84_bc")
        pairs = (("0", "0"), ("1", "1"))
        joint = ProbDist(pairs, [0.5, 0.5])
        f = {p: "0" for p in pairs}  # constant input: no information flows
        region = marton_region(bc, CodeDistribution.marton(joint, f, ("0", "1")))
        bounds = {tuple(c): b for c, b in region.inequalities}
        assert bounds[(1.0, 1.0)] == 0.0


class TestRelay:
    def test_df_is_min_of_two_links(self):
        rc = builtin("bb84_relay")
        rng = np.random.default_rng(37)
        w = rng.dirichlet(np.ones(4))
        pairs = [(x, x1) for x in "01" for x1 in "01"]
        joint_xx1 = ProbDist(tuple(pairs), w)
        rate = relay_df_rate(rc, joint_xx1)
        # oracle from the mac-style state on (X, X1)
        table = {p: (joint_xx1.prob(p), rc.output(*p)) for p in pairs}
        from qnetcap.entropic import LabeledCqState

        st = LabeledCqState(
            [("X", ("0", "1")), ("X1", ("0", "1"))], table, ("B1", "B")
        )
        direct = conditional_mutual_information(st, {"X", "X1"}, {"B"})
        hop = conditional_mutual_information(st, {"X"}, {"B1"}, {"X1"})
        assert np.isclose(rate, min(direct, hop), atol=1e-9)

    def test_df_groups_of_one_live_row_read_row_entropies(self, monkeypatch):
        # on the (x, x, x1) joint, every group that drops U or X has one row
        # of nonzero weight, so only H(B) and H(X1 B1) mix rows
        rc = builtin("bb84_relay")
        joint_xx1 = ProbDist([(x, x1) for x in "01" for x1 in "01"], [0.1, 0.2, 0.3, 0.4])
        real_eig, solves = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(
            math.prod(np.shape(m)[:-2])) or real_eig(m))
        relay_df_rate(rc, joint_xx1)
        # rows of B and of B1, once each; H(B) one matrix; H(X1 B1) two
        assert sorted(solves) == [1, 2, 8, 8]

    def test_trivial_u_fixed_relay_input(self):
        rc = builtin("bb84_relay")
        p = [0.6, 0.4]
        triples = {("u", x, "0"): p[i] for i, x in enumerate("01")}
        joint = ProbDist(tuple(triples), list(triples.values()))
        rate = relay_pdf_rate(rc, CodeDistribution.relay_pdf(joint))
        # relay contributes nothing; the rate is the direct link at x1 = 0
        sliced = {(x,): partial_trace(rc.output(x, "0"), [1]) for x in "01"}
        ch = CqChannel((("0", "1"),), sliced)
        expect = holevo_information(ch, ProbDist(("0", "1"), p))
        assert np.isclose(rate, expect, atol=1e-9)

    def test_pdf_at_least_df(self):
        rc = builtin("bb84_relay")
        rng = np.random.default_rng(41)
        pairs = [(x, x1) for x in "01" for x1 in "01"]
        for _ in range(5):
            joint_xx1 = ProbDist(tuple(pairs), rng.dirichlet(np.ones(4)))
            df = relay_df_rate(rc, joint_xx1)
            # U = X is one admissible choice, so the best PDF rate over a
            # few U-couplings cannot fall below it
            triples = {
                (x, x, x1): joint_xx1.prob((x, x1)) for x, x1 in pairs
            }
            pdf = relay_pdf_rate(
                rc,
                CodeDistribution.relay_pdf(
                    ProbDist(tuple(triples), list(triples.values()))
                ),
            )
            assert np.isclose(pdf, df, atol=1e-12)


class TestCodeDistributionValidation:
    def test_accepted_factors_give_an_accepted_table(self):
        # each factor sums to 1 + 0.9e-10, within PROB_SUM_TOL; a table
        # row multiplies two (mac) or five (hk, cmg) of them
        e = 0.9e-10
        off = ProbDist(("0", "1"), [0.5 + e / 2, 0.5 + e / 2])
        ch = builtin("bb84_qmac")
        a = ("0", "1")
        same = {(u, w): u for u in a for w in a}

        def regions(p):
            rows = {q: p for q in a}
            pairs = {(w, q): p for w in a for q in a}
            return [mac_region(ch, p, p),
                    hk_region(ch, CodeDistribution.hk(p, rows, rows, rows, rows, same, same, a, a)),
                    cmg_region(ch, CodeDistribution.cmg(p, rows, rows, pairs, pairs))]

        for got, exact in zip(regions(off), regions(UNIF2)):
            assert np.allclose([b for _, b in got.inequalities],
                               [b for _, b in exact.inequalities], rtol=0.0, atol=1e-8)

    def test_conditional_missing_row(self):
        with pytest.raises(SchemaError):
            CodeDistribution.coded_time_share(
                ProbDist(("0", "1"), [0.5, 0.5]), {"0": UNIF2}, {"0": UNIF2, "1": UNIF2}
            )

    def test_map_must_be_total(self):
        ch = builtin("bb84_qmac")
        a1, a2 = ch.input_alphabets
        q = ProbDist(("0",), [1.0])
        one = ProbDist(("0",), [1.0])
        with pytest.raises(SchemaError):
            CodeDistribution.hk(
                q,
                {"0": UNIF2},
                {"0": UNIF2},
                {"0": one},
                {"0": one},
                {},  # empty f1
                {("0", "0"): "0"},
                a1,
                a2,
            )

    def test_map_value_in_alphabet(self):
        with pytest.raises(SchemaError):
            CodeDistribution.marton(
                ProbDist((("0", "0"),), [1.0]), {("0", "0"): "9"}, ("0", "1")
            )

    def test_conditional_rows_share_an_alphabet(self):
        w1 = {"0": ProbDist(("a", "b"), [0.5, 0.5]), "1": ProbDist(("a", "c"), [0.5, 0.5])}
        with pytest.raises(SchemaError, match="W1"):
            CodeDistribution.cmg(
                UNIF2, w1, {q: UNIF2 for q in "01"},
                {(w, q): UNIF2 for w in "ab" for q in "01"},
                {(w, q): UNIF2 for w in "01" for q in "01"},
            )

    def test_input_distribution_covers_channel_alphabet(self):
        ch, one = builtin("bb84_qmac"), ProbDist(("0",), [1.0])
        with pytest.raises(SchemaError, match="X1"):
            vsi_capacity(ch, CodeDistribution.no_time_share(one, UNIF2))
        with pytest.raises(SchemaError, match="X2"):
            mac_region(ch, UNIF2, one)


# region entry point: (channel it takes, distribution it takes)
ENTRY_POINTS = {
    "mac_region": ("ic", "pair"),
    "successive_decoding_corners": ("ic", "pair"),
    "vsi_capacity": ("ic", "cts"),
    "si_capacity": ("ic", "cts"),
    "sato_outer": ("ic", "cts"),
    "hk_region": ("ic", "hk"),
    "cmg_informations": ("ic", "cmg"),
    "cmg_region": ("ic", "cmg"),
    "cmg_region_via_projection": ("ic", "cmg"),
    "superposition_region": ("bc", "superposition"),
    "marton_region": ("bc", "marton"),
    "relay_pdf_rate": ("relay", "relay"),
    "relay_df_rate": ("relay", "xx1"),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_rejects_wrong_kind_and_channel(name):
    qmac, bc, rc = builtin("bb84_qmac"), builtin("bb84_bc"), builtin("bb84_relay")
    right = {"ic": qmac, "bc": bc, "relay": rc}
    # same outputs, wrong number of inputs
    wrong = {"ic": builtin("bb84_p2p"), "bc": theta_swap(1.2), "relay": bc}
    pairs = tuple(itertools.product("01", "01"))
    dists = {
        "cts": uniform_no_ts(),
        "hk": random_hk_distribution(qmac, 0),
        "cmg": random_cmg_distribution(qmac, 0),
        "superposition": random_superposition_distribution(bc, 0),
        "marton": random_marton_distribution(bc, 0),
        "relay": random_relay_distribution(rc, 0),
    }
    fn = getattr(network, name)
    channel, kind = ENTRY_POINTS[name]
    args = {"pair": (UNIF2, UNIF2), "xx1": (ProbDist(pairs, [0.25] * 4),)}
    args.update((k, (d,)) for k, d in dists.items())
    fn(right[channel], *args[kind])
    with pytest.raises(SchemaError):
        fn(wrong[channel], *args[kind])
    if kind in dists:
        for other in dists.keys() - {kind}:
            with pytest.raises(SchemaError):
                fn(right[channel], dists[other])


def test_two_output_kinds_share_one_rule():
    # bb84_p2p has the broadcast channel's one input and bb84_qmac the relay
    # channel's two, but each has one output
    p2p, qmac = builtin("bb84_p2p"), builtin("bb84_qmac")
    cases = [(superposition_region, p2p, random_superposition_distribution(p2p, 1)),
             (marton_region, p2p, random_marton_distribution(p2p, 1)),
             (relay_pdf_rate, qmac, random_relay_distribution(qmac, 1))]
    for fn, ch, dist in cases:
        with pytest.raises(SchemaError) as err:
            fn(ch, dist)
        assert str(err.value) == (f"a {dist.kind} distribution needs a two-output channel,"
                                  " got 1 output(s)")


def test_alphabets_recorded_at_construction():
    joint = ProbDist((("1", "a"), ("0", "b"), ("1", "b")), [0.5, 0.25, 0.25])
    dist = CodeDistribution.marton(joint, {s: "0" for s in joint.symbols}, ("0", "1"))
    assert dist.alphabets == {"U1": ("1", "0"), "U2": ("a", "b")}
    rows = {"0": ProbDist(("b", "a"), [0.5, 0.5]), "1": ProbDist(("a", "b"), [0.5, 0.5])}
    cts = CodeDistribution.coded_time_share(UNIF2, rows, rows)
    assert cts.alphabets == {"Q": ("0", "1"), "X1": ("b", "a"), "X2": ("b", "a")}
    with pytest.raises(SchemaError, match="UXX1"):
        CodeDistribution.relay_pdf(ProbDist((("0", "1"),), [1.0]))


# repr of every weight array and map of each seeded draw, from the parts'
# and maps' own order
SEEDED_DRAWS = {
    "cmg": lambda: random_cmg_distribution(builtin("bb84_qmac"), 0),
    "cmg q_size=3": lambda: random_cmg_distribution(builtin("bb84_qmac"), 0, q_size=3),
    "hk": lambda: random_hk_distribution(builtin("bb84_qmac"), 0),
    "hk q_size=3": lambda: random_hk_distribution(builtin("bb84_qmac"), 0, q_size=3),
    "superposition": lambda: random_superposition_distribution(builtin("bb84_bc"), 0),
    "marton": lambda: random_marton_distribution(builtin("bb84_bc"), 0),
    "relay": lambda: random_relay_distribution(builtin("bb84_relay"), 0),
}


@pytest.mark.parametrize("case", list(SEEDED_DRAWS))
def test_seeded_draw_is_pinned(case):
    dist = SEEDED_DRAWS[case]()
    got = {}
    for key, part in dist.parts.items():
        for c, pd in [((), part)] if isinstance(part, ProbDist) else part.items():
            got[f"{key} {c!r}"] = repr((pd.symbols, pd.weights.tolist()))
    for name, f in dist.maps.items():
        got[name] = repr(list(f.items()))
    pinned = json.loads((Path(__file__).parent / "seeded_draws.json").read_text())
    assert list(got.items()) == list(pinned[case].items())


@pytest.mark.parametrize("draw", [random_cmg_distribution, random_hk_distribution])
@pytest.mark.parametrize("q_size", [0, -1])
def test_time_sharing_alphabet_needs_a_symbol(draw, q_size):
    with pytest.raises(SchemaError, match=f"q_size must be >= 1, got {q_size}"):
        draw(builtin("bb84_qmac"), 0, q_size=q_size)


def trine_channel():
    angles = 2 * np.pi * np.arange(3) / 3
    outputs = {
        (str(k),): pure_state([np.cos(a / 2), np.sin(a / 2)])
        for k, a in enumerate(angles)
    }
    return CqChannel((("0", "1", "2"),), outputs)


def state_set(vectors):
    """Single-input channel sending the k-th (normalised) vector for "k"."""
    outputs = {
        (str(k),): pure_state(np.asarray(v, dtype=complex) / np.linalg.norm(v))
        for k, v in enumerate(vectors)
    }
    return CqChannel((tuple(str(k) for k in range(len(vectors))),), outputs)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(ch, u):
    outputs = {
        key: DensityMatrix(u @ rho.entries @ u.conj().T, rho.dims)
        for key, rho in ch.outputs.items()
    }
    return CqChannel(ch.input_alphabets, outputs)


def random_qutrit_set(seed, k=5):
    """k random mixed qutrit states of rank at most two."""
    rng = np.random.default_rng(seed)
    outputs = {}
    for x in range(k):
        g = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rho = g @ g.conj().T
        outputs[(str(x),)] = DensityMatrix(rho / np.trace(rho).real, (3,))
    return CqChannel((tuple(str(x) for x in range(k)),), outputs)


def embedded_classical():
    t = np.random.default_rng(13).dirichlet(np.ones(3), size=3)
    outputs = {
        (str(x),): DensityMatrix(np.diag(t[x]).astype(complex), (3,))
        for x in range(3)
    }
    return CqChannel((("0", "1", "2"),), outputs)


_W3 = np.exp(2j * np.pi / 3)
HSW_SETS = {
    "bb84_p2p": lambda: builtin("bb84_p2p"),
    "trine": trine_channel,
    "bb84_four": lambda: state_set([[1, 0], [0, 1], [1, 1], [1, -1]]),
    "qutrit_mub": lambda: state_set(
        [np.eye(3)[k] for k in range(3)]
        + [[1, _W3**k, _W3 ** (2 * k)] for k in range(3)]),
    "embedded_classical": embedded_classical,
    **{f"qutrit_random_{i}": (lambda i=i: random_qutrit_set(i)) for i in range(3)},
}


def grid_pairs(ch, grid):
    """Product distributions of a two-input channel on the simplex grid,
    first input outermost, as (w1, w2, table) triples for the row loop."""
    a1, a2 = ch.input_alphabets
    for w1 in simplex_grid(len(a1), grid):
        for w2 in simplex_grid(len(a2), grid):
            table = {
                (x1, x2): (w1[i] * w2[j], ch.output(x1, x2))
                for i, x1 in enumerate(a1)
                for j, x2 in enumerate(a2)
            }
            yield w1, w2, table


class TestStackedSweeps:
    """Grid sweeps and sparse builders against the row loop in ``cq_loop``."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda t=t: theta_swap(t), id=str(t)) for t in (0.5, 1.0, 2.5)),
        pytest.param(bb84_qmac, id="bb84_qmac"),
    ])
    def test_vsi_informations_match_per_point_states(self, make):
        ch = make()
        regs = [("X1", ch.input_alphabets[0]), ("X2", ch.input_alphabets[1])]
        names = ch.output_names
        # a single-output channel is read as both receivers sharing its system
        b1, b2 = names[0], names[-1]
        specs = {
            "own1": ({"X1"}, {b1}, {"X2"}),
            "cross1": ({"X1"}, {b2}, ()),
            "own2": ({"X2"}, {b2}, {"X1"}),
            "cross2": ({"X2"}, {b1}, ()),
        }
        points = list(grid_pairs(ch, 5))
        stack = [simplex_grid(len(a), 5) for a in ch.input_alphabets]
        st = joint_state(ch, CodeDistribution.mac(UNIF2, UNIF2))
        loop = {}
        for key, (a, b, c) in specs.items():
            stacked = conditional_mutual_information(st.on_tables(stack), a, b, c)
            loop[key] = np.array(
                [loop_cmi(regs, t, names, a, b, c) for _, _, t in points])
            assert np.max(np.abs(stacked - loop[key])) <= 1e-12, key
        verdict = bool(np.all(loop["own1"] <= loop["cross1"] + 1e-9)
                       and np.all(loop["own2"] <= loop["cross2"] + 1e-9))
        assert vsi_check(ch, grid=5) == verdict

    def test_vsi_verdicts_on_a_single_output_channel(self):
        ch = bb84_qmac()
        assert [vsi_check(ch, grid=g) for g in (3, 5, 11)] == [False, False, False]
        # grid 2 visits only deterministic inputs, where every information is 0
        with pytest.raises(SchemaError, match="grid 2 < 3"):
            vsi_check(ch, grid=2)

    def test_mac_union_is_max_of_per_region_samples(self):
        ch = bb84_qmac()
        a1, a2 = ch.input_alphabets
        radii = np.zeros(61)
        for w1, w2, _ in grid_pairs(ch, 5):
            region = mac_region(ch, ProbDist(a1, w1), ProbDist(a2, w2))
            sample = boundary_sample(region, 61)
            radii = np.maximum(radii, [np.hypot(r1, r2) for _, r1, r2 in sample])
        union = mac_region_union(ch, grid=5)
        thetas = np.linspace(0.0, np.pi / 2, 61)
        assert [th for th, _, _ in union] == list(thetas)
        got = np.array([[r1, r2] for _, r1, r2 in union])
        want = np.stack([radii * np.cos(thetas), radii * np.sin(thetas)], axis=1)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("make", [lambda: builtin("bb84_p2p"), trine_channel])
    def test_hsw_grid_holevo_values(self, make):
        ch = make()
        alphabet = ch.input_alphabets[0]
        names = ch.output_names
        grid = np.array(list(simplex_grid(len(alphabet), 11)))
        st = joint_state(ch, CodeDistribution.p2p(ProbDist.uniform(alphabet)))
        stacked = conditional_mutual_information(st.on_tables([grid]), {"X"}, set(names))
        loop = []
        for w in grid:
            table = {(x,): (w[i], ch.output(x)) for i, x in enumerate(alphabet)}
            loop.append(loop_cmi([("X", alphabet)], table, names, {"X"}, set(names)))
        assert np.max(np.abs(stacked - loop)) <= 1e-12
        assert hsw_capacity(ch)[0] >= max(loop) - 1e-12

    def test_sweeps_spanning_several_chunks(self, monkeypatch):
        inside, outside, qmac, trine = (
            theta_swap(1.0), theta_swap(2.5), bb84_qmac(), trine_channel())
        whole = (
            vsi_check(inside, grid=11),
            vsi_check(outside, grid=11),
            mac_region_union(qmac, grid=11),
            hsw_capacity(trine),
        )
        monkeypatch.setattr(network, "_GRID_CHUNK", 7)
        chunked = (
            vsi_check(inside, grid=11),
            vsi_check(outside, grid=11),
            mac_region_union(qmac, grid=11),
            hsw_capacity(trine),
        )
        assert whole[:2] == chunked[:2] == (True, False)
        assert np.max(np.abs(np.array(whole[2]) - np.array(chunked[2]))) <= 1e-12
        assert abs(whole[3][0] - chunked[3][0]) <= 1e-12
        assert np.max(np.abs(whole[3][1].weights - chunked[3][1].weights)) <= 1e-9

    def test_sparse_builder_states_match_loop(self):
        bc, rc = builtin("bb84_bc"), builtin("bb84_relay")
        pairs = (("0", "0"), ("0", "1"), ("1", "1"))
        f = {("0", "0"): "0", ("0", "1"): "1", ("1", "1"): "0"}
        joint = ProbDist(pairs, [0.5, 0.3, 0.2])
        marton = CodeDistribution.marton(joint, f, ("0", "1"))
        triples = (("u", "0", "0"), ("u", "1", "0"), ("v", "0", "1"), ("v", "1", "1"))
        relay = CodeDistribution.relay_pdf(ProbDist(triples, [0.4, 0.0, 0.6, 0.0]))
        cases = [
            (joint_state(bc, marton),
             [("U1", ("0", "1")), ("U2", ("0", "1"))],
             {pair: (p, bc.output(f[pair])) for pair, p in joint.items()},
             bc.output_names),
            (joint_state(rc, relay),
             [("U", ("u", "v")), ("X", ("0", "1")), ("X1", ("0", "1"))],
             {t: (p, rc.output(t[1], t[2])) for t, p in relay.parts["UXX1"].items()},
             rc.output_names),
        ]
        ic, bits = theta_swap(1.2), ("0", "1")
        rng = np.random.default_rng(5)

        def draw(symbols=bits):
            return ProbDist(symbols, rng.dirichlet(np.ones(len(symbols))))

        def product_case(ch, dist, regs, prob, inputs):
            """joint_state next to the table over every symbol tuple, with
            probability prob(*row) and output ch.output(*inputs(*row))."""
            table = {row: (prob(*row), ch.output(*inputs(*row)))
                     for row in itertools.product(*(a for _, a in regs))}
            return joint_state(ch, dist), regs, table, ch.output_names

        p2p, px, p1, p2 = builtin("bb84_p2p"), draw(), draw(), draw()
        cts = CodeDistribution.coded_time_share(
            draw(), {q: draw() for q in bits}, {q: draw() for q in bits})
        sup = CodeDistribution.superposition(draw(("a", "b", "c")), {w: draw() for w in "abc"})
        hk, cmg = random_hk_distribution(ic, 3), random_cmg_distribution(ic, 3)
        t, h, g = cts.parts, hk.parts, cmg.parts
        cases += [
            product_case(p2p, CodeDistribution.p2p(px), [("X", bits)], px.prob,
                         lambda x: (x,)),
            product_case(ic, CodeDistribution.mac(p1, p2), [("X1", bits), ("X2", bits)],
                         lambda x1, x2: p1.prob(x1) * p2.prob(x2), lambda *x: x),
            product_case(ic, cts, [("Q", bits), ("X1", bits), ("X2", bits)],
                         lambda q, x1, x2: (t["Q"].prob(q) * t["X1|Q"][q].prob(x1)
                                            * t["X2|Q"][q].prob(x2)),
                         lambda q, *x: x),
            product_case(ic, hk, [(n, bits) for n in ("Q", "U1", "U2", "W1", "W2")],
                         lambda q, u1, u2, w1, w2: (
                             h["Q"].prob(q) * h["U1|Q"][q].prob(u1) * h["U2|Q"][q].prob(u2)
                             * h["W1|Q"][q].prob(w1) * h["W2|Q"][q].prob(w2)),
                         lambda q, u1, u2, w1, w2: (hk.maps["f1"][(u1, w1)],
                                                    hk.maps["f2"][(u2, w2)])),
            product_case(ic, cmg, [(n, bits) for n in ("Q", "W1", "X1", "W2", "X2")],
                         lambda q, w1, x1, w2, x2: (
                             g["Q"].prob(q) * g["W1|Q"][q].prob(w1)
                             * g["X1|W1Q"][(w1, q)].prob(x1) * g["W2|Q"][q].prob(w2)
                             * g["X2|W2Q"][(w2, q)].prob(x2)),
                         lambda q, w1, x1, w2, x2: (x1, x2)),
            product_case(bc, sup, [("W", ("a", "b", "c")), ("X", bits)],
                         lambda w, x: sup.parts["W"].prob(w) * sup.parts["X|W"][w].prob(x),
                         lambda w, x: (x,)),
        ]
        for st, regs, table, names in cases:
            everything = [n for n, _ in regs] + list(names)
            for r in range(1, len(everything) + 1):
                for subset in itertools.combinations(everything, r):
                    expect = loop_entropy(regs, table, names, subset)
                    assert abs(st.entropy(subset) - expect) <= 1e-12, subset


def joint_grid_cases():
    """(id, channel, distribution) of every layout: Q sizes 1-3, symbols in
    an order other than the channel's, zero weights and sparse joints."""
    ic, qmac, p2p = theta_swap(1.2), bb84_qmac(), builtin("bb84_p2p")
    bc, rc = builtin("bb84_bc"), builtin("bb84_relay")
    rng = np.random.default_rng(17)

    def draw(symbols=("0", "1")):
        return ProbDist(symbols, rng.dirichlet(np.ones(len(symbols))))

    swapped, zero = ProbDist(("1", "0"), [0.3, 0.7]), ProbDist(("0", "1"), [0.0, 1.0])
    pairs = (("0", "0"), ("0", "1"), ("1", "1"))
    unordered = (("0", "1"), ("1", "1"), ("0", "0"))
    triples = (("u", "0", "0"), ("u", "1", "0"), ("v", "0", "1"), ("v", "1", "1"))
    cases = [
        ("p2p", p2p, CodeDistribution.p2p(draw())),
        ("p2p-swapped", p2p, CodeDistribution.p2p(swapped)),
        ("mac", ic, CodeDistribution.mac(draw(), draw())),
        ("mac-swapped-zero", qmac, CodeDistribution.mac(swapped, zero)),
        ("superposition", bc, CodeDistribution.superposition(
            draw(("c", "a", "b")), {w: draw() for w in "cab"})),
        ("superposition-zero", bc, CodeDistribution.superposition(
            ProbDist(("a", "b"), [1.0, 0.0]), {"a": swapped, "b": zero})),
        ("marton-sparse", bc, CodeDistribution.marton(
            ProbDist(pairs, [0.5, 0.3, 0.2]), dict(zip(pairs, "010")), ("0", "1"))),
        # U1 over ("0", "1") and U2 over ("1", "0"), whose product order
        # lists (0,1), (0,0), (1,1)
        ("marton-out-of-order", bc, CodeDistribution.marton(
            ProbDist(unordered, [0.5, 0.3, 0.2]), dict(zip(unordered, "011")), ("0", "1"))),
        ("relay-sparse", rc, CodeDistribution.relay_pdf(
            ProbDist(triples, [0.4, 0.0, 0.6, 0.0]))),
    ]
    for q in (1, 2, 3):
        qs = tuple("q%d" % i for i in range(q))
        cases += [
            (f"cts-q{q}", ic, CodeDistribution.coded_time_share(
                draw(qs), {s: draw() for s in qs}, {s: swapped for s in qs})),
            (f"hk-q{q}", ic, random_hk_distribution(ic, q, q_size=q)),
            (f"cmg-q{q}", qmac, random_cmg_distribution(qmac, q, q_size=q)),
            (f"superposition-seed{q}", bc, random_superposition_distribution(bc, q)),
            (f"marton-seed{q}", bc, random_marton_distribution(bc, q)),
            (f"relay-seed{q}", rc, random_relay_distribution(rc, q)),
        ]
    cases.append(("cts-zero-q", ic, CodeDistribution.coded_time_share(
        ProbDist(("a", "b"), [0.0, 1.0]), {"a": zero, "b": draw()}, {"a": draw(), "b": zero})))
    # relay_df_rate's joint over (U, X, X1) = (x, x, x1)
    xx1 = ProbDist(tuple(itertools.product("01", "01")), [0.1, 0.2, 0.3, 0.4])
    cases.append(("relay-df", rc, CodeDistribution.relay_pdf(
        ProbDist([(x, x, x1) for x, x1 in xx1.symbols], xx1.weights))))
    return cases


class TestJointGrid:
    """``joint_state`` is a product grid over its registers' alphabets: the
    row-by-row builder ``joint_loop.table`` lists the same rows, byte for
    byte, every row it does not list weighs 0, and reshaping the grid groups
    rows as walking them (``joint_loop.row_groups``) does."""

    @pytest.mark.parametrize("case", joint_grid_cases(), ids=lambda c: c[0])
    def test_state_matches_row_loop(self, case):
        _, ch, dist = case
        st = joint_state(ch, dist)
        table = joint_loop.table(ch, dist)
        assert st.registers == tuple((r, tuple(a)) for r, a in joint_loop.registers(ch, dist))
        assert st.dims == ch.dims
        # each row's register symbol indices, from the C order of the axes
        sizes = [len(st.registers[r][1]) for r in st._axes]
        codes = np.empty((len(st._probs), len(sizes)), np.intp)
        codes[:, st._axes] = np.indices(sizes).reshape(len(sizes), -1).T
        for row, code in enumerate(codes):
            key = tuple(a[i] for (_, a), i in zip(st.registers, code))
            if key in table:
                p, rho = table.pop(key)
                assert st._probs[row].tobytes() == np.float64(p).tobytes(), key
                assert st._blocks[row].tobytes() == rho.entries.tobytes(), key
            else:
                assert st._probs[row] == 0.0, key
        assert not table
        k = len(st.registers)
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(k), r) for r in range(k + 1)):
            got, want = st._group_slots(subset), joint_loop.row_groups(codes, subset)
            assert got.dtype == want.dtype and np.array_equal(got, want), subset
