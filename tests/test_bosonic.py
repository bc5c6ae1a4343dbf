import decimal
import math

import numpy as np
import pytest

import qnetcap.bosonic as bosonic
from qnetcap.bosonic import (
    BosonicICParams,
    DetectionMode,
    bosonic_hk_region,
    bosonic_si,
    bosonic_vsi,
    c_heterodyne,
    c_holevo,
    c_homodyne,
    params_from_json,
)
from qnetcap.channels import SchemaError
from qnetcap.errors import CLOSED_FORM_TOL
from qnetcap.qstate import InvariantError
from qnetcap.entropic import g_thermal
from qnetcap.regions import boundary_sample


def g_oracle(n):
    if n <= 0.0:
        return 0.0
    return (n + 1.0) * math.log2(n + 1.0) - n * math.log2(n)


def decimal_context(*photons):
    """A context whose digits outlast the cancellations of g(N) =
    (N+1) ln(N+1) - N ln N at these photon numbers and of differences of
    g down to the smallest of them."""
    big = max(1.0, *photons)
    small = min(p for p in photons if p > 0)
    return decimal.Context(prec=40 + int(2 * math.log10(big) + max(0.0, -math.log10(small))))


def exact_thermal_gain(P, base):
    """g(base + P) - g(base) in bits, in decimal arithmetic."""
    ctx = decimal_context(P, base)

    def g(n):
        if n == 0:
            return decimal.Decimal(0)
        up = ctx.add(n, 1)
        return ctx.subtract(ctx.multiply(up, ctx.ln(up)), ctx.multiply(n, ctx.ln(n)))

    a, p = decimal.Decimal(base), decimal.Decimal(P)
    return float(ctx.divide(ctx.subtract(g(ctx.add(a, p)), g(a)), ctx.ln(2)))


def exact_coherent(P, noise, four):
    """(1/2^i) log2(1 + 4^i P / noise) for 4^i = ``four``, in decimal."""
    ctx = decimal.Context(prec=60)
    four = decimal.Decimal(four)
    ratio = ctx.divide(ctx.multiply(four, decimal.Decimal(P)), decimal.Decimal(noise))
    return float(ctx.divide(ctx.ln(ctx.add(1, ratio)), ctx.multiply(ctx.ln(2), ctx.sqrt(four))))


def carleial_params(ns):
    return BosonicICParams(
        1 / 16, 1 / 2, 1 / 2, 1 / 16, ns, ns, 1.0, 1.0
    )


def strong_int_params(lam1=1.0, lam2=1.0):
    return BosonicICParams(
        0.3, 0.6, 0.6, 0.3, 100.0, 100.0, 1.0, 1.0, lam1, lam2
    )


def random_passive_network(rng):
    """A seeded random passive network with positive powers, or None when
    the drawn couplings are not passive."""
    e11, e22 = rng.uniform(0.01, 0.5, size=2)
    e12 = rng.uniform(0.0, 1.0 - e11)
    e21 = e11 * e12 / e22
    if e21 + e22 > 1.0 or e21 + e11 > 1.0 or e12 + e22 > 1.0:
        return None
    ns1, ns2 = 10.0 ** rng.uniform(-2, 2, size=2)
    nb1, nb2 = rng.uniform(0.0, 3.0, size=2)
    return BosonicICParams(e11, e12, e21, e22, ns1, ns2, nb1, nb2)


def linear_vsi(p, i):
    """The very-strong test of coherent detection written as linear
    inequalities over the detection noise floors; it divides out the
    senders' powers, so it holds only while both are positive."""
    four, two = 4.0**i, 2.0**i
    d1 = two * p.etabar1 * p.NB1 + 1.0
    d2 = two * p.etabar2 * p.NB2 + 1.0
    return (
        p.eta21 * d2 >= p.eta22 * (four * p.eta11 * p.NS1 + d1) - CLOSED_FORM_TOL
    ) and (
        p.eta12 * d1 >= p.eta11 * (four * p.eta22 * p.NS2 + d2) - CLOSED_FORM_TOL
    )


def linear_si(p, i):
    """The strong test of coherent detection in the same linear form."""
    two = 2.0**i
    d1 = two * p.etabar1 * p.NB1 + 1.0
    d2 = two * p.etabar2 * p.NB2 + 1.0
    return (p.eta21 * d2 >= p.eta22 * d1 - CLOSED_FORM_TOL) and (
        p.eta12 * d1 >= p.eta11 * d2 - CLOSED_FORM_TOL
    )


def bound_of(region, coeff):
    vals = [b for c, b in region.inequalities if np.allclose(c, coeff)]
    assert vals, f"no {coeff} row"
    return min(vals)


class TestScalars:
    def test_g_thermal_anchor(self):
        assert g_thermal(0.0) == 0.0
        assert g_thermal(1.0) == 2.0

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, -0.5])
    def test_g_thermal_rejects_non_finite_and_negative(self, n):
        with pytest.raises(InvariantError):
            g_thermal(n)

    @pytest.mark.parametrize("fn", [c_homodyne, c_heterodyne, c_holevo])
    @pytest.mark.parametrize(
        "args",
        [(0.9, math.nan, 1.0), (0.9, math.inf, 1.0), (math.nan, 1.0, 1.0),
         (0.9, 1.0, math.inf), (0.9, 1.0, math.nan), (0.9, -1.0, 1.0)],
    )
    def test_p2p_rejects_non_finite(self, fn, args):
        with pytest.raises(SchemaError):
            fn(*args)

    def test_p2p_equal_written_out_formulas(self):
        # the written-out formulas in decimal arithmetic, on the inputs
        # the capacities see after their own float products
        for eta in np.linspace(0.0, 1.0, 23).tolist():
            for ns in [0.0] + np.geomspace(0.01, 100.0, 40).tolist():
                for nb in (0.0, 0.3, 1.0, 10.0):
                    P, base = eta * ns, (1.0 - eta) * nb
                    for fn, exact in (
                        (c_homodyne, exact_coherent(P, 2.0 * base + 1.0, 4.0)),
                        (c_heterodyne, exact_coherent(P, base + 1.0, 1.0)),
                        (c_holevo, exact_thermal_gain(P, base) if P else 0.0),
                    ):
                        assert fn(eta, ns, nb) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_holevo_gain_against_decimal_oracle(self):
        # g(P + U) - g(U) once cancelled to 1e-13 bits at U = 5e14 and to
        # 0 at U = 5e305; here it keeps its relative precision throughout
        for P in (1e-12, 1e-3, 0.5, 1.0, 1.5, 50.0, 1e6, 1e20):
            for base in (0.0, 1e-12, 0.3, 1.0, 1e3, 5e14, 1e40):
                exact = exact_thermal_gain(P, base)
                got = bosonic._rate(P, base, 0.0, 0.0, DetectionMode.JOINT)
                assert got == pytest.approx(exact, rel=2e-15, abs=0.0), (P, base)

    @pytest.mark.parametrize("nb", [1e15, 1e306])
    def test_holevo_bounds_coherent_rates_under_huge_noise(self, nb):
        for ns in (0.01, 100.0):
            hom, het, holevo = (fn(0.5, ns, nb) for fn in (c_homodyne, c_heterodyne, c_holevo))
            assert holevo == pytest.approx(exact_thermal_gain(0.5 * ns, 0.5 * nb), rel=1e-14)
            assert holevo >= max(hom, het) > 0.0

    def test_negative_rate_is_invariant_error(self, monkeypatch):
        monkeypatch.setattr(bosonic, "_thermal_gain", lambda P, base: -1e-9)
        with pytest.raises(InvariantError, match="negative"):
            c_holevo(0.9, 1.0, 1.0)
        with pytest.raises(InvariantError, match="negative"):
            bosonic_hk_region(strong_int_params(0.8, 0.8), "joint")
        assert c_homodyne(0.9, 1.0, 1.0) > 0.0

    def test_p2p_formulas(self):
        assert np.isclose(
            c_homodyne(0.9, 1.0, 1.0),
            0.5 * math.log2(1 + 3.6 / 1.2),
            atol=1e-12,
        )
        assert np.isclose(
            c_heterodyne(0.9, 1.0, 1.0), math.log2(1 + 0.9 / 1.1), atol=1e-12
        )
        assert np.isclose(
            c_holevo(0.9, 1.0, 1.0),
            g_oracle(1.0) - g_oracle(0.1),
            atol=1e-12,
        )
        assert c_homodyne(0.5, 0.0, 2.0) == 0.0
        assert c_heterodyne(0.5, 0.0, 2.0) == 0.0
        assert np.isclose(c_holevo(1.0, 3.0, 5.0), g_oracle(3.0), atol=1e-12)
        with pytest.raises(SchemaError):
            c_homodyne(1.5, 1.0, 1.0)

    def test_holevo_dominates_on_grid(self):
        for eta in np.linspace(0.0, 1.0, 20):
            for ns in np.linspace(0.0, 100.0, 10):
                for nb in np.linspace(0.0, 10.0, 5):
                    chi = c_holevo(eta, ns, nb)
                    assert chi - c_homodyne(eta, ns, nb) >= -1e-9
                    assert chi - c_heterodyne(eta, ns, nb) >= -1e-9

    def test_power_crossover(self):
        assert c_heterodyne(0.9, 100.0, 1.0) > c_homodyne(0.9, 100.0, 1.0)
        assert c_homodyne(0.9, 0.05, 1.0) > c_heterodyne(0.9, 0.05, 1.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(SchemaError):
            BosonicICParams(1.2, 0.1, 0.1, 0.1, 1, 1, 1, 1)
        with pytest.raises(SchemaError):
            BosonicICParams(0.8, 0.1, 0.3, 0.8, 1, 1, 1, 1)  # receiver over unity
        with pytest.raises(SchemaError):
            BosonicICParams(0.5, 0.5, 0.5, 0.3, 1, 1, 1, 1)  # inconsistent
        with pytest.raises(SchemaError):
            BosonicICParams(0.3, 0.3, 0.3, 0.3, -1, 1, 1, 1)
        with pytest.raises(SchemaError):
            BosonicICParams(0.3, 0.3, 0.3, 0.3, 1, 1, 1, 1, 1.5, 0.5)

    def test_environment_fractions(self):
        p = carleial_params(1.0)
        assert np.isclose(p.etabar1, 7 / 16, atol=1e-15)
        assert np.isclose(p.etabar2, 7 / 16, atol=1e-15)

    def test_json_round_trip(self):
        p = strong_int_params(0.3, 0.7)
        doc = {"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": [100.0, 100.0],
               "NB": [1.0, 1.0], "lambda": [0.3, 0.7], "mode": "het"}
        q, mode = params_from_json(doc)
        assert q == p
        assert mode is DetectionMode.HETERODYNE
        with pytest.raises(SchemaError):
            params_from_json({"eta": [[0.1, 0.1]], "NS": [1, 1]})
        with pytest.raises(SchemaError):
            params_from_json({**doc, "mode": "laser"})

    @pytest.mark.parametrize("key,value,what", [
        ("eta", "ab", "'eta'"),
        ("eta", [[0.3, 0.6]], "'eta'"),
        ("eta", [[0.3, True], [0.6, 0.3]], "each 'eta' row"),
        ("eta", [[0.3, 0.6, 0.1], [0.6, 0.3]], "each 'eta' row"),
        ("NB", {"a": 1}, "'NB'"),
        ("NB", [10**400, 1], "'NB'"),
        ("NB", ["1", "1"], "'NB'"),
        ("lambda", [1.0, False], "'lambda'"),
        ("lambda", [0.5], "'lambda'"),
    ])
    def test_malformed_pairs_are_schema_errors(self, key, value, what):
        doc = {"eta": [[0.3, 0.6], [0.6, 0.3]], "NS": [100.0, 100.0], "NB": [1.0, 1.0],
               key: value}
        with pytest.raises(SchemaError, match=f"^{what} "):
            params_from_json(doc)

    def test_mode_parse(self):
        # one spelling per mode: the enum's own values, or a mode itself
        assert DetectionMode.parse("hom") is DetectionMode.HOMODYNE
        assert DetectionMode.parse("het") is DetectionMode.HETERODYNE
        assert DetectionMode.parse("joint") is DetectionMode.JOINT
        assert DetectionMode.parse(DetectionMode.JOINT) is DetectionMode.JOINT
        for spelling in ("homodyne", "heterodyne", "HET", " hom", "Joint", None, 1, ["hom"]):
            with pytest.raises(SchemaError, match="unknown detection mode"):
                DetectionMode.parse(spelling)
        assert DetectionMode.HOMODYNE.exponent == 1
        assert DetectionMode.HETERODYNE.exponent == 0
        assert DetectionMode.JOINT.exponent is None


class TestVsi:
    def test_carleial_low_power_conditions(self):
        p = carleial_params(1.0)
        for mode in ("hom", "het", "joint"):
            cond, _ = bosonic_vsi(p, mode)
            assert cond, mode

    def test_carleial_high_power_conditions(self):
        p = carleial_params(100.0)
        assert not bosonic_vsi(p, "hom")[0]
        assert bosonic_vsi(p, "het")[0]

    def test_no_cross_coupling_fails(self):
        p = BosonicICParams(0.5, 0.0, 0.0, 0.5, 1, 1, 1, 1)
        for mode in ("hom", "het", "joint"):
            assert not bosonic_vsi(p, mode)[0]

    def test_carleial_rectangle_low_power(self):
        p = carleial_params(1.0)
        _, hom = bosonic_vsi(p, "hom")
        assert np.isclose(
            bound_of(hom, [1, 0]),
            0.5 * math.log2(1 + 0.25 / 1.875),
            atol=1e-12,
        )
        _, het = bosonic_vsi(p, "het")
        assert np.isclose(
            bound_of(het, [0, 1]), math.log2(1 + (1 / 16) / (23 / 16)), atol=1e-12
        )
        _, joint = bosonic_vsi(p, "joint")
        assert np.isclose(
            bound_of(joint, [1, 0]),
            g_oracle(0.5) - g_oracle(0.4375),
            atol=1e-12,
        )

    def test_carleial_rectangle_high_power(self):
        p = carleial_params(100.0)
        _, hom = bosonic_vsi(p, "hom")
        assert np.isclose(
            bound_of(hom, [1, 0]), 0.5 * math.log2(1 + 25 / 1.875), atol=1e-12
        )
        _, het = bosonic_vsi(p, "het")
        assert np.isclose(
            bound_of(het, [1, 0]), math.log2(1 + 6.25 / (23 / 16)), atol=1e-12
        )
        _, joint = bosonic_vsi(p, "joint")
        assert np.isclose(
            bound_of(joint, [0, 1]),
            g_oracle(6.6875) - g_oracle(0.4375),
            atol=1e-12,
        )


class TestSi:
    def test_strong_int_conditions(self):
        p = strong_int_params()
        for mode in ("hom", "het", "joint"):
            cond, _ = bosonic_si(p, mode)
            assert cond, mode

    def test_strong_int_pentagon_values(self):
        p = strong_int_params()
        _, hom = bosonic_si(p, "hom")
        assert np.isclose(bound_of(hom, [1, 0]), 0.5 * math.log2(101), atol=1e-12)
        assert np.isclose(bound_of(hom, [1, 1]), 0.5 * math.log2(301), atol=1e-12)
        _, het = bosonic_si(p, "het")
        assert np.isclose(bound_of(het, [0, 1]), math.log2(1 + 30 / 1.1), atol=1e-12)
        assert np.isclose(bound_of(het, [1, 1]), math.log2(1 + 90 / 1.1), atol=1e-12)
        _, joint = bosonic_si(p, "joint")
        assert np.isclose(
            bound_of(joint, [1, 0]), g_oracle(30.1) - g_oracle(0.1), atol=1e-12
        )
        assert np.isclose(
            bound_of(joint, [1, 1]), g_oracle(90.1) - g_oracle(0.1), atol=1e-12
        )

    def test_symmetric_region(self):
        _, region = bosonic_si(strong_int_params(), "het")
        assert np.isclose(
            bound_of(region, [1, 0]), bound_of(region, [0, 1]), atol=1e-12
        )

    def test_vsi_implies_si(self):
        rng = np.random.default_rng(5)
        seen_vsi = 0
        for _ in range(200):
            e11, e22 = rng.uniform(0.01, 0.4, size=2)
            e12 = rng.uniform(0.0, 1.0 - e11)
            e21 = e11 * e12 / e22
            if e21 + e22 > 1.0 or e21 + e11 > 1.0 or e12 + e22 > 1.0:
                continue
            p = BosonicICParams(
                e11, e12, e21, e22, rng.uniform(0, 5), rng.uniform(0, 5), 1.0, 1.0
            )
            for mode in ("hom", "het", "joint"):
                vsi_cond, _ = bosonic_vsi(p, mode)
                si_cond, _ = bosonic_si(p, mode)
                if vsi_cond:
                    seen_vsi += 1
                    assert si_cond, (mode, p)
        assert seen_vsi > 0


class TestThresholdsAsRates:
    @pytest.mark.parametrize(
        "couplings, floors",
        [
            ((0.3, 0.6, 0.6, 0.3), (1.0, 1.0)),
            ((1 / 16, 1 / 2, 1 / 2, 1 / 16), (1.0, 1.0)),
            ((0.2, 0.6, 0.3, 0.4), (0.0, 2.0)),  # etabar2 = 0, NB1 = 0
            ((0.5, 0.0, 0.0, 0.5), (1.0, 1.0)),
        ],
    )
    @pytest.mark.parametrize("powers", [(0.0, 100.0), (100.0, 0.0), (0.0, 0.0)])
    def test_zero_power_verdicts_agree_across_modes(self, couplings, floors, powers):
        # the receivers' noise floors are equal, so with one sender silent
        # every mode compares the same coupled powers
        p = BosonicICParams(*couplings, *powers, *floors)
        for test in (bosonic_vsi, bosonic_si):
            verdicts = {mode: test(p, mode)[0] for mode in ("hom", "het", "joint")}
            assert len(set(verdicts.values())) == 1, (test.__name__, verdicts)

    def test_silent_sender_half_holds(self):
        p = BosonicICParams(0.3, 0.6, 0.6, 0.3, 0.0, 100.0, 1.0, 1.0)
        for mode in ("hom", "het", "joint"):
            assert bosonic_vsi(p, mode)[0], mode

    def test_coherent_verdicts_match_linear_form(self):
        rng = np.random.default_rng(11)
        checked, held = 0, {"vsi": 0, "si": 0}
        while checked < 1000:
            p = random_passive_network(rng)
            if p is None:
                continue
            checked += 1
            for mode, i in (("hom", 1), ("het", 0)):
                vsi = bosonic_vsi(p, mode)[0]
                si = bosonic_si(p, mode)[0]
                assert vsi == linear_vsi(p, i), (mode, p)
                assert si == linear_si(p, i), (mode, p)
                held["vsi"] += vsi
                held["si"] += si
        # both verdicts occur, so the comparison is not vacuous
        assert 0 < held["vsi"] < 2000 and 0 < held["si"] < 2000, held


class TestHkRegion:
    def test_all_personal_is_treat_as_noise(self):
        p = BosonicICParams(0.8, 0.1, 0.1, 0.8, 100, 100, 1, 1, 1.0, 1.0)
        region = bosonic_hk_region(p, "hom")
        n1 = (2 * 0.1 * 1 + 1) / 4
        expect = 0.5 * math.log2(1 + (0.8 * 100) / (0.1 * 100 + n1))
        assert np.isclose(bound_of(region, [1, 0]), expect, atol=1e-12)

    def test_all_common_sum_facet_matches_si(self):
        for mode in ("hom", "het", "joint"):
            p = strong_int_params(0.0, 0.0)
            hk = bosonic_hk_region(p, mode)
            _, si = bosonic_si(p, mode)
            assert np.isclose(
                bound_of(hk, [1, 1]), bound_of(si, [1, 1]), atol=1e-12
            )
            for _, r1, r2 in boundary_sample(hk, 21):
                assert si.contains([r1, r2], tol=1e-9)

    def test_ten_percent_personal_frozen_rows(self):
        p = BosonicICParams(0.8, 0.1, 0.1, 0.8, 100, 100, 1, 1, 0.1, 0.1)
        hom = bosonic_hk_region(p, "hom")
        # receiver 1: own power 80 split 8 + 72, interference 10 split
        # 9 common + 1 noise, detection floor (2*0.1+1)/4 = 0.3
        r1_rows = sorted(
            b for c, b in hom.inequalities if np.allclose(c, [1, 0])
        )
        assert np.isclose(r1_rows[1], 0.5 * math.log2(1 + 80 / 1.3), atol=1e-12)
        assert np.isclose(
            r1_rows[0],
            0.5 * math.log2(1 + 8 / 1.3) + 0.5 * math.log2(1 + 9 / 1.3),
            atol=1e-12,
        )
        assert np.isclose(
            bound_of(hom, [2, 1]),
            0.5 * math.log2(1 + 89 / 1.3)
            + 0.5 * math.log2(1 + 8 / 1.3)
            + 0.5 * math.log2(1 + 17 / 1.3),
            atol=1e-12,
        )
        joint = bosonic_hk_region(p, "joint")
        assert np.isclose(
            bound_of(joint, [1, 1]),
            2 * (g_oracle(18.1) - g_oracle(1.1)),
            atol=1e-12,
        )

    def test_detection_ordering_high_power(self):
        p = BosonicICParams(0.8, 0.1, 0.1, 0.8, 100, 100, 1, 1, 0.1, 0.1)
        sums = {
            mode: bound_of(bosonic_hk_region(p, mode), [1, 1])
            for mode in ("hom", "het", "joint")
        }
        assert sums["joint"] > sums["het"] > sums["hom"]

    def test_row_count_and_shape(self):
        region = bosonic_hk_region(strong_int_params(0.5, 0.5), "het")
        assert len(region.inequalities) == 9
        coeffs = [tuple(c) for c, _ in region.inequalities]
        assert coeffs.count((1.0, 1.0)) == 3
        assert (2.0, 1.0) in coeffs and (1.0, 2.0) in coeffs
