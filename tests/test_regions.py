import itertools
import json

import numpy as np
import pytest
from fm_loop import _normalize_rows, loop_exact_prune, loop_fm_project, loop_implied_share
from lp_prune import lp_prune
from scipy.optimize import linprog

from qnetcap import network, regions
from qnetcap.channels import builtin, theta_swap
from qnetcap.network import (
    cmg_informations,
    cmg_region,
    cmg_region_via_projection,
    random_cmg_distribution,
)
from qnetcap.qstate import InvariantError
from qnetcap.regions import (
    HalfspaceRegion,
    _exact_prune,
    boundary_sample,
    equivalent,
    fm_project,
    implied_share,
    intersect,
    polymatroid_slacks,
    region_from_json,
    region_to_json,
)


def rand_region(rng, dim, n_rows):
    rows = []
    for _ in range(n_rows):
        c = rng.uniform(0.0, 1.0, size=dim)
        c[rng.integers(dim)] += 0.5  # keep every direction bounded
        rows.append((c, rng.uniform(0.5, 2.0)))
    return HalfspaceRegion([f"R{i}" for i in range(dim)], rows)


def assert_matches_lp_oracle(region, m, proj, rng, span=3.0):
    """Membership in ``proj`` agrees with LP feasibility of {R in region,
    m . R = q} at 200 points q drawn from [0, span)^k, except within a hair
    of the boundary."""
    a_ub = np.array([c for c, _ in region.inequalities])
    b_ub = np.array([b for _, b in region.inequalities])
    agree = 0
    for _ in range(200):
        q = rng.uniform(0.0, span, size=len(m))
        res = linprog(
            np.zeros(region.dim),
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=m,
            b_eq=q,
            bounds=[(0, None)] * region.dim,
            method="highs",
        )
        feasible = res.status == 0
        member = proj.contains(q, tol=1e-7)
        if feasible == member:
            agree += 1
        else:
            # disagreement allowed only within a hair of the boundary
            assert proj.contains(q, tol=1e-5) != proj.contains(q, tol=-1e-5)
    assert agree >= 198


class TestConstruction:
    def test_negative_bound_rejected(self):
        with pytest.raises(InvariantError):
            HalfspaceRegion(("R1",), [([1.0], -0.5)])

    def test_roundoff_bound_clamped(self):
        r = HalfspaceRegion(("R1",), [([1.0], -1e-10)])
        assert r.inequalities[0][1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvariantError):
            HalfspaceRegion(("R1", "R2"), [([1.0], 1.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantError):
            HalfspaceRegion(("R1",), [([1.0], np.inf)])


class TestMembership:
    def test_origin_always_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert rand_region(rng, 3, 4).contains([0, 0, 0])

    def test_violation_detected(self):
        r = HalfspaceRegion(("R1", "R2"), [([1.0, 1.0], 1.0)])
        assert r.contains([0.5, 0.5])
        assert not r.contains([0.5, 0.5 + 2e-7], tol=1e-7)
        assert not r.contains([-1e-3, 0.0])

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(2)
        r = rand_region(rng, 3, 5)
        for _ in range(100):
            p = rng.uniform(-0.2, 2.0, size=3)
            direct = np.all(p >= -1e-7) and all(
                c @ p <= b + 1e-7 for c, b in r.inequalities
            )
            assert r.contains(p) == direct

    def test_wrong_length_point_rejected(self):
        r = rand_region(np.random.default_rng(4), 3, 5)
        with pytest.raises(InvariantError):
            r.contains([0.5, 0.5])


class TestIntersect:
    def test_membership_equivalence(self):
        rng = np.random.default_rng(3)
        a = rand_region(rng, 2, 3)
        b = rand_region(rng, 2, 3)
        both = intersect(a, b)
        for _ in range(200):
            p = rng.uniform(0.0, 2.5, size=2)
            assert both.contains(p) == (a.contains(p) and b.contains(p))

    def test_commutative(self):
        rng = np.random.default_rng(4)
        a = rand_region(rng, 2, 3)
        b = rand_region(rng, 2, 3)
        ab, ba = intersect(a, b), intersect(b, a)
        for _ in range(100):
            p = rng.uniform(0.0, 2.5, size=2)
            assert ab.contains(p) == ba.contains(p)

    def test_name_mismatch(self):
        a = HalfspaceRegion(("R1",), [([1.0], 1.0)])
        b = HalfspaceRegion(("S",), [([1.0], 1.0)])
        with pytest.raises(InvariantError):
            intersect(a, b)


class TestFmProject:
    @pytest.fixture(autouse=True)
    def same_rows_as_row_loop(self, monkeypatch):
        """Every projection these tests make has the rows, byte for byte, of
        the row-loop reference."""
        stacked = fm_project

        def checked(region, m, names):
            proj = stacked(region, m, names)
            assert repr(proj.inequalities) == repr(loop_fm_project(region, m, names).inequalities)
            return proj

        monkeypatch.setitem(globals(), "fm_project", checked)

    def test_box_onto_sum(self):
        box = HalfspaceRegion(("x", "y"), [([1, 0], 1.0), ([0, 1], 1.0)])
        proj = fm_project(box, [[1, 1]], ("s",))
        assert proj.contains([2.0])
        assert not proj.contains([2.0 + 1e-5])
        # the only surviving facet is s <= 2
        assert len(proj.inequalities) == 1
        c, b = proj.inequalities[0]
        assert np.isclose(b / c[0], 2.0)

    def test_identity_map(self):
        rng = np.random.default_rng(5)
        r = rand_region(rng, 2, 4)
        proj = fm_project(r, np.eye(2), r.coordinate_names)
        for _ in range(200):
            p = rng.uniform(0.0, 2.5, size=2)
            assert proj.contains(p) == r.contains(p)

    def test_against_lp_feasibility_oracle(self):
        rng = np.random.default_rng(6)
        r = rand_region(rng, 4, 6)
        m = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        proj = fm_project(r, m, ("R1", "R2"))
        assert_matches_lp_oracle(r, m, proj, rng)

    def test_more_than_two_coordinates_rejected(self, monkeypatch):
        lp_calls = []
        monkeypatch.setattr(regions, "linprog", lambda *a, **kw: lp_calls.append(1))
        rng = np.random.default_rng(8)
        r = rand_region(rng, 5, 6)
        m = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(InvariantError, match="at most 2"):
            fm_project(r, m, ("R1", "R2", "R3"))
        assert not lp_calls

    @pytest.mark.parametrize("seed,n_rows", [(0, 7), (2, 8)])
    def test_elimination_past_prune_threshold(self, seed, n_rows):
        # unpruned, these eliminations grow past 64 rows; a prune that drops
        # the rows R >= 0 that later eliminations read projects seed 0 to an
        # empty system and loses seed 2's facet (1, 0.92) . R <= 1.628
        rng = np.random.default_rng(seed)
        r = rand_region(rng, 4, n_rows)
        m = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        proj = fm_project(r, m, ("R1", "R2"))
        assert_matches_lp_oracle(r, m, proj, rng, span=1.8)
        a_ub = np.array([c for c, _ in r.inequalities])
        b_ub = np.array([b for _, b in r.inequalities])
        for c, b in proj.inequalities:
            res = linprog(-(c @ m), A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * 4,
                          method="highs")
            assert abs(-res.fun - b) < 1e-7

    def test_same_row_from_two_histories(self):
        # a degenerate system in which one intermediate row arises from two
        # sets of original rows: keeping only the first history makes
        # Kohler's rule drop the facet (1, -1/3) . s <= 5/6 two steps later
        rows = [([1, 1, 2, 0, 2], 2), ([1, 2, 1, 1, 1], 3), ([2, 1, 2, 1, 0], 3),
                ([2, 2, 0, 2, 0], 3), ([2, 0, 0, 0, 1], 2), ([0, 1, 0, 0, 1], 3),
                ([0, 2, 2, 1, 0], 1), ([1, 0, 0, 0, 0], 1), ([0, 1, 0, 0, 0], 2),
                ([0, 0, 1, 0, 0], 3), ([0, 0, 0, 1, 0], 3), ([0, 0, 0, 0, 1], 1)]
        r = HalfspaceRegion([f"x{i}" for i in range(5)], rows)
        proj = fm_project(r, [[0, 1, 1, 0, 1], [0, 1, 0, 1, 1]], ("s1", "s2"))
        facets = [([-1, 1], 1.0), ([1, 1 / 3], 5 / 3), ([1, -1], 0.5), ([1, -1 / 3], 5 / 6)]
        assert equivalent(proj, HalfspaceRegion(("s1", "s2"), facets))

    def test_unbounded_projection_rejected(self):
        r = HalfspaceRegion(("x", "y"), [([1, 0], 1.0)])
        with pytest.raises(InvariantError):
            fm_project(r, [[1, 1]], ("s",))

    def test_projection_of_pentagon_system(self):
        # split rates (R1p, R1c): {R1p <= 0.3, R1p + R1c <= 0.8} onto
        # R1 = R1p + R1c gives R1 <= 0.8
        sys1 = HalfspaceRegion(
            ("R1p", "R1c"), [([1, 0], 0.3), ([1, 1], 0.8)]
        )
        proj = fm_project(sys1, [[1, 1]], ("R1",))
        assert proj.contains([0.8])
        assert not proj.contains([0.81])

    @pytest.mark.parametrize("m", [[1, 1], [[1, 1], [1]], [[1, np.nan]], [[np.inf, 1]],
                                   np.zeros((0, 2))],
                             ids=["one-dimensional", "ragged", "nan", "inf", "empty"])
    def test_malformed_map_rejected(self, m):
        # checked before any elimination: no RuntimeWarning, no late error
        box = HalfspaceRegion(("x", "y"), [([1, 0], 1.0), ([0, 1], 1.0)])
        with pytest.raises(InvariantError, match="projection map"):
            fm_project(box, m, ("s",))


def random_rows(rng, n_rows, dim):
    """Coefficients and bounds of ``n_rows`` rows: small integers (ties,
    duplicates and zero rows) or uniform draws, with equal odds."""
    if rng.random() < 0.5:
        return rng.integers(-1, 3, (n_rows, dim)).astype(float), rng.integers(0, 4, n_rows) * 1.0
    return rng.uniform(-0.5, 1.5, (n_rows, dim)), rng.uniform(0.0, 2.0, n_rows)


def projected(project, region, m):
    """The repr of the rows ``project`` gives, or the InvariantError it raises."""
    try:
        return repr(project(region, m, ("s1", "s2")[: len(m)]).inequalities)
    except InvariantError as exc:
        return f"InvariantError: {exc}"


@pytest.fixture
def polygons(monkeypatch):
    """Every ``_Polygon`` built while the test runs, counting its
    ``supports`` passes: the two of the prune (or of ``implied_share``) and
    one more per row left to the prune's in-order walk."""
    made = []

    class Counted(regions._Polygon):
        def __init__(self, rows, dim):
            super().__init__(rows, dim)
            self.passes = 0
            made.append(self)

        def supports(self, active):
            self.passes += 1
            return super().supports(active)

    monkeypatch.setattr(regions, "_Polygon", Counted)
    return made


class TestStackedParity:
    """The stacked projection gives the rows of the row-loop reference
    (``tests/fm_loop.py``), keeps the same row objects in the prune and
    implies the same share."""

    @pytest.mark.parametrize("channel", ["bb84_qmac", "theta_swap(1.2)"])
    def test_common_message_systems(self, monkeypatch, polygons, channel):
        # seeds 0-49 x Q sizes 1-3 hold criterion 4's systems (bb84_qmac, Q of 2, seeds 1-3)
        systems = []
        stacked = network.fm_project
        monkeypatch.setattr(network, "fm_project",
                            lambda *args: systems.append(args) or stacked(*args))
        ch = builtin("bb84_qmac") if channel == "bb84_qmac" else theta_swap(1.2)
        for q_size, seed in itertools.product((1, 2, 3), range(50)):
            q = cmg_informations(ch, random_cmg_distribution(ch, seed, q_size=q_size))
            region, direct = network._cmg_projected(q), network._cmg_direct(q)
            assert implied_share(direct, region) == loop_implied_share(direct, region)
        assert len(systems) == 150
        for region, m, _ in systems:
            assert projected(fm_project, region, m) == projected(loop_fm_project, region, m)
        # two prunes and one share per system, every row decided by the two passes
        assert len(polygons) == 450
        assert [p.passes for p in polygons] == [2] * 450

    def test_random_systems(self):
        rng = np.random.default_rng(10)
        outcomes = set()
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            rows = zip(*random_rows(rng, int(rng.integers(3, 10)), dim))
            region = HalfspaceRegion([f"x{i}" for i in range(dim)], rows)
            m = rng.integers(0, 2, size=(int(rng.integers(1, 3)), dim))
            outcome = projected(fm_project, region, m)
            assert outcome == projected(loop_fm_project, region, m)
            outcomes.add(outcome.startswith("InvariantError"))
        assert outcomes == {False, True}

    def test_prune_keeps_the_same_rows(self, polygons):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            rows = list(zip(*random_rows(rng, int(rng.integers(1, 10)), 2)))
            assert [id(r) for r in _exact_prune(rows, 2)] == [id(r) for r in loop_exact_prune(rows, 2)]
        # ties and rows that imply each other leave rows to the in-order walk here
        assert len(polygons) == 2000
        assert sum(p.passes > 2 for p in polygons) == 149

    def test_normalize_dedups_rows_of_one_history(self):
        # rows 0 and 1 share a history and differ beyond 1e-10; rows 2 and 3
        # share one and round equal; row 4 rounds equal to row 2 in another history
        coeffs = np.array([[2.0, 1.0], [1.0, 0.5 + 3e-10], [0.0, -3.0], [0.0, -1.0], [0.0, -1.0]])
        bounds = np.array([2.0, 1.0, 3.0, 1.0 + 2e-11, 1.0])
        history = [3, 3, 5, 5, 6]
        got = regions._normalize(coeffs, bounds, history)
        want = _normalize_rows(zip(coeffs, bounds, history))
        assert len(got[2]) == 4
        assert repr([(c.tolist(), b, h) for c, b, h in zip(*got)]) == repr(
            [(c.tolist(), b, h) for c, b, h in want])

    def test_implied_share_of_random_pairs(self):
        rng = np.random.default_rng(12)
        shares = set()
        for _ in range(500):
            a, b = (HalfspaceRegion(("R1", "R2"), [(rng.integers(0, 3, 2), rng.integers(0, 4))
                                                   for _ in range(int(rng.integers(0, 5)))])
                    for _ in range(2))
            shares.add(implied_share(a, b))
            assert implied_share(a, b) == loop_implied_share(a, b)
        assert len(shares) > 5


def assert_same_prune(rows, dim):
    """The exact prune keeps the very row objects the LP prune keeps, in
    the same order."""
    rows = [(np.array(c, dtype=float), float(b)) for c, b in rows]
    by_lp, exact = lp_prune(rows, dim), _exact_prune(rows, dim)
    assert [id(row) for row in exact] == [id(row) for row in by_lp]
    return exact


class TestExactPrune:
    def test_duplicate_rows_after_scaling(self):
        kept = assert_same_prune(
            [([1, 1], 1.0), ([2, 2], 2.0), ([1, 0], 0.8), ([0, 3], 2.4), ([0, 1], 0.8)], 2)
        assert len(kept) == 3

    def test_three_rows_through_one_vertex(self):
        kept = assert_same_prune(
            [([1, 0], 0.5), ([0, 1], 0.5), ([1, 1], 1.0), ([2, 1], 1.5), ([1, 2], 1.5)], 2)
        assert len(kept) == 2

    def test_row_touching_one_vertex(self):
        kept = assert_same_prune(
            [([1, 2], 3.0), ([1, 0], 1.0), ([0, 1], 1.0), ([1, 1], 2.0), ([1, 1], 1.9)], 2)
        assert len(kept) == 3

    def test_unbounded_direction(self):
        # R2 is free above x - y <= 0.5: rows along it are kept
        kept = assert_same_prune(
            [([1, 0], 1.0), ([1, -1], 0.5), ([2, -1], 5.0), ([-1, 0], 0.0), ([-1, 1], 4.0)], 2)
        assert len(kept) == 3

    def test_one_coordinate(self):
        kept = assert_same_prune([([1], 0.8), ([2], 1.0), ([1], 0.9), ([-1], 0.0)], 1)
        assert [float(b) for _, b in kept] == [1.0]

    def test_random_systems(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            rows = [(rng.uniform(-0.3, 1.0, size=2), rng.uniform(0.0, 2.0))
                    for _ in range(int(rng.integers(1, 9)))]
            assert_same_prune(rows, 2)

    @pytest.mark.parametrize("channel", ["bb84_qmac", "theta_swap(1.2)"])
    def test_seeded_common_message_systems(self, monkeypatch, channel):
        finals = []
        real = regions._exact_prune

        def spy(rows, dim):
            finals.append(rows)
            return real(rows, dim)

        monkeypatch.setattr(regions, "_exact_prune", spy)
        ch = builtin("bb84_qmac") if channel == "bb84_qmac" else theta_swap(1.2)
        for q_size, seed in itertools.product((1, 2, 3), (0, 1)):
            dist = random_cmg_distribution(ch, seed, q_size=q_size)
            projected = cmg_region_via_projection(ch, dist)
            assert equivalent(projected, cmg_region(ch, dist))
        assert len(finals) == 6
        for rows in finals:
            assert_same_prune(rows, 2)


PENTAGON = [([1, 0], 0.6), ([0, 1], 0.6), ([1, 1], 1.0)]


class TestEquivalent:
    def test_redundant_rows_written_differently(self):
        a = HalfspaceRegion(("R1", "R2"), PENTAGON)
        b = HalfspaceRegion(("R1", "R2"), [([2, 2], 2.0), ([1, 0], 0.9), ([0, 1], 0.6),
                                           ([2, 1], 1.7), ([1, 0], 0.6)])
        assert equivalent(a, b) and equivalent(b, a)

    def test_shifted_facet(self):
        a = HalfspaceRegion(("R1", "R2"), PENTAGON)
        b = HalfspaceRegion(("R1", "R2"), PENTAGON[:2] + [([1, 1], 1.001)])
        assert not equivalent(a, b) and not equivalent(b, a)
        # every row but the tighter sum facet is implied by the other region
        assert implied_share(a, b) == implied_share(b, a) == 5 / 6

    def test_regions_without_rows(self):
        orthant = HalfspaceRegion(("R1", "R2"), [])
        assert implied_share(orthant, orthant) == 1.0 and equivalent(orthant, orthant)
        box = HalfspaceRegion(("R1", "R2"), [([1, 0], 1.0)])
        assert implied_share(orthant, box) == 0.0 and not equivalent(box, orthant)

    def test_unbounded_against_bounded(self):
        half = HalfspaceRegion(("R1", "R2"), [([1, 0], 1.0)])
        box = HalfspaceRegion(("R1", "R2"), [([1, 0], 1.0), ([0, 1], 5.0)])
        assert not equivalent(half, box) and not equivalent(box, half)
        assert equivalent(half, HalfspaceRegion(("R1", "R2"), [([2, 0], 2.0), ([3, -1], 4.0)]))

    def test_one_coordinate(self):
        a = HalfspaceRegion(("R1",), [([1], 1.0)])
        assert equivalent(a, HalfspaceRegion(("R1",), [([2], 2.0), ([1], 1.5)]))
        assert not equivalent(a, HalfspaceRegion(("R1",), [([1], 0.9)]))

    def test_mismatch_rejected(self):
        a = HalfspaceRegion(("R1", "R2"), PENTAGON)
        with pytest.raises(InvariantError):
            equivalent(a, HalfspaceRegion(("S1", "S2"), PENTAGON))
        cube = HalfspaceRegion(("x", "y", "z"), [([1, 1, 1], 1.0)])
        with pytest.raises(InvariantError):
            equivalent(cube, cube)


class TestBoundary:
    def test_unit_box_diagonal(self):
        box = HalfspaceRegion(("R1", "R2"), [([1, 0], 1.0), ([0, 1], 1.0)])
        pts = boundary_sample(box, 5)
        assert len(pts) == 5
        theta, r1, r2 = pts[2]
        assert np.isclose(theta, np.pi / 4)
        assert np.isclose(r1, 1.0) and np.isclose(r2, 1.0)

    def test_pentagon_sum_facet(self):
        pent = HalfspaceRegion(
            ("R1", "R2"),
            [([1, 0], 0.6), ([0, 1], 0.6), ([1, 1], 1.0)],
        )
        pts = boundary_sample(pent, 5)
        _, r1, r2 = pts[2]
        assert np.isclose(r1, 0.5) and np.isclose(r2, 0.5)

    def test_samples_inside_region(self):
        rng = np.random.default_rng(7)
        r = rand_region(rng, 2, 4)
        for _, r1, r2 in boundary_sample(r, 37):
            assert r.contains([r1, r2], tol=1e-9)

    def test_origin_region(self):
        zero = HalfspaceRegion(("R1", "R2"), [([1, 0], 0.0), ([0, 1], 0.0)])
        for _, r1, r2 in boundary_sample(zero, 9):
            assert r1 == 0.0 and r2 == 0.0

    def test_unbounded_direction_rejected(self):
        half = HalfspaceRegion(("R1", "R2"), [([1, 0], 1.0)])
        with pytest.raises(InvariantError):
            boundary_sample(half, 9)


class TestJson:
    def test_round_trip(self):
        # through the indented JSON text the command line writes
        r = HalfspaceRegion(("R1", "R2"), [([1, 0.5], 1.25), ([1, 1], 2.0)])
        doc = region_to_json(r)
        assert doc["coords"] == ["R1", "R2"]
        back = region_from_json(json.loads(json.dumps(doc, indent=2)))
        assert back.coordinate_names == r.coordinate_names
        assert len(back.inequalities) == 2
        for (c1, b1), (c2, b2) in zip(back.inequalities, r.inequalities):
            assert np.array_equal(c1, c2) and b1 == b2

    def test_bad_document(self):
        with pytest.raises(InvariantError):
            region_from_json({"coords": ["R1"]})


class TestPolymatroidSlacks:
    def test_frozen_arithmetic(self):
        s = polymatroid_slacks({"a": 0.1, "b": 0.3, "c": 0.2, "d": 0.35})
        assert np.isclose(s["b-a"], 0.2)
        assert np.isclose(s["d-b"], 0.05)
        assert np.isclose(s["c-a"], 0.1)
        assert np.isclose(s["d-c"], 0.15)
        assert np.isclose(s["b+c-a-d"], 0.05)

    def test_violation_visible(self):
        s = polymatroid_slacks({"a": 0.5, "b": 0.3, "c": 0.2, "d": 0.35})
        assert s["b-a"] < 0
