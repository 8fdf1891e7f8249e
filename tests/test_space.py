"""Discrete space construction, validation, and the weighted primitives."""

import numpy as np
import pytest

from gaugekit.errors import DimensionError, ParameterError
from gaugekit.funcparam import Basis
from gaugekit.gauge import Hemimetric, L2Ball, TotalVariation, gauge_value, slack, support_value
from gaugekit.oracle import chi2_closed_form, cvar_sorted, tv_greedy, w1_flow_gauge, w1_transport
from gaugekit.reformulate import ReweightingProblem, composed_dual
from gaugekit.space import (
    FEASIBILITY_TOL,
    POINT_MERGE_TOL,
    DiscreteSpace,
    Reweighting,
    expectation,
    per_atom,
    sample_uniform_box,
    uniform_space,
    validate,
    weighted_inner,
)


def test_uniform_space_base_instance():
    sp = uniform_space([0.0, 1.0, 2.0, 3.0])
    assert sp.size == 4
    assert sp.dim == 1
    np.testing.assert_allclose(sp.weights, 0.25)
    assert validate(sp) == []


def test_scalar_points_reshape_to_column():
    sp = uniform_space([1.0, 2.0])
    assert sp.points.shape == (2, 1)


def test_duplicate_points_merge_and_pool_weight():
    sp = DiscreteSpace(np.array([0.0, 1.0, 1.0]), np.array([0.2, 0.3, 0.5]))
    assert sp.size == 2
    np.testing.assert_allclose(sp.weights, [0.2, 0.8])


def test_mismatched_lengths_rejected():
    with pytest.raises(DimensionError):
        DiscreteSpace(np.array([0.0, 1.0]), np.array([1.0]))


def test_empty_space_rejected():
    with pytest.raises(DimensionError):
        DiscreteSpace(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DimensionError):
        uniform_space([])


def test_nonfinite_points_rejected():
    with pytest.raises(ParameterError):
        DiscreteSpace(np.array([0.0, np.inf]), np.array([0.5, 0.5]))


def test_validate_reports_each_breach():
    sp = DiscreteSpace(np.array([0.0, 1.0]), np.array([-0.25, 0.5]))
    issues = validate(sp)
    assert len(issues) == 2  # negative weight and bad total
    assert any("positive" in msg for msg in issues)
    assert any("1" in msg for msg in issues)


def test_expectation_base_instance():
    sp = uniform_space([0.0, 1.0, 2.0, 3.0])
    assert expectation(sp, [0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.5)
    assert expectation(sp, Reweighting(np.arange(4.0))) == pytest.approx(1.5)


def test_expectation_length_checked():
    sp = uniform_space([0.0, 1.0])
    with pytest.raises(DimensionError):
        expectation(sp, [1.0, 2.0, 3.0])


def test_weighted_inner_bilinear():
    rng = np.random.default_rng(3)
    sp = DiscreteSpace(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    u, v, w = rng.normal(size=(3, 5))
    a, c = rng.normal(size=2)
    left = weighted_inner(sp, a * u + c * w, v)
    right = a * weighted_inner(sp, u, v) + c * weighted_inner(sp, w, v)
    assert left == pytest.approx(right, rel=1e-12)
    assert weighted_inner(sp, u, v) == pytest.approx(weighted_inner(sp, v, u))


def test_unit_reweighting_is_feasible():
    sp = uniform_space([0.0, 1.0, 2.0, 3.0])
    assert Reweighting(np.ones(4)).is_feasible(sp)
    assert not Reweighting(np.array([2.0, 1.0, 1.0, 1.0])).is_feasible(sp)
    assert not Reweighting(np.array([-0.5, 1.5, 1.5, 1.5])).is_feasible(sp)


def test_feasibility_tolerance_edges():
    sp = uniform_space([0.0, 1.0])
    tol = FEASIBILITY_TOL
    assert Reweighting(np.array([1.0 + 0.5 * tol, 1.0 + 0.5 * tol])).is_feasible(sp)
    assert not Reweighting(np.array([1.0 + 10 * tol, 1.0 + 10 * tol])).is_feasible(sp)
    assert not Reweighting(np.array([-10 * tol, 2.0 + 10 * tol])).is_feasible(sp)


def test_sample_uniform_box_reproducible():
    a = sample_uniform_box([0.0, 0.0], [1.0, 2.0], 16, seed=42)
    b = sample_uniform_box([0.0, 0.0], [1.0, 2.0], 16, seed=42)
    c = sample_uniform_box([0.0, 0.0], [1.0, 2.0], 16, seed=43)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.size == 16 and a.dim == 2
    assert np.all(a.points[:, 0] <= 1.0) and np.all(a.points[:, 1] <= 2.0)
    assert validate(a) == []


def test_sample_uniform_box_guards():
    with pytest.raises(ParameterError):
        sample_uniform_box([0.0], [1.0], 0, seed=1)
    with pytest.raises(ParameterError):
        sample_uniform_box([1.0], [1.0], 4, seed=1)
    with pytest.raises(DimensionError):
        sample_uniform_box([0.0, 0.0], [1.0], 4, seed=1)


def test_cost_vector_finite_only():
    with pytest.raises(ParameterError):
        per_atom(uniform_space([0.0, 1.0]), np.array([1.0, np.nan]))


def _merge_by_loop(points, weights):
    """The merge as a plain loop: each point against every kept atom in turn."""
    kept_idx = []
    target = np.empty(len(points), dtype=int)
    for i, pt in enumerate(points):
        hit = -1
        for slot, j in enumerate(kept_idx):
            if np.linalg.norm(pt - points[j]) <= POINT_MERGE_TOL:
                hit = slot
                break
        if hit < 0:
            kept_idx.append(i)
            target[i] = len(kept_idx) - 1
        else:
            target[i] = hit
    merged_w = np.zeros(len(kept_idx))
    np.add.at(merged_w, target, weights)
    return points[kept_idx], merged_w


def _coincidences_by_loop(points):
    return [f"points {i + 1} and {j + 1} coincide"
            for i in range(len(points)) for j in range(i + 1, len(points))
            if np.linalg.norm(points[i] - points[j]) <= POINT_MERGE_TOL]


_OFFSETS = np.array([0.0, 0.3, 0.6, 1.0, 1.5, 3.0]) * 1e-12


def clustered_points(rng, dim):
    """A few random centres, each repeated with offsets around the merge
    tolerance, including chains a ~ b ~ c along one axis with a !~ c,
    shuffled."""
    centres = rng.uniform(-2.0, 2.0, size=(rng.integers(1, 5), dim))
    pts = centres[rng.integers(0, len(centres), size=rng.integers(1, 25))]
    pts = pts + rng.choice(_OFFSETS, size=pts.shape) * rng.choice([-1.0, 1.0], size=pts.shape)
    steps = np.cumsum(rng.choice(_OFFSETS, size=rng.integers(2, 6)))
    chain = centres[0] + steps[:, None] * np.eye(dim)[rng.integers(dim)]
    both = np.vstack([pts, chain])
    return both[rng.permutation(len(both))]


def test_merge_matches_the_plain_loop_on_clustered_points():
    rng = np.random.default_rng(20)
    merged = 0
    for trial in range(360):
        pts = clustered_points(rng, dim=1 + trial % 3)
        w = rng.uniform(0.1, 1.0, size=len(pts))
        want_pts, want_w = _merge_by_loop(pts, w)
        sp = DiscreteSpace(pts, w)
        assert np.array_equal(sp.points, want_pts)
        assert np.array_equal(sp.weights, want_w)
        merged += len(pts) - sp.size
    assert merged > 1000


def test_repeated_points_merge_like_the_plain_loop():
    # sampled data with ties: few distinct values, each repeated many times,
    # some copies nudged by less than the tolerance
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.0, 1.0, size=(7, 2))[rng.integers(0, 7, size=3000)]
    pts[::50] += 0.5e-12
    w = rng.uniform(0.1, 1.0, size=len(pts))
    want_pts, want_w = _merge_by_loop(pts, w)
    sp = DiscreteSpace(pts, w)
    assert np.array_equal(sp.points, want_pts)
    assert np.array_equal(sp.weights, want_w)


def test_a_chain_keeps_its_far_end():
    # b lies within the tolerance of a and c, but a and c are apart: b joins
    # a, the first kept atom, and c stays an atom of its own
    sp = DiscreteSpace(np.array([0.0, 0.6e-12, 1.2e-12]), np.array([0.2, 0.3, 0.5]))
    np.testing.assert_array_equal(sp.points.ravel(), [0.0, 1.2e-12])
    np.testing.assert_array_equal(sp.weights, [0.2 + 0.3, 0.5])
    late = DiscreteSpace(np.array([0.0, 1.2e-12, 0.6e-12]), np.array([0.2, 0.5, 0.3]))
    np.testing.assert_array_equal(late.weights, [0.2 + 0.3, 0.5])


def _merge_by_table(points, weights):
    """The merge against a broadcast table of every pairwise norm: each point
    joins the first kept atom it coincides with, as in _merge_by_loop."""
    near = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2) <= POINT_MERGE_TOL
    kept = np.zeros(len(points), dtype=bool)
    target = np.empty(len(points), dtype=int)
    for i in range(len(points)):
        hits = np.flatnonzero(near[i, :i] & kept[:i])
        kept[i] = len(hits) == 0
        target[i] = i if kept[i] else hits[0]
    merged_w = np.zeros(int(kept.sum()))
    np.add.at(merged_w, (np.cumsum(kept) - 1)[target], weights)
    return points[kept], merged_w


def _nudged(rng, pts, copies, low, high):
    """pts with `copies` extra rows, each a random row moved by a random
    direction times a length in [low, high], shuffled."""
    step = rng.normal(size=(copies, pts.shape[1]))
    step *= rng.uniform(low, high, size=(copies, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
    both = np.vstack([pts, pts[rng.integers(0, len(pts), size=copies)] + step])
    return both[rng.permutation(len(both))]


def _one_ulp_apart(rng, dim, count):
    """count points with coordinates of one sign and magnitude 2^12 to 2^13,
    where one ulp is 0.91e-12, and three copies of each with one coordinate
    moved by one ulp. In four or more dimensions the rounding of a projection
    on a fixed direction then often exceeds twice POINT_MERGE_TOL."""
    sign = rng.choice([-1.0, 1.0], size=(count, 1))
    centres = sign * rng.uniform(2.0 ** 12, 2.0 ** 13, size=(count, dim))
    nudged = np.repeat(centres, 3, axis=0)
    rows = np.arange(len(nudged))
    cols = rng.integers(0, dim, size=len(nudged))
    nudged[rows, cols] = np.nextafter(nudged[rows, cols], rng.choice([-np.inf, np.inf], size=len(nudged)))
    return centres, nudged


def _assert_merges_like_the_table(pts, rng):
    w = rng.uniform(0.1, 1.0, size=len(pts))
    want_pts, want_w = _merge_by_table(pts, w)
    sp = DiscreteSpace(pts, w)
    assert np.array_equal(sp.points, want_pts)
    assert np.array_equal(sp.weights, want_w)
    return len(pts) - sp.size


class TestLayoutsAgainstTheTable:
    """Layouts that defeat a search along one coordinate: ties in that
    coordinate, axis-aligned grids, and magnitudes where one ulp is near or
    above POINT_MERGE_TOL."""

    def test_points_sharing_their_first_coordinate(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3):
            rest = rng.uniform(-1.0, 1.0, size=(768, dim - 1))
            pts = np.column_stack([np.full(768, 0.7), rest])
            pts = _nudged(rng, pts, 256, 0.0, 1.5e-12)
            pts[:, 0] = 0.7
            assert _assert_merges_like_the_table(pts, rng) > 50

    def test_a_grid_with_nudged_copies(self):
        rng = np.random.default_rng(32)
        axis = np.arange(32.0) / 7.0
        grid = np.array([(x, y) for x in axis for y in axis])
        pts = _nudged(rng, grid, 300, 0.3e-12, 1.5e-12)
        assert 50 < _assert_merges_like_the_table(pts, rng) < 300

    def test_clustered_points_at_large_magnitudes(self):
        rng = np.random.default_rng(33)
        merged = 0
        for trial in range(120):
            dim = 1 + trial % 3
            shift = 10.0 ** rng.uniform(3.0, 8.0) * rng.choice([-1.0, 1.0], size=dim)
            merged += _assert_merges_like_the_table(clustered_points(rng, dim) + shift, rng)
        assert merged > 500
        for trial in range(16):
            centres, nudged = _one_ulp_apart(rng, 4 + trial % 5, 150)
            pts = np.vstack([centres, nudged])
            merged += _assert_merges_like_the_table(pts[rng.permutation(len(pts))], rng)
        assert merged > 5000

    def test_singleton_indicators_on_clustered_points(self):
        rng = np.random.default_rng(34)
        for trial in range(136):
            dim = 1 + trial % 3
            shift = (10.0 ** rng.uniform(0.0, 8.0) if trial % 2 else 0.0) * np.ones(dim)
            listed = clustered_points(rng, dim) + shift
            query = np.vstack([clustered_points(rng, dim) + shift, listed])
            if trial >= 120:
                listed, query = _one_ulp_apart(rng, 4 + trial % 5, 150)
            gaps = np.linalg.norm(query[:, None, :] - listed[None, :, :], axis=2)
            want = (gaps <= POINT_MERGE_TOL).astype(float)
            np.testing.assert_array_equal(Basis.singletons(listed).matrix(query), want)


def test_validate_reports_coincidences_like_the_plain_loop():
    rng = np.random.default_rng(21)
    for trial in range(60):
        pts = clustered_points(rng, dim=1 + trial % 3)
        sp = uniform_space(np.arange(float(len(pts))))
        object.__setattr__(sp, "points", pts)
        assert validate(sp) == _coincidences_by_loop(pts)
    sp = uniform_space([0.0, 1.0, 2.0])
    object.__setattr__(sp, "points", np.array([[0.0], [np.nan], [0.0]]))
    assert validate(sp) == ["points 1 and 3 coincide"]


def test_points_need_a_coordinate():
    with pytest.raises(DimensionError):
        uniform_space(np.zeros((2, 0)))


ABS = Hemimetric.pnorm(1.0)

# every public entry point that takes a cost or a deviation over the support,
# called with that vector as v
PER_ATOM_ENTRY_POINTS = {
    "expectation": lambda sp, v: expectation(sp, v),
    "weighted_inner": lambda sp, v: weighted_inner(sp, np.ones(sp.size), v),
    "cvar_sorted": lambda sp, v: cvar_sorted(sp, v, 0.5),
    "tv_greedy": lambda sp, v: tv_greedy(sp, v, 0.5),
    "w1_transport": lambda sp, v: w1_transport(sp, v, 0.5, ABS),
    "chi2_closed_form": lambda sp, v: chi2_closed_form(sp, v, 0.5),
    "w1_flow_gauge": lambda sp, v: w1_flow_gauge(sp, v, ABS),
    "gauge_value": lambda sp, v: gauge_value(L2Ball(), sp, v),
    "support_value": lambda sp, v: support_value(L2Ball(), sp, v),
    "slack": lambda sp, v: slack(L2Ball(), sp, v, 1.0),
    "ReweightingProblem": lambda sp, v: ReweightingProblem(sp, v, TotalVariation(), 0.5),
    "composed_dual": lambda sp, v: composed_dual(sp, v, [(TotalVariation(), 0.5)]),
}


@pytest.mark.parametrize("entry", list(PER_ATOM_ENTRY_POINTS))
def test_every_per_atom_entry_point_checks_its_vector(entry):
    call = PER_ATOM_ENTRY_POINTS[entry]
    sp = uniform_space([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        call(sp, [0.0, 1.0, 2.0])
    with pytest.raises(ParameterError):
        call(sp, [0.0, np.nan, 2.0, 3.0])
