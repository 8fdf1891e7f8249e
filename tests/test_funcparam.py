"""Restricted-basis duals: moment vectors, pinned values, and dominance.

Pinned values on the uniform four-point line with identity cost:
constants-only basis at radius 0.5 over the transport polar gives 3.0
(the cheapest dominating constant), the full singleton span gives 2.0
(the unrestricted dual), and at radius 0 the order-1 moment basis fits
the cheapest dominating line to the squared cost (4.5) while order 2
reaches the squared cost itself (3.5).
"""

import numpy as np
import pytest

from gaugekit.errors import BasisError, DimensionError, EncodingError, ParameterError
from gaugekit.funcparam import Basis, basis_moments, build_param_dual, param_dual_value
from gaugekit.gauge import (
    CvarGauge,
    Hemimetric,
    Intersect,
    L2Ball,
    Lipschitz,
    MinkowskiSum,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
)
from gaugekit.oracle import reference_lp
from gaugekit.reformulate import ReweightingProblem, build_dual, dual_solution
from gaugekit.space import POINT_MERGE_TOL, uniform_space

from program_checks import assert_same_program

TOL = 1e-6

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
F = np.array([0.0, 1.0, 2.0, 3.0])
ABS1 = Hemimetric.pnorm(1.0)
TRANSPORT = Polar(Lipschitz(ABS1))


def base_problem(epsilon, cost=F, gauge=TRANSPORT):
    return ReweightingProblem(BASE, np.asarray(cost, dtype=float), gauge, epsilon)


def two_regions(cut=2.0):
    return [lambda x, c=cut: x[0] < c, lambda x, c=cut: x[0] >= c]


class TestFactories:
    def test_moment_order_must_be_one_or_two(self):
        with pytest.raises(ParameterError):
            Basis.moment(3)
        with pytest.raises(ParameterError):
            Basis.moment(0)

    def test_predicates_must_be_nonempty_callables(self):
        with pytest.raises(ParameterError):
            Basis.indicator_regions([])
        with pytest.raises(ParameterError):
            Basis.piecewise_affine([lambda x: True, "not callable"])

    def test_singletons_need_finite_points(self):
        with pytest.raises(ParameterError):
            Basis.singletons([])
        with pytest.raises(ParameterError):
            Basis.singletons([0.0, np.inf])

    def test_nonneg_flag_tightens_the_cone(self):
        free = Basis.indicator_regions(two_regions())
        tight = Basis.indicator_regions(two_regions(), nonneg=True)
        assert free.cone_blocks(1) == (("free", 2),)
        assert tight.cone_blocks(1) == (("nonneg", 2),)


class TestMoments:
    def test_two_region_split(self):
        got = basis_moments(BASE, Basis.indicator_regions(two_regions()))
        assert got == pytest.approx([0.5, 0.5])

    def test_moment_order_one_is_the_mean(self):
        got = basis_moments(BASE, Basis.moment(1))
        assert got == pytest.approx([1.5])

    def test_affine_single_region(self):
        got = basis_moments(BASE, Basis.piecewise_affine([lambda x: True]))
        assert got == pytest.approx([1.0, 1.5])

    def test_singletons_recover_the_weights(self):
        got = basis_moments(BASE, Basis.singletons(BASE.points))
        assert got == pytest.approx(BASE.weights)

    def test_region_overlap_is_rejected(self):
        preds = [lambda x: x[0] < 2.5, lambda x: x[0] >= 2.0]
        with pytest.raises(BasisError):
            basis_moments(BASE, Basis.indicator_regions(preds))

    def test_uncovered_point_is_rejected(self):
        preds = [lambda x: x[0] < 1.0, lambda x: x[0] > 2.0]
        with pytest.raises(BasisError):
            basis_moments(BASE, Basis.piecewise_affine(preds))

    def test_order_two_row_layout(self):
        # constant, coordinates, then the scaled upper triangle of the
        # outer product (off-diagonals carry sqrt(2))
        phi = Basis.moment(2).evaluate(np.array([[1.0, 2.0]]))
        root2 = np.sqrt(2.0)
        assert phi[0] == pytest.approx([1.0, 1.0, 2.0, 1.0, 2.0 * root2, 4.0])

    def test_nonfinite_query_points_are_rejected(self):
        with pytest.raises(BasisError):
            Basis.moment(1).evaluate([np.inf])

    def test_singleton_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            Basis.singletons([[0.0, 1.0]]).evaluate(BASE.points)


class TestEveryKind:
    """Shapes, layout and cones pinned for each kind on 2-D points."""

    POINTS = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 5.0]])
    REGIONS = [lambda x: x[0] < 1.0, lambda x: x[0] >= 1.0]
    # basis, evaluator width in two dimensions, cone_blocks(2)
    KINDS = {
        "indicator-regions": (Basis.indicator_regions(REGIONS), 2, (("free", 2),)),
        "piecewise-affine": (Basis.piecewise_affine(REGIONS), 6, (("free", 6),)),
        "moment-1": (Basis.moment(1), 2, (("free", 2),)),
        "moment-2": (Basis.moment(2), 6, (("free", 1), ("free", 2), ("psd", 2))),
        "singletons": (Basis.singletons(POINTS, nonneg=True), 3, (("nonneg", 3),)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_points_give_an_empty_matrix(self, kind):
        basis, width, _ = self.KINDS[kind]
        assert basis.evaluate(np.zeros((0, 2))).shape == (0, width)

    @pytest.mark.parametrize("kind", KINDS)
    def test_result_never_shares_the_input(self, kind):
        basis, width, _ = self.KINDS[kind]
        points = self.POINTS.copy()
        phi = basis.evaluate(points)
        assert phi.shape == (3, width)
        assert not np.shares_memory(phi, points)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cone_blocks_in_two_dimensions(self, kind):
        basis, _, blocks = self.KINDS[kind]
        assert basis.cone_blocks(2) == blocks

    def test_piecewise_affine_columns_follow_the_regions(self):
        phi = self.KINDS["piecewise-affine"][0].evaluate(self.POINTS)
        want = []
        for x in self.POINTS:
            ind = [float(pred(x)) for pred in self.REGIONS]
            want.append([v for r in ind for v in (r, r * x[0], r * x[1])])
        np.testing.assert_array_equal(phi, want)


class TestRestrictedDual:
    def test_constants_pay_no_transport_penalty(self):
        # a constant majorant has zero slope, so the radius term vanishes
        # and the best constant is the largest cost value
        value = param_dual_value(base_problem(0.5),
                                 Basis.indicator_regions([lambda x: True]))
        assert value == pytest.approx(3.0, abs=TOL)

    def test_full_span_recovers_the_dual(self):
        problem = base_problem(0.5)
        value = param_dual_value(problem, Basis.singletons(BASE.points))
        assert value == pytest.approx(2.0, abs=TOL)
        assert value == pytest.approx(dual_solution(problem).value, abs=TOL)

    # the duality suite's gauges (tests/test_acceptance.py)
    @pytest.mark.parametrize("gauge", [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        Polar(Lipschitz(ABS1)),
        Scale(0.7, L2Ball()),
        Intersect((L2Ball(), Scale(0.5, TotalVariation()))),
        MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
    ], ids=repr)
    def test_full_span_program_is_the_plain_dual(self, gauge):
        # both write their rows through the one majorant builder, and a
        # singleton row of phi is one unit term, so the programs coincide
        rng = np.random.default_rng(1001)
        for _ in range(3):
            n = int(rng.integers(4, 9))
            space = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
            problem = ReweightingProblem(space, rng.normal(size=n) * 2.0, gauge,
                                         float(rng.uniform(0.0, 2.0)))
            assert_same_program(build_param_dual(problem, Basis.singletons(space.points)),
                                build_dual(problem))

    def test_zero_radius_constants_give_the_max(self):
        value = param_dual_value(base_problem(0.0),
                                 Basis.indicator_regions([lambda x: True]))
        assert value == pytest.approx(3.0, abs=TOL)

    def test_zero_radius_affine_fits_a_linear_cost_exactly(self):
        value = param_dual_value(base_problem(0.0),
                                 Basis.piecewise_affine([lambda x: True]))
        assert value == pytest.approx(1.5, abs=TOL)

    def test_order_one_fits_the_cheapest_dominating_line(self):
        value = param_dual_value(base_problem(0.0, cost=F**2), Basis.moment(1))
        assert value == pytest.approx(4.5, abs=TOL)

    def test_order_two_reaches_a_convex_quadratic_cost(self):
        value = param_dual_value(base_problem(0.0, cost=F**2), Basis.moment(2))
        assert value == pytest.approx(3.5, abs=TOL)

    def test_semidefinite_block_binds_on_a_concave_cost(self):
        # the quadratic coefficient would like to be negative; with it
        # pinned at zero the program degrades to the best affine fit,
        # recomputed here by an independent dense solver
        cost = -(F**2)
        status, line, _ = reference_lp(
            c=np.array([1.0, 1.5]),
            a_ub=np.column_stack([-np.ones(4), -F]),
            b_ub=-cost,
            bounds=(None, None),
        )
        assert status == "optimal"
        assert line == pytest.approx(-2.5, abs=1e-9)
        for order in (1, 2):
            value = param_dual_value(base_problem(0.0, cost=cost), Basis.moment(order))
            assert value == pytest.approx(line, abs=TOL)

    def test_unsupported_polar_is_an_encoding_error(self):
        problem = base_problem(0.5, gauge=PhiDivergence("kl", 0.1))
        with pytest.raises(EncodingError):
            build_param_dual(problem, Basis.moment(1))

    def test_program_is_conic_and_reusable(self):
        prog = build_param_dual(base_problem(0.5), Basis.moment(1))
        assert len(prog.c) >= 3
        assert len(prog.b) > 0


class TestDominanceAndRefinement:
    GAUGES = [
        L2Ball(),
        CvarGauge(0.5),
        TotalVariation(),
        TRANSPORT,
        Scale(0.7, L2Ball()),
    ]

    def random_instances(self, count, seed=7):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(4, 7))
            space = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
            cost = rng.normal(0.0, 2.0, n)
            cut = float(rng.uniform(0.5, 2.5))
            eps = float(rng.uniform(0.0, 1.5))
            yield space, cost, cut, eps

    def test_every_basis_dominates_the_unrestricted_dual(self):
        for space, cost, cut, eps in self.random_instances(4):
            bases = [
                Basis.indicator_regions([lambda x: True]),
                Basis.indicator_regions(two_regions(cut)),
                Basis.piecewise_affine(two_regions(cut)),
                Basis.moment(1),
                Basis.moment(2),
            ]
            for gauge in self.GAUGES:
                problem = ReweightingProblem(space, cost, gauge, eps)
                floor = dual_solution(problem).value
                for basis in bases:
                    assert param_dual_value(problem, basis) >= floor - 1e-7

    def test_refining_regions_never_raises_the_value(self):
        coarse = Basis.indicator_regions(two_regions(1.5))
        fine = Basis.indicator_regions(
            [lambda x: x[0] < 0.75, lambda x: 0.75 <= x[0] < 1.5,
             lambda x: 1.5 <= x[0] < 2.25, lambda x: x[0] >= 2.25])
        for space, cost, _, eps in self.random_instances(3, seed=11):
            for gauge in (L2Ball(), TRANSPORT):
                problem = ReweightingProblem(space, cost, gauge, eps)
                assert (param_dual_value(problem, fine)
                        <= param_dual_value(problem, coarse) + 1e-7)

    def test_adding_evaluators_never_raises_the_value(self):
        whole = [lambda x: True]
        for space, cost, _, eps in self.random_instances(3, seed=13):
            problem = ReweightingProblem(space, cost, TotalVariation(), eps)
            constants = param_dual_value(problem, Basis.indicator_regions(whole))
            affine = param_dual_value(problem, Basis.piecewise_affine(whole))
            linear = param_dual_value(problem, Basis.moment(1))
            assert affine <= constants + 1e-7
            assert affine <= linear + 1e-7

    def test_tighter_cone_never_lowers_the_value(self):
        for space, cost, cut, eps in self.random_instances(3, seed=17):
            problem = ReweightingProblem(space, cost, L2Ball(), eps)
            free = param_dual_value(problem, Basis.indicator_regions(two_regions(cut)))
            tight = param_dual_value(
                problem, Basis.indicator_regions(two_regions(cut), nonneg=True))
            assert tight >= free - 1e-7

    def test_full_span_matches_the_dual_across_gauges(self):
        for space, cost, _, eps in self.random_instances(3, seed=19):
            basis = Basis.singletons(space.points)
            for gauge in self.GAUGES:
                problem = ReweightingProblem(space, cost, gauge, eps)
                assert param_dual_value(problem, basis) == pytest.approx(
                    dual_solution(problem).value, abs=TOL)


class TestSingletonIndicators:
    def test_match_the_dense_distance_table(self):
        rng = np.random.default_rng(22)
        offsets = np.array([0.0, 0.3, 0.6, 1.0, 1.5, 3.0]) * 1e-12
        for trial in range(100):
            dim = 1 + trial % 3
            centres = rng.uniform(-1.0, 1.0, size=(3, dim))
            listed = centres[rng.integers(0, 3, size=rng.integers(1, 8))]
            listed = listed + rng.choice(offsets, size=listed.shape)
            query = centres[rng.integers(0, 3, size=rng.integers(1, 12))]
            query = query + rng.choice(offsets, size=query.shape)
            gaps = np.linalg.norm(query[:, None, :] - listed[None, :, :], axis=2)
            want = (gaps <= POINT_MERGE_TOL).astype(float)
            np.testing.assert_array_equal(Basis.singletons(listed).evaluate(query), want)

    def test_a_nonfinite_query_point_matches_nothing(self):
        phi = Basis.singletons([0.0, 1.0]).evaluate([np.nan, 1.0, np.inf])
        np.testing.assert_array_equal(phi, [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
