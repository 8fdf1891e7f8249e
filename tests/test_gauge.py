"""Gauge atoms, combinators, polarity, and the conic epigraph encoder.

Closed-form values are pinned on a fixed four-point line instance
(points 0,1,2,3 with uniform weight). Algebraic identities (positive
homogeneity, triangle inequality, intersection-as-max, support/polar
agreement, bipolarity) run as seeded probe loops across an atom
catalogue, always comparing two independent evaluation routes where
one exists.
"""

import inspect

import numpy as np
import pytest

from scipy.optimize import linprog

import gaugekit.gauge as gauge_module
from gaugekit import conic
from gaugekit.conic import LinExpr, ProgramBuilder, solve
from gaugekit.errors import DimensionError, EncodingError, ParameterError
from gaugekit.gauge import (
    AffineMap,
    ConvexUnion,
    CvarGauge,
    CvarPolar,
    Cylinder,
    GaugeExpr,
    Hemimetric,
    Intersect,
    L1Ball,
    L2Ball,
    LinfBall,
    Lipschitz,
    MinkowskiSum,
    MomentGauge,
    MomentPolar,
    Oscillation,
    PhiDivergence,
    Polar,
    RegionMask,
    Scale,
    TotalVariation,
    W1Ball,
    WassersteinP,
    encode_epigraph,
    gauge_value,
    hemimetric_check,
    polar,
    slack,
    support_value,
    support_value_by_program,
    transport_dual,
    transport_metric,
)
from gaugekit.space import DiscreteSpace, uniform_space

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
ABS1 = Hemimetric.pnorm(1.0)
IDMAP = AffineMap.of([[1.0]])


def gauge_via_program(expr, space, u):
    """Gauge evaluated as min t subject to the encoded epigraph rows.

    Independent of gauge_value's closed forms; used as the second route.
    """
    b = ProgramBuilder()
    t = b.add_vars(1, obj=1.0)[0]
    b.nonneg_var(int(t))
    encode_epigraph(b, expr, space, [LinExpr.of(float(x)) for x in u], LinExpr.var(t))
    sol = solve(b.build())
    if sol.status == "infeasible":
        return float("inf")
    assert sol.status == "optimal"
    return float(sol.value)


class TestClosedForms:
    def test_l2_is_weighted_norm(self):
        u = [1.0, -1.0, 2.0, 0.0]
        assert gauge_value(L2Ball(), BASE, u) == pytest.approx(np.sqrt(1.5))

    def test_upper_slab_scales_positive_peak(self):
        g = CvarGauge(0.75)
        assert gauge_value(g, BASE, [-5.0, 0.0, 0.0, 2.0]) == pytest.approx(2.0 / 3.0)
        assert gauge_value(g, BASE, [-1.0, -2.0, -0.5, 0.0]) == 0.0

    def test_slab_polar_caps_scaled_mean(self):
        g = CvarPolar(0.75)
        assert gauge_value(g, BASE, [1.0, 1.0, 0.0, 2.0]) == pytest.approx(3.0)
        assert gauge_value(g, BASE, [1.0, -1.0, 0.0, 2.0]) == float("inf")

    def test_balanced_l1_needs_zero_mean(self):
        assert gauge_value(TotalVariation(), BASE, [1.0, -1.0, 1.0, -1.0]) == pytest.approx(1.0)
        assert gauge_value(TotalVariation(), BASE, [1.0, 0.0, 0.0, 0.0]) == float("inf")

    def test_half_spread(self):
        assert gauge_value(Oscillation(), BASE, [0.0, 4.0, 1.0, 2.0]) == pytest.approx(2.0)
        assert gauge_value(Oscillation(), BASE, [7.0, 7.0, 7.0, 7.0]) == 0.0

    def test_plain_l1_and_sup_norm(self):
        u = [1.0, -1.0, 2.0, 0.0]
        assert gauge_value(L1Ball(), BASE, u) == pytest.approx(1.0)
        assert gauge_value(LinfBall(), BASE, u) == pytest.approx(2.0)

    def test_steepest_rise_against_ground_cost(self):
        g = Lipschitz(ABS1)
        assert gauge_value(g, BASE, [0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert gauge_value(g, BASE, [0.0, 2.0, 0.0, 0.0]) == pytest.approx(2.0)
        # indicator cost prices every move at one, so the gauge is the spread
        assert gauge_value(Lipschitz(Hemimetric.indicator()), BASE, [0.0, 4.0, 1.0, 2.0]) == pytest.approx(4.0)

    def test_steepest_rise_matches_a_plain_double_loop(self):
        def loop(c, u):
            worst = 0.0
            for i in range(len(u)):
                for j in range(len(u)):
                    rise = u[i] - u[j]
                    if i == j or rise <= 0.0:
                        continue
                    if c[i, j] <= 1e-300:
                        return np.inf
                    worst = max(worst, rise / c[i, j])
            return worst

        rng = np.random.default_rng(8)
        m = 6
        pts = np.arange(float(m))
        space = uniform_space(pts)
        infinite = 0
        for trial in range(200):
            table = rng.uniform(0.1, 3.0, size=(m, m))
            # some off-diagonal costs are zero, below the 1e-300 floor, or
            # negative: each makes a rise across that pair infinitely steep
            free = rng.uniform(size=(m, m)) < 0.05
            table[free] = rng.choice([0.0, 1e-301, -0.5], size=int(free.sum()))
            np.fill_diagonal(table, 0.0)
            u = rng.normal(size=m)
            if trial % 4 == 0:
                u[rng.integers(m)] = u[rng.integers(m)]  # a tie: no rise across that pair
            want = loop(table, u)
            infinite += np.isinf(want)
            assert gauge_value(Lipschitz(Hemimetric.from_table(pts, table)), space, u) == want
        assert 0 < infinite < 200

    def test_flow_ball_costs_the_swap(self):
        g = W1Ball(ABS1)
        assert gauge_value(g, BASE, [1.0, -1.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-7)
        assert gauge_value(g, BASE, [0.0, 0.0, -2.0, 2.0]) == pytest.approx(0.5, abs=1e-7)
        assert gauge_value(g, BASE, [1.0, 0.0, 0.0, 0.0]) == float("inf")

    def test_quadratic_divergence_closed_form(self):
        g = PhiDivergence("chi2", 0.16)
        assert gauge_value(g, BASE, [1.0, 1.0, -1.0, -1.0]) == pytest.approx(2.5)

    def test_absolute_divergence_closed_form(self):
        g = PhiDivergence("tv", 0.5)
        assert gauge_value(g, BASE, [1.0, -1.0, 1.0, -1.0]) == pytest.approx(2.0)

    def test_entropy_gauge_sits_on_its_budget(self):
        g = PhiDivergence("kl", 0.1)
        u = np.array([0.5, -0.3, 0.2, -0.4])
        t = gauge_value(g, BASE, u)
        assert t > 0.0
        x = 1.0 + u / t
        div = float(BASE.weights @ (x * np.log(x) - x + 1.0))
        assert div == pytest.approx(0.1, abs=1e-7)

    def test_transport_gauge_inverts_the_radius(self):
        u = [0.5, -0.5, 0.0, 0.0]  # swap of 0.125 mass over distance one
        assert gauge_value(WassersteinP(1.0, ABS1, radius=0.125), BASE, u) == pytest.approx(1.0, abs=1e-6)
        assert gauge_value(WassersteinP(1.0, ABS1, radius=0.0625), BASE, u) == pytest.approx(2.0, abs=1e-6)
        # density positivity floors the gauge at the largest downward move
        steep = [1.0, -1.0, 0.0, 0.0]
        assert gauge_value(WassersteinP(1.0, ABS1, radius=0.5), BASE, steep) == pytest.approx(1.0, abs=1e-6)
        assert gauge_value(WassersteinP(1.0, ABS1, radius=0.5), BASE, [1.0, 0.0, 0.0, 0.0]) == float("inf")

    def test_mean_shift_gauge(self):
        g = MomentGauge(1, IDMAP)
        assert gauge_value(g, BASE, [0.0, 0.0, 0.0, 4.0]) == pytest.approx(3.0)

    def test_second_moment_shift_gauge(self):
        g = MomentGauge(2, IDMAP)
        assert gauge_value(g, BASE, [0.0, 0.0, 0.0, 4.0]) == pytest.approx(9.0)

    def test_moment_polar_requires_feature_span(self):
        g = MomentPolar(1, IDMAP)
        assert gauge_value(g, BASE, [0.0, 2.0, 4.0, 6.0]) == pytest.approx(2.0)
        assert gauge_value(g, BASE, [1.0, 1.0, 1.0, 1.0]) == float("inf")

    def test_spectral_moment_polar_is_the_nuclear_norm(self):
        g = MomentPolar(2, None, "spectral")
        rng = np.random.default_rng(15)
        for _ in range(5):
            space = uniform_space(rng.normal(size=(int(rng.integers(4, 8)), 2)))
            theta = rng.normal(size=3)
            want = float(np.sum(np.abs(np.linalg.eigvalsh(conic.unsvec(theta, 2)))))
            got = gauge_value(g, space, g.features(space) @ theta)
            assert got == pytest.approx(want, abs=1e-6 * (1.0 + want))

    def test_spectral_moment_gauge_matches_its_epigraph(self):
        g = MomentGauge(2, None, "spectral")
        rng = np.random.default_rng(16)
        for _ in range(5):
            space = uniform_space(rng.normal(size=(int(rng.integers(4, 8)), 2)))
            u = rng.normal(size=space.size)
            u -= float(space.weights @ u)
            a = gauge_value(g, space, u)
            b = gauge_via_program(g, space, u)
            assert b == pytest.approx(a, abs=1e-6 * (1.0 + a))


class TestCombinators:
    def test_scaling_divides_the_gauge(self):
        u = [1.0, -1.0, 2.0, 0.0]
        base = gauge_value(L2Ball(), BASE, u)
        assert gauge_value(Scale(2.0, L2Ball()), BASE, u) == pytest.approx(base / 2.0)

    def test_zero_scale_keeps_only_the_recession_cone(self):
        g = Scale(0.0, CvarGauge(0.5))  # recession cone: nonpositive vectors
        assert gauge_value(g, BASE, [-1.0, -2.0, 0.0, -0.5]) == 0.0
        assert gauge_value(g, BASE, [-1.0, 0.1, 0.0, 0.0]) == float("inf")

    def test_intersection_takes_the_max(self):
        g = Intersect((L2Ball(), LinfBall()))
        assert gauge_value(g, BASE, [2.0, 0.0, 0.0, 0.0]) == pytest.approx(2.0)

    def test_sum_of_equal_halves_is_the_whole(self):
        g = MinkowskiSum([(0.5, L2Ball()), (0.5, L2Ball())])
        u = [1.0, -1.0, 2.0, 0.0]
        want = gauge_value(L2Ball(), BASE, u)
        assert gauge_value(g, BASE, u) == pytest.approx(want, abs=1e-6)

    def test_hull_of_nested_balls_is_the_larger(self):
        g = ConvexUnion((L2Ball(), Scale(2.0, L2Ball())))
        u = [1.0, -1.0, 2.0, 0.0]
        want = gauge_value(Scale(2.0, L2Ball()), BASE, u)
        assert gauge_value(g, BASE, u) == pytest.approx(want, abs=1e-6)

    def test_polarity_rewrites(self):
        assert polar(CvarGauge(0.6)) == CvarPolar(0.6)
        assert polar(TotalVariation()) == Oscillation()
        assert polar(L1Ball()) == LinfBall()
        assert polar(Lipschitz(ABS1)) == W1Ball(ABS1)
        assert polar(polar(CvarGauge(0.6))) == CvarGauge(0.6)
        assert polar(Scale(2.0, L1Ball())) == Scale(0.5, LinfBall())
        inner = Intersect((L2Ball(), LinfBall()))
        assert polar(inner) == ConvexUnion((L2Ball(), L1Ball()))
        # atoms without a finite rewrite stay symbolic, and the wrapper cancels
        kl = PhiDivergence("kl", 0.1)
        assert polar(kl) == Polar(kl)
        assert polar(polar(kl)) == kl

    def test_transport_metric_names_the_ground_cost_of_transport_balls(self):
        assert transport_metric(W1Ball(ABS1)) == ABS1
        assert transport_metric(Polar(Lipschitz(ABS1))) == ABS1
        for expr in (Lipschitz(ABS1), Scale(2.0, W1Ball(ABS1)), TotalVariation(),
                     PhiDivergence("kl", 0.1)):
            assert transport_metric(expr) is None

    def test_quadratic_divergence_bipolar_matches_numerically(self):
        g = PhiDivergence("chi2", 0.25)
        back = polar(polar(g))
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.normal(size=4)
            assert gauge_value(back, BASE, u) == pytest.approx(gauge_value(g, BASE, u))


class TestDualRoutes:
    """support_value goes through polarity rewrites; the program route
    maximizes over the encoded set. The two must agree."""

    CATALOGUE = [
        L2Ball(),
        L1Ball(),
        LinfBall(),
        TotalVariation(),
        CvarPolar(0.6),
        PhiDivergence("chi2", 0.25),
        PhiDivergence("tv", 0.5),
        W1Ball(ABS1),
        Scale(0.7, L2Ball()),
        Intersect((L2Ball(), Scale(0.5, LinfBall()))),
        MinkowskiSum([(0.5, L2Ball()), (0.5, L1Ball())]),
        ConvexUnion((L2Ball(), LinfBall())),
    ]

    def test_support_agrees_with_program_route(self):
        rng = np.random.default_rng(11)
        for expr in self.CATALOGUE:
            for trial in range(4):
                n = int(rng.integers(3, 7))
                sp = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
                w = rng.normal(size=sp.size)
                a = support_value(expr, sp, w)
                b = support_value_by_program(expr, sp, w)
                assert b == pytest.approx(a, abs=1e-6 * (1.0 + abs(a))), (expr, trial)

    def test_centered_arguments_for_sets_containing_constants(self):
        rng = np.random.default_rng(12)
        for expr in (Oscillation(), Lipschitz(ABS1)):
            for _ in range(4):
                n = int(rng.integers(3, 7))
                sp = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
                w = rng.normal(size=sp.size)
                w -= sp.weights @ w
                a = support_value(expr, sp, w)
                b = support_value_by_program(expr, sp, w)
                assert b == pytest.approx(a, abs=1e-6 * (1.0 + abs(a)))

    def test_slab_support_needs_signed_argument(self):
        w = np.array([0.5, 1.0, 0.0, 2.0])
        a = support_value(CvarGauge(0.75), BASE, w)
        assert a == pytest.approx(3.0 * float(BASE.weights @ w))
        assert support_value_by_program(CvarGauge(0.75), BASE, w) == pytest.approx(a, abs=1e-6)
        # a negative component makes the slab's support blow up
        assert support_value(CvarGauge(0.75), BASE, [0.5, -1.0, 0.0, 2.0]) == float("inf")

    def test_moment_support_within_the_feature_span(self):
        rng = np.random.default_rng(13)
        for order in (1, 2):
            expr = MomentGauge(order, IDMAP)
            for _ in range(4):
                w = rng.normal() * np.array([0.0, 1.0, 2.0, 3.0]) ** order
                a = support_value(expr, BASE, w)
                b = support_value_by_program(expr, BASE, w)
                assert b == pytest.approx(a, abs=1e-6 * (1.0 + abs(a)))

    def test_entropy_support_matches_exponential_tilt(self):
        budget = 0.1
        expr = PhiDivergence("kl", budget)
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = rng.normal(size=4)
            got = support_value(expr, BASE, w)

            def div_of(g):
                nu = np.exp(w / g)
                return float(BASE.weights @ (nu * np.log(nu) - nu + 1.0))

            lo, hi = 1e-3, 1e6
            while div_of(hi) > budget:
                hi *= 4.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if div_of(mid) <= budget:
                    hi = mid
                else:
                    lo = mid
            nu = np.exp(w / hi)
            want = float(BASE.weights @ (w * (nu - 1.0)))
            assert got == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))

    def test_transport_support_caps_at_full_relocation(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        near = WassersteinP(1.0, ABS1, radius=0.5)
        assert support_value(near, BASE, f) == pytest.approx(0.5, abs=1e-6)
        far = WassersteinP(1.0, ABS1, radius=10.0)
        assert support_value(far, BASE, f) == pytest.approx(1.5, abs=1e-6)
        squared = WassersteinP(2.0, Hemimetric.pnorm(2.0), radius=float(np.sqrt(3.5)))
        assert support_value(squared, BASE, f) == pytest.approx(1.5, abs=1e-6)

    def test_polar_gauge_equals_support_through_encoder(self):
        # the encoder's dedicated branch for the polar of a sum
        expr = MinkowskiSum([(0.5, L2Ball()), (0.5, L1Ball())])
        rng = np.random.default_rng(15)
        for _ in range(4):
            w = rng.normal(size=4)
            want = support_value(expr, BASE, w)
            got = gauge_via_program(Polar(expr), BASE, w)
            assert got == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))


def transport_gauge_by_highs(expr, space, u):
    """1 / s_max of the (plan, s) LP, solved by HiGHS: column sums p, row i
    summing to p_i (1 + s u_i), moving cost within radius ** power."""
    n, p = space.size, space.weights
    cost = expr.metric.matrix(space.points, space.points) ** expr.power
    obj = np.zeros(n * n + 1)
    obj[-1] = -1.0  # maximize s
    rows = np.zeros((2 * n, n * n + 1))
    for i in range(n):
        rows[i, i * n:(i + 1) * n] = 1.0
        rows[i, -1] = -p[i] * u[i]
        rows[n + i, i:n * n:n] = 1.0
    res = linprog(obj, A_ub=np.append(cost.ravel(), 0.0)[None, :],
                  b_ub=[expr.radius ** expr.power], A_eq=rows, b_eq=np.concatenate([p, p]),
                  method="highs")
    assert res.status == 0
    return 1.0 / res.x[-1]


def transport_support_by_highs(expr, space, w):
    """max sum_ij plan[i, j] w_i - <w, 1>_P over plans with column sums p and
    moving cost within radius ** power, solved by HiGHS."""
    n, p = space.size, space.weights
    cost = expr.metric.matrix(space.points, space.points) ** expr.power
    cols = np.zeros((n, n * n))
    for j in range(n):
        cols[j, j:n * n:n] = 1.0
    res = linprog(-np.repeat(w, n), A_ub=cost.ravel()[None, :], b_ub=[expr.radius ** expr.power],
                  A_eq=cols, b_eq=p, method="highs")
    assert res.status == 0
    return -res.fun - p @ w


class TestTransportDual:
    """transport_dual minimizes h(gamma) = price gamma + weighted mean over
    columns i of max_j (f_j - gamma cost[j, i]) exactly."""

    def h(self, f, cost, weights, price, gamma):
        return price * gamma + weights @ np.max(f[:, None] - gamma * cost, axis=0) / weights.sum()

    def test_matches_an_all_breakpoint_search(self):
        # h is piecewise linear, so its least value sits at 0 or at a point
        # where two lines of one column cross
        rng = np.random.default_rng(77)
        for k in range(60):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            cost = rng.uniform(0.0, 2.0, (n, m)) * (rng.uniform(size=(n, m)) < 0.8)
            f = rng.integers(-3, 4, n).astype(float) if k % 3 == 0 else rng.normal(size=n)
            weights = rng.dirichlet(np.ones(m)) if k % 2 else np.ones(m)
            price = weights @ cost.min(axis=0) / weights.sum() + float(rng.uniform(0.0, 1.5))
            gamma, value, s = transport_dual(f, cost, weights, price)
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (f[:, None, None] - f[None, :, None]) / (cost[:, None, :] - cost[None, :, :])
            candidates = np.r_[0.0, cross[np.isfinite(cross) & (cross > 0.0)]]
            best = min(self.h(f, cost, weights, price, g) for g in candidates)
            assert abs(value - best) <= 1e-12 * (1.0 + abs(best)), k
            assert gamma >= 0.0
            assert value == pytest.approx(self.h(f, cost, weights, price, gamma), abs=1e-12)
            np.testing.assert_array_equal(s, np.max(f[:, None] - gamma * cost, axis=0))
            # the least minimizer: h is higher just left of it
            if gamma > 0.0:
                assert self.h(f, cost, weights, price, gamma * (1.0 - 1e-9)) > value

    def test_unbounded_exactly_below_the_mean_least_cost(self):
        f = np.array([0.0, 3.0])
        cost = np.array([[1.0, 0.0], [2.0, 1.0]])  # least costs 1 and 0
        weights = np.array([0.25, 0.75])
        # at price 0.25, h falls to 0 at gamma = 3 and is flat beyond
        gamma, value, s = transport_dual(f, cost, weights, 0.25)
        assert (gamma, value) == (3.0, 0.0)
        np.testing.assert_array_equal(s, [-3.0, 0.0])
        with pytest.raises(ParameterError, match="unbounded"):
            transport_dual(f, cost, weights, 0.2499)


class TestTransportGaugeLp:
    """WassersteinP's gauge is one conic LP over (plan, s = 1/t), and its
    support is the transport dual; HiGHS plan LPs are the references."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        inner = conic.solve

        def counting(*args, **kwargs):
            count[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(conic, "solve", counting)
        return count

    def test_matches_the_plan_lp_in_one_solve(self, solves):
        rng = np.random.default_rng(41)
        for k in range(20):
            n = int(rng.integers(3, 7))
            space = DiscreteSpace(rng.uniform(0.0, 3.0, (n, 1 + k % 2)), rng.dirichlet(np.ones(n)))
            u = rng.normal(size=n)
            u -= space.weights @ u
            power = float(1 + k % 2)
            expr = WassersteinP(power, Hemimetric.pnorm(power), radius=float(rng.uniform(0.2, 1.0)))
            want = transport_gauge_by_highs(expr, space, u)
            solves[0] = 0
            got = gauge_value(expr, space, u)
            assert solves[0] == 1
            assert got == pytest.approx(want, abs=1e-6 * (1.0 + want))

    def test_small_radii_match_the_plan_lp(self):
        # gauges up to about 1500, where s = 1/t is small
        rng = np.random.default_rng(0)
        for k in range(60):
            n = int(rng.integers(2, 9))
            space = DiscreteSpace(rng.uniform(0.0, 3.0, (n, 1 + k % 2)), rng.dirichlet(np.ones(n)))
            u = rng.normal(size=n)
            u -= space.weights @ u
            expr = WassersteinP(2.0, Hemimetric.pnorm(2.0), radius=float(rng.uniform(0.02, 0.2)))
            want = transport_gauge_by_highs(expr, space, u)
            assert gauge_value(expr, space, u) == pytest.approx(want, abs=1e-6 * (1.0 + want))

    def test_support_matches_the_plan_lp(self, monkeypatch):
        # exact to rounding, through the transport dual with no solve
        def refuse(*args, **kwargs):
            raise AssertionError("the transport support called the conic solver")

        monkeypatch.setattr(conic, "solve", refuse)
        rng = np.random.default_rng(43)
        for k in range(100):
            n = int(rng.integers(2, 9))
            space = DiscreteSpace(rng.uniform(0.0, 3.0, (n, 1 + k % 2)), rng.dirichlet(np.ones(n)))
            power = float(1 + (k // 2) % 2)
            expr = WassersteinP(power, Hemimetric.pnorm(power), radius=float(rng.uniform(0.05, 2.0)))
            w = rng.normal(size=n)
            want = transport_support_by_highs(expr, space, w)
            assert abs(support_value(expr, space, w) - want) <= 1e-10 * (1.0 + abs(want)), k

    def test_shortcuts_make_no_solve(self, solves):
        expr = WassersteinP(1.0, ABS1, radius=0.5)
        assert gauge_value(expr, BASE, [1.0, 0.0, 0.0, 0.0]) == float("inf")
        assert gauge_value(expr, BASE, np.zeros(4)) == 0.0
        assert solves[0] == 0


class TestAlgebraProbes:
    CHEAP = [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        Oscillation(),
        L1Ball(),
        LinfBall(),
        Lipschitz(ABS1),
        PhiDivergence("chi2", 0.3),
        PhiDivergence("tv", 0.7),
        MomentGauge(1, IDMAP),
        Scale(1.7, L2Ball()),
        Intersect((L2Ball(), LinfBall())),
    ]

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        for expr in self.CHEAP:
            for _ in range(6):
                u = rng.normal(size=4)
                a = float(rng.uniform(0.1, 5.0))
                g1 = gauge_value(expr, BASE, u)
                g2 = gauge_value(expr, BASE, a * u)
                if np.isinf(g1):
                    assert np.isinf(g2)
                else:
                    assert g2 == pytest.approx(a * g1, abs=1e-9 * (1.0 + a * g1))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for expr in self.CHEAP:
            for _ in range(6):
                u = rng.normal(size=4)
                v = rng.normal(size=4)
                gu = gauge_value(expr, BASE, u)
                gv = gauge_value(expr, BASE, v)
                if np.isinf(gu) or np.isinf(gv):
                    continue
                assert gauge_value(expr, BASE, u + v) <= gu + gv + 1e-9 * (1.0 + gu + gv)

    def test_intersection_is_pointwise_max(self):
        rng = np.random.default_rng(23)
        pairs = [(L2Ball(), LinfBall()), (CvarGauge(0.5), L1Ball()),
                 (PhiDivergence("chi2", 0.3), Oscillation())]
        for left, right in pairs:
            both = Intersect((left, right))
            for _ in range(8):
                u = rng.normal(size=4)
                want = max(gauge_value(left, BASE, u), gauge_value(right, BASE, u))
                got = gauge_value(both, BASE, u)
                if np.isinf(want):
                    assert np.isinf(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9 * (1.0 + want))

    def test_sum_support_is_additive(self):
        rng = np.random.default_rng(24)
        terms = [(0.4, L2Ball()), (0.6, LinfBall()), (1.1, L1Ball())]
        total = MinkowskiSum(terms)
        for _ in range(6):
            w = rng.normal(size=4)
            want = sum(b * support_value(child, BASE, w) for b, child in terms)
            assert support_value(total, BASE, w) == pytest.approx(want, abs=1e-9 * (1.0 + abs(want)))
            assert support_value_by_program(total, BASE, w) == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))


class TestGroundCosts:
    def test_pnorm_matrix_and_call(self):
        m = Hemimetric.pnorm(1.0)
        assert m(0.0, 3.0) == pytest.approx(3.0)
        mat = m.matrix([[0.0], [2.0]], [[1.0]])
        np.testing.assert_allclose(mat, [[1.0], [1.0]])
        sup = Hemimetric.pnorm(np.inf)
        assert sup([0.0, 0.0], [1.0, -3.0]) == pytest.approx(3.0)

    def test_indicator_cost(self):
        m = Hemimetric.indicator()
        assert m(1.0, 1.0) == 0.0
        assert m(1.0, 1.5) == 1.0

    def test_clean_metric_scans_empty(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
        assert hemimetric_check(Hemimetric.pnorm(2.0), pts) == []
        # c(i, j) - c(i, k) - c(k, j) rounds to about 1e-11 at 1e5
        line = np.random.default_rng(0).uniform(0.0, 1e5, 64)
        assert hemimetric_check(Hemimetric.pnorm(1.0), line) == []

    def test_large_table_metric_scans_empty(self):
        # the same line as a table: its triangle gaps round to about 1.5e-11
        line = np.random.default_rng(0).uniform(0.0, 1e5, 64)
        table = Hemimetric.from_table(line, np.abs(line[:, None] - line[None, :]))
        assert hemimetric_check(table, line) == []

    def test_large_table_violations_are_reported(self):
        line = np.sort(np.random.default_rng(0).uniform(0.0, 1e5, 64))
        costs = np.abs(line[:, None] - line[None, :])
        costs[0, 63] += 1.0  # the points between 0 and 63 make a shorter route
        assert hemimetric_check(Hemimetric.from_table(line, costs), line) == [
            "1 triangle violations; worst c(0,63) - c(0,5) - c(5,63) = 1"]
        costs[0, 63] -= 1.0
        costs[5, 5] = 1.0
        assert hemimetric_check(Hemimetric.from_table(line, costs), line) == [
            "nonzero diagonal c(5,5) = 1"]

    def test_triangle_violation_is_reported(self):
        m = Hemimetric.from_table([0.0, 1.0, 2.0], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        findings = hemimetric_check(m, [0.0, 1.0, 2.0])
        assert any("triangle" in f for f in findings)

    def test_triangle_scan_matches_a_plain_triple_loop(self):
        rng = np.random.default_rng(5)
        m = 7
        pts = np.arange(float(m))
        table = rng.uniform(0.1, 3.0, size=(m, m))
        np.fill_diagonal(table, 0.0)
        count, worst, arg = 0, 0.0, None
        for i in range(m):
            for j in range(m):
                best, stop = np.inf, None
                for k in range(m):
                    if table[i, k] + table[k, j] < best:
                        best, stop = table[i, k] + table[k, j], k
                gap = table[i, j] - best
                if gap > 1e-12:
                    count += 1
                    if gap > worst:
                        worst, arg = gap, (i, stop, j)
        assert count > 0
        i, k, j = arg
        assert hemimetric_check(Hemimetric.from_table(pts, table), pts) == [
            f"{count} triangle violations; worst c({i},{j}) - c({i},{k}) - c({k},{j}) = {worst:.6g}"]

    def test_negative_and_diagonal_findings(self):
        m = Hemimetric.from_table([0.0, 1.0], [[0.0, -1.0], [1.0, 0.2]])
        findings = hemimetric_check(m, [0.0, 1.0])
        assert any("negative" in f for f in findings)
        assert any("diagonal" in f for f in findings)

    def test_points_without_a_vector_shape_are_rejected(self):
        # one point-shape rule: scalars, ndim > 2 and zero coordinates
        for pts in (2.0, np.zeros((2, 1, 1)), np.zeros((2, 0))):
            with pytest.raises(DimensionError):
                hemimetric_check(Hemimetric.pnorm(2.0), pts)
            with pytest.raises(DimensionError):
                Hemimetric.from_table(pts, np.zeros((2, 2)))

    def test_scan_reports_a_planted_violation_beyond_64_points(self):
        pts = np.arange(65.0)
        assert hemimetric_check(Hemimetric.pnorm(2.0), pts) == []
        table = np.abs(pts[:, None] - pts[None, :])
        table[0, 64] = 100.0  # every stop k in 1..63 gives 64; k = 1 is the first
        assert hemimetric_check(Hemimetric.from_table(pts, table), pts) == [
            "1 triangle violations; worst c(0,64) - c(0,1) - c(1,64) = 36"]

    def test_table_lookup_rejects_unknown_points(self):
        m = Hemimetric.from_table([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            m(0.5, 1.0)

    def test_affine_map_applies(self):
        amap = AffineMap.of([[2.0]], [1.0])
        np.testing.assert_allclose(amap.apply(np.array([[1.0], [2.0]])), [[3.0], [5.0]])
        with pytest.raises(DimensionError):
            AffineMap.of([[1.0, 0.0]], [0.0, 0.0])


class TestRegions:
    REGION = staticmethod(lambda pts: pts[:, 0] >= 2.0)

    def test_masked_set_pins_outside_deviations(self):
        g = RegionMask(LinfBall(), self.REGION)
        assert gauge_value(g, BASE, [0.0, 0.0, 1.0, -2.0]) == pytest.approx(2.0)
        assert gauge_value(g, BASE, [0.5, 0.0, 1.0, 0.0]) == float("inf")

    def test_cylinder_ignores_outside_components(self):
        g = Cylinder(LinfBall(), self.REGION)
        assert gauge_value(g, BASE, [99.0, -5.0, 1.0, -2.0]) == pytest.approx(2.0)

    def test_region_polarity_swaps_mask_and_cylinder(self):
        g = RegionMask(L1Ball(), self.REGION)
        p = polar(g)
        assert isinstance(p, Cylinder)
        assert p.inner == LinfBall()

    def test_region_encoding_agrees(self):
        g = RegionMask(LinfBall(), self.REGION)
        rng = np.random.default_rng(31)
        for _ in range(4):
            u = np.zeros(4)
            u[2:] = rng.normal(size=2)
            want = gauge_value(g, BASE, u)
            assert gauge_via_program(g, BASE, u) == pytest.approx(want, abs=1e-6 * (1.0 + want))


class TestMembershipAndGuards:
    def test_membership_accepts_the_boundary(self):
        u = [3.0, -1.0, 0.0, 1.0]  # slab gauge exactly one at beta = 0.75
        assert gauge_value(CvarGauge(0.75), BASE, u) == pytest.approx(1.0)
        assert slack(CvarGauge(0.75), BASE, u, 1.0) <= 0.0
        assert not slack(CvarGauge(0.75), BASE, np.array(u) * (1.0 + 1e-6), 1.0) <= 0.0

    def test_membership_level_must_be_positive(self):
        with pytest.raises(ParameterError):
            slack(L2Ball(), BASE, [0.0, 0.0, 0.0, 0.0], 0.0)
        with pytest.raises(DimensionError):
            slack(L2Ball(), BASE, [0.0, 0.0], 1.0)

    # the catalogue of test_duality_gap_suite and the three divergence balls
    SLACK_CATALOGUE = [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        Polar(Lipschitz(ABS1)),
        Scale(0.7, L2Ball()),
        Intersect((L2Ball(), Scale(0.5, TotalVariation()))),
        MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
        PhiDivergence("kl", 0.2),
        PhiDivergence("chi2", 0.25),
        PhiDivergence("tv", 0.5),
    ]

    @staticmethod
    def _balanced(rng):
        u = rng.normal(size=BASE.size)
        return u - BASE.weights @ u

    @pytest.mark.parametrize("expr", SLACK_CATALOGUE, ids=repr)
    def test_membership_is_the_sign_of_the_slack(self, expr):
        rng = np.random.default_rng(21)
        for _ in range(2):
            u = self._balanced(rng)
            rho = gauge_value(expr, BASE, u)
            for t in (0.5, 1.0):
                for scale in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
                    v = u * (t * scale / rho)
                    inside = slack(expr, BASE, v, t) <= 0.0
                    if scale != 1.0:
                        assert inside == (scale < 1.0)

    @pytest.mark.parametrize("expr", SLACK_CATALOGUE, ids=repr)
    def test_slack_is_convex_along_chords(self, expr):
        rng = np.random.default_rng(22)
        for _ in range(3):
            a, b = self._balanced(rng), self._balanced(rng)
            ends = slack(expr, BASE, a, 1.0) + slack(expr, BASE, b, 1.0)
            mid = slack(expr, BASE, 0.5 * (a + b), 1.0)
            assert mid <= 0.5 * ends + 1e-7 * (1.0 + abs(ends))

    def test_deviation_shape_and_finiteness(self):
        with pytest.raises(DimensionError):
            gauge_value(L2Ball(), BASE, [1.0, 2.0])
        with pytest.raises(ParameterError):
            gauge_value(L2Ball(), BASE, [1.0, np.inf, 0.0, 0.0])
        with pytest.raises(DimensionError):
            encode_epigraph(ProgramBuilder(), CvarGauge(0.5), BASE, [0.0, 0.0], 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            CvarGauge(1.0)
        with pytest.raises(ParameterError):
            CvarGauge(0.0)
        with pytest.raises(ParameterError):
            PhiDivergence("huber", 1.0)
        with pytest.raises(ParameterError):
            PhiDivergence("kl", 0.0)
        with pytest.raises(ParameterError):
            WassersteinP(0.5, ABS1, 1.0)
        with pytest.raises(ParameterError):
            WassersteinP(1.0, ABS1, 0.0)
        with pytest.raises(ParameterError):
            Scale(-1.0, L2Ball())
        with pytest.raises(ParameterError):
            MinkowskiSum([(-0.5, L2Ball())])
        with pytest.raises(ParameterError):
            Intersect(())
        with pytest.raises(ParameterError):
            Hemimetric.pnorm(0.5)
        with pytest.raises(DimensionError):
            Hemimetric.from_table([0.0, 1.0], [[0.0, 1.0]])
        with pytest.raises(ParameterError):
            MomentGauge(3, IDMAP)
        with pytest.raises(ParameterError):
            MomentGauge(1, IDMAP, norm="spectral")

    def test_sets_without_conic_epigraphs_refuse_encoding(self):
        b = ProgramBuilder()
        t = b.add_vars(1)[0]
        u = [LinExpr.of(0.0)] * 4
        with pytest.raises(EncodingError):
            encode_epigraph(b, PhiDivergence("kl", 0.1), BASE, u, LinExpr.var(t))
        with pytest.raises(EncodingError):
            encode_epigraph(b, WassersteinP(1.0, ABS1, 0.5), BASE, u, LinExpr.var(t))


def _upper_half(points):
    return points[:, 0] >= 1.5


# One instance of every concrete expression class in gaugekit.gauge.
ONE_OF_EACH = [
    L2Ball(), CvarGauge(0.6), CvarPolar(0.6), TotalVariation(), Oscillation(),
    L1Ball(), LinfBall(), Lipschitz(ABS1), W1Ball(ABS1), PhiDivergence("chi2", 0.25),
    WassersteinP(1.0, ABS1, 0.5), MomentGauge(1, IDMAP), MomentPolar(1, IDMAP),
    RegionMask(L2Ball(), _upper_half), Cylinder(L1Ball(), _upper_half),
    Scale(2.0, L1Ball()), Intersect((L2Ball(), LinfBall())),
    MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
    ConvexUnion((L2Ball(), LinfBall())),
    Polar(MinkowskiSum([(1.0, L1Ball()), (0.5, L2Ball())])),
]


class TestEveryExpressionClass:
    def test_catalogue_covers_every_class(self):
        concrete = {cls for name, cls in vars(gauge_module).items()
                    if inspect.isclass(cls) and issubclass(cls, GaugeExpr)
                    and cls is not GaugeExpr and not name.startswith("_")}
        assert {type(x) for x in ONE_OF_EACH} == concrete

    @pytest.mark.parametrize("expr", ONE_OF_EACH, ids=lambda x: type(x).__name__)
    def test_bipolar_rewrite_returns_the_expression(self, expr):
        if expr._polar() is None:
            return
        back = polar(polar(expr))
        if isinstance(expr, PhiDivergence):
            # the divergence balls rewrite to a scaled norm ball, the same set
            # written another way
            for u in np.random.default_rng(4).normal(size=(5, BASE.size)):
                assert gauge_value(back, BASE, u) == pytest.approx(gauge_value(expr, BASE, u))
        else:
            assert back == expr

    @pytest.mark.parametrize("expr", ONE_OF_EACH, ids=lambda x: type(x).__name__)
    def test_encoding_emits_rows_or_refuses(self, expr):
        b = ProgramBuilder()
        t = b.add_vars(1)[0]
        u = b.add_vars(BASE.size)
        try:
            encode_epigraph(b, expr, BASE, [LinExpr.var(c) for c in u], LinExpr.var(t))
        except EncodingError:
            return
        assert b.build().num_rows > 0
