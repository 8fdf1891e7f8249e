"""Frozen expected values for the brute-force verifiers.

These numbers are computed by hand or by elementary reasoning on the base
instance (uniform weights on {0, 1, 2, 3} with identity cost) and pinned
here before any reformulation code gets to vote:

  mean            1.5
  cvar beta=0.5   2.5   (top-half mean of {2, 3})
  cvar beta=0.75  3.0   (top quarter is the single atom at 3)
  tv eps=0.5      2.25  (0.25 probability moved from 0 to 3)
  tv eps=1.0      2.75  (0.5 probability moved, drained from 0 then 1)
  w1 eps=0.5      2.0   (mean + eps * slope of the identity cost)
  chi2 eps=0.4    1.9472135954999579 = 1.5 + 0.4 * sqrt(1.25)
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from gaugekit import conic, oracle
from gaugekit import gauge as gauge_module
from gaugekit.errors import DimensionError
from gaugekit.gauge import (
    CvarGauge,
    Hemimetric,
    L2Ball,
    Lipschitz,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
    W1Ball,
    gauge_value,
)
from gaugekit.oracle import (
    chi2_closed_form,
    cvar_sorted,
    frank_wolfe_primal,
    reference_lp,
    tv_greedy,
    w1_distance,
    w1_flow_gauge,
    w1_transport,
)
from gaugekit.reformulate import ReweightingProblem, divergence_dual_value
from gaugekit.space import DiscreteSpace, uniform_space

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
F = np.array([0.0, 1.0, 2.0, 3.0])
ABS = Hemimetric.pnorm(2)
ABS1 = Hemimetric.pnorm(1)
CHI2_04 = 1.5 + 0.4 * np.sqrt(1.25)


def random_instance(rng, n=None):
    n = n or rng.integers(3, 9)
    pts = np.sort(rng.uniform(0.0, 3.0, n))
    w = rng.dirichlet(np.ones(n))
    return DiscreteSpace(pts, w), rng.uniform(-1.0, 3.0, n)


class TestCvarSorted:
    def test_base_instance_half(self):
        assert cvar_sorted(BASE, F, 0.5) == pytest.approx(2.5, abs=1e-12)

    def test_base_instance_quarter(self):
        assert cvar_sorted(BASE, F, 0.75) == pytest.approx(3.0, abs=1e-12)

    def test_beta_to_zero_is_mean(self):
        assert cvar_sorted(BASE, F, 1e-9) == pytest.approx(1.5, abs=1e-6)

    def test_fractional_atom_split(self):
        # beta=0.6 keeps 0.4 tail: atom 3 (0.25) plus 0.15 of atom 2
        want = (0.25 * 3.0 + 0.15 * 2.0) / 0.4
        assert cvar_sorted(BASE, F, 0.6) == pytest.approx(want, abs=1e-12)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sp, f = random_instance(rng)
            betas = np.sort(rng.uniform(0.05, 0.95, 4))
            vals = [cvar_sorted(sp, f, b) for b in betas]
            assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_max(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sp, f = random_instance(rng)
            v = cvar_sorted(sp, f, rng.uniform(0.05, 0.95))
            assert sp.weights @ f - 1e-10 <= v <= np.max(f) + 1e-10


class TestTvGreedy:
    def test_base_instance(self):
        assert tv_greedy(BASE, F, 0.5) == pytest.approx(2.25, abs=1e-12)

    def test_budget_one(self):
        assert tv_greedy(BASE, F, 1.0) == pytest.approx(2.75, abs=1e-12)

    def test_zero_budget(self):
        assert tv_greedy(BASE, F, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_saturates_at_max(self):
        assert tv_greedy(BASE, F, 2.0) == pytest.approx(3.0, abs=1e-12)
        assert tv_greedy(BASE, F, 17.0) == pytest.approx(3.0, abs=1e-12)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sp, f = random_instance(rng)
            eps = np.sort(rng.uniform(0.0, 2.5, 4))
            vals = [tv_greedy(sp, f, e) for e in eps]
            assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))


class TestW1Transport:
    def test_base_instance(self):
        assert w1_transport(BASE, F, 0.5, ABS) == pytest.approx(2.0, abs=1e-7)

    def test_zero_budget(self):
        assert w1_transport(BASE, F, 0.0, ABS) == pytest.approx(1.5, abs=1e-9)

    def test_huge_budget_hits_max(self):
        assert w1_transport(BASE, F, 50.0, ABS) == pytest.approx(3.0, abs=1e-7)

    def test_upper_bound_mean_plus_lipschitz(self):
        # identity cost is 1-Lipschitz for |.|, so value <= mean + eps
        rng = np.random.default_rng(10)
        for _ in range(10):
            eps = rng.uniform(0.0, 2.0)
            val = w1_transport(BASE, F, eps, ABS)
            assert val <= 1.5 + eps + 1e-7


class TestChi2ClosedForm:
    def test_base_instance(self):
        assert chi2_closed_form(BASE, F, 0.4) == pytest.approx(CHI2_04, abs=1e-12)

    def test_zero_radius(self):
        assert chi2_closed_form(BASE, F, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_not_applicable_when_density_negative(self):
        assert chi2_closed_form(BASE, F, 2.0) is None

    def test_constant_cost_zero_sigma(self):
        assert chi2_closed_form(BASE, np.full(4, 2.0), 0.7) == pytest.approx(2.0)


class TestW1FlowGauge:
    def test_unbalanced_is_infinite(self):
        assert w1_flow_gauge(BASE, np.array([1.0, 0, 0, 0]), ABS) == np.inf

    def test_swap_cost(self):
        # moving 0.25 of probability across distance 1
        u = np.array([0.0, 0.0, -1.0, 1.0])
        assert w1_flow_gauge(BASE, u, ABS) == pytest.approx(0.25, abs=1e-9)

    def test_zero_deviation(self):
        assert w1_flow_gauge(BASE, np.zeros(4), ABS) == pytest.approx(0.0, abs=1e-12)


def flow_instances(seed, count, dim=1):
    """Random unsorted spaces with a balanced deviation and a pnorm cost."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 13))
        space = DiscreteSpace(rng.uniform(-2.0, 2.0, (n, dim)), rng.dirichlet(np.ones(n)))
        u = rng.normal(size=n)
        yield space, u - space.weights @ u, Hemimetric.pnorm((1.0, 2.0, 3.5)[k % 3])


class TestW1FlowGaugeRoutes:
    """The exact line formula against the flow LP and the conic gauge."""

    def test_line_formula_matches_the_flow_lp(self):
        for space, u, metric in flow_instances(21, 120):
            x = space.points[:, 0]
            table = Hemimetric.from_table(space.points, np.abs(np.subtract.outer(x, x)))
            lp = w1_flow_gauge(space, u, table)
            assert w1_flow_gauge(space, u, metric) == pytest.approx(lp, rel=1e-12, abs=1e-12)

    def test_line_formula_matches_the_conic_gauge(self):
        for space, u, metric in flow_instances(22, 100):
            want = gauge_value(W1Ball(metric), space, u)
            assert w1_flow_gauge(space, u, metric) == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_flow_lp_in_the_plane_matches_the_conic_gauge(self):
        for space, u, metric in flow_instances(23, 12, dim=2):
            want = gauge_value(W1Ball(metric), space, u)
            assert w1_flow_gauge(space, u, metric) == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_unit_cost_on_the_line_takes_the_flow_lp(self):
        # every move costs one, so the cost is the mass that moves
        for space, u, _ in flow_instances(25, 12):
            want = 0.5 * np.sum(np.abs(space.weights * u))
            assert w1_flow_gauge(space, u, Hemimetric.indicator()) == pytest.approx(want, abs=1e-9)

    def test_unbalanced_and_zero_deviations_on_the_line(self):
        for space, u, metric in flow_instances(24, 12):
            assert w1_flow_gauge(space, u + 1.0, metric) == np.inf
            assert w1_flow_gauge(space, np.zeros(space.size), metric) == 0.0


class TestW1Distance:
    def test_point_mass_vs_uniform(self):
        d = w1_distance([0.0, 1.0, 2.0, 3.0], [0.25] * 4, [3.0], [1.0], ABS)
        assert d == pytest.approx(1.5, abs=1e-9)

    def test_identity(self):
        d = w1_distance([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5], ABS)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_for_metric_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(0, 3, 4)
            b = rng.uniform(0, 3, 5)
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(5))
            d1 = w1_distance(a, wa, b, wb, ABS)
            d2 = w1_distance(b, wb, a, wa, ABS)
            assert d1 == pytest.approx(d2, abs=1e-8)

    def test_quantile_merge_matches_plan_lp(self):
        # the 1-d fast path and the dense LP must agree
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.uniform(0, 3, 5)
            b = rng.uniform(0, 3, 4)
            wa = rng.dirichlet(np.ones(5))
            wb = rng.dirichlet(np.ones(4))
            table = Hemimetric.from_table(
                np.concatenate([a, b]).reshape(-1, 1),
                np.abs(np.subtract.outer(np.concatenate([a, b]),
                                         np.concatenate([a, b]))),
            )
            fast = w1_distance(a, wa, b, wb, ABS)
            slow = w1_distance(a, wa, b, wb, table)
            assert fast == pytest.approx(slow, abs=1e-7)


    def test_plane_clouds_match_an_assignment(self):
        # equal-size uniform clouds: an optimal plan is a permutation
        rng = np.random.default_rng(13)
        for n in (3, 8, 20):
            a, b = rng.uniform(0, 3, (n, 2)), rng.uniform(0, 3, (n, 2))
            cost = ABS.matrix(a, b)
            rows, cols = linear_sum_assignment(cost)
            want = cost[rows, cols].sum() / n
            got = w1_distance(a, np.full(n, 1.0 / n), b, np.full(n, 1.0 / n), ABS)
            assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_points_without_a_vector_shape(self):
        for pts in (2.0, np.zeros((1, 1, 1)), np.zeros((1, 0))):
            with pytest.raises(DimensionError):
                w1_distance(pts, [1.0], [[0.0]], [1.0], ABS)


class TestTransportLpsAreSparse:
    def test_every_transport_lp_gets_a_sparse_equality_block(self, monkeypatch):
        seen = []
        inner = oracle.reference_lp

        def checking(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)):
            assert sparse.issparse(a_eq)
            seen.append(a_eq.shape)
            return inner(c, a_ub, b_ub, a_eq, b_eq, bounds)

        monkeypatch.setattr(oracle, "reference_lp", checking)
        plane = DiscreteSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [0.5, 0.25, 0.25])
        assert w1_transport(BASE, F, 0.5, ABS) == pytest.approx(2.0, abs=1e-7)
        assert w1_flow_gauge(plane, [-1.0, 1.0, 1.0], ABS) == pytest.approx(0.75, abs=1e-9)
        assert w1_distance(plane.points, plane.weights, [[0.0, 0.0]], [1.0], ABS) == \
            pytest.approx(0.75, abs=1e-9)
        assert seen == [(4, 16), (3, 6), (4, 3)]


class TestReferenceLp:
    def test_simple_bounded(self):
        # min -x - y st x + y <= 1, x,y >= 0
        status, val, x = reference_lp(
            np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]))
        assert status == "optimal"
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible(self):
        status, _, _ = reference_lp(
            np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-2.0, 1.0]))
        assert status == "infeasible"


class TestFrankWolfe:
    def test_zero_radius_keeps_mean(self):
        prob = ReweightingProblem(BASE, F, L2Ball(), 0.0)
        res = frank_wolfe_primal(prob, tol=1e-4)
        assert res.value == pytest.approx(1.5, abs=1e-6)

    def test_chi2_ball(self):
        prob = ReweightingProblem(BASE, F, Scale(0.4, L2Ball()), 1.0)
        res = frank_wolfe_primal(prob, tol=1e-4)
        assert res.value == pytest.approx(CHI2_04, abs=1e-3)
        # membership carries a 1e-8 relative closure slack, hence the allowance
        assert res.value <= CHI2_04 + res.gap + 1e-7 * (1 + CHI2_04)

    def test_cvar_ball(self):
        prob = ReweightingProblem(BASE, F, CvarGauge(0.5), 1.0)
        res = frank_wolfe_primal(prob, tol=1e-4)
        assert res.value == pytest.approx(2.5, abs=1e-3)
        assert res.value <= 2.5 + res.gap + 1e-9

    def test_iterates_stay_feasible(self):
        prob = ReweightingProblem(BASE, F, CvarGauge(0.5), 1.0)
        res = frank_wolfe_primal(prob, tol=1e-3)
        nu = res.nu
        assert np.min(nu) >= -1e-9
        assert BASE.weights @ nu == pytest.approx(1.0, abs=1e-9)

    def test_gap_reported_when_capped(self):
        prob = ReweightingProblem(BASE, F, CvarGauge(0.5), 1.0)
        res = frank_wolfe_primal(prob, tol=1e-12, max_iter=5)
        assert not res.converged
        assert res.gap > 0


def refuse(*args, **kwargs):
    raise AssertionError("the walk called the conic solver")


def capped_tail(nu):
    """Worst mean over densities in [0, 2] against the measure p * nu, with
    its supergradient in nu: the inner stage of the composition checks."""
    m = BASE.weights * nu
    order = np.argsort(-F)
    cum, alpha = 0.0, float(F[order[-1]])
    for i in order:
        cum += 2.0 * m[i]
        if cum >= 1.0 - 1e-14:
            alpha = float(F[i])
            break
    grad = 2.0 * np.clip(F - alpha, 0.0, None)
    return alpha + float(m @ grad), grad


class TestOraclesStandAlone:
    def test_no_oracle_reaches_the_solver_or_the_transport_rule(self, monkeypatch):
        # the oracles are the references the conic routes and the exact
        # transport rule are tested against, so neither may feed them
        monkeypatch.setattr(conic, "solve", refuse)
        monkeypatch.setattr(gauge_module, "transport_dual", refuse)
        plane = DiscreteSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [0.5, 0.25, 0.25])
        assert w1_transport(BASE, F, 0.5, ABS) == pytest.approx(2.0, abs=1e-7)
        assert w1_flow_gauge(BASE, [-1.0, 0.0, 0.0, 1.0], ABS1) == pytest.approx(0.75)
        assert w1_flow_gauge(plane, [-1.0, 2.0, 0.0], ABS1) == pytest.approx(0.5)
        assert w1_distance([0.0], [1.0], [1.0, 3.0], [0.5, 0.5], ABS1) == pytest.approx(2.0)
        assert w1_distance(plane.points, plane.weights, [[0.0, 0.0]], [1.0], ABS1) \
            == pytest.approx(0.75)
        assert tv_greedy(BASE, F, 0.5) == pytest.approx(2.25, abs=1e-12)
        assert cvar_sorted(BASE, F, 0.5) == pytest.approx(2.5, abs=1e-12)
        assert chi2_closed_form(BASE, F, 0.4) == pytest.approx(CHI2_04, abs=1e-12)


class TestTransportWalk:
    @pytest.mark.parametrize("expr", [
        W1Ball(ABS1), Polar(Lipschitz(ABS1)),
        CvarGauge(0.5), PhiDivergence("chi2", 0.16), PhiDivergence("kl", 0.1)])
    def test_walk_makes_no_conic_solve(self, monkeypatch, expr):
        # every set verify walks on; a divergence carries its radius in the
        # budget, as verify requires of kl
        if isinstance(expr, PhiDivergence):
            prob = ReweightingProblem(BASE, F, expr, 1.0)
            want = divergence_dual_value(prob)
        elif isinstance(expr, CvarGauge):
            prob = ReweightingProblem(BASE, F, expr, 1.0)
            want = cvar_sorted(BASE, F, 0.5)
        else:
            prob = ReweightingProblem(BASE, F, expr, 0.5)
            want = w1_transport(BASE, F, 0.5, ABS1)
        monkeypatch.setattr(conic, "solve", refuse)
        res = frank_wolfe_primal(prob, tol=1e-4)
        assert abs(res.value - want) <= 1e-3
        assert res.value <= want + res.gap

    @pytest.mark.parametrize("outer", [W1Ball(ABS1), TotalVariation()])
    def test_capped_tail_walk_makes_no_conic_solve(self, monkeypatch, outer):
        # the stage-composition checks walk a nested objective over the outer
        # ball; both compositions are worth 3
        monkeypatch.setattr(conic, "solve", refuse)
        res = frank_wolfe_primal(ReweightingProblem(BASE, F, outer, 0.5),
                                 objective=capped_tail, tol=1e-6)
        assert res.converged
        assert abs(res.value - 3.0) <= 1e-3 + res.gap


class TestWalkRoutes:
    """The walk runs a secant on the set's slack. Bisecting on the slack's
    sign, which is a boolean membership test, finds the same boundary points."""

    @pytest.mark.parametrize("expr, eps", [
        (CvarGauge(0.5), 1.0),
        (TotalVariation(), 0.5),
        (Scale(0.4, L2Ball()), 1.0),
        (PhiDivergence("kl", 0.1), 1.0),
        (W1Ball(ABS1), 0.5),
    ], ids=lambda x: type(x).__name__ if not isinstance(x, float) else str(x))
    def test_boolean_membership_walk_matches_the_slack_walk(self, monkeypatch, expr, eps):
        def bisect(g, lam_hi, g_lo):
            # 40 halvings, each asking only whether g <= 0
            if g(lam_hi) <= 0.0:
                return lam_hi
            lo, hi = 0.0, lam_hi
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if g(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            return lo

        prob = ReweightingProblem(BASE, F, expr, eps)
        by_slack = frank_wolfe_primal(prob, tol=1e-4)
        monkeypatch.setattr(oracle, "_largest_root_below", bisect)
        by_bisection = frank_wolfe_primal(prob, tol=1e-4)
        assert by_slack.converged and by_bisection.converged
        assert abs(by_slack.value - by_bisection.value) <= 1e-6 * (1.0 + abs(by_bisection.value))

    def test_oracle_pairs_take_few_slack_evaluations(self, monkeypatch):
        calls = []

        def counted(name, inner):
            def count(*args):
                calls.append(name)
                return inner(*args)
            return count

        monkeypatch.setattr(gauge_module, "slack", counted("slack", gauge_module.slack))
        monkeypatch.setattr(oracle, "w1_flow_gauge", counted("flow", oracle.w1_flow_gauge))
        for expr, eps in [(CvarGauge(0.5), 1.0), (TotalVariation(), 0.5),
                          (Polar(Lipschitz(ABS1)), 0.5), (Scale(0.4, L2Ball()), 1.0)]:
            assert frank_wolfe_primal(ReweightingProblem(BASE, F, expr, eps), tol=1e-4).converged
        # bisecting on membership, the same four walks made 7872 tests
        assert "slack" in calls and "flow" in calls
        assert len(calls) < 1000

    def test_scaled_kl_walk_is_the_unscaled_walk(self, monkeypatch):
        # a scaled set's slack is its child's at the scaled level, one
        # divergence evaluation, not the gauge's bisection
        space = uniform_space([0.327, 0.331, 1.55, 1.713, 2.108, 2.937])
        f = np.array([0.894, 1.341, 1.614, -0.349, -1.096, 0.171])
        calls = [0]
        inner = PhiDivergence._kl

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(PhiDivergence, "_kl", staticmethod(counted))
        plain = frank_wolfe_primal(ReweightingProblem(space, f, PhiDivergence("kl", 1.0), 1.0))
        plain_calls, calls[0] = calls[0], 0
        scaled = frank_wolfe_primal(
            ReweightingProblem(space, f, Scale(0.5, PhiDivergence("kl", 1.0)), 2.0))
        assert abs(scaled.value - plain.value) <= 1e-12 * (1.0 + abs(plain.value))
        assert calls[0] <= 2 * plain_calls

    def test_root_finder_returns_the_feasible_end(self):
        lam_hi = 3.0
        resolution = lam_hi * 2.0 ** -40
        flat_then_kink = [
            (lambda lam: max(-1e-7, lam - 0.7), 0.7),
            (lambda lam: max(-1e-7, lam - 1e-3), 1e-3),
        ]
        cases = [
            (lambda lam: 2.0 * lam - 1.0, 0.5),  # affine, as along a ray from the center
            *flat_then_kink,
            (lambda lam: (lam - 0.2) ** 2 - 0.05, 0.2 + np.sqrt(0.05)),  # dips, then curves up
            (lambda lam: np.inf if lam > 1.3 else lam - 1.3, 1.3),  # infinite past the root
        ]
        for g, root in cases:
            seen = []

            def traced(lam, g=g):
                seen.append(lam)
                return g(lam)

            lam = oracle._largest_root_below(traced, lam_hi, g(0.0))
            assert g(lam) <= 0.0
            assert root - 2.0 * resolution <= lam <= root + 1e-15
            # the bracket halves at least every three steps
            assert len(seen) <= 1 + 3 * 40
            if (g, root) in flat_then_kink:
                # no more than bisection: the line through two infeasible
                # points finds the kink
                assert len(seen) <= 42
        seen = []
        oracle._largest_root_below(lambda lam: seen.append(lam) or 2.0 * lam - 1.0, lam_hi, -1.0)
        assert seen[:2] == [lam_hi, 0.5]
