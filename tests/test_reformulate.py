"""Worst-case expectation programs: primal/dual agreement, the dedicated
divergence / transport / moment duals, stage composition, and satisficing.

Pinned values on the uniform four-point line with identity cost:
  mean 1.5, tail mean above median 2.5,
  total variation eps 0.5 -> 2.25, eps 1.0 -> 2.75,
  transport (p=1, cost |.|) eps 0.5 -> 2.0,
  scaled quadratic ball 0.4 -> 1.5 + 0.4 * sqrt(1.25) = 1.9472135954999579,
  entropy budget 0.1 -> 1.994274121793934,
  flow-ball outer (eps 0.5) around a capped-tail inner stage -> 3.0.
Each is checked against an independent oracle where one exists.
"""

import numpy as np
import pytest

from gaugekit.errors import DimensionError, ParameterError
from gaugekit.gauge import (
    AffineMap,
    CvarGauge,
    Hemimetric,
    Intersect,
    L1Ball,
    L2Ball,
    LinfBall,
    Lipschitz,
    MinkowskiSum,
    MomentGauge,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
    W1Ball,
    WassersteinP,
)
from gaugekit.oracle import (
    chi2_closed_form,
    cvar_sorted,
    frank_wolfe_primal,
    tv_greedy,
    w1_transport,
)
from gaugekit.reformulate import (
    ReweightingProblem,
    build_dual,
    build_primal,
    composed_dual,
    divergence_dual_value,
    dual_solution,
    primal_solution,
    satisficing_dual,
    wasserstein_p_dual_value,
)
from gaugekit.space import DiscreteSpace, uniform_space

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
F = np.array([0.0, 1.0, 2.0, 3.0])
ABS1 = Hemimetric.pnorm(1.0)
IDMAP = AffineMap.of([[1.0]])

CHI2_04 = 1.5 + 0.4 * np.sqrt(1.25)  # 1.9472135954999579
KL_01 = 1.994274121793934


def problem(gauge, eps, cost=F, space=BASE):
    return ReweightingProblem(space, cost, gauge, eps)


def capped_tail_mean(f, m, cap):
    """Worst mean over densities in [0, cap] wrt the measure m (summing to
    one), with its supergradient in m. Sort-and-fill evaluation."""
    order = np.argsort(-f)
    cum = 0.0
    alpha = float(f[order[-1]])
    for i in order:
        cum += cap * m[i]
        if cum >= 1.0 - 1e-14:
            alpha = float(f[i])
            break
    grad = cap * np.clip(f - alpha, 0.0, None)
    return alpha + float(m @ grad), grad


class TestPrimalDualAgreement:
    CATALOGUE = [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        L1Ball(),
        LinfBall(),
        Polar(Lipschitz(ABS1)),
        Scale(0.5, L2Ball()),
        Intersect((L2Ball(), Scale(0.5, LinfBall()))),
        MinkowskiSum([(0.5, L2Ball()), (0.5, L1Ball())]),
    ]

    def test_primal_equals_dual_across_catalogue(self):
        rng = np.random.default_rng(41)
        for expr in self.CATALOGUE:
            for _ in range(3):
                n = int(rng.integers(3, 7))
                sp = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
                f = rng.normal(size=n) * 2.0
                eps = float(rng.uniform(0.0, 2.0))
                prob = problem(expr, eps, cost=f, space=sp)
                pval, nu = primal_solution(prob)
                dual = dual_solution(prob)
                assert dual.value == pytest.approx(pval, abs=1e-6 * (1.0 + abs(pval))), expr
                assert nu.is_feasible(sp)

    def test_dual_certificate_is_consistent(self):
        prob = problem(TotalVariation(), 0.5)
        dual = dual_solution(prob)
        recomputed = dual.alpha + float(BASE.weights @ dual.w) + 0.5 * dual.level
        assert recomputed == pytest.approx(dual.value, abs=1e-8)
        assert dual.majorant_slack(prob) >= -1e-7
        assert dual.value == pytest.approx(2.25, abs=1e-6)

    def test_majorant_slack_across_catalogue(self):
        rng = np.random.default_rng(42)
        for expr in self.CATALOGUE[:6]:
            f = rng.normal(size=4) * 3.0
            prob = problem(expr, 1.0, cost=f)
            assert dual_solution(prob).majorant_slack(prob) >= -1e-7


class TestPinnedValues:
    def test_total_variation_matches_greedy_oracle(self):
        for eps in (0.5, 1.0):
            want = tv_greedy(BASE, F, eps)
            got = dual_solution(problem(TotalVariation(), eps)).value
            assert got == pytest.approx(want, abs=1e-6)
        assert tv_greedy(BASE, F, 0.5) == pytest.approx(2.25)

    def test_tail_slab_matches_sort_oracle(self):
        # radius-one slab ball caps the density at two: the upper-half tail
        got = dual_solution(problem(CvarGauge(0.5), 1.0)).value
        assert got == pytest.approx(cvar_sorted(BASE, F, 0.5), abs=1e-6)
        assert got == pytest.approx(2.5, abs=1e-6)

    def test_flow_ball_matches_transport_oracle(self):
        got = dual_solution(problem(Polar(Lipschitz(ABS1)), 0.5)).value
        assert got == pytest.approx(w1_transport(BASE, F, 0.5, ABS1), abs=1e-6)
        assert got == pytest.approx(2.0, abs=1e-6)

    def test_quadratic_ball_matches_closed_form(self):
        got = dual_solution(problem(Scale(0.4, L2Ball()), 1.0)).value
        assert got == pytest.approx(chi2_closed_form(BASE, F, 0.4), abs=1e-6)
        assert got == pytest.approx(CHI2_04, abs=1e-6)


class TestDivergenceDuals:
    def test_quadratic_divergence_equals_scaled_ball(self):
        for eps in (0.2, 0.4, 0.7, 1.0):
            div = divergence_dual_value(problem(PhiDivergence("chi2", eps * eps), 1.0))
            ball = dual_solution(problem(Scale(eps, L2Ball()), 1.0)).value
            assert div == pytest.approx(ball, abs=1e-6 * (1.0 + abs(ball)))

    def test_absolute_divergence_equals_greedy(self):
        div = divergence_dual_value(problem(PhiDivergence("tv", 0.5), 1.0))
        assert div == pytest.approx(tv_greedy(BASE, F, 0.5), abs=1e-6)

    def test_absolute_divergence_is_exact_on_a_weighted_draw(self):
        # a draw on which a numerical search over the shift and the multiplier
        # stopped 8.6e-5 above the greedy value
        space = DiscreteSpace(
            [0.2706463282884374, 0.32861212375333504, 1.7026499735714076, 2.088027924254546,
             2.536350040091564, 2.6010745070590167, 2.6967975822451873, 2.7852337843262833],
            [0.17500961902820222, 0.10627235615531376, 0.14817386420880183,
             0.13896913658079155, 0.09053339853369254, 0.1212602795169785,
             0.04621591125651312, 0.17356543471970648])
        cost = [-3.264045278438167, -2.1668751691435193, 2.4371121089547017,
                1.2327387883267245, -2.536857412754536, 2.839470991579184,
                0.19674331050528981, -0.6548631348144385]
        budget = 0.7951267116352239
        div = divergence_dual_value(
            ReweightingProblem(space, cost, PhiDivergence("tv", budget), 1.0))
        want = tv_greedy(space, cost, budget)
        assert abs(div - want) <= 1e-9 * (1.0 + abs(want))

    def test_absolute_divergence_is_the_indicator_transport(self):
        # moving at most budget / 2 of the mass, at unit cost per moved unit
        rng = np.random.default_rng(2029)
        for k in range(40):
            n = int(rng.integers(2, 10))
            space = DiscreteSpace(rng.uniform(0.0, 3.0, (n, 1 + k % 2)), rng.dirichlet(np.ones(n)))
            f = rng.normal(size=n)
            budget = float(rng.uniform(0.05, 2.5))
            got = divergence_dual_value(ReweightingProblem(space, f, PhiDivergence("tv", budget), 1.0))
            want = w1_transport(space, f, 0.5 * budget, Hemimetric.indicator())
            assert abs(got - want) <= 1e-12, k

    def test_entropy_divergence_pinned_and_certified(self):
        prob = problem(PhiDivergence("kl", 0.1), 1.0)
        div = divergence_dual_value(prob)
        assert div == pytest.approx(KL_01, abs=1e-6)
        fw = frank_wolfe_primal(prob, tol=1e-4)
        assert fw.value <= div + 1e-7 * (1.0 + abs(div))
        assert div - fw.value <= 1e-3 * (1.0 + abs(div)) + fw.gap

    def test_guards(self):
        with pytest.raises(ParameterError):
            divergence_dual_value(problem(PhiDivergence("chi2", 0.2), 0.5))
        with pytest.raises(ParameterError):
            divergence_dual_value(problem(L2Ball(), 1.0))


class TestTransportDuals:
    def test_linear_cost_pinned(self):
        got = wasserstein_p_dual_value(problem(WassersteinP(1.0, ABS1, 0.5), 1.0))
        assert got == pytest.approx(2.0, abs=1e-6)
        assert got == pytest.approx(w1_transport(BASE, F, 0.5, ABS1), abs=1e-6)

    def test_flow_ball_agrees_with_scalar_dual(self):
        # the deviation flow ball and the measure transport ball coincide at p=1
        for eps in (0.25, 0.8, 2.0):
            scalar = wasserstein_p_dual_value(problem(WassersteinP(1.0, ABS1, eps), 1.0))
            conicv = dual_solution(problem(W1Ball(ABS1), eps)).value
            assert scalar == pytest.approx(conicv, abs=1e-6 * (1.0 + abs(conicv)))

    def test_quadratic_cost_full_relocation(self):
        atom = WassersteinP(2.0, Hemimetric.pnorm(2.0), float(np.sqrt(3.5)))
        assert wasserstein_p_dual_value(problem(atom, 1.0)) == pytest.approx(3.0, abs=1e-6)

    def test_small_radius_approaches_the_mean(self):
        atom = WassersteinP(1.0, ABS1, 1e-9)
        assert wasserstein_p_dual_value(problem(atom, 1.0)) == pytest.approx(1.5, abs=1e-6)

    def test_exact_against_the_plan_lp(self):
        # HiGHS plan LP of w1_transport over the table of c^p at budget r^p
        rng = np.random.default_rng(2028)
        for k in range(100):
            n = int(rng.integers(2, 10))
            space = DiscreteSpace(rng.uniform(0.0, 3.0, (n, 1 + k % 2)), rng.dirichlet(np.ones(n)))
            power = float(1 + (k // 2) % 2)
            atom = WassersteinP(power, Hemimetric.pnorm(power), float(rng.uniform(0.05, 2.0)))
            f = rng.normal(size=n)
            table = Hemimetric.from_table(space.points,
                                          atom.metric.matrix(space.points, space.points) ** power)
            want = w1_transport(space, f, atom.radius ** power, table)
            got = wasserstein_p_dual_value(ReweightingProblem(space, f, atom, 1.0))
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), k

    def test_guards(self):
        with pytest.raises(ParameterError):
            wasserstein_p_dual_value(problem(WassersteinP(1.0, ABS1, 0.5), 0.5))
        with pytest.raises(ParameterError):
            wasserstein_p_dual_value(problem(TotalVariation(), 1.0))


class TestMomentDual:
    def test_mean_shift_pinned(self):
        # default feature map whitens, so the shift budget buys 0.4 standard
        # deviations of the cost: 1.5 + 0.4 * sqrt(1.25)
        got = dual_solution(problem(Scale(0.4, MomentGauge(1)), 1.0)).value
        assert got == pytest.approx(CHI2_04, abs=1e-6)

    def test_zero_radius_linear_cost_is_exact(self):
        got = dual_solution(problem(Scale(0.0, MomentGauge(1, IDMAP)), 1.0)).value
        assert got == pytest.approx(1.5, abs=1e-8)

    def test_zero_radius_quadratic_cost_pays_linear_conservatism(self):
        got = dual_solution(problem(Scale(0.0, MomentGauge(1, IDMAP)), 1.0, cost=F * F)).value
        assert got == pytest.approx(4.5, abs=1e-6)

    def test_both_orders_tighten_the_bound(self):
        one = dual_solution(problem(Scale(0.0, MomentGauge(1, IDMAP)), 1.0, cost=F * F)).value
        both = dual_solution(problem(Intersect((
            Scale(0.0, MomentGauge(1, IDMAP)),
            Scale(0.0, MomentGauge(2, IDMAP)),
        )), 1.0, cost=F * F)).value
        assert both <= one + 1e-7
        assert both == pytest.approx(3.5, abs=1e-6)  # quadratic cost is representable

    def test_matches_conic_primal(self):
        prob = problem(Scale(0.4, MomentGauge(1, IDMAP)), 1.0)
        pval, _ = primal_solution(prob)
        assert dual_solution(prob).value == pytest.approx(pval, abs=1e-6 * (1.0 + abs(pval)))

    def test_spectral_sets_match_the_primal(self):
        # 2-D points, so the second moment is a 2 x 2 matrix and the
        # spectral set's polar prices it by its nuclear norm
        rng = np.random.default_rng(43)
        for k in range(6):
            n = int(rng.integers(5, 9))
            pts = rng.normal(size=(n, 2))
            weights = rng.dirichlet(np.ones(n)) if k % 2 else np.full(n, 1.0 / n)
            sp = DiscreteSpace(pts, weights)
            f = rng.normal(size=n) * 2.0
            spectral = Scale(float(rng.uniform(0.05, 1.0)), MomentGauge(2, None, "spectral"))
            mean = Scale(float(rng.uniform(0.05, 1.0)), MomentGauge(1))
            for expr in (spectral, Intersect((mean, spectral))):
                prob = problem(expr, 1.0, cost=f, space=sp)
                pval, _ = primal_solution(prob)
                dval = dual_solution(prob).value
                assert dval == pytest.approx(pval, abs=1e-6 * (1.0 + abs(pval))), expr

    def test_guards(self):
        flat = uniform_space(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(ParameterError):
            dual_solution(ReweightingProblem(flat, np.zeros(3), Scale(0.1, MomentGauge(1)), 1.0))


class TestComposedStages:
    def test_single_stage_equals_plain_dual(self):
        value, report = composed_dual(BASE, F, [(TotalVariation(), 0.5)])
        assert value == pytest.approx(dual_solution(problem(TotalVariation(), 0.5)).value, abs=1e-6)
        assert len(report) == 1
        alpha0, w0 = report[0]
        assert w0.shape == (4,)
        assert alpha0 + float(BASE.weights @ w0) + 0.5 * np.max(np.abs(0.0)) <= value + 1e-6

    def test_zero_radius_outer_collapses_to_inner(self):
        value, report = composed_dual(
            BASE, F, [(Polar(Lipschitz(ABS1)), 0.0), (CvarGauge(0.5), 1.0)])
        assert value == pytest.approx(cvar_sorted(BASE, F, 0.5), abs=1e-6)
        assert len(report) == 2

    def test_zero_radius_inner_collapses_to_outer(self):
        value, _ = composed_dual(
            BASE, F, [(Polar(Lipschitz(ABS1)), 0.5), (CvarGauge(0.5), 0.0)])
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_flow_around_capped_tail_matches_nested_search(self):
        value, _ = composed_dual(
            BASE, F, [(Polar(Lipschitz(ABS1)), 0.5), (CvarGauge(0.5), 1.0)])
        assert value == pytest.approx(3.0, abs=1e-6)

        def objective(nu):
            return capped_tail_mean(F, BASE.weights * nu, 2.0)

        fw = frank_wolfe_primal(problem(W1Ball(ABS1), 0.5), objective=objective, tol=1e-6)
        assert fw.value <= value + 1e-7 * (1.0 + abs(value))
        assert value - fw.value <= 1e-3 * (1.0 + abs(value)) + fw.gap

    def test_mass_swap_outer_variant(self):
        value, _ = composed_dual(BASE, F, [(TotalVariation(), 0.5), (CvarGauge(0.5), 1.0)])
        assert value == pytest.approx(3.0, abs=1e-6)

        def objective(nu):
            return capped_tail_mean(F, BASE.weights * nu, 2.0)

        fw = frank_wolfe_primal(problem(TotalVariation(), 0.5), objective=objective, tol=1e-6)
        assert value - fw.value <= 1e-3 * (1.0 + abs(value)) + fw.gap

    def test_three_stage_consistency_at_zero_radii(self):
        v1, _ = composed_dual(BASE, F, [
            (TotalVariation(), 0.0), (CvarGauge(0.5), 1.0), (LinfBall(), 0.0)])
        assert v1 == pytest.approx(2.5, abs=1e-6)
        v2, _ = composed_dual(BASE, F, [
            (TotalVariation(), 0.5), (CvarGauge(0.5), 0.0), (LinfBall(), 0.0)])
        assert v2 == pytest.approx(2.25, abs=1e-6)
        v3, _ = composed_dual(BASE, F, [
            (TotalVariation(), 0.0), (CvarGauge(0.5), 0.0), (LinfBall(), 0.5)])
        want = dual_solution(problem(LinfBall(), 0.5)).value
        assert v3 == pytest.approx(want, abs=1e-6)

    def test_inner_stage_value_is_monotone_in_radius(self):
        values = []
        for eps_in in (0.0, 0.5, 1.0, 2.0):
            v, _ = composed_dual(BASE, F, [(TotalVariation(), 0.25), (CvarGauge(0.5), eps_in)])
            values.append(v)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_stage_guards(self):
        with pytest.raises(ParameterError):
            composed_dual(BASE, F, [])
        with pytest.raises(ParameterError):
            composed_dual(BASE, F, [(TotalVariation(), 0.5), (L2Ball(), 0.5)])
        with pytest.raises(ParameterError):
            composed_dual(BASE, F, [(TotalVariation(), -0.1)])
        with pytest.raises(DimensionError):
            composed_dual(BASE, [1.0, 2.0], [(TotalVariation(), 0.5)])

    def test_inner_band_through_scale_and_intersect(self):
        plain, _ = composed_dual(BASE, F, [(TotalVariation(), 0.25), (CvarGauge(0.5), 1.0)])
        scaled, _ = composed_dual(
            BASE, F, [(TotalVariation(), 0.25), (Scale(0.5, CvarGauge(0.5)), 2.0)])
        assert scaled == pytest.approx(plain, abs=1e-6)
        boxed, _ = composed_dual(BASE, F, [
            (TotalVariation(), 0.25),
            (Intersect((CvarGauge(0.5), LinfBall())), 1.0)])
        assert boxed <= plain + 1e-7  # extra box can only shrink the ball


class TestSatisficing:
    def test_target_at_the_mean_needs_full_spread(self):
        got = satisficing_dual(problem(TotalVariation(), 1.0), tau=1.5)
        assert got == pytest.approx(1.5, abs=1e-6)

    def test_target_below_the_mean_is_infeasible(self):
        assert satisficing_dual(problem(TotalVariation(), 1.0), tau=1.0) is None

    def test_target_at_the_max_is_free(self):
        got = satisficing_dual(problem(TotalVariation(), 1.0), tau=3.0)
        assert got == pytest.approx(0.0, abs=1e-7)

    def test_level_is_monotone_in_the_target(self):
        taus = (1.5, 1.8, 2.2, 2.6, 3.0)
        levels = [satisficing_dual(problem(TotalVariation(), 1.0), tau=t) for t in taus]
        assert all(lv is not None for lv in levels)
        assert all(b <= a + 1e-9 for a, b in zip(levels, levels[1:]))

    def test_certificate_line_dominates_the_radius_sweep(self):
        # guaranteed value grows at most linearly in the radius, slope = level
        for gauge in (TotalVariation(), Scale(0.7, L2Ball())):
            tau = 2.0
            gamma = satisficing_dual(problem(gauge, 1.0), tau=tau)
            assert gamma is not None
            for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
                v = dual_solution(problem(gauge, eps)).value
                assert v <= tau + gamma * eps + 1e-6 * (1.0 + abs(v))


class TestLimitsAndMonotonicity:
    def test_value_is_nondecreasing_in_the_radius(self):
        for gauge in (TotalVariation(), L2Ball(), CvarGauge(0.5)):
            vals = [dual_solution(problem(gauge, e)).value for e in (0.0, 0.3, 0.9, 1.8)]
            assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_zero_radius_recovers_the_mean(self):
        for gauge in (TotalVariation(), L2Ball(), LinfBall(), L1Ball()):
            pval, _ = primal_solution(problem(gauge, 0.0))
            assert pval == pytest.approx(1.5, abs=1e-9)

    def test_huge_radius_recovers_the_max(self):
        got, _ = primal_solution(problem(L2Ball(), 1e6))
        assert got == pytest.approx(3.0, abs=1e-5)

    def test_problem_guards(self):
        with pytest.raises(DimensionError):
            problem(L2Ball(), 1.0, cost=[1.0, 2.0])
        with pytest.raises(ParameterError):
            problem(L2Ball(), -0.5)
        with pytest.raises(ParameterError):
            problem(L2Ball(), 1.0, cost=[1.0, np.inf, 0.0, 1.0])

    def test_builders_emit_independent_programs(self):
        prob = problem(TotalVariation(), 0.5)
        prog1 = build_primal(prob)
        prog2 = build_dual(prob)
        assert len(prog1.c) > 0 and len(prog2.c) > 0
        assert (len(prog1.c), len(prog1.b)) != (len(prog2.c), len(prog2.b))
