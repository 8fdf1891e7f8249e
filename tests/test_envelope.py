"""Finite envelope programs: atomic-envelope arithmetic, exactness against
the plain dual when samples equal the support, the non-redundancy repair,
and the sampled convergence sweep with its transport bound.

Frozen values on the four-point line instance (uniform on {0,1,2,3}, cost
equal to the coordinate): transport ball radius 0.5 gives 2.0, the mass
budget 0.5 gives 2.25, radius zero gives the mean 1.5.
"""

import numpy as np
import pytest

from gaugekit.envelope import (
    EnvelopeSolution,
    build_envelope_program,
    convergence_sweep,
    envelope_eval,
    make_nonredundant,
    solve_envelope,
)
from gaugekit.conic import LinExpr, ProgramBuilder
from gaugekit.errors import (
    ContractError,
    DimensionError,
    EncodingError,
    ParameterError,
)
from gaugekit.gauge import (
    Hemimetric,
    L2Ball,
    Lipschitz,
    TotalVariation,
    W1Ball,
    gauge_value,
)
from gaugekit.reformulate import ReweightingProblem, dual_solution
from gaugekit.space import sample_uniform_box, uniform_space

from program_checks import assert_same_program

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
F = np.array([0.0, 1.0, 2.0, 3.0])
ABS1 = Hemimetric.pnorm(1.0)
IND = Hemimetric.indicator()


def problem(gauge, eps, cost=F, space=BASE):
    return ReweightingProblem(space, np.asarray(cost, dtype=float), gauge, eps)


class TestEnvelopeEval:
    def test_single_atom_is_a_cone(self):
        assert envelope_eval(1.0, [0.0], [0.0], ABS1, 2.0) == pytest.approx(2.0)

    def test_two_atoms_tie(self):
        got = envelope_eval(1.0, [0.0, 1.0], [0.0, 3.0], ABS1, 2.0)
        assert got == pytest.approx(2.0)

    def test_indicator_at_its_own_center(self):
        assert envelope_eval(2.0, [5.0], [[0.0, 0.0]], IND, [0.0, 0.0]) == pytest.approx(5.0)

    def test_guards(self):
        with pytest.raises(ParameterError):
            envelope_eval(-0.5, [0.0], [0.0], ABS1, 1.0)
        with pytest.raises(ParameterError):
            envelope_eval(1.0, [], [], ABS1, 1.0)
        with pytest.raises(DimensionError):
            envelope_eval(1.0, [0.0, 1.0], [0.0], ABS1, 1.0)


class TestBuildProgram:
    def test_transport_ball_on_its_own_support_is_exact(self):
        prob = problem(W1Ball(ABS1), 0.5)
        sol = solve_envelope(build_envelope_program(prob, BASE.points))
        assert sol.value == pytest.approx(2.0, abs=1e-6)
        assert sol.value == pytest.approx(dual_solution(prob).value, abs=1e-6)

    def test_mass_budget_uses_the_indicator_at_half_price(self):
        prob = problem(TotalVariation(), 0.5)
        sol = solve_envelope(build_envelope_program(prob, BASE.points))
        assert sol.value == pytest.approx(2.25, abs=1e-6)

    def test_zero_radius_is_the_mean(self):
        prob = problem(W1Ball(ABS1), 0.0)
        sol = solve_envelope(build_envelope_program(prob, BASE.points))
        assert sol.value == pytest.approx(1.5, abs=1e-6)

    def test_exact_on_random_instances_for_both_hemimetrics(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(3, 8))
            pts = np.sort(rng.uniform(-2.0, 2.0, n))
            space = uniform_space(pts)
            f = rng.normal(size=n)
            eps = float(rng.uniform(0.0, 1.5))
            for gauge in (W1Ball(ABS1), TotalVariation()):
                prob = problem(gauge, eps, cost=f, space=space)
                sol = solve_envelope(build_envelope_program(prob, space.points))
                want = dual_solution(prob).value
                assert sol.value == pytest.approx(want, abs=1e-6 * (1.0 + abs(want))), (
                    f"trial {trial} {type(gauge).__name__}"
                )

    def test_solution_slope_bounds_the_sampled_envelope(self):
        prob = problem(W1Ball(ABS1), 0.5)
        ep = build_envelope_program(prob, BASE.points)
        sol = solve_envelope(ep)
        grid = np.linspace(-1.0, 4.0, 21)
        w = [envelope_eval(max(sol.gamma, 0.0), sol.s, ep.samples, ABS1, g) for g in grid]
        got = gauge_value(Lipschitz(ABS1), uniform_space(grid), np.asarray(w))
        assert got <= sol.gamma + 1e-8

    def test_envelope_never_exceeds_its_levels(self):
        prob = problem(W1Ball(ABS1), 0.5)
        ep = build_envelope_program(prob, BASE.points)
        sol = solve_envelope(ep)
        for i, center in enumerate(ep.samples):
            at_center = envelope_eval(max(sol.gamma, 0.0), sol.s, ep.samples, ABS1, center)
            assert at_center <= sol.s[i] + 1e-12

    def test_atom_domination_is_pointwise(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0.0, 3.0, 5)
        levels = rng.normal(size=5)
        grid = np.linspace(-2.0, 5.0, 30)
        for a in range(5):
            for b in range(5):
                at_b = levels[a] + 1.3 * abs(centers[b] - centers[a])
                if at_b > levels[b]:
                    continue
                for g in grid:
                    theta_a = levels[a] + 1.3 * abs(g - centers[a])
                    theta_b = levels[b] + 1.3 * abs(g - centers[b])
                    assert theta_a <= theta_b + 1e-12

    def test_rejects_polars_without_a_hemimetric(self):
        with pytest.raises(EncodingError):
            build_envelope_program(problem(L2Ball(), 0.5), BASE.points)

    def test_rejects_mismatched_sample_dimension(self):
        with pytest.raises(DimensionError):
            build_envelope_program(problem(W1Ball(ABS1), 0.5), np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            build_envelope_program(problem(W1Ball(ABS1), 0.5), np.zeros((0, 1)))

    def test_rejects_a_broken_hemimetric(self):
        pts = np.array([0.0, 1.0, 2.0])
        bad = Hemimetric.from_table(
            pts, [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        prob = problem(W1Ball(bad), 0.5, cost=np.zeros(3), space=uniform_space(pts))
        with pytest.raises(ParameterError):
            build_envelope_program(prob, pts)

    def test_rejects_a_broken_hemimetric_beyond_64_samples(self):
        pts = np.arange(65.0)
        table = np.abs(pts[:, None] - pts[None, :])
        table[0, 64] = 100.0
        bad = Hemimetric.from_table(pts, table)
        prob = problem(W1Ball(bad), 0.5, cost=np.zeros(65), space=uniform_space(pts))
        with pytest.raises(ParameterError, match="1 triangle violations"):
            build_envelope_program(prob, pts)

    def test_large_coordinates_pass_the_norm_check(self):
        # a pnorm cost is a norm, so rounding at 1e6 is no triangle violation
        space = sample_uniform_box([0.0], [1e6], 32, 3)
        prob = problem(W1Ball(ABS1), 1e-6, cost=np.sin(space.points[:, 0] / 1e5), space=space)
        sol = solve_envelope(build_envelope_program(prob, space.points))
        want = dual_solution(prob).value
        assert sol.value == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))


def linexpr_envelope(space, f, samples, metric, price):
    """The envelope program written one LinExpr row at a time: alpha, gamma
    >= 0, the levels s, then f_j - alpha - s_i - gamma c(j, i) <= 0 in row
    j * m + i."""
    b = ProgramBuilder()
    alpha = int(b.add_vars(1, obj=1.0)[0])
    gamma = int(b.add_vars(1, obj=price)[0])
    b.nonneg_var(gamma)
    m = len(samples)
    s = b.add_vars(m, obj=1.0 / m)
    cost = metric.matrix(space.points, samples)
    for j in range(space.size):
        for i in range(m):
            b.le(f[j] - LinExpr.var(alpha) - LinExpr.var(int(s[i])) - LinExpr.var(gamma, cost[j, i]))
    return b.build()


class TestProgramPin:
    # the costs have a zero and both signs; the samples meet the support,
    # so some pairs have zero cost and their rows no gamma term
    COST = np.array([0.0, -1.25, 2.0, 3.5])

    @pytest.mark.parametrize("gauge, metric, price, samples", [
        (W1Ball(ABS1), ABS1, 0.5, [0.0, 1.5, 3.0]),
        (TotalVariation(), IND, 0.25, [3.0, 1.0, 2.0, 0.0, 0.5]),
    ])
    def test_program_matches_the_linexpr_rows(self, gauge, metric, price, samples):
        samples = np.asarray(samples).reshape(-1, 1)
        got = build_envelope_program(problem(gauge, 0.5, cost=self.COST), samples).program
        want = linexpr_envelope(BASE, self.COST, samples, metric, price)
        assert_same_program(got, want)
        assert np.count_nonzero(got.a_vals == 0.0) == 0


class TestMakeNonredundant:
    def two_point_program(self):
        space = uniform_space([0.0, 3.0])
        prob = problem(W1Ball(ABS1), 1.0, cost=np.zeros(2), space=space)
        return build_envelope_program(prob, space.points)

    def test_slack_level_is_pulled_down(self):
        ep = self.two_point_program()
        sol = EnvelopeSolution(value=0.0, gamma=1.0, alpha=0.0, s=np.array([5.0, 0.0]))
        fixed = make_nonredundant(ep, sol)
        np.testing.assert_allclose(fixed.s, [3.0, 0.0])
        assert fixed.value == pytest.approx(0.0 + 1.5 + 1.0 * 1.0)

    def test_idempotent(self):
        ep = self.two_point_program()
        sol = EnvelopeSolution(value=0.0, gamma=1.0, alpha=0.0, s=np.array([3.0, 0.0]))
        once = make_nonredundant(ep, sol)
        twice = make_nonredundant(ep, once)
        np.testing.assert_allclose(twice.s, once.s)
        assert twice.value == once.value

    def test_objective_preserved_on_optimal_solutions(self):
        for gauge in (W1Ball(ABS1), TotalVariation()):
            prob = problem(gauge, 0.5)
            ep = build_envelope_program(prob, BASE.points)
            sol = solve_envelope(ep)
            fixed = make_nonredundant(ep, sol)
            assert fixed.value == pytest.approx(sol.value, abs=1e-9 * (1.0 + abs(sol.value)))
            for i, center in enumerate(ep.samples):
                got = envelope_eval(max(fixed.gamma, 0.0), fixed.s, ep.samples, ep.metric, center)
                assert got == pytest.approx(fixed.s[i], abs=1e-9)

    def test_rejects_infeasible_input(self):
        prob = problem(W1Ball(ABS1), 0.5)
        ep = build_envelope_program(prob, BASE.points)
        low = EnvelopeSolution(value=0.0, gamma=0.0, alpha=0.0, s=np.full(4, -10.0))
        with pytest.raises(ContractError):
            make_nonredundant(ep, low)
        tilted = EnvelopeSolution(value=0.0, gamma=-1.0, alpha=10.0, s=np.zeros(4))
        with pytest.raises(ContractError):
            make_nonredundant(ep, tilted)


def box_sampler(count, seed):
    return sample_uniform_box(0.0, 3.0, count, seed)


class TestConvergenceSweep:
    def test_linear_cost_on_the_unit_slope_ball(self):
        rows = convergence_sweep(
            box_sampler, lambda pt: pt[0], ABS1, 0.5, [4, 16, 64], seed=1, z_star=2.0
        )
        assert [r.m for r in rows] == [4, 16, 64]
        state = np.random.SeedSequence(1).generate_state(4)
        for idx, row in enumerate(rows):
            assert row.status == "ok"
            assert row.gap <= row.w1_bound + 1e-6
            # the other side of the sandwich: the sample-average error of the
            # optimal majorant (here the cost itself) bounds the gap below
            sample = sample_uniform_box(0.0, 3.0, row.m, int(state[idx + 1]))
            mean = float(sample.points[:, 0].mean())
            assert row.gap >= (1.5 - mean) - 1e-6
        assert abs(rows[-1].z_m - 2.0) <= 0.3

    def test_zero_radius_reduces_to_the_sample_average(self):
        rows = convergence_sweep(
            box_sampler, lambda pt: pt[0], ABS1, 0.0, [8, 32], seed=7, z_star=1.5
        )
        state = np.random.SeedSequence(7).generate_state(3)
        for idx, row in enumerate(rows):
            sample = sample_uniform_box(0.0, 3.0, row.m, int(state[idx + 1]))
            assert row.z_m == pytest.approx(float(sample.points[:, 0].mean()), abs=1e-6)

    def test_surrogate_mode_labels_rows(self):
        rows = convergence_sweep(
            box_sampler, lambda pt: pt[0], ABS1, 0.5, [4, 16], seed=3
        )
        assert all(r.status == "surrogate" for r in rows)
        assert rows[-1].gap == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_under_a_fixed_seed(self):
        args = (box_sampler, lambda pt: pt[0], ABS1, 0.5, [4, 8], 5)
        assert convergence_sweep(*args) == convergence_sweep(*args)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ParameterError):
            convergence_sweep(box_sampler, lambda pt: pt[0], ABS1, 0.5, [], seed=1)
