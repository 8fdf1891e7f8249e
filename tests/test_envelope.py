"""Finite envelope programs: atomic-envelope arithmetic, exactness against
the plain dual when samples equal the support, the exact rule against the
envelope LP, the non-redundancy repair, and the sampled convergence sweep
with its transport bound.

Frozen values on the four-point line instance (uniform on {0,1,2,3}, cost
equal to the coordinate): transport ball radius 0.5 gives 2.0, the mass
budget 0.5 gives 2.25, radius zero gives the mean 1.5.
"""

import tracemalloc

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
from gaugekit import conic
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

from program_checks import linexpr_envelope

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


class TestExactRule:
    def draws(self):
        """test_envelope_exactness's generator, each draw also with samples
        off the support, and an L1 problem on a 2-D support with samples on
        and off it; extras come from a second generator, so the first
        yields the same draws as that test."""
        rng, extra = np.random.default_rng(4004), np.random.default_rng(4005)
        for trial in range(25):
            n = int(rng.integers(3, 8))
            space = uniform_space(np.sort(rng.uniform(-2.0, 2.0, n)))
            f = rng.normal(size=n)
            eps = float(rng.uniform(0.0, 1.5))
            off = extra.uniform(-2.5, 2.5, (int(extra.integers(1, 8)), 1))
            for gauge in (W1Ball(ABS1), TotalVariation()):
                prob = problem(gauge, eps, cost=f, space=space)
                yield f"trial {trial} {type(gauge).__name__}", prob, space.points
                yield f"trial {trial} {type(gauge).__name__} off", prob, off
            plane = uniform_space(extra.uniform(-2.0, 2.0, (n, 2)))
            prob = problem(W1Ball(Hemimetric.pnorm(1.0)), eps, cost=f, space=plane)
            yield f"trial {trial} plane", prob, plane.points
            yield f"trial {trial} plane off", prob, extra.uniform(-2.5, 2.5, (n, 2))

    def test_matches_the_lp_and_its_unbounded_calls(self):
        counts = {"optimal": 0, "unbounded": 0}
        for label, prob, samples in self.draws():
            ep = build_envelope_program(prob, samples)
            lp = conic.solve(linexpr_envelope(prob.space, prob.cost, ep.samples,
                                              ep.metric, ep.price))
            assert lp.status in counts, label
            counts[lp.status] += 1
            if lp.status == "unbounded":
                with pytest.raises(ParameterError, match="unbounded"):
                    solve_envelope(ep)
                continue
            sol = solve_envelope(ep)
            assert abs(sol.value - lp.value) <= 1e-7 * (1.0 + abs(lp.value)), label
            cost = ep.metric.matrix(prob.space.points, ep.samples)
            np.testing.assert_array_equal(sol.s, np.max(prob.cost[:, None] - sol.gamma * cost, axis=0))
            assert sol.alpha == 0.0 and sol.gamma >= 0.0
        assert counts == {"optimal": 94, "unbounded": 56}

    def test_least_minimizer_on_a_flat_stretch(self):
        # at radius 1.5, h is flat at 3 on [0, 1]; the least slope is 0
        sol = solve_envelope(build_envelope_program(problem(W1Ball(ABS1), 1.5), BASE.points))
        assert sol.gamma == 0.0
        assert sol.value == pytest.approx(3.0, abs=1e-12)

    def test_price_at_the_sample_reach_is_bounded(self):
        # one sample at distance 1 from {0, 3}: h = max(0, 3 - gamma) at price 1
        space = uniform_space([0.0, 3.0])
        ep = build_envelope_program(problem(W1Ball(ABS1), 1.0, cost=[0.0, 3.0], space=space), [1.0])
        sol = solve_envelope(ep)
        assert (sol.gamma, sol.value) == (3.0, 0.0)
        below = build_envelope_program(problem(W1Ball(ABS1), 0.999, cost=[0.0, 3.0], space=space), [1.0])
        with pytest.raises(ParameterError, match="unbounded"):
            solve_envelope(below)

    def test_256_samples_in_memory_linear_in_the_program(self):
        space = sample_uniform_box(0.0, 3.0, 256, 11)
        x = space.points[:, 0]
        ep = build_envelope_program(problem(W1Ball(ABS1), 0.5, cost=-(x - 1.5) ** 2, space=space),
                                    space.points)
        tracemalloc.start()
        try:
            sol = solve_envelope(ep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * space.size * len(ep.samples)  # 4.2 MB
        cost = ep.metric.matrix(space.points, ep.samples)
        h = lambda g: ep.price * g + float(np.mean(np.max(ep.problem.cost[:, None] - g * cost, axis=0)))
        for g in (0.0, 0.5 * sol.gamma, sol.gamma * (1 - 1e-6), sol.gamma * (1 + 1e-6), 2.0):
            assert h(g) >= sol.value - 1e-12


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

    def test_runs_with_the_conic_solver_refused(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the envelope rule must not call the conic solver")

        monkeypatch.setattr(conic, "solve", refused)
        rows = convergence_sweep(
            box_sampler, lambda pt: pt[0], ABS1, 0.5, [4, 16], seed=1, z_star=2.0
        )
        assert [r.status for r in rows] == ["ok", "ok"]

    def test_empty_sizes_rejected(self):
        with pytest.raises(ParameterError):
            convergence_sweep(box_sampler, lambda pt: pt[0], ABS1, 0.5, [], seed=1)
