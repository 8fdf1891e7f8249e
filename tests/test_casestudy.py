"""Facility placement: builder values, grid cross-checks, monotonicity.

Pinned value: on the grid-aligned eight-sample instance with all budgets
zero, the best placement has empirical tail average 0.75, and the linear
program matches the 41 x 41 grid sweep to solver precision.
"""

import numpy as np
import pytest
from dataclasses import replace

from gaugekit import conic
from gaugekit.casestudy import (
    CaseInstance,
    build_case_envelope_lp,
    build_case_funcparam_sdp,
    default_instance,
    envelope_columns,
    grid_cvar_value,
    solve_case,
)
from gaugekit.conic import SolveSettings
from gaugekit.errors import DimensionError, InstanceError, ParameterError

ALIGNED = np.array([[0.1, 0.2], [0.3, 0.8], [0.5, 0.5], [0.7, 0.1],
                    [0.9, 0.9], [0.2, 0.6], [0.8, 0.4], [0.4, 0.3]])


def aligned_instance(delta=0.0, radii=(0.0, 0.0), beta=0.8):
    return CaseInstance(
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        region_lower=[[0.0, 0.0], [0.5, 0.0]],
        region_upper=[[0.5, 1.0], [1.0, 1.0]],
        samples=ALIGNED, delta=delta, radii=radii, beta=beta,
    )


def lp_value(instance):
    sol = conic.solve(build_case_envelope_lp(instance), SolveSettings(tol=1e-9))
    assert sol.status == "optimal"
    return float(sol.value)


def sdp_value(instance):
    sol = conic.solve(build_case_funcparam_sdp(instance), SolveSettings(tol=1e-9))
    assert sol.status == "optimal"
    return float(sol.value)


class TestCaseInstance:
    def test_default_instance_shape(self):
        ins = default_instance()
        assert ins.samples.shape == (8, 2)
        assert len(ins.region_lower) == 2
        assert sum(len(idx) for idx in ins.members()) == 8

    def test_default_instance_is_deterministic(self):
        a, b = default_instance(3), default_instance(3)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_outside_every_district(self):
        with pytest.raises(InstanceError):
            aligned = aligned_instance()
            CaseInstance(lower=(0, 0), upper=(1, 1),
                         region_lower=[[0.0, 0.0]], region_upper=[[0.4, 1.0]],
                         samples=aligned.samples, delta=0.0, radii=[0.0], beta=0.5)

    def test_district_must_sit_inside_the_box(self):
        with pytest.raises(InstanceError):
            CaseInstance(lower=(0, 0), upper=(1, 1),
                         region_lower=[[0.0, 0.0]], region_upper=[[1.2, 1.0]],
                         samples=[[0.5, 0.5]], delta=0.0, radii=[0.0], beta=0.5)

    def test_parameter_guards(self):
        good = dict(lower=(0, 0), upper=(1, 1),
                    region_lower=[[0.0, 0.0]], region_upper=[[1.0, 1.0]],
                    samples=[[0.5, 0.5]], delta=0.0, radii=[0.0], beta=0.5)
        with pytest.raises(ParameterError):
            CaseInstance(**{**good, "beta": 1.0})
        with pytest.raises(ParameterError):
            CaseInstance(**{**good, "delta": -0.1})
        with pytest.raises(ParameterError):
            CaseInstance(**{**good, "radii": [-1.0]})
        with pytest.raises(DimensionError):
            CaseInstance(**{**good, "radii": [0.0, 0.0]})

    def test_shared_boundary_goes_to_the_first_district(self):
        ins = aligned_instance()
        assert ins.region_index(np.array([[0.5, 0.3]]))[0] == 0


class TestEnvelopeLp:
    def test_single_sample_zero_budgets(self):
        ins = CaseInstance(lower=(0, 0), upper=(1, 1),
                           region_lower=[[0.0, 0.0]], region_upper=[[1.0, 1.0]],
                           samples=[[0.3, 0.7]], delta=0.0, radii=[0.0], beta=0.5)
        sol = conic.solve(build_case_envelope_lp(ins), SolveSettings(tol=1e-9))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.x[:2] == pytest.approx([0.3, 0.7], abs=1e-6)

    def test_zero_budgets_match_the_grid_sweep(self):
        ins = aligned_instance()
        value = lp_value(ins)
        grid, spot = grid_cvar_value(ins)
        assert grid == pytest.approx(0.75, abs=1e-9)
        assert value == pytest.approx(grid, abs=1e-4)
        assert np.all(spot >= ins.lower) and np.all(spot <= ins.upper)

    def test_certificate_reproduces_the_value(self):
        # read the solution back as (location, levels, slopes), lower each
        # level onto its district envelope, and recompute the objective
        # from scratch; the program and the certificate must agree
        ins = default_instance()
        sol = conic.solve(build_case_envelope_lp(ins), SolveSettings(tol=1e-9))
        assert sol.status == "optimal"
        cols = envelope_columns(ins)
        x = sol.x[cols["x"][0]:cols["x"][1]]
        a1 = float(sol.x[cols["base"]])
        a2 = float(sol.x[cols["threshold"]])
        s = sol.x[slice(*cols["levels"])].copy()
        slopes = {k: float(sol.x[c]) for k, c in cols["slopes"].items()}
        members = ins.members()
        for k, slope in slopes.items():
            idx = members[k]
            if not len(idx):
                continue
            pts = ins.samples[idx]
            pair = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
            s[idx] = np.min(s[idx][None, :] + slope * pair, axis=1)
        dist = np.abs(x[None, :] - ins.samples).sum(axis=1)
        ratio = ins.beta / (1.0 - ins.beta)
        rebuilt = (a1 + a2 + s.mean()
                   + ins.delta * np.sqrt(np.mean(s ** 2))
                   + sum(ins.radii[k] * g for k, g in slopes.items())
                   + ratio * np.mean(np.clip(dist - a2, 0.0, None)))
        assert rebuilt == pytest.approx(sol.value, abs=1e-5)
        # and the certificate really dominates across each priced district
        for k, slope in slopes.items():
            idx = members[k]
            if not len(idx):
                continue
            lo, hi = ins.region_lower[k], ins.region_upper[k]
            for g0 in np.linspace(lo[0], hi[0], 41):
                for g1 in np.linspace(lo[1], hi[1], 41):
                    probe = np.array([g0, g1])
                    env = np.min(s[idx]
                                 + slope * np.abs(ins.samples[idx] - probe).sum(axis=1))
                    need = max(np.abs(x - probe).sum() - a2, 0.0)
                    assert a1 + env >= need - 1e-6

    def test_location_stays_in_the_box(self):
        ins = default_instance()
        sol = conic.solve(build_case_envelope_lp(ins), SolveSettings(tol=1e-9))
        assert np.all(sol.x[:2] >= ins.lower - 1e-8)
        assert np.all(sol.x[:2] <= ins.upper + 1e-8)


class TestFuncparamSdp:
    def test_quadratic_majorants_can_only_be_more_conservative(self):
        ins = default_instance()
        assert sdp_value(ins) >= lp_value(ins) - 1e-6

    def test_symmetric_samples_place_the_center(self):
        ins = CaseInstance(
            lower=(0, 0), upper=(1, 1),
            region_lower=[[0.0, 0.0]], region_upper=[[1.0, 1.0]],
            samples=np.array([[0.25, 0.25], [0.75, 0.75], [0.25, 0.75], [0.75, 0.25]]),
            delta=0.0, radii=[0.1], beta=0.5)
        lp, sdp = solve_case(ins)
        assert lp.status == "optimal" and sdp.status == "optimal"
        assert lp.x == pytest.approx([0.5, 0.5], abs=1e-4)
        assert sdp.x == pytest.approx([0.5, 0.5], abs=1e-4)


class TestSolveCase:
    def test_default_instance_solves_cleanly(self):
        lp, sdp = solve_case(default_instance())
        for result in (lp, sdp):
            assert result.status == "optimal"
            assert result.residual <= 1e-7
            assert np.all(result.x >= -1e-8) and np.all(result.x <= 1.0 + 1e-8)
        assert sdp.value >= lp.value - 1e-6

    def test_value_grows_with_each_budget(self):
        base = aligned_instance(delta=0.05, radii=(0.05, 0.1), beta=0.6)
        anchor = lp_value(base)
        assert lp_value(replace(base, delta=0.2)) >= anchor - 1e-7
        assert lp_value(replace(base, radii=(0.15, 0.3))) >= anchor - 1e-7
        assert lp_value(replace(base, beta=0.8)) >= anchor - 1e-7
        assert anchor >= lp_value(replace(base, delta=0.0, radii=(0.0, 0.0))) - 1e-7

    def test_quadratic_value_grows_with_the_radii(self):
        base = aligned_instance(delta=0.1, radii=(0.05, 0.1), beta=0.6)
        assert sdp_value(replace(base, radii=(0.1, 0.2))) >= sdp_value(base) - 1e-7


class TestGrid:
    def test_resolution_guard(self):
        with pytest.raises(ParameterError):
            grid_cvar_value(aligned_instance(), resolution=1)

    def test_grid_point_is_inside_the_box(self):
        value, spot = grid_cvar_value(aligned_instance(), resolution=11)
        assert value >= 0.0
        assert np.all(spot >= 0.0) and np.all(spot <= 1.0)
