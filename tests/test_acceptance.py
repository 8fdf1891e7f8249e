"""End-to-end acceptance checks, one test per promised behaviour.

Each test prints a single pass/fail line under pytest -v. Tolerances and
probe counts are the delivery contract for this package; loosening them is
a regression even if every other suite stays green.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gaugekit import cli, conic
from gaugekit.casestudy import (
    CaseInstance,
    build_case_envelope_lp,
    default_instance,
    grid_cvar_value,
    solve_case,
)
from gaugekit.conic import SolveSettings
from gaugekit.errors import ConfigError, EncodingError
from gaugekit.envelope import build_envelope_program, convergence_sweep, solve_envelope
from gaugekit.funcparam import Basis, param_dual_value
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
    Oscillation,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
    W1Ball,
    gauge_value,
    polar,
    support_value,
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
    dual_solution,
    primal_solution,
    satisficing_dual,
)
from gaugekit.space import DiscreteSpace, expectation, sample_uniform_box, uniform_space

BASE = uniform_space([0.0, 1.0, 2.0, 3.0])
F = np.array([0.0, 1.0, 2.0, 3.0])
ABS1 = Hemimetric.pnorm(1.0)
IDMAP = AffineMap.of([[1.0]])
CHI2_04 = 1.5 + 0.4 * np.sqrt(1.25)

ALIGNED = np.array([[0.1, 0.2], [0.3, 0.8], [0.5, 0.5], [0.7, 0.1],
                    [0.9, 0.9], [0.2, 0.6], [0.8, 0.4], [0.4, 0.3]])


def problem(gauge, eps, cost=F, space=BASE):
    return ReweightingProblem(space, cost, gauge, eps)


def test_duality_gap_suite():
    # 200 randomized instances, 4 to 8 support atoms, radius in [0, 2]:
    # both solution routes agree to 1e-6 * (1 + |value|) within a minute
    catalogue = [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        Polar(Lipschitz(ABS1)),
        Scale(0.7, L2Ball()),
        Intersect((L2Ball(), Scale(0.5, TotalVariation()))),
        MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
    ]
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for trial in range(200):
        expr = catalogue[trial % len(catalogue)]
        n = int(rng.integers(4, 9))
        sp = uniform_space(np.sort(rng.uniform(0.0, 3.0, n)))
        f = rng.normal(size=n) * 2.0
        eps = float(rng.uniform(0.0, 2.0))
        prob = problem(expr, eps, cost=f, space=sp)
        pval, _ = primal_solution(prob)
        dval = dual_solution(prob).value
        assert abs(pval - dval) <= 1e-6 * (1.0 + abs(dval)), (
            f"trial {trial}: {type(expr).__name__} eps={eps:.3f} "
            f"primal={pval} dual={dval}")
    assert time.monotonic() - start <= 60.0


@pytest.mark.parametrize("seed, trial, expr", [
    (1001, 12, Polar(Lipschitz(ABS1))),
    (8, 2, CvarGauge(0.8)),
])
def test_duality_gap_ill_conditioned_draws(seed, trial, expr):
    # the suite's generator at trial `trial` of `seed`: the primal of the
    # first draw and the dual of the second are badly conditioned programs
    rng = np.random.default_rng(seed)
    for _ in range(trial + 1):
        n = int(rng.integers(4, 9))
        points = np.sort(rng.uniform(0.0, 3.0, n))
        f = rng.normal(size=n) * 2.0
        eps = float(rng.uniform(0.0, 2.0))
    prob = problem(expr, eps, cost=f, space=uniform_space(points))
    primal, dual = conic.solve(build_primal(prob)), conic.solve(build_dual(prob))
    assert (primal.status, dual.status) == ("optimal", "optimal")
    assert abs(-primal.value - dual.value) <= 1e-6 * (1.0 + abs(dual.value))


def test_gauge_algebra_suite():
    # 1000+ randomized probes of the set calculus at tolerance 1e-6
    pool = [
        L2Ball(),
        CvarGauge(0.5),
        CvarGauge(0.8),
        TotalVariation(),
        Oscillation(),
        L1Ball(),
        LinfBall(),
        Lipschitz(ABS1),
        PhiDivergence("chi2", 0.3),
        Scale(1.7, L2Ball()),
    ]
    start = time.monotonic()
    probes = 0
    rng = np.random.default_rng(2002)

    for expr in pool:  # positive homogeneity, 300 probes
        for _ in range(30):
            u = rng.normal(size=4)
            a = float(rng.uniform(0.1, 5.0))
            g1 = gauge_value(expr, BASE, u)
            g2 = gauge_value(expr, BASE, a * u)
            probes += 1
            if np.isinf(g1):
                assert np.isinf(g2)
            else:
                assert abs(g2 - a * g1) <= 1e-6 * (1.0 + a * abs(g1))

    for expr in pool:  # triangle inequality, 250 probes
        for _ in range(25):
            u, v = rng.normal(size=4), rng.normal(size=4)
            gu, gv = gauge_value(expr, BASE, u), gauge_value(expr, BASE, v)
            probes += 1
            if np.isinf(gu) or np.isinf(gv):
                continue
            assert gauge_value(expr, BASE, u + v) <= gu + gv + 1e-6 * (1.0 + gu + gv)

    pairs = [(L2Ball(), LinfBall()), (CvarGauge(0.5), L1Ball()),
             (PhiDivergence("chi2", 0.3), Oscillation())]
    for left, right in pairs:  # intersection is the pointwise max, 150 probes
        both = Intersect((left, right))
        for _ in range(50):
            u = rng.normal(size=4)
            want = max(gauge_value(left, BASE, u), gauge_value(right, BASE, u))
            got = gauge_value(both, BASE, u)
            probes += 1
            if np.isinf(want):
                assert np.isinf(got)
            else:
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    terms = [(0.4, L2Ball()), (0.6, LinfBall()), (1.1, L1Ball())]
    total = MinkowskiSum(terms)
    for _ in range(150):  # the polar of a sum prices additively
        w = rng.normal(size=4)
        want = sum(b * support_value(child, BASE, w) for b, child in terms)
        got = support_value(total, BASE, w)
        probes += 1
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    bipolar_pool = [L2Ball(), CvarGauge(0.5), CvarGauge(0.8), TotalVariation(),
                    Oscillation(), L1Ball(), LinfBall(), Lipschitz(ABS1)]
    for expr in bipolar_pool:  # taking the polar twice changes nothing, 152 probes
        twice = polar(polar(expr))
        for _ in range(19):
            u = rng.normal(size=4)
            want = gauge_value(expr, BASE, u)
            got = gauge_value(twice, BASE, u)
            probes += 1
            if np.isinf(want):
                assert np.isinf(got)
            else:
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    assert probes >= 1000
    assert time.monotonic() - start <= 30.0


def test_oracle_agreement():
    # every independent oracle agrees with its paired dual within 1e-4, and
    # the boundary walk stays within 1e-3 below and its certified gap above
    pairs = []

    dual_cvar = dual_solution(problem(CvarGauge(0.5), 1.0)).value
    assert abs(cvar_sorted(BASE, F, 0.5) - dual_cvar) <= 1e-4
    assert abs(dual_cvar - 2.5) <= 1e-4
    pairs.append((problem(CvarGauge(0.5), 1.0), dual_cvar))

    dual_tv = dual_solution(problem(TotalVariation(), 0.5)).value
    assert abs(tv_greedy(BASE, F, 0.5) - dual_tv) <= 1e-4
    assert abs(dual_tv - 2.25) <= 1e-4
    pairs.append((problem(TotalVariation(), 0.5), dual_tv))

    dual_w1 = dual_solution(problem(Polar(Lipschitz(ABS1)), 0.5)).value
    assert abs(w1_transport(BASE, F, 0.5, ABS1) - dual_w1) <= 1e-4
    assert abs(dual_w1 - 2.0) <= 1e-4
    pairs.append((problem(Polar(Lipschitz(ABS1)), 0.5), dual_w1))

    dual_chi2 = dual_solution(problem(Scale(0.4, L2Ball()), 1.0)).value
    assert abs(chi2_closed_form(BASE, F, 0.4) - dual_chi2) <= 1e-4
    assert abs(dual_chi2 - CHI2_04) <= 1e-4
    pairs.append((problem(Scale(0.4, L2Ball()), 1.0), dual_chi2))

    for prob, dual_value in pairs:
        fw = frank_wolfe_primal(prob, tol=1e-4)
        assert fw.value <= dual_value + fw.gap + 1e-9 * (1.0 + abs(dual_value))
        assert dual_value - fw.value <= 1e-3 * (1.0 + abs(dual_value))


def test_envelope_exactness():
    # anchored at its own support the envelope program reproduces the dual,
    # for both the absolute-difference and the indicator ground costs
    rng = np.random.default_rng(4004)
    checked = 0
    for trial in range(25):
        n = int(rng.integers(3, 8))
        space = uniform_space(np.sort(rng.uniform(-2.0, 2.0, n)))
        f = rng.normal(size=n)
        eps = float(rng.uniform(0.0, 1.5))
        for gauge in (W1Ball(ABS1), TotalVariation()):
            prob = problem(gauge, eps, cost=f, space=space)
            sol = solve_envelope(build_envelope_program(prob, space.points))
            want = dual_solution(prob).value
            assert abs(sol.value - want) <= 1e-6 * (1.0 + abs(want)), (
                f"trial {trial} {type(gauge).__name__}")
            checked += 1
    assert checked == 50


def test_envelope_convergence():
    # growing uniform-[0, 3] samples with identity cost and radius 0.5:
    # the population value is 2.0, every size-64 value lands within 0.3,
    # and the transport deviation bound holds at every (size, seed)
    start = time.monotonic()

    def sampler(count, seed):
        return sample_uniform_box(0.0, 3.0, count, seed)

    for seed in (1, 2, 3, 4, 5):
        rows = convergence_sweep(sampler, lambda pt: float(pt[0]), ABS1,
                                 0.5, (4, 16, 64), seed, z_star=2.0)
        for row in rows:
            assert row.status == "ok", f"seed {seed} m={row.m}: {row.status}"
            assert row.gap <= row.w1_bound + 1e-6
        final = rows[-1]
        assert abs(final.z_m - 2.0) <= 0.3, f"seed {seed}: z_64={final.z_m}"
    assert time.monotonic() - start <= 120.0


def test_restricted_dual_dominance():
    # coefficient-restricted programs never undercut the plain dual on 100
    # randomized pairs; the full singleton span closes the gap; a
    # constants-only basis under a transport ball pays the full range
    def two_boxes(points):
        cut = float(np.median(points))
        return [lambda x, c=cut: float(np.atleast_1d(x)[0]) < c,
                lambda x, c=cut: float(np.atleast_1d(x)[0]) >= c]

    gauges_pool = [
        TotalVariation(),
        Polar(Lipschitz(ABS1)),
        CvarGauge(0.5),
        L2Ball(),
        Scale(0.7, L2Ball()),
    ]
    rng = np.random.default_rng(6006)
    pairs = 0
    for _ in range(4):
        n = int(rng.integers(4, 8))
        pts = np.sort(rng.uniform(0.0, 3.0, n))
        space = uniform_space(pts)
        f = rng.normal(size=n) * 2.0
        eps = float(rng.uniform(0.05, 1.0))
        bases = {
            "constants": Basis.indicator_regions([lambda x: True]),
            "two indicators": Basis.indicator_regions(two_boxes(pts)),
            "piecewise-affine": Basis.piecewise_affine(two_boxes(pts)),
            "moment 1": Basis.moment(1),
            "singletons": Basis.singletons(pts),
        }
        for gauge in gauges_pool:
            prob = ReweightingProblem(space, f, gauge, eps)
            floor = dual_solution(prob).value
            for name, basis in bases.items():
                value = param_dual_value(prob, basis)
                assert value >= floor - 1e-7, (
                    f"{type(gauge).__name__} {name}: {value} < {floor}")
                pairs += 1
    assert pairs == 100

    for gauge in gauges_pool:
        prob = problem(gauge, 0.5)
        full = param_dual_value(prob, Basis.singletons(BASE.points))
        plain = dual_solution(prob).value
        assert abs(full - plain) <= 1e-6 * (1.0 + abs(plain))

    constants = Basis.indicator_regions([lambda x: True])
    prob = problem(Polar(Lipschitz(ABS1)), 0.5)
    assert param_dual_value(prob, constants) == pytest.approx(3.0, abs=1e-6)


def test_moment_bounds():
    # order-1 shift budget prices like the quadratic ball on its whitened
    # features; with a quadratic cost the degree-1 certificate is honestly
    # conservative at zero radius
    got = dual_solution(problem(Scale(0.4, MomentGauge(1)), 1.0)).value
    assert abs(got - CHI2_04) <= 1e-6
    squared = dual_solution(problem(Scale(0.0, MomentGauge(1, IDMAP)), 1.0, cost=F * F)).value
    assert abs(squared - 4.5) <= 1e-6


def test_stage_composition():
    # one stage is the plain dual; a transport ball around a capped-tail
    # stage matches a boundary walk on the nested objective; a zero-radius
    # outer stage hands through the inner value
    single, _ = composed_dual(BASE, F, [(TotalVariation(), 0.5)])
    plain = dual_solution(problem(TotalVariation(), 0.5)).value
    assert abs(single - plain) <= 1e-6

    nested, _ = composed_dual(
        BASE, F, [(Polar(Lipschitz(ABS1)), 0.5), (CvarGauge(0.5), 1.0)])

    def capped_tail(nu):
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

    fw = frank_wolfe_primal(problem(W1Ball(ABS1), 0.5), objective=capped_tail, tol=1e-6)
    assert fw.value <= nested + 1e-7 * (1.0 + abs(nested))
    assert nested - fw.value <= 1e-3 * (1.0 + abs(nested)) + fw.gap

    collapsed, _ = composed_dual(
        BASE, F, [(Polar(Lipschitz(ABS1)), 0.0), (CvarGauge(0.5), 1.0)])
    assert abs(collapsed - cvar_sorted(BASE, F, 0.5)) <= 1e-6


def test_facility_case_study():
    # the default two-district instance solves cleanly along both routes;
    # with every budget at zero the envelope value matches a 41 x 41 grid
    # sweep; growing the district radii never lowers the value
    start = time.monotonic()
    lp, sdp = solve_case(default_instance())
    for result in (lp, sdp):
        assert result.status == "optimal", result.method
        assert result.residual <= 1e-7, (result.method, result.residual)
    assert sdp.value >= lp.value - 1e-6

    free = CaseInstance(
        lower=(0.0, 0.0), upper=(1.0, 1.0),
        region_lower=[[0.0, 0.0], [0.5, 0.0]],
        region_upper=[[0.5, 1.0], [1.0, 1.0]],
        samples=ALIGNED, delta=0.0, radii=(0.0, 0.0), beta=0.8)
    sol = conic.solve(build_case_envelope_lp(free), SolveSettings(tol=1e-9))
    assert sol.status == "optimal"
    grid, _ = grid_cvar_value(free, resolution=41)
    assert abs(float(sol.value) - grid) <= 1e-4

    values = []
    for scale in (0.0, 1.0, 3.0):
        priced = replace(free, delta=0.05, radii=np.array([0.05, 0.1]) * scale,
                         beta=0.6)
        run = conic.solve(build_case_envelope_lp(priced), SolveSettings(tol=1e-9))
        assert run.status == "optimal"
        values.append(float(run.value))
    assert values[0] <= values[1] + 1e-7 <= values[2] + 2e-7
    assert time.monotonic() - start <= 60.0


def test_limit_behaviour():
    # zero radius is the nominal mean; an enormous quadratic ball pays the
    # maximum; thresholds below the mean are unreachable and the maximum
    # itself costs nothing
    tight = SolveSettings(tol=1e-11)
    for gauge in (TotalVariation(), L2Ball(), CvarGauge(0.5), Scale(0.4, L2Ball())):
        value = dual_solution(problem(gauge, 0.0), tight).value
        assert abs(value - expectation(BASE, F)) <= 1e-9, type(gauge).__name__

    huge, _ = primal_solution(problem(L2Ball(), 1e6), SolveSettings(tol=1e-9))
    assert abs(huge - float(np.max(F))) <= 1e-5

    assert satisficing_dual(problem(TotalVariation(), 0.5), 1.0) is None
    at_max = satisficing_dual(problem(TotalVariation(), 0.5), 3.0)
    assert at_max is not None and abs(at_max) <= 1e-9


def test_route_agreement(monkeypatch):
    # verify's route list on 200 random problems: gauges drawn from every
    # atom head of the grammar, a third inside (scale c .), on 3 to 8 points,
    # half with Dirichlet weights. Every pair of routes that applies agrees
    # within its tolerance, within half a minute. The walk is left out: its
    # converged can be false on chi-square and kl draws (ROADMAP item 1).
    monkeypatch.setattr(cli, "_ROUTES", [r for r in cli._ROUTES if r[0] != "walk"])
    rng = np.random.default_rng(2401)

    def metric():
        return str(rng.choice(["abs", "euclid", "indicator", "(pnorm 1.5)"]))

    def budget():
        return f"{10.0 ** rng.uniform(-2.0, 0.7):.6g}"

    arguments = {  # atom head -> its drawn arguments
        "tv": None, "l2ball": None, "l1ball": None, "linfball": None, "oscillation": None,
        "cvar": lambda: f"{rng.uniform(0.05, 0.95):.6g}",
        "chi2": budget,
        "kl": budget,
        "divergence": lambda: f"{rng.choice(['chi2', 'kl', 'tv'])} {budget()}",
        "lipschitz": metric,
        "w1": metric,
        "wasserstein": lambda: f"{rng.integers(1, 3)} {metric()} {rng.uniform(0.0, 1.0):.6g}",
        "moment": lambda: str(rng.integers(1, 3)),
    }
    atoms = [head for head, (_, spec) in cli._GRAMMAR["gauge"].items()
             if "gauge" not in spec and "term" not in spec]
    assert sorted(arguments) == sorted(atoms)

    checks, floor_bound = {}, 0
    start = time.monotonic()
    for trial in range(200):
        head = atoms[trial % len(atoms)]
        text = head if arguments[head] is None else f"({head} {arguments[head]()})"
        factor = float(rng.choice([0.5, 2.0])) if trial % 3 == 0 else 1.0
        if factor != 1.0:
            text = f"(scale {factor} {text})"
        # half the draws sit at radius 1, where the scalar dual applies
        eps = 1.0 / factor if rng.uniform() < 0.5 else float(rng.uniform(0.0, 2.0))
        n = int(rng.integers(3, 9))
        points = np.sort(rng.uniform(0.0, 3.0, n))
        space = (DiscreteSpace(points, rng.dirichlet(np.ones(n))) if trial % 2
                 else uniform_space(points))
        prob = problem(cli.parse_gauge(text), eps, cost=rng.normal(size=n) * 2.0,
                       space=space)
        dual = None
        try:
            _, value, *statuses, _ = cli._two_routes(prob, None)
            dual = value if statuses == ["optimal", "optimal"] else None
        except EncodingError:
            pass
        try:
            pairs = list(cli._route_pairs(prob, dual))
        except ConfigError:
            assert "kl" in text and eps * factor != 1.0, text
            continue
        for check, reference, candidate, tol in pairs:
            checks[check] = checks.get(check, 0) + 1
            assert abs(reference - candidate) <= tol, (
                f"trial {trial}: {text} eps={eps} {check} {reference} {candidate}")
        # a chi-square ball pairs its scalar dual with the conic dual only
        # where the density floor binds, and with its closed form elsewhere
        floor_bound += "chi2" in text and "scalar-vs-dual" in [c for c, *_ in pairs]
    assert time.monotonic() - start <= 30.0
    assert floor_bound > 0
    assert {"transport-vs-dual", "sorted-vs-dual", "greedy-vs-dual", "closed-vs-dual",
            "closed-vs-scalar", "scalar-vs-dual"} <= set(checks)
