"""The benchmark's four workloads.

Each workload builds one round of instances. An instance has a
`run` step, which calls into gaugekit and is timed, and a `check` step, which
compares the outputs with values computed apart from the program and is not
timed. Calls go through module attributes (`conic.solve`, `cli.main`, ...)
so that the traced run can wrap them.

A check returns a list of problems. A problem is ("failure", text) when the
program itself reports that it failed: a solver status other than optimal, a
nonzero exit code, a gap the command would flag. It is ("breach", text) when
the program reports success but its output disagrees with the reference.
Either kind counts the instance as failed; a breach also makes the run
incorrect.
"""

import collections
import contextlib
import io
import json
import math

import numpy as np

import reference
from gaugekit import casestudy, cli, conic, oracle, reformulate
from gaugekit.conic import SolveSettings
from gaugekit.gauge import (
    CvarGauge,
    Hemimetric,
    Intersect,
    L2Ball,
    Lipschitz,
    MinkowskiSum,
    Polar,
    Scale,
    TotalVariation,
)
from gaugekit.reformulate import ReweightingProblem
from gaugekit.space import uniform_space

ABS1 = Hemimetric.pnorm(1.0)


Instance = collections.namedtuple("Instance", "name run check")


def _run_cli(argv):
    """Run one gaugekit command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _table(text):
    """Rows of a gaugekit table as lists of cells, header excluded."""
    lines = [line.split() for line in text.strip().splitlines()]
    return lines[1:]


# ---------------------------------------------------------------------------
# duality: the randomized duality-gap generator, both routes per problem

CATALOGUE = [
    L2Ball(),
    CvarGauge(0.5),
    CvarGauge(0.8),
    TotalVariation(),
    Polar(Lipschitz(ABS1)),
    Scale(0.7, L2Ball()),
    Intersect((L2Ball(), Scale(0.5, TotalVariation()))),
    MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
]
DUALITY_ROUND = 80
# The round is the acceptance suite's first 80 draws at its own seed, whatever
# the run's seed: some draws at other seeds end at the iteration cap (seed 8,
# trial 2 is one), which would make the failed share depend on the seed. Here
# trial 12, a primal Polar(Lipschitz) program, ends at max_iter every time.
PINNED_SEED = 1001


def _draw(seed, count):
    """(catalogue index, points, cost, radius) in the acceptance suite's order."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        n = int(rng.integers(4, 9))
        points = np.sort(rng.uniform(0.0, 3.0, n))
        cost = rng.normal(size=n) * 2.0
        eps = float(rng.uniform(0.0, 2.0))
        out.append((trial % len(CATALOGUE), points, cost, eps))
    return out


def _duality_reference(kind, points, cost, eps):
    expr = CATALOGUE[kind]
    if isinstance(expr, L2Ball):
        return reference.chi2_closed_form(cost, eps)
    if isinstance(expr, Scale) and isinstance(expr.child, L2Ball):
        return reference.chi2_closed_form(cost, expr.factor * eps)
    if isinstance(expr, CvarGauge):
        return reference.capped_tail_average(
            cost, 1.0 + eps * expr.beta / (1.0 - expr.beta))
    if isinstance(expr, TotalVariation):
        return reference.tv_swap(cost, eps)
    if isinstance(expr, Polar):
        return reference.w1_transport(points, cost, eps)
    return None


def _duality_instance(trial, kind, points, cost, eps):
    problem = ReweightingProblem(uniform_space(points), cost, CATALOGUE[kind], eps)

    def run():
        primal = conic.solve(reformulate.build_primal(problem))
        dual = conic.solve(reformulate.build_dual(problem))
        return primal, dual

    def check(out):
        primal, dual = out
        problems = []
        for route, sol in (("primal", primal), ("dual", dual)):
            if sol.status != "optimal":
                problems.append(("failure", f"{route} status {sol.status}"))
        value = float(dual.value)
        tol = 1e-6 * (1.0 + abs(value))
        if abs(-float(primal.value) - value) > tol:
            problems.append(("failure", f"route gap {-primal.value - value:.3g}"))
        if not (np.mean(cost) - tol <= value <= np.max(cost) + tol):
            problems.append(("breach", f"value {value} outside [mean, max]"))
        want = _duality_reference(kind, points, cost, eps)
        if want is not None and abs(value - want) > 1e-4:
            problems.append(("breach", f"value {value}, reference {want}"))
        return problems

    name = f"trial{trial}:{type(CATALOGUE[kind]).__name__}"
    return Instance(name, run, check)


def duality(seed, workdir):
    return [_duality_instance(trial, *draw)
            for trial, draw in enumerate(_draw(PINNED_SEED, DUALITY_ROUND))]


# ---------------------------------------------------------------------------
# envelope: the README's envelope-sweep, one command per round

ENVELOPE_CONFIG = {
    "seed": 1,
    "space": {"sampler": {"lower": 0.0, "upper": 3.0, "count": 64}},
    "cost": {"expression": "x0"},
    "gauge": "(polar (lipschitz abs))",
    "epsilon": 0.5,
    "samples": {"sizes": [4, 16, 64], "target": 2.0},
}


def _envelope_expected(seed):
    """z_m = min(mean + epsilon, max) of each size's sample, the closed form
    for an identity cost under an absolute-difference transport ball. The
    samples are drawn the way convergence_sweep documents its seeds."""
    sizes = ENVELOPE_CONFIG["samples"]["sizes"]
    box = ENVELOPE_CONFIG["space"]["sampler"]
    state = np.random.SeedSequence(seed).generate_state(len(sizes) + 1)
    out = {}
    for k, m in enumerate(sizes):
        rng = np.random.default_rng(np.uint64(state[k + 1]))
        x = rng.uniform(box["lower"], box["upper"], size=(m, 1))
        out[m] = min(float(np.mean(x)) + ENVELOPE_CONFIG["epsilon"], float(np.max(x)))
    return out


def envelope(seed, workdir):
    # The README's own command at the config's seed, whatever the run's seed:
    # at some sweep seeds (7 is one) a row's deviation bound, measured against
    # a 2048-point reference sample, does not hold and the command exits 2.
    sweep_seed = ENVELOPE_CONFIG["seed"]
    path = workdir / "envelope-sweep.json"
    path.write_text(json.dumps(ENVELOPE_CONFIG))
    argv = ["envelope-sweep", "--config", str(path)]

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return [("failure", f"exit {code}: {stderr.strip()}")]
        expected = _envelope_expected(sweep_seed)
        rows = _table(stdout)
        problems = []
        if sorted(int(r[0]) for r in rows) != sorted(expected):
            problems.append(("breach", f"sizes {[r[0] for r in rows]}"))
        for m, row_seed, z_m, *_ in rows:
            want = expected.get(int(m))
            if int(row_seed) != sweep_seed:
                problems.append(("breach", f"m={m}: seed {row_seed}"))
            if want is not None and abs(float(z_m) - want) > 1e-6 * (1.0 + abs(want)):
                problems.append(("breach", f"m={m}: z_m {z_m}, closed form {want}"))
        return problems

    return [Instance("envelope-sweep", lambda: _run_cli(argv), check)]


# ---------------------------------------------------------------------------
# facility: a zero-budget envelope LP, then case-study on two priced instances

README_CASE = {
    "lower": [0.0, 0.0], "upper": [1.0, 1.0],
    "region-lower": [[0.0, 0.0], [0.5, 0.0]],
    "region-upper": [[0.5, 1.0], [1.0, 1.0]],
    "samples": [[0.1, 0.2], [0.3, 0.8], [0.5, 0.5], [0.7, 0.1],
                [0.9, 0.9], [0.2, 0.6], [0.8, 0.4], [0.4, 0.3]],
    "delta": 0.1, "radii": [0.05, 0.2], "beta": 0.8,
}
# The instances are pinned: across sample seeds the quadratic route takes
# from 5.5 s to 39 s, which would swamp the run-to-run spread. The second
# priced instance has the eight uniform samples of casestudy.default_instance,
# drawn here with numpy. The zero-budget instance shares the README's samples,
# which lie on the grid, and runs first: the README's envelope value, priced
# with positive budgets, must not fall below it.
DEFAULT_CASE = dict(README_CASE, samples=np.random.default_rng(np.uint64(0)).uniform(
    (0.0, 0.0), (1.0, 1.0), size=(8, 2)).tolist())
ZERO_CASE = dict(README_CASE, delta=0.0, radii=[0.0, 0.0])


def _case_instance(block):
    return casestudy.CaseInstance(
        lower=block["lower"], upper=block["upper"],
        region_lower=block["region-lower"], region_upper=block["region-upper"],
        samples=block["samples"], delta=block["delta"], radii=block["radii"],
        beta=block["beta"])


def _zero_budget_lp(block, floor):
    """The envelope-LP route alone, as build_case_envelope_lp with conic.solve:
    with every budget at zero the quadratic route's infimum is not attained."""
    case = _case_instance(block)

    def run():
        return conic.solve(casestudy.build_case_envelope_lp(case), SolveSettings(tol=1e-9))

    def check(sol):
        floor.clear()
        if sol.status != "optimal":
            return [("failure", f"status {sol.status}")]
        value = floor["envelope-lp"] = float(sol.value)
        grid = reference.grid_tail_average(block["samples"], block["lower"],
                                           block["upper"], block["beta"])
        if abs(value - grid) > 1e-4:
            return [("breach", f"envelope {value}, grid sweep {grid}")]
        return []

    return Instance("envelope-lp:zero-budget", run, check)


def _case_command(label, block, path, floor):
    """gaugekit case-study on one priced instance; both routes."""
    path.write_text(json.dumps({"case-instance": block}))
    argv = ["case-study", "--config", str(path)]

    def check(out):
        code, stdout, stderr = out
        if code != 0:
            return [("failure", f"exit {code}: {stderr.strip()} {stdout.strip()}")]
        rows = {r[0]: r for r in _table(stdout)}
        if set(rows) != {"envelope-lp", "funcparam-sdp"}:
            return [("breach", f"rows {sorted(rows)}")]
        problems = []
        for method, row in rows.items():
            if row[4] != "optimal" or float(row[5]) > 1e-7:
                problems.append(("breach", f"{method}: {row[4]}, residual {row[5]}"))
        lp, sdp = float(rows["envelope-lp"][1]), float(rows["funcparam-sdp"][1])
        if sdp < lp - 1e-6:
            problems.append(("breach", f"quadratic {sdp} below envelope {lp}"))
        if lp < floor.get("envelope-lp", -math.inf) - 1e-7:
            problems.append(("breach", f"envelope {lp} below its zero-budget value"))
        return problems

    return Instance(f"case-study:{label}", lambda: _run_cli(argv), check)


def facility(seed, workdir):
    floor = {}  # the round's zero-budget envelope value on the README's samples
    return [
        _zero_budget_lp(ZERO_CASE, floor),
        _case_command("readme", README_CASE, workdir / "case-readme.json", floor),
        _case_command("default", DEFAULT_CASE, workdir / "case-default.json", {}),
    ]


# ---------------------------------------------------------------------------
# walk: the oracle pairs, a dual certificate and a boundary walk each

BASE_POINTS = [0.0, 1.0, 2.0, 3.0]
# The pairs of test_oracle_agreement, except that the transport ball has
# radius 0.25, not 0.5: at 0.5 its walk takes 56-70 s on a 2-core box, at
# 0.25 it takes about 22 s, with as many membership solves (about 2200).
# Its worst case moves mass up the line, so the value is mean + radius.
WALK_PAIRS = [
    ("tail-average", CvarGauge(0.5), 1.0, 2.5),
    ("total-variation", TotalVariation(), 0.5, 2.25),
    ("scaled-quadratic", Scale(0.4, L2Ball()), 1.0, 1.5 + 0.4 * math.sqrt(1.25)),
    ("transport", Polar(Lipschitz(ABS1)), 0.25, 1.75),
]


def _walk_check(label, analytic, dual, fw):
    problems = []
    if dual.status != "optimal":
        problems.append(("failure", f"{label}: dual status {dual.status}"))
    if not fw.converged:
        problems.append(("failure", f"{label}: walk stopped after {fw.iterations} iterations"))
    if abs(dual.value - analytic) > 1e-4:
        problems.append(("breach", f"{label}: dual {dual.value}, analytic {analytic}"))
    if fw.value > dual.value + fw.gap + 1e-9 * (1.0 + abs(dual.value)):
        problems.append(("breach", f"{label}: walk {fw.value} above dual + gap {fw.gap}"))
    if dual.value - fw.value > 1e-3 * (1.0 + abs(dual.value)):
        problems.append(("breach", f"{label}: walk {fw.value} short of dual {dual.value}"))
    return problems


def walk(seed, workdir):
    # One instance is the whole agreement check, all four pairs: the three
    # closed-form pairs take about 50 ms each, too short to time steadily
    # on their own on a shared box.
    space = uniform_space(BASE_POINTS)
    cost = np.array(BASE_POINTS)
    problems = [ReweightingProblem(space, cost, expr, eps) for _, expr, eps, _ in WALK_PAIRS]

    def run():
        return [(reformulate.dual_solution(problem), oracle.frank_wolfe_primal(problem, tol=1e-4))
                for problem in problems]

    def check(out):
        return [problem for (label, _, _, analytic), (dual, fw) in zip(WALK_PAIRS, out)
                for problem in _walk_check(label, analytic, dual, fw)]

    return [Instance("oracle-pairs", run, check)]


WORKLOADS = {"duality": duality, "envelope": envelope, "facility": facility, "walk": walk}
