"""Finite envelope form of the dual reweighting problem.

When the polar of the deviation set is a Lipschitz ball for some hemimetric
c, every admissible majorant can be replaced by a minimum of atomic
envelopes s_i + gamma * c(., xi_i) anchored at sample points. Minimizing
over (gamma, alpha, s) with the domination rows imposed at the nominal
support points gives an ordinary conic program whose value equals the dual
value whenever the samples coincide with the support, and converges to it
as the samples fill out the nominal distribution.

Two polar shapes are recognized: a Lipschitz ball keeps its hemimetric and
pays epsilon per unit of the shared slope, and the centered-range ball is
rewritten over the discrete indicator hemimetric at half the price, since
its gauge is half the indicator slope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import conic
from .conic import ConicProgram, LinExpr, ProgramBuilder, SolveSettings
from .errors import ContractError, DimensionError, EncodingError, ParameterError
from .gauge import Hemimetric, Lipschitz, Oscillation, hemimetric_check, polar
from .oracle import w1_distance
from .reformulate import ReweightingProblem
from .space import _as_points

__all__ = [
    "PostTransform",
    "EnvelopeProgram",
    "EnvelopeSolution",
    "SweepRow",
    "envelope_eval",
    "build_envelope_program",
    "solve_envelope",
    "make_nonredundant",
    "convergence_sweep",
]

_REFERENCE_SIZE = 2048


@dataclass(frozen=True)
class PostTransform:
    """Outer/inner transform pair applied to the sample average of s.

    kind "identity" leaves the average alone; kind "case-study" averages
    (s_i, s_i^2) and pays mean + delta * sqrt(mean of squares), with s
    restricted to be nonnegative so the composite stays monotone. l_g and
    l_h record Lipschitz constants of the two layers on the declared
    domain (w in [0, w_bound] for the case-study kind).
    """

    kind: str
    delta: float = 0.0
    l_g: float = 1.0
    l_h: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "case-study"):
            raise ParameterError(f"unknown transform kind {self.kind!r}")
        if self.delta < 0.0:
            raise ParameterError("delta must be nonnegative")

    @staticmethod
    def identity() -> "PostTransform":
        return PostTransform("identity")

    @staticmethod
    def case_study(delta: float, w_bound: float = 1.0) -> "PostTransform":
        """Mean plus delta times the root mean square, on w in [0, w_bound]."""
        if w_bound <= 0.0:
            raise ParameterError("w_bound must be positive")
        return PostTransform(
            "case-study",
            delta=float(delta),
            l_g=1.0 + float(delta),
            l_h=1.0 + 2.0 * float(w_bound),
        )


@dataclass(frozen=True)
class EnvelopeProgram:
    """A built envelope program plus the bookkeeping to read it back.

    gamma / alpha / s are column indices into the conic program; price is
    the objective weight on gamma (the radius, already converted to the
    hemimetric's slope scale).
    """

    problem: ReweightingProblem
    samples: np.ndarray
    metric: Hemimetric
    gh: PostTransform
    epsilon: float
    price: float
    program: ConicProgram
    gamma: int
    alpha: int
    s: tuple


@dataclass(frozen=True)
class EnvelopeSolution:
    value: float
    gamma: float
    alpha: float
    s: np.ndarray
    status: str


@dataclass(frozen=True)
class SweepRow:
    m: int
    seed: int
    z_m: float
    w1_bound: float
    gap: float
    status: str


def envelope_eval(gamma: float, s, centers, c: Hemimetric, point) -> float:
    """Value of min_i (s_i + gamma * c(point, center_i)); ties take the
    lowest index (the value is unaffected, the active atom is pinned)."""
    if gamma < 0.0:
        raise ParameterError("gamma must be nonnegative")
    s = np.asarray(s, dtype=float).ravel()
    centers = _as_points(centers)
    if len(centers) == 0:
        raise ParameterError("need at least one envelope center")
    if len(s) != len(centers):
        raise DimensionError(f"{len(s)} levels for {len(centers)} centers")
    pt = np.atleast_1d(np.asarray(point, dtype=float)).reshape(1, -1)
    vals = s + gamma * c.matrix(pt, centers)[0]
    return float(vals[int(np.argmin(vals))])


def _polar_hemimetric(problem: ReweightingProblem):
    """Hemimetric and per-slope price for the problem's polar, or raise."""
    pol = polar(problem.gauge)
    if isinstance(pol, Lipschitz):
        return pol.metric, problem.epsilon
    if isinstance(pol, Oscillation):
        # centered-range gauge = half the slope over the discrete indicator
        return Hemimetric.indicator(), 0.5 * problem.epsilon
    raise EncodingError(
        f"polar of {type(problem.gauge).__name__} is not a Lipschitz ball; "
        "the envelope form needs a hemimetric"
    )


def build_envelope_program(
    problem: ReweightingProblem, samples, gh: PostTransform
) -> EnvelopeProgram:
    """Assemble the finite envelope program for the problem's dual.

    Domination rows are imposed at the problem's support points; the
    objective averages the transformed levels over the samples with equal
    weight. With samples equal to the support this reproduces the dual
    value exactly.
    """
    metric, price = _polar_hemimetric(problem)
    pts = _as_points(samples)
    if len(pts) < 1:
        raise ParameterError("need at least one sample")
    if pts.shape[1] != problem.space.points.shape[1]:
        raise DimensionError(
            f"samples have dimension {pts.shape[1]}, "
            f"support has {problem.space.points.shape[1]}"
        )
    if len(pts) <= 64:
        findings = hemimetric_check(metric, pts)
        if findings:
            raise ParameterError(f"hemimetric fails on the samples: {findings[0]}")
    m = len(pts)
    f = problem.cost
    cost_mat = metric.matrix(problem.space.points, pts)

    b = ProgramBuilder()
    alpha = int(b.add_vars(1, obj=1.0)[0])
    gamma = int(b.add_vars(1, obj=price)[0])
    b.nonneg_var(gamma)
    s = b.add_vars(m, obj=1.0 / m)
    if gh.kind == "case-study":
        rms = int(b.add_vars(1, obj=gh.delta)[0])
        b.nonneg_var(s)
        b.soc([LinExpr.var(rms)] + [LinExpr.var(int(col), 1.0 / np.sqrt(m)) for col in s])
    for j in range(problem.space.size):
        for i in range(m):
            b.le(
                f[j]
                - LinExpr.var(alpha)
                - LinExpr.var(int(s[i]))
                - LinExpr.var(gamma, cost_mat[j, i])
            )
    return EnvelopeProgram(
        problem=problem,
        samples=pts,
        metric=metric,
        gh=gh,
        epsilon=problem.epsilon,
        price=price,
        program=b.build(),
        gamma=gamma,
        alpha=alpha,
        s=tuple(int(col) for col in s),
    )


def _objective(ep: EnvelopeProgram, gamma: float, alpha: float, s: np.ndarray) -> float:
    base = alpha + float(np.mean(s)) + ep.price * gamma
    if ep.gh.kind == "case-study":
        base += ep.gh.delta * float(np.sqrt(np.mean(s * s)))
    return base


def solve_envelope(ep: EnvelopeProgram, settings: SolveSettings | None = None) -> EnvelopeSolution:
    """Solve the built program and unpack (gamma, alpha, s)."""
    sol = conic.accepted(conic.solve(ep.program, settings), "envelope solve")
    s = np.array([sol.x[i] for i in ep.s])
    return EnvelopeSolution(
        value=float(sol.value),
        gamma=float(sol.x[ep.gamma]),
        alpha=float(sol.x[ep.alpha]),
        s=s,
        status=sol.status,
    )


def make_nonredundant(ep: EnvelopeProgram, sol: EnvelopeSolution) -> EnvelopeSolution:
    """Lower each level to the envelope's own value at its center.

    Keeps feasibility and never raises the objective; at the fixed point the
    envelope passes through every (center, level) pair exactly.
    """
    f = ep.problem.cost
    scale = 1.0 + float(np.max(np.abs(f), initial=0.0))
    tol = 1e-7 * scale
    if sol.gamma < -tol:
        raise ContractError("solution has a negative slope")
    gamma = max(sol.gamma, 0.0)
    cost_mat = ep.metric.matrix(ep.problem.space.points, ep.samples)
    atoms = sol.s[None, :] + gamma * cost_mat
    if np.min(atoms + sol.alpha - f[:, None]) < -tol:
        raise ContractError("solution violates a domination row")

    c_ss = ep.metric.matrix(ep.samples, ep.samples)
    s = sol.s.copy()
    for _ in range(len(s) + 1):
        lowered = np.min(s[None, :] + gamma * c_ss, axis=1)
        if np.max(np.abs(lowered - s)) <= 1e-12 * scale:
            break
        s = lowered
    return replace(sol, s=s, value=_objective(ep, gamma, sol.alpha, s))


def convergence_sweep(
    sampler,
    cost_fn,
    metric: Hemimetric,
    epsilon: float,
    sizes,
    seed: int,
    z_star: float | None = None,
) -> list:
    """Envelope values on growing i.i.d. samples, with transport bounds.

    sampler(count, seed) must deterministically return a DiscreteSpace; the
    per-size seeds are the entries of SeedSequence(seed).generate_state
    (index 0 feeds the 2048-point reference sample, index k+1 the k-th
    size). Each row records the envelope value z_m, the transport bound
    l_g * l_h * gamma_m * W1(empirical, reference), and the gap to z_star.
    Without an analytic z_star the gap is taken against the largest size's
    value and the row is labeled "surrogate".
    """
    from .gauge import W1Ball

    sizes = [int(m) for m in sizes]
    if not sizes:
        raise ParameterError("need at least one sample size")
    gh = PostTransform.identity()
    state = np.random.SeedSequence(seed).generate_state(len(sizes) + 1)
    reference = sampler(_REFERENCE_SIZE, int(state[0]))

    solved = []
    for idx, m in enumerate(sizes):
        space = sampler(m, int(state[idx + 1]))
        f = np.array([float(cost_fn(pt)) for pt in space.points])
        problem = ReweightingProblem(space, f, W1Ball(metric), epsilon)
        ep = build_envelope_program(problem, space.points, gh)
        sol = solve_envelope(ep)
        w1 = w1_distance(
            space.points, space.weights, reference.points, reference.weights, metric
        )
        solved.append((m, sol, float(gh.l_g * gh.l_h * sol.gamma * w1)))

    surrogate = solved[int(np.argmax(sizes))][1].value
    rows = []
    for m, sol, bound in solved:
        if z_star is not None:
            gap = z_star - sol.value
            if sol.status != "optimal":
                status = sol.status
            else:
                status = "ok" if gap <= bound + 1e-6 else "violated"
        else:
            gap = surrogate - sol.value
            status = "surrogate"
        rows.append(
            SweepRow(
                m=m, seed=int(seed), z_m=sol.value, w1_bound=bound, gap=float(gap), status=status
            )
        )
    return rows
