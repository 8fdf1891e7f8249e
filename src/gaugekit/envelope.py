"""Finite envelope form of the dual reweighting problem.

When the polar of the deviation set is a Lipschitz ball for some hemimetric
c, every admissible majorant can be replaced by a minimum of atomic
envelopes s_i + gamma * c(., xi_i) anchored at sample points. Minimizing
over (gamma, alpha, s) with the domination rows imposed at the nominal
support points gives a program whose value equals the dual value whenever
the samples coincide with the support, and converges to it as the samples
fill out the nominal distribution.

Its levels are free and alpha drops out, so s_i = max_j (f_j - gamma
c(j, i)) and the value is the minimum over gamma >= 0 of the convex
piecewise-linear h(gamma) = price gamma + mean_i s_i. That is the transport
dual that gauge.transport_dual minimizes exactly, with no solver, for every
transport neighborhood in the package; solve_envelope calls it with equal
sample weights and gets the least minimizer, and so the tightest transport
bound gamma W1. h is unbounded, and solve_envelope raises ParameterError,
exactly when the price is below the mean cost from the samples to the
support: the design-support condition (the support covers the samples) in
numeric form.

Two polar shapes are recognized: a Lipschitz ball keeps its hemimetric and
pays epsilon per unit of the shared slope, and the centered-range ball is
rewritten over the discrete indicator hemimetric at half the price, since
its gauge is half the indicator slope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DimensionError, EncodingError, ParameterError
from .gauge import (Hemimetric, Oscillation, W1Ball, hemimetric_check, polar, transport_dual,
                    transport_metric)
from .oracle import w1_distance
from .reformulate import ReweightingProblem
from .space import _as_points

__all__ = [
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
class EnvelopeProgram:
    """A checked envelope program; price is the objective weight on gamma
    (the radius, already converted to the hemimetric's slope scale)."""

    problem: ReweightingProblem
    samples: np.ndarray
    metric: Hemimetric
    price: float


@dataclass(frozen=True)
class EnvelopeSolution:
    value: float
    gamma: float
    alpha: float
    s: np.ndarray


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
    metric = transport_metric(problem.gauge)
    if metric is not None:
        return metric, problem.epsilon
    if isinstance(polar(problem.gauge), Oscillation):
        # centered-range gauge = half the slope over the discrete indicator
        return Hemimetric.indicator(), 0.5 * problem.epsilon
    raise EncodingError(
        f"polar of {type(problem.gauge).__name__} is not a Lipschitz ball; "
        "the envelope form needs a hemimetric"
    )


def build_envelope_program(problem: ReweightingProblem, samples) -> EnvelopeProgram:
    """Check and hold the finite envelope program for the problem's dual.

    Domination rows are imposed at the problem's support points; the
    objective averages the levels over the samples with equal weight. With
    samples equal to the support this reproduces the dual value exactly.
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
    findings = hemimetric_check(metric, pts)
    if findings:
        raise ParameterError(f"hemimetric fails on the samples: {findings[0]}")
    return EnvelopeProgram(problem=problem, samples=pts, metric=metric, price=price)


def solve_envelope(ep: EnvelopeProgram) -> EnvelopeSolution:
    """The least minimizer gamma of h, with alpha = 0 and the levels
    s_i = max_j (f_j - gamma c(j, i)), by gauge.transport_dual over equally
    weighted samples; raises ParameterError when the program is unbounded."""
    cost = ep.metric.matrix(ep.problem.space.points, ep.samples)
    try:
        gamma, value, s = transport_dual(ep.problem.cost, cost, np.ones(cost.shape[1]), ep.price)
    except ParameterError:
        raise ParameterError(f"envelope program is unbounded: price {ep.price} is below "
                             f"the mean cost {cost.min(axis=0).mean()} from the samples "
                             "to the support") from None
    return EnvelopeSolution(value=value, gamma=gamma, alpha=0.0, s=s)


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
    return replace(sol, s=s, value=sol.alpha + float(np.mean(s)) + ep.price * gamma)


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
    gamma_m * W1(empirical, reference), and the gap to z_star.
    Without an analytic z_star the gap is taken against the largest size's
    value and the row is labeled "surrogate".
    """
    sizes = [int(m) for m in sizes]
    if not sizes:
        raise ParameterError("need at least one sample size")
    state = np.random.SeedSequence(seed).generate_state(len(sizes) + 1)
    reference = sampler(_REFERENCE_SIZE, int(state[0]))

    solved = []
    for idx, m in enumerate(sizes):
        space = sampler(m, int(state[idx + 1]))
        f = np.array([float(cost_fn(pt)) for pt in space.points])
        problem = ReweightingProblem(space, f, W1Ball(metric), epsilon)
        ep = build_envelope_program(problem, space.points)
        sol = solve_envelope(ep)
        w1 = w1_distance(
            space.points, space.weights, reference.points, reference.weights, metric
        )
        solved.append((m, sol, float(sol.gamma * w1)))

    surrogate = solved[int(np.argmax(sizes))][1].value
    rows = []
    for m, sol, bound in solved:
        if z_star is not None:
            gap = z_star - sol.value
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
