"""Worst-case expectation programs over gauge neighborhoods and their duals.

The primal maximizes an expected cost over reweightings of a discrete base
measure whose deviation from uniform weights stays inside a scaled gauge set.
The dual trades a uniform shift, a pointwise majorant, and a polar-gauge
penalty. Both directions compile to conic programs through the gauge
encoders; divergence and transport neighborhoods get dedicated scalar duals
since their sets have no conic epigraph here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import conic, gauge as gauges
from .conic import LinExpr, ProgramBuilder, SolveSettings
from .errors import DimensionError, ParameterError
from .gauge import GaugeExpr, PhiDivergence, WassersteinP
from .space import DiscreteSpace, Reweighting


@dataclass(frozen=True)
class ReweightingProblem:
    """sup E[nu * cost] over nu >= 0, E[nu] = 1, gauge(nu - 1) <= epsilon."""

    space: DiscreteSpace
    cost: np.ndarray
    gauge: GaugeExpr
    epsilon: float

    def __post_init__(self):
        f = np.asarray(getattr(self.cost, "values", self.cost), dtype=float).ravel()
        if len(f) != self.space.size:
            raise DimensionError(f"cost has {len(f)} entries for {self.space.size} points")
        if not np.all(np.isfinite(f)):
            raise ParameterError("cost must be finite")
        if not (self.epsilon >= 0.0):
            raise ParameterError("epsilon must be nonnegative")
        object.__setattr__(self, "cost", f)


@dataclass(frozen=True)
class DualSolution:
    """Certificate (alpha, w, level) with value = alpha + E[w] + eps * level."""

    value: float
    alpha: float
    w: np.ndarray
    level: float
    status: str

    def majorant_slack(self, problem: ReweightingProblem) -> float:
        """min_i alpha + w_i - f_i; nonnegative (to tolerance) when valid."""
        return float(np.min(self.alpha + self.w - problem.cost))


def build_primal(problem: ReweightingProblem) -> conic.ConicProgram:
    """Conic form of the worst-case expectation, as a minimization of the
    negated objective. Variables: nu (one per point), then the gauge level,
    then encoder auxiliaries."""
    sp, f = problem.space, problem.cost
    n = sp.size
    b = ProgramBuilder()
    nu = b.add_vars(n, obj=-(sp.weights * f))
    t = b.add_vars(1)[0]
    b.nonneg_var(nu)
    b.eq(LinExpr.dot(nu, sp.weights) - 1.0)
    gauges.encode_epigraph(b, problem.gauge, sp,
                           [LinExpr.var(c) - 1.0 for c in nu], LinExpr.var(t))
    b.le(LinExpr.var(t) - problem.epsilon)
    return b.build()


def build_dual(problem: ReweightingProblem) -> conic.ConicProgram:
    """Dual program min alpha + E[w] + eps * level over majorants
    alpha + w >= cost with level bounding the polar gauge of w.

    Variables: alpha, w (one per point), level, then encoder auxiliaries.
    """
    sp, f = problem.space, problem.cost
    n = sp.size
    b = ProgramBuilder()
    alpha = b.add_vars(1, obj=1.0)[0]
    w = b.add_vars(n, obj=sp.weights)
    t = b.add_vars(1, obj=problem.epsilon)[0]
    for i in range(n):
        b.le(LinExpr.of(f[i]) - LinExpr.var(alpha) - LinExpr.var(w[i]))
    gauges.encode_epigraph(b, gauges.polar(problem.gauge), sp,
                           [LinExpr.var(c) for c in w], LinExpr.var(t))
    return b.build()


def primal_solution(problem: ReweightingProblem, settings: SolveSettings | None = None):
    """Solve the primal; returns (value, Reweighting)."""
    sol = conic.accepted(conic.solve(build_primal(problem), settings), "primal solve")
    n = problem.space.size
    # scrub solver dust: tiny negative entries and mass drift
    nu = np.clip(sol.x[:n], 0.0, None)
    mass = float(problem.space.weights @ nu)
    if mass > 0.0:
        nu = nu / mass
    return -float(sol.value), Reweighting(nu)


def dual_solution(problem: ReweightingProblem, settings: SolveSettings | None = None) -> DualSolution:
    """Solve the dual; returns the majorant certificate."""
    sol = conic.accepted(conic.solve(build_dual(problem), settings), "dual solve")
    n = problem.space.size
    return DualSolution(
        value=float(sol.value),
        alpha=float(sol.x[0]),
        w=sol.x[1:n + 1].copy(),
        level=float(sol.x[n + 1]),
        status=sol.status,
    )


# ---------------------------------------------------------------------------
# divergence and transport neighborhoods


def _conjugate(kind: str):
    """phi* over the nonnegative half-line, elementwise on arrays."""
    if kind == "chi2":
        return lambda s: np.maximum(s + 0.25 * s * s, -1.0)
    if kind == "kl":
        return lambda s: np.expm1(np.minimum(s, 690.0))
    if kind == "tv":
        return lambda s: np.where(s > 1.0, np.inf, np.maximum(s, -1.0))
    raise ParameterError(f"unknown divergence kind {kind!r}")


def divergence_dual_value(problem: ReweightingProblem) -> float:
    """Scalar dual for a divergence neighborhood: minimize over a shift and a
    nonnegative multiplier of  alpha + gamma * budget + E[gamma phi*((f - alpha)/gamma)].

    Requires gauge = PhiDivergence(kind, budget) and epsilon = 1 (the budget
    carries the radius).
    """
    if not isinstance(problem.gauge, PhiDivergence):
        raise ParameterError("divergence_dual_value needs a PhiDivergence gauge")
    if abs(problem.epsilon - 1.0) > 1e-12:
        raise ParameterError("fold the radius into the divergence budget (epsilon must be 1)")
    f = problem.cost
    p = problem.space.weights
    budget = problem.gauge.budget
    conj = _conjugate(problem.gauge.kind)
    lo_a = float(np.min(f)) - (float(np.ptp(f)) + 1.0)
    hi_a = float(np.max(f)) + 1.0

    def at(gamma: float) -> float:
        def inner(alpha: float) -> float:
            vals = conj((f - alpha) / gamma)
            if np.any(np.isinf(vals)):
                return 1e300
            return alpha + gamma * budget + gamma * float(p @ vals)

        res = minimize_scalar(inner, bounds=(lo_a, hi_a), method="bounded",
                              options={"xatol": 1e-12, "maxiter": 300})
        return min(float(res.fun), inner(hi_a))

    spread = float(np.ptp(f))
    g_hi = (spread + 1.0) * (1.0 + 1.0 / budget) * 20.0 + 20.0
    res = minimize_scalar(lambda lg: at(np.exp(lg)),
                          bounds=(np.log(1e-9), np.log(g_hi)), method="bounded",
                          options={"xatol": 1e-12, "maxiter": 300})
    return min(float(res.fun), at(1e-9), float(np.max(f)))


def wasserstein_p_dual_value(problem: ReweightingProblem) -> float:
    """Scalar dual for a transport neighborhood: minimize over beta >= 0 of
    beta * radius^p + E_j[max_i (f_i - beta c(i,j)^p)].

    Requires gauge = WassersteinP(power, metric, radius) and epsilon = 1.
    """
    if not isinstance(problem.gauge, WassersteinP):
        raise ParameterError("wasserstein_p_dual_value needs a WassersteinP gauge")
    if abs(problem.epsilon - 1.0) > 1e-12:
        raise ParameterError("fold the radius into the gauge (epsilon must be 1)")
    atom = problem.gauge
    sp, f = problem.space, problem.cost
    cpow = atom.metric.matrix(sp.points, sp.points) ** atom.power
    radp = atom.radius ** atom.power

    def at(beta: float) -> float:
        inner = np.max(f[:, None] - beta * cpow, axis=0)
        return beta * radp + float(sp.weights @ inner)

    positive = cpow[cpow > 1e-12]
    b_hi = float(np.ptp(f)) / float(np.min(positive)) + 1.0 if len(positive) else 1.0
    res = minimize_scalar(at, bounds=(0.0, b_hi), method="bounded",
                          options={"xatol": 1e-13, "maxiter": 400})
    return min(float(res.fun), at(0.0))


# ---------------------------------------------------------------------------
# moment neighborhoods


def _moment_terms(expr: GaugeExpr):
    children = expr.children if isinstance(expr, gauges.Intersect) else (expr,)
    terms = []
    for child in children:
        if isinstance(child, gauges.Scale) and isinstance(child.child, gauges.MomentGauge):
            terms.append((child.factor, child.child))
        elif isinstance(child, gauges.MomentGauge):
            terms.append((1.0, child))
        else:
            raise ParameterError("moment_dual needs an intersection of scaled moment gauges")
    return terms


def moment_dual(problem: ReweightingProblem) -> float:
    """Dual for intersected moment neighborhoods: a shift plus one dual-norm
    penalty per moment order, with the lifted majorant built from the feature
    maps. Requires epsilon = 1 (radii live in the Scale factors)."""
    if abs(problem.epsilon - 1.0) > 1e-12:
        raise ParameterError("fold the radii into Scale factors (epsilon must be 1)")
    terms = _moment_terms(problem.gauge)
    sp, f = problem.space, problem.cost
    n = sp.size
    b = ProgramBuilder()
    alpha = b.add_vars(1, obj=1.0)[0]
    point_exprs = [LinExpr.var(alpha) for _ in range(n)]
    for radius, atom in terms:
        feats = atom.features(sp)
        th = b.add_vars(feats.shape[1], obj=sp.weights @ feats)
        level = b.add_vars(1, obj=radius)[0]
        gauges.dual_norm_epigraph(b, [LinExpr.var(c) for c in th], LinExpr.var(level),
                                  atom.euclidean)
        for i in range(n):
            point_exprs[i] = point_exprs[i] + LinExpr.dot(th, feats[i])
    for i in range(n):
        b.le(LinExpr.of(f[i]) - point_exprs[i])
    return float(conic.accepted(conic.solve(b.build()), "moment dual").value)


# ---------------------------------------------------------------------------
# composed stages and robust satisficing


def _stage_band(expr, eps: float):
    """Deviation bounds (dlo, dhi) with dlo <= 0 <= dhi carved out by a
    radius-eps ball of the given gauge, valid only for gauges whose balls
    constrain each atom separately. dlo may be -inf (one-sided slabs)."""
    if isinstance(expr, gauges.CvarGauge):
        return -np.inf, eps * expr.beta / (1.0 - expr.beta)
    if isinstance(expr, gauges.LinfBall):
        return -eps, eps
    if isinstance(expr, gauges.Scale):
        return _stage_band(expr.child, eps * expr.factor)
    if isinstance(expr, gauges.Intersect):
        lows, highs = zip(*(_stage_band(ch, eps) for ch in expr.children))
        return max(lows), min(highs)
    raise ParameterError(
        "inner stages must bound the density atom by atom (CvarGauge, "
        f"LinfBall, or Scale/Intersect of those); got {type(expr).__name__}")


def composed_dual(space: DiscreteSpace, cost, stages):
    """Value of nested worst-case stages, outermost first.

    stages is a sequence of (gauge_expr, epsilon). Stage k > 0 reweights the
    measure produced by the stages before it, so its ball lives on a moving
    measure. That stays one conic program exactly when the inner balls act
    atom by atom as density bands nu in [lo, hi] (CVaR slabs, sup-norm boxes,
    and their Scale/Intersect combinations): the worst tilt of a band costs
    min over alpha of alpha + E[lo (g - alpha) + (hi - lo) (g - alpha)_+]
    under the running measure, which folds into the chain as a pointwise
    convex expression. The outermost stage takes any gauge with a
    conic-encodable polar and is priced under the base weights. Other inner
    gauges raise ParameterError. Returns (value, [(alpha_k, w_k), ...]).
    """
    f = np.asarray(getattr(cost, "values", cost), dtype=float).ravel()
    if len(f) != space.size:
        raise DimensionError("cost length does not match the space")
    stages = list(stages)
    if not stages:
        raise ParameterError("need at least one stage")
    for _, eps in stages:
        if not (eps >= 0.0):
            raise ParameterError("stage radii must be nonnegative")
    n = space.size
    b = ProgramBuilder()
    # fold the inner stages from the innermost out into pointwise costs
    exprs = [LinExpr.of(f[i]) for i in range(n)]
    folded = []  # (alpha column, cost expressions) per inner stage, innermost first
    for expr, eps in reversed(stages[1:]):
        dlo, dhi = _stage_band(expr, eps)
        lo, hi = max(0.0, 1.0 + dlo), 1.0 + dhi
        alpha = b.add_vars(1, obj=1.0)[0]
        tail = b.add_vars(n)
        nxt = []
        for i in range(n):
            b.le(exprs[i] - LinExpr.var(alpha) - LinExpr.var(tail[i]))
            b.le(-LinExpr.var(tail[i]))
            nxt.append(lo * exprs[i] + LinExpr.var(alpha, -lo)
                       + LinExpr.var(tail[i], hi - lo))
        folded.append((alpha, nxt))
        exprs = nxt
    # outermost stage: the usual majorant dual against the folded cost
    gauge0, eps0 = stages[0]
    alpha0 = b.add_vars(1, obj=1.0)[0]
    w0 = b.add_vars(n, obj=space.weights)
    level = b.add_vars(1, obj=eps0)[0]
    for i in range(n):
        b.le(exprs[i] - LinExpr.var(alpha0) - LinExpr.var(w0[i]))
    gauges.encode_epigraph(b, gauges.polar(gauge0), space,
                           [LinExpr.var(c) for c in w0], LinExpr.var(level))
    sol = conic.accepted(conic.solve(b.build()), "composed dual")

    def at(expr):
        return expr.const + sum(coef * sol.x[col] for col, coef in expr.terms.items())

    report = [(float(sol.x[int(alpha0)]), sol.x[[int(c) for c in w0]].copy())]
    for alpha, nxt in reversed(folded):
        report.append((float(sol.x[int(alpha)]), np.array([at(e) for e in nxt])))
    return float(sol.value), report


def satisficing_dual(problem: ReweightingProblem, tau: float):
    """Smallest polar-gauge level whose certificate keeps the guaranteed value
    at or below tau; None when tau is unreachable (below the base mean)."""
    sp, f = problem.space, problem.cost
    n = sp.size
    b = ProgramBuilder()
    alpha = b.add_vars(1)[0]
    w = b.add_vars(n)
    t = b.add_vars(1, obj=1.0)[0]
    for i in range(n):
        b.le(LinExpr.of(f[i]) - LinExpr.var(alpha) - LinExpr.var(w[i]))
    b.le(LinExpr.var(alpha) + LinExpr.dot(w, sp.weights) - tau)
    gauges.encode_epigraph(b, gauges.polar(problem.gauge), sp,
                           [LinExpr.var(c) for c in w], LinExpr.var(t))
    sol = conic.solve(b.build())
    if sol.status == "infeasible":
        return None
    return float(conic.accepted(sol, "satisficing dual").value)
