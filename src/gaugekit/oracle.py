"""Independent reference evaluators for worst-case reweighting values.

Everything here works directly on sorted arrays, greedy mass moves, small
scipy LPs, or a Frank-Wolfe loop that sees the set only through a slack.
None of it goes through the dual reformulations, so these values can be
frozen as fixtures and compared against the conic pipeline. The walk prices
transport balls with w1_flow_gauge (an exact formula on the line, a HiGHS
flow LP elsewhere) and other gauges with gauge.slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import gauge as gauges
from .errors import DimensionError, ParameterError
from .space import CLOSURE_REL_TOL, DiscreteSpace, _as_points, per_atom

_INF = float("inf")


def reference_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(0, None)):
    """Thin linprog wrapper returning (status, value, x)."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
    value = float(res.fun) if res.status == 0 else float("nan")
    return status, value, res.x


def _marginals(na: int, nb: int):
    """Sparse rows taking a row-major (na, nb) plan, flattened, to its row
    sums and to its column sums."""
    rows = sparse.kron(sparse.eye(na), np.ones((1, nb)), format="csr")
    cols = sparse.kron(np.ones((1, na)), sparse.eye(nb), format="csr")
    return rows, cols


def cvar_sorted(space: DiscreteSpace, cost, beta: float) -> float:
    """Average of the worst (1 - beta) probability tail, by sorting."""
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    f = per_atom(space, cost)
    order = np.argsort(-f)
    tail = 1.0 - beta
    remaining = tail
    acc = 0.0
    for i in order:
        take = min(space.weights[i], remaining)
        acc += take * f[i]
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / tail


def tv_greedy(space: DiscreteSpace, cost, eps: float) -> float:
    """Worst case over the total-variation ball by greedy mass transfer.

    Moves up to eps/2 probability (no more than what sits below the top) from
    the lowest-cost atoms onto the highest-cost atom.
    """
    if eps < 0.0:
        raise ParameterError("eps must be nonnegative")
    f = per_atom(space, cost)
    p = space.weights.copy()
    top = int(np.argmax(f))
    budget = min(eps / 2.0, 1.0 - p[top])
    value = float(p @ f)
    for i in np.argsort(f):
        if i == top or budget <= 1e-15:
            continue
        moved = min(p[i], budget)
        value += moved * (f[top] - f[i])
        budget -= moved
    return value


def w1_transport(space: DiscreteSpace, cost, eps: float, metric) -> float:
    """Worst case over a transport ball, as an explicit plan LP.

    Variables are plan[i, j] = mass sent to point i from point j; the old
    marginal is fixed and total moving cost is capped by eps.
    """
    if eps < 0.0:
        raise ParameterError("eps must be nonnegative")
    f = per_atom(space, cost)
    n = space.size
    c = metric.matrix(space.points, space.points)
    obj = -np.repeat(f, n)  # maximize sum_ij plan[i,j] f[i]
    _, cols = _marginals(n, n)  # sum_i plan[i,j] = p[j]
    a_ub = c.ravel()[None, :]
    status, value, _ = reference_lp(obj, a_ub=a_ub, b_ub=[eps], a_eq=cols, b_eq=space.weights)
    if status != "optimal":
        raise ParameterError(f"transport reference LP ended with status {status}")
    return -value


def w1_flow_gauge(space: DiscreteSpace, u, metric) -> float:
    """Minimal transport cost realizing the signed mass change p * u.

    Infinite when the change is unbalanced. Exact on the line under a pnorm
    cost, a HiGHS flow LP elsewhere; the walk's transport-ball slack.
    """
    u = per_atom(space, u, "deviation")
    p = space.weights
    if abs(float(p @ u)) > 1e-9 * (1.0 + float(np.max(np.abs(u), initial=0.0))):
        return _INF
    if np.max(np.abs(u), initial=0.0) <= 1e-15:
        return 0.0
    if space.points.shape[1] == 1 and getattr(metric, "kind", None) == "pnorm":
        return _line_transport(space.points[:, 0], p * u)
    arcs = np.flatnonzero(~np.eye(space.size, dtype=bool))  # (i, j), i != j, row-major
    out, into = _marginals(space.size, space.size)
    obj = metric.matrix(space.points, space.points).ravel()[arcs]
    status, value, _ = reference_lp(obj, a_eq=(out - into)[:, arcs], b_eq=p * u)
    if status == "infeasible":
        return _INF
    if status != "optimal":
        raise ParameterError(f"flow reference LP ended with status {status}")
    return value


def w1_distance(points_a, weights_a, points_b, weights_b, metric) -> float:
    """Transport distance between two weighted point clouds.

    One-dimensional clouds under an absolute-difference cost merge into one
    signed mass and take the exact line formula; everything else goes through
    a plan LP.
    """
    pa, pb = _as_points(points_a), _as_points(points_b)
    wa = np.asarray(weights_a, dtype=float).ravel()
    wb = np.asarray(weights_b, dtype=float).ravel()
    if len(wa) != len(pa) or len(wb) != len(pb):
        raise DimensionError("weights do not match point counts")
    if abs(wa.sum() - 1.0) > 1e-9 or abs(wb.sum() - 1.0) > 1e-9:
        raise ParameterError("weights must sum to one")
    one_d = pa.shape[1] == 1 and pb.shape[1] == 1
    if one_d and getattr(metric, "kind", None) == "pnorm":
        return _line_transport(np.concatenate([pa.ravel(), pb.ravel()]), np.concatenate([wa, -wb]))
    c = metric.matrix(pa, pb)
    a_eq = sparse.vstack(_marginals(len(pa), len(pb)))
    status, value, _ = reference_lp(c.ravel(), a_eq=a_eq, b_eq=np.concatenate([wa, wb]))
    if status != "optimal":
        raise ParameterError(f"distance reference LP ended with status {status}")
    return value


def _line_transport(x, signed_mass) -> float:
    """Exact transport cost of a balanced signed mass on the line under |x - y|:
    the mass left of each gap between sorted points crosses that gap."""
    order = np.argsort(x, kind="stable")
    crossing = np.cumsum(signed_mass[order])[:-1]
    return float(np.abs(crossing) @ np.diff(x[order]))


def chi2_closed_form(space: DiscreteSpace, cost, eps: float):
    """Mean plus eps standard deviations, when the implied reweighting stays
    nonnegative; None when the closed form does not apply."""
    if eps < 0.0:
        raise ParameterError("eps must be nonnegative")
    f = per_atom(space, cost)
    p = space.weights
    mu = float(p @ f)
    var = float(p @ (f - mu) ** 2)
    if var <= 1e-24:
        return mu
    sigma = np.sqrt(var)
    nu = 1.0 + eps * (f - mu) / sigma
    if float(np.min(nu)) < -1e-12:
        return None
    return mu + eps * sigma


def _largest_root_below(g, lam_hi: float, g_lo: float) -> float:
    """Largest lam in [0, lam_hi] with g(lam) <= 0, to 2^-40 lam_hi or finer.

    g is convex with g(0) = g_lo, and 0 is the bracket's feasible end even
    when g_lo reads a rounding-level positive. Illinois regula falsi: each
    step tries the secant root between the bracket's ends and halves the
    value kept at an end that survives twice. By convexity the line through
    two infeasible points meets zero at or above the root; when the last
    step that moved lo did not halve g there, the next step tries the root
    of the latest such line instead. That is the kink of a slack that is flat
    and then kinks, as a polyhedral set's is along a chord that starts on a
    face, where the secant from the flat side only creeps. It bisects
    instead whenever the trial point leaves the bracket, a value is
    infinite, or the last three steps have not halved the bracket. Steps
    keep a quarter of the resolution away from the ends, so the secant
    cannot stall on one, and an exact zero of g is the boundary. From the
    center g is affine in lam, so the first secant lands on the boundary.
    """
    g_hi = g(lam_hi)
    if g_hi <= 0.0:
        return lam_hi
    resolution = lam_hi * 2.0 ** -40
    lo, hi = 0.0, lam_hi
    g_lo = min(g_lo, 0.0)
    f_lo, f_hi = g_lo, g_hi  # g at the ends, which the Illinois halving leaves alone
    upper = None  # the root of the line through the last two infeasible points
    flat = False  # the last step that moved lo did not halve g there
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    widths = [_INF] * 3  # the bracket's widths three, two and one steps back
    while hi - lo > resolution:
        lam = 0.5 * (lo + hi)
        if np.isfinite(g_hi) and 2.0 * (hi - lo) <= widths[0]:
            secant = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            if flat and upper is not None:
                secant, upper = upper, None
            if lo <= secant <= hi:
                lam = secant
        lam = min(max(lam, lo + 0.25 * resolution), hi - 0.25 * resolution)
        widths = widths[1:] + [hi - lo]
        value = g(lam)
        if value == 0.0:
            return lam
        if value < 0.0:
            flat = value <= 0.5 * f_lo
            lo, g_lo, f_lo = lam, value, value
            if moved > 0:
                g_hi *= 0.5
            moved = 1
        else:
            if value < f_hi < _INF:
                upper = lam - value * (hi - lam) / (f_hi - value)
            hi, g_hi, f_hi = lam, value, value
            if moved < 0:
                g_lo *= 0.5
            moved = -1
    return lo


@dataclass(frozen=True)
class FwResult:
    value: float
    gap: float
    nu: np.ndarray
    iterations: int
    converged: bool


def frank_wolfe_primal(problem, tol: float = 1e-3, objective=None,
                       max_iter: int = 100_000) -> FwResult:
    """Maximize over a problem's feasible reweightings using only a slack.

    The search set is {nu >= 0, E[nu] = 1, deviation nu - 1 inside the scaled
    gauge set}. Each round scans chords toward the distribution's extreme
    points, pairwise mass transfers, and radial boundary points (the uniform
    center pushed along the balanced gradient, and the current deviation tilted
    toward it, each walked out to the boundary), then takes a golden-section
    step along the best chord. The reported gap is the best linearized
    improvement over the scanned candidates at the final iterate; it vanishes
    at an optimum on polytope-type sets, and the tilted radial family makes
    the walk follow curved boundaries, where a local maximum of a linear
    objective is already global.

    The walk finds each boundary point by a safeguarded secant on a convex
    slack, which is <= 0 exactly on the closure-tolerant set: for a transport
    ball (polar a Lipschitz set) w1_flow_gauge minus the level, with no conic
    solve, for any other gauge gauge.slack. objective(nu) -> (value,
    gradient) overrides the linear default E[nu * cost].
    """
    space, expr, epsilon = problem.space, problem.gauge, problem.epsilon
    p = space.weights
    n = space.size
    metric = gauges.transport_metric(expr)
    level = epsilon * (1.0 + CLOSURE_REL_TOL)

    def slack(x):
        """The slack of the reweighting x against the epsilon-scaled set."""
        if metric is not None:
            return w1_flow_gauge(space, x - 1.0, metric) - level
        return gauges.slack(expr, space, x - 1.0, epsilon)

    if objective is None:
        f = problem.cost

        def objective(nu):
            return float(p @ (nu * f)), f

    def feasible_step(x, d, lam_hi, at_x):
        """Largest lam in [0, lam_hi] keeping x + lam d inside, to 2^-40 lam_hi,
        given the slack at_x at x."""
        if lam_hi <= 1e-14:
            return 0.0
        return _largest_root_below(lambda lam: slack(x + lam * d), lam_hi, at_x)

    x = np.ones(n)
    center = np.ones(n)
    value, grad = objective(x)
    if epsilon <= 0.0:  # the set is the center alone
        return FwResult(value=value, gap=0.0, nu=x, iterations=1, converged=True)
    at_center = slack(center)
    gap = _INF
    iterations = 0
    verts = [np.zeros(n) for _ in range(n)]
    for i in range(n):
        verts[i][i] = 1.0 / p[i]

    for k in range(max_iter):
        iterations = k + 1
        grad_at = np.asarray(grad, dtype=float)
        # candidate rays: toward extreme points, plus pairwise transfers
        rays = []
        for i in range(n):
            d = verts[i] - x
            rate = float(p @ (grad_at * d))
            rays.append((rate, d, 1.0))
        scores = np.array([grad_at[i] - grad_at[j] for i in range(n) for j in range(n) if i != j])
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for s, (i, j) in sorted(zip(scores, pairs), reverse=True, key=lambda z: z[0])[:4 * n]:
            if s <= 0.0:
                continue
            d = verts[i] - verts[j]
            lam_hi = float(x[j] * p[j])  # donor mass floor
            rays.append((s, d, lam_hi))
        # projected gradient, exact for curved (euclidean-like) boundaries
        d = grad_at - float(p @ grad_at)
        if np.max(np.abs(d)) > 1e-14:
            neg = d < 0.0
            lam_hi = float(np.min(x[neg] / -d[neg])) if np.any(neg) else 1.0 / max(np.max(d), 1e-14)
            rays.append((float(p @ (grad_at * d)), d, lam_hi))

        best_gain, best_point = 0.0, None
        at_x = slack(x)
        for rate, d, lam_hi in rays:
            if rate <= 1e-15:
                continue
            lam = feasible_step(x, d, lam_hi, at_x)
            if lam <= 1e-14:
                continue
            lin_gain = lam * rate
            if lin_gain > best_gain:
                best_gain = lin_gain
                best_point = x + lam * d
        # radial boundary candidates, walked out from the uniform center: the
        # balanced gradient direction, and the current deviation tilted toward
        # it at several strengths (a boundary walk for curved sets)
        g_bal = grad_at - float(p @ grad_at)
        gn = float(np.max(np.abs(g_bal)))
        if gn > 1e-14:
            dirs = [g_bal / gn]
            u_cur = x - 1.0
            un = float(np.max(np.abs(u_cur)))
            if un > 1e-12:
                base = u_cur / un
                for eta in (1.0, 0.3, 0.1, 0.03, 0.01):
                    dirs.append(base + eta * g_bal / gn)
                # bend toward and away from each mass coordinate too, so the
                # walk can leave the plane spanned by the current deviation
                # and the gradient (needed on curved sets)
                for i in range(n):
                    ci = verts[i] - 1.0
                    ci = ci / np.max(np.abs(ci))
                    for eta in (0.3, 0.1, 0.03, 0.01):
                        dirs.append(base + eta * ci)
                        dirs.append(base - eta * ci)
            for d in dirs:
                neg = d < -1e-14
                cap = float(np.min(1.0 / -d[neg])) if np.any(neg) else 1e9
                lam = feasible_step(center, d, cap, at_center)
                if lam <= 1e-14:
                    continue
                s = 1.0 + lam * d
                lin_gain = float(p @ (grad_at * (s - x)))
                if lin_gain > best_gain:
                    best_gain = lin_gain
                    best_point = s
        gap = best_gain
        if gap <= tol:
            return FwResult(value=value, gap=float(gap), nu=x, iterations=iterations, converged=True)
        # golden-section step along the chosen chord (objective is concave)
        lo_t, hi_t = 0.0, 1.0
        ratio = (np.sqrt(5.0) - 1.0) / 2.0
        t1 = hi_t - ratio * (hi_t - lo_t)
        t2 = lo_t + ratio * (hi_t - lo_t)
        f1 = objective(x + t1 * (best_point - x))[0]
        f2 = objective(x + t2 * (best_point - x))[0]
        for _ in range(30):
            if f1 < f2:
                lo_t, t1, f1 = t1, t2, f2
                t2 = lo_t + ratio * (hi_t - lo_t)
                f2 = objective(x + t2 * (best_point - x))[0]
            else:
                hi_t, t2, f2 = t2, t1, f1
                t1 = hi_t - ratio * (hi_t - lo_t)
                f1 = objective(x + t1 * (best_point - x))[0]
        theta = t1 if f1 >= f2 else t2
        new_value = objective(x + theta * (best_point - x))[0]
        if new_value < value:
            theta = min(1.0, 2.0 / (k + 2.0))
        x = x + theta * (best_point - x)
        value, grad = objective(x)

    return FwResult(value=value, gap=float(gap), nu=x, iterations=iterations, converged=False)
