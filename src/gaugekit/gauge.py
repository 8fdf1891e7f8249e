"""Gauge-set expressions over a discrete space: evaluation, polarity, encoding.

A gauge expression describes a convex set of deviation vectors containing the
origin. The three views of such a set are its gauge (Minkowski functional),
its support function, and its polar set; this module evaluates all three and
can emit a conic epigraph of the gauge for embedding into larger programs.

Every rule lives on the expression's own class. GaugeExpr declares five
hooks, each with a default, and a class overrides only the ones it knows:

- ``_polar()``: the exact polar as an expression, or None to stay symbolic;
- ``_gauge(space, u)``: by default the least t that ``_encode`` admits,
  found by a small conic solve;
- ``_support(space, w)``: by default the gauge of the polar;
- ``_slack(space, u, t)``: a value convex in u that is <= 0 exactly when u
  lies in t * set, closure-tolerant; by default the gauge minus the level;
- ``_encode(b, space, u, t)``: by default no epigraph (EncodingError).

A new atom overrides ``_polar`` and ``_encode`` where they exist and
``_gauge`` where a closed form beats the default program. The functions
polar, gauge_value, support_value, slack and encode_epigraph check their
arguments once and hand over to the class. Combinators (scaling,
intersection, convex union, Minkowski sum, polarity) are classes too: they
rewrite structurally where an exact rule exists and split the argument
across their children where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import conic
from .conic import LinExpr, ProgramBuilder
from .errors import DimensionError, EncodingError, ParameterError
from .space import CLOSURE_REL_TOL, KERNEL_TOL, DiscreteSpace, _as_points, per_atom

_INF = float("inf")


# ---------------------------------------------------------------------------
# ground costs


@dataclass(frozen=True)
class Hemimetric:
    """Pairwise ground cost c(new_point, old_point); zero diagonal expected.

    Kinds: "pnorm" (||x - y||_q), "indicator" (0/1), "table" (explicit matrix
    over a fixed point list, looked up by nearest match).
    """

    kind: str
    q: float = 2.0
    base_points: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("pnorm", "indicator", "table"):
            raise ParameterError(f"unknown hemimetric kind {self.kind!r}")
        if self.kind == "pnorm" and not (self.q >= 1.0):
            raise ParameterError("pnorm order must be >= 1")

    @staticmethod
    def pnorm(q: float = 2.0) -> "Hemimetric":
        return Hemimetric("pnorm", q=float(q))

    @staticmethod
    def indicator() -> "Hemimetric":
        return Hemimetric("indicator")

    @staticmethod
    def from_table(points, values) -> "Hemimetric":
        pts = _as_points(points)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (pts.shape[0], pts.shape[0]):
            raise DimensionError("cost table must be square over the point list")
        return Hemimetric(
            "table",
            base_points=tuple(map(tuple, pts)),
            values=tuple(map(tuple, vals)),
        )

    def _locate(self, pts: np.ndarray) -> np.ndarray:
        base = np.asarray(self.base_points, dtype=float)
        idx = np.empty(len(pts), dtype=int)
        for i, row in enumerate(pts):
            dist = np.max(np.abs(base - row[None, :]), axis=1)
            j = int(np.argmin(dist))
            if dist[j] > 1e-9:
                raise ParameterError("point not present in the cost table")
            idx[i] = j
        return idx

    def matrix(self, new_points, old_points) -> np.ndarray:
        """Cost matrix C[i, j] = c(new_points[i], old_points[j])."""
        a = np.atleast_2d(np.asarray(new_points, dtype=float))
        b = np.atleast_2d(np.asarray(old_points, dtype=float))
        if a.shape[1] != b.shape[1]:
            raise DimensionError("point dimensions differ")
        if self.kind == "pnorm":
            diff = a[:, None, :] - b[None, :, :]
            if np.isinf(self.q):
                return np.max(np.abs(diff), axis=2)
            return np.sum(np.abs(diff) ** self.q, axis=2) ** (1.0 / self.q)
        if self.kind == "indicator":
            diff = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
            return (diff > 1e-12).astype(float)
        vals = np.asarray(self.values, dtype=float)
        return vals[np.ix_(self._locate(a), self._locate(b))]

    def __call__(self, new_point, old_point) -> float:
        a = np.atleast_1d(np.asarray(new_point, dtype=float))
        return float(self.matrix(a[None, :], np.atleast_1d(np.asarray(old_point, dtype=float))[None, :])[0, 0])


def hemimetric_check(metric: Hemimetric, points) -> list:
    """Report hemimetric violations on a point list (empty list = clean).

    Checks nonnegativity, a zero diagonal, and all triangle inequalities,
    each to 1e-12 of the largest cost (at least 1e-12), so rounding at large
    coordinates is not read as a violation. The scan takes one intermediate
    point k at a time, in O(m^2) memory. A pnorm metric is a norm of x - y
    and passes by construction.
    """
    pts = _as_points(points)
    if metric.kind == "pnorm":
        return []
    c = metric.matrix(pts, pts)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(c), initial=0.0)))
    findings = []
    neg = np.argwhere(c < -tol)
    for i, j in neg[:5]:
        findings.append(f"negative cost c({i},{j}) = {c[i, j]:.6g}")
    bad_diag = np.where(np.abs(np.diag(c)) > tol)[0]
    for i in bad_diag[:5]:
        findings.append(f"nonzero diagonal c({i},{i}) = {c[i, i]:.6g}")
    best = c[:, :1] + c[:1, :]  # min over k of c(i, k) + c(k, j)
    for k in range(1, len(c)):
        np.minimum(best, c[:, k, None] + c[None, k, :], out=best)
    gap = c - best
    bad = gap > tol
    count = int(np.count_nonzero(bad))
    if count:
        # the first worst pair in row-major order, through its first best stop
        i, j = np.unravel_index(int(np.argmax(np.where(bad, gap, -_INF))), gap.shape)
        k = int(np.argmin(c[i, :] + c[:, j]))
        findings.append(
            f"{count} triangle violations; worst c({i},{j}) - c({i},{k}) - c({k},{j}) = {gap[i, j]:.6g}"
        )
    return findings


@dataclass(frozen=True)
class AffineMap:
    """x -> W x + v with tuple storage so expressions stay hashable."""

    weight: tuple
    offset: tuple

    @staticmethod
    def of(weight, offset=None) -> "AffineMap":
        w = np.atleast_2d(np.asarray(weight, dtype=float))
        v = np.zeros(w.shape[0]) if offset is None else np.asarray(offset, dtype=float)
        if len(v) != w.shape[0]:
            raise DimensionError("offset length must match the output dimension")
        return AffineMap(tuple(map(tuple, w)), tuple(v))

    def apply(self, points: np.ndarray) -> np.ndarray:
        w = np.asarray(self.weight, dtype=float)
        v = np.asarray(self.offset, dtype=float)
        return points @ w.T + v[None, :]


# ---------------------------------------------------------------------------
# shared pieces of the rules


def _kernel_tol(u: np.ndarray) -> float:
    return KERNEL_TOL * (1.0 + float(np.max(np.abs(u), initial=0.0)))


def _balance_shortcut(space: DiscreteSpace, u: np.ndarray):
    """inf for a deviation that moves mass, 0 for a negligible one, else None."""
    if abs(float(space.weights @ u)) > _kernel_tol(u):
        return _INF
    if np.max(np.abs(u), initial=0.0) <= _kernel_tol(u):
        return 0.0
    return None


def _solve_value(builder: ProgramBuilder) -> float:
    sol = conic.solve(builder.build())
    if sol.status == "infeasible":
        return _INF
    if sol.status == "unbounded":
        return -_INF
    return float(conic.accepted(sol, "gauge program").value)


def _flow_arcs(b: ProgramBuilder, space: DiscreteSpace, metric: Hemimetric, u, priced: bool):
    """Nonnegative flows on the arcs between distinct points, in row-major
    (from, to) order, whose net outflow at point k is p_k u_k; u holds affine
    expressions. Priced arcs carry their ground cost as objective. Returns
    the arc columns and the arc costs."""
    n = space.size
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    cost = metric.matrix(space.points, space.points)[src, dst]
    arcs = b.add_vars(len(cost), obj=cost if priced else 0.0)
    b.nonneg_var(arcs)
    balance = [[] for _ in range(n)]
    for i, j, col in zip(src, dst, arcs):
        balance[i].append(LinExpr.var(col))
        balance[j].append(LinExpr.var(col, -1.0))
    for k in range(n):
        b.eq(u[k] * (-space.weights[k]) + LinExpr.sum(balance[k]))
    return arcs, cost


def transport_dual(f, cost, weights, price):
    """The least minimizer gamma >= 0 of the transport dual
    h(gamma) = price gamma + sum_i w_i max_j (f_j - gamma cost[j, i]) / sum_i w_i,
    the worst case of f when the weighted columns move onto the rows at mean
    cost at most price. Returns (gamma, h(gamma), s), s_i = max_j (f_j - gamma
    cost[j, i]).

    h is convex and piecewise linear. Gift wrapping walks every column's upper
    hull of its lines at once, the next line being the first to overtake the
    active one, the least cost among ties; the weighted drops in active cost,
    merged, give h's slope, which turns nonnegative at the least minimizer.
    The slope tends to the price minus the weighted mean of min_j cost[j, i],
    so h is unbounded, and this raises ParameterError, exactly when the price
    is below that mean least cost. Time O(n m H) and memory O(n m) for n rows,
    m columns and hulls of at most H lines; a concave cost puts about n/2
    lines on every hull.
    """
    total = weights.sum()
    least = cost.min(axis=0)
    base = float(np.sum(weights * least))
    if price < base / total:
        raise ParameterError(f"transport dual is unbounded: price {price} is below "
                             f"the mean least cost {base / total}")
    top = np.flatnonzero(f == f.max())
    line = top[np.argmin(cost[top], axis=0)]  # active just right of gamma = 0
    live = np.flatnonzero(cost[line, np.arange(cost.shape[1])] > least)
    breaks, drops = [np.zeros(0)], [np.zeros(0)]
    while live.size:
        sub = cost[:, live]
        held = cost[line[live], live]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(sub < held, (f[line[live]] - f[:, None]) / (held - sub), np.inf)
        first = cross.min(axis=0)
        nxt = np.argmin(np.where(cross == first, sub, np.inf), axis=0)
        breaks.append(first)
        drops.append(weights[live] * (held - sub[nxt, np.arange(live.size)]))
        line[live] = nxt
        live = live[cost[line[live], live] > least[live]]
    breaks, drops = np.concatenate(breaks), np.concatenate(drops)
    order = np.argsort(breaks, kind="stable")
    # mean active cost right of 0 and of each breakpoint; h's slope is the
    # price minus it, and the last entry is the mean least cost
    active = (base + np.r_[np.cumsum(drops[order][::-1])[::-1], 0.0]) / total
    gamma = float(np.r_[0.0, breaks[order]][np.argmax(active <= price)])
    s = np.max(f[:, None] - gamma * cost, axis=0)
    return gamma, price * gamma + float(np.sum(weights * s) / total), s


def _min_over_epigraph(expr: "GaugeExpr", space: DiscreteSpace, w: np.ndarray, level: float) -> float:
    """min -<w, u>_P over u with gauge(u) <= level, through the set's epigraph."""
    b = ProgramBuilder()
    uu = b.add_vars(space.size)
    for k, col in enumerate(uu):
        b.add_objective(int(col), -space.weights[k] * w[k])
    expr._encode(b, space, [LinExpr.var(c) for c in uu], LinExpr.of(level))
    return _solve_value(b)


def _encode_l1(b: ProgramBuilder, space: DiscreteSpace, u, t):
    """sum_i p_i |u_i| <= t through one magnitude variable per point."""
    mag = b.add_vars(space.size)
    for i, ui in enumerate(u):
        b.le(ui - LinExpr.var(mag[i]))
        b.le(-ui - LinExpr.var(mag[i]))
    b.le(LinExpr.dot(mag, space.weights) - t)


def _sum_rows(b: ProgramBuilder, space: DiscreteSpace, parts, u):
    """Rows making the part columns sum to u; returns the parts as expressions."""
    for k in range(space.size):
        b.eq(LinExpr.sum(LinExpr.var(pt[k]) for pt in parts) - u[k])
    return [[LinExpr.var(c) for c in pt] for pt in parts]


def _region_split(space: DiscreteSpace, region: Callable):
    mask = np.asarray(region(space.points), dtype=bool).ravel()
    if mask.shape[0] != space.size:
        raise DimensionError("region predicate must return one flag per point")
    sub = DiscreteSpace(space.points[mask], space.weights[mask]) if np.any(mask) else None
    return mask, sub


# ---------------------------------------------------------------------------
# expressions


class GaugeExpr:
    """Base class of gauge-set expressions; the hooks below are the defaults
    that each subclass overrides where it knows better."""

    __slots__ = ()

    def _polar(self):
        """The exact polar as an expression, or None to stay symbolic."""
        return None

    def _gauge(self, space: DiscreteSpace, u: np.ndarray) -> float:
        """Gauge of a checked deviation: min t subject to the epigraph rows."""
        b = ProgramBuilder()
        t = b.add_vars(1, obj=1.0)[0]
        self._encode(b, space, [LinExpr.of(x) for x in u], LinExpr.var(t))
        return _solve_value(b)

    def _support(self, space: DiscreteSpace, w: np.ndarray) -> float:
        """Support function at a checked argument: the gauge of the polar."""
        rewritten = self._polar()
        if rewritten is None:
            raise ParameterError(f"no support rule for {type(self).__name__}")
        return rewritten._gauge(space, w)

    def _slack(self, space: DiscreteSpace, u: np.ndarray, t: float) -> float:
        """Convex in u and <= 0 exactly when u lies in t * set, closure-tolerant."""
        return self._gauge(space, u) - t * (1.0 + CLOSURE_REL_TOL)

    def _encode(self, b: ProgramBuilder, space: DiscreteSpace, u: list, t: LinExpr):
        """Append rows constraining gauge(u) <= t."""
        raise EncodingError(f"no conic epigraph for {type(self).__name__}")


@dataclass(frozen=True)
class L2Ball(GaugeExpr):
    """Unit ball of the weighted L2 norm."""

    def _polar(self):
        return L2Ball()

    def _gauge(self, space, u):
        return float(np.sqrt(space.weights @ (u * u)))

    def _encode(self, b, space, u, t):
        b.soc([t] + [u[i] * np.sqrt(space.weights[i]) for i in range(space.size)])


@dataclass(frozen=True)
class _Cvar(GaugeExpr):
    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ParameterError(f"beta must lie in (0, 1), got {self.beta}")


class CvarGauge(_Cvar):
    """Upper-slab set whose reweighting cap gives conditional tail averages."""

    def _polar(self):
        return CvarPolar(self.beta)

    def _gauge(self, space, u):
        return max(0.0, float(np.max(u))) * (1.0 - self.beta) / self.beta

    def _encode(self, b, space, u, t):
        ratio = self.beta / (1.0 - self.beta)
        for ui in u:
            b.le(ui - t * ratio)
        b.le(-t)


class CvarPolar(_Cvar):
    """Polar of CvarGauge: nonnegative vectors with a scaled mean cap."""

    def _polar(self):
        return CvarGauge(self.beta)

    def _gauge(self, space, u):
        if float(np.min(u)) < -_kernel_tol(u):
            return _INF
        return self.beta / (1.0 - self.beta) * float(space.weights @ np.clip(u, 0.0, None))

    def _encode(self, b, space, u, t):
        ratio = self.beta / (1.0 - self.beta)
        for ui in u:
            b.le(-ui)
        b.le(LinExpr.sum(u[i] * (ratio * space.weights[i]) for i in range(space.size)) - t)


@dataclass(frozen=True)
class TotalVariation(GaugeExpr):
    """Balanced vectors with weighted L1 norm at most one."""

    def _polar(self):
        return Oscillation()

    def _gauge(self, space, u):
        if abs(float(space.weights @ u)) > _kernel_tol(u):
            return _INF
        return float(space.weights @ np.abs(u))

    def _encode(self, b, space, u, t):
        b.eq(LinExpr.sum(u[i] * space.weights[i] for i in range(space.size)))
        _encode_l1(b, space, u, t)


@dataclass(frozen=True)
class Oscillation(GaugeExpr):
    """Vectors whose half-spread (max - min)/2 is at most one."""

    def _polar(self):
        return TotalVariation()

    def _gauge(self, space, u):
        return 0.5 * (float(np.max(u)) - float(np.min(u)))

    def _encode(self, b, space, u, t):
        low = LinExpr.var(b.add_vars(1)[0])
        for ui in u:
            b.le(low - ui)
            b.le(ui - low - t * 2.0)


@dataclass(frozen=True)
class L1Ball(GaugeExpr):
    """Unit ball of the weighted L1 norm (no balance constraint)."""

    def _polar(self):
        return LinfBall()

    def _gauge(self, space, u):
        return float(space.weights @ np.abs(u))

    def _encode(self, b, space, u, t):
        _encode_l1(b, space, u, t)


@dataclass(frozen=True)
class LinfBall(GaugeExpr):
    """Unit sup-norm box."""

    def _polar(self):
        return L1Ball()

    def _gauge(self, space, u):
        return float(np.max(np.abs(u), initial=0.0))

    def _encode(self, b, space, u, t):
        for ui in u:
            b.le(ui - t)
            b.le(-ui - t)


@dataclass(frozen=True)
class Lipschitz(GaugeExpr):
    """Functions 1-Lipschitz against a ground cost: u(x) - u(y) <= c(x, y)."""

    metric: Hemimetric

    def _polar(self):
        return W1Ball(self.metric)

    def _gauge(self, space, u):
        c = self.metric.matrix(space.points, space.points)
        rise = u[:, None] - u[None, :]
        up = rise > 0.0  # never on the diagonal
        if np.any(c[up] <= 1e-300):
            return _INF
        return float(np.max(rise[up] / c[up], initial=0.0))

    def _encode(self, b, space, u, t):
        c = self.metric.matrix(space.points, space.points)
        for i in range(space.size):
            for j in range(space.size):
                if i != j:
                    b.le(u[i] - u[j] - t * c[i, j])
        b.le(-t)


@dataclass(frozen=True)
class W1Ball(GaugeExpr):
    """Balanced vectors movable at transport cost at most one (polar of Lipschitz)."""

    metric: Hemimetric

    def _polar(self):
        return Lipschitz(self.metric)

    def _gauge(self, space, u):
        shortcut = _balance_shortcut(space, u)
        if shortcut is not None:
            return shortcut
        b = ProgramBuilder()
        _flow_arcs(b, space, self.metric, [LinExpr.of(x) for x in u], priced=True)
        return _solve_value(b)

    def _encode(self, b, space, u, t):
        arcs, cost = _flow_arcs(b, space, self.metric, u, priced=False)
        b.le(LinExpr.dot(arcs, cost) - t)


@dataclass(frozen=True)
class PhiDivergence(GaugeExpr):
    """Deviation set {u : E[phi(1 + u)] <= budget} for phi in {chi2, kl, tv}."""

    kind: str
    budget: float

    def __post_init__(self):
        if self.kind not in ("chi2", "kl", "tv"):
            raise ParameterError(f"unknown divergence kind {self.kind!r}")
        if not (self.budget > 0.0):
            raise ParameterError("divergence budget must be positive")

    def _polar(self):
        if self.kind == "chi2":
            return Scale(1.0 / np.sqrt(self.budget), L2Ball())
        if self.kind == "tv":
            return Scale(1.0 / self.budget, LinfBall())
        return None  # kl: no finite-dimensional rewrite

    @staticmethod
    def _kl(space: DiscreteSpace, x: np.ndarray) -> float:
        """E[x log x - x + 1], inf where x leaves the domain."""
        if float(np.min(x)) < 0.0:
            return _INF
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)
        return float(space.weights @ (term - x + 1.0))

    def _gauge(self, space, u):
        p = space.weights
        if np.max(np.abs(u), initial=0.0) == 0.0:
            return 0.0
        if self.kind == "chi2":
            return float(np.sqrt(p @ (u * u) / self.budget))
        if self.kind == "tv":
            return float(p @ np.abs(u) / self.budget)
        # kl: bisection on t; domain needs 1 + u/t >= 0
        lo = max(float(np.max(-u)), 0.0)
        hi = max(1.0, lo * 2.0, float(np.max(np.abs(u)))) * 2.0
        for _ in range(200):
            if self._kl(space, 1.0 + u / hi) <= self.budget:
                break
            hi *= 4.0
            if hi > 1e12:
                return _INF
        lo_t = max(lo, 1e-300)
        for _ in range(160):
            mid = 0.5 * (lo_t + hi)
            if self._kl(space, 1.0 + u / mid) <= self.budget:
                hi = mid
            else:
                lo_t = mid
        return float(hi)

    def _support(self, space, w):
        if self.kind != "kl":
            return super()._support(space, w)
        # sup <w, u> over the kl set, via its one-dimensional dual
        p = space.weights
        spread = float(np.max(w) - np.min(w)) if len(w) else 0.0
        mean_w = float(p @ w)

        def objective(log_g: float) -> float:
            g = np.exp(log_g)
            # g * sum p exp(w/g) computed in log space to dodge overflow
            z = w / g + np.log(p)
            zmax = float(np.max(z))
            lse = zmax + np.log(np.sum(np.exp(z - zmax)))
            if lse + np.log(g) > 700.0:
                return 1e300
            return g * self.budget - mean_w + np.exp(lse + np.log(g)) - g

        lo = np.log(max(1e-9 * (1.0 + spread), 1e-12))
        hi = np.log((10.0 + 10.0 * spread) * (1.0 + 1.0 / self.budget))
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12, "maxiter": 500})
        return float(min(objective(lo), objective(hi), float(res.fun)))

    def _slack(self, space, u, t):
        if self.kind != "kl":
            return super()._slack(space, u, t)
        # one divergence evaluation at the requested level instead of the
        # gauge bisection: the divergence of 1 + u/s is convex in u and
        # shrinks as the level s grows, so it is within budget exactly when
        # the gauge is within the level
        return self._kl(space, 1.0 + u / (t * (1.0 + CLOSURE_REL_TOL))) - self.budget

    def _encode(self, b, space, u, t):
        if self.kind == "kl":
            raise EncodingError("kl sets have no conic epigraph; use divergence_dual_value")
        scaled = Scale(np.sqrt(self.budget), L2Ball()) if self.kind == "chi2" \
            else Scale(self.budget, L1Ball())
        scaled._encode(b, space, u, t)


@dataclass(frozen=True)
class WassersteinP(GaugeExpr):
    """Deviations u with transport distance from the base measure at most radius.

    The gauge is one LP. With s = 1/t, "u/t lies in the ball" is linear in a
    plan and s: a nonnegative plan whose column sums are the weights p, whose
    row i sums to p_i (1 + s u_i), and whose cost sum c^power * plan is at
    most radius^power; off its diagonal the plan is the arcs of _flow_arcs,
    and each old point's outflow is capped by its weight. The gauge is
    1/s_max, inf when s_max = 0 and 0 when the LP is unbounded. The support
    needs no program: sup E_Q[w] over the ball is transport_dual of w under
    cost c^power at price radius^power, less E_P[w].
    """

    power: float
    metric: Hemimetric
    radius: float

    def __post_init__(self):
        if not (self.power >= 1.0):
            raise ParameterError("transport power must be >= 1")
        if not (self.radius > 0.0):
            raise ParameterError("transport radius must be positive")

    def _gauge(self, space, u):
        shortcut = _balance_shortcut(space, u)
        if shortcut is not None:
            return shortcut
        b = ProgramBuilder()
        s = int(b.add_vars(1, obj=-1.0)[0])
        b.nonneg_var(s)
        # arc (i, j) moves mass from old point j to new point i
        arcs, cost = _flow_arcs(b, space, self.metric, [LinExpr.var(s, x) for x in u],
                                priced=False)
        b.le(LinExpr.dot(arcs, cost ** self.power / self.radius ** self.power) - 1.0)
        _, old = np.nonzero(~np.eye(space.size, dtype=bool))
        for j in range(space.size):
            b.le(LinExpr.sum(map(LinExpr.var, arcs[old == j])) - space.weights[j])
        # the density floor 1 + s u >= 0; the rows above imply it, but as its
        # own row it lets the solver settle a floor-bound gauge quickly
        b.le(LinExpr.var(s, float(np.max(-u))) - 1.0)
        s_max = -_solve_value(b)
        return 1.0 / s_max if s_max > 0.0 else _INF

    def _support(self, space, w):
        cost = self.metric.matrix(space.points, space.points) ** self.power
        worst = transport_dual(w, cost, space.weights, self.radius ** self.power)[1]
        return worst - float(space.weights @ w)

    def _encode(self, b, space, u, t):
        raise EncodingError("transport balls have no conic epigraph; use wasserstein_p_dual_value")


@dataclass(frozen=True)
class _Moment(GaugeExpr):
    order: int
    map: Optional[AffineMap] = None
    norm: str = "euclidean"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ParameterError("moment order must be 1 or 2")
        if self.norm not in ("euclidean", "spectral"):
            raise ParameterError(f"unknown norm {self.norm!r}")
        if self.order == 1 and self.norm == "spectral":
            raise ParameterError("order-1 moments use the euclidean norm")

    @property
    def euclidean(self) -> bool:
        return self.order == 1 or self.norm == "euclidean"

    def _feature_map(self, space: DiscreteSpace) -> AffineMap:
        if self.map is not None:
            return self.map
        mu = space.weights @ space.points
        centered = space.points - mu[None, :]
        cov = (space.weights[:, None] * centered).T @ centered
        vals, vecs = np.linalg.eigh(cov)
        if np.min(vals) <= 1e-12 * max(float(np.max(vals)), 1.0):
            raise ParameterError("degenerate covariance; supply an explicit feature map")
        w = (vecs / np.sqrt(vals)) @ vecs.T
        if self.order == 1:
            return AffineMap.of(w)
        return AffineMap.of(w, -w @ mu)

    def features(self, space: DiscreteSpace) -> np.ndarray:
        """Per-point feature rows: z_i for order 1, svec(z_i z_i') for order 2."""
        z = self._feature_map(space).apply(space.points)
        return z if self.order == 1 else conic.svec(z[:, :, None] * z[:, None, :])


class MomentGauge(_Moment):
    """Deviations with a bounded lifted moment: order 1 mean shift, order 2
    second-moment shift, measured after an affine feature map."""

    def _polar(self):
        return MomentPolar(self.order, self.map, self.norm)

    def _gauge(self, space, u):
        vec = (space.weights * u) @ self.features(space)
        if self.euclidean:
            return float(np.linalg.norm(vec))
        mat = conic.unsvec(vec, conic.svec_side(len(vec)))
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))

    def _encode(self, b, space, u, t):
        feats = self.features(space)
        p = space.weights
        lifted = [LinExpr.sum(u[i] * (p[i] * feats[i, k]) for i in range(space.size))
                  for k in range(feats.shape[1])]
        if self.euclidean:
            b.soc([t] + lifted)
            return
        side = conic.svec_side(feats.shape[1])
        pairs = conic.svec_indices(side)
        for sign in (1.0, -1.0):
            b.psd(side, [t - lifted[k] * sign if a == c else lifted[k] * sign * -1.0
                         for k, (a, c) in enumerate(pairs)])


class MomentPolar(_Moment):
    """Polar of MomentGauge: cheapest dual-norm certificate fitting w in the
    feature span."""

    def _polar(self):
        return MomentGauge(self.order, self.map, self.norm)

    def _gauge(self, space, w):
        feats = self.features(space)
        theta, *_ = np.linalg.lstsq(feats, w, rcond=None)
        resid = float(np.linalg.norm(feats @ theta - w))
        if resid > 1e-7 * (1.0 + float(np.linalg.norm(w))):
            return _INF
        if self.euclidean:
            return float(np.linalg.norm(theta))
        return super()._gauge(space, w)  # the nuclear norm needs a small SDP

    def _encode(self, b, space, u, t):
        feats = self.features(space)
        th = b.add_vars(feats.shape[1])
        for i in range(space.size):
            b.eq(LinExpr.dot(th, feats[i]) - u[i])
        if self.euclidean:
            b.soc([t] + [LinExpr.var(k) for k in th])
            return
        # the nuclear norm of the symmetric T that theta svecs is the least
        # tr P + tr N over P, N >= 0 with theta = svec(P - N)
        side = conic.svec_side(len(th))
        diag = [k for k, (a, c) in enumerate(conic.svec_indices(side)) if a == c]
        pos, neg = b.add_vars(len(th)), b.add_vars(len(th))
        for half in (pos, neg):
            b.psd(side, [LinExpr.var(k) for k in half])
        for k, pk, nk in zip(th, pos, neg):
            b.eq(LinExpr.var(k) - LinExpr.var(pk) + LinExpr.var(nk))
        b.le(LinExpr.sum(LinExpr.var(half[d]) for half in (pos, neg) for d in diag) - t)


@dataclass(frozen=True)
class _Region(GaugeExpr):
    inner: GaugeExpr
    region: Callable

    pinned = False  # do deviations off the region have to vanish?

    def __hash__(self):
        return hash((type(self), self.inner, id(self.region)))

    def _gauge(self, space, u):
        mask, sub = _region_split(space, self.region)
        if self.pinned and np.max(np.abs(u[~mask]), initial=0.0) > _kernel_tol(u):
            return _INF
        return 0.0 if sub is None else self.inner._gauge(sub, u[mask])

    def _encode(self, b, space, u, t):
        mask, sub = _region_split(space, self.region)
        if self.pinned:
            for i in np.flatnonzero(~mask):
                b.eq(u[i])
        if sub is not None:
            self.inner._encode(b, sub, [u[i] for i in np.flatnonzero(mask)], t)


class RegionMask(_Region):
    """Inner set applied on a point region; deviations vanish off the region."""

    pinned = True

    def _polar(self):
        return Cylinder(polar(self.inner), self.region)


class Cylinder(_Region):
    """Inner set applied on a region; components off the region are free."""

    def _polar(self):
        return RegionMask(polar(self.inner), self.region)


@dataclass(frozen=True)
class Scale(GaugeExpr):
    """factor * set; factor zero denotes the recession (kernel) cone."""

    factor: float
    child: GaugeExpr

    def __post_init__(self):
        if self.factor < 0.0:
            raise ParameterError("scale factor must be nonnegative")

    def _polar(self):
        return Scale(1.0 / self.factor, polar(self.child)) if self.factor > 0.0 else None

    def _gauge(self, space, u):
        inner = self.child._gauge(space, u)
        if self.factor > 0.0:
            return inner / self.factor
        return 0.0 if inner <= _kernel_tol(u) else _INF

    def _support(self, space, w):
        if self.factor > 0.0:
            return self.factor * self.child._support(space, w)
        # the recession cone's support: zero on its polar cone, inf off it
        return _INF if _min_over_epigraph(self.child, space, w, 0.0) == -_INF else 0.0

    def _slack(self, space, u, t):
        if self.factor > 0.0:
            return self.child._slack(space, u, t * self.factor)
        return super()._slack(space, u, t)

    def _encode(self, b, space, u, t):
        if self.factor > 0.0:
            self.child._encode(b, space, u, t * self.factor)
            return
        self.child._encode(b, space, u, LinExpr.of(0.0))
        b.le(-t)


@dataclass(frozen=True)
class Intersect(GaugeExpr):
    children: tuple

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise ParameterError("intersection needs at least one child")

    def _polar(self):
        return ConvexUnion(tuple(polar(c) for c in self.children))

    def _gauge(self, space, u):
        return max(c._gauge(space, u) for c in self.children)

    def _encode(self, b, space, u, t):
        for child in self.children:
            child._encode(b, space, u, t)


@dataclass(frozen=True)
class MinkowskiSum(GaugeExpr):
    """Sum of scaled sets; terms are (coefficient >= 0, child) pairs."""

    terms: tuple

    def __init__(self, terms):
        pairs = tuple((float(b), child) for b, child in terms)
        for b, _ in pairs:
            if b < 0.0:
                raise ParameterError("sum coefficients must be nonnegative")
        if not pairs:
            raise ParameterError("sum needs at least one term")
        object.__setattr__(self, "terms", pairs)

    def _support(self, space, w):
        total = 0.0
        for beta, child in self.terms:
            total += Scale(beta, child)._support(space, w)
            if np.isinf(total):
                return _INF
        return total

    def _encode(self, b, space, u, t):
        parts = _sum_rows(b, space, [b.add_vars(space.size) for _ in self.terms], u)
        for (beta, child), part in zip(self.terms, parts):
            child._encode(b, space, part, t * beta)


@dataclass(frozen=True)
class ConvexUnion(GaugeExpr):
    """Closed convex hull of a union of sets."""

    children: tuple

    def __init__(self, children):
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise ParameterError("union needs at least one child")

    def _polar(self):
        return Intersect(tuple(polar(c) for c in self.children))

    def _encode(self, b, space, u, t):
        cols = [(b.add_vars(space.size), b.add_vars(1)[0]) for _ in self.children]
        parts = _sum_rows(b, space, [part for part, _ in cols], u)
        for child, part, (_, level) in zip(self.children, parts, cols):
            child._encode(b, space, part, LinExpr.var(level))
        b.le(LinExpr.sum(LinExpr.var(level) for _, level in cols) - t)


@dataclass(frozen=True)
class Polar(GaugeExpr):
    child: GaugeExpr

    def _polar(self):
        return self.child

    def _gauge(self, space, u):
        return self.child._support(space, u)

    def _encode(self, b, space, u, t):
        inner = self.child
        rewritten = inner._polar()
        if rewritten is not None:
            rewritten._encode(b, space, u, t)
        elif isinstance(inner, MinkowskiSum):
            # polar of a sum: the penalty splits as a weighted sum of polar gauges
            levels = []
            for beta, child in inner.terms:
                lv = b.add_vars(1)[0]
                polar(child)._encode(b, space, u, LinExpr.var(lv))
                levels.append((beta, lv))
            b.le(LinExpr.sum(LinExpr.var(lv, beta) for beta, lv in levels) - t)
        elif isinstance(inner, Scale):  # factor zero: the polar of a recession cone
            rho = b.add_vars(1)[0]
            polar(inner.child)._encode(b, space, u, LinExpr.var(rho))
            b.le(-t)
        else:
            raise EncodingError(f"no conic epigraph for the polar of {type(inner).__name__}")


# ---------------------------------------------------------------------------
# entry points


def polar(expr: GaugeExpr) -> GaugeExpr:
    """Polar set as an expression; exact rewrites where known, Polar(...) else.

    Rewrites: scaling inverts, intersections and convex unions swap, double
    polarity cancels (all sets here are closed, convex, and contain zero).
    Minkowski sums and the kl / transport atoms stay symbolic.
    """
    rewritten = expr._polar()
    return Polar(expr) if rewritten is None else rewritten


def transport_metric(expr: GaugeExpr) -> Optional[Hemimetric]:
    """The ground cost of a transport ball (its polar is a Lipschitz set), else None."""
    dual = polar(expr)
    return dual.metric if isinstance(dual, Lipschitz) else None


def gauge_value(expr: GaugeExpr, space: DiscreteSpace, u) -> float:
    """Gauge of the deviation u: inf{t > 0 : u in t * set}; may be inf or 0."""
    return expr._gauge(space, per_atom(space, u, "deviation"))


def support_value(expr: GaugeExpr, space: DiscreteSpace, w) -> float:
    """Support function sup{<w, u>_P : u in the set}; equals the polar gauge."""
    return expr._support(space, per_atom(space, w, "argument"))


def slack(expr: GaugeExpr, space: DiscreteSpace, u, t: float) -> float:
    """Closure-tolerant slack of u against t * set (t must be positive).

    Convex in u and <= 0 exactly when membership holds: the gauge minus
    t (1 + CLOSURE_REL_TOL) by default, inf where the gauge is.
    """
    if not (t > 0.0):
        raise ParameterError("membership level t must be positive")
    return expr._slack(space, per_atom(space, u, "deviation"), t)


def encode_epigraph(b: ProgramBuilder, expr: GaugeExpr, space: DiscreteSpace, u, t):
    """Append rows constraining gauge(u) <= t; u is a list of affine
    expressions over builder variables, t an affine expression or constant.

    Raises EncodingError for sets with no conic epigraph here (kl divergence
    and transport balls, which have dedicated evaluators).
    """
    u = [LinExpr.of(e) for e in u]
    if len(u) != space.size:
        raise DimensionError(f"deviation has {len(u)} entries for {space.size} points")
    expr._encode(b, space, u, LinExpr.of(t))


def support_value_by_program(expr: GaugeExpr, space: DiscreteSpace, w) -> float:
    """Support function computed as a conic maximization over the encoded set.

    Independent route from support_value (which goes through polarity); used
    to cross-check the two.
    """
    return float(-_min_over_epigraph(expr, space, per_atom(space, w, "argument"), 1.0))
