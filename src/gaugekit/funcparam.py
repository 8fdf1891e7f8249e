"""Restricted dual programs over finite function bases.

Instead of searching all majorants, the dual can be confined to a finite
family w = <coeffs, evaluators> with the coefficient vector kept inside a
cone.  The resulting program

    min  alpha + <coeffs, E[evaluators]> + epsilon * polar-level
    s.t. alpha + w(point_j) >= cost_j       at every support point,
         polar-gauge(w) <= polar-level,  coeffs in the cone,

upper-bounds the unrestricted dual for every basis (shrinking the
feasible set can only raise a minimum), never increases when the basis
grows, and matches the unrestricted value once the span contains every
function on the support (one indicator per atom).

Four basis kinds are provided: indicators of regions, piecewise affine
functions over regions, raw coordinate moments up to order two (the
quadratic coefficient block is constrained positive semidefinite), and
one indicator per listed point.  The polar penalty is computed by
materializing the combination on the support points and reusing the
shared cone encoders, so any conic-encodable polar works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic
from . import gauge as gauges
from .conic import LinExpr, ProgramBuilder, SolveSettings
from .errors import BasisError, DimensionError, ParameterError
from .reformulate import ReweightingProblem
from .space import DiscreteSpace, _as_points, _coincident_pairs


def _checked_predicates(predicates) -> tuple:
    preds = tuple(predicates)
    if not preds:
        raise ParameterError("at least one region predicate is required")
    for pred in preds:
        if not callable(pred):
            raise ParameterError("region predicates must be callable")
    return preds


@dataclass(frozen=True, eq=False)
class Basis:
    """Finite evaluator family plus a cone on its coefficients.

    Use the factories below; the constructor trusts its arguments.
    `nonneg` tightens the coefficient cone of the indicator kinds to the
    nonnegative orthant.
    """

    kind: str
    predicates: tuple = ()
    order: int = 0
    points: np.ndarray | None = None
    nonneg: bool = False

    @staticmethod
    def indicator_regions(predicates, nonneg: bool = False) -> "Basis":
        """One 0/1 evaluator per region predicate."""
        return Basis(kind="indicator-regions",
                     predicates=_checked_predicates(predicates),
                     nonneg=bool(nonneg))

    @staticmethod
    def piecewise_affine(predicates) -> "Basis":
        """Per region: its indicator and the indicator times each coordinate."""
        return Basis(kind="piecewise-affine",
                     predicates=_checked_predicates(predicates))

    @staticmethod
    def moment(order: int) -> "Basis":
        """Raw coordinate moments.

        Order 1 spans the linear functions.  Order 2 adds a constant and
        a quadratic form whose coefficient matrix must be positive
        semidefinite, stored in scaled upper-triangle coordinates.
        """
        if order not in (1, 2):
            raise ParameterError(f"moment order must be 1 or 2, got {order}")
        return Basis(kind="moment", order=int(order))

    @staticmethod
    def singletons(points, nonneg: bool = False) -> "Basis":
        """One indicator per listed point.

        Listing every support atom makes the span all functions on the
        support, which reproduces the unrestricted dual.
        """
        pts = _as_points(points)
        if len(pts) == 0:
            raise ParameterError("singleton basis needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("singleton points must be finite")
        return Basis(kind="singleton-indicators", points=pts, nonneg=bool(nonneg))

    def _region_matrix(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(pts), len(self.predicates)))
        for j, xi in enumerate(pts):
            for i, pred in enumerate(self.predicates):
                if bool(pred(xi)):
                    out[j, i] = 1.0
        hits = out.sum(axis=1)
        over = np.nonzero(hits > 1.5)[0]
        if len(over):
            raise BasisError(f"regions overlap at point index {over[0]}")
        miss = np.nonzero(hits < 0.5)[0]
        if len(miss):
            raise BasisError(f"no region covers point index {miss[0]}")
        return out

    def evaluate(self, points) -> np.ndarray:
        """Evaluator matrix, one row per point and one column per element.

        Region predicates must partition the given points: a point
        claimed by two regions, or by none, is a basis error.
        """
        pts = _as_points(points)
        n, dim = pts.shape
        if self.kind == "indicator-regions":
            phi = self._region_matrix(pts)
        elif self.kind == "piecewise-affine":
            ind = self._region_matrix(pts)
            cols = []
            for r in range(ind.shape[1]):
                cols.append(ind[:, r])
                for a in range(dim):
                    cols.append(ind[:, r] * pts[:, a])
            phi = np.column_stack(cols)
        elif self.kind == "moment":
            lin = [pts[:, a] for a in range(dim)]
            if self.order == 1:
                phi = np.column_stack(lin)
            else:
                quad = conic.svec(pts[:, :, None] * pts[:, None, :])
                phi = np.column_stack([np.ones(n)] + lin + [quad])
        elif self.kind == "singleton-indicators":
            if self.points.shape[1] != dim:
                raise DimensionError(
                    f"basis points have dimension {self.points.shape[1]}, "
                    f"queried points have {dim}")
            phi = np.zeros((n, len(self.points)))
            phi[_coincident_pairs(pts, self.points)] = 1.0
        else:
            raise ParameterError(f"unknown basis kind {self.kind!r}")
        if not np.all(np.isfinite(phi)):
            raise BasisError("basis evaluators must be finite at every point")
        return phi

    def cone_blocks(self, dim: int) -> tuple:
        """Coefficient cone as (kind, size) blocks in evaluator order.

        `size` counts coefficients for free and nonneg blocks and gives
        the matrix side for psd blocks.
        """
        orthant = "nonneg" if self.nonneg else "free"
        if self.kind == "indicator-regions":
            return ((orthant, len(self.predicates)),)
        if self.kind == "piecewise-affine":
            return (("free", len(self.predicates) * (1 + dim)),)
        if self.kind == "moment":
            if self.order == 1:
                return (("free", dim),)
            return (("free", 1), ("free", dim), ("psd", dim))
        return ((orthant, len(self.points)),)


def basis_moments(space: DiscreteSpace, basis: Basis) -> np.ndarray:
    """Expected value of every basis evaluator under the nominal weights."""
    phi = basis.evaluate(space.points)
    return np.asarray(space.weights @ phi, dtype=float)


def build_param_dual(problem: ReweightingProblem, basis: Basis) -> conic.ConicProgram:
    """Dual restricted to majorants alpha + <coeffs, evaluators>.

    Variables: alpha, one coefficient per evaluator, the polar level,
    then encoder auxiliaries.  Raises the shared unsupported-encoding
    error when the polar of the problem gauge has no cone encoder.
    """
    sp, f = problem.space, problem.cost
    n, dim = sp.points.shape
    phi = basis.evaluate(sp.points)
    width = phi.shape[1]
    b = ProgramBuilder()
    alpha = b.add_vars(1, obj=1.0)[0]
    lam = b.add_vars(width, obj=sp.weights @ phi)
    level = b.add_vars(1, obj=problem.epsilon)[0]
    combos = [LinExpr.dot(lam, phi[j]) for j in range(n)]
    for j in range(n):
        b.le(LinExpr.of(f[j]) - LinExpr.var(alpha) - combos[j])
    gauges.encode_epigraph(b, gauges.polar(problem.gauge), sp,
                           combos, LinExpr.var(level))
    offset = 0
    for block, size in basis.cone_blocks(dim):
        if block == "psd":
            count = size * (size + 1) // 2
            b.psd(size, [LinExpr.var(int(lam[offset + i])) for i in range(count)])
            offset += count
        else:
            if block == "nonneg":
                b.nonneg_var(lam[offset:offset + size])
            offset += size
    return b.build()


def param_dual_value(problem: ReweightingProblem, basis: Basis,
                     solver: SolveSettings | None = None) -> float:
    """Solve the restricted dual and return its value."""
    sol = conic.solve(build_param_dual(problem, basis), solver)
    return float(conic.accepted(sol, "restricted dual solve").value)
