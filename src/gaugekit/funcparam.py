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
one indicator per listed point.  The program is written by the one
majorant builder every dual shares, `reformulate.majorant_rows`, with the
combination materialized on the support points as each atom's majorant,
so any conic-encodable polar works unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import conic
from .conic import LinExpr, ProgramBuilder, SolveSettings
from .errors import BasisError, DimensionError, ParameterError
from .reformulate import ReweightingProblem, majorant_rows
from .space import DiscreteSpace, _as_points, _coincident_pairs


def _checked_predicates(predicates) -> tuple:
    preds = tuple(predicates)
    if not preds:
        raise ParameterError("at least one region predicate is required")
    for pred in preds:
        if not callable(pred):
            raise ParameterError("region predicates must be callable")
    return preds


def _region_matrix(predicates: tuple, pts: np.ndarray) -> np.ndarray:
    out = np.zeros((len(pts), len(predicates)))
    for j, xi in enumerate(pts):
        for i, pred in enumerate(predicates):
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


@dataclass(frozen=True, eq=False)
class Basis:
    """Finite evaluator family plus a cone on its coefficients.

    Use the factories below; the constructor trusts its arguments.
    `matrix` maps an (n, dim) point array to a new evaluator matrix.
    `cone_blocks(dim)` gives the coefficient cone as (kind, size) blocks
    in evaluator order: `size` counts coefficients for free and nonneg
    blocks and gives the matrix side for psd blocks.  `nonneg` tightens
    the cone of the indicator kinds to the nonnegative orthant.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    cone_blocks: Callable[[int], tuple]

    @staticmethod
    def indicator_regions(predicates, nonneg: bool = False) -> "Basis":
        """One 0/1 evaluator per region predicate."""
        preds = _checked_predicates(predicates)
        blocks = (("nonneg" if nonneg else "free", len(preds)),)
        return Basis(lambda pts: _region_matrix(preds, pts), lambda dim: blocks)

    @staticmethod
    def piecewise_affine(predicates) -> "Basis":
        """Per region: its indicator and the indicator times each coordinate."""
        preds = _checked_predicates(predicates)

        def matrix(pts):
            affine = np.column_stack([np.ones(len(pts)), pts])
            cols = _region_matrix(preds, pts)[:, :, None] * affine[:, None, :]
            return cols.reshape(len(pts), len(preds) * affine.shape[1])

        return Basis(matrix, lambda dim: (("free", len(preds) * (1 + dim)),))

    @staticmethod
    def moment(order: int) -> "Basis":
        """Raw coordinate moments.

        Order 1 spans the linear functions.  Order 2 adds a constant and
        a quadratic form whose coefficient matrix must be positive
        semidefinite, stored in scaled upper-triangle coordinates.
        """
        if order not in (1, 2):
            raise ParameterError(f"moment order must be 1 or 2, got {order}")
        if order == 1:
            return Basis(lambda pts: pts.copy(), lambda dim: (("free", dim),))
        return Basis(
            lambda pts: np.column_stack([np.ones(len(pts)), pts,
                                         conic.svec(pts[:, :, None] * pts[:, None, :])]),
            lambda dim: (("free", 1), ("free", dim), ("psd", dim)))

    @staticmethod
    def singletons(points, nonneg: bool = False) -> "Basis":
        """One indicator per listed point.

        Listing every support atom makes the span all functions on the
        support, which reproduces the unrestricted dual.
        """
        listed = _as_points(points)
        if len(listed) == 0:
            raise ParameterError("singleton basis needs at least one point")
        if not np.all(np.isfinite(listed)):
            raise ParameterError("singleton points must be finite")
        blocks = (("nonneg" if nonneg else "free", len(listed)),)

        def matrix(pts):
            if listed.shape[1] != pts.shape[1]:
                raise DimensionError(
                    f"basis points have dimension {listed.shape[1]}, "
                    f"queried points have {pts.shape[1]}")
            out = np.zeros((len(pts), len(listed)))
            out[_coincident_pairs(pts, listed)] = 1.0
            return out

        return Basis(matrix, lambda dim: blocks)

    def evaluate(self, points) -> np.ndarray:
        """Evaluator matrix, one row per point and one column per element.

        Region predicates must partition the given points: a point
        claimed by two regions, or by none, is a basis error.
        """
        phi = self.matrix(_as_points(points))
        if not np.all(np.isfinite(phi)):
            raise BasisError("basis evaluators must be finite at every point")
        return phi


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
    sp = problem.space
    phi = basis.evaluate(sp.points)
    b = ProgramBuilder()
    alpha = b.add_vars(1, obj=1.0)[0]
    lam = b.add_vars(phi.shape[1], obj=sp.weights @ phi)
    level = b.add_vars(1, obj=problem.epsilon)[0]
    majorant_rows(b, sp, problem.gauge, problem.cost, alpha,
                  [LinExpr.dot(lam, row) for row in phi], level)
    offset = 0
    for block, size in basis.cone_blocks(sp.points.shape[1]):
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
