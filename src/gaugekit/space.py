"""Discrete probability spaces and the weighted inner product.

A DiscreteSpace is the finite stand-in for a nominal distribution: support
points with strictly positive probabilities summing to one. Costs and
reweightings are plain vectors aligned with the support. Everything downstream
(gauge evaluation, reformulations, oracles) works through the two primitives
here: expectation and the probability-weighted inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class Settings:
    """Global numeric tolerances.

    weight_sum_tol     : |sum(p) - 1| allowed for a valid space
    point_merge_tol    : support points within this distance are one atom
    feasibility_tol    : slack allowed on reweighting nonnegativity / unit mass
    closure_rel_tol    : relative slack in gauge membership tests
    kernel_tol         : gauge values at or below this count as kernel members
    """

    weight_sum_tol: float = 1e-12
    point_merge_tol: float = 1e-12
    feasibility_tol: float = 1e-9
    closure_rel_tol: float = 1e-8
    kernel_tol: float = 1e-9


settings = Settings()


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"points must be a list of vectors, got ndim={arr.ndim}")
    if arr.shape[1] == 0:
        raise DimensionError("points need at least one coordinate")
    return arr


def _coincident_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), row-major, with norm(a[i] - b[j]) <= point_merge_tol.

    A KD-tree over the finite points proposes the pairs within twice the
    tolerance, exact duplicates included, and that norm decides.
    """
    tol = settings.point_merge_tol
    ra, rb = (np.flatnonzero(np.isfinite(x).all(axis=1)) for x in (a, b))
    near = cKDTree(a[ra]).sparse_distance_matrix(cKDTree(b[rb]), 2.0 * tol, output_type="ndarray")
    near.sort(order=("i", "j"))
    ii, jj = ra[near["i"]], rb[near["j"]]
    keep = np.array([np.linalg.norm(a[i] - b[j]) <= tol for i, j in zip(ii, jj)], dtype=bool)
    return ii[keep], jj[keep]


def _merge_duplicates(points: np.ndarray, weights: np.ndarray):
    """Each point joins the first kept atom it coincides with, or is kept;
    weights are summed in input order. Only first exact copies go through the
    pair search, as a point repeated m times would add m² pairs; each other
    copy has its first copy's distances, so it takes that copy's atom."""
    _, first, copy = np.unique(points, axis=0, return_index=True, return_inverse=True)
    firsts = np.sort(first)
    owner = np.arange(len(points))
    ii, jj = _coincident_pairs(points[firsts], points[firsts])
    for i, j in zip(firsts[ii], firsts[jj]):
        if j < owner[i] and owner[j] == j:
            owner[i] = j
    owner = owner[first[copy.ravel()]]
    kept = owner == np.arange(len(points))
    merged_w = np.zeros(int(kept.sum()))
    np.add.at(merged_w, (np.cumsum(kept) - 1)[owner], weights)
    return points[kept], merged_w


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite probability space: support points and nominal weights.

    Points within point_merge_tol of each other are one atom: at
    construction each point joins the first earlier kept atom within the
    tolerance, pooling its weight there. Weight invariants (positivity, unit
    sum) are NOT enforced here; `validate` reports them so callers can treat
    violations as data.
    """

    points: np.ndarray
    weights: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        pts = _as_points(self.points)
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(pts) != len(w):
            raise DimensionError(
                f"{len(pts)} points but {len(w)} weights"
            )
        if len(pts) == 0:
            raise DimensionError("a space needs at least one support point")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("support points must be finite")
        pts, w = _merge_duplicates(pts, w)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "dim", pts.shape[1])

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CostVector:
    """Per-atom cost values f_i. Must be finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ParameterError("cost values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Reweighting:
    """Per-atom weights ν_i (or a deviation u = ν − 1; same container)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", v)

    def is_feasible(self, space: DiscreteSpace) -> bool:
        """True iff this is a valid reweighting of `space`: ν ≥ 0 and unit mass
        (both within feasibility_tol)."""
        v = self.values
        if len(v) != space.size:
            raise DimensionError(f"{len(v)} values for a {space.size}-atom space")
        tol = settings.feasibility_tol
        if np.min(v) < -tol:
            return False
        return abs(float(space.weights @ v) - 1.0) <= tol


def expectation(space: DiscreteSpace, cost) -> float:
    """E_P[f] = Σ p_i f_i."""
    f = cost.values if isinstance(cost, (CostVector, Reweighting)) else np.asarray(cost, dtype=float)
    if len(f) != space.size:
        raise DimensionError(f"cost of length {len(f)} on a {space.size}-atom space")
    return float(space.weights @ f)


def weighted_inner(space: DiscreteSpace, u, v) -> float:
    """The P-weighted inner product ⟨u, v⟩ = Σ p_i u_i v_i."""
    ua = u.values if isinstance(u, (CostVector, Reweighting)) else np.asarray(u, dtype=float)
    va = v.values if isinstance(v, (CostVector, Reweighting)) else np.asarray(v, dtype=float)
    if len(ua) != space.size or len(va) != space.size:
        raise DimensionError(
            f"inner product on a {space.size}-atom space got lengths {len(ua)}, {len(va)}"
        )
    return float(np.sum(space.weights * ua * va))


def validate(space: DiscreteSpace) -> list[str]:
    """Report every invariant breach (empty list means the space is valid)."""
    issues: list[str] = []
    for i, p in enumerate(space.weights):
        if p <= 0.0:
            issues.append(f"p_{i + 1} = {p:g} (weights must be strictly positive)")
    total = float(np.sum(space.weights))
    if abs(total - 1.0) > settings.weight_sum_tol:
        issues.append(f"Σp = {total:.12g} (must be 1)")
    # distinctness is enforced by construction; re-check defensively
    for i, j in zip(*_coincident_pairs(space.points, space.points)):
        if i < j:
            issues.append(f"points {i + 1} and {j + 1} coincide")
    return issues


def uniform_space(points) -> DiscreteSpace:
    """Uniform weights over the given support points."""
    pts = _as_points(points)
    n = len(pts)
    return DiscreteSpace(pts, np.full(n, 1.0 / n))


def sample_uniform_box(low, high, count: int, seed: int) -> DiscreteSpace:
    """Draw `count` i.i.d. uniform points from the box [low, high].

    The seed is an explicit 64-bit integer; the same seed reproduces the same
    space bit for bit. Draws within point_merge_tol of each other (probability
    zero for a continuous nominal) become one atom.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    lo = np.atleast_1d(np.asarray(low, dtype=float))
    hi = np.atleast_1d(np.asarray(high, dtype=float))
    if lo.shape != hi.shape:
        raise DimensionError("low/high bounds must have the same shape")
    if np.any(hi <= lo):
        raise ParameterError("box must have positive volume")
    rng = np.random.default_rng(np.uint64(seed))
    pts = rng.uniform(lo, hi, size=(count, len(lo)))
    return DiscreteSpace(pts, np.full(count, 1.0 / count))
