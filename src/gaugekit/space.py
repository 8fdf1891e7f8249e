"""Discrete probability spaces and the per-atom vectors that live on them.

A DiscreteSpace is the finite stand-in for a nominal distribution: support
points with strictly positive probabilities summing to one. Costs f,
reweightings nu and deviations u = nu - 1 are plain vectors aligned with the
support, and `per_atom` is the one check every route applies to them: one
finite float per atom. The module constants are the package's numeric
tolerances (WEIGHT_SUM_TOL, POINT_MERGE_TOL, FEASIBILITY_TOL,
CLOSURE_REL_TOL, KERNEL_TOL).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError


# Numeric tolerances:
#   WEIGHT_SUM_TOL   |sum(p) - 1| allowed for a valid space
#   POINT_MERGE_TOL  support points within this distance are one atom
#   FEASIBILITY_TOL  slack allowed on reweighting nonnegativity / unit mass
#   CLOSURE_REL_TOL  relative slack in gauge membership tests
#   KERNEL_TOL       gauge values at or below this count as kernel members
WEIGHT_SUM_TOL = 1e-12
POINT_MERGE_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
CLOSURE_REL_TOL = 1e-8
KERNEL_TOL = 1e-9


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
    """Index pairs (i, j), row-major, with norm(a[i] - b[j]) <= POINT_MERGE_TOL.

    The finite points are projected on one fixed generic unit direction,
    v ∝ (√2, √3, ...), and the projections are sorted. Each a[i] proposes
    the b[j] whose projections lie within twice the tolerance of its own,
    widened by the projections' rounding, and that norm decides. For n
    points in all and k proposed pairs this costs O((n + k) log n). The
    worst case is many points within 2·tol of one another along v, where k
    grows to n².
    """
    tol = POINT_MERGE_TOL
    ra, rb = (np.flatnonzero(np.isfinite(x).all(axis=1)) for x in (a, b))
    dim = a.shape[1]
    v = np.sqrt(np.arange(2.0, dim + 2.0))
    v /= np.linalg.norm(v)
    pa, pb = (a @ v)[ra], (b @ v)[rb]
    # |v·(a[i] - b[j])| <= norm(a[i] - b[j]), and each computed projection
    # is off by at most about dim·eps·Σ|v_k x_k|
    reach = 2.0 * tol + 4.0 * (dim + 1) * np.finfo(float).eps * ((np.abs(a) @ v)[ra] + tol)
    cols = np.argsort(pb)
    sorted_pb = pb[cols]
    # sorted keys let each binary search start where the last one ended
    rows = np.argsort(pa)
    lo, hi = np.empty_like(rows), np.empty_like(rows)
    lo[rows] = np.searchsorted(sorted_pb, (pa - reach)[rows], side="left")
    hi[rows] = np.searchsorted(sorted_pb, (pa + reach)[rows], side="right")
    count = hi - lo
    # candidate t of row i sits at lo[i] + (t - first candidate of row i)
    at = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)
    ii, jj = ra[np.repeat(np.arange(len(ra)), count)], rb[cols[at]]
    keep = np.linalg.norm(a[ii] - b[jj], axis=1) <= tol
    ii, jj = ii[keep], jj[keep]
    row_major = np.lexsort((jj, ii))
    return ii[row_major], jj[row_major]


def _merge_duplicates(points: np.ndarray, weights: np.ndarray):
    """Each point joins the first kept atom it coincides with, or is kept;
    weights are summed in input order. Only first exact copies go through the
    pair search, as a point repeated m times would add m² pairs; each other
    copy has its first copy's distances, so it takes that copy's atom. One
    stable lexsort groups the exact copies."""
    n = len(points)
    order = np.lexsort(points.T)
    sorted_pts = points[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (sorted_pts[1:] != sorted_pts[:-1]).any(axis=1)
    first_copy = np.empty(n, dtype=int)
    first_copy[order] = order[starts][np.cumsum(starts) - 1]
    firsts = np.flatnonzero(first_copy == np.arange(n))
    ii, jj = _coincident_pairs(points[firsts], points[firsts])
    apart = ii != jj
    owner = np.arange(n)
    for i, j in zip(firsts[ii[apart]].tolist(), firsts[jj[apart]].tolist()):
        if j < owner[i] and owner[j] == j:
            owner[i] = j
    owner = owner[first_copy]
    kept = owner == np.arange(n)
    merged_w = np.zeros(int(kept.sum()))
    np.add.at(merged_w, (np.cumsum(kept) - 1)[owner], weights)
    return points[kept], merged_w


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite probability space: support points and nominal weights.

    Points within POINT_MERGE_TOL of each other are one atom: at
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
class Reweighting:
    """Per-atom weights ν_i (or a deviation u = ν − 1; same container)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", v)

    def is_feasible(self, space: DiscreteSpace) -> bool:
        """True iff this is a valid reweighting of `space`: ν ≥ 0 and unit mass
        (both within FEASIBILITY_TOL)."""
        v = per_atom(space, self, "reweighting")
        if np.min(v) < -FEASIBILITY_TOL:
            return False
        return abs(float(space.weights @ v) - 1.0) <= FEASIBILITY_TOL


def per_atom(space: DiscreteSpace, values, what: str = "cost") -> np.ndarray:
    """values, or a Reweighting's values, raveled to one finite float per
    atom of space; what names the vector in the errors."""
    if isinstance(values, Reweighting):
        values = values.values
    v = np.asarray(values, dtype=float).ravel()
    if len(v) != space.size:
        raise DimensionError(f"{what} has {len(v)} entries for {space.size} points")
    if not np.isfinite(v).all():
        raise ParameterError(f"{what} must be finite")
    return v


def expectation(space: DiscreteSpace, cost) -> float:
    """E_P[f] = Σ p_i f_i."""
    return float(space.weights @ per_atom(space, cost))


def weighted_inner(space: DiscreteSpace, u, v) -> float:
    """The P-weighted inner product ⟨u, v⟩ = Σ p_i u_i v_i."""
    return float(np.sum(space.weights * per_atom(space, u, "u") * per_atom(space, v, "v")))


def validate(space: DiscreteSpace) -> list[str]:
    """Report every invariant breach (empty list means the space is valid)."""
    issues: list[str] = []
    for i, p in enumerate(space.weights):
        if p <= 0.0:
            issues.append(f"p_{i + 1} = {p:g} (weights must be strictly positive)")
    total = float(np.sum(space.weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
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
    if n == 0:
        raise DimensionError("a space needs at least one support point")
    return DiscreteSpace(pts, np.full(n, 1.0 / n))


def sample_uniform_box(low, high, count: int, seed: int) -> DiscreteSpace:
    """Draw `count` i.i.d. uniform points from the box [low, high].

    The seed is an explicit 64-bit integer; the same seed reproduces the same
    space bit for bit. Draws within POINT_MERGE_TOL of each other (probability
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
