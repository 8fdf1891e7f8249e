"""Robust facility placement on a two-dimensional box.

A service point x is placed inside a box to keep the Manhattan distance
to a random incident small.  The incident distribution is only known
through samples, so the expectation is guarded three ways at once: a
chi-square reweighting budget (scale `delta`), a per-district transport
budget (one radius per box-shaped district), and extra weight on the
upper tail (CVaR level `beta`).  The distance enters through its four
supporting directions, so every program below is conic.

Two reformulations are provided.  `build_case_envelope_lp` replaces the
dual majorant by its lower envelope over each district and dualizes the
inner box minimizations, giving a linear program with one second-order
cone row for the chi-square term.  `build_case_funcparam_sdp` restricts
the majorant to one quadratic per district with a positive semidefinite
quadratic block, dualizes the box constraints through Schur complements,
and bounds each district slope through the worst-case gradient bound,
giving a small semidefinite program.  The envelope route is exact for
the sampled nominal; the quadratic route can only be more conservative,
never less.

Both builders place the decision `x` in the first two columns, so the
optimal location can be read directly off a solution vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic
from .conic import LinExpr, ProgramBuilder, SolveSettings
from .errors import DimensionError, InstanceError, ParameterError
from .funcparam import Basis
from .oracle import cvar_sorted
from .space import sample_uniform_box, uniform_space

# supporting directions of the Manhattan distance on the plane
_DIRECTIONS = (
    np.array([1.0, 1.0]),
    np.array([1.0, -1.0]),
    np.array([-1.0, 1.0]),
    np.array([-1.0, -1.0]),
)

_RIDGE = 1e-9
_MOMENTS = Basis.moment(2)  # rows (1, z, svec(z z')) per point z


def _as_bound(value, label: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float).ravel()
    if arr.shape != (2,):
        raise DimensionError(f"{label} must have two coordinates")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{label} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class CaseInstance:
    """One placement problem: box, districts, samples, and budgets.

    Districts are axis-aligned boxes inside the city box; they may share
    boundaries, and a sample on a shared boundary belongs to the first
    district that contains it.  Every sample must land in some district.
    """

    lower: np.ndarray
    upper: np.ndarray
    region_lower: np.ndarray
    region_upper: np.ndarray
    samples: np.ndarray
    delta: float
    radii: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_bound(self.lower, "box lower bound"))
        object.__setattr__(self, "upper", _as_bound(self.upper, "box upper bound"))
        if np.any(self.upper <= self.lower):
            raise ParameterError("box must have positive volume")
        rl = np.asarray(self.region_lower, dtype=float)
        ru = np.asarray(self.region_upper, dtype=float)
        if rl.ndim != 2 or rl.shape[1] != 2 or rl.shape != ru.shape or len(rl) == 0:
            raise DimensionError("district bounds must be two matching (count, 2) arrays")
        if not (np.all(np.isfinite(rl)) and np.all(np.isfinite(ru))):
            raise ParameterError("district bounds must be finite")
        if np.any(ru < rl):
            raise ParameterError("district boxes must be nonempty")
        if np.any(rl < self.lower - 1e-12) or np.any(ru > self.upper + 1e-12):
            raise InstanceError("districts must sit inside the city box")
        object.__setattr__(self, "region_lower", rl)
        object.__setattr__(self, "region_upper", ru)
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise DimensionError("samples must be a nonempty (count, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("samples must be finite")
        object.__setattr__(self, "samples", pts)
        if not np.isfinite(self.delta) or self.delta < 0.0:
            raise ParameterError("the reweighting scale must be nonnegative")
        object.__setattr__(self, "delta", float(self.delta))
        radii = np.asarray(self.radii, dtype=float).ravel()
        if len(radii) != len(rl):
            raise DimensionError(f"{len(radii)} radii for {len(rl)} districts")
        if not np.all(np.isfinite(radii)) or np.any(radii < 0.0):
            raise ParameterError("district radii must be nonnegative")
        object.__setattr__(self, "radii", radii)
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"tail level must lie in (0, 1), got {self.beta}")
        object.__setattr__(self, "beta", float(self.beta))
        self.region_index(pts)

    def region_index(self, points) -> np.ndarray:
        """First district containing each point; a miss is an instance error."""
        pts = np.asarray(points, dtype=float)
        inside = np.all((pts[:, None, :] >= self.region_lower[None, :, :])
                        & (pts[:, None, :] <= self.region_upper[None, :, :]), axis=2)
        if not np.all(inside.any(axis=1)):
            j = int(np.nonzero(~inside.any(axis=1))[0][0])
            raise InstanceError(f"sample {j} lies outside every district")
        return np.argmax(inside, axis=1)

    def members(self) -> list:
        """Sample index lists, one per district."""
        where = self.region_index(self.samples)
        return [np.nonzero(where == k)[0] for k in range(len(self.region_lower))]


def default_instance(seed: int = 0) -> CaseInstance:
    """Unit box split at first coordinate 0.5, eight uniform samples."""
    samples = sample_uniform_box((0.0, 0.0), (1.0, 1.0), 8, seed).points
    return CaseInstance(
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        region_lower=np.array([[0.0, 0.0], [0.5, 0.0]]),
        region_upper=np.array([[0.5, 1.0], [1.0, 1.0]]),
        samples=samples,
        delta=0.1,
        radii=np.array([0.05, 0.2]),
        beta=0.8,
    )


def _slopes(b: ProgramBuilder, instance: CaseInstance) -> dict:
    """One nonnegative slope column per district with a positive radius,
    priced at that radius; maps the district index to its column."""
    priced = np.flatnonzero(instance.radii > 0.0)
    cols = b.add_vars(len(priced), obj=instance.radii[priced])
    b.nonneg_var(cols)
    return dict(zip(priced.tolist(), cols))


def _nonneg_pair(b: ProgramBuilder):
    """Two nonnegative 2-vectors of columns, such as the multipliers of a
    district box's upper and lower sides."""
    cols = b.add_vars(4)
    b.nonneg_var(cols)
    return cols[:2], cols[2:]


def _placement_rows(b: ProgramBuilder, instance: CaseInstance, x, a2, eta) -> None:
    """The rows both programs share: x inside the city box, and each tail
    excess eta_j above the distance from x to sample j less the threshold."""
    for i in range(2):
        b.le(LinExpr.var(int(x[i])) - instance.upper[i])
        b.le(LinExpr.of(instance.lower[i]) - LinExpr.var(int(x[i])))
    for j, xi in enumerate(instance.samples):
        for d in _DIRECTIONS:
            b.le(LinExpr.dot(x, d) - float(d @ xi)
                 - LinExpr.var(a2) - LinExpr.var(int(eta[j])))


def build_case_envelope_lp(instance: CaseInstance) -> conic.ConicProgram:
    """Envelope reformulation: linear rows plus one second-order cone.

    Variables in order: x (2), base level, tail threshold, one slope per
    district with a positive radius, sample levels, tail excesses, the
    root-mean-square bound when the reweighting scale is positive, then
    box duals.  Domination of the distance and of zero over each
    district is dualized through the district boxes; slope rows pin each
    district slope above the sup-norm of the corresponding multipliers.

    A district with radius zero pays nothing for slope, which makes its
    envelope arbitrarily steep; its domination rows collapse to the
    sample points and need no box duals.
    """
    m = len(instance.samples)
    nregions = len(instance.region_lower)
    members = instance.members()
    ratio = instance.beta / (1.0 - instance.beta)
    b = ProgramBuilder()
    x = b.add_vars(2)
    a1 = b.add_vars(1, obj=1.0)[0]
    a2 = b.add_vars(1, obj=1.0)[0]
    gamma = _slopes(b, instance)
    s = b.add_vars(m, obj=1.0 / m)
    eta = b.add_vars(m, obj=ratio / m)
    b.nonneg_var(eta)
    if instance.delta > 0.0:
        rms = b.add_vars(1, obj=instance.delta / np.sqrt(m))[0]
        b.soc([LinExpr.var(rms)] + [LinExpr.var(int(col)) for col in s])
    _placement_rows(b, instance, x, a2, eta)
    for k in range(nregions):
        lo, hi = instance.region_lower[k], instance.region_upper[k]
        for j in members[k]:
            xi = instance.samples[j]
            if k not in gamma:
                for d in _DIRECTIONS:
                    b.le(LinExpr.dot(x, d) - float(d @ xi) - LinExpr.var(a1)
                         - LinExpr.var(a2) - LinExpr.var(int(s[j])))
                b.le(LinExpr.var(a1, -1.0) - LinExpr.var(int(s[j])))
                continue
            for d in _DIRECTIONS:
                dual_hi, dual_lo = _nonneg_pair(b)
                b.le(LinExpr.dot(x, d) - float(d @ xi)
                     - LinExpr.var(a1) - LinExpr.var(a2) - LinExpr.var(int(s[j]))
                     - LinExpr.dot(dual_hi, xi - hi) - LinExpr.dot(dual_lo, lo - xi))
                for i in range(2):
                    gap = LinExpr.var(int(dual_hi[i])) - LinExpr.var(int(dual_lo[i]))
                    for sign in (1.0, -1.0):
                        b.le(gap * sign + sign * d[i] - LinExpr.var(gamma[k]))
            dual_hi, dual_lo = _nonneg_pair(b)
            b.le(LinExpr.var(a1, -1.0) - LinExpr.var(int(s[j]))
                 - LinExpr.dot(dual_hi, xi - hi) - LinExpr.dot(dual_lo, lo - xi))
            for i in range(2):
                gap = LinExpr.var(int(dual_hi[i])) - LinExpr.var(int(dual_lo[i]))
                for sign in (1.0, -1.0):
                    b.le(gap * sign - LinExpr.var(gamma[k]))
    return b.build()


def _region_second_moments(instance: CaseInstance) -> list:
    """Sample average of (1, z, svec(z z')) (1, z, svec(z z'))' per district;
    a district without samples gets the zero matrix."""
    out = []
    for idx in instance.members():
        if len(idx):
            rows = _MOMENTS.matrix(instance.samples[idx])
            out.append(rows.T @ rows / len(idx))
        else:
            out.append(np.zeros((6, 6)))
    return out


def _matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat + _RIDGE * np.eye(len(mat)))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def build_case_funcparam_sdp(instance: CaseInstance) -> conic.ConicProgram:
    """Quadratic-majorant reformulation: a small semidefinite program.

    One quadratic (constant, gradient, matrix) is fitted per district;
    its matrix block is kept positive semidefinite, domination over each
    district box is dualized through a Schur complement, and the slope
    budget bounds the worst-case gradient sup-norm row by row.  The
    reweighting norm uses each district's sample second moments,
    ridge-stabilized.

    Variables in order: x (2), base level, tail threshold, six quadratic
    coefficients per district, one slope per district with a positive
    radius, tail excesses, the moment-norm bound when the reweighting
    scale is positive, then the box duals.  Districts with radius zero
    pay nothing for slope, so their gradient rows are vacuous and are
    omitted; the quadratic must still dominate over the district box.

    When nothing prices a district's curvature (its radius and the
    reweighting scale both zero) the best quadratic can chase the
    distance cone without ever attaining it, so the infimum may not be
    attained and the interior-point solver can end inaccurate near the
    limiting value instead of reporting optimal.
    """
    m = len(instance.samples)
    nregions = len(instance.region_lower)
    members = instance.members()
    ratio = instance.beta / (1.0 - instance.beta)
    second = _region_second_moments(instance)
    root2 = np.sqrt(2.0)
    b = ProgramBuilder()
    x = b.add_vars(2)
    a1 = b.add_vars(1, obj=1.0)[0]
    a2 = b.add_vars(1, obj=1.0)[0]
    means = [_MOMENTS.matrix(instance.samples[idx]).sum(axis=0) / m for idx in members]
    quads = b.add_vars(6 * nregions, obj=np.concatenate(means)).reshape(nregions, 6)
    gamma = _slopes(b, instance)
    eta = b.add_vars(m, obj=ratio / m)
    b.nonneg_var(eta)
    for q in quads:
        b.psd(2, [LinExpr.var(int(q[3])), LinExpr.var(int(q[4])),
                  LinExpr.var(int(q[5]))])
    if instance.delta > 0.0:
        norm = b.add_vars(1, obj=instance.delta)[0]
        rows = []
        for k in range(nregions):
            share = len(members[k]) / m
            half = np.sqrt(share) * _matrix_sqrt(second[k])
            for r in range(6):
                rows.append(LinExpr.dot(quads[k], half[r]))
        b.soc([LinExpr.var(norm)] + rows)
    _placement_rows(b, instance, x, a2, eta)
    for k in range(nregions):
        lo, hi = instance.region_lower[k], instance.region_upper[k]
        q = quads[k]
        # quadratic matrix entries in plain coordinates
        q_rows = [(LinExpr.var(int(q[3])), LinExpr.var(int(q[4]), 1.0 / root2)),
                  (LinExpr.var(int(q[4]), 1.0 / root2), LinExpr.var(int(q[5])))]
        for d in list(_DIRECTIONS) + [None]:
            shift_hi, shift_lo = _nonneg_pair(b)
            corner = b.add_vars(1)[0]
            row = (LinExpr.var(a1, -1.0) - LinExpr.var(int(q[0]))
                   - LinExpr.dot(shift_lo, lo) + LinExpr.dot(shift_hi, hi)
                   + LinExpr.var(corner, 0.25))
            if d is not None:
                row = row + LinExpr.dot(x, d) - LinExpr.var(a2)
            b.le(row)
            off = []
            for i in range(2):
                entry = (LinExpr.var(int(q[1 + i]))
                         + LinExpr.var(int(shift_hi[i]))
                         - LinExpr.var(int(shift_lo[i])))
                if d is not None:
                    entry = entry + d[i]
                off.append(entry)
            b.psd(3, [LinExpr.var(int(q[3])), LinExpr.var(int(q[4])),
                      off[0] * root2, LinExpr.var(int(q[5])),
                      off[1] * root2, LinExpr.var(corner)])
        if k not in gamma:
            continue
        for i in range(2):
            for sign in (1.0, -1.0):
                grad_hi, grad_lo = _nonneg_pair(b)
                b.le(LinExpr.var(int(q[1 + i]), sign)
                     + LinExpr.dot(grad_hi, 2.0 * hi) - LinExpr.dot(grad_lo, 2.0 * lo)
                     - LinExpr.var(gamma[k]))
                for c in range(2):
                    b.eq(q_rows[i][c] * sign
                         - LinExpr.var(int(grad_hi[c]))
                         + LinExpr.var(int(grad_lo[c])))
    return b.build()


def envelope_columns(instance: CaseInstance) -> dict:
    """Column offsets of the named variable blocks in the envelope program.

    Keys: "x" and "levels"/"excess" map to half-open column ranges,
    "base"/"threshold" to single columns, "slopes" to a dict from
    district index to column (districts with radius zero have none), and
    "rms" to the norm bound column when the reweighting scale is
    positive.
    """
    m = len(instance.samples)
    priced = [k for k in range(len(instance.region_lower)) if instance.radii[k] > 0.0]
    out = {"x": (0, 2), "base": 2, "threshold": 3}
    offset = 4
    out["slopes"] = {k: offset + i for i, k in enumerate(priced)}
    offset += len(priced)
    out["levels"] = (offset, offset + m)
    offset += m
    out["excess"] = (offset, offset + m)
    offset += m
    if instance.delta > 0.0:
        out["rms"] = offset
    return out


@dataclass(frozen=True)
class CaseResult:
    """One solved reformulation: value, location, and solver quality."""

    method: str
    value: float
    x: np.ndarray
    status: str
    residual: float


def solve_case(instance: CaseInstance,
               solver: SolveSettings | None = None) -> tuple:
    """Solve both reformulations and report (envelope, quadratic).

    The default tolerance is tighter than the solver's, so the reported
    residuals on desk-scale instances stay below 1e-7.
    """
    solver = solver or SolveSettings(tol=1e-9)
    out = []
    for method, program in (("envelope-lp", build_case_envelope_lp(instance)),
                            ("funcparam-sdp", build_case_funcparam_sdp(instance))):
        sol = conic.solve(program, solver)
        out.append(CaseResult(
            method=method,
            value=float(sol.value),
            x=sol.x[:2].copy(),
            status=sol.status,
            residual=float(np.max(sol.residuals)),
        ))
    return tuple(out)


def grid_cvar_value(instance: CaseInstance, resolution: int = 41) -> tuple:
    """Brute-force reference for the no-budget case.

    Sweeps the placement over a grid and takes the empirical tail
    average of the Manhattan distance at each spot; with all budgets at
    zero both reformulations must match the best grid value.  Returns
    (value, grid point).
    """
    if resolution < 2:
        raise ParameterError("grid resolution must be at least 2")
    space = uniform_space(instance.samples)
    axes = [np.linspace(instance.lower[i], instance.upper[i], resolution)
            for i in range(2)]
    best, best_spot = float("inf"), None
    for gx in axes[0]:
        for gy in axes[1]:
            spot = np.array([gx, gy])
            dist = np.abs(space.points - spot).sum(axis=1)
            val = cvar_sorted(space, dist, instance.beta)
            if val < best:
                best, best_spot = val, spot
    return best, best_spot
