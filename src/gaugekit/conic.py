"""Solver-agnostic conic programs and an embedded first-order solver.

Programs are stored in the standard form

    minimize    c'x
    subject to  A x + s = b,   s in K,

where K is a product of zero, nonnegative, second-order, and PSD cones (in
row order). The solver runs a homogeneous self-dual embedding with
over-relaxed alternating projections (O'Donoghue, Chu, Parikh & Boyd, 2016).
Everything an iteration needs is set up once per solve: the single linear
system is solved through a cached dense inverse of its normal equations, and
the cone projection follows a plan that groups the rows by cone kind, so zero
and nonnegative rows are projected in one array operation each and all PSD
blocks of one side through one batched eigendecomposition. PSD blocks are
vectorized with sqrt(2)-scaled off-diagonals so every cone is self-dual under
the Euclidean inner product.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, ParameterError

ZERO = "zero"
NONNEG = "nonneg"
SOC = "soc"
PSD = "psd"

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Cone:
    """One cone block. For psd, dim is the matrix side (rows = side(side+1)/2)."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (ZERO, NONNEG, SOC, PSD):
            raise ParameterError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ParameterError(f"cone dimension must be positive, got {self.dim}")

    @property
    def rows(self) -> int:
        if self.kind == PSD:
            return self.dim * (self.dim + 1) // 2
        return self.dim


@dataclass(frozen=True)
class ConicProgram:
    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    b: np.ndarray
    cones: tuple
    names: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        b = np.asarray(self.b, dtype=float).ravel()
        rows = np.asarray(self.a_rows, dtype=int).ravel()
        cols = np.asarray(self.a_cols, dtype=int).ravel()
        vals = np.asarray(self.a_vals, dtype=float).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise DimensionError("triplet arrays must have equal length")
        m = sum(cone.rows for cone in self.cones)
        if m != len(b):
            raise DimensionError(f"cones cover {m} rows but b has {len(b)}")
        if len(rows) and (rows.min() < 0 or rows.max() >= len(b)):
            raise DimensionError("triplet row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= len(c)):
            raise DimensionError("triplet col index out of range")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b)) and np.all(np.isfinite(vals))):
            raise ParameterError("program data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_rows", rows)
        object.__setattr__(self, "a_cols", cols)
        object.__setattr__(self, "a_vals", vals)
        object.__setattr__(self, "cones", tuple(self.cones))

    @property
    def num_vars(self) -> int:
        return len(self.c)

    @property
    def num_rows(self) -> int:
        return len(self.b)

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.num_rows, self.num_vars))
        np.add.at(a, (self.a_rows, self.a_cols), self.a_vals)
        return a


# fixed solver constants: the over-relaxation factor, the ray-certificate
# tolerance, and the iteration stride between convergence checks
_OVER_RELAX = 1.5
_INFEAS_TOL = 1e-7
_CHECK_EVERY = 25


@dataclass(frozen=True)
class SolveSettings:
    tol: float = 1e-8
    max_iter: int = 100_000


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    value: float
    residuals: tuple


# ---------------------------------------------------------------------------
# svec / cone projections


@functools.lru_cache(maxsize=None)
def _svec_pattern(side: int):
    """svec order of a side x side matrix: row and column indices, and scales.

    Entries are the upper triangle (i <= j) in row-major order; off-diagonal
    ones carry a sqrt(2) scale. This is the one definition of svec order.
    """
    rows, cols = np.triu_indices(side)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    for arr in (rows, cols, scale):
        arr.setflags(write=False)
    return rows, cols, scale


def svec_indices(side: int):
    """Row-major upper-triangle (i <= j) index pairs for svec of a side x side matrix."""
    rows, cols, _ = _svec_pattern(side)
    return list(zip(rows.tolist(), cols.tolist()))


def svec_side(rows: int) -> int:
    """Side of the symmetric matrix whose svec has the given number of rows."""
    return int(round((np.sqrt(8 * rows + 1) - 1) / 2))


def svec(mat: np.ndarray) -> np.ndarray:
    """svec of a symmetric matrix, or of a stack of them along leading axes."""
    rows, cols, scale = _svec_pattern(mat.shape[-1])
    return mat[..., rows, cols] * scale


def unsvec(vec: np.ndarray, side: int) -> np.ndarray:
    """Inverse of svec; leading axes of vec are kept as a stack of matrices."""
    rows, cols, scale = _svec_pattern(side)
    vals = vec / scale
    mat = np.empty(vals.shape[:-1] + (side, side))
    mat[..., rows, cols] = vals
    mat[..., cols, rows] = vals
    return mat


def _project_soc(z: np.ndarray) -> np.ndarray:
    t, rest = z[0], z[1:]
    nr = np.linalg.norm(rest)
    if nr <= t:
        return z
    if nr <= -t:
        return np.zeros_like(z)
    coef = (t + nr) / 2.0
    out = np.empty_like(z)
    out[0] = coef
    out[1:] = rest * (coef / nr)
    return out


def _project_psd(z: np.ndarray, side: int) -> np.ndarray:
    """Project a (blocks x rows) stack of svec'd PSD blocks with one batched eigh."""
    vals, vecs = np.linalg.eigh(unsvec(z, side))
    np.maximum(vals, 0.0, out=vals)
    return svec((vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2))


class _ConePlan:
    """Row indices of a cone product, grouped so a projection is a few array ops.

    Zero and nonnegative rows each get one index array; second-order blocks
    keep their slices; PSD blocks of one side share a (blocks x rows) index
    array and are projected together.
    """

    def __init__(self, cones):
        zero, nonneg, psd = [], [], {}
        self.soc = []
        at = 0
        for cone in cones:
            rows = np.arange(at, at + cone.rows)
            if cone.kind == ZERO:
                zero.append(rows)
            elif cone.kind == NONNEG:
                nonneg.append(rows)
            elif cone.kind == SOC:
                self.soc.append(slice(at, at + cone.rows))
            else:
                psd.setdefault(cone.dim, []).append(rows)
            at += cone.rows
        self.zero = np.concatenate(zero) if zero else None
        self.nonneg = np.concatenate(nonneg) if nonneg else None
        self.psd = [(side, np.stack(blocks)) for side, blocks in psd.items()]

    def project(self, z: np.ndarray, dual: bool) -> np.ndarray:
        out = z.copy()
        if self.zero is not None and not dual:
            out[self.zero] = 0.0
        if self.nonneg is not None:
            out[self.nonneg] = np.maximum(z[self.nonneg], 0.0)
        for blk in self.soc:
            out[blk] = _project_soc(z[blk])
        for side, idx in self.psd:
            out[idx] = _project_psd(z[idx], side)
        return out


def project_cone(z: np.ndarray, cones, dual: bool) -> np.ndarray:
    """Project onto K (dual=False) or onto K* (dual=True), blockwise.

    cones is a sequence of Cone blocks or a plan built from one. The dual of
    the zero cone is the free space; every other cone here is self-dual, so
    only the zero block distinguishes the two cases.
    """
    plan = cones if isinstance(cones, _ConePlan) else _ConePlan(cones)
    return plan.project(z, dual)


# ---------------------------------------------------------------------------
# scaling


def _block_uniform(row_norms: np.ndarray, cones) -> np.ndarray:
    """Force one shared row scale inside each soc/psd block (cone invariance)."""
    out = row_norms.copy()
    at = 0
    for cone in cones:
        r = cone.rows
        if cone.kind in (SOC, PSD):
            out[at:at + r] = np.max(row_norms[at:at + r])
        at += r
    return out


def _ruiz_equilibrate(a: np.ndarray, cones, b=None, iters: int = 10):
    """Iterative row/column scaling toward unit max-norms.

    When given, the right-hand side joins the row norms, so a single huge
    entry there cannot leave the scaled data badly conditioned.
    """
    m, n = a.shape
    d = np.ones(m)
    e = np.ones(n)
    work = a.copy()
    bw = None if b is None else np.asarray(b, dtype=float).copy()
    for _ in range(iters):
        rn = np.max(np.abs(work), axis=1) if n else np.ones(m)
        if bw is not None:
            rn = np.maximum(rn, np.abs(bw))
        rn = _block_uniform(rn, cones)
        rn[rn == 0] = 1.0
        cn = np.max(np.abs(work), axis=0) if m else np.ones(n)
        cn[cn == 0] = 1.0
        dr = 1.0 / np.sqrt(rn)
        dc = 1.0 / np.sqrt(cn)
        work = work * dr[:, None] * dc[None, :]
        d *= dr
        e *= dc
        if bw is not None:
            bw = bw * dr
    return work, d, e


# ---------------------------------------------------------------------------
# solver


class _KktSolver:
    """Cached solve of M z = g with M = [[I, A'], [-A, I]].

    Eliminating one block leaves the normal equations on the smaller side,
    I + A'A (n <= m) or I + AA' (n > m), which are symmetric positive
    definite. That matrix is factored once with a dense Cholesky and inverted
    from the factor; the inverse has the factor's size. With a contiguous A'
    kept beside it, every solve is three matrix-vector products.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.at = np.ascontiguousarray(a.T)
        m, n = a.shape
        self.primal_side = n <= m
        if self.primal_side:
            gram = np.eye(n) + self.at @ a
        else:
            gram = np.eye(m) + a @ self.at
        factor = sla.cho_factor(gram, check_finite=False)
        self.inverse = sla.cho_solve(factor, np.eye(len(gram)), check_finite=False)

    def solve(self, gx: np.ndarray, gy: np.ndarray):
        if self.primal_side:
            zx = self.inverse @ (gx - self.at @ gy)
            zy = gy + self.a @ zx
        else:
            zy = self.inverse @ (gy + self.a @ gx)
            zx = gx - self.at @ zy
        return zx, zy


def residuals(program: ConicProgram, sol: Solution):
    """Recompute (primal, dual, gap) residuals from the raw program data."""
    a = program.dense_matrix()
    x, y, s = sol.x, sol.y, sol.s
    if len(x) != program.num_vars or len(y) != program.num_rows or len(s) != program.num_rows:
        raise DimensionError("solution dimensions do not match the program")
    rp = float(np.linalg.norm(a @ x + s - program.b))
    rd = float(np.linalg.norm(a.T @ y + program.c))
    gap = float(abs(program.c @ x + program.b @ y))
    return rp, rd, gap


def _polish_lp(program: ConicProgram, a: np.ndarray, x, y, s, tol):
    """Active-set least-squares refinement for zero/nonneg-cone programs."""
    m = a.shape[0]
    active = np.zeros(m, dtype=bool)
    at = 0
    for cone in program.cones:
        r = cone.rows
        if cone.kind == ZERO:
            active[at:at + r] = True
        elif cone.kind == NONNEG:
            blk = slice(at, at + r)
            thresh = np.sqrt(max(tol, 1e-16)) * (1.0 + np.abs(program.b[blk]))
            active[blk] = s[blk] <= thresh
        else:
            return None
        at += r
    aact = a[active]
    # x solves the active rows and the active duals solve dual feasibility;
    # the two systems share no unknowns, so each is its own least squares
    try:
        xp, *_ = np.linalg.lstsq(aact, program.b[active], rcond=None)
        yact, *_ = np.linalg.lstsq(aact.T, -program.c, rcond=None)
    except np.linalg.LinAlgError:
        return None
    yp = np.zeros(m)
    yp[active] = yact
    sp = program.b - a @ xp
    # clean tiny negatives on inactive inequality slacks
    at = 0
    ok = True
    for cone in program.cones:
        r = cone.rows
        blk = slice(at, at + r)
        if cone.kind == ZERO:
            sp[blk] = 0.0
        else:
            if np.min(sp[blk]) < -1e-9 * (1.0 + np.max(np.abs(program.b))):
                ok = False
            sp[blk] = np.clip(sp[blk], 0.0, None)
            if np.min(yp[blk]) < -1e-9 * (1.0 + np.max(np.abs(program.c), initial=0.0)):
                ok = False
            yp[blk] = np.clip(yp[blk], 0.0, None)
        at += r
    if not ok:
        return None
    return xp, yp, sp


def solve(program: ConicProgram, settings: SolveSettings | None = None) -> Solution:
    """Solve the program; returns a KKT-approximate solution or a certificate.

    Deterministic for fixed settings. Infeasibility and unboundedness are
    detected through ray certificates of the homogeneous embedding.
    """
    st = settings or SolveSettings()
    a_raw = program.dense_matrix()
    m, n = a_raw.shape
    b_raw, c_raw = program.b, program.c

    # fold the rhs into the equilibration only when its entries sit far
    # outside the matrix scale; on well-ranged data the plain matrix scaling
    # conditions better
    a_big = max(1.0, float(np.max(np.abs(a_raw))) if a_raw.size else 1.0)
    b_in = b_raw if b_raw.size and float(np.max(np.abs(b_raw))) > 1e3 * a_big else None
    a, d, e = _ruiz_equilibrate(a_raw, program.cones, b_in)
    b = d * b_raw
    c = e * c_raw
    beta = 1.0 / (1.0 + np.linalg.norm(b))
    gamma = 1.0 / (1.0 + np.linalg.norm(c))
    b = beta * b
    c = gamma * c

    kkt = _KktSolver(a)
    h = np.concatenate([c, b])
    mh = np.concatenate(kkt.solve(c, b))
    denom = 1.0 + float(h @ mh)

    u = np.zeros(n + m + 1)
    v = np.zeros(n + m + 1)
    u[-1] = 1.0
    v[-1] = 1.0
    alpha = _OVER_RELAX

    bnorm1 = 1.0 + np.linalg.norm(b_raw)
    cnorm1 = 1.0 + np.linalg.norm(c_raw)

    best = None

    def _candidate(tau):
        x = e * (u[:n] / tau) / beta
        y = d * (u[n:n + m] / tau) / gamma
        s_scaled = v[n:n + m] / tau
        s = s_scaled / (d * beta)
        return x, y, s

    plan = _ConePlan(program.cones)
    nm = n + m
    ut = np.empty(nm + 1)
    ut_xy = ut[:nm]
    keep = 1.0 - alpha
    last = st.max_iter - 1
    status = "max_iter"
    for k in range(st.max_iter):
        w = u + v
        w_tau = w[-1]
        g = w[:nm] - w_tau * h
        ut[:n], ut[n:nm] = kkt.solve(g[:n], g[n:])
        ut_xy -= mh * ((h @ ut_xy) / denom)
        ut[-1] = w_tau + h @ ut_xy

        ox = alpha * ut + keep * u
        z = ox - v
        z[n:nm] = project_cone(z[n:nm], plan, dual=True)
        z[-1] = max(z[-1], 0.0)
        v += z - ox
        u = z

        if (k + 1) % _CHECK_EVERY == 0 or k == last:
            tau = u[-1]
            unorm = np.linalg.norm(u[:n + m])
            if tau > 1e-11 * max(1.0, unorm):
                x, y, s = _candidate(tau)
                rp = np.linalg.norm(a_raw @ x + s - b_raw) / bnorm1
                rd = np.linalg.norm(a_raw.T @ y + c_raw) / cnorm1
                pobj = float(c_raw @ x)
                dobj = float(-b_raw @ y)
                gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
                score = max(rp, rd, gap)
                if np.isfinite(score) and (best is None or score < best[0]):
                    best = (score, (x, y, s))
                if rp <= st.tol and rd <= st.tol and gap <= st.tol:
                    status = "optimal"
                    break
            # certificate tests on the homogeneous ray
            ux, uy = u[:n], u[n:n + m]
            by = float(b @ uy)
            if by < 0.0:
                if np.linalg.norm(a.T @ uy) <= _INFEAS_TOL * (-by):
                    ycert = d * uy / (-by)
                    return Solution(
                        x=np.full(n, np.nan), y=ycert, s=np.full(m, np.nan),
                        status="infeasible", value=float("nan"),
                        residuals=(float("nan"), float("nan"), float("nan")),
                    )
            cx = float(c @ ux)
            if cx < 0.0:
                vs = v[n:n + m]
                if np.linalg.norm(a @ ux + vs) <= _INFEAS_TOL * (-cx):
                    xcert = e * ux / (-cx)
                    return Solution(
                        x=xcert, y=np.full(m, np.nan), s=np.full(m, np.nan),
                        status="unbounded", value=float("-inf"),
                        residuals=(float("nan"), float("nan"), float("nan")),
                    )

    if best is None:
        tau = max(u[-1], 1e-300)
        best = (float("inf"), _candidate(tau))
    x, y, s = best[1]

    if status == "optimal":
        polished = _polish_lp(program, a_raw, x, y, s, st.tol)
        if polished is not None:
            xp, yp, sp = polished
            old = residuals(program, Solution(x, y, s, "optimal", 0.0, (0, 0, 0)))
            new = residuals(program, Solution(xp, yp, sp, "optimal", 0.0, (0, 0, 0)))
            if max(new) <= max(max(old), 1e-12):
                x, y, s = xp, yp, sp

    sol = Solution(x=x, y=y, s=s, status=status, value=float(program.c @ x), residuals=(0.0, 0.0, 0.0))
    rp, rd, gap = residuals(program, sol)
    return replace(sol, residuals=(rp, rd, gap))


def accepted(sol: Solution, what: str) -> Solution:
    """The callers' status rule: an optimal or max_iter solution passes, any
    other status raises ParameterError naming the solve."""
    if sol.status not in ("optimal", "max_iter"):
        raise ParameterError(f"{what} ended with status {sol.status}")
    return sol


# ---------------------------------------------------------------------------
# builder


class ProgramBuilder:
    """Incremental assembly of a ConicProgram.

    Variables are created with add_vars. Every row goes through one path:
    le, eq, soc and psd take affine expressions (LinExpr instances or
    scalars), nonneg_var takes one column or an array of columns, and all
    of them append their rows in cone-block order through _append, which
    writes  expr + s = 0  with the slack s in the cone. So le(expr) means
    expr <= 0, while soc and psd negate their expressions to put the
    expressions themselves in the cone. Consecutive zero rows, and
    consecutive nonnegative rows, share one cone block.
    """

    def __init__(self):
        self._obj: dict[int, float] = {}
        self._rows: list[dict[int, float]] = []
        self._rhs: list[float] = []
        self._cones: list[Cone] = []
        self._names: list[str] = []
        self._nvars = 0

    def add_vars(self, count: int, name: str = "x", obj=0.0) -> np.ndarray:
        idx = np.arange(self._nvars, self._nvars + count)
        self._nvars += count
        objv = np.broadcast_to(np.asarray(obj, dtype=float), (count,))
        for i, j in enumerate(idx):
            self._names.append(f"{name}[{i}]" if count > 1 else name)
            if objv[i] != 0.0:
                self._obj[int(j)] = self._obj.get(int(j), 0.0) + float(objv[i])
        return idx

    def add_objective(self, col: int, coef: float):
        self._obj[int(col)] = self._obj.get(int(col), 0.0) + float(coef)

    def _append(self, kind: str, exprs: list, dim: int):
        """One row per expression, with slack equal to minus the expression,
        forming the cone (kind, dim); zero and nonnegative rows join a
        preceding block of their kind."""
        for e in exprs:
            self._rows.append(dict(e.terms))
            self._rhs.append(-e.const)
        if kind in (ZERO, NONNEG) and self._cones and self._cones[-1].kind == kind:
            dim += self._cones.pop().dim
        self._cones.append(Cone(kind, dim))

    def nonneg_var(self, cols):
        """x_col >= 0 for one column or for each of an array of columns."""
        exprs = [-LinExpr.var(col) for col in np.atleast_1d(cols)]
        if exprs:
            self._append(NONNEG, exprs, len(exprs))

    def le(self, expr):
        """expr <= 0"""
        self._append(NONNEG, [LinExpr.of(expr)], 1)

    def eq(self, expr):
        """expr = 0"""
        self._append(ZERO, [LinExpr.of(expr)], 1)

    def soc(self, exprs):
        """(expr_0, expr_1, ...) lies in the second-order cone; expr_0 is the scalar part."""
        exprs = [-LinExpr.of(e) for e in exprs]
        if not exprs:
            raise ParameterError("soc block needs at least one row")
        self._append(SOC, exprs, len(exprs))

    def psd(self, side: int, exprs):
        """svec-ordered exprs form a PSD matrix."""
        exprs = [-LinExpr.of(e) for e in exprs]
        want = side * (side + 1) // 2
        if len(exprs) != want:
            raise DimensionError(f"psd side {side} needs {want} rows, got {len(exprs)}")
        self._append(PSD, exprs, side)

    def build(self) -> ConicProgram:
        rows, cols, vals = [], [], []
        for i, row in enumerate(self._rows):
            for j, val in row.items():
                rows.append(i)
                cols.append(j)
                vals.append(val)
        c = np.zeros(self._nvars)
        for j, val in self._obj.items():
            c[j] = val
        return ConicProgram(
            c=c,
            a_rows=np.asarray(rows, dtype=int),
            a_cols=np.asarray(cols, dtype=int),
            a_vals=np.asarray(vals, dtype=float),
            b=np.asarray(self._rhs, dtype=float),
            cones=tuple(self._cones),
            names=tuple(self._names),
        )


class LinExpr:
    """Affine expression sum_j coef_j x_j + const over builder variables."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict | None = None, const: float = 0.0):
        self.terms = {int(k): float(v) for k, v in (terms or {}).items() if v != 0.0}
        self.const = float(const)

    @staticmethod
    def var(col, coef: float = 1.0) -> "LinExpr":
        return LinExpr({int(col): coef})

    @staticmethod
    def of(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return LinExpr(const=float(value))

    @staticmethod
    def sum(exprs) -> "LinExpr":
        """The builtin sum of exprs, in one pass: the same additions in the
        same order, so the terms (with their order) and the constant come out
        bit for bit, without copying the running total at every term."""
        terms: dict[int, float] = {}
        const = 0.0
        for e in map(LinExpr.of, exprs):
            for k, v in e.terms.items():
                total = terms.get(k, 0.0) + v
                if total != 0.0:
                    terms[k] = total
                else:
                    terms.pop(k, None)
            const += e.const
        return LinExpr(terms, const)

    @staticmethod
    def dot(cols, coefs) -> "LinExpr":
        """sum_k coefs[k] x_{cols[k]}; zero coefficients add no term."""
        return LinExpr.sum(LinExpr.var(col, coef) for col, coef in zip(cols, coefs))

    def __add__(self, other):
        other = LinExpr.of(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return LinExpr(terms, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return LinExpr({k: -v for k, v in self.terms.items()}, -self.const)

    def __sub__(self, other):
        return self + (-LinExpr.of(other))

    def __rsub__(self, other):
        return LinExpr.of(other) + (-self)

    def __mul__(self, scalar):
        s = float(scalar)
        return LinExpr({k: s * v for k, v in self.terms.items()}, s * self.const)

    __rmul__ = __mul__


def dump_program(program: ConicProgram) -> str:
    """Plain-text sparse dump: dims, cone list, then c/b/A triplets.

    Lines: `vars N`, `rows M`, `cone KIND DIM` per block (psd DIM is the side),
    `c j v`, `b i v`, `A i j v` for nonzeros; indices are zero-based.
    """
    out = io.StringIO()
    out.write("# gaugekit conic program v1\n")
    out.write("# minimize c'x  subject to  A x + s = b,  s in K\n")
    out.write(f"vars {program.num_vars}\n")
    out.write(f"rows {program.num_rows}\n")
    for cone in program.cones:
        out.write(f"cone {cone.kind} {cone.dim}\n")
    for j, val in enumerate(program.c):
        if val != 0.0:
            out.write(f"c {j} {val!r}\n")
    for i, val in enumerate(program.b):
        if val != 0.0:
            out.write(f"b {i} {val!r}\n")
    for i, j, val in zip(program.a_rows, program.a_cols, program.a_vals):
        out.write(f"A {i} {j} {val!r}\n")
    return out.getvalue()
