"""Solver-agnostic conic programs and an embedded interior-point solver.

Programs are stored as  minimize c'x  subject to  A x + s = b, s in K,  where
K is a product of zero, nonnegative, second-order, and PSD cones (in row
order); PSD blocks are vectorized with sqrt(2)-scaled off-diagonals.

The solver is the primal-dual interior-point method of CVXOPT's conelp
(Vandenberghe, "The CVXOPT linear and quadratic cone program solvers", 2010):
Mehrotra predictor-corrector steps with Nesterov-Todd scaling on the
homogeneous self-dual embedding, whose rays give infeasibility and
unboundedness certificates as in ECOS (Domahidi, Chu & Boyd, ECC 2013). An
iteration solves three systems with one KKT matrix K = [[0, G'], [G, -I_K]],
G = W^-T A and I_K the identity on the cone rows. Zero rows may be
rank-deficient (flow-balance rows sum to zero), so every factored matrix
carries a static regularisation and every solve is refined against the
unregularised matrix until its residual is at rounding level or stops
falling. All PSD blocks of one side are handled as one batch.

How K is solved is picked once per solve from its size, (m + n)^2 entries.
Up to 2^15, A and G are dense arrays, G is formed from A every iteration and
K itself is LU-factored with delta on the x block and -delta on the zero
rows, which makes it quasi-definite (_WholeSystem); a refinement pass costs
one product with K. Above, A is a CSR array and G a CSR array of fixed
pattern whose values are refilled every iteration: A's pattern on the zero
and nonnegative rows, and a dense block over the columns that the
second-order and PSD rows touch. There the cone rows are eliminated
(_ReducedSystem): the factored matrix is A' W^-2 A over the cone rows
bordered by the zero rows, of the size of the variables plus the zero rows,
and its nonnegative rows add up from the products of nonzeros of A that
share a row, so their cost follows the nonzeros, not the dense matrix.
Refinement has two levels: each reduced solve is refined against the
unregularised bordered matrix, one small dense product a pass, and each
solve of K against K, two sparse products a pass. The cut exists because a
sparse product pays some microseconds of dispatch whatever its size: on the
small programs of a duality check or a walk that costs more than the dense
product. Above the cut run the case study's LPs and SDPs, some 22 solves
in the test suite, and the flow LPs of transport gauges on larger supports
(gauge._solve_value), some 33; their A is mostly zeros, and an LU of
their K would cost far more than that of the reduced matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

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


# fixed solver constants: ray-certificate tolerance, static regularisation,
# refinement steps per solve, and how far to the cone boundary a step goes
_INFEAS_TOL = 1e-7
_STATIC_REG = 1e-10
_REFINE = 8
_STEP = 0.99
# a program whose KKT matrix has more entries than this, (m + n)^2, is solved
# with A and G = W^-T A held sparse and its cone rows eliminated; below it
# they are dense and K is factored whole (see _matrix and _Operators)
_SPARSE_CUT = 2 ** 15


@dataclass(frozen=True)
class SolveSettings:
    tol: float = 1e-8
    max_iter: int = 100


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    value: float
    residuals: tuple
    iterations: int = 0


# ---------------------------------------------------------------------------
# svec and cone row plans


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


class _ConePlan:
    """Row indices of a cone product grouped by kind, so a cone operation is a
    few array ops: index arrays for the zero and the nonnegative rows, a slice
    per second-order block and a (blocks x rows) index array per PSD side,
    with curved the index array of both. unit is the identity element of the
    cone rows and cone their 0/1 mask; soc_j holds, per second-order block,
    the diagonal of J = diag(1, -1, ..., -1) and J itself.
    """

    def __init__(self, cones):
        kinds = np.repeat(np.array([cone.kind for cone in cones], dtype=str), [cone.rows for cone in cones])
        self.zero, self.nonneg = np.flatnonzero(kinds == ZERO), np.flatnonzero(kinds == NONNEG)
        self.curved = np.flatnonzero((kinds == SOC) | (kinds == PSD))
        self.cone = (kinds != ZERO).astype(float)
        self.soc, psd, at = [], {}, 0
        for cone in cones:
            if cone.kind == SOC:
                self.soc.append(slice(at, at + cone.rows))
            elif cone.kind == PSD:
                psd.setdefault(cone.dim, []).append(np.arange(at, at + cone.rows))
            at += cone.rows
        self.psd = [(side, np.stack(blocks)) for side, blocks in psd.items()]
        signs = [np.r_[1.0, -np.ones(blk.stop - blk.start - 1)] for blk in self.soc]
        self.soc_j = [(sign, np.diag(sign)) for sign in signs]
        self.unit = np.zeros(at)
        self.unit[self.nonneg] = 1.0
        self.unit[[blk.start for blk in self.soc]] = 1.0
        for side, idx in self.psd:
            self.unit[idx] = svec(np.eye(side))

    def circ(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v on the cone rows (zero on zero rows)."""
        out = np.zeros_like(u)
        out[self.nonneg] = u[self.nonneg] * v[self.nonneg]
        for blk in self.soc:
            out[blk] = u[blk.start] * v[blk] + v[blk.start] * u[blk]
            out[blk.start] = u[blk] @ v[blk]
        for side, idx in self.psd:
            um, vm = unsvec(u[idx], side), unsvec(v[idx], side)
            out[idx] = svec(0.5 * (um @ vm + vm @ um))
        return out


# ---------------------------------------------------------------------------
# solver


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of a vector: sqrt(v . v), as np.linalg.norm takes
    it, bit for bit, without its dispatch."""
    return math.sqrt(v @ v)


def _soc_det(x: np.ndarray) -> float:
    """sqrt(x' J x) for x inside a second-order cone, J = diag(1, -1, ..., -1).
    Outside it raises FloatingPointError, as np.sqrt does under the solver's
    errstate."""
    rest = _norm(x[1:])
    det = (x[0] - rest) * (x[0] + rest)
    if det < 0.0:
        raise FloatingPointError("point outside the second-order cone")
    return math.sqrt(det)


class _Scaling:
    """Nesterov-Todd scaling W z = W^-T s = lam of an interior pair (s, z) on
    the cone rows (Vandenberghe 2010, section 4), the identity on zero rows.
    Nonnegative rows scale by d (held as the row scales d and 1 / d, which
    are 1 off those rows), a second-order block by the symmetric
    W = beta (2 v v' - J) and its inverse, and PSD blocks of one side factors
    r and rti = r^-T of W(u) = r' u r from a batched SVD, so lam is diagonal.
    For max_step it keeps lam on the nonnegative rows, and per second-order
    block sqrt(lam'J lam) with lam over it.
    """

    def __init__(self, plan: _ConePlan, s: np.ndarray, z: np.ndarray):
        self.plan = plan
        self.lam = np.zeros_like(s)
        sn, zn = s[plan.nonneg], z[plan.nonneg]
        self.d = np.ones_like(s)
        self.d[plan.nonneg] = np.sqrt(sn / zn)
        self.dinv = 1.0 / self.d
        self.lam_n = self.lam[plan.nonneg] = np.sqrt(sn * zn)
        self.soc, self.boost = [], []
        for blk, (sign, jay) in zip(plan.soc, plan.soc_j):
            sk, zk = s[blk], z[blk]
            sdet, zdet = _soc_det(sk), _soc_det(zk)
            sbar, jzbar = sk / sdet, sign * zk / zdet
            v = (sbar + jzbar) / math.sqrt(2.0 + 2.0 * (sk @ zk) / (sdet * zdet))
            v[0] += 1.0
            v /= math.sqrt(2.0 * v[0])
            jv = sign * v
            fwd = math.sqrt(sdet / zdet) * (2.0 * np.outer(v, v) - jay)
            self.soc.append((fwd, math.sqrt(zdet / sdet) * (2.0 * np.outer(jv, jv) - jay)))
            self.lam[blk] = fwd @ zk
            det = _soc_det(self.lam[blk])
            self.boost.append((det, self.lam[blk] / det))
        self.psd = []
        for side, idx in plan.psd:
            ls, lz = np.linalg.cholesky(unsvec(np.stack([s[idx], z[idx]]), side))
            u, sig, vt = np.linalg.svd(np.swapaxes(lz, -1, -2) @ ls)
            root = 1.0 / np.sqrt(sig)[..., None, :]
            self.psd.append((ls @ np.swapaxes(vt, -1, -2) * root, lz @ u * root, sig))
            self.lam[idx] = svec(sig[..., None] * np.eye(side))

    def apply(self, v: np.ndarray, inverse: bool = False, transpose: bool = False) -> np.ndarray:
        """W v, W' v, W^-1 v or W^-T v for a vector or an (m x k) matrix of columns."""
        d = self.dinv if inverse else self.d
        out = v * d.reshape(d.shape + (1,) * (v.ndim - 1))
        self._curved(v, out, self.plan, inverse, transpose)
        return out

    def inv_t_curved(self, v: np.ndarray, curved: _ConePlan) -> np.ndarray:
        """W^-T v for an (rows x k) matrix v given on the second-order and PSD
        rows alone, with curved the plan of those cones."""
        out = np.empty_like(v)
        self._curved(v, out, curved, True, True)
        return out

    def _curved(self, v, out, plan, inverse, transpose):
        """out = W v, W' v, W^-1 v or W^-T v on the second-order and PSD
        blocks, whose rows in v and out are those plan gives."""
        for blk, (fwd, inv) in zip(plan.soc, self.soc):
            out[blk] = (inv if inverse else fwd) @ v[blk]
        for (side, idx), (r, rti, _) in zip(plan.psd, self.psd):
            # W u = r'ur, W'u = rur', W^-1 u = rti u rti', W^-T u = rti'u rti
            f, block = (rti if inverse else r), v[idx]
            if v.ndim == 2:
                block, f = np.swapaxes(block, 1, 2), f[:, None]
            ft, mat = np.swapaxes(f, -1, -2), unsvec(block, side)
            res = svec(ft @ mat @ f if inverse == transpose else f @ mat @ ft)
            out[idx] = np.swapaxes(res, 1, 2) if v.ndim == 2 else res

    def ldiv(self, rhs: np.ndarray) -> np.ndarray:
        """The u with lam o u = rhs on the cone rows (zero on zero rows)."""
        plan, lam = self.plan, self.lam
        out = np.zeros_like(rhs)
        out[plan.nonneg] = rhs[plan.nonneg] / lam[plan.nonneg]
        for blk in plan.soc:
            lk, rk = lam[blk], rhs[blk]
            u0 = (lk[0] * rk[0] - lk[1:] @ rk[1:]) / (lk[0] ** 2 - lk[1:] @ lk[1:])
            out[blk] = (rk - u0 * lk) / lk[0]
            out[blk.start] = u0
        for (side, idx), (_, _, sig) in zip(plan.psd, self.psd):
            rows, cols, _ = _svec_pattern(side)
            out[idx] = rhs[idx] * (2.0 / (sig[:, rows] + sig[:, cols]))
        return out

    def max_step(self, *deltas: np.ndarray) -> float:
        """t with lam + a delta in the cone for all 0 <= a < 1/t and every
        delta given (any a if t <= 0)."""
        plan = self.plan
        t = max(-float((delta[plan.nonneg] / self.lam_n).min(initial=np.inf)) for delta in deltas)
        for blk, (det, lk) in zip(plan.soc, self.boost):
            # the Lorentz boost taking lam / sqrt(lam'J lam) to the unit
            for dk in [delta[blk] for delta in deltas]:
                y0 = lk[0] * dk[0] - lk[1:] @ dk[1:]
                y1 = dk[1:] - (dk[0] + y0) / (lk[0] + 1.0) * lk[1:]
                t = max(t, (_norm(y1) - y0) / det)
        for (side, idx), (_, _, sig) in zip(plan.psd, self.psd):
            root = 1.0 / np.sqrt(sig)
            rel = unsvec(np.stack([delta[idx] for delta in deltas]), side) * root[:, :, None]
            rel *= root[:, None, :]
            t = max(t, float(-np.min(np.linalg.eigvalsh(rel))))
        return t


def _matrix(program: ConicProgram):
    """A as the solver stores it, duplicate triplets summed: a numpy array
    when the KKT matrix, (m + n) square, has at most _SPARSE_CUT entries, a
    CSR array above."""
    m, n = program.num_rows, program.num_vars
    if (m + n) ** 2 <= _SPARSE_CUT:
        return program.dense_matrix()
    a = sparse.csr_array((program.a_vals, (program.a_rows, program.a_cols)), shape=(m, n))
    a.sum_duplicates()
    return a


def _entries(a):
    """The entries (row, col, value) of the CSR array a in row-major order."""
    return np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), a.indices, a.data


def _pairs(a, nonneg: np.ndarray):
    """The products of the nonzeros of the CSR array A that share a
    nonnegative row, as arrays (per_row, flat, prod) over the pairs of
    entries (row, p), (row, q) with p <= q, in row order, per_row counting
    them by row. flat is p n + q, so A_N' diag(w) A_N is the bincount of
    flat weighted by prod times w repeated per_row times, mirrored below the
    diagonal. Built once per solve.
    """
    m, n = a.shape
    on = np.zeros(m, dtype=bool)
    on[nonneg] = True
    rows, cols, vals = _entries(a)
    keep = on[rows] & (vals != 0.0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    # entries are sorted by row, then column; each pairs with itself and
    # the later entries of its row (in place where it can: the pairs of a
    # large program outnumber its entries)
    count = np.searchsorted(rows, rows, side="right") - np.arange(len(rows))
    first = np.repeat(np.arange(len(rows)), count)
    second = np.arange(len(first))
    second -= np.repeat(np.cumsum(count) - count, count)
    second += first
    flat, prod = cols[second], vals[second]
    del second
    flat += cols[first] * n
    prod *= vals[first]
    return np.bincount(rows[first], minlength=m), flat, prod


class _Operators:
    """A and A' for one solve, stored as _matrix picks: dense when K has at
    most _SPARSE_CUT entries, (m + n)^2, and CSR above. Also what system
    needs to build the KKT system of a scaling W. Dense, where K is
    factored whole (_WholeSystem), that is K's diagonal with and without
    the static regularisation. Sparse, where the cone rows are eliminated
    and refinement has two levels (_ReducedSystem), it is the _pairs of A,
    the constant blocks of the bordered matrix, and G = W^-T A as a CSR
    array built once: A's pattern on the zero and nonnegative rows, there
    d^-1 times A's values, and a dense block on the second-order and PSD
    rows C over the columns they touch, there W^-T applied to that block
    alone. Its values are refilled in place every iteration, and G' is its
    transpose sharing them; scaled gives G, G' and G_C, the block of G that
    H adds on h[block].
    """

    def __init__(self, program: ConicProgram, plan: _ConePlan):
        self.plan = plan
        self.a = _matrix(program)
        self.at = self.a.T
        m, n = self.a.shape
        if not sparse.issparse(self.a):
            # K's diagonal is 0 on x and -1 on the cone rows; regularised,
            # delta on x and -delta on the zero rows
            self.diag = np.r_[np.zeros(n), -plan.cone]
            self.reg_diag = self.diag + _STATIC_REG * np.r_[np.ones(n), plan.cone - 1.0]
            return
        self.pairs = _pairs(self.a, plan.nonneg)
        a_zero = self.a[plan.zero].toarray()
        self.bordered = np.zeros((n + len(plan.zero),) * 2)
        self.bordered[:n, n:] = a_zero.T
        self.bordered[n:, :n] = a_zero
        rows, cols, vals = _entries(self.a)
        linear = np.ones(m, dtype=bool)
        linear[plan.curved] = False
        linear = linear[rows]
        touched = np.unique(cols[~linear])
        self.a_curved = self.a[plan.curved][:, touched].toarray()
        self.curved_plan = _ConePlan([cone for cone in program.cones if cone.kind in (SOC, PSD)])
        self.block = np.ix_(touched, touched)
        # G's entries, A's on the linear rows and then the curved block
        # row-major, put in CSR order by a stable sort on (row, col); base
        # holds A's values there (zero on the block) and at_curved the block
        g_rows = np.r_[rows[linear], np.repeat(plan.curved, len(touched))]
        g_cols = np.r_[cols[linear], np.tile(touched, len(plan.curved))]
        order = np.lexsort((g_cols, g_rows))
        self.lengths = np.bincount(g_rows, minlength=m)
        self.base = np.r_[vals[linear], np.zeros(len(plan.curved) * len(touched))][order]
        self.at_curved = np.flatnonzero(order >= np.count_nonzero(linear))
        self.g = sparse.csr_array((self.base.copy(), g_cols[order], np.r_[0, np.cumsum(self.lengths)]),
                                  shape=self.a.shape)
        self.gt = self.g.T

    def system(self, scaling: _Scaling):
        """The KKT system of the scaling: a _WholeSystem when A is dense, a
        _ReducedSystem when it is sparse."""
        return _ReducedSystem(self, scaling) if sparse.issparse(self.a) else _WholeSystem(self, scaling)

    def scaled(self, scaling: _Scaling):
        """(G, G', G_C) for G = W^-T A under the scaling, on the sparse side."""
        gc = scaling.inv_t_curved(self.a_curved, self.curved_plan)
        np.multiply(np.repeat(scaling.dinv, self.lengths), self.base, out=self.g.data)
        self.g.data[self.at_curved] = gc.ravel()
        return self.g, self.gt, gc


def _gram(n: int, pairs, scaling: _Scaling, gc: np.ndarray, block, out: np.ndarray) -> np.ndarray:
    """H = G_K' G_K (n x n) for G = W^-T A, written into out: A_N' W_N^-2 A_N
    over the nonnegative rows from the products that _pairs lists, plus
    G_C' G_C over the second-order and PSD rows C, with gc those rows of G on
    the columns that h[block] indexes."""
    per_row, flat, prod = pairs
    w = np.repeat(scaling.dinv, per_row)
    weights = prod * w
    weights *= w
    upper = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
    h = np.add(upper, upper.T, out=out)
    np.fill_diagonal(h, upper.diagonal())
    h[block] += gc.T @ gc
    return h


def _refined(solve, product, rhs: np.ndarray) -> np.ndarray:
    """solve(rhs), where solve approximately inverts the matrix that product
    applies, refined against that matrix until the residual is at rounding
    level or stops falling."""
    u = solve(rhs)
    floor, last = 1e-14 * (1.0 + _norm(rhs)), np.inf
    for _ in range(_REFINE):
        r = rhs - product(u)
        err = _norm(r)
        if err <= floor or err >= last:
            break
        last = err
        u = u + solve(r)
    return u


def _factor(mat: np.ndarray, reg_diag: np.ndarray):
    """The solve with dgetrf's LU of mat with its diagonal set to reg_diag;
    mat is left as it was."""
    diag = mat.diagonal().copy()
    np.fill_diagonal(mat, reg_diag)
    lu, piv, info = lapack.dgetrf(mat)
    np.fill_diagonal(mat, diag)
    if info:
        raise np.linalg.LinAlgError("singular KKT system")
    return lambda rhs: lapack.dgetrs(lu, piv, rhs)[0]


class _WholeSystem:
    """Solves K [ux; uw] = [bx; bw] below the size cut, when K has at most
    _SPARSE_CUT entries, (m + n)^2, with K = [[0, G'], [G, -I_K]],
    G = W^-T A dense and I_K the identity on the cone rows: uw is W uz on
    the cone rows and the free duals on the zero rows E. K itself is
    LU-factored once with the static regularisation delta on the x block
    and -delta on E, which makes it quasi-definite, and each solve is
    refined against K, one product a pass.
    """

    def __init__(self, ops: _Operators, scaling: _Scaling):
        self.n = n = ops.a.shape[1]
        g = scaling.apply(ops.a, inverse=True, transpose=True)
        self.k = np.zeros((len(ops.diag),) * 2)
        self.k[:n, n:] = g.T
        self.k[n:, :n] = g
        np.fill_diagonal(self.k, ops.diag)
        self.lu_solve = _factor(self.k, ops.reg_diag)

    def solve(self, bx: np.ndarray, bw: np.ndarray):
        u = _refined(self.lu_solve, self.k.dot, np.concatenate([bx, bw]))
        return u[:self.n], u[self.n:]


class _ReducedSystem:
    """Solves the K [ux; uw] = [bx; bw] of _WholeSystem above the size cut,
    when K has more than _SPARSE_CUT entries, (m + n)^2, with G and G' the
    CSR arrays of ops. Eliminating the cone rows leaves the
    bordered matrix [[H, E'], [E, 0]] with H = G_K' G_K from _gram; it is
    factored once with reg (1 + H_ii) added on the H diagonal and -reg on
    the E block. Refinement is two-level: each reduced solve is refined
    against the unregularised bordered matrix, a dense product a pass, and
    each solve of K against K itself, with two sparse products a pass.
    """

    def __init__(self, ops: _Operators, scaling: _Scaling):
        self.zero, self.cone = scaling.plan.zero, scaling.plan.cone
        self.g, self.gt, gc = ops.scaled(scaling)
        self.n = n = ops.a.shape[1]
        self.mat = ops.bordered.copy()
        _gram(n, ops.pairs, scaling, gc, ops.block, self.mat[:n, :n])
        h_diag = self.mat.diagonal()[:n]
        self.lu_solve = _factor(self.mat, np.r_[h_diag + _STATIC_REG * (1.0 + h_diag),
                                                 -_STATIC_REG * np.ones(len(self.zero))])

    def _reduced(self, b: np.ndarray) -> np.ndarray:
        n = self.n
        bx, bw = b[:n], b[n:]
        rhs = np.concatenate([bx + self.gt @ (self.cone * bw), bw[self.zero]])
        u = _refined(self.lu_solve, self.mat.dot, rhs)
        uw = self.g @ u[:n] - bw
        uw[self.zero] = u[n:]
        return np.concatenate([u[:n], uw])

    def _product(self, u: np.ndarray) -> np.ndarray:
        ux, uw = u[:self.n], u[self.n:]
        return np.concatenate([self.gt @ uw, self.g @ ux - self.cone * uw])

    def solve(self, bx: np.ndarray, bw: np.ndarray):
        u = _refined(self._reduced, self._product, np.concatenate([bx, bw]))
        return u[:self.n], u[self.n:]


def residuals(program: ConicProgram, sol: Solution):
    """Recompute (primal, dual, gap) residuals from the raw program data."""
    if len(sol.x) != program.num_vars or len(sol.y) != program.num_rows or len(sol.s) != program.num_rows:
        raise DimensionError("solution dimensions do not match the program")
    return _residuals(program, _matrix(program), sol)


def _residuals(program: ConicProgram, a, sol: Solution):
    """residuals, with a the program's matrix as _matrix stores it."""
    x, y, s = sol.x, sol.y, sol.s
    rp = _norm(a @ x + s - program.b)
    rd = _norm(a.T @ y + program.c)
    gap = float(abs(program.c @ x + program.b @ y))
    return rp, rd, gap


def _start(ops: _Operators, b: np.ndarray, c: np.ndarray):
    """conelp's starting point (x, s, y): the solutions of two systems at
    the unit scaling, with s and y shifted along the unit into the interior
    of the cone rows when they are not well inside."""
    plan = ops.plan
    unit = _Scaling(plan, plan.unit, plan.unit)
    system = ops.system(unit)

    def interior(v):
        t = unit.max_step(v)
        return v + (1.0 + t) * plan.unit if t >= -1e-8 * max(_norm(v), 1.0) else v

    x, w = system.solve(np.zeros_like(c), b)
    return x, interior(-w * plan.cone), interior(system.solve(-c, np.zeros_like(b))[1])


def solve(program: ConicProgram, settings: SolveSettings | None = None) -> Solution:
    """Solve the program; returns a KKT-approximate solution or a certificate.

    Deterministic. Stops as optimal when (x, y, s) / tau meets the tolerance
    in relative primal and dual residual and gap; as infeasible (unbounded)
    when y (x) is a ray certificate, scaled to b'y = -1 (c'x = -1); at
    max_iter; or as inaccurate when no step can be computed. The last two
    return (x, y, s) / tau with its residuals.
    """
    st = settings or SolveSettings()
    b, c = program.b, program.c
    plan = _ConePlan(program.cones)
    ops = _Operators(program, plan)
    a, at = ops.a, ops.at
    bnorm, cnorm = _norm(b), _norm(c)

    x, s, y = _start(ops, b, c)
    tau = kappa = 1.0

    status = "max_iter"
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for it in range(st.max_iter + 1):
            aty, axs = at @ y, a @ x + s
            rx, rm = aty + c * tau, axs - b * tau
            cx, by = c @ x, b @ y
            if (_norm(rm) <= st.tol * (1.0 + bnorm) * tau
                    and _norm(rx) <= st.tol * (1.0 + cnorm) * tau
                    and abs(cx + by) <= st.tol * (tau + abs(cx) + abs(by))):
                status = "optimal"
                break
            if by < 0.0 and _norm(aty) <= _INFEAS_TOL * max(1.0, cnorm) * -by:
                return Solution(np.full_like(c, np.nan), y / -by, np.full_like(b, np.nan),
                                "infeasible", float("nan"), (float("nan"),) * 3, it)
            if cx < 0.0 and _norm(axs) <= _INFEAS_TOL * max(1.0, bnorm) * -cx:
                return Solution(x / -cx, np.full_like(b, np.nan), np.full_like(b, np.nan),
                                "unbounded", float("-inf"), (float("nan"),) * 3, it)
            if it == st.max_iter:
                break
            try:
                x, y, s, tau, kappa = _newton_step(
                    ops, b, c, _Scaling(plan, s, y), x, y, s, tau, kappa, rx, rm, kappa + cx + by)
            except (np.linalg.LinAlgError, FloatingPointError):
                status = "inaccurate"
                break
    x, y, s = x / tau, y / tau, s / tau
    sol = Solution(x, y, s, status, float(c @ x), (), it)
    return replace(sol, residuals=_residuals(program, a, sol))


def _newton_step(ops, b, c, scaling, x, y, s, tau, kappa, rx, rm, rt):
    """One Mehrotra predictor-corrector step of the embedding. With ~ for W^-T
    and dw = W dy, the direction solves  G'dw + c dtau = -eta rx,
    G dx + ds~ - b~ dtau = -eta rm~,  dkappa + c'dx + b~'dw = -eta rt,
    lam o (ds~ + dw) = ds_target (ds~ = 0 on zero rows) and
    kappa dtau + tau dkappa = dk_target, as [dx; dw] = v1 + dtau v2 with
    K v2 = [-c; b~]; it goes _STEP of the way to the cone boundary."""
    plan, lam = scaling.plan, scaling.lam
    system = ops.system(scaling)
    bt, rmt = scaling.apply(np.stack([b, rm], axis=1), inverse=True, transpose=True).T
    mu = (lam @ lam + tau * kappa) / (plan.unit @ plan.unit + 1.0)
    v2x, v2w = system.solve(-c, bt)
    denom = c @ v2x + bt @ v2w - kappa / tau

    def direction(eta, ds_target, dk_target):
        shift = scaling.ldiv(ds_target)
        v1x, v1w = system.solve(-eta * rx, -eta * rmt - shift)
        dtau = (-eta * rt - dk_target / tau - c @ v1x - bt @ v1w) / denom
        dx, dw = v1x + dtau * v2x, v1w + dtau * v2w
        ds = (shift - dw) * plan.cone
        dkappa = (dk_target - kappa * dtau) / tau
        t = max(scaling.max_step(ds, dw), -dtau / tau, -dkappa / kappa, 0.0)
        return dx, dw, ds, dtau, dkappa, t

    lam_sq = plan.circ(lam, lam)
    _, dw_a, ds_a, dtau_a, dkappa_a, t = direction(1.0, -lam_sq, -tau * kappa)
    sigma = (1.0 - min(1.0, 1.0 / t if t > 0.0 else 1.0)) ** 3
    dx, dw, ds, dtau, dkappa, t = direction(
        1.0 - sigma, -lam_sq - plan.circ(ds_a, dw_a) + sigma * mu * plan.unit,
        -tau * kappa - dtau_a * dkappa_a + sigma * mu)
    alpha = min(1.0, _STEP / t) if t > 0.0 else 1.0
    return (x + alpha * dx, y + alpha * scaling.apply(dw, inverse=True),
            s + alpha * scaling.apply(ds, transpose=True), tau + alpha * dtau, kappa + alpha * dkappa)


def accepted(sol: Solution, what: str) -> Solution:
    """The callers' status rule: an optimal solution passes, any other status
    raises ParameterError naming the solve."""
    if sol.status != "optimal":
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
        # the triplets (row, col, value) of A in row order, and b
        self._a_rows: list[int] = []
        self._a_cols: list[int] = []
        self._a_vals: list[float] = []
        self._rhs: list[float] = []
        self._cones: list[Cone] = []
        self._nvars = 0

    def add_vars(self, count: int, obj=0.0) -> np.ndarray:
        idx = np.arange(self._nvars, self._nvars + count)
        self._nvars += count
        objv = np.broadcast_to(np.asarray(obj, dtype=float), (count,))
        for i, j in enumerate(idx):
            if objv[i] != 0.0:
                self._obj[int(j)] = self._obj.get(int(j), 0.0) + float(objv[i])
        return idx

    def add_objective(self, col: int, coef: float):
        self._obj[int(col)] = self._obj.get(int(col), 0.0) + float(coef)

    def _append(self, kind: str, exprs: list, dim: int):
        """One row per expression, with slack equal to minus the expression,
        forming the cone (kind, dim)."""
        for e in exprs:
            self._a_rows.extend([len(self._rhs)] * len(e.terms))
            self._a_cols.extend(e.terms)
            self._a_vals.extend(e.terms.values())
            self._rhs.append(-e.const)
        self._close(kind, dim)

    def _close(self, kind: str, dim: int):
        """The cone (kind, dim) of the rows just appended; zero and
        nonnegative rows join a preceding block of their kind."""
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
        c = np.zeros(self._nvars)
        for j, val in self._obj.items():
            c[j] = val
        return ConicProgram(
            c=c,
            a_rows=np.asarray(self._a_rows, dtype=int),
            a_cols=np.asarray(self._a_cols, dtype=int),
            a_vals=np.asarray(self._a_vals, dtype=float),
            b=np.asarray(self._rhs, dtype=float),
            cones=tuple(self._cones),
        )


class LinExpr:
    """Affine expression sum_j coef_j x_j + const over builder variables."""

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict | None = None, const: float = 0.0):
        self.terms = {int(k): float(v) for k, v in (terms or {}).items() if v != 0.0}
        self.const = float(const)

    @staticmethod
    def _clean(terms: dict, const: float) -> "LinExpr":
        """An expression from already clean terms (int -> nonzero float)."""
        expr = object.__new__(LinExpr)
        expr.terms = terms
        expr.const = const
        return expr

    @staticmethod
    def var(col, coef: float = 1.0) -> "LinExpr":
        return LinExpr._clean({int(col): float(coef)} if coef != 0.0 else {}, 0.0)

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
        return LinExpr._clean(terms, const)

    @staticmethod
    def dot(cols, coefs) -> "LinExpr":
        """sum_k coefs[k] x_{cols[k]}; zero coefficients add no term."""
        return LinExpr.sum(LinExpr.var(col, coef) for col, coef in zip(cols, coefs))

    def __add__(self, other):
        other = LinExpr.of(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        if len(terms) < len(self.terms) + len(other.terms):
            # only a column both sides share can cancel to zero
            terms = {k: v for k, v in terms.items() if v != 0.0}
        return LinExpr._clean(terms, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return LinExpr._clean({k: -v for k, v in self.terms.items()}, -self.const)

    def __sub__(self, other):
        return self + (-LinExpr.of(other))

    def __rsub__(self, other):
        return LinExpr.of(other) + (-self)

    def __mul__(self, scalar):
        s = float(scalar)
        terms = {k: p for k, v in self.terms.items() if (p := s * v) != 0.0}
        return LinExpr._clean(terms, s * self.const)

    __rmul__ = __mul__
