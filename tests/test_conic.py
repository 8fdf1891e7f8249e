"""Conic solver: statuses, residuals, LP and SDP solves, svec, program building."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from gaugekit import conic
from gaugekit.conic import (
    Cone,
    ConicProgram,
    LinExpr,
    ProgramBuilder,
    SolveSettings,
    residuals,
    solve,
    svec,
    unsvec,
)
from gaugekit.errors import DimensionError, ParameterError
from gaugekit.gauge import (
    CvarGauge,
    Hemimetric,
    Intersect,
    L2Ball,
    Lipschitz,
    MinkowskiSum,
    Polar,
    Scale,
    TotalVariation,
)
from gaugekit.oracle import reference_lp
from gaugekit.reformulate import ReweightingProblem, build_dual, build_primal
from gaugekit.space import sample_uniform_box, uniform_space

from program_checks import linexpr_envelope


def lp_min_x_geq_1():
    b = ProgramBuilder()
    x = b.add_vars(1, obj=1.0)[0]
    b.le(1.0 - LinExpr.var(x))
    return b.build()


@pytest.fixture
def within_50_iterations(monkeypatch):
    """Every solve the test makes must stop within 50 iterations."""
    def checked(program, settings=None):
        sol = conic.solve(program, settings)
        assert 0 < sol.iterations <= 50, f"{sol.status} after {sol.iterations} iterations"
        return sol
    monkeypatch.setitem(globals(), "solve", checked)


@pytest.mark.usefixtures("within_50_iterations")
class TestTrivialPrograms:
    def test_min_x_subject_to_floor(self):
        sol = solve(lp_min_x_geq_1())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-7)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_soc_norm(self):
        # min t st (t, 3, 4) in soc -> t = 5
        b = ProgramBuilder()
        t = b.add_vars(1, obj=1.0)[0]
        b.soc([LinExpr.var(t), LinExpr.of(3.0), LinExpr.of(4.0)])
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(5.0, abs=1e-6)

    def test_psd_two_by_two(self):
        # min t st [[t,1],[1,t]] >> 0 -> t = 1; svec scales the off-diagonal
        b = ProgramBuilder()
        t = b.add_vars(1, obj=1.0)[0]
        b.psd(2, [LinExpr.var(t), LinExpr.of(np.sqrt(2.0)), LinExpr.var(t)])
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-6)

    def test_side_eleven_sdp_finds_the_largest_eigenvalue(self):
        # min t st t I - S >> 0 -> t = lambda_max(S)
        rng = np.random.default_rng(8)
        side = 11
        s = rng.normal(size=(side, side))
        s = 0.5 * (s + s.T)
        b = ProgramBuilder()
        t = b.add_vars(1, obj=1.0)[0]
        neg = svec(-s)
        b.psd(side, [LinExpr.var(t) + neg[k] if i == j else LinExpr.of(neg[k])
                     for k, (i, j) in enumerate(conic.svec_indices(side))])
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(np.linalg.eigvalsh(s)[-1], abs=1e-6)

    def test_infeasible_detected(self):
        # x >= 1 and x <= 0
        b = ProgramBuilder()
        x = b.add_vars(1, obj=1.0)[0]
        b.le(1.0 - LinExpr.var(x))
        b.le(LinExpr.var(x) - 0.0 + 0.0)
        sol = solve(b.build())
        assert sol.status == "infeasible"

    def test_unbounded_detected(self):
        # min -x st x >= 0
        b = ProgramBuilder()
        x = b.add_vars(1, obj=-1.0)[0]
        b.nonneg_var(int(x))
        sol = solve(b.build())
        assert sol.status == "unbounded"


class TestResiduals:
    def test_exact_solution_clean(self):
        prog = lp_min_x_geq_1()
        sol = solve(prog)
        pr, du, gap = residuals(prog, sol)
        assert pr <= 1e-7 and du <= 1e-7 and gap <= 1e-6

    def test_perturbed_x_shows_up(self):
        prog = lp_min_x_geq_1()
        sol = solve(prog)
        bumped = conic.Solution(
            x=sol.x + 0.1, y=sol.y, s=sol.s, status=sol.status,
            value=sol.value, residuals=sol.residuals)
        pr, _, _ = residuals(prog, bumped)
        assert pr == pytest.approx(0.1, abs=1e-6)

    def test_zero_vectors_give_norm_b(self):
        prog = lp_min_x_geq_1()
        zero = conic.Solution(
            x=np.zeros(1), y=np.zeros(prog.b.size), s=np.zeros(prog.b.size),
            status="optimal", value=0.0, residuals=(0, 0, 0))
        pr, _, _ = residuals(prog, zero)
        assert pr == pytest.approx(np.linalg.norm(prog.b), abs=1e-12)


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for side in (1, 2, 3, 5, 8):
            m = rng.normal(size=(side, side))
            m = 0.5 * (m + m.T)
            np.testing.assert_allclose(unsvec(svec(m), side), m, atol=1e-12)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=(4, 4))
        b = 0.5 * (b + b.T)
        assert svec(a) @ svec(b) == pytest.approx(np.sum(a * b), rel=1e-12)


@pytest.mark.usefixtures("within_50_iterations")
class TestLpReferenceAgreement:
    def test_random_lps_match_simplex_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 21))
            a = rng.normal(size=(m, n))
            x_feas = rng.uniform(0.0, 1.0, n)
            bub = a @ x_feas + rng.uniform(0.1, 1.0, m)  # strictly feasible
            c = rng.normal(size=n)
            # box rows keep every instance bounded
            a_full = np.vstack([a, np.eye(n)])
            b_full = np.concatenate([bub, np.full(n, 2.0)])
            status, ref_val, _ = reference_lp(c, a_ub=a_full, b_ub=b_full)
            assert status == "optimal"
            b = ProgramBuilder()
            x = b.add_vars(n, obj=c)
            for col in x:
                b.nonneg_var(int(col))
            for i in range(a_full.shape[0]):
                b.le(sum(LinExpr.var(x[j], a_full[i, j]) for j in range(n)
                         if a_full[i, j] != 0.0) - b_full[i])
            sol = solve(b.build())
            assert sol.status == "optimal", f"trial {trial}"
            assert sol.value == pytest.approx(ref_val, abs=1e-7 * (1 + abs(ref_val)))

    def test_tighter_tolerance_is_consistent(self):
        rng = np.random.default_rng(6)
        n, m = 8, 5
        a = rng.normal(size=(m, n))
        bub = a @ rng.uniform(0.0, 1.0, n) + 0.5
        c = rng.normal(size=n)
        b = ProgramBuilder()
        x = b.add_vars(n, obj=c)
        for col in x:
            b.nonneg_var(int(col))
        for i in range(m):
            b.le(sum(LinExpr.var(x[j], a[i, j]) for j in range(n)) - bub[i])
        prog = b.build()
        loose = solve(prog, SolveSettings(tol=1e-6))
        tight = solve(prog, SolveSettings(tol=1e-7))
        assert abs(loose.value - tight.value) <= 10 * 1e-6 * (1 + abs(loose.value))


def _bits(expr):
    """Terms in dict order and the constant, as exact float bits."""
    return [(k, v.hex()) for k, v in expr.terms.items()], expr.const.hex()


def _program_arrays(prog):
    return (prog.c, prog.a_rows, prog.a_cols, prog.a_vals, prog.b)


class TestBuilderRowPath:
    def test_linexpr_sum_matches_the_builtin_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            # few columns, so columns are shared between the summands
            exprs = [LinExpr({int(k): v for k, v in zip(rng.integers(0, 5, 3), rng.normal(size=3))},
                             rng.normal()) for _ in range(int(rng.integers(1, 9)))]
            assert _bits(LinExpr.sum(exprs)) == _bits(sum(exprs))
            assert _bits(LinExpr.sum(iter(exprs))) == _bits(sum(exprs))

    def test_linexpr_sum_drops_and_readds_cancelled_terms_as_the_builtin_sum(self):
        # column 3 cancels to exactly zero after two summands and comes back
        # after column 7, so it moves behind 7 in the builtin sum's dict order
        exprs = [LinExpr.var(3, 0.5) + 1.5, LinExpr.var(3, -0.5) - 1.5,
                 LinExpr.var(7, 2.0), 0.25, LinExpr.var(3, 0.125)]
        got, want = LinExpr.sum(exprs), sum(exprs)
        assert _bits(got) == _bits(want)
        assert list(got.terms) == [7, 3]
        assert got.const == 0.25
        # a constant that cancels
        cancel = [LinExpr.var(1) - 2.0, 2.0]
        assert _bits(LinExpr.sum(cancel)) == _bits(sum(cancel))
        # negated columns carry a constant of -0.0; the builtin sum starts
        # from 0 and so ends on +0.0
        negs = [-LinExpr.var(1), -LinExpr.var(2)]
        assert _bits(LinExpr.sum(negs)) == _bits(sum(negs))
        assert not np.signbit(LinExpr.sum(negs).const)
        assert _bits(LinExpr.sum([])) == ([], (0.0).hex())

    def test_dot_matches_a_sum_of_scaled_columns(self):
        cols = np.array([4, 2, 4, 9])
        coefs = np.array([1.5, 0.0, -1.5, 3.0])
        want = sum(LinExpr.var(c, v) for c, v in zip(cols, coefs) if v != 0.0)
        assert _bits(LinExpr.dot(cols, coefs)) == _bits(want)
        assert LinExpr.dot(cols, coefs).terms == {9: 3.0}

    def test_nonneg_var_array_matches_single_columns(self):
        def build(array_form):
            b = ProgramBuilder()
            x = b.add_vars(5, obj=np.arange(5.0))
            b.eq(LinExpr.var(x[0]) + LinExpr.var(x[4]) - 1.0)
            if array_form:
                b.nonneg_var(x[:3])
                b.nonneg_var(x[:0])
            else:
                for col in x[:3]:
                    b.nonneg_var(int(col))
            b.le(LinExpr.var(x[3]) - 2.0)
            b.nonneg_var(x[4] if array_form else int(x[4]))
            return b.build()

        single, array = build(False), build(True)
        for want, got in zip(_program_arrays(single), _program_arrays(array)):
            assert want.dtype == got.dtype
            np.testing.assert_array_equal(want, got)
        assert np.signbit(array.b).tolist() == np.signbit(single.b).tolist()
        # the le row and the nonnegative rows around it share one block
        assert array.cones == single.cones == (Cone("zero", 1), Cone("nonneg", 5))

    def test_empty_array_adds_no_rows(self):
        b = ProgramBuilder()
        b.add_vars(2)
        b.nonneg_var(np.array([], dtype=int))
        prog = b.build()
        assert prog.num_rows == 0 and prog.cones == ()

    def test_empty_soc_and_wrong_psd_row_count_are_rejected(self):
        b = ProgramBuilder()
        t = b.add_vars(1)[0]
        with pytest.raises(ParameterError):
            b.soc([])
        with pytest.raises(DimensionError):
            b.psd(2, [LinExpr.var(t), LinExpr.var(t)])
        assert b.build().num_rows == 0


class TestReducedSystemAssembly:
    """H built from the sparsity of A against the dense (W^-T A)_K' (W^-T A)_K."""

    @staticmethod
    def random_program(rng, cones):
        rows = sum(cone.rows for cone in cones)
        n = int(rng.integers(1, 9))
        nnz = int(rng.integers(0, 3 * rows + 1))
        r, c = rng.integers(0, rows, nnz), rng.integers(0, n, nnz)
        v = rng.normal(size=nnz) * (rng.random(nnz) < 0.9)  # some explicit zeros
        # repeat some triplets, so duplicate (row, col) entries are summed
        dup = rng.integers(0, max(nnz, 1), int(rng.integers(0, 4))) if nnz else np.zeros(0, int)
        return ConicProgram(c=np.zeros(n), a_rows=np.r_[r, r[dup]], a_cols=np.r_[c, c[dup]],
                            a_vals=np.r_[v, rng.normal(size=len(dup))], b=np.zeros(rows),
                            cones=cones)

    @staticmethod
    def large_program(rng):
        """A program above the sparse cut: zero and nonnegative rows of at most
        three entries (some rows empty, some triplets repeated), and
        second-order and PSD blocks that touch a few columns each."""
        n = int(rng.integers(45, 60))
        cones = (Cone("zero", 30), Cone("nonneg", int(rng.integers(700, 900))), Cone("soc", 4),
                 Cone("psd", 3), Cone("nonneg", 5), Cone("soc", 3), Cone("psd", 2))
        r, c, at = [], [], 0
        for cone in cones:
            if cone.kind in ("soc", "psd"):
                cols = rng.choice(n, int(rng.integers(1, 5)), replace=False)
                r.append(np.repeat(np.arange(at, at + cone.rows), len(cols)))
                c.append(np.tile(cols, cone.rows))
            else:
                per = rng.integers(0, 4, cone.rows)
                r.append(np.repeat(np.arange(at, at + cone.rows), per))
                c.append(rng.integers(0, n, int(per.sum())))
            at += cone.rows
        r, c = np.concatenate(r), np.concatenate(c)
        v = rng.normal(size=len(r)) * (rng.random(len(r)) < 0.9)  # some explicit zeros
        dup = rng.integers(0, len(r), 40)
        return ConicProgram(c=np.zeros(n), a_rows=np.r_[r, r[dup]], a_cols=np.r_[c, c[dup]],
                            a_vals=np.r_[v, rng.normal(size=len(dup))], b=np.zeros(at),
                            cones=cones)

    @staticmethod
    def interior(rng, cones):
        out = []
        for cone in cones:
            if cone.kind in ("zero", "nonneg"):
                out.append(rng.uniform(0.1, 3.0, cone.dim))
            elif cone.kind == "soc":
                rest = rng.normal(size=cone.dim - 1)
                out.append(np.r_[np.linalg.norm(rest) + rng.uniform(0.1, 1.0), rest])
            else:
                f = rng.normal(size=(cone.dim, cone.dim))
                out.append(svec(f @ f.T + 0.1 * np.eye(cone.dim)))
        return np.concatenate(out)

    def test_pattern_assembly_matches_the_dense_product(self):
        rng = np.random.default_rng(21)
        kinds = [lambda: Cone("zero", int(rng.integers(1, 4))),
                 lambda: Cone("nonneg", int(rng.integers(1, 7))),
                 lambda: Cone("soc", int(rng.integers(2, 5))),
                 lambda: Cone("psd", int(rng.integers(2, 4)))]
        for trial in range(60):
            picks = rng.integers(0, 4, int(rng.integers(1, 6)))
            if trial % 4 == 0:
                picks = picks[picks != 1]  # no nonnegative block
            cones = tuple(kinds[k]() for k in picks) or (Cone("soc", 3),)
            prog = self.random_program(rng, cones)
            a = prog.dense_matrix()
            plan = conic._ConePlan(cones)
            s, z = self.interior(rng, cones), self.interior(rng, cones)
            scaling = conic._Scaling(plan, s, z)
            g = np.column_stack([scaling.apply(col, inverse=True, transpose=True) for col in a.T])
            g[plan.nonneg] = a[plan.nonneg] * np.sqrt(z[plan.nonneg] / s[plan.nonneg])[:, None]
            gk = g[plan.cone == 1.0]
            want = gk.T @ gk
            got = conic._gram(a.shape[1], conic._pairs(sparse.csr_array(a), plan.nonneg), scaling,
                              scaling.apply(a, inverse=True, transpose=True)[plan.curved],
                              np.s_[:, :], np.empty_like(want))
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), f"trial {trial}"

    def test_sparse_side_matches_the_dense_product(self):
        rng = np.random.default_rng(22)
        for trial in range(6):
            prog = self.large_program(rng)
            a = prog.dense_matrix()
            assert a.size > conic._SPARSE_CUT
            plan = conic._ConePlan(prog.cones)
            ops = conic._Operators(prog, plan)
            assert sparse.issparse(ops.a) and sparse.issparse(ops.g)
            for refill in range(2):  # G's values are refilled in place
                s, z = self.interior(rng, prog.cones), self.interior(rng, prog.cones)
                scaling = conic._Scaling(plan, s, z)
                g = scaling.apply(a, inverse=True, transpose=True)
                gk = g[plan.cone == 1.0]
                g_sparse, gt_sparse, gc = ops.scaled(scaling)
                u, w = rng.normal(size=a.shape[1]), rng.normal(size=a.shape[0])
                for got, want in [(g_sparse @ u, g @ u), (gt_sparse @ w, g.T @ w),
                                  (ops.a @ u, a @ u), (ops.at @ w, a.T @ w),
                                  (conic._gram(a.shape[1], ops.pairs, scaling, gc, ops.block,
                                               np.empty((a.shape[1],) * 2)), gk.T @ gk)]:
                    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), \
                        f"trial {trial}, refill {refill}"


class TestKktSolve:
    def test_rank_deficient_zero_rows_solve_to_a_small_residual(self):
        """Zero rows whose last is minus the sum of the others make K
        singular; a right-hand side in its range must still be solved to a
        small residual against the unregularised K, with an NT scaling whose
        complementarity s_i z_i is about mu, mu down to 1e-6, and half the
        nonnegative rows active (s_i small) and half inactive (z_i small).
        The programs are all below the size cut."""
        rng = np.random.default_rng(5)
        for draw in range(200):
            n, p = int(rng.integers(4, 13)), int(rng.integers(2, 5))
            q = int(rng.integers(n, 3 * n + 1))
            e = rng.normal(size=(p - 1, n))
            a = np.vstack([e, -e.sum(axis=0), rng.normal(size=(q, n))])
            rows, cols = np.nonzero(a)
            prog = ConicProgram(c=np.zeros(n), a_rows=rows, a_cols=cols, a_vals=a[rows, cols],
                                b=np.zeros(p + q), cones=(Cone("zero", p), Cone("nonneg", q)))
            mu = 10.0 ** rng.uniform(-6.0, 0.0)
            s = np.where(rng.random(q) < 0.5, mu, 1.0) * rng.uniform(0.5, 2.0, q)
            z = mu / s * rng.uniform(0.5, 2.0, q)
            plan = conic._ConePlan(prog.cones)
            system = conic._Operators(prog, plan).system(
                conic._Scaling(plan, np.r_[np.ones(p), s], np.r_[np.ones(p), z]))
            g = np.vstack([a[:p], a[p:] * np.sqrt(z / s)[:, None]])
            k = np.block([[np.zeros((n, n)), g.T], [g, -np.diag(np.r_[np.zeros(p), np.ones(q)])]])
            # a right-hand side in K's range: its zero-row part has no
            # component along the null vector of E'
            rhs = rng.normal(size=n + p + q)
            null = np.linalg.svd(a[:p].T)[2][-1]
            rhs[n:n + p] -= (rhs[n:n + p] @ null) * null
            ux, uw = system.solve(rhs[:n], rhs[n:])
            residual = np.linalg.norm(k @ np.r_[ux, uw] - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-6, f"draw {draw}: relative residual {residual:.2e}"


# the duality suite's gauges, in its order (tests/test_acceptance.py)
DUALITY_CATALOGUE = [
    L2Ball(),
    CvarGauge(0.5),
    CvarGauge(0.8),
    TotalVariation(),
    Polar(Lipschitz(Hemimetric.pnorm(1.0))),
    Scale(0.7, L2Ball()),
    Intersect((L2Ball(), Scale(0.5, TotalVariation()))),
    MinkowskiSum([(0.5, L2Ball()), (0.5, TotalVariation())]),
]


class TestSizeCut:
    def test_both_sides_of_the_cut_agree(self, monkeypatch):
        """The primal and dual of the duality suite's first 16 draws, solved
        with every A dense (whole-K factor) and with every A sparse (reduced
        system), end with the same statuses and values."""
        rng = np.random.default_rng(1001)
        programs = []
        for trial in range(16):
            n = int(rng.integers(4, 9))
            points = np.sort(rng.uniform(0.0, 3.0, n))
            cost = rng.normal(size=n) * 2.0
            eps = float(rng.uniform(0.0, 2.0))
            prob = ReweightingProblem(uniform_space(points), cost,
                                      DUALITY_CATALOGUE[trial % len(DUALITY_CATALOGUE)], eps)
            programs += [build_primal(prob), build_dual(prob)]
        sides = []
        for cut in (2 ** 40, 0):
            monkeypatch.setattr(conic, "_SPARSE_CUT", cut)
            assert all(sparse.issparse(conic._matrix(prog)) == (cut == 0) for prog in programs)
            sides.append([solve(prog) for prog in programs])
        for i, (dense, sparse_side) in enumerate(zip(*sides)):
            assert dense.status == sparse_side.status, f"program {i}"
            assert abs(dense.value - sparse_side.value) <= 1e-9 * (1.0 + abs(dense.value)), \
                f"program {i}: {dense.value} dense, {sparse_side.value} sparse"

    def test_cut_counts_the_entries_of_k(self):
        """A 257 x 18 program has m n = 4626 <= 2^15 entries in A but
        (m + n)^2 = 75625 > 2^15 in K, so A is stored sparse."""
        space = sample_uniform_box(0.0, 3.0, 16, 11)
        prog = linexpr_envelope(space, space.points[:, 0], space.points, Hemimetric.pnorm(1.0), 0.5)
        m, n = prog.num_rows, prog.num_vars
        assert (m, n) == (257, 18)
        assert m * n <= conic._SPARSE_CUT < (m + n) ** 2
        assert sparse.issparse(conic._matrix(prog))


class TestAboveTheCut:
    def test_envelope_program_is_solved_without_a_dense_matrix(self):
        """The 64-sample envelope LP, 4097 x 66, has the closed form
        min(mean + eps, max) for an identity cost under an absolute-difference
        transport ball; its solve peaks below one dense copy of A."""
        space = sample_uniform_box(0.0, 3.0, 64, 11)
        x = space.points[:, 0]
        prog = linexpr_envelope(space, x, space.points, Hemimetric.pnorm(1.0), 0.5)
        assert (prog.num_rows, prog.num_vars) == (4097, 66)
        tracemalloc.start()
        try:
            sol = solve(prog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = min(float(x.mean()) + 0.5, float(x.max()))
        assert sol.status == "optimal"
        assert abs(sol.value - want) <= 1e-6 * (1.0 + abs(want))
        assert peak < 8 * prog.num_rows * prog.num_vars  # 2.16 MB


class TestProgramChecks:
    def test_cone_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ConicProgram(
                c=np.array([1.0]),
                a_rows=np.array([0]), a_cols=np.array([0]), a_vals=np.array([1.0]),
                b=np.array([1.0, 2.0]),
                cones=(Cone("nonneg", 1),),
            )

    def test_deterministic_given_settings(self):
        prog = lp_min_x_geq_1()
        a = solve(prog, SolveSettings())
        b = solve(prog, SolveSettings())
        np.testing.assert_array_equal(a.x, b.x)
        assert a.value == b.value
