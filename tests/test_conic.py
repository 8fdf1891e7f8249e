"""Conic solver: cone projections, statuses, residuals, LP reference agreement."""

import numpy as np
import pytest

from gaugekit import conic
from gaugekit.conic import (
    Cone,
    ConicProgram,
    LinExpr,
    ProgramBuilder,
    SolveSettings,
    dump_program,
    project_cone,
    residuals,
    solve,
    svec,
    unsvec,
)
from gaugekit.errors import DimensionError, ParameterError
from gaugekit.oracle import reference_lp


def lp_min_x_geq_1():
    b = ProgramBuilder()
    x = b.add_vars(1, obj=1.0)[0]
    b.le(1.0 - LinExpr.var(x))
    return b.build()


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


class TestConeProjections:
    def test_projection_idempotent_and_complementary(self):
        rng = np.random.default_rng(0)
        cones = (Cone("zero", 3), Cone("nonneg", 4), Cone("soc", 5), Cone("psd", 3))
        rows = 3 + 4 + 5 + 6
        for _ in range(50):
            v = rng.normal(scale=3.0, size=rows)
            for dual in (False, True):
                pv = project_cone(v, cones, dual=dual)
                again = project_cone(pv, cones, dual=dual)
                np.testing.assert_allclose(again, pv, atol=1e-9)
                # Moreau: v = proj_K(v) + (v - proj_K(v)), the second part in -K*
                rest = v - pv
                rest_in_polar = project_cone(-rest, cones, dual=not dual)
                np.testing.assert_allclose(rest_in_polar, -rest, atol=1e-9)
                assert abs(pv @ rest) <= 1e-9 * (1 + v @ v)

    def test_psd_projection_matches_eigh(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            m = 0.5 * (m + m.T)
            v = svec(m)
            proj = project_cone(v, (Cone("psd", 4),), dual=False)
            lam, q = np.linalg.eigh(m)
            want = q @ np.diag(np.maximum(lam, 0.0)) @ q.T
            np.testing.assert_allclose(unsvec(proj, 4), want, atol=1e-9)


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


class TestBatchedPsdProjection:
    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        for side in (2, 3, 6, 10):
            mats = rng.normal(size=(3, side, side))
            mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
            rows = side * (side + 1) // 2
            proj = project_cone(np.concatenate([svec(m) for m in mats]),
                                (Cone("psd", side),) * 3, dual=False)
            for blk, m in enumerate(mats):
                lam, q = np.linalg.eigh(m)
                want = (q * np.maximum(lam, 0.0)) @ q.T
                got = unsvec(proj[blk * rows:(blk + 1) * rows], side)
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_side_beyond_ten(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(12, 12))
        m = 0.5 * (m + m.T)
        lam, q = np.linalg.eigh(m)
        want = (q * np.maximum(lam, 0.0)) @ q.T
        proj = project_cone(svec(m), (Cone("psd", 12),), dual=False)
        np.testing.assert_allclose(unsvec(proj, 12), want, atol=1e-9)

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


class TestConePlan:
    CONES = (Cone("zero", 2), Cone("psd", 2), Cone("nonneg", 3), Cone("soc", 4),
             Cone("psd", 3), Cone("zero", 1), Cone("psd", 2), Cone("soc", 3),
             Cone("nonneg", 2), Cone("psd", 3), Cone("psd", 2))

    @staticmethod
    def reference(z, cones, dual):
        out = []
        at = 0
        for cone in cones:
            blk = z[at:at + cone.rows]
            if cone.kind == "zero":
                out.append(blk if dual else np.zeros_like(blk))
            elif cone.kind == "nonneg":
                out.append(np.maximum(blk, 0.0))
            elif cone.kind == "soc":
                out.append(conic._project_soc(blk))
            else:
                lam, q = np.linalg.eigh(unsvec(blk, cone.dim))
                out.append(svec((q * np.maximum(lam, 0.0)) @ q.T))
            at += cone.rows
        return np.concatenate(out)

    def test_interleaved_blocks_match_per_block_reference(self):
        rng = np.random.default_rng(9)
        rows = sum(cone.rows for cone in self.CONES)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=rows)
            for dual in (False, True):
                np.testing.assert_allclose(project_cone(z, self.CONES, dual=dual),
                                           self.reference(z, self.CONES, dual), atol=1e-12)


class TestKktSolver:
    def test_solves_the_kkt_system_on_both_sides(self):
        rng = np.random.default_rng(10)
        for m, n in ((9, 4), (6, 6), (3, 8)):
            a = rng.normal(size=(m, n))
            gx, gy = rng.normal(size=n), rng.normal(size=m)
            zx, zy = conic._KktSolver(a).solve(gx, gy)
            np.testing.assert_allclose(zx + a.T @ zy, gx, atol=1e-10)
            np.testing.assert_allclose(-a @ zx + zy, gy, atol=1e-10)


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


class TestDump:
    def test_header_and_triplets(self):
        prog = lp_min_x_geq_1()
        text = dump_program(prog)
        lines = text.strip().splitlines()
        assert lines[0] == "# gaugekit conic program v1"
        assert any(line.startswith("cone") for line in lines)
        assert any(line.startswith("A ") for line in lines)
        # round numbers appear with full precision
        assert "1" in text
