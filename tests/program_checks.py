"""Shared test helpers: an array-for-array comparison of conic programs, and
the envelope program written as a conic LP, the reference that the exact
envelope rule and the solver's large-program path are checked against."""

import numpy as np

from gaugekit.conic import LinExpr, ProgramBuilder


def assert_same_program(got, want):
    """got and want hold the same cones and, bit for bit, the same c,
    triplets and b (signed zeros included)."""
    assert got.cones == want.cones
    for name in ("c", "a_rows", "a_cols", "a_vals", "b"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert np.signbit(g).tolist() == np.signbit(w).tolist(), name


def linexpr_envelope(space, f, samples, metric, price):
    """The envelope program written one LinExpr row at a time: alpha, gamma
    >= 0, the levels s, then f_j - alpha - s_i - gamma c(j, i) <= 0 in row
    j * m + i. Minimizing alpha + price gamma + mean(s) gives the envelope
    value, and the LP is unbounded exactly when the program is."""
    b = ProgramBuilder()
    alpha = int(b.add_vars(1, obj=1.0)[0])
    gamma = int(b.add_vars(1, obj=price)[0])
    b.nonneg_var(gamma)
    m = len(samples)
    s = b.add_vars(m, obj=1.0 / m)
    cost = metric.matrix(space.points, samples)
    for j in range(space.size):
        for i in range(m):
            b.le(f[j] - LinExpr.var(alpha) - LinExpr.var(int(s[i])) - LinExpr.var(gamma, cost[j, i]))
    return b.build()
