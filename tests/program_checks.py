"""Shared assertion for tests that pin a conic program array for array."""

import numpy as np


def assert_same_program(got, want):
    """got and want hold the same cones and, bit for bit, the same c,
    triplets and b (signed zeros included)."""
    assert got.cones == want.cones
    for name in ("c", "a_rows", "a_cols", "a_vals", "b"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert np.signbit(g).tolist() == np.signbit(w).tolist(), name
