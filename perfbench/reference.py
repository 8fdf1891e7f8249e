"""Reference values computed apart from gaugekit, with numpy and scipy only.

Each function prices a worst case over uniform weights by a method that
shares no code with the package: sorting, a greedy mass move, a closed form,
a HiGHS transport-plan LP, or a grid sweep. The benchmark compares the program's outputs with these values
outside its timed region.
"""

import numpy as np
from scipy.optimize import linprog


def capped_tail_average(f, cap):
    """max E[nu f] over 0 <= nu <= cap, E[nu] = 1, uniform weights, by sorting."""
    f = np.sort(np.asarray(f, dtype=float))[::-1]
    p = 1.0 / len(f)
    mass, value = 1.0, 0.0
    for fi in f:
        take = min(cap * p, mass)
        value += take * fi
        mass -= take
        if mass <= 0.0:
            break
    return value


def tv_swap(f, eps):
    """Worst case over E|nu - 1| <= eps: move eps / 2 of mass onto the top atom."""
    f = np.asarray(f, dtype=float)
    p = 1.0 / len(f)
    top = int(np.argmax(f))
    budget = min(eps / 2.0, 1.0 - p)
    value = float(np.mean(f))
    for i in np.argsort(f):
        if i == top or budget <= 0.0:
            continue
        moved = min(p, budget)
        value += moved * (f[top] - f[i])
        budget -= moved
    return value


def chi2_closed_form(f, radius):
    """Mean plus radius standard deviations, or None when the maximiser
    1 + radius (f - mean) / std would turn negative."""
    f = np.asarray(f, dtype=float)
    mean = float(np.mean(f))
    std = float(np.sqrt(np.mean((f - mean) ** 2)))
    if std == 0.0:
        return mean
    if np.min(1.0 + radius * (f - mean) / std) < 0.0:
        return None
    return mean + radius * std


def w1_transport(points, f, eps):
    """Worst case over a transport ball with |x - y| cost, as a plan LP."""
    x = np.asarray(points, dtype=float).ravel()
    f = np.asarray(f, dtype=float)
    n = len(x)
    # plan[i, j]: mass moved to atom i from atom j
    a_eq = np.zeros((n, n * n))
    for j in range(n):
        a_eq[j, j::n] = 1.0
    cost = np.abs(x[:, None] - x[None, :]).ravel()
    res = linprog(-np.repeat(f, n), A_ub=cost[None, :], b_ub=[eps],
                  A_eq=a_eq, b_eq=np.full(n, 1.0 / n), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport reference LP: {res.message}")
    return -float(res.fun)


def grid_tail_average(samples, lower, upper, beta, resolution=41):
    """Best empirical tail average of the Manhattan distance over a grid of
    facility spots, with numpy sorting."""
    pts = np.asarray(samples, dtype=float)
    m = len(pts)
    axes = [np.linspace(lower[i], upper[i], resolution) for i in range(2)]
    gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
    spots = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist = np.abs(spots[:, None, :] - pts[None, :, :]).sum(axis=2)
    dist = -np.sort(-dist, axis=1)
    # the worst (1 - beta) share of the samples, each of weight 1 / m
    take = np.clip((1.0 - beta) - np.arange(m) / m, 0.0, 1.0 / m)
    return float(np.min(dist @ take) / (1.0 - beta))
