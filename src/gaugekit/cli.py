"""Command-line front end: JSON configs in, tables and CSV reports out.

Usage::

    gaugekit <command> --config <path> [--out <csv>] [--seed N] [--tol X]

Commands
--------
duality-check
    Solve the worst-case reweighting problem along both routes (direct
    program and majorant certificate), print both values and the gap,
    which must be at most 1e-6 * (1 + |value|).
envelope-sweep
    Draw growing i.i.d. samples from the configured box, price the
    sample envelope program exactly at each size, and report the value, the
    transport deviation bound, and the gap to the analytic target when
    one is given, which must lie within the bound.
case-study
    Solve the facility-placement instance along the envelope route and
    the quadratic-certificate route; the quadratic row reads breach when
    its value falls below the envelope value by more than 1e-6. With all
    budgets at zero a grid-cvar row is appended, which reads ok when the
    envelope value matches the grid sweep to 1e-4 and breach otherwise.
verify
    Price the problem along each independent route that applies (an exact
    transport, sorted, greedy or closed rule, the conic dual when optimal,
    the walk, the scalar dual), each looking through positive scale factors
    into the radius. Each is checked against the first, at the larger
    tolerance, in a row <first>-vs-<other> that always names the dual second.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure. Every command prints a table with a status column, and that
column is the verdict: the command exits 2 exactly when some row's
status is not optimal, ok or surrogate. A numerical error raised before
the table is complete also exits 2, with its message on stderr. A --out
path that cannot be written is reported after the table and exits 1,
or 2 when a row failed.

Configuration
-------------
A single JSON object. Each key below is given by its path, [] standing
for every entry of a nonempty list, with the rule its value must meet.
A key set to null counts as absent. Every command reads the whole object
and exits 1 on the first key that breaks its rule. duality-check and
verify need space (points or a sampler), cost (values or an expression),
gauge and epsilon; envelope-sweep needs space.sampler, cost.expression, a
transport gauge, epsilon and samples.sizes; case-study needs every
case-instance key. verify adds rows for basis, stages and tau when given.
solver.* and --tol reach only the conic solves, those of duality-check,
case-study and verify; envelope-sweep needs no solver.

    seed                        integer; the seed in use must lie in
                                [0, 2**64); GAUGEKIT_SEED overrides this
                                key, --seed overrides both
    solver.tol                  finite and positive; --tol overrides it
    solver.max-iter             integer >= 1
    space.points                nonempty list of finite numbers or of
                                finite vectors
    space.weights               one per point, positive, summing to one;
                                uniform when absent
    space.sampler.lower         finite number or nonempty flat list
    space.sampler.upper         as lower, above it in every coordinate
    space.sampler.count         integer >= 1
    cost.values                 finite numbers, one per point
    cost.expression             string, see below
    gauge                       gauge expression string, see below
    epsilon                     finite and nonnegative
    samples.sizes[]             integer >= 1
    samples.target              finite; the analytic value the sweep nears
    basis.kind                  indicator-regions, piecewise-affine,
                                moment or singletons
    basis.boxes[]               [lo, hi] pair, a half-open box (see below);
                                the indicator-regions and piecewise-affine
                                kinds need boxes
    basis.order                 integer, 1 or 2; the moment kind needs it
    basis.points                list of points; the singletons kind needs it
    basis.nonneg                true or false; true only for the
                                indicator-regions and singletons kinds
    stages[].gauge              gauge expression string; outermost first
    stages[].epsilon            finite and nonnegative
    tau                         finite satisficing threshold
    case-instance.lower         city box lower corner, two numbers
    case-instance.upper         city box upper corner, two numbers
    case-instance.region-lower  district lower corners, one pair each
    case-instance.region-upper  district upper corners, one pair each
    case-instance.samples       incident samples, one pair each
    case-instance.delta         chi-square reweighting scale, >= 0
    case-instance.radii         transport radius of each district, >= 0
    case-instance.beta          tail level in (0, 1)

Cost expressions use the coordinates x0, x1, ... (x aliases x0), the
operators + - * / **, and the functions abs, min, max, sqrt, exp, log.

Gauge expressions
-----------------
S-expressions: an atom by lowercase name with positional parameters,
or a combinator applied to sub-expressions.

    atoms        tv, l2ball, l1ball, linfball, oscillation,
                 (cvar beta), (chi2 budget), (kl budget),
                 (divergence kind budget), (lipschitz metric),
                 (w1 metric), (wasserstein power metric radius),
                 (moment order [spectral])
    metrics      abs, euclid, indicator, (pnorm q)
    combinators  (scale c g), (intersect g ...), (sum (c g) ...),
                 (union g ...), (polar g)

Example: "(scale 0.5 (polar (lipschitz abs)))".

Basis blocks use half-open boxes: a point belongs to [lo, hi) in every
coordinate, so the final box must close strictly above the largest
point it should cover.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import conic
from . import gauge as gauges
from .casestudy import CaseInstance, grid_cvar_value, solve_case
from .conic import SolveSettings
from .envelope import convergence_sweep
from .errors import ConfigError, EncodingError, GaugekitError
from .funcparam import Basis, param_dual_value
from .oracle import (
    chi2_closed_form,
    cvar_sorted,
    frank_wolfe_primal,
    tv_greedy,
    w1_transport,
)
from .reformulate import (
    ReweightingProblem,
    build_dual,
    build_primal,
    composed_dual,
    divergence_dual_value,
    dual_solution,
    primal_solution,
    satisficing_dual,
    _unit_radius,
)
from .space import DiscreteSpace, expectation, sample_uniform_box, uniform_space

CSV_HEADER = "# gaugekit csv 1"

COMMANDS = ("duality-check", "envelope-sweep", "case-study", "verify")


# ---------------------------------------------------------------------------
# gauge expression parser


_TOKEN = re.compile(r"[()]|[^() \t\n]+")


def _parse_sexpr(text, field):
    """Nested lists of names and floats; a syntax error names its line and column."""

    def at(offset):
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        return f"line {line} column {column}"

    stack, opened = [[]], []
    for match in _TOKEN.finditer(text):
        token, offset = match.group(), match.start()
        if stack[0] and not opened:
            raise ConfigError(f"{field}: trailing input at {at(offset)}")
        if token == "(":
            stack.append([])
            opened.append(offset)
        elif token == ")":
            if not opened:
                raise ConfigError(f"{field}: unexpected ')' at {at(offset)}")
            opened.pop()
            node = stack.pop()
            stack[-1].append(node)
        else:
            try:
                stack[-1].append(float(token))
            except ValueError:
                stack[-1].append(token)
    if opened:
        raise ConfigError(
            f"{field}: unbalanced parenthesis opened at {at(opened[-1])}")
    if not stack[0]:
        raise ConfigError(f"{field}: empty gauge expression")
    return stack[0][0]


# head -> (constructor, argument kinds). A head with no kinds is written
# bare, any other as (head argument ...); the last kind may end in ? (it is
# optional) or + (it repeats, at least once).
_GRAMMAR = {
    "metric": {
        "abs": (lambda: gauges.Hemimetric.pnorm(1.0), ""),
        "euclid": (lambda: gauges.Hemimetric.pnorm(2.0), ""),
        "indicator": (gauges.Hemimetric.indicator, ""),
        "pnorm": (gauges.Hemimetric.pnorm, "number"),
    },
    "gauge": {
        "tv": (gauges.TotalVariation, ""),
        "l2ball": (gauges.L2Ball, ""),
        "l1ball": (gauges.L1Ball, ""),
        "linfball": (gauges.LinfBall, ""),
        "oscillation": (gauges.Oscillation, ""),
        "cvar": (gauges.CvarGauge, "number"),
        "chi2": (lambda budget: gauges.PhiDivergence("chi2", budget), "number"),
        "kl": (lambda budget: gauges.PhiDivergence("kl", budget), "number"),
        "divergence": (gauges.PhiDivergence, "name number"),
        "lipschitz": (gauges.Lipschitz, "metric"),
        "w1": (gauges.W1Ball, "metric"),
        "wasserstein": (gauges.WassersteinP, "number metric number"),
        "moment": (lambda order, norm="euclidean": gauges.MomentGauge(order, None, norm),
                   "integer spectral?"),
        "scale": (gauges.Scale, "number gauge"),
        "polar": (gauges.Polar, "gauge"),
        "intersect": (lambda *children: gauges.Intersect(children), "gauge+"),
        "union": (lambda *children: gauges.ConvexUnion(children), "gauge+"),
        "sum": (lambda *terms: gauges.MinkowskiSum(terms), "term+"),
    },
}

# kind -> the argument's value, or None when the node is not of the kind;
# a metric or gauge argument reports what is wrong inside it
_KINDS = {
    "number": lambda node, field: node if isinstance(node, float) else None,
    "integer": lambda node, field: (
        int(node) if isinstance(node, float) and node.is_integer() else None),
    "name": lambda node, field: node if isinstance(node, str) else None,
    "spectral": lambda node, field: node if node == "spectral" else None,
    "metric": lambda node, field: _build(node, "metric", field),
    "gauge": lambda node, field: _build(node, "gauge", field),
    "term": lambda node, field: (
        (node[0], _build(node[1], "gauge", field))
        if isinstance(node, list) and len(node) == 2 and isinstance(node[0], float)
        else None),
}


def _describe(node):
    if isinstance(node, float):
        return f"number {node:g}"
    if isinstance(node, str):
        return repr(node)
    return "(" + " ".join(_describe(n) for n in node) + ")"


def _build(node, what, field):
    """The metric or gauge that a parsed node names, read through _GRAMMAR."""
    if isinstance(node, str):
        head, args = node, []
    elif node and isinstance(node, list) and isinstance(node[0], str):
        head, args = node[0], node[1:]
    else:
        raise ConfigError(f"{field}: expected a {what}, got {_describe(node)}")
    if head not in _GRAMMAR[what]:
        raise ConfigError(f"{field}: unknown {what} {head!r}")
    make, spec = _GRAMMAR[what][head]
    kinds = [kind.rstrip("?+") for kind in spec.split()]
    least = len(kinds) - spec.endswith("?")
    most = math.inf if spec.endswith("+") else len(kinds)
    # a bare head takes no arguments, a head in parentheses at least one
    fits = isinstance(node, str) != bool(kinds) and least <= len(args) <= most
    values = [_KINDS[kind](arg, field)
              for kind, arg in zip(kinds + kinds[-1:] * len(args), args)] if fits else []
    if not fits or any(value is None for value in values):
        usage = f"({head} {spec})" if spec else head
        raise ConfigError(f"{field}: expected {usage}, got {_describe(node)}")
    return make(*values)


def parse_gauge(text, field="gauge"):
    """Gauge expression string -> gauge object."""
    if not isinstance(text, str):
        raise ConfigError(f"{field}: must be a string")
    with _reported_as(field):
        return _build(_parse_sexpr(text, field), "gauge", field)


# ---------------------------------------------------------------------------
# cost expressions


_COST_FUNCS = {"abs": abs, "min": min, "max": max,
               "sqrt": math.sqrt, "exp": math.exp, "log": math.log}

_COST_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
               ast.Name, ast.Call, ast.Load,
               ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
               ast.USub, ast.UAdd)


def compile_cost(text, field="cost.expression"):
    """Expression string -> callable evaluating it at one point."""
    if not isinstance(text, str):
        raise ConfigError(f"{field}: must be a string")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(
            f"{field}: line {exc.lineno} column {exc.offset}: bad expression")
    for sub in ast.walk(tree):
        if not isinstance(sub, _COST_NODES):
            raise ConfigError(
                f"{field}: {type(sub).__name__} is not allowed")
        if isinstance(sub, ast.Constant):
            if not isinstance(sub.value, (int, float)):
                raise ConfigError(f"{field}: only numeric constants are allowed")
            # float arithmetic overflows at once where int ** would build
            # ever larger exact integers
            try:
                sub.value = float(sub.value)
            except OverflowError:
                raise ConfigError(f"{field}: a constant is too large for a float")
        if isinstance(sub, ast.Call):
            if (not isinstance(sub.func, ast.Name)
                    or sub.func.id not in _COST_FUNCS or sub.keywords):
                raise ConfigError(f"{field}: unknown function call")
        if isinstance(sub, ast.Name) and sub.id not in _COST_FUNCS:
            if not (sub.id == "x" or (sub.id.startswith("x") and sub.id[1:].isdigit())):
                raise ConfigError(f"{field}: unknown name {sub.id!r}")
    code = compile(tree, "<cost>", "eval")

    def at(point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        env = dict(_COST_FUNCS)
        env["x"] = float(point[0])
        for i, v in enumerate(point):
            env[f"x{i}"] = float(v)
        try:
            value = float(eval(code, {"__builtins__": {}}, env))
        except NameError as exc:
            raise ConfigError(f"{field}: {exc}")
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{field}: evaluation failed: {exc}")
        if not math.isfinite(value):
            raise ConfigError(f"{field}: must be finite")
        return value

    return at


# ---------------------------------------------------------------------------
# config loading


@contextlib.contextmanager
def _reported_as(field):
    """Report a library error raised in the block, such as a parameter a
    constructor rejects, as a configuration error on field."""
    try:
        yield
    except ConfigError:
        raise
    except GaugekitError as exc:
        raise ConfigError(f"{field}: {exc}")


def _as_number(value, field):
    """value as a float; an integer too large for one reads as infinite, so
    each reader's range check names the field."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{field}: must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_integer(value, field):
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{field}: must be an integer")
    return int(value)


def _as_count(value, field):
    count = _as_integer(value, field)
    if count < 1:
        raise ConfigError(f"{field}: must be at least 1")
    return count


def _as_finite(value, field):
    number = _as_number(value, field)
    if not math.isfinite(number):
        raise ConfigError(f"{field}: must be finite")
    return number


def _as_radius(value, field):
    radius = _as_number(value, field)
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ConfigError(f"{field}: must be finite and nonnegative")
    return radius


def _as_tol(value, field):
    tol = _as_number(value, field)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"{field}: must be finite and positive")
    return tol


def _as_flag(value, field):
    if not isinstance(value, bool):
        raise ConfigError(f"{field}: must be true or false")
    return value


def _as_array(value, field):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be numbers")
    except OverflowError:
        raise ConfigError(f"{field}: must be finite")


def _as_values(value, field):
    values = _as_array(value, field).ravel()
    if not np.isfinite(values).all():
        raise ConfigError(f"{field}: must be finite")
    return values


def _as_weights(value, field):
    weights = _as_array(value, field).ravel()
    if not np.all(weights > 0.0):
        raise ConfigError(f"{field}: must be positive")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{field}: must sum to one, got {total:.6g}")
    return weights


def _as_bound(value, field):
    bound = _as_array(value, field)
    if bound.ndim > 1 or bound.size == 0:
        raise ConfigError(f"{field}: must be a number or a nonempty flat list")
    if not np.isfinite(bound).all():
        raise ConfigError(f"{field}: must be finite")
    return np.atleast_1d(bound)


def _as_box(value, field):
    """A [lo, hi] pair -> the predicate of the half-open box [lo, hi)."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{field}: must be a [lo, hi] pair")
    lo, hi = (np.atleast_1d(_as_array(bound, field)) for bound in value)

    def inside(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(lo <= x) and np.all(x < hi))

    return inside


# basis.kind -> (its factory, the key it needs, whether it takes nonneg)
_BASES = {
    "indicator-regions": (Basis.indicator_regions, "boxes", True),
    "piecewise-affine": (Basis.piecewise_affine, "boxes", False),
    "moment": (Basis.moment, "order", False),
    "singletons": (Basis.singletons, "points", True),
}


def _as_basis_kind(value, field):
    if not isinstance(value, str) or value not in _BASES:
        raise ConfigError(f"{field}: unknown kind {value!r}")
    return value


# key -> the reader of its value, a block of keys, or [item] for a nonempty
# list of items; the module docstring lists every key path
_CONFIG = {
    "seed": _as_integer,
    "solver": {"tol": _as_tol, "max-iter": _as_count},
    "space": {
        "points": _as_array,
        "weights": _as_weights,
        "sampler": {"lower": _as_bound, "upper": _as_bound, "count": _as_count},
    },
    "cost": {"values": _as_values, "expression": compile_cost},
    "gauge": parse_gauge,
    "epsilon": _as_radius,
    "samples": {"sizes": [_as_count], "target": _as_finite},
    "basis": {"kind": _as_basis_kind, "boxes": [_as_box], "order": _as_integer,
              "points": _as_array, "nonneg": _as_flag},
    "stages": [{"gauge": parse_gauge, "epsilon": _as_radius}],
    "tau": _as_finite,
    # in the order of CaseInstance's fields
    "case-instance": {"lower": _as_array, "upper": _as_array,
                      "region-lower": _as_array, "region-upper": _as_array,
                      "samples": _as_array, "delta": _as_number,
                      "radii": _as_array, "beta": _as_number},
}


def _read(value, shape=_CONFIG, field=""):
    """A config document read through _CONFIG: each value as its reader
    returns it, with keys set to null left out."""
    if isinstance(shape, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{field}: must be a nonempty list")
        return [_read(item, shape[0], f"{field}[{i}]") for i, item in enumerate(value)]
    if not isinstance(shape, dict):
        return shape(value, field)
    if not isinstance(value, dict):
        raise ConfigError(f"{field or 'config'}: must be an object")
    unknown = sorted(set(value) - set(shape))
    if unknown:
        raise ConfigError(f"{field or 'config'}: unknown keys {', '.join(unknown)}")
    prefix = field + "." if field else ""
    return {key: _read(item, shape[key], prefix + key)
            for key, item in value.items() if item is not None}


def _need(block, keys, prefix=""):
    """The values of the space-separated keys in a read block; a missing
    key is the configuration error "<prefix><key>: required"."""
    for key in keys.split():
        if key not in block:
            raise ConfigError(f"{prefix}{key}: required")
    return [block[key] for key in keys.split()]


def load_config(text):
    """The JSON config in text, read through _CONFIG."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return _read(doc)


def _sampler(space):
    """lower, upper and count of space.sampler; upper lies above lower."""
    (block,) = _need(space, "sampler", "space.")
    lower, upper, count = _need(block, "lower upper count", "space.sampler.")
    if upper.shape != lower.shape:
        raise ConfigError("space.sampler.upper: must have the shape of lower")
    if not np.all(upper > lower):
        raise ConfigError("space.sampler.upper: must be above lower in every coordinate")
    return lower, upper, count


def _build_space(config, seed):
    (space,) = _need(config, "space")
    if "sampler" in space:
        if "points" in space or "weights" in space:
            raise ConfigError("space: give either points or a sampler, not both")
        return sample_uniform_box(*_sampler(space), seed)
    (points,) = _need(space, "points", "space.")
    weights = space.get("weights")
    if weights is not None and points.ndim and len(points) != len(weights):
        raise ConfigError(f"space.weights: {len(weights)} entries for {len(points)} points")
    with _reported_as("space.points"):
        return uniform_space(points) if weights is None else DiscreteSpace(points, weights)


def _cost(config):
    """cost.values as an array, or cost.expression as a function of a point."""
    (block,) = _need(config, "cost")
    if len(block) != 1:
        raise ConfigError("cost: give either values or an expression")
    (cost,) = block.values()
    return cost


def _build_problem(config, seed):
    space = _build_space(config, seed)
    cost = _cost(config)
    if callable(cost):
        cost = np.array([cost(pt) for pt in space.points])
    elif len(cost) != space.size:
        raise ConfigError(f"cost.values: {len(cost)} entries for {space.size} points")
    gauge, epsilon = _need(config, "gauge epsilon")
    with _reported_as("config"):
        return ReweightingProblem(space, cost, gauge, epsilon)


def _solver_settings(config, tol_flag):
    """Explicit settings, or None so each path keeps its tuned default."""
    kwargs = {key.replace("-", "_"): value for key, value in config.get("solver", {}).items()}
    if tol_flag is not None:
        kwargs["tol"] = _as_tol(tol_flag, "--tol")
    return SolveSettings(**kwargs) if kwargs else None


def _build_basis(basis):
    """What the basis kind needs, then the basis; nonneg only where the kind
    has a cone to tighten."""
    (kind,) = _need(basis, "kind", "basis.")
    make, key, takes_nonneg = _BASES[kind]
    (value,) = _need(basis, key, "basis.")
    if not basis.get("nonneg", False):
        return make(value)
    if not takes_nonneg:
        raise ConfigError(f"basis.nonneg: the {kind} kind takes no nonneg")
    return make(value, nonneg=True)


# ---------------------------------------------------------------------------
# verify's routes


def _scalar(p, g, r, dual):
    """A divergence ball's scalar dual, which takes its radius from the budget."""
    if isinstance(g, gauges.PhiDivergence) and _unit_radius(r):
        return divergence_dual_value(ReweightingProblem(p.space, p.cost, g, 1.0))
    if isinstance(g, gauges.PhiDivergence) and g.kind == "kl":
        raise ConfigError("verify: kl checks need epsilon = 1 (the budget already "
                          "sets the neighborhood size)")
    return None


# name, tolerance, and value: a function of the problem p, its gauge g and
# radius r seen through positive Scale factors, and the conic dual's value
# when primal-vs-dual is optimal, else None. A value of None means the route
# does not apply; _route_pairs checks the others against the first that does.
_ROUTES = (
    ("transport", 0.0, lambda p, g, r, dual: (
        None if (metric := gauges.transport_metric(g)) is None
        else w1_transport(p.space, p.cost, r, metric))),
    ("sorted", 0.0, lambda p, g, r, dual: (
        cvar_sorted(p.space, p.cost, 1.0 - 1.0 / (1.0 + r * g.beta / (1.0 - g.beta)))
        if isinstance(g, gauges.CvarGauge) and r > 0.0 else None)),
    ("greedy", 0.0, lambda p, g, r, dual: (
        tv_greedy(p.space, p.cost, r) if isinstance(g, gauges.TotalVariation) else None)),
    # a chi-square ball is a Euclidean one where no density floor binds
    ("closed", 0.0, lambda p, g, r, dual: (
        chi2_closed_form(p.space, p.cost, r) if isinstance(g, gauges.L2Ball)
        else chi2_closed_form(p.space, p.cost, r * math.sqrt(g.budget))
        if isinstance(g, gauges.PhiDivergence) and g.kind == "chi2" else None)),
    ("dual", 1e-4, lambda p, g, r, dual: dual),
    ("walk", 1e-3, lambda p, g, r, dual: (
        frank_wolfe_primal(p, tol=1e-4).value
        if isinstance(g, gauges.CvarGauge) and r > 0.0
        or isinstance(g, gauges.PhiDivergence) and g.kind in ("chi2", "kl") else None)),
    ("scalar", 1e-4, _scalar),
)


def _route_pairs(problem, dual):
    """Each route that applies against the first, at the larger tolerance, as
    (check, reference, candidate, tol); the dual is always named second."""
    g, r = problem.gauge, problem.epsilon
    while isinstance(g, gauges.Scale) and g.factor > 0.0:
        g, r = g.child, r * g.factor
    found = [(name, value, tol) for name, tol, route in _ROUTES
             for value in [route(problem, g, r, dual)] if value is not None]
    for other in found[1:]:
        (a, x, s), (b, y, t) = sorted((found[0], other), key=lambda f: f[0] == "dual")
        yield f"{a}-vs-{b}", x, y, max(s, t)


# ---------------------------------------------------------------------------
# reporting


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def render_table(columns, rows, stream):
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(name), *(len(r[i]) for r in cells)) if cells else len(name)
              for i, name in enumerate(columns)]
    stream.write("  ".join(n.ljust(w) for n, w in zip(columns, widths)).rstrip() + "\n")
    for row in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def write_csv(path, command, columns, rows):
    buf = io.StringIO()
    buf.write(f"{CSV_HEADER} {command}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, "w", newline="") as handle:
        handle.write(buf.getvalue())


# ---------------------------------------------------------------------------
# commands


def _verdict(columns, rows):
    """The one exit rule: 2 when some row's status is not a passing one."""
    at = columns.index("status")
    code = 0 if all(row[at] in ("optimal", "ok", "surrogate") for row in rows) else 2
    return columns, rows, code


def _two_routes(problem, settings):
    """Solve the primal and the dual program of the problem. Returns the
    primal value (negated, since the primal program minimizes the negated
    worst case), the dual value, both statuses, and the gap rule's tolerance
    1e-6 * (1 + |dual|). Raises EncodingError when a route has no program."""
    dual = conic.solve(build_dual(problem), settings)
    primal = conic.solve(build_primal(problem), settings)
    value = float(dual.value)
    return -float(primal.value), value, primal.status, dual.status, 1e-6 * (1.0 + abs(value))


def cmd_duality_check(config, settings, seed):
    problem = _build_problem(config, seed)
    try:
        primal, dual, primal_status, dual_status, bound = _two_routes(problem, settings)
    except EncodingError as exc:
        raise ConfigError(f"duality-check: {exc}")
    gap = abs(primal - dual)
    rows = [
        ("primal", primal, primal_status),
        ("dual", dual, dual_status),
        ("gap", gap, "ok" if gap <= bound else "breach"),
    ]
    return _verdict(("route", "value", "status"), rows)


def cmd_envelope_sweep(config, settings, seed):
    lower, upper, _ = _sampler(_need(config, "space")[0])
    cost_fn = _cost(config)
    if not callable(cost_fn):
        raise ConfigError("cost.expression: envelope-sweep needs an expression")
    gauge, epsilon, samples = _need(config, "gauge epsilon samples")
    metric = gauges.transport_metric(gauge)
    if metric is None:
        raise ConfigError("envelope-sweep: gauge must be a transport ball "
                          "((w1 metric) or (polar (lipschitz metric)))")
    (sizes,) = _need(samples, "sizes", "samples.")

    def sampler(count, sample_seed):
        return sample_uniform_box(lower, upper, count, sample_seed)

    rows = convergence_sweep(sampler, cost_fn, metric, epsilon, sizes, seed,
                             samples.get("target"))
    table = [(r.m, r.seed, r.z_m, r.w1_bound, r.gap, r.status) for r in rows]
    return _verdict(("m", "seed", "z_m", "w1_bound", "gap", "status"), table)


def cmd_case_study(config, settings, seed):
    (block,) = _need(config, "case-instance")
    with _reported_as("case-instance"):
        instance = CaseInstance(
            *_need(block, " ".join(_CONFIG["case-instance"]), "case-instance."))
    lp, sdp = solve_case(instance, solver=settings)
    # the quadratic route can only be more conservative than the envelope
    sdp_status = sdp.status
    if lp.status == sdp.status == "optimal" and sdp.value < lp.value - 1e-6:
        sdp_status = "breach"
    rows = [
        (lp.method, lp.value, lp.x[0], lp.x[1], lp.status, lp.residual),
        (sdp.method, sdp.value, sdp.x[0], sdp.x[1], sdp_status, sdp.residual),
    ]
    if float(instance.delta) == 0.0 and not np.any(np.asarray(instance.radii) > 0.0):
        value, spot = grid_cvar_value(instance)
        match = "ok" if abs(value - lp.value) <= 1e-4 else "breach"
        rows.append(("grid-cvar", value, spot[0], spot[1], match, 0.0))
    return _verdict(("method", "value", "x0", "x1", "status", "residual"), rows)


def cmd_verify(config, settings, seed):
    problem = _build_problem(config, seed)
    space, cost, expr = problem.space, problem.cost, problem.gauge
    with _reported_as("basis"):
        basis = _build_basis(config["basis"]) if "basis" in config else None
    rows = []

    def row(check, reference, candidate, diff, tol, good):
        rows.append((check, reference, candidate, diff, tol, "ok" if good else "breach"))

    def add(check, reference, candidate, tol):
        reference, candidate = float(reference), float(candidate)
        diff = abs(reference - candidate)
        row(check, reference, candidate, diff, tol, diff <= tol)

    dual_value = None
    try:
        primal, dual, primal_status, dual_status, bound = _two_routes(problem, settings)
        if dual_status != "optimal" or primal_status != "optimal":
            rows.append(("primal-vs-dual", primal, dual, float("nan"), 0.0,
                         f"{primal_status}/{dual_status}"))
        else:
            dual_value = dual
            add("primal-vs-dual", primal, dual, bound)
    except EncodingError:
        pass

    for pair in _route_pairs(problem, dual_value):
        add(*pair)

    if basis is not None:
        try:
            restricted = param_dual_value(problem, basis, solver=settings)
        except EncodingError as exc:
            raise ConfigError(f"basis: {exc}")
        if dual_value is not None:
            row("restricted-dominates", dual_value, restricted,
                restricted - dual_value, 1e-7, restricted >= dual_value - 1e-7)

    if "stages" in config:
        stages = [tuple(_need(stage, "gauge epsilon", f"stages[{i}]."))
                  for i, stage in enumerate(config["stages"])]
        composed, _ = composed_dual(space, cost, stages, settings)
        outer = ReweightingProblem(space, cost, stages[0][0], stages[0][1])
        if len(stages) == 1:
            # one stage is build_dual(outer) itself, so check it on the primal
            add("composed-vs-primal", composed, primal_solution(outer, settings)[0],
                1e-6 * (1.0 + abs(composed)))
        else:
            zeroed, _ = composed_dual(
                space, cost, [stages[0]] + [(g, 0.0) for g, _ in stages[1:]], settings)
            add("collapsed-vs-outer", zeroed, dual_solution(outer, settings).value,
                1e-6 * (1.0 + abs(zeroed)))
            row("stages-monotone", zeroed, composed, composed - zeroed, 1e-7,
                composed >= zeroed - 1e-7)

    if "tau" in config:
        tau = config["tau"]
        slope = satisficing_dual(problem, tau, settings)
        if slope is None:
            mean = expectation(space, cost)
            row("threshold-unreachable", tau, mean, float("nan"), 0.0, tau < mean + 1e-9)
        else:
            # the certificate promises worst(radius) <= tau + slope * radius
            for probe in (0.25, 1.0):
                shifted = ReweightingProblem(space, cost, expr, probe)
                worst = dual_solution(shifted, settings).value
                cap = tau + slope * probe
                tol = 1e-5 * (1.0 + abs(tau))
                row("threshold-sensitivity", cap, worst, worst - cap, tol, worst <= cap + tol)

    if not rows:
        raise ConfigError("verify: no applicable checks for this configuration")
    return _verdict(("check", "reference", "candidate", "diff", "tol", "status"), rows)


_HANDLERS = {
    "duality-check": cmd_duality_check,
    "envelope-sweep": cmd_envelope_sweep,
    "case-study": cmd_case_study,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"usage: {message}")


def main(argv=None):
    parser = _Parser(prog="gaugekit",
                     description="Gauge-ball ambiguity toolkit.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", help="write the report as CSV to this path")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tol", type=float, help="override the solver tolerance")

    try:
        args = parser.parse_args(argv)
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"config: {exc}")
        config = load_config(text)
        seed, source = config.get("seed", 0), "seed"
        env_seed = os.environ.get("GAUGEKIT_SEED")
        if env_seed is not None:
            try:
                seed, source = int(env_seed), "GAUGEKIT_SEED"
            except ValueError:
                raise ConfigError(f"GAUGEKIT_SEED: not an integer: {env_seed!r}")
        if args.seed is not None:
            seed, source = args.seed, "--seed"
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{source}: must lie in [0, 2**64), got {seed}")
        settings = _solver_settings(config, args.tol)
        columns, rows, code = _HANDLERS[args.command](config, settings, seed)
    except ConfigError as exc:
        print(f"gaugekit: {exc}", file=sys.stderr)
        return 1
    except GaugekitError as exc:
        print(f"gaugekit: {exc}", file=sys.stderr)
        return 2

    render_table(columns, rows, sys.stdout)
    if args.out:
        try:
            write_csv(args.out, args.command, columns, rows)
        except OSError as exc:
            print(f"gaugekit: --out: {exc}", file=sys.stderr)
            return max(code, 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
