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
    Draw growing i.i.d. samples from the configured box, solve the
    sample envelope program at each size, and report the value, the
    transport deviation bound, and the gap to the analytic target when
    one is given, which must lie within the bound.
case-study
    Solve the facility-placement instance along the envelope route and
    the quadratic-certificate route; the quadratic row reads breach when
    its value falls below the envelope value by more than 1e-6. With all
    budgets at zero a grid-cvar row is appended, which reads ok when the
    envelope value matches the grid sweep to 1e-4 and breach otherwise.
verify
    Pair every applicable independent oracle with every applicable
    reformulation path for the configured problem (sorted tail
    averages, greedy swaps, transport plans, closed forms, boundary
    walks, scalar duals, restricted bases, composition stages,
    threshold radii), one row per pairing.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure. Every command prints a table with a status column, and that
column is the verdict: the command exits 2 exactly when some row's
status is not optimal, ok or surrogate. A numerical error raised before
the table is complete also exits 2, with its message on stderr. A --out
path that cannot be written is reported after the table and exits 1,
or 2 when a row failed.

Configuration
-------------
A single JSON object. Keys:

    seed            integer in [0, 2**64); GAUGEKIT_SEED overrides it,
                    --seed overrides both
    solver          {"tol": float > 0, "max-iter": int >= 1}
    space           {"points": [...], "weights": [...]} (weights optional,
                    positive, uniform by default) or
                    {"sampler": {"lower": ..., "upper": ..., "count": n >= 1}},
                    each bound a number or a nonempty flat list
    cost            {"values": [...]} or {"expression": "abs(x0 - 1.5)"}
    gauge           a gauge expression string, see below
    epsilon         finite nonnegative float
    samples         envelope-sweep block: {"sizes": [m >= 1, ...],
                    "target": finite float?}
    basis           verify block: {"kind": ..., "boxes"/"order"/"points",
                    "nonneg": true or false}
    stages          verify block: [{"gauge": ..., "epsilon": ...}, ...],
                    outermost first
    tau             verify block: finite satisficing threshold
    case-instance   case-study block: {"lower", "upper", "region-lower",
                    "region-upper", "samples", "delta", "radii", "beta"}

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
from .gauge import (
    CvarGauge,
    Hemimetric,
    L1Ball,
    L2Ball,
    LinfBall,
    Lipschitz,
    MomentGauge,
    Oscillation,
    PhiDivergence,
    Polar,
    TotalVariation,
    W1Ball,
    WassersteinP,
)
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
        "abs": (lambda: Hemimetric.pnorm(1.0), ""),
        "euclid": (lambda: Hemimetric.pnorm(2.0), ""),
        "indicator": (Hemimetric.indicator, ""),
        "pnorm": (Hemimetric.pnorm, "number"),
    },
    "gauge": {
        "tv": (TotalVariation, ""),
        "l2ball": (L2Ball, ""),
        "l1ball": (L1Ball, ""),
        "linfball": (LinfBall, ""),
        "oscillation": (Oscillation, ""),
        "cvar": (CvarGauge, "number"),
        "chi2": (lambda budget: PhiDivergence("chi2", budget), "number"),
        "kl": (lambda budget: PhiDivergence("kl", budget), "number"),
        "divergence": (PhiDivergence, "name number"),
        "lipschitz": (Lipschitz, "metric"),
        "w1": (W1Ball, "metric"),
        "wasserstein": (WassersteinP, "number metric number"),
        "moment": (lambda order, norm="euclidean": MomentGauge(order, None, norm),
                   "integer spectral?"),
        "scale": (gauges.Scale, "number gauge"),
        "polar": (Polar, "gauge"),
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
            return float(eval(code, {"__builtins__": {}}, env))
        except NameError as exc:
            raise ConfigError(f"{field}: {exc}")
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{field}: evaluation failed: {exc}")

    return at


# ---------------------------------------------------------------------------
# config loading


_TOP_KEYS = {"seed", "solver", "space", "cost", "gauge", "epsilon",
             "samples", "basis", "stages", "tau", "case-instance"}


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


def _check_keys(block, allowed, field):
    if not isinstance(block, dict):
        raise ConfigError(f"{field}: must be an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{field}: unknown keys {', '.join(unknown)}")


def load_config(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax: line {exc.lineno} column {exc.colno}: {exc.msg}")
    _check_keys(doc, _TOP_KEYS, "config")
    return doc


def _as_number(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{field}: must be a number")
    return float(value)


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


def _as_array(value, field):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be numbers")


def _required(doc, key):
    if doc.get(key) is None:
        raise ConfigError(f"{key}: required")
    return doc[key]


def _as_bound(value, field):
    bound = _as_array(value, field)
    if bound.ndim > 1 or bound.size == 0:
        raise ConfigError(f"{field}: must be a number or a nonempty flat list")
    return np.atleast_1d(bound)


def _read_sampler(block):
    """(lower, upper, count) of a space.sampler block: a box with finite
    bounds, each a number or a nonempty flat list, and upper above lower in
    every coordinate."""
    _check_keys(block, ("lower", "upper", "count"), "space.sampler")
    for key in ("lower", "upper", "count"):
        if key not in block:
            raise ConfigError(f"space.sampler.{key}: required")
    lower = _as_bound(block["lower"], "space.sampler.lower")
    upper = _as_bound(block["upper"], "space.sampler.upper")
    count = _as_count(block["count"], "space.sampler.count")
    if not np.all(np.isfinite(lower)):
        raise ConfigError("space.sampler.lower: must be finite")
    if upper.shape != lower.shape:
        raise ConfigError("space.sampler.upper: must have the shape of lower")
    if not np.all(np.isfinite(upper) & (upper > lower)):
        raise ConfigError(
            "space.sampler.upper: must be finite and above lower in every coordinate")
    return lower, upper, count


def _build_space(doc, seed):
    block = doc.get("space")
    if block is None:
        raise ConfigError("space: required")
    _check_keys(block, ("points", "weights", "sampler"), "space")
    if "sampler" in block:
        if "points" in block or "weights" in block:
            raise ConfigError("space: give either points or a sampler, not both")
        return sample_uniform_box(*_read_sampler(block["sampler"]), seed)
    if "points" not in block:
        raise ConfigError("space.points: required")
    points = _as_array(block["points"], "space.points")
    weights = None
    if "weights" in block:
        weights = _as_array(block["weights"], "space.weights").ravel()
        if np.any(weights <= 0.0):
            raise ConfigError("space.weights: must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"space.weights: must sum to one, got {total:.6g}")
    with _reported_as("space.points"):
        return uniform_space(points) if weights is None else DiscreteSpace(points, weights)


def _read_cost(doc):
    """cost.values as an array, or cost.expression as a function of a point."""
    block = _required(doc, "cost")
    _check_keys(block, ("values", "expression"), "cost")
    if ("values" in block) == ("expression" in block):
        raise ConfigError("cost: give either values or an expression")
    if "values" in block:
        return _as_array(block["values"], "cost.values").ravel()
    return compile_cost(block["expression"])


def _build_cost(doc, space):
    cost = _read_cost(doc)
    if callable(cost):
        return np.array([cost(pt) for pt in space.points])
    if len(cost) != space.size:
        raise ConfigError(f"cost.values: {len(cost)} entries for {space.size} points")
    return cost


def _build_problem(doc, seed):
    space = _build_space(doc, seed)
    cost = _build_cost(doc, space)
    expr = parse_gauge(_required(doc, "gauge"))
    epsilon = _as_radius(_required(doc, "epsilon"), "epsilon")
    with _reported_as("config"):
        return ReweightingProblem(space, cost, expr, epsilon)


def _solver_settings(doc, tol_flag):
    """Explicit settings, or None so each path keeps its tuned default."""
    block = doc.get("solver", {})
    _check_keys(block, ("tol", "max-iter"), "solver")
    kwargs = {}
    if "tol" in block:
        kwargs["tol"] = _positive_tol(_as_number(block["tol"], "solver.tol"), "solver.tol")
    if "max-iter" in block:
        kwargs["max_iter"] = _as_count(block["max-iter"], "solver.max-iter")
    if tol_flag is not None:
        kwargs["tol"] = _positive_tol(float(tol_flag), "--tol")
    return SolveSettings(**kwargs) if kwargs else None


def _positive_tol(value, field):
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{field}: must be finite and positive")
    return value


def _box_predicate(lo, hi):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))

    def inside(x, lo=lo, hi=hi):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(lo <= x) and np.all(x < hi))

    return inside


def _build_basis(block):
    _check_keys(block, ("kind", "boxes", "order", "points", "nonneg"), "basis")
    kind = block.get("kind")
    nonneg = block.get("nonneg", False)
    if not isinstance(nonneg, bool):
        raise ConfigError("basis.nonneg: must be true or false")
    if kind in ("indicator-regions", "piecewise-affine"):
        boxes = block.get("boxes")
        if not isinstance(boxes, list) or not boxes:
            raise ConfigError("basis.boxes: required, a list of [lo, hi] pairs")
        preds = []
        for i, box in enumerate(boxes):
            if not (isinstance(box, list) and len(box) == 2):
                raise ConfigError(f"basis.boxes[{i}]: must be a [lo, hi] pair")
            preds.append(_box_predicate(_as_array(box[0], f"basis.boxes[{i}]"),
                                        _as_array(box[1], f"basis.boxes[{i}]")))
        if kind == "indicator-regions":
            return Basis.indicator_regions(preds, nonneg=nonneg)
        return Basis.piecewise_affine(preds)
    if kind == "moment":
        if "order" not in block:
            raise ConfigError("basis.order: required for a moment basis")
        return Basis.moment(_as_integer(block["order"], "basis.order"))
    if kind == "singletons":
        if "points" not in block:
            raise ConfigError("basis.points: required for a singleton basis")
        return Basis.singletons(_as_array(block["points"], "basis.points"),
                                nonneg=nonneg)
    raise ConfigError(f"basis.kind: unknown kind {kind!r}")


_CASE_KEYS = ("lower", "upper", "region-lower", "region-upper",
              "samples", "delta", "radii", "beta")


def _build_case_instance(block):
    _check_keys(block, _CASE_KEYS, "case-instance")
    fields = {}
    for key in _CASE_KEYS:
        if key not in block:
            raise ConfigError(f"case-instance.{key}: required")
        read = _as_number if key in ("delta", "beta") else _as_array
        fields[key.replace("-", "_")] = read(block[key], f"case-instance.{key}")
    with _reported_as("case-instance"):
        return CaseInstance(**fields)


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


def cmd_duality_check(doc, settings, seed):
    problem = _build_problem(doc, seed)
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


def cmd_envelope_sweep(doc, settings, seed):
    block = doc.get("space", {})
    if not isinstance(block, dict) or "sampler" not in block:
        raise ConfigError("space.sampler: envelope-sweep needs a sampler")
    lower, upper, _ = _read_sampler(block["sampler"])

    cost_fn = _read_cost(doc)
    if not callable(cost_fn):
        raise ConfigError("cost.expression: envelope-sweep needs an expression")

    metric = gauges.transport_metric(parse_gauge(_required(doc, "gauge")))
    if metric is None:
        raise ConfigError("envelope-sweep: gauge must be a transport ball "
                          "((w1 metric) or (polar (lipschitz metric)))")
    epsilon = _as_radius(_required(doc, "epsilon"), "epsilon")

    block = doc.get("samples")
    if block is None:
        raise ConfigError("samples: envelope-sweep needs a samples block")
    _check_keys(block, ("sizes", "target"), "samples")
    sizes = block.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError("samples.sizes: required, a nonempty list")
    sizes = [_as_count(m, f"samples.sizes[{k}]") for k, m in enumerate(sizes)]
    target = block.get("target")
    if target is not None:
        target = _as_finite(target, "samples.target")

    def sampler(count, sample_seed):
        return sample_uniform_box(lower, upper, count, sample_seed)

    rows = convergence_sweep(sampler, cost_fn, metric, epsilon, sizes, seed, target, settings)
    table = [(r.m, r.seed, r.z_m, r.w1_bound, r.gap, r.status) for r in rows]
    return _verdict(("m", "seed", "z_m", "w1_bound", "gap", "status"), table)


def cmd_case_study(doc, settings, seed):
    block = doc.get("case-instance")
    if block is None:
        raise ConfigError("case-instance: required")
    instance = _build_case_instance(block)
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


def cmd_verify(doc, settings, seed):
    problem = _build_problem(doc, seed)
    space, cost, expr = problem.space, problem.cost, problem.gauge
    eps = problem.epsilon
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

    if isinstance(expr, CvarGauge) and eps > 0.0:
        cap = 1.0 + eps * expr.beta / (1.0 - expr.beta)
        sorted_value = cvar_sorted(space, cost, 1.0 - 1.0 / cap)
        if dual_value is not None:
            add("sorted-vs-dual", sorted_value, dual_value, 1e-4)
        fw = frank_wolfe_primal(problem, tol=1e-4)
        add("sorted-vs-walk", sorted_value, fw.value, 1e-3)

    if isinstance(expr, TotalVariation) and dual_value is not None:
        add("greedy-vs-dual", tv_greedy(space, cost, eps), dual_value, 1e-4)

    metric = gauges.transport_metric(expr)
    if metric is not None and dual_value is not None:
        add("transport-vs-dual", w1_transport(space, cost, eps, metric),
            dual_value, 1e-4)

    if isinstance(expr, PhiDivergence):
        if expr.kind == "chi2":
            closed = chi2_closed_form(space, cost, eps * math.sqrt(expr.budget))
            scalar = divergence_dual_value(problem) if eps == 1.0 else None
            fw = frank_wolfe_primal(problem, tol=1e-4)
            if closed is not None:
                if dual_value is not None:
                    add("closed-vs-dual", closed, dual_value, 1e-4)
                add("closed-vs-walk", closed, fw.value, 1e-3)
                if scalar is not None:
                    add("closed-vs-scalar", closed, scalar, 1e-4)
            elif dual_value is not None:
                add("walk-vs-dual", fw.value, dual_value, 1e-3)
                if scalar is not None:
                    add("scalar-vs-dual", scalar, dual_value, 1e-4)
        if expr.kind == "kl":
            if eps != 1.0:
                raise ConfigError(
                    "verify: kl checks need epsilon = 1 (the budget already "
                    "sets the neighborhood size)")
            scalar = divergence_dual_value(problem)
            fw = frank_wolfe_primal(problem, tol=1e-4)
            add("walk-vs-scalar", fw.value, scalar, 1e-3)

    if isinstance(expr, L2Ball):
        closed = chi2_closed_form(space, cost, eps)
        if closed is not None and dual_value is not None:
            add("closed-vs-dual", closed, dual_value, 1e-4)

    if "basis" in doc:
        with _reported_as("basis"):
            basis = _build_basis(doc["basis"])
        restricted = param_dual_value(problem, basis, solver=settings)
        if dual_value is not None:
            row("restricted-dominates", dual_value, restricted,
                restricted - dual_value, 1e-7, restricted >= dual_value - 1e-7)

    if "stages" in doc:
        stages_doc = doc["stages"]
        if not isinstance(stages_doc, list) or not stages_doc:
            raise ConfigError("stages: must be a nonempty list")
        stages = []
        for i, item in enumerate(stages_doc):
            _check_keys(item, ("gauge", "epsilon"), f"stages[{i}]")
            if "gauge" not in item or "epsilon" not in item:
                raise ConfigError(f"stages[{i}]: needs gauge and epsilon")
            stages.append((parse_gauge(item["gauge"], f"stages[{i}].gauge"),
                           _as_radius(item["epsilon"], f"stages[{i}].epsilon")))
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

    if "tau" in doc:
        tau = _as_finite(doc["tau"], "tau")
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
        doc = load_config(text)
        seed, source = _as_integer(doc.get("seed", 0), "seed"), "seed"
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
        settings = _solver_settings(doc, args.tol)
        columns, rows, code = _HANDLERS[args.command](doc, settings, seed)
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
