"""Command-line front end: JSON configs in, tables and CSV reports out.

Usage::

    gaugekit <command> --config <path> [--out <csv>] [--seed N] [--tol X]

Commands
--------
duality-check
    Solve the worst-case reweighting problem along both routes (direct
    program and majorant certificate), print both values and the gap.
    Exit 0 when both solves are optimal and the gap is at most
    1e-6 * (1 + |value|).
envelope-sweep
    Draw growing i.i.d. samples from the configured box, solve the
    sample envelope program at each size, and report the value, the
    transport deviation bound, and the gap to the analytic target when
    one is given. Exit 0 when every row passes its bound check.
case-study
    Solve the facility-placement instance along the envelope route and
    the quadratic-certificate route. Exit 0 when both are optimal and
    the quadratic value dominates. With all budgets at zero a grid
    sweep row is appended and the envelope value must match it.
verify
    Pair every applicable independent oracle with every applicable
    reformulation path for the configured problem (sorted tail
    averages, greedy swaps, transport plans, closed forms, boundary
    walks, scalar duals, restricted bases, composition stages,
    threshold radii). Exit 0 when every pairing agrees.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure (solver status or tolerance breach).

Configuration
-------------
A single JSON object. Keys:

    seed            integer; GAUGEKIT_SEED overrides it, --seed overrides both
    solver          {"tol": float, "max-iter": int}
    space           {"points": [...], "weights": [...]} (weights optional,
                    uniform by default) or
                    {"sampler": {"lower": ..., "upper": ..., "count": n}}
    cost            {"values": [...]} or {"expression": "abs(x0 - 1.5)"}
    gauge           a gauge expression string, see below
    epsilon         nonnegative float
    samples         envelope-sweep block: {"sizes": [...], "target": float?}
    basis           verify block: {"kind": ..., "boxes"/"order"/"points"/"nonneg"}
    stages          verify block: [{"gauge": ..., "epsilon": ...}, ...],
                    outermost first
    tau             verify block: satisficing threshold
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
import csv
import io
import json
import math
import os
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
    satisficing_dual,
)
from .space import DiscreteSpace, expectation, sample_uniform_box, uniform_space

CSV_HEADER = "# gaugekit csv 1"

COMMANDS = ("duality-check", "envelope-sweep", "case-study", "verify")


# ---------------------------------------------------------------------------
# gauge expression parser


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    word, word_pos = [], None
    for ch in text + " ":
        if ch in "() \t\n":
            if word:
                tokens.append(("".join(word), word_pos))
                word = []
            if ch == "(":
                tokens.append(("(", (line, col)))
            elif ch == ")":
                tokens.append((")", (line, col)))
        else:
            if not word:
                word_pos = (line, col)
            word.append(ch)
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    return tokens


def _parse_sexpr(text, field):
    """Nested lists of (token, position); numbers become floats."""
    tokens = _tokenize(text)
    if not tokens:
        raise ConfigError(f"{field}: empty gauge expression")

    def read(i):
        tok, pos = tokens[i]
        if tok == "(":
            items = []
            i += 1
            while True:
                if i >= len(tokens):
                    raise ConfigError(
                        f"{field}: unbalanced parenthesis opened at "
                        f"line {pos[0]} column {pos[1]}")
                if tokens[i][0] == ")":
                    return items, i + 1
                node, i = read(i)
                items.append(node)
        if tok == ")":
            raise ConfigError(
                f"{field}: unexpected ')' at line {pos[0]} column {pos[1]}")
        try:
            return float(tok), i + 1
        except ValueError:
            return tok, i + 1

    node, nxt = read(0)
    if nxt != len(tokens):
        pos = tokens[nxt][1]
        raise ConfigError(
            f"{field}: trailing input at line {pos[0]} column {pos[1]}")
    return node


_METRIC_ATOMS = {
    "abs": lambda: Hemimetric.pnorm(1.0),
    "euclid": lambda: Hemimetric.pnorm(2.0),
    "indicator": Hemimetric.indicator,
}

_GAUGE_ATOMS = {
    "tv": TotalVariation,
    "l2ball": L2Ball,
    "l1ball": L1Ball,
    "linfball": LinfBall,
    "oscillation": Oscillation,
}


def _build_metric(node, field):
    if isinstance(node, str):
        make = _METRIC_ATOMS.get(node)
        if make is None:
            raise ConfigError(f"{field}: unknown metric atom {node!r}")
        return make()
    if isinstance(node, list) and node and node[0] == "pnorm":
        if len(node) != 2 or not isinstance(node[1], float):
            raise ConfigError(f"{field}: pnorm takes one numeric order")
        return Hemimetric.pnorm(node[1])
    raise ConfigError(f"{field}: expected a metric, got {_describe(node)}")


def _describe(node):
    if isinstance(node, float):
        return f"number {node:g}"
    if isinstance(node, str):
        return repr(node)
    return "(" + " ".join(_describe(n) for n in node) + ")"


def _need(node, count, field, name):
    if len(node) - 1 != count:
        raise ConfigError(
            f"{field}: {name} takes {count} argument(s), got {len(node) - 1}")


def _number(node, field, name):
    if not isinstance(node, float):
        raise ConfigError(f"{field}: {name} needs a number, got {_describe(node)}")
    return node


def _build_gauge(node, field):
    if isinstance(node, float):
        raise ConfigError(f"{field}: a bare number is not a gauge expression")
    if isinstance(node, str):
        make = _GAUGE_ATOMS.get(node)
        if make is None:
            raise ConfigError(f"{field}: unknown gauge atom {node!r}")
        return make()
    if not node or not isinstance(node[0], str):
        raise ConfigError(f"{field}: expected an atom name, got {_describe(node)}")
    head = node[0]
    if head == "cvar":
        _need(node, 1, field, head)
        return CvarGauge(_number(node[1], field, head))
    if head in ("chi2", "kl"):
        _need(node, 1, field, head)
        return PhiDivergence(head, _number(node[1], field, head))
    if head == "divergence":
        _need(node, 2, field, head)
        if not isinstance(node[1], str):
            raise ConfigError(f"{field}: divergence kind must be a name")
        return PhiDivergence(node[1], _number(node[2], field, head))
    if head == "lipschitz":
        _need(node, 1, field, head)
        return Lipschitz(_build_metric(node[1], field))
    if head == "w1":
        _need(node, 1, field, head)
        return W1Ball(_build_metric(node[1], field))
    if head == "wasserstein":
        _need(node, 3, field, head)
        return WassersteinP(_number(node[1], field, head),
                            _build_metric(node[2], field),
                            _number(node[3], field, head))
    if head == "moment":
        if len(node) not in (2, 3):
            raise ConfigError(f"{field}: moment takes an order and an optional norm")
        order = int(_number(node[1], field, head))
        norm = "euclidean"
        if len(node) == 3:
            if node[2] != "spectral":
                raise ConfigError(f"{field}: the only named moment norm is 'spectral'")
            norm = "spectral"
        return MomentGauge(order, None, norm)
    if head == "scale":
        _need(node, 2, field, head)
        return gauges.Scale(_number(node[1], field, head),
                            _build_gauge(node[2], field))
    if head == "polar":
        _need(node, 1, field, head)
        return Polar(_build_gauge(node[1], field))
    if head == "intersect":
        if len(node) < 2:
            raise ConfigError(f"{field}: intersect needs at least one child")
        return gauges.Intersect([_build_gauge(n, field) for n in node[1:]])
    if head == "union":
        if len(node) < 2:
            raise ConfigError(f"{field}: union needs at least one child")
        return gauges.ConvexUnion([_build_gauge(n, field) for n in node[1:]])
    if head == "sum":
        if len(node) < 2:
            raise ConfigError(f"{field}: sum needs at least one (coefficient gauge) pair")
        terms = []
        for child in node[1:]:
            if not (isinstance(child, list) and len(child) == 2
                    and isinstance(child[0], float)):
                raise ConfigError(
                    f"{field}: each sum term must be a (coefficient gauge) "
                    f"pair, got {_describe(child)}")
            terms.append((child[0], _build_gauge(child[1], field)))
        return gauges.MinkowskiSum(terms)
    raise ConfigError(f"{field}: unknown gauge atom {head!r}")


def parse_gauge(text, field="gauge"):
    """Gauge expression string -> gauge object."""
    if not isinstance(text, str):
        raise ConfigError(f"{field}: must be a string")
    return _build_gauge(_parse_sexpr(text, field), field)


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
        if isinstance(sub, ast.Constant) and not isinstance(sub.value, (int, float)):
            raise ConfigError(f"{field}: only numeric constants are allowed")
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
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{field}: evaluation failed: {exc}")

    return at


# ---------------------------------------------------------------------------
# config loading


_TOP_KEYS = {"seed", "solver", "space", "cost", "gauge", "epsilon",
             "samples", "basis", "stages", "tau", "case-instance"}


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


def _as_array(value, field):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be numbers")


def _get_number(doc, key, default=None):
    value = doc.get(key, default)
    if value is None:
        raise ConfigError(f"{key}: required")
    return _as_number(value, key)


def _build_space(doc, seed):
    block = doc.get("space")
    if block is None:
        raise ConfigError("space: required")
    _check_keys(block, ("points", "weights", "sampler"), "space")
    if "sampler" in block:
        if "points" in block or "weights" in block:
            raise ConfigError("space: give either points or a sampler, not both")
        sub = block["sampler"]
        _check_keys(sub, ("lower", "upper", "count"), "space.sampler")
        for key in ("lower", "upper", "count"):
            if key not in sub:
                raise ConfigError(f"space.sampler.{key}: required")
        return sample_uniform_box(_as_array(sub["lower"], "space.sampler.lower"),
                                  _as_array(sub["upper"], "space.sampler.upper"),
                                  _as_integer(sub["count"], "space.sampler.count"), seed)
    if "points" not in block:
        raise ConfigError("space.points: required")
    points = _as_array(block["points"], "space.points")
    if "weights" not in block:
        return uniform_space(points)
    weights = _as_array(block["weights"], "space.weights").ravel()
    if np.any(weights < -1e-12):
        raise ConfigError("space.weights: must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"space.weights: must sum to one, got {total:.6g}")
    return DiscreteSpace(points, weights)


def _build_cost(doc, space):
    block = doc.get("cost")
    if block is None:
        raise ConfigError("cost: required")
    _check_keys(block, ("values", "expression"), "cost")
    if ("values" in block) == ("expression" in block):
        raise ConfigError("cost: give either values or an expression")
    if "values" in block:
        values = _as_array(block["values"], "cost.values").ravel()
        if len(values) != space.size:
            raise ConfigError(
                f"cost.values: {len(values)} entries for {space.size} points")
        return values
    fn = compile_cost(block["expression"])
    return np.array([fn(pt) for pt in space.points])


def _build_problem(doc, seed):
    space = _build_space(doc, seed)
    cost = _build_cost(doc, space)
    if "gauge" not in doc:
        raise ConfigError("gauge: required")
    expr = parse_gauge(doc["gauge"])
    epsilon = _get_number(doc, "epsilon")
    try:
        return ReweightingProblem(space, cost, expr, epsilon)
    except GaugekitError as exc:
        raise ConfigError(f"config: {exc}")


def _solver_settings(doc, tol_flag):
    """Explicit settings, or None so each path keeps its tuned default."""
    block = doc.get("solver", {})
    _check_keys(block, ("tol", "max-iter"), "solver")
    kwargs = {}
    if "tol" in block:
        kwargs["tol"] = _as_number(block["tol"], "solver.tol")
    if "max-iter" in block:
        kwargs["max_iter"] = _as_integer(block["max-iter"], "solver.max-iter")
    if tol_flag is not None:
        kwargs["tol"] = float(tol_flag)
    return SolveSettings(**kwargs) if kwargs else None


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
    nonneg = bool(block.get("nonneg", False))
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


def _build_case_instance(block):
    _check_keys(block, ("lower", "upper", "region-lower", "region-upper",
                        "samples", "delta", "radii", "beta"), "case-instance")
    for key in ("lower", "upper", "region-lower", "region-upper",
                "samples", "delta", "radii", "beta"):
        if key not in block:
            raise ConfigError(f"case-instance.{key}: required")
    arrays = {key: _as_array(block[key], f"case-instance.{key}")
              for key in ("lower", "upper", "region-lower", "region-upper",
                          "samples", "radii")}
    delta = _as_number(block["delta"], "case-instance.delta")
    beta = _as_number(block["beta"], "case-instance.beta")
    try:
        return CaseInstance(
            lower=arrays["lower"], upper=arrays["upper"],
            region_lower=arrays["region-lower"],
            region_upper=arrays["region-upper"],
            samples=arrays["samples"], delta=delta,
            radii=arrays["radii"], beta=beta)
    except GaugekitError as exc:
        raise ConfigError(f"case-instance: {exc}")


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


def cmd_duality_check(doc, settings, seed):
    problem = _build_problem(doc, seed)
    try:
        dual = conic.solve(build_dual(problem), settings)
        primal = conic.solve(build_primal(problem), settings)
    except EncodingError as exc:
        raise ConfigError(f"duality-check: {exc}")
    primal_value = -float(primal.value)
    gap = abs(primal_value - float(dual.value))
    bound = 1e-6 * (1.0 + abs(float(dual.value)))
    ok = (dual.status == "optimal" and primal.status == "optimal"
          and gap <= bound)
    rows = [
        ("primal", primal_value, primal.status),
        ("dual", float(dual.value), dual.status),
        ("gap", gap, "ok" if ok else "breach"),
    ]
    columns = ("route", "value", "status")
    return columns, rows, (0 if ok else 2)


def _transport_metric(expr):
    """The ground cost of a transport ball (its polar is a Lipschitz set), else None."""
    dual = gauges.polar(expr)
    return dual.metric if isinstance(dual, Lipschitz) else None


def cmd_envelope_sweep(doc, settings, seed):
    block = doc.get("space", {})
    if not isinstance(block, dict) or "sampler" not in block:
        raise ConfigError("space.sampler: envelope-sweep needs a sampler")
    sub = block["sampler"]
    _check_keys(sub, ("lower", "upper", "count"), "space.sampler")
    lower, upper = sub.get("lower"), sub.get("upper")
    if lower is None or upper is None:
        raise ConfigError("space.sampler: lower and upper are required")
    lower = _as_array(lower, "space.sampler.lower")
    upper = _as_array(upper, "space.sampler.upper")

    cost_block = doc.get("cost")
    if not isinstance(cost_block, dict) or "expression" not in cost_block:
        raise ConfigError("cost.expression: envelope-sweep needs an expression")
    cost_fn = compile_cost(cost_block["expression"])

    if "gauge" not in doc:
        raise ConfigError("gauge: required")
    metric = _transport_metric(parse_gauge(doc["gauge"]))
    if metric is None:
        raise ConfigError("envelope-sweep: gauge must be a transport ball "
                          "((w1 metric) or (polar (lipschitz metric)))")
    epsilon = _get_number(doc, "epsilon")

    block = doc.get("samples")
    if block is None:
        raise ConfigError("samples: envelope-sweep needs a samples block")
    _check_keys(block, ("sizes", "target"), "samples")
    sizes = block.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError("samples.sizes: required, a nonempty list")
    sizes = [_as_integer(m, f"samples.sizes[{k}]") for k, m in enumerate(sizes)]
    target = block.get("target")
    if target is not None:
        target = _as_number(target, "samples.target")

    def sampler(count, sample_seed):
        return sample_uniform_box(lower, upper, count, sample_seed)

    rows = convergence_sweep(sampler, cost_fn, metric, epsilon, sizes, seed, target)
    table = [(r.m, r.seed, r.z_m, r.w1_bound, r.gap, r.status) for r in rows]
    ok = all(r.status in ("ok", "surrogate") for r in rows)
    columns = ("m", "seed", "z_m", "w1_bound", "gap", "status")
    return columns, table, (0 if ok else 2)


def cmd_case_study(doc, settings, seed):
    block = doc.get("case-instance")
    if block is None:
        raise ConfigError("case-instance: required")
    instance = _build_case_instance(block)
    lp, sdp = solve_case(instance, solver=settings)
    rows = [
        (lp.method, lp.value, lp.x[0], lp.x[1], lp.status, lp.residual),
        (sdp.method, sdp.value, sdp.x[0], sdp.x[1], sdp.status, sdp.residual),
    ]
    ok = (lp.status == "optimal" and sdp.status == "optimal"
          and sdp.value >= lp.value - 1e-6)
    if float(instance.delta) == 0.0 and not np.any(np.asarray(instance.radii) > 0.0):
        value, spot = grid_cvar_value(instance)
        rows.append(("grid-cvar", value, spot[0], spot[1], "optimal", 0.0))
        if abs(value - lp.value) > 1e-4:
            ok = False
    columns = ("method", "value", "x0", "x1", "status", "residual")
    return columns, rows, (0 if ok else 2)


def cmd_verify(doc, settings, seed):
    problem = _build_problem(doc, seed)
    space, cost, expr = problem.space, problem.cost, problem.gauge
    eps = problem.epsilon
    rows = []
    ok = True

    def add(check, reference, candidate, tol):
        nonlocal ok
        diff = abs(float(reference) - float(candidate))
        good = diff <= tol
        ok = ok and good
        rows.append((check, float(reference), float(candidate), diff, tol,
                     "ok" if good else "breach"))

    dual_value = None
    try:
        dual = conic.solve(build_dual(problem), settings)
        primal = conic.solve(build_primal(problem), settings)
        if dual.status != "optimal" or primal.status != "optimal":
            ok = False
            rows.append(("primal-vs-dual", -float(primal.value),
                         float(dual.value), float("nan"), 0.0,
                         f"{primal.status}/{dual.status}"))
        else:
            dual_value = float(dual.value)
            add("primal-vs-dual", -float(primal.value), dual_value,
                1e-6 * (1.0 + abs(dual_value)))
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

    metric = _transport_metric(expr)
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
        basis = _build_basis(doc["basis"])
        restricted = param_dual_value(problem, basis, solver=settings)
        if dual_value is not None:
            good = restricted >= dual_value - 1e-7
            ok = ok and good
            rows.append(("restricted-dominates", dual_value, restricted,
                         restricted - dual_value, 1e-7,
                         "ok" if good else "breach"))

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
                           _as_number(item["epsilon"], f"stages[{i}].epsilon")))
        composed, _ = composed_dual(space, cost, stages)
        outer = ReweightingProblem(space, cost, stages[0][0], stages[0][1])
        outer_value = conic.solve(build_dual(outer), settings).value
        if len(stages) == 1:
            add("composed-vs-dual", composed, float(outer_value),
                1e-6 * (1.0 + abs(composed)))
        else:
            zeroed, _ = composed_dual(
                space, cost, [stages[0]] + [(g, 0.0) for g, _ in stages[1:]])
            add("collapsed-vs-outer", zeroed, float(outer_value),
                1e-6 * (1.0 + abs(zeroed)))
            good = composed >= zeroed - 1e-7
            ok = ok and good
            rows.append(("stages-monotone", zeroed, composed,
                         composed - zeroed, 1e-7, "ok" if good else "breach"))

    if "tau" in doc:
        tau = _get_number(doc, "tau")
        slope = satisficing_dual(problem, tau)
        if slope is None:
            good = tau < expectation(space, cost) + 1e-9
            ok = ok and good
            rows.append(("threshold-unreachable", tau,
                         expectation(space, cost), float("nan"), 0.0,
                         "ok" if good else "breach"))
        else:
            # the certificate promises worst(radius) <= tau + slope * radius
            for probe in (0.25, 1.0):
                shifted = ReweightingProblem(space, cost, expr, probe)
                worst = float(conic.solve(build_dual(shifted), settings).value)
                cap = tau + slope * probe
                tol = 1e-5 * (1.0 + abs(tau))
                good = worst <= cap + tol
                ok = ok and good
                rows.append(("threshold-sensitivity", cap, worst,
                             worst - cap, tol, "ok" if good else "breach"))

    if not rows:
        raise ConfigError("verify: no applicable checks for this configuration")
    columns = ("check", "reference", "candidate", "diff", "tol", "status")
    return columns, rows, (0 if ok else 2)


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
        seed = _as_integer(doc.get("seed", 0), "seed")
        env_seed = os.environ.get("GAUGEKIT_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ConfigError(f"GAUGEKIT_SEED: not an integer: {env_seed!r}")
        if args.seed is not None:
            seed = args.seed
        settings = _solver_settings(doc, args.tol)
        handler = _HANDLERS[args.command]
    except ConfigError as exc:
        print(f"gaugekit: {exc}", file=sys.stderr)
        return 1

    try:
        columns, rows, code = handler(doc, settings, seed)
    except ConfigError as exc:
        print(f"gaugekit: {exc}", file=sys.stderr)
        return 1
    except GaugekitError as exc:
        print(f"gaugekit: {exc}", file=sys.stderr)
        return 2

    render_table(columns, rows, sys.stdout)
    if args.out:
        write_csv(args.out, args.command, columns, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
