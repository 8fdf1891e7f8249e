"""Command-line driver: gauge grammar, config validation, reports, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gaugekit import cli
from gaugekit.cli import compile_cost, load_config, main, parse_gauge
from gaugekit.errors import ConfigError
from gaugekit.gauge import (
    ConvexUnion,
    CvarGauge,
    GaugeExpr,
    Hemimetric,
    Intersect,
    L1Ball,
    L2Ball,
    LinfBall,
    Lipschitz,
    MinkowskiSum,
    MomentGauge,
    Oscillation,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
    W1Ball,
    WassersteinP,
)

BASE_DOC = {
    "space": {"points": [[0], [1], [2], [3]]},
    "cost": {"values": [0, 1, 2, 3]},
    "gauge": "tv",
    "epsilon": 0.5,
}

SAMPLED_DOC = dict(BASE_DOC, space={"sampler": {"lower": 0.0, "upper": 3.0, "count": 4}},
                   cost={"expression": "x0"})

SWEEP_DOC = {
    "seed": 1,
    "space": {"sampler": {"lower": 0.0, "upper": 3.0, "count": 64}},
    "cost": {"expression": "x0"},
    "gauge": "(polar (lipschitz abs))",
    "epsilon": 0.5,
    "samples": {"sizes": [4, 16, 64], "target": 2.0},
}

# every budget at zero, so a grid-cvar row is appended; both routes end optimal
ZERO_CASE_DOC = {
    "case-instance": {
        "lower": [0, 0], "upper": [1, 1],
        "region-lower": [[0.0, 0.0]], "region-upper": [[1.0, 1.0]],
        "samples": [[0.1, 0.2], [0.3, 0.8], [0.5, 0.5], [0.7, 0.1]],
        "delta": 0.0, "radii": [0.0], "beta": 0.5,
    },
}

CASE_DOC = {
    "case-instance": {
        "lower": [0, 0], "upper": [1, 1],
        "region-lower": [[0.0, 0.0], [0.5, 0.0]],
        "region-upper": [[0.5, 1.0], [1.0, 1.0]],
        "samples": [[0.1, 0.2], [0.3, 0.8], [0.5, 0.5], [0.7, 0.1],
                    [0.9, 0.9], [0.2, 0.6], [0.8, 0.4], [0.4, 0.3]],
        "delta": 0.1, "radii": [0.05, 0.2], "beta": 0.8,
    },
}


ABS = Hemimetric.pnorm(1.0)

# Each expression with the gauge it parses to, or with the start of the error
# message after "gauge: " ("" for any configuration error). The list holds the
# grammar tests' expressions, the gauges of the README and perfbench configs,
# one expression for every head, and malformed input of each kind: missing or
# extra arguments, wrong kinds, unbalanced, trailing and empty. The objects
# and syntax error positions are those the head-by-head parser that the table
# replaced produced; the one intended change is that a moment order must be an
# integer, where that parser truncated (moment 1.5) to order 1.
GRAMMAR_CASES = [
    ("(scale 0.5 (polar (lipschitz abs)))", Scale(0.5, Polar(Lipschitz(ABS)))),
    ("(polar (lipschitz abs))", Polar(Lipschitz(ABS))),
    ("tv", TotalVariation()),
    ("l2ball", L2Ball()),
    ("l1ball", L1Ball()),
    ("linfball", LinfBall()),
    ("oscillation", Oscillation()),
    ("(cvar 0.8)", CvarGauge(0.8)),
    ("(cvar 0.5)", CvarGauge(0.5)),
    ("(chi2 0.16)", PhiDivergence("chi2", 0.16)),
    ("(kl 0.1)", PhiDivergence("kl", 0.1)),
    ("(divergence kl 0.1)", PhiDivergence("kl", 0.1)),
    ("(lipschitz euclid)", Lipschitz(Hemimetric.pnorm(2.0))),
    ("(lipschitz indicator)", Lipschitz(Hemimetric.indicator())),
    ("(w1 euclid)", W1Ball(Hemimetric.pnorm(2.0))),
    ("(w1 (pnorm 3))", W1Ball(Hemimetric.pnorm(3.0))),
    ("(wasserstein 1 abs 0.5)", WassersteinP(1.0, ABS, 0.5)),
    ("(moment 1)", MomentGauge(1, None, "euclidean")),
    ("(moment 2.0)", MomentGauge(2, None, "euclidean")),
    ("(moment 2 spectral)", MomentGauge(2, None, "spectral")),
    ("(intersect tv)", Intersect([TotalVariation()])),
    ("(intersect tv l2ball)", Intersect([TotalVariation(), L2Ball()])),
    ("(union tv l2ball)", ConvexUnion([TotalVariation(), L2Ball()])),
    ("(sum (1 tv) (0.5 l2ball))", MinkowskiSum([(1.0, TotalVariation()), (0.5, L2Ball())])),
    ("\n(scale\t2\n  (polar tv))  ", Scale(2.0, Polar(TotalVariation()))),
    ("", "empty gauge expression"),
    (" \n\t", "empty gauge expression"),
    ("(scale 0.5 (polar tv)", "unbalanced parenthesis opened at line 1 column 1"),
    ("(scale 0.5\n  (polar tv", "unbalanced parenthesis opened at line 2 column 3"),
    ("tv l2ball", "trailing input at line 1 column 4"),
    ("(polar tv)\n\ttv", "trailing input at line 2 column 2"),
    ("tv )", "trailing input at line 1 column 4"),
    ("(a))", "trailing input at line 1 column 4"),
    (")", "unexpected ')' at line 1 column 1"),
    ("3.5", ""), ("()", ""), ("((tv) 1)", ""), ("(tv)", ""), ("cvar", ""),
    ("(frobble 1)", ""), ("blorp", ""), ("(pnorm 2)", ""), ("(cvar)", ""),
    ("(cvar 0.5 1)", ""), ("(cvar x)", ""), ("(cvar 1.5)", ""), ("(divergence 1 1)", ""),
    ("(lipschitz tv)", ""), ("(lipschitz (pnorm))", ""), ("(lipschitz (abs))", ""),
    ("(wasserstein 1 abs)", ""), ("(moment)", ""), ("(moment 1.5)", ""),
    ("(moment inf)", ""), ("(moment 2 euclidean)", ""), ("(moment 2 spectral 1)", ""),
    ("(scale tv 0.5)", ""), ("(polar)", ""), ("(polar tv tv)", ""), ("(intersect)", ""),
    ("(union)", ""), ("(sum)", ""), ("(sum tv)", ""), ("(sum (1))", ""),
    ("(sum (tv 1))", ""), ("(sum (1 tv) l2ball)", ""),
]


def loaded(doc):
    """The config a command handler takes: doc as the CLI reads it."""
    return load_config(json.dumps(doc))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestGaugeGrammar:
    def test_worked_example(self):
        expr = parse_gauge("(scale 0.5 (polar (lipschitz abs)))")
        assert isinstance(expr, Scale) and expr.factor == 0.5
        assert isinstance(expr.child, Polar)
        assert isinstance(expr.child.child, Lipschitz)
        assert expr.child.child.metric.q == 1.0

    def test_atoms(self):
        assert isinstance(parse_gauge("tv"), TotalVariation)
        assert parse_gauge("(cvar 0.8)") == CvarGauge(0.8)
        assert parse_gauge("(chi2 0.16)") == PhiDivergence("chi2", 0.16)
        assert parse_gauge("(divergence kl 0.1)") == PhiDivergence("kl", 0.1)
        w1 = parse_gauge("(w1 euclid)")
        assert isinstance(w1, W1Ball) and w1.metric.q == 2.0
        assert parse_gauge("(moment 2 spectral)") == MomentGauge(2, None, "spectral")
        assert parse_gauge("(w1 (pnorm 3))").metric.q == 3.0
        assert parse_gauge("(wasserstein 1 abs 0.5)") == WassersteinP(1.0, Hemimetric.pnorm(1.0), 0.5)

    def test_combinators(self):
        both = parse_gauge("(intersect tv l2ball)")
        assert isinstance(both, Intersect) and len(both.children) == 2
        summed = parse_gauge("(sum (1 tv) (0.5 l2ball))")
        assert isinstance(summed, MinkowskiSum)
        assert summed.terms[1][0] == 0.5
        assert isinstance(parse_gauge("(union tv l2ball)"), ConvexUnion)

    def test_unknown_atom_is_named(self):
        with pytest.raises(ConfigError, match="frobble"):
            parse_gauge("(frobble 1)")
        with pytest.raises(ConfigError, match="blorp"):
            parse_gauge("blorp")

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(ConfigError, match="unbalanced"):
            parse_gauge("(scale 0.5 (polar tv)")
        with pytest.raises(ConfigError, match="trailing"):
            parse_gauge("tv l2ball")
        with pytest.raises(ConfigError, match="unexpected"):
            parse_gauge(")")

    def test_argument_shape_errors(self):
        with pytest.raises(ConfigError):
            parse_gauge("3.5")
        with pytest.raises(ConfigError):
            parse_gauge("(sum tv)")
        with pytest.raises(ConfigError):
            parse_gauge("(cvar)")
        with pytest.raises(ConfigError):
            parse_gauge("(lipschitz tv)")

    @pytest.mark.parametrize("text, expected", GRAMMAR_CASES)
    def test_expression_parses_or_is_refused(self, text, expected):
        if isinstance(expected, GaugeExpr):
            assert parse_gauge(text) == expected
        else:
            with pytest.raises(ConfigError, match="^gauge: " + re.escape(expected)):
                parse_gauge(text)

    def test_docstring_documents_the_grammar_table(self):
        # each documented form's head and argument shape: "" for a plain
        # argument, "?" for an optional [one], "+" for one followed by "..."
        def shape(form):
            if isinstance(form, str):
                return form, []
            marks = []
            for arg in form[1:]:
                if arg == "...":
                    marks[-1] = "+"
                else:
                    marks.append("?" if isinstance(arg, str) and arg.startswith("[") else "")
            return form[0], marks

        block = cli.__doc__.split("Gauge expressions")[1].split("Example:")[0]
        documented = {
            label: dict(shape(cli._parse_sexpr(item, label)) for item in text.split(","))
            for label, text in re.findall(r"^    (\w+) +(.*?)(?=^    \w|\Z)", block, re.M | re.S)}

        def table(what, keep):
            return {head: [kind[-1] if kind[-1] in "?+" else "" for kind in spec.split()]
                    for head, (_, spec) in cli._GRAMMAR[what].items()
                    if keep({kind.rstrip("?+") for kind in spec.split()})}

        def combines(kinds):
            return bool(kinds & {"gauge", "term"})

        assert documented["metrics"] == table("metric", lambda kinds: True)
        assert documented["atoms"] == table("gauge", lambda kinds: not combines(kinds))
        assert documented["combinators"] == table("gauge", combines)


class TestCostExpressions:
    def test_evaluation(self):
        fn = compile_cost("abs(x0 - 1.5)")
        assert fn([0.0]) == 1.5
        assert fn([3.0]) == 1.5
        assert compile_cost("x")([2.0]) == 2.0
        assert compile_cost("x0 + 2 * x1")([1.0, 3.0]) == 7.0
        assert compile_cost("max(x0, 2)")([1.0]) == 2.0

    def test_rejects_anything_but_arithmetic(self):
        with pytest.raises(ConfigError):
            compile_cost("__import__('os')")
        with pytest.raises(ConfigError):
            compile_cost("x0.real")
        with pytest.raises(ConfigError):
            compile_cost("'a'")
        with pytest.raises(ConfigError):
            compile_cost("open('x')")
        with pytest.raises(ConfigError):
            compile_cost("x0 +")

    def test_missing_coordinate_is_a_config_error(self):
        fn = compile_cost("x3")
        with pytest.raises(ConfigError):
            fn([0.0])

    def test_tower_of_powers_fails_at_once(self):
        # integer ** would build a 4.6e6-digit integer before failing
        fn = compile_cost("9**9**7")
        start = time.monotonic()
        with pytest.raises(ConfigError):
            fn([0.0])
        assert time.monotonic() - start < 1.0
        with pytest.raises(ConfigError):
            compile_cost("1" + "0" * 400)

    def test_complex_result_is_a_config_error(self):
        with pytest.raises(ConfigError):
            compile_cost("(x0 - 2) ** 0.5")([1.0])


class TestConfigLoading:
    def test_syntax_error_has_line_and_column(self):
        with pytest.raises(ConfigError, match="line 1 column"):
            load_config('{"space": }')

    def test_unknown_top_level_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config('{"space": {}, "extra": 1}')

    def test_weights_must_sum_to_one(self, tmp_path, capsys):
        doc = dict(BASE_DOC)
        doc["space"] = {"points": [[0], [1]], "weights": [0.6, 0.6]}
        doc["cost"] = {"values": [0, 1]}
        code = main(["duality-check", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "space.weights" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["duality-check", "--config", "/no/such/file.json"]) == 1

    def test_bad_command_is_a_usage_error(self, tmp_path, capsys):
        code = main(["bogus", "--config", write_config(tmp_path, BASE_DOC)])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        ("duality-check", dict(BASE_DOC, seed="abc"), "seed"),
        ("duality-check", dict(BASE_DOC, seed=1.5), "seed"),
        ("duality-check", dict(BASE_DOC, solver={"tol": "tight"}), "solver.tol"),
        ("duality-check", dict(BASE_DOC, solver={"max-iter": "many"}), "solver.max-iter"),
        ("duality-check", dict(BASE_DOC, space={"sampler": {
            "lower": 0.0, "upper": 3.0, "count": "many"}}), "space.sampler.count"),
        ("duality-check", dict(BASE_DOC, space={"sampler": {
            "lower": "zero", "upper": 3.0, "count": 4}}), "space.sampler.lower"),
        ("duality-check", dict(BASE_DOC, space={"points": "abc"}), "space.points"),
        ("duality-check", dict(BASE_DOC, space={
            "points": [[0], [1]], "weights": ["half", "half"]}), "space.weights"),
        ("duality-check", dict(BASE_DOC, cost={"values": [0, 1, "two", 3]}), "cost.values"),
        ("verify", dict(BASE_DOC, basis={"kind": "moment", "order": "two"}), "basis.order"),
        ("verify", dict(BASE_DOC, basis={"kind": "singletons", "points": [[0], [1, 2]]}),
         "basis.points"),
        ("verify", dict(BASE_DOC, basis={"kind": "indicator-regions", "boxes": [["a", 1]]}),
         "basis.boxes[0]"),
        ("verify", dict(BASE_DOC, stages=[{"gauge": "tv", "epsilon": "half"}]),
         "stages[0].epsilon"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [4, "many"]}), "samples.sizes[1]"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": 0.0, "upper": "three", "count": 4}}), "space.sampler.upper"),
        ("case-study", {"case-instance": dict(CASE_DOC["case-instance"], delta="small")},
         "case-instance.delta"),
        ("case-study", {"case-instance": dict(CASE_DOC["case-instance"], beta=[0.8])},
         "case-instance.beta"),
        ("case-study", {"case-instance": dict(CASE_DOC["case-instance"], radii=["a", 0.2])},
         "case-instance.radii"),
        ("case-study", {"case-instance": dict(CASE_DOC["case-instance"], samples="many")},
         "case-instance.samples"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [0, 4]}), "samples.sizes[0]"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [-3]}), "samples.sizes[0]"),
        ("verify", dict(BASE_DOC, stages=[{"gauge": "tv", "epsilon": -0.5}]),
         "stages[0].epsilon"),
        ("verify", dict(BASE_DOC, stages=[{"gauge": "(cvar 1.5)", "epsilon": 0.5}]),
         "stages[0].gauge"),
        ("verify", dict(BASE_DOC, basis={"kind": "moment", "order": 3}), "basis"),
        ("envelope-sweep", dict(SWEEP_DOC, epsilon=-0.5), "epsilon"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": 0.0, "upper": 3.0, "count": "many"}}), "space.sampler.count"),
        ("envelope-sweep", dict(SWEEP_DOC, cost={"expression": "x0", "scale": 2}), "cost"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": 3.0, "upper": 0.0, "count": 4}}), "space.sampler.upper"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": [0.0, 0.0], "upper": [3.0], "count": 4}}), "space.sampler.upper"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": float("-inf"), "upper": 3.0, "count": 4}}), "space.sampler.lower"),
        ("duality-check", dict(SAMPLED_DOC, space={"sampler": {
            "lower": [[0, 0]], "upper": [[3, 3]], "count": 4}}), "space.sampler.lower"),
        ("duality-check", dict(SAMPLED_DOC, space={"sampler": {
            "lower": [0, 0], "upper": [[3, 3]], "count": 4}}), "space.sampler.upper"),
        ("envelope-sweep", dict(SWEEP_DOC, space={"sampler": {
            "lower": [[0]], "upper": [[3]], "count": 4}}), "space.sampler.lower"),
        ("duality-check", dict(SAMPLED_DOC, space={"sampler": {
            "lower": [], "upper": [], "count": 4}}), "space.sampler.lower"),
        ("verify", dict(BASE_DOC, tau=float("inf")), "tau"),
        ("verify", dict(BASE_DOC, tau=float("nan")), "tau"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [4], "target": float("nan")}),
         "samples.target"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [4], "target": float("inf")}),
         "samples.target"),
        ("verify", dict(BASE_DOC, basis={"kind": "singletons", "points": [[0], [3]],
                                         "nonneg": "false"}), "basis.nonneg"),
        ("case-study", dict(CASE_DOC, gauge="(cvar 1.5)"), "gauge"),
        ("verify", dict(BASE_DOC, basis={"kind": ["moment"]}), "basis.kind"),
        ("verify", dict(BASE_DOC, gauge="(polar (lipschitz abs))", basis={
            "kind": "moment", "order": 2, "nonneg": True}), "basis.nonneg"),
        ("verify", dict(BASE_DOC, gauge="(polar (lipschitz abs))", basis={
            "kind": "piecewise-affine", "boxes": [[0, 2], [2, 3.5]], "nonneg": True}),
         "basis.nonneg"),
    ])
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, command, doc, key):
        code = main([command, "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"gaugekit: {key}: ")

    @pytest.mark.parametrize("doc, flags, env_seed, key", [
        (dict(SAMPLED_DOC, seed=-1), [], None, "seed"),
        (dict(SAMPLED_DOC, seed=2**64), [], None, "seed"),
        (SAMPLED_DOC, [], "-1", "GAUGEKIT_SEED"),
        (dict(SAMPLED_DOC, seed=1), [], str(2**64), "GAUGEKIT_SEED"),
        (SAMPLED_DOC, ["--seed=-1"], "1", "--seed"),
        (dict(BASE_DOC, solver={"tol": -1}), [], None, "solver.tol"),
        (dict(BASE_DOC, solver={"tol": 0}), [], None, "solver.tol"),
        (dict(BASE_DOC, solver={"tol": float("nan")}), [], None, "solver.tol"),
        (dict(BASE_DOC, solver={"tol": float("inf")}), [], None, "solver.tol"),
        (dict(BASE_DOC, solver={"max-iter": 0}), [], None, "solver.max-iter"),
        (dict(BASE_DOC, solver={"max-iter": -5}), [], None, "solver.max-iter"),
        (BASE_DOC, ["--tol", "0"], None, "--tol"),
        (BASE_DOC, ["--tol", "inf"], None, "--tol"),
        (dict(BASE_DOC, solver={"tol": 1e-6}), ["--tol", "nan"], None, "--tol"),
        (dict(SAMPLED_DOC, space={"sampler": {"lower": 0.0, "upper": 3.0, "count": 0}}),
         [], None, "space.sampler.count"),
        (dict(BASE_DOC, space={"points": [[0], [1], [2], [3]], "weights": [0.5, 0.5, 0, 0]}),
         [], None, "space.weights"),
        (dict(BASE_DOC, gauge="(cvar 1.5)"), [], None, "gauge"),
        (dict(BASE_DOC, gauge="(chi2 -1)"), [], None, "gauge"),
        (dict(BASE_DOC, gauge="(scale -1 tv)"), [], None, "gauge"),
        (dict(BASE_DOC, gauge="(wasserstein 0.5 abs 1)"), [], None, "gauge"),
        (dict(BASE_DOC, gauge="(moment 3)"), [], None, "gauge"),
        (dict(BASE_DOC, epsilon=-0.5), [], None, "epsilon"),
        (dict(BASE_DOC, epsilon=float("inf")), [], None, "epsilon"),
        (dict(BASE_DOC, gauge="(moment 1.5)"), [], None, "gauge"),
        (dict(BASE_DOC, gauge="(moment 2 foo)"), [], None, "gauge"),
        (dict(SAMPLED_DOC, space={"sampler": {"lower": 3.0, "upper": 0.0, "count": 4}}),
         [], None, "space.sampler.upper"),
        (dict(SAMPLED_DOC, space={"sampler": {"lower": [0.0, 0.0], "upper": [3.0], "count": 4}}),
         [], None, "space.sampler.upper"),
        (dict(SAMPLED_DOC, space={"sampler": {"lower": float("-inf"), "upper": 3.0, "count": 4}}),
         [], None, "space.sampler.lower"),
        (dict(BASE_DOC, space={"points": [0, 1, 2, float("inf")]}), [], None, "space.points"),
        (dict(BASE_DOC, space={"points": [[[0]], [[1]], [[2]], [[3]]]}), [], None,
         "space.points"),
        (dict(BASE_DOC, space={"points": []}), [], None, "space.points"),
        (BASE_DOC, ["--out", "/nonexistent/dir/x.csv"], None, "--out"),
        (dict(BASE_DOC, space={"points": [[0], [1], [2], [3]],
                               "weights": [float("nan"), 0.5, 0.25, 0.25]}),
         [], None, "space.weights"),
        (dict(BASE_DOC, cost={"values": [0, 1, float("nan"), 3]}), [], None, "cost.values"),
        (dict(BASE_DOC, space={"points": [[0], [1], [2], [3]], "weights": [0.5, 0.5]}),
         [], None, "space.weights"),
        (dict(BASE_DOC, cost={"expression": 5}), [], None, "cost.expression"),
        (dict(BASE_DOC, epsilon=10 ** 400), [], None, "epsilon"),
        (dict(BASE_DOC, cost={"values": [0, 1, 10 ** 400, 3]}), [], None, "cost.values"),
        (dict(BASE_DOC, cost={"expression": "1e308 * 10 * x0"}), [], None, "cost.expression"),
    ])
    def test_out_of_range_setting_names_its_source(self, tmp_path, capsys, monkeypatch,
                                                   doc, flags, env_seed, key):
        if env_seed is None:
            monkeypatch.delenv("GAUGEKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("GAUGEKIT_SEED", env_seed)
        code = main(["duality-check", "--config", write_config(tmp_path, doc)] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"gaugekit: {key}: ")

    @pytest.mark.parametrize("command, doc, path", [
        ("duality-check", BASE_DOC, "seed"),
        ("duality-check", BASE_DOC, "solver"),
        ("duality-check", dict(BASE_DOC, solver={}), "solver.tol"),
        ("duality-check", dict(BASE_DOC, solver={}), "solver.max-iter"),
        ("duality-check", dict(BASE_DOC, space={"points": [[0], [1], [2], [3]]}),
         "space.weights"),
        ("verify", BASE_DOC, "basis"),
        ("verify", dict(BASE_DOC, basis={"kind": "singletons", "points": [[0], [3]]}),
         "basis.nonneg"),
        ("verify", BASE_DOC, "stages"),
        ("verify", BASE_DOC, "tau"),
        ("envelope-sweep", dict(SWEEP_DOC, samples={"sizes": [4]}), "samples.target"),
    ])
    def test_null_counts_as_absent(self, tmp_path, capsys, monkeypatch, command, doc, path):
        monkeypatch.delenv("GAUGEKIT_SEED", raising=False)
        nulled = json.loads(json.dumps(doc))
        *blocks, key = path.split(".")
        block = nulled
        for name in blocks:
            block = block[name]
        block[key] = None
        runs = []
        for run in (doc, nulled):
            code = main([command, "--config", write_config(tmp_path, run)])
            runs.append((code, capsys.readouterr()))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_docstring_documents_the_config_table(self):
        def paths(shape, path):
            if isinstance(shape, dict):
                return [leaf for key, sub in shape.items()
                        for leaf in paths(sub, f"{path}.{key}" if path else key)]
            if isinstance(shape, list):
                return paths(shape[0], path + "[]")
            return [path]

        block = cli.__doc__.split("Configuration\n")[1].split("Cost expressions")[0]
        assert re.findall(r"^    (\S+)", block, re.M) == paths(cli._CONFIG, "")

    def test_docstring_documents_the_basis_kinds(self):
        rule = re.search(r"^    basis\.kind +(.*?)(?=^    \S)", cli.__doc__, re.M | re.S)[1]
        assert re.split(r",\s*|\s+or\s+", rule.strip()) == list(cli._BASES)

    def test_largest_seed_samples_a_space(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GAUGEKIT_SEED", raising=False)
        doc = dict(SAMPLED_DOC, seed=2**64 - 1)
        assert main(["duality-check", "--config", write_config(tmp_path, doc)]) == 0


class TestDualityCheck:
    def test_total_variation_instance(self, tmp_path, capsys):
        code = main(["duality-check", "--config", write_config(tmp_path, BASE_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        columns, rows, _ = cli.cmd_duality_check(loaded(BASE_DOC), None, 0)
        values = {row[0]: row[1] for row in rows}
        assert values["primal"] == pytest.approx(2.25, abs=1e-6)
        assert values["dual"] == pytest.approx(2.25, abs=1e-6)
        assert "gap" in out

    def test_zero_radius_is_the_mean(self):
        doc = dict(BASE_DOC, epsilon=0.0)
        _, rows, code = cli.cmd_duality_check(loaded(doc), None, 0)
        assert code == 0
        values = {row[0]: row[1] for row in rows}
        assert values["primal"] == pytest.approx(1.5, abs=1e-6)
        assert values["dual"] == pytest.approx(1.5, abs=1e-6)

    def test_truncated_solve_exits_two(self, tmp_path, capsys):
        doc = dict(BASE_DOC, solver={"max-iter": 3})
        code = main(["duality-check", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "max_iter" in capsys.readouterr().out

    def test_expression_cost_matches_explicit_values(self):
        doc = dict(BASE_DOC)
        doc["cost"] = {"expression": "x0"}
        _, rows, code = cli.cmd_duality_check(loaded(doc), None, 0)
        assert code == 0
        assert rows[1][1] == pytest.approx(2.25, abs=1e-6)


class TestEnvelopeSweep:
    def test_sweep_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["envelope-sweep", "--config",
                     write_config(tmp_path, SWEEP_DOC), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# gaugekit csv 1 envelope-sweep"
        assert lines[1] == "m,seed,z_m,w1_bound,gap,status"
        assert len(lines) == 5
        final = lines[4].split(",")
        assert abs(float(final[2]) - 2.0) <= 0.3
        assert final[5] == "ok"

    def test_single_size_runs(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, samples={"sizes": [1]})
        out = tmp_path / "one.csv"
        main(["envelope-sweep", "--config", write_config(tmp_path, doc),
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[5] == "surrogate"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, samples={"sizes": [4, 8]})
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["envelope-sweep", "--config", cfg, "--out", str(a)])
        main(["envelope-sweep", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_environment_seed_matches_config_seed(self, tmp_path, capsys, monkeypatch):
        doc = dict(SWEEP_DOC, samples={"sizes": [4, 8]})
        cfg_five = write_config(tmp_path, dict(doc, seed=5), "five.json")
        a, b = tmp_path / "env.csv", tmp_path / "cfg.csv"
        monkeypatch.setenv("GAUGEKIT_SEED", "5")
        main(["envelope-sweep", "--config", write_config(tmp_path, doc),
              "--out", str(a)])
        monkeypatch.delenv("GAUGEKIT_SEED")
        main(["envelope-sweep", "--config", cfg_five, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_plane_sweep_runs(self, tmp_path, capsys):
        # a 2-D box against its 2048-point reference takes the plan LP
        doc = dict(SWEEP_DOC, space={"sampler": {"lower": [0.0, 0.0], "upper": [3.0, 3.0],
                                                 "count": 64}},
                   cost={"expression": "x0 + x1"}, gauge="(polar (lipschitz euclid))",
                   samples={"sizes": [4, 16]})
        out = tmp_path / "plane.csv"
        code = main(["envelope-sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[5] for row in rows] == ["surrogate", "surrogate"]

    def test_solver_settings_do_not_reach_the_exact_rule(self, tmp_path, capsys):
        outs = []
        for doc, flags in ((SWEEP_DOC, []), (dict(SWEEP_DOC, solver={"max-iter": 1}), []),
                           (SWEEP_DOC, ["--tol", "1e-3"])):
            code = main(["envelope-sweep", "--config", write_config(tmp_path, doc)] + flags)
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_runs_with_the_conic_solver_refused(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, SWEEP_DOC)
        assert main(["envelope-sweep", "--config", cfg]) == 0
        plain = capsys.readouterr().out

        def refused(*args, **kwargs):
            raise AssertionError("envelope-sweep must not call the conic solver")

        monkeypatch.setattr(cli.conic, "solve", refused)
        assert main(["envelope-sweep", "--config", cfg]) == 0
        assert capsys.readouterr().out == plain

    def test_needs_a_transport_gauge(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, gauge="tv")
        code = main(["envelope-sweep", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "transport" in capsys.readouterr().err

    def test_infinite_cost_names_the_expression(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, cost={"expression": "1e308 * 10 * x0"})
        code = main(["envelope-sweep", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "cost.expression: must be finite" in capsys.readouterr().err


class TestCaseStudyCommand:
    def test_priced_instance(self, tmp_path, capsys):
        code = main(["case-study", "--config", write_config(tmp_path, CASE_DOC)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("envelope-lp")
        assert lines[2].startswith("funcparam-sdp")
        lp, sdp = float(lines[1].split()[1]), float(lines[2].split()[1])
        assert sdp >= lp - 1e-6

    def test_zero_budgets_match_the_grid(self):
        doc = {"case-instance": dict(CASE_DOC["case-instance"],
                                     delta=0.0, radii=[0.0, 0.0]),
               "solver": {"max-iter": 4000}}
        from gaugekit.conic import SolveSettings
        _, rows, code = cli.cmd_case_study(loaded(doc), SolveSettings(max_iter=4000), 0)
        byname = {row[0]: row for row in rows}
        assert "grid-cvar" in byname
        lp = byname["envelope-lp"]
        assert lp[4] == "optimal"
        assert abs(lp[1] - byname["grid-cvar"][1]) <= 1e-4
        # the quadratic route may stop at the iteration cap here: with every
        # budget at zero its infimum is not attained, so only the envelope
        # value is pinned to the grid
        assert code in (0, 2)

    def test_single_sample_places_the_facility_on_it(self):
        doc = {"case-instance": {
            "lower": [0, 0], "upper": [1, 1],
            "region-lower": [[0.0, 0.0]], "region-upper": [[1.0, 1.0]],
            "samples": [[0.3, 0.7]], "delta": 0.0, "radii": [0.0],
            "beta": 0.5}}
        from gaugekit.conic import SolveSettings
        _, rows, _ = cli.cmd_case_study(loaded(doc), SolveSettings(max_iter=4000), 0)
        lp = rows[0]
        assert lp[0] == "envelope-lp" and lp[4] == "optimal"
        assert lp[2] == pytest.approx(0.3, abs=1e-6)
        assert lp[3] == pytest.approx(0.7, abs=1e-6)

    def test_zero_budget_instance_passes(self):
        _, rows, code = cli.cmd_case_study(loaded(ZERO_CASE_DOC), None, 0)
        assert code == 0
        assert [(row[0], row[4]) for row in rows] == [
            ("envelope-lp", "optimal"), ("funcparam-sdp", "optimal"), ("grid-cvar", "ok")]

    def test_grid_mismatch_is_a_breach_row(self, tmp_path, capsys, monkeypatch):
        grid = cli.grid_cvar_value

        def shifted(instance):
            value, spot = grid(instance)
            return value + 1e-3, spot

        monkeypatch.setattr(cli, "grid_cvar_value", shifted)
        code = main(["case-study", "--config", write_config(tmp_path, ZERO_CASE_DOC)])
        assert code == 2
        statuses = {line.split()[0]: line.split()[4]
                    for line in capsys.readouterr().out.splitlines()[1:]}
        assert statuses == {"envelope-lp": "optimal", "funcparam-sdp": "optimal",
                            "grid-cvar": "breach"}

    def test_quadratic_value_below_the_envelope_is_a_breach_row(self, tmp_path, capsys,
                                                                 monkeypatch):
        solve = cli.solve_case

        def undercut(instance, solver=None):
            lp, sdp = solve(instance, solver)
            return lp, dataclasses.replace(sdp, value=lp.value - 1e-3)

        monkeypatch.setattr(cli, "solve_case", undercut)
        code = main(["case-study", "--config", write_config(tmp_path, ZERO_CASE_DOC)])
        assert code == 2
        statuses = {line.split()[0]: line.split()[4]
                    for line in capsys.readouterr().out.splitlines()[1:]}
        assert statuses == {"envelope-lp": "optimal", "funcparam-sdp": "breach",
                            "grid-cvar": "ok"}

    def test_instance_errors_exit_one(self, tmp_path, capsys):
        doc = {"case-instance": dict(CASE_DOC["case-instance"], beta=1.5)}
        code = main(["case-study", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "case-instance" in capsys.readouterr().err


class TestVerify:
    def test_tail_average_triple(self):
        doc = dict(BASE_DOC, gauge="(cvar 0.5)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        names = [row[0] for row in rows]
        assert "sorted-vs-dual" in names and "sorted-vs-walk" in names
        assert all(row[5] == "ok" for row in rows)

    def test_chi_square_four_way(self):
        doc = dict(BASE_DOC, gauge="(chi2 0.16)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        names = [row[0] for row in rows]
        for check in ("closed-vs-dual", "closed-vs-walk", "closed-vs-scalar"):
            assert check in names

    def test_floor_bound_chi_square_checks_the_scalar_dual(self):
        # at budget 1 the density floor binds, so no closed form applies and
        # the scalar dual meets the conic dual at 2.5773503, not mean + std
        doc = dict(BASE_DOC, gauge="(chi2 1)", epsilon=1.0)
        _, rows, _ = cli.cmd_verify(loaded(doc), None, 0)
        by_name = {row[0]: row for row in rows}
        assert "closed-vs-scalar" not in by_name
        assert by_name["scalar-vs-dual"][1] == pytest.approx(2.5773503, abs=1e-6)
        assert by_name["scalar-vs-dual"][5] == "ok"

    def test_euclidean_ball_checks_the_closed_form(self):
        doc = dict(BASE_DOC, gauge="l2ball", epsilon=0.4)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        by_name = {row[0]: row for row in rows}
        assert by_name["closed-vs-dual"][1] == pytest.approx(1.5 + 0.4 * np.sqrt(1.25), abs=1e-9)
        assert by_name["closed-vs-dual"][5] == "ok"

    def test_divergence_walk_against_the_scalar_dual(self):
        doc = dict(BASE_DOC, gauge="(kl 0.1)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        assert rows[0][0] == "walk-vs-scalar"
        assert rows[0][1] == pytest.approx(1.994274121793934, abs=2e-3)

    @pytest.mark.parametrize("gauge", ["tv", "(cvar 0.5)", "l2ball", "(chi2 4)", "(w1 abs)",
                                       "(polar (lipschitz abs))"])
    def test_routes_look_through_scale_into_the_radius(self, gauge):
        routed = False
        for factor, eps in ((0.5, 0.8), (2.0, 0.5), (0.25, 2.0)):
            _, scaled, _ = cli.cmd_verify(loaded(
                dict(BASE_DOC, gauge=f"(scale {factor} {gauge})", epsilon=eps)), None, 0)
            _, plain, _ = cli.cmd_verify(loaded(
                dict(BASE_DOC, gauge=gauge, epsilon=factor * eps)), None, 0)
            assert [(r[0], r[5]) for r in scaled] == [(r[0], r[5]) for r in plain]
            for got, want in zip(scaled, plain):
                for at in (1, 2):
                    assert abs(got[at] - want[at]) <= 1e-8 * (1.0 + abs(want[at])), got
            routed = routed or len(scaled) > 1
        assert routed

    # 49 * 0.02040816326530612 is 0.9999999999999999, a unit radius to the
    # scalar dual's rule
    @pytest.mark.parametrize("kind, checks", [
        ("kl", ["walk-vs-scalar"]),
        ("chi2", ["primal-vs-dual", "walk-vs-dual", "scalar-vs-dual"]),
    ])
    def test_radius_within_rounding_of_one_takes_the_scalar_dual(self, kind, checks):
        doc = dict(BASE_DOC, gauge=f"(scale 0.02040816326530612 ({kind} 4))", epsilon=49)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        assert [row[0] for row in rows] == checks
        assert all(row[5] == "ok" for row in rows)

    def test_divergence_budget_needs_unit_epsilon(self, tmp_path, capsys):
        doc = dict(BASE_DOC, gauge="(kl 0.1)", epsilon=0.5)
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == 1

    def test_threshold_sensitivity_rows(self):
        doc = dict(BASE_DOC, tau=1.5)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        sens = [row for row in rows if row[0] == "threshold-sensitivity"]
        assert len(sens) == 2
        assert all(row[5] == "ok" for row in sens)

    def test_truncated_threshold_probe_exits_two(self, tmp_path, capsys, monkeypatch):
        # the radius probes' duals: alpha, four weights, then the probe radius
        solve = cli.conic.solve

        def truncated(program, settings=None):
            sol = solve(program, settings)
            if program.c[0] == 1.0 and program.c[5] in (0.25, 1.0):
                return dataclasses.replace(sol, status="max_iter")
            return sol

        monkeypatch.setattr(cli.conic, "solve", truncated)
        doc = dict(BASE_DOC, tau=1.5)
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "max_iter" in capsys.readouterr().err

    def test_unreachable_threshold(self):
        doc = dict(BASE_DOC, tau=1.0)
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        assert any(row[0] == "threshold-unreachable" for row in rows)

    def test_restricted_basis_dominates(self):
        doc = dict(BASE_DOC, gauge="(polar (lipschitz abs))",
                   basis={"kind": "piecewise-affine", "boxes": [[0, 2], [2, 3.5]]})
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        assert any(row[0] == "restricted-dominates" for row in rows)

    @pytest.mark.parametrize("basis", [
        {"kind": "indicator-regions", "boxes": [[0, 2], [2, 3.5]]},
        {"kind": "piecewise-affine", "boxes": [[0, 2], [2, 3.5]]},
        {"kind": "moment", "order": 2},
        {"kind": "singletons", "points": [[0], [1], [2], [3]]},
    ], ids=lambda basis: basis["kind"])
    def test_nonneg_false_is_the_default(self, basis):
        doc = dict(BASE_DOC, gauge="(polar (lipschitz abs))", basis=basis)
        plain = cli.cmd_verify(loaded(doc), None, 0)
        assert plain[2] == 0
        assert cli.cmd_verify(loaded(dict(doc, basis=dict(basis, nonneg=False))), None, 0) == plain

    def test_basis_on_a_polar_without_encoder_is_a_config_error(self, tmp_path, capsys):
        # the kl ball's polar has no cone encoder, so no restricted dual exists
        doc = dict(BASE_DOC, gauge="(kl 0.1)", epsilon=1,
                   basis={"kind": "moment", "order": 1})
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err.startswith("gaugekit: basis: no conic epigraph")

    def test_single_stage_composition_matches_the_dual(self):
        doc = dict(BASE_DOC, gauge="(polar (lipschitz abs))",
                   stages=[{"gauge": "(polar (lipschitz abs))", "epsilon": 0.5}])
        _, rows, code = cli.cmd_verify(loaded(doc), None, 0)
        assert code == 0
        byname = {row[0]: row for row in rows}
        assert byname["composed-vs-primal"][5] == "ok"
        assert byname["composed-vs-primal"][1] == pytest.approx(2.0, abs=1e-5)

    def test_every_solve_takes_the_tolerance_flag(self, tmp_path, monkeypatch, capsys):
        tols = []
        solve = cli.conic.solve

        def recorded(program, settings=None):
            tols.append(None if settings is None else settings.tol)
            return solve(program, settings)

        monkeypatch.setattr(cli.conic, "solve", recorded)
        doc = dict(BASE_DOC, tau=1.5, stages=[{"gauge": "tv", "epsilon": 0.5},
                                              {"gauge": "(cvar 0.5)", "epsilon": 1.0}])
        code = main(["verify", "--config", write_config(tmp_path, doc), "--tol", "1e-7"])
        assert code == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert "stages-monotone" in names and "threshold-sensitivity" in names
        assert tols and set(tols) == {1e-7}


README = Path(__file__).resolve().parents[1] / "README.md"

# each command section's JSON config, command and printed table
README_RUNS = re.findall(r"```json\n(.*?)```\s*```\n\$ gaugekit (\S+) --config \S+\n(.*?)```",
                         README.read_text(), re.S)


@pytest.mark.parametrize("config, command, table", README_RUNS,
                         ids=[run[1] for run in README_RUNS])
def test_readme_commands_print_their_tables(tmp_path, capsys, monkeypatch,
                                            config, command, table):
    monkeypatch.delenv("GAUGEKIT_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(config)
    assert main([command, "--config", str(path)]) == 0
    got = [line.split() for line in capsys.readouterr().out.splitlines()]
    want = [line.split() for line in table.splitlines()]
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_cell, want_cell in zip(sum(got, []), sum(want, [])):
        try:
            value = float(want_cell)
        except ValueError:
            assert got_cell == want_cell
        else:
            assert abs(float(got_cell) - value) <= 1e-9 * (1.0 + abs(value)), want_cell


def test_readme_shows_every_command():
    assert sorted(run[1] for run in README_RUNS) == sorted(cli.COMMANDS)


# the child finds the package where this process imported it from
SRC = Path(cli.__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


class TestScript:
    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        result = subprocess.run(
            [sys.executable, "-m", "gaugekit.cli", "duality-check",
             "--config", cfg],
            capture_output=True, text=True, env=CHILD_ENV)
        assert result.returncode == 0
        assert "dual" in result.stdout


class TestStartUp:
    """A command loads scipy.optimize only when it prices an LP or a scalar
    dual, and nothing loads scipy.spatial."""

    def test_importing_the_cli_loads_neither_module(self):
        probe = ("import sys, gaugekit.cli; "
                 "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial') "
                 "if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True, env=CHILD_ENV)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_no_source_file_names_scipy_spatial(self):
        sources = sorted((SRC / "gaugekit").glob("*.py"))
        assert sources
        assert [p.name for p in sources if "scipy.spatial" in p.read_text(encoding="utf-8")] == []
