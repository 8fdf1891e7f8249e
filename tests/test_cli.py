"""Command-line driver: gauge grammar, config validation, reports, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from gaugekit import cli
from gaugekit.cli import compile_cost, load_config, main, parse_gauge
from gaugekit.errors import ConfigError
from gaugekit.gauge import (
    CvarGauge,
    Intersect,
    Lipschitz,
    MinkowskiSum,
    MomentGauge,
    PhiDivergence,
    Polar,
    Scale,
    TotalVariation,
    W1Ball,
)

BASE_DOC = {
    "space": {"points": [[0], [1], [2], [3]]},
    "cost": {"values": [0, 1, 2, 3]},
    "gauge": "tv",
    "epsilon": 0.5,
}

SWEEP_DOC = {
    "seed": 1,
    "space": {"sampler": {"lower": 0.0, "upper": 3.0, "count": 64}},
    "cost": {"expression": "x0"},
    "gauge": "(polar (lipschitz abs))",
    "epsilon": 0.5,
    "samples": {"sizes": [4, 16, 64], "target": 2.0},
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

    def test_combinators(self):
        both = parse_gauge("(intersect tv l2ball)")
        assert isinstance(both, Intersect) and len(both.children) == 2
        summed = parse_gauge("(sum (1 tv) (0.5 l2ball))")
        assert isinstance(summed, MinkowskiSum)
        assert summed.terms[1][0] == 0.5

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
    ])
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, command, doc, key):
        code = main([command, "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"gaugekit: {key}: ")


class TestDualityCheck:
    def test_total_variation_instance(self, tmp_path, capsys):
        code = main(["duality-check", "--config", write_config(tmp_path, BASE_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        columns, rows, _ = cli.cmd_duality_check(BASE_DOC, None, 0)
        values = {row[0]: row[1] for row in rows}
        assert values["primal"] == pytest.approx(2.25, abs=1e-6)
        assert values["dual"] == pytest.approx(2.25, abs=1e-6)
        assert "gap" in out

    def test_zero_radius_is_the_mean(self):
        doc = dict(BASE_DOC, epsilon=0.0)
        _, rows, code = cli.cmd_duality_check(doc, None, 0)
        assert code == 0
        values = {row[0]: row[1] for row in rows}
        assert values["primal"] == pytest.approx(1.5, abs=1e-6)
        assert values["dual"] == pytest.approx(1.5, abs=1e-6)

    def test_truncated_solve_exits_two(self, tmp_path, capsys):
        doc = dict(BASE_DOC, solver={"max-iter": 10})
        code = main(["duality-check", "--config", write_config(tmp_path, doc)])
        assert code == 2
        assert "max_iter" in capsys.readouterr().out

    def test_expression_cost_matches_explicit_values(self):
        doc = dict(BASE_DOC)
        doc["cost"] = {"expression": "x0"}
        _, rows, code = cli.cmd_duality_check(doc, None, 0)
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

    def test_needs_a_transport_gauge(self, tmp_path, capsys):
        doc = dict(SWEEP_DOC, gauge="tv")
        code = main(["envelope-sweep", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "transport" in capsys.readouterr().err


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
        _, rows, code = cli.cmd_case_study(doc, SolveSettings(max_iter=4000), 0)
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
        _, rows, _ = cli.cmd_case_study(doc, SolveSettings(max_iter=4000), 0)
        lp = rows[0]
        assert lp[0] == "envelope-lp" and lp[4] == "optimal"
        assert lp[2] == pytest.approx(0.3, abs=1e-6)
        assert lp[3] == pytest.approx(0.7, abs=1e-6)

    def test_instance_errors_exit_one(self, tmp_path, capsys):
        doc = {"case-instance": dict(CASE_DOC["case-instance"], beta=1.5)}
        code = main(["case-study", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "case-instance" in capsys.readouterr().err


class TestVerify:
    def test_tail_average_triple(self):
        doc = dict(BASE_DOC, gauge="(cvar 0.5)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        names = [row[0] for row in rows]
        assert "sorted-vs-dual" in names and "sorted-vs-walk" in names
        assert all(row[5] == "ok" for row in rows)

    def test_chi_square_four_way(self):
        doc = dict(BASE_DOC, gauge="(chi2 0.16)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        names = [row[0] for row in rows]
        for check in ("closed-vs-dual", "closed-vs-walk", "closed-vs-scalar"):
            assert check in names

    def test_divergence_walk_against_the_scalar_dual(self):
        doc = dict(BASE_DOC, gauge="(kl 0.1)", epsilon=1.0)
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        assert rows[0][0] == "walk-vs-scalar"
        assert rows[0][1] == pytest.approx(1.994274121793934, abs=2e-3)

    def test_divergence_budget_needs_unit_epsilon(self, tmp_path, capsys):
        doc = dict(BASE_DOC, gauge="(kl 0.1)", epsilon=0.5)
        code = main(["verify", "--config", write_config(tmp_path, doc)])
        assert code == 1

    def test_threshold_sensitivity_rows(self):
        doc = dict(BASE_DOC, tau=1.5)
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        sens = [row for row in rows if row[0] == "threshold-sensitivity"]
        assert len(sens) == 2
        assert all(row[5] == "ok" for row in sens)

    def test_unreachable_threshold(self):
        doc = dict(BASE_DOC, tau=1.0)
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        assert any(row[0] == "threshold-unreachable" for row in rows)

    def test_restricted_basis_dominates(self):
        doc = dict(BASE_DOC, gauge="(polar (lipschitz abs))",
                   basis={"kind": "piecewise-affine", "boxes": [[0, 2], [2, 3.5]]})
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        assert any(row[0] == "restricted-dominates" for row in rows)

    def test_single_stage_composition_matches_the_dual(self):
        doc = dict(BASE_DOC, gauge="(polar (lipschitz abs))",
                   stages=[{"gauge": "(polar (lipschitz abs))", "epsilon": 0.5}])
        _, rows, code = cli.cmd_verify(doc, None, 0)
        assert code == 0
        byname = {row[0]: row for row in rows}
        assert byname["composed-vs-dual"][5] == "ok"
        assert byname["composed-vs-dual"][1] == pytest.approx(2.0, abs=1e-5)


class TestScript:
    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, BASE_DOC)
        result = subprocess.run(
            [sys.executable, "-m", "gaugekit.cli", "duality-check",
             "--config", cfg],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "dual" in result.stdout
