import argparse
import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from morinode import Grid, classify_point, globalgeo, return_map, search
from morinode.cli import (_HANDLERS, EXIT_BAD_FILE, EXIT_OK,
                          EXIT_PRECONDITION, EXIT_USAGE, _build_parser,
                          _jsonable, execute, validate_payload)
from morinode.core import (MalformedFileError, ansatz_from_json, load_json,
                           nonlinearity_from_json)
from tests.conftest import BUTTERFLY_COEFFS, HULL_FAULTS, SIX_ROOT_COEFFS


@pytest.fixture()
def problem_files(tmp_path):
    quartic = {"terms": [{"power": 4, "a0": 1.0},
                         {"power": 2, "a0": -4.0},
                         {"power": 1, "a0": -0.3}]}
    squares = {"terms": [{"power": 2, "a0": 1.0}]}
    ub = {"a0": BUTTERFLY_COEFFS["a0"],
          "cos": [BUTTERFLY_COEFFS[f"a{j}"] for j in range(1, 5)],
          "sin": [0.0] + [BUTTERFLY_COEFFS[f"b{j}"] for j in range(2, 5)]}
    u1 = {"a0": SIX_ROOT_COEFFS["a0"],
          "cos": [SIX_ROOT_COEFFS[f"a{j}"] for j in range(1, 5)],
          "sin": [0.0] + [SIX_ROOT_COEFFS[f"b{j}"] for j in range(2, 5)]}
    ones = {"a0": 1.0, "cos": [0.0], "sin": [0.0]}
    family = {"kind": "quartic_bc"}
    paths = {}
    for name, doc in [("quartic", quartic), ("xsq", squares), ("ub", ub),
                      ("u1", u1), ("ones", ones), ("family", family)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = execute(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else None


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert execute(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_every_subcommand_parses(self, command, capsys):
        assert execute([command, "--help"]) == EXIT_OK

    def test_every_flag_is_read(self):
        # a flag whose value no handler reads is an option nothing sets
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        unread = []
        for name, sp in subparsers.choices.items():
            source = inspect.getsource(_HANDLERS[name])
            unread += [f"{name} --{a.dest}" for a in sp._actions
                       if a.dest not in ("help", "out")
                       and f"args.{a.dest}" not in source]
        assert unread == []

    CENSUS = ("count-solutions --problem {quartic} --rhs {u1} "
              "--apply-operator --range -0.4 0.4 --scan-n ")
    SEARCH = "find-singularity --family {family} --seed {ub} --target 0 "
    PROBLEM = "--problem {quartic} "
    SIGMA = PROBLEM + "--ansatz {ub} "
    SWEEP = "sweep --family {family} --grid c=0:0:1 --analysis count "
    SEARCH_FAMILY = "find-singularity --seed {ub} --target 0 --family"

    @pytest.mark.parametrize("argv", [
        pytest.param("classify-operator " + PROBLEM + "--range -4 4",
                     id="classify-operator-range"),
        pytest.param("sigma " + SIGMA + "--basis-size 8", id="sigma-basis-size"),
        pytest.param("classify-point " + SIGMA + "--basis-size 8",
                     id="classify-point-basis-size"),
        pytest.param(SEARCH + "--max-iterations 100",
                     id="find-singularity-max-iterations"),
        pytest.param(SEARCH + "--grid-n 2048", id="find-singularity-grid-n"),
        pytest.param("hull " + PROBLEM + "--k 2 --count 401", id="hull-count"),
        pytest.param(SWEEP + "--step 1e-3", id="sweep-step"),
        pytest.param(SWEEP + "--scan-n 201", id="sweep-scan-n"),
        pytest.param(SWEEP + "--rhs-constant 0", id="sweep-rhs-constant"),
        pytest.param(SWEEP + "--grid-n 1024", id="sweep-grid-n"),
        pytest.param("tameness " + PROBLEM + "--s-max 50", id="tameness-s-max"),
    ])
    def test_removed_flag_exits_2(self, argv, problem_files, capsys):
        # a flag that no longer exists is a usage error, not silently ignored
        code = execute([a.format(**problem_files) for a in argv.split()])
        assert code == EXIT_PRECONDITION
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize("argv", [
        pytest.param("fibre " + PROBLEM + "--initial {bad}", id="initial"),
        pytest.param("fibre " + PROBLEM + "--average {bad}", id="average"),
        pytest.param("fibre " + PROBLEM + "--trace -1 {bad} 3", id="trace-hi"),
        pytest.param("fibre " + PROBLEM + "--trace -1 1 {bad}",
                     id="trace-count"),
        pytest.param("return-map " + PROBLEM + "--x0 {bad}", id="x0"),
        pytest.param("return-map " + PROBLEM + "--x0 0 --step {bad}",
                     id="return-map-step"),
        pytest.param("count-solutions " + PROBLEM + "--range -1 {bad}",
                     id="census-range"),
        pytest.param("count-solutions " + PROBLEM + "--range -1 1 --step {bad}",
                     id="census-step"),
        pytest.param(SEARCH + "{bad}", id="target"),
        pytest.param(SEARCH + "0 --params b={bad}", id="params"),
        pytest.param("hull " + PROBLEM + "--k 2 --range {bad} 1",
                     id="hull-range"),
        pytest.param("sweep --family {family} --grid c=0:0:1 --range -1 {bad}",
                     id="sweep-range"),
        pytest.param("sweep --family {family} --grid b=0:{bad}:2",
                     id="sweep-grid"),
    ])
    def test_non_finite_number_exits_2(self, argv, bad, problem_files,
                                       capsys):
        code = execute([a.format(bad=bad, **problem_files)
                        for a in argv.split()])
        assert code == EXIT_PRECONDITION
        assert "is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param("sweep --family {family} --grid b=3.5:4.5:2 b=1:2:1 "
                     "c=0:0:1", id="sweep-grid"),
        pytest.param(SEARCH + "--params b=0.5 b=7 c=0.1", id="params"),
    ])
    def test_repeated_name_exits_2(self, argv, problem_files, capsys):
        # a NAME given twice is refused, not overwritten by its last value
        code = execute([a.format(**problem_files) for a in argv.split()])
        assert code == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and "b is given twice" in err

    def test_no_flag_takes_a_bare_float(self):
        # every number flag goes through the finite-float type
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert [f"{name} --{a.dest}"
                for name, sp in subparsers.choices.items()
                for a in sp._actions if a.type is float] == []

    @pytest.mark.parametrize("command, text", [
        pytest.param("degree --problem", "{not json", id="not-json"),
        pytest.param("degree --problem", '{"builtin": "nope"}',
                     id="unknown-builtin"),
        pytest.param("degree --problem", '{"terms": [{"power": -1, "a0": 1}]}',
                     id="negative-power"),
        pytest.param("classify-operator --problem",
                     '{"terms": [{"power": 2, "a0": NaN}]}',
                     id="nan-coefficient"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[2, NaN], [1, {"param": "c"}]], '
                     '"names": ["c"]}', id="nan-family-coefficient"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[2, 1.0], [1, {"param": "c", '
                     '"scale": Infinity}]], "names": ["c"]}',
                     id="infinite-family-scale"),
        pytest.param("sweep --grid c=0:0:1 --family", "[1, 2]",
                     id="family-list"),
        pytest.param("sweep --grid c=0:0:1 --family", '"quartic_bc"',
                     id="family-string"),
        pytest.param("sweep --grid c=0:0:1 --family", "3",
                     id="family-number"),
        pytest.param("degree --problem", '{"terms": [{"power": 2.5, "a0": 1}]}',
                     id="non-integral-power"),
        pytest.param("degree --problem", '{"terms": [{"power": "2", "a0": 1}]}',
                     id="string-power"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[1, {"param": "z"}]], "names": ["b", "c"]}',
                     id="undeclared-family-param"),
        pytest.param(SEARCH_FAMILY,
                     '{"entries": [[1, {"param": "z"}]], "names": ["b", "c"]}',
                     id="undeclared-family-param-search"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[-1, 1.0], [1, {"param": "c"}]], '
                     '"names": ["c"]}', id="negative-family-power"),
        pytest.param(SEARCH_FAMILY,
                     '{"entries": [[-1, 1.0], [1, {"param": "c"}]], '
                     '"names": ["c"]}', id="negative-family-power-search"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[4.7, 1.0], [1, {"param": "c"}]], '
                     '"names": ["c"]}', id="non-integral-family-power"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[1, {"param": "c"}]], "names": ["c", "c"]}',
                     id="repeated-family-name"),
        pytest.param("sweep --grid c=0:0:1 --family",
                     '{"entries": [[1, {"param": "c"}]], "names": "c"}',
                     id="family-names-string"),
    ])
    def test_malformed_problem_file(self, tmp_path, problem_files, capsys,
                                    command, text):
        # a file that does not parse, or parses to a value outside the
        # model, exits 65
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = execute(command.format(**problem_files).split() + [str(bad)])
        assert code == EXIT_BAD_FILE
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"builtin": "nope"}',
                                      '{"terms": [], "builtin": "cosh2_cos"}'])
    def test_builtin_key_names_its_removal(self, tmp_path, capsys, text):
        # the builtin kind is gone: any file that names one exits 65 and
        # says to write f as polynomial terms
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert execute(["degree", "--problem", str(bad)]) == EXIT_BAD_FILE
        err = capsys.readouterr().err
        assert "malformed input" in err
        assert ("the builtin nonlinearities were removed; write f as "
                "polynomial terms") in err

    @pytest.mark.parametrize("doc", [
        pytest.param({"cos": [1.0]}, id="no-a0-no-sin"),
        pytest.param({"a0": 1.0, "cos": [], "sin": []}, id="no-harmonics"),
        pytest.param({"a0": 1.0, "cos": [0.1, 0.2], "sin": [0.3]},
                     id="unequal-lengths"),
        pytest.param({"a0": 1.0, "cos": [float("nan")], "sin": [0.0]},
                     id="nan-cos"),
    ])
    def test_missing_field_in_ansatz(self, tmp_path, problem_files, capsys,
                                     doc):
        bad = tmp_path / "badansatz.json"
        bad.write_text(json.dumps(doc))
        code = execute(["sigma", "--problem", problem_files["quartic"],
                        "--ansatz", str(bad)])
        assert code == EXIT_BAD_FILE

    @pytest.mark.parametrize("argv", [
        pytest.param("hull --problem {quartic} --k 7", id="hull-k7"),
        pytest.param("hull --problem {quartic} --k 0", id="hull-k0"),
        pytest.param(CENSUS + "0", id="scan-n0"),
        pytest.param(CENSUS + "1", id="scan-n1"),
        pytest.param(SEARCH + "--params b", id="params-no-value"),
        pytest.param(SEARCH + "--params B=4.0", id="params-unknown-name"),
        pytest.param("sweep --family {family} --grid b=0:1",
                     id="grid-no-count"),
        pytest.param("sweep --family {family} --grid b=0:1:0 c=0:0:1",
                     id="grid-num0"),
        pytest.param("fibre " + PROBLEM + "--trace -0.5 0.5 2.5",
                     id="trace-count-fraction"),
        pytest.param("fibre " + PROBLEM + "--trace -0.5 0.5 0",
                     id="trace-count-zero"),
        pytest.param("fibre " + PROBLEM + "--trace -0.5 0.5 -3",
                     id="trace-count-negative"),
    ])
    def test_precondition_violation(self, argv, problem_files, capsys):
        # out-of-domain arguments end in exit code 2, not a traceback or a
        # silently wrong answer
        code = execute([a.format(**problem_files) for a in argv.split()])
        assert code == EXIT_PRECONDITION
        assert "precondition violated" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_log_level_info_times_the_command_on_stderr(self, where,
                                                        problem_files,
                                                        capsys):
        # the timing goes to stderr only: stdout is the run without the flag
        argv = ["degree", "--problem", problem_files["xsq"]]
        flag = ["--log-level", "info"]
        assert execute(argv) == EXIT_OK
        plain = capsys.readouterr()
        assert execute(flag + argv if where == "before" else argv + flag) \
            == EXIT_OK
        logged = capsys.readouterr()
        assert plain.err == ""
        assert re.fullmatch(r"morinode: INFO: degree took \d+\.\d{3} s\n",
                            logged.err)
        stamp = re.compile(r'"generated_at": "[^"]*"')
        assert stamp.sub("", logged.out) == stamp.sub("", plain.out)

    def test_unknown_log_level_exits_2(self, problem_files, capsys):
        code = execute(["--log-level", "loud", "degree", "--problem",
                        problem_files["xsq"]])
        assert code == EXIT_PRECONDITION
        assert "invalid choice" in capsys.readouterr().err

    def test_ok(self, problem_files, capsys):
        code, doc = run(capsys, ["degree", "--problem", problem_files["xsq"]])
        assert code == EXIT_OK
        assert doc["result"]["degree"] == 0

    def test_module_entry_point(self, problem_files):
        # ``python -m morinode`` runs the CLI from a source checkout
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "morinode", "degree", "--problem",
             problem_files["xsq"]], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["result"]["degree"] == 0


class TestCommands:
    def test_sigma_butterfly(self, problem_files, capsys):
        code, doc = run(capsys, ["sigma", "--problem", problem_files["quartic"],
                                 "--ansatz", problem_files["ub"],
                                 "--grid-n", "2048"])
        assert code == EXIT_OK
        sigma = doc["result"]["sigma"]
        assert len(sigma) == 5
        assert max(abs(s) for s in sigma[:4]) < 1e-4
        assert abs(sigma[4]) > 1.0
        assert "order" in doc["result"]

    def test_sigma_far_from_the_critical_set(self, problem_files, tmp_path,
                                             capsys):
        linear = tmp_path / "linear.json"
        linear.write_text(json.dumps({"terms": [{"power": 1, "a0": -800.0}]}))
        code, doc = run(capsys, ["sigma", "--problem", str(linear),
                                 "--ansatz", problem_files["ub"]])
        assert code == EXIT_OK
        assert doc["result"]["sigma_abc"] == pytest.approx([-800.0] * 3,
                                                           rel=1e-12)

    def test_degree_examples(self, problem_files, capsys):
        code, doc = run(capsys, ["degree", "--problem", problem_files["xsq"]])
        assert doc["result"]["degree"] == 0

    def test_classify_operator(self, problem_files, capsys):
        code, doc = run(capsys, ["classify-operator", "--problem",
                                 problem_files["quartic"]])
        assert code == EXIT_OK
        assert doc["result"]["verdict"] == "has_higher_singularities"

    def test_tameness(self, problem_files, capsys):
        code, doc = run(capsys, ["tameness", "--problem",
                                 problem_files["quartic"]])
        assert code == EXIT_OK
        assert doc["result"]["tame"] is True

    def test_return_map(self, problem_files, capsys):
        code, doc = run(capsys, ["return-map", "--problem", problem_files["xsq"],
                                 "--rhs", problem_files["ones"], "--x0", "0.5",
                                 "--derivative"])
        assert code == EXIT_OK
        assert doc["result"]["derivative"] > 0

    def test_count_solutions_with_csv(self, problem_files, capsys):
        csv_path = os.path.join(problem_files["dir"], "curve.csv")
        code, doc = run(capsys, [
            "count-solutions", "--problem", problem_files["xsq"],
            "--rhs", problem_files["ones"], "--range", "-2", "2",
            "--step", "1e-3", "--scan-n", "201", "--csv", csv_path])
        assert code == EXIT_OK
        assert doc["result"]["count"] == 2
        with open(csv_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "# x,rho_minus_x"
        first = lines[1].split(",")
        assert len(first) == 2
        float(first[0]); float(first[1])

    def test_count_solutions_diagnostics(self, problem_files, capsys):
        argv = ["count-solutions", "--problem", problem_files["xsq"],
                "--rhs", problem_files["ones"], "--range", "-2", "2",
                "--step", "1e-3", "--scan-n", "201"]
        code, doc1 = run(capsys, argv)
        assert code == EXIT_OK
        passes = doc1["result"]["diagnostics"]["passes"]
        assert [p["h"] for p in passes] == [1e-3, 5e-4]
        for p, nsteps in zip(passes, (1000, 2000)):
            assert p["brackets"] == 2
            assert p["refine_flows"] == sum(p["flows_per_bracket"])
            assert 2 <= p["refine_flows"] <= 16
            assert p["work"] == {"lane_steps": 201 * nsteps,
                                 "flows": p["refine_flows"],
                                 "steps": p["refine_flows"] * nsteps}
        # the work counters are deterministic: payloads repeat
        _, doc2 = run(capsys, argv)
        doc1.pop("generated_at")
        doc2.pop("generated_at")
        assert doc1 == doc2

    def test_fibre_initial_value(self, problem_files, capsys):
        code, doc = run(capsys, ["fibre", "--problem", problem_files["xsq"],
                                 "--initial", "0.25"])
        assert code == EXIT_OK
        assert doc["result"]["residual"] < 1e-8

    @pytest.mark.parametrize("slope, cos, sin, flows", [
        (1000.0, [5e6, 1e6, 2e5], [1e6, 0, 5e5], 3),
        (1.0, [2e6, 1e6, 3e5], [1e6, 0, 5e5], 8),
    ], ids=["forcing-mean", "orbit-closure"])
    def test_fibre_large_forcing_and_orbit(self, tmp_path, capsys, slope, cos,
                                           sin, flows):
        # the zero-mean precondition scales with the forcing and the
        # closure acceptance with the orbit: both solves exited 2 before
        problem = tmp_path / "f.json"
        problem.write_text(json.dumps({"terms": [{"power": 1, "a0": slope}]}))
        rhs = tmp_path / "rhs.json"
        rhs.write_text(json.dumps({"a0": 0, "cos": cos, "sin": sin}))
        code, doc = run(capsys, ["fibre", "--problem", str(problem),
                                 "--rhs", str(rhs), "--initial", "0"])
        assert code == EXIT_OK
        assert doc["result"]["diagnostics"]["flows"] == flows

    def test_fibre_diagnostics_repeat(self, problem_files, capsys):
        # the solver's work counters and final gaps are deterministic, so
        # two runs give the same payload apart from the timestamp
        for extra in (["--average", "0.3"], ["--trace", "-1", "1", "5"]):
            argv = ["fibre", "--problem", problem_files["xsq"]] + extra
            _, doc1 = run(capsys, argv)
            _, doc2 = run(capsys, argv)
            doc1.pop("generated_at")
            doc2.pop("generated_at")
            assert doc1 == doc2
            diag = doc1["result"]["diagnostics"]
            assert diag["flows"] >= 1
            assert diag["expansions"] >= 0 and diag["bisections"] >= 0
        assert diag["points"] == 5
        assert diag["max_closure_gap"] <= 1e-11
        assert diag["max_mean_gap"] <= 1e-12

    def test_hull_certificate(self, problem_files, capsys):
        code, doc = run(capsys, ["hull", "--problem", problem_files["quartic"],
                                 "--k", "2", "--range", "-3", "3"])
        assert code == EXIT_OK
        assert doc["result"]["interior"] is True
        assert doc["result"]["certificate_residual"] < 1e-9

    def test_hull_diagnostics(self, problem_files, capsys):
        code, doc = run(capsys, ["hull", "--problem", problem_files["quartic"],
                                 "--k", "2", "--range", "-3", "3"])
        assert code == EXIT_OK
        diag = doc["result"]["diagnostics"]
        assert set(diag) == {"lp_pivots", "phase1_pivots",
                             "certificate_residual", "certificate_tol",
                             "margin_decades"}
        assert diag["lp_pivots"] >= 1 and diag["phase1_pivots"] >= 1
        assert diag["margin_decades"] > 6
        assert 0 < doc["result"]["margin"] <= 1 / 401
        assert diag["certificate_residual"] == doc["result"]["certificate_residual"]
        assert diag["certificate_residual"] <= diag["certificate_tol"] == 1e-9

    def test_reparam_roundtrip_via_cli(self, problem_files, capsys):
        code, doc = run(capsys, ["reparam", "--problem", problem_files["quartic"],
                                 "--ansatz", problem_files["ub"],
                                 "--direction", "to"])
        assert code == EXIT_OK
        assert "result_coefficients" in doc["result"]
        assert doc["result"]["diagnostics"]["newton_steps"] >= 1

    def test_reparam_from_needs_fold_stratum(self, problem_files, capsys):
        # f = x^2 and mean(f_x(u)) = 2 a0 = -0.023 is off the fold stratum
        code = execute(["reparam", "--problem", problem_files["xsq"],
                        "--ansatz", problem_files["ub"], "--direction", "from"])
        assert code == EXIT_PRECONDITION

    def test_reparam_from_under_resolved(self, tmp_path, problem_files,
                                         capsys):
        # f = x^2, v = 500 cos(2 pi t) on n = 64: the time change is not
        # resolved by the grid
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"a0": 0.0, "cos": [500.0], "sin": [0.0]}))
        code = execute(["reparam", "--problem", problem_files["xsq"],
                        "--ansatz", str(wide), "--direction", "from",
                        "--grid-n", "64"])
        assert code == EXIT_PRECONDITION

    def test_find_singularity(self, tmp_path, problem_files, capsys):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "quartic_bc"}))
        code, doc = run(capsys, [
            "find-singularity", "--family", str(family),
            "--seed", problem_files["ub"], "--target", "0", "0", "0", "0",
            "--params", "b=4.0", "c=-0.3", "--frozen", "b", "c"])
        assert code == EXIT_OK
        assert doc["result"]["converged"] is True
        assert doc["result"]["smallest_retained_sval"] > 1e-6
        diag = doc["result"]["diagnostics"]
        assert diag["residual"] <= diag["residual_tol"]
        assert diag["residual"] == doc["result"]["residual_history"][-1]
        assert diag["iterations"] == len(doc["result"]["residual_history"]) - 1
        # one Jacobian per iterate, the returned one included, and one
        # functional evaluation per line-search trial; an accepted trial is
        # the next iterate
        assert diag["jacobian_builds"] == diag["iterations"] + 1 >= 2
        assert diag["sigma_evals"] == (diag["iterations"] + 1
                                       + diag["line_search_halvings"])

    def test_sweep_persistence_and_resume(self, tmp_path, problem_files, capsys):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "quartic_bc"}))
        out = str(tmp_path / "out")
        argv = ["sweep", "--family", str(family),
                "--grid", "b=0:0:1", "c=-0.5:0.5:2",
                "--analysis", "classify", "--out", out]
        code, doc1 = run(capsys, argv)
        assert code == EXIT_OK
        saved = os.listdir(os.path.join(out, "sweep"))
        assert len(saved) == 1
        code, doc2 = run(capsys, argv)
        assert doc2["result"] == doc1["result"]

    def test_sweep_reuses_cells_of_its_own_configuration(self, tmp_path,
                                                         capsys, monkeypatch):
        # one --out for all runs: a count sweep does not take the cells of
        # a classify sweep, and a sweep returns the cells of its own grid
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "quartic_bc"}))
        base = ["sweep", "--family", str(family), "--out", str(tmp_path / "out")]
        classify = ["--analysis", "classify"]
        count = ["--analysis", "count", "--range", "-2", "2"]
        grid = ["--grid", "b=0:0:1", "c=-0.5:0.4:3"]
        code, first = run(capsys, base + grid + classify)
        assert code == EXIT_OK
        code, doc = run(capsys, base + grid + count)
        assert code == EXIT_OK
        assert [list(cell["result"]) for cell in
                doc["result"]["cells"].values()] == [["count"]] * 3
        code, doc = run(capsys, base + ["--grid", "b=0:0:1", "c=1:1:1"] + count)
        assert code == EXIT_OK
        assert list(doc["result"]["cells"]) == ["b=0,c=1"]
        # a saved cell of the same configuration is reused, not recomputed
        monkeypatch.setattr(globalgeo, "classify_operator", None)
        code, doc = run(capsys, base + ["--grid", "b=0:0:1", "c=-0.5:-0.5:1"]
                        + classify)
        assert code == EXIT_OK
        assert doc["result"]["cells"] == {
            "b=0,c=-0.5": first["result"]["cells"]["b=0,c=-0.5"]}

    def test_sweep_reuse_follows_family_contents(self, tmp_path, capsys,
                                                 monkeypatch):
        # editing the family file under the same path and --out recomputes
        # the cells; the first contents still find their saved cells
        family = tmp_path / "family.json"
        argv = ["sweep", "--family", str(family), "--grid", "c=1:1:1",
                "--analysis", "count", "--out", str(tmp_path / "out")]

        def count(scale):
            family.write_text(json.dumps({
                "entries": [[2, 1.0], [0, {"param": "c", "scale": scale}]],
                "names": ["c"]}))
            code, doc = run(capsys, argv)
            assert code == EXIT_OK
            return doc["result"]["cells"]["c=1"]["result"]["count"]

        assert count(-1.0) == 2
        assert count(1.0) == 0
        monkeypatch.setattr(search, "count_solutions", None)
        assert count(-1.0) == 2

    def test_count_solutions_without_rhs(self, capsys):
        # a missing --rhs is zero forcing: the equilibria of x^3 - x
        problem = Path(__file__).resolve().parents[1] / "demos" / "problems"
        code, doc = run(capsys, ["count-solutions", "--problem",
                                 str(problem / "cubic_minus.json"),
                                 "--range", "-1.5", "1.5", "--step", "1e-3"])
        assert code == EXIT_OK
        assert doc["result"]["count"] == 3
        roots = [r["x"] for r in doc["result"]["roots"]]
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        # each root carries ulp(x) / |rho' - 1|
        assert [r["rounding_width"] for r in doc["result"]["roots"]] == [
            math.ulp(r["x"]) / abs(r["rho_prime"] - 1.0)
            for r in doc["result"]["roots"]]

    def test_find_singularity_unreachable_target(self, tmp_path, capsys):
        # Sigma_2 = 2 mean(w) > 0 for f = x^2, so the target -1 is out of
        # reach: the search stops when the line search finds no decrease
        # and returns its best iterate
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": [[2, 1.0]], "names": []}))
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"a0": 0.3, "cos": [0.2], "sin": [0.0]}))
        code, doc = run(capsys, ["find-singularity", "--family", str(family),
                                 "--seed", str(seed), "--target", "0", "-1"])
        assert code == EXIT_OK
        res = doc["result"]
        assert res["converged"] is False
        assert res["message"] == ("line search found no decrease; "
                                  "best iterate returned")
        assert res["diagnostics"]["residual"] == min(res["residual_history"])

    def test_find_singularity_vanishing_jacobian(self, tmp_path,
                                                 problem_files, capsys):
        # f = x: Sigma_1 = 1 everywhere and the Jacobian is 0, so the search
        # stops at its seed instead of failing
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": [[1, 1.0]], "names": []}))
        code, doc = run(capsys, ["find-singularity", "--family", str(family),
                                 "--seed", problem_files["ub"],
                                 "--target", "0"])
        assert code == EXIT_OK
        res = doc["result"]
        assert res["converged"] is False
        assert res["message"] == "Jacobian vanishes; best iterate returned"
        assert res["smallest_retained_sval"] == 0.0

    def test_find_singularity_seed_at_tolerance(self, tmp_path, capsys):
        # f = x^2 at u = 0 meets the target at its seed; the rank test runs
        # there all the same, so no placeholder singular value is reported
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"entries": [[2, 1.0]], "names": []}))
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"a0": 0.0, "cos": [0.0], "sin": [0.0]}))
        code, doc = run(capsys, ["find-singularity", "--family", str(family),
                                 "--seed", str(seed), "--target", "0"])
        assert code == EXIT_OK
        res = doc["result"]
        assert res["converged"] is True
        assert res["jacobian_svals"] == [2.0]
        assert res["smallest_retained_sval"] == 2.0

    def test_find_singularity_unknown_frozen_name(self, problem_files, capsys):
        code = execute(["find-singularity", "--family", problem_files["family"],
                        "--seed", problem_files["ub"], "--target", "0",
                        "--frozen", "b", "c", "bogus"])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "unknown frozen names ['bogus']" in err
        assert "'b', 'c', 'a0'" in err

    def test_sweep_count(self, tmp_path, capsys, monkeypatch):
        # f = x^2 - c from explicit entries: the equilibria +-sqrt(c) are
        # the two periodic solutions for c > 0, and there are none for c < 0
        groups = []
        flow = search._flow_vector

        def spy(f, v, x0, h, table=None, more=()):
            groups.append(1 + len(more))
            return flow(f, v, x0, h, table, more)
        # a sweep cell counts at one step: one lane group per scan
        monkeypatch.setattr(search, "_flow_vector", spy)
        family = tmp_path / "family.json"
        family.write_text(json.dumps({
            "entries": [[2, 1.0], [0, {"param": "c", "scale": -1.0}]],
            "names": ["c"]}))
        counts = {}
        for axis in ("c=0.25:1:2", "c=-1:-1:1"):
            code, doc = run(capsys, ["sweep", "--family", str(family),
                                     "--grid", axis, "--analysis", "count",
                                     "--range", "-1.5", "1.5"])
            assert code == EXIT_OK
            for cell in doc["result"]["cells"].values():
                assert cell["error"] is None
                counts[cell["params"]["c"]] = cell["result"]["count"]
        assert counts == {0.25: 2, 1.0: 2, -1.0: 0}
        assert groups == [1, 1, 1]

    @pytest.mark.parametrize("inject", HULL_FAULTS)
    def test_uncertified_hull_exits_2(self, inject, problem_files,
                                      monkeypatch, capsys):
        inject(monkeypatch)
        code = execute(["hull", "--problem", problem_files["quartic"],
                        "--k", "2", "--range", "-3", "3"])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().out == ""

    def test_sweep_resume_closes_files(self, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"kind": "quartic_bc"}))
        argv = ["sweep", "--family", str(family), "--grid", "b=0:0:1",
                "c=0.5:0.5:1", "--analysis", "classify",
                "--out", str(tmp_path / "out")]
        assert run(capsys, argv)[0] == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _ = run(capsys, argv)
            gc.collect()
        assert code == EXIT_OK
        assert [w for w in caught if w.category is ResourceWarning] == []


class TestPayloadContract:
    def test_roundtrip_and_schema(self, problem_files, tmp_path, capsys):
        out = str(tmp_path / "out")
        code, doc = run(capsys, ["degree", "--problem", problem_files["xsq"],
                                 "--out", out])
        assert code == EXIT_OK
        files = os.listdir(os.path.join(out, "degree"))
        assert len(files) == 1
        with open(os.path.join(out, "degree", files[0])) as fh:
            reloaded = json.load(fh)
        validate_payload(reloaded)
        with pytest.raises(MalformedFileError):
            validate_payload({"schema": "bogus"})

    def test_payloads_are_library_records(self, problem_files, capsys):
        # five commands emit their library record plus a few extra keys, so
        # a field added to the record reaches the payload unchanged
        quartic = nonlinearity_from_json(load_json(problem_files["quartic"]))
        xsq = nonlinearity_from_json(load_json(problem_files["xsq"]))
        ub = ansatz_from_json(load_json(problem_files["ub"])).sample(Grid(1024))
        ones = ansatz_from_json(load_json(problem_files["ones"])).sample(
            Grid(1024))
        verdict = globalgeo.hull_origin_test(
            globalgeo.gamma_curve(quartic, 2, -3.0, 3.0))
        tame = globalgeo.tameness(quartic)
        point = classify_point(quartic, ub)
        cases = [
            ("sigma --problem {quartic} --ansatz {ub}", point, {}),
            ("classify-point --problem {quartic} --ansatz {ub}", point, {}),
            ("classify-operator --problem {quartic}",
             globalgeo.classify_operator(quartic), {}),
            ("return-map --problem {xsq} --rhs {ones} --x0 0.5 --derivative",
             return_map(xsq, ones, 0.5, h=1e-3, with_derivative=True),
             {"x0": 0.5}),
            ("hull --problem {quartic} --k 2 --range -3 3", verdict,
             {"k": 2, "certificate_residual":
              verdict.diagnostics["certificate_residual"]}),
            ("tameness --problem {quartic}", tame, {"tame": tame.tame}),
        ]
        for argv, record, extra in cases:
            code, doc = run(capsys, argv.format(**problem_files).split())
            assert code == EXIT_OK
            expect = dict(_jsonable(record), **extra)
            assert doc["result"] == json.loads(json.dumps(expect)), argv

    def test_idempotent_modulo_timestamp(self, problem_files, capsys):
        argv = ["sigma", "--problem", problem_files["quartic"],
                "--ansatz", problem_files["ub"]]
        _, doc1 = run(capsys, argv)
        _, doc2 = run(capsys, argv)
        doc1.pop("generated_at")
        doc2.pop("generated_at")
        assert doc1 == doc2
