import gc
import json
import os
import warnings

import numpy as np
import pytest

from morinode.cli import (EXIT_BAD_FILE, EXIT_OK, EXIT_PRECONDITION,
                          EXIT_USAGE, execute, validate_payload)
from morinode.core import MalformedFileError
from tests.conftest import BUTTERFLY_COEFFS, SIX_ROOT_COEFFS


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
    paths = {}
    for name, doc in [("quartic", quartic), ("xsq", squares), ("ub", ub),
                      ("u1", u1), ("ones", ones)]:
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

    def test_malformed_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = execute(["degree", "--problem", str(bad)])
        assert code == EXIT_BAD_FILE

    def test_missing_field_in_ansatz(self, tmp_path, problem_files, capsys):
        bad = tmp_path / "badansatz.json"
        bad.write_text(json.dumps({"cos": [1.0]}))
        code = execute(["sigma", "--problem", problem_files["quartic"],
                        "--ansatz", str(bad)])
        assert code == EXIT_BAD_FILE

    def test_precondition_violation(self, problem_files, capsys):
        # hull with k beyond the supported order
        code = execute(["hull", "--problem", problem_files["quartic"],
                        "--k", "7"])
        assert code == EXIT_PRECONDITION

    def test_ok(self, problem_files, capsys):
        code, doc = run(capsys, ["degree", "--problem", problem_files["xsq"]])
        assert code == EXIT_OK
        assert doc["result"]["degree"] == 0


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
        for p in passes:
            assert p["brackets"] == 2
            assert p["refine_flows"] == sum(p["flows_per_bracket"])
            assert 2 <= p["refine_flows"] <= 16
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

    def test_hull_certificate(self, problem_files, capsys):
        code, doc = run(capsys, ["hull", "--problem", problem_files["quartic"],
                                 "--k", "2", "--range", "-3", "3"])
        assert code == EXIT_OK
        assert doc["result"]["interior"] is True
        assert doc["result"]["certificate_residual"] < 1e-9

    def test_reparam_roundtrip_via_cli(self, problem_files, capsys):
        code, doc = run(capsys, ["reparam", "--problem", problem_files["quartic"],
                                 "--ansatz", problem_files["ub"],
                                 "--direction", "to"])
        assert code == EXIT_OK
        assert "result_coefficients" in doc["result"]

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

    def test_idempotent_modulo_timestamp(self, problem_files, capsys):
        argv = ["sigma", "--problem", problem_files["quartic"],
                "--ansatz", problem_files["ub"]]
        _, doc1 = run(capsys, argv)
        _, doc2 = run(capsys, argv)
        doc1.pop("generated_at")
        doc2.pop("generated_at")
        assert doc1 == doc2
