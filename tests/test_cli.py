"""CLI dispatch, exit codes, schema conformance, byte determinism."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import folcontact as fc
from folcontact.index import circle_samples
from folcontact.jsonio import cvec_to_json, form_to_json, matrix_to_json

from conftest import load_schema, run_cli


@pytest.fixture
def report_schema():
    return load_schema("report.json")


@pytest.fixture
def matrix_file(tmp_path, diag321):
    path = tmp_path / "diag321.json"
    path.write_text(json.dumps(matrix_to_json(diag321)))
    return str(path)


@pytest.fixture
def symplectic_file(tmp_path, symplectic4):
    path = tmp_path / "symplectic4.json"
    path.write_text(json.dumps(form_to_json(symplectic4)))
    return str(path)


@pytest.fixture
def diag12_file(tmp_path):
    form = fc.linear_form(fc.SymMatrix(np.diag([1.0, 2.0]).astype(complex)))
    path = tmp_path / "diag12.json"
    path.write_text(json.dumps(form_to_json(form)))
    return str(path)


@pytest.fixture
def flow_file(tmp_path, form321):
    seed = np.array([0.4 + 0.1j, 0.5 - 0.2j, 0.6 + 0.3j])
    path = tmp_path / "flow.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), "seed": cvec_to_json(seed)})
    )
    return str(path)


@pytest.fixture
def hessian_file(tmp_path, form321):
    point = np.array([np.sqrt(2.0 / 3.0), 0.0, 0.0], dtype=complex)
    path = tmp_path / "hess.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), "point": cvec_to_json(point)})
    )
    return str(path)


@pytest.fixture
def trace_file(tmp_path, form321):
    start = np.array([0.5, 0.0, 0.0], dtype=complex)
    path = tmp_path / "trace.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), "start": cvec_to_json(start)})
    )
    return str(path)


@pytest.fixture
def audit_file(tmp_path):
    samples = circle_samples(lambda p: np.array([p[0], -p[1]]), 719)
    payload = [
        {"point": list(p), "field": list(f), "normal": list(n)} for p, f, n in samples
    ]
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _check(argv, report_schema):
    code, out, err = run_cli(argv)
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, report_schema)
    return report


def test_input_fixtures_match_published_schemas(matrix_file, symplectic_file):
    jsonschema.validate(json.loads(Path(matrix_file).read_text()), load_schema("matrix.json"))
    jsonschema.validate(json.loads(Path(symplectic_file).read_text()), load_schema("form.json"))


def test_linear_analyze_report(matrix_file, report_schema):
    report = _check(["linear-analyze", "--input", matrix_file], report_schema)
    result = report["result"]
    assert result["is_morse"] is True
    assert result["sigma"] == [3.0, 2.0, 1.0]
    assert [line["morse_index"] for line in result["lines"]] == [0, 1, 2]
    assert report["config"]["command"] == "linear-analyze"
    assert report["version"] == fc.__version__


def test_linear_morseify_report(tmp_path, identity3, report_schema):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix_to_json(identity3)))
    report = _check(
        ["linear-morseify", "--input", str(path), "--eps", "1e-3"], report_schema
    )
    assert report["result"]["changed"] is True
    assert report["result"]["frobenius_distance"] <= 1e-3
    assert report["config"]["eps"] == 1e-3


def test_contact_solve_symplectic_empty(symplectic_file, report_schema):
    report = _check(
        ["contact-solve", "--input", symplectic_file, "--seeds", "20"], report_schema
    )
    assert report["result"]["points"] == []
    assert report["result"]["seeds_tried"] == 20


def test_contact_solve_linear(tmp_path, form321, report_schema):
    path = tmp_path / "form321.json"
    path.write_text(json.dumps(form_to_json(form321)))
    report = _check(
        ["contact-solve", "--input", str(path), "--seeds", "30", "--rng-seed", "5"],
        report_schema,
    )
    assert len(report["result"]["points"]) >= 1
    for p in report["result"]["points"]:
        assert p["residual"] <= 1e-9


def test_contact_trace(trace_file, report_schema):
    report = _check(
        ["contact-trace", "--input", trace_file, "--r-min", "0.2", "--r-max", "1.5",
         "--steps", "8"],
        report_schema,
    )
    radii = [p["radius"] for p in report["result"]["points"]]
    assert radii == sorted(radii)
    assert report["result"]["truncated"] is False


def test_leaf_flow(flow_file, report_schema):
    report = _check(
        ["leaf-flow", "--input", flow_file, "--c-re", "1"], report_schema
    )
    result = report["result"]
    assert result["point"]["residual"] <= 1e-8
    assert result["phi_final"] <= result["phi_initial"]
    assert report["config"]["c"] == {"re": 1.0, "im": 0.0}


def test_leaf_hessian(hessian_file, report_schema):
    report = _check(["leaf-hessian", "--input", hessian_file], report_schema)
    result = report["result"]
    assert result["negative_count"] == 0
    assert len(result["eigenvalues"]) == 4


def test_scan(symplectic_file, report_schema):
    report = _check(
        ["scan", "--input", symplectic_file, "--samples", "500"], report_schema
    )
    assert report["result"]["min_score"] == pytest.approx(1.0, abs=1e-12)


def test_index_pugh(report_schema):
    report = _check(["index-pugh", "--n", "4", "--i", "1"], report_schema)
    assert report["result"] == {"lhs": -1, "rhs": -1, "holds": True}


def test_index_audit(audit_file, report_schema):
    report = _check(["index-audit", "--input", audit_file], report_schema)
    result = report["result"]
    assert result["index"] == -1
    assert result["winding"] == -1
    assert result["consistent"] is True


def test_pretty_output(matrix_file):
    code, out, err = run_cli(["linear-analyze", "--input", matrix_file, "--output", "pretty"])
    assert code == 0
    assert "is_morse" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_exit_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_exit_2_on_schema_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 2], [3, 4]]}))
    code, _, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2
    assert "entries" in err


def test_exit_2_on_missing_file():
    code, _, err = run_cli(["linear-analyze", "--input", "/nonexistent/x.json"])
    assert code == 2


def test_exit_2_on_asymmetric_matrix(tmp_path):
    payload = {
        "n": 2,
        "entries": [
            [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}],
            [{"re": 5.0, "im": 0.0}, {"re": 3.0, "im": 0.0}],
        ],
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2


def test_exit_2_on_bad_trace_start(tmp_path, form321):
    path = tmp_path / "badstart.json"
    path.write_text(
        json.dumps(
            {
                "form": form_to_json(form321),
                "start": cvec_to_json(np.array([0.5, 0.5, 0.0])),
            }
        )
    )
    code, _, err = run_cli(["contact-trace", "--input", str(path)])
    assert code == 2
    assert "not a contact point" in err


def test_exit_3_on_singular_matrix(tmp_path):
    A = fc.SymMatrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, _, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 3
    assert "numerical failure" in err


def test_exit_2_on_non_exact_leaf_form(tmp_path):
    # z2 dz1 + 0 dz2 has no first integral
    form = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (0, 1))]), fc.Polynomial(2, [])])
    path = tmp_path / "nonexact.json"
    path.write_text(
        json.dumps(
            {"form": form_to_json(form), "seed": cvec_to_json(np.array([1.0, 1.0]))}
        )
    )
    code, _, err = run_cli(["leaf-flow", "--input", str(path)])
    assert code == 2
    assert "exact" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_exit_2_on_non_finite_form_coefficient(tmp_path, literal):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"n": 2, "coeffs": [[{"re": 1, "im": %s, "exp": [1, 0]}], '
        '[{"re": 2, "im": 0, "exp": [0, 1]}]]}' % literal
    )
    for command in ("contact-solve", "scan"):
        code, out, err = run_cli([command, "--input", str(path)])
        assert code == 2
        assert out == ""
        assert f"{path}.coeffs[0][0]" in err


def test_exit_2_on_non_finite_matrix_entry(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"n": 2, "entries": [[{"re": NaN, "im": 0}, {"re": 0, "im": 0}], '
        '[{"re": 0, "im": 0}, {"re": 1, "im": 0}]]}'
    )
    code, out, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"{path}.entries[0][0]" in err


def test_exit_2_on_non_finite_audit_sample(tmp_path, audit_file):
    samples = json.loads(Path(audit_file).read_text())
    samples[3]["field"][1] = float("inf")
    path = tmp_path / "audit_inf.json"
    path.write_text(json.dumps(samples))
    code, out, err = run_cli(["index-audit", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"{path}[3].field" in err


def test_exit_2_on_non_finite_option(symplectic_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--input", symplectic_file, "--radius", "nan"])
    assert exc.value.code == 2


def test_exit_3_on_zero_form(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "coeffs": [[], []]}))
    code, out, err = run_cli(["contact-solve", "--input", str(path)])
    assert code == 3 and out == ""
    assert "numerical failure" in err


def test_exit_3_on_non_finite_result(tmp_path, form321):
    # radius 1e200 squares to infinity, so the scan has no finite result
    path = tmp_path / "form321.json"
    path.write_text(json.dumps(form_to_json(form321)))
    for output in ("json", "pretty"):
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                ["scan", "--input", str(path), "--radius", "1e200", "--samples", "20",
                 "--output", output]
            )
        assert code == 3 and out == ""
        assert "non-finite" in err


def test_exit_3_on_non_finite_report(tmp_path):
    # a non-homogeneous form is scanned at its radius: z1^3 overflows at 1e150
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"n": 2, "coeffs": [[{"re": 1.0, "im": 0.0, "exp": [3, 0]},
                             {"re": 1.0, "im": 0.0, "exp": [0, 1]}],
                            [{"re": 1.0, "im": 0.0, "exp": [1, 0]}]]}
    ))
    for output in ("json", "pretty"):
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                ["scan", "--input", str(path), "--radius", "1e150", "--samples", "20",
                 "--output", output]
            )
        assert code == 3 and out == ""
        assert "non-finite report value" in err


def test_radius_far_from_one_keeps_the_unit_answer(diag12_file, report_schema):
    # both lines of diag(1, 2) meet every sphere, and the scan score of a
    # linear form is scale-free
    solve = ["contact-solve", "--input", diag12_file, "--seeds", "20"]
    scan = ["scan", "--input", diag12_file, "--samples", "500"]
    unit_solve = _check(solve, report_schema)["result"]
    unit_score = _check(scan, report_schema)["result"]["min_score"]
    assert len(unit_solve["points"]) == 2
    for radius in ("1e-100", "1e100"):
        result = _check(solve + ["--radius", radius], report_schema)["result"]
        assert result["seeds_converged"] == unit_solve["seeds_converged"]
        assert [p["radius"] for p in result["points"]] == [float(radius)] * 2
        assert [p["residual"] for p in result["points"]] == [
            p["residual"] for p in unit_solve["points"]
        ]
        result = _check(scan + ["--radius", radius], report_schema)["result"]
        assert result["min_score"] == unit_score


@pytest.mark.parametrize("radius", ["1e-170", "1e200"])
@pytest.mark.parametrize("command", ["contact-solve", "scan"])
def test_exit_3_on_radius_out_of_range(diag12_file, command, radius):
    code, out, err = run_cli([command, "--input", diag12_file, "--radius", radius])
    assert code == 3 and out == ""
    assert f"radius {float(radius):.3g} is out of range" in err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run_cli(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_byte_identical_reports(matrix_file, symplectic_file, flow_file):
    for argv in (
        ["linear-analyze", "--input", matrix_file],
        ["contact-solve", "--input", symplectic_file, "--seeds", "25", "--rng-seed", "9"],
        ["scan", "--input", symplectic_file, "--samples", "300", "--rng-seed", "4"],
        ["leaf-flow", "--input", flow_file, "--c-re", "1"],
    ):
        runs = [run_cli(argv) for _ in range(3)]
        assert all(code == 0 for code, _, _ in runs)
        outs = {out for _, out, _ in runs}
        assert len(outs) == 1, f"non-deterministic output for {argv[0]}"
