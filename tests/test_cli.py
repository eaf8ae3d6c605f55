"""CLI dispatch, exit codes, schema conformance, byte determinism."""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import folcontact as fc
from folcontact import cli
from folcontact.contact import ACCEPT_TOL, ContactPath, ContactPoint, SphereSearch
from folcontact.index import IndexReport, SphereIdentity
from folcontact.leaf import DEFAULT_FLOW_TOL, FlowResult, HessianReport, ScanResult, ScanSample
from folcontact.jsonio import to_json
from folcontact.linear import ContactLine, MorseifyResult, MorseVerdict

from folcontact.cli import main as cli_main

from conftest import circle_samples, degree_five_form, form_to_json, load_schema, mixed_degree_five_form, run_cli


@pytest.fixture
def report_schema():
    return load_schema("report.json")


@pytest.fixture
def matrix_file(tmp_path, diag321):
    path = tmp_path / "diag321.json"
    path.write_text(json.dumps({"n": diag321.n, "entries": to_json(diag321.array)}))
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
        json.dumps({"form": form_to_json(form321), "seed": to_json(seed)})
    )
    return str(path)


@pytest.fixture
def hessian_file(tmp_path, form321):
    point = np.array([np.sqrt(2.0 / 3.0), 0.0, 0.0], dtype=complex)
    path = tmp_path / "hess.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), "point": to_json(point)})
    )
    return str(path)


@pytest.fixture
def trace_file(tmp_path, form321):
    start = np.array([0.5, 0.0, 0.0], dtype=complex)
    path = tmp_path / "trace.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), "start": to_json(start)})
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


# Each command's arguments, input files named by their fixtures, and the
# keys its report's config echoes besides "command".
COMMANDS = {
    "linear-analyze": (["--input", "matrix_file"], {"input"}),
    "linear-morseify": (["--input", "matrix_file"], {"input", "eps"}),
    "contact-solve": (
        ["--input", "symplectic_file", "--seeds", "5"],
        {"input", "radius", "seeds", "tol", "rng_seed"},
    ),
    "contact-trace": (
        ["--input", "trace_file", "--steps", "4"],
        {"input", "tol", "r_min", "r_max", "steps"},
    ),
    "leaf-flow": (["--input", "flow_file"], {"input", "c", "tol", "max_steps"}),
    "leaf-hessian": (["--input", "hessian_file"], {"input", "c"}),
    "scan": (
        ["--input", "symplectic_file", "--samples", "200"],
        {"input", "radius", "samples", "rng_seed"},
    ),
    "index-pugh": (["--n", "2", "--i", "0"], {"n", "i"}),
    "index-audit": (["--input", "audit_file"], {"input"}),
}


def _argv(command, request):
    args, _ = COMMANDS[command]
    return [command] + [request.getfixturevalue(a) if a.endswith("_file") else a for a in args]


@pytest.mark.parametrize("command", COMMANDS)
def test_config_echoes_exactly_the_options_read(command, request, report_schema):
    report = _check(_argv(command, request), report_schema)
    assert set(report["config"]) == COMMANDS[command][1] | {"command"}
    assert report["config"]["command"] == command


@pytest.mark.parametrize(
    "command, tol", [("contact-solve", ACCEPT_TOL), ("contact-trace", ACCEPT_TOL),
                     ("leaf-flow", DEFAULT_FLOW_TOL)]
)
def test_config_echoes_the_commands_own_default_tolerance(command, tol, request, report_schema):
    assert _check(_argv(command, request), report_schema)["config"]["tol"] == tol


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("index-pugh", "--radius", "2"),
        ("linear-analyze", "--seeds", "5"),
        ("leaf-hessian", "--tol", "1e-3"),
        ("scan", "--seeds", "3"),
        ("contact-solve", "--samples", "5"),
        ("linear-analyze", "--output", "json"),  # a report is JSON, always
        ("leaf-flow", "--direction", "ascend"),  # |z|^2 has no local maximum on a leaf
    ],
)
def test_exit_2_on_an_option_the_command_does_not_read(command, option, value, request, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(_argv(command, request) + [option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err  # the subcommand's usage, not the list of commands
    assert f"usage: folcontact {command}" in err
    assert f"unrecognized arguments: {option} {value}" in err


def test_schema_rejects_config_keys_outside_the_commands_row(request, report_schema):
    pugh = _check(_argv("index-pugh", request), report_schema)
    pugh["config"]["radius"] = 1.0
    solve = _check(_argv("contact-solve", request), report_schema)
    del solve["config"]["seeds"]
    for report in (pugh, solve):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, report_schema)


@pytest.mark.parametrize("name", ["report.json", "form.json", "matrix.json"])
def test_published_schemas_are_valid_draft_2020_12(name):
    jsonschema.Draft202012Validator.check_schema(load_schema(name))


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_serialised_dataclasses_have_exactly_their_schema_properties(report_schema):
    # a result field reaches a report by being a field (jsonio.to_json), so
    # one the closed schema does not list must fail here, not in a report;
    # every command's result block is tied to its library type
    results = {
        rule["if"]["properties"]["command"]["const"]: rule["then"]["properties"]["result"]
        for rule in report_schema["allOf"]
    }
    analyze = results["linear-analyze"]
    morseify = results["linear-morseify"]
    scan = results["scan"]
    blocks = [
        (analyze, _field_names(MorseVerdict) | {"lines"}),
        (analyze["properties"]["lines"]["items"], _field_names(ContactLine)),
        (morseify, _field_names(MorseifyResult)),
        (morseify["properties"]["matrix"], {"n", "entries"}),  # to_json of a SymMatrix
        (results["contact-solve"], _field_names(SphereSearch)),
        (results["contact-trace"], _field_names(ContactPath)),
        (results["leaf-flow"], _field_names(FlowResult)),
        (results["leaf-hessian"], _field_names(HessianReport)),
        (scan, _field_names(ScanResult)),
        (scan["properties"]["worst"]["items"], _field_names(ScanSample)),
        (results["index-pugh"], _field_names(SphereIdentity)),
        (results["index-audit"], _field_names(IndexReport)),
        (report_schema["$defs"]["point"], _field_names(ContactPoint)),
    ]
    assert set(results) == set(COMMANDS)
    for block, names in blocks:
        assert block["additionalProperties"] is False
        assert set(block["properties"]) == names
        assert set(block["required"]) <= names


def test_to_json_omits_none_fields_and_gives_plain_python_values():
    @dataclasses.dataclass
    class Inner:
        value: object
        unset: object = None

    @dataclasses.dataclass
    class Outer:
        flag: object
        count: object
        size: object
        z: object
        pairs: object
        matrix: object
        inner: object
        unset: object = None

    out = to_json(
        Outer(
            flag=np.bool_(True),
            count=np.int64(3),
            size=np.float64(0.5),
            z=np.array([1 + 2j, 3j]),
            pairs=(("a", np.int64(1)), ("b", 2)),
            matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
            inner=Inner(value=[np.complex128(1j), 1 - 1j]),
        )
    )
    assert out == {
        "flag": True,
        "count": 3,
        "size": 0.5,
        "z": [{"re": 1.0, "im": 2.0}, {"re": 0.0, "im": 3.0}],
        "pairs": [["a", 1], ["b", 2]],
        "matrix": [[1.0, 2.0], [3.0, 4.0]],
        "inner": {"value": [{"re": 0.0, "im": 1.0}, {"re": 1.0, "im": -1.0}]},
    }
    assert (type(out["flag"]), type(out["count"]), type(out["size"])) == (bool, int, float)
    assert type(out["pairs"][0][1]) is int and type(out["matrix"][0][0]) is float
    assert type(out["z"][0]["re"]) is float


def test_input_fixtures_match_published_schemas(matrix_file, symplectic_file):
    jsonschema.validate(json.loads(Path(matrix_file).read_text()), load_schema("matrix.json"))
    jsonschema.validate(json.loads(Path(symplectic_file).read_text()), load_schema("form.json"))


def test_every_input_the_commands_read_matches_the_published_schemas(request, monkeypatch):
    read = []

    def recording(reader, schema):
        return lambda obj, where: read.append((obj, schema)) or reader(obj, where)

    monkeypatch.setattr(cli, "form_from_json", recording(cli.form_from_json, "form.json"))
    monkeypatch.setattr(cli, "matrix_from_json", recording(cli.matrix_from_json, "matrix.json"))
    for command in COMMANDS:
        code, _, err = run_cli(_argv(command, request))
        assert code == 0, err
    assert {schema for _, schema in read} == {"form.json", "matrix.json"}
    for obj, schema in read:
        jsonschema.validate(obj, load_schema(schema))


def test_linear_analyze_report(matrix_file, report_schema):
    report = _check(["linear-analyze", "--input", matrix_file], report_schema)
    result = report["result"]
    assert result["is_morse"] is True
    assert result["sigma"] == [3.0, 2.0, 1.0]
    assert [line["morse_index"] for line in result["lines"]] == [0, 1, 2]
    assert report["config"]["command"] == "linear-analyze"
    assert report["version"] == fc.__version__


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_linear_analyze_report_at_extreme_scales(tmp_path, report_schema, scale):
    # |f|^2 of diag(3, 2, 1) s leaves the doubles from |s| ~ 1e-154 or 1e154 on
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"n": 3, "entries": to_json(scale * np.diag([3.0, 2.0, 1.0]).astype(complex))}))
    result = _check(["linear-analyze", "--input", str(path)], report_schema)["result"]
    assert result["is_morse"] is True
    assert [line["morse_index"] for line in result["lines"]] == [0, 1, 2]


def test_linear_morseify_report(tmp_path, identity3, report_schema):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"n": identity3.n, "entries": to_json(identity3.array)}))
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


def test_exit_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_exit_2_on_json_nested_too_deeply(tmp_path):
    # deep enough to exhaust the parser's recursion guard on every Python version
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["index-audit", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"input error: {path}: malformed JSON" in err


def test_exit_2_on_input_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "entries": "\xe9"}')  # a Latin-1 e-acute
    code, out, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"input error: {path}: malformed JSON" in err


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


def test_exit_2_on_a_matrix_asymmetric_below_scale_one(tmp_path):
    # the symmetry bound is relative to the largest entry, so [[1, 2], [3, 1]]
    # is as asymmetric at 1e-13 as at 1
    path = tmp_path / "asym.json"
    entries = to_json(1e-13 * np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex))
    path.write_text(json.dumps({"n": 2, "entries": entries}))
    code, out, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"input error: {path}: matrix is not symmetric" in err


def test_exit_2_on_bad_trace_start(tmp_path, form321):
    path = tmp_path / "badstart.json"
    path.write_text(
        json.dumps(
            {
                "form": form_to_json(form321),
                "start": to_json(np.array([0.5, 0.5, 0.0], dtype=complex)),
            }
        )
    )
    code, _, err = run_cli(["contact-trace", "--input", str(path)])
    assert code == 2
    assert "not a contact point" in err


def test_contact_trace_start_judged_by_the_commands_tol(tmp_path, form321, report_schema):
    # residual 5e-9: above the default 1e-9, within --tol 1e-6
    path = tmp_path / "near.json"
    start = to_json(np.array([1e-8, 1.0, 0.0], dtype=complex))
    path.write_text(json.dumps({"form": form_to_json(form321), "start": start}))
    report = _check(["contact-trace", "--input", str(path), "--tol", "1e-6", "--steps", "4"], report_schema)
    assert report["result"]["truncated"] is False and len(report["result"]["points"]) == 5


def test_contact_trace_truncates_at_a_singular_grid_point(tmp_path, report_schema):
    # d((z1^2 + z2^2)/2 - z1^3/3): the real-axis branch from (0.7, 0) meets
    # the singular point (1, 0), f = 0, at the grid radius 1
    form = fc.PolyOneForm(
        [fc.Polynomial(2, [(1.0, (1, 0)), (-1.0, (2, 0))]), fc.Polynomial(2, [(1.0, (0, 1))])]
    )
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"form": form_to_json(form), "start": to_json(np.array([0.7, 0.0], dtype=complex))}))
    report = _check(
        ["contact-trace", "--input", str(path), "--r-min", "0.5", "--r-max", "2", "--steps", "3"],
        report_schema,
    )
    result = report["result"]
    assert result["truncated"] is True and result["truncation_radius"] == 1.0
    assert [p["radius"] for p in result["points"]] == [0.5, 0.7]


def test_contact_trace_over_the_full_radius_range(tmp_path, form321, report_schema):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"form": form_to_json(form321), "start": to_json(np.array([1.0, 0.0, 0.0], dtype=complex))}))
    argv = ["contact-trace", "--input", str(path), "--r-min", "1e-150", "--r-max", "1e150", "--steps", "21"]
    result = _check(argv, report_schema)["result"]
    assert result["truncated"] is False and "truncation_radius" not in result
    radii = [p["radius"] for p in result["points"]]
    assert radii[0] == 1e-150 and radii[-1] == 1e150 and radii == sorted(radii)


def test_exit_2_on_trace_start_at_the_origin(tmp_path, cubic3):
    # f(0) = 0 for a homogeneous form: the origin is bad input, not a
    # numerical failure, and the message names the start
    path = tmp_path / "origin.json"
    path.write_text(
        json.dumps(
            {
                "form": form_to_json(cubic3.differential()),
                "start": to_json(np.zeros(3, dtype=complex)),
            }
        )
    )
    code, out, err = run_cli(["contact-trace", "--input", str(path)])
    assert code == 2 and out == ""
    assert f"{path}.start" in err and "origin" in err


@pytest.mark.parametrize("c_option", [[], ["--c-re", "1"]])
@pytest.mark.parametrize("command, key", [("leaf-flow", "seed"), ("leaf-hessian", "point")])
def test_exit_2_on_leaf_seed_at_the_origin(tmp_path, form321, command, key, c_option):
    # the origin is on no sphere: bad input naming the vector, as for a trace
    # start, not a numerical failure of the projection onto the leaf
    path = tmp_path / "origin.json"
    path.write_text(
        json.dumps({"form": form_to_json(form321), key: to_json(np.zeros(3, dtype=complex))})
    )
    code, out, err = run_cli([command, "--input", str(path), *c_option])
    assert code == 2 and out == ""
    assert f"{path}.{key}" in err and "origin" in err


@pytest.mark.parametrize(
    "command, key", [("contact-trace", "start"), ("leaf-flow", "seed"), ("leaf-hessian", "point")]
)
def test_exit_2_on_a_vector_whose_square_underflows(tmp_path, form321, command, key):
    # |z|^2 of (1e-200, 0, 0) underflows to 0, so the library refuses it as
    # the origin: the CLI refuses it as the origin too, naming the vector
    path = tmp_path / "tiny.json"
    vec = np.array([1e-200, 0.0, 0.0], dtype=complex)
    path.write_text(json.dumps({"form": form_to_json(form321), key: to_json(vec)}))
    code, out, err = run_cli([command, "--input", str(path)])
    assert code == 2 and out == ""
    assert f"{path}.{key}: the {key} is the origin" in err


@pytest.mark.parametrize("scale", [1e-3, 1e-7])
def test_exit_2_on_a_hessian_point_that_is_not_critical_at_any_scale(tmp_path, form321, scale):
    # t_norm is 0.44 |z| at s (0.3, 0.5 + 0.1i, 0.7): refused at every s
    path = tmp_path / "noncritical.json"
    point = scale * np.array([0.3, 0.5 + 0.1j, 0.7])
    path.write_text(json.dumps({"form": form_to_json(form321), "point": to_json(point)}))
    code, out, err = run_cli(["leaf-hessian", "--input", str(path)])
    assert code == 2 and out == "" and "not critical" in err and "Traceback" not in err


def test_exit_3_on_singular_matrix(tmp_path):
    A = fc.SymMatrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"n": A.n, "entries": to_json(A.array)}))
    code, _, err = run_cli(["linear-analyze", "--input", str(path)])
    assert code == 3
    assert "numerical failure" in err


def test_exit_2_on_non_exact_leaf_form(tmp_path):
    # z2 dz1 + 0 dz2 has no first integral
    form = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (0, 1))]), fc.Polynomial(2, [])])
    path = tmp_path / "nonexact.json"
    path.write_text(
        json.dumps(
            {"form": form_to_json(form), "seed": to_json(np.array([1.0, 1.0], dtype=complex))}
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


@pytest.mark.parametrize("exponent", [10**30, 2**63 - 1], ids=["1e30", "2^63-1"])
def test_exit_2_on_exponent_beyond_the_table(tmp_path, exponent):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "coeffs": [[{"re": 1, "im": 0, "exp": [exponent, 0]}], []]}))
    code, out, err = run_cli(["contact-solve", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert f"{path}.coeffs[0][0]: exponent" in err


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


# (input fixture, JSON path of an object in it, edit): "extra" adds an unknown
# key, "repeat" gives the object's first key twice, any other edit drops that key
READER_MUTATIONS = {
    "matrix-unknown": ("linear-analyze", "matrix_file", [], "extra"),
    "matrix-entry-unknown": ("linear-analyze", "matrix_file", ["entries", 0, 1], "extra"),
    "form-unknown": ("contact-solve", "symplectic_file", [], "extra"),
    "term-unknown": ("scan", "symplectic_file", ["coeffs", 0, 0], "extra"),
    "wrapped-unknown": ("contact-trace", "trace_file", [], "extra"),
    "wrapped-form-unknown": ("leaf-flow", "flow_file", ["form"], "extra"),
    "vector-entry-unknown": ("leaf-hessian", "hessian_file", ["point", 2], "extra"),
    "sample-unknown": ("index-audit", "audit_file", [2], "extra"),
    "matrix-missing": ("linear-morseify", "matrix_file", [], "entries"),
    "term-missing": ("contact-solve", "symplectic_file", ["coeffs", 1, 0], "exp"),
    "wrapped-missing": ("leaf-hessian", "hessian_file", [], "point"),
    "sample-missing": ("index-audit", "audit_file", [5], "normal"),
    "matrix-repeated": ("linear-analyze", "matrix_file", [], "repeat"),
    "term-repeated": ("contact-solve", "symplectic_file", ["coeffs", 0, 0], "repeat"),
}


@pytest.mark.parametrize("mutation", READER_MUTATIONS)
def test_exit_2_on_an_unknown_missing_or_repeated_key(mutation, request, tmp_path):
    command, fixture, at, edit = READER_MUTATIONS[mutation]
    obj = json.loads(Path(request.getfixturevalue(fixture)).read_text())
    target = obj
    for step in at:
        target = target[step]
    first = next(iter(target))
    if edit == "extra":
        target["extra"] = 0
    elif edit == "repeat":  # the same value again, which a last-one-wins reader accepts
        target["repeated"] = target[first]
    else:
        del target[edit]
    path = tmp_path / "mutated.json"
    # json.dumps writes each key once: the copy is renamed in the text
    path.write_text(json.dumps(obj).replace('"repeated"', json.dumps(first)))
    code, out, err = run_cli([command, "--input", str(path)])
    assert code == 2 and out == ""
    if edit == "repeat":
        assert f"input error: {path}: malformed JSON (repeated key " in err
    else:
        where = "".join(f".{step}" if isinstance(step, str) else f"[{step}]" for step in at)
        assert f"input error: {path}{where}: expected an object with keys " in err


def test_exit_2_on_non_finite_option(symplectic_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scan", "--input", symplectic_file, "--radius", "nan"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, input_file, option, value",
    [
        ("contact-solve", "symplectic_file", "--tol", "-1"),
        ("contact-solve", "symplectic_file", "--tol", "0"),
        ("leaf-flow", "flow_file", "--tol", "0"),
        ("leaf-flow", "flow_file", "--max-steps", "-5"),
        ("contact-trace", "trace_file", "--tol", "-1"),
    ],
)
def test_exit_2_on_bad_tolerance_or_step_limit(command, input_file, option, value, request):
    # these used to print an empty result, run the flow, or blame the input
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--input", request.getfixturevalue(input_file), option, value])
    assert exc.value.code == 2


def test_exit_3_on_zero_form(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 2, "coeffs": [[], []]}))
    code, out, err = run_cli(["contact-solve", "--input", str(path)])
    assert code == 3 and out == ""
    assert "numerical failure" in err


def test_exit_3_on_non_finite_report(tmp_path):
    # a non-homogeneous form is scanned at its radius: z1^3 overflows at 1e150
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"n": 2, "coeffs": [[{"re": 1.0, "im": 0.0, "exp": [3, 0]},
                             {"re": 1.0, "im": 0.0, "exp": [0, 1]}],
                            [{"re": 1.0, "im": 0.0, "exp": [1, 0]}]]}
    ))
    code, out, err = run_cli(["scan", "--input", str(path), "--radius", "1e150", "--samples", "20"])
    assert code == 3 and out == ""
    assert "out of range" in err


def test_exit_3_on_a_non_finite_report_value(monkeypatch):
    monkeypatch.setattr(cli, "morse_sphere_identity", lambda n, i: SphereIdentity(float("nan"), 1, False))
    code, out, err = run_cli(["index-pugh", "--n", "2", "--i", "0"])
    assert code == 3 and out == ""
    assert "non-finite report value" in err


@pytest.mark.parametrize(
    "command, name, file",
    [("leaf-hessian", "leaf_hessian", "hessian_file"), ("leaf-flow", "flow_to_critical", "flow_file")],
)
def test_exit_3_on_a_lapack_failure(monkeypatch, request, command, name, file):
    # np.linalg.LinAlgError is a ValueError, so it exited 2 as an input
    # error: "input error: Eigenvalues did not converge", on the cubic at
    # its contact point 1e-80 (1, 1, 1) / sqrt(3)
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, name, fail)
    code, out, err = run_cli([command, "--input", request.getfixturevalue(file)])
    assert (code, out) == (3, "")
    assert "numerical failure: Eigenvalues did not converge" in err


def test_exit_3_on_a_scan_radius_where_f_overflows(tmp_path):
    # d(z1^6 + z2^6 + z1^3 z2^3/2 + z1^2/2 + z2^2) is not homogeneous, so it
    # is sampled at r itself, where its rounding scale overflows
    path = tmp_path / "deg5.json"
    path.write_text(json.dumps(form_to_json(mixed_degree_five_form())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["scan", "--input", str(path), "--radius", "1e40", "--samples", "200"])
    assert code == 3 and out == "" and caught == []
    assert "radius 1e+40 is out of range" in err


def test_exit_3_on_a_solve_radius_where_f_overflows(tmp_path):
    # the non-homogeneous form is solved at r itself, where f's rounding
    # scale overflows at every seed; the search once exited 0 with no point
    # and overflow warnings
    path = tmp_path / "deg5.json"
    path.write_text(json.dumps(form_to_json(mixed_degree_five_form())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["contact-solve", "--input", str(path), "--radius", "1e40"])
    assert code == 3 and out == "" and caught == []
    assert "radius 1e+40 is out of range: f's rounding scale is non-finite" in err


def test_solve_finds_both_axes_where_f_is_large(tmp_path, report_schema):
    # both axes are contact on every sphere; at 1e30 the search once lost
    # them and warned of overflow
    path = tmp_path / "deg5.json"
    path.write_text(json.dumps(form_to_json(mixed_degree_five_form())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _check(["contact-solve", "--input", str(path), "--radius", "1e30"], report_schema)["result"]
    assert caught == []
    points = [np.array([complex(v["re"], v["im"]) for v in p["z"]]) for p in result["points"]]
    for j in range(2):
        assert any(np.abs(z[1 - j]) <= 1e-9 * 1e30 for z in points)


@pytest.mark.parametrize("command", ["contact-solve", "scan"])
def test_a_huge_exponent_builds_only_the_powers_it_uses(tmp_path, report_schema, command):
    # (z1 + z1^(10^12)) dz1 + 2 z2 dz2: a power table of every exponent up
    # to 10^12 would take 14.6 TiB. The z2 axis is contact, with |mu| = 1/2
    form = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (1, 0)), (1.0, (10**12, 0))]), fc.Polynomial(2, [(2.0, (0, 1))])])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(form_to_json(form)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _check([command, "--input", str(path)], report_schema)["result"]
    assert caught == []
    if command == "contact-solve":
        on_z2 = [p for p in result["points"] if np.hypot(p["z"][0]["re"], p["z"][0]["im"]) <= 1e-9]
        assert on_z2 and all(abs(np.hypot(p["mu"]["re"], p["mu"]["im"]) - 0.5) <= 1e-12 for p in on_z2)
    else:
        assert 0.0 <= result["min_score"] < 1.0


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
    what = "below the normal double range" if float(radius) < 1.0 else "non-finite"
    assert f"radius {float(radius):.3g} is out of range: its square is {what}" in err


@pytest.mark.parametrize("radius", ["1e-80", "1e80", "1e100"])
def test_exit_3_where_scaled_mu_leaves_the_normal_doubles(tmp_path, radius):
    # mu scales by r^-4: at 1e100 every point's mu read 0, at 1e80 subnormal
    path = tmp_path / "deg5.json"
    path.write_text(json.dumps(form_to_json(degree_five_form())))
    code, out, err = run_cli(["contact-solve", "--input", str(path), "--radius", radius])
    assert code == 3 and out == ""
    assert f"radius {float(radius):.3g} is out of range: r^-4 mu is not a normal double" in err


CUBIC_TERMS = [(1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3))]


@pytest.mark.parametrize(
    "argv, terms, key, vec",
    [
        (["leaf-flow"], CUBIC_TERMS, "seed", 1e80 * np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.7])),
        (["leaf-hessian"], CUBIC_TERMS, "point", np.array([1e80, 0.0, 0.0], dtype=complex)),
        (["leaf-flow"], CUBIC_TERMS, "seed", 1e150 * np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.7])),
        (["leaf-flow", "--c-re", "1"], CUBIC_TERMS, "seed", 1e150 * np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.7])),
        (
            ["contact-trace", "--r-min", "1e154", "--r-max", "1e156"],
            [(1.0, (1, 0)), (2.0, (0, 1))],
            "start",
            np.array([1e155, 2e155], dtype=complex),
        ),
    ],
    ids=["leaf-flow", "leaf-hessian", "leaf-flow-1e150", "leaf-flow-1e150-c", "contact-trace"],
)
def test_exit_3_where_a_vector_leaves_the_doubles(tmp_path, argv, terms, key, vec):
    # the f of d(z1^3 + z2^3 + z3^3) overflows at 1e80, and its g and
    # monomials at 1e150, and |z|^2 at 1e155 (1, 2), on the line of contact
    # points of d(z1 + 2 z2): leaf-flow exited 2 at 1e80 with warnings,
    # leaf-hessian warned, leaf-flow at 1e150, with its own leaf or c = 1,
    # warned from g's build, and contact-trace exited 2 from a start of
    # radius inf
    form = fc.Polynomial(vec.size, terms).differential()
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"form": form_to_json(form), key: to_json(vec)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli([argv[0], "--input", str(path), *argv[1:]])
    assert code == 3 and out == "" and caught == []
    assert "out of range" in err


def test_exit_3_on_a_trace_start_where_f_overflows(tmp_path):
    # (1e100, 0) is a contact point, where f overflows: not an input error
    path = tmp_path / "trace.json"
    start = to_json(np.array([1e100, 0.0], dtype=complex))
    path.write_text(json.dumps({"form": form_to_json(degree_five_form()), "start": start}))
    code, out, err = run_cli(["contact-trace", "--input", str(path), "--r-min", "1e99", "--r-max", "1e101"])
    assert code == 3 and out == ""
    assert "point of norm 1e+100 is out of range: f's rounding scale is non-finite" in err


@pytest.mark.parametrize("option, radius", [("--r-min", "1e-170"), ("--r-max", "1e200")])
def test_exit_3_on_trace_radius_out_of_range(tmp_path, form321, option, radius):
    # the trace from (1, 0, 0) would lose its line to overflow, not truncate
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"form": form_to_json(form321), "start": to_json(np.array([1.0, 0.0, 0.0], dtype=complex))}))
    code, out, err = run_cli(["contact-trace", "--input", str(path), option, radius])
    assert code == 3 and out == ""
    assert f"radius {float(radius):.3g} is out of range" in err


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run_cli(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_byte_identical_reports(
    matrix_file, symplectic_file, flow_file, trace_file, hessian_file, audit_file
):
    for argv in (
        ["linear-analyze", "--input", matrix_file],
        ["linear-morseify", "--input", matrix_file, "--eps", "1e-3"],
        ["contact-solve", "--input", symplectic_file, "--seeds", "25", "--rng-seed", "9"],
        ["contact-trace", "--input", trace_file, "--steps", "6"],
        ["scan", "--input", symplectic_file, "--samples", "300", "--rng-seed", "4"],
        ["leaf-flow", "--input", flow_file, "--c-re", "1"],
        ["leaf-hessian", "--input", hessian_file],
        ["index-pugh", "--n", "6", "--i", "3"],
        ["index-audit", "--input", audit_file],
    ):
        runs = [run_cli(argv) for _ in range(3)]
        assert all(code == 0 for code, _, _ in runs)
        outs = {out for _, out, _ in runs}
        assert len(outs) == 1, f"non-deterministic output for {argv[0]}"


def _write_matrix(tmp_path, name: str, M) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"n": len(M), "entries": to_json(np.asarray(M, dtype=complex))}))
    return str(path)


def _run_without_warnings(argv) -> tuple[int, str, str]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(argv)
    assert caught == [], [str(w.message) for w in caught]
    return result


@pytest.mark.parametrize("indices", [(90,), (90, 270)])
def test_index_audit_counts_a_tangency_that_falls_on_a_sample(tmp_path, report_schema, indices):
    samples = circle_samples(lambda p: np.array([1.0, 0.0]), 360)
    for k in indices:
        samples[k] = (samples[k][0], samples[k][1], np.array([0.0, 1.0 if k == 90 else -1.0]))
    path = tmp_path / "tangent.json"
    path.write_text(json.dumps([{"point": list(p), "field": list(f), "normal": list(n)} for p, f, n in samples]))
    result = _check(["index-audit", "--input", str(path)], report_schema)["result"]
    assert (result["interior_tangencies"], result["exterior_tangencies"]) == (0, 2)
    assert (result["index"], result["winding"]) == (0, 0)
    assert result["consistent"] is True and result["under_sampled"] is True


def test_linear_analyze_near_the_largest_double(tmp_path, report_schema):
    for M, morse in (
        (np.diag([1e308, 1e300]), True),
        ([[1e308, 5e307], [5e307, -1e308]], False),  # sigma = 1.118e308 twice
    ):
        code, out, err = _run_without_warnings(["linear-analyze", "--input", _write_matrix(tmp_path, "big.json", M)])
        assert code == 0, err
        report = json.loads(out)
        jsonschema.validate(report, report_schema)
        assert report["result"]["is_morse"] is morse
        indices = [line.get("morse_index") for line in report["result"]["lines"]]
        assert indices == ([0, 1] if morse else [None, None])


def test_linear_analyze_refuses_an_asymmetry_past_the_largest_double(tmp_path):
    path = _write_matrix(tmp_path, "asym.json", [[0.0, 1e308], [-1e308, 0.0]])
    code, out, err = _run_without_warnings(["linear-analyze", "--input", path])
    assert code == 2 and out == ""
    assert "asym.json" in err and "not symmetric" in err


def test_linear_analyze_refuses_a_subnormal_sigma_min(tmp_path):
    path = _write_matrix(tmp_path, "sub.json", np.diag([1.0, 5e-324]))
    code, out, err = _run_without_warnings(["linear-analyze", "--input", path])
    assert code == 3 and out == ""
    assert "singular or too ill-conditioned" in err


@pytest.mark.parametrize("diagonal", [[1e308, 1e308, 0.0], [1e200, 1e-200]])
def test_exit_3_on_a_singular_matrix_at_either_end_of_the_doubles(tmp_path, diagonal):
    # the message named prod(sigma): "nan" with two overflow warnings for the
    # first, a misleading 1.0 for the second
    path = _write_matrix(tmp_path, "singular.json", np.diag(diagonal))
    code, out, err = _run_without_warnings(["linear-analyze", "--input", path])
    assert code == 3 and out == ""
    assert err == (
        "folcontact: numerical failure: matrix is singular or too ill-conditioned "
        f"(sigma_min = {min(diagonal):.3e}, sigma_max = {max(diagonal):.3e})\n"
    )


def test_linear_morseify_distance_scales_with_the_matrix(tmp_path, report_schema):
    def morseify(scale: float) -> dict:
        path = _write_matrix(tmp_path, "scaled.json", scale * np.eye(3))
        code, out, err = _run_without_warnings(["linear-morseify", "--input", path, "--eps", repr(0.1 * scale)])
        assert code == 0, err
        report = json.loads(out)
        jsonschema.validate(report, report_schema)
        return report["result"]

    unit = morseify(1.0)["frobenius_distance"]
    for scale in (1e200, 1e-200):
        result = morseify(scale)
        assert result["changed"] is True
        assert result["frobenius_distance"] == pytest.approx(scale * unit, rel=1e-12)
