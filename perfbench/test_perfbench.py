"""Tests of the benchmark's own logic.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import folcontact as fc  # noqa: E402
import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],  # overlaps a: the union 1..4 counts once
        ["leaf", 1.5, 2.5, 1],
        ["c", 9.0, 12.0, 0],  # runs past its parent: only 9..10 counts
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 1.0, 3.0])


def test_layer_totals_sum_self_time_per_name():
    t = tracing.Tracer()
    t.spans = [["f", 0.0, 4.0, -1], ["g", 1.0, 2.0, 0], ["g", 2.5, 3.0, 0]]
    assert t.layer_totals() == {"f": (1, pytest.approx(2.5)), "g": (2, pytest.approx(1.5))}


@pytest.mark.parametrize(
    "n, p", [(39, None), (40, 75), (99, 75), (100, 90), (999, 90), (1000, 99)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert bench.tail_percentile(n) == p


def test_percentile_interpolates_order_statistics():
    values = list(range(1, 102))  # 1..101
    assert bench.percentile(values, 90) == pytest.approx(91.0)


def test_takagi_oracle_lines_and_matching():
    rng = np.random.default_rng(5)
    A = oracles.random_morse(rng, 5)
    sigma, W = oracles.takagi_lines(A)
    assert np.all(np.diff(sigma) < 0)
    for j in range(5):
        w = W[:, j]
        Aw = A @ w  # = sigma e^{i phi} conj(w): the line is fixed, its phase is not
        assert abs(abs(np.vdot(w.conj(), Aw)) - sigma[j]) <= 1e-10 * sigma[0]
        assert abs(np.linalg.norm(Aw) - sigma[j]) <= 1e-10 * sigma[0]
        z = (0.3 - 1.7j) * w  # any complex multiple lies on the line
        assert oracles.match_line(z, W, 1e-9) == j
        assert oracles.match_line(z + 1e-3 * W[:, (j + 1) % 5], W, 1e-6) == -1
    _, lineset = fc.analyze(fc.SymMatrix(A))  # the program agrees with the oracle
    for j, line in enumerate(lineset.lines):
        assert oracles.match_line(line.direction, W, 1e-9) == j


def test_cubic_oracle_has_21_contact_directions():
    dirs = oracles.cubic_directions()
    assert len(dirs) == 21
    for d in dirs:
        assert oracles.contact_residual(3 * d**2, d) <= 1e-14
    gaps = [oracles.aligned_distance(a, b) for i, a in enumerate(dirs) for b in dirs[i + 1 :]]
    assert min(gaps) > 0.1


def test_closed_form_hessian_matches_program():
    sigma = np.array([3.0, 2.0, 1.0])
    for j in range(3):
        assert np.allclose(oracles.closed_form_hessian(sigma, j), fc.hessian_eigenvalues_closed_form(sigma, j))


def test_parse_report_rejects_non_finite_literals():
    assert oracles.parse_report('{"x": 1.5}') == {"x": 1.5}
    for bad in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}', "{"):
        with pytest.raises(oracles.CheckFailed):
            oracles.parse_report(bad)


def test_install_patches_every_binding_and_uninstall_restores():
    from folcontact import algebra, contact, leaf

    orig = algebra.jacobian_form
    t = tracing.Tracer()
    patches = tracing.install(t)
    try:
        assert contact.jacobian_form is algebra.jacobian_form is not orig
        form = fc.linear_form(fc.SymMatrix(np.diag([3.0, 2.0, 1.0])))
        fc.sphere_search(form, 1.0, 2, 0)
        p = np.array([0.0, 1.0, 0.0], dtype=complex)
        chart = fc.make_chart(fc.quadratic_first_integral(fc.SymMatrix(np.diag([3.0, 2.0, 1.0]))), p + 0.01, form=form)
        leaf.flow_to_critical(chart, p + 0.01)  # polish looks jacobian_form up at call time
    finally:
        tracing.uninstall(patches)
    assert contact.jacobian_form is orig is algebra.jacobian_form
    names = [s[0] for s in t.spans]
    search = names.index("contact.sphere_search")
    assert any(s[0] == "algebra.jacobian_form" and s[3] == search for s in t.spans)
    flow = names.index("leaf.flow_to_critical")
    assert any(s[0] == "algebra.jacobian_form" and s[3] == flow for s in t.spans)
    assert t.counts["algebra.Polynomial.evaluate"] > 0
    assert t.counts["leaf.flows_polished"] == 1


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_emitted_metric_is_declared(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paths", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
