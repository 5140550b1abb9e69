"""Tests of the benchmark's own code: self-time arithmetic, the reference
checkers on small known inputs, and failure counting.

    python3 -m pytest bench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import oracle
import refcheck as rc
import tracer
from refcheck import Verdict
from refcheck import NO_OUTPUT
from run import ChildRun, Result, check_attribution
from workloads import WORKLOADS, Command, Defect

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


def _span(i, name, start, end, parent=None, command=0):
    return tracer.Span(i, name, start, end, parent, command)


# ---------------------------------------------------------------------------
# Self times.
# ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "quadform.assemble_matrix", 1.0, 4.0, parent=0),
        _span(2, "gaussian.gh_rule", 2.0, 3.0, parent=1),
        _span(3, "quadform.eig_hermitian", 5.0, 9.0, parent=0),
    ]
    st = tracer.self_times(spans)
    assert st[(0, 0)] == pytest.approx(3.0)
    assert st[(0, 1)] == pytest.approx(2.0)
    assert st[(0, 2)] == pytest.approx(1.0)
    assert st[(0, 3)] == pytest.approx(4.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, "a.f", 0.0, 10.0),
        _span(1, "a.g", 1.0, 5.0, parent=0),
        _span(2, "a.g", 4.0, 6.0, parent=0),
        _span(3, "a.g", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert tracer.self_times(spans)[(0, 0)] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_keep_commands_apart():
    spans = [_span(0, "a.f", 0.0, 2.0, command=0), _span(0, "a.f", 0.0, 3.0, command=1),
             _span(1, "a.g", 0.5, 1.0, parent=0, command=1)]
    st = tracer.self_times(spans)
    assert st[(0, 0)] == pytest.approx(2.0)
    assert st[(1, 0)] == pytest.approx(2.5)


def test_summarize_adds_up_and_keeps_import_out_of_layers():
    spans = [
        _span(0, "cli.import", 0.0, 0.5),
        _span(1, "cli.main", 0.5, 2.0),
        _span(2, "wigner.wigner_closed", 0.6, 1.0, parent=1),
        _span(3, "basis.laguerre_eval", 0.7, 0.9, parent=2),
    ]
    m = tracer.summarize(spans, {"basis.laguerre_eval.terms": 40.0}, ["cli.main", "wigner.wigner_closed",
                                                                      "basis.laguerre_eval", "heat.heat_apply"])
    assert m["cli.import_s"] == pytest.approx(0.5)
    assert m["layer.cli.self_s"] == pytest.approx(1.1)
    assert m["layer.wigner.self_s"] == pytest.approx(0.2)
    assert m["layer.basis.self_s"] == pytest.approx(0.2)
    assert m["basis.laguerre_eval.terms"] == 40.0
    assert m["heat.heat_apply.calls"] == 0 and m["layer.stochproj.self_s"] == 0.0
    attributed = m["cli.import_s"] + sum(m[f"layer.{x}.self_s"] for x in tracer.LAYERS)
    assert attributed == pytest.approx(2.0)


def test_attribution_check_rejects_overlapping_top_level_spans():
    spans = [_span(0, "cli.import", 0.0, 0.6), _span(1, "cli.main", 0.4, 1.0)]
    with pytest.raises(RuntimeError):
        check_attribution(spans, 1.1, "overlap")
    check_attribution([_span(0, "cli.import", 0.0, 0.4), _span(1, "cli.main", 0.4, 1.0)], 1.1, "serial")


def test_attribution_check_rejects_spans_longer_than_the_process():
    spans = [_span(0, "cli.main", 0.0, 2.0), _span(1, "wigner.wigner_closed", 0.5, 1.5, parent=0)]
    with pytest.raises(RuntimeError):
        check_attribution(spans, 1.9, "too long")


def test_recorder_rejects_spans_closed_out_of_order():
    rec = tracer.SpanRecorder()
    a = rec.open("a.f")
    rec.open("a.g")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_traced_command_nests_spans_and_rebinds_imported_names(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), "7",
         "nonpos", "--nu", "2.0", "--anorm", "1.0", "--output", str(tmp_path / "o.json")],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans_path.read_text())
    spans = tracer.spans_from_dict(data)
    by_id = {s.id: s for s in spans}
    names = {s.name for s in spans}
    assert {"cli.import", "cli.main", "positivity.nonpos_witness", "quadform.quadratic_form"} <= names
    # quadform.quadratic_form is reached through the name positivity imported
    qf = next(s for s in spans if s.name == "quadform.quadratic_form")
    assert by_id[qf.parent].name == "positivity.nonpos_witness"
    assert all(s.command == 7 for s in spans)
    assert "cli.cmd_nonpos" not in data["wrapped"]


# ---------------------------------------------------------------------------
# Reference closed forms on small known inputs.
# ---------------------------------------------------------------------------


def test_mixture_diagonal_matches_readme_values():
    got = rc.mixture_diagonal(((1.0, (2.0,)),), 1, 2, 1.0)
    np.testing.assert_allclose(got, [1 / 3, -1 / 9, 1 / 27], rtol=1e-15)
    assert rc.mixture_diagonal(((1.5, (0.0,)),), 1, 3, 1.0).tolist() == [1.5] * 4


def test_graded_order_is_total_degree_then_lex():
    assert rc.graded_indices(2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_ground_state_forms():
    assert rc.weyl_ground(((1.0, (2.0,)),), 1.0) == pytest.approx(1 / 3)
    assert rc.antiwick_ground(((1.0, (1.0,)),), 1.0) == pytest.approx(1 / 3)
    assert rc.antiwick_ground(((1.0, (2.0, 2.0)),), 1.0) == pytest.approx(1 / 25)


def test_nonpos_closed_form():
    assert rc.nonpos_closed(2.0, 1.0, 1.0) == pytest.approx(-1 / 18, rel=1e-15)


def test_garding_sum_and_product_against_partial_products():
    c = 81.0 * math.pi
    s, p = rc.garding_closed(1.0)
    with mp.workdps(30):
        direct = mp.nprod(lambda j: 1 + c / j**4, [1, mp.inf])
    assert p == pytest.approx(float(direct), rel=1e-12)
    assert s == pytest.approx(c * float(mp.zeta(4)), rel=1e-14)


def test_stochext_exact_column():
    assert rc.stochext_exact("geometric", 4, 2.0, 1.0) == pytest.approx(0.25, rel=1e-15)
    assert rc.stochext_exact("power", 4, 2.0, 1.0) == pytest.approx(math.sqrt(float(mp.psi(1, 5))), rel=1e-15)
    assert rc.stochext_rows(8) == [0, 1, 2, 4, 8]


def test_wigner_value_low_degree():
    assert rc.wigner_value(0, 0, 0.3, -1.2, 1.0) == pytest.approx(1.0)
    # W(psi_0, psi_1)(x, xi) = sqrt(2/h) (x + i xi)
    assert rc.wigner_value(0, 1, 1.0, 1.0, 2.0) == pytest.approx(1.0 + 1.0j)
    assert rc.wigner_value(1, 0, 1.0, 1.0, 2.0) == pytest.approx(1.0 - 1.0j)


def test_quarter_plane_oracle_matches_adaptive_quadrature_entries():
    # tests/oracles.py: adaptive 2-D quadrature over the quarter plane
    with mp.workdps(50):
        assert complex(oracle.quarter_plane_entry(0, 0)) == pytest.approx(0.25, abs=1e-15)
        assert complex(oracle.quarter_plane_entry(0, 1)) == pytest.approx(0.1994711402007163 * (1 + 1j), abs=1e-15)
        assert complex(oracle.quarter_plane_entry(0, 2)) == pytest.approx(0.22507907903927654j, abs=1e-15)


def test_frozen_reference_tables():
    tops = rc.REFERENCE["flandrin_inf_top"]
    assert tops["16"] == pytest.approx(1.000771558, abs=1e-8)
    assert rc.nondecreasing([tops[n] for n in sorted(tops, key=int)])
    assert len(rc.REFERENCE["box_a1_N8_h1_eigenvalues"]) == 9


# ---------------------------------------------------------------------------
# Checkers: correct output passes, a deliberately wrong value fails.
# ---------------------------------------------------------------------------


def _write_matrix_csv(path, M):
    rows = ["row_index,col_index,re,im"]
    for p in range(M.shape[0]):
        for q in range(M.shape[1]):
            rows.append(f"{p},{q},{float(M[p, q].real)!r},{float(M[p, q].imag)!r}")
    path.write_text("\n".join(rows) + "\n")


def test_section_check_flags_a_wrong_entry(tmp_path):
    check = rc.SectionCheck("opmatrix", ((1.0, (2.0,)),), 1, 2)
    good = np.diag([1 / 3, -1 / 9, 1 / 27]).astype(complex)
    _write_matrix_csv(tmp_path / "good.csv", good)
    assert check.check(tmp_path / "good.csv", None).ok
    bad = good.copy()
    bad[1, 1] += 1e-6
    _write_matrix_csv(tmp_path / "bad.csv", bad)
    assert not check.check(tmp_path / "bad.csv", None).ok
    off = good.copy()
    off[0, 2] = 1e-6
    _write_matrix_csv(tmp_path / "off.csv", off)
    assert not check.check(tmp_path / "off.csv", None).ok


def _write_wigner_csv(path, j, k, scale=1.0):
    axis = np.linspace(-3.0, 3.0, 9)
    rows = ["x,xi,re,im"]
    for x in axis:
        for g in axis:
            v = scale * rc.wigner_value(j, k, x, g, 1.0)
            rows.append(f"{float(x)!r},{float(g)!r},{v.real!r},{v.imag!r}")
    path.write_text("\n".join(rows) + "\n")


def test_wigner_check_flags_wrong_values(tmp_path):
    check = rc.WignerCheck(2, 3, 9)
    _write_wigner_csv(tmp_path / "good.csv", 2, 3)
    assert check.check(tmp_path / "good.csv", np.random.default_rng(0)).ok
    _write_wigner_csv(tmp_path / "bad.csv", 2, 3, scale=1.0 + 1e-6)
    assert not check.check(tmp_path / "bad.csv", np.random.default_rng(0)).ok


def _flandrin_verdict(path, check, table):
    out = {"results": {"convergence": table, "top_eigenvalue": table[-1][1]}}
    path.write_text(json.dumps(out))
    return check.check(path, None).ok


def test_flandrin_check_requires_oracle_value_and_nondecreasing_table(tmp_path):
    ref = {int(n): v for n, v in rc.REFERENCE["flandrin_a2_top"].items()}
    check = rc.FlandrinCheck("flandrin_a2_top", 16)
    path = tmp_path / "f.json"
    good = [[2, ref[2]], [4, ref[4]], [8, ref[8]], [16, 1.0]]
    assert _flandrin_verdict(path, check, good)
    assert not _flandrin_verdict(path, check, good[:3] + [[16, 0.9]])  # decreases: interlacing violated
    for i in range(3):
        wrong = [list(row) for row in good]
        wrong[i][1] += 1e-6
        assert not _flandrin_verdict(path, check, wrong)  # disagrees with the oracle


def test_flandrin_check_tells_the_finite_box_from_the_quarter_plane(tmp_path):
    quarter = rc.REFERENCE["flandrin_inf_top"]
    table = [[int(n), v] for n, v in quarter.items()]
    assert _flandrin_verdict(tmp_path / "q.json", rc.FlandrinCheck("flandrin_inf_top", 64), table)
    assert not _flandrin_verdict(tmp_path / "a.json", rc.FlandrinCheck("flandrin_a2_top", 64), table)


def test_nonpos_check_flags_wrong_quadrature(tmp_path):
    want = rc.nonpos_closed(2.0, 1.0, 1.0)
    (tmp_path / "n.json").write_text(json.dumps({"results": {"closed": want, "quadrature": want + 1e-6}}))
    assert not rc.NonposCheck(2.0, 1.0).check(tmp_path / "n.json", None).ok


def test_wrong_or_failing_output_counts_as_failed():
    cmd = Command(("nonpos",), "n.json", rc.NonposCheck(2.0, 1.0))
    ok_run = ChildRun(1.0, 0, 1000)
    assert not Result(cmd, ok_run, Verdict(True, "")).failed
    wrong = Result(cmd, ok_run, Verdict(False, "off by 1e-6"))
    assert wrong.failed and wrong.unexpected
    crashed = Result(cmd, ChildRun(1.0, 2, 1000), Verdict(True, ""))
    assert crashed.failed and not crashed.unexpected
    crashed_silently = Result(cmd, ChildRun(1.0, 2, 1000), NO_OUTPUT)
    assert crashed_silently.failed and crashed_silently.unexpected


def test_known_defect_excuses_only_the_failure_form_it_names():
    exits = Command(("nonpos",), "n.json", rc.NonposCheck(2.0, 1.0), Defect("raises", exits=True))
    wrong = Command(("nonpos",), "n.json", rc.NonposCheck(2.0, 1.0), Defect("wrong table", exits=False))
    ok_run, exit2 = ChildRun(1.0, 0, 1000), ChildRun(1.0, 2, 1000)
    mismatch = Verdict(False, "off by 1e-6")

    def unexpected(cmd, run, verdict):
        r = Result(cmd, run, verdict)
        assert r.failed
        return r.unexpected

    # the command exits nonzero: with no output, or with output that agrees
    assert not unexpected(exits, exit2, NO_OUTPUT)
    assert not unexpected(exits, exit2, Verdict(True, ""))
    # ... but it may not write wrong output, whatever its exit code
    assert unexpected(exits, exit2, mismatch)
    assert unexpected(exits, ok_run, mismatch)
    # the command writes a wrong table and exits 0; a crash is not that defect
    assert not unexpected(wrong, ok_run, mismatch)
    assert unexpected(wrong, exit2, NO_OUTPUT)
    assert unexpected(wrong, exit2, mismatch)
    assert unexpected(wrong, ok_run, NO_OUTPUT)


def test_workloads_are_fixed_except_for_seeded_flags():
    for build in WORKLOADS.values():
        for x, y in zip(build(1), build(2)):
            assert len(x.args) == len(y.args)
            for i, (p, q) in enumerate(zip(x.args, y.args)):
                assert p == q or (x.args[i - 1] == "--seed" and (p, q) == ("1", "2"))
