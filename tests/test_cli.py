"""Command-line surface: exit codes, report headers, CSV/JSON formats,
sidecar metadata, and byte determinism."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys
from itertools import product

import numpy as np
import oracles
import pytest

from gaussweyl import __version__, cli, quadform, wigner
from gaussweyl.basis import CalcContext, TruncationSet
from gaussweyl.cli import MAX_WIGNER_GRID, main
from gaussweyl.symbols import eval_ddot, parse_symbol

GAUSS = "gaussian:nu=2.0,anorm=1.0"


def test_version(capsys):
    assert main(["--version"]) == 0
    assert f"gaussweyl {__version__}" in capsys.readouterr().out


def test_opmatrix_csv_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    rc = main(["opmatrix", "--symbol", GAUSS, "--N", "2", "--h", "1.0",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith(
        f"# gaussweyl {__version__} opmatrix | Lemma Ialphabeta | contract PASS"
    )
    raw = out.read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    lines = raw.decode().splitlines()
    assert lines[0] == "row_index,col_index,re,im"
    assert len(lines) == 1 + 9
    assert lines[2] == "0,1,0.0,0.0"  # structural zero, repr-exact
    entries = {}
    for line in lines[1:]:
        p, q, re, im = line.split(",")
        entries[(int(p), int(q))] = complex(float(re), float(im))
    for j, want in ((0, 1.0 / 3.0), (1, -1.0 / 9.0), (2, 1.0 / 27.0)):
        assert abs(entries[(j, j)] - want) <= 1e-12
    assert entries[(0, 1)] == 0.0  # structural zero of the diagonal family
    meta = json.loads((tmp_path / "matrix.csv.meta.json").read_text())
    assert meta["proposition"] == "Lemma Ialphabeta"
    assert meta["contract"]["passed"] is True
    assert meta["config"]["symbol"] == GAUSS
    assert meta["quadrature"]["basis_size"] == 3
    assert meta["quadrature"]["route"] == "closed: Gaussian-mixture diagonal law"


def test_nonpos_json_stdout(capsys):
    rc = main(["nonpos", "--nu", "2.0", "--anorm", "1.0", "--h", "1.0"])
    assert rc == 0
    cap = capsys.readouterr()
    assert "§3.3" in cap.out  # the section sign survives ensure_ascii=False
    rep = json.loads(cap.out)
    assert rep["proposition"] == "§3.3"
    assert abs(rep["results"]["closed"] + 1.0 / 18.0) <= 1e-8
    assert rep["results"]["sign"] == "negative"
    assert rep["results"]["h_nu_anorm_sq"] == 2.0
    assert rep["contract"]["passed"] is True
    assert rep["config"]["command"] == "nonpos"


def test_garding_json(capsys):
    rc = main(["garding", "--symbol", GAUSS, "--N", "6"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["proposition"] == "Prop. Gaa"
    assert rep["results"]["epsilon"] == "j^-2"
    assert rep["contract"]["margin"] > 0.0
    assert rep["contract"]["passed"] is True


def test_garding_eps_is_wired_through(capsys):
    assert main(["garding", "--symbol", GAUSS, "--N", "6"]) == 0
    default = capsys.readouterr()
    assert main(["garding", "--symbol", GAUSS, "--N", "6", "--eps", "j^-2"]) == 0
    explicit = capsys.readouterr()
    assert explicit.out == default.out and explicit.err == default.err
    assert main(["garding", "--symbol", GAUSS, "--N", "6", "--eps", "2^-j"]) == 0
    geo = json.loads(capsys.readouterr().out)["results"]
    lemma = json.loads(default.out)["results"]
    assert lemma["epsilon"] == "j^-2" and geo["epsilon"] == "2^-j"
    # sum of 81 pi eps_j^2 at h = 1: 81 pi^5/90 for j^-2, 27 pi for 2^-j
    assert abs(lemma["sum_lambda"] - 81.0 * math.pi**5 / 90.0) <= 1e-9
    assert abs(geo["sum_lambda"] - 27.0 * math.pi) <= 1e-9
    assert main(["garding", "--symbol", GAUSS, "--N", "6", "--eps", "bogus"]) == 1


def test_garding_eps_sets_the_class_norm(capsys):
    """--eps sets both M and the lambda_j: under 2^-j the Gaussian's class
    norm is 256, not the j^-2 value 16."""
    assert main(["garding", "--symbol", GAUSS, "--N", "6", "--eps", "2^-j"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["epsilon"] == "2^-j" and res["M"] == 256.0
    assert res["bound"] == -256.0 * res["sum_lambda"] * res["prod_one_plus_lambda"]
    assert main(["garding", "--symbol", "tensorradial:(one,1);(exp:nu=2.0,2)", "--N", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["M"] == 429981696.0


@pytest.mark.parametrize("symbol,coordinate", [
    (GAUSS, 1),
    ("tensorradial:(one,1);(exp:nu=2.0,2)", 2),
])
def test_garding_eps_zero_refuses_varying_symbols(capsys, symbol, coordinate):
    assert main(["garding", "--symbol", symbol, "--N", "4", "--eps", "zero"]) == 1
    err = capsys.readouterr().err
    assert "'eps'" in err and f"coordinate {coordinate}," in err


def test_garding_eps_zero_constant_symbol(capsys):
    assert main(["garding", "--symbol", "const:c=2.0", "--N", "4", "--eps", "zero"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["M"], res["bound"]) == (2.0, 0.0)


@pytest.mark.parametrize("symbol,rc", [
    ("radial:phi=polyexp:0.0,-1.0,d=1", 1),
    ("tensorradial:(polyexp:0.5,-1.0,1);(one,1)", 1),
    ("radial:phi=polyexp:1.0,-1.0,d=1", 0),
])
def test_garding_refuses_negative_profiles(capsys, symbol, rc):
    assert main(["garding", "--symbol", symbol, "--N", "4"]) == rc
    err = capsys.readouterr().err
    assert ("radial profile takes negative values" in err) == (rc == 1)


def test_section_commands_print_one_quadrature_record(capsys):
    """opmatrix, spectrum, radial and garding print the section's one
    provenance record, key for key."""
    symbol = "radial:phi=exp:nu=0.7,d=2"
    blocks = []
    for command in ("opmatrix", "spectrum", "radial", "garding"):
        assert main([command, "--symbol", symbol, "--N", "3", "--format", "json"]) == 0
        blocks.append(json.loads(capsys.readouterr().out)["quadrature"])
    assert list(blocks[0]) == ["symbol", "h", "N", "d", "basis_size", "route",
                               "quadrature_order", "structural_zeros"]
    assert all(block == blocks[0] and list(block) == list(blocks[0]) for block in blocks)


def test_radial_hypothesis_branches(capsys):
    rc = main(["radial", "--symbol", "radial:phi=polyexp:1.0,-1.0,d=1", "--N", "4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["contract"]["hypothesis_satisfied"] is True
    assert rep["contract"]["comparison_holds"] is True
    # decreasing profile: outside the hypothesis the bound is reported only
    rc = main(["radial", "--symbol", "radial:phi=exp:nu=1.0,d=1", "--N", "4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["contract"]["hypothesis_satisfied"] is False
    assert rep["contract"]["comparison_holds"] is False
    assert rep["contract"]["passed"] is True


def test_spectrum_json(capsys):
    rc = main(["spectrum", "--symbol", GAUSS, "--N", "4", "--format", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    eigs = rep["results"]["eigenvalues"]
    assert eigs == sorted(eigs)
    assert abs(eigs[0] + 1.0 / 9.0) <= 1e-10
    assert rep["proposition"] == "Eq. (13-AJNJFA)"


def test_wigner_csv_stdout(capsys):
    rc = main(["wigner", "--j", "0", "--k", "1", "--grid", "5", "--radius", "2.0"])
    assert rc == 0
    cap = capsys.readouterr()
    assert "\r\n" in cap.out
    lines = cap.out.splitlines()
    assert lines[0] == "x,xi,re,im"
    assert len(lines) == 1 + 25
    x, xi, re, im = (float(t) for t in lines[1].split(","))
    assert (x, xi) == (-2.0, -2.0)
    root2 = math.sqrt(2.0)
    assert abs(re + 2.0 * root2) <= 1e-12 and abs(im + 2.0 * root2) <= 1e-12
    # streaming CSV puts the metadata block on stderr after the header line
    meta = json.loads("\n".join(cap.err.splitlines()[1:]))
    assert meta["contract"]["passed"] is True
    assert meta["contract"]["max_residual"] <= 1e-8


def _explicit_laguerre_sum(k, alpha, x):
    """The explicit alternating sum for L_k^(alpha), which loses its digits
    from moderate degree."""
    x = np.asarray(x, dtype=float)
    term = np.full_like(x, math.comb(k + alpha, k), dtype=float)
    acc = term.copy()
    for m in range(1, k + 1):
        term = term * (-(k - m + 1) / ((alpha + m) * m)) * x
        acc += term
    return acc if acc.shape else float(acc)


def test_wigner_high_degree_runs_spot_check(capsys, monkeypatch):
    rc = main(["wigner", "--j", "64", "--k", "60", "--grid", "3"])
    assert rc == 0
    meta = json.loads("\n".join(capsys.readouterr().err.splitlines()[1:]))
    assert meta["contract"]["name"] == "closed form vs definition integral at 3 spot points"
    assert meta["contract"]["max_residual"] <= 1e-8
    assert meta["contract"]["spot_radius"] == 3.0
    assert "policy" in meta["quadrature"]
    # a wrong Laguerre kernel must fail the contract at this degree
    monkeypatch.setattr("gaussweyl.wigner.laguerre_eval", _explicit_laguerre_sum)
    assert main(["wigner", "--j", "64", "--k", "60", "--grid", "3"]) == 2
    meta = json.loads("\n".join(capsys.readouterr().err.splitlines()[1:]))
    assert meta["contract"]["passed"] is False


def test_wigner_spot_radius(capsys):
    """Spot points lie within min(radius, 3 sqrt(h)), where the defining
    integral's factor e^{zeta^2/h} stays moderate."""
    for extra, radius in ((["--radius", "8"], 3.0), (["--h", "0.1"], 3.0 * math.sqrt(0.1)),
                          (["--h", "4", "--radius", "2"], 2.0)):
        rc = main(["wigner", "--j", "3", "--k", "5", "--grid", "3", *extra])
        assert rc == 0
        meta = json.loads("\n".join(capsys.readouterr().err.splitlines()[1:]))
        assert meta["contract"]["spot_radius"] == radius
        assert meta["contract"]["max_residual"] <= 1e-8


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_wigner_refuses_a_non_finite_radius(radius, capsys):
    assert main(["wigner", "--j", "1", "--k", "1", "--radius", radius, "--grid", "3"]) == 1
    assert "--radius finite" in capsys.readouterr().err


def test_wigner_contract_fails_on_non_finite_values(capsys):
    # the grid overflows past the spot points, which stay within 3 sqrt(h)
    assert main(["wigner", "--j", "1", "--k", "1", "--radius", "1e200", "--grid", "3"]) == 2
    meta = json.loads("\n".join(capsys.readouterr().err.splitlines()[1:]))
    assert meta["contract"]["passed"] is False
    assert meta["contract"]["nonfinite_values"] == 8  # every point but the origin
    assert meta["contract"]["max_residual"] <= 1e-8
    assert main(["wigner", "--j", "1", "--k", "1", "--grid", "3"]) == 0
    meta = json.loads("\n".join(capsys.readouterr().err.splitlines()[1:]))
    assert meta["contract"]["nonfinite_values"] == 0


@pytest.mark.parametrize("argv,rc", [
    (["--j", "1", "--k", "1"], 2),
    (["--symbol", "gaussian:nu=2.0,anorm=1.0"], 0),
])
def test_wigner_overflowing_grid_keeps_stderr_to_the_report(argv, rc):
    """A grid that overflows writes no numpy warning: stderr is the header
    line and one JSON object, whatever the contract says."""
    proc = subprocess.run(
        [sys.executable, "-m", "gaussweyl.cli", "wigner", *argv, "--radius", "1e200", "--grid", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == rc
    header, meta = proc.stderr.split("\n", 1)
    assert header.startswith("# gaussweyl ") and header.endswith("PASS" if rc == 0 else "FAIL")
    assert json.loads(meta)["contract"]["passed"] is (rc == 0)


def test_wigner_grid_cap(capsys):
    # refused before any array is built; 1025^2 points would still be small
    assert main(["wigner", "--j", "0", "--k", "0", "--grid", str(MAX_WIGNER_GRID + 1)]) == 1
    assert f"--grid must be >= 2 and <= {MAX_WIGNER_GRID}" in capsys.readouterr().err


def test_diagonal_sections_above_the_dense_cap(capsys):
    """29,791 states of a closed-route section: the spectrum needs no dense
    matrix and runs; opmatrix would print one and is refused."""
    symbol = "tensorradial:(one,1);(exp:nu=2.0,2)"
    assert main(["spectrum", "--symbol", symbol, "--N", "30"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 29792
    assert json.loads(err.split("\n", 1)[1])["quadrature"]["basis_size"] == 29791
    assert main(["opmatrix", "--symbol", symbol, "--N", "30"]) == 1
    assert "dense-matrix cap is 4096" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_heatcheck_refuses_an_empty_grid(points, capsys):
    assert main(["heatcheck", "--symbol", GAUSS, "--points", points]) == 1
    assert f"--points must be >= 1, got {points}" in capsys.readouterr().err


def test_wigner_symbol_grid_json(capsys):
    rc = main(["wigner", "--symbol", "radial:phi=one,d=1", "--grid", "3",
               "--radius", "1.0", "--format", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["points"] == 9
    assert all(row[2] == 1.0 and row[3] == 0.0 for row in rep["results"]["rows"])
    assert rep["quadrature"]["grid_points"] == 9


def test_flandrin_csv_output(tmp_path, capsys):
    out = tmp_path / "fl.csv"
    rc = main(["flandrin", "--a", "inf", "--N", "4", "--format", "csv",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "N,top_eigenvalue"
    table = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert abs(table[2] - 0.722858581) <= 1e-7
    assert abs(table[4] - 0.928749657) <= 1e-7
    meta = json.loads((tmp_path / "fl.csv.meta.json").read_text())
    assert meta["config"]["a"] == "inf"
    assert meta["proposition"] == "Prop. Flandrin1"
    assert meta["contract"]["passed"] is True
    assert "GL panels" in meta["quadrature"]["spec"]


def test_heatcheck_json(capsys):
    rc = main(["heatcheck", "--symbol", "tensorradial:(exp:nu=1.0,1);(one,2)",
               "--lam", "1,2"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["proposition"] == "Eq. (dec-TS)"
    assert rep["results"]["residual"] <= 1e-10
    assert rep["results"]["lambda"] == [1, 2]
    assert abs(rep["results"]["weyl_ground_state"]["re"] - 0.5) <= 1e-9
    assert abs(rep["results"]["antiwick_ground_state"]["re"] - 1.0 / 3.0) <= 1e-9


def test_stochext_csv_and_determinism(capsys):
    args = ["stochext", "--direction", "geometric", "--p", "2.0",
            "--samples", "2000", "--nmax", "8", "--seed", "1"]
    rc1 = main(args)
    cap1 = capsys.readouterr()
    rc2 = main(args)
    cap2 = capsys.readouterr()
    assert rc1 == rc2 == 0
    assert cap1.out == cap2.out and cap1.err == cap2.err
    lines = cap1.out.splitlines()
    assert lines[0] == "n,exact,mc_estimate,std_error"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2, 4, 8]
    n0 = lines[1].split(",")
    assert abs(float(n0[1]) - 1.0) <= 1e-14  # full norm at n=0, unit direction
    rc3 = main(args[:-1] + ["3"])
    cap3 = capsys.readouterr()
    assert rc3 == 0 and cap3.out != cap1.out


def test_stochext_rows_stay_within_nmax(capsys):
    assert main(["stochext", "--nmax", "1", "--samples", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1]


@pytest.mark.parametrize("direction, seed", [("power", 110), ("power", 128), ("geometric", 113)])
def test_stochext_rows_past_3_sigma_pass_as_a_family(direction, seed, capsys):
    # one row of each run lies past 3 standard errors (z 3.07, 3.33, 3.26):
    # correct code, inside the per-row bound of the 12-row family
    argv = ["stochext", "--direction", direction, "--nmax", "1024", "--samples", "100000",
            "--seed", str(seed), "--format", "json"]
    assert main(argv) == 0
    contract = json.loads(capsys.readouterr().out)["contract"]
    assert contract["rows"] == 12 and contract["family_wise_rate"] == 0.0027
    assert abs(contract["per_row_sigmas"] - 3.6892) <= 1e-4
    assert 3.0 < contract["worst_z_score"] <= contract["per_row_sigmas"]


def test_stochext_fails_a_row_off_by_5_standard_errors(monkeypatch, capsys):
    argv = ["stochext", "--nmax", "1024", "--samples", "4000", "--seed", "7", "--format", "json"]
    assert main(argv) == 0
    row = json.loads(capsys.readouterr().out)["results"]["rows"][4]
    assert row["n"] == 8
    # move the closed form 5 standard errors away from the estimate
    shift = 5.0 * row["std_error"] * math.copysign(1.0, row["mc_estimate"] - row["exact"])
    exact = cli.exact_conv_rate
    monkeypatch.setattr(cli, "exact_conv_rate", lambda a, n, p, s: exact(a, n, p, s) - (shift if n == 8 else 0.0))
    assert main(argv) == 2
    contract = json.loads(capsys.readouterr().out)["contract"]
    assert contract["passed"] is False and contract["worst_z_score"] >= 5.0


def test_stochext_geometric_underflow_exits_1(capsys):
    argv = ["stochext", "--direction", "geometric", "--samples", "1000", "--format", "json"]
    assert main(argv + ["--nmax", "1075"]) == 1
    assert "underflows to 0 at n = 1075" in capsys.readouterr().err
    assert main(argv + ["--nmax", "1074"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rows = rep["results"]["rows"]
    assert rows[-1]["n"] == 1074
    assert all(r["std_error"] > 0.0 for r in rows)
    assert rep["quadrature"]["explicit_tail_coords"] == 64


def test_stochext_fails_rows_it_could_not_check(capsys):
    """At p = 300 the moments |X|^p overflow in the variance, so every
    standard error is inf and every z-score 0; the contract fails those rows
    instead of passing them, and numpy's overflow warnings stay silent."""
    assert main(["stochext", "--p", "300", "--nmax", "4", "--samples", "1000"]) == 2
    cap = capsys.readouterr()
    header, meta = cap.err.split("\n", 1)
    assert header.endswith("contract FAIL")
    assert json.loads(meta)["contract"]["passed"] is False
    rows = list(csv.DictReader(io.StringIO(cap.out)))
    assert [r["n"] for r in rows] == ["0", "1", "2", "4"]
    assert all(r["std_error"] == "inf" for r in rows)


@pytest.mark.parametrize("argv, needle", [
    (["spectrum", "--symbol", "gaussian:nu=1.0,anorm=1e200"], "'anorm'"),
    (["nonpos", "--nu", "1e300", "--anorm", "1e300"], "'anorm'"),
    (["spectrum", "--symbol", "radial:phi=one,d=inf"], "'d'"),
    (["garding", "--symbol", "const:c=inf", "--N", "2"], "'c'"),
    (["garding", "--symbol", "const:c=nan", "--N", "2"], "'c'"),
    (["garding", "--symbol", "radial:phi=polyexp:1.0,inf,d=1", "--N", "2"], "'polyexp'"),
    (["stochext", "--s", "nan"], "--s must be finite"),
    (["stochext", "--p", "inf"], "--p and --s must be finite"),
    (["stochext", "--p", "400"], "Gamma((p+1)/2) overflows"),
    # nu h = 1e310 overflows where the closed law forms it
    *[(argv + ["--h", "1e10"], "nu h must be finite, got the Gaussian rate nu = 1e+300 and --h 10000000000.0")
      for argv in (["radial", "--symbol", "radial:phi=exp:nu=1e300,d=1", "--N", "2"],
                   ["garding", "--symbol", "gaussian:nu=1e300,anorm=1.0", "--N", "2"],
                   ["spectrum", "--symbol", "gaussian:nu=1e300,anorm=1.0", "--N", "2"],
                   ["opmatrix", "--symbol", "gaussian:nu=1e300,anorm=1.0", "--N", "2"],
                   ["heatcheck", "--symbol", "gaussian:nu=1e300,anorm=1.0"],
                   ["nonpos", "--nu", "1e300", "--anorm", "1"])],
])
def test_non_finite_or_overflowing_input_is_a_usage_error(argv, needle, capsys):
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith("gaussweyl: error: ") and cap.err.count("\n") == 1
    assert needle in cap.err and cap.out == ""


@pytest.mark.parametrize("argv, sidecar_is_a_directory", [
    (["wigner", "--j", "1", "--k", "2", "--grid", "3"], False),
    (["nonpos", "--nu", "2", "--anorm", "1"], False),
    (["wigner", "--j", "1", "--k", "2", "--grid", "3"], True),
    (["opmatrix", "--symbol", GAUSS, "--N", "2"], True),
], ids=["wigner-missing-dir", "nonpos-missing-dir", "wigner-sidecar-dir", "opmatrix-sidecar-dir"])
def test_an_output_that_cannot_be_opened_exits_1_before_the_header(argv, sidecar_is_a_directory,
                                                                    tmp_path, capsys):
    if sidecar_is_a_directory:
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.meta.json").mkdir()
    else:
        out = tmp_path / "missing" / "x"
    assert main([*argv, "--output", str(out)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("gaussweyl: error: cannot write the output: ") and cap.err.count("\n") == 1
    # the data file opened before the sidecar failed is removed
    assert [p.name for p in tmp_path.iterdir()] == (["x.csv.meta.json"] if sidecar_is_a_directory else [])


def test_an_output_write_error_removes_the_files(monkeypatch, tmp_path, capsys):
    def failing(line, column, table):
        yield "0,0,"
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_table_rows", failing)
    assert main(["opmatrix", "--symbol", GAUSS, "--N", "2", "--output", str(tmp_path / "x.csv")]) == 1
    assert "No space left on device" in capsys.readouterr().err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def test_usage_and_domain_errors_exit_1(capsys):
    cases = [
        ["bogus"],
        ["opmatrix"],  # missing required --symbol
        ["opmatrix", "--symbol", "gaussian:nu=abc,anorm=1.0"],
        ["opmatrix", "--symbol", GAUSS, "--d", "2"],
        ["opmatrix", "--symbol", GAUSS, "--h", "0.0"],
        ["nonpos", "--nu", "-1.0", "--anorm", "1.0"],
        ["radial", "--symbol", GAUSS],  # not a radial family
        ["wigner"],  # neither --j/--k nor --symbol
        ["wigner", "--j", "0", "--k", "1", "--symbol", "const:c=1.0"],
        ["wigner", "--j", "70", "--k", "0"],
        ["wigner", "--j", "0", "--k", "0", "--grid", "1"],
        ["wigner", "--symbol", "tensorradial:(one,1);(one,1)"],
        ["flandrin", "--a", "0.0"],
        ["flandrin", "--a", "1.0", "--N", "1025"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        capsys.readouterr()
    # a malformed flag value: the message names the flag
    for argv, message in [
        (["heatcheck", "--symbol", GAUSS, "--lam", "a"], "error: --lam must be comma-separated pair indices, got 'a'"),
        (["heatcheck", "--symbol", GAUSS, "--lam=,"], "error: --lam must be comma-separated pair indices, got ','"),
        (["stochext", "--nmax", "-1"], "error: argument --nmax: must be >= 0, got -1"),
    ]:
        assert main(argv) == 1, argv
        cap = capsys.readouterr()
        assert message in cap.err and cap.out == "", argv


def test_order_flag_is_gone(capsys):
    # Gaussian mixtures run the closed law and boxes their own panels, so no
    # subcommand takes a fixed quadrature order
    cases = [
        ["wigner", "--j", "0", "--k", "1"],
        ["opmatrix", "--symbol", GAUSS],
        ["spectrum", "--symbol", GAUSS],
        ["nonpos", "--nu", "2.0", "--anorm", "1.0"],
        ["radial", "--symbol", "radial:phi=exp:nu=1.0,d=1"],
        ["garding", "--symbol", GAUSS],
        ["flandrin", "--a", "inf"],
        ["stochext"],
        ["heatcheck", "--symbol", GAUSS],
    ]
    for argv in cases:
        assert main(argv + ["--order", "5"]) == 1, argv
        assert "unrecognized arguments: --order 5" in capsys.readouterr().err
    assert main(["opmatrix", "--symbol", GAUSS, "--order", "300"]) == 1
    capsys.readouterr()


def _diagonal_oracle(degrees, nu):
    """{j: I_jj(e^{-nu r^2})} at h = 1 from the mpmath polar oracle."""
    return {j: oracles.matrix_element_gaussian_polar(j, nu, 1.0) for j in degrees}


def test_former_ladder_failures_exit_0(capsys):
    """The three sections whose per-pair order ladder used to stall."""
    assert main(["opmatrix", "--symbol", "const:c=1.5", "--N", "30", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    M = np.zeros((31, 31), dtype=complex)
    for p, q, re, im in rep["results"]["entries"]:
        M[p, q] = re + 1j * im
    assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
    for j, want in _diagonal_oracle((0, 1, 17, 30), 0.0).items():
        assert abs(M[j, j] - 1.5 * want) <= 1e-12, j

    assert main(["spectrum", "--symbol", "gaussian:nu=0.5,anorm=1.0", "--N", "24", "--format", "json"]) == 0
    eigs = np.array(json.loads(capsys.readouterr().out)["results"]["eigenvalues"])
    assert eigs.shape == (25,) and np.all(np.diff(eigs) >= 0.0)
    for j, want in _diagonal_oracle((0, 1, 2, 11, 23, 24), 0.5).items():
        assert np.min(np.abs(eigs - want)) <= 1e-12, j

    assert main(["radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "30"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["contract"]["passed"] is True
    diag = rep["results"]["diagonal"]
    layout = sorted(product(range(31), repeat=2), key=lambda t: (sum(t), t))
    one_pair = _diagonal_oracle((0, 1, 2, 13, 29, 30), 0.7)
    for a1, a2 in product(one_pair, repeat=2):
        assert abs(diag[layout.index((a1, a2))] - one_pair[a1] * one_pair[a2]) <= 1e-12, (a1, a2)


def test_full_cap_spectrum(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "63",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    eigs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    u = 0.7
    one_pair = (1.0 - u) ** np.arange(64) / (1.0 + u) ** np.arange(1, 65)
    assert eigs.shape == (4096,)
    assert np.max(np.abs(eigs - np.sort(np.multiply.outer(one_pair, one_pair).ravel()))) <= 1e-15


def test_quadrature_block_names_the_route(capsys):
    assert main(["spectrum", "--symbol", GAUSS, "--N", "3", "--format", "json"]) == 0
    quad = json.loads(capsys.readouterr().out)["quadrature"]
    assert quad["route"] == "closed: Gaussian-mixture diagonal law"
    assert "policy" not in quad  # no ladder ran
    assert main(["spectrum", "--symbol", "box:a=1.0", "--N", "2", "--format", "json"]) == 0
    quad = json.loads(capsys.readouterr().out)["quadrature"]
    assert quad["route"] == "box panels" and "policy" not in quad
    for argv in (["radial", "--symbol", "radial:phi=exp:nu=1.0,d=1", "--N", "3"],
                 ["garding", "--symbol", GAUSS, "--N", "3"],
                 ["heatcheck", "--symbol", GAUSS]):
        assert main(argv) == 0
        quad = json.loads(capsys.readouterr().out)["quadrature"]
        assert quad["route"] == "closed: Gaussian-mixture diagonal law" and "policy" not in quad, argv
    assert main(["nonpos", "--nu", "2.0", "--anorm", "1.0"]) == 0
    quad = json.loads(capsys.readouterr().out)["quadrature"]
    assert quad["route"].startswith("tensor Gauss-Hermite ladder of W(psi_1, psi_1)")
    assert quad["policy"]["cap"] == 192


def test_nonpos_contract_checks_the_mixture_law(monkeypatch, capsys):
    """nonpos compares the closed law with an independent quadrature, so a
    wrong law fails its contract."""
    assert main(["nonpos", "--nu", "2.0", "--anorm", "1.0"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(quadform, "_mixture_diagonal", lambda mix, degrees, h: np.full(len(degrees), 0.25))
    assert main(["nonpos", "--nu", "2.0", "--anorm", "1.0"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["contract"]["passed"] is False
    assert abs(rep["results"]["quadrature"] + 1.0 / 18.0) <= 1e-12


def test_flandrin_rejects_order_and_seed(capsys):
    # flandrin has no fixed-order rule and no randomness, so neither flag
    # exists; flandrin and stochext are h-free, their rule is sized from a and
    # N, and the sections take their pair count from the symbol
    cases = [["flandrin", "--a", "inf", flag, value]
             for flag, value in (("--order", "5"), ("--seed", "3"), ("--h", "0.5"),
                                 ("--points", "200"), ("--nodes", "20"))]
    cases.append(["stochext", "--h", "0.5"])
    cases += [[command, "--symbol", GAUSS, "--d", "1"]
              for command in ("opmatrix", "spectrum", "radial", "garding")]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_config_echoes_only_what_the_run_used(capsys):
    for argv in (["flandrin", "--a", "inf", "--N", "4"],
                 ["stochext", "--nmax", "4", "--samples", "1000", "--format", "json"]):
        assert main(argv) == 0, argv
        config = json.loads(capsys.readouterr().out)["config"]
        assert "h" not in config, argv
        # neither command reads a symbol, so none sets the dimension
        assert "symbol" not in config and "d" not in config, argv
    assert main(["stochext", "--nmax", "4", "--samples", "1000", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "N" not in config and config["nmax"] == 4  # one nmax
    assert main(["flandrin", "--a", "inf", "--N", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["N"] == 4
    assert main(["spectrum", "--symbol", "tensorradial:(one,1);(exp:nu=2.0,1)", "--N", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["quadrature"]["d"] == 2


SECTION_KEYS = ["command", "symbol", "N", "h", "output", "format"]


@pytest.mark.parametrize("argv, keys", [
    (["wigner", "--j", "1", "--k", "2", "--grid", "3"],
     ["command", "j", "k", "symbol", "grid", "radius", "h", "output", "format"]),
    (["opmatrix", "--symbol", GAUSS, "--N", "2"], SECTION_KEYS),
    (["spectrum", "--symbol", GAUSS, "--N", "2"], SECTION_KEYS),
    (["nonpos", "--nu", "2.0", "--anorm", "1.0"], ["command", "nu", "anorm", "h", "output", "format"]),
    (["radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "2"], SECTION_KEYS),
    (["garding", "--symbol", GAUSS, "--N", "2"], ["command", "eps", *SECTION_KEYS[1:]]),
    (["flandrin", "--a", "inf", "--N", "4"], ["command", "a", "N", "output", "format"]),
    (["stochext", "--nmax", "4", "--samples", "1000"],
     ["command", "direction", "p", "s", "samples", "nmax", "seed", "output", "format"]),
    (["heatcheck", "--symbol", GAUSS, "--points", "10"],
     ["command", "lam", "points", "symbol", "h", "seed", "output", "format"]),
])
def test_config_is_the_parsed_command_line(argv, keys, capsys):
    """config holds exactly the options the subcommand registers, in parser
    order, plus the command; an absent optional option echoes null."""
    assert main(argv + ["--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config) == keys
    assert config["command"] == argv[0] and config["output"] is None
    given = dict(zip(argv[1::2], argv[2::2]))
    for option, text in given.items():
        assert str(config[option[2:]]) == text, option
    for key in ("symbol", "lam"):
        if key in config and f"--{key}" not in given:
            assert config[key] is None, key


@pytest.mark.parametrize("argv", [
    ["stochext", "--seed", "-1"],
    ["heatcheck", "--symbol", GAUSS, "--seed", "-1"],
    ["opmatrix", "--symbol", GAUSS, "--N", "-1"],
    ["spectrum", "--symbol", GAUSS, "--N", "-1"],
    ["radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "-1"],
    ["garding", "--symbol", GAUSS, "--N", "-1"],
    ["flandrin", "--a", "inf", "--N", "-1"],
])
def test_negative_seed_and_degree_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    cap = capsys.readouterr()
    assert f"error: argument {argv[-2]}: must be >= 0, got -1" in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


def test_json_output_file_equals_the_stdout_report(tmp_path, capsys):
    argv = ["garding", "--symbol", GAUSS, "--N", "3"]
    assert main(argv) == 0
    streamed = capsys.readouterr()
    out = tmp_path / "garding.json"
    assert main(argv + ["--output", str(out)]) == 0
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == streamed.err  # the header line only
    written = json.loads(out.read_text())
    want = json.loads(streamed.out)
    assert written["config"].pop("output") == str(out)
    assert want["config"].pop("output") is None
    assert json.dumps(written) == json.dumps(want)  # key order included


def test_flandrin_spec_names_the_route(capsys):
    specs = {}
    for a in ("inf", "1.0"):
        assert main(["flandrin", "--a", a, "--N", "4"]) == 0
        specs[a] = json.loads(capsys.readouterr().out)["quadrature"]["spec"]
    assert specs["inf"].startswith("closed: 2F1 recurrence; polar check on n <= 4: exact arc, radial GL panels")
    assert specs["1.0"].startswith("polar: exact arc, radial GL panels on [0,1.41421]")
    assert specs["1.0"].endswith("16 nodes/panel, checked against 20 nodes/panel")


def test_flandrin_finite_box_at_degree_256_passes(capsys):
    assert main(["flandrin", "--a", "2.0", "--N", "256"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["contract"]["passed"] is True
    table = dict(rep["results"]["convergence"])
    assert sorted(table) == [2, 4, 8, 16, 32, 64, 128, 256]
    assert abs(table[32] - 1.002064639852) <= 1e-7  # the N = 32 top of the a = 2 box


def test_quadrature_stall_exits_2(monkeypatch, capsys):
    # an under-resolved rule: the polar rule on 2-node panels (and the
    # bridge grid 6 points per axis)
    monkeypatch.setattr(wigner, "_axis_points", lambda L, N: 6)
    monkeypatch.setattr(wigner, "PANEL_NODES", 2)
    rc = main(["flandrin", "--a", "1.0", "--N", "8"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["contract"]["passed"] is False
    assert record["contract"]["name"] == "quadrature convergence"
    assert "stalled" in record["contract"]["error"]


def test_box_stall_exits_2(monkeypatch, capsys):
    # one point per unit radius and per radian swept
    monkeypatch.setattr(wigner, "_polar_points", lambda length, sweep, N: length + sweep)
    assert main(["spectrum", "--symbol", "box:a=3.0", "--N", "48"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["contract"]["name"] == "quadrature convergence"
    assert "stalled" in record["contract"]["error"]


def test_thin_box_section_reports_the_doubled_rule(capsys):
    # the rectangle 1.005e-4 x 5.0: its sized polar rule has 432 points
    assert main(["spectrum", "--symbol", "box:a=0.02242", "--h", "3.2e-6", "--N", "64", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["quadrature"]["quadrature_order"] == 864


def test_flandrin_fails_a_table_kernel_the_bridge_disagrees_with(monkeypatch, capsys):
    """A table kernel off by 1e-6 moves both node counts of the polar check
    together, so only the bridge sees it, and only because the bridge never
    runs through `_table_sums`."""
    kernel = wigner._table_sums
    monkeypatch.setattr(wigner, "_table_sums", lambda *args: kernel(*args) + 1e-6)
    assert main(["flandrin", "--a", "2.0", "--N", "16"]) == 2
    contract = json.loads(capsys.readouterr().out)["contract"]
    assert contract["passed"] is False and contract["panel_agreement"] <= 1e-9
    assert contract["h_invariance_dev"] <= 1e-8 and abs(contract["bridge_vs_table"] - 1e-6) <= 1e-9

    def refused(*args):
        raise AssertionError("the bridge ran through the table kernel")

    monkeypatch.setattr(wigner, "_table_sums", refused)
    bridged, _, agreement = wigner._checked(wigner._bridge_sweep, 4, 2.0, 2.0, CalcContext(h=0.7))
    assert agreement <= 1e-9
    assert np.max(np.abs(bridged - kernel(4, *wigner._polar_rule(4, 2.0, 2.0, 16, 1)))) <= 1e-11


def test_flandrin_bridge_sees_an_error_in_the_reported_matrix(monkeypatch, capsys):
    """An error in the degree-32 sweep alone, at entries (1, 2) and (2, 1),
    moves both node counts of the polar check together; the bridge sees it
    because it is compared with the leading block of the matrix solved."""
    kernel = wigner._table_sums

    def perturbed(N, *args):
        S = kernel(N, *args)
        if N == 32:
            S[1, 2] += 1e-6
            S[2, 1] += 1e-6
        return S

    monkeypatch.setattr(wigner, "_table_sums", perturbed)
    assert main(["flandrin", "--a", "2.0", "--N", "32"]) == 2
    contract = json.loads(capsys.readouterr().out)["contract"]
    assert contract["panel_agreement"] <= 1e-9 and contract["h_invariance_dev"] <= 1e-8
    assert abs(contract["bridge_vs_table"] - 1e-6) <= 1e-9


def test_box_degree_limit_exits_1(capsys):
    assert main(["spectrum", "--symbol", "box:a=1.0", "--N", "1025"]) == 1
    assert "1024" in capsys.readouterr().err


def test_contract_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "nonpos_witness", lambda nu, anorm, ctx: (0.0, 1.0))
    rc = main(["nonpos", "--nu", "1.0", "--anorm", "1.0"])
    assert rc == 2
    cap = capsys.readouterr()
    assert "contract FAIL" in cap.err
    rep = json.loads(cap.out)
    assert rep["contract"]["passed"] is False


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gaussweyl.cli", "nonpos", "--nu", "1.0", "--anorm", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["tool"] == "gaussweyl"
    assert rep["results"]["sign"] == "zero"
    assert proc.stderr.startswith(f"# gaussweyl {__version__}")


def test_runtime_never_imports_scipy():
    """The package and its commands need numpy only; scipy is a test oracle."""
    script = (
        "import contextlib, io, sys\n"
        "from gaussweyl.cli import main\n"
        "runs = [['wigner', '--j', '3', '--k', '5'], ['nonpos', '--nu', '2.0', '--anorm', '1.0'],\n"
        "        ['stochext', '--direction', 'power']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


def _csv_cell_per_cell(v):
    """The per-cell CSV spelling the reports have always used (reference)."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_cell_per_cell(v):
    """The JSON value of one cell as the reports spell it (reference): numpy
    scalars as their Python twins, non-finite floats as their repr."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else repr(float(v))
    return str(v)


def _chunks(rows, size):
    """The table `rows` as _emit takes it: chunks of `size` rows (the last
    one shorter when `size` does not divide the table), column by column."""
    return [list(zip(*rows[lo : lo + size])) for lo in range(0, len(rows), size)]


def test_csv_emission_is_byte_identical_to_per_cell_formatting(capsys):
    """Both formats spell a table chunk by chunk as their per-cell references
    do, numpy bools, ints and floats included."""
    rows = [
        (True, False, np.bool_(True), "label"),
        (3, np.int64(-7), np.int32(5), 0),
        (0.1, np.float64(1.0 / 3.0), np.float32(0.1), -0.0),
        (math.nan, math.inf, -math.inf, np.float64(-0.0)),
        (np.float64(math.nan), 1e-310, 2.5e300, np.float64(math.inf)),
    ]
    plain = [(0.1, -0.0, 3, "x"), (math.inf, math.nan, -1, "y")]
    cfg = argparse.Namespace(command="wigner", format="csv", output=None)
    for table in (rows, plain):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "b", "c", "d"])
        for row in table:
            writer.writerow([_csv_cell_per_cell(c) for c in row])
        for size in (1, 2, len(table)):
            assert cli._emit(cfg, {}, {"passed": True}, {}, ("a", "b", "c", "d"), _chunks(table, size)) == 0
            assert capsys.readouterr().out == buf.getvalue()
    cfg = argparse.Namespace(command="wigner", format="json", output=None)
    for table in (rows, plain):
        for size in (1, 2, len(table)):
            assert cli._emit(cfg, {}, {"passed": True}, {}, ("a", "b", "c", "d"), _chunks(table, size), "rows") == 0
            out = capsys.readouterr().out
            rep = json.loads(out)
            rep["results"]["rows"] = [[_json_cell_per_cell(c) for c in row] for row in table]
            assert out == json.dumps(rep, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("j, k, grid", [(0, 0, 401), (64, 60, 121)])
def test_wigner_csv_matches_csv_writer(j, k, grid, capsys):
    """The column-wise table equals csv.writer's rendering of the same values."""
    assert main(["wigner", "--j", str(j), "--k", str(k), "--grid", str(grid)]) == 0
    axis = np.linspace(-3.0, 3.0, grid)
    x, xi = np.repeat(axis, grid), np.tile(axis, grid)
    vals = np.asarray(wigner.wigner_closed(j, k, x, xi, CalcContext(h=1.0)), dtype=complex)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "xi", "re", "im"])
    writer.writerows(zip(x.tolist(), xi.tolist(), vals.real.tolist(), vals.imag.tolist()))
    assert capsys.readouterr().out == buf.getvalue()


def test_csv_emission_quotes_strings_as_csv_writer(capsys):
    cells = [",", '"', "\n", "\r", " lead", "", "a,b", 'say "hi"', "x\r\ny", "plain"]
    table = [(c, cells[-1 - i], i, 0.5 * i) for i, c in enumerate(cells)]
    header = ("a b", "c,d", 'e"f', "g")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(table)
    cfg = argparse.Namespace(command="wigner", format="csv", output=None)
    for size in (1, 3, len(table)):
        assert cli._emit(cfg, {}, {"passed": True}, {}, header, _chunks(table, size)) == 0
        assert capsys.readouterr().out == buf.getvalue()


def test_json_emission_is_byte_identical_to_json_dumps(capsys):
    """Columns that are not all finite int/float are spelled cell by cell,
    as json.dumps spells the whole report."""
    rows = [
        (True, np.int64(-7), 0.1, "label"),
        (False, 3, math.nan, 'say "hi" \u00e9'),
        (True, 0, -math.inf, ""),
        (False, 2**70, np.float64(1.0 / 3.0), "x\ny"),
    ]
    cfg = argparse.Namespace(command="wigner", format="json", output=None)
    results = {"points": len(rows), "rows": None}
    for size in (1, 3, len(rows)):
        cli._emit(cfg, {}, {"passed": True}, results, ("a", "b", "c", "d"), _chunks(rows, size), json_rows="rows")
        out = capsys.readouterr().out
        assert out == _dumped(out, "rows", [list(r) for r in rows])


def _dumped(out, key, rows):
    """The report `out` as json.dumps spells it with the table `key` of its
    results replaced by `rows`: the whole-string rendering streaming replaces."""
    rep = json.loads(out)
    rep["results"][key] = rows
    return json.dumps(cli._jsonable(rep), indent=2, ensure_ascii=False) + "\n"


def _grid_rows(values, grid, radius):
    axis = np.linspace(-radius, radius, grid)
    x, xi = np.repeat(axis, grid), np.tile(axis, grid)
    vals = np.asarray(values(x, xi), dtype=complex)
    return list(zip(x.tolist(), xi.tolist(), vals.real.tolist(), vals.imag.tolist()))


WIGNER_JSON = [
    # (j, k, grid, radius, chunk).  A 12-entry chunk of a 5-point grid holds
    # two grid rows, so the last chunk holds one; at the module's chunk a
    # 200-point grid runs in blocks of 16384 // 200 = 81 rows, the last of 38.
    (3, 5, 5, 3.0, 12),
    (1, 1, 3, 1e200, 4),
    (1, 1, 3, 1e200, cli.TABLE_CHUNK),
    (0, 0, 200, 3.0, cli.TABLE_CHUNK),
]


@pytest.mark.parametrize("j, k, grid, radius, chunk", WIGNER_JSON)
def test_wigner_json_streams_the_dumped_report(j, k, grid, radius, chunk, monkeypatch, capsys):
    """Streamed in chunks, the JSON report equals json.dumps of the whole
    report, whose rows come from one evaluation of the whole grid; the grid
    at radius 1e200 overflows to non-finite values (exit code 2)."""
    monkeypatch.setattr(cli, "TABLE_CHUNK", chunk)
    argv = ["wigner", "--j", str(j), "--k", str(k), "--grid", str(grid), "--radius", str(radius)]
    rc = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    ctx = CalcContext(h=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _grid_rows(lambda x, xi: wigner.wigner_closed(j, k, x, xi, ctx), grid, radius)
    assert rc == (0 if radius < 1e100 else 2)
    assert out == _dumped(out, "rows", rows)
    assert any(isinstance(v, str) for row in json.loads(out)["results"]["rows"] for v in row) == (rc == 2)


@pytest.mark.parametrize("symbol, chunk", [(GAUSS, 12), ("box:a=1.0", 7), (GAUSS, cli.TABLE_CHUNK)])
def test_wigner_symbol_json_streams_the_dumped_report(symbol, chunk, monkeypatch, capsys):
    monkeypatch.setattr(cli, "TABLE_CHUNK", chunk)
    assert main(["wigner", "--symbol", symbol, "--grid", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    sym, ctx = parse_symbol(symbol), CalcContext(h=1.0)
    rows = _grid_rows(lambda x, xi: eval_ddot(sym, x[:, None], xi[:, None], ctx), 5, 3.0)
    assert out == _dumped(out, "rows", rows)


@pytest.mark.parametrize("symbol, n, chunk", [(GAUSS, 6, 20), ("box:a=1.0", 8, 30),
                                              ("box:a=1.0", 8, cli.TABLE_CHUNK)])
def test_opmatrix_json_streams_the_dumped_report(symbol, n, chunk, monkeypatch, capsys):
    """Row blocks of the section (two rows of 7 per 20-cell chunk, three of 9
    per 30) stream to json.dumps's rendering of every entry at once."""
    monkeypatch.setattr(cli, "TABLE_CHUNK", chunk)
    assert main(["opmatrix", "--symbol", symbol, "--N", str(n), "--format", "json"]) == 0
    out = capsys.readouterr().out
    om = quadform.assemble_matrix(parse_symbol(symbol), TruncationSet(1, n), CalcContext(h=1.0))
    entries = np.diag(om.diagonal) if om.dense is None else om.dense
    rows = [(i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(entries)]
    assert out == _dumped(out, "entries", rows)


@pytest.mark.parametrize("poison", [None, math.nan])
def test_opmatrix_hermiticity_defect_over_row_blocks(poison, monkeypatch, capsys):
    """Taken over row blocks, the defect is max|E - E^H| of the whole matrix,
    bit for bit, and a NaN entry still fails the contract."""
    rng = np.random.default_rng(7)
    dense = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    dense = dense + dense.conj().T
    dense[5, 2] += 1e-9 * (1 + 1j)
    if poison is not None:
        dense[6, 4] = poison  # in the third row block: E - E^H is NaN at (4, 6) and (6, 4)
    truncation = TruncationSet(1, 6)
    om = quadform.OperatorMatrix(truncation=truncation, meta={"basis_size": 7}, dense=dense)
    monkeypatch.setattr(cli, "assemble_matrix", lambda *args: om)
    monkeypatch.setattr(cli, "TABLE_CHUNK", 20)
    with np.errstate(invalid="ignore"):
        rc = main(["opmatrix", "--symbol", GAUSS, "--N", "6", "--format", "json"])
        expected = float(np.max(np.abs(dense - dense.conj().T)))
    contract = json.loads(capsys.readouterr().out)["contract"]
    if poison is None:
        assert contract["hermiticity_defect"] == expected > 0.0
        assert rc == 0
    else:
        assert contract["hermiticity_defect"] == "nan"
        assert rc == 2


STREAMED_PEAKS = [
    # (argv, peak resident MB)
    (["wigner", "--j", "3", "--k", "5", "--grid", "1024"], 80),
    (["wigner", "--j", "3", "--k", "5", "--grid", "512", "--format", "json"], 80),
    (["opmatrix", "--symbol", GAUSS, "--N", "500"], 80),
    (["opmatrix", "--symbol", GAUSS, "--N", "500", "--format", "json"], 80),
    (["opmatrix", "--symbol", GAUSS, "--N", "2000"], 50),
]


@pytest.mark.parametrize("argv, cap_mb", STREAMED_PEAKS, ids=[" ".join(a) for a, _ in STREAMED_PEAKS])
def test_large_tables_stream_in_bounded_memory(argv, cap_mb, tmp_path):
    """Whole-string reports peaked at 387, 271, 118 and 219 MB on the first
    four runs; streamed in chunks each stays within 80 MB resident.  A
    diagonal section's rows are spelled from its diagonal, so 2001 states
    (a dense matrix of 32 MB) stay within 50 MB.  The child reads its own
    peak (VmHWM): ru_maxrss would carry over the peak of the process that
    started it."""
    script = (
        "import sys\n"
        "from gaussweyl.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "print(rc, hwm.split()[1])\n"
    )
    out = tmp_path / "table"
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--output", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, hwm_kib = proc.stdout.split()
    assert rc == "0"
    assert out.stat().st_size > 10**6
    assert int(hwm_kib) < cap_mb * 1024


SEEDLESS = [
    ["wigner", "--j", "1", "--k", "2", "--grid", "3", "--format", "json"],
    ["opmatrix", "--symbol", GAUSS, "--N", "2", "--format", "json"],
    ["spectrum", "--symbol", GAUSS, "--N", "2", "--format", "json"],
    ["nonpos", "--nu", "2.0", "--anorm", "1.0"],
    ["radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "2"],
    ["garding", "--symbol", GAUSS, "--N", "2"],
    ["flandrin", "--a", "inf", "--N", "4"],
]


def test_seed_only_where_it_is_used(capsys):
    for argv in SEEDLESS:
        assert main(argv + ["--seed", "3"]) == 1, argv
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert main(argv) == 0, argv
        assert "seed" not in json.loads(capsys.readouterr().out)["config"], argv
    for argv in (["stochext", "--nmax", "4", "--samples", "1000", "--format", "json"],
                 ["heatcheck", "--symbol", GAUSS, "--points", "10"]):
        assert main(argv + ["--seed", "3"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3
