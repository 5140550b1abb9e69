"""Command-line surface: each subcommand runs one experiment, prints a
one-line header naming the result it exercises, and emits a deterministic
CSV or JSON report.

Exit codes: 0 = success with the command's contract satisfied; 2 = contract
violation (the report itself is the machine-readable violation record);
1 = usage error (bad flags, bad symbol text, bad parameter domain).

CSV outputs are pure RFC-4180 data (header row, complex values as re/im
column pairs); the metadata block goes to a `<output>.meta.json` sidecar
when writing to a file, or to stderr when streaming to stdout.  JSON outputs
are a single top-level object with stable key order and the metadata block
inline.  No timestamps anywhere: identical configuration (including seed)
gives byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .basis import CalcContext, TruncationSet
from .gaussian import LADDER_POLICY, QuadratureConvergenceError, coordinate_stream
from .heat import antiwick_form, decomposition_residual
from .positivity import (
    NONPOS_QUADRATURE_ROUTE,
    flandrin_search,
    garding_verify,
    nonpos_witness,
    radial_positivity_check,
)
from .quadform import (
    _refuse_dense,
    assemble_matrix,
    eig_hermitian,
    quadratic_form,
    section_route,
)
from .stochproj import (
    EXPLICIT_TAIL_COORDS,
    MIN_MC_SAMPLES,
    exact_conv_rate,
    geometric_direction,
    mc_conv_rate,
    power_direction,
)
from .symbols import SymbolDomainError, SymbolSyntaxError, eval_ddot, parse_symbol
from .wigner import wigner_closed, wigner_hermite_quadrature

TOOL = "gaussweyl"
# Points per axis of a `wigner` grid.  The values take 16 bytes a point and
# the table is written in chunks, so a run at the cap peaks near 55 MB
# resident with CSV output and 57 MB with JSON (2 vCPUs).
MAX_WIGNER_GRID = 1024
# Sample coordinates of a `heatcheck` grid, --points times the symbol's d:
# the grid and each heated evaluation over it grow with that count.  A run
# at the cap peaks near 180 MB resident at d = 1 and 84 MB at d = 8.
MAX_HEAT_COORDS = 1 << 21
# Rows per chunk of a report table: a chunk's Python cells take a few MB.
TABLE_CHUNK = 1 << 14
_TABLE = "\0table"  # where a JSON report's table goes, until it is written

_PROPOSITIONS = {
    "wigner": "Eq. (Wigner-gaussienne)",
    "opmatrix": "Lemma Ialphabeta",
    "spectrum": "Eq. (13-AJNJFA)",
    "nonpos": "§3.3",
    "radial": "Prop. posit-rad-gene",
    "garding": "Prop. Gaa",
    "flandrin": "Prop. Flandrin1",
    "stochext": "Lemma cvprobella",
    "heatcheck": "Eq. (dec-TS)",
}


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):  # numpy scalars, bools included
        return _jsonable(v.item())
    if isinstance(v, complex):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


class _Spelled(list):
    """A column of finite floats' reprs, which CSV and JSON both write as is."""


def _json_column(cells) -> list:
    """A `_Spelled` column or one of finite int/float cells passes through,
    since str.format spells a number by repr as json does; any other is
    spelled cell by cell by json.dumps."""
    if type(cells) is _Spelled:
        return cells
    kinds = set(map(type, cells))
    if kinds <= {int} or (kinds <= {int, float} and all(map(math.isfinite, cells))):
        return cells
    return [json.dumps(_jsonable(c), ensure_ascii=False) for c in cells]


def _table_rows(line, column, table):
    """One piece per chunk: its columns spelled by `column`, its rows by `line`."""
    for chunk in table:
        yield "".join(map(line.format, *map(column, chunk)))


def _csv_pieces(header, table):
    """The CSV table, header line first, then one piece per chunk: each cell
    as str.format spells it, unquoted."""
    yield ",".join(header) + "\r\n"
    yield from _table_rows(",".join(["{}"] * len(header)) + "\r\n", lambda cells: cells, table)


def _json_pieces(report, width, table):
    """`json.dumps(report, indent=2, ensure_ascii=False) + "\n"` in pieces, the
    rows of `table` (one at least) in place of a `_TABLE` at results[key]:
    one piece per chunk, each row led by a comma, through one indent=2 line."""
    head, at, tail = json.dumps(report, indent=2, ensure_ascii=False).rpartition(json.dumps(_TABLE))
    if at:
        line = ",\n      [\n        " + ",\n        ".join(["{}"] * width) + "\n      ]"
        pieces = _table_rows(line, _json_column, table)
        yield head + "[" + next(pieces)[1:]
        yield from pieces
        tail = "\n    ]" + tail
    yield tail + "\n"


@contextlib.contextmanager
def _outputs(paths):
    """Every path opened as a new text file before anything is written, so a
    path that cannot be opened stops the run before its header line.  On an
    OSError, in the opening or in the block, the files opened are removed and
    the error is a usage error (exit code 1)."""
    files = []
    try:
        for path in paths:
            files.append(open(path, "w", newline=""))
        yield files
    except OSError as exc:
        for fh in files:
            fh.close()
            os.remove(fh.name)
        raise ValueError(f"cannot write the output: {exc}") from None
    finally:
        for fh in files:
            fh.close()


def _emit(args, quadrature, contract, results, header, table, json_rows=None) -> int:
    """Write the report; return the exit code mandated by the contract.  The
    report's `config` is the parsed command line, in parser order.

    `table` is an iterable of chunks, each a sequence of equal-length columns
    in `header` order.  It is written chunk by chunk: as the CSV data, or in
    JSON as the array `results[json_rows]`; a JSON report without `json_rows`
    carries no table.  The chunks only spell values the command computed
    before calling, so a command that fails writes no file, and `_outputs`
    opens every file before the header line."""
    proposition = _PROPOSITIONS[args.command]
    ok = bool(contract.get("passed", False))
    report = {
        "tool": TOOL,
        "version": __version__,
        "command": args.command,
        "proposition": proposition,
        "config": _jsonable({k: v for k, v in vars(args).items() if k != "func"}),
        "quadrature": _jsonable(quadrature),
        "contract": _jsonable(contract),
    }
    paths = [args.output, args.output + ".meta.json"] if args.output else []
    with _outputs(paths[: 1 if args.format == "json" else 2]) as files:
        sys.stderr.write(
            f"# {TOOL} {__version__} {args.command} | {proposition} | "
            f"contract {'PASS' if ok else 'FAIL'}\n"
        )
        if args.format == "json":
            report["results"] = _jsonable(results)
            if json_rows is not None:
                report["results"][json_rows] = _TABLE
            (files[0] if files else sys.stdout).writelines(_json_pieces(report, len(header), table))
        else:
            meta = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
            (files[0] if files else sys.stdout).writelines(_csv_pieces(header, table))
            (files[1] if files else sys.stderr).write(meta)
    return 0 if ok else 2


def _ladder_block(**extra) -> dict:
    """Quadrature provenance of a command whose check ran the order ladder."""
    return {"policy": dict(LADDER_POLICY), **extra}


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _row_blocks(n: int):
    """(lo, hi) bounds of the row blocks of an n x n grid or matrix, each
    block at most TABLE_CHUNK entries (one row at least)."""
    step = max(1, TABLE_CHUNK // n)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def cmd_wigner(args) -> int:
    # --j and --k are both absent exactly when --symbol is given
    if (args.j is None, args.k is None) != (args.symbol is not None,) * 2:
        raise ValueError("give either --j and --k, or --symbol (not both)")
    if not 2 <= args.grid <= MAX_WIGNER_GRID or not 0 < args.radius < math.inf:
        raise ValueError(f"--grid must be >= 2 and <= {MAX_WIGNER_GRID}, and --radius finite and > 0")
    ctx = CalcContext(h=args.h)
    n = args.grid
    axis = np.linspace(-args.radius, args.radius, n)
    blocks = _row_blocks(n)
    vals = np.empty(n * n, dtype=complex)
    if args.symbol is not None:
        sym = parse_symbol(args.symbol)
        if sym.d != 1:
            raise ValueError("grid output needs a one-pair symbol")

        def evaluate(x, xi):
            return eval_ddot(sym, x[:, None], xi[:, None], ctx)
    else:
        if not (0 <= args.j <= 64 and 0 <= args.k <= 64):
            raise ValueError("--j/--k must lie in [0, 64]")

        def evaluate(x, xi):
            return wigner_closed(args.j, args.k, x, xi, ctx)
    # Far grid points may overflow; the contract counts what is not finite,
    # so numpy's warnings would only break the stderr format.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in blocks:
            vals[lo * n : hi * n] = evaluate(np.repeat(axis[lo:hi], n), np.tile(axis, hi - lo))
    if args.symbol is not None:
        contract = {
            "name": "finite symbol values on the grid",
            "passed": bool(np.all(np.isfinite(vals))),
        }
        quad = {"grid_points": n**2}
    else:
        # The defining integral carries e^{zeta^2/h}; spot points within
        # 3 sqrt(h) keep its conditioning that of the default run.
        r = min(args.radius, 3.0 * math.sqrt(ctx.h))
        pts = [(0.37 * r, -0.21 * r), (0.11 * r, 0.64 * r), (-0.53 * r, 0.29 * r)]
        resid = 0.0
        for px, pxi in pts:
            c = wigner_closed(args.j, args.k, px, pxi, ctx)
            q = wigner_hermite_quadrature(args.j, args.k, px, pxi, ctx)
            resid = max(resid, abs(complex(c) - complex(q)))
        nonfinite = int(np.count_nonzero(~np.isfinite(vals)))
        contract = {
            "name": "closed form vs definition integral at 3 spot points",
            "passed": bool(resid <= 1e-8 and nonfinite == 0),
            "nonfinite_values": nonfinite,
            "max_residual": resid,
            "tolerance": 1e-8,
            "spot_radius": r,
        }
        quad = _ladder_block()
    # Each axis value is spelled once and reused down the x and xi columns.
    cells = [repr(v) for v in axis.tolist()]
    table = (
        (_Spelled([c for c in cells[lo:hi] for _ in range(n)]), _Spelled(cells * (hi - lo)),
         vals[lo * n : hi * n].real.tolist(), vals[lo * n : hi * n].imag.tolist())
        for lo, hi in blocks
    )
    results = {"points": n**2, "rows": None}
    return _emit(args, quad, contract, results, ("x", "xi", "re", "im"), table, json_rows="rows")


def _symbol_matrix(args):
    sym = parse_symbol(args.symbol)
    return assemble_matrix(sym, TruncationSet(sym.d, args.N), CalcContext(h=args.h))


def cmd_opmatrix(args) -> int:
    section, meta = _symbol_matrix(args)
    size = len(section)
    _refuse_dense(size)  # a diagonal section too: the table has size^2 rows
    blocks = _row_blocks(size)
    diagonal = section.ndim == 1
    if diagonal:  # off the diagonal E and E - E^H are exactly 0
        herm = float(np.max(np.abs(section - section.conj())))
        scale = max(1.0, float(np.max(np.abs(section))))
    else:
        # Row blocks against the matching column blocks keep the temporaries
        # to one chunk; np.max over the block maxima keeps a NaN.
        herm = float(np.max([np.max(np.abs(section[lo:hi] - section[:, lo:hi].conj().T)) for lo, hi in blocks]))
        scale = max(1.0, float(np.max([np.max(np.abs(section[lo:hi])) for lo, hi in blocks])))
    contract = {
        "name": "hermitian matrix within 1e-8 (relative)",
        "passed": bool(herm <= 1e-8 * scale),
        "hermiticity_defect": herm,
    }
    cols = list(range(size))

    def chunk(lo, hi):  # a diagonal section's rows are zeros but for its slice of the diagonal
        block = np.pad(np.diag(section[lo:hi]), ((0, 0), (lo, size - hi))) if diagonal else section[lo:hi]
        return ([i for i in range(lo, hi) for _ in cols], cols * (hi - lo),
                block.real.ravel().tolist(), block.imag.ravel().tolist())
    results = {"basis_size": size, "entries": None}
    return _emit(args, meta, contract, results, ("row_index", "col_index", "re", "im"),
                 (chunk(lo, hi) for lo, hi in blocks), json_rows="entries")


def cmd_spectrum(args) -> int:
    section, meta = _symbol_matrix(args)
    eigs = eig_hermitian(section)
    contract = {
        "name": "real spectrum of the hermitian section",
        "passed": bool(np.all(np.isfinite(eigs))),
        "min_eig": float(eigs[0]),
        "max_eig": float(eigs[-1]),
    }
    results = {"eigenvalues": eigs.tolist()}
    table = [(list(range(eigs.size)), results["eigenvalues"])]
    return _emit(args, meta, contract, results, ("index", "eigenvalue"), table)


def cmd_nonpos(args) -> int:
    ctx = CalcContext(h=args.h)
    closed, quadval = nonpos_witness(args.nu, args.anorm, ctx)
    diff = abs(closed - quadval)
    contract = {
        "name": "closed form vs quadrature within 1e-8",
        "passed": bool(diff <= 1e-8),
        "abs_diff": diff,
        "tolerance": 1e-8,
    }
    u = ctx.h * args.nu * args.anorm**2
    results = {
        "closed": closed,
        "quadrature": quadval,
        "h_nu_anorm_sq": u,
        "sign": "negative" if closed < 0 else ("zero" if closed == 0 else "positive"),
        "sign_change_at_h_nu_anorm_sq": 1.0,
    }
    table = [(("closed", "quadrature", "abs_diff"), (closed, quadval, diff))]
    quad = _ladder_block(route=NONPOS_QUADRATURE_ROUTE)
    return _emit(args, quad, contract, results, ("quantity", "value"), table)


def cmd_radial(args) -> int:
    sym = parse_symbol(args.symbol)
    results, quad = radial_positivity_check(sym, TruncationSet(sym.d, args.N), CalcContext(h=args.h))
    # The lower bound is a theorem only under the nondecreasing-profile
    # hypothesis; outside it the comparison is reported but not enforced.
    hypothesis = results["hypothesis_satisfied"]
    contract = {
        "name": "min eigenvalue >= product lower bound (under H2: nondecreasing profiles)",
        "passed": bool(results["ok"] or not hypothesis),
        "hypothesis_satisfied": hypothesis,
        "comparison_holds": results["ok"],
        "tolerance": 1e-8,
    }
    diagonal = results["diagonal"]
    table = [([*range(len(diagonal)), "bound", "min_eig"],
              [*diagonal, results["bound"], results["min_eig"]])]
    return _emit(args, quad, contract, results, ("index", "value"), table)


def cmd_garding(args) -> int:
    sym = parse_symbol(args.symbol)
    results, quad = garding_verify(sym, TruncationSet(sym.d, args.N), CalcContext(h=args.h), eps=args.eps)
    contract = {
        "name": "measured min eigenvalue >= Garding bound (margin >= -1e-9)",
        "passed": bool(results["margin"] >= -1e-9),
        "margin": results["margin"],
        "tolerance": -1e-9,
    }
    keys = ("S_eps", "sum_lambda", "prod_one_plus_lambda", "M", "bound", "measured_min_eig", "margin")
    table = [(keys, [results[k] for k in keys])]
    return _emit(args, quad, contract, results, ("quantity", "value"), table)


def cmd_flandrin(args) -> int:
    results = flandrin_search(args.a, args.N)
    checks = {k: results[k] for k in ("panel_agreement", "h_invariance_dev", "bridge_vs_table")}
    contract = {
        "name": "quadrature agreement <= 1e-9 and h-independence <= 1e-8 "
        "(the eigenvalue excess is reported, not asserted)",
        "passed": bool(
            checks["panel_agreement"] <= 1e-9
            and checks["h_invariance_dev"] <= 1e-8
            and checks["bridge_vs_table"] <= 1e-8
        ),
        **checks,
    }
    table = [tuple(zip(*results["convergence"]))]
    quad = {"spec": results["quadrature"], "domain_radius": results["domain_radius"]}
    return _emit(args, quad, contract, results, ("N", "top_eigenvalue"), table)


def cmd_stochext(args) -> int:
    # Values the library would refuse, nan, inf and a p whose moment constant
    # Gamma((p+1)/2) overflows are refused here, naming the option.
    if not (math.isfinite(args.p) and math.isfinite(args.s)):
        raise ValueError(f"--p and --s must be finite, got {args.p!r} and {args.s!r}")
    if args.p < 1 or args.s <= 0:
        raise ValueError(f"--p must be >= 1 and --s > 0, got {args.p!r} and {args.s!r}")
    if args.samples < MIN_MC_SAMPLES:
        raise ValueError(f"--samples must be >= {MIN_MC_SAMPLES}, got {args.samples}")
    try:
        math.gamma((args.p + 1.0) / 2.0)
    except OverflowError:
        raise ValueError(f"--p {args.p!r}: Gamma((p+1)/2) overflows (p must be at most about 342.2)") from None
    a = geometric_direction() if args.direction == "geometric" else power_direction()
    ns = sorted(n for n in {0, 1, 2, args.nmax} | {2**k for k in range(2, 12)} if n <= args.nmax)
    # Both directions have infinite support, so a zero closed-form tail is an
    # underflow (geometric 2^-n from n = 1075), not a rate to check.
    for n in ns:
        if a.tail_sq(n) == 0.0:
            raise ValueError(
                f"--nmax {args.nmax}: the closed-form {a.name} tail underflows to 0 "
                f"at n = {n}; the geometric direction allows --nmax <= 1074"
            )
    # One family at the two-sided rate of a single 3 sigma row: by Bonferroni,
    # correct code fails some row with at most that chance (rows share draws).
    from statistics import NormalDist  # only this command needs it

    rate = 0.0027
    sigmas = NormalDist().inv_cdf(1.0 - 0.5 * rate / len(ns))
    # The family is tested at s = 1, where every row is a normal float; the
    # rates at s are those at 1 times sqrt(s), and so are the printed rows.
    # At large p the moments |X|^p overflow; a row whose numbers are not
    # finite fails the contract, so numpy's warnings would only break the
    # stderr format.
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = mc_conv_rate(a, ns, args.p, 1.0, args.samples, args.seed)
    z = [abs(est - exact_conv_rate(a, n, args.p, 1.0)) / se for n, (est, se) in zip(ns, estimates)]
    root = math.sqrt(args.s)
    rows = [(n, exact_conv_rate(a, n, args.p, args.s), est * root, se * root)
            for n, (est, se) in zip(ns, estimates)]
    worst = max(z, default=0.0)
    ok = all(math.isfinite(v) for row in rows for v in row[1:]) and all(v <= sigmas for v in z)
    contract = {
        "name": "MC estimates bracket the closed-form rates, all rows at a family-wise false-alarm rate of 0.27%",
        "passed": bool(ok),
        "worst_z_score": worst,
        "rows": len(ns),
        "per_row_sigmas": sigmas,
        "family_wise_rate": rate,
    }
    results = {
        "direction": a.name,
        "rows": [
            {"n": n, "exact": e, "mc_estimate": m, "std_error": s} for n, e, m, s in rows
        ],
    }
    quad = {"samples": args.samples, "explicit_tail_coords": EXPLICIT_TAIL_COORDS}
    return _emit(args, quad, contract, results, ("n", "exact", "mc_estimate", "std_error"),
                 [tuple(zip(*rows))])


def cmd_heatcheck(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    sym = parse_symbol(args.symbol)
    if args.points * sym.d > MAX_HEAT_COORDS:
        raise ValueError(f"--points {args.points} gives {args.points * sym.d} sample coordinates at d = {sym.d}; "
                         f"the cap is {MAX_HEAT_COORDS} (2^21)")
    if args.lam is not None:
        try:
            lam = tuple(int(t) for t in args.lam.split(","))
        except ValueError:
            raise ValueError(f"--lam must be comma-separated pair indices, got {args.lam!r}") from None
        if not all(1 <= j <= sym.d for j in lam):
            raise ValueError(f"--lam pair indices must lie in 1..{sym.d}, got {args.lam!r}")
        if len(set(lam)) < len(lam):
            raise ValueError(f"--lam repeats a pair index, got {args.lam!r}")
    else:
        lam = tuple(range(1, min(sym.d, 3) + 1))
    ctx = CalcContext(h=args.h)
    rng = coordinate_stream(args.seed, 97)
    x = rng.normal(0.0, math.sqrt(3.0 * ctx.h), size=(args.points, sym.d))
    xi = rng.normal(0.0, math.sqrt(3.0 * ctx.h), size=(args.points, sym.d))
    # The section first: it refuses a symbol whose rate overflows at this h
    # before the grid is evaluated.
    psi0 = {(): 1.0}
    weyl = quadratic_form(sym, psi0, psi0, ctx)
    aw = antiwick_form(sym, psi0, psi0, ctx)
    residual = decomposition_residual(sym, lam, ctx, (x, xi))
    # The telescoping sum is the identity for any commuting heat maps; the
    # anti-Wick ground state pins the heat law itself: heat at h/2, then the
    # Weyl ground state, sends each e^{-nu r^2} factor to 1/(1 + 2 nu h).
    closed = math.fsum(c * math.prod(1.0 / (1.0 + 2.0 * nu * ctx.h) for _, nu in pairs)
                       for c, pairs in sym.mixture_terms)
    closed_tol = 1e-12 * max(1.0, math.fsum(abs(c) for c, _ in sym.mixture_terms))
    deviation = abs(aw - closed)
    contract = {
        "name": "telescoping heat decomposition residual <= 1e-10",
        "passed": bool(residual <= 1e-10 and deviation <= closed_tol),
        "residual": residual,
        "tolerance": 1e-10,
        "antiwick_closed_form": closed,
        "antiwick_deviation": deviation,
        "antiwick_tolerance": closed_tol,
    }
    results = {
        "residual": residual,
        "lambda": list(lam),
        "grid_points": args.points,
        "weyl_ground_state": weyl,
        "antiwick_ground_state": aw,
    }
    table = [(("residual", "weyl_ground_re", "antiwick_ground_re"),
              (residual, float(np.real(weyl)), float(np.real(aw))))]
    quad = {"route": section_route(sym), "grid_points": args.points}
    return _emit(args, quad, contract, results, ("quantity", "value"), table)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is reserved for
    contract violations) and no prefix matching, so an option a command does
    not take (`--h` on flandrin) is refused, not read as another (`--help`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    """argparse type of --N and --nmax: a negative value is a usage error,
    refused before the run starts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed, one 64-bit word of a Philox key: a value
    outside [0, 2^64) is a usage error, refused before the run starts."""
    value = _nonnegative_int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"must be < 2^64, got {value}")
    return value


def _add_common(p, default_format: str, with_symbol: bool = False, with_n: bool = False,
                with_h: bool = True, with_seed: bool = False):
    if with_symbol:
        p.add_argument("--symbol", required=True, help="symbol text, e.g. gaussian:nu=2.0,anorm=1.0")
    if with_n:
        p.add_argument("--N", type=_nonnegative_int, default=4, help="truncation degree")
    if with_h:
        p.add_argument("--h", type=float, default=1.0, help="semiclassical parameter")
    if with_seed:
        p.add_argument("--seed", type=_seed, default=0, help="RNG stream (default 0)")
    p.add_argument("--output", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_Parser)

    p = sub.add_parser("wigner",
                       help="joint density of two Hermite states (or a symbol) on a grid")
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--symbol", default=None)
    p.add_argument("--grid", type=int, default=21, help="points per axis")
    p.add_argument("--radius", type=float, default=3.0, help="grid half-width")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("opmatrix",
                       help="operator matrix elements on a Hermite section")
    _add_common(p, "csv", with_symbol=True, with_n=True)
    p.set_defaults(func=cmd_opmatrix)

    p = sub.add_parser("spectrum",
                       help="eigenvalues of the operator section")
    _add_common(p, "csv", with_symbol=True, with_n=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("nonpos",
                       help="sign-changing Gaussian-symbol witness")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--anorm", type=float, required=True)
    _add_common(p, "json")
    p.set_defaults(func=cmd_nonpos)

    p = sub.add_parser("radial",
                       help="radial lower bound vs measured spectrum")
    _add_common(p, "json", with_symbol=True, with_n=True)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("garding",
                       help="Garding bound vs measured min eigenvalue")
    p.add_argument("--eps", default="j^-2", help="epsilon sequence (j^-2, 2^-j, zero)")
    _add_common(p, "json", with_symbol=True, with_n=True)
    p.set_defaults(func=cmd_garding)

    p = sub.add_parser("flandrin",
                       help="top eigenvalue of the box-localization matrix")
    p.add_argument("--a", type=float, required=True, help="box size (positive float or inf)")
    p.add_argument("--N", type=_nonnegative_int, default=32, help="Hermite section degree")
    _add_common(p, "json", with_h=False)
    p.set_defaults(func=cmd_flandrin)

    p = sub.add_parser("stochext",
                       help="L^p convergence rate of truncated linear functionals")
    p.add_argument("--direction", choices=("geometric", "power"), default="geometric")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--nmax", type=_nonnegative_int, default=32)
    _add_common(p, "csv", with_h=False, with_seed=True)
    p.set_defaults(func=cmd_stochext)

    p = sub.add_parser("heatcheck",
                       help="telescoping heat decomposition and anti-Wick ground state")
    p.add_argument("--lam", default=None, help="comma-separated pair indices (default: all, capped at 3)")
    p.add_argument("--points", type=int, default=200, help="check-grid size")
    _add_common(p, "json", with_symbol=True, with_seed=True)
    p.set_defaults(func=cmd_heatcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SymbolSyntaxError, SymbolDomainError, ValueError) as exc:
        sys.stderr.write(f"{TOOL}: error: {exc}\n")
        return 1
    except QuadratureConvergenceError as exc:
        record = {
            "tool": TOOL,
            "version": __version__,
            "command": args.command,
            "contract": {"name": "quadrature convergence", "passed": False, "error": str(exc)},
        }
        sys.stderr.write(json.dumps(record, indent=2, ensure_ascii=False) + "\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
