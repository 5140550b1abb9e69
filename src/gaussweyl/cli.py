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
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

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
    ROUTE_LADDER,
    HermiteExpansion,
    assemble_matrix,
    eig_hermitian,
    matrix_metadata,
    quadratic_form,
    section_route,
)
from .stochproj import (
    EXPLICIT_TAIL_COORDS,
    exact_conv_rate,
    geometric_direction,
    mc_conv_rate,
    power_direction,
)
from .symbols import SymbolDomainError, SymbolSyntaxError, eval_ddot, parse_symbol
from .wigner import wigner_closed, wigner_hermite_quadrature

TOOL = "gaussweyl"

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
# Config echo and report plumbing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; echoed verbatim into every output.

    `seed` is None for the deterministic commands, which take no --seed and
    echo none."""

    command: str
    symbol: str | None = None
    h: float = 1.0
    N: int = 0
    d: int = 1
    seed: int | None = None
    output: str | None = None
    format: str = "json"
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.command not in _PROPOSITIONS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.h > 0:
            raise ValueError("--h must be > 0")
        if self.N < 0:
            raise ValueError("--N must be >= 0")
        if self.d < 1:
            raise ValueError("--d must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if self.format not in ("csv", "json"):
            raise ValueError("--format must be csv or json")

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "symbol": self.symbol,
            "h": self.h,
            "N": self.N,
            "d": self.d,
            "seed": self.seed,
            "output": self.output,
            "format": self.format,
            "params": dict(self.params),
        }
        if self.seed is None:
            del out["seed"]
        return out


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(v.item())
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


_CSV_PLAIN = frozenset((str, int, float))


def _csv_cell(v):
    """A cell as csv.writer must see it to spell it as the reports do: bools
    become true/false, numbers plain Python numbers (csv writes a float by
    its repr and an int by str), anything else its str."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return str(v)


def _csv_quote(cell: str) -> str:
    """`cell` as csv.writer spells a string cell in a row of two or more cells
    (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    csv.writer(buf).writerow((cell, ""))
    return buf.getvalue()[: -len(",\r\n")]


def _csv_column(cells) -> list:
    """One column ready for str.format, which spells a float by its repr and
    an int by str, as csv.writer does.  One type scan decides: columns of plain
    str/int/float cells (every large table) pass through, others are converted
    cell by cell; each distinct string is quoted once."""
    kinds = set(map(type, cells))
    if not _CSV_PLAIN.issuperset(kinds):
        cells = [_csv_cell(c) for c in cells]
        kinds = set(map(type, cells))
    if str in kinds:
        quoted = {c: _csv_quote(c) for c in set(cells) if type(c) is str}
        if any(q != c for c, q in quoted.items()):
            cells = [quoted[c] if type(c) is str else c for c in cells]
    return cells


def _csv_text(header, columns) -> str:
    """The CSV table, header first, each line joined by one format string."""
    line = ",".join(["{}"] * len(header)) + "\r\n"
    text = line.format(*map(_csv_quote, header))
    if columns:
        text += "".join(map(line.format, *map(_csv_column, columns)))
    return text


def _emit(cfg: RunConfig, quadrature, contract, results, csv_header=None, csv_rows=None,
          csv_columns=None) -> int:
    """Write the report; return the exit code mandated by the contract.  A CSV
    table comes as `csv_rows` or, column by column, as `csv_columns`."""
    proposition = _PROPOSITIONS[cfg.command]
    ok = bool(contract.get("passed", False))
    report = {
        "tool": TOOL,
        "version": __version__,
        "command": cfg.command,
        "proposition": proposition,
        "config": _jsonable(cfg.as_dict()),
        "quadrature": _jsonable(quadrature),
        "contract": _jsonable(contract),
    }
    sys.stderr.write(
        f"# {TOOL} {__version__} {cfg.command} | {proposition} | "
        f"contract {'PASS' if ok else 'FAIL'}\n"
    )
    if cfg.format == "json":
        report["results"] = _jsonable(results)
        text = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        if cfg.output:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        if csv_columns is None:
            csv_columns = list(zip(*csv_rows))
        data = _csv_text(csv_header, csv_columns)
        meta = json.dumps(report, indent=2, ensure_ascii=False) + "\n"
        if cfg.output:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(data)
            with open(cfg.output + ".meta.json", "w", newline="") as fh:
                fh.write(meta)
        else:
            sys.stdout.write(data)
            sys.stderr.write(meta)
    return 0 if ok else 2


def _config(args, command: str, **fields) -> RunConfig:
    """The validated RunConfig of `command`: h, output, format and, where the
    command registers --seed, the seed come from `args`; `fields` holds the
    command's own fields."""
    cfg = RunConfig(
        command=command,
        h=args.h,
        seed=getattr(args, "seed", None),
        output=args.output,
        format=args.format,
        **fields,
    )
    cfg.validate()
    return cfg


def _ctx(cfg: RunConfig) -> CalcContext:
    return CalcContext(h=cfg.h)


def _quad_block(ladder_ran: bool, **extra) -> dict:
    """Quadrature provenance; the ladder policy appears only when a ladder ran."""
    block = {"policy": dict(LADDER_POLICY)} if ladder_ran else {}
    block.update(extra)
    return block


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_wigner(args) -> int:
    params = {"j": args.j, "k": args.k, "grid": args.grid, "radius": args.radius}
    cfg = _config(args, "wigner", symbol=args.symbol, N=max(args.j or 0, args.k or 0), params=params)
    if (args.symbol is None) == (args.j is None or args.k is None):
        raise ValueError("give either --j and --k, or --symbol (not both)")
    if args.grid < 2 or not args.radius > 0:
        raise ValueError("--grid must be >= 2 and --radius > 0")
    ctx = _ctx(cfg)
    axis = np.linspace(-args.radius, args.radius, args.grid)
    xg = np.repeat(axis, args.grid)
    gg = np.tile(axis, args.grid)
    if args.symbol is not None:
        sym = parse_symbol(args.symbol)
        if sym.d != 1:
            raise ValueError("grid output needs a one-pair symbol")
        vals = np.asarray(eval_ddot(sym, xg[:, None], gg[:, None], ctx), dtype=complex)
        contract = {
            "name": "finite symbol values on the grid",
            "passed": bool(np.all(np.isfinite(vals))),
        }
        quad = {"grid_points": args.grid**2}
    else:
        if not (0 <= args.j <= 64 and 0 <= args.k <= 64):
            raise ValueError("--j/--k must lie in [0, 64]")
        vals = np.asarray(wigner_closed(args.j, args.k, xg, gg, ctx), dtype=complex)
        # The defining integral carries e^{zeta^2/h}; spot points within
        # 3 sqrt(h) keep its conditioning that of the default run.
        r = min(args.radius, 3.0 * math.sqrt(cfg.h))
        pts = [(0.37 * r, -0.21 * r), (0.11 * r, 0.64 * r), (-0.53 * r, 0.29 * r)]
        resid = 0.0
        for px, pxi in pts:
            c = wigner_closed(args.j, args.k, px, pxi, ctx)
            q = wigner_hermite_quadrature(args.j, args.k, px, pxi, ctx)
            resid = max(resid, abs(complex(c) - complex(q)))
        contract = {
            "name": "closed form vs definition integral at 3 spot points",
            "passed": bool(resid <= 1e-8),
            "max_residual": resid,
            "tolerance": 1e-8,
            "spot_radius": r,
        }
        quad = _quad_block(True)
    results = {"points": args.grid**2, "rows": None}
    if cfg.format == "json":
        results["rows"] = list(zip(xg.tolist(), gg.tolist(), vals.real.tolist(), vals.imag.tolist()))
        return _emit(cfg, quad, contract, results)
    # Each axis value is spelled once and reused down the x and xi columns.
    cells = [repr(v) for v in axis.tolist()]
    columns = ([c for c in cells for _ in range(args.grid)], cells * args.grid,
               vals.real.tolist(), vals.imag.tolist())
    return _emit(cfg, quad, contract, results, ("x", "xi", "re", "im"), csv_columns=columns)


def _symbol_matrix(args, command):
    sym = parse_symbol(args.symbol)
    d = args.d if args.d is not None else sym.d
    if d != sym.d:
        raise ValueError(f"--d {d} does not match the symbol's pair count {sym.d}")
    cfg = _config(args, command, symbol=args.symbol, N=args.N, d=d)
    ctx = _ctx(cfg)
    om = assemble_matrix(sym, TruncationSet(d, args.N), ctx)
    return cfg, om


def _section_quad_block(meta: dict) -> dict:
    """Quadrature block of a section command; `meta` names its route."""
    return _quad_block(meta["route"] == ROUTE_LADDER, **meta)


def cmd_opmatrix(args) -> int:
    cfg, om = _symbol_matrix(args, "opmatrix")
    herm = float(np.max(np.abs(om.entries - om.entries.conj().T)))
    scale = max(1.0, float(np.max(np.abs(om.entries))))
    contract = {
        "name": "hermitian matrix within 1e-8 (relative)",
        "passed": bool(herm <= 1e-8 * scale),
        "hermiticity_defect": herm,
    }
    quad = _section_quad_block(matrix_metadata(om))
    row_index, col_index = np.indices(om.entries.shape).reshape(2, -1).tolist()
    rows = list(zip(row_index, col_index, om.entries.real.ravel().tolist(), om.entries.imag.ravel().tolist()))
    results = {"basis_size": om.size, "entries": rows if cfg.format == "json" else None}
    return _emit(cfg, quad, contract, results, ("row_index", "col_index", "re", "im"), rows)


def cmd_spectrum(args) -> int:
    cfg, om = _symbol_matrix(args, "spectrum")
    eigs = eig_hermitian(om)
    contract = {
        "name": "real spectrum of the hermitian section",
        "passed": bool(np.all(np.isfinite(eigs))),
        "min_eig": float(eigs[0]),
        "max_eig": float(eigs[-1]),
    }
    quad = _section_quad_block(matrix_metadata(om))
    rows = [(i, float(v)) for i, v in enumerate(eigs)]
    results = {"eigenvalues": [float(v) for v in eigs]}
    return _emit(cfg, quad, contract, results, ("index", "eigenvalue"), rows)


def cmd_nonpos(args) -> int:
    cfg = _config(
        args,
        "nonpos",
        symbol=f"gaussian:nu={args.nu},anorm={args.anorm}",
        N=1,
        params={"nu": args.nu, "anorm": args.anorm},
    )
    ctx = _ctx(cfg)
    closed, quadval = nonpos_witness(args.nu, args.anorm, ctx)
    diff = abs(closed - quadval)
    contract = {
        "name": "closed form vs quadrature within 1e-8",
        "passed": bool(diff <= 1e-8),
        "abs_diff": diff,
        "tolerance": 1e-8,
    }
    u = cfg.h * args.nu * args.anorm**2
    results = {
        "closed": closed,
        "quadrature": quadval,
        "h_nu_anorm_sq": u,
        "sign": "negative" if closed < 0 else ("zero" if closed == 0 else "positive"),
        "sign_change_at_h_nu_anorm_sq": 1.0,
    }
    rows = [("closed", closed), ("quadrature", quadval), ("abs_diff", diff)]
    quad = _quad_block(True, route=NONPOS_QUADRATURE_ROUTE)
    return _emit(cfg, quad, contract, results, ("quantity", "value"), rows)


def cmd_radial(args) -> int:
    sym = parse_symbol(args.symbol)
    if sym.family not in ("radial", "tensor_radial"):
        raise ValueError("radial needs a radial: or tensorradial: symbol")
    cfg = _config(args, "radial", symbol=args.symbol, N=args.N, d=sym.d)
    rp = radial_positivity_check(sym, TruncationSet(sym.d, args.N), _ctx(cfg))
    # The lower bound is a theorem only under the nondecreasing-profile
    # hypothesis; outside it the comparison is reported but not enforced.
    passed = rp.ok if rp.increasing else True
    contract = {
        "name": "min eigenvalue >= product lower bound (under H2: nondecreasing profiles)",
        "passed": bool(passed),
        "hypothesis_satisfied": rp.increasing,
        "comparison_holds": rp.ok,
        "tolerance": 1e-8,
    }
    results = {
        "bound": rp.bound,
        "min_eig": rp.min_eig,
        "ok": rp.ok,
        "hypothesis_satisfied": rp.increasing,
        "diagonal": [float(v) for v in rp.diagonal],
    }
    rows = [(i, float(v)) for i, v in enumerate(rp.diagonal)]
    rows.append(("bound", rp.bound))
    rows.append(("min_eig", rp.min_eig))
    quad = _section_quad_block(rp.quad_meta)
    return _emit(cfg, quad, contract, results, ("index", "value"), rows)


def cmd_garding(args) -> int:
    sym = parse_symbol(args.symbol)
    cfg = _config(args, "garding", symbol=args.symbol, N=args.N, d=sym.d, params={"eps": args.eps})
    rep = garding_verify(sym, TruncationSet(sym.d, args.N), _ctx(cfg), eps=args.eps)
    contract = {
        "name": "measured min eigenvalue >= Garding bound (margin >= -1e-9)",
        "passed": bool(rep.margin >= -1e-9),
        "margin": rep.margin,
        "tolerance": -1e-9,
    }
    results = rep.as_dict()
    rows = [
        ("S_eps", rep.s_eps),
        ("sum_lambda", rep.sum_lambda),
        ("prod_one_plus_lambda", rep.prod_one_plus_lambda),
        ("M", rep.M),
        ("bound", rep.bound),
        ("measured_min_eig", rep.measured_min_eig),
        ("margin", rep.margin),
    ]
    quad = _section_quad_block(rep.quad_meta)
    return _emit(cfg, quad, contract, results, ("quantity", "value"), rows)


def cmd_flandrin(args) -> int:
    a = float(args.a)
    cfg = _config(
        args,
        "flandrin",
        N=args.N,
        params={"a": "inf" if math.isinf(a) else a, "points": args.points, "nodes": args.nodes},
    )
    rep = flandrin_search(a, _ctx(cfg), args.N, args.points, args.nodes)
    contract = {
        "name": "quadrature agreement <= 1e-9 and h-independence <= 1e-8 "
        "(the eigenvalue excess is reported, not asserted)",
        "passed": bool(
            rep.panel_agreement <= 1e-9
            and rep.h_invariance_dev <= 1e-8
            and rep.bridge_vs_table <= 1e-8
        ),
        "panel_agreement": rep.panel_agreement,
        "h_invariance_dev": rep.h_invariance_dev,
        "bridge_vs_table": rep.bridge_vs_table,
    }
    results = rep.as_dict()
    rows = [(n, v) for n, v in rep.convergence]
    quad = {"spec": rep.quad, "domain_radius": rep.domain_radius}
    return _emit(cfg, quad, contract, results, ("N", "top_eigenvalue"), rows)


def cmd_stochext(args) -> int:
    cfg = _config(
        args,
        "stochext",
        N=args.nmax,
        params={
            "direction": args.direction,
            "p": args.p,
            "s": args.s,
            "samples": args.samples,
            "nmax": args.nmax,
        },
    )
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
    rows = []
    worst = 0.0
    ok = True
    estimates = mc_conv_rate(a, ns, args.p, args.s, args.samples, cfg.seed)
    for n, (est, se) in zip(ns, estimates):
        exact = exact_conv_rate(a, n, args.p, args.s)
        rows.append((n, exact, est, se))
        if se > 0:
            z = abs(est - exact) / se
            worst = max(worst, z)
            ok = ok and z <= 3.0
        else:
            ok = ok and est == exact
    contract = {
        "name": "MC estimate brackets the closed-form rate within 3 standard errors",
        "passed": bool(ok),
        "worst_z_score": worst,
        "tolerance_sigmas": 3.0,
    }
    results = {
        "direction": a.name,
        "rows": [
            {"n": n, "exact": e, "mc_estimate": m, "std_error": s} for n, e, m, s in rows
        ],
    }
    quad = {"samples": args.samples, "explicit_tail_coords": EXPLICIT_TAIL_COORDS}
    return _emit(cfg, quad, contract, results, ("n", "exact", "mc_estimate", "std_error"), rows)


def cmd_heatcheck(args) -> int:
    sym = parse_symbol(args.symbol)
    if args.lam:
        lam = tuple(int(t) for t in args.lam.split(","))
    else:
        lam = tuple(range(1, min(sym.d, 3) + 1))
    cfg = _config(args, "heatcheck", symbol=args.symbol, d=sym.d, params={"lam": list(lam), "points": args.points})
    ctx = _ctx(cfg)
    rng = coordinate_stream(cfg.seed, 97)
    x = rng.normal(0.0, math.sqrt(3.0 * cfg.h), size=(args.points, sym.d))
    xi = rng.normal(0.0, math.sqrt(3.0 * cfg.h), size=(args.points, sym.d))
    residual = decomposition_residual(sym, lam, ctx, (x, xi))
    psi0 = HermiteExpansion.single((), 1.0)
    weyl = quadratic_form(sym, psi0, psi0, ctx)
    aw = antiwick_form(sym, psi0, psi0, ctx)
    contract = {
        "name": "telescoping heat decomposition residual <= 1e-10",
        "passed": bool(residual <= 1e-10),
        "residual": residual,
        "tolerance": 1e-10,
    }
    results = {
        "residual": residual,
        "lambda": list(lam),
        "grid_points": args.points,
        "weyl_ground_state": weyl,
        "antiwick_ground_state": aw,
    }
    rows = [
        ("residual", residual),
        ("weyl_ground_re", float(np.real(weyl))),
        ("antiwick_ground_re", float(np.real(aw))),
    ]
    quad = _section_quad_block({"route": section_route(sym), "grid_points": args.points})
    return _emit(cfg, quad, contract, results, ("quantity", "value"), rows)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 is reserved for
    contract violations)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p, default_format: str, with_symbol: bool = False, with_n: bool = False,
                with_seed: bool = False):
    if with_symbol:
        p.add_argument("--symbol", required=True, help="symbol text, e.g. gaussian:nu=2.0,anorm=1.0")
    if with_n:
        p.add_argument("--N", type=int, default=4, help="truncation degree")
        p.add_argument("--d", type=int, default=None, help="pair count (defaults to the symbol's)")
    p.add_argument("--h", type=float, default=1.0, help="semiclassical parameter")
    if with_seed:
        p.add_argument("--seed", type=int, default=0, help="RNG stream (default 0)")
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
    p.add_argument("--a", required=True, help="box size (positive float or inf)")
    p.add_argument("--N", type=int, default=32, help="Hermite section degree")
    p.add_argument("--points", type=int, default=None,
                   help="quadrature points: of the radial rule at a=inf, per axis of the 2-D panels otherwise")
    p.add_argument("--nodes", type=int, default=16, help="GL nodes per panel")
    _add_common(p, "json")
    p.set_defaults(func=cmd_flandrin)

    p = sub.add_parser("stochext",
                       help="L^p convergence rate of truncated linear functionals")
    p.add_argument("--direction", choices=("geometric", "power"), default="geometric")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--nmax", type=int, default=32)
    _add_common(p, "csv", with_seed=True)
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
