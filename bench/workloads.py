"""The benchmark's workloads: fixed command lists for the gaussweyl CLI.

Sizes and symbol parameters are fixed, so every seed gives the same load;
the seed only feeds `--seed` of the stochastic commands (`stochext`,
`heatcheck`) and picks the spot-check points of the Wigner tables.

Commands that fail at the seed commit stay in the lists on purpose.  Each
carries `known_defect`: the reason it fails and the form the failure takes.
It still counts as failed.  A failure of another form counts against
`correct` (see run.Result.unexpected).
"""

from __future__ import annotations

from dataclasses import dataclass

import refcheck as rc


@dataclass(frozen=True)
class Defect:
    """A known defect.  `exits`: the command exits nonzero, and any output it
    writes still agrees with the reference.  Otherwise it exits 0 and writes
    output that disagrees with the reference."""

    reason: str
    exits: bool


LADDER = Defect("order ladder raises QuadratureConvergenceError (exit 2, no output): "
                "pair integrals go through the explicit Laguerre sum", exits=True)
LAGUERRE = Defect("explicit Laguerre sum loses its digits at this degree, yet the contract reports PASS",
                  exits=False)
UNDERFLOW = Defect("standard error underflows to 0 at n=1024, so the contract exits 2", exits=True)


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]   # CLI arguments, without --output
    output: str             # output file name, written in the pass directory
    checker: object         # refcheck checker for that output
    known_defect: Defect | None = None

    def argv(self, outdir) -> list[str]:
        return [*self.args, "--output", str(outdir / self.output)]

    @property
    def label(self) -> str:
        return " ".join(self.args)


# Gaussian-mixture form of each symbol used in sections: (c_k, (nu_k1..nu_kd)).
CONST = ((1.5, (0.0,)),)
GAUSS_05 = ((1.0, (0.5,)),)
GAUSS_2 = ((1.0, (2.0,)),)
RADIAL_EXP = ((1.0, (0.7, 0.7)),)
RADIAL_POLYEXP = ((1.0, (0.0, 0.0)), (-1.0, (1.0, 1.0)))
TENSOR = ((1.0, (0.0, 2.0, 2.0)),)


def sections(seed: int) -> list[Command]:
    s = str(seed)
    return [
        Command(("opmatrix", "--symbol", "const:c=1.5", "--N", "30"), "const30.csv",
                rc.SectionCheck("opmatrix", CONST, 1, 30), LADDER),
        Command(("opmatrix", "--symbol", "gaussian:nu=0.5,anorm=1.0", "--N", "16"), "gauss05_16.csv",
                rc.SectionCheck("opmatrix", GAUSS_05, 1, 16)),
        Command(("spectrum", "--symbol", "gaussian:nu=0.5,anorm=1.0", "--N", "24"), "gauss05_24.csv",
                rc.SectionCheck("spectrum", GAUSS_05, 1, 24), LADDER),
        Command(("spectrum", "--symbol", "gaussian:nu=2.0,anorm=1.0", "--N", "30"), "gauss2_30.csv",
                rc.SectionCheck("spectrum", GAUSS_2, 1, 30)),
        Command(("opmatrix", "--symbol", "gaussian:nu=2.0,anorm=1.0", "--N", "20"), "gauss2_20.csv",
                rc.SectionCheck("opmatrix", GAUSS_2, 1, 20)),
        Command(("radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "30"), "radial30.json",
                rc.RadialCheck(RADIAL_EXP, 2, 30), LADDER),
        Command(("radial", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--N", "24"), "radial24.json",
                rc.RadialCheck(RADIAL_EXP, 2, 24)),
        Command(("radial", "--symbol", "radial:phi=polyexp:1.0,-1.0,d=2", "--N", "12"), "polyexp12.json",
                rc.RadialCheck(RADIAL_POLYEXP, 2, 12)),
        Command(("spectrum", "--symbol", "tensorradial:(one,1);(exp:nu=2.0,2)", "--N", "12"), "tensor12.csv",
                rc.SectionCheck("spectrum", TENSOR, 3, 12)),
        Command(("garding", "--symbol", "gaussian:nu=2.0,anorm=1.0", "--N", "12"), "garding12.json",
                rc.GardingCheck(GAUSS_2, 1, 12)),
        Command(("nonpos", "--nu", "2.0", "--anorm", "1.0"), "nonpos.json",
                rc.NonposCheck(2.0, 1.0)),
        Command(("heatcheck", "--symbol", "radial:phi=exp:nu=0.7,d=2", "--seed", s), "heat_radial.json",
                rc.HeatCheck(RADIAL_EXP)),
    ]


def boxes(seed: int) -> list[Command]:
    return [
        Command(("flandrin", "--a", "inf", "--N", "64"), "flandrin_inf64.json",
                rc.FlandrinCheck("flandrin_inf_top", 64)),
        Command(("flandrin", "--a", "2.0", "--N", "32"), "flandrin_a2_32.json",
                rc.FlandrinCheck("flandrin_a2_top", 32)),
        Command(("spectrum", "--symbol", "box:a=1.0", "--N", "8"), "box8.csv",
                rc.BoxSpectrumCheck("box_a1_N8_h1_eigenvalues")),
    ]


def _wigner(j: int, k: int, grid: int, defect: Defect | None = None) -> Command:
    return Command(("wigner", "--j", str(j), "--k", str(k), "--grid", str(grid)), f"wigner_{j}_{k}.csv",
                   rc.WignerCheck(j, k, grid), defect)


def tables(seed: int) -> list[Command]:
    s = str(seed)
    return [
        _wigner(0, 0, 401),
        _wigner(3, 5, 121),
        _wigner(12, 7, 121),
        _wigner(30, 30, 121, LAGUERRE),
        _wigner(40, 40, 121, LAGUERRE),
        _wigner(64, 60, 121, LAGUERRE),
        Command(("wigner", "--symbol", "gaussian:nu=2.0,anorm=1.0", "--grid", "201"), "wigner_symbol.csv",
                rc.SymbolGridCheck(2.0, 201)),
        Command(("stochext", "--direction", "geometric", "--nmax", "1024", "--samples", "100000", "--seed", s),
                "stoch_geometric.csv", rc.StochextCheck("geometric", 1024), UNDERFLOW),
        Command(("stochext", "--direction", "power", "--nmax", "1024", "--samples", "100000", "--seed", s),
                "stoch_power.csv", rc.StochextCheck("power", 1024)),
        Command(("heatcheck", "--symbol", "gaussian:nu=2.0,anorm=1.0", "--seed", s), "heat_gauss.json",
                rc.HeatCheck(GAUSS_2)),
    ]


WORKLOADS = {"sections": sections, "boxes": boxes, "tables": tables}
