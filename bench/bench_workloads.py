"""The benchmark's workloads: seeded inputs, CLI command sequences, checks.

A workload is built by `make(name, workdir, seed)`: it writes the input
files (bundled fixtures and maps drawn from `random.Random(seed)`) and
returns the round's operations.  An operation is one slopeforge CLI
command together with the check of everything it printed and wrote.
Commands of a round run in list order; later commands read files that
earlier ones wrote.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import bench_checks as bc
from bench_checks import require

WORKLOADS = ("markov-exact", "approx-schedule")

# normalize of a non-Markov map: a doubling schedule and the Cauchy target
APPROX_TOL = "1e-3"
APPROX_SCHEDULE = "2,4,8,16,32,64,128,256,512"
# verify tolerances: Markov maps are exact up to psi's certificate;
# approximants carry the 1/n approximation error into the residual
EXACT_VERIFY_TOL = 1e-6
APPROX_VERIFY_TOL = 1e-2


@dataclass
class Op:
    """One CLI command; `check(stdout, exit_code)` raises CheckFailure."""

    name: str
    argv: list
    check: Callable
    # the CheckFailure subclass a known program fault raises; any other
    # failure of the operation is a real one
    known_fault: type = None


@dataclass(frozen=True)
class Expect:
    """Closed-form facts about the constant-slope model of one input."""

    beta: float
    conjugacy: bool
    psi_known: tuple = ()        # (x, psi(x)) at table points
    psi_scale: object = None     # psi(x) = x / psi_scale at every row
    markov: bool = True          # f maps table points to table points


def _read(path) -> str:
    return Path(path).read_text()


def _pwa(path) -> bc.Pwa:
    return bc.parse_pwa(_read(path))


def _summary(stdout: str, code: int, want_code: int = 0) -> dict:
    s = bc.parse_summary(stdout)
    require(code == want_code, f"exit code {code}, expected {want_code}: {s.get('error')}")
    return s


# -- inputs ------------------------------------------------------------------

def _pairs(pairs):
    from slopeforge.pwmap import PwaMap
    return PwaMap.from_pairs([(F(x), F(y)) for x, y in pairs])


def _write_maps(workdir: Path, maps: dict) -> None:
    from slopeforge.pwmap import serialize_pwa
    for name, m in maps.items():
        (workdir / f"{name}.pwa").write_text(serialize_pwa(m))


def seeded_skew_peak(rng: random.Random) -> F:
    """Peak p/q of a full-height skew tent, q prime in [13, 23], p/q in [1/4, 3/4]."""
    q = rng.choice((13, 17, 19, 23))
    return F(rng.randint(math.ceil(q / 4), q * 3 // 4), q)


def seeded_tent_slope(rng: random.Random) -> F:
    """A rational tent slope s = p/q in [1.3, 1.9], q prime in [23, 41]."""
    q = rng.choice((23, 29, 31, 37, 41))
    return F(rng.randint(math.ceil(1.3 * q), math.floor(1.9 * q)), q)


def seeded_zigzag(rng: random.Random) -> tuple:
    """Turning points a < b of a full 3-lap zigzag, denominators 29."""
    return F(rng.randint(7, 12), 29), F(rng.randint(17, 22), 29)


# expected flattenings, derived by hand from the graph documents
# (edges laid side by side on [0, E], each chart affine onto its path)
FLATTENED = {
    "circle_doubling": ("CIRCLE_DOUBLING", bc.Pwa(
        (F(0), F(1, 2), F(1)), (None, F(1), F(1)), (F(0), F(0), None))),
    "two_edge_wrap": ("TWO_EDGE_WRAP", bc.Pwa(
        (F(0), F(1, 2), F(1), F(3, 2), F(2)),
        (None, F(1), F(2), F(1), F(2)), (F(0), F(1), F(0), F(1), None))),
    "collapsing_circle": ("COLLAPSING_CIRCLE", bc.Pwa(
        (F(0), F(1, 3), F(2, 3), F(1), F(2)),
        (None, F(1), F(2), F(1), F(2)), (F(0), F(1), F(0), F(1), None))),
    "interval_tent": ("INTERVAL_TENT", bc.pwa_from_pairs([(0, 0), (F(1, 2), 1), (1, 0)])),
}


# -- checks per command ----------------------------------------------------------

def check_markov_normal_form(f_path, g_path, psi_path, summary: dict, want: Expect) -> None:
    """Closed forms and the semiconjugacy first, the conjugacy flag last."""
    beta = float(summary["beta"])
    bc.check_close("beta", beta, want.beta, 1e-12)
    f, g = _pwa(f_path), _pwa(g_path)
    rows = bc.parse_psi(_read(psi_path))
    bc.check_psi_monotone(rows, f.domain)
    bc.check_slopes(g, want.beta, 1e-9)
    bc.check_psi_values(rows, dict(want.psi_known))
    if want.psi_scale is not None:
        bc.check_psi_affine(rows, want.psi_scale)
    if want.markov:
        bc.check_table_semiconjugacy(f, g, rows)
    if summary["conjugacy"] != ("true" if want.conjugacy else "false"):
        raise bc.ConjugacyMismatch(
            f"conjugacy={summary['conjugacy']}, expected {str(want.conjugacy).lower()}")


def normalize_exact_ops(workdir: Path, name: str, want: Expect, known_fault: type = None) -> list:
    f, g, psi = (str(workdir / p) for p in (f"{name}.pwa", f"g_{name}.pwa", f"psi_{name}.tsv"))

    def check_normalize(out, code):
        s = _summary(out, code)
        require(s["markov_exact"] == "true" and s["converged"] == "true",
                "Markov input not handled exactly")
        check_markov_normal_form(f, g, psi, s, want)

    def check_verify(out, code):
        s = _summary(out, code)
        require(float(s["residual"]) <= EXACT_VERIFY_TOL, f"residual {s['residual']}")
        require(int(s["grid"]) > 0, "empty verification grid")

    return [
        Op(f"normalize {name}", ["normalize", f, "--out", g, "--psi", psi],
           check_normalize, known_fault),
        Op(f"verify {name}", ["verify", f, g, psi, "--tol", str(EXACT_VERIFY_TOL)], check_verify),
    ]


def phi_op(workdir: Path, name: str, want: Expect, same_as_input: bool = False) -> Op:
    f, outdir = workdir / f"{name}.pwa", workdir / f"phi_{name}"

    def check(out, code):
        s = _summary(out, code)
        check_markov_normal_form(f, outdir / "g.pwa", outdir / "psi.tsv", s, want)
        evidence = bc.parse_summary(_read(outdir / "evidence.txt"))
        require(all(evidence[k] == s[k] for k in ("conjugacy", "beta", "residual")),
                "evidence.txt disagrees with the summary")
        if same_as_input:  # a constant-slope input is its own normal form
            fm, gm = _pwa(f), _pwa(outdir / "g.pwa")
            require(len(fm.xs) == len(gm.xs), "g differs from the constant-slope input")
            for a, b in zip(fm.xs + fm.yl[1:] + fm.yr[:-1], gm.xs + gm.yl[1:] + gm.yr[:-1]):
                bc.check_close("g node", float(b), float(a), 1e-12)

    return Op(f"phi {name}", ["phi", str(f), "--out-dir", str(outdir)], check)


def flatten_op(workdir: Path, name: str, want: bc.Pwa) -> Op:
    doc, flat = workdir / f"{name}.txt", workdir / f"{name}.pwa"

    def check(out, code):
        s = _summary(out, code)
        got = _pwa(flat)
        require(got == want, f"flattened map differs from the expected one:\n{bc.pwa_text(got)}")
        require(s["domain"] == f"0..{want.xs[-1]}", f"domain={s['domain']}")
        require(int(s["laps"]) == bc.own_lap_count(want), f"laps={s['laps']}")

    return Op(f"flatten {name}", ["flatten", str(doc), "--out", str(flat)], check)


def normalize_approx_ops(workdir: Path, name: str, check_beta: Callable) -> list:
    f, g, psi, trace = (str(workdir / p) for p in
                        (f"{name}.pwa", f"g_{name}.pwa", f"psi_{name}.tsv", f"trace_{name}.tsv"))

    def check_normalize(out, code):
        s = _summary(out, code)
        require(s["converged"] == "true" and s["markov_exact"] == "false",
                f"converged={s['converged']} markov_exact={s['markov_exact']}")
        gamma = float(s["beta"])
        check_beta(gamma)
        bc.check_slopes(_pwa(g), gamma, 1e-6)
        bc.check_psi_monotone(bc.parse_psi(_read(psi)), _pwa(f).domain)
        rows = [ln.split("\t") for ln in _read(trace).splitlines()[1:]]
        require(float(rows[-1][2]) < float(APPROX_TOL), "last Cauchy gap above the target")
        bc.check_close("last beta_i", float(rows[-1][1]), gamma, 0.0)

    def check_verify(out, code):
        s = _summary(out, code)
        require(float(s["residual"]) <= APPROX_VERIFY_TOL, f"residual {s['residual']}")

    return [
        Op(f"normalize {name}", ["normalize", f, "--tol", APPROX_TOL, "--schedule",
                                 APPROX_SCHEDULE, "--out", g, "--psi", psi, "--trace", trace],
           check_normalize),
        Op(f"verify {name}", ["verify", f, g, psi, "--tol", str(APPROX_VERIFY_TOL)], check_verify),
    ]


def tent_beta(s: F) -> Callable:
    def check(gamma):
        bc.check_close("gamma", gamma, float(s), 1e-3)
    return check


def approx_op(workdir: Path, name: str, index: int) -> Op:
    f, out_path = workdir / f"{name}.pwa", workdir / f"approx_{name}.pwa"

    def check(out, code):
        s = _summary(out, code)
        dist = bc.sup_distance(_pwa(f), _pwa(out_path))
        require(F(s["distance"]) == dist, f"distance={s['distance']}, own {dist}")
        require(dist <= F(1, index), f"distance {dist} above 1/{index}")
        require(int(s["index"]) == index and int(s["points"]) >= 2, "bad index or point count")

    return Op(f"approx {name}", ["approx", str(f), "--index", str(index), "--out", str(out_path)],
              check)


def entropy_op(workdir: Path, name: str, depth: int, check_counts: Callable) -> Op:
    f, out_tsv = workdir / f"{name}.pwa", workdir / f"entropy_{name}.tsv"

    def check(out, code):
        s = _summary(out, code)
        counts, footer = bc.parse_entropy(_read(out_tsv))
        require(len(counts) == depth, f"{len(counts)} lap counts for depth {depth}")
        bc.check_close("h_est", float(s["h_est"]), math.log(counts[-1] / counts[-2]), 1e-12)
        check_counts(counts, footer, s)

    return Op(f"entropy {name}", ["entropy", str(f), "--depth", str(depth), "--out", str(out_tsv)],
              check)


def reduce_op(workdir: Path, name: str, depth: int, check_collapse: Callable) -> Op:
    f = workdir / f"{name}.pwa"
    fhat, psi0, col = (workdir / p for p in
                       (f"fhat_{name}.pwa", f"psi0_{name}.pwa", f"collapse_{name}.tsv"))

    def check(out, code):
        s = _summary(out, code)
        collapse = bc.parse_collapse(_read(col))
        require(int(s["collapse_count"]) == len(collapse), "collapse_count disagrees with the TSV")
        fm, hm = _pwa(f), _pwa(fhat)
        bc.check_factor_identity(fm, _pwa(psi0), hm)
        check_collapse(collapse, hm)

    return Op(f"reduce {name}", ["reduce", str(f), "--depth", str(depth), "--out", str(fhat),
                                 "--psi0", str(psi0), "--collapse", str(col)], check)


@functools.lru_cache(maxsize=4)
def _own_counts(text: str, depth: int) -> tuple:
    """The benchmark's own lap counts of a PWA document, computed once per run."""
    return tuple(bc.preimage_lap_counts(bc.parse_pwa(text), depth))


# -- the workloads -------------------------------------------------------------

def markov_exact(workdir: Path, rng: random.Random) -> list:
    from slopeforge import fixtures as fx

    peak = seeded_skew_peak(rng)
    _write_maps(workdir, {
        "golden": fx.golden(), "skew": fx.skew_tent(), "trapezoid": fx.trapezoid(),
        "skew_s": fx.skew_tent(peak), "core_tent32": fx.core_tent32(),
    })
    for name, (attr, _) in FLATTENED.items():
        (workdir / f"{name}.txt").write_text(getattr(fx, attr))
    golden_v = (3 - math.sqrt(5)) / 2
    exact = {
        "golden": Expect(bc.GOLDEN, True, ((F(1, 2), golden_v),)),
        "skew": Expect(2.0, True, ((F(5, 12), 0.5),)),
        "trapezoid": Expect(2.0, False, ((F(2, 5), 0.5), (F(3, 5), 0.5))),
        "skew_s": Expect(2.0, True, ((peak, 0.5),)),
    }
    ops = []
    for name, want in exact.items():
        ops += normalize_exact_ops(workdir, name, want)
    ops.append(phi_op(workdir, "skew", exact["skew"]))
    ops.append(phi_op(workdir, "core_tent32", Expect(1.5, True, psi_scale=1, markov=False),
                      same_as_input=True))
    flat_expect = {
        "circle_doubling": Expect(2.0, True, psi_scale=1),
        "two_edge_wrap": Expect(2.0, True, psi_scale=2),
        # edge e2 = [1, 2] is mapped identically and carries no Perron
        # mass, so psi collapses it and the flat map is not conjugate
        "collapsing_circle": Expect(2.0, False, ((F(2, 3), 0.5),)),
        "interval_tent": Expect(2.0, True, psi_scale=1),
    }
    # the doubling and tent maps reach normalize through the graph route:
    # their flattenings are checked to be exactly those maps
    for name, (_, flat) in FLATTENED.items():
        ops.append(flatten_op(workdir, name, flat))
        # known fault: normalize prints conjugacy=true on the flattened
        # collapsing circle; only that flag's mismatch is excused
        fault = bc.ConjugacyMismatch if name == "collapsing_circle" else None
        ops += normalize_exact_ops(workdir, name, flat_expect[name], known_fault=fault)
    return ops


def approx_schedule(workdir: Path, rng: random.Random) -> list:
    from slopeforge import fixtures as fx

    s = seeded_tent_slope(rng)
    _write_maps(workdir, {
        "tent32": fx.tent_slope(F(3, 2)), "bimodal": fx.bimodal_nonmarkov(),
        "tent75": fx.tent75(), "tent_s": fx.tent_slope(s),
        "low_trapezoid": fx.low_trapezoid(),
    })
    bimodal = workdir / "bimodal.pwa"

    def bimodal_beta(gamma):
        counts = _own_counts(_read(bimodal), 12)
        h = math.log(counts[-1] / counts[-2])
        bc.check_close("log gamma", math.log(gamma), h, 0.02)

    ops = []
    ops += normalize_approx_ops(workdir, "tent32", tent_beta(F(3, 2)))
    ops += normalize_approx_ops(workdir, "bimodal", bimodal_beta)
    ops.append(approx_op(workdir, "tent75", 128))
    ops.append(approx_op(workdir, "tent_s", 128))

    def low_counts(counts, footer, summary):
        bc.check_lap_counts(counts, [4 * n - 1 for n in range(1, len(counts) + 1)])
        require(float(summary["h_spectral"]) == 0.0, f"h_spectral={summary['h_spectral']}")

    ops.append(entropy_op(workdir, "low_trapezoid", 12, low_counts))
    return ops + lapcount_reduce(workdir, rng)


def lapcount_reduce(workdir: Path, rng: random.Random) -> list:
    """Exact composition, lap counting and the coding quotient at depth.

    Part of the approx-schedule round: alone, its round is short enough
    that the machine's slow drifts set its run-to-run spread.
    """
    from slopeforge import fixtures as fx

    a, b = seeded_zigzag(rng)
    _write_maps(workdir, {
        "zigzag": _pairs([(0, 0), (a, 1), (b, 0), (1, 1)]),
        "bimodal": fx.bimodal_nonmarkov(), "golden": fx.golden(),
        "core_tent32": fx.core_tent32(), "flat_trapezoid": fx.flat_trapezoid(),
        "trapezoid": fx.trapezoid(),
    })
    bimodal = workdir / "bimodal.pwa"

    def zigzag_counts(counts, footer, summary):
        bc.check_lap_counts(counts, [3 ** n for n in range(1, len(counts) + 1)])
        bc.check_close("h_spectral", float(summary["h_spectral"]), math.log(3), 1e-12)

    def bimodal_counts(counts, footer, summary):
        require(counts[0] == bc.own_lap_count(_pwa(bimodal)), f"c_1 = {counts[0]}")
        bc.check_submultiplicative(counts)
        bc.check_lap_counts(counts, _own_counts(_read(bimodal), len(counts)))

    def golden_counts(counts, footer, summary):
        bc.check_lap_counts(counts, [bc.fibonacci(n + 2) for n in range(1, len(counts) + 1)])
        bc.check_close("h_spectral", float(summary["h_spectral"]), math.log(bc.GOLDEN), 1e-12)

    def core_counts(counts, footer, summary):
        bc.check_trend(counts, footer, math.log(1.5), 0.01)

    def flat_collapse(collapse, fhat):
        require(collapse == [(F(2, 5), F(3, 5))], f"collapse intervals {collapse}")
        require(all(s != 0 for s in bc.FloatPwa(fhat).slopes()), "fhat has a zero-slope piece")

    trap_depth = 8

    def trap_collapse(collapse, fhat):
        require(len(collapse) == 2 ** trap_depth - 1,
                f"{len(collapse)} collapse intervals, expected {2 ** trap_depth - 1}")

    return [
        entropy_op(workdir, "zigzag", 10, zigzag_counts),
        entropy_op(workdir, "bimodal", 12, bimodal_counts),
        entropy_op(workdir, "golden", 20, golden_counts),
        entropy_op(workdir, "core_tent32", 20, core_counts),
        reduce_op(workdir, "flat_trapezoid", 16, flat_collapse),
        reduce_op(workdir, "trapezoid", trap_depth, trap_collapse),
    ]


BUILDERS = {
    "markov-exact": markov_exact,
    "approx-schedule": approx_schedule,
}


def make(name: str, workdir: Path, seed: int) -> list:
    """Write the inputs of workload `name` for `seed`; return its operations."""
    return BUILDERS[name](workdir, random.Random(seed))
