"""Command-line front end.

Commands: entropy, markov-check, normalize, approx, verify, reduce,
phi, flatten, plot.  Exit codes: 0 success (all verifications within
tolerance), 2 parse error, 3 precondition violation, 4 non-convergence
or exhausted budget, 5 verification failure; every nonzero exit prints
one `error=<class> message=...` line.  All numeric rendering is fixed
at numeric.SIG_DIGITS significant digits, so identical inputs produce
byte-identical artifacts.

Each command imports the modules it runs when it runs, so a process
pays the import of `flatten`'s graph code or `verify`'s residual check
and not the whole package.  Options whose default is a library constant
default to None here and are passed on only when given.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    BudgetExceeded,
    FormatError,
    NonConvergence,
    PreconditionError,
    SlopeforgeError,
    VerificationError,
)
from .numeric import format_decimal, format_rational, parse_rational
from .pwmap import PwaMap, laps, parse_pwa, serialize_pwa

# the `error=` class of each exception, most specific first
ERROR_CLASSES = (
    (FormatError, "parse"),
    (PreconditionError, "precondition"),
    ((BudgetExceeded, NonConvergence), "non-convergence"),
    (VerificationError, "verification"),
    (SlopeforgeError, "failure"),
)


class CommandResult:
    """What a command hands to main: its artifact paths, its summary
    lines, and an error for a command that finished its work but missed
    its target (main prints it after the summary and exits with its
    code)."""

    def __init__(self, artifacts: list | None = None, summary: dict | None = None,
                 error: SlopeforgeError | None = None):
        self.artifacts = [] if artifacts is None else artifacts
        self.summary = {} if summary is None else summary
        self.error = error


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")


def _load_map(path: str) -> PwaMap:
    return parse_pwa(_read(path))


def _write(path: str, text: str, result: CommandResult) -> None:
    Path(path).write_text(text)
    result.artifacts.append(path)


def _given(**options) -> dict:
    """The options given on the command line, as keyword arguments; one
    left out keeps its library default."""
    return {name: value for name, value in options.items() if value is not None}


def _csv(text: str, parse) -> list:
    """A comma-separated option value, each item through parse."""
    try:
        return [parse(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise FormatError(f"bad list {text!r}: {exc}")


# -- commands ----------------------------------------------------------------

def cmd_entropy(args) -> CommandResult:
    from .entropy import entropy

    f = _load_map(args.file)
    rep = entropy(f, **_given(depth=args.depth, markov_points=args.markov_points))
    res = CommandResult()
    res.summary["h_est"] = format_decimal(rep.h_est)
    if rep.spectral is not None:
        res.summary["h_spectral"] = format_decimal(rep.spectral)
        res.summary["agreed"] = "true" if rep.agreed else "false"
    res.summary["positive"] = "true" if rep.positive else "false"
    if rep.note:
        res.summary["note"] = rep.note
    if args.out:
        _write(args.out, rep.to_tsv(), res)
    return res


def cmd_markov_check(args) -> CommandResult:
    from .markov import MAX_CLOSURE_POINTS, is_markov, markov_closure

    if args.budget is not None and args.budget < 1:
        raise PreconditionError("--budget must be at least 1")
    f = _load_map(args.file)
    res = CommandResult()
    if args.points:
        pts = _csv(args.points, parse_rational)
        chk = is_markov(f, sorted(pts))
        res.summary["markov"] = "true" if chk.ok else "false"
        if not chk.ok:
            res.summary["reason"] = chk.reason
            res.summary["witness"] = ",".join(map(format_rational, chk.witness))
        return res
    budget = MAX_CLOSURE_POINTS if args.budget is None else args.budget
    try:
        s = markov_closure(f, max_points=budget)
    except BudgetExceeded:
        res.summary["markov"] = "false"
        res.summary["reason"] = f"closure exceeded {budget} points"
        return res
    res.summary["markov"] = "true"
    res.summary["points"] = ",".join(format_rational(p) for p in s.points)
    res.summary["beta"] = format_decimal(float(s.beta))
    return res


def cmd_normalize(args) -> CommandResult:
    from .approximation import normalize
    from .semiconjugacy import psi_to_tsv

    f = _load_map(args.file)
    schedule = None
    if args.schedule:
        schedule = _csv(args.schedule, int)
    trace = normalize(f, target=args.tol, schedule=schedule,
                      **_given(grid_points=args.grid))
    res = CommandResult()
    psi = trace.final_psi
    res.summary["beta"] = format_decimal(trace.gamma)
    res.summary["residual"] = format_decimal(trace.residual.residual)
    res.summary["conjugacy"] = "true" if trace.conjugacy else "false"
    res.summary["converged"] = "true" if trace.converged else "false"
    res.summary["markov_exact"] = "true" if trace.markov_exact else "false"
    res.summary["g_exact"] = "false"
    if args.out:
        _write(args.out, serialize_pwa(trace.final_g.map, number=format_decimal), res)
    if args.psi:
        _write(args.psi, psi_to_tsv(psi), res)
    if args.trace:
        _write(args.trace, trace.to_tsv(), res)
    if not trace.converged:
        res.error = NonConvergence("cauchy criterion not met by schedule end")
    return res


def cmd_approx(args) -> CommandResult:
    from .approximation import markov_approx

    if args.shadow_depth is not None and args.shadow_depth < 1:
        raise PreconditionError("--shadow-depth must be at least 1")
    f = _load_map(args.file)
    g, cfg = markov_approx(f, args.index, shadow_depth=args.shadow_depth)
    res = CommandResult()
    res.summary["index"] = str(cfg.n)
    res.summary["distance"] = format_rational(cfg.distance)
    res.summary["bound"] = format_rational(Fraction(1, cfg.n))
    res.summary["points"] = str(len(cfg.points))
    if args.out:
        _write(args.out, serialize_pwa(g), res)
    return res


def cmd_verify(args) -> CommandResult:
    from .approximation import verify_semiconjugacy
    from .semiconjugacy import psi_from_tsv

    f = _load_map(args.f)
    g = _load_map(args.g)
    psi = psi_from_tsv(_read(args.psi))
    rep = verify_semiconjugacy(f, g, psi, **_given(grid_points=args.grid))
    res = CommandResult()
    res.summary["residual"] = format_decimal(rep.residual)
    res.summary["grid"] = str(rep.grid_points)
    res.summary["tolerance"] = format_decimal(args.tol)
    if rep.residual > args.tol:
        res.error = VerificationError("residual above tolerance")
    return res


def cmd_reduce(args) -> CommandResult:
    from .coding import psm_reduce

    f = _load_map(args.file)
    q = psm_reduce(f, **_given(depth=args.depth))
    res = CommandResult()
    res.summary["collapse_count"] = str(len(q.collapse_intervals))
    res.summary["leak_count"] = str(q.leak_plateau_count)
    res.summary["depth"] = str(q.depth)
    if args.out:
        _write(args.out, serialize_pwa(q.fhat), res)
    if args.psi0:
        _write(args.psi0, serialize_pwa(q.psi0), res)
    if args.collapse:
        _write(args.collapse, q.to_tsv(), res)
    return res


def cmd_phi(args) -> CommandResult:
    from .normalform import normal_form
    from .semiconjugacy import psi_to_tsv

    f = _load_map(args.file)
    nf = normal_form(f, target=args.tol)
    res = CommandResult()
    res.summary["beta"] = format_decimal(nf.g.slope)
    res.summary["conjugacy"] = "true" if nf.conjugacy else "false"
    res.summary["evidence"] = nf.transitivity_evidence
    res.summary["residual"] = format_decimal(nf.residual.residual)
    res.summary["modality_in"] = str(nf.modality_in)
    res.summary["modality_out"] = str(nf.modality_out)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write(str(outdir / "g.pwa"), serialize_pwa(nf.g.map, number=format_decimal), res)
    _write(str(outdir / "psi.tsv"), psi_to_tsv(nf.psi), res)
    evidence = [
        f"conjugacy={res.summary['conjugacy']}",
        f"evidence={nf.transitivity_evidence}",
        f"beta={res.summary['beta']}",
        f"residual={res.summary['residual']}",
        f"modality_in={nf.modality_in}",
        f"modality_out={nf.modality_out}",
    ]
    _write(str(outdir / "evidence.txt"), "\n".join(evidence) + "\n", res)
    if not nf.trace.converged:
        res.error = NonConvergence("cauchy criterion not met by schedule end")
    return res


def cmd_flatten(args) -> CommandResult:
    from .graphmap import flatten, parse_graph

    gm = parse_graph(_read(args.file))
    flat, chart = flatten(gm)
    res = CommandResult()
    a, b = flat.domain
    res.summary["domain"] = f"{format_rational(a)}..{format_rational(b)}"
    res.summary["laps"] = str(len(laps(flat)))
    res.summary["edges"] = ",".join(chart.ordering)
    if args.out:
        _write(args.out, serialize_pwa(flat), res)
    return res


def cmd_plot(args) -> CommandResult:
    if args.samples < 1:
        raise PreconditionError("--samples must be at least 1")
    f = _load_map(args.file)
    a, b = f.domain
    width = b - a
    res = CommandResult()
    lines = []
    xs = [a + width * Fraction(k, args.samples) for k in range(args.samples + 1)]
    for x, (yl, yr) in zip(xs, f.sides(xs)):
        vals = [yl] if yl == yr else [v for v in (yl, yr) if v is not None]
        for v in vals:
            lines.append(f"{format_decimal(x)}\t{format_decimal(v)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text, res)
    else:
        res.summary["_stdout"] = text
    return res


# -- driver --------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error is a FormatError, so main reports it like any
    other parse error; the subcommand parsers are of this class too."""

    def error(self, message):
        raise FormatError(message)


def tolerance(text: str) -> float:
    """A --tol value: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="slopeforge",
        description="Constant-slope normal forms for piecewise monotone "
                    "interval and graph maps",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="lap-count and spectral entropy report")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--markov-points", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("markov-check", help="validate or search a Markov point set")
    sp.add_argument("file")
    sp.add_argument("--points", help="comma-separated rationals")
    sp.add_argument("--budget", type=int)
    sp.set_defaults(func=cmd_markov_check)

    sp = sub.add_parser("normalize", help="semiconjugate to constant slope")
    sp.add_argument("file")
    sp.add_argument("--tol", type=tolerance, default=1e-6)
    sp.add_argument("--schedule", help="comma-separated approximation indices")
    sp.add_argument("--grid", type=int)
    sp.add_argument("--out")
    sp.add_argument("--psi")
    sp.add_argument("--trace")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("approx", help="Markov approximation within 1/n")
    sp.add_argument("file")
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--shadow-depth", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("verify", help="check psi(f(x)) = g(psi(x)) from files")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("psi")
    sp.add_argument("--grid", type=int)
    sp.add_argument("--tol", type=tolerance, default=1e-6)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reduce", help="collapse equal-code intervals (PM to PSM)")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int)
    sp.add_argument("--out")
    sp.add_argument("--psi0")
    sp.add_argument("--collapse")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("phi", help="constant-slope normal form bundle")
    sp.add_argument("file")
    sp.add_argument("--tol", type=tolerance, default=1e-6)
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("flatten", help="flatten a graph map to an interval map")
    sp.add_argument("file")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_flatten)

    sp = sub.add_parser("plot", help="sampled x, f(x) TSV with one-sided jumps")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_plot)

    return p


def _report(exc: SlopeforgeError) -> int:
    """Print the one error line of a nonzero exit; return its exit code."""
    name = next(n for cls, n in ERROR_CLASSES if isinstance(exc, cls))
    print(f"error={name} message={str(exc)!r}")
    return exc.exit_code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
    except SlopeforgeError as exc:
        return _report(exc)
    stdout_payload = result.summary.pop("_stdout", None)
    for key, value in result.summary.items():
        print(f"{key}={value}")
    for path in result.artifacts:
        print(f"artifact={path}")
    if stdout_payload is not None:
        sys.stdout.write(stdout_payload)
    if result.error is not None:
        return _report(result.error)
    return 0


if __name__ == "__main__":
    sys.exit(main())
