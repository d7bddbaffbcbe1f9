"""Markov approximation and the normalization pipeline.

A strictly piecewise monotone map is approximated within 1/n by a
Markov map: collect the lap-endpoint orbits up to a shadowing depth,
fill with a grid finer than delta, and snap every image value down to
the nearest point of the set.  Running the factor construction along a
schedule of such approximants and stopping when successive factor maps
agree on a common grid is the computable stand-in for the compactness
argument that extracts the limiting semiconjugacy.
"""

from __future__ import annotations

import bisect
import functools
from fractions import Fraction
from itertools import pairwise
from typing import NamedTuple, Optional, Sequence, Tuple

from .entropy import entropy_lapcount, entropy_spectral
from .errors import (
    BudgetExceeded,
    NonConvergence,
    PreconditionError,
    VerificationError,
)
from .markov import (
    FIRST_CLOSURE_POINTS,
    markov_closure,
    structure_from_points,
)
from .numeric import format_decimal
from .pwmap import (
    LEFT,
    RIGHT,
    Node,
    PwaMap,
    lap_ends,
    locate_leq,
    merge_sorted,
    orbit_one_sided,
)
from .semiconjugacy import ConstantSlopeMap, PsiTable, build_constant_slope, build_psi

DEFAULT_SCHEDULE = (2, 4, 8, 16, 32)
DEFAULT_SHADOW_DEPTH = 8
DEFAULT_GRID = 4096
MAX_APPROX_POINTS = 500_000
PIPELINE_TABLE_POINTS = 4097   # table size of every psi the pipeline builds


class ApproxConfig(NamedTuple):
    n: int
    points: tuple
    distance: Fraction           # exact sup distance to the source map


def markov_approx(f: PwaMap, n: int,
                  shadow_depth: Optional[int] = None) -> Tuple[PwaMap, ApproxConfig]:
    """Markov map within 1/n of f, affine between the points of P.

    P contains the orbits of the lap ends of f^shadow_depth to that
    depth (so iterate endpoints shadow exactly to it) plus a uniform
    grid finer than delta = min(1/(2 n L), 1/(4n)), L the top slope.
    Image values snap down to P; at jump points the snap applies to
    each one-sided limit separately.

    The distance is read off the same pass: at a point of P it is
    f(p±) - snap(f(p±)), and f and g are read again only at the nodes
    of f outside P, where g is affine.  With P that is sup_dist(f, g).
    """
    if n < 1:
        raise PreconditionError("approximation index must be >= 1")
    if f.has_plateau:
        raise PreconditionError(
            "map has a constant lap; reduce to a strictly monotone "
            "factor first"
        )
    if shadow_depth is None:
        shadow_depth = min(n, DEFAULT_SHADOW_DEPTH)
    shadow_depth = min(shadow_depth, n)
    a, b = f.domain
    top_slope = max(abs(seg.slope) for seg in f.segments)
    delta = min(
        Fraction(1, 2 * n) / top_slope if top_slope > 1 else Fraction(1, 2 * n),
        Fraction(1, 4 * n),
    )
    width = b - a
    grid_n = 1
    while grid_n * delta <= width:  # power-of-two grid: dyadic-friendly
        grid_n *= 2
    # P is the grid and the shadow points off it, counted before the
    # grid is built: p is on it iff (p - a) grid_n / (b - a) is an integer
    shadow = _shadow_points(f, shadow_depth) if shadow_depth >= 1 else ()
    per_width = grid_n / width
    off_grid = [p for p in shadow if ((p - a) * per_width).denominator != 1]
    count = grid_n + 1 + len(off_grid)
    if count > MAX_APPROX_POINTS:
        raise PreconditionError(f"approximation needs {count} points (> {MAX_APPROX_POINTS})")
    P = sorted(_equispaced(a, b, grid_n) + off_grid)  # the grid is one sorted run
    Pf = [float(p) for p in P]

    def snap(y: Optional[Fraction]) -> Optional[Fraction]:
        return None if y is None else P[locate_leq(P, Pf, y)]

    nodes = []
    dist = Fraction(0)
    for p, (yl, yr) in zip(P, f.sides(P)):
        zl = snap(yl)
        # between the nodes of f both sides are one value
        zr = zl if yr is yl else snap(yr)
        nodes.append(Node(p, zl, zr))
        for y, z in ((yl, zl), (yr, zr)):
            if y is not None and y - z > dist:  # snap(y) <= y
                dist = y - z
    g = PwaMap(nodes)
    off_p = [node.x for node in f.nodes if P[locate_leq(P, Pf, node.x)] != node.x]
    for fx, gx in zip(f.sides(off_p), g.sides(off_p)):
        for u, w in zip(fx, gx):
            if u is not None:
                dist = max(dist, abs(u - w))
    if dist * n >= 1:
        raise VerificationError(
            f"approximation construction missed its bound: dist={dist}"
        )
    return g, ApproxConfig(n, tuple(P), dist)


@functools.lru_cache(maxsize=4)
def _shadow_points(f: PwaMap, depth: int) -> frozenset:
    """Every point of the lap-end orbits of f^depth to that depth.

    Cached: a schedule asks for the same depth at every step from
    n = DEFAULT_SHADOW_DEPTH on, and the orbits depend on f alone.
    """
    pts = set()
    for _, left, right in lap_ends(f, depth):
        pts.update(p for p, _ in left)
        pts.update(p for p, _ in right)
    return frozenset(pts)


class ShadowReport(NamedTuple):
    ok: bool
    depth: int
    witness: Optional[object] = None

    def __bool__(self):
        return self.ok


def _monotone_continuous_between(g: PwaMap, lo: Fraction, hi: Fraction):
    """True when g is monotone and continuous on [lo, hi]."""
    if lo == hi:
        return True
    i0 = g.segment_index(lo, RIGHT)
    i1 = g.segment_index(hi, LEFT)
    sign = None
    for i in range(i0, i1 + 1):
        s = g.segments[i].slope
        d = (s > 0) - (s < 0)
        if d != 0:
            if sign is None:
                sign = d
            elif d != sign:
                return False
        if i > i0:
            node = g.nodes[i]
            if node.y_left != node.y_right:
                return False
    return True


def check_monotone_shadowing(f: PwaMap, g: PwaMap, k: int) -> ShadowReport:
    """Endpoint orbits of the laps of f^k shadow exactly under g, and g
    stays monotone and continuous on every visited hull, which makes
    g^k monotone and continuous on each lap of f^k.
    """
    for (lo, _, lo_orbit), (hi, hi_orbit, _) in pairwise(lap_ends(f, k)):
        g_lo = orbit_one_sided(g, lo, RIGHT, k)
        g_hi = orbit_one_sided(g, hi, LEFT, k)
        if [p for p, _ in lo_orbit] != [p for p, _ in g_lo]:
            return ShadowReport(False, k, ("orbit mismatch", lo))
        if [p for p, _ in hi_orbit] != [p for p, _ in g_hi]:
            return ShadowReport(False, k, ("orbit mismatch", hi))
        for i in range(k):
            u = lo_orbit[i][0]
            w = hi_orbit[i][0]
            if u > w:
                u, w = w, u
            if not _monotone_continuous_between(g, u, w):
                return ShadowReport(False, k, ("fold or jump in hull", (i, u, w)))
    return ShadowReport(True, k)


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------

class ResidualReport(NamedTuple):
    residual: float
    grid_points: int
    slope_histogram: tuple       # ((|slope|, count), ...) sorted


def _equispaced(a: Fraction, b: Fraction, n: int) -> list:
    """The n + 1 points a + (b - a) k / n, each built as one Fraction
    from integer numerators over a common denominator."""
    width = b - a
    den = a.denominator * width.denominator * n
    start = a.numerator * width.denominator * n
    step = width.numerator * a.denominator
    return [Fraction(start + k * step, den) for k in range(n + 1)]


def _grid(f: PwaMap, grid_points: int) -> list:
    """grid_points + 1 equispaced points of the domain and every
    breakpoint of f, sorted."""
    if grid_points < 1:
        raise PreconditionError("the grid needs at least 1 interval")
    a, b = f.domain
    return merge_sorted(_equispaced(a, b, grid_points), [node.x for node in f.nodes])


def _snap_to_table(xs, txs) -> list:
    """The table points that bracket the sorted points xs, sorted and
    without repeats: for each x the first table point >= x (the last
    one past the table's end) and the table point before it.

    One forward merge; j is locate_leq's index, the last table point
    <= x, so a table with repeated points snaps as a lookup would.
    """
    out = []
    last = len(txs) - 1
    j = -1
    taken = -1  # the last table index snapped to; it only grows
    for x in xs:
        while j < last and txs[j + 1] <= x:
            j += 1
        i = min(j if j >= 0 and txs[j] == x else j + 1, last)
        for k in (i - 1, i):
            if k > taken:
                taken = k
                if not out or out[-1] != txs[k]:
                    out.append(txs[k])
    return out


def verify_semiconjugacy(f: PwaMap, g: PwaMap, psi: PsiTable,
                         grid_points: int = DEFAULT_GRID) -> ResidualReport:
    """sup over the grid of |psi(f(x)) - g(psi(x))|, one-sided at jumps.

    The grid is equispaced plus every breakpoint of f, built sorted (see
    _grid); a detached table (no structure) snaps it to the table
    support, so it is evaluated only where it is exact.  f's one-sided
    values along the sorted grid come from one PwaMap.sides pass.  f
    often maps grid points onto grid points, so each psi value is kept
    for the call and every distinct point is evaluated once; psi.eval
    is deterministic, so this changes no value.
    """
    xs = _grid(f, grid_points)
    if psi.structure is None:
        xs = _snap_to_table(xs, psi.xs)
    continuous = f.is_continuous
    known = {}

    def psi_at(x) -> float:
        z = known.get(x)
        if z is None:
            z = known[x] = float(psi.eval(x, fast=True))
        return z

    worst = 0.0
    for x, (yl, yr) in zip(xs, f.sides(xs)):
        zx = psi_at(x)
        # on a continuous f the right value stands for both sides, except at b
        if continuous and yr is not None:
            yl = None
        for side, y in ((LEFT, yl), (RIGHT, yr)):
            if y is None:
                continue
            lhs = psi_at(y)
            rhs = g.eval_float(zx, side)
            r = abs(lhs - rhs)
            if r > worst:
                worst = r
    hist = {}
    for seg in g.segments:
        key = round(abs(float(seg.slope)), 9)
        hist[key] = hist.get(key, 0) + 1
    return ResidualReport(worst, len(xs), tuple(sorted(hist.items())))


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _is_conjugacy(f: PwaMap, psi: PsiTable, converged: bool) -> bool:
    """psi is injective, as far as its table and the nodes of f show.

    The table must be strictly increasing with no collapse interval.  A
    node of f that is not a table point can still end a collapsed cell
    that runs up to the next table point, so its exact psi value must
    stay more than twice the certified error away from both
    neighbouring table values.
    """
    ys = psi.ys
    if not converged or psi.collapse_intervals:
        return False
    if any(ys[i + 1] <= ys[i] for i in range(len(ys) - 1)):
        return False
    xs = psi.xs
    res = 2 * psi.error_bound
    for node in f.nodes:
        i = bisect.bisect_left(xs, node.x)
        if xs[i] == node.x:
            continue
        y = psi.eval(node.x)
        if float(y - ys[i - 1]) <= res or float(ys[i] - y) <= res:
            return False
    return True


class PipelineTrace(NamedTuple):
    indices: tuple
    betas: tuple
    gap_rows: tuple              # per schedule row; None when no comparison
    final_psi: PsiTable
    final_g: ConstantSlopeMap
    gamma: float
    residual: ResidualReport
    entropy_trend: float
    converged: bool
    markov_exact: bool
    conjugacy: bool              # psi is injective: see _is_conjugacy

    @property
    def cauchy_gaps(self) -> tuple:
        return tuple(g for g in self.gap_rows if g is not None)

    def to_tsv(self) -> str:
        lines = ["i\tbeta_i\tcauchy_gap\tresidual"]
        for k, i in enumerate(self.indices):
            gap = "" if self.gap_rows[k] is None else format_decimal(self.gap_rows[k])
            res = ""
            if k == len(self.indices) - 1:
                res = format_decimal(self.residual.residual)
            lines.append(f"{i}\t{format_decimal(self.betas[k])}\t{gap}\t{res}")
        return "\n".join(lines) + "\n"


def _finish(f: PwaMap, psi: PsiTable, grid_points: int, *, indices, betas,
            gap_rows, entropy_trend: float, converged: bool,
            markov_exact: bool) -> PipelineTrace:
    """The tail of both routes: g from psi and its structure, its
    residual on f, and the trace."""
    s = psi.structure
    g = build_constant_slope(s, psi)
    res = verify_semiconjugacy(f, g.map, psi, grid_points=grid_points)
    return PipelineTrace(
        indices=tuple(indices),
        betas=tuple(betas),
        gap_rows=tuple(gap_rows),
        final_psi=psi,
        final_g=g,
        gamma=float(s.beta),
        residual=res,
        entropy_trend=entropy_trend,
        converged=converged,
        markov_exact=markov_exact,
        conjugacy=_is_conjugacy(f, psi, converged),
    )


def normalize(f: PwaMap, target: float = 1e-4,
              schedule: Optional[Sequence[int]] = None,
              grid_points: int = DEFAULT_GRID,
              markov_budget: int = FIRST_CLOSURE_POINTS,
              entropy_depth: int = 14,
              markov_seeds: Sequence[Fraction] = ()) -> PipelineTrace:
    """Semiconjugate f to a constant-slope map.

    Markov maps are handled exactly in one step, and their entropy is
    positive when beta > 1.  Otherwise the lap counts of f must still
    grow at entropy_depth, and the approximation schedule runs until two
    successive factor maps differ by less than `target` on the grid of
    verify_semiconjugacy; a schedule that ends above `target` returns a
    trace flagged non-converged.  A step whose approximant has beta <= 1
    keeps its row and beta_i but gets no factor map and no gap, so the
    next gap compares the steps on either side of it.
    """
    try:
        s = markov_closure(f, max_points=markov_budget,
                           extra_seeds=markov_seeds)
    except (BudgetExceeded, NonConvergence):
        s = None
    if s is not None:
        if float(s.beta) <= 1:
            raise PreconditionError("entropy estimate not positive")
        psi = build_psi(s, min(target, 1e-6) / 8,
                        max_table_points=PIPELINE_TABLE_POINTS)
        return _finish(f, psi, grid_points, indices=(0,),
                       betas=(float(s.beta),), gap_rows=(None,),
                       entropy_trend=entropy_spectral(s), converged=True,
                       markov_exact=True)
    ent = entropy_lapcount(f, depth=entropy_depth)
    if not ent.positive:
        raise PreconditionError("entropy estimate not positive")
    if schedule is None:
        schedule = DEFAULT_SCHEDULE
    grid = _grid(f, grid_points)
    indices, betas, gap_rows = [], [], []
    prev_vals = None
    last = None
    converged = False
    for n in schedule:
        g_n, cfg = markov_approx(f, n)
        # g_n is within 1/n of f, so float64 Perron data is accurate
        # far beyond what the approximation itself carries
        s_n = structure_from_points(g_n, cfg.points, numeric="float")
        indices.append(n)
        betas.append(float(s_n.beta))
        if float(s_n.beta) <= 1:
            gap_rows.append(None)
            continue
        psi_n = build_psi(s_n, min(target, 1e-4) / 8,
                          max_table_points=PIPELINE_TABLE_POINTS)
        vals = [float(psi_n.eval(x, fast=True)) for x in grid]
        last = psi_n
        if prev_vals is not None:
            gap = max(abs(u - w) for u, w in zip(vals, prev_vals))
            gap_rows.append(gap)
            if gap < target:
                converged = True
                prev_vals = vals
                break
        else:
            gap_rows.append(None)
        prev_vals = vals
    if last is None:
        raise NonConvergence("no schedule step produced beta > 1")
    return _finish(f, last, grid_points, indices=indices, betas=betas,
                   gap_rows=gap_rows, entropy_trend=ent.trend,
                   converged=converged, markov_exact=False)
