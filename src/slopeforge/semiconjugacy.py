"""The increasing factor map psi and the constant-slope image map.

psi is defined on the n-th refinement points by cumulative sums of the
Perron eigenvector over refinement cells (weights v of the n-step image
cell, singleton-image cells omitted) and extends continuously to the
whole interval with modulus beta^-n.

Materializing a deep refinement is exponential in n, so a PsiTable
stores an exact table up to a budgeted depth and carries its structure
for on-demand evaluation: a point is evaluated by walking its orbit and
accumulating the eigenvector mass that its refinement cells leave on
each side, which certifies psi(x) to beta^-depth at O(depth) steps.
The exact evaluator walks the orbit in rationals.  The fast evaluator
walks it in float64 under a rigorous running bound on the orbit's
forward error and decides a cell lookup from the float value when the
bound separates it from the cell boundaries (a float filter in the
manner of Shewchuk's adaptive predicates).  Next to the bound it keeps
an exactness flag: the float orbit equals the exact one for as long as
x is a float64 and every step of a map whose data are float64 rounds
nothing, which TwoSum and Dekker's TwoProduct check.  While the flag
holds, a lookup the filter cannot separate, an exact hit on a partition
point among them, is decided by plain comparison; when neither decides,
the point is re-walked exactly.  Every decision is the exact walk's,
and the mass accumulates by the exact walk's float operations, so the
flag changes no value: each is the filter's or the exact re-walk's, and
the beta^-depth certificate holds as for the exact walk.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .errors import (
    BudgetExceeded,
    FormatError,
    PreconditionError,
    VerificationError,
)
from .markov import MarkovStructure, Refinement, refine, refinements
from .numeric import format_decimal, format_rational, parse_rational, rationalize
from .pwmap import PwaMap, locate_leq

COLLAPSE_TOL = 1e-12
# accepted relative deviation of g's piece slopes from beta, by the
# precision of the structure's Perron data
SLOPE_REL_TOL = {"float": 1e-6, "mp": 1e-9}
DEFAULT_TABLE_POINTS = 16385
MAX_CERT_DEPTH = 4096
NODE_DIGITS = 40
# float filter of the fast descent (u = 2^-53 is the unit roundoff):
# relative slack per step and per comparison, and an absolute floor that
# covers underflow; see PsiTable._descend_float
FILTER_EPS = 2.0 ** -48
FILTER_TINY = 2.0 ** -1000
# float64 facts behind the exactness flag: Veltkamp's splitter 2^27 + 1,
# and the least nonzero product whose Dekker error term cannot underflow
# (exponent sum >= emin + p - 1 = -970)
SPLITTER = 134217729.0
PRODUCT_MIN = 2.0 ** -968


def _is_float(q) -> bool:
    """q is exactly a float64 of magnitude below 2^53, clear of underflow."""
    d = q.denominator
    return d & (d - 1) == 0 and d.bit_length() <= 1023 and q.numerator.bit_length() <= 53


def _split_high(a: float) -> float:
    """High half of Veltkamp's split of a; a minus it is the low half."""
    c = SPLITTER * a
    return c - (c - a)


class PsiTable:
    """Sampled increasing factor map with a certified modulus.

    depth is the certification depth: evaluation (and interpolation
    between table entries finer than table_depth) is exact up to
    error_bound = beta^-depth.  xs/ys hold the exact values on the
    refinement points of table_depth; ys[0] = 0 and ys[-1] = 1 exactly.
    The constructor builds the float shadows and segment data the
    descents read; a table is not changed after it is built.
    """

    def __init__(self, depth: int, table_depth: int, xs: tuple, ys: tuple,
                 beta: object, error_bound: float, collapse_intervals: tuple,
                 structure: Optional[MarkovStructure] = None):
        self.depth = depth
        self.table_depth = table_depth
        self.xs = xs
        self.ys = ys
        self.beta = beta
        self.error_bound = error_bound
        self.collapse_intervals = collapse_intervals
        self.structure = structure
        self._tgap = max(
            (float(ys[i + 1] - ys[i]) for i in range(len(ys) - 1)), default=0.0)
        try:  # the float shadow of the table's points, for locate_leq
            self._txsf = [float(x) for x in xs]
        except OverflowError:
            raise FormatError("a psi table x lies beyond the float64 range") from None
        if structure is not None:
            s = structure
            V = s.prefix_sums()
            total = V[-1]
            self._pts = list(s.points)
            self._ptsf = [float(p) for p in s.points]
            self._V = [u / total for u in V]
            self._Vf = [float(u / total) for u in V]
            # raw affine data of the map for tight orbit stepping
            f = s.map
            self._seg_x = [seg.x0 for seg in f.segments]
            self._seg_xf = [float(seg.x0) for seg in f.segments]
            self._seg_y = [seg.y0 for seg in f.segments]
            self._seg_s = [seg.slope for seg in f.segments]
            self._seg_yf = [float(seg.y0) for seg in f.segments]
            self._seg_sf = [float(seg.slope) for seg in f.segments]
            self._seg_sh = [_split_high(sl) for sl in self._seg_sf]
            # the float orbit of x can be exact only on a map whose
            # partition points and affine data are float64 values
            exact_map = all(map(_is_float, s.points)) and all(
                _is_float(q) for seg in f.segments for q in (seg.x0, seg.y0, seg.slope))
            self._exact_map = exact_map
            self._exact_table = exact_map and all(map(_is_float, xs))
            # table values for the interpolated tail of the descent
            self._tys = list(ys)
            self._tys_f = [float(y) for y in ys]

    def eval(self, x, fast: bool = False) -> object:
        """psi(x) for any point of the domain.

        Structure-backed tables walk the orbit of x down to self.depth.
        The default walks the exact orbit and accumulates the mass in the
        structure's precision.  `fast` walks the orbit in float64 under
        a running forward error bound and accumulates in float64; a
        point whose segment, cell or table-cell lookup falls within the
        bound of a boundary is re-walked on the exact orbit.  Either way
        the result is within error_bound = beta^-depth of psi(x), up to
        the float64 rounding of the accumulated mass.  Detached tables
        (loaded from TSV) fall back to monotone interpolation between
        table entries.
        """
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if self.structure is not None:
            if fast:
                y = self._descend_float(x)
                if y is None:
                    y = self._descend(x, self._Vf, float(self.beta), 1.0)
                return y
            one = self._V[-1] / self._V[-1]
            return self._descend(x, self._V, self.beta, one)
        return self._table_interp(x, self.ys)

    def _table_interp(self, x: Fraction, ys):
        """ys at a table point, else interpolated in the cell of x.  The
        lookup index is the domain test, as in PwaMap._locate, and a hit
        is tested from the floats first, as in _start_cell."""
        txs, txsf = self.xs, self._txsf
        xf = float(x)
        i = locate_leq(txs, txsf, x)
        if i >= 0 and txsf[i] == xf and txs[i] == x:
            return ys[i]
        if not 0 <= i < len(txs) - 1:
            raise PreconditionError(f"x={x} outside the psi table domain")
        x0, x1 = txs[i], txs[i + 1]
        return ys[i] + (ys[i + 1] - ys[i]) * float((x - x0) / (x1 - x0))

    def _start_cell(self, x: Fraction, xf: float) -> tuple:
        """(i, on) for the start x of a descent, xf = float(x): psi(x) = V[i]
        if on (x is point i or beyond that end), else p_i < x < p_(i+1)."""
        pts, ptsf = self._pts, self._ptsf
        i = locate_leq(pts, ptsf, x)
        if i < 0:
            return 0, True
        return i, i == len(pts) - 1 or (ptsf[i] == xf and pts[i] == x)

    def _descend(self, x: Fraction, V, beta, scale):
        """Exact orbit descent with an interpolated tail.

        Loop invariant: psi(x0) = acc + scale * (mass of the current
        cell on the tracked side of x).  Once scale times the table's
        maximum increment is below the certified bound, that mass is
        read off the table (psi(x) - V[i] on the left relation,
        V[i+1] - psi(x) on the right), which keeps the total error
        within beta^-depth at a fraction of the steps.
        """
        pts = self._pts
        ptsf = self._ptsf
        covers = self.structure.covers
        dirs = self.structure.directions
        seg_x, seg_y, seg_s = self._seg_x, self._seg_y, self._seg_s
        seg_xf = self._seg_xf
        tys = self._tys_f if isinstance(scale, float) else self._tys
        tail = float(self.beta) ** (-self.depth)
        tgap = self._tgap
        i, on = self._start_cell(x, float(x))
        if on:
            return V[i]
        acc = V[i]
        rel_left = True
        for _ in range(self.depth):
            if float(scale) * tgap <= tail:
                approx = self._table_interp(x, tys)
                if rel_left:
                    acc = acc + scale * (approx - V[i])
                else:
                    acc = acc + scale * (V[i + 1] - approx)
                return acc
            d = dirs[i]
            if d == 0:
                break
            lo, hi = covers[i]
            scale = scale / beta
            k = locate_leq(seg_x, seg_xf, x)
            y = seg_y[k] + seg_s[k] * (x - seg_x[k])
            j = locate_leq(pts, ptsf, y)
            hit = pts[j] == y
            if rel_left == (d > 0):
                acc = acc + scale * (V[j] - V[lo])
                if hit:
                    break
                rel_left = True
            else:
                if hit:
                    acc = acc + scale * (V[hi] - V[j])
                    break
                acc = acc + scale * (V[hi] - V[j + 1])
                rel_left = False
            x, i = y, j
        return acc

    def _descend_float(self, x: Fraction) -> Optional[float]:
        """The descent of _descend on a float64 orbit, or None.

        Walks x_{k+1} = y0 + s (x_k - x0) as d = fl(x - x0),
        y = fl(y0 + fl(s d)) on the correctly rounded data of the map,
        carrying e_k >= |x_k - float orbit|.  With u = 2^-53, one step
        errs by at most |s| e + u (|y0| + |s| |x0| + 3 |s| |d| + |y|) to
        first order, and the bound kept is

            e' = |s| e (1 + 32u) + 32u (|y0| + |s| (|x0| + |d|) + |y|) + t,

        whose slack absorbs the second-order terms, the rounding of the
        data and of the bound's own evaluation; t = 2^-1000 covers
        underflow.  A float z with bound e is on the same side of a
        point p (stored as p = fl(p)) as the exact orbit when
        |z - p| > e + 32u (|z| + |p|).  This filter separates each
        segment lookup, partition cell lookup and table-tail cell lookup
        from both neighbours, so the index is the exact walk's.  The
        first cell, that of x itself, is locate_leq's, as in the exact
        walk, and x on a partition point or beyond its ends returns at
        once.

        Next to e the walk keeps an exactness flag: the float orbit is
        the exact orbit.  It starts true when x is a float64 (a
        power-of-two denominator, at most 53 significant bits, no
        underflow) and the map's partition points and affine data are
        float64 values (_exact_map), and it stays true while every step
        rounds nothing: the error terms of TwoSum on x - x0 and y0 + s d
        and of Dekker's TwoProduct on s d (Veltkamp's split; there is no
        fma) all vanish, with the product clear of underflow.  While it
        holds, a lookup the filter cannot separate is decided by plain
        comparison against the exactly stored points, an exact hit
        y = p included, which then ends the walk as the exact walk's hit
        does; table lookups need an exact table too (_exact_table).  When
        neither decides, the walk gives up (None) and the caller
        re-walks exactly.

        Every decision is the exact walk's, and the mass accumulates by
        the float operations of _descend(x, V_f, beta_f, 1.0), so the
        flag changes no value: a walk whose lookups all pass the filter
        returns the filter's value, and one the flag had to decide
        returns the exact walk's float value.  At the tail the latter
        needs an exact interpolation ratio (both differences exact, so
        the float quotient is the correctly rounded ratio, as float() of
        the rational one); otherwise such a walk gives up.  The ratio is
        clamped to [0, 1], so the value read off the certified table
        cell stays between that cell's end values, as psi(x) does: the
        tail error is at most scale * max gap <= beta^-depth, as in the
        exact walk.
        """
        bisect_right = bisect.bisect_right
        ptsf = self._ptsf
        V = self._Vf
        xf = float(x)
        i, on = self._start_cell(x, xf)
        if on:
            return V[i]
        covers = self.structure.covers
        dirs = self.structure.directions
        seg_xf, seg_yf, seg_sf, seg_sh = self._seg_xf, self._seg_yf, self._seg_sf, self._seg_sh
        txsf, tys = self._txsf, self._tys_f
        nseg, npts, ntab = len(seg_xf), len(ptsf), len(txsf)
        eps, tiny, grow = FILTER_EPS, FILTER_TINY, 1.0 + FILTER_EPS
        splitter, pmin = SPLITTER, PRODUCT_MIN
        beta = float(self.beta)
        tail = beta ** (-self.depth)
        tgap = self._tgap
        err = eps * abs(xf) + tiny
        exact = self._exact_map and _is_float(x)
        filtered = True  # every lookup so far passed the filter
        acc = V[i]
        scale = 1.0
        rel_left = True
        for _ in range(self.depth):
            if scale * tgap <= tail:
                t = bisect_right(txsf, xf) - 1
                if t < 0 or t + 1 >= ntab:
                    return None
                exact_cell = exact and self._exact_table
                x0, x1 = txsf[t], txsf[t + 1]
                dx, w = xf - x0, x1 - x0
                sep = (dx > err + eps * (abs(xf) + abs(x0))
                       and x1 - xf > err + eps * (abs(xf) + abs(x1)))
                if not sep:
                    if not exact_cell:
                        return None
                    filtered = False
                if dx == 0.0:  # an exact hit on a table point
                    approx = tys[t]
                else:
                    if not filtered:
                        zd, zw = dx - xf, w - x1
                        if not (exact_cell
                                and (xf - (dx - zd)) + (-x0 - zd) == 0.0
                                and (x1 - (w - zw)) + (-x0 - zw) == 0.0):
                            return None
                    ratio = min(max(dx / w, 0.0), 1.0)
                    approx = tys[t] + (tys[t + 1] - tys[t]) * ratio
                if rel_left:
                    return acc + scale * (approx - V[i])
                return acc + scale * (V[i + 1] - approx)
            d = dirs[i]
            if d == 0:
                break
            lo, hi = covers[i]
            scale = scale / beta
            k = bisect_right(seg_xf, xf) - 1
            if k < 0:
                return None
            x0 = seg_xf[k]
            dx = xf - x0
            sep = dx > err + eps * (abs(xf) + abs(x0))
            if sep and k + 1 < nseg:
                x1 = seg_xf[k + 1]
                sep = x1 - xf > err + eps * (abs(xf) + abs(x1))
            if not sep:
                if not exact:
                    return None
                filtered = False
            y0, sl = seg_yf[k], seg_sf[k]
            p = sl * dx
            y = y0 + p
            if exact:
                # TwoSum on xf - x0 and y0 + p, TwoProduct on sl * dx
                zd, zy = dx - xf, y - y0
                sh, c = seg_sh[k], splitter * dx
                dh = c - (c - dx)
                dl, st = dx - dh, sl - sh
                exact = ((xf - (dx - zd)) + (-x0 - zd) == 0.0
                         and (abs(p) >= pmin or dx == 0.0 or sl == 0.0)
                         and ((sh * dh - p) + sh * dl + st * dh) + st * dl == 0.0
                         and (y0 - (y - zy)) + (p - zy) == 0.0)
            sl = abs(sl)
            err = (sl * err * grow
                   + eps * (abs(y0) + sl * (abs(x0) + dx) + abs(y)) + tiny)
            j = bisect_right(ptsf, y) - 1
            hit = False
            sep = 0 <= j < npts - 1
            if sep:
                p0, p1 = ptsf[j], ptsf[j + 1]
                sep = (y - p0 > err + eps * (abs(y) + abs(p0))
                       and p1 - y > err + eps * (abs(y) + abs(p1)))
            if not sep:
                if not exact or j < 0:
                    return None
                filtered = False
                hit = y == ptsf[j]
            if rel_left == (d > 0):
                acc = acc + scale * (V[j] - V[lo])
                if hit:
                    return acc
                rel_left = True
            else:
                if hit:
                    return acc + scale * (V[hi] - V[j])
                acc = acc + scale * (V[hi] - V[j + 1])
                rel_left = False
            xf, i = y, j
        return acc

    def max_table_gap(self) -> float:
        return self._tgap


def _prefix_values(s: MarkovStructure, r: Refinement) -> list:
    """Normalized cumulative eigenvector mass along the refinement cells."""
    v = s.v
    zero = v[0] * 0
    acc = zero
    out = [zero]
    for e in r.image_elem:
        if e >= 0:
            acc = acc + v[e]
        out.append(acc)
    total = out[-1]
    if float(total) == 0.0:
        raise PreconditionError("eigenvector mass vanished: no factor map")
    return [y / total for y in out]


def _collapse_from_table(xs, ys, tol: float) -> tuple:
    out = []
    i = 0
    while i < len(xs) - 1:
        j = i
        while j + 1 < len(xs) and float(ys[j + 1] - ys[i]) <= tol:
            j += 1
        if j > i:
            out.append((xs[i], xs[j]))
        i = max(j, i + 1)
    return tuple(out)


def _psi_table(s: MarkovStructure, r: Refinement, depth: int) -> PsiTable:
    """The table of psi on the refinement r, certified to beta^-depth."""
    ys = _prefix_values(s, r)
    return PsiTable(
        depth=depth,
        table_depth=r.depth,
        xs=r.points,
        ys=tuple(ys),
        beta=s.beta,
        error_bound=float(s.beta) ** (-depth),
        collapse_intervals=_collapse_from_table(r.points, ys, COLLAPSE_TOL),
        structure=s,
    )


def psi_on_points(s: MarkovStructure, depth: int) -> PsiTable:
    """Exact psi on the full refinement point set P_depth."""
    return _psi_table(s, refine(s, depth), depth)


def build_psi(s: MarkovStructure, target_err: float,
              max_table_points: int = DEFAULT_TABLE_POINTS) -> PsiTable:
    """Choose the certification depth for target_err and build the table.

    The table materializes the deepest refinement that stays within
    max_table_points; deeper evaluation runs through the exact descent,
    so consumers see error <= target_err everywhere.
    """
    beta = s.beta
    if float(beta) <= 1:
        raise PreconditionError("the factor construction needs beta > 1")
    if target_err <= 0:
        raise PreconditionError("target_err must be positive")
    depth = 1
    power = 1 / beta
    while float(power) >= target_err:
        depth += 1
        power = power / beta
        if depth > MAX_CERT_DEPTH:
            raise BudgetExceeded(
                f"target_err {target_err} needs depth > {MAX_CERT_DEPTH}"
            )
    try:
        for r in refinements(s, max_points=max_table_points):
            if r.depth == depth:
                break
    except BudgetExceeded:
        pass  # keep the deepest level within the budget
    return _psi_table(s, r, depth)


# ---------------------------------------------------------------------------
# the constant-slope image map
# ---------------------------------------------------------------------------

class ConstantSlopeMap(NamedTuple):
    map: PwaMap
    slope: float

    @property
    def max_slope_deviation(self) -> float:
        dev = 0.0
        for seg in self.map.segments:
            sl = abs(float(seg.slope))
            if sl == 0.0:
                continue
            dev = max(dev, abs(sl - self.slope) / self.slope)
        return dev


def build_constant_slope(s: MarkovStructure, psi: PsiTable) -> ConstantSlopeMap:
    """Image map g on [0,1]: nodes at psi(P) valued psi(f(P +-)).

    Collapsed cells contribute no nodes (consecutive P points with equal
    psi merge into one node, taking the left limit from the leftmost and
    the right limit from the rightmost point of the group).  Every piece
    slope must be within SLOPE_REL_TOL[s.numeric] of beta.
    """
    beta = s.beta
    if float(beta) <= 1:
        raise PreconditionError("constant-slope construction needs beta > 1")
    pts = s.points
    images = list(s.map.sides(pts))
    # psi is exact on the structure points (table depth >= 0), so the
    # node-merge threshold is the collapse resolution, not the table error
    zs = [psi.eval(p) for p in pts]
    merge_tol = COLLAPSE_TOL
    groups = []
    i = 0
    while i < len(pts):
        j = i
        while j + 1 < len(pts) and float(zs[j + 1] - zs[i]) <= merge_tol:
            j += 1
        groups.append((i, j))
        i = j + 1
    triples = []
    for gi, (i, j) in enumerate(groups):
        # endpoint groups pin the exact endpoint values 0 and 1; the
        # group-internal spread is eigenvector residual only
        z = zs[j] if gi == len(groups) - 1 else zs[i]
        yl, yr = images[i][0], images[j][1]
        triples.append((z, None if yl is None else psi.eval(yl),
                        None if yr is None else psi.eval(yr)))
    nodes = []
    for z, yl, yr in triples:
        nodes.append(
            (
                _unit_clamp(rationalize(z, NODE_DIGITS)),
                None if yl is None else _unit_clamp(rationalize(yl, NODE_DIGITS)),
                None if yr is None else _unit_clamp(rationalize(yr, NODE_DIGITS)),
            )
        )
    g = PwaMap.from_triples(nodes)
    cs = ConstantSlopeMap(g, float(beta))
    if cs.max_slope_deviation > SLOPE_REL_TOL[s.numeric]:
        raise VerificationError(
            f"piece slopes deviate from beta by {cs.max_slope_deviation:.3e}; "
            "the psi table depth is insufficient"
        )
    return cs


def _unit_clamp(x: Fraction) -> Fraction:
    return min(max(x, Fraction(0)), Fraction(1))


# ---------------------------------------------------------------------------
# TSV interchange
# ---------------------------------------------------------------------------

def psi_to_tsv(psi: PsiTable) -> str:
    lines = ["x\tpsi\tx_exact"]
    for x, y in zip(psi.xs, psi.ys):
        lines.append(
            f"{format_decimal(x)}\t{format_decimal(y)}\t{format_rational(x)}"
        )
    return "\n".join(lines) + "\n"


def psi_from_tsv(text: str) -> PsiTable:
    """Detached table (interpolation only; no structure attached)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("x\tpsi"):
        raise FormatError("bad psi TSV header")
    xs: List[Fraction] = []
    ys: List[float] = []
    for ln in lines[1:]:
        cols = ln.split("\t")
        if len(cols) < 2:
            raise FormatError(f"bad psi TSV row: {ln!r}")
        try:
            xs.append(parse_rational(cols[2] if len(cols) > 2 else cols[0]))
            ys.append(float(cols[1]))
        except ValueError as exc:
            raise FormatError(f"bad psi TSV row: {ln!r}: {exc}")
        if not 0 <= ys[-1] <= 1:  # also nan, which verify would score as 0
            raise FormatError(f"psi value outside [0, 1]: {ln!r}")
    if not xs:
        raise FormatError("psi TSV has no rows")
    if xs != sorted(xs):
        raise FormatError("psi TSV rows must be sorted by x")
    gap = max((ys[i + 1] - ys[i] for i in range(len(ys) - 1)), default=1.0)
    return PsiTable(
        depth=0,
        table_depth=0,
        xs=tuple(xs),
        ys=tuple(ys),
        beta=None,
        error_bound=gap,
        collapse_intervals=_collapse_from_table(xs, ys, COLLAPSE_TOL),
        structure=None,
    )
