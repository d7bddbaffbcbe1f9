"""Itinerary coding and the finite-depth quotient to strict monotonicity.

Points that share the lap code at every depth are identified; the
quotient collapses each equivalence interval and rescales the rest,
and the map factors through.  At finite depth d the computable
surrogate is: cut the interval at all preimages of lap endpoints up to
depth d-1, code each cell by the laps its iterated images visit, and
collapse (a) cells whose image degenerates to a point within d steps
and (b) maximal runs of adjacent cells with identical d-codes.
Collapse intervals shrink as d grows; deeper equivalences may stay
uncollapsed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from .entropy import entropy_lapcount
from .errors import PreconditionError
from .numeric import format_rational
from .pwmap import LEFT, RIGHT, PwaMap, lap_end_pullback, laps, locate_leq, preimage_sweep


@dataclass(frozen=True)
class Itinerary:
    word: tuple                  # lap index per step
    ambiguous_at: tuple          # positions sitting on a shared lap endpoint


def _lap_location(lap_list, lap_los, p):
    """(lap index, ambiguous); shared endpoints take the left lap."""
    i = bisect.bisect_right(lap_los, p) - 1
    if i > 0 and lap_list[i].lo == p:
        return i - 1, True
    if i < 0:
        i = 0
    return i, False


def _step_point(f: PwaMap, p: Fraction, ambiguous: bool) -> Fraction:
    """Orbit step matching the lap convention at ambiguous points."""
    a, b = f.domain
    if p > a and (ambiguous or p == b):
        return f.eval(p, LEFT)
    return f.eval(p, RIGHT)


def itinerary(f: PwaMap, x, n: int) -> Itinerary:
    """Code the first n orbit positions of x by lap membership.

    Every ambiguous position (a lap end shared by two laps) takes the
    left lap, and the orbit continues with the left limit of f there.
    This is a convention per position, not the limit of the words of
    points approaching x from the left: past a decreasing lap those
    points approach the orbit from the right.  On the tent,
    itinerary(3/4, 3) is (1, 0, 1), while 3/4 - 2^-k codes as (1, 1, 1).
    psm_reduce codes its plateau cells by this convention.
    """
    a, b = f.domain
    p = Fraction(x)
    if not (a <= p <= b):
        raise PreconditionError(f"x={p} outside the domain")
    lap_list = laps(f)
    lap_los = [l.lo for l in lap_list]
    word = []
    amb = []
    for k in range(n):
        i, ambiguous = _lap_location(lap_list, lap_los, p)
        word.append(i)
        if ambiguous:
            amb.append(k)
        p = _step_point(f, p, ambiguous)
    return Itinerary(tuple(word), tuple(amb))


@dataclass(frozen=True)
class QuotientResult:
    collapse_intervals: tuple    # disjoint closed rational intervals
    psi0: PwaMap                 # increasing factor map onto [0,1]
    fhat: PwaMap                 # the factor map (see leak diagnostics)
    depth: int
    # A plateau whose value level has preimages spawns equivalence
    # classes at every depth; the depth-d quotient must leave the
    # classes past its horizon uncollapsed, which shows up as plateau
    # pieces of fhat below the quotient's resolution.  They shrink
    # geometrically with depth.
    leak_plateau_count: int = 0

    def to_tsv(self) -> str:
        lines = ["lo\thi"]
        for lo, hi in self.collapse_intervals:
            lines.append(f"{format_rational(lo)}\t{format_rational(hi)}")
        return "\n".join(lines) + "\n"


def _cell_codes(f: PwaMap, pts, depth: int, lap_los):
    """Per cell: (code word, degenerate-within-depth flag, image interval).

    The code of a cell is its lap followed by the code of the cell of
    pts that holds the left end of its image from the right.  pts holds
    every preimage of the lap ends up to depth-1, so that image and the
    cells it meets share their first depth-1 symbols, and f is read once
    along pts.  A cell whose image is a point y (a plateau cell) goes on
    with y's itinerary; reaching one within depth-1 steps is degenerate.
    """
    ptsf = [float(p) for p in pts]
    vals = list(f.sides(pts))
    symbols, images, nexts = [], [], []
    for p, (_, y0), (y1, _) in zip(pts, vals, vals[1:]):
        symbols.append(bisect.bisect_right(lap_los, p) - 1)
        lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
        images.append((lo, hi))
        nexts.append(locate_leq(pts, ptsf, lo) if lo < hi else None)
    rest = {}   # plateau cell -> itinerary of its value, depth-1 symbols
    out = []
    for i, image in enumerate(images):
        word = []
        k = i
        while len(word) < depth - 1 and nexts[k] is not None:
            word.append(symbols[k])
            k = nexts[k]
        word.append(symbols[k])
        degenerate = len(word) < depth
        if degenerate:
            if k not in rest:
                rest[k] = itinerary(f, images[k][0], depth - 1).word
            word.extend(rest[k][:depth - len(word)])
        out.append((tuple(word), degenerate, image))
    return out


def psm_reduce(f: PwaMap, depth: int = 16) -> QuotientResult:
    """Collapse depth-d code classes and factor f through the quotient.

    Shared lap endpoints code to the left lap, as in itinerary.
    """
    # a plateau map of zero entropy still has a quotient, so the test is
    # only that f^N has more than one lap, not that the lap counts grow
    if entropy_lapcount(f, depth=min(depth, 10)).lap_counts[-1] < 2:
        raise PreconditionError(
            "entropy estimate not positive; quotient degenerates"
        )
    a, b = f.domain
    lap_los = [lap.lo for lap in laps(f)]
    pts = lap_end_pullback(f, depth)
    codes = _cell_codes(f, pts, depth, lap_los)
    ncells = len(pts) - 1
    flagged = [False] * ncells
    i = 0
    while i < ncells:
        j = i
        while j + 1 < ncells and codes[j + 1][0] == codes[i][0]:
            j += 1
        if j > i or codes[i][1]:
            for k in range(i, j + 1):
                flagged[k] = True
        i = j + 1
    # backward closure: a cell whose one-step image lies inside a
    # collapsed interval is itself an equivalence interval (its points
    # share the first symbol and all deeper code symbols)
    while True:
        collapse = _flag_intervals(pts, codes, flagged)
        changed = False
        clos = [c[0] for c in collapse]
        for k in range(ncells):
            if flagged[k]:
                continue
            img = codes[k][2]
            if img is None:
                continue
            ylo, yhi = img
            ci = bisect.bisect_right(clos, ylo) - 1
            if ci >= 0 and collapse[ci][0] <= ylo and yhi <= collapse[ci][1]:
                flagged[k] = True
                changed = True
        if not changed:
            break
    collapse = _flag_intervals(pts, codes, flagged)
    total = sum(hi - lo for lo, hi in collapse)
    span = (b - a) - total
    if span <= 0:
        raise PreconditionError("quotient degenerates to a point at this depth")
    psi0 = _collapse_map(a, b, collapse, span)
    fhat = _factor_map(f, psi0, collapse)
    leaks = sum(1 for seg in fhat.segments if seg.slope == 0)
    return QuotientResult(tuple(collapse), psi0, fhat, depth, leaks)


def _flag_intervals(pts, codes, flagged):
    """Maximal runs of flagged cells with a common code, as intervals."""
    out = []
    ncells = len(flagged)
    i = 0
    while i < ncells:
        if not flagged[i]:
            i += 1
            continue
        j = i
        while (j + 1 < ncells and flagged[j + 1]
               and codes[j + 1][0] == codes[i][0]):
            j += 1
        out.append((pts[i], pts[j + 1]))
        i = j + 1
    return out


def _collapse_map(a, b, collapse, span):
    """Increasing map squashing the collapse intervals, scaled onto [0,1].

    The intervals are disjoint and their endpoints are breakpoints, so
    each pair of consecutive breakpoints is one collapse interval or
    lies outside all of them.
    """
    scale = Fraction(1) / span
    xs = sorted({a, b} | {x for pair in collapse for x in pair})
    collapsed = set(collapse)
    pairs = []
    acc = Fraction(0)
    prev = a
    for x in xs:
        if (prev, x) not in collapsed:
            acc += x - prev
        pairs.append((x, acc * scale))
        prev = x
    return PwaMap.from_pairs(pairs, selfmap=False)


def _factor_map(f: PwaMap, psi0: PwaMap, collapse):
    """psi0 o f o psi0^{-1} on representatives, as an exact map on [0,1].

    Breakpoints: the nodes of f, the collapse boundaries, and their
    f-preimages (where the image crosses a kink of psi0).
    """
    psi_nodes = [n.x for n in psi0.nodes]
    cuts = {n.x for n in f.nodes} | set(psi_nodes)
    cuts |= preimage_sweep(f, psi_nodes)
    xs = sorted(cuts)
    groups = {}   # increasing psi0 value -> f's one-sided values at its cuts
    for (zl, zr), images in zip(psi0.sides(xs), f.sides(xs)):
        z = zr if zl is None else zl   # psi0 is continuous
        groups.setdefault(z, []).append(images)
    triples = []
    for z, group in groups.items():
        yl, yr = group[0][0], group[-1][1]
        triples.append((z, None if yl is None else psi0.eval(yl),
                        None if yr is None else psi0.eval(yr)))
    return PwaMap.from_triples(triples)
