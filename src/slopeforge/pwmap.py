"""Exact piecewise-affine interval maps with one-sided values.

A map is stored as a list of nodes (x, y_left, y_right) with strictly
increasing rational x; between consecutive nodes the map interpolates
affinely from the left node's right value to the right node's left
value.  A node with y_left != y_right encodes a jump discontinuity;
the map is deliberately two-valued there and every consumer in this
package works with one-sided limits.

All coordinates are `fractions.Fraction`, so iteration, lap counting
and sup-distance are exact.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceeded, FormatError, PreconditionError
from .numeric import format_rational, parse_rational

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"

LEFT = "left"
RIGHT = "right"

MAX_COMPOSE_NODES = 10**7     # nodes of one composite
MAX_LAP_PIECES = 500_000      # (level, piece) states of one lap_counts call
MAX_LAP_BITS = 10_000         # bits of one lap count, about 3,000 digits
MAX_PULLBACK_STEPS = 500_000  # points × depth of one lap_end_pullback


def locate_leq(pts, pts_float, x: Fraction) -> int:
    """Largest index j with pts[j] <= x, or -1.

    Read off the float shadow pts_float of the sorted array at C speed.
    float() of a Fraction is correctly rounded, hence monotone, so
    fl(p) < fl(x) proves p < x.  Bisection gives fl(x) < fl(p_(j+1)),
    proving x < p_(j+1), and fl(p_j) < fl(x) proves the answer is j.
    Only points that share the float of x are compared exactly, scanning
    back from j, so a start the floats separate costs no Fraction work.
    """
    try:
        xf = float(x)
    except OverflowError:  # an infinity keeps the rounding monotone
        xf = float("inf") if x > 0 else float("-inf")
    j = bisect.bisect_right(pts_float, xf) - 1
    while j >= 0 and pts_float[j] == xf and pts[j] > x:
        j -= 1
    return j


class Node(NamedTuple):
    x: Fraction
    y_left: Optional[Fraction]
    y_right: Optional[Fraction]


class Lap(NamedTuple):
    """Maximal closed interval on which the map is continuous and monotone."""

    lo: Fraction
    hi: Fraction
    direction: str  # INCREASING | DECREASING | CONSTANT


class Segment(NamedTuple):
    """Open affine piece between two consecutive nodes."""

    x0: Fraction
    x1: Fraction
    y0: Fraction  # right value at x0
    y1: Fraction  # left value at x1
    slope: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.y0 + self.slope * (x - self.x0)

    @property
    def direction(self) -> str:
        if self.slope > 0:
            return INCREASING
        if self.slope < 0:
            return DECREASING
        return CONSTANT


class PwaMap:
    """Piecewise-affine map of a compact rational interval.

    By default values are confined to the domain (a self-map, the
    dynamical case); selfmap=False lifts that restriction for auxiliary
    objects such as factor maps and flattening charts.
    """

    __slots__ = ("nodes", "_xs", "_xsf", "_segments", "selfmap", "_yf")

    def __init__(self, nodes: Sequence[Node], selfmap: bool = True):
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise FormatError("a map needs at least 2 nodes")
        xs = [n.x for n in nodes]
        for i in range(1, len(xs)):
            if xs[i] <= xs[i - 1]:
                raise FormatError(f"non-increasing x at node {i}: {xs[i]}")
        a, b = xs[0], xs[-1]
        if nodes[0].y_left is not None:
            raise FormatError("left endpoint must not carry a left value")
        if nodes[-1].y_right is not None:
            raise FormatError("right endpoint must not carry a right value")
        for i, n in enumerate(nodes):
            if 0 < i and n.y_left is None:
                raise FormatError(f"missing left value at interior node {i}")
            if i < len(nodes) - 1 and n.y_right is None:
                raise FormatError(f"missing right value at interior node {i}")
            if selfmap:
                for y in (n.y_left, n.y_right):
                    if y is not None and not (a <= y <= b):
                        raise FormatError(
                            f"value {y} at x={n.x} falls outside the domain [{a}, {b}]"
                        )
        object.__setattr__(self, "selfmap", selfmap)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_xs", xs)
        try:  # the float shadow that locate_leq trusts must be finite
            object.__setattr__(self, "_xsf", [float(x) for x in xs])
        except OverflowError:
            raise FormatError("a node x lies beyond the float64 range") from None
        segs = []
        for i in range(len(nodes) - 1):
            x0, x1 = nodes[i].x, nodes[i + 1].x
            y0, y1 = nodes[i].y_right, nodes[i + 1].y_left
            segs.append(Segment(x0, x1, y0, y1, (y1 - y0) / (x1 - x0)))
        object.__setattr__(self, "_segments", tuple(segs))
        object.__setattr__(self, "_yf", None)  # float node values, on demand

    def __setattr__(self, name, value):  # immutable value object
        raise AttributeError("PwaMap is immutable")

    def __eq__(self, other):
        return isinstance(other, PwaMap) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def __repr__(self):
        a, b = self.domain
        return f"PwaMap([{a},{b}], {len(self.nodes)} nodes)"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple], selfmap: bool = True) -> "PwaMap":
        """Continuous map through the given (x, y) breakpoints."""
        pts = [(Fraction(x), Fraction(y)) for x, y in pairs]
        nodes = []
        for i, (x, y) in enumerate(pts):
            yl = None if i == 0 else y
            yr = None if i == len(pts) - 1 else y
            nodes.append(Node(x, yl, yr))
        return cls(nodes, selfmap=selfmap)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple], selfmap: bool = True) -> "PwaMap":
        """Nodes given as (x, y_left-or-None, y_right-or-None)."""
        nodes = []
        for x, yl, yr in triples:
            nodes.append(
                Node(
                    Fraction(x),
                    None if yl is None else Fraction(yl),
                    None if yr is None else Fraction(yr),
                )
            )
        return cls(nodes, selfmap=selfmap)

    # -- basic queries -------------------------------------------------------

    @property
    def domain(self) -> tuple:
        return self._xs[0], self._xs[-1]

    @property
    def segments(self) -> tuple:
        return self._segments

    @property
    def is_continuous(self) -> bool:
        return all(
            n.y_left == n.y_right for n in self.nodes[1:-1]
        )

    @property
    def has_plateau(self) -> bool:
        return any(s.slope == 0 for s in self._segments)

    def _locate(self, x: Fraction) -> tuple:
        """(i, hit): x is node i (hit) or inside segment i.  Outside the
        domain locate_leq gives -1, or the last index without a hit."""
        xs = self._xs
        i = locate_leq(xs, self._xsf, x)
        hit = i >= 0 and xs[i] == x
        if not hit and not 0 <= i < len(xs) - 1:
            a, b = self.domain
            raise PreconditionError(f"x={x} outside domain [{a}, {b}]")
        return i, hit

    def segment_index(self, x: Fraction, side: str) -> int:
        """Segment adjacent to x on the given side."""
        xs = self._xs
        j = locate_leq(xs, self._xsf, x)
        if side == RIGHT:
            if j == len(xs) - 1:  # x >= b
                raise PreconditionError(f"no right side at x={x}")
            return j
        if j >= 0 and xs[j] == x:
            j -= 1
        if j < 0:  # x <= a
            raise PreconditionError(f"no left side at x={x}")
        return j

    def eval(self, x: Fraction, side: Optional[str] = None) -> Fraction:
        """One-sided value of the map at x.

        With side=None the point must be a continuity point (interior of
        a segment, or a node with matching one-sided values).
        """
        x = Fraction(x)
        i, hit = self._locate(x)
        if side not in (None, LEFT, RIGHT):
            raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
        if not hit:
            return self._segments[i].value(x)
        n = self.nodes[i]
        if side is None:
            if n.y_left is None:
                return n.y_right
            if n.y_right is None or n.y_left == n.y_right:
                return n.y_left
            raise PreconditionError(
                f"map is two-valued at x={x}; pass side='left' or 'right'"
            )
        y = n.y_left if side == LEFT else n.y_right
        if y is None:
            raise PreconditionError(f"side {side!r} undefined at endpoint x={x}")
        return y

    def sides(self, xs) -> Iterator[tuple]:
        """Yield (f(x-), f(x+)) for each x of xs, sorted within the domain.

        One forward pointer over the nodes: node values at a node,
        segment.value(x) between nodes.  The side that leaves the domain
        (left of a, right of b) is None.  The pairs are yielded, not
        kept, so a long grid costs no memory.
        """
        nodes, segs = self.nodes, self._segments
        last = len(nodes) - 1
        k = 0  # nodes[k].x <= x < nodes[k + 1].x, or x is the last node
        for x in xs:
            while k < last and nodes[k + 1].x <= x:
                k += 1
            node = nodes[k]
            if node.x == x:
                yield node.y_left, node.y_right
            elif node.x < x and k < last:
                y = segs[k].value(x)
                yield y, y
            else:  # x beyond b, before a, or before an earlier point
                a, b = self.domain
                if not a <= x <= b:
                    raise PreconditionError(f"x={x} outside domain [{a}, {b}]")
                raise PreconditionError(f"points not sorted at x={x}")

    def eval_float(self, z: float, side: str) -> float:
        """Float64 value of the map at z, clamped into the domain.

        At a node the value on `side` is returned (the other side at an
        endpoint); between nodes the two float end values are
        interpolated.  The float node values are built on the first
        call, so maps that are never evaluated in float carry none.
        """
        xs = self._xsf
        if self._yf is None:
            object.__setattr__(self, "_yf", (
                [None if n.y_left is None else float(n.y_left) for n in self.nodes],
                [None if n.y_right is None else float(n.y_right) for n in self.nodes],
            ))
        yl, yr = self._yf
        z = min(max(z, xs[0]), xs[-1])
        i = bisect.bisect_right(xs, z) - 1
        if i >= len(xs) - 1:
            i = len(xs) - 2
        if xs[i] == z:
            y = yl[i] if side == LEFT else yr[i]
            if y is None:
                y = yr[i] if yl[i] is None else yl[i]
            return y
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = yr[i], yl[i + 1]
        return y0 + (y1 - y0) * (z - x0) / (x1 - x0)

    def value_at(self, x: Fraction) -> Fraction:
        """Single-valued convention: right limit, left at the right endpoint."""
        i, hit = self._locate(x)
        if not hit:
            return self._segments[i].value(x)
        n = self.nodes[i]
        return n.y_right if n.y_right is not None else n.y_left

    def slope_side(self, x: Fraction, side: str) -> Fraction:
        return self._segments[self.segment_index(x, side)].slope

    def __call__(self, x):
        return self.eval(Fraction(x))


# -- laps ---------------------------------------------------------------


def laps(f: PwaMap) -> list:
    """Maximal intervals of simultaneous continuity and monotonicity.

    Runs of segments merge only when the direction matches exactly, so a
    plateau stays a single constant lap and the flanking monotone laps
    close at its endpoints.
    """
    out = []
    segs = f.segments
    start = segs[0].x0
    direction = segs[0].direction
    for i in range(1, len(segs)):
        node = f.nodes[i]
        continuous = node.y_left == node.y_right
        if continuous and segs[i].direction == direction:
            continue
        out.append(Lap(start, segs[i].x0, direction))
        start = segs[i].x0
        direction = segs[i].direction
    out.append(Lap(start, segs[-1].x1, direction))
    return out


def modality(f: PwaMap) -> int:
    """Number of laps minus one."""
    return len(laps(f)) - 1


# -- composition and iteration -------------------------------------------


def _flip(side: str) -> str:
    return LEFT if side == RIGHT else RIGHT


def _inward(f: PwaMap, y: Fraction, side: str) -> str:
    """side, except at an end of f's domain, which has only its inner side."""
    a, b = f.domain
    if y == a:
        return RIGHT
    if y == b:
        return LEFT
    return side


def _outer_limit(outer: PwaMap, y: Fraction, approach_slope: Fraction, side: str) -> Fraction:
    """Limit of outer(inner(t)) as t tends to x from `side`.

    approach_slope is the slope of the inner map on that side of x; its
    sign decides from which side the inner values approach y.  A plateau
    (slope 0) takes the actual value of outer at y, right-preferring at
    jump points of outer.
    """
    if approach_slope == 0:
        return outer.value_at(y)
    toward = side if approach_slope > 0 else _flip(side)
    return outer.eval(y, _inward(outer, y, toward))


def compose(outer: PwaMap, inner: PwaMap) -> PwaMap:
    """Exact composition outer(inner(x)) as a PwaMap.

    The nodes of the composite are the nodes of inner plus, inside each
    monotone inner segment, the preimages of the outer nodes lying
    strictly within the segment's range.  One sweep over the inner
    segments emits them in increasing order: such an interior preimage
    is a continuity point of inner, so its one-sided values are the
    outer node's (swapped on decreasing segments); only the inner nodes
    need the one-sided limits of _outer_limit.  A composite of more than
    MAX_COMPOSE_NODES nodes raises BudgetExceeded.
    """
    if outer.domain != inner.domain:
        raise PreconditionError("composition requires a common domain")
    outer_xs = outer._xs
    segs = inner.segments
    # outer-node index range strictly inside each segment's range
    spans = []
    total = len(inner.nodes)
    monotone = False
    for seg in segs:
        if seg.slope == 0:
            spans.append((0, 0))
            continue
        monotone = True
        lo, hi = (seg.y0, seg.y1) if seg.slope > 0 else (seg.y1, seg.y0)
        i0 = bisect.bisect_right(outer_xs, lo)
        i1 = bisect.bisect_left(outer_xs, hi)
        spans.append((i0, i1))
        total += i1 - i0
    if monotone and total > MAX_COMPOSE_NODES:
        raise BudgetExceeded(
            f"composition exceeds {MAX_COMPOSE_NODES} nodes; lower the depth"
        )
    inner_nodes = inner.nodes
    outer_nodes = outer.nodes
    nodes = []
    for k, seg in enumerate(segs):
        node = inner_nodes[k]
        yl = None
        if k > 0:
            yl = _outer_limit(outer, node.y_left, segs[k - 1].slope, LEFT)
        yr = _outer_limit(outer, node.y_right, seg.slope, RIGHT)
        nodes.append(Node(node.x, yl, yr))
        i0, i1 = spans[k]
        if i0 == i1:
            continue
        inv = 1 / seg.slope
        offset = seg.x0 - seg.y0 * inv
        order = range(i0, i1) if seg.slope > 0 else range(i1 - 1, i0 - 1, -1)
        for i in order:
            on = outer_nodes[i]
            if seg.slope > 0:
                nodes.append(Node(on.x * inv + offset, on.y_left, on.y_right))
            else:
                nodes.append(Node(on.x * inv + offset, on.y_right, on.y_left))
    end = inner_nodes[-1]
    yl = _outer_limit(outer, end.y_left, segs[-1].slope, LEFT)
    nodes.append(Node(end.x, yl, None))
    return PwaMap(nodes)


def iterate(f: PwaMap, k: int) -> PwaMap:
    """The k-th iterate of f as an exact PwaMap (k >= 1), by k - 1
    compositions f^(j+1) = f o f^j."""
    if k < 1:
        raise PreconditionError("iterate needs k >= 1")
    g = f
    for _ in range(k - 1):
        g = compose(f, g)
    return g


# -- lap counts -------------------------------------------------------------


def _germ_step(f: PwaMap, y: Fraction, side: Optional[str]) -> tuple:
    """Image of a germ under f.

    A germ (y, side) stands for the values of f^k near a point on one
    side, which tend to y from `side` (from the inner side at an end of
    f's domain).  Its image is the limit of f at y from that side.  The
    side survives an increasing segment and flips on a decreasing one.
    On a plateau the values equal the plateau's value and the side
    becomes None: such a germ is the point y itself, and every later
    step takes value_at (the right value, the left one at b).
    """
    if side is None:
        return f.value_at(y), None
    side = _inward(f, y, side)
    seg = f.segments[f.segment_index(y, side)]
    if seg.slope == 0:
        return seg.y0, None
    return seg.value(y), side if seg.slope > 0 else _flip(side)


def lap_counts(f: PwaMap, upto: int) -> list:
    """[c_1, ..., c_upto], c_k the number of laps of f^k, without
    composing any iterate.

    Let l_k[p, q] be the laps of f^k on [p, q], with the directions of
    its first and last lap.  Cut [p, q] at the lap ends of f: a
    monotone piece contributes l_(k-1) of its image (reversed on a
    decreasing piece), a flat piece one constant lap.  At an interior
    lap end c where the two adjacent directions agree and f^k is
    continuous, two laps merge into one, as laps() merges them; f^k is
    continuous at c when the two germs of c, walked k steps by
    _germ_step, meet.

    The states are collected top-down from [a, b] at level upto: an
    interval first reached after d image steps is a state at every
    level 1..upto-d, so each interval is cut once.  Valuing a state
    costs one step per piece, so the pieces of all states are counted
    against MAX_LAP_PIECES before any germ is walked; then the levels
    are valued bottom-up, and a count of more than MAX_LAP_BITS bits
    stops the call (c_k bounds every count at level k).
    """
    if upto < 1:
        return []
    a, b = f.domain
    f_laps = laps(f)
    ends = [lap.lo for lap in f_laps[1:]]   # interior lap ends of f
    signs = [1 if lap.direction == INCREASING
             else -1 if lap.direction == DECREASING else 0 for lap in f_laps]
    # breadth-first over intervals: an interval's id is its index in
    # `intervals`, so ids are ordered by `distance`, the image steps from [a, b]
    ids = {(a, b): 0}
    intervals = [(a, b)]
    distance = [0]
    pieces = []       # per id: (first lap index, [(child id, sign)]), sign 0 if flat
    work = 0
    for i, (p, q) in enumerate(intervals):
        lo = bisect.bisect_right(ends, p)
        hi = bisect.bisect_left(ends, q)
        work += (upto - distance[i]) * (hi - lo + 1)
        if work > MAX_LAP_PIECES:
            raise BudgetExceeded(
                f"lap counting to depth {upto} needs more than "
                f"{MAX_LAP_PIECES} pieces; lower the depth"
            )
        cuts = [p] + ends[lo:hi] + [q]
        register = distance[i] + 1 < upto   # level 1 values no children
        row = []
        for j in range(len(cuts) - 1):
            sign = signs[lo + j]
            if sign == 0:
                row.append((-1, 0))
                continue
            ya = f.eval(cuts[j], RIGHT)
            yb = f.eval(cuts[j + 1], LEFT)
            image = (ya, yb) if sign > 0 else (yb, ya)
            child = ids.get(image, -1)
            if child < 0 and register:
                child = ids[image] = len(intervals)
                intervals.append(image)
                distance.append(distance[i] + 1)
            row.append((child, sign))
        pieces.append((lo, row))
    germs = [((c, LEFT), (c, RIGHT)) for c in ends]   # walked one step per level
    counts = []
    count = first = last = None
    for k in range(1, upto + 1):
        germs = [(_germ_step(f, *left), _germ_step(f, *right)) for left, right in germs]
        merges = [left[0] == right[0] for left, right in germs]
        m = bisect.bisect_right(distance, upto - k)   # the states at level k
        new_count, new_first, new_last = [0] * m, [0] * m, [0] * m
        for i in range(m):
            lo, row = pieces[i]
            total = 0
            prev = None
            for j, (child, sign) in enumerate(row):
                if sign == 0:
                    n, s, t = 1, 0, 0
                elif k == 1:
                    n, s, t = 1, sign, sign
                elif sign > 0:
                    n, s, t = count[child], first[child], last[child]
                else:
                    n, s, t = count[child], -last[child], -first[child]
                if j == 0:
                    new_first[i] = s
                elif prev == s and merges[lo + j - 1]:
                    total -= 1
                total += n
                prev = t
            new_count[i] = total
            new_last[i] = prev
        count, first, last = new_count, new_first, new_last
        counts.append(count[0])
        if count[0].bit_length() > MAX_LAP_BITS:
            raise BudgetExceeded(
                f"lap counting to depth {upto} passes {MAX_LAP_BITS}-bit "
                f"counts at level {k}; lower the depth"
            )
    return counts


# -- metric ---------------------------------------------------------------


def merge_sorted(xs, ys) -> list:
    """The sorted union of two strictly increasing lists.

    Each point of the shorter list goes in by bisection on the longer
    one, so a few nodes merge into a long grid at O(log n) comparisons
    each, and the long list is copied in slices.
    """
    if len(xs) < len(ys):
        xs, ys = ys, xs
    out = []
    lo = 0
    for y in ys:
        k = bisect.bisect_left(xs, y, lo)
        out.extend(xs[lo:k])
        if k == len(xs) or xs[k] != y:
            out.append(y)
        lo = k
    out.extend(xs[lo:])
    return out


def sup_dist(f: PwaMap, g: PwaMap) -> Fraction:
    """Exact sup of |f - g| over the common domain.

    The difference is affine between breakpoints, so the sup is attained
    among the one-sided values at the union of the node sets.
    """
    if f.domain != g.domain:
        raise PreconditionError("sup_dist requires a common domain")
    xs = merge_sorted(f._xs, g._xs)
    return max(abs(u - w)
               for fx, gx in zip(f.sides(xs), g.sides(xs))
               for u, w in zip(fx, gx) if u is not None)


# -- point preimages -------------------------------------------------------


def preimage_sweep(f: PwaMap, pts_sorted) -> set:
    """Isolated f-preimages of a sorted point list, segment by segment.

    Plateau segments contribute nothing: the refinement machinery must
    not subdivide along constant pieces.
    """
    out = set()
    for seg in f.segments:
        s = seg.slope
        if s == 0:
            continue
        lo, hi = (seg.y0, seg.y1) if seg.y0 <= seg.y1 else (seg.y1, seg.y0)
        i = bisect.bisect_left(pts_sorted, lo)
        while i < len(pts_sorted) and pts_sorted[i] <= hi:
            out.add(seg.x0 + (pts_sorted[i] - seg.y0) / s)
            i += 1
    return out


def preimage_points(f: PwaMap, y: Fraction) -> list:
    """Isolated solutions of f(x) = y, in increasing order."""
    return sorted(preimage_sweep(f, [Fraction(y)]))


# -- orbits -----------------------------------------------------------------


def orbit(f: PwaMap, x: Fraction, k: int) -> list:
    """[x, f(x), ..., f^k(x)] with the right-preferring value convention."""
    x = Fraction(x)
    out = [x]
    for _ in range(k):
        x = f.value_at(x)
        out.append(x)
    return out


def orbit_one_sided(f: PwaMap, x: Fraction, side: str, k: int) -> list:
    """Orbit of the one-sided germ (x, side): [(x0, s0), ..., (xk, sk)].

    Each step is _germ_step, the rule of compose: the side flips through
    decreasing branches and survives increasing ones, and after a flat
    step it is None and later steps take value_at.  So xk is
    iterate(f, k).eval(x, side).
    """
    out = [(Fraction(x), side)]
    for _ in range(k):
        out.append(_germ_step(f, *out[-1]))
    return out


# -- lap ends of f^k ----------------------------------------------------------


def lap_end_pullback(f: PwaMap, depth: int) -> list:
    """The lap ends of f, a and b included, and their preimages under
    f, ..., f^(depth-1), in increasing order; every lap end of f^depth
    is among them.

    Callers walk each point `depth` steps, so more than
    MAX_PULLBACK_STEPS points × depth raise BudgetExceeded, checked
    after every sweep.
    """
    new = sorted({lap.lo for lap in laps(f)} | {f.domain[1]})
    pts = set(new)
    for _ in range(depth - 1):
        new = sorted(preimage_sweep(f, new) - pts)
        pts.update(new)
        if len(pts) * depth > MAX_PULLBACK_STEPS:
            raise BudgetExceeded(
                f"pulling the lap ends back to depth {depth} needs more "
                f"than {MAX_PULLBACK_STEPS} points × depth; lower the depth"
            )
        if not new:
            break
    return sorted(pts)


def lap_ends(f: PwaMap, k: int) -> Iterable:
    """Yield the lap ends of f^k, a and b included, in increasing order,
    as (c, orbit of (c, LEFT), orbit of (c, RIGHT)) to depth k.

    Nothing is composed.  A point of lap_end_pullback(f, k) is dropped
    when its two germs end as (y, s) and (y, flip(s)), or as (y, None)
    both: there f^k is continuous with one direction on both sides, and
    laps(iterate(f, k)) merges the laps that meet at it.  The orbits are
    yielded, not kept: at depth 12 there can be tens of thousands.
    """
    a, b = f.domain
    for c in lap_end_pullback(f, k):
        left = orbit_one_sided(f, c, LEFT, k)
        right = orbit_one_sided(f, c, RIGHT, k)
        (yl, sl), (yr, sr) = left[-1], right[-1]
        if a < c < b and yl == yr and sr == (None if sl is None else _flip(sl)):
            continue
        yield c, left, right


# -- PWA v1 text format ------------------------------------------------------


def parse_node_line(ln: str) -> Node:
    """One ``<x> <y_left|-> <y_right|->`` node line, as in PWA v1 and in
    the chart sections of the graph format."""
    fields = ln.split()
    if len(fields) != 3:
        raise FormatError(f"bad node line: {ln!r}")
    try:
        x = parse_rational(fields[0])
        yl = None if fields[1] == "-" else parse_rational(fields[1])
        yr = None if fields[2] == "-" else parse_rational(fields[2])
    except ValueError as exc:
        raise FormatError(str(exc))
    return Node(x, yl, yr)


def parse_pwa(text: str) -> PwaMap:
    """Parse the PWA v1 text format.

    Line 1: ``pwa 1``; line 2: ``domain <a> <b>``; line 3: ``nodes <k>``;
    then k lines ``<x> <y_left|-> <y_right|->`` ordered by x, with
    rationals as ``p/q`` or integer/decimal literals.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise FormatError("truncated PWA document")
    if lines[0].split() != ["pwa", "1"]:
        raise FormatError(f"bad header: {lines[0]!r}")
    dom = lines[1].split()
    if len(dom) != 3 or dom[0] != "domain":
        raise FormatError(f"bad domain line: {lines[1]!r}")
    try:
        a, b = parse_rational(dom[1]), parse_rational(dom[2])
    except ValueError as exc:
        raise FormatError(str(exc))
    cnt = lines[2].split()
    if len(cnt) != 2 or cnt[0] != "nodes":
        raise FormatError(f"bad nodes line: {lines[2]!r}")
    try:
        k = int(cnt[1])
    except ValueError:
        raise FormatError(f"bad node count: {cnt[1]!r}")
    if k < 2:
        raise FormatError("fewer than 2 nodes")
    if len(lines) != 3 + k:
        raise FormatError(f"expected {k} node lines, found {len(lines) - 3}")
    nodes = []
    for ln in lines[3:]:
        node = parse_node_line(ln)
        if nodes and node.x <= nodes[-1].x:
            raise FormatError(f"non-increasing x at {format_rational(node.x)}")
        nodes.append(node)
    if nodes[0].x != a or nodes[-1].x != b:
        raise FormatError("first/last node must sit on the domain endpoints")
    return PwaMap(nodes)


def serialize_pwa(f: PwaMap, number=format_rational) -> str:
    """Emit the PWA v1 text format.

    number renders node coordinates and values: lowest-terms rationals
    by default (bit-exact); numeric.format_decimal writes the decimal
    literals of a constant-slope output.  The domain line is always
    exact.
    """
    a, b = f.domain
    out = ["pwa 1", f"domain {format_rational(a)} {format_rational(b)}",
           f"nodes {len(f.nodes)}"]
    for n in f.nodes:
        yl = "-" if n.y_left is None else number(n.y_left)
        yr = "-" if n.y_right is None else number(n.y_right)
        out.append(f"{number(n.x)} {yl} {yr}")
    return "\n".join(out) + "\n"
