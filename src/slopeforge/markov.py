"""Markov structure: invariant point sets, refinements, transition data.

A map is Markov for a finite point set P when P contains the domain
endpoints, every one-sided image of a P point is again in P, and the
map is strictly monotone or constant (and continuous) on each interval
cut out by P.  The induced 0/1 transition matrix has contiguous rows,
which the structure exploits: rows are stored as half-open cell-index
ranges and matrix-vector products run on prefix sums.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    FormatError,
    NonConvergence,
    PreconditionError,
)
from .numeric import mp_context
from .pwmap import CONSTANT, DECREASING, INCREASING, LEFT, RIGHT, PwaMap, laps

MP_MATRIX_CAP = 600          # above this the Perron solver switches to float64
DENSE_MATRIX_CAP = 4096      # guard for materializing list-of-lists matrices
PERRON_TOL = 1e-12           # accepted residual |Mv - beta v| per unit of beta
MAX_POWER_STEPS = 50000      # steps of one component solve before giving up
MAX_CLOSURE_POINTS = 4096    # points of a Markov closure before giving up
FIRST_CLOSURE_POINTS = 512   # the smaller budget of a first, cheap closure try


# ---------------------------------------------------------------------------
# cell analysis
# ---------------------------------------------------------------------------

_SIGN = {INCREASING: 1, DECREASING: -1, CONSTANT: 0}


def _cell_direction(f_laps, starts, lo: Fraction, hi: Fraction):
    """Direction +1/-1/0 of f on [lo, hi], or a violation string.

    f_laps is laps(f) and starts their lo ends.  The cell is continuous
    and strictly monotone or constant exactly when no lap end of f lies
    strictly inside it; its direction is then that of the lap holding
    it.  Laps with one direction meet only at a jump, so the first lap
    end inside is reported as a discontinuity there, and otherwise as a
    change of direction.
    """
    j = bisect.bisect_right(starts, lo) - 1
    lap = f_laps[j]
    if hi <= lap.hi:
        return _SIGN[lap.direction]
    if f_laps[j + 1].direction == lap.direction:
        return f"discontinuity at {lap.hi} inside [{lo}, {hi}]"
    return f"not strictly-monotone-or-constant on [{lo}, {hi}]"


class MarkovCheck(NamedTuple):
    ok: bool
    reason: Optional[str] = None
    witness: Optional[object] = None

    def __bool__(self):
        return self.ok


def _check_points(f: PwaMap, points: Sequence[Fraction]):
    """(MarkovCheck, cells) of is_markov's checks, made in one pass.

    The one-sided images of P are read in one sorted pass (PwaMap.sides)
    and looked up in an index of P; the same lookup gives each cell's
    cover range.  Each cell takes its direction from the lap of f that
    holds it (one bisect over the lap starts, see _cell_direction).
    cells is (P, directions, covers) when the check passes, else None.
    """
    a, b = f.domain
    pts = [Fraction(p) for p in points]
    if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
        return MarkovCheck(False, "points not sorted/distinct", tuple(pts)), None
    if not pts or pts[0] != a or pts[-1] != b:
        return MarkovCheck(False, "endpoints missing from P", (a, b)), None
    index = {p: i for i, p in enumerate(pts)}
    sides = list(f.sides(pts))
    for p, images in zip(pts, sides):
        for y in images:
            if y is not None and y not in index:
                return MarkovCheck(
                    False, "image of a P point escapes P", (p, y)
                ), None
    f_laps = laps(f)
    starts = [lap.lo for lap in f_laps]
    directions = []
    covers = []
    for i in range(len(pts) - 1):
        sign = _cell_direction(f_laps, starts, pts[i], pts[i + 1])
        if isinstance(sign, str):
            return MarkovCheck(False, sign, (pts[i], pts[i + 1])), None
        directions.append(sign)
        if sign == 0:
            covers.append((i, i))
        else:
            ends = (index[sides[i][1]], index[sides[i + 1][0]])
            covers.append(ends if sign > 0 else ends[::-1])
    return MarkovCheck(True), (tuple(pts), tuple(directions), tuple(covers))


def is_markov(f: PwaMap, points: Sequence[Fraction]) -> MarkovCheck:
    """Check the Markov conditions for the point set, with a witness.

    Conditions, in order: P sorted within the domain and containing the
    endpoints; every available one-sided image of a P point lies in P;
    the map is strictly monotone or constant, and continuous, on every
    cell of the induced partition.
    """
    return _check_points(f, points)[0]


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------

class PerronResult(NamedTuple):
    beta: object                 # mpf or float
    v: tuple                     # nonnegative, sums to 1
    residual: float              # max |Mv - beta v|
    iterations: int              # steps of every component solve, summed
    method: str                  # "power" (irreducible) | "scc" (reducible)
    warning: Optional[str] = None


def _rows_from_matrix(M) -> list:
    """Normalize a matrix argument to per-row column index lists.

    Accepts a dense 0/1 list-of-lists or a list of half-open (lo, hi)
    cover ranges (the native form for interval Markov structures).
    """
    rows = []
    if not M:
        raise PreconditionError("empty matrix")
    if isinstance(M[0], tuple):
        for lo, hi in M:
            rows.append(("range", lo, hi))
        return rows
    n = len(M)
    for r in M:
        if len(r) != n:
            raise PreconditionError("matrix is not square")
        cols = [j for j, e in enumerate(r) if e == 1]
        if any(e not in (0, 1) for e in r):
            raise PreconditionError("matrix entries must be 0 or 1")
        rows.append(("cols", cols, None))
    return rows


def _matvec(rows, x, zero):
    """(M x) using prefix sums for range rows."""
    n = len(rows)
    prefix = [zero] * (n + 1)
    acc = zero
    for i, xi in enumerate(x):
        acc = acc + xi
        prefix[i + 1] = acc
    out = []
    for kind, p, q in rows:
        if kind == "range":
            out.append(prefix[q] - prefix[p])
        else:
            s = zero
            for j in p:
                s = s + x[j]
            out.append(s)
    return out


def _row_iter(rows, i):
    kind, p, q = rows[i]
    if kind == "range":
        return range(p, q)
    return p


def _restrict(rows, members, comp_of, ci) -> list:
    """Rows of the principal submatrix on one component, locally indexed.

    members is the component sorted; a cell's local index is its rank
    there, so the members inside a range row [lo, hi) are one run of
    local indices and the row stays a range.
    """
    if len(members) == len(rows):
        return rows
    rank = {v: k for k, v in enumerate(members)}
    out = []
    for v in members:
        kind, p, q = rows[v]
        if kind == "range":
            out.append(("range", bisect.bisect_left(members, p),
                        bisect.bisect_left(members, q)))
        else:
            out.append(("cols", [rank[w] for w in p if comp_of[w] == ci], None))
    return out


def perron(M, numeric: str = "auto") -> PerronResult:
    """Spectral radius and nonnegative right eigenvector of a 0/1 matrix.

    One path for every matrix, through the condensation (Frobenius
    normal form): each strongly connected component gets its spectral
    radius, a singleton 1 or 0 by its self-loop and any other component
    by power iteration on M + I restricted to its rows.  beta is the
    largest radius.  The eigenvector lives on the first basic class
    (radius beta) that no other basic class reaches, extended by
    back-substitution of (beta I - M) x = inflow through the components
    that reach it, sinks first, and is zero elsewhere.  An irreducible
    matrix is one component.  numeric "auto" solves in mpmath up to
    MP_MATRIX_CAP cells and in float64 above.
    """
    rows = _rows_from_matrix(M)
    n = len(rows)
    for kind, p, q in rows:
        if kind == "range" and not (0 <= p <= q <= n):
            raise PreconditionError("cover range out of bounds")
        if kind == "cols" and any(j >= n for j in p):
            raise PreconditionError("matrix is not square")
    if numeric == "float" or (numeric == "auto" and n > MP_MATRIX_CAP):
        one, zero = 1.0, 0.0
        conv = 1e-14
    else:
        ctx = mp_context()
        one, zero = ctx.mpf(1), ctx.mpf(0)
        conv = float(ctx.mpf(2) ** (10 - ctx.prec))

    comps = [sorted(c) for c in strongly_connected_components(rows, n)]
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    radii, local = [], []
    iterations = 0
    for ci, comp in enumerate(comps):
        if len(comp) == 1:
            radii.append(one if comp[0] in _row_iter(rows, comp[0]) else zero)
            local.append([one])
            continue
        radius, x, steps = _power_iteration(_restrict(rows, comp, comp_of, ci),
                                            len(comp), one, zero, conv)
        iterations += steps
        radii.append(radius)
        local.append(x)
    beta = max(radii)
    eps = max(float(beta), 1.0) * 1e-9
    basic = [float(beta - r) <= eps for r in radii]
    # comps are in reverse topological order: every edge between two
    # components runs from a later-listed one to an earlier-listed one
    below_basic = [False] * len(comps)
    for ci in reversed(range(len(comps))):
        if basic[ci] or below_basic[ci]:
            for v in comps[ci]:
                for w in _row_iter(rows, v):
                    if comp_of[w] != ci:
                        below_basic[comp_of[w]] = True
    target = next(ci for ci in range(len(comps))
                  if basic[ci] and not below_basic[ci])
    x = [zero] * n
    for v, xv in zip(comps[target], local[target]):
        x[v] = xv
    reaches = [False] * len(comps)
    reaches[target] = True
    for ci in range(target + 1, len(comps)):
        comp = comps[ci]
        if not any(reaches[comp_of[w]] for v in comp for w in _row_iter(rows, v)):
            continue
        reaches[ci] = True
        inflow = []
        for v in comp:
            s = zero
            for w in _row_iter(rows, v):
                if comp_of[w] != ci:
                    s = s + x[w]
            inflow.append(s)
        y, steps = _upstream_solve(_restrict(rows, comp, comp_of, ci), inflow,
                                   beta, radii[ci], zero, conv)
        iterations += steps
        for v, yv in zip(comp, y):
            x[v] = yv
    v, residual = _normalize_eigenpair(rows, x, beta, zero)
    if residual > PERRON_TOL * max(float(beta), 1.0):
        raise NonConvergence(f"Perron residual {residual:.3e} above tol*beta")
    warning = None
    if beta <= 1:
        warning = "spectral radius <= 1: no positive entropy"
    return PerronResult(beta, tuple(v), residual, iterations,
                        method="power" if len(comps) == 1 else "scc",
                        warning=warning)


def _power_iteration(rows, n, one, zero, conv):
    """(radius, eigenvector, steps) of an irreducible matrix.

    Power iteration on M + I: the shift makes an irreducible matrix
    primitive, so the iteration converges whatever its period.  After
    MAX_POWER_STEPS it returns its last iterate, and the caller's
    residual test decides.
    """
    x = [one / n for _ in range(n)]
    lam = one
    for it in range(1, MAX_POWER_STEPS + 1):
        mx = _matvec(rows, x, zero)
        y = [mx[i] + x[i] for i in range(n)]
        num = zero
        den = zero
        for i in range(n):
            num = num + x[i] * y[i]
            den = den + x[i] * x[i]
        lam = num / den
        resid = max(abs(y[i] - lam * x[i]) for i in range(n))
        total = zero
        for yi in y:
            total = total + yi
        x = [yi / total for yi in y]
        if float(resid) <= conv * float(lam):
            return lam - 1, x, it
    return lam - 1, x, MAX_POWER_STEPS


def _upstream_solve(rows, inflow, beta, radius, zero, conv):
    """(y, steps) solving (beta I - M) y = inflow on one component.

    The component's radius is below beta.  A singleton is one division;
    a larger component iterates y <- (inflow + M y) / beta, which
    contracts at the rate radius / beta.
    """
    if len(rows) == 1:
        return [inflow[0] / (beta - radius)], 0
    y = [zero] * len(rows)
    for it in range(1, MAX_POWER_STEPS + 1):
        my = _matvec(rows, y, zero)
        ny = [(inflow[k] + my[k]) / beta for k in range(len(rows))]
        delta = max(abs(ny[k] - y[k]) for k in range(len(rows)))
        y = ny
        if float(delta) <= conv * max(float(beta), 1.0):
            return y, it
    return y, MAX_POWER_STEPS


def _normalize_eigenpair(rows, x, beta, zero):
    total = zero
    for xi in x:
        total = total + xi
    v = [xi / total for xi in x]
    mv = _matvec(rows, v, zero)
    residual = max(float(abs(mv[i] - beta * v[i])) for i in range(len(v)))
    return v, residual


# -- strongly connected component machinery ---------------------------------

def strongly_connected_components(rows, n) -> list:
    """Iterative Tarjan; components in reverse topological order."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    assigned = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if index[root]:
            continue
        work = [(root, iter(_row_iter(rows, root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(_row_iter(rows, w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    assigned[w] = True
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


class MixingReport(NamedTuple):
    irreducible: bool
    primitive: bool


def is_mixing_matrix(M) -> MixingReport:
    """Irreducibility (strong connectivity) and primitivity of a 0/1 matrix.

    Primitivity is irreducibility plus gcd 1 of cycle lengths, computed
    from BFS level differences along edges.
    """
    rows = _rows_from_matrix(M)
    n = len(rows)
    comps = strongly_connected_components(rows, n)
    if len(comps) != 1:
        return MixingReport(False, False)
    if n == 1:
        has_loop = 0 in list(_row_iter(rows, 0))
        return MixingReport(has_loop, has_loop)
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for w in _row_iter(rows, u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    g = 0
    for u in range(n):
        for w in _row_iter(rows, u):
            g = math.gcd(g, dist[u] + 1 - dist[w])
    return MixingReport(True, g == 1)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------

def transition_matrix(f: PwaMap, cells: Sequence[Tuple[Fraction, Fraction]]):
    """Dense 0/1 matrix: row A has 1s exactly on cells covered by f(A).

    Constant cells give zero rows.  Each cell [lo, hi] needs lo < hi,
    and f must be monotone or constant and continuous on it.
    """
    if len(cells) > DENSE_MATRIX_CAP:
        raise BudgetExceeded(
            f"dense transition matrix capped at {DENSE_MATRIX_CAP} cells"
        )
    f_laps = laps(f)
    starts = [lap.lo for lap in f_laps]
    infos = []
    for lo, hi in cells:
        lo, hi = Fraction(lo), Fraction(hi)
        y0, y1 = f.eval(lo, RIGHT), f.eval(hi, LEFT)
        if lo >= hi:
            raise PreconditionError(f"empty cell [{lo}, {hi}]")
        sign = _cell_direction(f_laps, starts, lo, hi)
        if isinstance(sign, str):
            raise PreconditionError(sign)
        infos.append((sign, min(y0, y1), max(y0, y1)))
    out = []
    for sign, ylo, yhi in infos:
        if sign == 0:
            out.append([0] * len(cells))
            continue
        row = []
        for blo, bhi in cells:
            row.append(1 if ylo <= blo and bhi <= yhi else 0)
        out.append(row)
    return out


def parse_matrix(text: str):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "matrix":
        raise FormatError(f"bad matrix header: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"bad matrix size: {head[1]!r}")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} rows, found {len(lines) - 1}")
    out = []
    for ln in lines[1:]:
        row = ln.split()
        if len(row) != n or any(e not in ("0", "1") for e in row):
            raise FormatError(f"bad matrix row: {ln!r}")
        out.append([int(e) for e in row])
    return out


def serialize_matrix(M) -> str:
    lines = [f"matrix {len(M)}"]
    for row in M:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the validated structure
# ---------------------------------------------------------------------------

class MarkovStructure(NamedTuple):
    map: PwaMap
    points: tuple                # P, sorted Fractions
    directions: tuple            # +1/-1/0 per cell
    covers: tuple                # half-open (lo, hi) cell ranges; (j, j) for constant
    perron: PerronResult
    numeric: str                 # "mp" | "float"

    @property
    def beta(self):
        return self.perron.beta

    @property
    def v(self):
        return self.perron.v

    @property
    def cell_count(self) -> int:
        return len(self.points) - 1

    def prefix_sums(self):
        """V[0..K] with V[i] = sum of v over the first i cells."""
        zero = self.v[0] * 0
        out = [zero]
        acc = zero
        for x in self.v:
            acc = acc + x
            out.append(acc)
        return out


def structure_from_points(f: PwaMap, points: Sequence[Fraction],
                          numeric: str = "auto") -> MarkovStructure:
    """Validate P and assemble the full structure (matrix + Perron pair)."""
    check, cells = _check_points(f, points)
    if not check:
        raise PreconditionError(
            f"not Markov for the given points: {check.reason} at {check.witness}"
        )
    pts, directions, covers = cells
    pr = perron(covers, numeric=numeric)
    mode = "float" if isinstance(pr.beta, float) else "mp"  # perron's choice
    return MarkovStructure(f, pts, directions, covers, pr, mode)


def markov_closure(f: PwaMap, max_points: int = MAX_CLOSURE_POINTS,
                   extra_seeds: Sequence[Fraction] = ()) -> MarkovStructure:
    """Close the lap-endpoint set under exact one-sided images.

    Raises BudgetExceeded when the orbit does not close within
    max_points: the map is (effectively) not Markov and the caller
    should use the approximation pipeline.  extra_seeds join the
    initial set (e.g. the cut points of a flattened graph).
    """
    a, b = f.domain
    pts = {a, b}
    for s in extra_seeds:
        pts.add(Fraction(s))
    for lap in laps(f):
        pts.add(lap.lo)
        pts.add(lap.hi)
    frontier = list(pts)
    while frontier:
        if len(pts) > max_points:
            raise BudgetExceeded(
                f"Markov closure exceeded {max_points} points"
            )
        p = frontier.pop()
        for side in (LEFT, RIGHT):
            if (side == LEFT and p == a) or (side == RIGHT and p == b):
                continue
            y = f.eval(p, side)
            if y not in pts:
                pts.add(y)
                frontier.append(y)
    return structure_from_points(f, sorted(pts))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

class Refinement(NamedTuple):
    """The n-fold pullback partition of a Markov structure.

    points is P_n exactly; per cell, image_elem is the base-cell index
    of the n-step image, or -1 when that image is a single point.
    """

    depth: int
    points: tuple
    image_elem: tuple

    @property
    def nonsingleton_count(self) -> int:
        return sum(1 for e in self.image_elem if e >= 0)


def _inverse_branches(s: MarkovStructure) -> list:
    """Per base cell, its inverse branch as affine pieces in image order.

    Each monotone cell gets a list of (y_top, 1/slope, offset) over the
    segments of f meeting the cell, ordered by increasing image value:
    a value y of the cell's image inverts through the first piece with
    y <= y_top as x = y / slope + offset.  Constant cells get None.
    Segments and cells are both sorted, so one merge pass pairs them.
    """
    f = s.map
    segs = f.segments
    pts = s.points
    out = []
    k = 0
    for i, d in enumerate(s.directions):
        lo, hi = pts[i], pts[i + 1]
        while segs[k].x1 <= lo:
            k += 1
        if d == 0:
            out.append(None)
            continue
        pieces = []
        m = k
        while True:
            seg = segs[m]
            inv = 1 / seg.slope
            pieces.append((max(seg.y0, seg.y1), inv, seg.x0 - seg.y0 * inv))
            if seg.x1 >= hi:
                break
            m += 1
        if d < 0:
            pieces.reverse()
        out.append(pieces)
    return out


def refinements(s: MarkovStructure, max_points: int = 2_000_000):
    """Yield the refinements of depth 0, 1, 2, ... with image tracking.

    P_{k+1} = P_k u f^{-1}(P_k) is assembled cell by cell: inside base
    cell i it is the inverse branch of the cell applied to the slice of
    P_k that lies in f(cell_i), reversed on decreasing cells, and the
    n-step images of the new cells are the same slice of image_elem.
    A constant cell stays one cell with a single-point image.  Raises
    BudgetExceeded before building a level with more than max_points.
    """
    branches = _inverse_branches(s)
    covers = s.covers
    base_count = s.cell_count
    pts = list(s.points)
    image = list(range(base_count))
    pos = list(range(len(pts)))  # index of each base point within P_k
    depth = 0
    while True:
        yield Refinement(depth, tuple(pts), tuple(image))
        cells = 0
        for i in range(base_count):
            if branches[i] is None:
                cells += 1
            else:
                lo, hi = covers[i]
                cells += pos[hi] - pos[lo]
        if cells + 1 > max_points:
            raise BudgetExceeded(f"refinement exceeded {max_points} points")
        new_pts = [pts[0]]
        new_image = []
        new_pos = [0]
        for i in range(base_count):
            pieces = branches[i]
            if pieces is None:
                new_pts.append(s.points[i + 1])
                new_image.append(-1)
                new_pos.append(len(new_pts) - 1)
                continue
            lo, hi = covers[i]
            ja, jb = pos[lo], pos[hi]
            xs = []
            m = 0
            top, inv, offset = pieces[0]
            for q in pts[ja:jb + 1]:
                while q > top:
                    m += 1
                    top, inv, offset = pieces[m]
                xs.append(q * inv + offset)
            elems = image[ja:jb]
            if s.directions[i] < 0:
                xs.reverse()
                elems.reverse()
            new_pts.extend(xs[1:])
            new_image.extend(elems)
            new_pos.append(len(new_pts) - 1)
        pts, image, pos = new_pts, new_image, new_pos
        depth += 1


def refine(s: MarkovStructure, n: int, max_points: int = 2_000_000) -> Refinement:
    """Exact A_n / P_n with image tracking; P_{k+1} = P_k u f^{-1}(P_k)."""
    if n < 0:
        raise PreconditionError("refinement depth must be >= 0")
    for r in refinements(s, max_points=max_points):
        if r.depth == n:
            return r
