"""The residual grid is built sorted, and every lookup follows one rule.

The set-and-sort grid, the per-point snap to a detached table and the
two-loop locate_leq (bisect the float shadow, then correct the landing
exactly downwards and upwards) are kept here as oracles: the sorted
grid, the one-merge snap and locate_leq's float order must give the
same points, the same indices and bit-identical psi values.
"""

import bisect
import builtins
import math
import random
from fractions import Fraction as F

import pytest

from slopeforge import fixtures, semiconjugacy
from slopeforge.approximation import (
    PIPELINE_TABLE_POINTS,
    _grid,
    _snap_to_table,
    markov_approx,
    normalize,
    verify_semiconjugacy,
)
from slopeforge.markov import markov_closure, structure_from_points
from slopeforge.pwmap import LEFT, RIGHT, PwaMap, locate_leq, merge_sorted
from slopeforge.semiconjugacy import build_psi, psi_from_tsv, psi_to_tsv


def set_and_sort_grid(f, grid_points):
    """The grid as it was built before: a set of equispaced points and
    nodes, then sorted."""
    a, b = f.domain
    width = b - a
    return sorted({n.x for n in f.nodes}
                  | {a + width * F(k, grid_points) for k in range(grid_points + 1)})


def per_point_snap(grid, txs):
    """The detached snap as it was: a locate_leq per grid point, a set
    of table points, then sorted."""
    snapped = set()
    txsf = [float(t) for t in txs]
    for x in grid:
        i = locate_leq(txs, txsf, x)
        if i < 0 or txs[i] != x:
            i += 1
        if i >= len(txs):
            i = len(txs) - 1
        snapped.add(txs[i])
        if i > 0:
            snapped.add(txs[i - 1])
    return sorted(snapped)


def two_loop_locate_leq(pts, pts_float, x):
    """locate_leq as it was: the float bisection, then exact corrections
    in both directions."""
    j = bisect.bisect_right(pts_float, float(x)) - 1
    n = len(pts)
    while j >= 0 and pts[j] > x:
        j -= 1
    while j + 1 < n and pts[j + 1] <= x:
        j += 1
    return j


def random_map(rng, grid_points):
    """A map on a random rational domain, some nodes on the grid of
    grid_points intervals and some off it."""
    a = F(rng.randint(-20, 20), rng.choice((1, 3, 7)))
    b = a + F(rng.randint(1, 30), rng.choice((1, 2, 5, 9)))
    xs = {a, b}
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            xs.add(a + (b - a) * F(rng.randint(0, grid_points), grid_points))
        else:
            xs.add(a + (b - a) * F(rng.randint(1, 999), 1000))
    xs = sorted(xs)
    ys = [a + (b - a) * F(rng.randint(0, 16), 16) for _ in xs]
    return PwaMap.from_pairs(list(zip(xs, ys)))


FIXTURES = [fixtures.tent(), fixtures.skew_tent(), fixtures.golden(),
            fixtures.trapezoid(), fixtures.doubling(), fixtures.bimodal_nonmarkov(),
            fixtures.tent_slope(F(3, 2))]


def test_sorted_grid_matches_set_and_sort():
    rng = random.Random(17)
    cases = [(f, n) for f in FIXTURES for n in (1, 2, 3, 7, 12, 64, 4096)]
    for _ in range(300):
        n = rng.choice(list(range(1, 40)) + [64, 100, 1000])
        cases.append((random_map(rng, n), n))
    for f, n in cases:
        got = _grid(f, n)
        assert got == set_and_sort_grid(f, n), (f, n)
        assert all(u < w for u, w in zip(got, got[1:]))


def test_merge_sorted_is_the_sorted_union():
    rng = random.Random(5)
    for _ in range(500):
        xs = sorted({F(rng.randint(-50, 50), rng.randint(1, 6)) for _ in range(rng.randint(0, 30))})
        ys = sorted({F(rng.randint(-50, 50), rng.randint(1, 6)) for _ in range(rng.randint(0, 30))})
        assert merge_sorted(xs, ys) == sorted(set(xs) | set(ys))


def test_one_merge_snap_matches_the_per_point_snap():
    rng = random.Random(11)
    txs = sorted({F(k, 97) for k in range(98)} | {F(5, 12)})
    cases = [(_grid(f, 50), txs) for f in FIXTURES]
    for _ in range(400):
        n = rng.randint(1, 60)
        grid = _grid(random_map(rng, n), n)
        lo, hi = grid[0], grid[-1]
        # tables inside, around and beyond the grid, some with repeated points
        span = hi - lo
        t_lo = lo + span * F(rng.randint(-3, 3), 8)
        t_hi = t_lo + span * F(rng.randint(1, 12), 8)
        m = rng.randint(1, 40)
        txs = sorted(t_lo + (t_hi - t_lo) * F(rng.randint(0, 4 * m), 4 * m)
                     for _ in range(m))
        if rng.random() < 0.5:
            txs = sorted(set(txs) | set(rng.sample(grid, min(len(grid), 5))))
        cases.append((grid, txs))
    for grid, txs in cases:
        assert _snap_to_table(grid, txs) == per_point_snap(grid, txs), (grid, txs)


# -- the psi descent -----------------------------------------------------------

@pytest.fixture(scope="module")
def markov_tables():
    return [build_psi(markov_closure(f), 1e-9, max_table_points=1025)
            for f in (fixtures.skew_tent(), fixtures.golden(), fixtures.tent(),
                      fixtures.trapezoid(), fixtures.skew_tent(F(7, 13)))]


@pytest.fixture(scope="module")
def approximant_tables():
    tables = []
    for f, n in ((fixtures.tent_slope(F(3, 2)), 16), (fixtures.tent75(), 8),
                 (fixtures.bimodal_nonmarkov(), 8)):
        g, cfg = markov_approx(f, n)
        s = structure_from_points(g, cfg.points, numeric="float")
        tables.append(build_psi(s, 1e-5, max_table_points=PIPELINE_TABLE_POINTS))
    return tables


def _probe_points(psi, rng):
    """Partition and table points, their float neighbours as Fractions,
    rationals that share a partition point's float, both domain ends
    and random interior points."""
    s = psi.structure
    a, b = s.points[0], s.points[-1]
    out = {a, b}
    anchors = list(s.points) + rng.sample(psi.xs, min(len(psi.xs), 40))
    for p in anchors:
        out.add(p)
        pf = float(p)
        for toward in (-math.inf, math.inf):
            out.add(F(math.nextafter(pf, toward)))
        for sign in (1, -1):
            q = p + sign * (abs(p) / (3 * 2**70) if p else F(1, 3 * 2**1100))
            assert float(q) == pf and q != p
            out.add(q)
    for _ in range(200):
        out.add(a + (b - a) * F(rng.randint(0, 10**6), 10**6))
    return sorted(x for x in out if a <= x <= b)


def test_float_first_lookup_gives_bit_identical_psi(monkeypatch, markov_tables,
                                                    approximant_tables):
    rng = random.Random(3)
    for psi in markov_tables + approximant_tables:
        xs = _probe_points(psi, rng)
        fast = [psi._descend_float(x) for x in xs]
        exact = [psi.eval(x) for x in xs]
        with monkeypatch.context() as m:
            m.setattr(semiconjugacy, "locate_leq", two_loop_locate_leq)
            want_fast = [psi._descend_float(x) for x in xs]
            want_exact = [psi.eval(x) for x in xs]
        for x, u, w in zip(xs, fast, want_fast):
            assert u == w and type(u) is type(w), x
            if u is not None:
                assert math.copysign(1.0, u) == math.copysign(1.0, w)
        assert exact == want_exact


def test_float_table_lookup_gives_bit_identical_values(monkeypatch, markov_tables):
    rng = random.Random(4)
    for psi in markov_tables:
        table = psi_from_tsv(psi_to_tsv(psi))
        txs = table.xs
        xs = set(txs)
        for t in rng.sample(range(len(txs) - 1), min(len(txs) - 1, 200)):
            u, w = txs[t], txs[t + 1]
            xs.add((u + w) / 2)
            xs.add(u + (w - u) * F(rng.randint(1, 10**6 - 1), 10**6))
            xs.add(F(math.nextafter(float(w), -math.inf)))
            xs.add(w - w / (3 * 2**70))
        xs = sorted(x for x in xs if txs[0] <= x <= txs[-1])
        got = [table.eval(x) for x in xs]
        with monkeypatch.context() as m:
            m.setattr(semiconjugacy, "locate_leq", two_loop_locate_leq)
            want = [table.eval(x) for x in xs]
        assert got == want


def test_locate_leq_matches_the_two_loop_oracle(monkeypatch):
    rng = random.Random(9)
    pts = {F(rng.randint(-10**6, 10**6), 10**6) for _ in range(300)}
    # distinct points that share one float, and points that underflow next to 0
    tie = F(1, 3 * 2**70)
    pts |= {F(1, 3), F(1, 3) + tie, F(2, 3), F(2, 3) - tie,
            F(0), F(1, 10**400), F(2, 10**400), F(-1, 10**400)}
    pts = sorted(pts)
    assert float(F(1, 10**400)) == 0.0 == float(F(-1, 10**400))
    orders = []
    real_richcmp = F._richcmp

    def counted_richcmp(a, b, op):
        orders.append(1)
        return real_richcmp(a, b, op)

    separated = 0
    # repeated points, and the shortest arrays
    for pts in (pts, sorted(pts + pts[::7]), pts[:1], pts[150:152]):
        ptsf = [float(p) for p in pts]
        xs = {pts[0] - 1, pts[-1] + 1}
        for p in pts:
            xs |= {F(math.nextafter(float(p), t)) for t in (math.inf, -math.inf)}
            xs |= {p + d for d in (0, tie, -tie, F(1, 10**7), -F(1, 10**7),
                                   F(1, 10**401), -F(1, 10**401))}
        for x in sorted(xs):
            want = two_loop_locate_leq(pts, ptsf, x)
            with monkeypatch.context() as m:
                m.setattr(F, "_richcmp", counted_richcmp)
                orders.clear()
                got = locate_leq(pts, ptsf, x)
            assert got == want, (x, pts)
            if float(x) not in ptsf:
                separated += 1
                assert not orders, x  # a start the floats separate
        # beyond the float range: as an infinity
        assert locate_leq(pts, ptsf, F(10**400)) == len(pts) - 1
        assert locate_leq(pts, ptsf, -F(10**400)) == -1
    assert separated > 1000


# -- work counts ---------------------------------------------------------------

def test_structure_backed_verify_makes_no_per_point_lookups(monkeypatch):
    # float order decides the psi lookups of the grid and of its images;
    # what is left is the sides pass over the sorted grid, about two
    # Fraction comparisons a point.  An exact lookup per psi evaluation
    # made 93,189 comparisons here, and with per-call domain checks 16,437.
    # The grid was a set of 4,098 points, sorted.
    f = fixtures.skew_tent(F(5, 12))
    tr = normalize(f, target=1e-6)
    orders, sorts = [], []
    real_richcmp = F._richcmp

    def counted_richcmp(a, b, op):
        orders.append(1)
        return real_richcmp(a, b, op)

    real_sorted = builtins.sorted

    def recorded_sorted(items, *args, **kwargs):
        out = real_sorted(items, *args, **kwargs)
        sorts.append(any(isinstance(v, F) for v in out))
        return out

    with monkeypatch.context() as m:
        m.setattr(F, "_richcmp", counted_richcmp)
        m.setattr(builtins, "sorted", recorded_sorted)
        rep = verify_semiconjugacy(f, tr.final_g.map, tr.final_psi)
    assert rep.grid_points == 4098  # k/4096 and the node 5/12
    assert rep.residual < 1e-6
    assert len(orders) <= 2 * rep.grid_points + 100, len(orders)
    assert not any(sorts)


def fresh_residual(f, g, psi, grid_points):
    """verify_semiconjugacy's residual with psi evaluated afresh at every
    use: at each grid point and at each of its one-sided images."""
    xs = _grid(f, grid_points)
    worst = 0.0
    for x, (yl, yr) in zip(xs, f.sides(xs)):
        if f.is_continuous and yr is not None:
            yl = None
        for side, y in ((LEFT, yl), (RIGHT, yr)):
            if y is not None:
                rhs = g.eval_float(float(psi.eval(x, fast=True)), side)
                worst = max(worst, abs(float(psi.eval(y, fast=True)) - rhs))
    return worst


def test_verify_evaluates_each_distinct_point_once(monkeypatch):
    # golden maps its dyadic grid into itself: 4,097 grid points and
    # their 4,097 images are 4,097 distinct points, each descended once
    f = fixtures.golden()
    tr = normalize(f, target=1e-6)
    psi, g = tr.final_psi, tr.final_g.map
    calls = []
    real = semiconjugacy.PsiTable._descend_float

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    with monkeypatch.context() as m:
        m.setattr(semiconjugacy.PsiTable, "_descend_float", counted)
        rep = verify_semiconjugacy(f, g, psi, grid_points=4096)
    assert rep.grid_points == 4097
    assert len(calls) == len(set(calls)) == 4097
    assert rep.residual == fresh_residual(f, g, psi, 4096)
