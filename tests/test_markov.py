import random
from fractions import Fraction as F

import pytest

from conftest import random_grid_map
from slopeforge import fixtures
from slopeforge.errors import (
    BudgetExceeded,
    FormatError,
    NonConvergence,
    PreconditionError,
)
from slopeforge.graphmap import flatten, parse_graph
from slopeforge.markov import (
    _check_points,
    is_markov,
    is_mixing_matrix,
    markov_closure,
    parse_matrix,
    perron,
    refine,
    serialize_matrix,
    transition_matrix,
)
from slopeforge.pwmap import LEFT, RIGHT, PwaMap, preimage_points

PHI = (1 + 5**0.5) / 2


def dense(s):
    """The 0/1 transition matrix of a structure, from its map and cells."""
    return transition_matrix(s.map, list(zip(s.points, s.points[1:])))


# -- independent oracle: largest characteristic root by bisection -----------

def char_poly(M):
    """Characteristic polynomial coefficients of det(xI - M), exactly.

    Faddeev-LeVerrier over Fractions; independent of the power-iteration
    path under test.
    """
    n = len(M)
    A = [[F(e) for e in row] for row in M]
    coeffs = [F(1)]
    Mk = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        Mk[i][i] = F(1)
    B = [row[:] for row in Mk]
    for k in range(1, n + 1):
        AB = [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(AB[i][i] for i in range(n)) / k
        coeffs.append(c)
        B = [[AB[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return coeffs  # x^n + c1 x^(n-1) + ... + cn


def poly_divmod(num, den):
    num = num[:]
    q = [F(0)] * (len(num) - len(den) + 1)
    for i in range(len(q)):
        coef = num[i] / den[0]
        q[i] = coef
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    rem = [c for c in num[len(q):]]
    while rem and rem[0] == 0:
        rem.pop(0)
    return q, rem


def square_free(coeffs):
    """coeffs / gcd(coeffs, coeffs'), so every root becomes simple."""
    def deriv(p):
        n = len(p) - 1
        return [c * (n - i) for i, c in enumerate(p[:-1])]

    def gcd(a, b):
        while b:
            _, r = poly_divmod(a, b)
            a, b = b, r
        lead = a[0]
        return [c / lead for c in a]

    g = gcd(coeffs, deriv(coeffs))
    if len(g) == 1:
        return coeffs
    q, _ = poly_divmod(coeffs, g)
    return q


def largest_root_bisect(coeffs, hi):
    coeffs = square_free(coeffs)

    def p(x):
        acc = F(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo = F(0)
    hi = F(hi)
    # p(x) > 0 for x above the largest root (monic, simple roots)
    assert p(hi) > 0
    step = (hi - lo) / 4096
    x = hi
    while x > lo and p(x) > 0:
        x -= step
    if p(x) > 0:
        return 0.0  # no root above 0 found at this resolution
    a, b = x, x + step
    for _ in range(80):
        mid = (a + b) / 2
        if p(mid) > 0:
            b = mid
        else:
            a = mid
    return float((a + b) / 2)


# -- is_markov ---------------------------------------------------------------

def test_is_markov_tent():
    assert is_markov(fixtures.tent(), [0, F(1, 2), 1])


def test_is_markov_witness():
    chk = is_markov(fixtures.tent(), [0, F(1, 3), 1])
    assert not chk
    assert chk.witness == (F(1, 3), F(2, 3))


def test_is_markov_golden():
    assert is_markov(fixtures.golden(), [0, F(1, 2), 1])


def test_is_markov_needs_endpoints():
    chk = is_markov(fixtures.tent(), [F(1, 2), 1])
    assert not chk and "endpoints" in chk.reason


def test_is_markov_checks_every_image_before_any_cell():
    # the cell [0, 3/4] folds, and the image 1/2 of 3/4 escapes P: the
    # image fault is reported although its cell comes first
    chk = is_markov(fixtures.tent(), [0, F(3, 4), 1])
    assert not chk
    assert chk.reason == "image of a P point escapes P"
    assert chk.witness == (F(3, 4), F(1, 2))
    chk = is_markov(fixtures.tent(), [0, 1])
    assert chk.reason.startswith("not strictly-monotone-or-constant")
    assert chk.witness == (0, 1)


# -- closure ------------------------------------------------------------------

def test_closure_tent():
    s = markov_closure(fixtures.tent(), 100)
    assert s.points == (0, F(1, 2), 1)


def test_closure_skew_tent():
    s = markov_closure(fixtures.skew_tent(F(5, 12)), 100)
    assert s.points == (0, F(5, 12), 1)


def test_closure_budget_failure():
    with pytest.raises(BudgetExceeded):
        markov_closure(fixtures.tent_slope(F(3, 2)), 50)


def test_closure_trapezoid():
    s = markov_closure(fixtures.trapezoid(), 100)
    assert s.points == (0, F(2, 5), F(3, 5), 1)
    assert s.directions == (1, 0, -1)


# -- transition matrices -------------------------------------------------------

def test_transition_tent():
    cells = [(0, F(1, 2)), (F(1, 2), 1)]
    assert transition_matrix(fixtures.tent(), cells) == [[1, 1], [1, 1]]


def test_transition_golden():
    cells = [(0, F(1, 2)), (F(1, 2), 1)]
    assert transition_matrix(fixtures.golden(), cells) == [[0, 1], [1, 1]]


def test_transition_trapezoid_zero_row():
    cells = [(0, F(2, 5)), (F(2, 5), F(3, 5)), (F(3, 5), 1)]
    M = transition_matrix(fixtures.trapezoid(), cells)
    assert M[1] == [0, 0, 0]
    assert M[0] == [1, 1, 1] and M[2] == [1, 1, 1]


def test_transition_rejects_non_monotone_cell():
    with pytest.raises(PreconditionError):
        transition_matrix(fixtures.tent(), [(0, 1)])


def test_transition_rejects_empty_cell():
    # a cell is judged by the lap that holds it, which needs lo < hi
    for cell in [(F(1, 4), F(1, 4)), (F(3, 4), F(1, 4))]:
        with pytest.raises(PreconditionError, match="empty cell"):
            transition_matrix(fixtures.tent(), [cell])


# -- oracle: the per-segment walk that judged cells before laps() did --------

def walk_cell(f, lo, hi, y0, y1):
    """(direction, y_lo, y_hi) of f on [lo, hi], or a violation string.

    y0 = f(lo+) and y1 = f(hi-).  Walks the segments of f across the
    cell; the last two tests cannot fire on a continuous cell.
    """
    i0 = f.segment_index(lo, RIGHT)
    i1 = f.segment_index(hi, LEFT)
    sign = None
    for i in range(i0, i1 + 1):
        s = f.segments[i].slope
        d = (s > 0) - (s < 0)
        if sign is None:
            sign = d
        elif d != sign:
            return f"not strictly-monotone-or-constant on [{lo}, {hi}]"
        if i > i0:
            node = f.nodes[i]
            if node.y_left != node.y_right:
                return f"discontinuity at {node.x} inside [{lo}, {hi}]"
    if sign == 0 and y0 != y1:
        return f"inconsistent plateau on [{lo}, {hi}]"
    if sign != 0 and y0 == y1:
        return f"not strictly-monotone-or-constant on [{lo}, {hi}]"
    return (sign, min(y0, y1), max(y0, y1))


def oracle_check(f, points):
    """(ok, reason, witness, cells) of _check_points, by one eval per
    point and side and walk_cell per cell."""
    a, b = f.domain
    pts = [F(p) for p in points]
    if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
        return False, "points not sorted/distinct", tuple(pts), None
    if not pts or pts[0] != a or pts[-1] != b:
        return False, "endpoints missing from P", (a, b), None
    index = {p: i for i, p in enumerate(pts)}
    for p in pts:
        for side in (LEFT, RIGHT):
            if (side == LEFT and p == a) or (side == RIGHT and p == b):
                continue
            y = f.eval(p, side)
            if y not in index:
                return False, "image of a P point escapes P", (p, y), None
    directions, covers = [], []
    for i, (lo, hi) in enumerate(zip(pts, pts[1:])):
        res = walk_cell(f, lo, hi, f.eval(lo, RIGHT), f.eval(hi, LEFT))
        if isinstance(res, str):
            return False, res, (lo, hi), None
        sign, ylo, yhi = res
        directions.append(sign)
        covers.append((i, i) if sign == 0 else (index[ylo], index[yhi]))
    return True, None, None, (tuple(pts), tuple(directions), tuple(covers))


def oracle_transition(f, cells):
    rows = []
    for lo, hi in cells:
        res = walk_cell(f, lo, hi, f.eval(lo, RIGHT), f.eval(hi, LEFT))
        if isinstance(res, str):
            raise PreconditionError(res)
        sign, ylo, yhi = res
        rows.append([0 if sign == 0 else int(ylo <= blo and bhi <= yhi)
                     for blo, bhi in cells])
    return rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return ("error", str(exc))


def image_closure(f, seeds, budget=64):
    """Sorted closure of seeds and the domain ends under one-sided
    images, or None past the budget."""
    a, b = f.domain
    pts = {a, b} | set(seeds)
    frontier = list(pts)
    while frontier:
        if len(pts) > budget:
            return None
        p = frontier.pop()
        for side in (LEFT, RIGHT):
            if (side == LEFT and p == a) or (side == RIGHT and p == b):
                continue
            y = f.eval(p, side)
            if y not in pts:
                pts.add(y)
                frontier.append(y)
    return sorted(pts)


def oracle_point_sets(f, rng):
    """Point sets that reach each of the checks: random sorted sets (with
    and without the ends), the node set, a reversed set, markov_closure's
    points, and image-closed sets that need not contain the lap ends of f."""
    a, b = f.domain
    grid = sorted({n.x for n in f.nodes} | {a + (b - a) * F(k, 16) for k in range(17)})
    sets = [sorted(rng.sample(grid, rng.randint(1, len(grid)))) for _ in range(2)]
    sets.append(sorted({a, b} | set(rng.sample(grid, rng.randint(0, len(grid))))))
    sets.append([n.x for n in f.nodes])
    sets.append(grid[::-1])
    try:
        sets.append(list(markov_closure(f, 64).points))
    except (BudgetExceeded, NonConvergence):
        pass
    for seeds in ((), rng.sample(grid, 2)):
        closed = image_closure(f, seeds)
        if closed is not None:
            sets.append(closed)
    return sets


ORACLE_FIXTURES = [fixtures.tent, fixtures.doubling, fixtures.golden,
                   fixtures.skew_tent, lambda: fixtures.tent_slope(F(3, 2)),
                   fixtures.trapezoid, fixtures.flat_trapezoid,
                   fixtures.low_trapezoid, fixtures.identity_map,
                   fixtures.core_tent32, fixtures.tent75,
                   fixtures.bimodal_nonmarkov]


def test_cells_from_laps_agree_with_the_segment_walk():
    # is_markov's (ok, reason, witness), its cells, and transition_matrix
    # (or its PreconditionError message) against the oracle
    rng = random.Random(1501)
    maps = [make() for make in ORACLE_FIXTURES]
    maps += [random_grid_map(rng) for _ in range(300)]
    reasons = set()
    for f in maps:
        for pts in oracle_point_sets(f, rng):
            ok, reason, witness, cells = oracle_check(f, pts)
            chk, got_cells = _check_points(f, pts)
            assert (chk.ok, chk.reason, chk.witness, got_cells) == (
                ok, reason, witness, cells), (f.nodes, pts)
            reasons.add(reason.split(" ")[0] if reason else None)
            if len(pts) > 1 and pts == sorted(set(pts)):
                boxes = list(zip(pts, pts[1:]))
                assert outcome(transition_matrix, f, boxes) == outcome(
                    oracle_transition, f, boxes), (f.nodes, pts)
    # every check was reached
    assert reasons == {None, "points", "endpoints", "image", "not", "discontinuity"}


def test_matrix_text_round_trip():
    M = [[1, 1, 0], [0, 0, 1], [1, 0, 1]]
    assert parse_matrix(serialize_matrix(M)) == M


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_parse_matrix_empty_is_format_error(text):
    with pytest.raises(FormatError, match="empty"):
        parse_matrix(text)


# -- perron ---------------------------------------------------------------------

def test_perron_all_ones():
    pr = perron([[1, 1], [1, 1]])
    assert abs(float(pr.beta) - 2) < 1e-30
    assert all(abs(float(x) - 0.5) < 1e-30 for x in pr.v)


def test_perron_golden_closed_form():
    pr = perron([[0, 1], [1, 1]])
    assert abs(float(pr.beta) - PHI) < 1e-15
    assert abs(float(pr.v[0]) - (3 - 5**0.5) / 2) < 1e-15
    assert abs(float(pr.v[1]) - (5**0.5 - 1) / 2) < 1e-15


def test_perron_trivial_warns():
    pr = perron([[1]])
    assert float(pr.beta) == 1.0
    assert pr.v == (1,)
    assert pr.warning is not None


def test_perron_residual_contract():
    pr = perron([[1, 1, 1], [0, 0, 0], [1, 1, 1]])
    assert abs(float(pr.beta) - 2) < 1e-25
    assert float(pr.v[1]) <= 1e-30
    assert pr.residual <= 1e-12 * float(pr.beta)


def test_perron_reducible_defective_tie():
    # two radius-1 classes, the upper one reaching the lower: the
    # eigenvector lives on the lower class, with no power steps at all
    pr = perron([[1, 1], [0, 1]])
    assert pr.method == "scc"
    assert pr.iterations == 0
    assert abs(float(pr.beta) - 1) < 1e-12
    assert pr.v == (1, 0)


def test_perron_iterations_sum_component_solves():
    golden = [[0, 1], [1, 1]]
    swap = [[0, 1], [1, 0]]
    # cell 0 (self-loop) -> golden block {1, 2} -> swap block {3, 4}
    M = [
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    pr = perron(M)
    assert pr.method == "scc"
    assert pr.iterations == perron(golden).iterations + perron(swap).iterations
    assert pr.iterations > 0
    assert pr.v[3] == pr.v[4] == 0 and pr.v[0] > 0


def _reach(M):
    """reach[i][j]: a path of length >= 0 runs from cell i to cell j."""
    n = len(M)
    r = [[i == j or M[i][j] == 1 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                for j in range(n):
                    if r[k][j]:
                        r[i][j] = True
    return r


def _class_radius(M, c):
    if len(c) == 1:
        (i,) = c
        return float(M[i][i])
    sub = [[M[i][j] for j in sorted(c)] for i in sorted(c)]
    return largest_root_bisect(char_poly(sub), len(c) + 1)


def _block_triangular(rng):
    """Random 0/1 matrix whose diagonal blocks feed only later blocks."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    n = sum(sizes)
    M = [[0] * n for _ in range(n)]
    for b, (lo, m) in enumerate(zip(starts, sizes)):
        density = rng.choice((0.0, 0.5, 1.0))
        for i in range(lo, lo + m):
            for j in range(lo, lo + m):
                M[i][j] = int(rng.random() < density)
            for j in range(lo + m, n):
                M[i][j] = int(rng.random() < 0.3)
    return M


def test_perron_matches_char_poly_oracle():
    rng = random.Random(20260808)
    cases = [
        [[1, 1], [1, 1]],
        [[0, 1], [1, 1]],
        [[1, 1, 1], [0, 0, 0], [1, 1, 1]],
        [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
    ]
    while len(cases) < 12:
        n = rng.randint(2, 6)
        M = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if all(any(row) for row in M):
            cases.append(M)
    flat, chart = flatten(parse_graph(fixtures.COLLAPSING_CIRCLE))
    cases.append(dense(markov_closure(fixtures.low_trapezoid(), 100)))
    cases.append(dense(markov_closure(flat, 200, extra_seeds=chart.cut_points)))
    rng = random.Random(20261019)
    cases.extend(_block_triangular(rng) for _ in range(12))
    for M in cases:
        n = len(M)
        pr = perron(M)
        beta = float(pr.beta)
        root = largest_root_bisect(char_poly(M), n + 1)
        assert abs(beta - root) < 1e-9, (M, beta, root)
        v = [float(x) for x in pr.v]
        assert min(v) >= 0 and abs(sum(v) - 1) < 1e-12, (M, v)
        resid = max(abs(sum(v[j] for j in range(n) if M[i][j]) - beta * v[i])
                    for i in range(n))
        assert resid < 1e-12, (M, resid)
        # v lives on a basic class (radius beta) that no other basic
        # class reaches, and on the cells that reach it
        reach = _reach(M)
        classes = {frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
                   for i in range(n)}
        basic = [c for c in classes if abs(_class_radius(M, c) - root) < 1e-9]
        targets = [c for c in basic
                   if not any(d != c and reach[min(d)][min(c)] for d in basic)]
        assert any(all(pr.v[i] == 0 for i in range(n) if not reach[i][min(c)])
                   for c in targets), (M, v)


# -- mixing diagnostics ----------------------------------------------------------

def test_mixing_full_shift():
    r = is_mixing_matrix([[1, 1], [1, 1]])
    assert r.irreducible and r.primitive


def test_mixing_period_two():
    r = is_mixing_matrix([[0, 1], [1, 0]])
    assert r.irreducible and not r.primitive


def test_mixing_reducible():
    r = is_mixing_matrix([[1, 0], [1, 1]])
    assert not r.irreducible and not r.primitive


# -- refinement --------------------------------------------------------------------

def golden_structure():
    return markov_closure(fixtures.golden(), 100)


def test_refine_base_case():
    s = golden_structure()
    r = refine(s, 0)
    assert r.points == s.points
    assert r.image_elem == (0, 1)


def test_refine_golden_depth1():
    r = refine(golden_structure(), 1)
    assert r.points == (0, F(1, 2), F(3, 4), 1)
    # images: [0,1/2] -> B, [1/2,3/4] -> B, [3/4,1] -> A
    assert r.image_elem == (1, 1, 0)


def test_refine_tent_dyadic_levels():
    s = markov_closure(fixtures.tent(), 100)
    assert refine(s, 1).points == tuple(F(k, 4) for k in range(5))
    assert refine(s, 2).points == tuple(F(k, 8) for k in range(9))


def test_refinement_point_nesting_and_images():
    # Eq-style exactness: f(P_{n+1}) within P_n within P_{n+1}
    for fx in (fixtures.tent(), fixtures.golden(), fixtures.skew_tent(),
               fixtures.trapezoid(), fixtures.doubling()):
        s = markov_closure(fx, 200)
        prev = set(refine(s, 0).points)
        for n in range(1, 6):
            cur = set(refine(s, n).points)
            assert prev <= cur
            a, b = fx.domain
            for p in cur:
                for side in (LEFT, RIGHT):
                    if (side == LEFT and p == a) or (side == RIGHT and p == b):
                        continue
                    assert fx.eval(p, side) in prev
            prev = cur


# increasing on [0, 1/2] through a kink at 1/3 that is not a Markov point,
# so the base cell [0, 1/2] holds two affine segments
KINKED = PwaMap.from_pairs([(0, 0), (F(1, 3), F(1, 2)), (F(1, 2), 1), (1, 0)])


def pullback_levels(f, points, n):
    """P_0..P_n and image_elem by the defining recursion, cell by cell.

    P_{k+1} = P_k u f^{-1}(P_k) with isolated preimages; a cell of
    P_{k+1} inherits the image element of the P_k cell its one-sided
    end values span, or -1 when they coincide.
    """
    pts = tuple(points)
    image = tuple(range(len(pts) - 1))
    levels = [(pts, image)]
    for _ in range(n):
        cur = set(pts)
        for y in pts:
            cur.update(preimage_points(f, y))
        new_pts = tuple(sorted(cur))
        index = {p: j for j, p in enumerate(pts)}
        new_image = []
        for u, w in zip(new_pts, new_pts[1:]):
            y0, y1 = f.eval(u, RIGHT), f.eval(w, LEFT)
            if y0 == y1:
                new_image.append(-1)
                continue
            j = index[min(y0, y1)]
            assert pts[j + 1] == max(y0, y1)
            new_image.append(image[j])
        pts, image = new_pts, tuple(new_image)
        levels.append((pts, image))
    return levels


def test_refine_matches_defining_recursion():
    s = markov_closure(KINKED, 100)
    assert s.points == (0, F(1, 2), 1)
    for fx in (fixtures.tent(), fixtures.golden(), fixtures.skew_tent(),
               fixtures.trapezoid(), fixtures.flat_trapezoid(),
               fixtures.doubling(), KINKED):
        s = markov_closure(fx, 200)
        for n, (pts, image) in enumerate(pullback_levels(fx, s.points, 6)):
            r = refine(s, n)
            assert r.depth == n
            assert r.points == pts, (fx, n)
            assert r.image_elem == image, (fx, n)


def test_refine_budget():
    s = markov_closure(fixtures.tent(), 100)
    # tent P_n has 2^(n+1) + 1 points; the budget bounds the point count
    assert len(refine(s, 3, max_points=17).points) == 17
    with pytest.raises(BudgetExceeded):
        refine(s, 4, max_points=32)


def int_matrix_power_sum(M, n):
    size = len(M)
    A = [row[:] for row in M]
    for _ in range(n - 1):
        A = [[sum(A[i][t] * M[t][j] for t in range(size)) for j in range(size)]
             for i in range(size)]
    return sum(sum(row) for row in A)


def test_matrix_power_counts_refinement_cells():
    for fx in (fixtures.tent(), fixtures.golden(), fixtures.trapezoid(),
               fixtures.doubling()):
        s = markov_closure(fx, 200)
        M = dense(s)
        for n in range(1, 9):
            assert int_matrix_power_sum(M, n) == refine(s, n).nonsingleton_count


def test_eigenvector_refinement_identity():
    # v_C equals beta^{-1} times the sum of v over the one-step images of
    # the depth-1 cells inside C
    for fx in (fixtures.tent(), fixtures.golden(), fixtures.skew_tent(),
               fixtures.trapezoid()):
        s = markov_closure(fx, 200)
        r = refine(s, 1)
        beta, v = float(s.beta), [float(x) for x in s.v]
        sums = [0.0] * s.cell_count
        import bisect as _b
        for i in range(len(r.points) - 1):
            if r.image_elem[i] < 0:
                continue
            mid = (r.points[i] + r.points[i + 1]) / 2
            c = _b.bisect_right(s.points, mid) - 1
            sums[c] += v[r.image_elem[i]]
        for c in range(s.cell_count):
            assert abs(v[c] - sums[c] / beta) < 1e-9
