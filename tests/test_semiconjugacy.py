from fractions import Fraction as F

import pytest
from conftest import check_compatibility, check_scaling_identity

from slopeforge import fixtures
from slopeforge.approximation import markov_approx, normalize
from slopeforge.errors import FormatError, PreconditionError
from slopeforge.graphmap import flatten, parse_graph
from slopeforge.markov import markov_closure, refine, structure_from_points
from slopeforge.pwmap import PwaMap, preimage_points, sup_dist
from slopeforge.semiconjugacy import (
    PsiTable,
    _is_float,
    build_constant_slope,
    build_psi,
    psi_from_tsv,
    psi_on_points,
    psi_to_tsv,
)

PHI = (1 + 5**0.5) / 2
V_A = (3 - 5**0.5) / 2
V_B = (5**0.5 - 1) / 2


def golden_s():
    return markov_closure(fixtures.golden(), 100)


def tent_s():
    return markov_closure(fixtures.tent(), 100)


def test_psi_depth0_golden():
    t = psi_on_points(golden_s(), 0)
    assert t.xs == (0, F(1, 2), 1)
    assert float(t.ys[0]) == 0.0
    assert abs(float(t.ys[1]) - V_A) < 1e-15
    assert float(t.ys[2]) == 1.0
    # high-precision check against the closed form
    import mpmath
    ctx = mpmath.mp.clone(); ctx.prec = 128
    exact = (3 - ctx.sqrt(5)) / 2
    assert abs(t.ys[1] - exact) < ctx.mpf(10) ** -30


def test_psi_depth1_golden():
    s = golden_s()
    t = psi_on_points(s, 1)
    assert t.xs == (0, F(1, 2), F(3, 4), 1)
    assert abs(float(t.ys[1]) - V_A) < 1e-15
    assert abs(float(t.ys[2]) - 2 * V_B / PHI) < 1e-15
    # deeper tables leave earlier points unchanged
    t2 = psi_on_points(s, 2)
    i = t2.xs.index(F(3, 4))
    assert abs(float(t2.ys[i] - t.ys[2])) < 1e-12


def test_psi_tent_identity_on_dyadics():
    t = psi_on_points(tent_s(), 2)
    assert t.xs == tuple(F(k, 8) for k in range(9))
    for x, y in zip(t.xs, t.ys):
        assert abs(float(y) - float(x)) < 1e-30


def test_psi_depth_consistency_small():
    for fx in (fixtures.golden(), fixtures.skew_tent(), fixtures.trapezoid()):
        s = markov_closure(fx, 100)
        prev = psi_on_points(s, 3)
        cur = psi_on_points(s, 4)
        lookup = dict(zip(cur.xs, cur.ys))
        for x, y in zip(prev.xs, prev.ys):
            assert abs(float(lookup[x] - y)) < 1e-12


def test_build_psi_golden_depth_choice():
    t = build_psi(golden_s(), 1e-6)
    assert t.depth == 29
    assert PHI ** (-t.depth) < 1e-6 < PHI ** (-(t.depth - 1))
    assert t.collapse_intervals == ()
    assert t.error_bound < 1e-6


def test_build_psi_tent_identity():
    t = build_psi(tent_s(), 1e-3)
    assert t.depth == 10
    assert t.table_depth == 10
    assert len(t.xs) == 2**11 + 1  # base P already refines once
    for x, y in zip(t.xs, t.ys):
        assert abs(float(y) - float(x)) < 1e-25


def test_build_psi_needs_expansion():
    s = markov_closure(fixtures.low_trapezoid(), 100)
    with pytest.raises(PreconditionError):
        build_psi(s, 1e-6)


def test_psi_eval_descends_beyond_table():
    s = golden_s()
    t = build_psi(s, 1e-6, max_table_points=50)
    deep = psi_on_points(s, 8)
    lookup = dict(zip(deep.xs, deep.ys))
    for x in deep.xs:
        assert abs(float(t.eval(x)) - float(lookup[x])) <= t.error_bound + 1e-15


def test_build_psi_table_is_the_refinement():
    for fx in (fixtures.golden(), fixtures.skew_tent(), fixtures.trapezoid()):
        s = markov_closure(fx, 200)
        t = build_psi(s, 1e-6, max_table_points=1000)
        assert t.table_depth < t.depth
        assert t.xs == refine(s, t.table_depth).points
        assert t.ys == psi_on_points(s, t.table_depth).ys
        # the table is the deepest refinement within the budget
        assert len(refine(s, t.table_depth + 1).points) > 1000


def t32_structure():
    """Markov approximant n=32 of the slope-3/2 tent (348 points).

    The float64 Perron solve keeps this quick; both descents read the
    same eigenvector, so the comparison below isolates the orbit walk.
    """
    g, cfg = markov_approx(fixtures.tent_slope(F(3, 2)), 32)
    return structure_from_points(g, cfg.points, numeric="float")


# a kink at 1/3 inside the cell [0, 1/2], mapped to 2/5, no partition point
KINK_AT_THIRD = [(0, 0), (F(1, 3), F(2, 5)), (F(1, 2), 1), (1, 0)]


def exact_walk(psi, x):
    """The fast evaluator's fallback: the exact orbit, accumulated in float."""
    return psi._descend(x, psi._Vf, float(psi.beta), 1.0)


def test_fast_eval_within_error_bound_of_exact():
    golden = build_psi(golden_s(), 1e-7)
    assert golden.depth == 34
    # the orbit 1/4 -> 3/4 -> 1/2 lands exactly on a partition point; on
    # golden's float64 data the float orbit of 1/4 is exact, so the float
    # walk decides the hit, with the exact walk's value
    assert golden._descend_float(F(1, 4)).hex() == exact_walk(golden, F(1, 4)).hex()
    skew = build_psi(markov_closure(fixtures.skew_tent(F(5, 12)), 100), 1e-7)
    t32 = build_psi(t32_structure(), 1e-4 / 8, max_table_points=4097)
    cases = (
        ("golden", golden, [F(k, 509) for k in range(510)] + [F(1, 4)]),
        ("skew", skew, [F(k, 509) for k in range(510)] + [F(5, 12)]),
        # dyadic points share the approximant's grid: many orbits land
        # on partition points and fall back
        ("t32", t32, [F(k, 512) for k in range(513)]),
    )
    fallbacks = {}
    for name, psi, grid in cases:
        fallbacks[name] = 0
        for x in grid:
            if psi._descend_float(x) is None:
                fallbacks[name] += 1
            fast = psi.eval(x, fast=True)
            assert isinstance(fast, float)
            assert abs(fast - float(psi.eval(x))) <= psi.error_bound, (name, x)
    assert fallbacks["t32"] >= len(cases[2][2]) // 10
    # on golden's dyadic grid every orbit is exact: no fallback, and the
    # value of every decided hit is the exact walk's, bit for bit
    for x in (F(k, 512) for k in range(513)):
        fast = golden._descend_float(x)
        assert fast is not None and fast.hex() == exact_walk(golden, x).hex(), x


def test_float_descent_decides_an_exact_hit_only_on_an_exact_orbit():
    # every table point outside P_0 has an orbit that lands exactly on a
    # partition point, or on a table point once the walk switches to the
    # table.  golden's points and data are float64 values, so the float
    # orbit is exact and decides the hit as the exact walk does
    s = markov_closure(fixtures.golden(), 100)
    psi = build_psi(s, 1e-7, max_table_points=16385)
    hits = [x for x in psi.xs if x not in set(s.points)]
    assert hits
    for x in hits:
        fast = psi._descend_float(x)
        assert fast is not None and fast.hex() == exact_walk(psi, x).hex(), x
    # the data of skew 5/12 and of the t32 approximant are not float64
    # values: no float orbit may decide such a lookup
    cases = (
        (markov_closure(fixtures.skew_tent(F(5, 12)), 100), 1e-7, 16385),
        (t32_structure(), 1e-4 / 8, 4097),
    )
    for s, target, budget in cases:
        psi = build_psi(s, target, max_table_points=budget)
        base = set(s.points)
        hits = [x for x in psi.xs if x not in base]
        assert hits
        for x in hits:
            assert psi._descend_float(x) is None, x
    # a kink at 1/3 inside the cell [0, 1/2], mapped to 2/5, no partition
    # point: orbits that land on it exactly must give up at the segment
    # lookup
    f = PwaMap.from_pairs(KINK_AT_THIRD)
    s = markov_closure(f, 100)
    assert s.points == (0, F(1, 2), 1)
    psi = build_psi(s, 1e-7)
    level = [F(1, 3)]
    for _ in range(6):
        level = [x for y in level for x in preimage_points(f, y)]
        for x in level:
            assert psi._descend_float(x) is None, x


# Markov on {0, 1/4, 1/2, 1}: slopes 4, -4 and 1/2; its first piece
# fixes 0, so orbits near 0 stay tiny for a step
FOUR_HALF = [(0, 0), (F(1, 4), 1), (F(1, 2), 0), (1, F(1, 4))]
# float64 data, slopes 3, 1 and -2, Markov partition {0, 1/2, 1}
THREE_ONE_TWO = [(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), 1), (1, 0)]


def check_flag_off(psi, x):
    """The float walk gives up on x, and eval falls back to the exact walk."""
    assert psi._descend_float(x) is None, x
    assert psi.eval(x, fast=True).hex() == exact_walk(psi, x).hex()


def test_exactness_flag_is_off_for_a_point_that_is_not_a_float():
    golden = build_psi(golden_s(), 1e-7)
    # dyadic, but its numerator needs 60 bits: its float is the partition
    # point 1/2, which the filter cannot separate from it
    x = F(1, 2) + F(1, 2**60)
    assert x.numerator >= 2**53 and not _is_float(x)
    check_flag_off(golden, x)
    # 53 bits, a float: decided
    x = F(1, 2) + F(1, 2**53)
    assert _is_float(x) and golden._descend_float(x) is not None


def test_exactness_flag_drops_on_an_inexact_product():
    psi = build_psi(markov_closure(PwaMap.from_pairs(THREE_ONE_TWO), 100), 1e-7)
    assert psi._exact_map
    # x = fl(1/12) is a float, and fl(3 x) rounds to the node 1/4, which
    # the exact orbit 3 x misses: only TwoProduct sees it
    x = F(1 / 12)
    assert _is_float(x) and float(3 * x) == 0.25 and 3 * x != F(1, 4)
    check_flag_off(psi, x)


def test_exactness_flag_is_off_on_a_map_with_a_non_dyadic_node():
    psi = build_psi(markov_closure(PwaMap.from_pairs(KINK_AT_THIRD), 100), 1e-7)
    assert not psi._exact_map
    # fl(1/3) < 1/3 is a float, but it is the float node of the kink:
    # a float segment lookup would put it on the wrong piece
    check_flag_off(psi, F(1 / 3))
    # 3/4 -> 1/2 hits a partition point exactly; no flag decides it here
    check_flag_off(psi, F(3, 4))


def test_exactness_flag_is_off_near_underflow():
    psi = build_psi(markov_closure(PwaMap.from_pairs(FOUR_HALF), 100), 1e-7)
    assert psi._exact_map
    # below the normal range: not a float for the flag
    x = F(1, 2**1030)
    assert not _is_float(x)
    check_flag_off(psi, x)
    # a float, but its product 4 x is too small for TwoProduct's check
    x = F(1, 2**1000)
    assert _is_float(x)
    check_flag_off(psi, x)


def test_a_rescued_walk_returns_the_exact_walks_value():
    # the map is float64 but its table is not (preimages under slope 3):
    # points within 40 * 2^-50 of the partition point 1/2 defeat the
    # filter and are decided by the flag, so their value must be the
    # exact walk's, which the table tail gives only on exact data
    s = markov_closure(PwaMap.from_pairs(THREE_ONE_TWO), 100)
    psi = build_psi(s, 1e-7)
    assert psi._exact_map and not psi._exact_table
    decided = 0
    for p in s.points[1:-1]:
        for k in range(1, 40):
            for x in (p - k * F(1, 2**50), p + k * F(1, 2**50)):
                decided += psi._descend_float(x) is not None
                assert psi.eval(x, fast=True).hex() == exact_walk(psi, x).hex(), x
    assert decided > 0


@pytest.mark.parametrize("name", ["golden", "circle_doubling"])
def test_normalize_on_dyadic_maps_never_walks_exactly_from_the_fast_path(
        monkeypatch, name):
    f = fixtures.golden() if name == "golden" else flatten(
        parse_graph(fixtures.CIRCLE_DOUBLING))[0]
    fallbacks = []
    descend = PsiTable._descend

    def counting(self, x, V, beta, scale):
        if V is self._Vf:
            fallbacks.append(x)
        return descend(self, x, V, beta, scale)

    monkeypatch.setattr(PsiTable, "_descend", counting)
    trace = normalize(f, target=1e-6)
    assert trace.residual.grid_points > 4096
    assert fallbacks == []


def test_psi_eval_monotone_on_grid():
    t = build_psi(golden_s(), 1e-9)
    vals = [float(t.eval(F(k, 257))) for k in range(258)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 2 * t.error_bound


def test_trapezoid_collapse_intervals():
    s = markov_closure(fixtures.trapezoid(), 200)
    t = build_psi(s, 1e-4)
    assert (F(2, 5), F(3, 5)) in t.collapse_intervals
    # preimages of the plateau collapse too
    assert any(lo == F(4, 25) and hi == F(6, 25) for lo, hi in t.collapse_intervals)


def test_constant_slope_golden():
    s = golden_s()
    t = build_psi(s, 1e-9)
    cs = build_constant_slope(s, t)
    g = cs.map
    assert len(g.nodes) == 3
    assert abs(float(g.nodes[0].y_right) - V_A) < 1e-9
    assert abs(float(g.nodes[1].x) - V_A) < 1e-9
    assert float(g.nodes[1].y_left) == 1.0
    assert float(g.nodes[2].y_left) == 0.0
    slopes = [float(seg.slope) for seg in g.segments]
    assert abs(slopes[0] - PHI) < 1e-9
    assert abs(slopes[1] + PHI) < 1e-9


def test_constant_slope_tent_fixed_point():
    s = tent_s()
    t = build_psi(s, 1e-6)
    cs = build_constant_slope(s, t)
    assert sup_dist(cs.map, fixtures.tent()) == 0


def test_constant_slope_skew_tent():
    s = markov_closure(fixtures.skew_tent(F(5, 12)), 100)
    t = build_psi(s, 1e-6)
    assert abs(float(t.eval(F(5, 12))) - 0.5) < 1e-12
    cs = build_constant_slope(s, t)
    assert sup_dist(cs.map, fixtures.tent()) == 0


def test_scaling_identity_golden():
    s = golden_s()
    t = build_psi(s, 1e-7)
    rep = check_scaling_identity(fixtures.golden(), t, s.beta, samples=2000, seed=11)
    assert rep.max_residual < 1e-6


def test_scaling_identity_tent():
    s = tent_s()
    t = build_psi(s, 1e-9)
    rep = check_scaling_identity(fixtures.tent(), t, 2.0, samples=500, seed=3)
    assert rep.max_residual < 1e-12


def test_compatibility_good_fixtures():
    for fx in (fixtures.golden(), fixtures.trapezoid()):
        s = markov_closure(fx, 200)
        t = build_psi(s, 1e-6)
        assert check_compatibility(fx, t)


def test_compatibility_detects_bad_psi():
    bad = PsiTable(
        depth=0, table_depth=0,
        xs=(F(0), F(1, 2), F(3, 4), F(1)),
        ys=(0.0, 0.0, 0.5, 1.0),
        beta=2.0, error_bound=0.0,
        collapse_intervals=((F(0), F(1, 2)),),
        structure=None,
    )
    rep = check_compatibility(fixtures.tent(), bad)
    assert not rep
    assert (F(0), F(1, 2)) in rep.witnesses


def test_psi_tsv_round_trip():
    t = psi_on_points(golden_s(), 3)
    text = psi_to_tsv(t)
    back = psi_from_tsv(text)
    assert back.xs == t.xs
    for a, b in zip(back.ys, t.ys):
        assert abs(a - float(b)) < 1e-14


def test_psi_tsv_without_rows_is_a_format_error():
    with pytest.raises(FormatError, match="no rows"):
        psi_from_tsv("x\tpsi\n")
