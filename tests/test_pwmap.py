import time
from fractions import Fraction as F
from itertools import islice

import pytest

from slopeforge import fixtures
from slopeforge.errors import BudgetExceeded, FormatError, PreconditionError
from slopeforge.graphmap import flatten, parse_graph
from slopeforge.pwmap import (
    CONSTANT,
    DECREASING,
    INCREASING,
    LEFT,
    RIGHT,
    PwaMap,
    compose,
    iterate,
    iterates,
    lap_count,
    lap_counts,
    laps,
    orbit,
    orbit_one_sided,
    parse_pwa,
    preimage_points,
    serialize_pwa,
    sup_dist,
)

TENT_TEXT = """\
pwa 1
domain 0 1
nodes 3
0 - 0
1/2 1 1
1 0 -
"""

DOUBLING_TEXT = """\
pwa 1
domain 0 1
nodes 3
0 - 0
1/2 1 0
1 1 -
"""


def test_parse_tent():
    f = parse_pwa(TENT_TEXT)
    assert f == fixtures.tent()


def test_parse_doubling_jump():
    f = parse_pwa(DOUBLING_TEXT)
    assert f == fixtures.doubling()
    assert not f.is_continuous


def test_parse_rejects_duplicate_x():
    bad = TENT_TEXT.replace("1/2 1 1", "0 1 1", 1)
    with pytest.raises(FormatError, match="non-increasing x"):
        parse_pwa(bad)


def test_parse_rejects_value_outside_domain():
    bad = TENT_TEXT.replace("1/2 1 1", "1/2 2 2")
    with pytest.raises(FormatError):
        parse_pwa(bad)


def test_parse_rejects_too_few_nodes():
    with pytest.raises(FormatError):
        parse_pwa("pwa 1\ndomain 0 1\nnodes 1\n0 - 0\n")


HUGE_EXPONENT_TEXT = "pwa 1\ndomain 0 1\nnodes 2\n0 - 1e-4000000\n1 0 -\n"


def test_parse_rejects_huge_decimal_exponent():
    # 10**4000000 would be built exactly: seconds of work for 30 bytes
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match="exponent"):
        parse_pwa(HUGE_EXPONENT_TEXT)
    assert time.perf_counter() - t0 < 0.1
    for ok in ("1e-4299", "5e-1", "0.025E+1"):
        parse_pwa(HUGE_EXPONENT_TEXT.replace("1e-4000000", ok))


def test_serialize_round_trip():
    for f in (fixtures.tent(), fixtures.doubling(), fixtures.golden(),
              fixtures.trapezoid(), fixtures.bimodal_nonmarkov()):
        assert parse_pwa(serialize_pwa(f)) == f


def test_eval_interior_and_sides():
    tent = fixtures.tent()
    assert tent.eval(F(1, 4)) == F(1, 2)
    assert tent.eval(F(1, 2), "left") == 1
    assert tent.eval(F(1, 2), "right") == 1
    dbl = fixtures.doubling()
    assert dbl.eval(F(1, 2), "left") == 1
    assert dbl.eval(F(1, 2), "right") == 0
    with pytest.raises(PreconditionError):
        dbl.eval(F(1, 2))  # two-valued without a side
    with pytest.raises(PreconditionError):
        tent.eval(F(0), "left")
    with pytest.raises(PreconditionError):
        tent.eval(2)


def test_laps_tent_and_doubling():
    lt = laps(fixtures.tent())
    assert [(l.lo, l.hi, l.direction) for l in lt] == [
        (0, F(1, 2), INCREASING),
        (F(1, 2), 1, DECREASING),
    ]
    ld = laps(fixtures.doubling())
    assert [(l.lo, l.hi, l.direction) for l in ld] == [
        (0, F(1, 2), INCREASING),
        (F(1, 2), 1, INCREASING),
    ]


def test_laps_trapezoid_directions():
    f = fixtures.low_trapezoid()
    got = [(l.lo, l.hi, l.direction) for l in laps(f)]
    assert got == [
        (0, F(2, 5), INCREASING),
        (F(2, 5), F(3, 5), CONSTANT),
        (F(3, 5), 1, DECREASING),
    ]


def test_iterate_identity_of_operation():
    f = fixtures.golden()
    assert iterate(f, 1) is f


def test_iterates_yields_iterate():
    for f in (fixtures.golden(), fixtures.doubling(), fixtures.trapezoid()):
        assert list(islice(iterates(f), 6)) == [iterate(f, k) for k in range(1, 7)]


def test_iterates_composes_on_request():
    # tent^2 has 5 nodes and tent^3 has 9: taking two iterates under a
    # budget of 5 must not compose the third
    got = list(islice(iterates(fixtures.tent(), max_nodes=5), 2))
    assert [len(g.nodes) for g in got] == [3, 5]
    with pytest.raises(BudgetExceeded):
        list(islice(iterates(fixtures.tent(), max_nodes=5), 3))


@pytest.mark.parametrize("name", ["doubling", "golden", "trapezoid", "collapsing_circle"])
def test_eval_float_matches_exact(name):
    if name == "collapsing_circle":
        f, _ = flatten(parse_graph(fixtures.COLLAPSING_CIRCLE))
    else:
        f = getattr(fixtures, name)()
    a, b = f.domain
    for n in f.nodes:
        for side, y in ((LEFT, n.y_left), (RIGHT, n.y_right)):
            if y is not None:
                assert f.eval_float(float(n.x), side) == float(y)
    for k in range(998):
        x = a + (b - a) * F(k, 997)
        for side in (LEFT, RIGHT):
            if (side == LEFT and x == a) or (side == RIGHT and x == b):
                continue
            want = float(f.eval(x, side))
            assert f.eval_float(float(x), side) == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_iterate_tent_depth2():
    f2 = iterate(fixtures.tent(), 2)
    ls = laps(f2)
    assert len(ls) == 4
    assert [l.lo for l in ls] == [0, F(1, 4), F(1, 2), F(3, 4)]


def test_iterate_golden_depth2_laps():
    assert lap_count(fixtures.golden(), 2) == 3


def test_lap_count_tent_powers_of_two():
    assert lap_count(fixtures.tent(), 10) == 1024


def test_lap_count_golden_fibonacci():
    assert lap_counts(fixtures.golden(), 4) == [2, 3, 5, 8]
    assert lap_count(fixtures.golden(), 3) == 5


def test_lap_count_single_lap_map():
    assert lap_count(fixtures.identity_map(), 7) == 1


def test_iterate_matches_pointwise_composition():
    f = fixtures.golden()
    f3 = iterate(f, 3)
    for x in [F(0), F(1, 7), F(2, 7), F(1, 3), F(5, 8), F(9, 10), F(1)]:
        y = x
        for _ in range(3):
            y = f.value_at(y)
        assert f3.value_at(x) == y


def test_iterate_doubling_one_sided_exactness():
    d2 = iterate(fixtures.doubling(), 2)
    # jumps at 1/4, 1/2, 3/4; left limits 1, right limits 0
    assert d2.eval(F(1, 4), "left") == 1
    assert d2.eval(F(1, 4), "right") == 0
    assert lap_count(fixtures.doubling(), 8) == 256


def test_sup_dist_values():
    tent = fixtures.tent()
    assert sup_dist(tent, tent) == 0
    assert sup_dist(tent, fixtures.doubling()) == 1
    half = PwaMap.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
    assert sup_dist(tent, half) == F(1, 2)


def test_sup_dist_metric_axioms_on_sample():
    maps = [fixtures.tent(), fixtures.doubling(), fixtures.golden(),
            fixtures.skew_tent(), fixtures.trapezoid()]
    for f in maps:
        assert sup_dist(f, f) == 0
        for g in maps:
            assert sup_dist(f, g) == sup_dist(g, f)
            for h in maps:
                assert sup_dist(f, h) <= sup_dist(f, g) + sup_dist(g, h)


def test_preimage_points_skips_plateau():
    f = fixtures.low_trapezoid()
    assert preimage_points(f, F(4, 5)) == [F(2, 5), F(3, 5)]
    assert preimage_points(f, F(2, 5)) == [F(1, 5), F(4, 5)]


def test_orbit_conventions():
    f = fixtures.golden()
    assert orbit(f, 0, 3) == [0, F(1, 2), 1, 0]
    pts = orbit_one_sided(fixtures.tent(), F(1, 2), "left", 2)
    assert [p for p, _ in pts] == [F(1, 2), 1, 0]


def test_compose_is_affine_between_nodes_and_exact():
    # jumps (doubling), plateaus (trapezoid), a kink inside a lap and
    # several laps: between consecutive nodes of outer(inner) the map must
    # be affine and equal to outer(inner(t)) at every interior point
    kinked = PwaMap.from_pairs([(0, 0), (F(1, 3), F(1, 2)), (F(1, 2), 1), (1, 0)])
    maps = [fixtures.tent(), fixtures.golden(), fixtures.doubling(),
            fixtures.trapezoid(), fixtures.bimodal_nonmarkov(), kinked,
            fixtures.skew_tent()]
    for outer in maps:
        for inner in maps:
            h = compose(outer, inner)
            xs = [n.x for n in h.nodes]
            assert set(n.x for n in inner.nodes) <= set(xs)
            for u, w in zip(xs, xs[1:]):
                for t in (F(1, 4), F(1, 2), F(3, 4)):
                    x = u + (w - u) * t
                    assert h.eval(x) == outer.value_at(inner.eval(x)), (
                        outer, inner, x)


def test_compose_requires_common_domain():
    f = fixtures.tent()
    g = PwaMap.from_pairs([(0, 0), (2, 2)])
    with pytest.raises(PreconditionError):
        compose(f, g)


def test_submultiplicative_lap_counts():
    for f in (fixtures.tent(), fixtures.golden(), fixtures.tent_slope(F(3, 2)),
              fixtures.trapezoid(), fixtures.doubling()):
        cs = lap_counts(f, 8)
        c = {i + 1: v for i, v in enumerate(cs)}
        for m in range(1, 5):
            for n in range(1, 5):
                assert c[m + n] <= c[m] * c[n]
