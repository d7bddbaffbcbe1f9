import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_lap_ends_match_iterates, check_orbits_follow_iterates
from slopeforge import fixtures, pwmap
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
    lap_counts,
    lap_end_pullback,
    lap_ends,
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


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


@st.composite
def jump_plateau_maps(draw):
    """A map on a random rational domain whose node values come from a
    pool of at most three, so plateaus and jumps are both common."""
    xs = sorted(draw(st.sets(rationals, min_size=2, max_size=8)))
    values = st.sampled_from(draw(st.lists(
        st.fractions(min_value=xs[0], max_value=xs[-1], max_denominator=10**6),
        min_size=1, max_size=3)))
    triples = []
    for i, x in enumerate(xs):
        yl = None if i == 0 else draw(values)
        if i == len(xs) - 1:
            yr = None
        elif i > 0 and draw(st.booleans()):
            yr = yl
        else:
            yr = draw(values)
        triples.append((x, yl, yr))
    return PwaMap.from_triples(triples)


@PROPERTY
@given(jump_plateau_maps(),
       st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1000),
                max_size=12))
def test_sides_match_one_sided_eval(f, ts):
    # every node, both ends and random points between, read in one pass
    a, b = f.domain
    xs = sorted({n.x for n in f.nodes} | {a + (b - a) * t for t in ts})
    got = list(f.sides(xs))
    assert got == [(None if x == a else f.eval(x, LEFT),
                    None if x == b else f.eval(x, RIGHT)) for x in xs]
    assert [i for i, (yl, _) in enumerate(got) if yl is None] == [0]
    assert [i for i, (_, yr) in enumerate(got) if yr is None] == [len(xs) - 1]


@PROPERTY
@given(jump_plateau_maps(),
       st.fractions(min_value=0, max_value=10, max_denominator=100).filter(bool),
       st.booleans())
def test_sides_rejects_a_point_outside_the_domain(f, d, below):
    a, b = f.domain
    x = a - d if below else b + d
    with pytest.raises(PreconditionError) as want:
        f.eval(x, RIGHT)
    with pytest.raises(PreconditionError) as got:
        list(f.sides(sorted([n.x for n in f.nodes] + [x])))
    assert str(got.value) == str(want.value) == f"x={x} outside domain [{a}, {b}]"


def test_sides_rejects_a_point_behind_the_pointer():
    with pytest.raises(PreconditionError, match="not sorted"):
        list(fixtures.tent().sides([F(3, 4), F(1, 4)]))


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


def test_iterate_respects_compose_node_cap(monkeypatch):
    # tent^2 has 5 nodes and tent^3 has 9
    monkeypatch.setattr(pwmap, "MAX_COMPOSE_NODES", 5)
    assert len(iterate(fixtures.tent(), 2).nodes) == 5
    with pytest.raises(BudgetExceeded):
        iterate(fixtures.tent(), 3)


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
    assert lap_counts(fixtures.golden(), 2)[-1] == 3


def test_lap_count_tent_powers_of_two():
    assert lap_counts(fixtures.tent(), 10)[-1] == 1024


def test_lap_count_golden_fibonacci():
    assert lap_counts(fixtures.golden(), 4) == [2, 3, 5, 8]
    assert lap_counts(fixtures.golden(), 3)[-1] == 5


def test_lap_count_single_lap_map():
    assert lap_counts(fixtures.identity_map(), 7)[-1] == 1


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
    assert lap_counts(fixtures.doubling(), 8)[-1] == 256


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


# -- lap counts by the interval recursion ------------------------------------

BETA_MAP = PwaMap.from_triples([(0, None, 0), (F(2, 3), 1, 0), (1, F(1, 2), None)])
# one-sided germs through plateaus and jumps: a walk that returned to
# one-sided steps after a plateau would count [5, 15, 45, 131, 377]
PLATEAU_JUMPS = PwaMap.from_triples([
    (0, None, F(1, 4)), (F(1, 8), F(1, 4), F(3, 4)), (F(3, 16), F(3, 4), F(3, 4)),
    (F(1, 4), F(1, 2), F(1, 2)), (F(3, 8), 0, 0), (F(1, 2), F(9, 10), F(1, 10)),
    (F(3, 4), F(1, 2), F(1, 2)), (1, 1, None),
])


def _pl_conjugate_tent():
    """h^-1 o tent o h for the PL homeomorphism h through (1/3, 1/2)."""
    h = PwaMap.from_pairs([(0, 0), (F(1, 3), F(1, 2)), (1, 1)])
    h_inv = PwaMap.from_pairs([(0, 0), (F(1, 2), F(1, 3)), (1, 1)])
    return compose(h_inv, compose(fixtures.tent(), h))


RECURSION_MAPS = {
    "tent": fixtures.tent, "doubling": fixtures.doubling,
    "golden": fixtures.golden, "skew_tent": fixtures.skew_tent,
    "tent_slope32": lambda: fixtures.tent_slope(F(3, 2)),
    "trapezoid": fixtures.trapezoid, "flat_trapezoid": fixtures.flat_trapezoid,
    "low_trapezoid": fixtures.low_trapezoid, "identity": fixtures.identity_map,
    "core_tent32": fixtures.core_tent32, "tent75": fixtures.tent75,
    "bimodal": fixtures.bimodal_nonmarkov,
    "golden_normal_form": fixtures.golden_normal_form,
    "beta_map": lambda: BETA_MAP, "pl_conjugate": _pl_conjugate_tent,
    "plateau_jumps": lambda: PLATEAU_JUMPS,
    **{name: (lambda doc=doc: flatten(parse_graph(doc))[0])
       for name, doc in (("circle_doubling", fixtures.CIRCLE_DOUBLING),
                         ("two_edge_wrap", fixtures.TWO_EDGE_WRAP),
                         ("collapsing_circle", fixtures.COLLAPSING_CIRCLE),
                         ("interval_tent", fixtures.INTERVAL_TENT))},
}


@pytest.mark.parametrize("name", sorted(RECURSION_MAPS))
def test_lap_counts_match_composed_iterates(name):
    f = RECURSION_MAPS[name]()
    depth = 8 if name in ("bimodal", "plateau_jumps") else 10
    want = [len(laps(iterate(f, k))) for k in range(1, depth + 1)]
    assert lap_counts(f, depth) == want


def test_lap_counts_plateau_jump_germs():
    assert lap_counts(PLATEAU_JUMPS, 5) == [5, 15, 44, 127, 364]


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("name,depth,closed_form", [
    ("tent", 200, lambda n: 2 ** n),
    ("doubling", 200, lambda n: 2 ** n),
    ("golden", 200, lambda n: _fibonacci(n + 2)),
    ("low_trapezoid", 100, lambda n: 4 * n - 1),
    ("flat_trapezoid", 100, lambda n: 3),
])
def test_lap_counts_closed_forms_at_depth(name, depth, closed_form):
    f = getattr(fixtures, name)()
    assert lap_counts(f, depth) == [closed_form(n) for n in range(1, depth + 1)]


def test_lap_counts_budget_is_checked_before_any_germ(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a germ was walked")

    monkeypatch.setattr(pwmap, "_germ_step", no_walk)
    monkeypatch.setattr(pwmap, "MAX_LAP_PIECES", 40)
    # core_tent32 reaches new intervals at every level, so 20 levels
    # need more than 40 pieces
    with pytest.raises(BudgetExceeded):
        lap_counts(fixtures.core_tent32(), 20)
    # one interval of two pieces: 21 levels are 42 pieces
    with pytest.raises(BudgetExceeded):
        lap_counts(fixtures.tent(), 21)


def test_lap_counts_budget_counts_pieces_not_intervals():
    # 200 laps whose images almost cover [0, 1]: every interval cuts
    # into about 200 pieces, and each level reaches up to 200 times as
    # many intervals, so only a budget on pieces stops 14 levels early
    laps_ = 200
    f = PwaMap.from_pairs([
        (F(i, laps_), F(1, 3 + i) if i % 2 == 0 else 1 - F(1, 3 + i))
        for i in range(laps_ + 1)
    ])
    assert len(laps(f)) == laps_
    start = time.process_time()
    with pytest.raises(BudgetExceeded, match="pieces"):
        lap_counts(f, 14)
    assert time.process_time() - start < 5


def test_lap_counts_empty_depth():
    assert lap_counts(fixtures.tent(), 0) == []


# -- lap ends of f^k by the pullback ----------------------------------------


@pytest.mark.parametrize("name", sorted(RECURSION_MAPS))
def test_orbit_one_sided_matches_composed_iterates(name):
    check_orbits_follow_iterates(RECURSION_MAPS[name](), 5)


def test_orbit_one_sided_through_a_plateau_takes_exact_values():
    # f is 1/4 on [0, 1/8], so f^2 and f^3 are flat right of 0 too: the
    # germ sits on 1/2 exactly and the jump at 1/2 takes its right value
    # 1/10.  Back on one-sided steps it would come to 1/2 from the left
    # (f falls right of 1/4) and take 9/10.
    orbit_ = orbit_one_sided(PLATEAU_JUMPS, 0, RIGHT, 3)
    assert orbit_ == [(0, RIGHT), (F(1, 4), None), (F(1, 2), None),
                      (F(1, 10), None)]
    assert iterate(PLATEAU_JUMPS, 3).eval(0, RIGHT) == F(1, 10)


@pytest.mark.parametrize("name", sorted(RECURSION_MAPS))
def test_lap_ends_match_composed_iterates(name):
    depth = 5 if name in ("bimodal", "plateau_jumps") else 7
    check_lap_ends_match_iterates(RECURSION_MAPS[name](), depth)


def test_lap_end_pullback_is_the_preimage_sweep():
    # trapezoid: lap ends 0, 2/5, 3/5, 1; the plateau [2/5, 3/5] adds no
    # preimage, the two monotone laps one each of 2/5 and 3/5 (the
    # preimages of 0 and 1 are lap ends already)
    f = fixtures.trapezoid()
    assert lap_end_pullback(f, 1) == [0, F(2, 5), F(3, 5), 1]
    assert lap_end_pullback(f, 2) == [0, F(4, 25), F(6, 25), F(2, 5), F(3, 5),
                                      F(19, 25), F(21, 25), 1]


def test_lap_end_pullback_budget_is_checked_before_any_germ(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a germ was walked")

    monkeypatch.setattr(pwmap, "_germ_step", no_walk)
    monkeypatch.setattr(pwmap, "MAX_PULLBACK_STEPS", 100)
    # the tent's pullback to depth k holds 2^k + 1 points
    assert len(lap_end_pullback(fixtures.tent(), 4)) == 17   # 17 * 4 = 68
    with pytest.raises(BudgetExceeded, match="points"):
        next(lap_ends(fixtures.tent(), 5))                   # 33 * 5 = 165
