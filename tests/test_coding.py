import bisect
import random
from fractions import Fraction as F

import pytest

from conftest import random_grid_map
from slopeforge import coding, fixtures
from slopeforge.coding import _lap_location, _step_point, itinerary, psm_reduce
from slopeforge.entropy import entropy_lapcount
from slopeforge.errors import PreconditionError
from slopeforge.pwmap import LEFT, RIGHT, lap_end_pullback, laps


def test_itinerary_tent_interior():
    it = itinerary(fixtures.tent(), F(1, 3), 4)
    assert it.word == (0, 1, 1, 1)
    assert it.ambiguous_at == ()


def test_itinerary_tent_turning_point():
    it = itinerary(fixtures.tent(), F(1, 2), 2)
    assert it.ambiguous_at == (0,)
    assert it.word[0] == 0  # left-lap convention


def test_itinerary_golden_endpoint_orbit():
    it = itinerary(fixtures.golden(), 0, 3)
    # orbit 0 -> 1/2 -> 1 under the left-limit continuation
    assert it.word == (0, 0, 1)
    assert it.ambiguous_at == (1,)


def test_itinerary_doubling_jump_point():
    it = itinerary(fixtures.doubling(), F(1, 2), 3)
    assert 0 in it.ambiguous_at
    # left continuation: f(1/2-) = 1, then f(1) = 1
    assert it.word == (0, 1, 1)


def test_reduce_tent_trivial():
    q = psm_reduce(fixtures.tent(), 8)
    assert q.collapse_intervals == ()
    assert q.psi0.nodes == fixtures.identity_map().nodes
    assert q.fhat == fixtures.tent()


def test_reduce_identity_rejected():
    with pytest.raises(PreconditionError):
        psm_reduce(fixtures.identity_map(), 8)


def test_reduce_trapezoid_collapse():
    q = psm_reduce(fixtures.trapezoid(), 8)
    assert (F(2, 5), F(3, 5)) in q.collapse_intervals
    assert (F(4, 25), F(6, 25)) in q.collapse_intervals
    assert (F(19, 25), F(21, 25)) in q.collapse_intervals
    # the plateau value has preimages at every depth, so the horizon
    # layer stays uncollapsed: the factor carries sub-resolution flats
    assert q.leak_plateau_count > 0


def test_reduce_flat_trapezoid_is_complete():
    q = psm_reduce(fixtures.flat_trapezoid(), 8)
    assert q.collapse_intervals == ((F(2, 5), F(3, 5)),)
    assert q.leak_plateau_count == 0
    assert not q.fhat.has_plateau


def test_reduce_trapezoid_factor_identity():
    q = psm_reduce(fixtures.trapezoid(), 8)
    f = fixtures.trapezoid()
    for k in range(0, 4097, 7):
        x = F(k, 4096)
        lhs = q.psi0.eval(f.eval(x, "right" if x < 1 else "left"))
        z = q.psi0.eval(x)
        rhs = q.fhat.eval(z, "right" if z < 1 else "left")
        assert abs(float(lhs - rhs)) <= 1e-9


def test_reduce_flat_trapezoid_entropy_preserved():
    f = fixtures.flat_trapezoid()
    q = psm_reduce(f, 8)
    ef = entropy_lapcount(f, depth=10)
    eh = entropy_lapcount(q.fhat, depth=10)
    assert abs(ef.lap_estimates[-1] - eh.lap_estimates[-1]) < 0.05


def test_reduce_collapse_classes_persist_with_depth():
    # certified classes stay collapsed as the depth grows; newly
    # visible preimage classes may join the family
    f = fixtures.trapezoid()
    prev = psm_reduce(f, 4)
    for d in (5, 6, 7, 8):
        cur = psm_reduce(f, d)
        for lo, hi in prev.collapse_intervals:
            assert any(clo <= lo and hi <= chi
                       for clo, chi in cur.collapse_intervals)
        prev = cur
    # at depth 10 there are 2^10 - 1 classes; psi0 is constant on each
    # and has slope 1/span on the gaps between them
    q = psm_reduce(f, 10)
    intervals = q.collapse_intervals
    assert len(intervals) == 2**10 - 1
    span = 1 - sum(hi - lo for lo, hi in intervals)
    psi0 = q.psi0
    assert psi0.eval(0) == 0 and psi0.eval(1) == 1
    prev_hi = F(0)
    for lo, hi in intervals:
        assert psi0.eval(lo) == psi0.eval((lo + hi) / 2) == psi0.eval(hi)
        assert psi0.eval(lo) - psi0.eval(prev_hi) == (lo - prev_hi) / span
        prev_hi = hi
    assert 1 - psi0.eval(prev_hi) == (1 - prev_hi) / span
    # on a complete quotient the family is stable in both directions
    a = psm_reduce(fixtures.flat_trapezoid(), 4).collapse_intervals
    b = psm_reduce(fixtures.flat_trapezoid(), 8).collapse_intervals
    assert a == b


def test_reduce_low_trapezoid_runs():
    # true entropy is zero but the finite-depth estimate is positive
    q = psm_reduce(fixtures.low_trapezoid(), 6)
    assert (F(2, 5), F(3, 5)) in q.collapse_intervals


def test_reduce_tsv_export():
    q = psm_reduce(fixtures.trapezoid(), 6)
    text = q.to_tsv()
    assert text.splitlines()[0] == "lo\thi"
    assert "2/5\t3/5" in text


def walk_cell_codes(f, pts, depth):
    """Oracle of _cell_codes: walk each cell's image `depth` steps
    through exact one-sided values, and once it is a point, walk that
    point as itinerary does."""
    lap_list = laps(f)
    lap_los = [lap.lo for lap in lap_list]
    out = []
    for lo, hi in zip(pts, pts[1:]):
        first_image = None
        degenerate = False
        word = []
        for _ in range(depth):
            if lo == hi:
                degenerate = True
                j, ambiguous = _lap_location(lap_list, lap_los, lo)
                word.append(j)
                lo = hi = _step_point(f, lo, ambiguous)
                continue
            word.append(bisect.bisect_right(lap_los, lo) - 1)
            y0, y1 = f.eval(lo, RIGHT), f.eval(hi, LEFT)
            lo, hi = min(y0, y1), max(y0, y1)
            if first_image is None:
                first_image = (lo, hi)
        out.append((tuple(word), degenerate, first_image))
    return out


def reduce_outcome(f, depth):
    try:
        q = psm_reduce(f, depth)
    except PreconditionError as exc:
        return ("error", str(exc))
    return q, q.to_tsv()


CODING_FIXTURES = [fixtures.tent, fixtures.doubling, fixtures.golden,
                   fixtures.skew_tent, fixtures.trapezoid,
                   fixtures.flat_trapezoid, fixtures.low_trapezoid,
                   fixtures.core_tent32, fixtures.bimodal_nonmarkov]


def test_cell_codes_match_the_walk(monkeypatch):
    # word, degenerate flag and first image of every cell, and the whole
    # psm_reduce result, against the d-step walk; a map's depths stop
    # where its cut set passes 128 points, to keep the walk cheap
    rng = random.Random(1601)
    maps = [make() for make in CODING_FIXTURES]
    maps += [random_grid_map(rng) for _ in range(300)]
    degenerate = pairs = 0
    for f in maps:
        lap_los = [lap.lo for lap in laps(f)]
        for depth in range(1, 8):
            pts = lap_end_pullback(f, depth)
            if len(pts) > 128:
                break
            want = walk_cell_codes(f, pts, depth)
            assert coding._cell_codes(f, pts, depth, lap_los) == want, (f.nodes, depth)
            degenerate += sum(d for _, d, _ in want)
            pairs += 1
            got = reduce_outcome(f, depth)
            with monkeypatch.context() as m:
                m.setattr(coding, "_cell_codes", lambda *args: want)
                assert got == reduce_outcome(f, depth), (f.nodes, depth)
    assert degenerate > 0 and pairs > 1900
