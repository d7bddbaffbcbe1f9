import random
from fractions import Fraction as F

import pytest
from conftest import random_grid_map

from slopeforge import approximation, fixtures
from slopeforge.approximation import (
    PIPELINE_TABLE_POINTS,
    check_monotone_shadowing,
    markov_approx,
    normalize,
    verify_semiconjugacy,
)
from slopeforge.errors import PreconditionError, VerificationError
from slopeforge.markov import is_markov, structure_from_points
from slopeforge.pwmap import LEFT, RIGHT, PwaMap, iterate, laps, sup_dist
from slopeforge.semiconjugacy import build_constant_slope, build_psi

PHI = (1 + 5**0.5) / 2
V_A = (3 - 5**0.5) / 2


def test_approx_tent_is_fixed():
    g, cfg = markov_approx(fixtures.tent(), 8)
    assert sup_dist(g, fixtures.tent()) == 0
    assert is_markov(g, cfg.points)


def test_approx_golden_is_fixed():
    g, cfg = markov_approx(fixtures.golden(), 6)
    assert sup_dist(g, fixtures.golden()) == 0


def test_approx_slope32_bound_and_markov():
    f = fixtures.tent_slope(F(3, 2))
    for n in (1, 2, 4, 8):
        g, cfg = markov_approx(f, n)
        assert cfg.distance < F(1, n)
        assert is_markov(g, cfg.points)


def test_approx_rejects_plateau():
    with pytest.raises(PreconditionError):
        markov_approx(fixtures.trapezoid(), 4)


def _off_grid_map(rng):
    """Continuous map of [a, b] with nodes at multiples of (b - a)/21,
    so most nodes that are no lap end stay outside P; no plateau."""
    a = F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    b = a + F(rng.randint(1, 5), rng.choice((1, 3)))
    xs = sorted({a, b} | {a + (b - a) * F(rng.randint(1, 20), 21)
                          for _ in range(rng.randint(1, 5))})
    ys = [a + (b - a) * F(rng.randint(0, 16), 16) for _ in xs]
    for i in range(1, len(ys)):
        if ys[i] == ys[i - 1]:
            ys[i] = b if ys[i] == a else a
    return PwaMap.from_pairs(list(zip(xs, ys)))


def test_approx_distance_is_the_sup_distance():
    # read off the snap pass, and off f only at its nodes outside P, the
    # distance is sup_dist(f, g) exactly
    rng = random.Random(8)
    maps = [fixtures.tent(), fixtures.golden(), fixtures.tent_slope(F(3, 2)),
            fixtures.tent75(), fixtures.bimodal_nonmarkov(), fixtures.core_tent32(),
            fixtures.doubling(), REFERENCE_MAPS["beta_map"]()]
    maps += [f for f in (random_grid_map(rng) for _ in range(100)) if not f.has_plateau]
    maps += [f for f in (_off_grid_map(rng) for _ in range(100)) if not f.has_plateau]
    off_p = 0
    for f in maps:
        for n in (1, 2, 3, 8):
            g, cfg = markov_approx(f, n, shadow_depth=min(n, 3))
            assert cfg.distance == sup_dist(f, g), (f.nodes, n)
            assert type(cfg.distance) is F and cfg.distance * n < 1
            points = set(cfg.points)
            off_p += any(node.x not in points for node in f.nodes)
    assert off_p > 50  # the second read of f is exercised


def _set_union_points(f, n, shadow_depth):
    """P as it was built: a set of the shadow points and the grid, sorted."""
    a, b = f.domain
    top = max(abs(seg.slope) for seg in f.segments)
    delta = min(F(1, 2 * n) / top if top > 1 else F(1, 2 * n), F(1, 4 * n))
    grid_n = 1
    while grid_n * delta <= b - a:
        grid_n *= 2
    pts = {a, b} | {a + (b - a) * F(k, grid_n) for k in range(grid_n + 1)}
    if shadow_depth >= 1:
        pts |= approximation._shadow_points(f, shadow_depth)
    return tuple(sorted(pts))


def test_approx_counts_its_points_before_it_builds_them(monkeypatch):
    # the refusal names the size of the point set it would have built
    rng = random.Random(12)
    maps = [fixtures.tent(), fixtures.bimodal_nonmarkov(), fixtures.tent_slope(F(3, 2)),
            fixtures.doubling(), REFERENCE_MAPS["beta_map"]()]
    maps += [f for f in (_off_grid_map(rng) for _ in range(30)) if not f.has_plateau]
    for f in maps:
        for n, depth in ((1, 1), (3, 2), (16, 4)):
            _, cfg = markov_approx(f, n, shadow_depth=depth)
            assert cfg.points == _set_union_points(f, n, min(depth, n)), (f.nodes, n)
            want = len(cfg.points)
            with monkeypatch.context() as m:
                m.setattr(approximation, "MAX_APPROX_POINTS", want - 1)
                with pytest.raises(PreconditionError, match=f"needs {want} points "):
                    markov_approx(f, n, shadow_depth=depth)
                m.setattr(approximation, "MAX_APPROX_POINTS", want)
                markov_approx(f, n, shadow_depth=depth)


def test_approx_bound_check_still_raises(monkeypatch):
    # a snap of every value to a puts g at distance 1 from the tent
    monkeypatch.setattr(approximation, "locate_leq", lambda pts, ptsf, y: 0)
    with pytest.raises(VerificationError, match="missed its bound"):
        markov_approx(fixtures.tent(), 4)


def test_schedule_walks_lap_end_orbits_once_per_depth(monkeypatch):
    depths = []
    walk = approximation.lap_ends

    def counted(f, k):
        depths.append(k)
        return walk(f, k)

    monkeypatch.setattr(approximation, "lap_ends", counted)
    approximation._shadow_points.cache_clear()
    tr = normalize(fixtures.tent_slope(F(3, 2)), target=1e-12,
                   schedule=[2, 4, 8, 16, 32], grid_points=64)
    assert tr.indices == (2, 4, 8, 16, 32)
    assert depths == [2, 4, 8]  # shadow depth min(n, 8)


def test_monotone_shadowing_small():
    f = fixtures.tent_slope(F(3, 2))
    for n in (2, 4, 8):
        g, _ = markov_approx(f, n)
        for k in range(1, min(n, 3) + 1):
            assert check_monotone_shadowing(f, g, k)


def _reference_points(f, n, k, iterates):
    """P of markov_approx(f, n, shadow_depth=k) from the composed
    iterates: the orbits of a, b and the lap ends of f^k to depth k,
    read off f^j, and the power-of-two grid finer than delta."""
    a, b = f.domain
    k = min(k, n)
    pts = {a, b}
    for q in {a, b} | {lap.lo for lap in laps(iterates[k - 1])}:
        for side in (RIGHT if q < b else LEFT, LEFT if q > a else RIGHT):
            pts.update(fj.eval(q, side) for fj in iterates[:k])
        pts.add(q)
    top = max(abs(seg.slope) for seg in f.segments)
    delta = min(F(1, 2 * n) / top if top > 1 else F(1, 2 * n), F(1, 4 * n))
    grid_n = 1
    while grid_n * delta <= b - a:
        grid_n *= 2
    pts.update(a + (b - a) * F(i, grid_n) for i in range(grid_n + 1))
    return tuple(sorted(pts))


REFERENCE_MAPS = {
    "tent32": lambda: fixtures.tent_slope(F(3, 2)),
    "tent75": fixtures.tent75,
    "bimodal": fixtures.bimodal_nonmarkov,
    "beta_map": lambda: PwaMap.from_triples(
        [(0, None, 0), (F(2, 3), 1, 0), (1, F(1, 2), None)]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_approx_points_match_composed_reference(name):
    f = REFERENCE_MAPS[name]()
    iterates = [f] + [iterate(f, k) for k in range(2, 9)]
    for n in (1, 2, 4, 8, 16, 32, 64):
        for k in range(1, 9):
            _, cfg = markov_approx(f, n, shadow_depth=k)
            assert cfg.points == _reference_points(f, n, k, iterates), (n, k)


def test_normalize_skew_tent_exact_step():
    tr = normalize(fixtures.skew_tent(F(5, 12)), target=1e-6)
    assert tr.markov_exact and tr.converged
    assert abs(tr.gamma - 2.0) < 1e-12
    assert sup_dist(tr.final_g.map, fixtures.tent()) == 0
    assert abs(float(tr.final_psi.eval(F(5, 12))) - 0.5) < 1e-12
    assert tr.residual.residual < 1e-6


def test_normalize_golden_exact_step():
    tr = normalize(fixtures.golden(), target=1e-6)
    assert tr.markov_exact
    g = tr.final_g.map
    assert abs(float(g.nodes[1].x) - V_A) < 1e-9
    assert abs(abs(float(g.segments[0].slope)) - PHI) < 1e-9
    assert tr.residual.residual < 1e-6


def test_normalize_identity_rejected():
    with pytest.raises(PreconditionError):
        normalize(fixtures.identity_map())


def test_normalize_slope32_schedule():
    tr = normalize(fixtures.tent_slope(F(3, 2)), target=1e-2,
                   schedule=[2, 4, 8, 16, 32, 64], grid_points=512)
    assert not tr.markov_exact
    assert tr.converged
    assert tr.cauchy_gaps[-1] < 1e-2
    assert abs(tr.gamma - 1.5) < 0.01
    assert tr.betas[-1] > 1
    # the constant-slope output really has uniform slopes
    assert tr.final_g.max_slope_deviation < 1e-6
    # entropy semicontinuity surrogate: the growth rates home in on the
    # lap-count trend along the schedule
    import math
    gaps_to_trend = [abs(math.log(b) - tr.entropy_trend) for b in tr.betas]
    assert gaps_to_trend[-1] < 0.05
    assert gaps_to_trend[-1] <= gaps_to_trend[0] + 1e-12


def test_normalize_non_converged_flag():
    tr = normalize(fixtures.tent_slope(F(3, 2)), target=1e-9,
                   schedule=[2, 4], grid_points=256)
    assert not tr.converged
    assert len(tr.indices) == 2


def test_verify_identity_psi():
    tr = normalize(fixtures.tent(), target=1e-6)
    rep = verify_semiconjugacy(fixtures.tent(), fixtures.tent(), tr.final_psi,
                               grid_points=1000)
    assert rep.residual < 1e-12
    assert rep.slope_histogram == ((2.0, 2),)


def test_verify_detects_perturbation():
    tr = normalize(fixtures.skew_tent(F(5, 12)), target=1e-6)
    bad = PwaMap.from_pairs([(0, 0), (F(1, 2), F(99, 100)), (1, 0)])
    rep = verify_semiconjugacy(fixtures.skew_tent(F(5, 12)), bad, tr.final_psi,
                               grid_points=1000)
    assert rep.residual >= 0.004


def test_sorted_reads_make_no_point_evaluations(monkeypatch):
    # one schedule step of normalize reads its maps along sorted point
    # sets (PwaMap.sides), so not one PwaMap.eval call is made
    calls = []
    point_eval = PwaMap.eval

    def counted(self, *args):
        calls.append(args)
        return point_eval(self, *args)

    monkeypatch.setattr(PwaMap, "eval", counted)
    f = fixtures.tent_slope(F(3, 2))
    g, cfg = markov_approx(f, 64)
    s = structure_from_points(g, cfg.points, numeric="float")
    psi = build_psi(s, 1e-5, max_table_points=PIPELINE_TABLE_POINTS)
    cs = build_constant_slope(s, psi)
    rep = verify_semiconjugacy(f, cs.map, psi, grid_points=64)
    assert rep.residual < 0.1
    assert calls == []


def test_trace_tsv_layout():
    tr = normalize(fixtures.tent_slope(F(3, 2)), target=1e-1,
                   schedule=[2, 4, 8], grid_points=256)
    text = tr.to_tsv()
    lines = text.strip().splitlines()
    assert lines[0] == "i\tbeta_i\tcauchy_gap\tresidual"
    assert len(lines) == len(tr.indices) + 1
