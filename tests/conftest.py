import random
from fractions import Fraction as F
from typing import NamedTuple

from slopeforge.pwmap import LEFT, RIGHT, PwaMap, iterate, lap_ends, laps, orbit_one_sided
from slopeforge.semiconjugacy import COLLAPSE_TOL


def random_constant_slope(rng, m, slope):
    """Continuous zigzag on [0,1] with |slope| exactly `slope` everywhere."""
    for _ in range(50):
        lengths = [F(rng.randint(1, 8)) for _ in range(m + 1)]
        total = sum(lengths)
        lengths = [l / total for l in lengths]
        up = rng.random() < 0.5
        y = F(rng.randint(0, 8), 8)
        ys = [y]
        ok = True
        for l in lengths:
            y = y + slope * l if up else y - slope * l
            up = not up
            if not (0 <= y <= 1):
                ok = False
                break
            ys.append(y)
        if not ok:
            continue
        xs = [F(0)]
        for l in lengths:
            xs.append(xs[-1] + l)
        return PwaMap.from_pairs(list(zip(xs, ys)))
    # canonical fallback: full zigzag from 0
    lengths = [F(1, m + 1)] * (m + 1)
    ys = [F(0)]
    up = True
    for l in lengths:
        ys.append(ys[-1] + slope * l if up else ys[-1] - slope * l)
        up = not up
    xs = [F(k, m + 1) for k in range(m + 2)]
    return PwaMap.from_pairs(list(zip(xs, ys)))


def random_grid_map(rng):
    """Self-map of [0, 1] with nodes and values on the 1/8 grid; jumps
    and plateaus are both common, and closures often stay small."""
    xs = [F(0)] + sorted(rng.sample([F(i, 8) for i in range(1, 8)],
                                    rng.randint(0, 5))) + [F(1)]
    triples = []
    for i, x in enumerate(xs):
        yl = None if i == 0 else F(rng.randint(0, 8), 8)
        yr = None if i == len(xs) - 1 else F(rng.randint(0, 8), 8)
        if 0 < i < len(xs) - 1 and rng.random() < 0.6:
            yr = yl
        triples.append((x, yl, yr))
    return PwaMap.from_triples(triples)


def _germ_sides(f, x):
    a, b = f.domain
    return [side for side in (LEFT, RIGHT)
            if not (side == LEFT and x == a) and not (side == RIGHT and x == b)]


def check_orbits_follow_iterates(f, depth):
    """Every one-sided orbit from a node of f ends where the composed
    iterate takes it: orbit_one_sided walks compose's step rule."""
    iterates = [f] + [iterate(f, k) for k in range(2, depth + 1)]
    for node in f.nodes:
        for side in _germ_sides(f, node.x):
            walk = orbit_one_sided(f, node.x, side, depth)
            got = [p for p, _ in walk[1:]]
            want = [fk.eval(node.x, side) for fk in iterates]
            assert got == want, (node.x, side)


def check_lap_ends_match_iterates(f, depth):
    """lap_ends(f, k) are the lap ends of the composed f^k, and each
    orbit point is the composed iterate's one-sided value."""
    b = f.domain[1]
    iterates = [f] + [iterate(f, k) for k in range(2, depth + 1)]
    for k, fk in enumerate(iterates, start=1):
        ends = list(lap_ends(f, k))
        assert [c for c, _, _ in ends] == [lap.lo for lap in laps(fk)] + [b], k
        for c, left, right in ends:
            assert len(left) == len(right) == k + 1
            for side in _germ_sides(f, c):
                walk = left if side == LEFT else right
                assert walk[0] == (c, side)
                assert [p for p, _ in walk[1:]] == [
                    fj.eval(c, side) for fj in iterates[:k]], (k, c, side)


class ScalingCheckReport(NamedTuple):
    max_residual: float
    samples: int
    tolerance: float


def check_scaling_identity(f, psi, beta, samples=10000, seed=0):
    """Sample |psi(f(y)) - psi(f(x))| = beta |psi(y) - psi(x)| on laps.

    Pairs are drawn with both points interior to one lap; the reported
    tolerance includes the table's certified evaluation error.
    """
    rng = random.Random(seed)
    lps = laps(f)
    denom = 2**24
    worst = 0.0
    bf = float(beta)
    for _ in range(samples):
        lap = lps[rng.randrange(len(lps))]
        width = lap.hi - lap.lo
        u = lap.lo + width * F(rng.randrange(denom + 1), denom)
        w = lap.lo + width * F(rng.randrange(denom + 1), denom)
        if u == w:
            continue
        hull_ok = lap.lo < min(u, w) and max(u, w) < lap.hi
        if not hull_ok:
            continue
        lhs = abs(psi.eval(f.eval(w), fast=True) - psi.eval(f.eval(u), fast=True))
        rhs = bf * abs(psi.eval(w, fast=True) - psi.eval(u, fast=True))
        worst = max(worst, abs(lhs - rhs))
    tol = 4 * psi.error_bound * max(1.0, bf)
    return ScalingCheckReport(worst, samples, tol)


class CompatibilityReport(NamedTuple):
    ok: bool
    witnesses: tuple

    def __bool__(self):
        return self.ok


def check_compatibility(f, psi, tol=COLLAPSE_TOL):
    """Laps collapsed by psi must have collapsed images."""
    res = max(tol, 2 * psi.error_bound)
    bad = []
    bf = 1.0 if psi.beta is None else float(psi.beta)
    for lap in laps(f):
        span = float(psi.eval(lap.hi, fast=True) - psi.eval(lap.lo, fast=True))
        if span > res:
            continue
        u = f.eval(lap.lo, RIGHT)
        w = f.eval(lap.hi, LEFT)
        img_span = abs(float(psi.eval(w, fast=True) - psi.eval(u, fast=True)))
        if img_span > max(bf * res, 4 * psi.error_bound):
            bad.append((lap.lo, lap.hi))
    return CompatibilityReport(not bad, tuple(bad))
