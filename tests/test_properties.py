"""Cross-module invariants from the design contracts."""

import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import check_lap_ends_match_iterates, check_orbits_follow_iterates
from slopeforge import fixtures, numeric
from slopeforge.approximation import (
    PIPELINE_TABLE_POINTS,
    markov_approx,
    normalize,
    verify_semiconjugacy,
)
from slopeforge.entropy import entropy_lapcount
from slopeforge.errors import FormatError
from slopeforge.graphmap import parse_graph
from slopeforge.markov import (
    markov_closure,
    parse_matrix,
    perron,
    refine,
    serialize_matrix,
    structure_from_points,
)
from slopeforge.pwmap import (
    INCREASING,
    DECREASING,
    PwaMap,
    iterate,
    lap_counts,
    laps,
    parse_pwa,
    serialize_pwa,
    sup_dist,
)
from slopeforge.semiconjugacy import (
    PsiTable,
    build_constant_slope,
    build_psi,
    psi_from_tsv,
    psi_to_tsv,
)

# deterministic examples and no example database, so a run is
# reproducible and writes nothing
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

MARKOV_FIXTURES = [fixtures.tent, fixtures.golden,
                   lambda: fixtures.skew_tent(F(5, 12)),
                   fixtures.trapezoid, fixtures.doubling]


def random_pwa(rng, max_nodes=6):
    """Random piecewise-affine self-map of [0,1], jumps allowed."""
    k = rng.randint(2, max_nodes)
    xs = sorted(rng.sample([F(i, 64) for i in range(1, 64)], k - 2))
    xs = [F(0)] + xs + [F(1)]
    triples = []
    for i, x in enumerate(xs):
        yl = None if i == 0 else F(rng.randint(0, 32), 32)
        yr = None if i == len(xs) - 1 else F(rng.randint(0, 32), 32)
        if 0 < i < len(xs) - 1 and rng.random() < 0.6:
            yr = yl  # mostly continuous nodes
        triples.append((x, yl, yr))
    return PwaMap.from_triples(triples)


def test_serializer_round_trip_random():
    rng = random.Random(99)
    for _ in range(60):
        f = random_pwa(rng)
        assert parse_pwa(serialize_pwa(f)) == f


def test_submultiplicativity_random():
    rng = random.Random(7)
    for _ in range(15):
        f = random_pwa(rng, max_nodes=4)
        cs = lap_counts(f, 6)
        c = {i + 1: v for i, v in enumerate(cs)}
        for m in range(1, 4):
            for n in range(1, 3):
                assert c[m + n] <= c[m] * c[n]


def test_lap_counts_match_composition_random():
    # the interval recursion against laps of the composed iterates, on
    # maps with jumps and plateaus
    rng = random.Random(2024)
    for _ in range(200):
        f = random_pwa(rng)
        want = [len(laps(iterate(f, k))) for k in range(1, 7)]
        assert lap_counts(f, 6) == want, f.nodes


def test_orbits_and_lap_ends_follow_composition_random():
    # one-sided orbits and the lap ends of f^k against the composed
    # iterates, on maps with jumps and plateaus
    rng = random.Random(2025)
    for _ in range(200):
        f = random_pwa(rng)
        check_orbits_follow_iterates(f, 5)
        check_lap_ends_match_iterates(f, 5)


def test_refinement_cell_growth_tracks_beta():
    # (1/n) log |A_n| (non-singleton cells) approaches log beta from above
    for make in (fixtures.tent, fixtures.golden,
                 lambda: fixtures.skew_tent(F(5, 12))):
        s = markov_closure(make(), 100)
        target = math.log(float(s.beta))
        gaps = []
        for n in (6, 10, 14):
            count = refine(s, n).nonsingleton_count
            gaps.append(math.log(count) / n - target)
        assert all(g >= -1e-9 for g in gaps)
        assert gaps[-1] < 0.05
        assert gaps[0] >= gaps[-1] - 1e-12


def test_constant_slope_outputs_have_matching_entropy():
    for make in (fixtures.golden, lambda: fixtures.skew_tent(F(5, 12))):
        s = markov_closure(make(), 100)
        psi = build_psi(s, 1e-6)
        g = build_constant_slope(s, psi).map
        rep = entropy_lapcount(g, depth=12)
        assert abs(rep.trend - math.log(float(s.beta))) < 0.05


def test_iteration_scaling_estimates():
    for make in (fixtures.tent, fixtures.golden):
        f = make()
        base = entropy_lapcount(f, depth=12)
        for k in (2, 3):
            fk = iterate(f, k)
            repk = entropy_lapcount(fk, depth=12 // k)
            est_k = repk.lap_estimates[-1]
            est_1 = base.lap_estimates[(12 // k) * k - 1]
            assert abs(est_k - k * est_1) < 1e-12  # c_n(f^k) = c_{nk}(f)
            assert abs(est_k / k - math.log(float(markov_closure(f, 100).beta))) < 0.12


def test_psi_endpoint_normalization_and_residual_bound():
    for make in MARKOV_FIXTURES:
        s = markov_closure(make(), 200)
        if float(s.beta) <= 1:
            continue
        psi = build_psi(s, 1e-6)
        assert float(psi.ys[0]) == 0.0
        assert float(psi.ys[-1]) == 1.0
        # table increments stay within the refinement modulus
        assert psi.max_table_gap() <= float(s.beta) ** (-psi.table_depth) + 1e-12
        g = build_constant_slope(s, psi)
        rep = verify_semiconjugacy(s.map, g.map, psi, grid_points=2000)
        assert rep.residual <= float(s.beta) * psi.error_bound + 1e-9


def test_direction_preservation():
    for make in MARKOV_FIXTURES:
        s = markov_closure(make(), 200)
        if float(s.beta) <= 1:
            continue
        psi = build_psi(s, 1e-6)
        g = build_constant_slope(s, psi).map
        for lap in laps(s.map):
            zlo = float(psi.eval(lap.lo))
            zhi = float(psi.eval(lap.hi))
            if zhi - zlo <= 1e-9:
                continue  # collapsed lap
            glo = float(g.eval(numeric.rationalize(zlo + 1e-12, 15), "right"))
            ghi = float(g.eval(numeric.rationalize(zhi - 1e-12, 15), "left"))
            if lap.direction == INCREASING:
                assert ghi > glo
            elif lap.direction == DECREASING:
                assert ghi < glo


def test_slope_uniformity_on_fixtures():
    for make in MARKOV_FIXTURES:
        s = markov_closure(make(), 200)
        if float(s.beta) <= 1:
            continue
        psi = build_psi(s, 1e-6)
        cs = build_constant_slope(s, psi)
        assert cs.max_slope_deviation < 1e-9


def test_trapezoid_normal_form_is_tent():
    # collapsed cells contribute no nodes: the plateau family maps to
    # a genuine tent of slope 2
    s = markov_closure(fixtures.trapezoid(), 100)
    psi = build_psi(s, 1e-6)
    g = build_constant_slope(s, psi).map
    assert len(g.nodes) == 3
    assert float(sup_dist(g, fixtures.tent())) < 1e-30


def test_normalize_residual_contract():
    tr = normalize(fixtures.tent_slope(F(3, 2)), target=1e-2,
                   schedule=[2, 4, 8, 16, 32, 64], grid_points=512)
    assert tr.converged
    slack = tr.final_psi.error_bound + 1e-6
    assert tr.residual.residual <= 1e-2 * max(tr.gamma, 1.0) + slack


def test_equicontinuity_surrogate():
    target = 1e-2
    f = fixtures.tent_slope(F(3, 2))
    tr = normalize(f, target=target,
                   schedule=[2, 4, 8, 16, 32, 64], grid_points=512)
    alpha = min(b for b in tr.betas if b > 1)
    k = math.ceil(math.log(2 / target) / math.log(alpha))
    grid = [F(i, 512) for i in range(513)]
    # the factor maps of the schedule steps, built as normalize builds them
    psis = []
    for n, beta in zip(tr.indices, tr.betas):
        if beta <= 1:
            continue
        g_n, cfg = markov_approx(f, n)
        s_n = structure_from_points(g_n, cfg.points, numeric="float")
        psis.append(build_psi(s_n, min(target, 1e-4) / 8,
                              max_table_points=PIPELINE_TABLE_POINTS))
    assert psis[-1].xs == tr.final_psi.xs and psis[-1].ys == tr.final_psi.ys
    moduli = []
    for psi in psis:
        vals = [float(psi.eval(x, fast=True)) for x in grid]
        moduli.append(max(abs(b - a) for a, b in zip(vals, vals[1:])))
    bound = 2 * alpha ** (-k) + 2 * psis[-1].max_table_gap()
    assert moduli[-1] <= bound + 0.05
    assert moduli[-1] <= moduli[0] + 1e-12


def test_conjugacy_flag_soundness():
    from slopeforge.normalform import normal_form
    nf = normal_form(fixtures.skew_tent(F(5, 12)))
    assert nf.conjugacy
    assert nf.residual.residual < 1e-6
    assert all(nf.psi.ys[i + 1] > nf.psi.ys[i]
               for i in range(len(nf.psi.ys) - 1))


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("SLOPEFORGE_PRECISION", "192")
    assert numeric.precision_bits() == 192
    ctx = numeric.mp_context()
    assert ctx.prec == 192
    pr = perron([[0, 1], [1, 1]])
    import mpmath
    hi = mpmath.mp.clone()
    hi.prec = 192
    phi = (1 + hi.sqrt(5)) / 2
    assert abs(float(pr.beta - phi)) < 1e-40
    monkeypatch.setenv("SLOPEFORGE_PRECISION", "abc")
    with pytest.raises(ValueError):
        numeric.precision_bits()


def test_non_unit_domain_pipeline():
    # the whole pipeline is domain-agnostic; the normal form lands on [0,1]
    f = PwaMap.from_pairs([(0, 0), (F(1, 2), 2), (2, 0)])
    tr = normalize(f, target=1e-6)
    assert tr.markov_exact
    assert abs(tr.gamma - 2.0) < 1e-12
    assert tr.residual.residual < 1e-6
    from slopeforge.normalform import normal_form
    nf = normal_form(f)
    assert nf.conjugacy
    assert abs(float(nf.psi_eval(F(1, 2))) - 0.5) < 1e-12
    g = nf.g.map
    assert g.domain == (0, 1)


# -- hypothesis: round trips and parser fuzzing -----------------------------

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**9)


@st.composite
def exact_maps(draw):
    """A PwaMap on a random rational domain, with or without jumps."""
    xs = sorted(draw(st.sets(rationals, min_size=2, max_size=8)))
    values = st.fractions(min_value=xs[0], max_value=xs[-1],
                          max_denominator=10**9)
    jumps = draw(st.booleans())
    triples = []
    for i, x in enumerate(xs):
        yl = None if i == 0 else draw(values)
        if i == len(xs) - 1:
            yr = None
        elif i == 0 or jumps:
            yr = draw(values)
        else:
            yr = yl
        triples.append((x, yl, yr))
    return PwaMap.from_triples(triples)


@PROPERTY
@given(exact_maps())
def test_pwa_round_trip_property(f):
    assert parse_pwa(serialize_pwa(f)) == f


@PROPERTY
@given(st.sets(rationals, min_size=2, max_size=12),
       st.lists(st.floats(0, 1), min_size=12, max_size=12))
def test_psi_tsv_round_trip_property(xs, ys):
    xs = tuple(sorted(xs))
    ys = tuple(sorted(ys[:len(xs)]))
    t = PsiTable(depth=0, table_depth=0, xs=xs, ys=ys, beta=None,
                 error_bound=0.0, collapse_intervals=(), structure=None)
    back = psi_from_tsv(psi_to_tsv(t))
    assert back.xs == xs
    for u, w in zip(back.ys, ys):
        assert abs(u - w) <= 1e-14


@st.composite
def dyadic_markov_maps(draw):
    """A map on [0, 1] with nodes at k/n and values on the same grid,
    n a power of two, and slopes +-1, 2, 4 or 8: Markov on the grid, with
    float64 data and a refinement of dyadic points."""
    n = draw(st.sampled_from((2, 4, 8)))
    jumps = draw(st.booleans())
    triples = []
    yl = None
    for k in range(n):
        if k == 0 or jumps:
            start = draw(st.integers(0, n))
        else:
            start = yl
        steps = [d for m in (1, 2, 4, 8) for d in (m, -m) if 0 <= start + d <= n]
        end = start + draw(st.sampled_from(steps))
        triples.append((F(k, n), None if yl is None else F(yl, n), F(start, n)))
        yl = end
    triples.append((F(1), F(yl, n), None))
    return PwaMap.from_triples(triples)


@PROPERTY
@given(dyadic_markov_maps(),
       st.lists(st.integers(0, 2**20), min_size=1, max_size=20))
def test_fast_psi_is_the_exact_walk_on_dyadic_markov_maps(f, ks):
    s = markov_closure(f, 100)
    assume(float(s.beta) > 1)
    psi = build_psi(s, 1e-7, max_table_points=257)
    assert psi._exact_map and psi._exact_table
    for k in ks:
        x = F(k, 2**20)
        fast = psi._descend_float(x)
        assert fast is not None, x
        assert fast.hex() == psi._descend(x, psi._Vf, float(psi.beta), 1.0).hex(), x
        assert psi.eval(x, fast=True) == fast


PSI_TSV = "x\tpsi\tx_exact\n0\t0\t0\n0.5\t0.5\t1/2\n1\t1\t1\n"
VALID_DOCUMENTS = {
    parse_pwa: [serialize_pwa(fixtures.tent()), serialize_pwa(fixtures.doubling())],
    parse_graph: [fixtures.CIRCLE_DOUBLING, fixtures.TWO_EDGE_WRAP,
                  fixtures.INTERVAL_TENT, fixtures.COLLAPSING_CIRCLE],
    psi_from_tsv: [PSI_TSV],
    parse_matrix: [serialize_matrix([[1, 1], [1, 0]])],
}
TOKENS = ["", "-", "0", "1", "2", "-1", "1/2", "1/0", "2x", "0.5", "1e3",
          "abc", "nan", "inf", "pwa", "domain", "nodes", "graph", "vertex",
          "edge", "action", "path", "e", "v", "e+", "e-", "matrix", "\t",
          "\n"]


@st.composite
def mutated(draw, documents):
    """A valid document with a few whitespace-separated tokens replaced,
    deleted or duplicated, or plain random text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=60))
    parts = re.split(r"(\s+)", draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        new = draw(st.sampled_from(TOKENS) | st.text(max_size=4))
        parts[i:i + 1] = draw(st.sampled_from([[new], [], [parts[i]] * 2]))
        if not parts:
            parts = [""]
    return "".join(parts)


@pytest.mark.parametrize("parse", list(VALID_DOCUMENTS),
                         ids=lambda p: p.__name__)
def test_parsers_raise_only_format_error(parse):
    @PROPERTY
    @given(mutated(VALID_DOCUMENTS[parse]))
    def check(text):
        try:
            parse(text)
        except FormatError:
            pass

    check()
