import random
import sys
from fractions import Fraction as F

import pytest

from slopeforge import fixtures
from slopeforge.approximation import normalize
from slopeforge.entropy import entropy_lapcount
from slopeforge.errors import PreconditionError
from slopeforge.graphmap import normalize_graph, parse_graph
from slopeforge.markov import is_mixing_matrix, markov_closure
from slopeforge.normalform import (
    EVIDENCE_PRIMITIVE,
    check_gap_bound,
    normal_form,
    slope_gap_bound,
)
from slopeforge.pwmap import PwaMap, modality, sup_dist


def test_phi_skew_tent():
    nf = normal_form(fixtures.skew_tent(F(5, 12)))
    assert sup_dist(nf.g.map, fixtures.tent()) == 0
    assert abs(float(nf.psi_eval(F(5, 12))) - 0.5) < 1e-12
    assert nf.conjugacy
    assert nf.transitivity_evidence == EVIDENCE_PRIMITIVE
    assert not nf.constant_slope_input


def test_phi_fixes_tent():
    nf = normal_form(fixtures.tent())
    assert nf.constant_slope_input
    assert nf.g.map == fixtures.tent()
    assert nf.conjugacy
    for k in range(0, 33):
        x = F(k, 32)
        assert abs(float(nf.psi_eval(x)) - float(x)) < 1e-15
    assert nf.residual.residual == 0.0


def test_phi_fixes_core_slope32():
    nf = normal_form(fixtures.core_tent32())
    assert nf.constant_slope_input
    assert nf.g.slope == 1.5
    assert sup_dist(nf.g.map, fixtures.core_tent32()) == 0


def test_phi_fixes_golden_normal_form():
    g = fixtures.golden_normal_form()
    nf = normal_form(g)
    assert nf.constant_slope_input
    assert sup_dist(nf.g.map, g) == 0


def test_phi_rejects_discontinuous():
    with pytest.raises(PreconditionError, match="continuous"):
        normal_form(fixtures.doubling())


def test_phi_rejects_zero_entropy():
    with pytest.raises(PreconditionError, match="entropy"):
        normal_form(fixtures.identity_map())


def test_phi_collapses_trapezoid_plateau_through_psi():
    nf = normal_form(fixtures.trapezoid())
    assert nf.g.slope == 2.0
    assert sup_dist(nf.g.map, fixtures.tent()) == 0
    assert nf.psi.collapse_intervals
    assert not nf.conjugacy
    # the plateau and its preimages collapse to the tent's critical point
    assert nf.psi_eval(F(2, 5)) == nf.psi_eval(F(1, 2)) == nf.psi_eval(F(3, 5))
    assert abs(float(nf.psi_eval(F(1, 2))) - 0.5) < 1e-12


def test_phi_plateau_below_the_top_gives_golden_slope():
    f = PwaMap.from_pairs([(0, 0), (F(2, 5), F(9, 10)),
                           (F(3, 5), F(9, 10)), (1, 0)])
    nf = normal_form(f)
    assert abs(nf.g.slope - (1 + 5 ** 0.5) / 2) < 1e-12
    assert nf.residual.residual < 1e-9
    assert not nf.conjugacy


def test_phi_non_markov_plateau_needs_reduce_first():
    f = PwaMap.from_pairs([(0, F(3, 10)), (F(1, 10), F(3, 10)),
                           (F(11, 20), 1), (1, F(3, 10))])
    with pytest.raises(PreconditionError, match="constant lap"):
        normal_form(f)


def test_phi_reports_modalities():
    nf = normal_form(fixtures.skew_tent(F(5, 12)))
    assert nf.modality_in == 1
    assert nf.modality_out == 1


def test_phi_full_pipeline_on_tent_matches_fast_path():
    # force the pipeline route past the fixed-point detection
    nf = normal_form(fixtures.tent(), force_pipeline=True)
    assert not nf.constant_slope_input
    assert sup_dist(nf.g.map, fixtures.tent()) == 0
    for k in range(0, 17):
        x = F(k, 16)
        assert abs(float(nf.psi.eval(x)) - float(x)) < 1e-12
    assert nf.conjugacy


def test_slope_gap_bound_values():
    assert slope_gap_bound(2.0, 1.5, 1) == 0.125
    assert slope_gap_bound(3.0, 2.0, 2) == pytest.approx(1 / 6)
    with pytest.raises(PreconditionError):
        slope_gap_bound(1.618, 1.618, 1)


def test_check_gap_bound_tent_pair():
    chk = check_gap_bound(fixtures.tent(), fixtures.tent_slope(F(3, 2)))
    assert chk.holds
    assert chk.bound == F(1, 8)
    assert chk.distance >= F(1, 8)


def test_check_gap_bound_rejects_equal_slopes():
    left = fixtures.tent()
    right = PwaMap.from_pairs([(0, 1), (F(1, 2), 0), (1, 1)])
    with pytest.raises(PreconditionError):
        check_gap_bound(left, right)


@pytest.mark.parametrize("eps", [F(1, 16), F(1, 64), F(1, 1024)],
                         ids=["2^-4", "2^-6", "2^-10"])
def test_normal_form_operator_is_not_continuous(eps):
    # f_eps is within 4 eps of the tent, yet its normal form keeps a
    # slope near 3 and so stays more than 1/8 away from the tent's own
    # normal form, the tent itself
    tent = fixtures.tent()
    f = PwaMap.from_pairs([(0, 0), (eps, 4 * eps), (2 * eps, 0),
                           (3 * eps, 6 * eps), (F(1, 2), 1), (1, 0)])
    assert sup_dist(f, tent) == 4 * eps
    assert is_mixing_matrix(list(markov_closure(f).covers)).primitive
    nf = normal_form(f)
    assert nf.conjugacy
    g = nf.g.map
    # the rationalized slopes of g are not exactly equal, so the bound is
    # taken from the float slope rather than through check_gap_bound
    bound = slope_gap_bound(nf.g.slope, 2, modality(g))
    assert bound > F(1, 8)
    assert sup_dist(g, tent) >= bound


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


def test_gap_bound_property_suite():
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        m_f = rng.randint(1, 4)
        m_g = rng.randint(1, 4)
        alpha = F(rng.randint(9, 16), 8)   # (1, 2]
        beta = F(rng.randint(4, 8), 8)     # below alpha's range start
        if not alpha > beta:
            continue
        fmap = random_constant_slope(rng, m_f, alpha)
        gmap = random_constant_slope(rng, m_g, beta)
        chk = check_gap_bound(fmap, gmap)
        assert chk.holds, (fmap.nodes, gmap.nodes)
        checked += 1


@pytest.mark.parametrize("run,gates", [
    (lambda: normal_form(fixtures.skew_tent(F(5, 12))), 0),
    (lambda: normal_form(fixtures.core_tent32()), 0),  # the constant-slope path
    (lambda: normalize_graph(parse_graph(fixtures.CIRCLE_DOUBLING)), 0),
    (lambda: normalize(fixtures.core_tent32(), schedule=(2, 4)), 1),
], ids=["skew_tent", "core_tent32", "graph_circle_doubling", "non_markov"])
def test_one_positivity_gate_per_run(monkeypatch, run, gates):
    # every module binding of entropy_lapcount counts its calls; beta or
    # the slope decides positivity where the run has one, so only the
    # non-Markov run counts laps
    real = entropy_lapcount
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("depth"))
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("slopeforge.")
                and getattr(mod, "entropy_lapcount", None) is real):
            monkeypatch.setattr(mod, "entropy_lapcount", counting)
    run()
    assert len(calls) == gates, calls
