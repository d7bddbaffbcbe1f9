import math
from fractions import Fraction as F

from slopeforge import fixtures
from slopeforge.entropy import entropy, entropy_lapcount, entropy_spectral, is_entropy_positive
from slopeforge.markov import markov_closure
from slopeforge.pwmap import PwaMap

LOG2 = math.log(2)
LOGPHI = math.log((1 + 5**0.5) / 2)


def test_tent_lapcount_report():
    rep = entropy_lapcount(fixtures.tent(), depth=10)
    assert rep.lap_counts == tuple(2**n for n in range(1, 11))
    for est in rep.lap_estimates:
        assert abs(est - LOG2) < 1e-14
    assert abs(rep.trend - LOG2) < 1e-14
    assert rep.positive


def test_golden_lapcount_report():
    rep = entropy_lapcount(fixtures.golden(), depth=10)
    assert rep.lap_counts[-1] == 144
    assert abs(rep.lap_estimates[-1] - math.log(144) / 10) < 1e-14
    # the raw sequence sits above the entropy; the trend is much closer
    assert rep.lap_estimates[-1] > LOGPHI
    assert abs(rep.trend - LOGPHI) < 1e-3


def test_single_lap_and_constant_maps():
    rep = entropy_lapcount(fixtures.identity_map(), depth=7)
    assert rep.lap_counts == (1,) * 7
    assert rep.trend == 0.0
    assert not rep.positive
    assert "no positive entropy" in rep.note
    const = PwaMap.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
    rep2 = entropy_lapcount(const, depth=5)
    assert not rep2.positive


def test_spectral_values():
    assert abs(entropy_spectral(markov_closure(fixtures.tent(), 100)) - LOG2) < 1e-12
    assert abs(entropy_spectral(markov_closure(fixtures.golden(), 100)) - LOGPHI) < 1e-12


def test_entropy_dispatch_markov():
    rep = entropy(fixtures.tent(), depth=10)
    assert rep.spectral is not None
    assert abs(rep.spectral - LOG2) < 1e-12
    assert rep.agreed


def test_entropy_dispatch_non_markov():
    rep = entropy(fixtures.tent_slope(F(3, 2)), depth=12, markov_points=64)
    assert rep.spectral is None
    assert abs(rep.trend - math.log(1.5)) < 0.02
    assert rep.positive


def test_entropy_golden_agreement():
    rep = entropy(fixtures.golden(), depth=10)
    assert rep.agreed and rep.gap < 1e-3


def test_tsv_layout():
    rep = entropy(fixtures.tent(), depth=4)
    text = rep.to_tsv()
    lines = text.strip().splitlines()
    assert lines[0] == "n\tc_n\testimate"
    assert lines[1].startswith("1\t2\t")
    assert any(ln.startswith("spectral\t") for ln in lines)
    assert any(ln.startswith("agreed\t") for ln in lines)


def test_iteration_scaling_identity():
    # c_n(f^k) = c_{nk}(f) exactly on fixtures
    from slopeforge.pwmap import iterate, lap_counts
    for fx in (fixtures.tent(), fixtures.golden()):
        cs = lap_counts(fx, 8)
        f2 = iterate(fx, 2)
        for n in (1, 2, 3, 4):
            assert lap_counts(f2, n)[-1] == cs[2 * n - 1]


def test_positive_entropy_helper():
    assert is_entropy_positive(fixtures.tent())
    assert not is_entropy_positive(fixtures.identity_map())
    assert is_entropy_positive(fixtures.trapezoid())
    # zero entropy: the lap counts grow linearly (4n - 1) and beta = 1
    assert not is_entropy_positive(fixtures.low_trapezoid())


def test_lapcount_positivity_is_growth():
    # flat_trapezoid keeps 3 laps at every depth: more than one lap, no growth
    rep = entropy_lapcount(fixtures.flat_trapezoid(), depth=8)
    assert rep.lap_counts == (3,) * 8
    assert not rep.positive
    assert entropy_lapcount(fixtures.tent(), depth=1).positive  # c_1 >= 2


def test_lapcount_reaches_full_depth():
    # the normalize gate asks bimodal for depth 14; composition under a
    # node budget used to stop it at depth 9
    rep = entropy_lapcount(fixtures.bimodal_nonmarkov(), depth=14)
    assert len(rep.lap_counts) == 14
    assert rep.trend == math.log(rep.lap_counts[-1] / rep.lap_counts[-2])
    assert rep.positive
