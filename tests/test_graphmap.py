from fractions import Fraction as F

import pytest

from slopeforge import fixtures
from slopeforge.errors import FormatError
from slopeforge.graphmap import flatten, normalize_graph, parse_graph
from slopeforge.pwmap import lap_counts, sup_dist


def test_parse_circle_doubling():
    gm = parse_graph(fixtures.CIRCLE_DOUBLING)
    assert gm.graph.vertices == ("v",)
    assert gm.graph.edges == (("e", "v", "v"),)
    assert gm.actions["e"].word == (("e", 1), ("e", 1))


def test_parse_rejects_broken_word():
    bad = fixtures.INTERVAL_TENT.replace("path e e+ e-", "path e e+ e+")
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_parse_rejects_missing_action():
    bad = "graph\nvertex v\nedge e v v\naction\n"
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_flatten_circle_doubling_exact():
    flat, chart = flatten(parse_graph(fixtures.CIRCLE_DOUBLING))
    assert flat == fixtures.doubling()
    assert chart.cut_points == (0, 1)
    assert lap_counts(flat, 8) == [2**n for n in range(1, 9)]


def test_flatten_interval_tent_trivial():
    flat, _ = flatten(parse_graph(fixtures.INTERVAL_TENT))
    assert flat == fixtures.tent()


def test_flatten_two_edge_wrap():
    flat, _ = flatten(parse_graph(fixtures.TWO_EDGE_WRAP))
    a, b = flat.domain
    assert (a, b) == (0, 2)
    assert lap_counts(flat, 8) == [2**n for n in range(1, 9)]


def test_flatten_lap_structure_matches_pieces():
    # lap endpoints of the flat map sit at cut points, their preimages,
    # and the chart kinks: for the doubling circle that is {0, 1/2, 1}
    from slopeforge.pwmap import laps
    flat, _ = flatten(parse_graph(fixtures.CIRCLE_DOUBLING))
    assert [(l.lo, l.hi) for l in laps(flat)] == [(0, F(1, 2)), (F(1, 2), 1)]


def test_chart_round_trip():
    _, chart = flatten(parse_graph(fixtures.TWO_EDGE_WRAP))
    for c in (F(1, 3), F(1, 2), F(5, 4), F(7, 4)):
        eid, t = chart.to_graph(c)
        assert chart.to_flat(eid, t) == c


def test_normalize_graph_doubling():
    res = normalize_graph(parse_graph(fixtures.CIRCLE_DOUBLING))
    assert res.trace.markov_exact
    assert abs(res.g.slope - 2.0) < 1e-12
    assert sup_dist(res.g.map, fixtures.doubling()) == 0
    assert res.collapsed_edges == ()
    assert res.edge_lengths["e"] == pytest.approx(1.0)
    assert res.continuity_ok
    assert res.trace.conjugacy


def test_normalize_graph_interval_tent():
    res = normalize_graph(parse_graph(fixtures.INTERVAL_TENT))
    assert sup_dist(res.g.map, fixtures.tent()) == 0
    assert res.continuity_ok


def test_normalize_graph_collapsing_circle():
    res = normalize_graph(parse_graph(fixtures.COLLAPSING_CIRCLE))
    assert res.trace.markov_exact
    assert abs(res.g.slope - 2.0) < 1e-9
    assert res.collapsed_edges == ("e2",)
    assert any(eid == "e1" and lo == F(1, 3) and hi == F(2, 3)
               for eid, lo, hi in res.collapse_pieces)
    # collapsing e2 identifies the two vertices
    assert any(len(cls) == 2 for cls in res.vertex_classes)
    assert res.continuity_ok
    # psi stays strictly increasing on its table, but it is constant on
    # [1, 2], which lies inside the last table cell: not a conjugacy
    assert not res.trace.conjugacy


def test_parse_rejects_nonvertex_chart_endpoint():
    bad = fixtures.CIRCLE_DOUBLING.replace("1 2 -", "1 3/2 -")
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_parse_rejects_chart_leaving_corridor():
    bad = fixtures.INTERVAL_TENT.replace("nodes e 2\n0 - 0\n1 2 -",
                                         "nodes e 3\n0 - 0\n1/2 3 3\n1 2 -")
    with pytest.raises(FormatError):
        parse_graph(bad)
