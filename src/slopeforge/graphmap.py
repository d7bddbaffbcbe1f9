"""Piecewise monotone graph maps: flattening and lifted normal forms.

A graph map is given combinatorially: per edge, an edge-path word (the
corridor the image traverses) and a piecewise-affine chart map sending
the edge's unit chart into path position [0, word length].  Edge
endpoints must land on vertices, so vertex images are well defined.

Flattening lays the edges side by side on [0, E] (one unit each, head
at the left) and rewrites the action in flat coordinates; jumps appear
exactly at the cuts and their preimages.  The normalization pipeline
then runs on the flat map, and the result is lifted back: collapse
intervals become contracted connected sets, possibly deleting edges or
identifying vertices of the quotient graph.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import FormatError, PreconditionError
from .pwmap import LEFT, RIGHT, Node, PwaMap, parse_node_line, preimage_sweep

if TYPE_CHECKING:  # flattening alone loads no numeric module
    from .approximation import PipelineTrace
    from .semiconjugacy import ConstantSlopeMap, PsiTable

# psi-length at or below which an edge (or a vertex's spread of g
# values) counts as collapsed
EDGE_COLLAPSE_TOL = 1e-9


class GraphSpec(NamedTuple):
    vertices: tuple
    edges: tuple                 # (edge id, head vertex, tail vertex)

    def edge_index(self, eid: str) -> int:
        for i, (e, _, _) in enumerate(self.edges):
            if e == eid:
                return i
        raise KeyError(eid)


class EdgeAction(NamedTuple):
    word: tuple                  # ((edge id, +1|-1), ...)
    chart: PwaMap                # [0,1] -> [0, len(word)], piecewise monotone


class GraphMapSpec(NamedTuple):
    graph: GraphSpec
    actions: dict                # edge id -> EdgeAction


class FlatteningChart(NamedTuple):
    ordering: tuple              # (edge id, ...) in flat layout order
    cut_points: tuple            # integers 0..E as Fractions
    vertex_positions: dict       # vertex -> tuple of flat coordinates

    def to_flat(self, eid: str, t: Fraction) -> Fraction:
        return Fraction(self.ordering.index(eid)) + t

    def to_graph(self, c: Fraction):
        k = int(c)
        if k == len(self.ordering):
            k -= 1
        return self.ordering[k], c - k


def _word_endpoints(graph: GraphSpec, step) -> tuple:
    eid, sgn = step
    _, head, tail = graph.edges[graph.edge_index(eid)]
    return (head, tail) if sgn > 0 else (tail, head)


def parse_graph(text: str) -> GraphMapSpec:
    """Parse the graph text format (graph + action sections)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "graph":
        raise FormatError("graph document must open with a 'graph' line")
    vertices: List[str] = []
    edges: List[Tuple[str, str, str]] = []
    i = 1
    while i < len(lines) and lines[i] != "action":
        parts = lines[i].split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise FormatError(f"bad graph line: {lines[i]!r}")
        i += 1
    if i == len(lines):
        raise FormatError("missing 'action' section")
    known = set(vertices)
    for eid, h, t in edges:
        if h not in known or t not in known:
            raise FormatError(f"edge {eid} uses an undeclared vertex")
    graph = GraphSpec(tuple(vertices), tuple(edges))
    i += 1
    actions: Dict[str, EdgeAction] = {}
    eids = {e for e, _, _ in edges}
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "path" or len(parts) < 3:
            raise FormatError(f"expected a path line, got {lines[i]!r}")
        eid = parts[1]
        if eid not in eids:
            raise FormatError(f"path for unknown edge {eid}")
        word = []
        for w in parts[2:]:
            if w[-1] not in "+-" or w[:-1] not in eids:
                raise FormatError(f"bad word step {w!r}")
            word.append((w[:-1], 1 if w[-1] == "+" else -1))
        i += 1
        if i >= len(lines):
            raise FormatError("missing nodes after path line")
        head = lines[i].split()
        if len(head) != 3 or head[0] != "nodes" or head[1] != eid:
            raise FormatError(f"expected 'nodes {eid} <k>', got {lines[i]!r}")
        try:
            k = int(head[2])
        except ValueError:
            raise FormatError(f"bad node count: {head[2]!r}")
        node_lines = lines[i + 1:i + 1 + k]
        if len(node_lines) != k:
            raise FormatError(f"truncated chart nodes for edge {eid}")
        chart = PwaMap([parse_node_line(ln) for ln in node_lines],
                       selfmap=False)
        actions[eid] = EdgeAction(tuple(word), chart)
        i += 1 + k
    gm = GraphMapSpec(graph, actions)
    _validate_graph_map(gm)
    return gm


def _validate_graph_map(gm: GraphMapSpec) -> None:
    graph = gm.graph
    for eid, _, _ in graph.edges:
        if eid not in gm.actions:
            raise FormatError(f"edge {eid} has no action")
    vertex_image: Dict[str, str] = {}
    for eid, head, tail in graph.edges:
        act = gm.actions[eid]
        m = len(act.word)
        for j in range(len(act.word) - 1):
            if _word_endpoints(graph, act.word[j])[1] != \
               _word_endpoints(graph, act.word[j + 1])[0]:
                raise FormatError(
                    f"edge {eid}: word steps {j} and {j+1} do not chain"
                )
        a, b = act.chart.domain
        if (a, b) != (Fraction(0), Fraction(1)):
            raise FormatError(f"edge {eid}: chart domain must be [0,1]")
        vals = [v for n in act.chart.nodes
                for v in (n.y_left, n.y_right) if v is not None]
        if min(vals) < 0 or max(vals) > m:
            raise FormatError(
                f"edge {eid}: chart values leave [0, {m}]"
            )
        for x, v in ((Fraction(0), act.chart.eval(0, RIGHT)),
                     (Fraction(1), act.chart.eval(1, LEFT))):
            if v.denominator != 1:
                raise FormatError(
                    f"edge {eid}: chart endpoint value {v} is not a vertex "
                    "position"
                )
            vtx = head if x == 0 else tail
            img = _position_vertex(graph, act.word, int(v))
            if vertex_image.setdefault(vtx, img) != img:
                raise FormatError(
                    f"inconsistent image for vertex {vtx}"
                )


def _position_vertex(graph: GraphSpec, word, j: int) -> str:
    """Vertex at integer path position j along the word."""
    if j == 0:
        return _word_endpoints(graph, word[0])[0]
    return _word_endpoints(graph, word[j - 1])[1]


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def _canonical_positions(graph: GraphSpec):
    pos: Dict[str, list] = {v: [] for v in graph.vertices}
    for k, (eid, head, tail) in enumerate(graph.edges):
        pos[head].append(Fraction(k))
        pos[tail].append(Fraction(k + 1))
    return {v: tuple(sorted(ps)) for v, ps in pos.items() if ps}


def flatten(gm: GraphMapSpec) -> tuple:
    """Flat interval representation of the graph map.

    Edge k occupies [k, k+1] (head left).  The flat value of a path
    position resolves through the word; at integer positions the
    one-sided limit takes the end of the incoming traversal or the
    start of the outgoing one, and a plateau at a vertex takes the
    vertex's canonical (first-incidence) coordinate.
    """
    graph = gm.graph
    E = len(graph.edges)
    if E == 0:
        raise PreconditionError("empty graph")
    canon = _canonical_positions(graph)
    index = {eid: k for k, (eid, _, _) in enumerate(graph.edges)}

    def step_flat(word, j, where) -> Fraction:
        eid, sgn = word[j]
        k = index[eid]
        if where == "end":
            return Fraction(k + 1) if sgn > 0 else Fraction(k)
        return Fraction(k) if sgn > 0 else Fraction(k + 1)

    def resolve(word, c: Fraction, from_below: Optional[bool]) -> Fraction:
        m = len(word)
        if c.denominator != 1:
            j = int(c)
            eid, sgn = word[j]
            t = c - j
            k = index[eid]
            return k + t if sgn > 0 else k + 1 - t
        j = int(c)
        if from_below is None:
            vtx = _position_vertex(graph, word, j)
            return canon[vtx][0]
        if from_below:
            if j == 0:
                return step_flat(word, 0, "start")
            return step_flat(word, j - 1, "end")
        if j == m:
            return step_flat(word, m - 1, "end")
        return step_flat(word, j, "start")

    nodes: List[Node] = []
    values: Dict[Fraction, list] = {}
    for k, (eid, head, tail) in enumerate(graph.edges):
        act = gm.actions[eid]
        chart = act.chart
        breakpoints = {Fraction(0), Fraction(1)}
        breakpoints.update(n.x for n in chart.nodes)
        # preimages of the integer path positions (chart values lie in
        # [0, len(word)])
        breakpoints |= preimage_sweep(chart, range(len(act.word) + 1))
        for t in sorted(breakpoints):
            x = Fraction(k) + t
            yl = yr = None
            if t > 0:
                s = chart.slope_side(t, LEFT)
                c = chart.eval(t, LEFT)
                fb = None if s == 0 else (s > 0)
                yl = resolve(act.word, c, fb)
            if t < 1:
                s = chart.slope_side(t, RIGHT)
                c = chart.eval(t, RIGHT)
                fb = None if s == 0 else (s < 0)
                yr = resolve(act.word, c, fb)
            values.setdefault(x, [None, None])
            if yl is not None:
                values[x][0] = yl
            if yr is not None:
                values[x][1] = yr
    for x in sorted(values):
        yl, yr = values[x]
        nodes.append(Node(x, yl, yr))
    flat = PwaMap(nodes)
    chart_obj = FlatteningChart(
        ordering=tuple(eid for eid, _, _ in graph.edges),
        cut_points=tuple(Fraction(k) for k in range(E + 1)),
        vertex_positions=canon,
    )
    return flat, chart_obj


# ---------------------------------------------------------------------------
# normalization with lift
# ---------------------------------------------------------------------------

class GraphNormalForm(NamedTuple):
    chart: FlatteningChart
    trace: PipelineTrace
    psi: PsiTable
    g: ConstantSlopeMap
    edge_lengths: dict           # edge id -> psi-length in the quotient
    collapsed_edges: tuple
    collapse_pieces: tuple       # ((edge id, t_lo, t_hi), ...)
    vertex_classes: tuple        # tuple of frozensets of identified vertices
    continuity_ok: bool


def normalize_graph(gm: GraphMapSpec, target: float = 1e-6,
                    schedule: Optional[Sequence[int]] = None) -> GraphNormalForm:
    """Run the pipeline on the flattened map and lift the result."""
    from .approximation import normalize

    flat, chart = flatten(gm)
    graph = gm.graph
    E = len(graph.edges)
    trace = normalize(flat, target=target, schedule=schedule,
                      markov_budget=2048,
                      markov_seeds=[Fraction(k) for k in range(E + 1)])
    psi = trace.final_psi
    g = trace.final_g
    cutpsi = [float(psi.eval(Fraction(k))) for k in range(E + 1)]
    edge_lengths = {}
    collapsed_edges = []
    for k, (eid, _, _) in enumerate(graph.edges):
        ln = cutpsi[k + 1] - cutpsi[k]
        edge_lengths[eid] = ln
        if ln <= EDGE_COLLAPSE_TOL:
            collapsed_edges.append(eid)
    pieces = []
    for lo, hi in psi.collapse_intervals:
        k0, k1 = int(lo), int(hi)
        for k in range(k0, min(k1 + 1, E)):
            plo = max(lo, Fraction(k)) - k
            phi = min(hi, Fraction(k + 1)) - k
            if phi > plo:
                pieces.append((graph.edges[k][0], plo, phi))
    # identify vertices joined by a collapse component
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        parent[find(u)] = find(v)

    canon = chart.vertex_positions
    for lo, hi in psi.collapse_intervals:
        inside = [v for v, ps in canon.items()
                  if any(lo <= p <= hi for p in ps)]
        for u, v in zip(inside, inside[1:]):
            union(u, v)
    classes: Dict[str, set] = {}
    for v in graph.vertices:
        classes.setdefault(find(v), set()).add(v)
    vertex_classes = tuple(frozenset(c) for c in classes.values())

    ok = True
    for v, positions in canon.items():
        vals = []
        for c in positions:
            for side in (LEFT, RIGHT):
                if (side == LEFT and c == 0) or (side == RIGHT and c == E):
                    continue
                z = float(psi.eval(c))
                vals.append(g.map.eval_float(z, side))
        if vals:
            spread = max(vals) - min(vals)
            same = spread <= max(EDGE_COLLAPSE_TOL, 8 * psi.error_bound)
            if not same:
                # distinct numeric values may still be identified points
                same = _same_quotient_point(vals, cutpsi, vertex_classes,
                                            graph, EDGE_COLLAPSE_TOL)
            ok = ok and same
    return GraphNormalForm(
        chart=chart,
        trace=trace,
        psi=psi,
        g=g,
        edge_lengths=edge_lengths,
        collapsed_edges=tuple(collapsed_edges),
        collapse_pieces=tuple(pieces),
        vertex_classes=vertex_classes,
        continuity_ok=ok,
    )


def _same_quotient_point(vals, cutpsi, vertex_classes, graph, tol):
    """Numeric g-values agree as quotient-graph points.

    A value at the psi-image of a cut resolves to the classes of the
    vertices flanking that cut; the candidate class sets of all values
    must share a class.
    """
    cut_vertices: Dict[int, set] = {}
    for k, (eid, head, tail) in enumerate(graph.edges):
        cut_vertices.setdefault(k, set()).add(head)
        cut_vertices.setdefault(k + 1, set()).add(tail)
    common = None
    for val in vals:
        candidates = set()
        for k, cp in enumerate(cutpsi):
            if abs(val - cp) <= tol:
                for vtx in cut_vertices.get(k, ()):
                    for ci, cls in enumerate(vertex_classes):
                        if vtx in cls:
                            candidates.add(ci)
        if not candidates:
            return False
        common = candidates if common is None else (common & candidates)
        if not common:
            return False
    return bool(common)
