"""Independent output checks for the slopeforge CLI benchmark.

Everything here parses the CLI's artifacts with its own code and
compares them with closed forms or with properties the method must
have; nothing imports slopeforge, and nothing compares with a stored
copy of an earlier output.  A failed check raises CheckFailure.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

GOLDEN = (1 + math.sqrt(5)) / 2


class CheckFailure(Exception):
    pass


class ConjugacyMismatch(CheckFailure):
    """The printed conjugacy flag disagrees with the input's known answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# -- parsers -------------------------------------------------------------------

@dataclass(frozen=True)
class Pwa:
    """A piecewise-affine map as node lists; None marks an absent side."""

    xs: tuple
    yl: tuple
    yr: tuple

    @property
    def domain(self):
        return self.xs[0], self.xs[-1]


def parse_pwa(text: str) -> Pwa:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    require(lines[0] == ["pwa", "1"], f"bad PWA header {lines[0]}")
    require(lines[1][0] == "domain" and lines[2][0] == "nodes", "bad PWA preamble")
    k = int(lines[2][1])
    require(len(lines) == 3 + k, f"PWA declares {k} nodes, has {len(lines) - 3}")

    def val(tok):
        return None if tok == "-" else Fraction(tok)

    xs, yl, yr = [], [], []
    for x, a, b in lines[3:]:
        xs.append(Fraction(x))
        yl.append(val(a))
        yr.append(val(b))
    require(all(xs[i] < xs[i + 1] for i in range(k - 1)), "PWA nodes not increasing")
    require((xs[0], xs[-1]) == (Fraction(lines[1][1]), Fraction(lines[1][2])),
            "PWA nodes do not span the domain")
    return Pwa(tuple(xs), tuple(yl), tuple(yr))


def pwa_from_pairs(pairs) -> Pwa:
    """Continuous map through (x, y) pairs."""
    xs = tuple(Fraction(x) for x, _ in pairs)
    ys = [Fraction(y) for _, y in pairs]
    return Pwa(xs, (None,) + tuple(ys[1:]), tuple(ys[:-1]) + (None,))


def pwa_text(m: Pwa) -> str:
    def tok(v):
        return "-" if v is None else str(v)

    out = ["pwa 1", f"domain {m.xs[0]} {m.xs[-1]}", f"nodes {len(m.xs)}"]
    out += [f"{x} {tok(a)} {tok(b)}" for x, a, b in zip(m.xs, m.yl, m.yr)]
    return "\n".join(out) + "\n"


def parse_summary(stdout: str) -> dict:
    out = {}
    for ln in stdout.splitlines():
        key, sep, value = ln.partition("=")
        if sep and key.isidentifier() and key != "artifact":
            out[key] = value
    return out


def parse_psi(text: str) -> list:
    """Rows (x exact, psi float) of a psi TSV."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    require(lines[0].split("\t")[:2] == ["x", "psi"], "bad psi TSV header")
    rows = []
    for ln in lines[1:]:
        cols = ln.split("\t")
        rows.append((Fraction(cols[2]), float(cols[1])))
    return rows


def parse_entropy(text: str):
    """(c_1..c_N, footer dict) of an entropy TSV."""
    counts, footer = [], {}
    for ln in text.splitlines()[1:]:
        cols = ln.split("\t")
        if cols[0].isdigit():
            require(int(cols[0]) == len(counts) + 1, "entropy rows out of order")
            counts.append(int(cols[1]))
        elif cols[0]:
            footer[cols[0]] = cols[-1]
    return counts, footer


def parse_collapse(text: str) -> list:
    rows = [ln.split("\t") for ln in text.splitlines()[1:] if ln.strip()]
    return [(Fraction(lo), Fraction(hi)) for lo, hi in rows]


# -- exact evaluation of a Pwa -------------------------------------------------

def _segment(m: Pwa, x: Fraction, side: str) -> int:
    """Index i of the segment [xs[i], xs[i+1]] on `side` ('-' or '+') of x."""
    i = bisect.bisect_left(m.xs, x) if side == "-" else bisect.bisect_right(m.xs, x)
    return i - 1


def value(m: Pwa, x, side: str = "") -> Fraction:
    """m(x); at a node, side '-'/'+' picks the one-sided value.

    A domain endpoint has one side only, which is taken whatever `side` says.
    """
    i = bisect.bisect_left(m.xs, x)
    if i < len(m.xs) and m.xs[i] == x:
        if side == "-" and m.yl[i] is not None:
            return m.yl[i]
        if side == "+" and m.yr[i] is not None:
            return m.yr[i]
        vals = {v for v in (m.yl[i], m.yr[i]) if v is not None}
        require(len(vals) == 1, f"two-valued at node {x}")
        return vals.pop()
    require(0 < i < len(m.xs), f"{x} outside the domain")
    x0, x1 = m.xs[i - 1], m.xs[i]
    y0, y1 = m.yr[i - 1], m.yl[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def slope(m: Pwa, x, side: str) -> Fraction:
    i = _segment(m, x, side)
    return (m.yl[i + 1] - m.yr[i]) / (m.xs[i + 1] - m.xs[i])


def limit_through(outer: Pwa, inner: Pwa, x, side: str) -> Fraction:
    """lim outer(inner(t)) as t tends to x from `side`."""
    y = value(inner, x, side)
    s = slope(inner, x, side)
    if s == 0:
        return value(outer, y, side)
    approach = "-" if (s > 0) == (side == "-") else "+"
    return value(outer, y, approach)


def own_lap_count(m: Pwa) -> int:
    """Maximal intervals of continuity and strict or constant monotony."""
    laps = 0
    prev = None
    for i in range(len(m.xs) - 1):
        d = m.yl[i + 1] - m.yr[i]
        direction = (d > 0) - (d < 0)
        if prev is None or direction != prev or m.yl[i] != m.yr[i]:
            laps += 1
        prev = direction
    return laps


def preimage_lap_counts(m: Pwa, depth: int) -> list:
    """c_1..c_depth of a continuous map without plateaus, from preimages.

    The turning points of f^n are the points whose orbit meets an
    interior turning point of f within n - 1 steps, so
    c_n = 1 + |union over k < n of f^-k(C)|.  Exact rationals; shares
    no code with the program's composition-based count.
    """
    a, b = m.domain
    segs = [(m.xs[i], m.xs[i + 1], m.yr[i], m.yl[i + 1]) for i in range(len(m.xs) - 1)]
    require(all(m.yl[i] == m.yr[i] for i in range(1, len(m.xs) - 1)), "map has a jump")
    require(all(y0 != y1 for _, _, y0, y1 in segs), "map has a plateau")
    turning = {segs[i][1] for i in range(len(segs) - 1)
               if (segs[i][3] > segs[i][2]) != (segs[i + 1][3] > segs[i + 1][2])}
    seen = set(turning)
    frontier = turning
    counts = [1 + len(seen)]
    for _ in range(depth - 1):
        nxt = set()
        for y in frontier:
            for x0, x1, y0, y1 in segs:
                if min(y0, y1) <= y <= max(y0, y1):
                    x = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                    if a < x < b:
                        nxt.add(x)
        frontier = nxt - seen
        seen |= frontier
        counts.append(1 + len(seen))
    return counts


# -- float evaluation of decimal-rendered maps -----------------------------------

class FloatPwa:
    """Float view of a Pwa for maps written with decimal literals."""

    SNAP = 1e-12

    def __init__(self, m: Pwa):
        self.xs = [float(x) for x in m.xs]
        self.yl = [None if v is None else float(v) for v in m.yl]
        self.yr = [None if v is None else float(v) for v in m.yr]

    def __call__(self, p: float, side: str) -> float:
        i = bisect.bisect_left(self.xs, p - self.SNAP)
        if i < len(self.xs) and abs(self.xs[i] - p) <= self.SNAP:
            return self.yl[i] if side == "-" else self.yr[i]
        require(0 < i < len(self.xs), f"{p} outside the domain of g")
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.yr[i - 1], self.yl[i]
        return y0 + (y1 - y0) * (p - x0) / (x1 - x0)

    def slopes(self):
        return [(self.yl[i + 1] - self.yr[i]) / (self.xs[i + 1] - self.xs[i])
                for i in range(len(self.xs) - 1)]


# -- checks --------------------------------------------------------------------

def check_close(name: str, got: float, want: float, tol: float) -> None:
    require(abs(got - want) <= tol, f"{name}={got!r}, expected {want!r} within {tol}")


def check_slopes(g: Pwa, beta: float, tol: float) -> None:
    """Every non-constant piece of g has |slope| within tol of beta."""
    for i, s in enumerate(FloatPwa(g).slopes()):
        if s != 0:
            require(abs(abs(s) - beta) <= tol,
                    f"g piece {i} has slope {s}, beta={beta}")


def check_psi_monotone(rows: list, domain) -> None:
    """psi is nondecreasing from 0 at the left end to 1 at the right end."""
    require((rows[0][0], rows[-1][0]) == tuple(domain), "psi table does not span the domain")
    require(rows[0][1] == 0.0 and rows[-1][1] == 1.0, "psi does not run from 0 to 1")
    for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
        require(x0 < x1 and y0 <= y1, f"psi decreases at x={x1}")


def check_psi_values(rows: list, known: dict, tol: float = 1e-12) -> None:
    """psi(x) = known[x] for the table points named in `known`."""
    table = dict(rows)
    for x, want in known.items():
        require(x in table, f"{x} is not a psi table point")
        check_close(f"psi({x})", table[x], want, tol)


def check_psi_affine(rows: list, scale, tol: float = 1e-12) -> None:
    """psi(x) = x / scale at every table row (identity up to rescaling)."""
    for x, y in rows:
        check_close(f"psi({x})", y, float(x / scale), tol)


def check_table_semiconjugacy(f: Pwa, g: Pwa, rows: list, tol: float = 1e-9) -> int:
    """psi(f(x-+)) = g(psi(x)-+) at every table point; returns the count.

    f maps the table points of a Markov map to table points, so the
    left side is read from the table exactly.
    """
    table = dict(rows)
    gf = FloatPwa(g)
    xs, yl, yr = f.xs, f.yl, f.yr
    slopes = [(yl[i + 1] - yr[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    checked = 0
    i = 0
    for x, p in rows:  # rows are sorted: walk f's segments alongside
        while i + 1 < len(xs) and xs[i + 1] <= x:
            i += 1
        if xs[i] == x:
            sides = [(side, y) for side, y in (("-", yl[i]), ("+", yr[i])) if y is not None]
        else:
            y = yr[i] + slopes[i] * (x - xs[i])
            sides = (("-", y), ("+", y))
        for side, y in sides:
            require(y in table, f"f({x}{side}) = {y} is not a table point")
            got = gf(p, side)
            require(abs(table[y] - got) <= tol,
                    f"psi(f({x}{side})) = {table[y]} but g(psi(x){side}) = {got}")
            checked += 1
    return checked


def check_factor_identity(f: Pwa, psi0: Pwa, fhat: Pwa, grid: int = 997) -> int:
    """psi0 o f = fhat o psi0 exactly, one-sided at every node, and on a k/grid grid."""
    a, b = f.domain
    checked = 0
    for x in sorted(set(f.xs) | set(psi0.xs)):
        for side in ("-", "+"):
            if (x == a and side == "-") or (x == b and side == "+"):
                continue
            lhs = limit_through(psi0, f, x, side)
            rhs = limit_through(fhat, psi0, x, side)
            require(lhs == rhs, f"psi0(f({x}{side})) = {lhs} != fhat(psi0({x}{side})) = {rhs}")
            checked += 1
    for k in range(grid + 1):
        x = a + (b - a) * Fraction(k, grid)
        for side in ("-", "+"):
            if (x == a and side == "-") or (x == b and side == "+"):
                continue
            lhs = limit_through(psi0, f, x, side)
            rhs = limit_through(fhat, psi0, x, side)
            require(lhs == rhs, f"psi0(f({x})) = {lhs} != fhat(psi0({x})) = {rhs}")
            checked += 1
    return checked


def sup_distance(f: Pwa, g: Pwa) -> Fraction:
    """Exact sup |f - g|: the difference is affine between the union of nodes."""
    a, b = f.domain
    best = Fraction(0)
    for x in sorted(set(f.xs) | set(g.xs)):
        for side in ("-", "+"):
            if (x == a and side == "-") or (x == b and side == "+"):
                continue
            best = max(best, abs(value(f, x, side) - value(g, x, side)))
    return best


def check_lap_counts(counts: list, want: list) -> None:
    require(len(counts) == len(want), f"{len(counts)} lap counts, expected {len(want)}")
    for n, (c, w) in enumerate(zip(counts, want), start=1):
        require(c == w, f"c_{n} = {c}, expected {w}")


def check_submultiplicative(counts: list) -> None:
    """c_n nondecreasing and c_(m+n) <= c_m c_n."""
    for n in range(1, len(counts)):
        require(counts[n] >= counts[n - 1], f"c_{n + 1} < c_{n}")
    for m in range(1, len(counts) + 1):
        for n in range(1, len(counts) + 1 - m):
            require(counts[m + n - 1] <= counts[m - 1] * counts[n - 1],
                    f"c_{m + n} > c_{m} c_{n}")


def check_trend(counts: list, footer: dict, want_log: float, tol: float) -> None:
    """The reported trend is log(c_N / c_(N-1)) and lies within tol of want_log."""
    trend = math.log(counts[-1] / counts[-2])
    check_close("trend", float(footer["trend"]), trend, 1e-12)
    check_close("trend vs closed form", trend, want_log, tol)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
