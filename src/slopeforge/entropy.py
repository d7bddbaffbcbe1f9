"""Topological entropy estimates from lap counts and spectral data.

The lap-count sequence gives (1/n) log c_n, decreasing to the entropy
by submultiplicativity; the Fekete minimum is the best upper bound the
sequence proves.  The headline estimate, and the value used for the
agreement check against the spectral side, is the trend log(c_N /
c_{N-1}): for maps with c_n ~ C beta^n it converges geometrically
while (1/n) log c_n carries a log(C)/n bias for a long time.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import BudgetExceeded, PreconditionError
from .markov import FIRST_CLOSURE_POINTS, MarkovStructure, markov_closure
from .numeric import format_decimal, generic_log
from .pwmap import PwaMap, lap_counts

DEFAULT_DEPTH = 12
AGREEMENT_GAP = 0.02


class EntropyReport(NamedTuple):
    lap_counts: tuple            # c_1 .. c_N (exact integers)
    lap_estimates: tuple         # (1/n) log c_n
    fekete: float                # min of lap_estimates (proved upper bound)
    trend: float                 # log(c_N / c_{N-1}); the headline h_est
    spectral: Optional[float] = None
    agreed: Optional[bool] = None
    gap: Optional[float] = None
    positive: bool = False

    @property
    def h_est(self) -> float:
        return self.trend

    @property
    def note(self) -> Optional[str]:
        return None if self.positive else "no positive entropy; normalization undefined"

    def to_tsv(self) -> str:
        lines = ["n\tc_n\testimate"]
        for i, (c, est) in enumerate(zip(self.lap_counts, self.lap_estimates)):
            lines.append(f"{i + 1}\t{c}\t{format_decimal(est)}")
        lines.append(f"trend\t\t{format_decimal(self.trend)}")
        lines.append(f"fekete\t\t{format_decimal(self.fekete)}")
        if self.spectral is not None:
            lines.append(f"spectral\t\t{format_decimal(self.spectral)}")
            lines.append(f"agreed\t\t{'true' if self.agreed else 'false'}")
        if self.note:
            lines.append(f"note\t\t{self.note}")
        return "\n".join(lines) + "\n"


def entropy_lapcount(f: PwaMap, depth: int = DEFAULT_DEPTH) -> EntropyReport:
    """Exact c_1..c_depth and the derived estimates.

    The counts come from pwmap.lap_counts; a depth whose recursion
    needs more than pwmap.MAX_LAP_PIECES pieces, or a count of more than
    pwmap.MAX_LAP_BITS bits, raises BudgetExceeded.

    positive means the lap counts still grow, c_N > c_(N-1) (c_1 >= 2
    for a single count).  Linear and slow exponential growth both pass
    that test; at large N the margin between them shows in the trend,
    and entropy() decides from beta when it can.
    """
    if depth < 1:
        raise PreconditionError("lap-count depth must be >= 1")
    counts = lap_counts(f, depth)
    estimates = tuple(math.log(c) / (i + 1) for i, c in enumerate(counts))
    if len(counts) >= 2:
        trend = math.log(counts[-1] / counts[-2])
        positive = counts[-1] > counts[-2]
    else:
        trend = estimates[0]
        positive = counts[0] >= 2
    return EntropyReport(
        lap_counts=tuple(counts),
        lap_estimates=estimates,
        fekete=min(estimates),
        trend=trend,
        positive=positive,
    )


def entropy_spectral(s: MarkovStructure) -> float:
    """log of the spectral growth rate from the validated structure."""
    return float(generic_log(s.beta))


def entropy(f: PwaMap, depth: int = DEFAULT_DEPTH,
            markov_points: int = FIRST_CLOSURE_POINTS) -> EntropyReport:
    """Lap-count report, with the spectral value when a Markov set closes.

    A closed Markov set decides positivity by beta > 1; otherwise the
    lap-count growth decides it.
    """
    report = entropy_lapcount(f, depth=depth)
    try:
        s = markov_closure(f, max_points=markov_points)
    except BudgetExceeded:
        return report
    spectral = entropy_spectral(s)
    gap = abs(report.trend - spectral)
    return report._replace(spectral=spectral, agreed=gap < AGREEMENT_GAP,
                           gap=gap, positive=float(s.beta) > 1)


def is_entropy_positive(f: PwaMap) -> bool:
    """Positive entropy, as entropy(f) decides it."""
    return entropy(f).positive
