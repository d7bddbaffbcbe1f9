"""Constant-slope normal forms for continuous transitive maps.

The entry point takes a continuous map of positive entropy and returns
its constant-slope form together with the conjugating factor map.  A
constant-slope input is its own normal form (uniqueness: a conjugacy
between constant-slope maps must be the identity), so such inputs take
a fast path with the identity factor.  Transitivity itself is not
decidable from finite data; the result carries evidence instead: a
primitive transition matrix in the Markov case, a dense-orbit sample
heuristic otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .approximation import (
    PipelineTrace,
    ResidualReport,
    verify_semiconjugacy,
    normalize,
)
from .errors import BudgetExceeded, NonConvergence, PreconditionError
from .markov import (
    FIRST_CLOSURE_POINTS,
    MarkovStructure,
    is_mixing_matrix,
    markov_closure,
)
from .pwmap import RIGHT, PwaMap, modality, sup_dist
from .semiconjugacy import ConstantSlopeMap, PsiTable

SLOPE_DETECT_REL_TOL = 1e-9
ORBIT_SAMPLES = 4096           # dense-orbit evidence: orbit length ...
ORBIT_BINS = 64                # ... and the bins it must all visit
EVIDENCE_PRIMITIVE = "matrix_primitive"
EVIDENCE_ORBIT = "dense_orbit_sample"
EVIDENCE_UNKNOWN = "unknown"


class NormalForm(NamedTuple):
    psi: PsiTable                  # the factor map; constant on every plateau
    g: ConstantSlopeMap
    conjugacy: bool
    transitivity_evidence: str
    modality_in: int
    modality_out: int
    residual: ResidualReport
    trace: PipelineTrace
    constant_slope_input: bool = False

    def psi_eval(self, x):
        """The factor map at x."""
        return self.psi.eval(Fraction(x))


def _uniform_slope(f: PwaMap):
    """The common |slope| when all pieces agree within
    SLOPE_DETECT_REL_TOL, else None."""
    mags = [abs(seg.slope) for seg in f.segments if seg.slope != 0]
    if not mags or f.has_plateau:
        return None
    top, bot = max(mags), min(mags)
    if float(top - bot) <= SLOPE_DETECT_REL_TOL * float(top):
        return top
    return None


def _identity_psi(f: PwaMap) -> PsiTable:
    """Affine rescale of the domain onto [0,1] as a detached exact table."""
    a, b = f.domain
    width = b - a
    xs = tuple(n.x for n in f.nodes)
    ys = tuple(float((x - a) / width) for x in xs)
    return PsiTable(
        depth=0,
        table_depth=0,
        xs=xs,
        ys=ys,
        beta=None,
        error_bound=0.0,
        collapse_intervals=(),
        structure=None,
    )


def _dense_orbit_evidence(f: PwaMap) -> str:
    lo, hi = f.domain
    a, b, width = float(lo), float(hi), float(hi - lo)
    x = a + width * 0.6180339887498949
    hit = [False] * ORBIT_BINS
    for _ in range(ORBIT_SAMPLES):
        k = min(int((x - a) / width * ORBIT_BINS), ORBIT_BINS - 1)
        hit[k] = True
        x = min(max(f.eval_float(x, RIGHT), a), b)
    return EVIDENCE_ORBIT if all(hit) else EVIDENCE_UNKNOWN


def _transitivity_evidence(f: PwaMap, s: Optional[MarkovStructure]) -> str:
    """A primitive transition matrix of s when there is one, else the
    dense-orbit sample of f."""
    if s is not None and is_mixing_matrix(list(s.covers)).primitive:
        return EVIDENCE_PRIMITIVE
    return _dense_orbit_evidence(f)


def normal_form(f: PwaMap, target: float = 1e-6,
                schedule: Optional[Sequence[int]] = None,
                force_pipeline: bool = False) -> NormalForm:
    """Constant-slope form of a continuous map of positive entropy.

    Plateaus need no reduction first: the Perron vector is zero on
    constant cells, so psi collapses them and their preimages, and the
    result is then only a semiconjugacy.  A non-Markov map with a
    plateau is rejected by the approximation step.  Positivity of the
    entropy is decided once per run: here by slope > 1 on the
    constant-slope fast path (the entropy of a continuous map of
    constant slope s is log s), inside normalize otherwise.
    """
    if not f.is_continuous:
        raise PreconditionError(
            "the normal-form operator is defined on continuous maps"
        )
    slope = None if force_pipeline else _uniform_slope(f)
    if slope is not None:
        if slope <= 1:
            raise PreconditionError("entropy estimate not positive")
        psi = _identity_psi(f)
        g = ConstantSlopeMap(f, float(slope))
        residual = verify_semiconjugacy(f, f, psi)
        try:
            s = markov_closure(f, max_points=FIRST_CLOSURE_POINTS)
        except (BudgetExceeded, NonConvergence):
            s = None
        evidence = _transitivity_evidence(f, s)
        trace = _trivial_trace(psi, g, residual)
        return NormalForm(
            psi=psi,
            g=g,
            conjugacy=trace.conjugacy,
            transitivity_evidence=evidence,
            modality_in=modality(f),
            modality_out=modality(f),
            residual=residual,
            trace=trace,
            constant_slope_input=True,
        )

    trace = normalize(f, target=target, schedule=schedule)
    psi = trace.final_psi
    g = trace.final_g
    evidence = _transitivity_evidence(
        f, psi.structure if trace.markov_exact else None)
    return NormalForm(
        psi=psi,
        g=g,
        conjugacy=trace.conjugacy,
        transitivity_evidence=evidence,
        modality_in=modality(f),
        modality_out=modality(g.map),
        residual=trace.residual,
        trace=trace,
    )


def _trivial_trace(psi, g, residual) -> PipelineTrace:
    gamma = g.slope
    return PipelineTrace(
        indices=(0,),
        betas=(gamma,),
        gap_rows=(None,),
        final_psi=psi,
        final_g=g,
        gamma=gamma,
        residual=residual,
        entropy_trend=math.log(gamma),
        converged=True,
        markov_exact=False,
        conjugacy=True,
    )


# ---------------------------------------------------------------------------
# the slope-gap lower bound
# ---------------------------------------------------------------------------

def slope_gap_bound(alpha, beta, modality_n: int):
    """(alpha - beta) / (2 n + 2) for constant slopes alpha > beta."""
    if modality_n < 1:
        raise PreconditionError("modality must be >= 1")
    if not alpha > beta:
        raise PreconditionError("the bound needs alpha > beta strictly")
    return (alpha - beta) / (2 * modality_n + 2)


class GapCheck(NamedTuple):
    holds: bool
    distance: Fraction
    bound: Fraction
    alpha: Fraction
    beta: Fraction
    modality: int


def check_gap_bound(f: PwaMap, g: PwaMap) -> GapCheck:
    """Verify sup-dist(f, g) >= (alpha - beta)/(2n + 2) exactly.

    Both maps must be continuous with exactly uniform |slope|; n is the
    modality of the steeper map f.
    """
    if f.domain != g.domain:
        raise PreconditionError("common domain required")
    for m, name in ((f, "f"), (g, "g")):
        if not m.is_continuous:
            raise PreconditionError(f"{name} is not continuous")
    sf = {abs(seg.slope) for seg in f.segments}
    sg = {abs(seg.slope) for seg in g.segments}
    if len(sf) != 1 or len(sg) != 1:
        raise PreconditionError("maps must have exactly constant slope")
    alpha, beta = sf.pop(), sg.pop()
    if not alpha > beta:
        raise PreconditionError("the bound needs alpha > beta strictly")
    n = modality(f)
    if n < 1:
        raise PreconditionError("modality must be >= 1")
    bound = slope_gap_bound(alpha, beta, n)
    dist = sup_dist(f, g)
    return GapCheck(dist >= bound, dist, bound, alpha, beta, n)
