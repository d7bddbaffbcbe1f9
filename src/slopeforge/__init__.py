"""Constant-slope normal forms for piecewise monotone interval and graph maps.

The package computes topological entropy of exact piecewise-affine
interval maps (lap counting and spectral data), builds the increasing
factor map onto a constant-slope model via Markov structures and their
refinements, approximates non-Markov maps within any 1/n, reduces maps
with plateaus to strictly monotone factors, and flattens piecewise
monotone graph maps into the same pipeline.

The names below are re-exported lazily (PEP 562): `import slopeforge`
or `import slopeforge.fixtures` loads no numeric module until one of
them is used.
"""

import importlib
import sys
import types

_EXPORTS = {
    "approximation": (
        "ApproxConfig", "PipelineTrace", "ResidualReport",
        "check_monotone_shadowing", "markov_approx", "normalize",
        "verify_semiconjugacy",
    ),
    "coding": ("Itinerary", "QuotientResult", "itinerary", "psm_reduce"),
    "entropy": ("EntropyReport", "entropy", "entropy_lapcount",
                "entropy_spectral"),
    "errors": (
        "BudgetExceeded", "FormatError", "NonConvergence",
        "PreconditionError", "SlopeforgeError", "VerificationError",
    ),
    "graphmap": (
        "FlatteningChart", "GraphMapSpec", "GraphNormalForm", "GraphSpec",
        "flatten", "normalize_graph", "parse_graph",
    ),
    "markov": (
        "MarkovStructure", "MixingReport", "PerronResult", "Refinement",
        "is_markov", "is_mixing_matrix", "markov_closure", "parse_matrix",
        "perron", "refine", "serialize_matrix", "structure_from_points",
        "transition_matrix",
    ),
    "normalform": ("GapCheck", "NormalForm", "check_gap_bound",
                   "normal_form", "slope_gap_bound"),
    "pwmap": (
        "Lap", "Node", "PwaMap", "compose", "iterate", "lap_counts", "laps",
        "modality", "parse_pwa", "preimage_points", "serialize_pwa",
        "sup_dist",
    ),
    "semiconjugacy": (
        "ConstantSlopeMap", "PsiTable", "build_constant_slope", "build_psi",
        "psi_from_tsv", "psi_on_points", "psi_to_tsv",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The import system binds every loaded submodule on its package.
    `entropy` is both a submodule and an exported function; the function
    keeps the name, as it did when this package imported eagerly."""

    def __setattr__(self, name, value):
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
