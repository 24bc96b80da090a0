"""Exact finite generalized metric spaces with approximate colimits.

Distances are exact nonnegative rationals or infinity.  The package computes
semimetric reflections, ordinary and tolerance-relaxed pushouts,
coequalizers, and finite-diagram colimits, tests injectivity, splitness, and
purity against finite probe families, runs a seeded law harness over random
corpora, and grows saturated chains of spaces by wide pushouts with an exact
extension audit.

``import metricat`` loads no submodule: each public name, and each of the
submodules listed in ``__all__``, is imported on first use (PEP 562), so a
command line run loads only the code it needs.  The ``metricat`` command
exits 2 on a usage error, which includes an argument out of range (a grid
distance of 0, a negative count), and never prints a traceback for one.
"""

from importlib import import_module as _import_module
from sys import modules as _modules
from types import ModuleType as _ModuleType

from .__about__ import __version__

_EXPORTS = {
    "budgets": (
        "DEFAULT_NODE_BUDGET", "DEFAULT_POINT_BUDGET", "DEFAULT_SPAN_BUDGET",
        "DEFAULT_STAGE_POINT_BUDGET", "NodeBudget", "node_ceiling",
    ),
    "canonical": ("CanonicalResult", "are_isomorphic", "canonical_form", "canonical_witness"),
    "colimits": (
        "CylinderResult", "EpsColimitResult", "EpsCoequalizerResult", "EpsPushoutResult",
        "FinDiagram", "comparison", "cylinder", "cylinder_factorization", "eps_coequalizer",
        "eps_colimit", "eps_pushout", "pushout",
    ),
    "corpus": ("CorpusConfig",),
    "errors": (
        "BudgetExceeded", "InvalidMorphism", "MetricatError", "MismatchedEndpoints",
        "SchemaError", "SizeOverflow", "SpaceValidationError", "Violation",
    ),
    "extrat": ("INF", "ZERO", "ExtRat", "rat"),
    "fraisse": (
        "AuditReport", "ChainStage", "DistanceGrid", "IsometryCatalog", "Span", "SpanPolicy",
        "SpanRecord", "audit_saturation", "build_chain", "catalog_isometries", "chain_step",
        "enumerate_spaces", "gather_spans",
    ),
    "homsearch": ("automorphisms", "hom_set", "isometric_fillers", "isometry_set"),
    "injectivity": (
        "ApproxInjReport", "InjReport", "InjVerdict", "PuritySquare", "TestFamily",
        "inj_class", "injectivity_defect", "is_approx_injective", "is_eps_injective",
        "is_eps_mono", "is_eps_split", "purity",
    ),
    "laws": ("LawReport", "LawResult", "law_harness", "run_law"),
    "reflect": ("Reflection", "Semimetric", "reflect", "semimetric_of", "semimetric_of_space"),
    "spaces": (
        "MetMap", "Space", "compose", "coproduct", "empty_space", "hom_dist", "identity",
        "is_eps_homotopic", "is_isometry", "one_point", "product", "subspace", "two_point",
        "validate_space",
    ),
    "verify": (
        "Counterexample", "VerifyReport", "verify_coequalizer", "verify_colimit",
        "verify_pushout",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules exported under their own name; ``reflect`` is the function.
_SUBMODULES = (
    "budgets", "canonical", "colimits", "corpus", "errors", "extrat", "fraisse",
    "homsearch", "injectivity", "laws", "serialization", "spaces", "verify",
)

__all__ = sorted([*_SOURCE, *_SUBMODULES])


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    public = (k for k in globals() if not k.startswith("_") or k.startswith("__"))
    return sorted({*__all__, *public} - {"__getattr__", "__dir__"})


class _Package(_ModuleType):
    """Loading a submodule binds it on its package; an exported name of the
    same spelling (the function ``reflect``) keeps its binding."""

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_modules[__name__].__class__ = _Package
