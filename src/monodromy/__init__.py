"""Trace coordinates of rank-2 monodromy tuples: coordinate maps, defining
relations, chart-based matrix reconstruction, and unitarity classification.

The root exports the pipeline (``phi`` -> ``membership`` -> ``classify_charts``
-> ``reconstruct`` -> ``classify``), the value types, samplers and errors, and
the per-family relation evaluators; every other name is imported from its
module.  ``_EXPORTS`` says which module each root name lives in.  The names
are lazy (PEP 562): ``import monodromy`` loads no submodule, and the first
read of a name imports its module, so a CLI process loads only the modules
its subcommand runs.  The module holding ``reconstruct`` is ``reconstruction``,
so that loading it never rebinds the root name to a module.
"""

_EXPORTS = {
    "charts": "ChartEval ChartId ChartReport classify_charts",
    "coords": "LocalData Representation TraceCoordinates close_tuple coordinate_distance "
              "phi quad_trace triple_trace",
    "errors": "BadChart BadIndex ChartNotAdmissible DegenerateEigenvalues MonodromyError "
              "NotApplicable NotReal NotUnimodular OffVariety OffVarietyWarning "
              "PsiDegenerate TraceOutOfRange",
    "reconstruction": "MINUS PLUS BranchChoice Diagnostics ReconstructionResult reconstruct",
    "relations": "RelationResiduals membership type1 type1_pairs type2 type2_terms type3",
    "samplers": "SamplerConfig SplitMix64 sample_generic sample_su11 sample_su2",
    "sl2": "DEFAULT_TOL Mat2 Tolerance",
    "unitary": "HermitianForm Signature SignatureClass classify hermitian_form "
               "verify_invariance",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A root name, read from its module on first access and bound here after."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
