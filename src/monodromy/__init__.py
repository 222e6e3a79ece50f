"""Trace coordinates of rank-2 monodromy tuples: coordinate maps, defining
relations, chart-based matrix reconstruction, and unitarity classification.

The root exports the pipeline (``phi`` -> ``membership`` -> ``classify_charts``
-> ``reconstruct`` -> ``classify``), the value types, samplers and errors, and
the per-family relation evaluators; every other name is imported from its
module.
"""

from .charts import ChartEval, ChartId, ChartReport, classify_charts
from .coords import (
    LocalData,
    Representation,
    TraceCoordinates,
    close_tuple,
    coordinate_distance,
    phi,
    quad_trace,
    triple_trace,
)
from .errors import (
    BadChart,
    BadIndex,
    ChartNotAdmissible,
    DegenerateEigenvalues,
    MonodromyError,
    NotApplicable,
    NotReal,
    NotUnimodular,
    OffVariety,
    OffVarietyWarning,
    PsiDegenerate,
    TraceOutOfRange,
)
from .reconstruct import (
    MINUS,
    PLUS,
    BranchChoice,
    Diagnostics,
    ReconstructionResult,
    reconstruct,
)
from .relations import (
    RelationResiduals,
    membership,
    type1,
    type1_pairs,
    type2,
    type2_terms,
    type3,
)
from .samplers import SamplerConfig, SplitMix64, sample_generic, sample_su11, sample_su2
from .sl2 import DEFAULT_TOL, Mat2, Tolerance
from .unitary import (
    HermitianForm,
    Signature,
    SignatureClass,
    classify,
    hermitian_form,
    verify_invariance,
)

__version__ = "0.1.0"
