"""Trace coordinates of rank-2 monodromy tuples: coordinate maps, defining
relations, chart-based matrix reconstruction, and unitarity classification."""

from .charts import (
    ChartEval,
    ChartId,
    ChartReport,
    chart_poly,
    chart_psi,
    charts_for,
    classify_charts,
    index_set,
    require_admissible,
)
from .coords import (
    LocalData,
    Representation,
    TraceCoordinates,
    close_tuple,
    closure_residual,
    coordinate_distance,
    phi,
    quad_trace,
    triple_trace,
)
from .errors import (
    BadChart,
    BadIndex,
    ChartNotAdmissible,
    ChartsDisagree,
    DegenerateEigenvalues,
    MonodromyError,
    NotApplicable,
    NotReal,
    NotUnimodular,
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
    branch_independence_check,
    lambdas,
    reconstruct,
    reconstruct_anchored,
    reconstruct_base,
)
from .relations import (
    RelationResiduals,
    g_poly,
    membership,
    psi,
    relation_count,
    s3,
    type1,
    type1_pairs,
    type2,
    type2_terms,
    type3,
    z_entry,
)
from .samplers import (
    SamplerConfig,
    SplitMix64,
    companion,
    random_unimodular,
    sample_generic,
    sample_su11,
    sample_su2,
    su2_element,
    su11_element,
)
from .sl2 import (
    DEFAULT_TOL,
    IDENTITY,
    Mat2,
    Tolerance,
    four_trace_reduction,
    max_entry_diff,
)
from .unitary import (
    HermitianForm,
    Signature,
    SignatureClass,
    classify,
    hermitian_form,
    reality_gate,
    verify_invariance,
)

__version__ = "0.1.0"
