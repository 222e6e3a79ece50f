"""The root package exports the pipeline and nothing else; the README
quickstart runs as written."""

import ast
import re
import types
from pathlib import Path

import monodromy

REPO = Path(__file__).resolve().parents[1]

# The README surface and its accessors, the value types, samplers and errors,
# and every name the benchmark harness reads from the root.
ROOT_NAMES = sorted([
    # pipeline and accessors
    "phi", "membership", "classify_charts", "reconstruct", "classify",
    "close_tuple", "hermitian_form", "verify_invariance", "triple_trace", "quad_trace",
    "PLUS", "MINUS", "DEFAULT_TOL", "Signature",
    # value types
    "Mat2", "Tolerance", "LocalData", "Representation", "TraceCoordinates",
    "ChartId", "ChartEval", "ChartReport", "RelationResiduals", "BranchChoice",
    "Diagnostics", "ReconstructionResult", "SamplerConfig", "HermitianForm",
    "SignatureClass",
    # samplers
    "SplitMix64", "sample_generic", "sample_su2", "sample_su11",
    # errors
    "MonodromyError", "NotUnimodular", "BadIndex", "NotApplicable", "BadChart",
    "ChartNotAdmissible", "DegenerateEigenvalues", "NotReal", "PsiDegenerate",
    "ChartsDisagree", "TraceOutOfRange", "OffVarietyWarning",
    # read by perfbench/run.py beyond the above
    "coordinate_distance", "type1", "type1_pairs", "type2", "type2_terms", "type3",
])


def test_root_names_and_harness_reads():
    exported = sorted(
        name for name, value in vars(monodromy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == ROOT_NAMES
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("m", "monodromy") and not node.attr.startswith("_")
    }
    assert {"phi", "OffVarietyWarning", "type3"} <= read  # the parse finds the reads
    assert sorted(read - set(exported)) == []


def test_readme_quickstart_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
