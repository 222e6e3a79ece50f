"""The root package exports the pipeline and nothing else; the README
quickstart runs as written."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
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
    "OffVariety", "TraceOutOfRange",
    # read by perfbench/run.py beyond the above
    "coordinate_distance", "type1", "type1_pairs", "type2", "type2_terms", "type3",
    "OffVarietyWarning",
])


def test_root_names_and_harness_reads():
    exported = sorted(
        name for name in dir(monodromy)  # the root names are lazy: not in vars() until read
        if not name.startswith("_") and not isinstance(getattr(monodromy, name), types.ModuleType)
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


def test_no_unused_imports_or_private_functions():
    # No linter runs in CI, so deletions are checked for the debris they leave:
    # an import no longer used in its module, or a private module-level
    # function, class or assigned name nothing in the package reads.  The root
    # module's imports are its exports, pinned above.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "src" / "monodromy").glob("*.py"))
    }

    def names(tree, kinds=(ast.Name,)):  # the names read, not those assigned
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, kinds) and not isinstance(node.ctx, ast.Store)
        }

    referenced = set().union(*(names(t, (ast.Name, ast.Attribute)) for t in trees.values()))
    debris = []
    for module, tree in trees.items():
        used = names(tree)
        for node in ast.walk(tree):
            if module != "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        debris.append(f"{module}: unused import {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__") and name not in referenced:
                    debris.append(f"{module}: unreferenced private name {name}")
    assert debris == []


def test_root_reconstruct_is_the_function_after_its_module_loads():
    # unitary imports the module holding reconstruct; the root name must stay the function
    code = ("import monodromy.unitary; from monodromy import reconstruct; "
            "print(reconstruct.__module__, callable(reconstruct))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["monodromy.reconstruction", "True"]


def _private_names(text: str, span: str) -> set:
    """The private identifiers (``_name``, not dunders) inside ``span``-quoted spans."""
    spans = re.findall(f"{span}(.+?){span}", text, re.S)
    return {name for s in spans for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", s)}


def test_docs_name_no_stale_private_names():
    # a private name quoted in a src docstring or comment, or in the README, must be
    # one that src code defines or reads (namedtuple's _make and _replace aside)
    sources = [path.read_text(encoding="utf-8") for path in (REPO / "src").rglob("*.py")]
    known = {"_make", "_replace"}
    quoted = set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            known.add(
                node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.arg if isinstance(node, ast.arg) else
                node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                node.asname or node.name if isinstance(node, ast.alias) else
                node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier() else None)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                quoted |= _private_names(ast.get_docstring(node, clean=False) or "", "``")
        comments = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
                    if t.type == tokenize.COMMENT]
        quoted |= _private_names("\n".join(comments), "``")
    readme = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(encoding="utf-8"), flags=re.S)
    quoted |= _private_names(readme, "`")
    assert {"_traces", "_STRAIGHT_N"} <= quoted  # the scan finds the quoted names
    assert sorted(quoted - known) == []
