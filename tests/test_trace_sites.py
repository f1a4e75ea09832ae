import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED = PERFBENCH / "traced.py"


def test_every_traced_call_site_resolves():
    # The benchmark's traced run rebinds each (namespace, name) in
    # CALL_SITES and crashes on a name the package no longer defines.
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.CALL_SITES
    for namespace, name in traced.CALL_SITES:
        assert callable(getattr(namespace, name, None)), f"{namespace.__name__}.{name}"


def test_every_benchmark_import_resolves():
    # Parsed rather than imported: importing run.py sets the BLAS thread
    # variables in os.environ for the rest of the session.
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("difftrace.")
        for alias in node.names
    ]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
