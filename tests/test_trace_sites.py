import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_call_site_resolves():
    # The benchmark's traced run rebinds each (namespace, name) in
    # CALL_SITES and crashes on a name the package no longer defines.
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.CALL_SITES
    for namespace, name in traced.CALL_SITES:
        assert callable(getattr(namespace, name, None)), f"{namespace.__name__}.{name}"
