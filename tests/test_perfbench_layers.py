"""The layers the benchmark's tracer wraps by name still exist."""

import importlib.util
from pathlib import Path


def test_every_traced_layer_resolves():
    # load perfbench/spans.py as a file: perfbench is not a package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for owner, attr, name, _count in spans.LAYERS:
        assert callable(getattr(owner, attr, None)), name
