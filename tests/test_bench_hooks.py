"""The benchmark's traced run wraps library functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod_name}.{fn}" for mod_name, fns in tracing.LAYERS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"microgridctl.{mod_name}"), fn, None))]
    assert missing == []
    assert set(tracing.ON_RESULT) <= {f"{m}.{fn}" for m, fns in tracing.LAYERS.items() for fn in fns}
