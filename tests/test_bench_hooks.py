"""The benchmark's traced run wraps library functions by name; every name must resolve."""

import importlib
import importlib.util
import json
from pathlib import Path

from microgridctl import sim

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


def test_solve_algebraic_counts_every_newton_iteration(monkeypatch, cpower14, gains14):
    """The traced run counts Newton iterations from what the engine's
    ``solve_algebraic`` calls return; they must add up to the run's own count."""
    returned = []
    solve = sim.solve_algebraic

    def counted(*args):
        returned.append(solve(*args))
        return returned[-1]

    monkeypatch.setattr(sim, "solve_algebraic", counted)
    scn = sim.parse_scenario(json.dumps({
        "events": [{"t": 0.05, "kind": "load_step", "bus": 9, "dP": 0.05, "dQ": 0.02}],
        "sim": {"t_end": 0.1, "dt": 0.005}}), cpower14)
    stats = sim.run_scenario(cpower14, gains14, scn).meta["stats"]
    assert stats["dt_halvings"] == 0
    assert sum(returned) > 0 and min(returned) >= 0
    assert sum(returned) == stats["newton_iters"]
