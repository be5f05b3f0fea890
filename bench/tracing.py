"""Span tracing of microgridctl from outside, for the ``--trace 1`` run.

``Tracer.install`` replaces each traced public function by a wrapper
under every name a caller looks it up by: the defining module, every
``microgridctl`` module that imported it with ``from ... import`` and the
package namespace.  ``certify``'s ``np`` is replaced by a proxy whose
``linalg.eigvalsh``/``eigh`` are wrapped, so only eigen-solves made from
``certify`` count.  A wrapper records one span (layer, start, end,
parent span) in flat arrays, plus per-layer counts taken from the
arguments or the result.  Spans stay in memory until ``save``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = {
    "netmodel": ("load_case", "build_admittance"),
    "powerflow": ("solve_algebraic", "kcl_residual", "injections_raw", "full_jacobian",
                  "kappa_bound"),
    "controller": ("load_gains",),
    "contingency": ("apply_event",),
    "sim": ("parse_scenario", "run_scenario", "solve_equilibrium", "write_trace_csv",
            "read_trace_csv", "metrics"),
    "certify": ("load_certificate", "build_hull", "entry_bounds", "block_feasibility",
                "certification_vertices", "verify_certificate", "zeta_estimate",
                "certificate_for_gains"),
}
EIG = "certify.eig"


def _solve_algebraic(counts, args, kwargs, result):
    counts["powerflow.solve_algebraic.newton_iters"] += result
    counts["powerflow.solve_algebraic.iterating"] += result >= 1


def _run_scenario(counts, args, kwargs, result):
    scenario = kwargs.get("scenario", args[2] if len(args) > 2 else None)
    cfg = kwargs.get("config") or (args[3] if len(args) > 3 else None) or scenario.config
    counts["sim.steps"] += int(round(cfg.t_end / cfg.dt))


def _write_trace_csv(counts, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counts["sim.trace_bytes"] += Path(path).stat().st_size


def _certification_vertices(counts, args, kwargs, result):
    counts["certify.certification_vertices.matrices"] += len(result)


def _verify_certificate(counts, args, kwargs, result):
    counts["certify.verify_certificate.vertices"] += result.n_vertices


def _eig(counts, args, kwargs, result):
    shape = np.shape(args[0])
    counts["certify.eig.matrices"] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1


ON_RESULT = {
    "powerflow.solve_algebraic": _solve_algebraic,
    "sim.run_scenario": _run_scenario,
    "sim.write_trace_csv": _write_trace_csv,
    "certify.certification_vertices": _certification_vertices,
    "certify.verify_certificate": _verify_certificate,
}


class _Proxy:
    """Attribute lookups go to ``target`` unless ``overrides`` names them."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patched = []

    def wrap(self, name, fn, on_result=None):
        layer_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "microgridctl" or name.startswith("microgridctl.")}
        for mod_name, fns in LAYERS.items():
            home = mods[f"microgridctl.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                layer = f"{mod_name}.{fn_name}"
                wrapped = self.wrap(layer, original, ON_RESULT.get(layer))
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        self._patched.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)
        certify = mods["microgridctl.certify"]
        np_mod = certify.np
        linalg = _Proxy(np_mod.linalg, {
            "eigvalsh": self.wrap(EIG, np_mod.linalg.eigvalsh, _eig),
            "eigh": self.wrap(EIG, np_mod.linalg.eigh, _eig),
        })
        self._patched.append((certify, "np", np_mod))
        certify.np = _Proxy(np_mod, {"linalg": linalg})

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self):
        """A phase boundary: the span index and a copy of the counts."""
        return len(self.start), Counter(self.counts)

    def totals(self, begin, stop):
        """Per layer name: calls, inclusive seconds and self seconds over spans [begin, stop)."""
        layer = np.frombuffer(self.layer, dtype=np.int32)[begin:stop]
        parent = np.frombuffer(self.parent, dtype=np.int32)[begin:stop]
        dur = (np.frombuffer(self.end, dtype=np.float64)[begin:stop]
               - np.frombuffer(self.start, dtype=np.float64)[begin:stop])
        child = np.zeros(len(dur))
        inside = parent >= begin
        np.add.at(child, parent[inside] - begin, dur[inside])
        own = dur - child
        out = {}
        for lid, name in enumerate(self.names):
            sel = layer == lid
            calls, s, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + int(sel.sum()), s + float(dur[sel].sum()),
                         self_s + float(own[sel].sum()))
        return out

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return [(m["name"], m["unit"]) for m in json.loads(path.read_text(encoding="utf-8"))["per_layer"]]


def per_layer_metrics(tracer: Tracer, setup_mark, rounds_mark, end_mark, n_rounds: int,
                      overhead_s: float) -> dict:
    """Per-layer figures for one set-up plus one round (rounds averaged)."""
    setup = tracer.totals(setup_mark[0], rounds_mark[0])
    rounds = tracer.totals(rounds_mark[0], end_mark[0])
    counts = Counter(end_mark[1])
    counts.subtract(rounds_mark[1])
    setup_counts = Counter(rounds_mark[1])
    setup_counts.subtract(setup_mark[1])

    def layer(name):
        a, b = setup.get(name, (0, 0.0, 0.0)), rounds.get(name, (0, 0.0, 0.0))
        return tuple(x + y / n_rounds for x, y in zip(a, b))

    def count(name):
        return setup_counts[name] + counts[name] / n_rounds

    spec = per_layer_spec()
    values = {}
    for name, _ in spec:
        base, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif field == "calls":
            values[name] = layer(base)[0]
        elif field == "s":
            values[name] = layer(base)[1]
        elif field == "self_s":
            values[name] = layer(base)[2]
        elif name == "powerflow.solve_algebraic.iterating_share":
            calls = layer("powerflow.solve_algebraic")[0]
            values[name] = count("powerflow.solve_algebraic.iterating") / calls if calls else 0.0
        elif name == "sim.steps_per_s":
            s = layer("sim.run_scenario")[1]
            values[name] = count("sim.steps") / s if s else 0.0
        else:
            values[name] = count(name)
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}
