"""The three workloads: set-up, one timed round, and the checks of its outputs.

A round is a fixed list of operations.  Only calls into ``microgridctl``
are timed (``Clock``); the checks run after the round, untimed.
``setup`` imports ``microgridctl`` and does all parsing and input
generation; it is what ``setup_s`` measures.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import certcheck
from model import Network, check_round_trip, check_summary, check_trace, connected, require

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "microgridctl" / "data"
OUT = ROOT / "bench" / "out"

# Stage-2 search budget on certify14 (the library default is 25).
U_STEPS = 5
# Falsifier starts and seed: fixed, so the counted coverage failures do not
# depend on --seed.  One start finds cert14's violation about a third of the time.
FALSIFIER_STARTS = 64
FALSIFIER_SEED = 2015
HULL_PROFILES = 16       # interior profiles per round for the hull-containment check

# cpower14 ensemble
MEMBER_T_END = 8.0
MEMBER_DT = 0.005
POOL_ROUNDS = 16         # members drawn at set-up; rounds past the pool wrap around


def _read(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def current_cpu() -> int:
    """The CPU the calling thread is running on."""
    stat = Path("/proc/thread-self/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[36])


def steal_s(cpu: int) -> float:
    """Seconds the hypervisor has run something else on this vCPU since boot.

    This is the ``steal`` column of /proc/stat; 0 where the kernel does not
    report it, which leaves timings as plain wall time.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(f"cpu{cpu} "):
                    fields = line.split()
                    return int(fields[8]) * TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


class Clock:
    """Accumulates the wall time of the timed calls, less the steal on ``cpu``.

    The main thread is pinned to ``cpu``, so steal counted there while a
    call runs is time taken from that call.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.total = 0.0

    def call(self, fn, *args, **kwargs):
        s0, t0 = steal_s(self.cpu), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total += time.perf_counter() - t0 - (steal_s(self.cpu) - s0)


@dataclass
class Op:
    name: str
    outputs: tuple = ()
    error: BaseException | None = None


def attempt(name, body):
    """Run one operation; a library exception fails it instead of the run."""
    try:
        return Op(name, body())
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Op(name, (), exc)


class Scenarios14:
    """The three bundled 60 s studies through simulate, CSV write/read and metrics."""

    STUDIES = ("loadstep", "derloss", "commloss")

    def __init__(self, seed: int):
        self.seed = seed  # the studies are the bundled files; only checked strides are drawn

    def setup(self):
        from microgridctl import controller, netmodel, sim

        self.sim = sim
        self.case = netmodel.load_case(DATA / "case14.json")
        self.gains = controller.load_gains(DATA / "gains14.json")
        self.studies = [(name, sim.load_scenario(DATA / f"scenario_{name}.json", self.case))
                        for name in self.STUDIES]

    def prepare_checks(self):
        self.net = Network(_read("case14.json"), _read("gains14.json"))
        self.docs = {name: _read(f"scenario_{name}.json") for name in self.STUDIES}
        self.rng = np.random.default_rng(self.seed)
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def run_round(self, index, clock):
        sim, ops = self.sim, []
        for name, scenario in self.studies:
            path = self.tmp / f"{name}-{os.getpid()}.csv"

            def body():
                trace = clock.call(sim.run_scenario, self.case, self.gains, scenario)
                clock.call(sim.write_trace_csv, trace, path)
                back = clock.call(sim.read_trace_csv, path)
                return trace, back, clock.call(sim.metrics, back, self.case)

            try:
                ops.append(attempt(name, body))
            finally:
                path.unlink(missing_ok=True)
        return ops

    def check(self, op):
        trace, back, summary = op.outputs
        check_trace(self.net, self.docs[op.name], trace, settled=True, rng=self.rng,
                    label=op.name)
        check_round_trip(trace, back, op.name)
        check_summary(self.net, back, summary, op.name)
        return True


class CPower14:
    """Seeded contingency ensemble on the 14-bus case with constant-power loads."""

    KINDS = ("load_step", "der_loss", "comm_loss")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from microgridctl import controller, netmodel, sim

        self.sim = sim
        base = netmodel.load_case(DATA / "case14.json")
        doc = json.loads(netmodel.case_to_json(base))
        for bus in doc["buses"]:
            if bus["kind"] == "load":
                ld = bus["load"]  # P = G, Q = B: the impedance load's draw at nominal voltage
                bus["load"] = {"kind": "constant_power", "P": ld["G"], "Q": ld["B"]}
        self.case_doc = doc
        self.case = netmodel.parse_case(json.dumps(doc))
        self.gains = controller.load_gains(DATA / "gains14.json")
        rng = np.random.default_rng(self.seed)
        self.members, self.docs = [], {}
        for r in range(POOL_ROUNDS):
            for kind in self.KINDS:
                label = f"{kind}#{r}"
                self.docs[label] = sdoc = {
                    "events": self._draw(kind, rng),
                    "sim": {"t_end": MEMBER_T_END, "dt": MEMBER_DT, "record_stride": 10}}
                self.members.append((label, sim.parse_scenario(json.dumps(sdoc), self.case)))

    def _draw(self, kind, rng):
        buses = self.case_doc["buses"]
        loaded = [b["id"] for b in buses if b["kind"] == "load"
                  and (b["load"]["P"] != 0.0 or b["load"]["Q"] != 0.0)]
        inverters = [b["id"] for b in buses if b["kind"] == "inverter"]

        def load_step(t):
            return {"t": t, "kind": "load_step", "bus": int(rng.choice(loaded)),
                    "dP": float(rng.uniform(0.01, 0.05)), "dQ": float(rng.uniform(0.005, 0.02))}

        if kind == "load_step":
            return [load_step(0.5)]
        if kind == "der_loss":
            return [{"t": 0.5, "kind": "der_loss", "bus": int(rng.choice(inverters)),
                     "residual": {"P": float(rng.uniform(0.0, 0.03)),
                                  "Q": float(rng.uniform(0.0, 0.015))}}]
        ring = [tuple(e) for e in self.case_doc["comm_edges"]]
        edge = ring[int(rng.integers(len(ring)))]
        require(connected(inverters, [e for e in ring if e != edge]),
                "cpower14: drawn comm loss disconnects the graph")
        return [{"t": 0.5, "kind": "comm_loss", "edge": list(edge)}, load_step(1.0)]

    def prepare_checks(self):
        self.net = Network(self.case_doc, _read("gains14.json"))
        self.rng = np.random.default_rng(self.seed)

    def run_round(self, index, clock):
        sim, ops = self.sim, []
        n = len(self.KINDS)
        start = (index * n) % len(self.members)
        for label, scenario in self.members[start:start + n]:
            def body():
                trace = clock.call(sim.run_scenario, self.case, self.gains, scenario)
                return trace, clock.call(sim.metrics, trace, self.case)

            ops.append(attempt(label, body))
        return ops

    def check(self, op):
        trace, summary = op.outputs
        check_trace(self.net, self.docs[op.name], trace, settled=False, rng=self.rng,
                    label=op.name)
        check_summary(self.net, trace, summary, op.name)
        return True


class Certify14:
    """Hull, block feasibility, verification of cert14 and a stage-2 search."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from microgridctl import certify, controller, netmodel

        self.certify = certify
        self.case = netmodel.load_case(DATA / "case14.json")
        self.gains = controller.load_gains(DATA / "gains14_synth.json")
        self.cert = certify.load_certificate(DATA / "cert14.json", self.case, self.gains)

    def prepare_checks(self):
        self.net = Network(_read("case14.json"), _read("gains14_synth.json"))
        self.inv_pos = {b: k for k, b in enumerate(self.net.inverters)}

    def run_round(self, index, clock):
        c = self.certify
        self.round_index = index
        self.hull = None  # the previous round's hull is not kept alive
        hull = attempt("build_hull", lambda: (clock.call(c.build_hull, self.case),))
        if hull.error is not None:
            return [hull] + [Op(n, (), hull.error) for n in ("block_feasibility", "verify", "search")]
        self.hull = h = hull.outputs[0]
        return [
            hull,
            attempt("block_feasibility",
                    lambda: (clock.call(c.block_feasibility, self.gains, h, self.cert.d),)),
            attempt("verify",
                    lambda: (clock.call(c.verify_certificate, self.case, self.gains, self.cert),)),
            attempt("search", lambda: (clock.call(c.certificate_for_gains, self.case, self.gains, h,
                                                  u_steps=U_STEPS),)),
        ]

    def check(self, op):
        h = self.hull
        if op.name == "build_hull":
            rng = np.random.default_rng([self.seed, self.round_index])
            profiles = certcheck.interior_profiles(self.net, HULL_PROFILES, rng)
            bad = certcheck.jacobian_outside_hull(self.net, np.asarray(h.J_lo),
                                                  np.asarray(h.J_hi), profiles)
            require(not bad, f"build_hull: finite-difference Jacobian outside the entry bounds: {bad[:3]}")
            return True
        if op.name == "block_feasibility":
            feas = op.outputs[0]
            worst = -np.inf
            for blk, bb in zip(h.blocks, h.per_block):
                K = np.zeros((2 * len(blk), 2 * len(blk)))
                for p, b in enumerate(blk):
                    K[2 * p:2 * p + 2, 2 * p:2 * p + 2] = self.net.K[b]
                H = bb.D_stack @ K
                H = H + H.transpose(0, 2, 1)
                worst = max(worst, float(np.linalg.eigvalsh(H)[:, -1].max()))
            require(abs(worst - feas.worst) <= certcheck.AGREE_TOL,
                    f"block_feasibility: worst eigenvalue {feas.worst:.6e}, recomputed {worst:.6e}")
            require(feas.passed and worst <= -self.cert.d + certcheck.MARGIN_TOL,
                    "block_feasibility: the synthesized gains must be block-feasible at the certificate's d")
            return True
        if op.name == "verify":
            return self._check_certificate(op.name, self.cert, report=op.outputs[0])
        return self._check_certificate(op.name, op.outputs[0], report=None)

    def _check_certificate(self, name, cert, report):
        """Whether a certificate claimed valid holds up against the falsifier.

        ``report`` is the program's verification of ``cert``; ``None`` for a
        certificate the search returned, which claims validity by itself.
        """
        h = self.hull
        positions = [[2 * self.inv_pos[b] + s for b in blk for s in (0, 1)] for blk in h.blocks]
        form = certcheck.QuadraticForm(self.net, positions, cert.U, cert.eps, cert.xi,
                                       cert.zeta, cert.zeta_mode)
        margins, _ = form.exhaustive([certcheck.attainers(np.asarray(bb.D_stack))
                                      for bb in h.per_block])
        full = [certcheck.dedup(np.asarray(bb.D_stack)) for bb in h.per_block]
        worst, combo = form.falsify(full, FALSIFIER_STARTS, np.random.default_rng(FALSIFIER_SEED))
        if report is None:
            require(margins.max() <= certcheck.MARGIN_TOL,
                    f"{name}: returned certificate violates an attainer vertex ({margins.max():.3e})")
            holds = worst <= certcheck.MARGIN_TOL
        else:
            holds = certcheck.judge_report(report, margins, worst)
        if not holds:
            size = int(np.prod([len(v) for v in full]))
            print(f"{name}: coverage failure: passed, but product vertex {combo} of {size}"
                  f" has margin {worst:+.3e}", file=sys.stderr)
        return holds


WORKLOADS = {"scenarios14": Scenarios14, "cpower14": CPower14, "certify14": Certify14}
