"""Trace checks computed apart from the program.

Everything here works from the raw JSON documents (case, gains, scenario)
and plain numpy: the bus admittance is assembled from the line data, the
loads are moved by the scenario's events, and injections, KCL residuals,
sharing ratios and the control law's frequency are recomputed at every
recorded row.  A seeded sample of record strides is re-integrated with
the model's own RK4 step, control law and KCL Newton solve and compared
with the next recorded row, so a trace must also follow the dynamics.
Nothing from ``microgridctl`` is called.
"""

from __future__ import annotations

import math

import numpy as np

# Steady-state tolerances at the end of a settled (60 s) study.
SHARE_TOL = 1e-4     # spread of P_i/P*_i (and Q_i/Q*_i) over active inverters
FREQ_TOL_HZ = 1e-6   # |f_i - f0|
# Agreement between a recorded column and its recomputation.
COLUMN_TOL = 1e-9
# A second evaluation of the KCL residual rounds differently from the
# program's; allow this many ulps of the summed magnitudes on top of newton_tol.
ROUNDING_ULPS = 16
# Re-integrated record strides: random samples per trace (plus the first
# stride after every event), and the allowed difference of the active
# inverters' states; KCL then fixes the algebraic buses.  Over every stride
# of 48 cpower14 members the worst today is 7e-12, left by the program's
# newton_tol.  An Euler stride is off by 2e-6 to 2e-5 after an event, and
# RK4 at twice the dt by up to 3e-10.
STRIDE_SAMPLES = 12
STRIDE_TOL = 5e-11
KCL_TOL = 1e-12      # own Newton solve, a hundred times tighter than newton_tol


class CheckError(AssertionError):
    """A program output disagrees with its recomputation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


class Network:
    """Own model of a case document: admittance, loads, inverters, comm ring."""

    def __init__(self, case_doc: dict, gains_doc: dict):
        buses = sorted(case_doc["buses"], key=lambda b: b["id"])
        self.n = n = len(buses)
        self.e_min = np.array([b["E_min"] for b in buses], dtype=float)
        self.e_max = np.array([b["E_max"] for b in buses], dtype=float)
        self.inverters = [b["id"] for b in buses if b["kind"] == "inverter"]
        self.p_star = {b["id"]: b["P_star"] for b in buses if b["kind"] == "inverter"}
        self.q_star = {b["id"]: b["Q_star"] for b in buses if b["kind"] == "inverter"}
        # load model per bus: (kind, a, b) with (P, Q) or (G, B)
        self.loads = {}
        for b in buses:
            if b["kind"] == "load":
                ld = b["load"]
                if ld["kind"] == "constant_power":
                    self.loads[b["id"]] = ("constant_power", ld["P"], ld["Q"])
                else:
                    self.loads[b["id"]] = ("constant_impedance", ld["G"], ld["B"])
        Y = np.zeros((n, n), dtype=complex)
        for ln in case_doc["lines"]:
            i, j = ln["from"], ln["to"]
            y = 1.0 / complex(ln["R"], ln["X"])
            half_b = 0.5j * ln.get("B_sh", 0.0)
            Y[i, i] += y + half_b
            Y[j, j] += y + half_b
            Y[i, j] -= y
            Y[j, i] -= y
        self.Y = Y
        self.absY = np.abs(Y)
        self.line_ends = [(ln["from"], ln["to"]) for ln in case_doc["lines"]]
        self.comm_edges = [tuple(sorted(e)) for e in case_doc["comm_edges"]]
        self.f0 = float(case_doc["params"]["f0_hz"])
        self.gamma = math.radians(float(case_doc["params"]["gamma_deg"]))
        self.K = {int(k): np.array(v, dtype=float) * 1e-3
                  for k, v in gains_doc["gains_mrad_mV"].items()}
        limits = gains_doc.get("rate_limits", {})
        self.theta_dot_max = 2.0 * math.pi * float(limits.get("freq_dev_max_hz", 0.3))
        self.e_dot_max = float(limits.get("E_dot_max_pu_per_s", 0.05))

    def injections(self, theta, E):
        """Per-bus (P, Q) for a (rows, n) stack of states."""
        V = E * np.exp(1j * theta)
        S = V * np.conj(V @ self.Y.T)
        return S.real, S.imag

    def condition(self, events):
        """(loads, active inverters, comm edges) after the given events, in order."""
        loads = dict(self.loads)
        active = list(self.inverters)
        edges = list(self.comm_edges)
        for ev in events:
            if ev["kind"] == "load_step":
                kind, a, b = loads[ev["bus"]]
                loads[ev["bus"]] = (kind, a + ev.get("dP", 0.0), b + ev.get("dQ", 0.0))
            elif ev["kind"] == "der_loss":
                bus = ev["bus"]
                res = ev.get("residual", {})
                loads[bus] = ("constant_power", res.get("P", 0.0), res.get("Q", 0.0))
                active.remove(bus)
                edges = [e for e in edges if bus not in e]
            else:
                edges.remove(tuple(sorted(ev["edge"])))
        return loads, active, edges

    def laplacian(self, active, edges):
        pos = {b: k for k, b in enumerate(active)}
        L = np.zeros((len(active), len(active)))
        for a, b in edges:
            ia, ib = pos[a], pos[b]
            L[ia, ia] += 1.0
            L[ib, ib] += 1.0
            L[ia, ib] -= 1.0
            L[ib, ia] -= 1.0
        return L


class Dynamics:
    """The closed loop under one operating condition, stepped the way a trace is recorded."""

    def __init__(self, net: Network, condition, integrator: str):
        loads, active, edges = condition
        self.net = net
        self.act = np.asarray(active)
        self.alg = np.asarray(sorted(loads))
        self.kind_z = np.array([loads[b][0] == "constant_impedance" for b in self.alg])
        self.load_a = np.array([loads[b][1] for b in self.alg])
        self.load_b = np.array([loads[b][2] for b in self.alg])
        self.L = net.laplacian(active, edges)
        self.K = np.array([net.K[b] for b in active])
        self.p_star = np.array([net.p_star[b] for b in active])
        self.q_star = np.array([net.q_star[b] for b in active])
        self.integrator = integrator

    def rates(self, theta, E):
        """(theta_dot, E_dot) per active inverter: gains times the Laplacian mix, clipped, clamped."""
        net, act = self.net, self.act
        P, Q = net.injections(theta[None, :], E[None, :])
        S = np.column_stack([P[0, act] / self.p_star, Q[0, act] / self.q_star])
        xdot = np.einsum("kij,kj->ki", self.K, self.L @ S)
        xdot[:, 0] = np.clip(xdot[:, 0], -net.theta_dot_max, net.theta_dot_max)
        xdot[:, 1] = np.clip(xdot[:, 1], -net.e_dot_max, net.e_dot_max)
        e = E[act]
        clamp = ((e >= net.e_max[act]) & (xdot[:, 1] > 0.0)) | ((e <= net.e_min[act]) & (xdot[:, 1] < 0.0))
        xdot[clamp, 1] = 0.0
        return xdot

    def solve_kcl(self, theta, E, max_iter: int = 30):
        """Newton on KCL at the algebraic buses, in place, with an analytic Jacobian."""
        alg, m = self.alg, len(self.alg)
        if m == 0:
            return
        Yaa = self.net.Y[np.ix_(alg, alg)]
        for _ in range(max_iter):
            V = E * np.exp(1j * theta)
            I = self.net.Y @ V
            Va, Ea, Ia = V[alg], E[alg], I[alg]
            w = np.where(self.kind_z, Ea ** 2, 1.0)
            dw = np.where(self.kind_z, 2.0 * Ea, 0.0)
            S = Va * np.conj(Ia)
            g = np.concatenate([S.real + self.load_a * w, S.imag + self.load_b * w])
            if np.abs(g).max() <= KCL_TOL:
                return
            dS_dth = 1j * (np.diag(Va * np.conj(Ia)) - Va[:, None] * np.conj(Yaa * Va[None, :]))
            dS_dE = (Va[:, None] * np.conj(Yaa * (Va / Ea)[None, :])
                     + np.diag(np.conj(Ia) * Va / Ea))
            J = np.block([[dS_dth.real, dS_dE.real + np.diag(self.load_a * dw)],
                          [dS_dth.imag, dS_dE.imag + np.diag(self.load_b * dw)]])
            step = np.linalg.solve(J, g)
            theta[alg] -= step[:m]
            E[alg] -= step[m:]
        raise CheckError(f"own KCL solve did not converge (residual {np.abs(g).max():.3e})")

    def step(self, theta, E, dt):
        """One integrator step of size dt from a KCL-consistent state, in place."""
        act = self.act
        th0, E0 = theta[act].copy(), E[act].copy()

        def stage(k, c):
            theta[act] = th0 + c * dt * k[:, 0]
            E[act] = E0 + c * dt * k[:, 1]
            self.solve_kcl(theta, E)

        k1 = self.rates(theta, E)
        if self.integrator == "euler":
            stage(k1, 1.0)
            return
        stage(k1, 0.5)
        k2 = self.rates(theta, E)
        stage(k2, 0.5)
        k3 = self.rates(theta, E)
        stage(k3, 1.0)
        k4 = self.rates(theta, E)
        stage((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, 1.0)


def check_strides(net: Network, scenario_doc: dict, trace, n_applied, rng, label: str):
    """Re-integrate sampled record strides and compare each with the next recorded row."""
    sim_cfg = scenario_doc.get("sim", {})
    dt = float(sim_cfg.get("dt", 1e-3))
    stride = int(sim_cfg.get("record_stride", 1))
    integrator = sim_cfg.get("integrator", "rk4")
    events = sorted(scenario_doc.get("events", []), key=lambda e: e["t"])
    theta, E = np.asarray(trace.theta), np.asarray(trace.E)
    same = np.flatnonzero(n_applied[:-1] == n_applied[1:])
    require(len(same) > 0, f"{label}: no record stride without an event")
    first = same[np.r_[True, n_applied[same][1:] != n_applied[same][:-1]]]
    rows = np.union1d(first, rng.choice(same, size=min(STRIDE_SAMPLES, len(same)), replace=False))
    models = {}
    for r in rows:
        k = int(n_applied[r])
        if k not in models:
            models[k] = Dynamics(net, net.condition(events[:k]), integrator)
        th, e = theta[r].copy(), E[r].copy()
        for _ in range(stride):
            models[k].step(th, e, dt)
        act = models[k].act
        diff = max(np.abs(th[act] - theta[r + 1, act]).max(), np.abs(e[act] - E[r + 1, act]).max())
        require(diff <= STRIDE_TOL,
                f"{label}: row {r + 1} is {diff:.3e} off the re-integrated stride from row {r}")


def connected(nodes, edges) -> bool:
    nodes = list(nodes)
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == len(nodes)


def check_trace(net: Network, scenario_doc: dict, trace, settled: bool, rng, label: str):
    """Recompute a recorded trace row by row and along sampled strides; raise CheckError on disagreement."""
    sim_cfg = scenario_doc.get("sim", {})
    newton_tol = float(sim_cfg.get("newton_tol", 1e-10))
    events = sorted(scenario_doc.get("events", []), key=lambda e: e["t"])
    t = np.asarray(trace.t)
    theta, E = np.asarray(trace.theta), np.asarray(trace.E)
    require(tuple(trace.bus_ids) == tuple(range(net.n)), f"{label}: bus columns")
    require(tuple(trace.inverter_ids) == tuple(net.inverters), f"{label}: inverter columns")
    require(np.all(np.isfinite(theta)) and np.all(np.isfinite(E)), f"{label}: non-finite state")
    P, Q = net.injections(theta, E)
    V = E * np.exp(1j * theta)
    scale = np.abs(V) * (np.abs(V) @ net.absY.T)
    inv_cols = {b: k for k, b in enumerate(net.inverters)}
    # rows between two event times share one operating condition
    n_applied = np.array([sum(ev["t"] <= tr + 1e-12 for ev in events) for tr in t])
    for k in np.unique(n_applied):
        rows = np.flatnonzero(n_applied == k)
        loads, active, edges = net.condition(events[:k])
        alg = sorted(loads)
        Ea = E[np.ix_(rows, alg)]
        Pd = np.empty_like(Ea)
        Qd = np.empty_like(Ea)
        for c, bus in enumerate(alg):
            kind, a, b = loads[bus]
            if kind == "constant_power":
                Pd[:, c], Qd[:, c] = a, b
            else:
                Pd[:, c], Qd[:, c] = a * Ea[:, c] ** 2, b * Ea[:, c] ** 2
        allow = newton_tol + ROUNDING_ULPS * np.finfo(float).eps * (
            scale[np.ix_(rows, alg)] + np.abs(Pd) + np.abs(Qd))
        rP = np.abs(P[np.ix_(rows, alg)] + Pd)
        rQ = np.abs(Q[np.ix_(rows, alg)] + Qd)
        worst = max(rP.max(), rQ.max())
        require(np.all(rP <= allow) and np.all(rQ <= allow),
                f"{label}: KCL residual {worst:.3e} above newton_tol {newton_tol:.1e}")

        act = np.asarray(active)
        cols = [inv_cols[b] for b in active]
        Ei = E[np.ix_(rows, act)]
        require(np.all(Ei >= net.e_min[act] - 1e-12) and np.all(Ei <= net.e_max[act] + 1e-12),
                f"{label}: inverter voltage outside [E_min, E_max]")
        require(np.allclose(trace.P_inv[rows], P[np.ix_(rows, net.inverters)], rtol=0, atol=COLUMN_TOL)
                and np.allclose(trace.Q_inv[rows], Q[np.ix_(rows, net.inverters)], rtol=0, atol=COLUMN_TOL),
                f"{label}: recorded P/Q columns disagree with the injections")
        sP = P[np.ix_(rows, act)] / np.array([net.p_star[b] for b in active])
        sQ = Q[np.ix_(rows, act)] / np.array([net.q_star[b] for b in active])
        spread_P = sP.max(axis=1) - sP.min(axis=1)
        spread_Q = sQ.max(axis=1) - sQ.min(axis=1)
        require(np.allclose(trace.sharing_P[rows], spread_P, rtol=0, atol=COLUMN_TOL)
                and np.allclose(trace.sharing_Q[rows], spread_Q, rtol=0, atol=COLUMN_TOL),
                f"{label}: recorded sharing errors disagree with the injections")
        # control law: theta_dot_i = clip(K_i[0] . (L S)_i)
        mix_P = sP @ net.laplacian(active, edges).T
        mix_Q = sQ @ net.laplacian(active, edges).T
        k_row = np.array([net.K[b][0] for b in active])
        theta_dot = np.clip(mix_P * k_row[:, 0] + mix_Q * k_row[:, 1],
                            -net.theta_dot_max, net.theta_dot_max)
        f_own = net.f0 + theta_dot / (2.0 * math.pi)
        require(np.allclose(trace.f_inv[np.ix_(rows, cols)], f_own, rtol=0, atol=COLUMN_TOL),
                f"{label}: recorded frequencies disagree with the control law")
        lost = [c for c in range(len(net.inverters)) if c not in cols]
        require(np.all(np.isnan(trace.f_inv[np.ix_(rows, lost)])),
                f"{label}: a lost inverter records a frequency")
        if settled and k == n_applied[-1]:
            require(spread_P[-1] <= SHARE_TOL and spread_Q[-1] <= SHARE_TOL,
                    f"{label}: final sharing spread {spread_P[-1]:.2e}/{spread_Q[-1]:.2e}"
                    f" above {SHARE_TOL:g}")
            require(np.all(np.abs(f_own[-1] - net.f0) <= FREQ_TOL_HZ),
                    f"{label}: final frequency off f0 by {np.abs(f_own[-1] - net.f0).max():.2e} Hz")
    check_strides(net, scenario_doc, trace, n_applied, rng, label)


def check_summary(net: Network, trace, summary, label: str):
    """The metrics summary must restate the trace it was computed from."""
    E = np.asarray(trace.E)
    viol = int(np.sum(np.any((E < net.e_min - 1e-12) | (E > net.e_max + 1e-12), axis=1)))
    require(summary.voltage_violations == viol, f"{label}: voltage violation count")
    require(summary.final_sharing_P == trace.sharing_P[-1]
            and summary.final_sharing_Q == trace.sharing_Q[-1], f"{label}: final sharing")
    require(summary.freq_min == np.nanmin(trace.f_inv)
            and summary.freq_max == np.nanmax(trace.f_inv), f"{label}: frequency range")
    fb = [a for a, _ in net.line_ends]
    tb = [b for _, b in net.line_ends]
    ang = float(np.abs(np.asarray(trace.theta)[:, fb] - np.asarray(trace.theta)[:, tb]).max())
    require(abs(summary.max_branch_angle - ang) <= 1e-15, f"{label}: max branch angle")


def check_round_trip(trace, back, label: str):
    """The CSV read-back must reproduce the in-memory trace exactly."""
    for name in ("t", "theta", "E", "P_inv", "Q_inv", "f_inv", "clamp_active",
                 "angle_violation", "newton_iters", "sharing_P", "sharing_Q"):
        a, b = np.asarray(getattr(trace, name)), np.asarray(getattr(back, name))
        require(a.shape == b.shape and np.array_equal(a, b, equal_nan=True),
                f"{label}: CSV round trip changed {name}")
    require(tuple(trace.bus_ids) == tuple(back.bus_ids)
            and tuple(trace.inverter_ids) == tuple(back.inverter_ids),
            f"{label}: CSV round trip changed the bus ids")
