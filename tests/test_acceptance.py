"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at their stated tolerances against the bundled 14-bus case,
the published table gains (simulations), and the synthesized gains plus
certificate (certification checks).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import microgridctl as mg
from microgridctl import data as bundled
from microgridctl.certify import (
    StabilityCertificate,
    block_feasibility,
    certification_vertices,
    entry_bounds,
    inherited_feasibility,
    sample_interior_profiles,
    verify_certificate,
)
from microgridctl.contingency import FaultEvent, OperatingCondition, apply_event
from microgridctl.controller import consensus_patterns, control_derivative, ControlState
from microgridctl.netmodel import laplacian
from microgridctl.powerflow import VoltageProfile, injections_raw
from microgridctl.sim import (
    parse_scenario,
    run_scenario,
    velocity_ratio_violations,
    write_trace_csv,
)

from conftest import inverter, line, make_case, solved_profile

F0 = 50.0
FREQ_BAND = (49.7, 50.3)
E_DEV_MAX = 0.06
ANGLE_MAX_DEG = 15.0


@pytest.fixture(scope="module")
def loadstep_run(case14, gains14):
    scenario = bundled.bundled_scenario(bundled.SCENARIO_LOADSTEP)
    t0 = time.perf_counter()
    trace = run_scenario(case14, gains14, scenario)
    wall = time.perf_counter() - t0
    return trace, wall


def _assert_secure_trace(trace, case, check_final_freq=True):
    """The criterion-4 bound set, shared by the contingency criteria."""
    f = trace.f_inv
    assert np.nanmin(f) >= FREQ_BAND[0] and np.nanmax(f) <= FREQ_BAND[1]
    if check_final_freq:
        assert np.nanmax(np.abs(f[-1] - F0)) < 1e-3
    assert np.abs(trace.E - 1.0).max() <= E_DEV_MAX + 1e-12
    fb = np.array([ln.from_bus for ln in case.lines])
    tb = np.array([ln.to_bus for ln in case.lines])
    max_angle = np.abs(trace.theta[:, fb] - trace.theta[:, tb]).max()
    assert math.degrees(max_angle) <= ANGLE_MAX_DEG
    assert trace.sharing_P[-1] < 1e-3
    assert trace.sharing_Q[-1] < 1e-2


def test_acceptance_01_jacobian_finite_differences(case14, Y14):
    """Criterion 1: analytic Jacobians match central differences on 100 states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240814)
    inv = list(case14.inverter_ids)
    p_star, q_star = case14.p_star(), case14.q_star()
    h = 1e-6

    def s_of(theta, E):
        P, Q = injections_raw(Y14, theta, E)
        s = np.empty(2 * len(inv))
        s[0::2] = P[inv] / p_star
        s[1::2] = Q[inv] / q_star
        return s

    profiles = sample_interior_profiles(case14, 100, seed=77)
    worst = 0.0
    for x in profiles:
        J = mg.jacobians(case14, Y14, x)
        for block, ids in ((J.J_I, case14.inverter_ids), (J.J_L, case14.load_ids)):
            cols = []
            for i in ids:
                for comp in (0, 1):
                    tp, ep = x.theta.copy(), x.E.copy()
                    tm, em = x.theta.copy(), x.E.copy()
                    if comp == 0:
                        tp[i] += h
                        tm[i] -= h
                    else:
                        ep[i] += h
                        em[i] -= h
                    cols.append((s_of(tp, ep) - s_of(tm, em)) / (2 * h))
            fd = np.column_stack(cols) if cols else np.zeros((2 * len(inv), 0))
            if fd.size:
                err = np.abs(block - fd) / np.maximum(np.abs(fd), 1.0)
                worst = max(worst, float(err.max()))
    wall = time.perf_counter() - t0
    assert worst < 1e-6
    assert wall < 10.0
    print(f"ACCEPTANCE #1 PASS: Jacobian vs FD max rel err {worst:.2e} over 100 states "
          f"({wall:.1f} s)")


def test_acceptance_02_equilibrium_equivalence(case14, gains14, loadstep_run, Y14):
    """Criterion 2: sharing inputs give zero derivative; steady states share."""
    lap = laplacian(case14.comm_edges, case14.inverter_ids)
    state = ControlState.of(case14, gains14, lap)
    inv = list(case14.inverter_ids)
    v_p, v_q = consensus_patterns(case14.n_inverters)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        S = rng.uniform(-2, 2) * v_p + rng.uniform(-2, 2) * v_q
        xdot, _ = control_derivative(state, S[0::2] * state.p_star, S[1::2] * state.q_star,
                                     np.ones(len(inv)))
        worst = max(worst, float(np.abs(xdot).max()))
    assert worst < 1e-12

    trace, _ = loadstep_run
    P, Q = injections_raw(Y14, trace.theta[-1], trace.E[-1])
    xdot_end, _ = control_derivative(state, P[inv], Q[inv], trace.E[-1][inv])
    assert np.linalg.norm(xdot_end) < 1e-8  # it is a simulated steady state
    assert trace.sharing_P[-1] < 1e-6
    assert trace.sharing_Q[-1] < 1e-6
    print(f"ACCEPTANCE #2 PASS: consensus input -> |xdot| {worst:.1e}; "
          f"steady state sharing err {trace.sharing_P[-1]:.1e}")


def test_acceptance_03_vertex_bound_containment():
    """Criterion 3: 1000 interior Jacobians inside the corner entry bounds."""
    t0 = time.perf_counter()
    case = make_case(
        [inverter(0, P=1.0, Q=0.4), inverter(1, P=0.8, Q=0.3), inverter(2, P=0.6, Q=0.2)],
        [line(0, 1, R=0.05, X=0.10), line(1, 2, R=0.08, X=0.12)],
        [[0, 1], [1, 2]],
    )
    Y = mg.build_admittance(case)
    bb = entry_bounds(case, Y, (0, 1, 2))
    profiles = sample_interior_profiles(case, 1000, seed=123)
    for x in profiles:
        J = mg.jacobians(case, Y, x).J_I
        assert np.all(J >= bb.J_lo - 1e-9)
        assert np.all(J <= bb.J_hi + 1e-9)
    wall = time.perf_counter() - t0
    assert wall < 5.0
    print(f"ACCEPTANCE #3 PASS: 1000 interior samples inside entry bounds ({wall:.1f} s)")


def test_acceptance_04_load_step_scenario(case14, loadstep_run):
    """Criterion 4: the 60 s load-step run obeys every stated bound."""
    trace, wall = loadstep_run
    _assert_secure_trace(trace, case14)
    assert wall < 60.0
    assert trace.clamp_active.sum() == 0  # regression: no voltage clamps fire
    print(f"ACCEPTANCE #4 PASS: load step f in [{np.nanmin(trace.f_inv):.4f}, "
          f"{np.nanmax(trace.f_inv):.4f}] Hz, final sharing P {trace.sharing_P[-1]:.1e}, "
          f"Q {trace.sharing_Q[-1]:.1e}, wall {wall:.1f} s")


def test_acceptance_05_inverter_loss(case14, gains14):
    """Criterion 5: losing inverter 1, survivors resynchronize and carry its share."""
    scenario = bundled.bundled_scenario(bundled.SCENARIO_DERLOSS)
    trace = run_scenario(case14, gains14, scenario)
    _assert_secure_trace(trace, case14)
    event_row = int(np.searchsorted(trace.t, scenario.events[0].time)) - 1
    pre_total = trace.P_inv[event_row].sum()
    post_total = trace.P_inv[-1].sum()
    rel = abs(post_total - pre_total) / abs(pre_total)
    assert rel < 0.01
    assert np.isnan(trace.f_inv[-1, 0])  # the lost unit reports no frequency
    print(f"ACCEPTANCE #5 PASS: survivors carry {post_total:.4f} pu vs pre-fault "
          f"{pre_total:.4f} pu (diff {100 * rel:.2f} %)")


def test_acceptance_06_single_comm_link_loss(case14, gains14):
    """Criterion 6: every single comm-link loss keeps the criterion-4 bounds."""
    removable = []
    for edge in case14.comm_edges:
        rest = [e for e in case14.comm_edges if e != edge]
        if laplacian(rest, case14.inverter_ids).connected:
            removable.append(edge)
    assert removable, "comm graph has no single-edge-removable links"
    for edge in removable:
        scn = parse_scenario(json.dumps({
            "events": [
                {"t": 0.5, "kind": "comm_loss", "edge": list(edge)},
                {"t": 1.0, "kind": "load_step", "bus": 9, "dP": 0.027, "dQ": 0.0174},
            ],
            "sim": {"t_end": 60.0, "dt": 0.005, "record_stride": 20},
        }), case14)
        trace = run_scenario(case14, gains14, scn)
        assert not trace.meta["uncertified"]
        _assert_secure_trace(trace, case14)
    print(f"ACCEPTANCE #6 PASS: all {len(removable)} single-link losses keep the bounds")


def test_acceptance_07_certificate_soundness(case14, gains14_synth, cert14, hull14):
    """Criterion 7: bundled certificate verifies; corrupting U is detected."""
    vmats = certification_vertices(hull14)
    report = verify_certificate(case14, gains14_synth, cert14, vertex_matrices=vmats)
    assert report.passed
    assert report.worst <= 1e-9

    U = np.array(cert14.U)
    scale = np.abs(U).max()
    undetected = []
    for a in range(U.shape[0]):
        for b in range(a, U.shape[1]):
            U2 = U.copy()
            bump = 0.1 * (abs(U2[a, b]) if abs(U2[a, b]) > 1e-12 * scale else scale)
            U2[a, b] += bump
            if a != b:
                U2[b, a] += bump
            try:
                corrupted = StabilityCertificate(
                    U=U2, eps=cert14.eps, xi=cert14.xi, zeta=cert14.zeta, d=cert14.d,
                    hull_kind=cert14.hull_kind, zeta_mode=cert14.zeta_mode,
                )
            except mg.ValidationError:
                continue  # corruption broke positive definiteness: detected
            bad = verify_certificate(case14, gains14_synth, corrupted, vertex_matrices=vmats)
            if bad.passed:
                undetected.append((a, b))
    assert undetected == []
    print(f"ACCEPTANCE #7 PASS: certificate margin {report.worst:.2e} over "
          f"{report.n_vertices} vertices; all 10% U corruptions detected")


def test_acceptance_08_interlacing_and_survivor_subsets(case14, gains14_synth, hull14):
    """Criterion 8: Cauchy interlacing suite plus exhaustive survivor re-checks."""
    rng = np.random.default_rng(99)
    c = 0.25
    for _ in range(200):
        n = int(rng.integers(2, 12))
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        H -= (np.linalg.eigvalsh(H)[-1] + c) * np.eye(n)
        k = int(rng.integers(1, n + 1))
        keep = sorted(rng.choice(n, size=k, replace=False))
        sub = H[np.ix_(keep, keep)]
        assert np.linalg.eigvalsh(sub)[-1] <= -c + 1e-12

    full = block_feasibility(gains14_synth, hull14, d=1e-9)
    assert full.passed
    d_full = -full.worst
    inverters = list(case14.inverter_ids)
    checked = skipped = 0
    for r in range(1, len(inverters) + 1):
        for survivors in itertools.combinations(inverters, r):
            cond = OperatingCondition.initial(case14)
            for bus in inverters:
                if bus not in survivors:
                    cond = apply_event(case14, cond,
                                       FaultEvent(time=0.0, kind="der_loss", bus=bus))
            rep = inherited_feasibility(gains14_synth, hull14, cond, d=d_full)
            if not cond.connected:
                assert not rep.checked
                skipped += 1
                continue
            checked += 1
            assert rep.passed
            assert rep.margin >= d_full - 1e-9
    assert checked + skipped == 31
    print(f"ACCEPTANCE #8 PASS: 200 interlacing draws; {checked} connected survivor "
          f"subsets pass with margin >= {d_full:.3f}, {skipped} disconnected skipped")


def test_acceptance_09_velocity_coupling_bound(case14, Y14, loadstep_run):
    """Criterion 9: the load/inverter velocity ratio stays under kappa + 0.01."""
    trace, _ = loadstep_run
    samples = sample_interior_profiles(case14, 200, seed=11)
    samples += [VoltageProfile(theta=trace.theta[r], E=trace.E[r])
                for r in range(0, trace.n_rows, 10)]
    est = mg.kappa_bound(case14, Y14, samples)
    violations = velocity_ratio_violations(trace, case14, est.kappa)
    assert violations == []
    print(f"ACCEPTANCE #9 PASS: kappa {est.kappa:.2f}, no velocity-ratio violations")


def test_acceptance_10_steady_state_oracle(triangle_case):
    """Criterion 10: simulated steady state matches an independent root finder."""
    gains = mg.GainSet(blocks={0: -0.05 * np.eye(2), 1: -0.05 * np.eye(2)})
    x_start = solved_profile(triangle_case, np.array([0.0, 1.02, 0.0, 0.98]))
    scn = parse_scenario(json.dumps({
        "events": [], "sim": {"t_end": 40.0, "dt": 0.005, "record_stride": 100},
    }), triangle_case)
    trace = run_scenario(triangle_case, gains, scn, initial=x_start)
    theta_end = trace.theta[-1]
    E_end = trace.E[-1]

    # independent oracle: naive complex-phasor injections, numerical Jacobian,
    # damped Gauss-Newton on the combined equilibrium equations with the
    # simulated reference pins
    Yc = np.zeros((3, 3), dtype=complex)
    for ln in triangle_case.lines:
        y = 1.0 / complex(ln.R, ln.X)
        Yc[ln.from_bus, ln.from_bus] += y
        Yc[ln.to_bus, ln.to_bus] += y
        Yc[ln.from_bus, ln.to_bus] -= y
        Yc[ln.to_bus, ln.from_bus] -= y

    load = triangle_case.buses[2].load

    def equations(u):
        th1, e1, th2, e2 = u
        V = np.array([
            E_end[0] * np.exp(1j * theta_end[0]),  # pinned at the simulated reference
            e1 * np.exp(1j * th1),
            e2 * np.exp(1j * th2),
        ])
        S = V * np.conj(Yc @ V)
        return np.array([
            S[0].real / 1.0 - S[1].real / 0.5,   # active sharing
            S[0].imag / 0.5 - S[1].imag / 0.25,  # reactive sharing
            S[2].real + load.P,
            S[2].imag + load.Q,
        ])

    u = np.array([0.0, 1.0, 0.0, 1.0])
    for _ in range(200):
        r = equations(u)
        if np.abs(r).max() < 1e-13:
            break
        h = 1e-7
        Jn = np.column_stack([
            (equations(u + h * e) - equations(u - h * e)) / (2 * h)
            for e in np.eye(4)
        ])
        step = np.linalg.solve(Jn, r)
        lam = 1.0
        while lam > 1e-4:
            trial = u - lam * step
            if np.abs(equations(trial)).max() < np.abs(r).max():
                u = trial
                break
            lam *= 0.5
        else:
            u = u - 1e-4 * step
    oracle = u
    sim_state = np.array([theta_end[1], E_end[1], theta_end[2], E_end[2]])
    err = np.abs(sim_state - oracle).max()
    assert err < 1e-6
    print(f"ACCEPTANCE #10 PASS: steady state matches root-finding oracle to {err:.1e}")


def test_acceptance_11_determinism(tmp_path, case14, gains14, loadstep_run):
    """Criterion 11: two runs of the load-step scenario are byte-identical."""
    trace1, _ = loadstep_run
    scenario = bundled.bundled_scenario(bundled.SCENARIO_LOADSTEP)
    trace2 = run_scenario(case14, gains14, scenario)
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    write_trace_csv(trace1, p1)
    write_trace_csv(trace2, p2)
    b1 = p1.read_bytes()
    b2 = p2.read_bytes()
    assert b1 == b2
    print(f"ACCEPTANCE #11 PASS: byte-identical traces ({len(b1)} bytes)")
