import json

import numpy as np
import pytest

import microgridctl as mg
from microgridctl import data as bundled
from microgridctl import powerflow, sim
from microgridctl.contingency import FaultEvent, OperatingCondition, apply_event
from microgridctl.controller import control_derivative
from microgridctl.netmodel import LoadArrays
from microgridctl.powerflow import (
    NEWTON_TOL,
    NewtonError,
    VoltageProfile,
    injections_raw,
    kcl_residual,
)
from microgridctl.sim import (
    MAX_STEPS,
    SimConfig,
    SimulationError,
    _Engine,
    metrics,
    parse_scenario,
    read_trace_csv,
    run_scenario,
    solve_equilibrium,
    velocity_ratio_violations,
    write_trace_csv,
)

from conftest import (
    MALFORMED_SCENARIOS,
    NON_FINITE_SCENARIOS,
    inverter,
    line,
    make_case,
    pq_load,
    solved_profile,
    z_load,
)


def scenario_of(case, events, t_end=1.0, dt=0.005, stride=1):
    return parse_scenario(json.dumps({
        "events": events,
        "sim": {"t_end": t_end, "dt": dt, "record_stride": stride},
    }), case)


@pytest.fixture()
def balanced_pair():
    """Two identical inverters, lossless line, no loads: flat is an exact equilibrium."""
    return make_case(
        [inverter(0, P=1.0, Q=0.5), inverter(1, P=1.0, Q=0.5)],
        [line(0, 1, R=0.0, X=0.5)],
        [[0, 1]],
    )


def test_exact_equilibrium_holds_bitwise(balanced_pair):
    gains = mg.GainSet(blocks={0: -0.02 * np.eye(2), 1: -0.02 * np.eye(2)})
    scn = scenario_of(balanced_pair, [], t_end=0.5)
    x0 = VoltageProfile.flat(2)
    tr = run_scenario(balanced_pair, gains, scn, initial=x0)
    assert np.all(tr.theta == 0.0)
    assert np.all(tr.E == 1.0)
    assert np.all(tr.sharing_P == 0.0)


def test_empty_scenario_from_solved_equilibrium_is_constant(case14, gains14):
    scn = scenario_of(case14, [], t_end=2.0, dt=0.005, stride=10)
    tr = run_scenario(case14, gains14, scn)
    assert np.abs(tr.theta - tr.theta[0]).max() < 1e-8
    assert np.abs(tr.E - tr.E[0]).max() < 1e-8
    assert tr.sharing_P.max() < 1e-9
    m = metrics(tr, case14)
    assert m.final_sharing_P < 1e-9
    assert m.max_freq_dev < 1e-9


def test_triangle_sharing_error_strictly_decreases(triangle_case):
    gains = mg.GainSet(blocks={0: -0.05 * np.eye(2), 1: -0.05 * np.eye(2)})
    x0 = solved_profile(triangle_case, np.array([0.0, 1.02, 0.0, 0.98]))
    scn = scenario_of(triangle_case, [], t_end=0.06, dt=5e-4, stride=1)
    tr = run_scenario(triangle_case, gains, scn, initial=x0)
    first = tr.sharing_P[:101]
    assert np.all(np.diff(first) < 0.0)
    assert np.all(np.diff(tr.sharing_Q[:101]) < 0.0)


def test_step_single_advance_matches_run(case14, Y14, gains14):
    x0 = solve_equilibrium(case14, Y14)
    tr = run_scenario(case14, gains14, scenario_of(case14, [], t_end=0.005, dt=0.005),
                      initial=x0)
    assert tr.n_rows == 2
    # at equilibrium the derivative is ~0: the step stays put to solver tolerance
    assert np.abs(tr.theta[-1] - x0.theta).max() < 1e-9
    assert np.abs(tr.E[-1] - x0.E).max() < 1e-9


def test_rate_limits_hold_on_recorded_series(case14, gains14):
    scn = scenario_of(case14, [{"t": 0.1, "kind": "load_step", "bus": 9,
                                "dP": 0.027, "dQ": 0.0174}],
                      t_end=2.0, dt=0.005, stride=1)
    tr = run_scenario(case14, gains14, scn)
    inv = list(case14.inverter_ids)
    dt = np.diff(tr.t)
    ev = tr.meta["event_times"]
    for r in range(1, tr.n_rows):
        if any(tr.t[r - 1] <= te <= tr.t[r] for te in ev):
            continue
        dth = np.abs(tr.theta[r, inv] - tr.theta[r - 1, inv]) / dt[r - 1]
        dE = np.abs(tr.E[r, inv] - tr.E[r - 1, inv]) / dt[r - 1]
        assert dth.max() <= gains14.theta_dot_max + 1e-9
        assert dE.max() <= gains14.E_dot_max + 1e-9


def test_rotating_frame_invariance(triangle_case):
    gains = mg.GainSet(blocks={0: -0.05 * np.eye(2), 1: -0.05 * np.eye(2)})
    x0 = solved_profile(triangle_case, np.array([0.0, 1.02, 0.0, 0.98]))
    shift = 0.4
    x0s = VoltageProfile(theta=x0.theta + shift, E=x0.E)
    scn = scenario_of(triangle_case, [], t_end=0.5, dt=0.005, stride=5)
    tr = run_scenario(triangle_case, gains, scn, initial=x0)
    trs = run_scenario(triangle_case, gains, scn, initial=x0s)
    assert np.abs((trs.theta - tr.theta) - shift).max() < 1e-9
    assert np.abs(trs.E - tr.E).max() < 1e-9
    assert np.abs(trs.sharing_P - tr.sharing_P).max() < 1e-9


def test_trace_csv_bytes_match_per_value_formatting(tmp_path, case14, gains14):
    """The one-format-per-row writer gives the bytes of formatting every value on its own."""
    tr = run_scenario(case14, gains14, bundled.bundled_scenario(bundled.SCENARIO_DERLOSS))
    assert np.isnan(tr.f_inv).any()  # the lost inverter's frequency column
    path = tmp_path / "derloss.csv"
    write_trace_csv(tr, path)
    cols = ["t"] + [f"theta_{i}" for i in tr.bus_ids] + [f"E_{i}" for i in tr.bus_ids]
    for name in ("P", "Q", "f"):
        cols += [f"{name}_{i}" for i in tr.inverter_ids]
    cols += ["clamp_active", "angle_violation", "newton_iters", "sharing_err_P", "sharing_err_Q"]
    rows = [",".join(cols)]
    for r in range(tr.n_rows):
        vals = [f"{tr.t[r]:.17g}"]
        for block in (tr.theta, tr.E, tr.P_inv, tr.Q_inv, tr.f_inv):
            vals += [f"{v:.17g}" for v in block[r]]
        vals += [str(int(tr.clamp_active[r])), str(int(tr.angle_violation[r])),
                 str(int(tr.newton_iters[r]))]
        vals += [f"{tr.sharing_P[r]:.17g}", f"{tr.sharing_Q[r]:.17g}"]
        rows.append(",".join(vals))
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")


def test_trace_csv_roundtrip(tmp_path, case14, gains14):
    scn = scenario_of(case14, [], t_end=0.1, dt=0.005, stride=2)
    tr = run_scenario(case14, gains14, scn)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path)
    assert back.bus_ids == tr.bus_ids
    assert back.inverter_ids == tr.inverter_ids
    assert np.array_equal(back.t, tr.t)
    assert np.array_equal(back.theta, tr.theta)
    assert np.array_equal(back.P_inv, tr.P_inv)
    assert np.array_equal(back.newton_iters, tr.newton_iters)


def test_metrics_on_constant_trace(case14, gains14):
    scn = scenario_of(case14, [], t_end=0.5, dt=0.005, stride=5)
    tr = run_scenario(case14, gains14, scn)
    m = metrics(tr, case14)
    assert m.final_sharing_P < 1e-9
    assert m.final_sharing_Q < 1e-9
    assert m.max_freq_dev < 1e-9
    assert m.voltage_violations == 0
    assert m.time_to_sharing_tol == 0.0


def test_metrics_without_case_uses_meta(case14, gains14):
    scn = scenario_of(case14, [], t_end=0.1, dt=0.005)
    tr = run_scenario(case14, gains14, scn)
    m = metrics(tr)  # falls back to trace metadata for f0/gamma
    assert m.max_freq_dev is not None
    assert m.voltage_violations is None  # bounds need the case


def test_event_between_grid_points_applies_at_next_step(case14, gains14):
    scn = scenario_of(case14, [{"t": 0.0123, "kind": "load_step", "bus": 9, "dP": 0.02}],
                      t_end=0.1, dt=0.005, stride=1)
    tr = run_scenario(case14, gains14, scn)
    assert tr.meta["event_times"] == (0.015,)


def test_dt_halving_recovers_from_transient_newton_failure(case14, Y14, gains14):
    dt = 0.01
    cond = OperatingCondition.initial(case14)
    x0 = solve_equilibrium(case14, Y14, cond)
    eng = _Engine(case14, gains14, Y14, cond, x0.theta, x0.E)

    calls = {"n": 0}
    original = eng._try_step

    def flaky(dt):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise NewtonError("synthetic failure")
        return original(dt)

    eng._try_step = flaky
    eng.advance(dt)  # two failures then halved steps succeed
    assert calls["n"] > 2

    eng2 = _Engine(case14, gains14, Y14, cond, x0.theta, x0.E)
    eng2._try_step = lambda dt: (_ for _ in ()).throw(NewtonError("always"))
    with pytest.raises(SimulationError, match="halvings"):
        eng2.advance(dt)


def test_scenario_parse_sorts_and_validates(case14):
    scn = parse_scenario(json.dumps({
        "events": [
            {"t": 2.0, "kind": "comm_loss", "edge": [0, 1]},
            {"t": 1.0, "kind": "load_step", "bus": 9, "dP": 0.01},
        ],
        "sim": {"t_end": 3.0, "dt": 0.01},
    }), case14)
    assert [e.time for e in scn.events] == [1.0, 2.0]
    with pytest.raises(mg.ValidationError):
        parse_scenario(json.dumps({
            "events": [{"t": 1.0, "kind": "der_loss", "bus": 3}],
            "sim": {"t_end": 1.0, "dt": 0.01},
        }), case14)
    with pytest.raises(mg.ParseError):
        parse_scenario(json.dumps({"events": [{"t": 1.0, "kind": "meteor"}]}), case14)


@pytest.mark.parametrize("t, inside", [(-1.0, False), (0.0, True), (0.1, True), (5.0, False)])
def test_scenario_refuses_events_outside_the_run(case14, t, inside):
    text = json.dumps({"events": [{"t": 0.05, "kind": "comm_loss", "edge": [0, 1]},
                                  {"t": t, "kind": "load_step", "bus": 9, "dP": 0.01}],
                       "sim": {"t_end": 0.1, "dt": 0.005}})
    if inside:
        assert sorted(e.time for e in parse_scenario(text, case14).events) == sorted([0.05, t])
    else:
        with pytest.raises(mg.ValidationError, match=rf"event 1 \(load_step at t = {t:g} s\)"):
            parse_scenario(text, case14)


@pytest.mark.parametrize("text, key", [
    ('{"sim": {"t_ned": 5}, "evnts": []}', "'evnts'"),
    ('{"sim": {"t_ned": 5}}', "'t_ned'"),
    ('{"sim": {"t_end": 0.1, "integrator": "euler"}}', "'integrator'"),
    ('{"events": [{"t": 1.0, "kind": "load_step", "bus": 9, "dp": 0.5}]}', "'dp'"),
    ('{"events": [{"t": 1.0, "kind": "der_loss", "bus": 0, "residual": {"p": 0.5}}]}', "'p'"),
])
def test_scenario_rejects_unknown_keys(text, key):
    with pytest.raises(mg.ParseError, match=key):
        parse_scenario(text)


def test_step_count_must_be_finite():
    with pytest.raises(mg.ValidationError, match="t_end"):
        parse_scenario('{"sim": {"t_end": 1e308, "dt": 0.005}}')


def test_step_count_is_bounded():
    assert SimConfig(dt=0.5, t_end=0.5 * MAX_STEPS).t_end == 0.5 * MAX_STEPS
    with pytest.raises(mg.ValidationError, match="steps"):
        SimConfig(dt=0.5, t_end=0.5 * (MAX_STEPS + 1))
    with pytest.raises(mg.ValidationError, match="steps"):
        SimConfig(dt=0.005, t_end=1e12)


def test_velocity_check_skips_event_intervals(case14, gains14):
    scn = scenario_of(case14, [{"t": 0.05, "kind": "load_step", "bus": 9, "dP": 0.05,
                                "dQ": 0.02}],
                      t_end=0.5, dt=0.005, stride=1)
    tr = run_scenario(case14, gains14, scn)
    # a generous kappa: no violations; the event interval is excluded internally
    viol = velocity_ratio_violations(tr, case14, kappa=1e6)
    assert viol == []


def test_step_size_self_convergence(case14, gains14):
    """Halving the step changes the 10 s state by far less than the tolerance."""
    final = {}
    for dt in (1e-3, 5e-4):
        scn = scenario_of(case14, [{"t": 1.0, "kind": "load_step", "bus": 9,
                                    "dP": 0.027, "dQ": 0.0174}],
                          t_end=10.0, dt=dt, stride=int(round(1.0 / dt)))
        tr = run_scenario(case14, gains14, scn)
        final[dt] = (tr.theta[-1], tr.E[-1])
    d_theta = np.abs(final[1e-3][0] - final[5e-4][0]).max()
    d_E = np.abs(final[1e-3][1] - final[5e-4][1]).max()
    assert max(d_theta, d_E) < 1e-6


# -- Kron elimination of the linear algebraic buses --------------------------------


def kcl_per_row(case, Y, trace, events):
    """Worst full-network KCL residual of each recorded row under its own condition."""
    pending = list(zip(trace.meta["event_times"], events))
    cond = OperatingCondition.initial(case)
    out = np.empty(trace.n_rows)
    for r in range(trace.n_rows):
        while pending and pending[0][0] <= trace.t[r] + 1e-12:
            cond = apply_event(case, cond, pending.pop(0)[1])
        alg = list(cond.algebraic_ids(case))
        loads = LoadArrays.of(cond.effective_loads(case), alg)
        g = kcl_residual(Y, trace.theta[r], trace.E[r], alg, loads)
        out[r] = np.abs(g).max()
    return out


def mixed_gains():
    return mg.GainSet(blocks={i: -0.05 * np.eye(2) for i in (0, 1, 2)})


def test_bundled_loadstep_is_solved_by_elimination_alone(case14, Y14, gains14):
    scn = bundled.bundled_scenario(bundled.SCENARIO_LOADSTEP)
    tr = run_scenario(case14, gains14, scn)
    assert kcl_per_row(case14, Y14, tr, scn.events).max() <= 1e-12
    assert not tr.newton_iters.any()
    n_steps = int(round(scn.config.t_end / scn.config.dt))
    assert tr.meta["stats"] == {
        "eliminated_buses": [9, 9],  # every load bus, before and after the step
        "newton_iters": 0,
        "dt_halvings": 0,
        "derivative_evals": 4 * n_steps + tr.n_rows,
        "tangent_updates": 0,
        "box_steps": 0,  # the study stays clear of the voltage box
        "box_clips": 0,
        "start": "equilibrium",
        "start_fallback": None,
    }


def test_failed_equilibrium_start_is_recorded(monkeypatch, case14, gains14):
    def fails(*args, **kwargs):
        raise NewtonError("synthetic equilibrium failure")

    monkeypatch.setattr(sim, "solve_equilibrium", fails)
    tr = run_scenario(case14, gains14, scenario_of(case14, [], t_end=0.05))
    assert tr.meta["stats"]["start"] == "flat"
    assert tr.meta["stats"]["start_fallback"] == "synthetic equilibrium failure"
    assert np.all(tr.theta[0, list(case14.inverter_ids)] == 0.0)
    assert np.all(tr.E[0, list(case14.inverter_ids)] == 1.0)
    given = run_scenario(case14, gains14, scenario_of(case14, [], t_end=0.05),
                         initial=VoltageProfile.flat(case14.n))
    assert given.meta["stats"]["start"] == "initial"
    assert given.meta["stats"]["start_fallback"] is None
    assert np.array_equal(given.theta, tr.theta) and np.array_equal(given.E, tr.E)


def test_equilibrium_line_search_exhaustion_raises(monkeypatch, mixed_case):
    Y = mg.build_admittance(mixed_case)
    calls = {"n": 0}
    evaluate = powerflow.LoadBusKCL.residual

    def growing(kcl, theta, E):
        evaluate(kcl, theta, E)  # keeps the powers the Newton matrix is taken at
        calls["n"] += 1
        return np.full(2 * kcl.m, float(calls["n"]))

    monkeypatch.setattr(powerflow.LoadBusKCL, "residual", growing)
    with pytest.raises(NewtonError, match="equilibrium solve line search"):
        solve_equilibrium(mixed_case, Y, pin_E=1.0)
    assert calls["n"] == 31  # the start plus 30 halvings


def test_mixed_case_keeps_newton_for_nonlinear_buses(mixed_case):
    Y = mg.build_admittance(mixed_case)
    scn = scenario_of(mixed_case, [
        {"t": 0.1, "kind": "der_loss", "bus": 2, "residual": {"P": 0.05, "Q": 0.02}},
        {"t": 0.2, "kind": "load_step", "bus": 3, "dP": 0.05, "dQ": 0.02},
    ], t_end=0.5, dt=0.005)
    tr = run_scenario(mixed_case, mixed_gains(), scn)
    stats = tr.meta["stats"]
    assert stats["eliminated_buses"] == [2, 2, 2]  # buses 3 and 4 throughout
    assert tr.newton_iters.sum() > 0
    assert stats["newton_iters"] >= tr.newton_iters.sum()
    assert kcl_per_row(mixed_case, Y, tr, scn.events).max() <= NEWTON_TOL
    assert np.isnan(tr.f_inv[-1, 2]) and tr.P_inv[-1, 2] == pytest.approx(-0.05, abs=1e-9)


def test_step_returns_full_profile_satisfying_kcl(mixed_case):
    Y = mg.build_admittance(mixed_case)
    x0 = solve_equilibrium(mixed_case, Y)
    lost = {"t": 0.0, "kind": "der_loss", "bus": 2, "residual": {"P": 0.05, "Q": 0.02}}
    for events in ([], [lost]):
        scn = scenario_of(mixed_case, events, t_end=0.005, dt=0.005)
        tr = run_scenario(mixed_case, mixed_gains(), scn, initial=x0)
        assert tr.n_rows == 2 and tr.theta.shape == tr.E.shape == (2, mixed_case.n)
        cond = OperatingCondition.initial(mixed_case)
        for ev in scn.events:
            cond = apply_event(mixed_case, cond, ev)
        alg = list(cond.algebraic_ids(mixed_case))
        g = kcl_residual(Y, tr.theta[-1], tr.E[-1], alg,
                         LoadArrays.of(cond.effective_loads(mixed_case), alg))
        assert np.abs(g).max() <= NEWTON_TOL


def test_reduced_engine_matches_full_network(mixed_case):
    """The derivative on Y_red is the law on full-network injections, at any frame angle."""
    Y = mg.build_admittance(mixed_case)
    x0 = solve_equilibrium(mixed_case, Y)
    lost = FaultEvent(time=0.0, kind="der_loss", bus=2, residual=mg.Load.constant_power(0.05, 0.02))
    cond = apply_event(mixed_case, OperatingCondition.initial(mixed_case), lost)
    shift = 3.3  # puts every angle past pi
    full = []
    for s in (0.0, shift):
        eng = _Engine(mixed_case, mixed_gains(), Y, cond, x0.theta + s, x0.E)
        eng.resolve_algebraic()
        theta, E = eng.full()
        P, Q = injections_raw(Y, theta, E)
        xdot, _ = control_derivative(eng.control, P[eng.act], Q[eng.act], E[eng.act])
        assert np.abs(eng.derivative(eng.E_act, None) - xdot).max() < 1e-12
        full.append(theta)
    assert np.abs(full[1] - full[0] - shift).max() < 1e-9


def test_line_search_failure_halves_dt(monkeypatch, mixed_case):
    Y = mg.build_admittance(mixed_case)
    cond = OperatingCondition.initial(mixed_case)
    x0 = solve_equilibrium(mixed_case, Y, cond)
    eng = _Engine(mixed_case, mixed_gains(), Y, cond, x0.theta, x0.E)
    before = eng.full()
    calls = {"n": 0}
    evaluate = powerflow.LoadBusKCL.residual

    def growing(kcl, theta, E):
        evaluate(kcl, theta, E)  # keeps the powers the Newton matrix is taken at
        calls["n"] += 1
        return np.full(2, float(calls["n"]))  # bus 5 is the one nonlinear bus

    monkeypatch.setattr(powerflow.LoadBusKCL, "residual", growing)
    with pytest.raises(SimulationError, match="line search"):
        eng.advance(0.01)
    assert eng.stats["dt_halvings"] == 4
    after = eng.full()
    assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])


def law_from_scratch(eng):
    """The control law on injections evaluated afresh at the engine's kept state."""
    n = eng.n_act
    P, Q = injections_raw(eng.Y_red, eng.theta, eng.E)
    return control_derivative(eng.control, P[:n], Q[:n], eng.E[:n])[0]


def cpower14_engine(case, gains):
    """An engine just after a load step, a few steps in, so every solve has to move."""
    Y = mg.build_admittance(case)
    x0 = solve_equilibrium(case, Y)
    step = FaultEvent(time=0.0, kind="load_step", bus=9, dP=0.05, dQ=0.02)
    eng = _Engine(case, gains, Y, apply_event(case, OperatingCondition.initial(case), step),
                  x0.theta, x0.E)
    eng.resolve_algebraic()
    assert np.array_equal(eng.derivative(eng.E_act, None), law_from_scratch(eng))
    for _ in range(3):
        eng.advance(0.005)
    return eng


def test_halved_retry_after_stage_3_failure_matches_fresh_half_steps(monkeypatch, cpower14,
                                                                    gains14):
    """A rollback drops the predictor's anchor, so the retry depends only on the saved state."""
    eng = cpower14_engine(cpower14, gains14)
    assert eng.anchor is not None
    fresh = _Engine(cpower14, gains14, eng.Y, eng.cond, *eng.full())
    calls = []
    solve = sim.solve_algebraic

    def third_fails(kcl, theta, E):
        calls.append(len(calls) + 1)
        if len(calls) == 3:
            raise NewtonError("synthetic stage-3 failure", iterations=0)
        return solve(kcl, theta, E)

    monkeypatch.setattr(sim, "solve_algebraic", third_fails)
    eng.advance(0.005)
    monkeypatch.undo()
    assert len(calls) == 3 + 2 * 4 and eng.stats["dt_halvings"] == 1
    fresh.advance(0.0025)
    fresh.advance(0.0025)
    assert np.array_equal(eng.x, fresh.x)  # the same operations on the same state
    assert np.array_equal(eng.derivative(eng.E_act, None), law_from_scratch(eng))


def test_derivative_after_rollback_is_evaluated_afresh(monkeypatch, cpower14, gains14):
    """After a failed step the KCL's powers belong to an abandoned stage, not to x."""
    eng = cpower14_engine(cpower14, gains14)
    saved = eng.x.copy()
    solve = sim.solve_algebraic
    calls = []

    def fails_after_two(kcl, theta, E):
        calls.append(1)
        if len(calls) > 2:
            raise NewtonError("synthetic failure", iterations=0)
        return solve(kcl, theta, E)

    monkeypatch.setattr(sim, "solve_algebraic", fails_after_two)
    with pytest.raises(SimulationError):
        eng.advance(0.005)
    assert np.array_equal(eng.x, saved) and eng.anchor is None
    assert np.array_equal(eng.derivative(eng.E_act, None), law_from_scratch(eng))


def test_constant_power_newton_counts_are_pinned(cpower14, gains14):
    """Newton iteration counts of a short constant-power run, as recorded with the tangent predictor.

    A DER loss leaves a residual load, so the set of nonlinear buses grows
    mid-run.  An inexact Newton matrix or tangent still converges and
    passes every KCL check, but it takes extra iterations (and rebuilds
    the tangent more often), which these exact counts catch.
    """
    scn = scenario_of(cpower14, [
        {"t": 0.1, "kind": "der_loss", "bus": 1, "residual": {"P": 0.03, "Q": 0.015}},
        {"t": 0.2, "kind": "load_step", "bus": 9, "dP": 0.05, "dQ": 0.02},
    ], t_end=0.3, dt=0.005, stride=5)
    tr = run_scenario(cpower14, gains14, scn)
    assert tr.meta["stats"] == {
        "eliminated_buses": [1, 1, 1],
        "newton_iters": 86,
        "dt_halvings": 0,
        "derivative_evals": 253,
        "tangent_updates": 83,
        "box_steps": 0,
        "box_clips": 0,
        "start": "equilibrium",
        "start_fallback": None,
    }
    assert tr.newton_iters.tolist() == [0, 0, 0, 0, 3, 10, 10, 10, 13, 10, 10, 10, 10]


# -- the voltage clamp mid-run --------------------------------------------------------

BOX_LO_0, BOX_HI_1 = 1.0127, 1.0072  # inverter 0's E_min, inverter 1's E_max


def box_pair():
    """Two inverters that a reactive load step drives onto their voltage boxes.

    After the step at t = 0.05 s inverter 0's E falls onto its E_min and
    inverter 1's rises onto its E_max; bus 3's constant-power load keeps
    Newton in every stage, so a failed solve can force a dt halving.
    """
    case = make_case(
        [inverter(0, P=1.0, Q=0.5, lo=BOX_LO_0), inverter(1, P=0.5, Q=0.25, hi=BOX_HI_1),
         z_load(2, G=0.4, B=0.15), pq_load(3, P=0.1, Q=0.05)],
        [line(0, 2, R=0.03, X=0.12), line(1, 3, R=0.04, X=0.15), line(2, 3, R=0.02, X=0.1)],
        [[0, 1]],
    )
    gains = mg.GainSet(blocks={0: -50.0 * np.eye(2), 1: -50.0 * np.eye(2)})
    scn = scenario_of(case, [{"t": 0.05, "kind": "load_step", "bus": 2, "dQ": 0.3}],
                      t_end=0.6, dt=0.002, stride=10)
    return case, gains, scn


def clamp_at_every_stage(monkeypatch):
    """Make every stage feed the voltage clamp, as if no step were clear of the box."""
    derivative = sim._Engine.derivative
    monkeypatch.setattr(sim._Engine, "derivative",
                        lambda eng, E_act, out: derivative(eng, eng.E_act, out))


def csv_and_stats(tmp_path, case, gains, scn):
    """A run's trace, its CSV bytes and its stats."""
    tr = run_scenario(case, gains, scn)
    path = tmp_path / f"trace{len(list(tmp_path.iterdir()))}.csv"
    write_trace_csv(tr, path)
    return tr, path.read_bytes(), tr.meta["stats"]


def test_clamp_firing_mid_run_matches_clamp_at_every_stage(monkeypatch, tmp_path):
    case, gains, scn = box_pair()
    tr, csv, stats = csv_and_stats(tmp_path, case, gains, scn)
    assert (tr.clamp_active > 0).sum() >= 20
    assert tr.E[:, 0].min() <= BOX_LO_0 and tr.E[:, 1].max() >= BOX_HI_1
    assert 0 < stats["box_steps"] < 300  # the steps before the load step skip the clamp
    assert 0 < stats["box_clips"] <= stats["box_steps"]
    assert metrics(tr, case).voltage_violations == 0  # the clip keeps every E in its box
    clamp_at_every_stage(monkeypatch)
    _, ref_csv, ref_stats = csv_and_stats(tmp_path, case, gains, scn)
    assert csv == ref_csv and stats == ref_stats


def test_halved_retry_near_the_box_matches_clamp_at_every_stage(monkeypatch, tmp_path):
    case, gains, scn = box_pair()
    clean = run_scenario(case, gains, scn).meta["stats"]
    solve, calls = sim.solve_algebraic, []

    def flaky(kcl, theta, E):  # fails twice in a row, then once more, all while clamping
        calls.append(1)
        if len(calls) in (400, 401, 801):
            raise NewtonError("synthetic failure", iterations=0)
        return solve(kcl, theta, E)

    monkeypatch.setattr(sim, "solve_algebraic", flaky)
    tr, csv, stats = csv_and_stats(tmp_path, case, gains, scn)
    assert stats["dt_halvings"] == 3 and stats["box_steps"] > clean["box_steps"]
    assert metrics(tr, case).voltage_violations == 0
    calls.clear()
    clamp_at_every_stage(monkeypatch)
    _, ref_csv, ref_stats = csv_and_stats(tmp_path, case, gains, scn)
    assert csv == ref_csv and stats == ref_stats


def test_losing_every_inverter_is_a_simulation_error(mixed_case):
    scn = scenario_of(mixed_case, [{"t": 0.01 * (k + 1), "kind": "der_loss", "bus": i}
                                   for k, i in enumerate(mixed_case.inverter_ids)], t_end=0.1)
    with pytest.raises(SimulationError, match="every inverter is lost"):
        run_scenario(mixed_case, mixed_gains(), scn)


# -- malformed scenarios ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_parse_error(case14, name):
    with pytest.raises(mg.ParseError):
        parse_scenario(MALFORMED_SCENARIOS[name], case14)


@pytest.mark.parametrize("name", sorted(NON_FINITE_SCENARIOS))
def test_non_finite_scenario_value_is_validation_error(case14, name):
    with pytest.raises(mg.ValidationError):
        parse_scenario(NON_FINITE_SCENARIOS[name], case14)
