"""Closed-loop time-domain simulation.

Semi-explicit index-1 DAE: the inverter states integrate the distributed
control law with the classical fixed-step 4-stage Runge-Kutta scheme
while the algebraic buses satisfy KCL.  Once per operating
condition, every algebraic bus whose load is linear in V (constant
impedance, or zero constant power such as a lost DER's open breaker) is
folded into the admittance as a shunt and Kron-eliminated, so its voltage
is an exact linear function of the kept buses.  Only the remaining
nonlinear buses are re-solved by Newton at every stage, started on the
implicit-function tangent from the last solution, on a
``powerflow.LoadBusKCL`` set up with the condition, whose network
evaluation the control law then reuses; without any, a stage is one
injection evaluation and one call of the control law, integrated on a
flat ``[theta; E]`` work array.  Scenario
events reconfigure the operating condition between steps.  Traces are
deterministic: fixed step, fixed iteration order, no wall-clock anywhere.
Their columns, in memory and in the CSV, follow one table, ``TRACE_COLUMNS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .netmodel import (
    CONSTANT_POWER,
    Load,
    LoadArrays,
    NetworkCase,
    ParseError,
    ValidationError,
    build_admittance,
    decode,
    json_float,
    json_floats,
    json_int,
    known_keys,
    known_kind,
)
from .powerflow import (
    LoadBusKCL,
    NewtonError,
    VoltageProfile,
    damped_newton,
    injections_raw,
    kron_reduce,
    solve_algebraic,
)
from .controller import ControlState, GainSet, clamp_count, control_derivative, frequency_of
from .contingency import (
    COMM_LOSS,
    DER_LOSS,
    LOAD_STEP,
    FaultEvent,
    OperatingCondition,
    apply_event,
)

EQUILIBRIUM_TOL = 1e-10  # max-norm residual of the sharing-equilibrium Newton solve
EQUILIBRIUM_MAX_ITER = 80
SHARING_TOL = 1e-3  # sharing error (P) below which ``metrics`` counts the shares as met
# Most grid steps a run may take, 800 times the 12,000 of a bundled 60 s study.
# Run time and trace memory grow with the step count, and the trace is allocated
# whole before the first step, so a larger t_end / dt is refused up front rather
# than running for days or failing on an allocation of petabytes.
MAX_STEPS = 10**7
VELOCITY_MARGIN, VELOCITY_GATE = 0.01, 1e-9  # velocity_ratio_violations' slack on kappa, speed gate


class SimulationError(RuntimeError):
    """A step failed even after time-step halving."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError("dt must be positive and finite")
        if not (math.isfinite(self.t_end / self.dt) and self.t_end >= self.dt):
            raise ValidationError("t_end must be at least one step and a finite number of steps")
        if self.t_end / self.dt > MAX_STEPS:
            raise ValidationError(f"t_end / dt is {self.t_end / self.dt:.3g} steps, above the"
                                  f" {MAX_STEPS} a run may take")
        if self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")


# A scenario's "sim" keys: the SimConfig fields, each with its JSON conversion.
SIM_KEYS = {"dt": json_float, "t_end": json_float, "record_stride": json_int}
EVENT_KEYS = {  # the keys each event kind may carry
    LOAD_STEP: ("t", "kind", "bus", "dP", "dQ"),
    DER_LOSS: ("t", "kind", "bus", "residual"),
    COMM_LOSS: ("t", "kind", "edge"),
}


@dataclass(frozen=True)
class Scenario:
    events: tuple[FaultEvent, ...]
    config: SimConfig


def parse_scenario(text: str, case: NetworkCase | None = None) -> Scenario:
    """Parse a JSON scenario: ``{"events": [...], "sim": {...}}``.

    Event times are seconds; events are validated against the case when
    one is supplied and come out sorted by time.  Malformed input, a key
    the format does not know included, raises ParseError; out-of-range or
    non-finite values raise ValidationError.
    """
    return decode(text, "scenario", lambda raw: _scenario_from_json(raw, case))


def _scenario_from_json(raw, case: NetworkCase | None) -> Scenario:
    known_keys(raw, ("events", "sim"), "scenario")
    events = []
    for rec in raw.get("events", []):
        kind = known_kind(rec, EVENT_KEYS, "event")
        t = json_float(rec["t"], "event t")
        if kind == LOAD_STEP:
            ev = FaultEvent(time=t, kind=kind, bus=json_int(rec["bus"], "event bus"),
                            **json_floats(rec, [k for k in ("dP", "dQ") if k in rec], "event"))
        elif kind == DER_LOSS:
            residual = None
            if "residual" in rec:
                r = known_keys(rec["residual"], ("P", "Q"), "der_loss residual")
                residual = Load(CONSTANT_POWER, **json_floats(r, r.keys(), "der_loss residual"))
            ev = FaultEvent(time=t, kind=kind, bus=json_int(rec["bus"], "event bus"),
                            residual=residual)
        else:  # COMM_LOSS
            a, b = rec["edge"]
            ev = FaultEvent(time=t, kind=kind,
                            edge=(json_int(a, "event edge end"), json_int(b, "event edge end")))
        if case is not None:
            ev.validate_against(case)
        events.append(ev)
    events.sort(key=lambda e: e.time)
    sim = known_keys(raw.get("sim", {}), SIM_KEYS, "sim")
    config = SimConfig(**{key: SIM_KEYS[key](value, key) for key, value in sim.items()})
    return Scenario(events=tuple(events), config=config)


def load_scenario(path, case: NetworkCase | None = None) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"), case)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


# The trace columns in CSV order: attribute, header stem, the ids suffixed to
# the stem (none: one 1-D column; else one column per bus or inverter) and
# the printf format.  The "%d" columns hold integers.
TRACE_COLUMNS = (
    ("t", "t", None, "%.17g"),
    ("theta", "theta", "bus", "%.17g"),
    ("E", "E", "bus", "%.17g"),
    ("P_inv", "P", "inverter", "%.17g"),
    ("Q_inv", "Q", "inverter", "%.17g"),
    ("f_inv", "f", "inverter", "%.17g"),
    ("clamp_active", "clamp_active", None, "%d"),
    ("angle_violation", "angle_violation", None, "%d"),
    ("newton_iters", "newton_iters", None, "%d"),
    ("sharing_P", "sharing_err_P", None, "%.17g"),
    ("sharing_Q", "sharing_err_Q", None, "%.17g"),
)


def _trace_layout(bus_ids, inverter_ids):
    """(attribute, header names, ids or None, format) per ``TRACE_COLUMNS`` row."""
    id_sets = {"bus": tuple(bus_ids), "inverter": tuple(inverter_ids)}
    for attr, stem, id_set, fmt in TRACE_COLUMNS:
        ids = id_sets.get(id_set)
        yield attr, [stem] if ids is None else [f"{stem}_{i}" for i in ids], ids, fmt


@dataclass
class Trace:
    """Recorded time series on a uniform grid, one field per ``TRACE_COLUMNS`` row.

    theta/E cover every bus; P/Q/f cover the case's inverter buses (dead
    inverters keep their column: injections go to zero, frequency to nan).
    ``meta`` stays out of the CSV, so its run counters (``meta["stats"]``)
    never change the written trace.
    """

    t: np.ndarray
    theta: np.ndarray
    E: np.ndarray
    P_inv: np.ndarray
    Q_inv: np.ndarray
    f_inv: np.ndarray
    clamp_active: np.ndarray
    angle_violation: np.ndarray
    newton_iters: np.ndarray
    sharing_P: np.ndarray
    sharing_Q: np.ndarray
    bus_ids: tuple[int, ...]
    inverter_ids: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, n_rows: int, bus_ids, inverter_ids) -> "Trace":
        """``n_rows`` rows to fill in; the integer columns start at zero."""
        cols = {}
        for attr, _, ids, fmt in _trace_layout(bus_ids, inverter_ids):
            shape = n_rows if ids is None else (n_rows, len(ids))
            cols[attr] = np.zeros(shape, dtype=int) if fmt == "%d" else np.empty(shape)
        return cls(**cols, bus_ids=tuple(bus_ids), inverter_ids=tuple(inverter_ids))

    @property
    def n_rows(self) -> int:
        return len(self.t)


def write_trace_csv(trace: Trace, path):
    """CSV with one header row; floats carry 17 significant digits."""
    header, fmts, fields = [], [], []
    for attr, names, _, fmt in _trace_layout(trace.bus_ids, trace.inverter_ids):
        header += names
        fmts += [fmt] * len(names)
        fields.append(getattr(trace, attr))
    row = ",".join(fmts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, trace.n_rows, 128):  # a block at a time keeps the copy small
            block = np.column_stack([a[lo : lo + 128] for a in fields])
            fh.writelines(row % tuple(r) for r in block.tolist())


def read_trace_csv(path) -> Trace:
    """Read back a ``write_trace_csv`` file; any other layout raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        bus_ids, inverter_ids = (tuple(int(n[len(stem) :]) for n in header
                                       if n.startswith(stem) and n[len(stem) :].isdecimal())
                                 for stem in ("theta_", "P_"))
        layout = list(_trace_layout(bus_ids, inverter_ids))
        if header != [name for _, names, _, _ in layout for name in names]:
            raise ParseError("trace CSV header does not match the trace column layout")
        body = fh.tell()
        if not fh.readline().strip():  # numpy would only warn of an empty body
            raise ParseError("trace CSV has no rows")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"malformed trace CSV ({exc})") from None
    if data.shape[1] != len(header):
        raise ParseError(f"trace CSV rows need {len(header)} values each")
    cols, k = {}, 0
    for attr, names, ids, fmt in layout:
        col = data[:, k] if ids is None else data[:, k : k + len(ids)]
        if fmt == "%d":
            if not (np.isfinite(col) & (col == np.round(col))).all():
                raise ParseError(f"trace CSV column {names[0]} must hold integers")
            col = col.astype(int)
        cols[attr] = col
        k += len(names)
    return Trace(**cols, bus_ids=bus_ids, inverter_ids=inverter_ids)


# ---------------------------------------------------------------------------
# equilibrium initial condition
# ---------------------------------------------------------------------------


def solve_equilibrium(
    case: NetworkCase,
    Y,
    condition: OperatingCondition | None = None,
    pin_E: float | None = None,
) -> VoltageProfile:
    """Newton solve of the proportional-sharing operating point.

    Unknowns are the common sharing levels (alpha, beta), the non-reference
    inverter states, and the algebraic-bus states, with the reference
    inverter pinned at angle 0 and magnitude ``pin_E``.  A ``LoadBusKCL``
    over every bus, with zero demand on the inverters so that their rows
    are their injections, gives the residual and the Newton matrix.  With
    ``pin_E`` omitted, the pin is auto-centered: solve once at nominal,
    then shift the whole profile so its magnitude range sits mid-box (the
    sharing equilibrium family is one-dimensional in the voltage level).
    """
    if condition is None:
        condition = OperatingCondition.initial(case)
    if pin_E is None:
        x_nom = solve_equilibrium(case, Y, condition, pin_E=1.0)
        box_mid = 0.5 * (case.e_min().min() + case.e_max().max())
        prof_mid = 0.5 * (x_nom.E.min() + x_nom.E.max())
        ref = condition.active_inverters[0]
        pin = 1.0 + (box_mid - prof_mid)
        pin = min(max(pin, case.buses[ref].E_min), case.buses[ref].E_max)
        if abs(pin - 1.0) < 1e-9:
            return x_nom
        return solve_equilibrium(case, Y, condition, pin_E=pin)
    active = list(condition.active_inverters)
    alg = list(condition.algebraic_ids(case))
    loads = LoadArrays.of(condition.effective_loads(case), alg)
    var_ids = active[1:] + alg  # theta/E pairs after (alpha, beta); active[0] is pinned
    n_act = len(active)
    kcl = LoadBusKCL(Y, active + alg, LoadArrays(*np.hstack((np.zeros((4, n_act)), loads))))

    theta = np.zeros(case.n)
    E = np.ones(case.n)
    E[active[0]] = pin_E
    p_star = np.array([case.buses[i].P_star for i in active])
    q_star = np.array([case.buses[i].Q_star for i in active])
    nominal_p, nominal_q = loads.demand(np.ones(len(alg)))
    level = np.array([  # the common sharing levels (alpha, beta)
        sum(nominal_p) / p_star.sum() if p_star.sum() != 0 else 0.0,
        sum(nominal_q) / q_star.sum() if q_star.sum() != 0 else 0.0,
    ])

    def residual():
        g = kcl.residual(theta, E)
        g[0 : 2 * n_act : 2] -= level[0] * p_star
        g[1 : 2 * n_act : 2] -= level[1] * q_star
        return g

    def jacobian():
        J = kcl.jacobian()
        J[:, :2] = 0.0  # the pinned reference inverter's columns give way to the levels'
        J[0 : 2 * n_act : 2, 0] = -p_star
        J[1 : 2 * n_act : 2, 1] = -q_star
        return J

    def get():
        return np.concatenate((level, np.stack((theta[var_ids], E[var_ids]), axis=1).ravel()))

    def put(v):
        level[:] = v[:2]
        theta[var_ids] = v[2::2]
        E[var_ids] = np.maximum(v[3::2], 1e-6)

    damped_newton(residual, jacobian, get, put, EQUILIBRIUM_TOL, EQUILIBRIUM_MAX_ITER,
                  "equilibrium solve")
    return VoltageProfile(theta=theta, E=E)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class _Engine:
    """Mutable integration state over the kept buses of the current condition.

    ``set_condition`` Kron-eliminates the linear algebraic buses once per
    event and sets up ``kcl``, the KCL equations of the nonlinear ones
    (None when none is kept).  The work array ``x`` is then ``[theta; E]``
    over the kept buses only (active inverters first, then the nonlinear
    algebraic buses), with views ``theta``/``E``; ``x[ia]`` is the
    inverters' part, all of ``x`` when no nonlinear bus is kept, and
    ``x[il]`` the nonlinear buses' part.  ``full`` recovers the whole
    network.

    With nonlinear buses kept, each Newton solve starts on a predictor.
    The engine keeps an anchor: the last solved pair x_S = x[ia],
    x_L = x[il] and a ``kcl.tangent`` H.  A solve starts from
    x[il] = x_L + H (x[ia] - x_S), magnitudes floored at 1e-6.  H is
    rebuilt only after a solve that iterated (``tangent_updates`` counts
    it), or when there is no anchor; a condition switch and a step's
    rollback drop the anchor, so a retried step depends only on the state
    it starts from.  After a solve, ``kcl`` holds the kept buses'
    injections at x, and ``derivative`` takes the inverters' rows from it
    rather than evaluating the network again.
    """

    def __init__(self, case: NetworkCase, gains: GainSet, Y, cond: OperatingCondition,
                 theta, E):
        self.case = case
        self.gains = gains
        self.Y = Y
        self.stats = {"eliminated_buses": [], "newton_iters": 0, "dt_halvings": 0,
                      "derivative_evals": 0, "tangent_updates": 0}
        self.set_condition(cond, theta, E)

    def set_condition(self, cond: OperatingCondition, theta, E):
        """Switch to ``cond``, taking the state from full-network arrays."""
        if not cond.active_inverters:
            raise SimulationError("every inverter is lost: no source is left to simulate")
        self.cond = cond
        case = self.case
        self.active = list(cond.active_inverters)
        n = self.n_act = len(self.active)
        self.control = ControlState.of(case, self.gains, cond.lap())
        loads = cond.effective_loads(case)
        alg = cond.algebraic_ids(case)
        nonlinear = [i for i in alg if not loads[i].linear]
        shunts = {i: loads[i].shunt_admittance() for i in alg if loads[i].linear}
        self.kept = np.asarray(self.active + nonlinear, dtype=int)
        self.act = self.kept[:n]
        self.elim = np.asarray(sorted(shunts), dtype=int)
        self.Y_red, self.X = kron_reduce(self.Y, self.kept, shunts)
        nk = len(self.kept)
        self.kcl = (LoadBusKCL(self.Y_red, range(n, nk), LoadArrays.of(loads, nonlinear))
                    if nonlinear else None)
        self.x = np.concatenate((np.asarray(theta, dtype=float)[self.kept],
                                 np.asarray(E, dtype=float)[self.kept]))
        self.theta, self.E = self.x[:nk], self.x[nk:]
        self.ia = slice(None) if nk == n else np.r_[0:n, nk : nk + n]
        self.il = np.r_[n:nk, nk + n : 2 * nk]
        self.anchor = None
        self.solved = False  # whether kcl's last evaluation is at x, after a solve
        self.k = np.empty((4, 2 * n))  # the RK4 stage rates
        self.stats["eliminated_buses"].append(len(self.elim))

    def full(self):
        """Full-network (theta, E); eliminated buses from V_elim = X V_kept.

        Their angles are taken relative to the first kept bus, so they stay
        continuous with the kept angles instead of wrapping at +-pi.
        """
        theta = np.empty(self.case.n)
        E = np.empty(self.case.n)
        theta[self.kept] = self.theta
        E[self.kept] = self.E
        if len(self.elim):
            ref = self.theta[0]
            V = self.X @ (self.E * np.exp(1j * (self.theta - ref)))
            theta[self.elim] = ref + np.angle(V)
            E[self.elim] = np.abs(V)
        return theta, E

    def resolve_algebraic(self) -> int:
        """Newton on the nonlinear buses from the predictor; nothing to do when none is kept."""
        if self.kcl is None:
            return 0
        x, il = self.x, self.il
        x_S = x[self.ia]  # the solve moves only x[il]
        self.solved = False
        if self.anchor is not None:
            x_S0, x_L0, H = self.anchor
            x[il] = x_L0 + H @ (x_S - x_S0)
            E_L = self.E[self.n_act :]
            np.maximum(E_L, 1e-6, out=E_L)  # the floor solve_algebraic's iterates keep
        try:
            its = solve_algebraic(self.kcl, self.theta, self.E)
        except NewtonError as exc:
            self.stats["newton_iters"] += exc.iterations or 0
            raise
        self.stats["newton_iters"] += its
        if its or self.anchor is None:
            H = self.kcl.tangent()
            self.stats["tangent_updates"] += 1
        else:
            H = self.anchor[2]
        self.anchor = (x_S, x[il], H)
        self.solved = True
        return its

    def control_law(self, P_act, Q_act, E_act, out=None):
        """``control_derivative`` at the current condition, counted in the stats."""
        self.stats["derivative_evals"] += 1
        return control_derivative(self.control, P_act, Q_act, E_act, out)

    def derivative(self, out=None):
        """Control law on the reduced network's injections at the kept state.

        Right after a solve they are ``kcl``'s, bit for bit what
        ``injections_raw`` gives; otherwise they are evaluated here.
        """
        n = self.n_act
        if self.solved:
            P, Q = self.kcl.S.real, self.kcl.S.imag
        else:
            P, Q = injections_raw(self.Y_red, self.theta, self.E)
        return self.control_law(P[:n], Q[:n], self.E[:n], out)[0]

    def _try_step(self, dt: float) -> int:
        x, ia, k = self.x, self.ia, self.k
        x0 = x[ia].copy()
        its = 0
        for s, c in enumerate((0.5, 0.5, 1.0)):
            x[ia] = x0 + c * dt * self.derivative(k[s])
            its += self.resolve_algebraic()
        self.derivative(k[3])
        x[ia] = x0 + (dt / 6.0) * (k[0] + 2 * k[1] + 2 * k[2] + k[3])
        return its + self.resolve_algebraic()

    def advance(self, dt: float, depth: int = 0) -> int:
        """One step of size dt; on Newton failure halve up to 4 times."""
        saved = self.x.copy()
        try:
            return self._try_step(dt)
        except NewtonError as exc:
            self.x[:] = saved
            self.anchor = None
            if depth >= 4:
                raise SimulationError(
                    f"step failed after 4 halvings (dt={dt:.3e}): {exc}"
                ) from exc
            self.stats["dt_halvings"] += 1
            its = self.advance(0.5 * dt, depth + 1)
            its += self.advance(0.5 * dt, depth + 1)
            return its


def run_scenario(
    case: NetworkCase,
    gains: GainSet,
    scenario: Scenario,
    initial: VoltageProfile | None = None,
) -> Trace:
    """Integrate the closed loop through a scenario and record a trace.

    Starts from the solved pre-event sharing equilibrium (flat-start load
    solve as fallback), applies events at the first grid time at or after
    their timestamp, and records every ``record_stride`` steps.  P/Q and
    frequency columns come from the full network at the recorded state.
    ``meta["stats"]`` holds the run's counters: eliminated buses per
    operating condition, Newton iterations, dt halvings, control-law
    evaluations and rebuilds of the load-solve tangent
    (``tangent_updates``), plus the start used (``"initial"``,
    ``"equilibrium"`` or ``"flat"``) and, for the flat fallback, why the
    equilibrium solve failed.
    """
    cfg = scenario.config
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValidationError("t_end must be an integer number of steps")
    Y = build_admittance(case)
    cond = OperatingCondition.initial(case)
    start, fallback = "initial", None
    if initial is None:
        try:
            initial, start = solve_equilibrium(case, Y, cond), "equilibrium"
        except NewtonError as exc:
            initial, start, fallback = VoltageProfile.flat(case.n), "flat", str(exc)
    eng = _Engine(case, gains, Y, cond, initial.theta, initial.E)
    eng.stats.update(start=start, start_fallback=fallback)
    eng.resolve_algebraic()
    events = list(scenario.events)
    ev_idx = 0

    inv_arr = np.asarray(case.inverter_ids, dtype=int)
    trace = Trace.empty(n_steps // cfg.record_stride + 1, range(case.n), case.inverter_ids)
    lines_f = np.array([ln.from_bus for ln in case.lines], dtype=int)
    lines_t = np.array([ln.to_bus for ln in case.lines], dtype=int)
    uncertified = False
    its_accum = 0
    row = 0
    event_times_applied = []

    def record(t):
        nonlocal row, its_accum
        theta, E = eng.full()
        P, Q = injections_raw(Y, theta, E)
        act = eng.act
        rates, raw = eng.control_law(P[act], Q[act], E[act])
        trace.t[row] = t
        trace.theta[row] = theta
        trace.E[row] = E
        trace.P_inv[row] = P[inv_arr]
        trace.Q_inv[row] = Q[inv_arr]
        trace.f_inv[row] = np.nan
        trace.f_inv[row, np.searchsorted(inv_arr, act)] = frequency_of(rates[: len(act)], case.omega0)
        trace.clamp_active[row] = clamp_count(eng.control, raw, E[act])
        if len(lines_f):
            max_ang = np.abs(theta[lines_f] - theta[lines_t]).max()
            trace.angle_violation[row] = 1 if max_ang > case.gamma + 1e-12 else 0
        trace.newton_iters[row] = its_accum
        ratios_p = P[eng.act] / eng.control.p_star
        ratios_q = Q[eng.act] / eng.control.q_star
        trace.sharing_P[row] = ratios_p.max() - ratios_p.min()
        trace.sharing_Q[row] = ratios_q.max() - ratios_q.min()
        its_accum = 0
        row += 1

    for k_step in range(n_steps + 1):
        t = k_step * cfg.dt
        cond = eng.cond
        while ev_idx < len(events) and events[ev_idx].time <= t + 1e-12:
            cond = apply_event(case, cond, events[ev_idx])
            event_times_applied.append(t)
            ev_idx += 1
        if cond is not eng.cond:
            eng.set_condition(cond, *eng.full())
            its_accum += eng.resolve_algebraic()
            uncertified = uncertified or not cond.certified
        if k_step % cfg.record_stride == 0:
            record(t)
        if k_step < n_steps:
            its_accum += eng.advance(cfg.dt)

    trace.meta = {
        "f0_hz": case.omega0 / (2 * math.pi),
        "gamma": case.gamma,
        "uncertified": uncertified,
        "event_times": tuple(event_times_applied),
        "final_active": tuple(eng.active),
        "stats": eng.stats,
    }
    return trace


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsSummary:
    final_sharing_P: float
    final_sharing_Q: float
    time_to_sharing_tol: float | None
    sharing_tol: float
    freq_min: float
    freq_max: float
    max_freq_dev: float | None
    E_min_seen: float
    E_max_seen: float
    voltage_violations: int | None
    max_branch_angle: float | None
    branch_angle_limit: float | None
    clamp_steps: int
    max_newton_iters: int
    uncertified: bool

    def format(self) -> str:
        out = [
            f"final sharing error      P {self.final_sharing_P:.3e}   Q {self.final_sharing_Q:.3e}",
            f"time to sharing < {self.sharing_tol:g}: "
            + (f"{self.time_to_sharing_tol:.3f} s" if self.time_to_sharing_tol is not None else "never"),
            f"frequency range          [{self.freq_min:.6f}, {self.freq_max:.6f}] Hz",
        ]
        if self.max_freq_dev is not None:
            out.append(f"max |f - f0|             {self.max_freq_dev:.3e} Hz")
        out.append(f"voltage range            [{self.E_min_seen:.5f}, {self.E_max_seen:.5f}] p.u.")
        if self.voltage_violations is not None:
            out.append(f"voltage-bound violations {self.voltage_violations} recorded steps")
        if self.max_branch_angle is not None:
            lim = math.degrees(self.branch_angle_limit) if self.branch_angle_limit else float("nan")
            out.append(
                f"max branch angle         {math.degrees(self.max_branch_angle):.3f} deg"
                f" (limit {lim:.1f} deg)"
            )
        out.append(f"voltage clamps           {self.clamp_steps} recorded steps")
        out.append(f"max Newton iters/record  {self.max_newton_iters}")
        if self.uncertified:
            out.append("WARNING: condition left the certified family (comm graph disconnected)")
        return "\n".join(out)


def metrics(trace: Trace, case: NetworkCase | None = None) -> MetricsSummary:
    """Summary of sharing, frequency, voltage, and angle behavior.

    Bound-based figures (frequency deviation, voltage violations, branch
    angles) need the case; they are None when it is absent and the trace
    metadata does not carry the limits.
    """
    f0 = None
    gamma = None
    if case is not None:
        if (trace.bus_ids, trace.inverter_ids) != (tuple(range(case.n)), tuple(case.inverter_ids)):
            raise ValidationError("the trace's bus and inverter columns do not match the case")
        f0 = case.omega0 / (2 * math.pi)
        gamma = case.gamma
    elif trace.meta:
        f0 = trace.meta.get("f0_hz")
        gamma = trace.meta.get("gamma")

    sh_p = trace.sharing_P
    ok = sh_p <= SHARING_TOL
    t_ok = None
    if ok[-1]:
        idx = len(ok) - 1
        while idx > 0 and ok[idx - 1]:
            idx -= 1
        t_ok = float(trace.t[idx])

    fmin = float(np.nanmin(trace.f_inv))
    fmax = float(np.nanmax(trace.f_inv))
    max_dev = max(abs(fmin - f0), abs(fmax - f0)) if f0 is not None else None

    viol = None
    if case is not None:
        lo, hi = case.e_min(), case.e_max()
        viol = int(np.sum(np.any((trace.E < lo - 1e-12) | (trace.E > hi + 1e-12), axis=1)))

    max_ang = None
    if case is not None and case.lines:
        fb = np.array([ln.from_bus for ln in case.lines], dtype=int)
        tb = np.array([ln.to_bus for ln in case.lines], dtype=int)
        max_ang = float(np.abs(trace.theta[:, fb] - trace.theta[:, tb]).max())

    return MetricsSummary(
        final_sharing_P=float(trace.sharing_P[-1]),
        final_sharing_Q=float(trace.sharing_Q[-1]),
        time_to_sharing_tol=t_ok,
        sharing_tol=SHARING_TOL,
        freq_min=fmin,
        freq_max=fmax,
        max_freq_dev=max_dev,
        E_min_seen=float(trace.E.min()),
        E_max_seen=float(trace.E.max()),
        voltage_violations=viol,
        max_branch_angle=max_ang,
        branch_angle_limit=gamma,
        clamp_steps=int(np.sum(trace.clamp_active > 0)),
        max_newton_iters=int(trace.newton_iters.max()),
        uncertified=bool(trace.meta.get("uncertified", False)),
    )


def velocity_ratio_violations(trace: Trace, case: NetworkCase, kappa: float):
    """Finite-difference check of ||xdot_L|| <= (kappa + VELOCITY_MARGIN) ||xdot_I||.

    Runs over consecutive recorded rows whose inverter speed exceeds
    VELOCITY_GATE, skipping intervals that straddle a
    scenario event (the algebraic states jump there while the inverter
    states do not).  Valid for traces whose inverter/load partition never
    changed.  Returns (row index, ratio) pairs that violate the bound.
    """
    inv = np.asarray(case.inverter_ids, dtype=int)
    load = np.asarray(case.load_ids, dtype=int)
    ev_times = trace.meta.get("event_times", ())
    out = []
    for r in range(1, trace.n_rows):
        t0, t1 = trace.t[r - 1], trace.t[r]
        if any(t0 < te <= t1 or t0 <= te < t1 for te in ev_times):
            continue
        d_inv = np.concatenate(
            [trace.theta[r, inv] - trace.theta[r - 1, inv], trace.E[r, inv] - trace.E[r - 1, inv]]
        )
        d_load = np.concatenate(
            [trace.theta[r, load] - trace.theta[r - 1, load], trace.E[r, load] - trace.E[r - 1, load]]
        )
        dt = t1 - t0
        v_inv = np.linalg.norm(d_inv) / dt
        if v_inv <= VELOCITY_GATE:
            continue
        v_load = np.linalg.norm(d_load) / dt
        if v_load > (kappa + VELOCITY_MARGIN) * v_inv:
            out.append((r, v_load / v_inv))
    return out
