"""Power-flow quantities and the algebraic load-bus solver.

Active/reactive injections, analytic Jacobians of the normalized inverter
injection vector, Kron elimination of zero-injection buses, the Newton
solve of the load-bus KCL equations, the
coupling-ratio bound between load-bus and inverter-bus state velocities,
and the classical existence-condition checker.

Sign conventions: injections are generation-positive, load demand is
consumption-positive, so the KCL residual at a load bus reads
``P_i(x) + P_demand_i(E_i) = 0`` (and the reactive analogue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netmodel import (
    AdmittanceMatrix,
    Load,
    NetworkCase,
    ValidationError,
    _connected,
)


class NewtonError(RuntimeError):
    """Algebraic solve failed (non-convergence or singular iteration matrix)."""

    def __init__(self, message, residual=None, iterations=None, cond=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.cond = cond


# ---------------------------------------------------------------------------
# voltage profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoltageProfile:
    """Full system state (theta, E), indexed by bus id.

    theta is the phase angle in the frame rotating at omega0; E the voltage
    magnitude in per-unit.  Interleaved sub-vectors follow the state order
    of the case (inverters ascending, then loads ascending).
    """

    theta: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if theta.shape != E.shape or theta.ndim != 1:
            raise ValidationError("theta and E must be 1-d arrays of equal length")
        if not np.all(E > 0.0):
            raise ValidationError("voltage magnitudes must be positive")
        theta = theta.copy()
        E = E.copy()
        theta.setflags(write=False)
        E.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "E", E)

    @staticmethod
    def flat(n: int) -> "VoltageProfile":
        return VoltageProfile(theta=np.zeros(n), E=np.ones(n))

    def x_of(self, ids) -> np.ndarray:
        """Interleaved [theta_i, E_i, ...] over the given bus ids."""
        ids = np.asarray(ids, dtype=int)
        out = np.empty(2 * len(ids))
        out[0::2] = self.theta[ids]
        out[1::2] = self.E[ids]
        return out

    def x_inverters(self, case: NetworkCase) -> np.ndarray:
        return self.x_of(case.inverter_ids)

    def x_loads(self, case: NetworkCase) -> np.ndarray:
        return self.x_of(case.load_ids)

    def replace(self, ids, x_part: np.ndarray) -> "VoltageProfile":
        """New profile with the interleaved sub-vector over ids substituted."""
        ids = np.asarray(ids, dtype=int)
        theta = self.theta.copy()
        E = self.E.copy()
        theta[ids] = x_part[0::2]
        E[ids] = x_part[1::2]
        return VoltageProfile(theta=theta, E=E)

    # -- security-set membership --------------------------------------------

    def in_voltage_box(self, case: NetworkCase, tol: float = 0.0) -> bool:
        return bool(
            np.all(self.E >= case.e_min() - tol) and np.all(self.E <= case.e_max() + tol)
        )

    def branch_angles(self, case: NetworkCase) -> np.ndarray:
        """theta_from - theta_to per line, in line-list order."""
        f = np.array([ln.from_bus for ln in case.lines], dtype=int)
        t = np.array([ln.to_bus for ln in case.lines], dtype=int)
        return self.theta[f] - self.theta[t]

    def in_angle_box(self, case: NetworkCase, tol: float = 0.0) -> bool:
        if not case.lines:
            return True
        return bool(np.abs(self.branch_angles(case)).max() <= case.gamma + tol)

    def in_security_set(self, case: NetworkCase, tol: float = 0.0) -> bool:
        return self.in_voltage_box(case, tol) and self.in_angle_box(case, tol)


@dataclass(frozen=True)
class InjectionVector:
    """Per-bus injections plus the stacked normalized inverter pairs."""

    P: np.ndarray
    Q: np.ndarray
    S_I: np.ndarray


@dataclass(frozen=True)
class JacobianPair:
    """Jacobians of the normalized inverter injections S_I.

    J_I is d S_I / d x_I (2n_I x 2n_I), J_L is d S_I / d x_L
    (2n_I x 2n_L), both at the stored evaluation point.
    """

    J_I: np.ndarray
    J_L: np.ndarray
    x: VoltageProfile


# ---------------------------------------------------------------------------
# injections and Jacobians
# ---------------------------------------------------------------------------


def _summand_matrices(Y: AdmittanceMatrix, theta: np.ndarray, E: np.ndarray):
    """HP[k,m] = E_k E_m Y_km cos(theta_k - theta_m - phi_km), HQ the sin analogue."""
    A = theta[:, None] - theta[None, :] - Y.angle
    W = (E[:, None] * E[None, :]) * Y.magnitude
    return W * np.cos(A), W * np.sin(A)


def injections_raw(Y: AdmittanceMatrix, theta: np.ndarray, E: np.ndarray):
    """Per-bus (P, Q) via the complex form of the power-flow equations."""
    V = E * np.exp(1j * theta)
    S = V * np.conj(Y.Y @ V)
    return S.real, S.imag


def injections(case: NetworkCase, Y: AdmittanceMatrix, x: VoltageProfile) -> InjectionVector:
    """Active/reactive injections at every bus plus normalized S_I."""
    P, Q = injections_raw(Y, x.theta, x.E)
    inv = np.asarray(case.inverter_ids, dtype=int)
    S_I = np.empty(2 * len(inv))
    S_I[0::2] = P[inv] / case.p_star()
    S_I[1::2] = Q[inv] / case.q_star()
    return InjectionVector(P=P, Q=Q, S_I=S_I)


def full_jacobian(Y: AdmittanceMatrix, theta: np.ndarray, E: np.ndarray):
    """All four n x n blocks dP/dtheta, dP/dE, dQ/dtheta, dQ/dE."""
    HP, HQ = _summand_matrices(Y, theta, E)
    rsP = HP.sum(axis=1)
    rsQ = HQ.sum(axis=1)
    dP_dth = HQ - np.diag(rsQ)
    dQ_dth = -HP + np.diag(rsP)
    dP_dE = (HP + np.diag(rsP)) / E[None, :]
    dQ_dE = (HQ + np.diag(rsQ)) / E[None, :]
    return dP_dth, dP_dE, dQ_dth, dQ_dE


def _interleave_blocks(dP_dth, dP_dE, dQ_dth, dQ_dE, rows, cols, p_star, q_star):
    """Assemble the interleaved [P_i/P*; Q_i/Q*] x [theta_j; E_j] Jacobian."""
    J = np.empty((2 * len(rows), 2 * len(cols)))
    rr = np.ix_(rows, cols)
    J[0::2, 0::2] = dP_dth[rr] / p_star[:, None]
    J[0::2, 1::2] = dP_dE[rr] / p_star[:, None]
    J[1::2, 0::2] = dQ_dth[rr] / q_star[:, None]
    J[1::2, 1::2] = dQ_dE[rr] / q_star[:, None]
    return J


def jacobians(case: NetworkCase, Y: AdmittanceMatrix, x: VoltageProfile) -> JacobianPair:
    """Analytic Jacobians of S_I with respect to inverter and load states."""
    dP_dth, dP_dE, dQ_dth, dQ_dE = full_jacobian(Y, x.theta, x.E)
    inv = list(case.inverter_ids)
    load = list(case.load_ids)
    p_star, q_star = case.p_star(), case.q_star()
    J_I = _interleave_blocks(dP_dth, dP_dE, dQ_dth, dQ_dE, inv, inv, p_star, q_star)
    if load:
        J_L = _interleave_blocks(dP_dth, dP_dE, dQ_dth, dQ_dE, inv, load, p_star, q_star)
    else:
        J_L = np.zeros((2 * len(inv), 0))
    return JacobianPair(J_I=J_I, J_L=J_L, x=x)


# ---------------------------------------------------------------------------
# algebraic (load-bus) solve
# ---------------------------------------------------------------------------


def kcl_residual(Y: AdmittanceMatrix, theta, E, alg_ids, loads):
    """Stacked KCL residual [P_i + Pd_i(E_i), Q_i + Qd_i(E_i)] over alg_ids."""
    P, Q = injections_raw(Y, theta, E)
    g = np.empty(2 * len(alg_ids))
    for k, i in enumerate(alg_ids):
        pd, qd = loads[i].demand(E[i])
        g[2 * k] = P[i] + pd
        g[2 * k + 1] = Q[i] + qd
    return g


def _kcl_jacobian(Y: AdmittanceMatrix, theta, E, alg_ids, loads):
    dP_dth, dP_dE, dQ_dth, dQ_dE = full_jacobian(Y, theta, E)
    ids = list(alg_ids)
    m = len(ids)
    G = np.empty((2 * m, 2 * m))
    rr = np.ix_(ids, ids)
    G[0::2, 0::2] = dP_dth[rr]
    G[0::2, 1::2] = dP_dE[rr]
    G[1::2, 0::2] = dQ_dth[rr]
    G[1::2, 1::2] = dQ_dE[rr]
    for k, i in enumerate(ids):
        dpd, dqd = loads[i].demand_derivative(E[i])
        G[2 * k, 2 * k + 1] += dpd
        G[2 * k + 1, 2 * k + 1] += dqd
    return G


def solve_algebraic(
    Y: AdmittanceMatrix,
    theta: np.ndarray,
    E: np.ndarray,
    alg_ids,
    loads: dict[int, Load],
    tol: float = 1e-10,
    max_iter: int = 50,
):
    """Newton solve of the KCL equations at the algebraic buses, in place.

    theta/E are full-length work arrays; only the alg_ids entries move.
    Full Newton step with halving line search on residual-norm increase.
    Returns the iteration count.  Raises NewtonError on non-convergence, a
    singular iteration matrix, or a line search that finds no decrease in
    30 halvings (the work arrays then hold the last accepted iterate).
    """
    alg_ids = list(alg_ids)
    if not alg_ids:
        return 0
    g = kcl_residual(Y, theta, E, alg_ids, loads)
    norm = np.abs(g).max()
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return it - 1
        G = _kcl_jacobian(Y, theta, E, alg_ids, loads)
        try:
            step = np.linalg.solve(G, g)
        except np.linalg.LinAlgError:
            raise NewtonError(
                "singular Newton matrix in load solve",
                residual=norm,
                iterations=it - 1,
                cond=float(np.linalg.cond(G)),
            ) from None
        lam = 1.0
        th0 = theta[alg_ids].copy()
        E0 = E[alg_ids].copy()
        for _ in range(30):
            theta[alg_ids] = th0 - lam * step[0::2]
            E[alg_ids] = np.maximum(E0 - lam * step[1::2], 1e-6)
            g_new = kcl_residual(Y, theta, E, alg_ids, loads)
            norm_new = np.abs(g_new).max()
            if norm_new < norm or norm_new <= tol:
                break
            lam *= 0.5
        else:
            theta[alg_ids] = th0
            E[alg_ids] = E0
            raise NewtonError(
                f"load solve line search found no decrease after 30 halvings "
                f"(residual {norm:.3e})",
                residual=norm,
                iterations=it,
            )
        g, norm = g_new, norm_new
    if norm <= tol:
        return max_iter
    raise NewtonError(
        f"load solve did not converge in {max_iter} iterations (residual {norm:.3e})",
        residual=norm,
        iterations=max_iter,
    )


def kron_reduce(Y: AdmittanceMatrix, keep, shunts: dict[int, complex]):
    """Eliminate the buses of ``shunts`` from the network, each with its shunt.

    With its linear load on the diagonal an eliminated bus injects no
    current, so its voltage follows the kept ones exactly:
    ``V_elim = X @ V_keep`` with ``X = -Y_ee^-1 Y_ek`` over the eliminated
    buses in ascending order, and the kept buses see
    ``Y_red = Y_kk + Y_ke X`` (Doerfler & Bullo, IEEE TCAS-I 60(1), 2013).
    Returns (Y_red over ``keep`` in the given order, X).  Raises
    NewtonError when Y_ee is singular.
    """
    keep = list(keep)
    elim = sorted(shunts)
    Y_red = Y.Y[np.ix_(keep, keep)]
    X = np.zeros((len(elim), len(keep)), dtype=complex)
    if elim:
        Y_ee = Y.Y[np.ix_(elim, elim)] + np.diag([shunts[i] for i in elim])
        try:
            inv = np.linalg.inv(Y_ee)
        except np.linalg.LinAlgError:
            inv = np.full_like(Y_ee, np.inf)
        # exact 1-norm condition number from the inverse: np.linalg.cond
        # would run a complex SVD, which maps about 1 MB more LAPACK code
        if not np.linalg.norm(Y_ee, 1) * np.linalg.norm(inv, 1) < 1.0 / np.finfo(float).eps:
            raise NewtonError(
                f"cannot eliminate buses {elim}: their admittance block is singular"
                " (a part of the network with no path to a kept bus and no shunt)"
            )
        X = -inv @ Y.Y[np.ix_(elim, keep)]
        Y_red = Y_red + Y.Y[np.ix_(keep, elim)] @ X
        Y_red = 0.5 * (Y_red + Y_red.T)
    return AdmittanceMatrix(Y=Y_red), X


@dataclass(frozen=True)
class LoadSolve:
    """Result of solve_loads: the load sub-profile and solver diagnostics."""

    x_L: np.ndarray
    profile: VoltageProfile
    iterations: int
    residual: float


def solve_loads(
    case: NetworkCase,
    Y: AdmittanceMatrix,
    x_I: np.ndarray,
    x_L_guess: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> LoadSolve:
    """Solve the load-bus states given the inverter sub-profile.

    Starts flat (theta 0, E 1) unless a warm-start guess is provided.
    """
    n = case.n
    theta = np.zeros(n)
    E = np.ones(n)
    inv = np.asarray(case.inverter_ids, dtype=int)
    theta[inv] = x_I[0::2]
    E[inv] = x_I[1::2]
    load = np.asarray(case.load_ids, dtype=int)
    if x_L_guess is not None:
        if not np.all(np.isfinite(x_L_guess)):
            raise ValidationError("x_L_guess must be finite")
        theta[load] = x_L_guess[0::2]
        E[load] = x_L_guess[1::2]
    its = solve_algebraic(Y, theta, E, list(case.load_ids), case.loads(), tol, max_iter)
    res = kcl_residual(Y, theta, E, list(case.load_ids), case.loads()) if len(load) else np.zeros(0)
    prof = VoltageProfile(theta=theta, E=E)
    return LoadSolve(
        x_L=prof.x_of(load) if len(load) else np.zeros(0),
        profile=prof,
        iterations=its,
        residual=float(np.abs(res).max()) if res.size else 0.0,
    )


# ---------------------------------------------------------------------------
# velocity-coupling bound (kappa)
# ---------------------------------------------------------------------------


def kcl_jacobian_parts(case: NetworkCase, Y: AdmittanceMatrix, x: VoltageProfile,
                       alg_ids=None, loads=None):
    """Jacobians (f_I, f_L) of the load-bus KCL residual w.r.t. x_I and x_L."""
    if alg_ids is None:
        alg_ids = list(case.load_ids)
    if loads is None:
        loads = case.loads()
    diff_ids = [i for i in case.inverter_ids if i not in alg_ids]
    dP_dth, dP_dE, dQ_dth, dQ_dE = full_jacobian(Y, x.theta, x.E)
    m = len(alg_ids)
    ones = np.ones(m)
    f_I = _interleave_blocks(dP_dth, dP_dE, dQ_dth, dQ_dE, alg_ids, diff_ids, ones, ones)
    f_L = _interleave_blocks(dP_dth, dP_dE, dQ_dth, dQ_dE, alg_ids, alg_ids, ones, ones)
    for k, i in enumerate(alg_ids):
        dpd, dqd = loads[i].demand_derivative(x.E[i])
        f_L[2 * k, 2 * k + 1] += dpd
        f_L[2 * k + 1, 2 * k + 1] += dqd
    return f_I, f_L


@dataclass(frozen=True)
class KappaEstimate:
    """Sampled bound on ||xdot_L|| / ||xdot_I|| over the security set."""

    kappa: float
    per_sample: tuple[float, ...]
    rank_deficient: tuple[int, ...]


def kappa_bound(
    case: NetworkCase,
    Y: AdmittanceMatrix,
    sample_set,
    rank_rtol: float = 1e-9,
) -> KappaEstimate:
    """Max over samples of ||pinv(f_L) @ f_I||_2.

    The pseudo-inverse covers rank-deficient f_L; such samples are flagged
    by index.  A network with no load buses yields kappa = 0.
    """
    samples = list(sample_set)
    if not samples:
        raise ValidationError("kappa_bound needs a nonempty sample set")
    if not case.load_ids:
        return KappaEstimate(kappa=0.0, per_sample=tuple(0.0 for _ in samples), rank_deficient=())
    vals = []
    deficient = []
    for k, x in enumerate(samples):
        f_I, f_L = kcl_jacobian_parts(case, Y, x)
        sv = np.linalg.svd(f_L, compute_uv=False)
        if sv[-1] < rank_rtol * sv[0]:
            deficient.append(k)
        gain = np.linalg.pinv(f_L, rcond=rank_rtol) @ f_I
        vals.append(float(np.linalg.norm(gain, 2)))
    return KappaEstimate(kappa=max(vals), per_sample=tuple(vals), rank_deficient=tuple(deficient))


# ---------------------------------------------------------------------------
# existence conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool | None  # None = not checked
    detail: str
    violations: tuple = ()


@dataclass(frozen=True)
class ExistenceReport:
    conditions: tuple[ConditionResult, ...]

    def all_checked_pass(self) -> bool:
        return all(c.passed for c in self.conditions if c.passed is not None)

    def format(self) -> str:
        lines = []
        for c in self.conditions:
            status = "not checked" if c.passed is None else ("PASS" if c.passed else "FAIL")
            lines.append(f"({c.name}) {status:<12} {c.detail}")
        return "\n".join(lines)


def check_existence(
    case: NetworkCase,
    Y: AdmittanceMatrix | None = None,
    user_ranges: dict | None = None,
) -> ExistenceReport:
    """Evaluate the classical solvability conditions on the case.

    Conditions (a)-(e) come from the network data; (f) is checked only
    against user-supplied ranges ``{"P": {bus: (lo, hi)}, "Q": {...}}``
    and reported as unchecked otherwise.  This is a report, not a gate.
    """
    from .netmodel import build_admittance

    if Y is None:
        Y = build_admittance(case)
    B = Y.Y.imag
    conds = []

    ok = _connected(range(case.n), set(ln.key for ln in case.lines))
    conds.append(ConditionResult("a", ok, "electrical graph connected"))

    asym = float(np.abs(Y.Y - Y.Y.T).max())
    conds.append(ConditionResult("b", asym == 0.0, f"admittance symmetric (max dev {asym:.2e})"))

    lo = 2.0 * case.e_min().min()
    hi = case.e_max().max()
    conds.append(
        ConditionResult("c", lo > hi, f"2 min E_min = {lo:.4f} vs max E_max = {hi:.4f}")
    )

    bad_lines = []
    for ln in case.lines:
        b_jk = B[ln.from_bus, ln.to_bus]
        if not (ln.I_max <= 0.5 * math.pi * b_jk):
            bad_lines.append(ln.key)
    conds.append(
        ConditionResult(
            "d",
            not bad_lines,
            "I_max <= (pi/2) B_jk on every line",
            tuple(bad_lines),
        )
    )

    bad_buses = []
    strict = False
    for j in case.load_ids:
        lhs = case.buses[j].E_min * (-B[j, j] + sum(B[j, k] for k in case.inverter_ids))
        rhs = sum(B[j, k] * case.buses[k].E_max for k in range(case.n) if k != j)
        if lhs < rhs:
            bad_buses.append(j)
        elif lhs > rhs:
            strict = True
    if case.load_ids:
        ok_e = not bad_buses and strict
        detail = "load-bus susceptance inequality (with one strict)"
        if bad_buses:
            detail += f"; violated at buses {bad_buses}"
        elif not strict:
            detail += "; no bus strictly satisfies it"
    else:
        ok_e = True
        detail = "no load buses, vacuous"
    conds.append(ConditionResult("e", ok_e, detail, tuple(bad_buses)))

    if user_ranges is None:
        conds.append(ConditionResult("f", None, "injection ranges not supplied"))
    else:
        p_ranges = user_ranges.get("P", {})
        q_ranges = user_ranges.get("Q", {})
        bad = []
        for i in range(case.n):
            b = case.buses[i]
            p_i = b.P_star if b.kind == "inverter" else -b.load.demand(1.0)[0]
            if i in p_ranges:
                lo_i, hi_i = p_ranges[i]
                if not (lo_i <= p_i <= hi_i):
                    bad.append(("P", i))
        for i in case.load_ids:
            q_i = -case.buses[i].load.demand(1.0)[1]
            if i in q_ranges:
                lo_i, hi_i = q_ranges[i]
                if not (lo_i <= q_i <= hi_i):
                    bad.append(("Q", i))
        conds.append(
            ConditionResult("f", not bad, "injections inside supplied ranges", tuple(bad))
        )

    return ExistenceReport(conditions=tuple(conds))
