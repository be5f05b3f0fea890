"""Power-flow quantities and the algebraic load-bus solver.

Active/reactive injections, the analytic power-flow Jacobian and the
interleaved matrices built from it, Kron elimination of linear load buses,
the damped Newton solver shared by every algebraic solve, the Newton solve
of the load-bus KCL equations, the coupling-ratio bound between load-bus
and inverter-bus state velocities, and the classical existence-condition
checker.

Two forms of the Jacobian coexist.  The real, polar form is
``full_jacobian``, batched over leading stack axes of states: the
certificate hull (``certify.entry_bounds``, one call over every corner
profile of a block), ``jacobians``, ``kcl_jacobian_parts`` and the
equilibrium solve all take it.  The simulator's load-bus Newton sets up a
``LoadBusKCL`` once per operating condition and differentiates in complex
form over the algebraic columns only.

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
    LoadArrays,
    NetworkCase,
    ValidationError,
    build_admittance,
    connected,
)

NEWTON_TOL = 1e-10  # max-norm KCL residual at which an algebraic (load-bus) solve stops
NEWTON_MAX_ITER = 50  # iterations of an algebraic (load-bus KCL) solve before NewtonError
RANK_RTOL = 1e-9  # singular-value ratio below which kappa_bound flags f_L as rank deficient


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


@dataclass(frozen=True)
class JacobianPair:
    """Jacobians of the normalized inverter injections S_I.

    J_I is d S_I / d x_I (2n_I x 2n_I), J_L is d S_I / d x_L (2n_I x 2n_L).
    """

    J_I: np.ndarray
    J_L: np.ndarray


# ---------------------------------------------------------------------------
# injections and Jacobians
# ---------------------------------------------------------------------------


def injections_raw(Y: AdmittanceMatrix, theta: np.ndarray, E: np.ndarray):
    """Per-bus (P, Q) via the complex form of the power-flow equations."""
    V = E * np.exp(1j * theta)
    S = V * np.conj(Y.Y.dot(V))
    return S.real, S.imag


def full_jacobian(Y: AdmittanceMatrix, theta: np.ndarray, E: np.ndarray, rows=None):
    """dP/dtheta, dP/dE, dQ/dtheta, dQ/dE over the given rows and every column.

    ``rows`` lists bus ids (all buses when omitted); each block has one row
    per listed bus and one column per bus.  ``theta`` and ``E`` may carry
    leading stack axes, which the blocks then carry too.  With
    s_ik, c_ik = sin, cos(theta_i - theta_k - phi_ik) and |Y_ik| zeroed at
    each row's own bus, an entry off that bus is E_i E_k |Y_ik| s_ik,
    E_i |Y_ik| c_ik, -E_i E_k |Y_ik| c_ik or E_i |Y_ik| s_ik; the own-bus
    entries take the row sums S_i = sum_k |Y_ik| E_k s_ik and C_i, added
    over the columns in order one term at a time, as -E_i S_i,
    2 E_i G_ii + C_i, E_i C_i and -2 E_i B_ii + S_i.
    """
    r = np.arange(E.shape[-1]) if rows is None else np.asarray(rows, dtype=int)
    own = (np.arange(len(r)), r)  # each row's own-bus entry
    A = theta[..., r, None] - theta[..., None, :] - Y.angle[r]
    mag = Y.magnitude[r]
    mag[own] = 0.0
    s, c = np.sin(A), np.cos(A)
    E_r, Y_ii = E[..., r], Y.Y[r, r]
    E_i, E_k = E_r[..., None], E[..., None, :]
    # every product associates as written, so a corner hull's bits stay put
    W2, W1 = E_i * E_k * mag, E_i * mag
    S, C = (np.cumsum(mag * E_k * t, axis=-1)[..., -1] for t in (s, c))
    blocks = W2 * s, W1 * c, -W2 * c, W1 * s
    for b, own_entry in zip(blocks, (-E_r * S, 2.0 * E_r * Y_ii.real + C,
                                     E_r * C, -2.0 * E_r * Y_ii.imag + S)):
        b[(..., *own)] = own_entry
    return blocks


def interleave(blocks, cols):
    """Interleaved [P_i; Q_i] x [theta_j; E_j] matrices from full_jacobian blocks.

    Rows are those of the blocks, columns the given bus ids; leading stack
    axes carry through.
    """
    dP_dth, dP_dE, dQ_dth, dQ_dE = (b[..., cols] for b in blocks)
    *lead, n_rows, n_cols = dP_dth.shape
    J = np.empty((*lead, 2 * n_rows, 2 * n_cols))
    J[..., 0::2, 0::2] = dP_dth
    J[..., 0::2, 1::2] = dP_dE
    J[..., 1::2, 0::2] = dQ_dth
    J[..., 1::2, 1::2] = dQ_dE
    return J


def jacobians(case: NetworkCase, Y: AdmittanceMatrix, x: VoltageProfile) -> JacobianPair:
    """Analytic Jacobians of S_I with respect to inverter and load states."""
    blocks = full_jacobian(Y, x.theta, x.E, rows=case.inverter_ids)
    scale = np.stack((case.p_star(), case.q_star()), axis=1).reshape(-1, 1)  # P*, Q* per row
    return JacobianPair(
        J_I=interleave(blocks, list(case.inverter_ids)) / scale,
        J_L=interleave(blocks, list(case.load_ids)) / scale,
    )


# ---------------------------------------------------------------------------
# damped Newton and the algebraic (load-bus) solve
# ---------------------------------------------------------------------------


def damped_newton(residual, jacobian, get, put, tol: float, max_iter: int, what: str) -> int:
    """Newton on residual() = 0 with a halving line search.

    The caller holds the iterate: ``residual()`` and ``jacobian()``
    evaluate at it, ``get()`` returns it as a vector and ``put(v)``
    replaces it, clamping entries where the problem needs it.  Each
    iteration tries the full step first and halves it while the max-norm
    residual does not decrease, at most 30 times.  Returns the iteration
    count.  Raises NewtonError on a singular Newton matrix, on a line
    search that finds no decrease in 30 halvings, or on non-convergence in
    ``max_iter`` iterations; the iterate is then the last accepted one.
    """
    g = residual()
    norm = np.abs(g).max()
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return it - 1
        J = jacobian()
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError:
            raise NewtonError(
                f"singular Newton matrix in {what}",
                residual=norm,
                iterations=it - 1,
                cond=float(np.linalg.cond(J)),
            ) from None
        u = get()
        lam = 1.0
        for _ in range(30):
            put(u - lam * step)
            g_new = residual()
            norm_new = np.abs(g_new).max()
            if norm_new < norm or norm_new <= tol:
                break
            lam *= 0.5
        else:
            put(u)
            raise NewtonError(
                f"{what} line search found no decrease after 30 halvings (residual {norm:.3e})",
                residual=norm,
                iterations=it,
            )
        g, norm = g_new, norm_new
    if norm <= tol:
        return max_iter
    raise NewtonError(
        f"{what} did not converge in {max_iter} iterations (residual {norm:.3e})",
        residual=norm,
        iterations=max_iter,
    )


def kcl_residual(Y: AdmittanceMatrix, theta, E, alg_ids, loads: LoadArrays):
    """Stacked KCL residual [P_i + Pd_i(E_i), Q_i + Qd_i(E_i)] over alg_ids.

    The residual of ``LoadBusKCL`` evaluated from scratch on the whole
    network, for checking a profile once rather than inside a Newton loop.
    """
    P, Q = injections_raw(Y, theta, E)
    pd, qd = loads.demand(E[alg_ids])
    g = np.empty(2 * len(alg_ids))
    g[0::2] = P[alg_ids] + pd
    g[1::2] = Q[alg_ids] + qd
    return g


def kcl_matrix(blocks, alg_ids, E, loads: LoadArrays, lead=()):
    """Jacobian of the KCL residual over alg_ids w.r.t. x over lead + alg_ids.

    ``blocks`` are the full_jacobian blocks over the rows alg_ids; the
    loads' dDemand/dE lands on each algebraic bus's own E column.
    """
    G = interleave(blocks, list(lead) + list(alg_ids) if len(lead) else alg_ids)
    own_E = G[:, 2 * len(lead) + 1 :: 2]  # the E columns of alg_ids
    for rows, d_demand in zip((own_E[0::2], own_E[1::2]), loads.demand_derivative(E[alg_ids])):
        diag = np.einsum("ii->i", rows)  # a writable view of each bus's own entry
        diag += d_demand
    return G


class LoadBusKCL:
    """The KCL equations of a fixed set of algebraic buses, set up once.

    ``alg_ids`` are the buses' positions in Y and in the work arrays that
    ``solve_algebraic`` moves; ``loads`` lists their loads in the same
    order.  Holds the rows ``Y_a`` of Y over those buses, the conjugate of
    their own block ``Y_aa``, the loads' complex demand coefficients, and
    preallocated work buffers ending in the 2m x 2m Newton matrix.
    ``residual`` evaluates V = E e^{j theta}, I_a = Y_a V and
    S_a = V_a conj(I_a) once per iterate and keeps V_a, S_a and E_a;
    ``jacobian`` differentiates at that iterate in complex form, over the
    algebraic columns only, as MATPOWER's ``dSbus_dV`` does (Zimmerman,
    Murillo-Sanchez & Thomas, IEEE Trans. Power Systems 26(1), 2011).
    """

    def __init__(self, Y: AdmittanceMatrix, alg_ids, loads: LoadArrays):
        alg = np.asarray(alg_ids, dtype=int)
        m = self.m = len(alg)
        # a contiguous run of positions is a slice, so theta[sel] is a view
        contiguous = m and np.array_equal(alg, np.arange(alg[0], alg[0] + m))
        self.sel = slice(int(alg[0]), int(alg[0]) + m) if contiguous else alg
        self.Y_a = Y.Y[alg]
        # Y.Y[alg][:, alg] comes out Fortran-ordered; row order keeps B's product fast
        self.conj_Y_aa = np.ascontiguousarray(np.conj(self.Y_a[:, alg]))
        # demand Pd + j Qd = (P + jQ) + (G + jB) E^2, and its E-derivative
        self.demand_const = loads.P + 1j * loads.Q
        self.demand_coef = loads.G + 1j * loads.B
        self.d_demand = 2.0 * self.demand_coef
        # Work buffers with writable views of their diagonals.  Each buffer
        # is allocated C-contiguous, so reshape(-1) is a view; were it a
        # copy (as it is of a Fortran-ordered array), diagonal writes
        # through it would be lost.
        self.B = np.empty((m, m), dtype=complex)
        self.B_diag = self.B.reshape(-1)[:: m + 1]
        # dS[i, k] = [dS_i/dtheta_k, dS_i/dE_k]
        self.dS = np.empty((m, m, 2), dtype=complex)
        self.dS_dtheta, self.dS_dE = self.dS[..., 0], self.dS[..., 1]
        self.dS_dtheta_diag = self.dS.reshape(-1)[0 :: 2 * (m + 1)]
        self.dS_dE_diag = self.dS.reshape(-1)[1 :: 2 * (m + 1)]
        # the Newton matrix, rows P_i, Q_i and columns theta_k, E_k interleaved:
        # J[2i + r, 2k + c] is part r (real, imaginary) of dS[i, k, c]
        self.J = np.empty((2 * m, 2 * m))
        self.J_view = self.J.reshape(m, 2, m, 2)
        self.dS_view = self.dS.view(float).reshape(m, m, 2, 2).transpose(0, 3, 1, 2)

    def residual(self, theta, E):
        """Stacked [P_i + Pd_i(E_i), Q_i + Qd_i(E_i)]; keeps V_a, S_a, E_a."""
        V = E * np.exp(1j * theta)
        self.V_a = V[self.sel]
        self.E_a = E_a = E[self.sel].copy()
        self.S_a = self.V_a * np.conj(self.Y_a.dot(V))
        # complex128 viewed as float64 is the interleaved [real, imaginary] pairs
        return (self.S_a + (self.demand_const + self.demand_coef * E_a * E_a)).view(float)

    def jacobian(self):
        """Newton matrix at the last ``residual``'s iterate, in a buffer the next call reuses.

        With B = diag(V_a) conj(Y_aa diag(V_a)):
        dS/dtheta_a = j (diag(S_a) - B), dS/dE_a = (B + diag(S_a)) diag(E_a)^-1,
        and the loads add 2 G E and 2 B E on the E diagonal.
        """
        V_a, B = self.V_a, self.B
        np.multiply(V_a[:, None], self.conj_Y_aa * np.conj(V_a), out=B)
        np.multiply(B, -1j, out=self.dS_dtheta)
        self.dS_dtheta_diag += 1j * self.S_a
        self.B_diag += self.S_a
        np.divide(B, self.E_a, out=self.dS_dE)
        self.dS_dE_diag += self.d_demand * self.E_a
        self.J_view[...] = self.dS_view
        return self.J


def solve_algebraic(kcl: LoadBusKCL, theta: np.ndarray, E: np.ndarray):
    """Newton solve of ``kcl``'s equations, in place on the work arrays theta/E.

    Only the entries at ``kcl``'s positions move.  Returns the iteration
    count.  Raises NewtonError as ``damped_newton`` does; the work arrays
    then hold the last accepted iterate.  Magnitudes stay at or above 1e-6.
    """
    if not kcl.m:
        return 0
    sel = kcl.sel

    def get():  # the iterate as interleaved [theta_i, E_i, ...]
        u = np.empty(2 * kcl.m)
        u[0::2] = theta[sel]
        u[1::2] = E[sel]
        return u

    def put(u):
        theta[sel] = u[0::2]
        E[sel] = np.maximum(u[1::2], 1e-6)

    return damped_newton(lambda: kcl.residual(theta, E), kcl.jacobian, get, put,
                         NEWTON_TOL, NEWTON_MAX_ITER, "load solve")


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


# ---------------------------------------------------------------------------
# velocity-coupling bound (kappa)
# ---------------------------------------------------------------------------


def kcl_jacobian_parts(case: NetworkCase, Y: AdmittanceMatrix, x: VoltageProfile):
    """Jacobians (f_I, f_L) of the load-bus KCL residual w.r.t. x_I and x_L."""
    load = list(case.load_ids)
    blocks = full_jacobian(Y, x.theta, x.E, rows=load)
    f = kcl_matrix(blocks, load, x.E, LoadArrays.of(case.loads(), load), lead=case.inverter_ids)
    return f[:, : 2 * case.n_inverters], f[:, 2 * case.n_inverters :]


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
        if sv[-1] < RANK_RTOL * sv[0]:
            deficient.append(k)
        gain = np.linalg.pinv(f_L, rcond=RANK_RTOL) @ f_I
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

    def format(self) -> str:
        lines = []
        for c in self.conditions:
            status = "not checked" if c.passed is None else ("PASS" if c.passed else "FAIL")
            lines.append(f"({c.name}) {status:<12} {c.detail}")
        return "\n".join(lines)


def check_existence(
    case: NetworkCase,
    user_ranges: dict | None = None,
) -> ExistenceReport:
    """Evaluate the classical solvability conditions on the case.

    Conditions (a)-(e) come from the network data; (f) is checked only
    against user-supplied ranges ``{"P": {bus: (lo, hi)}, "Q": {...}}``
    and reported as unchecked otherwise.  This is a report, not a gate.
    """
    Y = build_admittance(case)
    B = Y.Y.imag
    conds = []

    ok = connected(range(case.n), [ln.key for ln in case.lines])
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
        load = list(case.load_ids)
        pd, qd = LoadArrays.of(case.loads(), load).demand(np.ones(len(load)))
        p_nom, q_nom = np.zeros(case.n), np.zeros(case.n)  # injections at nominal voltage
        p_nom[list(case.inverter_ids)] = case.p_star()
        p_nom[load] = -pd
        q_nom[load] = -qd
        bad = []
        for kind, nominal, ids in (("P", p_nom, range(case.n)), ("Q", q_nom, load)):
            ranges = user_ranges.get(kind, {})
            bad += [(kind, i) for i in ids
                    if i in ranges and not ranges[i][0] <= nominal[i] <= ranges[i][1]]
        conds.append(
            ConditionResult("f", not bad, "injections inside supplied ranges", tuple(bad))
        )

    return ExistenceReport(conditions=tuple(conds))
