import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microgridctl as mg
from microgridctl.netmodel import LoadArrays
from microgridctl.powerflow import (
    NEWTON_TOL,
    LoadBusKCL,
    NewtonError,
    VoltageProfile,
    full_jacobian,
    injections_raw,
    interleave,
    kcl_residual,
    kron_reduce,
    solve_algebraic,
)
from microgridctl import powerflow

from conftest import flat_start, inverter, line, make_case, pq_load, z_load


def fd_jacobians(case, Y, x, h=1e-6):
    """Central finite differences of the normalized injection map."""
    inv = list(case.inverter_ids)
    p_star, q_star = case.p_star(), case.q_star()

    def s_of(theta, E):
        P, Q = injections_raw(Y, theta, E)
        s = np.empty(2 * len(inv))
        s[0::2] = P[inv] / p_star
        s[1::2] = Q[inv] / q_star
        return s

    def columns(ids):
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
        return np.column_stack(cols) if cols else np.zeros((2 * len(inv), 0))

    return columns(case.inverter_ids), columns(case.load_ids)


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), 1.0)


# -- injections ----------------------------------------------------------------


def test_flat_lossless_two_bus_zero_injections(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    P, Q = injections_raw(Y, np.zeros(2), np.ones(2))
    assert np.abs(P).max() < 1e-15
    assert np.abs(Q).max() < 1e-15


def test_two_bus_closed_form_power_transfer(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    delta = 0.17
    P, _ = injections_raw(Y, np.array([delta, 0.0]), np.array([1.03, 0.97]))
    assert math.isclose(P[0], 1.03 * 0.97 * math.sin(delta), rel_tol=1e-12)


# -- Jacobians -------------------------------------------------------------------


def test_jacobian_matches_finite_differences(triangle_case):
    Y = mg.build_admittance(triangle_case)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = VoltageProfile(theta=rng.uniform(-0.2, 0.2, 3), E=rng.uniform(0.95, 1.05, 3))
        J = mg.jacobians(triangle_case, Y, x)
        J_I_fd, J_L_fd = fd_jacobians(triangle_case, Y, x)
        assert rel_err(J.J_I, J_I_fd).max() < 1e-6
        assert rel_err(J.J_L, J_L_fd).max() < 1e-6


@pytest.mark.parametrize("fixture", ["case14", "mixed_case"])
def test_jacobian_matches_real_form(request, fixture):
    case = request.getfixturevalue(fixture)
    Y = mg.build_admittance(case)
    inv = list(case.inverter_ids)
    scale = np.stack((case.p_star(), case.q_star()), axis=1).reshape(-1, 1)
    rng = np.random.default_rng(case.n)
    for _ in range(3):
        x = VoltageProfile(theta=rng.uniform(-0.2, 0.2, case.n), E=rng.uniform(0.93, 1.07, case.n))
        J = mg.jacobians(case, Y, x)
        blocks = full_jacobian(Y, x.theta, x.E, rows=inv)
        for got, ids in ((J.J_I, inv), (J.J_L, list(case.load_ids))):
            want = interleave(blocks, ids) / scale
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_single_bus_jacobian_is_self_term_only():
    case = make_case([inverter(0)], [], [])
    Y = mg.build_admittance(case)
    x = VoltageProfile.flat(1)
    J = mg.jacobians(case, Y, x)
    # no neighbors: the angle column is identically zero
    assert J.J_I[0, 0] == 0.0
    assert J.J_I[1, 0] == 0.0
    assert J.J_L.shape == (2, 0)


def test_two_bus_jacobian_at_flat_profile(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    x = VoltageProfile.flat(2)
    J = mg.jacobians(two_bus_inductive, Y, x)
    J_fd, _ = fd_jacobians(two_bus_inductive, Y, x)
    assert rel_err(J.J_I, J_fd).max() < 1e-6
    # dP_0/dtheta_0 = E0 E1 Y cos(-phi) = cos(pi/2)... with phi=pi/2: equals 1.0
    assert math.isclose(J.J_I[0, 0], 1.0, rel_tol=1e-12)


# -- load solve -------------------------------------------------------------------


def test_zero_load_flat_fixed_point():
    case = make_case(
        [inverter(0), pq_load(1), pq_load(2)],
        [line(0, 1), line(1, 2)],
        [],
    )
    Y = mg.build_admittance(case)
    theta, E = flat_start(case, np.array([0.0, 1.0]))
    loads = LoadArrays.of(case.loads(), case.load_ids)
    assert solve_algebraic(LoadBusKCL(Y, case.load_ids, loads), theta, E) == 0
    assert np.abs(theta).max() < 1e-12
    assert np.abs(E - 1.0).max() < 1e-12


def brute_force_load_point(case, Y, x_I, span=0.35, n_grid=61):
    """Dense grid search plus Gauss-Newton polish on the 2-unknown load state.

    Independent of the production Newton path: numerical differentiation
    only, run on the single load bus of the triangle fixture.
    """
    (load_id,) = case.load_ids
    theta, E = flat_start(case, x_I)
    loads = LoadArrays.of(case.loads(), [load_id])

    def resid(th_l, e_l):
        theta[load_id] = th_l
        E[load_id] = e_l
        return kcl_residual(Y, theta, E, [load_id], loads)

    best = None
    for th_l in np.linspace(-span, span, n_grid):
        for e_l in np.linspace(0.7, 1.3, n_grid):
            r = resid(th_l, e_l)
            n2 = float(r @ r)
            if best is None or n2 < best[0]:
                best = (n2, th_l, e_l)
    _, th_l, e_l = best
    u = np.array([th_l, e_l])
    h = 1e-7
    for _ in range(60):
        r = resid(*u)
        Jn = np.column_stack([
            (resid(u[0] + h, u[1]) - resid(u[0] - h, u[1])) / (2 * h),
            (resid(u[0], u[1] + h) - resid(u[0], u[1] - h)) / (2 * h),
        ])
        step = np.linalg.lstsq(Jn, r, rcond=None)[0]
        u = u - step
        if np.abs(r).max() < 1e-12:
            break
    return u


def test_triangle_load_solve_matches_grid_oracle(triangle_case):
    Y = mg.build_admittance(triangle_case)
    x_I = np.array([0.03, 1.01, -0.01, 0.99])
    theta, E = flat_start(triangle_case, x_I)
    loads = LoadArrays.of(triangle_case.loads(), [2])
    solve_algebraic(LoadBusKCL(Y, [2], loads), theta, E)
    assert np.abs(kcl_residual(Y, theta, E, [2], loads)).max() <= NEWTON_TOL
    oracle = brute_force_load_point(triangle_case, Y, x_I)
    assert abs(theta[2] - oracle[0]) < 1e-6
    assert abs(E[2] - oracle[1]) < 1e-6


def test_14bus_base_load_solve(case14, Y14):
    x_I = np.zeros(2 * case14.n_inverters)
    x_I[1::2] = 1.0
    theta, E = flat_start(case14, x_I)
    load = list(case14.load_ids)
    loads = LoadArrays.of(case14.loads(), load)
    solve_algebraic(LoadBusKCL(Y14, load, loads), theta, E)
    assert np.abs(kcl_residual(Y14, theta, E, load, loads)).max() <= NEWTON_TOL
    assert np.all(E[load] > 0.9) and np.all(E[load] < 1.1)
    # load-bus injections equal the negated demands at the solved voltages
    P, Q = injections_raw(Y14, theta, E)
    for i in load:
        pd, qd = case14.buses[i].load.demand(E[i])
        assert abs(P[i] + pd) < 1e-9
        assert abs(Q[i] + qd) < 1e-9


def test_solve_algebraic_warm_start_never_slower(case14, Y14):
    x_I = np.zeros(2 * case14.n_inverters)
    x_I[1::2] = 1.0
    load = list(case14.load_ids)
    kcl = LoadBusKCL(Y14, load, LoadArrays.of(case14.loads(), load))
    cold_theta, cold_E = flat_start(case14, x_I)
    solve_algebraic(kcl, cold_theta, cold_E)
    # nearby inverter states, warm-started from the previous solution
    inv = list(case14.inverter_ids)
    for shift in (0.002, 0.005, 0.01):
        x_I2 = x_I.copy()
        x_I2[0::2] += shift
        warm_theta, warm_E = cold_theta.copy(), cold_E.copy()
        warm_theta[inv] = x_I2[0::2]
        warm = solve_algebraic(kcl, warm_theta, warm_E)
        flat = solve_algebraic(kcl, *flat_start(case14, x_I2))
        assert warm <= flat


def test_solve_algebraic_nonconvergence_raises():
    case = make_case(
        [inverter(0), pq_load(1, P=60.0, Q=30.0)],  # far beyond deliverable power
        [line(0, 1, R=0.0, X=0.5)],
        [],
    )
    Y = mg.build_admittance(case)
    with pytest.raises(NewtonError) as err:
        solve_algebraic(LoadBusKCL(Y, [1], LoadArrays.of(case.loads(), [1])),
                        *flat_start(case, np.array([0.0, 1.0])))
    assert err.value.residual is not None


def test_line_search_exhaustion_raises(monkeypatch, triangle_case):
    Y = mg.build_admittance(triangle_case)
    calls = {"n": 0}
    evaluate = powerflow.LoadBusKCL.residual

    def growing(kcl, theta, E):
        evaluate(kcl, theta, E)  # keeps the powers the Newton matrix is taken at
        calls["n"] += 1
        return np.full(2, float(calls["n"]))

    monkeypatch.setattr(powerflow.LoadBusKCL, "residual", growing)
    theta, E = np.zeros(3), np.ones(3)
    with pytest.raises(NewtonError, match="line search") as err:
        solve_algebraic(LoadBusKCL(Y, [2], LoadArrays.of(triangle_case.loads(), [2])), theta, E)
    assert calls["n"] == 31  # the start plus 30 halvings
    assert err.value.residual == 1.0
    assert theta[2] == 0.0 and E[2] == 1.0  # back at the last accepted iterate


class Scalar:
    """A one-unknown iterate for ``damped_newton``: residual g(u) = u with a chosen slope."""

    def __init__(self, slope):
        self.u = np.array([1.0])
        self.slope = slope

    def solve(self, max_iter):
        return powerflow.damped_newton(lambda: self.u.copy(), lambda: np.array([[self.slope]]),
                                       lambda: self.u.copy(), self.put, 1e-12, max_iter, "test")

    def put(self, v):
        self.u[:] = v


def test_singular_newton_matrix_raises_with_its_condition_number():
    with pytest.raises(NewtonError, match="singular Newton matrix in test") as err:
        Scalar(0.0).solve(10)
    assert err.value.cond == math.inf
    assert err.value.iterations == 0 and err.value.residual == 1.0


def test_slowly_falling_residual_raises_after_max_iter():
    # a slope 1,000 times too steep: each full step takes 0.1 % off the residual
    it = Scalar(1000.0)
    with pytest.raises(NewtonError, match="did not converge in 5 iterations") as err:
        it.solve(5)
    assert err.value.iterations == 5
    assert err.value.residual == it.u[0] == pytest.approx(0.999 ** 5, rel=1e-12)


def test_tangent_raises_when_the_newton_matrix_cannot_be_solved(monkeypatch, triangle_case):
    Y = mg.build_admittance(triangle_case)
    kcl = LoadBusKCL(Y, [2], LoadArrays.of(triangle_case.loads(), [2]))
    solve_algebraic(kcl, np.zeros(3), np.ones(3))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NewtonError, match="singular Newton matrix at the load-solve tangent"):
        kcl.tangent()


# the algebraic positions of each case: contiguous runs and scattered or reordered ones
KCL_KERNEL_CASES = [("mixed_case", [3, 4, 5]), ("mixed_case", [5, 3]),
                    ("cpower14", None), ("cpower14", [8, 9, 10, 11, 12, 13])]


@pytest.mark.parametrize("fixture, alg", KCL_KERNEL_CASES)
def test_load_bus_newton_matrix_matches_real_form_and_finite_differences(request, fixture, alg):
    case = request.getfixturevalue(fixture)
    alg = list(case.load_ids) if alg is None else alg
    Y = mg.build_admittance(case)
    loads = LoadArrays.of(case.loads(), alg)
    kcl = LoadBusKCL(Y, alg, loads)
    rng = np.random.default_rng(len(alg))
    iterates = [(rng.uniform(-0.2, 0.2, case.n), rng.uniform(0.93, 1.07, case.n)) for _ in range(2)]
    first = None
    for theta, E in iterates + iterates[:1]:
        g = kcl.residual(theta, E)
        assert np.abs(g - kcl_residual(Y, theta, E, alg, loads)).max() < 1e-14
        J = kcl.jacobian().copy()
        blocks = full_jacobian(Y, theta, E, alg)
        real_form = interleave(blocks, alg)
        for k, i in enumerate(alg):  # the loads' d(demand)/dE = 2 G E, 2 B E
            real_form[2 * k, 2 * k + 1] += 2.0 * loads.G[k] * E[i]
            real_form[2 * k + 1, 2 * k + 1] += 2.0 * loads.B[k] * E[i]
        assert np.abs(J - real_form).max() <= 1e-12 * np.abs(real_form).max()
        # the same derivative's source columns, which the loads leave alone
        src_form = interleave(blocks, kcl.src)
        assert np.abs(kcl.J_LS - src_form).max() <= 1e-12 * np.abs(src_form).max()
        if first is None:
            first = J
    # the buffers carry nothing from one iterate to the next
    assert np.array_equal(J, first)

    theta, E = iterates[0]
    h = 1e-6
    columns = []
    for i in alg:
        for comp in (theta, E):
            saved = comp[i]
            comp[i] = saved + h
            plus = kcl.residual(theta, E).copy()
            comp[i] = saved - h
            minus = kcl.residual(theta, E).copy()
            comp[i] = saved
            columns.append((plus - minus) / (2 * h))
    assert rel_err(first, np.column_stack(columns)).max() < 1e-6

    # Every diagonal write goes through a view of a preallocated buffer: a
    # view of a copy (as reshape/ravel make of a Fortran-ordered array) would
    # lose the write.
    for view, buffer in ((kcl.B_diag, kcl.B), (kcl.dS_dtheta_diag, kcl.dS),
                         (kcl.dS_dE_diag, kcl.dS), (kcl.D_view, kcl.D), (kcl.J, kcl.D),
                         (kcl.J_LS, kcl.D)):
        assert np.shares_memory(view, buffer)
    assert kcl.conj_Y_a.flags.c_contiguous and kcl.D.flags.c_contiguous


def test_load_solve_is_quadratic_near_a_solution(cpower14):
    """An inexact Newton matrix still converges, only in more iterations."""
    x_I = np.zeros(2 * cpower14.n_inverters)
    x_I[1::2] = 1.0
    theta, E = flat_start(cpower14, x_I)
    load = list(cpower14.load_ids)
    kcl = LoadBusKCL(mg.build_admittance(cpower14), load, LoadArrays.of(cpower14.loads(), load))
    solve_algebraic(kcl, theta, E)
    rng = np.random.default_rng(4)
    for _ in range(5):
        th, e = theta.copy(), E.copy()
        th[load] += rng.uniform(-1e-2, 1e-2, len(load))
        e[load] += rng.uniform(-1e-2, 1e-2, len(load))
        assert 1 <= solve_algebraic(kcl, th, e) <= 4
        assert np.abs(th - theta).max() < 1e-9 and np.abs(e - E).max() < 1e-9


def test_load_solve_tangent_matches_finite_differences(cpower14):
    """The tangent is the derivative of the solved load state in each source coordinate."""
    rng = np.random.default_rng(14)
    x_I = np.empty(2 * cpower14.n_inverters)
    x_I[0::2] = rng.uniform(-0.05, 0.05, cpower14.n_inverters)
    x_I[1::2] = rng.uniform(0.97, 1.03, cpower14.n_inverters)
    theta, E = flat_start(cpower14, x_I)
    load = list(cpower14.load_ids)
    kcl = LoadBusKCL(mg.build_admittance(cpower14), load, LoadArrays.of(cpower14.loads(), load))
    solve_algebraic(kcl, theta, E)
    H = kcl.tangent()
    assert kcl.src.tolist() == list(cpower14.inverter_ids)

    def solved_loads(comp, k, step):
        th, e = theta.copy(), E.copy()
        (th, e)[comp][k] += step
        solve_algebraic(kcl, th, e)
        return np.concatenate((th[load], e[load]))

    h = 1e-6
    columns = [(solved_loads(comp, k, h) - solved_loads(comp, k, -h)) / (2 * h)
               for comp in (0, 1) for k in kcl.src]
    assert rel_err(H, np.column_stack(columns)).max() < 1e-6


def test_kron_reduce_is_exact_elimination(mixed_case):
    case = mixed_case
    Y = mg.build_admittance(case)
    keep, shunts = [0, 1, 2, 5], {3: case.buses[3].load.shunt_admittance(), 4: 0j}
    Y_red, X = kron_reduce(Y, keep, shunts)
    assert Y_red.n == 4 and X.shape == (2, 4)
    rng = np.random.default_rng(7)
    V = np.empty(6, dtype=complex)
    V[keep] = rng.uniform(0.9, 1.1, 4) * np.exp(1j * rng.uniform(-0.2, 0.2, 4))
    V[[3, 4]] = X @ V[keep]
    current = Y.Y @ V
    # eliminated buses: line current plus shunt current is zero
    assert abs(current[3] + shunts[3] * V[3]) < 1e-14
    assert abs(current[4]) < 1e-14
    assert np.abs(Y_red.Y @ V[keep] - current[keep]).max() < 1e-13
    # KCL of the impedance load holds in power form on the full network
    loads = LoadArrays.of(case.loads(), [3, 4])
    assert np.abs(kcl_residual(Y, np.angle(V), np.abs(V), [3, 4], loads)).max() < 1e-14


def test_kron_reduce_singular_block_raises(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    with pytest.raises(NewtonError, match="singular"):
        kron_reduce(Y, [], {0: 0j, 1: 0j})  # a floating network without shunts


# -- kappa bound ------------------------------------------------------------------


def test_kappa_zero_without_load_buses(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    est = mg.kappa_bound(two_bus_inductive, Y, [VoltageProfile.flat(2)])
    assert est.kappa == 0.0


def test_kappa_matches_explicit_inverse_on_single_load():
    case = make_case(
        [inverter(0), inverter(1, P=0.5, Q=0.25), z_load(2, G=0.4, B=0.1)],
        [line(0, 2, R=0.03, X=0.1), line(1, 2, R=0.05, X=0.15)],
        [[0, 1]],
    )
    Y = mg.build_admittance(case)
    x = VoltageProfile.flat(3)
    est = mg.kappa_bound(case, Y, [x])
    kcl = LoadBusKCL(Y, [2], LoadArrays.of(case.loads(), [2]))
    kcl.residual(x.theta, x.E)
    # the tangent -f_L^-1 f_I, with rows and columns reordered
    expect = np.linalg.norm(kcl.tangent(), 2)
    assert math.isclose(est.kappa, expect, rel_tol=1e-12)
    assert est.rank_deficient == ()


def test_kappa_empty_sample_set_rejected(case14, Y14):
    with pytest.raises(mg.ValidationError):
        mg.kappa_bound(case14, Y14, [])


# -- existence conditions ---------------------------------------------------------


def test_condition_c_voltage_window():
    case = make_case(
        [inverter(0, lo=0.94, hi=1.06), inverter(1, lo=0.94, hi=1.06)],
        [line(0, 1, X=1.0, I_max=1.0)],
        [[0, 1]],
    )
    report = mg.check_existence(case)
    c = {r.name: r for r in report.conditions}
    assert c["c"].passed  # 2 * 0.94 > 1.06


def test_condition_d_current_limit_violation():
    case = make_case(
        [inverter(0), inverter(1)],
        [line(0, 1, X=1.0, I_max=2.0)],  # B_jk = 1, pi/2 * 1 < 2
        [[0, 1]],
    )
    report = mg.check_existence(case)
    c = {r.name: r for r in report.conditions}
    assert c["d"].passed is False
    assert (0, 1) in c["d"].violations


def test_14bus_report_f_not_checked(case14):
    report = mg.check_existence(case14)
    by = {r.name: r for r in report.conditions}
    assert by["a"].passed and by["b"].passed and by["c"].passed and by["d"].passed
    assert by["f"].passed is None
    assert "not" in by["f"].detail


def test_condition_f_with_ranges(case14):
    ranges = {"P": {0: (0.0, 1.0)}, "Q": {}}
    report = mg.check_existence(case14, user_ranges=ranges)
    by = {r.name: r for r in report.conditions}
    assert by["f"].passed  # P*_0 = 0.35 inside [0, 1]
    ranges_bad = {"P": {0: (0.5, 1.0)}, "Q": {}}
    report = mg.check_existence(case14, user_ranges=ranges_bad)
    by = {r.name: r for r in report.conditions}
    assert by["f"].passed is False


@pytest.mark.parametrize("ranges, entry", [
    ({"P": {99: (0.0, 1.0)}}, r"P ranges at buses \[99\]"),
    ({"Q": {0: (-1.0, 1.0)}}, r"Q ranges at buses \[0\]"),  # bus 0 is an inverter
    ({"P": {0: (0.0, math.nan)}}, "finite"),
])
def test_condition_f_refuses_ranges_it_does_not_check(case14, ranges, entry):
    with pytest.raises(mg.ValidationError, match=entry):
        mg.check_existence(case14, user_ranges=ranges)


# -- conservation property ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lossless_network_conserves_active_power(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    buses = [inverter(0)] + [pq_load(i) for i in range(1, n)]
    lines = [line(data.draw(st.integers(0, v - 1)), v,
                  R=0.0, X=data.draw(st.floats(0.05, 1.0)))
             for v in range(1, n)]
    case = make_case(buses, lines, [])
    Y = mg.build_admittance(case)
    theta = np.array([data.draw(st.floats(-0.3, 0.3)) for _ in range(n)])
    E = np.array([data.draw(st.floats(0.9, 1.1)) for _ in range(n)])
    P, _ = injections_raw(Y, theta, E)
    assert abs(P.sum()) < 1e-10


def test_full_jacobian_identities(case14, Y14):
    rng = np.random.default_rng(12)
    theta = rng.uniform(-0.2, 0.2, case14.n)
    E = rng.uniform(0.95, 1.05, case14.n)
    dP_dth, dP_dE, dQ_dth, dQ_dE = full_jacobian(Y14, theta, E, range(case14.n))
    P, Q = injections_raw(Y14, theta, E)
    G = Y14.Y.real
    B = Y14.Y.imag
    k = 4
    assert math.isclose(dP_dth[k, k], -Q[k] - E[k] ** 2 * B[k, k], rel_tol=1e-10)
    assert math.isclose(dQ_dth[k, k], P[k] - E[k] ** 2 * G[k, k], rel_tol=1e-10)
    assert math.isclose(dP_dE[k, k], P[k] / E[k] + E[k] * G[k, k], rel_tol=1e-10)
    assert math.isclose(dQ_dE[k, k], Q[k] / E[k] - E[k] * B[k, k], rel_tol=1e-10)


def test_full_jacobian_rows_are_exact_row_subsets(case14, Y14):
    rng = np.random.default_rng(5)
    theta = rng.uniform(-0.2, 0.2, case14.n)
    E = rng.uniform(0.95, 1.05, case14.n)
    rows = [9, 2, 13]
    for whole, part in zip(full_jacobian(Y14, theta, E, range(case14.n)),
                           full_jacobian(Y14, theta, E, rows)):
        assert part.shape == (3, case14.n)
        assert np.array_equal(part, whole[rows])


def test_full_jacobian_of_a_stack_equals_single_calls(case14, Y14):
    rng = np.random.default_rng(8)
    theta = rng.uniform(-0.2, 0.2, (2, 3, case14.n))
    E = rng.uniform(0.95, 1.05, (2, 3, case14.n))
    cols = list(case14.inverter_ids)
    for rows in (range(case14.n), [9, 2, 13]):
        stacked = full_jacobian(Y14, theta, E, rows)
        J = interleave(stacked, cols)
        for idx in np.ndindex(2, 3):
            single = full_jacobian(Y14, theta[idx], E[idx], rows)
            for whole, part in zip(stacked, single):
                assert np.array_equal(whole[idx], part)
            assert np.array_equal(J[idx], interleave(single, cols))


def test_load_arrays_match_per_load_demand(mixed_case):
    loads = mixed_case.loads()
    ids = list(mixed_case.load_ids)
    arrays = LoadArrays.of(loads, ids)
    E = np.array([0.93, 1.04, 1.07])
    P, Q = arrays.demand(E)
    for k, i in enumerate(ids):
        assert (P[k], Q[k]) == loads[i].demand(E[k])


def test_kcl_jacobian_parts_match_finite_differences(mixed_case):
    Y = mg.build_admittance(mixed_case)
    x = VoltageProfile(theta=np.array([0.02, -0.01, 0.03, 0.0, -0.02, 0.01]),
                       E=np.array([1.02, 0.99, 1.01, 0.97, 0.98, 1.0]))
    loads = LoadArrays.of(mixed_case.loads(), mixed_case.load_ids)
    kcl = LoadBusKCL(Y, mixed_case.load_ids, loads)
    kcl.residual(x.theta, x.E)
    kcl.derivative()
    assert kcl.src.tolist() == list(mixed_case.inverter_ids)
    f_I, f_L = kcl.J_LS, kcl.J
    h = 1e-6

    def column(i, comp):
        shifted = []
        for sign in (1.0, -1.0):
            theta, E = x.theta.copy(), x.E.copy()
            (theta if comp == 0 else E)[i] += sign * h
            shifted.append(kcl_residual(Y, theta, E, list(mixed_case.load_ids), loads))
        return (shifted[0] - shifted[1]) / (2 * h)

    for J, ids in ((f_I, mixed_case.inverter_ids), (f_L, mixed_case.load_ids)):
        fd = np.column_stack([column(i, c) for i in ids for c in (0, 1)])
        assert rel_err(J, fd).max() < 1e-6
