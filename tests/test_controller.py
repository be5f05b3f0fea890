import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microgridctl as mg
from microgridctl.controller import (
    ControlState,
    GainSet,
    clamp_count,
    consensus_patterns,
    control_derivative,
    frequency_of,
    gains_to_json,
    parse_gains,
)
from microgridctl.netmodel import ParseError, ValidationError, laplacian
from microgridctl.powerflow import injections_raw

from conftest import inverter, line, make_case


def _state(edges, n_inv, gains, lo=0.9, hi=1.1):
    """The law's state on a path of n_inv inverters with P* = Q* = 1."""
    case = make_case([inverter(i, P=1.0, Q=1.0, lo=lo, hi=hi) for i in range(n_inv)],
                     [line(i, i + 1) for i in range(n_inv - 1)], [list(e) for e in edges])
    return ControlState.of(case, gains, laplacian(edges, range(n_inv)))


def _law(state, S, E=None):
    """The law on stacked normalized pairs S (P* = Q* = 1 makes them the injections).

    Returns the rates as (m, 2) per-inverter (theta_dot, E_dot) rows and the clamp count.
    """
    m = len(S) // 2
    E = np.ones(m) if E is None else E
    rates, raw = control_derivative(state, S[0::2], S[1::2], E)
    return rates.reshape(2, m).T, clamp_count(state, raw, E)


def test_consensus_input_gives_exact_zero():
    gains = GainSet(blocks={0: -0.01 * np.eye(2), 1: -0.02 * np.eye(2), 2: -0.01 * np.eye(2)})
    state = _state([(0, 1), (1, 2)], 3, gains)
    S = np.tile([0.8, 0.4], 3)  # identical per-inverter pairs
    xdot, n_clamped = _law(state, S)
    assert np.all(xdot == 0.0) and n_clamped == 0


def test_two_inverter_hand_arithmetic():
    gains = GainSet(blocks={0: -0.01 * np.eye(2), 1: -0.01 * np.eye(2)})
    state = _state([(0, 1)], 2, gains)
    S = np.array([1.0, 1.0, 0.5, 1.0])
    xdot, _ = _law(state, S)
    # L row for inverter 0 mixes S_0 - S_1 = [0.5, 0]
    assert np.allclose(xdot[0], [-0.005, 0.0])
    assert np.allclose(xdot[1], [+0.005, 0.0])


def test_control_state_follows_laplacian_order(case14, gains14):
    lap = laplacian(case14.comm_edges, [7, 0, 5])
    state = ControlState.of(case14, gains14, lap)
    assert lap.order == (0, 5, 7)
    for k, i in enumerate(lap.order):  # each inverter's (theta_dot, E_dot) rows carry its block
        assert np.array_equal(state.gain[np.ix_([k, 3 + k], [k, 3 + k])], gains14.blocks[i])
    assert np.array_equal(state.p_star, [case14.buses[i].P_star for i in (0, 5, 7)])
    assert np.array_equal(state.e_hi, [case14.buses[i].E_max for i in (0, 5, 7)])
    assert np.array_equal(state.e_lo, [case14.buses[i].E_min for i in (0, 5, 7)])
    with pytest.raises(ValidationError, match="no gain block"):
        ControlState.of(case14, GainSet(blocks={0: -np.eye(2)}), lap)


def _reference_law(case, gains, lap, P, Q, E):
    """The paper's law written out: normalize, L (x) I2, the 2x2 gains, rate clip, voltage clamp.

    Returns interleaved [theta_dot_k, E_dot_k] rates and the number of clamped inverters.
    """
    buses = [case.buses[i] for i in lap.order]
    s = np.empty(2 * len(buses))
    s[0::2] = P / [b.P_star for b in buses]
    s[1::2] = Q / [b.Q_star for b in buses]
    xdot = gains.stacked(lap.order) @ (lap.kron2() @ s)
    xdot[0::2] = np.clip(xdot[0::2], -gains.theta_dot_max, gains.theta_dot_max)
    xdot[1::2] = np.clip(xdot[1::2], -gains.E_dot_max, gains.E_dot_max)
    n_clamped = 0
    for k, b in enumerate(buses):
        if (E[k] >= b.E_max and xdot[2 * k + 1] > 0.0) or (E[k] <= b.E_min and xdot[2 * k + 1] < 0.0):
            xdot[2 * k + 1] = 0.0
            n_clamped += 1
    return xdot, n_clamped


def test_control_derivative_matches_reference_law(case14, gains14):
    """240 seeded states over four conditions, one of them a lone inverter.

    Voltages sit exactly on, just past or inside their bounds and injections reach
    20x nominal, so the rates cross both limits and the clamp binds both ways.
    """
    ring = case14.comm_edges
    laps = [laplacian(ring, case14.inverter_ids), laplacian(ring[1:], case14.inverter_ids),
            laplacian(ring, (1, 2, 5, 7)), laplacian(ring, (5,))]
    rng = np.random.default_rng(2015)
    seen = set()
    for trial in range(240):
        lap = laps[trial % len(laps)]
        state = ControlState.of(case14, gains14, lap)
        m = len(lap.order)
        lo, hi = state.e_lo, state.e_hi
        P = rng.uniform(-20.0, 20.0, m) * state.p_star
        Q = rng.uniform(-20.0, 20.0, m) * state.q_star
        E = np.choose(rng.integers(5, size=m), [lo, hi, lo - 1e-3, hi + 1e-3, 0.5 * (lo + hi)])
        rates, raw = control_derivative(state, P, Q, E)
        n_clamped = clamp_count(state, raw, E)
        ref, n_ref = _reference_law(case14, gains14, lap, P, Q, E)
        assert np.abs(rates - np.r_[ref[0::2], ref[1::2]]).max() <= 1e-14
        assert n_clamped == n_ref
        seen |= {(name, bound) for name, r, bound in (("theta", rates[:m], gains14.theta_dot_max),
                                                      ("E", rates[m:], gains14.E_dot_max))
                 for bound in (bound, -bound) if np.any(r == bound)}
        unclamped = _reference_law(case14, gains14, lap, P, Q, 0.5 * (lo + hi))[0][1::2]
        seen |= {("clamp", side) for side, binds in (("hi", (E >= hi) & (unclamped > 0.0)),
                                                     ("lo", (E <= lo) & (unclamped < 0.0)))
                 if np.any(binds)}
    assert len(seen) == 6  # both limits of both rates, and the clamp at both bounds


def test_saturation_caps_both_components():
    gains = GainSet(blocks={0: np.diag([-50.0, -50.0]), 1: np.diag([-50.0, -50.0])})
    state = _state([(0, 1)], 2, gains)
    S = np.array([5.0, 5.0, -5.0, -5.0])
    xdot, _ = _law(state, S)
    assert np.abs(xdot[:, 0]).max() <= gains.theta_dot_max + 1e-15
    assert np.abs(xdot[:, 1]).max() <= gains.E_dot_max + 1e-15
    assert abs(xdot[0, 0]) == gains.theta_dot_max  # actually saturated


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_saturation_idempotent(vals):
    """The law's rates are the clipped linear rates, a fixed point of clipping."""
    gains = GainSet(blocks={0: -50.0 * np.eye(2), 1: -50.0 * np.eye(2)},
                    theta_dot_max=0.5, E_dot_max=0.05)
    state = _state([(0, 1)], 2, gains, lo=0.5, hi=1.5)
    S = np.array(vals)
    xdot, _ = _law(state, S)
    limits = np.array([0.5, 0.05])
    assert np.array_equal(np.clip(xdot, -limits, limits), xdot)
    linear = -50.0 * (state.lap.L @ S.reshape(2, 2))
    assert np.array_equal(xdot, np.clip(linear, -limits, limits))


def test_translation_invariance_of_injections(triangle_case):
    Y = mg.build_admittance(triangle_case)
    theta, E = np.array([0.05, -0.02, 0.01]), np.array([1.02, 0.98, 1.0])
    shift = 0.7
    s1 = np.concatenate(injections_raw(Y, theta, E))
    s2 = np.concatenate(injections_raw(Y, theta + shift, E))
    assert np.abs(s1 - s2).max() < 1e-12


def test_project_security_clamps_outward_only():
    """The law's last step zeroes E_dot only where it points out of the voltage box."""
    gains = GainSet(blocks={0: -0.01 * np.eye(2), 1: -0.01 * np.eye(2)})
    state = _state([(0, 1)], 2, gains)
    at_bounds = np.array([1.1, 0.9])
    # Q_0 < Q_1 drives E_0 up (out past 1.1) and E_1 down (out past 0.9)
    xdot, n_clamped = _law(state, np.array([1.0, 0.0, 0.0, 1.0]), at_bounds)
    assert xdot[0, 1] == 0.0 and xdot[1, 1] == 0.0
    assert n_clamped == 2
    assert np.allclose(xdot[:, 0], [-0.01, 0.01])  # angle rates are not projected
    # inward-pointing derivatives survive
    inward, n_clamped = _law(state, np.array([1.0, 1.0, 0.0, 0.0]), at_bounds)
    interior, _ = _law(state, np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(inward, interior)
    assert np.allclose(inward[:, 1], [-0.01, 0.01])
    assert n_clamped == 0


def test_project_security_identity_in_interior():
    gains = GainSet(blocks={0: -0.01 * np.eye(2), 1: -0.01 * np.eye(2)})
    state = _state([(0, 1)], 2, gains)
    S = np.array([1.0, 0.0, 0.0, 1.0])
    xdot, n_clamped = _law(state, S, np.array([1.0, 1.0]))
    assert np.array_equal(xdot, -0.01 * (state.lap.L @ S.reshape(2, 2)))
    assert n_clamped == 0


def test_frequency_of_rotating_frame():
    w0 = 2 * math.pi * 50.0
    assert math.isclose(frequency_of(0.0, w0), 50.0)
    assert math.isclose(frequency_of(+0.3 * 2 * math.pi, w0), 50.3)
    assert math.isclose(frequency_of(-0.3 * 2 * math.pi, w0), 49.7)


# -- gain-set validation ------------------------------------------------------


def test_singular_block_rejected_for_multiple_inverters():
    with pytest.raises(ValidationError, match="null space"):
        GainSet(blocks={0: np.zeros((2, 2)), 1: -np.eye(2)})


def test_zero_gain_is_valid_for_single_inverter():
    gains = GainSet(blocks={0: np.zeros((2, 2))})
    assert np.all(gains.blocks[0] == 0.0)


def test_rate_limits_must_be_positive():
    with pytest.raises(ValidationError):
        GainSet(blocks={0: -np.eye(2)}, theta_dot_max=0.0)


def test_stacked_requires_known_blocks():
    gains = GainSet(blocks={0: -np.eye(2), 1: -np.eye(2)})
    with pytest.raises(ValidationError):
        gains.stacked([0, 3])


# -- gains file ----------------------------------------------------------------


def test_table_gain_file_conversion(gains14):
    # mrad/s and mV/s on a 1 V base scale by 1e-3 into rad/s and p.u./s
    assert math.isclose(gains14.blocks[0][0, 0], -5.6e-3)
    assert math.isclose(gains14.blocks[5][0, 1], 85.0e-3)
    assert math.isclose(gains14.blocks[7][1, 1], -40.0e-3)
    assert math.isclose(gains14.theta_dot_max, 0.3 * 2 * math.pi)
    assert math.isclose(gains14.E_dot_max, 0.05)


def test_gains_roundtrip(gains14):
    again = parse_gains(gains_to_json(gains14))
    assert sorted(again.blocks) == sorted(gains14.blocks)
    for i in gains14.blocks:
        assert np.allclose(again.blocks[i], gains14.blocks[i], rtol=1e-15, atol=0)


def test_equilibrium_equivalence_with_nonsingular_gains():
    """xdot = 0 exactly when S_I lies in the sharing space, and conversely."""
    rng = np.random.default_rng(5)
    n_inv = 4
    blocks = {}
    for i in range(n_inv):
        while True:
            K = rng.normal(scale=0.02, size=(2, 2))
            if abs(np.linalg.det(K)) > 1e-6:
                blocks[i] = K
                break
    gains = GainSet(blocks=blocks)
    state = _state([(0, 1), (1, 2), (2, 3), (3, 0)], n_inv, gains)
    v_p, v_q = consensus_patterns(n_inv)
    S_shared = 0.7 * v_p + 0.2 * v_q
    assert np.abs(_law(state, S_shared)[0]).max() < 1e-14
    S_off = S_shared.copy()
    S_off[0] += 0.05
    assert np.abs(_law(state, S_off)[0]).max() > 1e-6


# -- malformed gains files --------------------------------------------------------


def _gains_text(limits=None, gain="-10.0"):
    limits = limits or '"freq_dev_max_hz": 0.3, "E_dot_max_pu_per_s": 0.05'
    return ('{"rate_limits": {%s}, "gains_mrad_mV": {"0": [[%s, 0.0], [0.0, -10.0]], '
            '"1": [[-10.0, 0.0], [0.0, -10.0]]}}' % (limits, gain))


def test_non_numeric_rate_limit_is_parse_error():
    with pytest.raises(ParseError):
        parse_gains(_gains_text(limits='"freq_dev_max_hz": "x"'))


def test_nan_gain_is_validation_error():
    with pytest.raises(ValidationError, match="finite"):
        parse_gains(_gains_text(gain="NaN"))


def test_nan_rate_limit_is_validation_error():
    with pytest.raises(ValidationError, match="finite"):
        parse_gains(_gains_text(limits='"E_dot_max_pu_per_s": NaN'))
