import json

import numpy as np
import pytest

import microgridctl as mg
from microgridctl import data as bundled
from microgridctl.netmodel import LoadArrays
from microgridctl.powerflow import LoadBusKCL, VoltageProfile, solve_algebraic


def make_case(buses, lines, comm_edges, gamma_deg=15.0, f0=50.0):
    """Compact case builder for tests."""
    doc = {
        "buses": buses,
        "lines": lines,
        "comm_edges": comm_edges,
        "params": {"gamma_deg": gamma_deg, "f0_hz": f0, "base_mva": 1.0, "base_kv": 0.4},
    }
    return mg.parse_case(json.dumps(doc))


def inverter(i, P=1.0, Q=0.5, lo=0.9, hi=1.1):
    return {"id": i, "kind": "inverter", "E_min": lo, "E_max": hi, "P_star": P, "Q_star": Q}


def pq_load(i, P=0.0, Q=0.0, lo=0.9, hi=1.1):
    return {"id": i, "kind": "load", "E_min": lo, "E_max": hi,
            "load": {"kind": "constant_power", "P": P, "Q": Q}}


def z_load(i, G=0.0, B=0.0, lo=0.9, hi=1.1):
    return {"id": i, "kind": "load", "E_min": lo, "E_max": hi,
            "load": {"kind": "constant_impedance", "G": G, "B": B}}


def line(f, t, R=0.0, X=0.1, B_sh=0.0, I_max=None):
    rec = {"from": f, "to": t, "R": R, "X": X, "B_sh": B_sh}
    if I_max is not None:
        rec["I_max"] = I_max
    return rec


def constant_power(case):
    """The case with each impedance load replaced by a constant-power load
    drawing the same power at nominal voltage (P = G, Q = B)."""
    doc = json.loads(mg.case_to_json(case))
    for bus in doc["buses"]:
        ld = bus.get("load")
        if ld is not None and ld["kind"] == "constant_impedance":
            bus["load"] = {"kind": "constant_power", "P": ld["G"], "Q": ld["B"]}
    return mg.parse_case(json.dumps(doc))


def flat_start(case, x_I):
    """Full-length (theta, E) work arrays: the inverters at the interleaved
    [theta_i, E_i, ...] pairs of x_I, every load bus flat (0, 1)."""
    theta, E = np.zeros(case.n), np.ones(case.n)
    inv = list(case.inverter_ids)
    theta[inv], E[inv] = x_I[0::2], x_I[1::2]
    return theta, E


def solved_profile(case, x_I):
    """The profile with the inverters at x_I and the load buses solved from flat."""
    theta, E = flat_start(case, x_I)
    solve_algebraic(LoadBusKCL(mg.build_admittance(case), case.load_ids,
                               LoadArrays.of(case.loads(), case.load_ids)), theta, E)
    return VoltageProfile(theta=theta, E=E)


# Scenario texts that must fail with ParseError ...
MALFORMED_SCENARIOS = {
    "load_step_without_bus": '{"events": [{"t": 1.0, "kind": "load_step", "dP": 0.01}]}',
    "edge_not_a_pair": '{"events": [{"t": 1.0, "kind": "comm_loss", "edge": 5}]}',
    "top_level_list": '[{"t": 1.0, "kind": "load_step", "bus": 9}]',
    "dt_not_a_number": '{"sim": {"dt": "x", "t_end": 1.0}}',
    "bus_fraction": '{"events": [{"t": 1.0, "kind": "load_step", "bus": 9.7, "dP": 0.01}]}',
    "bus_boolean": '{"events": [{"t": 1.0, "kind": "der_loss", "bus": true}]}',
    "edge_end_fraction": '{"events": [{"t": 1.0, "kind": "comm_loss", "edge": [0, 1.5]}]}',
    "record_stride_fraction": '{"sim": {"dt": 0.01, "t_end": 1.0, "record_stride": 2.5}}',
    "record_stride_boolean": '{"sim": {"dt": 0.01, "t_end": 1.0, "record_stride": true}}',
}
# ... and with ValidationError.
NON_FINITE_SCENARIOS = {
    "dt_nan": '{"sim": {"dt": NaN, "t_end": 1.0}}',
    "t_end_infinite": '{"sim": {"dt": 0.01, "t_end": Infinity}}',
    "event_t_nan": '{"events": [{"t": NaN, "kind": "load_step", "bus": 9, "dP": 0.01}]}',
    "residual_nan": '{"events": [{"t": 1.0, "kind": "der_loss", "bus": 0, "residual": {"P": NaN}}]}',
}


@pytest.fixture(scope="session")
def case14():
    return bundled.bundled_case()


@pytest.fixture(scope="session")
def cpower14(case14):
    """The 14-bus case with constant-power loads, so its load buses need Newton."""
    return constant_power(case14)


@pytest.fixture(scope="session")
def Y14(case14):
    return mg.build_admittance(case14)


@pytest.fixture(scope="session")
def gains14():
    return bundled.bundled_gains()


@pytest.fixture(scope="session")
def gains14_synth():
    return bundled.bundled_synth_gains()


@pytest.fixture(scope="session")
def cert14():
    return bundled.bundled_certificate()


@pytest.fixture(scope="session")
def hull14(case14):
    from microgridctl import certify

    return certify.build_hull(case14)


@pytest.fixture()
def two_bus_inductive():
    """Two inverters joined by a purely inductive unit line."""
    return make_case(
        [inverter(0), inverter(1, P=0.5, Q=0.25)],
        [line(0, 1, R=0.0, X=1.0)],
        [[0, 1]],
    )


@pytest.fixture()
def triangle_case():
    """Two inverters and one constant-power load on a lossy triangle."""
    return make_case(
        [inverter(0, P=1.0, Q=0.5), inverter(1, P=0.5, Q=0.25),
         pq_load(2, P=0.6, Q=0.25)],
        [line(0, 1, R=0.05, X=0.1), line(0, 2, R=0.04, X=0.12), line(1, 2, R=0.06, X=0.13)],
        [[0, 1]],
        gamma_deg=20.0,
    )


@pytest.fixture()
def path3_inverters():
    """Three inverters on an acyclic path, mixed R/X, hypothesis-clean."""
    return make_case(
        [inverter(0, P=1.0, Q=0.4), inverter(1, P=0.8, Q=0.3), inverter(2, P=0.6, Q=0.2)],
        [line(0, 1, R=0.05, X=0.10), line(1, 2, R=0.08, X=0.12)],
        [[0, 1], [1, 2]],
    )


@pytest.fixture()
def mixed_case():
    """Three inverters on a lossy mesh with every kind of algebraic bus.

    Bus 3 carries an impedance load and bus 4 draws nothing (both linear
    in V, so the simulator eliminates them); bus 5 is a constant-power load.
    """
    return make_case(
        [inverter(0), inverter(1, P=0.5, Q=0.25), inverter(2, P=0.8, Q=0.4),
         z_load(3, G=0.4, B=0.2), pq_load(4), pq_load(5, P=0.3, Q=0.1)],
        [line(0, 3, R=0.05, X=0.1, B_sh=0.02), line(3, 4, R=0.04, X=0.12),
         line(4, 1, R=0.06, X=0.13), line(4, 5, R=0.03, X=0.08),
         line(0, 1, R=0.05, X=0.2), line(2, 5, R=0.04, X=0.1)],
        [[0, 1], [1, 2], [0, 2]],
    )
