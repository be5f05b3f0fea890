import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microgridctl as mg
from microgridctl.netmodel import ValidationError, bfs_tree, case_to_json, laplacian
from microgridctl.powerflow import kron_reduce

from conftest import inverter, line, make_case, pq_load, z_load


def test_bundled_case_shape(case14):
    assert case14.n == 14
    assert case14.n_inverters == 5
    assert case14.inverter_ids == (0, 1, 2, 5, 7)
    assert math.isclose(case14.gamma, math.radians(15.0))
    assert math.isclose(case14.omega0, 2 * math.pi * 50.0)


def test_single_bus_case_accepted():
    case = make_case([inverter(0)], [], [])
    assert case.n == 1 and case.n_inverters == 1


def test_disconnected_electrical_graph_rejected():
    with pytest.raises(ValidationError, match="electrical graph connected"):
        make_case([inverter(0), inverter(1)], [], [[0, 1]])


def test_disconnected_comm_graph_rejected():
    with pytest.raises(ValidationError, match="comm graph disconnected"):
        make_case(
            [inverter(0), inverter(1), inverter(2)],
            [line(0, 1), line(1, 2)],
            [[0, 1]],  # inverter 2 unreachable
        )


def test_bus_ids_must_be_dense():
    with pytest.raises(ValidationError, match="dense"):
        make_case([inverter(0), inverter(2)], [line(0, 2)], [[0, 2]])


def test_duplicate_line_rejected():
    with pytest.raises(ValidationError, match="duplicate line"):
        make_case([inverter(0), inverter(1)],
                  [line(0, 1), line(1, 0, X=0.2)], [[0, 1]])


def test_singular_line_impedance_rejected():
    with pytest.raises(ValidationError, match="singular impedance"):
        make_case([inverter(0), inverter(1)], [line(0, 1, R=0.0, X=0.0)], [[0, 1]])


def test_inverter_needs_nonzero_setpoints():
    with pytest.raises(ValidationError, match="nonzero"):
        make_case([inverter(0, P=0.0), inverter(1)], [line(0, 1)], [[0, 1]])


def test_gamma_range_enforced():
    with pytest.raises(ValidationError, match="gamma"):
        make_case([inverter(0), inverter(1)], [line(0, 1)], [[0, 1]], gamma_deg=90.0)


# -- admittance assembly -----------------------------------------------------


def test_two_bus_inductive_admittance(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    expect = np.array([[-1j, 1j], [1j, -1j]])
    assert np.abs(Y.Y - expect).max() < 1e-15
    assert math.isclose(Y.magnitude[0, 0], 1.0)
    assert math.isclose(Y.angle[0, 0], -math.pi / 2)


def test_shunt_halves_at_each_end():
    case = make_case([inverter(0), inverter(1)], [line(0, 1, X=1.0, B_sh=0.1)], [[0, 1]])
    Y = mg.build_admittance(case)
    assert np.isclose(Y.Y[0, 0], -1j + 0.05j)
    assert np.isclose(Y.Y[1, 1], -1j + 0.05j)


def test_impedance_loads_fold_into_diagonal_when_asked():
    """Kron elimination adds an eliminated bus's load to its diagonal as G - jB."""
    case = make_case([inverter(0), z_load(1, G=0.5, B=0.2)], [line(0, 1)], [])
    Y = mg.build_admittance(case)
    shunt = case.buses[1].load.shunt_admittance()
    assert shunt == 0.5 - 0.2j
    Y_red, X = kron_reduce(Y, [0], {1: shunt})
    y11 = Y.Y[1, 1] + shunt
    assert np.isclose(X[0, 0], -Y.Y[1, 0] / y11)
    assert np.isclose(Y_red.Y[0, 0], Y.Y[0, 0] - Y.Y[0, 1] * Y.Y[1, 0] / y11)
    assert np.isclose(Y.Y[1, 1], 1 / 0.1j)  # the matrix itself carries the line only


def test_14bus_admittance_matches_naive_reassembly(case14, Y14):
    n = case14.n
    Y_naive = np.zeros((n, n), dtype=complex)
    for ln in case14.lines:
        y = 1.0 / complex(ln.R, ln.X)
        Y_naive[ln.from_bus, ln.from_bus] += y + 0.5j * ln.B_sh
        Y_naive[ln.to_bus, ln.to_bus] += y + 0.5j * ln.B_sh
        Y_naive[ln.from_bus, ln.to_bus] -= y
        Y_naive[ln.to_bus, ln.from_bus] -= y
    assert np.abs(Y14.Y - Y_naive).max() < 1e-12


def test_admittance_symmetry(Y14):
    assert np.abs(Y14.Y - Y14.Y.T).max() == 0.0


# -- Laplacian ----------------------------------------------------------------


def test_path_graph_laplacian():
    lap = laplacian([(0, 1), (1, 2)], [0, 1, 2])
    assert np.array_equal(lap.L, np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]))
    assert lap.connected


def test_14bus_comm_laplacian_nullspace(case14):
    lap = laplacian(case14.comm_edges, case14.inverter_ids)
    assert lap.L.shape == (5, 5)
    assert np.abs(lap.L @ np.ones(5)).max() == 0.0
    eigs = np.linalg.eigvalsh(lap.L)
    assert eigs[0] > -1e-12 and eigs[1] > 1e-9  # connected


def test_star_center_removal_disconnects():
    edges = [(0, 1), (0, 2), (0, 3)]
    lap = laplacian(edges, [1, 2, 3])  # drop the hub
    assert not lap.connected
    assert np.abs(lap.L).max() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_random_connected_laplacian_properties(n, data):
    # random spanning tree plus extra edges => connected by construction
    edges = set()
    for v in range(1, n):
        u = data.draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    lap = laplacian(sorted(edges), range(n))
    assert lap.connected
    assert np.abs(lap.L @ np.ones(n)).max() == 0.0
    eigs = np.linalg.eigvalsh(lap.L)
    assert eigs[0] >= -1e-12
    assert eigs[1] > 1e-9


# -- parse / serialize --------------------------------------------------------


def test_parse_serialize_parse_identity(case14):
    text = case_to_json(case14)
    again = mg.parse_case(text)
    assert again == case14
    assert case_to_json(again) == text


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_roundtrip_random_cases(data):
    n_inv = data.draw(st.integers(min_value=1, max_value=3))
    n_load = data.draw(st.integers(min_value=0, max_value=3))
    n = n_inv + n_load
    buses = [inverter(i, P=data.draw(st.floats(0.1, 2.0)), Q=0.3) for i in range(n_inv)]
    for i in range(n_inv, n):
        if data.draw(st.booleans()):
            buses.append(pq_load(i, P=data.draw(st.floats(0.0, 1.0)), Q=0.1))
        else:
            buses.append(z_load(i, G=data.draw(st.floats(0.0, 1.0)), B=0.1))
    lines = [line(data.draw(st.integers(0, v - 1)), v,
                  R=data.draw(st.floats(0.0, 0.2)),
                  X=data.draw(st.floats(0.05, 0.5)),
                  I_max=2.0)
             for v in range(1, n)]
    comm = [[i, i + 1] for i in range(n_inv - 1)]
    gamma = data.draw(st.floats(1.0, 85.0))
    case = make_case(buses, lines, comm, gamma_deg=gamma)
    text = case_to_json(case)
    assert mg.parse_case(text) == case


def test_parse_error_reports_field():
    with pytest.raises(mg.ParseError, match="missing top-level key"):
        mg.parse_case("{}")
    with pytest.raises(mg.ParseError):
        mg.parse_case("not json at all")
    doc = json.loads(_case_text())
    doc["comm_edges"] = [[0]]  # an edge with one endpoint
    with pytest.raises(mg.ParseError, match=r"comm edge \[0\] must have two ends"):
        mg.parse_case(json.dumps(doc))


def _case_text(bus_patch=None, line_patch=None, load=None):
    buses = [inverter(0), inverter(1), pq_load(2, P=0.1, Q=0.05)]
    if load is not None:
        buses[2]["load"] = load
    buses[1].update(bus_patch or {})
    lines = [line(0, 2), line(1, 2)]
    lines[0].update(line_patch or {})
    return json.dumps({"buses": buses, "lines": lines, "comm_edges": [[0, 1]],
                       "params": {"gamma_deg": 15.0, "f0_hz": 50.0}})


NON_INTEGRAL_IDS = {
    "bus_id_fraction": lambda doc: doc["buses"][1].update(id=1.5),
    "bus_id_boolean": lambda doc: doc["buses"][1].update(id=True),
    "line_from_fraction": lambda doc: doc["lines"][0].update({"from": 0.5}),
    "line_to_boolean": lambda doc: doc["lines"][0].update(to=False),
    "comm_edge_end_fraction": lambda doc: doc.update(comm_edges=[[0, 1.5]]),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL_IDS))
def test_non_integral_id_is_parse_error(name):
    doc = json.loads(_case_text())
    NON_INTEGRAL_IDS[name](doc)
    with pytest.raises(mg.ParseError, match="must be an integer"):
        mg.parse_case(json.dumps(doc))


def test_integral_float_ids_are_accepted():
    doc = json.loads(_case_text())
    doc["lines"][0]["from"] = 0.0
    doc["comm_edges"] = [[0.0, 1.0]]
    assert mg.parse_case(json.dumps(doc)) == mg.parse_case(_case_text())


def test_constant_power_load_without_p_is_parse_error():
    with pytest.raises(mg.ParseError):
        mg.parse_case(_case_text(load={"kind": "constant_power", "Q": 0.05}))


def test_nan_line_resistance_is_validation_error():
    with pytest.raises(ValidationError, match="finite"):
        mg.parse_case(_case_text(line_patch={"R": math.nan}))


@pytest.mark.parametrize("patch", [{"R": 1e-320, "X": 0.0}, {"R": 0.0, "X": 1e-310}])
def test_subnormal_line_impedance_is_validation_error(patch):
    """1/(R + jX) overflows to inf, and the admittance matrix would carry it."""
    with pytest.raises(ValidationError, match="singular impedance"):
        mg.parse_case(_case_text(line_patch=patch))


def test_admittance_matrix_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            mg.AdmittanceMatrix(Y=np.array([[bad, -1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("I_max", [0.0, -1.0, -math.inf])
def test_non_positive_current_limit_is_validation_error(I_max):
    """Condition (d) would hold vacuously on a line whose limit no current can meet."""
    with pytest.raises(ValidationError, match="I_max positive"):
        mg.parse_case(_case_text(line_patch={"I_max": I_max}))


def test_infinite_bus_voltage_limit_is_validation_error():
    with pytest.raises(ValidationError, match="finite"):
        mg.parse_case(_case_text(bus_patch={"E_max": math.inf}))


def test_comm_edge_with_three_ends_is_parse_error():
    doc = json.loads(_case_text())
    doc["comm_edges"] = [[0, 1, 7]]
    with pytest.raises(mg.ParseError, match=r"comm edge \[0, 1, 7\] must have two ends"):
        mg.parse_case(json.dumps(doc))


@pytest.mark.parametrize("params", [{"base_mva": 1e999}, {"base_kv": -13.8}, {"base_mva": 0.0}])
def test_non_finite_or_non_positive_base_is_validation_error(params):
    doc = json.loads(_case_text())
    doc["params"].update(params)
    with pytest.raises(ValidationError, match="base_mva and base_kv"):
        mg.parse_case(json.dumps(doc))


def test_bfs_tree_visits_sorted_neighbours_first_in_first_out():
    edges = [(0, 3), (2, 0), (0, 1), (3, 4), (1, 4)]
    tree = bfs_tree(range(5), edges, 0)
    assert tree == [(0, 1, 2, +1), (0, 2, 1, -1), (0, 3, 0, +1), (1, 4, 4, +1)]
    assert bfs_tree([0, 1, 2], edges, 0) == [(0, 1, 2, +1), (0, 2, 1, -1)]  # 3, 4 dropped
