"""Microgrid network data model.

Buses, distribution lines, the bus admittance matrix, the inverter
communication graph, and security limits, plus case-file parsing and
validation.  Everything here is immutable after construction and safe to
share across workers.

Conventions (per-unit throughout):
  * bus ids are dense integers 0..n-1,
  * the state ordering is inverter buses first (ascending id), then load
    buses (ascending id),
  * a constant-impedance load with admittance G - jB consumes P = G*E^2
    and Q = B*E^2 at voltage magnitude E (B > 0 means inductive),
  * angles are radians internally; case files carry degrees and Hz.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

INVERTER = "inverter"
LOAD = "load"

CONSTANT_POWER = "constant_power"
CONSTANT_IMPEDANCE = "constant_impedance"


class CaseError(ValueError):
    """Base class for case-file problems."""


class ParseError(CaseError):
    """The case text could not be decoded (bad JSON, missing field...)."""


class ValidationError(CaseError):
    """A decoded case violates a data-model invariant."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Load:
    """Load model at a bus: constant power or constant impedance.

    ``P``/``Q`` are consumed power (positive = consumption) for the
    constant-power kind; ``G``/``B`` are the admittance parameters for the
    constant-impedance kind.  Exactly one parameter pair is populated.
    """

    kind: str
    P: float = 0.0
    Q: float = 0.0
    G: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONSTANT_POWER, CONSTANT_IMPEDANCE):
            raise ValidationError(f"unknown load kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.P, self.Q, self.G, self.B)):
            raise ValidationError("load parameters must be finite")
        if self.kind == CONSTANT_POWER and (self.G != 0.0 or self.B != 0.0):
            raise ValidationError("constant_power load must not set G/B")
        if self.kind == CONSTANT_IMPEDANCE and (self.P != 0.0 or self.Q != 0.0):
            raise ValidationError("constant_impedance load must not set P/Q")

    @staticmethod
    def constant_power(P: float, Q: float) -> "Load":
        return Load(kind=CONSTANT_POWER, P=P, Q=Q)

    @staticmethod
    def constant_impedance(G: float, B: float) -> "Load":
        return Load(kind=CONSTANT_IMPEDANCE, G=G, B=B)

    def demand(self, E: float):
        """Consumed (P, Q) at voltage magnitude E (the unused pair is zero)."""
        return self.P + self.G * E * E, self.Q + self.B * E * E

    @property
    def linear(self) -> bool:
        """Demand linear in V: constant impedance, or constant power drawing nothing."""
        return self.kind == CONSTANT_IMPEDANCE or (self.P == 0.0 and self.Q == 0.0)

    def shunt_admittance(self) -> complex:
        """Equivalent shunt admittance G - jB (linear loads only; 0 for a zero load)."""
        if not self.linear:
            raise ValidationError("only linear loads map to a shunt")
        return complex(self.G, -self.B)


class LoadArrays(NamedTuple):
    """The loads of a list of algebraic buses, one parameter array per field."""

    P: np.ndarray
    Q: np.ndarray
    G: np.ndarray
    B: np.ndarray

    @staticmethod
    def of(loads, ids) -> "LoadArrays":
        """Arrays over ``ids`` from a bus id -> Load mapping."""
        return LoadArrays(*(np.array([getattr(loads[i], f) for i in ids], dtype=float)
                            for f in "PQGB"))

    def demand(self, E: np.ndarray):
        """Consumed (P, Q) at the magnitudes E: P + G E^2, Q + B E^2."""
        return self.P + self.G * E * E, self.Q + self.B * E * E


@dataclass(frozen=True)
class Bus:
    """A network bus: either an inverter (with nominal P*, Q*) or a load."""

    id: int
    kind: str
    E_min: float
    E_max: float
    P_star: float = 0.0
    Q_star: float = 0.0
    load: Load | None = None

    def __post_init__(self):
        if self.kind not in (INVERTER, LOAD):
            raise ValidationError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.E_min, self.E_max, self.P_star, self.Q_star)):
            raise ValidationError(f"bus {self.id}: E_min, E_max, P_star and Q_star must be finite")
        if not (0.0 < self.E_min < self.E_max):
            raise ValidationError(
                f"bus {self.id}: need 0 < E_min < E_max, got [{self.E_min}, {self.E_max}]"
            )
        if self.kind == INVERTER:
            if self.P_star == 0.0 or self.Q_star == 0.0:
                raise ValidationError(
                    f"bus {self.id}: inverter P_star and Q_star must be nonzero"
                )
            if self.load is not None:
                raise ValidationError(f"bus {self.id}: inverter bus cannot carry a load model")
        else:
            if self.load is None:
                raise ValidationError(f"bus {self.id}: load bus needs a load model")


@dataclass(frozen=True)
class Line:
    """Series R + jX branch with total shunt charging B_sh and a current limit."""

    from_bus: int
    to_bus: int
    R: float
    X: float
    B_sh: float = 0.0
    I_max: float = math.inf

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus}-{self.to_bus}: from == to")
        if not all(math.isfinite(v) for v in (self.R, self.X, self.B_sh)) or not self.I_max > 0.0:
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: R, X and B_sh must be finite, I_max positive"
            )
        # a subnormal R + jX overflows 1/(R + jX) as surely as a zero one divides by zero
        if (self.R == 0.0 and self.X == 0.0) or not cmath.isfinite(self.series_admittance()):
            raise ValidationError(
                f"line {self.from_bus}-{self.to_bus}: singular impedance (1/(R + jX) not finite)"
            )

    @property
    def key(self) -> tuple[int, int]:
        """Unordered endpoint pair, canonically sorted."""
        a, b = self.from_bus, self.to_bus
        return (a, b) if a < b else (b, a)

    def series_admittance(self) -> complex:
        return 1.0 / complex(self.R, self.X)


def _as_edge(pair) -> tuple[int, int]:
    if len(pair) != 2:
        raise ParseError(f"comm edge {list(pair)} must have two ends")
    a, b = int(pair[0]), int(pair[1])
    if a == b:
        raise ValidationError(f"comm edge ({a}, {b}) is a self loop")
    return (a, b) if a < b else (b, a)


def bfs_tree(nodes, edges, root):
    """Breadth-first spanning tree of the part of a graph reachable from root.

    ``edges`` is a sequence of (a, b) pairs; pairs with an end outside
    ``nodes`` are ignored.  Each bus's neighbours are visited in ascending
    (bus, edge index) order, first in first out.  Returns one
    (parent, child, edge_index, sign) tuple per tree edge in visiting
    order; sign +1 means the edge is stored as parent -> child.
    """
    adj = {v: [] for v in nodes}
    for k, (a, b) in enumerate(edges):
        if a in adj and b in adj:
            adj[a].append((b, k, +1))
            adj[b].append((a, k, -1))
    seen = {root}
    tree = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, k, sign in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                tree.append((u, v, k, sign))
                queue.append(v)
    return tree


def connected(nodes, edges) -> bool:
    """True iff the undirected graph on nodes with the given edges is connected."""
    nodes = list(nodes)
    return len(nodes) <= 1 or len(bfs_tree(nodes, edges, nodes[0])) == len(nodes) - 1


@dataclass(frozen=True)
class NetworkCase:
    """Validated microgrid case: buses, lines, comm graph, security limits.

    gamma is the branch-angle limit in radians, omega0 the nominal angular
    frequency in rad/s.  Immutable; derived index tuples are precomputed.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    comm_edges: tuple[tuple[int, int], ...]
    gamma: float
    omega0: float
    base_mva: float = 100.0
    base_kv: float = 13.8

    inverter_ids: tuple[int, ...] = field(init=False)
    load_ids: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        buses = tuple(sorted(self.buses, key=lambda b: b.id))
        object.__setattr__(self, "buses", buses)
        ids = [b.id for b in buses]
        if ids != list(range(len(buses))):
            raise ValidationError(f"bus ids must be dense 0..n-1, got {ids}")
        if not (0.0 <= self.gamma < math.pi / 2):
            raise ValidationError(f"gamma must lie in [0, pi/2), got {self.gamma}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValidationError("omega0 must be positive and finite")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.base_mva, self.base_kv)):
            raise ValidationError("base_mva and base_kv must be positive and finite")

        n = len(buses)
        seen_lines = set()
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if not 0 <= end < n:
                    raise ValidationError(f"line references unknown bus {end}")
            if ln.key in seen_lines:
                raise ValidationError(f"duplicate line {ln.key}")
            seen_lines.add(ln.key)
        if not connected(range(n), seen_lines):
            raise ValidationError("electrical graph connected: violated")

        inv = tuple(b.id for b in buses if b.kind == INVERTER)
        load = tuple(b.id for b in buses if b.kind == LOAD)
        if not inv:
            raise ValidationError("case needs at least one inverter bus")
        object.__setattr__(self, "inverter_ids", inv)
        object.__setattr__(self, "load_ids", load)

        edges = [_as_edge(e) for e in self.comm_edges]
        if len(set(edges)) != len(edges):
            raise ValidationError("duplicate comm edge")
        for a, b in edges:
            if a not in inv or b not in inv:
                raise ValidationError(f"comm edge ({a}, {b}) touches a non-inverter bus")
        if not connected(inv, edges):
            raise ValidationError("comm graph disconnected")
        object.__setattr__(self, "comm_edges", tuple(edges))

    # -- derived views -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def n_inverters(self) -> int:
        return len(self.inverter_ids)

    def e_min(self) -> np.ndarray:
        return np.array([b.E_min for b in self.buses])

    def e_max(self) -> np.ndarray:
        return np.array([b.E_max for b in self.buses])

    def p_star(self) -> np.ndarray:
        """Nominal active injections over inverter_ids order."""
        return np.array([self.buses[i].P_star for i in self.inverter_ids])

    def q_star(self) -> np.ndarray:
        return np.array([self.buses[i].Q_star for i in self.inverter_ids])

    def loads(self) -> dict[int, Load]:
        return {i: self.buses[i].load for i in self.load_ids}

    def adjacency(self) -> dict[int, set[int]]:
        adj = {b.id: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        return adj


# ---------------------------------------------------------------------------
# admittance matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Dense bus admittance matrix with cached polar decomposition."""

    Y: np.ndarray
    magnitude: np.ndarray = field(init=False)
    angle: np.ndarray = field(init=False)

    def __post_init__(self):
        Y = np.array(self.Y, dtype=complex)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
            raise ValidationError("admittance matrix must be square")
        if not np.isfinite(Y).all():
            raise ValidationError("admittance matrix has non-finite entries")
        asym = np.abs(Y - Y.T).max() if Y.size else 0.0
        if asym > 1e-12:
            raise ValidationError(f"admittance matrix not symmetric (max dev {asym:.2e})")
        mag = np.abs(Y)
        ang = np.angle(Y)
        for arr in (Y, mag, ang):
            arr.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "angle", ang)

    @property
    def n(self) -> int:
        return self.Y.shape[0]


def build_admittance(case: NetworkCase) -> AdmittanceMatrix:
    """Assemble the dense n x n bus admittance matrix of the lines.

    Each line contributes 1/(R+jX) in series and j*B_sh/2 at either end.
    Loads stay out of the matrix: the KCL residual carries them, and
    ``powerflow.kron_reduce`` folds linear ones in as shunts when it
    eliminates their buses.
    """
    n = case.n
    Y = np.zeros((n, n), dtype=complex)
    for ln in case.lines:
        y = ln.series_admittance()
        i, j = ln.from_bus, ln.to_bus
        Y[i, i] += y + 0.5j * ln.B_sh
        Y[j, j] += y + 0.5j * ln.B_sh
        Y[i, j] -= y
        Y[j, i] -= y
    return AdmittanceMatrix(Y=Y)


# ---------------------------------------------------------------------------
# communication-graph Laplacian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommLaplacian:
    """Graph Laplacian of the induced comm subgraph on the active inverters."""

    L: np.ndarray
    order: tuple[int, ...]
    connected: bool

    def __post_init__(self):
        self.L.setflags(write=False)

    def kron2(self) -> np.ndarray:
        """L (x) I_2 acting on interleaved [P-like, Q-like] pair vectors."""
        return np.kron(self.L, np.eye(2))


def laplacian(comm_edges, active_inverters) -> CommLaplacian:
    """Laplacian of the comm subgraph induced by the active inverter set.

    Edges touching inactive inverters are dropped.  Disconnection is
    reported via the ``connected`` flag, never raised.
    """
    order = tuple(sorted(active_inverters))
    pos = {b: k for k, b in enumerate(order)}
    m = len(order)
    L = np.zeros((m, m))
    kept = []
    for e in comm_edges:
        a, b = _as_edge(e)
        if a in pos and b in pos:
            ia, ib = pos[a], pos[b]
            L[ia, ia] += 1.0
            L[ib, ib] += 1.0
            L[ia, ib] -= 1.0
            L[ib, ia] -= 1.0
            kept.append((a, b))
    return CommLaplacian(L=L, order=order, connected=connected(order, kept))


# ---------------------------------------------------------------------------
# case-file parsing / serialization
# ---------------------------------------------------------------------------


def decode(text: str, what: str, build):
    """``build`` of the JSON document ``text``.  Invalid JSON, or any error a malformed
    document raises in ``build``, is a ParseError naming ``what``; a CaseError passes."""
    try:
        return build(json.loads(text))
    except CaseError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {what} ({type(exc).__name__}: {exc})") from None


def known_keys(doc, keys, where: str) -> dict:
    """``doc``, once it is a JSON object with no key outside ``keys``; else a ParseError."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ParseError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    return doc


def json_int(value, what: str) -> int:
    """``value`` as an int: a JSON integer, or a number with no fractional
    part; a fraction, a boolean or anything else is a ParseError naming ``what``."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_float(value, what: str) -> float:
    """``value`` as a float if it is a JSON number (NaN and infinities left to the validators)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_floats(rec, keys, what: str) -> dict:
    """``{k: json_float(rec[k])}`` over ``keys``; a missing key is a KeyError."""
    return {k: json_float(rec[k], f"{what} {k}") for k in keys}


def json_matrix(rows, what: str) -> np.ndarray:
    """A list of rows of JSON numbers as a float array."""
    return np.array([[json_float(v, what) for v in row] for row in rows])


def known_kind(rec, kinds, what: str) -> str:
    """``rec["kind"]``, once it is a key of ``kinds`` and ``rec`` has only the keys listed there."""
    kind = rec["kind"]
    if kind not in kinds:
        raise ParseError(f"{what}: unknown kind {kind!r}")
    known_keys(rec, kinds[kind], f"{kind} {what}")
    return kind


CASE_KEYS = ("buses", "lines", "comm_edges", "params")  # a case file's keys, per object and kind
PARAM_KEYS = ("gamma_deg", "f0_hz", "base_mva", "base_kv")
BUS_KEYS = {INVERTER: ("id", "kind", "E_min", "E_max", "P_star", "Q_star"),
            LOAD: ("id", "kind", "E_min", "E_max", "load")}
LOAD_KEYS = {CONSTANT_POWER: ("kind", "P", "Q"), CONSTANT_IMPEDANCE: ("kind", "G", "B")}
LINE_KEYS = ("from", "to", "R", "X", "B_sh", "I_max")


def _bus_from_json(rec) -> Bus:
    bus_id = json_int(rec["id"], "bus id")
    what = f"bus {bus_id}"
    kind = known_kind(rec, BUS_KEYS, what)
    if kind == INVERTER:
        return Bus(bus_id, kind, **json_floats(rec, BUS_KEYS[kind][2:], what))
    load = rec["load"]
    load_kind = known_kind(load, LOAD_KEYS, f"{what} load")
    return Bus(bus_id, kind, **json_floats(rec, ("E_min", "E_max"), what),
               load=Load(load_kind, **json_floats(load, LOAD_KEYS[load_kind][1:], f"{what} load")))


def parse_case(text: str) -> NetworkCase:
    """Parse a JSON case file into a validated NetworkCase.

    Top-level keys: ``buses``, ``lines``, ``comm_edges``, ``params``
    (gamma_deg, f0_hz, base_mva, base_kv).  Angles in the file are degrees
    and frequencies Hz; everything electrical is per-unit.  Malformed input,
    an unknown key included, raises ParseError, out-of-range or non-finite
    values ValidationError.
    """
    return decode(text, "case", _case_from_json)


def _case_from_json(raw) -> NetworkCase:
    missing = [key for key in CASE_KEYS if key not in known_keys(raw, CASE_KEYS, "case")]
    if missing:
        raise ParseError(f"missing top-level key {missing[0]!r}")
    lines = []
    for rec in raw["lines"]:
        known_keys(rec, LINE_KEYS, "line")
        a, b = json_int(rec["from"], "line 'from'"), json_int(rec["to"], "line 'to'")
        lines.append(Line(a, b, **{k: json_float(v, f"line {a}-{b} {k}")
                                   for k, v in rec.items() if k not in ("from", "to")}))
    params = known_keys(raw["params"], PARAM_KEYS, "params")
    params = {k: json_float(v, k) for k, v in params.items()}
    return NetworkCase(
        buses=tuple(_bus_from_json(rec) for rec in raw["buses"]),
        lines=tuple(lines),
        comm_edges=tuple(_as_edge([json_int(end, "comm edge end") for end in e])
                         for e in raw["comm_edges"]),
        gamma=math.radians(params["gamma_deg"]),
        omega0=2.0 * math.pi * params["f0_hz"],
        base_mva=params.get("base_mva", 100.0),
        base_kv=params.get("base_kv", 13.8),
    )


PREIMAGE_ULPS = 8  # ulps _exact_preimage steps each way


def _exact_preimage(value: float, forward, guess: float) -> float:
    """Nudge ``guess`` so that forward(guess) == value exactly, when possible.

    Unit conversions like degrees -> radians are off by an ulp often enough
    to break the parse/serialize round trip; the preimage of a double under
    a monotone conversion is found by stepping up to PREIMAGE_ULPS ulps.
    """
    if forward(guess) == value:
        return guess
    for direction in (math.inf, -math.inf):
        y = guess
        for _ in range(PREIMAGE_ULPS):
            y = math.nextafter(y, direction)
            got = forward(y)
            if got == value:
                return y
            if (got > value) == (direction == math.inf):
                break
    return guess


def case_to_json(case: NetworkCase) -> str:
    """Serialize a NetworkCase back to canonical case-file JSON."""
    buses = [{k: getattr(b, k) for k in BUS_KEYS[b.kind] if k != "load"} for b in case.buses]
    for rec, b in zip(buses, case.buses):
        if b.load is not None:
            rec["load"] = {k: getattr(b.load, k) for k in LOAD_KEYS[b.load.kind]}
    lines = []
    for ln in case.lines:
        rec = {"from": ln.from_bus, "to": ln.to_bus, "R": ln.R, "X": ln.X, "B_sh": ln.B_sh}
        if math.isfinite(ln.I_max):
            rec["I_max"] = ln.I_max
        lines.append(rec)
    doc = {
        "buses": buses,
        "lines": lines,
        "comm_edges": [list(e) for e in case.comm_edges],
        "params": {
            "gamma_deg": _exact_preimage(case.gamma, math.radians, math.degrees(case.gamma)),
            "f0_hz": _exact_preimage(
                case.omega0, lambda f: 2.0 * math.pi * f, case.omega0 / (2.0 * math.pi)
            ),
            "base_mva": case.base_mva,
            "base_kv": case.base_kv,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_case(path) -> NetworkCase:
    return parse_case(Path(path).read_text(encoding="utf-8"))
