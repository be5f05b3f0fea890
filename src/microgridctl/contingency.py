"""Fault-scenario reconfiguration.

Operating conditions track which inverters are alive, which communication
links survive, and how loads have moved.  A lost inverter is reclassified
as an algebraic bus with a residual load (zero injection by default, the
open-breaker reading); the controller's Laplacian is rebuilt from the
surviving edge set after every event, never updated incrementally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .netmodel import CommLaplacian, Load, NetworkCase, ValidationError, laplacian

DER_LOSS = "der_loss"
COMM_LOSS = "comm_loss"
LOAD_STEP = "load_step"


@dataclass(frozen=True)
class FaultEvent:
    """A timed scenario event: DER loss, comm-link loss, or a load step."""

    time: float
    kind: str
    bus: int | None = None
    edge: tuple[int, int] | None = None
    dP: float = 0.0
    dQ: float = 0.0
    residual: Load | None = None  # optional residual load of a lost DER

    def __post_init__(self):
        if self.kind not in (DER_LOSS, COMM_LOSS, LOAD_STEP):
            raise ValidationError(f"unknown event kind {self.kind!r}")
        if not all(math.isfinite(v) for v in (self.time, self.dP, self.dQ)):
            raise ValidationError("event time, dP and dQ must be finite")
        if self.kind in (DER_LOSS, LOAD_STEP) and self.bus is None:
            raise ValidationError(f"{self.kind} event needs a bus")
        if self.kind == COMM_LOSS:
            if self.edge is None:
                raise ValidationError("comm_loss event needs an edge")
            a, b = self.edge
            object.__setattr__(self, "edge", (min(a, b), max(a, b)))

    def validate_against(self, case: NetworkCase):
        if self.kind == DER_LOSS and self.bus not in case.inverter_ids:
            raise ValidationError(f"der_loss targets non-inverter bus {self.bus}")
        if self.kind == LOAD_STEP and self.bus not in case.load_ids:
            raise ValidationError(f"load_step targets non-load bus {self.bus}")
        if self.kind == COMM_LOSS and self.edge not in case.comm_edges:
            raise ValidationError(f"comm_loss targets unknown edge {self.edge}")


@dataclass(frozen=True)
class OperatingCondition:
    """Current partition into controlled and algebraic buses.

    ``certified`` goes false once the comm graph disconnects: sharing is
    then only guaranteed inside connected components and the toolkit makes
    no claim for the whole system.
    """

    active_inverters: tuple[int, ...]
    comm_edges: tuple[tuple[int, int], ...]
    load_overrides: tuple[tuple[int, Load], ...] = ()
    lost_inverters: tuple[tuple[int, Load], ...] = ()
    connected: bool = True
    certified: bool = True

    @staticmethod
    def initial(case: NetworkCase) -> "OperatingCondition":
        return OperatingCondition(
            active_inverters=tuple(case.inverter_ids),
            comm_edges=tuple(case.comm_edges),
        )

    def lap(self) -> CommLaplacian:
        return laplacian(self.comm_edges, self.active_inverters)

    def algebraic_ids(self, case: NetworkCase) -> tuple[int, ...]:
        lost = tuple(i for i, _ in self.lost_inverters)
        return tuple(sorted(set(case.load_ids) | set(lost)))

    def effective_loads(self, case: NetworkCase) -> dict[int, Load]:
        loads = dict(case.loads())
        loads.update(dict(self.load_overrides))
        loads.update(dict(self.lost_inverters))
        return loads


def apply_event(case: NetworkCase, condition: OperatingCondition,
                event: FaultEvent) -> OperatingCondition:
    """New operating condition after one event; idempotent for repeats."""
    event.validate_against(case)
    if event.kind == DER_LOSS:
        if event.bus not in condition.active_inverters:
            return condition
        active = tuple(i for i in condition.active_inverters if i != event.bus)
        edges = tuple(e for e in condition.comm_edges if event.bus not in e)
        residual = event.residual or Load.constant_power(0.0, 0.0)
        lost = condition.lost_inverters + ((event.bus, residual),)
        lap = laplacian(edges, active)
        return replace(
            condition,
            active_inverters=active,
            comm_edges=edges,
            lost_inverters=lost,
            connected=lap.connected,
            certified=condition.certified and lap.connected,
        )
    if event.kind == COMM_LOSS:
        if event.edge not in condition.comm_edges:
            return condition
        edges = tuple(e for e in condition.comm_edges if e != event.edge)
        lap = laplacian(edges, condition.active_inverters)
        return replace(
            condition,
            comm_edges=edges,
            connected=lap.connected,
            certified=condition.certified and lap.connected,
        )
    # load step: shift the current effective load at the bus
    current = dict(condition.load_overrides).get(event.bus, case.buses[event.bus].load)
    if current.kind == "constant_power":
        new_load = Load.constant_power(current.P + event.dP, current.Q + event.dQ)
    else:
        # increments are the extra power drawn at nominal voltage
        new_load = Load.constant_impedance(current.G + event.dP, current.B + event.dQ)
    overrides = tuple((b, ld) for b, ld in condition.load_overrides if b != event.bus)
    overrides += ((event.bus, new_load),)
    return replace(condition, load_overrides=overrides)
