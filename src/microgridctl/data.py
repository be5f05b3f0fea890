"""Access to the bundled 14-bus study case and its companion files."""

from __future__ import annotations

from pathlib import Path

from .netmodel import NetworkCase, load_case
from .controller import GainSet, load_gains
from .certify import StabilityCertificate, load_certificate
from .sim import Scenario, load_scenario

_DATA = Path(__file__).parent / "data"

CASE14 = "case14.json"
GAINS14 = "gains14.json"
GAINS14_SYNTH = "gains14_synth.json"
CERT14 = "cert14.json"
SCENARIO_LOADSTEP = "scenario_loadstep.json"
SCENARIO_DERLOSS = "scenario_derloss.json"
SCENARIO_COMMLOSS = "scenario_commloss.json"


def data_path(name: str) -> Path:
    return _DATA / name


def bundled_case() -> NetworkCase:
    """The 14-bus study case: five inverters, standard line data, ring comm graph."""
    return load_case(data_path(CASE14))


def bundled_gains() -> GainSet:
    """The published per-inverter feedback gains used by the simulations."""
    return load_gains(data_path(GAINS14))


def bundled_synth_gains() -> GainSet:
    """Gains produced by the in-repo synthesis (block-feasible on the hull)."""
    return load_gains(data_path(GAINS14_SYNTH))


def bundled_certificate() -> StabilityCertificate:
    """The stored certificate for the synthesized gains, its digest checked."""
    return load_certificate(data_path(CERT14), bundled_case(), bundled_synth_gains())


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(data_path(name), bundled_case())
