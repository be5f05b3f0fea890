"""Consensus-controlled inverter microgrid simulator and certification toolkit."""

from .netmodel import (
    AdmittanceMatrix,
    Bus,
    CaseError,
    Line,
    Load,
    NetworkCase,
    ParseError,
    ValidationError,
    build_admittance,
    case_to_json,
    laplacian,
    load_case,
    parse_case,
)
from .powerflow import (
    JacobianPair,
    NewtonError,
    VoltageProfile,
    check_existence,
    jacobians,
    kappa_bound,
)
from .controller import (
    ControlState,
    GainSet,
    clamp_count,
    control_derivative,
    frequency_of,
    load_gains,
    parse_gains,
)
from .certify import (
    CertificateError,
    IntervalHull,
    StabilityCertificate,
    SynthesisError,
    block_feasibility,
    blocks_of,
    build_basis,
    build_hull,
    certificate_for_gains,
    certification_vertices,
    entry_bounds,
    inherited_feasibility,
    load_certificate,
    synthesize_gains,
    verify_certificate,
    zeta_estimate,
)
from .contingency import (
    FaultEvent,
    OperatingCondition,
    apply_event,
)
from .sim import (
    Scenario,
    SimConfig,
    SimulationError,
    Trace,
    load_scenario,
    metrics,
    parse_scenario,
    read_trace_csv,
    run_scenario,
    solve_equilibrium,
    write_trace_csv,
)

__version__ = "0.1.0"
