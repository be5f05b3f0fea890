import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microgridctl.contingency import FaultEvent, OperatingCondition, apply_event
from microgridctl.certify import block_feasibility, inherited_feasibility
from microgridctl.netmodel import Load, ValidationError, laplacian



def test_der_loss_reclassifies_and_rebuilds_laplacian(case14):
    cond = OperatingCondition.initial(case14)
    cond2 = apply_event(case14, cond, FaultEvent(time=1.0, kind="der_loss", bus=0))
    assert cond2.active_inverters == (1, 2, 5, 7)
    lap = cond2.lap()
    assert lap.L.shape == (4, 4)
    assert lap.connected  # ring minus one node is a path
    assert cond2.certified
    # the lost inverter becomes an algebraic zero-injection bus
    assert 0 in cond2.algebraic_ids(case14)
    assert cond2.effective_loads(case14)[0].demand(1.0) == (0.0, 0.0)


def test_der_loss_idempotent(case14):
    cond = OperatingCondition.initial(case14)
    ev = FaultEvent(time=1.0, kind="der_loss", bus=0)
    once = apply_event(case14, cond, ev)
    twice = apply_event(case14, once, ev)
    assert once == twice


def test_der_loss_with_residual_load(case14):
    cond = OperatingCondition.initial(case14)
    ev = FaultEvent(time=1.0, kind="der_loss", bus=7,
                    residual=Load.constant_power(0.05, 0.01))
    cond2 = apply_event(case14, cond, ev)
    assert cond2.effective_loads(case14)[7].demand(1.0) == (0.05, 0.01)


def test_comm_loss_on_ring_stays_connected(case14):
    cond = OperatingCondition.initial(case14)
    cond2 = apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(0, 1)))
    assert cond2.lap().connected
    assert cond2.certified


def test_bridge_removal_flags_uncertified(case14):
    cond = OperatingCondition.initial(case14)
    # drop two ring edges at inverter 7: it ends up isolated
    cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(5, 7)))
    cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(0, 7)))
    assert not cond.connected
    assert not cond.certified


def test_load_step_overrides_effective_load(case14):
    cond = OperatingCondition.initial(case14)
    base = case14.buses[9].load
    cond2 = apply_event(case14, cond,
                        FaultEvent(time=1.0, kind="load_step", bus=9, dP=0.03, dQ=0.01))
    eff = cond2.effective_loads(case14)[9]
    assert eff.kind == "constant_impedance"
    assert np.isclose(eff.G, base.G + 0.03)
    assert np.isclose(eff.B, base.B + 0.01)
    # a second step accumulates on the first
    cond3 = apply_event(case14, cond2,
                        FaultEvent(time=2.0, kind="load_step", bus=9, dP=-0.03, dQ=-0.01))
    eff3 = cond3.effective_loads(case14)[9]
    assert np.isclose(eff3.G, base.G)


def test_event_validation(case14):
    cond = OperatingCondition.initial(case14)
    with pytest.raises(ValidationError, match="non-inverter"):
        apply_event(case14, cond, FaultEvent(time=0.0, kind="der_loss", bus=3))
    with pytest.raises(ValidationError, match="non-load"):
        apply_event(case14, cond, FaultEvent(time=0.0, kind="load_step", bus=0, dP=0.1))
    with pytest.raises(ValidationError, match="unknown edge"):
        apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(0, 2)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_laplacian_consistency_after_event_sequences(case14, data):
    """After any event sequence the Laplacian equals a fresh build."""
    cond = OperatingCondition.initial(case14)
    n_events = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_events):
        kind = data.draw(st.sampled_from(["der_loss", "comm_loss", "load_step"]))
        if kind == "der_loss":
            bus = data.draw(st.sampled_from(sorted(case14.inverter_ids)))
            if len(cond.active_inverters) <= 1 or bus not in cond.active_inverters:
                continue
            cond = apply_event(case14, cond, FaultEvent(time=0.0, kind=kind, bus=bus))
        elif kind == "comm_loss":
            if not cond.comm_edges:
                continue
            edge = data.draw(st.sampled_from(sorted(cond.comm_edges)))
            cond = apply_event(case14, cond, FaultEvent(time=0.0, kind=kind, edge=edge))
        else:
            bus = data.draw(st.sampled_from(sorted(case14.load_ids)))
            cond = apply_event(case14, cond,
                               FaultEvent(time=0.0, kind=kind, bus=bus, dP=0.01))
    fresh = laplacian(cond.comm_edges, cond.active_inverters)
    assert np.array_equal(cond.lap().L, fresh.L)
    assert cond.lap().connected == fresh.connected


# -- inherited feasibility ------------------------------------------------------


def test_single_survivor_reduces_to_own_block(hull14, gains14_synth, case14):
    cond = OperatingCondition.initial(case14)
    for bus in (0, 1, 2, 5):
        cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="der_loss", bus=bus))
    assert cond.active_inverters == (7,)
    assert cond.connected  # single node is trivially connected
    rep = inherited_feasibility(gains14_synth, hull14, cond, d=0.1)
    assert rep.checked and rep.passed
    # equals the worst eigenvalue over inverter 7's own block vertices
    D = hull14.per_block[2].D_stack
    K = gains14_synth.stacked([7])
    H = np.einsum("kij,jl->kil", D, K)
    worst = float(np.linalg.eigvalsh(H + H.transpose(0, 2, 1))[:, -1].max())
    assert np.isclose(rep.worst, worst)


def test_disconnected_survivors_reported_skipped(hull14, gains14_synth, case14):
    cond = OperatingCondition.initial(case14)
    cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(5, 7)))
    cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="comm_loss", edge=(0, 7)))
    rep = inherited_feasibility(gains14_synth, hull14, cond, d=0.1)
    assert not rep.checked
    assert "disconnected" in rep.reason


def test_survivor_margin_never_below_full_margin(hull14, gains14_synth, case14):
    full = block_feasibility(gains14_synth, hull14, d=1e-9)
    assert full.passed
    d_full = -full.worst
    cond = OperatingCondition.initial(case14)
    cond = apply_event(case14, cond, FaultEvent(time=0.0, kind="der_loss", bus=1))
    rep = inherited_feasibility(gains14_synth, hull14, cond, d=d_full)
    assert rep.checked and rep.passed
    assert rep.margin >= d_full - 1e-9
