import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microgridctl as mg
from microgridctl import certify
from microgridctl import data as bundled
from microgridctl.certify import (
    BlockBounds,
    CAPACITY_MARGIN,
    EIG_TOL,
    CertificateError,
    IntervalHull,
    MAX_CORNER_COMBOS,
    StabilityCertificate,
    SynthesisError,
    _VertexScreen,
    _below,
    _margin_stack,
    _reach,
    _schur_surrogate_eps,
    _search_certificate,
    _spectral_abscissa,
    block_feasibility,
    blocks_of,
    build_basis,
    build_hull,
    certificate_for_gains,
    certificate_to_json,
    certification_vertices,
    effective_angle,
    entry_bounds,
    hypothesis_violations,
    parse_certificate,
    reduced_closed_loop,
    reduced_laplacian,
    sample_interior_profiles,
    stage1_gains,
    verify_certificate,
    zeta_estimate,
)
from microgridctl.controller import GainSet
from microgridctl.netmodel import ValidationError, laplacian
from microgridctl.powerflow import VoltageProfile, jacobians

from conftest import inverter, line, make_case, pq_load, z_load


# -- consensus basis ----------------------------------------------------------


def test_basis_two_inverters_last_columns():
    basis = build_basis(2)
    assert basis.T.shape == (4, 4)
    r = 1 / math.sqrt(2)
    assert np.allclose(basis.T[:, 2], [r, 0, r, 0])
    assert np.allclose(basis.T[:, 3], [0, r, 0, r])


@pytest.mark.parametrize("n_inv", [2, 3, 5, 8])
def test_basis_orthogonality(n_inv):
    basis = build_basis(n_inv)
    m = 2 * n_inv
    assert np.abs(basis.T.T @ basis.T - np.eye(m)).max() < 1e-12


@pytest.mark.parametrize("edges,n_inv", [
    ([(0, 1)], 2),
    ([(0, 1), (1, 2)], 3),
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5),
])
def test_laplacian_kron_kills_last_basis_columns(edges, n_inv):
    lap = laplacian(edges, range(n_inv))
    basis = build_basis(n_inv)
    prod = lap.kron2() @ basis.T
    assert np.abs(prod[:, -2:]).max() < 1e-12
    # and the reduced Laplacian block is positive definite for connected graphs
    L1 = reduced_laplacian(lap.kron2(), basis)
    assert np.linalg.eigvalsh(L1)[0] > 1e-9


def test_basis_needs_two_inverters():
    with pytest.raises(ValidationError):
        build_basis(1)


# -- electrical blocks ----------------------------------------------------------


def test_14bus_blocks(case14):
    assert blocks_of(case14) == ((0, 1, 2), (5,), (7,))


def test_all_inverter_network_single_block(path3_inverters):
    assert blocks_of(path3_inverters) == ((0, 1, 2),)


def test_load_separated_inverters_are_singletons():
    case = make_case(
        [inverter(0), inverter(1, P=0.5, Q=0.2), pq_load(2)],
        [line(0, 2), line(1, 2)],
        [[0, 1]],
    )
    assert blocks_of(case) == ((0,), (1,))


# -- corner enumeration and the angle hypothesis -----------------------------------


def test_vertex_budget_guard():
    """Corner enumeration refuses a block whose corner product is too large."""
    hub = make_case([inverter(0)] + [pq_load(i) for i in range(1, 9)],
                    [line(0, i, R=0.05, X=0.1) for i in range(1, 9)], [])
    assert (2 ** 9) * (3 ** 8) > MAX_CORNER_COMBOS
    with pytest.raises(ValidationError, match="combinations"):
        entry_bounds(hub, mg.build_admittance(hub), (0,))


def test_effective_angle_folding():
    assert math.isclose(effective_angle(math.pi / 2), math.pi / 2)
    assert math.isclose(effective_angle(-math.pi / 2), math.pi / 2)
    assert math.isclose(effective_angle(math.radians(103.6)), math.radians(76.4), abs_tol=1e-12)
    assert math.isclose(effective_angle(0.1), 0.1)


def test_14bus_hypothesis_failures_are_the_low_r_over_x_lines(case14, Y14):
    keys = {k for k, _, _ in hypothesis_violations(case14, Y14)}
    assert keys == {(0, 4), (1, 2)}  # the two lines with atan(R/X) < gamma


# -- entry bounds -----------------------------------------------------------------


def test_two_bus_lossless_bounds_extremes(two_bus_inductive):
    Y = mg.build_admittance(two_bus_inductive)
    bb = entry_bounds(two_bus_inductive, Y, (0, 1))
    g = two_bus_inductive.gamma
    lo, hi = 0.9, 1.1
    # dP_0/dtheta_0 / P*_0 = -E0 E1 sin(delta - pi/2) = E0 E1 cos(delta):
    # extremes over the box at delta = +-gamma (min) and delta = 0 (max)
    assert math.isclose(bb.J_hi[0, 0], hi * hi * 1.0)
    assert math.isclose(bb.J_lo[0, 0], lo * lo * math.cos(g))
    # dP_0/dtheta_1 = E0 E1 sin(delta - pi/2): odd part peaks at the corners
    assert math.isclose(bb.J_lo[0, 2], -hi * hi * 1.0)
    assert math.isclose(bb.J_hi[0, 2], -lo * lo * math.cos(g))


def test_acyclic_interior_containment(path3_inverters):
    Y = mg.build_admittance(path3_inverters)
    bb = entry_bounds(path3_inverters, Y, (0, 1, 2))
    rng_profiles = sample_interior_profiles(path3_inverters, 300, seed=42)
    for x in rng_profiles:
        J = jacobians(path3_inverters, Y, x).J_I
        assert np.all(J >= bb.J_lo - 1e-9)
        assert np.all(J <= bb.J_hi + 1e-9)


def test_containment_holds_on_hypothesis_violating_line():
    # atan(R/X) ~ 11.3 deg < gamma = 20 deg: the sine summand peaks inside
    case = make_case(
        [inverter(0), inverter(1, P=0.5, Q=0.2)],
        [line(0, 1, R=0.05, X=0.25)],
        [[0, 1]],
        gamma_deg=20.0,
    )
    Y = mg.build_admittance(case)
    assert hypothesis_violations(case, Y)
    bb = entry_bounds(case, Y, (0, 1))
    for x in sample_interior_profiles(case, 400, seed=9):
        J = jacobians(case, Y, x).J_I
        assert np.all(J >= bb.J_lo - 1e-9)
        assert np.all(J <= bb.J_hi + 1e-9)


def test_hull_global_assembly(hull14, case14):
    n_i = case14.n_inverters
    assert hull14.J_lo.shape == (2 * n_i, 2 * n_i)
    # off-block entries are identically zero
    idx0 = hull14.block_positions(0)
    idx2 = hull14.block_positions(2)
    assert np.all(hull14.J_lo[np.ix_(idx0, idx2)] == 0.0)
    assert np.all(hull14.J_hi[np.ix_(idx0, idx2)] == 0.0)
    assert np.all(hull14.J_lo <= hull14.J_hi)


# Recorded from the per-line trig loops that built the hull before it called
# powerflow.full_jacobian.
CASE14_CORNER_STACKS = {
    (0, 1, 2): ((7200, 6, 6), "9fd1cf69ff7831ea7068bdf2814e4e186c037d36281b27ec4d8cde8b21a62d0d"),
    (5,): ((2592, 2, 2), "8296d7af883a987d6dbdf3888673fa920ab5322ee0c83cd1d542fa5ec60e9c92"),
    (7,): ((12, 2, 2), "a579d3f4546b017cdc8f54d4f17524313c83ac0e63947fca9553b3731d25e551"),
}


def test_case14_corner_stacks_are_bit_identical(hull14):
    assert [bb.block for bb in hull14.per_block] == list(CASE14_CORNER_STACKS)
    for bb in hull14.per_block:
        shape, digest = CASE14_CORNER_STACKS[bb.block]
        assert bb.D_stack.shape == shape
        assert hashlib.sha256(bb.D_stack.tobytes()).hexdigest() == digest, (
            f"the corner stack of block {bb.block} moved.  cert14 is checked on the attainer "
            "subset, the vertices where some entry's argmin or argmax falls, and rounding-level "
            "changes re-break those ties: the subset then has 1,904 or 2,496 vertices instead of "
            "2,176 and cert14 can fail on it.  Keep the hull's arithmetic bit for bit while the "
            "attainer subset decides coverage.")


@pytest.mark.parametrize("name", ["two_bus_inductive", "triangle_case", "path3_inverters",
                                  "mixed_case", "case14"])
def test_hull_vertices_are_distinct(name, request):
    """Each corner combination gives its own Jacobian (every relevant bus's E
    and every tree gap enters some block row through a sin and a cos term),
    so the vertex lists take the corner stacks as they are."""
    for bb in build_hull(request.getfixturevalue(name)).per_block:
        rows = bb.D_stack.reshape(len(bb.D_stack), -1)
        assert len(np.unique(rows, axis=0)) == len(rows)


# -- block feasibility --------------------------------------------------------------


def _unit_hull(D_stacks, blocks):
    per_block = []
    n = 0
    for blk, D in zip(blocks, D_stacks):
        D = np.asarray(D, dtype=float)
        per_block.append(BlockBounds(
            block=tuple(blk),
            relevant_buses=tuple(blk),
            J_lo=D.min(axis=0),
            J_hi=D.max(axis=0),
            D_stack=D,
        ))
        n += len(blk)
    order = tuple(sorted(b for blk in blocks for b in blk))
    return IntervalHull(
        blocks=tuple(tuple(b) for b in blocks),
        per_block=tuple(per_block),
        J_lo=np.zeros((2 * n, 2 * n)),
        J_hi=np.zeros((2 * n, 2 * n)),
        inverter_order=order,
    )


def test_block_feasibility_identity_cases():
    hull = _unit_hull([[np.eye(2)]], [(0,)])
    ok = block_feasibility(GainSet(blocks={0: -np.eye(2)}), hull, d=1.9)
    assert ok.passed and math.isclose(ok.worst, -2.0)
    bad = block_feasibility(GainSet(blocks={0: np.eye(2)}), hull, d=0.1)
    assert not bad.passed and math.isclose(bad.worst, 2.0)


def test_block_feasibility_on_bundled_pair(hull14, gains14_synth, gains14):
    feas = block_feasibility(gains14_synth, hull14, d=0.2)
    assert feas.passed
    assert feas.worst <= -0.2
    # the published table gains are not block-feasible on this hull
    table = block_feasibility(gains14, hull14, d=1e-9)
    assert not table.passed


# -- quadratic-form margins -----------------------------------------------------------


def test_scalar_schur_identity_case():
    """U=I, A = -a I, zeta = 1: the margin sign matches -2a + eps*zeta^2 + xi + 1/eps."""
    a, eps, xi, zeta = 4.0, 0.5, 0.1, 1.0
    A = -a * np.eye(2)
    margins = _margin_stack(A[None, :, :], np.eye(2), eps, xi, zeta)
    schur = -2 * a + eps * zeta + xi + 1 / eps
    assert (margins.max() <= 0) == (schur <= 0)
    a_small = 0.5  # makes the Schur combination positive
    A2 = -a_small * np.eye(2)
    margins2 = _margin_stack(A2[None, :, :], np.eye(2), eps, xi, zeta)
    schur2 = -2 * a_small + eps * zeta + xi + 1 / eps
    assert (margins2.max() <= 0) == (schur2 <= 0)
    assert margins2.max() > 0


def test_margin_monotone_in_xi():
    rng = np.random.default_rng(0)
    A = -np.eye(4) - 0.1 * rng.standard_normal((1, 4, 4))
    U = np.eye(4)
    m_small = _margin_stack(A, U, 1.0, 0.01, 0.1).max()
    m_large = _margin_stack(A, U, 1.0, 0.5, 0.1).max()
    assert m_small <= m_large


def test_certificate_field_validation():
    with pytest.raises(ValidationError, match="xi"):
        StabilityCertificate(U=np.eye(2), eps=1.0, xi=0.0, zeta=0.1, d=0.1)
    with pytest.raises(ValidationError, match="positive definite"):
        StabilityCertificate(U=-np.eye(2), eps=1.0, xi=0.1, zeta=0.1, d=0.1)
    with pytest.raises(ValidationError, match="symmetric"):
        StabilityCertificate(U=np.array([[1.0, 0.5], [0.0, 1.0]]), eps=1.0, xi=0.1,
                             zeta=0.1, d=0.1)


@pytest.mark.parametrize("field", ["eps", "xi", "zeta", "d"])
def test_nan_certificate_field_is_certificate_error(cert14, field):
    doc = json.loads(certificate_to_json(cert14))
    doc[field] = math.nan
    with pytest.raises(CertificateError, match=field):
        parse_certificate(json.dumps(doc))


def test_top_level_list_certificate_is_certificate_error():
    with pytest.raises(CertificateError):
        parse_certificate("[]")


@pytest.mark.parametrize("field,value", [("hull_kind", "dbar"), ("zeta_mode", "literal")])
def test_certificate_accepts_one_hull_kind_and_zeta_mode(cert14, field, value):
    doc = json.loads(certificate_to_json(cert14))
    assert doc[field] == {"hull_kind": "jbar", "zeta_mode": "squared"}[field]
    doc[field] = value
    with pytest.raises(CertificateError, match=value):
        parse_certificate(json.dumps(doc))


def test_certificate_json_roundtrip(cert14):
    again = parse_certificate(certificate_to_json(cert14))
    assert np.array_equal(again.U, cert14.U)
    assert again.xi == cert14.xi and again.zeta == cert14.zeta
    assert again.digest == cert14.digest


def test_certificate_digest_mismatch_rejected(tmp_path, case14, gains14, cert14):
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(cert14))
    with pytest.raises(CertificateError, match="digest"):
        certify.load_certificate(path, case14, gains14)  # wrong gains for this cert


@pytest.mark.parametrize("digest", ["", None])
def test_certificate_without_digest_rejected(tmp_path, case14, gains14_synth, digest):
    doc = json.loads(bundled.data_path(bundled.CERT14).read_text(encoding="utf-8"))
    if digest is None:
        del doc["digest"]
    else:
        doc["digest"] = digest
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CertificateError, match="no digest"):
        certify.load_certificate(path, case14, gains14_synth)
    assert parse_certificate(path.read_text()).digest == ""  # the unchecked read


def test_verify_bundled_certificate(case14, gains14_synth, cert14, hull14):
    vmats = certification_vertices(hull14)
    report = verify_certificate(case14, gains14_synth, cert14, vertex_matrices=vmats)
    assert report.passed
    assert report.worst <= 1e-9
    assert report.n_vertices == vmats.shape[0]


def test_certification_vertices_block_structure(hull14):
    vmats = certification_vertices(hull14)
    idx0 = hull14.block_positions(0)
    idx1 = hull14.block_positions(1)
    assert np.all(vmats[:, idx0][:, :, idx1] == 0.0)
    # every block slice appears in that block's own vertex list
    D0 = hull14.per_block[0].D_stack
    sample = vmats[0][np.ix_(idx0, idx0)]
    assert any(np.array_equal(sample, D) for D in D0)


def test_certification_vertices_match_product_loop(hull14):
    """One fancy-indexed write per block assembles the itertools.product order."""
    vmats = certification_vertices(hull14)
    per_block, _ = hull14.vertex_lists
    ref = np.zeros_like(vmats)
    positions = [hull14.block_positions(bi) for bi in range(len(hull14.blocks))]
    for k, combo in enumerate(itertools.product(*[range(len(s)) for s in per_block])):
        for bi, vi in enumerate(combo):
            ref[np.ix_([k], positions[bi], positions[bi])] = per_block[bi][vi]
    assert vmats.tobytes() == ref.tobytes()


def test_report_names_attainer_subset_coverage(case14, gains14_synth, cert14, hull14):
    built = verify_certificate(case14, gains14_synth, cert14)
    assert built.n_vertices == 2176 and built.n_product == 7200 * 2592 * 12
    assert built.format().startswith("PASS on 2176-vertex attainer subset of 223948800, ")
    supplied = verify_certificate(case14, gains14_synth, cert14,
                                  vertex_matrices=certification_vertices(hull14))
    assert supplied.n_product is None
    assert supplied.format().startswith("PASS: 2176 vertices, ")
    assert np.array_equal(built.margins, supplied.margins)


def test_verification_over_a_given_hull_is_the_built_one(case14, gains14_synth, cert14, hull14):
    given = verify_certificate(case14, gains14_synth, cert14, hull=hull14)
    built = verify_certificate(case14, gains14_synth, cert14)
    assert given.margins.tobytes() == built.margins.tobytes()
    assert given.format() == built.format()
    with pytest.raises(ValueError):
        verify_certificate(case14, gains14_synth, cert14, hull=hull14,
                           vertex_matrices=certification_vertices(hull14))


# -- chunked vertex sweeps ----------------------------------------------------------


def _certify14_results(case14, gains14_synth, cert14):
    """Every output of the chunked sweeps on case14, as raw bytes and hex."""
    hull = build_hull(case14)
    report = verify_certificate(case14, gains14_synth, cert14)
    cert = certificate_for_gains(case14, gains14_synth, hull, u_steps=5)
    return {
        "stacks": [(bb.D_stack.tobytes(), bb.J_lo.tobytes(), bb.J_hi.tobytes())
                   for bb in hull.per_block],
        "hull": (hull.J_lo.tobytes(), hull.J_hi.tobytes()),
        "block_worst": block_feasibility(gains14_synth, hull, cert14.d).worst.hex(),
        "report": (report.margins.tobytes(), report.worst_vertex, report.n_product),
        "certificate": (cert.U.tobytes(), *(float(getattr(cert, f)).hex()
                                            for f in ("eps", "xi", "zeta", "d")),
                        json.dumps(cert.meta, sort_keys=True)),
    }


def test_chunk_boundaries_leave_every_result_unchanged(monkeypatch, case14, gains14_synth,
                                                       cert14):
    """A chunk that divides none of the stacks (7,200, 2,592 and 12 corners,
    2,176 certification vertices) gives the default chunk's bits."""
    default = _certify14_results(case14, gains14_synth, cert14)
    assert all(n % 97 for n in (7200, 2592, 12, 2176))
    monkeypatch.setattr(certify, "VERTEX_CHUNK", 97)
    assert _certify14_results(case14, gains14_synth, cert14) == default


def _peak_mib(fn) -> float:
    """tracemalloc's peak over one call of ``fn`` (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_vertex_sweeps_work_in_bounded_memory(case14, gains14_synth, cert14, hull14):
    """Working memory is set by VERTEX_CHUNK, not by the stacks: whole-stack
    sweeps peaked at 11.2, 4.3, 11.2 and 11.1 MiB here."""
    stacks = sum(bb.D_stack.nbytes for bb in hull14.per_block) / 2 ** 20
    assert _peak_mib(lambda: build_hull(case14)) <= stacks + 2.0
    assert _peak_mib(lambda: block_feasibility(gains14_synth, hull14, cert14.d)) <= 1.0
    assert _peak_mib(lambda: verify_certificate(case14, gains14_synth, cert14)) <= 5.0
    assert _peak_mib(lambda: certificate_for_gains(case14, gains14_synth, hull14,
                                                   u_steps=5)) <= 8.0


# -- screened margin sweeps ---------------------------------------------------------


@pytest.fixture(scope="module")
def A14(case14, gains14_synth, hull14):
    """The A11 vertex stack of the case14 attainer subset under gains14_synth."""
    lap = laplacian(case14.comm_edges, case14.inverter_ids)
    return reduced_closed_loop(certification_vertices(hull14),
                               gains14_synth.stacked(case14.inverter_ids), lap.kron2(),
                               build_basis(case14.n_inverters))


def _seeded_form(seed, cert):
    """(U, eps, xi, zeta): even seeds perturb the bundled certificate, so some
    vertices violate; odd seeds draw U at random."""
    rng = np.random.default_rng(seed)
    m = cert.U.shape[0]
    Q = rng.standard_normal((m, m))
    U = np.asarray(cert.U) + 0.05 * (Q + Q.T) if seed % 2 == 0 else Q @ Q.T / m
    U += max(0.0, 1e-2 - np.linalg.eigvalsh(U)[0]) * np.eye(m)
    U /= np.linalg.eigvalsh(U)[-1]
    return (U, cert.eps * rng.uniform(0.5, 2.0), cert.xi * rng.uniform(0.0, 3.0),
            cert.zeta * rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("seed", range(6))
def test_screen_flags_only_vertices_below_level(A14, cert14, seed):
    U, eps, xi, zeta = _seeded_form(seed, cert14)
    A_last = np.moveaxis(A14, 0, -1)
    margins = _margin_stack(A14, U, eps, xi, zeta)
    ranked = np.sort(margins)
    levels = [0.0] + [ranked[int(q * (len(ranked) - 1))] for q in (0.1, 0.5, 0.9, 1.0)]
    flagged = 0
    for level in levels:
        flags = _below(A_last, U, eps, xi, zeta, level)
        assert np.all(margins[flags] <= level - EIG_TOL)
        flagged += int(flags.sum())
    assert flagged > 0
    assert _below(A_last, U, eps, xi, zeta, margins.max() + 1e-6).all()


def test_screen_proves_nothing_when_eps_plus_level_is_small(A14, cert14):
    A_last = np.moveaxis(A14, 0, -1)
    U = np.asarray(cert14.U)
    assert not _below(A_last, U, 1.0, cert14.xi, cert14.zeta, -1.0).any()
    assert not _below(A_last, U, 1.0, cert14.xi, cert14.zeta, -1.0 + 1e-10).any()


def test_worst_vertex_and_verdict_match_full_sweep(A14, cert14):
    """The refined argmax is np.argmax over all margins, ties included."""
    verdicts = set()
    forms = [(np.asarray(cert14.U), cert14.eps, cert14.xi, cert14.zeta)]
    forms += [_seeded_form(seed, cert14) for seed in range(8)]
    for i, (U, eps, xi, zeta) in enumerate(forms):
        k0 = int(np.argmax(_margin_stack(A14, U, eps, xi, zeta)))
        stack = np.concatenate([A14[[k0]], A14, A14[[k0]]])  # the maximum three times
        margins = _margin_stack(stack, U, eps, xi, zeta)
        screen = _VertexScreen(stack)
        screen.last_worst = (37 * i) % len(stack)
        k, worst = screen.worst_vertex(U, eps, xi, zeta)
        assert k == int(np.argmax(margins)) == 0
        assert worst == margins.max()
        assert screen.feasible(U, eps, xi, zeta) == bool(margins.max() <= 0.0)
        assert screen.stats["exact_margins"] < len(stack)
        verdicts.add(bool(margins.max() <= 0.0))
    assert verdicts == {True, False}


def test_feasible_checks_every_survivor(A14, cert14):
    """A vertex just at margin 0 survives the screen ahead of a violating one;
    the verdict must still see the violation."""
    U, eps, zeta = np.asarray(cert14.U), cert14.eps, cert14.zeta
    j = int(np.argsort(_margin_stack(A14, U, eps, cert14.xi, zeta))[len(A14) // 2])
    lo, hi = cert14.xi, 1e3  # margins rise with xi: put vertex j's margin just below 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _margin_stack(A14[[j]], U, eps, mid, zeta)[0] <= 0.0 else (lo, mid)
    margins = _margin_stack(A14, U, eps, lo, zeta)
    k = int(np.argmax(margins))
    assert -1e-12 < margins[j] <= 0.0 < margins[k]
    screen = _VertexScreen(A14[[j, k]])
    assert screen.feasible(U, eps, lo, zeta) is False
    assert screen.stats["exact_margins"] == 2


def test_search_certificate_is_frozen(case14, gains14_synth, hull14):
    """The screened search returns, bit for bit, the certificate that exact
    margins at every vertex gave (values recorded before the screen).  zeta
    is zeta_requested / 2^10, and zeta_requested is recorded from the
    complex-form ``LoadBusKCL`` derivative behind ``kappa_bound`` and
    ``jacobians``.  eps is recorded from the closed-form Schur surrogate
    lmax(U) / zeta."""
    cert = certificate_for_gains(case14, gains14_synth, hull14, u_steps=5)
    assert hashlib.sha256(cert.U.tobytes()).hexdigest() == (
        "b405dde8f156e62be7c427ea26344a501876284c7475da647940bec8e45885e8")
    assert float(cert.eps).hex() == "0x1.1abb9770e1cd0p+2"
    assert float(cert.xi).hex() == "0x1.197b7414a4d2cp-2"
    assert float(cert.zeta).hex() == "0x1.cf96f58bf5ffap-3"
    assert float(cert.d).hex() == "0x1.a88370d6cefc7p-3"
    assert cert.meta["search_method"] == "subgradient"
    stats = cert.meta["stats"]
    assert set(stats) == {"margin_stacks", "screened_vertices", "exact_margins", "zeta_halvings",
                          "zeta_skipped"}
    assert stats["zeta_halvings"] == 10
    assert 0 < stats["exact_margins"] < stats["screened_vertices"]
    # the abscissa bound 0.4771 rules out the first 9 degrees (231.8 ... 0.905)
    assert stats["zeta_skipped"] == 9
    assert cert.meta["zeta_bound"] == pytest.approx(0.47710561, abs=1e-8)


def test_longer_search_raises_xi_by_refining_u(case14, gains14_synth, hull14):
    """With 25 U steps the descents toward a raised xi target succeed, and
    the refinement lifts xi to 0.4546; with ``u_steps=5`` (frozen above) none
    does and xi stays at 0.2749.  The disturbance degree is the same."""
    cert = certificate_for_gains(case14, gains14_synth, hull14, u_steps=25)
    assert cert.xi == pytest.approx(0.454561, abs=1e-5)
    assert cert.xi > float.fromhex("0x1.197b7414a4d2cp-2")
    assert float(cert.zeta).hex() == "0x1.cf96f58bf5ffap-3"


def test_suspects_of_an_infeasible_xi_decide_every_lower_xi(A14, cert14):
    """Margins rise with xi, so the survivors at an infeasible xi give the
    verdict of the whole stack at any lower xi (the incremental bisection)."""
    U, eps, zeta = np.asarray(cert14.U), cert14.eps, cert14.zeta
    screen = _VertexScreen(A14)
    xi_hi = 4.0 * cert14.xi
    assert max(_margin_stack(A14, U, eps, xi_hi, zeta)) > 0.0
    left = screen.suspects(screen.every, U, eps, xi_hi, zeta)
    assert 0 < len(left) < len(A14)
    verdicts = set()
    for xi in np.linspace(0.0, xi_hi, 13)[:-1]:
        feasible = bool(_margin_stack(A14, U, eps, xi, zeta).max() <= 0.0)
        assert (screen.suspects(left, U, eps, xi, zeta) is None) == feasible
        verdicts.add(feasible)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(40))
def test_margin_positive_at_abscissa_boundary(seed):
    """Lemma behind the degree skip: a degree zeta with zeta + alpha(A) at the
    skip tolerance fails the margin for any U > 0, eps > 0 and xi."""
    rng = np.random.default_rng(seed)
    m = 8
    A = rng.standard_normal((m, m)) * 10 ** rng.uniform(-1, 1)
    zeta = 10 ** rng.uniform(-2, 2)
    for _ in range(3):  # the tolerance scales with ||A||_F, which the shift moves
        alpha, _, tol = _spectral_abscissa(A[None])
        A = A + (tol - zeta - alpha) * np.eye(m)
    alpha, _, tol = _spectral_abscissa(A[None])
    assert zeta + alpha == pytest.approx(tol, rel=1e-6)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    U = (Q * 10 ** rng.uniform(-2, 0, m)) @ Q.T
    eps = 10 ** rng.uniform(-4, 4) / zeta
    xi = 10 ** rng.uniform(-12, 0)
    assert _margin_stack(A[None], U, eps, xi, zeta)[0] > 0.0


def test_search_tries_degrees_below_a_small_negative_abscissa():
    """With -tau_a < alpha < 0 the bound rules out only degrees above
    tau_a - alpha: the search goes on and certifies one below -alpha."""
    rng = np.random.default_rng(3)
    m = 4
    stack = []
    for _ in range(6):
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        stack.append((Q * -rng.uniform(1.0, 2.0, m)) @ Q.T)
    stack = np.stack(stack)
    for _ in range(3):  # the tolerance scales with ||A||_F, which the shift moves
        alpha, _, tol = _spectral_abscissa(stack)
        stack = stack - (alpha + 0.5 * tol) * np.eye(m)
    alpha, _, tol = _spectral_abscissa(stack)
    assert -tol < alpha < 0.0
    xi, U, eps, zeta, bound, stats = _search_certificate(stack, [np.eye(m)], 1.0, 5)
    assert bound == -alpha
    assert zeta <= -alpha
    assert _margin_stack(stack, U, eps, xi, zeta).max() <= 0.0
    # degrees 1 ... 2^-18 lie above tol - alpha; 2^-19 runs and fails, 2^-20 certifies
    assert (stats["zeta_skipped"], stats["zeta_halvings"]) == (19, 20)
    assert stats["margin_stacks"] > 0


def test_search_fails_fast_on_a_non_hurwitz_vertex(monkeypatch):
    """An unstable vertex rules out every degree: the search raises at once,
    naming the vertex, without screening anything."""
    def no_screen(*args, **kwargs):
        raise AssertionError("the search screened a vertex")

    monkeypatch.setattr(certify, "_below", no_screen)
    monkeypatch.setattr(certify, "_margin_stack", no_screen)
    rng = np.random.default_rng(3)
    m = 4
    stack = np.stack([-np.eye(m) + 0.1 * rng.standard_normal((m, m)) for _ in range(6)])
    stack[4] += 1.5 * np.eye(m)
    alpha = np.linalg.eigvals(stack[4]).real.max()
    assert alpha > 0.0 > np.linalg.eigvals(np.delete(stack, 4, axis=0)).real.max()
    with pytest.raises(SynthesisError, match=f"vertex 4 has spectral abscissa {alpha:.3e}"):
        _search_certificate(stack, [np.eye(m)], 1.0, 5)


# -- synthesis ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def separated_pair_case():
    """Two single-inverter blocks separated by a load bus."""
    return make_case(
        [inverter(0, P=1.0, Q=0.5), inverter(1, P=0.5, Q=0.25),
         z_load(2, G=0.4, B=0.15)],
        [line(0, 2, R=0.03, X=0.12), line(1, 2, R=0.04, X=0.15)],
        [[0, 1]],
    )


def test_synthesize_on_separated_pair(separated_pair_case):
    hull = build_hull(separated_pair_case)
    gains, cert = certify.synthesize_gains(separated_pair_case, hull, stage1_iters=120)
    feas = block_feasibility(gains, hull, d=cert.d - 1e-9)
    assert feas.passed
    report = verify_certificate(separated_pair_case, gains, cert)
    assert report.passed
    # descent from -I keeps the stabilizing sign pattern
    for K in gains.blocks.values():
        assert K[0, 0] < 0 and K[1, 1] < 0


def test_stage1_scalar_hull_returns_negative_definite_direction(separated_pair_case):
    hull = _unit_hull([[0.5 * np.eye(2), 2.0 * np.eye(2)],
                       [0.5 * np.eye(2), 2.0 * np.eye(2)]], [(0,), (1,)])
    gains = stage1_gains(separated_pair_case, hull, iters=80)
    for K in gains.blocks.values():
        sym = K + K.T
        assert np.linalg.eigvalsh(sym)[-1] < 0.0
    feas = block_feasibility(gains, hull, d=1e-6)
    assert feas.passed


def test_stage1_clean_failure_on_sign_indefinite_hull(separated_pair_case):
    D = np.array([[1.0, 0.2], [-0.1, 0.8]])
    hull = _unit_hull([[D, -D], [D, -D]], [(0,), (1,)])
    with pytest.raises(SynthesisError, match="stage 1"):
        stage1_gains(separated_pair_case, hull, iters=40)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_stage1_is_frozen(separated_pair_case):
    """Stage 1 and the two-stage synthesis give, bit for bit, the gains and
    certificate recorded when the capacity box and the rate limits were
    arguments (passed their default values).  The synthesis digest is recorded
    from the complex-form ``LoadBusKCL`` derivative behind ``kappa_bound``
    and ``jacobians``: only its zeta, through zeta_requested, differs from
    the real-form ``full_jacobian``'s.  Both digests are recorded from the
    closed-form rate reach and Schur eps."""
    gains = stage1_gains(separated_pair_case, build_hull(separated_pair_case), iters=80)
    blocks = [gains.blocks[i] for i in sorted(gains.blocks)]
    assert _digest(*blocks, [gains.theta_dot_max, gains.E_dot_max]) == (
        "3a7ded71e6ec22ffc898698e41e0555150bcb68da969b84162460464d2e8b7f6")
    gains, cert = certify.synthesize_gains(separated_pair_case, build_hull(separated_pair_case),
                                           stage1_iters=120)
    blocks = [gains.blocks[i] for i in sorted(gains.blocks)]
    assert _digest(*blocks, cert.U, [cert.eps, cert.xi, cert.zeta, cert.d]) == (
        "328969557035227e05704ad853739227befc64217b4a977fc07b16c766fea7a0")


def test_rate_reach_is_the_capacity_box_maximum(case14):
    """``_reach`` equals max |a (L s_P)_k + b (L s_Q)_k| over every corner of
    the capacity box, where a linear functional attains its maximum: the
    1,024 corners of case14's five-inverter ring."""
    lap = laplacian(case14.comm_edges, case14.inverter_ids)
    m = len(lap.order)
    corners = CAPACITY_MARGIN * np.array(list(itertools.product((0.0, 1.0), repeat=2 * m)))
    mixed_p, mixed_q = corners[:, :m] @ lap.L.T, corners[:, m:] @ lap.L.T
    rng = np.random.default_rng(5)
    for row in [np.array([1.0, 0.0]), np.array([0.0, -3.0])] + list(rng.normal(size=(20, 2))):
        for k in range(m):
            brute = np.abs(row[0] * mixed_p[:, k] + row[1] * mixed_q[:, k]).max()
            assert _reach(row, lap.L[k, k]) == pytest.approx(brute, rel=1e-12)


def test_schur_eps_minimizes_the_surrogate_and_clips():
    """eps * zeta^2 + lmax(U)^2 / eps at ``_schur_surrogate_eps`` is no worse
    than at any point of a dense log grid over [1e-12, 1e6], and the result
    stays inside that interval."""
    rng = np.random.default_rng(3)
    grid = np.logspace(-12.0, 6.0, 4001)
    for _ in range(20):
        A = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3)
        U = A @ A.T + 1e-6 * np.eye(4)
        zeta = 10.0 ** rng.uniform(-4, 2)
        umax = np.linalg.eigvalsh(U)[-1]

        def surrogate(e):
            return e * zeta ** 2 + umax ** 2 / e

        eps = _schur_surrogate_eps(U, zeta)
        assert surrogate(eps) <= surrogate(grid).min() * (1.0 + 1e-12)
    assert _schur_surrogate_eps(np.eye(2), 0.0) == 1e6
    assert _schur_surrogate_eps(np.eye(2), 1e-20) == 1e6
    assert _schur_surrogate_eps(np.eye(2), 1e15) == 1e-12
    assert _schur_surrogate_eps(4.0 * np.eye(2), 2.0) == 2.0


def test_certificate_for_infeasible_gains_raises(separated_pair_case):
    bad = GainSet(blocks={0: np.eye(2) * 0.01, 1: np.eye(2) * 0.01})  # wrong sign
    with pytest.raises(SynthesisError, match="block feasibility"):
        certificate_for_gains(separated_pair_case, bad, build_hull(separated_pair_case))


# -- zeta estimate ----------------------------------------------------------------


def test_zeta_zero_without_loads(two_bus_inductive):
    gains = GainSet(blocks={0: -0.01 * np.eye(2), 1: -0.01 * np.eye(2)})
    est = zeta_estimate(two_bus_inductive, gains, [VoltageProfile.flat(2)])
    assert est.zeta == 0.0
    assert est.kappa == 0.0


def test_zeta_zero_with_zero_gain_single_inverter():
    case = make_case([inverter(0), pq_load(1, P=0.2, Q=0.1)], [line(0, 1)], [])
    gains = GainSet(blocks={0: np.zeros((2, 2))})
    est = zeta_estimate(case, gains, [VoltageProfile.flat(2)])
    assert est.zeta == 0.0
    assert est.gain_norm == 0.0


def test_zeta_recorded_for_bundled(cert14):
    assert cert14.zeta > 0
    assert cert14.meta["zeta_requested"] > cert14.zeta
    assert cert14.meta["zeta_shortfall"] is True


# -- interlacing spot check ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2 ** 30))
def test_principal_submatrix_interlacing(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = 0.5 * (A + A.T)
    c = 0.3
    H -= (np.linalg.eigvalsh(H)[-1] + c) * np.eye(n)
    keep = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    sub = H[np.ix_(keep, keep)]
    assert np.linalg.eigvalsh(sub)[-1] <= -c + 1e-12
