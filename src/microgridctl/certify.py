"""Robust-stability certification machinery.

Builds the orthogonal change of coordinates whose last two directions span
the perfect-sharing space, encloses the normalized-injection Jacobians in
per-block interval hulls evaluated at box/edge-corner combinations, checks
the per-block negative-definiteness conditions and the full quadratic
(Lyapunov + S-procedure) matrix inequalities at hull vertices, and runs a
two-stage subgradient heuristic that synthesizes gains plus a certificate.

The hull is the ``jbar`` kind: its vertex matrices are Jacobian
evaluations at the corner combinations themselves, so their cardinality
grows with the corner count and their entries are mutually consistent.
The disturbance multiplier enters the certificate inequalities as
``eps * zeta**2`` (the ``squared`` zeta mode).  A certificate file names
both in ``hull_kind`` and ``zeta_mode``, and no other value is accepted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .netmodel import (
    AdmittanceMatrix,
    NetworkCase,
    ValidationError,
    bfs_tree,
    case_to_json,
    laplacian,
)
from .controller import GainSet, consensus_patterns, gains_to_json
from .powerflow import VoltageProfile, jacobians, kappa_bound

EIG_TOL = 1e-9  # absolute tolerance on extreme eigenvalues in all checks

HULL_JBAR = "jbar"  # the one hull kind: Jacobian evaluations at corner profiles
ZETA_SQUARED = "squared"  # multiplier enters as eps * zeta^2 (S-procedure on norms)
VERTEX_BUDGET = 200_000  # largest global vertex product checked in full
MAX_CORNER_COMBOS = 2_000_000  # largest per-block corner enumeration


class SynthesisError(RuntimeError):
    """Gain or certificate synthesis failed cleanly (no false certificate)."""


class CertificateError(RuntimeError):
    """A stored certificate is unusable (digest mismatch, bad fields)."""


# ---------------------------------------------------------------------------
# consensus basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsensusBasis:
    """Orthogonal basis whose last two columns span the sharing space."""

    T: np.ndarray
    n_inverters: int

    def __post_init__(self):
        self.T.setflags(write=False)

    @property
    def T1(self) -> np.ndarray:
        """Columns orthogonal to the sharing space (first 2 n_I - 2)."""
        return self.T[:, :-2]


def build_basis(n_inverters: int) -> ConsensusBasis:
    """Deterministic orthogonal completion of the sharing-space patterns.

    Gram-Schmidt of the standard basis against the normalized alternating
    patterns; the two dependent standard vectors drop out, and the
    patterns sit in the last two columns.
    """
    if n_inverters < 2:
        raise ValidationError("consensus basis needs at least 2 inverters")
    m = 2 * n_inverters
    v_p, v_q = consensus_patterns(n_inverters)
    fixed = [v_p / np.linalg.norm(v_p), v_q / np.linalg.norm(v_q)]
    cols: list[np.ndarray] = []
    for k in range(m):
        v = np.zeros(m)
        v[k] = 1.0
        for _ in range(2):  # re-orthogonalize for numerical hygiene
            for w in fixed + cols:
                v -= (w @ v) * w
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            cols.append(v / norm)
        if len(cols) == m - 2:
            break
    T = np.column_stack(cols + fixed)
    return ConsensusBasis(T=T, n_inverters=n_inverters)


def reduced_laplacian(Lbar: np.ndarray, basis: ConsensusBasis) -> np.ndarray:
    """The positive-definite top-left block of T^-1 Lbar T for connected graphs."""
    return basis.T1.T @ Lbar @ basis.T1


# ---------------------------------------------------------------------------
# electrical blocks of the inverter Jacobian
# ---------------------------------------------------------------------------


def blocks_of(case: NetworkCase) -> tuple[tuple[int, ...], ...]:
    """Groups of inverter buses joined by inverter-only electrical paths.

    The normalized-injection Jacobian w.r.t. inverter states is block
    diagonal over these groups.
    """
    inv = case.inverter_ids
    edges = [ln.key for ln in case.lines]
    unvisited = set(inv)
    blocks = []
    while unvisited:
        seed = min(unvisited)
        comp = {seed} | {child for _, child, _, _ in bfs_tree(inv, edges, seed)}
        unvisited -= comp
        blocks.append(tuple(sorted(comp)))
    return tuple(sorted(blocks))


# ---------------------------------------------------------------------------
# angle hypothesis and corner candidates
# ---------------------------------------------------------------------------


def effective_angle(phi: float) -> float:
    """Distance of phi to the nearest multiple of pi, in [0, pi/2].

    The corner property of the Jacobian summands depends on the admittance
    angle only modulo pi, so the hypothesis is evaluated on this folded
    representative: a lossy branch's off-diagonal angle pi - atan(X/R)
    folds to atan(X/R).
    """
    r = math.fmod(abs(phi), math.pi)
    return min(r, math.pi - r)


def hypothesis_violations(case: NetworkCase, Y: AdmittanceMatrix):
    """Lines whose folded admittance angle admits an interior trig extremum.

    A line passes when its folded angle is pi/2 (purely reactive) or
    satisfies |phi_folded| + gamma <= pi/2.  Returns (key, phi, folded)
    triples for the failures.
    """
    bad = []
    for ln in case.lines:
        phi = float(Y.angle[ln.from_bus, ln.to_bus])
        eff = effective_angle(phi)
        if abs(eff - math.pi / 2) <= 1e-9:
            continue
        if eff + case.gamma <= math.pi / 2 + 1e-9:
            continue
        bad.append((ln.key, phi, eff))
    return tuple(bad)


def _stationary_candidates(phi: float, gamma: float):
    """Interior angle-difference values where a summand trig term peaks.

    cos(d - phi) is stationary at d = phi (mod pi), sin(d - phi) at
    d = phi + pi/2 (mod pi); the reversed edge orientation sees the
    negated gap, so the mirrored targets are included too.  Only
    representatives strictly inside (-gamma, gamma) matter, the corners
    and 0 are always enumerated.
    """
    out = set()
    for target in (phi, phi + math.pi / 2, -phi, -phi + math.pi / 2):
        d = target - round(target / math.pi) * math.pi
        if 1e-12 < abs(d) < gamma - 1e-12:
            out.add(round(d, 15))
    return sorted(out)


# ---------------------------------------------------------------------------
# interior samples
# ---------------------------------------------------------------------------


def sample_interior_profiles(case: NetworkCase, count: int, seed: int = 0) -> list[VoltageProfile]:
    """Deterministic random profiles inside the security box.

    Magnitudes are uniform in the voltage box, tree-edge angle gaps
    uniform in (-gamma, gamma); meshes may exceed the limit on non-tree
    lines exactly as in the corner realization.
    """
    rng = np.random.default_rng(seed)
    tree = bfs_tree(range(case.n), [(ln.from_bus, ln.to_bus) for ln in case.lines], 0)
    e_lo, e_hi = case.e_min(), case.e_max()
    out = []
    for _ in range(count):
        E = rng.uniform(e_lo, e_hi)
        delta = rng.uniform(-case.gamma, case.gamma, size=len(case.lines))
        # angles from bus 0 along the tree; non-tree lines inherit the implied gap
        theta = np.zeros(case.n)
        for u, v, idx, sign in tree:
            theta[v] = theta[u] - sign * delta[idx]
        out.append(VoltageProfile(theta=theta, E=E))
    return out


# ---------------------------------------------------------------------------
# per-block entry bounds and vertex matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockBounds:
    """Entrywise bounds and sampled vertex matrices for one inverter block."""

    block: tuple[int, ...]
    relevant_buses: tuple[int, ...]
    J_lo: np.ndarray
    J_hi: np.ndarray
    D_stack: np.ndarray  # (n_combos, 2b, 2b) Jacobian evaluations at corners

    def __post_init__(self):
        if np.any(self.J_lo > self.J_hi + 1e-15):
            raise ValidationError("entry bounds inverted (J_lo > J_hi)")


def entry_bounds(case: NetworkCase, Y: AdmittanceMatrix, block) -> BlockBounds:
    """Entrywise min/max of the block Jacobian over corner profiles.

    The block-restricted corners are realized on the relevant subnetwork: relevant buses are the block plus its
    electrical neighbors, relevant edges those incident to the block.
    Magnitudes take both box corners; angle gaps take {-gamma, 0, gamma}
    plus any interior trig-stationary angles (which keeps the bounds valid
    on lines failing the folded-angle hypothesis) on a spanning tree of
    the relevant subgraph, with non-tree gaps inherited from the realized
    angles.  On meshes this matches the sampled-Jacobian hull semantics:
    corner profiles are angle-consistent, and the interior-containment
    claim is restricted to cycle-consistent states.
    """
    block = tuple(sorted(block))
    inv_set = set(case.inverter_ids)
    if not set(block) <= inv_set:
        raise ValidationError("block must consist of inverter buses")

    adj = case.adjacency()
    relevant = sorted(set(block) | {v for b in block for v in adj[b]})
    edges = [ln for ln in case.lines if ln.from_bus in block or ln.to_bus in block]
    gamma = case.gamma

    # spanning tree of the relevant subgraph (connected: every relevant bus
    # either is in the block or touches it through a relevant edge)
    root = relevant[0]
    tree = bfs_tree(relevant, [(ln.from_bus, ln.to_bus) for ln in edges], root)

    e_choices = [(case.buses[i].E_min, case.buses[i].E_max) for i in relevant]
    tree_slots = [k for _, _, k, _ in tree]
    d_choices = []
    for k in tree_slots:
        ln = edges[k]
        phi = float(Y.angle[ln.from_bus, ln.to_bus])
        d_choices.append(sorted([-gamma, 0.0, gamma] + _stationary_candidates(phi, gamma)))
    n_combos = (2 ** len(relevant)) * int(np.prod([len(c) for c in d_choices] or [1]))
    if n_combos > MAX_CORNER_COMBOS:
        raise ValidationError(
            f"block corner enumeration has {n_combos} combinations (> {MAX_CORNER_COMBOS})"
        )

    grids = np.meshgrid(*(e_choices + d_choices), indexing="ij") if (e_choices or d_choices) else []
    flat = [g.reshape(-1) for g in grids]
    M = flat[0].size if flat else 1
    E_cols = {bus: flat[k] for k, bus in enumerate(relevant)}

    # realize angles along the tree, then read off every relevant edge's gap
    theta_cols = {root: np.zeros(M)}
    for slot, (u, v, k, sign) in enumerate(tree):
        theta_cols[v] = theta_cols[u] - sign * flat[len(relevant) + slot]
    D_cols = {}
    for ln in edges:
        D_cols[ln.key] = theta_cols[ln.from_bus] - theta_cols[ln.to_bus]

    pos = {b: k for k, b in enumerate(block)}
    b = len(block)
    D_stack = np.zeros((M, 2 * b, 2 * b))
    p_star = {i: case.buses[i].P_star for i in block}
    q_star = {i: case.buses[i].Q_star for i in block}
    incident = {i: [] for i in block}
    for ln in edges:
        if ln.from_bus in incident:
            incident[ln.from_bus].append((ln.to_bus, ln.key, +1))
        if ln.to_bus in incident:
            incident[ln.to_bus].append((ln.from_bus, ln.key, -1))

    for i in block:
        pi = pos[i]
        E_i = E_cols[i]
        sum_sin = np.zeros(M)
        sum_cos = np.zeros(M)
        for k_bus, key, sign in incident[i]:
            phi = float(Y.angle[min(i, k_bus), max(i, k_bus)])
            mag = float(Y.magnitude[min(i, k_bus), max(i, k_bus)])
            arg = sign * D_cols[key] - phi
            term = mag * E_cols[k_bus]
            sum_sin += term * np.sin(arg)
            sum_cos += term * np.cos(arg)
        G_ii = float(Y.Y[i, i].real)
        B_ii = float(Y.Y[i, i].imag)
        D_stack[:, 2 * pi, 2 * pi] = (-E_i * sum_sin) / p_star[i]
        D_stack[:, 2 * pi, 2 * pi + 1] = (2.0 * E_i * G_ii + sum_cos) / p_star[i]
        D_stack[:, 2 * pi + 1, 2 * pi] = (E_i * sum_cos) / q_star[i]
        D_stack[:, 2 * pi + 1, 2 * pi + 1] = (-2.0 * E_i * B_ii + sum_sin) / q_star[i]
        for k_bus, key, sign in incident[i]:
            if k_bus not in pos:
                continue
            pj = pos[k_bus]
            phi = float(Y.angle[min(i, k_bus), max(i, k_bus)])
            mag = float(Y.magnitude[min(i, k_bus), max(i, k_bus)])
            arg = sign * D_cols[key] - phi
            s, c = np.sin(arg), np.cos(arg)
            E_j = E_cols[k_bus]
            D_stack[:, 2 * pi, 2 * pj] = (E_i * E_j * mag * s) / p_star[i]
            D_stack[:, 2 * pi, 2 * pj + 1] = (E_i * mag * c) / p_star[i]
            D_stack[:, 2 * pi + 1, 2 * pj] = (-E_i * E_j * mag * c) / q_star[i]
            D_stack[:, 2 * pi + 1, 2 * pj + 1] = (E_i * mag * s) / q_star[i]

    return BlockBounds(
        block=block,
        relevant_buses=tuple(relevant),
        J_lo=D_stack.min(axis=0),
        J_hi=D_stack.max(axis=0),
        D_stack=D_stack,
    )


# ---------------------------------------------------------------------------
# interval hull
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalHull:
    """Per-block hull of the inverter Jacobian over the security set."""

    blocks: tuple[tuple[int, ...], ...]
    per_block: tuple[BlockBounds, ...]
    J_lo: np.ndarray
    J_hi: np.ndarray
    inverter_order: tuple[int, ...]

    def block_positions(self, block_index: int) -> list[int]:
        """Interleaved row/col indices of a block inside the full J_I."""
        order = list(self.inverter_order)
        idx = []
        for i in self.blocks[block_index]:
            p = order.index(i)
            idx.extend([2 * p, 2 * p + 1])
        return idx


def build_hull(case: NetworkCase, Y: AdmittanceMatrix | None = None) -> IntervalHull:
    """Compute per-block entry bounds and stack them into the full hull."""
    from .netmodel import build_admittance

    if Y is None:
        Y = build_admittance(case)
    blocks = blocks_of(case)
    per_block = tuple(entry_bounds(case, Y, blk) for blk in blocks)
    n_i = case.n_inverters
    J_lo = np.zeros((2 * n_i, 2 * n_i))
    J_hi = np.zeros((2 * n_i, 2 * n_i))
    hull = IntervalHull(
        blocks=blocks,
        per_block=per_block,
        J_lo=J_lo,
        J_hi=J_hi,
        inverter_order=case.inverter_ids,
    )
    for bi, bb in enumerate(per_block):
        idx = hull.block_positions(bi)
        J_lo[np.ix_(idx, idx)] = bb.J_lo
        J_hi[np.ix_(idx, idx)] = bb.J_hi
    J_lo.setflags(write=False)
    J_hi.setflags(write=False)
    return hull


# ---------------------------------------------------------------------------
# block feasibility (per-block negative definiteness)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFeasibility:
    passed: bool
    worst: float
    worst_block: tuple[int, ...] | None
    worst_vertex: int
    per_block_worst: tuple[float, ...]
    d: float


def _sym_eig_max(stack: np.ndarray) -> np.ndarray:
    """lambda_max of each symmetric matrix in a (k, m, m) stack."""
    return np.linalg.eigvalsh(stack)[:, -1]


def block_eig_max(D_stack: np.ndarray, K_b: np.ndarray) -> np.ndarray:
    """lambda_max(D K_b + K_b^T D^T) for every vertex matrix D of a block."""
    H = np.einsum("kij,jl->kil", D_stack, K_b)
    return _sym_eig_max(H + H.transpose(0, 2, 1))


def block_feasibility(gains: GainSet, hull: IntervalHull, d: float) -> BlockFeasibility:
    """Check lambda_max(D K_b + K_b^T D^T) <= -d on every block vertex.

    Negative definiteness with uniform margin d over every block hull is
    what the later Schur/Lyapunov step consumes; the worst eigenvalue and
    its attaining vertex are reported.
    """
    worst = -math.inf
    worst_block, worst_vertex = None, -1
    per_block = []
    for bi, blk in enumerate(hull.blocks):
        eigs = block_eig_max(hull.per_block[bi].D_stack, gains.stacked(blk))
        k_star = int(np.argmax(eigs))
        per_block.append(float(eigs[k_star]))
        if eigs[k_star] > worst:
            worst = float(eigs[k_star])
            worst_block, worst_vertex = blk, k_star
    return BlockFeasibility(
        passed=worst <= -d + EIG_TOL,
        worst=worst,
        worst_block=worst_block,
        worst_vertex=worst_vertex,
        per_block_worst=tuple(per_block),
        d=d,
    )


# ---------------------------------------------------------------------------
# global vertex matrices for certificate verification
# ---------------------------------------------------------------------------


def _dedup_stack(stack: np.ndarray) -> np.ndarray:
    flat = stack.reshape(stack.shape[0], -1)
    uniq = np.unique(flat, axis=0)
    return uniq.reshape(-1, *stack.shape[1:])


def _attainer_subset(bb: BlockBounds) -> np.ndarray:
    """Vertices attaining some entrywise extreme (plus nothing else)."""
    idx = set(np.argmin(bb.D_stack, axis=0).ravel().tolist())
    idx |= set(np.argmax(bb.D_stack, axis=0).ravel().tolist())
    return _dedup_stack(bb.D_stack[sorted(idx)])


def certification_vertices(hull: IntervalHull) -> np.ndarray:
    """Global block-diagonal vertex matrices for the quadratic check.

    The full cartesian product of per-block vertex lists when it fits
    VERTEX_BUDGET; otherwise each block list is first reduced to the
    samples that attain some entrywise extreme (the block-level checks
    still sweep the complete lists).
    """
    per_block = [_dedup_stack(bb.D_stack) for bb in hull.per_block]
    total = int(np.prod([len(s) for s in per_block]))
    if total > VERTEX_BUDGET:
        per_block = [_attainer_subset(bb) for bb in hull.per_block]
        total = int(np.prod([len(s) for s in per_block]))
        if total > VERTEX_BUDGET:
            raise ValidationError(
                f"certification vertex product still has {total} matrices (> {VERTEX_BUDGET})"
            )
    n = 2 * len(hull.inverter_order)
    out = np.zeros((total, n, n))
    positions = [hull.block_positions(bi) for bi in range(len(hull.blocks))]
    for k, combo in enumerate(itertools.product(*[range(len(s)) for s in per_block])):
        for bi, vi in enumerate(combo):
            ix = np.ix_([k], positions[bi], positions[bi])
            out[ix] = per_block[bi][vi]
    return out


# ---------------------------------------------------------------------------
# stability certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityCertificate:
    """Quadratic robust-stability certificate (U, eps, xi, zeta, d)."""

    U: np.ndarray
    eps: float
    xi: float
    zeta: float
    d: float
    hull_kind: str = HULL_JBAR
    zeta_mode: str = ZETA_SQUARED
    digest: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        U = np.array(self.U, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValidationError("certificate U must be square")
        if not np.all(np.isfinite(U)):
            raise ValidationError("certificate U must be finite")
        if np.abs(U - U.T).max() > 1e-10 * max(1.0, np.abs(U).max()):
            raise ValidationError("certificate U must be symmetric")
        if np.linalg.eigvalsh(U)[0] <= 0.0:
            raise ValidationError("certificate U must be positive definite")
        for name in ("eps", "xi", "zeta", "d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"certificate field {name} must be positive and finite")
        if self.hull_kind != HULL_JBAR:
            raise CertificateError(f"unsupported hull kind {self.hull_kind!r} (only {HULL_JBAR!r})")
        if self.zeta_mode != ZETA_SQUARED:
            raise CertificateError(
                f"unsupported zeta mode {self.zeta_mode!r} (only {ZETA_SQUARED!r})"
            )
        U.setflags(write=False)
        object.__setattr__(self, "U", U)


def compute_digest(case: NetworkCase, gains: GainSet) -> str:
    payload = case_to_json(case) + "\n" + gains_to_json(gains)
    return hashlib.sha256(payload.encode()).hexdigest()


def certificate_to_json(cert: StabilityCertificate) -> str:
    doc = {
        "U": np.asarray(cert.U).tolist(),
        "eps": cert.eps,
        "xi": cert.xi,
        "zeta": cert.zeta,
        "d": cert.d,
        "hull_kind": cert.hull_kind,
        "zeta_mode": cert.zeta_mode,
        "digest": cert.digest,
        "meta": cert.meta,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_certificate(text: str) -> StabilityCertificate:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"invalid JSON in certificate: {exc}") from None
    try:
        return StabilityCertificate(
            U=np.array(raw["U"], dtype=float),
            eps=float(raw["eps"]),
            xi=float(raw["xi"]),
            zeta=float(raw["zeta"]),
            d=float(raw["d"]),
            hull_kind=raw.get("hull_kind", HULL_JBAR),
            zeta_mode=raw.get("zeta_mode", ZETA_SQUARED),
            digest=raw.get("digest", ""),
            meta=raw.get("meta", {}),
        )
    except (AttributeError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise CertificateError(f"bad certificate ({type(exc).__name__}: {exc})") from None


def load_certificate(path, case: NetworkCase | None = None,
                     gains: GainSet | None = None) -> StabilityCertificate:
    """Load a certificate; with case and gains given, refuse it unless its
    digest is present and matches them."""
    with open(path, "r", encoding="utf-8") as fh:
        cert = parse_certificate(fh.read())
    if case is not None and gains is not None and cert.digest != compute_digest(case, gains):
        raise CertificateError("certificate digest does not match case + gains"
                               if cert.digest else "certificate has no digest to check")
    return cert


# ---------------------------------------------------------------------------
# quadratic matrix-inequality verification
# ---------------------------------------------------------------------------


def reduced_closed_loop(D_stack: np.ndarray, K: np.ndarray, Lbar: np.ndarray,
                        basis: ConsensusBasis) -> np.ndarray:
    """A11 vertices: T1^T D K Lbar T1 for every hull vertex D."""
    R = K @ Lbar @ basis.T1
    return np.einsum("ji,kjl,lm->kim", basis.T1, D_stack, R, optimize=True)


def _margin_stack(A_stack, U, eps, xi, zeta, chunk=4096):
    """Worst-margin lambda_max of the quadratic-form matrix per vertex."""
    m = U.shape[0]
    zz = zeta ** 2
    out = np.empty(A_stack.shape[0])
    eye = np.eye(m)
    for s in range(0, A_stack.shape[0], chunk):
        A = A_stack[s : s + chunk]
        TL = A.transpose(0, 2, 1) @ U + U @ A + (eps * zz) * eye + xi * U
        M = np.empty((A.shape[0], 2 * m, 2 * m))
        M[:, :m, :m] = TL
        M[:, :m, m:] = U
        M[:, m:, :m] = U
        M[:, m:, m:] = -eps * eye
        out[s : s + chunk] = _sym_eig_max(M)
    return out


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    margins: np.ndarray
    worst: float
    worst_vertex: int
    tol: float
    n_vertices: int

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: {self.n_vertices} vertices, worst margin "
            f"{self.worst:.3e} at vertex {self.worst_vertex} (tol {self.tol:.1e})"
        )


def verify_certificate(
    case: NetworkCase,
    gains: GainSet,
    cert: StabilityCertificate,
    vertex_matrices: np.ndarray | None = None,
    tol: float = EIG_TOL,
) -> VerificationReport:
    """Re-check the certificate inequalities at every supplied hull vertex.

    When no vertex matrices are given they are rebuilt from the case.  The
    report carries per-vertex margins;
    the certificate passes when every margin is at most ``tol``.
    """
    if vertex_matrices is None:
        vertex_matrices = certification_vertices(build_hull(case))
    lap = laplacian(case.comm_edges, case.inverter_ids)
    if not lap.connected:
        raise ValidationError("comm graph disconnected; certificate undefined")
    basis = build_basis(case.n_inverters)
    K = gains.stacked(case.inverter_ids)
    A_stack = reduced_closed_loop(vertex_matrices, K, lap.kron2(), basis)
    m = 2 * (case.n_inverters - 1)
    if cert.U.shape != (m, m):
        raise CertificateError(f"certificate U has shape {cert.U.shape}, expected {(m, m)}")
    margins = _margin_stack(A_stack, cert.U, cert.eps, cert.xi, cert.zeta)
    worst = int(np.argmax(margins))
    return VerificationReport(
        passed=bool(margins[worst] <= tol),
        margins=margins,
        worst=float(margins[worst]),
        worst_vertex=worst,
        tol=tol,
        n_vertices=len(margins),
    )


# ---------------------------------------------------------------------------
# disturbance degree estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaEstimate:
    zeta: float
    kappa: float
    max_load_jacobian: float
    gain_norm: float
    sigma_laplacian: float


def zeta_estimate(
    case: NetworkCase,
    gains: GainSet,
    sample_set,
    Y: AdmittanceMatrix | None = None,
    kappa: float | None = None,
) -> ZetaEstimate:
    """Conservative disturbance degree: kappa * max ||J_L|| * ||K|| * sigma_max(Lbar).

    The largest-singular-value factor of the Laplacian converts distance
    to the sharing space into the mixing term's magnitude; it is the
    conservative end of the available constants.
    """
    from .netmodel import build_admittance

    if Y is None:
        Y = build_admittance(case)
    samples = list(sample_set)
    if kappa is None:
        kappa = kappa_bound(case, Y, samples).kappa
    max_jl = 0.0
    if case.load_ids:
        for x in samples:
            max_jl = max(max_jl, float(np.linalg.norm(jacobians(case, Y, x).J_L, 2)))
    K = gains.stacked(case.inverter_ids)
    k_norm = float(np.linalg.norm(K, 2))
    lap = laplacian(case.comm_edges, case.inverter_ids)
    sigma = float(np.linalg.eigvalsh(lap.L)[-1])
    return ZetaEstimate(
        zeta=kappa * max_jl * k_norm * sigma,
        kappa=kappa,
        max_load_jacobian=max_jl,
        gain_norm=k_norm,
        sigma_laplacian=sigma,
    )


# ---------------------------------------------------------------------------
# capacity box (rate-constraint vertices)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityBox:
    """Raw (P, Q) capacity intervals per inverter, in inverter-id order."""

    P_min: np.ndarray
    P_max: np.ndarray
    Q_min: np.ndarray
    Q_max: np.ndarray

    @staticmethod
    def default_from_case(case: NetworkCase, margin: float = 2.0) -> "CapacityBox":
        p = case.p_star()
        q = case.q_star()
        return CapacityBox(
            P_min=np.minimum(0.0, margin * p),
            P_max=np.maximum(0.0, margin * p),
            Q_min=np.minimum(0.0, margin * q),
            Q_max=np.maximum(0.0, margin * q),
        )

    def normalized_box(self, case: NetworkCase):
        """(lo, hi) interleaved bounds of S over the capacity box."""
        p, q = case.p_star(), case.q_star()
        lo = np.empty(2 * len(p))
        hi = np.empty(2 * len(p))
        a, b = self.P_min / p, self.P_max / p
        lo[0::2], hi[0::2] = np.minimum(a, b), np.maximum(a, b)
        a, b = self.Q_min / q, self.Q_max / q
        lo[1::2], hi[1::2] = np.minimum(a, b), np.maximum(a, b)
        return lo, hi


def _rate_row_coeffs(L: np.ndarray, inverter_pos: int, K_row: np.ndarray) -> np.ndarray:
    """Coefficients of K_row . (Lbar s)_pair as a linear functional of s."""
    m = L.shape[0]
    c = np.zeros(2 * m)
    c[0::2] = K_row[0] * L[inverter_pos]
    c[1::2] = K_row[1] * L[inverter_pos]
    return c


def rate_constraint_excess(gains: GainSet, case: NetworkCase, box: CapacityBox) -> float:
    """Worst ratio of |K Lbar s| to its rate bound over the capacity box (<=1 ok)."""
    lo, hi = box.normalized_box(case)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    lap = laplacian(case.comm_edges, case.inverter_ids)
    worst = 0.0
    for k, i in enumerate(lap.order):
        for r, bound in ((0, gains.theta_dot_max), (1, gains.E_dot_max)):
            c = _rate_row_coeffs(lap.L, k, gains.blocks[i][r])
            reach = abs(c @ mid) + np.abs(c) @ half
            worst = max(worst, reach / bound)
    return worst


# ---------------------------------------------------------------------------
# gain synthesis (stage 1) and certificate search (stage 2)
# ---------------------------------------------------------------------------


def _project_rate_rows(K_blocks: dict[int, np.ndarray], case: NetworkCase,
                       gains_limits, box: CapacityBox, only=None, sweeps: int = 8):
    """Cyclic projection of gain rows onto their rate slab constraints.

    Each constraint is |<k_row, c(s-functional)>| <= bound over the
    capacity box; slabs are symmetric so the zero row is always feasible.
    """
    theta_max, e_max = gains_limits
    lo, hi = box.normalized_box(case)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    lap = laplacian(case.comm_edges, case.inverter_ids)
    for k, i in enumerate(lap.order):
        if only is not None and i not in only:
            continue
        Lrow = lap.L[k]
        m = len(lap.order)
        base = np.zeros((2, 2 * m))
        base[0, 0::2] = Lrow
        base[1, 1::2] = Lrow
        for r, bound in ((0, theta_max), (1, e_max)):
            row = K_blocks[i][r].copy()
            for _ in range(sweeps):
                c = row[0] * base[0] + row[1] * base[1]
                center = c @ mid
                spread = np.abs(c) @ half
                reach = abs(center) + spread
                if reach <= bound:
                    break
                g = np.array(
                    [
                        np.sign(center) * (base[0] @ mid) + (np.sign(c) * base[0]) @ half,
                        np.sign(center) * (base[1] @ mid) + (np.sign(c) * base[1]) @ half,
                    ]
                )
                gn2 = g @ g
                if gn2 < 1e-30:
                    row *= bound / max(reach, 1e-30)
                    break
                row -= (reach - bound) / gn2 * g
            c = row[0] * base[0] + row[1] * base[1]
            reach = abs(c @ mid) + np.abs(c) @ half
            if reach > bound:
                row *= bound / reach
            K_blocks[i][r] = row
    return K_blocks


def _stage1_block(case, blk, D, rate_limits, box, iters):
    """Minimize the block spectral abscissa from a few starting directions."""
    D_mean = D.mean(axis=0)
    inits = [{i: -np.eye(2) for i in blk}]
    inv_init = {}
    for p, i in enumerate(blk):
        sub = D_mean[2 * p : 2 * p + 2, 2 * p : 2 * p + 2]
        try:
            inv_init[i] = -np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            inv_init = None
            break
    if inv_init:
        inits.append(inv_init)

    def abscissa(kb):
        H = np.einsum("kij,jl->kil", D, kb)
        H = H + H.transpose(0, 2, 1)
        return np.linalg.eigh(H)

    best_blocks, best_margin = None, math.inf
    b = len(blk)
    for init in inits:
        K_blocks = {i: K.copy() for i, K in init.items()}
        _project_rate_rows(K_blocks, case, rate_limits, box, only=set(blk))
        kb = np.zeros((2 * b, 2 * b))
        for t in range(iters):
            for p, i in enumerate(blk):
                kb[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = K_blocks[i]
            vals, vecs = abscissa(kb)
            k_star = int(np.argmax(vals[:, -1]))
            lam = float(vals[k_star, -1])
            # normalize by the gain scale so margins are comparable across scales
            scale = max(np.abs(kb).max(), 1e-12)
            if lam / scale < best_margin:
                best_margin = lam / scale
                best_blocks = {i: K.copy() for i, K in K_blocks.items()}
            u = vecs[k_star][:, -1]
            G = 2.0 * np.outer(D[k_star].T @ u, u)
            step = 0.5 * scale / (np.abs(G).max() + 1e-30) / math.sqrt(t + 1.0)
            for p, i in enumerate(blk):
                K_blocks[i] = K_blocks[i] - step * G[2 * p : 2 * p + 2, 2 * p : 2 * p + 2]
            _project_rate_rows(K_blocks, case, rate_limits, box, only=set(blk))
    return best_blocks


def stage1_gains(
    case: NetworkCase,
    hull: IntervalHull,
    rate_limits: tuple[float, float],
    box: CapacityBox,
    iters: int = 300,
    min_margin: float = 1e-8,
) -> GainSet:
    """Subgradient descent on the per-block spectral abscissa.

    Minimizes max_D lambda_max(D K_b + K_b^T D^T) per block, projected
    onto the rate-limit slabs; afterwards the gains are scaled to the
    constraint boundary (the margin scales with the gains).  Raises
    SynthesisError when no negative margin is found.
    """
    theta_max, e_max = rate_limits
    K_blocks = {}
    for blk, bb in zip(hull.blocks, hull.per_block):
        K_blocks.update(_stage1_block(case, blk, bb.D_stack, rate_limits, box, iters))

    gains = GainSet(blocks={i: K.copy() for i, K in K_blocks.items()},
                    theta_dot_max=theta_max, E_dot_max=e_max)
    # push to the rate boundary: margins are linear in the gain scale
    excess = rate_constraint_excess(gains, case, box)
    if excess > 0.0:
        factor = 0.999 / excess
        gains = GainSet(
            blocks={i: K * factor for i, K in gains.blocks.items()},
            theta_dot_max=theta_max,
            E_dot_max=e_max,
        )
    feas = block_feasibility(gains, hull, d=min_margin)
    if not feas.passed:
        raise SynthesisError(
            f"stage 1 found no definite gain direction (worst eigenvalue {feas.worst:.3e})"
        )
    return gains


def _golden_min(f, lo: float, hi: float, iters: int = 40):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _schur_surrogate_eps(U: np.ndarray, zeta: float) -> float:
    """Golden-section on the scalar Schur trade-off eps*z + lmax(U)^2/eps."""
    zz = max(zeta ** 2, 1e-16)
    umax = float(np.linalg.eigvalsh(U)[-1])
    log_eps, _ = _golden_min(
        lambda le: (10.0 ** le) * zz + umax ** 2 / (10.0 ** le), -12.0, 6.0
    )
    return 10.0 ** log_eps


def _cvxpy_or_none():
    try:
        import cvxpy
    except ImportError:
        return None
    return cvxpy


def _lmi_max_slack(A_sub: np.ndarray, xi: float, zeta: float):
    """Max-slack (U, eps) for the fixed-xi inequalities on a constraint subset.

    With the gains fixed, xi and zeta fixed, the quadratic-form conditions
    are linear in (U, eps): this is a plain semidefinite feasibility
    problem handed to an off-the-shelf convex solver.
    """
    cp = _cvxpy_or_none()
    if cp is None:
        return None
    m = A_sub.shape[1]
    zz = zeta ** 2
    eye = np.eye(m)
    U = cp.Variable((m, m), symmetric=True)
    eps = cp.Variable()
    t = cp.Variable()
    cons = [U >> 1e-8 * eye, U << eye, eps >= 1e-10]
    for A in A_sub:
        TL = A.T @ U + U @ A + (zz * eps) * eye + xi * U
        M = cp.bmat([[TL, U], [U, -eps * eye]])
        cons.append(M << -t * np.eye(2 * m))
    prob = cp.Problem(cp.Maximize(t), cons)
    for solver in ("CLARABEL", "SCS"):
        try:
            prob.solve(solver=solver)
        except cp.error.SolverError:
            continue
        if prob.status in ("optimal", "optimal_inaccurate") and U.value is not None:
            Uv = 0.5 * (np.array(U.value) + np.array(U.value).T)
            return Uv, float(eps.value), float(t.value)
    return None


def certificate_for_gains(
    case: NetworkCase,
    gains: GainSet,
    hull: IntervalHull | None = None,
    zeta: float | None = None,
    u_steps: int = 25,
    xi_resolution: float = 1e-6,
    samples=None,
    method: str = "auto",
) -> StabilityCertificate:
    """Stage 2: search (U, eps, xi) certifying the given gains.

    U starts from simple positive-definite guesses (identity and the
    reduced Laplacian) and is polished by eigenvalue-subgradient steps;
    eps comes from a golden-section on the scalar Schur surrogate, xi from
    upward bisection while the vertex margins stay nonpositive.  With the
    gains fixed the per-xi subproblem is a plain LMI, so when a convex
    solver is importable (``method="auto"``/``"lmi"``) the (U, eps) pair
    is instead solved exactly per bisection step with constraint
    generation, which lands the certificate at the joint optimum and
    leaves no slack for a corrupted U to hide in.  When the estimated
    disturbance degree is not certifiable the degree is bisected down and
    the shortfall is recorded in the metadata.  Failure raises
    SynthesisError; no certificate is ever returned unverified.
    """
    if hull is None:
        hull = build_hull(case)
    if case.n_inverters < 2:
        raise SynthesisError("certificates need at least two inverters")
    lap = laplacian(case.comm_edges, case.inverter_ids)
    if not lap.connected:
        raise SynthesisError("comm graph disconnected")
    feas = block_feasibility(gains, hull, d=1e-12)
    if not feas.passed:
        raise SynthesisError(
            f"block feasibility fails (worst eigenvalue {feas.worst:.3e}); no certificate"
        )
    d_margin = -feas.worst

    if zeta is None:
        if samples is None:
            samples = sample_interior_profiles(case, 64, seed=2024)
            samples.append(VoltageProfile.flat(case.n))
        zeta = zeta_estimate(case, gains, samples).zeta
    zeta_requested = max(zeta, 1e-12)

    basis = build_basis(case.n_inverters)
    K = gains.stacked(case.inverter_ids)
    Lbar = lap.kron2()
    vmats = certification_vertices(hull)
    A_stack = reduced_closed_loop(vmats, K, Lbar, basis)
    m = 2 * (case.n_inverters - 1)

    Lbar1 = reduced_laplacian(Lbar, basis)
    candidates = [np.eye(m), Lbar1 / np.linalg.eigvalsh(Lbar1)[-1]]

    def worst_margin(U, eps, xi, z):
        return float(np.max(_margin_stack(A_stack, U, eps, xi, z)))

    def descend_U(U, eps, xi, z, budget):
        """Eigenvalue-subgradient steps on the worst vertex margin w.r.t. U."""
        zz = z ** 2
        for step_idx in range(budget):
            margins = _margin_stack(A_stack, U, eps, xi, z)
            k_star = int(np.argmax(margins))
            if margins[k_star] <= 0.0:
                return U, True
            A = A_stack[k_star]
            TL = A.T @ U + U @ A + eps * zz * np.eye(m) + xi * U
            M = np.block([[TL, U], [U, -eps * np.eye(m)]])
            _, V = np.linalg.eigh(M)
            u_vec = V[:, -1]
            u_z, u_w = u_vec[:m], u_vec[m:]
            c = A @ u_z + u_w + 0.5 * xi * u_z
            G = np.outer(c, u_z) + np.outer(u_z, c)
            U = U - 0.5 / math.sqrt(step_idx + 1.0) / (np.abs(G).max() + 1e-30) * G
            w_u, V_u = np.linalg.eigh(U)
            w_u = np.maximum(w_u, 1e-8 * max(w_u[-1], 1e-12))
            U = (V_u * w_u) @ V_u.T
            U /= np.linalg.eigvalsh(U)[-1]
            eps = _schur_surrogate_eps(U, z)
        margins = _margin_stack(A_stack, U, eps, xi, z)
        return U, bool(np.max(margins) <= 0.0)

    def bisect_xi(U, eps, z):
        """Largest feasible xi for fixed (U, eps), to the stated resolution."""
        if worst_margin(U, eps, 1e-12, z) > 0.0:
            return None
        xi_lo, xi_hi = 1e-12, 1e-6
        while worst_margin(U, eps, xi_hi, z) <= 0.0 and xi_hi < 1e6:
            xi_lo = xi_hi
            xi_hi *= 2.0
        while xi_hi - xi_lo > xi_resolution:
            mid = 0.5 * (xi_lo + xi_hi)
            if worst_margin(U, eps, mid, z) <= 0.0:
                xi_lo = mid
            else:
                xi_hi = mid
        return xi_lo

    def optimize_subgradient(z):
        """Alternate xi-bisection with U improvement at a raised xi target."""
        best = None
        for U0 in candidates:
            U = U0.copy()
            eps = _schur_surrogate_eps(U, z)
            U, ok = descend_U(U, eps, 1e-12, z, u_steps)
            if not ok:
                continue
            eps = _schur_surrogate_eps(U, z)
            xi = bisect_xi(U, eps, z)
            if xi is None:
                continue
            for _ in range(u_steps):
                target = xi + max(0.05 * xi, 10.0 * xi_resolution)
                U_try, ok = descend_U(U.copy(), eps, target, z, u_steps)
                if not ok:
                    break
                eps_try = _schur_surrogate_eps(U_try, z)
                xi_try = bisect_xi(U_try, eps_try, z)
                if xi_try is None or xi_try <= xi + xi_resolution:
                    break
                U, eps, xi = U_try, eps_try, xi_try
            if best is None or xi > best[0]:
                best = (xi, U.copy(), eps)
        return best

    active: list[int] = []

    def lmi_feasible(z, xi):
        """Exact max-slack solve at fixed xi via constraint generation."""
        nonlocal active
        if not active:
            margins0 = _margin_stack(A_stack, candidates[0], 1.0, xi, z)
            active = list(np.argsort(margins0)[-min(48, len(margins0)):])
        for _ in range(24):
            res = _lmi_max_slack(A_stack[active], xi, z)
            if res is None:
                return None
            U, eps, t = res
            if t <= 1e-12 or eps <= 0.0 or np.linalg.eigvalsh(U)[0] <= 0.0:
                return None
            margins = _margin_stack(A_stack, U, eps, xi, z)
            worst = float(margins.max())
            if worst <= -0.5 * t or (worst <= 0.0 and t <= 1e-9):
                return U, eps, t
            new = [int(k) for k in np.argsort(margins)[-16:] if k not in active]
            if not new:
                return (U, eps, t) if worst <= 0.0 else None
            active.extend(new)
        return None

    def optimize_lmi(z):
        """Bisect xi with the per-xi LMI subproblem solved exactly."""
        nonlocal active
        active = []
        sol = lmi_feasible(z, 1e-9)
        if sol is None:
            return None
        best = (1e-9,) + sol
        xi_lo, xi_hi = 1e-9, 1e-3
        while True:
            trial = lmi_feasible(z, xi_hi)
            if trial is None:
                break
            best = (xi_hi,) + trial
            xi_lo = xi_hi
            xi_hi *= 2.0
            if xi_hi > 1e6:
                break
        while xi_hi - xi_lo > xi_resolution:
            mid = 0.5 * (xi_lo + xi_hi)
            trial = lmi_feasible(z, mid)
            if trial is None:
                xi_hi = mid
            else:
                best = (mid,) + trial
                xi_lo = mid
        xi, U, eps, _ = best
        return xi, U, eps

    if method == "auto":
        method = "lmi" if _cvxpy_or_none() is not None else "subgradient"
    if method not in ("lmi", "subgradient"):
        raise ValidationError(f"unknown certificate search method {method!r}")
    optimize_at = optimize_lmi if method == "lmi" else optimize_subgradient

    found = optimize_at(zeta_requested)
    z_used = zeta_requested
    halvings = 0
    while found is None and halvings < 48:
        z_used *= 0.5
        halvings += 1
        found = optimize_at(z_used)
    if found is None:
        raise SynthesisError("stage 2 found no certificate at any disturbance degree")
    xi, U, eps = found

    cert = StabilityCertificate(
        U=U,
        eps=eps,
        xi=max(xi, 1e-12),
        zeta=z_used,
        d=max(d_margin, 1e-12),
        digest=compute_digest(case, gains),
        meta={
            "zeta_requested": zeta_requested,
            "zeta_shortfall": z_used < zeta_requested,
            "n_vertices": int(A_stack.shape[0]),
            "block_worst_eig": feas.worst,
            "search_method": method,
        },
    )
    report = verify_certificate(case, gains, cert, vertex_matrices=vmats)
    if not report.passed:
        raise SynthesisError(
            f"stage 2 candidate failed re-verification (worst {report.worst:.3e})"
        )
    return cert


def synthesize_gains(
    case: NetworkCase,
    hull: IntervalHull | None = None,
    rate_limits: tuple[float, float] | None = None,
    capacity: CapacityBox | None = None,
    zeta: float | None = None,
    stage1_iters: int = 400,
) -> tuple[GainSet, StabilityCertificate]:
    """Full two-stage synthesis: gains via per-block subgradient descent,
    then a certificate for the result.  Clean SynthesisError on failure.
    """
    from .controller import DEFAULT_E_DOT_MAX, DEFAULT_THETA_DOT_MAX

    if hull is None:
        hull = build_hull(case)
    if rate_limits is None:
        rate_limits = (DEFAULT_THETA_DOT_MAX, DEFAULT_E_DOT_MAX)
    if capacity is None:
        capacity = CapacityBox.default_from_case(case)
    gains = stage1_gains(case, hull, rate_limits, capacity, iters=stage1_iters)
    cert = certificate_for_gains(case, gains, hull, zeta=zeta)
    return gains, cert
