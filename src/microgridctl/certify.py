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

Every vertex sweep (corner Jacobians, block eigenvalues, certification
vertices, their A11 matrices and margins) goes through its stack
VERTEX_CHUNK vertices at a time, so its working memory is set by the
chunk, not by the stack.  Each vertex's result is computed on its own, so
the results are bit for bit those of one whole-stack sweep.  Only the
search's screen ``_below`` runs over its whole A11 stack at once, which
is faster there.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .netmodel import (
    AdmittanceMatrix,
    CaseError,
    LoadArrays,
    NetworkCase,
    ValidationError,
    bfs_tree,
    build_admittance,
    case_to_json,
    decode,
    json_floats,
    json_matrix,
    known_keys,
    laplacian,
)
from .controller import (
    DEFAULT_E_DOT_MAX,
    DEFAULT_THETA_DOT_MAX,
    GainSet,
    consensus_patterns,
    gains_to_json,
)
from .powerflow import LoadBusKCL, VoltageProfile, full_jacobian, interleave, kappa_bound
from .contingency import OperatingCondition

EIG_TOL = 1e-9  # absolute tolerance on extreme eigenvalues in all checks

HULL_JBAR = "jbar"  # the one hull kind: Jacobian evaluations at corner profiles
ZETA_SQUARED = "squared"  # multiplier enters as eps * zeta^2 (S-procedure on norms)
VERTEX_BUDGET = 200_000  # largest global vertex product checked in full
MAX_CORNER_COMBOS = 2_000_000  # largest per-block corner enumeration
VERTEX_CHUNK = 256  # vertices per slice of every vertex sweep: its working memory scales with this
XI_RESOLUTION = 1e-6  # stage 2 bisects xi to this width
ZETA_HALVINGS = 48  # stage 2 halves the disturbance degree at most this often
ABSCISSA_TOL = 1e-6  # relative slack on the vertex spectral abscissa (certificate_for_gains)
ZETA_SAMPLES, ZETA_SEED = 64, 2024  # interior profiles (plus flat) behind stage 2's zeta estimate
STAGE1_MIN_MARGIN = 1e-8  # block margin stage 1 must reach
RATE_SWEEPS = 8  # subgradient projections per gain row onto its rate constraint
CAPACITY_MARGIN = 2.0  # capacity box of the rate constraints: [0, 2 P*] x [0, 2 Q*] per inverter


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


def sample_interior_profiles(case: NetworkCase, count: int, seed: int) -> list[VoltageProfile]:
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

    The block-restricted corners are realized on the relevant subnetwork:
    relevant buses are the block plus its electrical neighbors, relevant
    edges those incident to the block.  Magnitudes take both box corners;
    angle gaps take {-gamma, 0, gamma} plus any interior trig-stationary
    angles (which keeps the bounds valid on lines failing the folded-angle
    hypothesis) on a spanning tree of the relevant subgraph, with non-tree
    gaps inherited from the realized angles.  On meshes this matches the
    sampled-Jacobian hull semantics: corner profiles are angle-consistent,
    and the interior-containment claim is restricted to cycle-consistent
    states.

    ``D_stack`` holds one vertex per corner profile, in meshgrid order:
    the normalized block Jacobian that ``full_jacobian`` over the relevant
    subnetwork's admittance gives (the block's rows and columns, each row
    divided by its P* or Q*), evaluated VERTEX_CHUNK profiles at a time.
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
    d_choices = []
    for _, _, k, _ in tree:
        ln = edges[k]
        phi = float(Y.angle[ln.from_bus, ln.to_bus])
        d_choices.append(sorted([-gamma, 0.0, gamma] + _stationary_candidates(phi, gamma)))
    n_combos = (2 ** len(relevant)) * int(np.prod([len(c) for c in d_choices] or [1]))
    if n_combos > MAX_CORNER_COMBOS:
        raise ValidationError(
            f"block corner enumeration has {n_combos} combinations (> {MAX_CORNER_COMBOS})"
        )

    grids = np.meshgrid(*(e_choices + d_choices), indexing="ij")
    flat = [g.reshape(-1) for g in grids]
    E = np.stack(flat[: len(relevant)], axis=-1)  # one row of relevant magnitudes per combination

    # realize angles along the tree; non-tree gaps follow from them
    at = {bus: k for k, bus in enumerate(relevant)}
    theta = np.zeros_like(E)
    for slot, (u, v, _, sign) in enumerate(tree):
        theta[:, at[v]] = theta[:, at[u]] - sign * flat[len(relevant) + slot]

    rows = [at[i] for i in block]
    Y_rel = AdmittanceMatrix(Y=Y.Y[np.ix_(relevant, relevant)])
    scale = np.array([[case.buses[i].P_star, case.buses[i].Q_star] for i in block]).reshape(-1, 1)
    # unconnected block pairs come out as -0.0 or +0.0; + 0.0 makes them all +0.0, so the
    # stack keeps the bits cert14's attainer subset depends on (ROADMAP item 2)
    D_stack = np.empty((n_combos, 2 * len(rows), 2 * len(rows)))
    for s in range(0, n_combos, VERTEX_CHUNK):
        part = slice(s, s + VERTEX_CHUNK)
        D_stack[part] = interleave(full_jacobian(Y_rel, theta[part], E[part], rows=rows),
                                   rows) / scale + 0.0

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
        return [2 * order.index(i) + r for i in self.blocks[block_index] for r in (0, 1)]

    @cached_property
    def vertex_lists(self) -> tuple[tuple[np.ndarray, ...], int]:
        """Per-block vertex lists of the quadratic check and the size of the
        full product: the corner stacks when that product fits
        VERTEX_BUDGET, else each stack's samples attaining some entrywise
        extreme (the block-level checks still sweep the complete stacks)."""
        per_block = [bb.D_stack for bb in self.per_block]
        n_product = int(np.prod([len(s) for s in per_block]))
        if n_product > VERTEX_BUDGET:
            per_block = [_attainer_subset(bb) for bb in self.per_block]
            total = int(np.prod([len(s) for s in per_block]))
            if total > VERTEX_BUDGET:
                raise ValidationError(
                    f"certification vertex product still has {total} matrices (> {VERTEX_BUDGET})"
                )
        return tuple(per_block), n_product


def build_hull(case: NetworkCase) -> IntervalHull:
    """Compute per-block entry bounds and stack them into the full hull."""
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
    d: float


@dataclass(frozen=True)
class InheritedFeasibility:
    """Result of re-checking block feasibility on the surviving inverters."""

    checked: bool
    passed: bool
    worst: float
    margin: float
    reason: str


def _worst_block_eig(gains: GainSet, hull: IntervalHull, keep) -> float:
    """Largest lambda_max(D K_b + K_b^T D^T) over the block vertices of ``keep``.

    A block that keeps all its inverters uses its whole vertex stack; one
    that keeps some uses the survivors' principal submatrices, and one that
    keeps none is skipped.  -inf when no block keeps an inverter.
    """
    worst = -np.inf
    for blk, bb in zip(hull.blocks, hull.per_block):
        kept = [i for i in blk if i in keep]
        if not kept:
            continue
        idx = [2 * p + r for p, i in enumerate(blk) if i in keep for r in (0, 1)]
        K = gains.stacked(kept)
        for s in range(0, len(bb.D_stack), VERTEX_CHUNK):
            D = bb.D_stack[s : s + VERTEX_CHUNK]
            if len(kept) < len(blk):
                D = D[:, idx][:, :, idx]
            H = np.einsum("kij,jl->kil", D, K)
            worst = max(worst, float(np.linalg.eigvalsh(H + H.transpose(0, 2, 1))[:, -1].max()))
    return worst


def block_feasibility(gains: GainSet, hull: IntervalHull, d: float) -> BlockFeasibility:
    """Check lambda_max(D K_b + K_b^T D^T) <= -d on every block vertex.

    Negative definiteness with uniform margin d over every block hull is
    what the later Schur/Lyapunov step consumes; the worst eigenvalue over
    all blocks is reported.
    """
    worst = _worst_block_eig(gains, hull, {i for blk in hull.blocks for i in blk})
    return BlockFeasibility(passed=worst <= -d + EIG_TOL, worst=worst, d=d)


def inherited_feasibility(gains: GainSet, hull: IntervalHull, condition: OperatingCondition,
                          d: float) -> InheritedFeasibility:
    """Direct re-check of the per-block conditions on the survivor set.

    The survivor Jacobian hull vertices are principal submatrices of the
    full-system ones, so (Cauchy interlacing) a connected survivor set can
    only improve the margin; the check is run anyway rather than trusted.
    Disconnected survivor comm graphs are reported as skipped, outside the
    guarantee.
    """
    reason = "survivor comm graph disconnected"
    if condition.connected:
        worst = _worst_block_eig(gains, hull, set(condition.active_inverters))
        if worst > -np.inf:
            return InheritedFeasibility(checked=True, passed=worst <= -d + EIG_TOL,
                                        worst=worst, margin=-worst, reason="")
        reason = "no surviving inverters"
    nan = float("nan")
    return InheritedFeasibility(checked=False, passed=False, worst=nan, margin=nan, reason=reason)


# ---------------------------------------------------------------------------
# global vertex matrices for certificate verification
# ---------------------------------------------------------------------------


def _attainer_subset(bb: BlockBounds) -> np.ndarray:
    """Vertices attaining some entrywise extreme (plus nothing else)."""
    idx = set(np.argmin(bb.D_stack, axis=0).ravel().tolist())
    idx |= set(np.argmax(bb.D_stack, axis=0).ravel().tolist())
    return bb.D_stack[sorted(idx)]


def _vertex_slices(hull: IntervalHull):
    """The matrices of ``certification_vertices(hull)``, VERTEX_CHUNK at a time."""
    per_block, _ = hull.vertex_lists
    sizes = [len(s) for s in per_block]
    positions = [np.array(hull.block_positions(bi)) for bi in range(len(per_block))]
    n, total = 2 * len(hull.inverter_order), int(np.prod(sizes))
    for s in range(0, total, VERTEX_CHUNK):
        picks = np.unravel_index(np.arange(s, min(s + VERTEX_CHUNK, total)), sizes)
        out = np.zeros((len(picks[0]), n, n))
        for pos, vertices, pick in zip(positions, per_block, picks):
            out[:, pos[:, None], pos] = vertices[pick]
        yield out


def certification_vertices(hull: IntervalHull) -> np.ndarray:
    """Global block-diagonal vertex matrices for the quadratic check.

    One matrix per combination of the lists in ``hull.vertex_lists``, in
    ``itertools.product`` order (the last block varies fastest).
    """
    return np.concatenate(list(_vertex_slices(hull)))


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
    doc = {f.name: getattr(cert, f.name) for f in fields(cert)} | {"U": cert.U.tolist()}
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_certificate(text: str) -> StabilityCertificate:
    """A certificate from its JSON text, its digest unchecked; every problem
    with the text, an unknown top-level key included, is a CertificateError."""
    try:
        return decode(text, "certificate", _certificate_from_json)
    except CaseError as exc:
        raise CertificateError(str(exc)) from None


def _certificate_from_json(raw) -> StabilityCertificate:
    known_keys(raw, [f.name for f in fields(StabilityCertificate)], "certificate")
    numbers = json_floats(raw, ("eps", "xi", "zeta", "d"), "certificate")
    return StabilityCertificate(**raw | numbers | {"U": json_matrix(raw["U"], "certificate U")})


def load_certificate(path, case: NetworkCase, gains: GainSet) -> StabilityCertificate:
    """Load a certificate and refuse it unless its digest is present and
    matches case and gains."""
    cert = parse_certificate(Path(path).read_text(encoding="utf-8"))
    if cert.digest != compute_digest(case, gains):
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


def _margin_stack(A_stack, U, eps, xi, zeta):
    """Worst-margin lambda_max of the quadratic-form matrix per vertex."""
    m = U.shape[0]
    zz = zeta ** 2
    out = np.empty(A_stack.shape[0])
    eye = np.eye(m)
    for s in range(0, A_stack.shape[0], VERTEX_CHUNK):
        A = A_stack[s : s + VERTEX_CHUNK]
        TL = A.transpose(0, 2, 1) @ U + U @ A + (eps * zz) * eye + xi * U
        M = np.empty((A.shape[0], 2 * m, 2 * m))
        M[:, :m, :m] = TL
        M[:, :m, m:] = U
        M[:, m:, :m] = U
        M[:, m:, m:] = -eps * eye
        out[s : s + VERTEX_CHUNK] = np.linalg.eigvalsh(M)[:, -1]
    return out


def _below(A_last, U, eps, xi, zeta, level):
    """Vertices whose margin provably lies at least EIG_TOL below ``level``.

    ``A_last`` holds the A11 vertices with the vertex index last, (m, m, n).
    With s = eps + level, M - level I = S^T diag(N, -s I) S for
    S = [[I, 0], [-U/s, I]] and N = A^T U + U A + (eps zeta^2 - level) I
    + xi U + U^2/s.  If N <= -tau I then
    lambda_max(M) <= level - min(tau, s) / (1 + ||U||_2 / s)^2, so with
    tau = EIG_TOL (1 + ||U||_2 / s)^2 a vertex whose -N - tau I passes an
    LDL^T (Cholesky) elimination lies at least EIG_TOL below ``level``;
    when s <= tau nothing is flagged.  tau >= EIG_TOL dominates the
    rounding of forming and factoring N (a small multiple of machine
    epsilon times ||N||) by orders of magnitude whenever ||N|| << 1e6.
    """
    m, n = U.shape[0], A_last.shape[-1]
    s = eps + level
    tau = EIG_TOL * (1.0 + np.linalg.norm(U, 2) / s) ** 2 if s > 0.0 else math.inf
    if s <= tau:
        return np.zeros(n, dtype=bool)
    UA = (U @ A_last.reshape(m, -1)).reshape(m, m, n)
    B = UA + UA.transpose(1, 0, 2)  # N + tau I, vertex index last
    B += ((eps * zeta ** 2 - level + tau) * np.eye(m) + xi * U + (U @ U) / s)[:, :, None]
    ok = np.ones(n, dtype=bool)
    for j in range(m):  # one elimination step for the whole stack; B must stay negative definite
        pivot = B[j, j]
        ok &= pivot < 0.0
        col = B[j + 1 :, j] / np.where(ok, pivot, -1.0)
        B[j + 1 :, j + 1 :] -= col[:, None, :] * B[j, None, j + 1 :]
    return ok


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    margins: np.ndarray
    worst: float
    worst_vertex: int
    tol: float
    n_vertices: int
    n_product: int | None  # full per-block product size; None for supplied vertices

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.n_product is None or self.n_product == self.n_vertices:
            scope = f"{status}: {self.n_vertices} vertices"
        else:
            scope = f"{status} on {self.n_vertices}-vertex attainer subset of {self.n_product}"
        return (
            f"{scope}, worst margin {self.worst:.3e} at vertex {self.worst_vertex} "
            f"(tol {self.tol:.1e})"
        )


def verify_certificate(
    case: NetworkCase,
    gains: GainSet,
    cert: StabilityCertificate,
    vertex_matrices: np.ndarray | None = None,
    hull: IntervalHull | None = None,
) -> VerificationReport:
    """Re-check the certificate inequalities at every supplied hull vertex.

    When no vertex matrices are given they come from ``hull``
    (``certification_vertices``), which is built from the case when not
    given either, and the report names the size of the full per-block
    product next to the number of vertices checked; giving both is a
    ValueError.  The vertices are swept VERTEX_CHUNK at a time.  The
    report carries per-vertex margins; the certificate passes when every
    margin is at most ``EIG_TOL``.
    """
    if vertex_matrices is not None and hull is not None:
        raise ValueError("give vertex_matrices or hull, not both")
    n_product = None
    if vertex_matrices is None:
        hull = build_hull(case) if hull is None else hull
        slices, n_product = _vertex_slices(hull), hull.vertex_lists[1]
    else:
        slices = (vertex_matrices[s : s + VERTEX_CHUNK]
                  for s in range(0, len(vertex_matrices), VERTEX_CHUNK))
    lap = laplacian(case.comm_edges, case.inverter_ids)
    if not lap.connected:
        raise ValidationError("comm graph disconnected; certificate undefined")
    m = 2 * (case.n_inverters - 1)
    if cert.U.shape != (m, m):
        raise CertificateError(f"certificate U has shape {cert.U.shape}, expected {(m, m)}")
    basis = build_basis(case.n_inverters)
    K, Lbar = gains.stacked(case.inverter_ids), lap.kron2()
    margins = np.concatenate([
        _margin_stack(reduced_closed_loop(D, K, Lbar, basis), cert.U, cert.eps, cert.xi, cert.zeta)
        for D in slices])
    worst = int(np.argmax(margins))
    return VerificationReport(
        passed=bool(margins[worst] <= EIG_TOL),
        margins=margins,
        worst=float(margins[worst]),
        worst_vertex=worst,
        tol=EIG_TOL,
        n_vertices=len(margins),
        n_product=n_product,
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
) -> ZetaEstimate:
    """Conservative disturbance degree: kappa * max ||J_L|| * ||K|| * sigma_max(Lbar).

    The largest-singular-value factor of the Laplacian converts distance
    to the sharing space into the mixing term's magnitude; it is the
    conservative end of the available constants.
    """
    Y = build_admittance(case)
    samples = list(sample_set)
    kappa = kappa_bound(case, Y, samples).kappa
    max_jl = 0.0
    if case.load_ids:  # J_L of powerflow.jacobians, from one zero-demand system over the inverters
        kcl = LoadBusKCL(Y, case.inverter_ids, LoadArrays(*np.zeros((4, case.n_inverters))))
        scale = np.stack((case.p_star(), case.q_star()), axis=1).reshape(-1, 1)
        for x in samples:
            kcl.residual(x.theta, x.E)
            kcl.derivative()
            max_jl = max(max_jl, float(np.linalg.norm(kcl.J_LS / scale, 2)))
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
# rate constraints over the capacity box
# ---------------------------------------------------------------------------


def _reach(row: np.ndarray, degree: float) -> float:
    """max |a (L s_P)_k + b (L s_Q)_k| over the capacity box, for the gain row
    (a, b) of the inverter at Laplacian position k, whose degree is L[k, k].

    Each normalized injection P / P* or Q / Q* spans [0, CAPACITY_MARGIN]
    (P* and Q* are nonzero): centre and half-width CAPACITY_MARGIN / 2 on
    every entry.  A Laplacian row sums to zero, so the centre term vanishes,
    and its off-diagonal entries are nonpositive, so sum_j |L[k, j]| =
    2 L[k, k]: the reach is CAPACITY_MARGIN * degree * (|a| + |b|).
    """
    return CAPACITY_MARGIN * degree * float(np.abs(row).sum())


def rate_constraint_excess(gains: GainSet, case: NetworkCase) -> float:
    """Worst ratio of |K Lbar s| to its rate bound over the capacity box (<=1 ok)."""
    lap = laplacian(case.comm_edges, case.inverter_ids)
    return max(_reach(gains.blocks[i][r], lap.L[k, k]) / bound
               for k, i in enumerate(lap.order)
               for r, bound in ((0, gains.theta_dot_max), (1, gains.E_dot_max)))


# ---------------------------------------------------------------------------
# gain synthesis (stage 1) and certificate search (stage 2)
# ---------------------------------------------------------------------------


def _project_rate_rows(K_blocks: dict[int, np.ndarray], case: NetworkCase, only):
    """Cyclic projection of the gain rows of the inverters ``only`` onto their rate
    constraints ``_reach(row) <= bound`` at the controller's default rate limits;
    the constraints are symmetric, so the zero row is always feasible."""
    lap = laplacian(case.comm_edges, case.inverter_ids)
    for k, i in enumerate(lap.order):
        if i not in only:
            continue
        deg = lap.L[k, k]
        for r, bound in ((0, DEFAULT_THETA_DOT_MAX), (1, DEFAULT_E_DOT_MAX)):
            row = K_blocks[i][r].copy()
            for _ in range(RATE_SWEEPS):
                reach = _reach(row, deg)
                if reach <= bound:
                    break
                # reach > bound > 0 makes row and deg nonzero, so g is too
                g = CAPACITY_MARGIN * deg * np.sign(row)
                row -= (reach - bound) / (g @ g) * g
            reach = _reach(row, deg)
            if reach > bound:
                row *= bound / reach
            K_blocks[i][r] = row
    return K_blocks


def _stage1_block(case, blk, D, iters):
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
        _project_rate_rows(K_blocks, case, only=set(blk))
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
            _project_rate_rows(K_blocks, case, only=set(blk))
    return best_blocks


def stage1_gains(case: NetworkCase, hull: IntervalHull, iters: int) -> GainSet:
    """Subgradient descent on the per-block spectral abscissa, ``iters`` steps.

    Minimizes max_D lambda_max(D K_b + K_b^T D^T) per block, projected
    onto the controller's default rate limits over the capacity box (an
    l1 bound per gain row, ``_reach``); afterwards the gains are scaled to
    the constraint boundary (the margin scales with the gains).  The gains
    carry the default rate limits.  Raises SynthesisError when no negative
    margin is found.
    """
    K_blocks = {}
    for blk, bb in zip(hull.blocks, hull.per_block):
        K_blocks.update(_stage1_block(case, blk, bb.D_stack, iters))

    gains = GainSet(blocks={i: K.copy() for i, K in K_blocks.items()})
    # push to the rate boundary: margins are linear in the gain scale
    excess = rate_constraint_excess(gains, case)
    if excess > 0.0:
        factor = 0.999 / excess
        gains = GainSet(blocks={i: K * factor for i, K in gains.blocks.items()})
    feas = block_feasibility(gains, hull, d=STAGE1_MIN_MARGIN)
    if not feas.passed:
        raise SynthesisError(
            f"stage 1 found no definite gain direction (worst eigenvalue {feas.worst:.3e})"
        )
    return gains


def _schur_surrogate_eps(U: np.ndarray, zeta: float) -> float:
    """lmax(U) / zeta, the minimizer of the scalar Schur trade-off
    eps * zeta^2 + lmax(U)^2 / eps, clipped to [1e-12, 1e6]."""
    umax = float(np.linalg.eigvalsh(U)[-1])
    return min(max(umax / max(zeta, 1e-8), 1e-12), 1e6)


class _VertexScreen:
    """Margin verdicts and the worst vertex over an A11 vertex stack, equal
    to those of ``_margin_stack`` over the whole stack.  ``stats`` counts
    the screens, the vertices they covered and the exact margins."""

    def __init__(self, A_stack: np.ndarray):
        self.A_stack = A_stack
        self.A_last = np.ascontiguousarray(A_stack.transpose(1, 2, 0))  # _below's layout
        self.every = np.arange(A_stack.shape[0])
        self.last_worst = 0  # the previous worst vertex: the next refinement's first guess
        self.stats = {"margin_stacks": 0, "screened_vertices": 0, "exact_margins": 0}

    def survivors(self, idx, U, eps, xi, zeta, level):
        """The vertices of ``idx`` the screen cannot put EIG_TOL below ``level``."""
        self.stats["margin_stacks"] += 1
        self.stats["screened_vertices"] += len(idx)
        stack = self.A_last if idx is self.every else self.A_last[:, :, idx]
        return idx[~_below(stack, U, eps, xi, zeta, level)]

    def exact(self, idx, U, eps, xi, zeta):
        """Margins of the vertices ``idx``, as ``_margin_stack`` gives them."""
        self.stats["exact_margins"] += len(idx)
        return _margin_stack(self.A_stack[idx], U, eps, xi, zeta)

    def top_pair(self, k, U, eps, xi, zeta):
        """Largest eigenpair of vertex k's quadratic-form matrix."""
        self.stats["exact_margins"] += 1
        A, eye = self.A_stack[k], np.eye(len(U))
        TL = A.T @ U + U @ A + eps * zeta ** 2 * eye + xi * U
        w, V = np.linalg.eigh(np.block([[TL, U], [U, -eps * eye]]))
        return w[-1], V[:, -1]

    def suspects(self, idx, U, eps, xi, zeta):
        """None when every margin of the vertices ``idx`` is nonpositive, else
        the survivors of their level-0 screen, which hold every positive one.
        Exact margins go to the survivors, the first one alone."""
        left = self.survivors(idx, U, eps, xi, zeta, 0.0)
        if not len(left):
            return None
        if (self.exact(left[:1], U, eps, xi, zeta)[0] > 0.0
                or not np.all(self.exact(left[1:], U, eps, xi, zeta) <= 0.0)):
            return left
        return None

    def feasible(self, U, eps, xi, zeta) -> bool:
        """Whether every vertex margin is nonpositive."""
        return self.suspects(self.every, U, eps, xi, zeta) is None

    def worst_vertex(self, U, eps, xi, zeta):
        """``np.argmax`` of the vertex margins, and the margin there.

        Refined as in a quickselect: a guess vertex's largest eigenvalue is
        the level that screens out every vertex below it, and the next
        guess is the survivor with the largest Rayleigh quotient for the
        best guess's top eigenvector, for at most 8 guesses or until at most
        32 vertices survive.  No screened-out vertex can attain or tie the
        maximum, so exact margins of the survivors, in index order, give the
        same argmax as the whole stack.
        """
        m = U.shape[0]
        alive, guessed = self.every, np.zeros(len(self.every), dtype=bool)
        level, k = -math.inf, self.last_worst
        for _ in range(8):
            lam, vec = self.top_pair(k, U, eps, xi, zeta)
            guessed[k] = True
            if lam > level:
                level, u_z = lam, vec[:m]
                alive = self.survivors(alive, U, eps, xi, zeta, level)
            fresh = alive[~guessed[alive]]
            if len(alive) <= 32 or not len(fresh):
                break
            # only the A-dependent term of u^T M u varies across vertices
            k = int(fresh[np.argmax((self.A_stack[fresh] @ u_z) @ (U @ u_z))])
        margins = self.exact(alive, U, eps, xi, zeta)
        j = int(np.argmax(margins))
        self.last_worst = int(alive[j])
        return self.last_worst, float(margins[j])


def _spectral_abscissa(A_stack):
    """alpha = max_k max Re lambda(A_k), the vertex k that attains it, and
    the slack tau_a = ABSCISSA_TOL (1 + max_k ||A_k||_F) of the degree skip
    (see ``certificate_for_gains``)."""
    re = np.linalg.eigvals(A_stack).real.max(axis=1)
    k = int(np.argmax(re))
    tol = ABSCISSA_TOL * (1.0 + float(np.linalg.norm(A_stack, axis=(1, 2)).max()))
    return float(re[k]), k, tol


def _search_certificate(A_stack, candidates, zeta, u_steps):
    """Stage 2's search proper: (xi, U, eps) from the best candidate U,
    the disturbance degree halved until one certifies, the degree bound
    -alpha and the counters.  Degrees above the bound are skipped."""
    m = A_stack.shape[1]
    alpha, k_alpha, alpha_tol = _spectral_abscissa(A_stack)
    zeta_min = math.ldexp(zeta, -ZETA_HALVINGS)  # the last degree the halvings reach
    if zeta_min + alpha > alpha_tol:
        raise SynthesisError(
            f"stage 2: vertex {k_alpha} has spectral abscissa {alpha:.3e}, which rules out "
            f"every disturbance degree down to {zeta_min:.3e}"
        )
    screen = _VertexScreen(A_stack)

    def descend_U(U, eps, xi, z, budget):
        """Eigenvalue-subgradient steps on the worst vertex margin w.r.t. U."""
        for step_idx in range(budget):
            k_star, worst = screen.worst_vertex(U, eps, xi, z)
            if worst <= 0.0:
                return U, True
            _, u_vec = screen.top_pair(k_star, U, eps, xi, z)
            u_z, u_w = u_vec[:m], u_vec[m:]
            c = A_stack[k_star] @ u_z + u_w + 0.5 * xi * u_z
            G = np.outer(c, u_z) + np.outer(u_z, c)
            U = U - 0.5 / math.sqrt(step_idx + 1.0) / (np.abs(G).max() + 1e-30) * G
            w_u, V_u = np.linalg.eigh(U)
            w_u = np.maximum(w_u, 1e-8 * max(w_u[-1], 1e-12))
            U = (V_u * w_u) @ V_u.T
            U /= np.linalg.eigvalsh(U)[-1]
            eps = _schur_surrogate_eps(U, z)
        return U, screen.feasible(U, eps, xi, z)

    def bisect_xi(U, eps, z):
        """Largest feasible xi for fixed (U, eps), to the stated resolution.

        Margins rise with xi (M(xi) = M(0) + xi diag(U, 0)), and every xi
        checked after an infeasible one lies below it, so each check screens
        only the survivors of the lowest infeasible xi so far: a vertex
        cleared there lies EIG_TOL below 0 at every lower xi.
        """
        suspects = screen.every

        def feasible(xi):
            nonlocal suspects
            left = screen.suspects(suspects, U, eps, xi, z)
            if left is None:
                return True
            suspects = left
            return False

        if not feasible(1e-12):
            return None
        xi_lo, xi_hi = 1e-12, 1e-6
        while feasible(xi_hi) and xi_hi < 1e6:
            xi_lo = xi_hi
            xi_hi *= 2.0
        while xi_hi - xi_lo > XI_RESOLUTION:
            mid = 0.5 * (xi_lo + xi_hi)
            if feasible(mid):
                xi_lo = mid
            else:
                xi_hi = mid
        return xi_lo

    def optimize(z):
        """Alternate xi-bisection with U improvement at a raised xi target;
        None at once when the abscissa bound rules z out."""
        nonlocal skipped
        if z + alpha > alpha_tol:
            skipped += 1
            return None
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
                target = xi + max(0.05 * xi, 10.0 * XI_RESOLUTION)
                U_try, ok = descend_U(U.copy(), eps, target, z, u_steps)
                if not ok:
                    break
                eps_try = _schur_surrogate_eps(U_try, z)
                xi_try = bisect_xi(U_try, eps_try, z)
                if xi_try is None or xi_try <= xi + XI_RESOLUTION:
                    break
                U, eps, xi = U_try, eps_try, xi_try
            if best is None or xi > best[0]:
                best = (xi, U.copy(), eps)
        return best

    skipped = 0
    found = optimize(zeta)
    halvings = 0
    while found is None and halvings < ZETA_HALVINGS:
        zeta *= 0.5
        halvings += 1
        found = optimize(zeta)
    if found is None:
        raise SynthesisError("stage 2 found no certificate at any disturbance degree")
    stats = {**screen.stats, "zeta_halvings": halvings, "zeta_skipped": skipped}
    return (*found, zeta, -alpha, stats)


def certificate_for_gains(
    case: NetworkCase,
    gains: GainSet,
    hull: IntervalHull,
    u_steps: int = 25,
) -> StabilityCertificate:
    """Stage 2: search (U, eps, xi) certifying the given gains.

    U starts from simple positive-definite guesses (identity and the
    reduced Laplacian) and is polished by eigenvalue-subgradient steps on
    the worst vertex margin; eps is the scalar Schur surrogate's minimizer
    in closed form, xi from upward bisection while the vertex margins stay
    nonpositive.  When the estimated disturbance degree is not
    certifiable the degree is bisected down and the shortfall is recorded
    in the metadata.

    The search needs only verdicts and the worst vertex, so each margin
    sweep screens the vertices first (``_below``: with s = eps + level and
    tau = EIG_TOL (1 + ||U||_2 / s)^2, a Cholesky elimination of -N - tau I,
    N the half-order Schur complement, proves the margin at most
    level - EIG_TOL; nothing is cleared when s <= tau) and takes exact
    margins only where the screen proves nothing (``_VertexScreen``), so the
    certificate is the one exact margins over every vertex give.

    Degrees no U can certify are skipped.  With eps > 0, M <= 0 gives
    N = A^T U + U A + eps zeta^2 I + xi U + U^2/eps <= 0 (Schur complement),
    and eps zeta^2 I + U^2/eps >= 2 zeta U, so with c = zeta + xi/2,
    (A + c I)^T U + U (A + c I) <= 0 for U > 0: Re lambda(A_k) <= -zeta - xi/2
    at every vertex.  So with alpha = max_k max Re lambda(A_k), a degree
    with delta = zeta + alpha > 0 fails the exact margins for every
    (U, eps, xi); the same argument on M - mu I puts some vertex margin at
    least (2 delta + xi) lambda_min(U) / (1 + zeta^2) above 0.
    ``np.linalg.eigvals`` returns the eigenvalues of some A_k + E with
    ||E||_F about 1e-15 ||A_k||_F, so the skip rule
    zeta + alpha > tau_a = ABSCISSA_TOL (1 + max_k ||A_k||_F) keeps the
    exact delta above tau_a / 2 for eigenvalue condition numbers up to
    about 1e8 and for double eigenvalues (which move by about ||E||^(1/2)).
    A skipped degree's margin is then at least
    tau_a lambda_min(U) / (1 + zeta^2), above the margins' own rounding
    (about 1e-15 ||M||) whenever ||M|| << 1e15 tau_a lambda_min(U) /
    (1 + zeta^2); on case14 every skipped degree has delta >= 0.43.  The
    halvings go on as before, so the search ends on the degree it ends on
    without the skip.  When the skip rule rules out even the last degree
    the halvings reach, zeta / 2^ZETA_HALVINGS, the search raises at once;
    a degree with 0 < zeta <= -alpha is still tried, however small -alpha.  ``meta["zeta_bound"]`` is -alpha.

    ``meta["stats"]`` counts screens, screened vertices, exact margins,
    disturbance-degree halvings and the degrees skipped by the bound.

    Failure raises SynthesisError; no certificate is ever returned
    unverified: the result is re-checked with exact margins
    (``_margin_stack``) at every vertex of the A11 stack the search ran on.
    """
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

    samples = sample_interior_profiles(case, ZETA_SAMPLES, seed=ZETA_SEED)
    samples.append(VoltageProfile.flat(case.n))
    zeta_requested = max(zeta_estimate(case, gains, samples).zeta, 1e-12)

    basis = build_basis(case.n_inverters)
    K = gains.stacked(case.inverter_ids)
    Lbar = lap.kron2()
    A_stack = np.concatenate([reduced_closed_loop(D, K, Lbar, basis) for D in _vertex_slices(hull)])
    m = 2 * (case.n_inverters - 1)

    Lbar1 = reduced_laplacian(Lbar, basis)
    candidates = [np.eye(m), Lbar1 / np.linalg.eigvalsh(Lbar1)[-1]]
    xi, U, eps, z_used, z_bound, stats = _search_certificate(
        A_stack, candidates, zeta_requested, u_steps)

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
            "zeta_bound": z_bound,
            "n_vertices": int(A_stack.shape[0]),
            "block_worst_eig": feas.worst,
            "search_method": "subgradient",
            "stats": stats,
        },
    )
    worst = float(_margin_stack(A_stack, cert.U, cert.eps, cert.xi, cert.zeta).max())
    if not worst <= EIG_TOL:
        raise SynthesisError(f"stage 2 candidate failed re-verification (worst {worst:.3e})")
    return cert


def synthesize_gains(
    case: NetworkCase,
    hull: IntervalHull,
    stage1_iters: int = 400,
) -> tuple[GainSet, StabilityCertificate]:
    """Full two-stage synthesis: gains via per-block subgradient descent,
    then a certificate for the result.  Clean SynthesisError on failure.
    """
    gains = stage1_gains(case, hull, iters=stage1_iters)
    cert = certificate_for_gains(case, gains, hull)
    return gains, cert
