"""Certificate checks computed apart from the program.

* ``QuadraticForm`` assembles, from (U, eps, xi, zeta) and its own
  consensus basis, gains and Laplacian, the matrix whose largest
  eigenvalue is a hull vertex's certificate margin.
* ``QuadraticForm.falsify`` searches the full cartesian product of the
  per-block vertex lists by alternating maximisation: take the top
  eigenvector of the current vertex's matrix, then give every block the
  vertex that maximises its (linear) share of the Rayleigh quotient.
  Each round can only raise the margin, and it stops at a fixed point.
* ``jacobian_outside_hull`` takes finite-difference Jacobians of the
  normalised inverter injections at interior profiles and reports any
  entry outside the hull's bounds.
"""

from __future__ import annotations

import itertools

import numpy as np

from model import Network, require

MARGIN_TOL = 1e-9      # the program's EIG_TOL: a margin above it is a violation
AGREE_TOL = 1e-9       # own margins vs the program's, absolute
FD_STEP = 1e-6
FD_TOL = 1e-6          # finite-difference error allowance, relative to max(1, |entry|)


def consensus_complement(n_inverters: int) -> np.ndarray:
    """Orthonormal columns orthogonal to the two sharing patterns.

    Gram-Schmidt of the standard basis against the normalised patterns
    [1,0,1,0,...] and [0,1,0,1,...], twice per vector; the certificate's U
    is expressed in exactly this basis.
    """
    m = 2 * n_inverters
    v_p, v_q = np.zeros(m), np.zeros(m)
    v_p[0::2] = 1.0
    v_q[1::2] = 1.0
    fixed = [v_p / np.linalg.norm(v_p), v_q / np.linalg.norm(v_q)]
    cols = []
    for k in range(m):
        v = np.zeros(m)
        v[k] = 1.0
        for _ in range(2):
            for w in fixed + cols:
                v -= (w @ v) * w
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            cols.append(v / norm)
        if len(cols) == m - 2:
            break
    return np.column_stack(cols)


def dedup(stack: np.ndarray) -> np.ndarray:
    flat = np.unique(stack.reshape(stack.shape[0], -1), axis=0)
    return flat.reshape(-1, *stack.shape[1:])


def attainers(stack: np.ndarray) -> np.ndarray:
    """Distinct vertices that attain some entrywise minimum or maximum."""
    idx = set(np.argmin(stack, axis=0).ravel().tolist())
    idx |= set(np.argmax(stack, axis=0).ravel().tolist())
    return dedup(stack[sorted(idx)])


class QuadraticForm:
    """Vertex margins lambda_max([[A'U + UA + eps z I + xi U, U], [U, -eps I]])."""

    def __init__(self, net: Network, positions, U, eps, xi, zeta, zeta_mode="squared"):
        n_i = len(net.inverters)
        T1 = consensus_complement(n_i)
        K = np.zeros((2 * n_i, 2 * n_i))
        for k, b in enumerate(net.inverters):
            K[2 * k:2 * k + 2, 2 * k:2 * k + 2] = net.K[b]
        Lbar = np.kron(net.laplacian(net.inverters, net.comm_edges), np.eye(2))
        self.U = U = np.asarray(U, dtype=float)
        self.m = m = U.shape[0]
        require(T1.shape[1] == m, "certificate U does not match the inverter count")
        self.R = K @ Lbar @ T1          # D enters A = T1' D R linearly
        self.TU = T1 @ U
        self.T1 = T1
        self.positions = [list(p) for p in positions]
        zz = zeta ** 2 if zeta_mode == "squared" else zeta
        M0 = np.zeros((2 * m, 2 * m))
        M0[:m, :m] = eps * zz * np.eye(m) + xi * U
        M0[:m, m:] = U
        M0[m:, :m] = U
        M0[m:, m:] = -eps * np.eye(m)
        self.M0 = M0

    def block_terms(self, lists):
        """Per block and vertex, its share T1_b' D_b R_b of A."""
        return [np.einsum("ia,vij,jb->vab", self.T1[p], D, self.R[p])
                for p, D in zip(self.positions, lists)]

    def margins(self, terms, combos) -> np.ndarray:
        combos = np.asarray(combos, dtype=int).reshape(-1, len(terms))
        out = np.empty(len(combos))
        m = self.m
        for s in range(0, len(combos), 4096):
            chunk = combos[s:s + 4096]
            A = sum(t[chunk[:, b]] for b, t in enumerate(terms))
            M = np.broadcast_to(self.M0, (len(chunk), 2 * m, 2 * m)).copy()
            M[:, :m, :m] += A.transpose(0, 2, 1) @ self.U + self.U @ A
            out[s:s + 4096] = np.linalg.eigvalsh(M)[:, -1]
        return out

    def exhaustive(self, lists):
        terms = self.block_terms(lists)
        combos = np.array(list(itertools.product(*[range(len(v)) for v in lists])))
        return self.margins(terms, combos), combos

    def falsify(self, lists, starts: int, rng, max_rounds: int = 100):
        """Worst margin found by alternating maximisation, and its vertex indices."""
        terms = self.block_terms(lists)
        m = self.m
        best, best_combo = -np.inf, None
        for _ in range(starts):
            combo = tuple(int(rng.integers(len(v))) for v in lists)
            for _ in range(max_rounds):
                A = sum(t[c] for t, c in zip(terms, combo))
                M = self.M0.copy()
                M[:m, :m] += A.T @ self.U + self.U @ A
                x = np.linalg.eigh(M)[1][:m, -1]
                u, r = self.TU @ x, self.R @ x
                nxt = tuple(int(np.argmax(np.einsum("i,vij,j->v", u[p], D, r[p])))
                            for p, D in zip(self.positions, lists))
                if nxt == combo:
                    break
                combo = nxt
            value = float(self.margins(terms, [combo])[0])
            if value > best:
                best, best_combo = value, combo
        return best, best_combo


def judge_report(report, attainer_margins, falsified: float) -> bool:
    """Whether a verification report holds up: False when it passes a certificate
    that has a product vertex with margin ``falsified`` above tolerance.

    The report must agree with itself.  When it covers as many vertices as
    the attainer subset, its margins must also be the recomputed
    ``attainer_margins``; a report over any other vertex set is judged by
    its verdict alone, so a FAIL is a correct rejection.
    """
    own = np.asarray(report.margins)
    require(len(own) == report.n_vertices and report.worst == own.max(),
            "verify: report's worst margin is not the maximum of its margins")
    require(report.passed == bool(report.worst <= report.tol),
            "verify: verdict disagrees with the report's worst margin")
    if report.n_vertices == len(attainer_margins):
        require(np.allclose(np.sort(own), np.sort(attainer_margins), rtol=0, atol=AGREE_TOL),
                "verify: vertex margins disagree with their recomputation")
    return not (report.passed and falsified > MARGIN_TOL)


def normalised_injections(net: Network, theta, E):
    P, Q = net.injections(theta[None, :], E[None, :])
    inv = net.inverters
    out = np.empty(2 * len(inv))
    out[0::2] = P[0, inv] / np.array([net.p_star[b] for b in inv])
    out[1::2] = Q[0, inv] / np.array([net.q_star[b] for b in inv])
    return out


def interior_profiles(net: Network, count: int, rng):
    """Profiles with every magnitude inside its box and every branch gap inside gamma.

    Angles are drawn per bus in (-gamma/2, gamma/2) on half the profiles and
    by a random walk from bus 0 (gaps in (-gamma, gamma), rejected when some
    line exceeds gamma) on the other half, which reaches the corners' gaps.
    """
    out = []
    adj = {i: [] for i in range(net.n)}
    for a, b in net.line_ends:
        adj[a].append(b)
        adj[b].append(a)
    order, parent, seen = [0], {}, {0}
    for u in order:
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                order.append(v)
    g = net.gamma
    while len(out) < count:
        E = rng.uniform(net.e_min, net.e_max)
        if len(out) % 2 == 0:
            theta = rng.uniform(-0.5 * g, 0.5 * g, size=net.n)
        else:
            theta = np.zeros(net.n)
            for v in order[1:]:
                theta[v] = theta[parent[v]] + rng.uniform(-g, g)
        if all(abs(theta[a] - theta[b]) <= g for a, b in net.line_ends):
            out.append((theta, E))
    return out


def jacobian_outside_hull(net: Network, J_lo, J_hi, profiles):
    """Entries of finite-difference d S_I / d x_I outside [J_lo, J_hi], as (profile, i, j, value)."""
    bad = []
    inv = net.inverters
    for k, (theta, E) in enumerate(profiles):
        J = np.empty((2 * len(inv), 2 * len(inv)))
        for c, b in enumerate(inv):
            for part in (0, 1):  # d/d theta_b, d/d E_b
                plus, minus = [theta.copy(), E.copy()], [theta.copy(), E.copy()]
                plus[part][b] += FD_STEP
                minus[part][b] -= FD_STEP
                J[:, 2 * c + part] = (normalised_injections(net, *plus)
                                      - normalised_injections(net, *minus)) / (2 * FD_STEP)
        allow = FD_TOL * np.maximum(1.0, np.abs(J))
        out = (J < J_lo - allow) | (J > J_hi + allow)
        bad.extend((k, int(i), int(j), float(J[i, j])) for i, j in zip(*np.nonzero(out)))
    return bad
