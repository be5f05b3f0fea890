"""Distributed inverter control law.

Each inverter integrates its voltage phasor according to a 2x2 gain times
the comm-graph Laplacian acting on the neighbors' normalized injection
pairs, with elementwise rate saturation and local voltage-bound clamping.
``control_derivative`` is the one implementation of the law; the
simulator calls it at every stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .netmodel import CaseError, CommLaplacian, NetworkCase, ParseError, ValidationError

# Default rate limits: +-0.3 Hz of frequency headroom and 0.05 p.u./s of
# voltage slew, expressed on the internal rad/s and p.u./s scales.
DEFAULT_THETA_DOT_MAX = 0.3 * 2.0 * math.pi
DEFAULT_E_DOT_MAX = 0.05

# Gain files carry mrad/s and mV/s entries; internal units are rad/s and
# p.u./s on a 1 V voltage base, so both rows convert by 1e-3.
MILLI = 1e-3


def consensus_patterns(n_inverters: int):
    """The alternating unit patterns spanning the perfect-sharing space.

    v_p = [1,0,1,0,...], v_q = [0,1,0,1,...] in R^{2 n_I}; a stacked
    normalized-injection vector lies in their span exactly when every
    inverter shares proportionally.
    """
    v_p = np.zeros(2 * n_inverters)
    v_q = np.zeros(2 * n_inverters)
    v_p[0::2] = 1.0
    v_q[1::2] = 1.0
    return v_p, v_q


@dataclass(frozen=True)
class GainSet:
    """Per-inverter 2x2 gain blocks plus the runtime rate limits.

    Row 1 of each block produces rad/s per unit of normalized power
    mismatch, row 2 p.u./s.  The stacked block-diagonal gain must have its
    null space inside the sharing space, which for two or more inverters
    means every block is nonsingular.
    """

    blocks: dict[int, np.ndarray]
    theta_dot_max: float = DEFAULT_THETA_DOT_MAX
    E_dot_max: float = DEFAULT_E_DOT_MAX

    def __post_init__(self):
        if not self.blocks:
            raise ValidationError("gain set is empty")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.theta_dot_max, self.E_dot_max)):
            raise ValidationError("rate limits must be positive and finite")
        clean = {}
        for bus_id, K in sorted(self.blocks.items()):
            K = np.array(K, dtype=float)
            if K.shape != (2, 2):
                raise ValidationError(f"gain block for bus {bus_id} must be 2x2")
            if not np.all(np.isfinite(K)):
                raise ValidationError(f"gain block for bus {bus_id} must be finite")
            K.setflags(write=False)
            clean[int(bus_id)] = K
        object.__setattr__(self, "blocks", clean)
        self._check_null_space()

    def _check_null_space(self):
        ids = sorted(self.blocks)
        K = self.stacked(ids)
        _, sv, vt = np.linalg.svd(K)
        null = vt[sv < 1e-12 * max(sv[0], 1.0)] if len(sv) else vt[0:0]
        if null.size == 0:
            return
        v_p, v_q = consensus_patterns(len(ids))
        basis = np.column_stack([v_p / np.linalg.norm(v_p), v_q / np.linalg.norm(v_q)])
        for v in null:
            resid = v - basis @ (basis.T @ v)
            if np.linalg.norm(resid) > 1e-9:
                raise ValidationError(
                    "gain null space leaves the sharing space; a singular per-inverter "
                    "block breaks the equilibrium equivalence"
                )

    def per_inverter(self, ids) -> np.ndarray:
        """(m, 2, 2) stack of the gain blocks of the given inverter ids, in order."""
        for i in ids:
            if i not in self.blocks:
                raise ValidationError(f"no gain block for inverter bus {i}")
        return np.array([self.blocks[i] for i in ids]).reshape(-1, 2, 2)

    def stacked(self, active_ids) -> np.ndarray:
        """Block-diagonal gain over the given inverter ids (sorted order)."""
        blocks = self.per_inverter(sorted(active_ids))
        K = np.zeros((2 * len(blocks), 2 * len(blocks)))
        for k, K_k in enumerate(blocks):
            K[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = K_k
        return K


@dataclass(frozen=True)
class ControlState:
    """The controller's view of one operating condition, built once by ``of``.

    ``lap`` is the comm-graph Laplacian over the active inverters
    (``lap.order``, ascending); the arrays follow that order: the 2x2 gain
    blocks, the nominal injections P*/Q* and the voltage bounds.
    """

    lap: CommLaplacian
    K: np.ndarray
    p_star: np.ndarray
    q_star: np.ndarray
    e_lo: np.ndarray
    e_hi: np.ndarray
    theta_dot_max: float
    E_dot_max: float

    @staticmethod
    def of(case: NetworkCase, gains: GainSet, lap: CommLaplacian) -> "ControlState":
        buses = [case.buses[i] for i in lap.order]
        return ControlState(
            lap=lap,
            K=gains.per_inverter(lap.order),
            p_star=np.array([b.P_star for b in buses]),
            q_star=np.array([b.Q_star for b in buses]),
            e_lo=np.array([b.E_min for b in buses]),
            e_hi=np.array([b.E_max for b in buses]),
            theta_dot_max=gains.theta_dot_max,
            E_dot_max=gains.E_dot_max,
        )


def control_derivative(state: ControlState, P, Q, E):
    """Rate-saturated, voltage-clamped (theta_dot, E_dot) per active inverter.

    P, Q and E are the active inverters' injections and magnitudes in
    ``state.lap.order``.  The law normalizes the injections by P*/Q*, mixes
    them through the Laplacian, applies each inverter's gain block, clips
    the rates at the limits and zeroes any E_dot pointing out of the
    voltage box.  Returns the (m, 2) rates and the number of clamped
    inverters.
    """
    S = np.empty((len(state.p_star), 2))
    S[:, 0] = P / state.p_star
    S[:, 1] = Q / state.q_star
    mix = state.lap.L @ S
    xdot = np.einsum("kij,kj->ki", state.K, mix)
    np.clip(xdot[:, 0], -state.theta_dot_max, state.theta_dot_max, out=xdot[:, 0])
    np.clip(xdot[:, 1], -state.E_dot_max, state.E_dot_max, out=xdot[:, 1])
    clamp = ((E >= state.e_hi) & (xdot[:, 1] > 0.0)) | ((E <= state.e_lo) & (xdot[:, 1] < 0.0))
    xdot[clamp, 1] = 0.0
    return xdot, int(clamp.sum())


def frequency_of(theta_dot, omega0: float):
    """Electrical frequency in Hz for a rotating-frame angle rate."""
    return (omega0 + np.asarray(theta_dot)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# gains file I/O
# ---------------------------------------------------------------------------


def parse_gains(text: str) -> GainSet:
    """Parse a JSON gains file.

    Schema: ``{"rate_limits": {"freq_dev_max_hz": .., "E_dot_max_pu_per_s": ..},
    "gains_mrad_mV": {"<bus>": [[k11, k12], [k21, k22]], ...}}``.
    Row 1 entries are mrad/s, row 2 mV/s on a 1 V voltage base (so both
    convert to internal units by 1e-3).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in gains file: {exc}") from None
    try:
        if "gains_mrad_mV" not in raw:
            raise ParseError("gains file missing 'gains_mrad_mV'")
        blocks = {int(k): np.array(m, dtype=float) * MILLI for k, m in raw["gains_mrad_mV"].items()}
        limits = raw.get("rate_limits", {})
        theta_dot_max = 2.0 * math.pi * float(limits.get("freq_dev_max_hz", 0.3))
        e_dot_max = float(limits.get("E_dot_max_pu_per_s", 0.05))
    except CaseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed gains file ({type(exc).__name__}: {exc})") from None
    return GainSet(blocks=blocks, theta_dot_max=theta_dot_max, E_dot_max=e_dot_max)


def gains_to_json(gains: GainSet) -> str:
    doc = {
        "_units": "rows 1: mrad/s per unit of S; rows 2: mV/s on a 1 V base (= 1e-3 p.u./s)",
        "rate_limits": {
            "freq_dev_max_hz": gains.theta_dot_max / (2.0 * math.pi),
            "E_dot_max_pu_per_s": gains.E_dot_max,
        },
        "gains_mrad_mV": {
            str(i): (np.asarray(K) / MILLI).tolist() for i, K in sorted(gains.blocks.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_gains(path) -> GainSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gains(fh.read())
