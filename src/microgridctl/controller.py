"""Distributed inverter control law.

Each inverter integrates its voltage phasor according to a 2x2 gain times
the comm-graph Laplacian acting on the neighbors' normalized injection
pairs, with elementwise rate saturation and local voltage-bound clamping.
``ControlState.of`` precomputes the two constant maps before saturation
(Laplacian mix, gains) per operating condition; ``control_derivative``,
the one implementation of the law, runs at every stage and recorded row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netmodel import (CommLaplacian, NetworkCase, ValidationError, decode, json_float, json_id_key,
                       json_matrix, known_keys)

# Default rate limits: +-0.3 Hz of frequency headroom and 0.05 p.u./s of
# voltage slew, expressed on the internal rad/s and p.u./s scales.
DEFAULT_THETA_DOT_MAX = 0.3 * 2.0 * math.pi
DEFAULT_E_DOT_MAX = 0.05

# Gain files carry mrad/s and mV/s entries; internal units are rad/s and
# p.u./s on a 1 V voltage base, so both rows convert by 1e-3.
MILLI = 1e-3
RATE_LIMIT_KEYS = ("freq_dev_max_hz", "E_dot_max_pu_per_s")  # of a gains file's rate_limits


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
        sv = np.linalg.svd(self.stacked(self.blocks), compute_uv=False)
        if len(self.blocks) > 1 and sv[-1] < 1e-12 * max(sv[0], 1.0):
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

    The arrays follow ``lap.order`` (the active inverters, ascending) and
    rates are ``[theta_dot; E_dot]`` stacked flat.  ``mix`` applies the
    Laplacian to ``[P/P*; Q/Q*]``, ``gain`` each inverter's 2x2 block to its
    mixed pair; ``rate_max`` holds the rate limits and ``rate_min`` their
    negatives, ``e_lo``/``e_hi`` the box.
    """

    lap: CommLaplacian
    p_star: np.ndarray
    q_star: np.ndarray
    mix: np.ndarray
    gain: np.ndarray
    rate_max: np.ndarray
    rate_min: np.ndarray
    e_lo: np.ndarray
    e_hi: np.ndarray

    @staticmethod
    def of(case: NetworkCase, gains: GainSet, lap: CommLaplacian) -> "ControlState":
        buses = [case.buses[i] for i in lap.order]
        m = len(buses)
        K = gains.per_inverter(lap.order)
        p_star = np.array([b.P_star for b in buses])
        q_star = np.array([b.Q_star for b in buses])
        # gain[r*m + k, c*m + j] = K[k, r, c] for j == k
        gain = K.transpose(1, 0, 2)[:, :, :, None] * np.eye(m)[None, :, None, :]
        rate_max = np.repeat([gains.theta_dot_max, gains.E_dot_max], m)
        return ControlState(
            lap=lap,
            p_star=p_star,
            q_star=q_star,
            mix=np.kron(np.eye(2), lap.L) / np.concatenate((p_star, q_star)),
            gain=gain.reshape(2 * m, 2 * m),
            rate_max=rate_max,
            rate_min=-rate_max,
            e_lo=np.array([b.E_min for b in buses]),
            e_hi=np.array([b.E_max for b in buses]),
        )


def control_derivative(state: ControlState, P, Q, E, out=None):
    """Rate-saturated, voltage-clamped rates ``[theta_dot; E_dot]`` of the law.

    P, Q and E are the active inverters' in ``state.lap.order``.  The two
    maps stay apart rather than fused into one, so the mix rounds as the
    unfused law does and an exactly shared input gives exact zero rates.
    An E_dot pointing out of the voltage box from its boundary is zeroed.
    ``E = None`` says every magnitude lies strictly inside the box, where
    the clamp changes nothing, so it is skipped.  The simulator shows this
    once per RK4 step for all four stages: saturation bounds each rate by
    its limit and the clamp only zeroes rates, so a step moves E by at
    most dt E_dot_max (``sim._Engine._try_step``).  Returns the rates (in
    ``out`` if given) and the raw rates, for ``clamp_count``.
    """
    raw = state.gain.dot(state.mix.dot(np.concatenate((P, Q))))
    out = np.minimum(raw, state.rate_max, out=out)
    np.maximum(out, state.rate_min, out=out)
    if E is not None:
        e_dot = out[len(E):]
        np.minimum(e_dot, 0.0, out=e_dot, where=E >= state.e_hi)
        np.maximum(e_dot, 0.0, out=e_dot, where=E <= state.e_lo)
    return out, raw


def clamp_count(state: ControlState, raw, E) -> int:
    """Number of inverters whose raw E_dot the voltage clamp zeroes."""
    up, down = raw[len(E):] > 0.0, raw[len(E):] < 0.0
    return int(np.count_nonzero((E >= state.e_hi) & up | (E <= state.e_lo) & down))


def frequency_of(theta_dot, omega0: float):
    """Electrical frequency in Hz for a rotating-frame angle rate."""
    return (omega0 + np.asarray(theta_dot)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# gains file I/O
# ---------------------------------------------------------------------------


def parse_gains(text: str) -> GainSet:
    """Parse a JSON gains file.

    Schema: ``{"rate_limits": {"freq_dev_max_hz": .., "E_dot_max_pu_per_s": ..},
    "gains_mrad_mV": {"<bus>": [[k11, k12], [k21, k22]], ...}}``, plus a free
    ``_units`` note.  Row 1 entries are mrad/s, row 2 mV/s on a 1 V voltage
    base (so both convert to internal units by 1e-3).  A missing
    ``rate_limits`` entry takes its default; a key the format does not know
    is a ParseError.
    """
    return decode(text, "gains file", _gains_from_json)


def _gains_from_json(raw) -> GainSet:
    known_keys(raw, ("_units", "rate_limits", "gains_mrad_mV"), "gains file")
    limits = known_keys(raw.get("rate_limits", {}), RATE_LIMIT_KEYS, "rate_limits")
    limits = {k: json_float(v, k) for k, v in limits.items()}
    return GainSet(
        blocks={json_id_key(k, "gain block key"): json_matrix(m, f"gain block {k}") * MILLI
                for k, m in raw["gains_mrad_mV"].items()},
        theta_dot_max=2.0 * math.pi * limits.get("freq_dev_max_hz", 0.3),
        E_dot_max=limits.get("E_dot_max_pu_per_s", DEFAULT_E_DOT_MAX),
    )


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
    return parse_gains(Path(path).read_text(encoding="utf-8"))
