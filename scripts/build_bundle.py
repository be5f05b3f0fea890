"""Regenerate the bundled 14-bus data files.

Writes the case, the published gains, the three study scenarios, and a
freshly synthesized (gains, certificate) pair into the package data
directory.  Synthesis takes about half a minute.
"""

import json
import sys
import time
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import microgridctl as mg
from microgridctl import certify
from microgridctl.controller import gains_to_json
from microgridctl.certify import certificate_to_json

DATA = Path(__file__).resolve().parents[1] / "src" / "microgridctl" / "data"

# Standard IEEE 14-bus branch data (R, X, total charging B) on a 100 MVA base;
# transformer branches carried as plain series reactances (unity ratio).
LINES = [
    (1, 2, 0.01938, 0.05917, 0.0528),
    (1, 5, 0.05403, 0.22304, 0.0492),
    (2, 3, 0.04699, 0.19797, 0.0438),
    (2, 4, 0.05811, 0.17632, 0.0340),
    (2, 5, 0.05695, 0.17388, 0.0346),
    (3, 4, 0.06701, 0.17103, 0.0128),
    (4, 5, 0.01335, 0.04211, 0.0),
    (4, 7, 0.0, 0.20912, 0.0),
    (4, 9, 0.0, 0.55618, 0.0),
    (5, 6, 0.0, 0.25202, 0.0),
    (6, 11, 0.09498, 0.19890, 0.0),
    (6, 12, 0.12291, 0.25581, 0.0),
    (6, 13, 0.06615, 0.13027, 0.0),
    (7, 8, 0.0, 0.17615, 0.0),
    (7, 9, 0.0, 0.11001, 0.0),
    (9, 10, 0.03181, 0.08450, 0.0),
    (9, 14, 0.12711, 0.27038, 0.0),
    (10, 11, 0.08205, 0.19207, 0.0),
    (12, 13, 0.22092, 0.19988, 0.0),
    (13, 14, 0.17093, 0.34802, 0.0),
]
# Standard bus demands (MW, MVAr); demands at the replaced generator buses are
# dropped (those buses are modeled as pure voltage-source inverters).
LOADS = {4: (47.8, -3.9), 5: (7.6, 1.6), 9: (29.5, 16.6), 10: (9.0, 5.8),
         11: (3.5, 1.8), 12: (6.1, 1.6), 13: (13.5, 5.8), 14: (14.9, 5.0)}
INVERTERS = [1, 2, 3, 6, 8]
# Nominal dispatch (p.u.): sized so the base case runs near 85 % of nominal.
P_STAR = {1: 0.35, 2: 0.30, 3: 0.30, 6: 0.25, 8: 0.20}
Q_STAR = {1: 0.20, 2: 0.12, 3: 0.12, 6: 0.08, 8: 0.06}
# Communication ring over the inverter buses (survives any single link loss).
COMM_RING = [(1, 2), (2, 3), (3, 6), (6, 8), (8, 1)]

# Published feedback gains, mrad/s (row 1) and mV/s (row 2), keyed by DER bus.
GAINS_TABLE = {
    1: [[-5.6, 10.2], [-2.7, -0.1]],
    2: [[-1.8, 4.9], [-1.0, -1.4]],
    3: [[-10.0, 8.6], [-1.2, -10.8]],
    6: [[-8.8, 85.0], [-23.8, -16.2]],
    8: [[-190.7, -24.6], [0.0, -40.0]],
}


def case_doc():
    buses = []
    for b in range(1, 15):
        i = b - 1
        if b in INVERTERS:
            buses.append({"id": i, "kind": "inverter", "E_min": 0.94, "E_max": 1.06,
                          "P_star": P_STAR[b], "Q_star": Q_STAR[b]})
        else:
            P, Q = LOADS.get(b, (0.0, 0.0))
            buses.append({"id": i, "kind": "load", "E_min": 0.94, "E_max": 1.06,
                          "load": {"kind": "constant_impedance",
                                   "G": P / 100.0, "B": Q / 100.0}})
    lines = []
    for (f, t, R, X, B) in LINES:
        b_jk = X / (R * R + X * X)
        lines.append({"from": f - 1, "to": t - 1, "R": R, "X": X, "B_sh": B,
                      "I_max": round(min(3.0, 1.4 * b_jk), 4)})
    return {
        "buses": buses,
        "lines": lines,
        "comm_edges": [[a - 1, b - 1] for a, b in COMM_RING],
        "params": {"gamma_deg": 15.0, "f0_hz": 50.0, "base_mva": 100.0, "base_kv": 13.8},
    }


def gains_doc():
    return {
        "_units": "rows 1: mrad/s per unit of S; rows 2: mV/s on a 1 V base (= 1e-3 p.u./s)",
        "rate_limits": {"freq_dev_max_hz": 0.3, "E_dot_max_pu_per_s": 0.05},
        "gains_mrad_mV": {str(b - 1): m for b, m in GAINS_TABLE.items()},
    }


SCENARIOS = {
    # abrupt +30 % load change at bus 10 (0-based id 9) one second in
    "scenario_loadstep.json": {
        "events": [{"t": 1.0, "kind": "load_step", "bus": 9, "dP": 0.027, "dQ": 0.0174}],
        "sim": {"t_end": 60.0, "dt": 0.005, "record_stride": 10},
    },
    # inverter at bus 1 (0-based id 0) trips one second in
    "scenario_derloss.json": {
        "events": [{"t": 1.0, "kind": "der_loss", "bus": 0}],
        "sim": {"t_end": 60.0, "dt": 0.005, "record_stride": 10},
    },
    # one comm link drops, then the same load step
    "scenario_commloss.json": {
        "events": [
            {"t": 0.5, "kind": "comm_loss", "edge": [1, 2]},
            {"t": 1.0, "kind": "load_step", "bus": 9, "dP": 0.027, "dQ": 0.0174},
        ],
        "sim": {"t_end": 60.0, "dt": 0.005, "record_stride": 10},
    },
}


def main():
    DATA.mkdir(exist_ok=True)
    (DATA / "case14.json").write_text(json.dumps(case_doc(), indent=2) + "\n")
    (DATA / "gains14.json").write_text(json.dumps(gains_doc(), indent=2) + "\n")
    for name, doc in SCENARIOS.items():
        (DATA / name).write_text(json.dumps(doc, indent=2) + "\n")
    print("case + gains + scenarios written")

    case = mg.load_case(DATA / "case14.json")
    hull = certify.build_hull(case)
    t0 = time.time()
    gains_s, cert = certify.synthesize_gains(case, hull)
    print(f"synthesis done in {time.time() - t0:.1f} s; "
          f"d = {cert.d:.4f}, xi = {cert.xi:.4f}, zeta = {cert.zeta:.4g} "
          f"(requested {cert.meta['zeta_requested']:.4g})")
    (DATA / "gains14_synth.json").write_text(gains_to_json(gains_s) + "\n")
    cert = certify.StabilityCertificate(
        U=cert.U, eps=cert.eps, xi=cert.xi, zeta=cert.zeta, d=cert.d,
        hull_kind=cert.hull_kind, zeta_mode=cert.zeta_mode,
        digest=certify.compute_digest(case, mg.load_gains(DATA / "gains14_synth.json")),
        meta=cert.meta,
    )
    (DATA / "cert14.json").write_text(certificate_to_json(cert) + "\n")
    rep = certify.verify_certificate(case, mg.load_gains(DATA / "gains14_synth.json"), cert)
    print("verification:", rep.format())


if __name__ == "__main__":
    main()
