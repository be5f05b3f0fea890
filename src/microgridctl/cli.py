"""Command-line interface.

Subcommands: check-case, bounds, certify, synthesize, simulate, metrics.
Exit codes: 0 ok, 1 unreadable, malformed or invalid input, 2 numerical
failure, 3 certificate rejection.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .netmodel import (CaseError, build_admittance, decode, json_float, json_id_key, known_keys,
                       load_case)
from .powerflow import NewtonError, check_existence
from .controller import gains_to_json, load_gains
from .certify import (
    CertificateError,
    SynthesisError,
    block_feasibility,
    build_hull,
    certificate_for_gains,
    certificate_to_json,
    hypothesis_violations,
    load_certificate,
    synthesize_gains,
    verify_certificate,
)
from .sim import (
    SimulationError,
    load_scenario,
    metrics,
    read_trace_csv,
    run_scenario,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_CERTIFICATE = 3


def _ranges_from_json(raw) -> dict:
    """``{"P": {bus: (lo, hi)}, "Q": {...}}`` from a ranges file's JSON document."""
    known_keys(raw, ("P", "Q"), "ranges file")
    return {kind: {json_id_key(k, f"{kind} range key"):
                   tuple(json_float(v, f"{kind} range of bus {k}") for v in (lo, hi))
                   for k, (lo, hi) in raw.get(kind, {}).items()}
            for kind in ("P", "Q")}


def _cmd_check_case(args) -> int:
    case = load_case(args.case)
    ranges = None
    if args.ranges:
        text = Path(args.ranges).read_text(encoding="utf-8")
        ranges = decode(text, "ranges file", _ranges_from_json)
    report = check_existence(case, user_ranges=ranges)
    print(f"case: {args.case}  (n={case.n}, inverters={list(case.inverter_ids)})")
    print(report.format())
    return EXIT_OK


def _cmd_bounds(args) -> int:
    case = load_case(args.case)
    hull = build_hull(case)
    viol = hypothesis_violations(case, build_admittance(case))
    if args.json:
        doc = {
            "blocks": [list(b) for b in hull.blocks],
            "hypothesis_violations": [
                {"line": list(k), "phi": p, "folded": e} for k, p, e in viol
            ],
            "per_block": [
                {
                    "block": list(bb.block),
                    "relevant_buses": list(bb.relevant_buses),
                    "n_vertices": int(bb.D_stack.shape[0]),
                    "J_lo": bb.J_lo.tolist(),
                    "J_hi": bb.J_hi.tolist(),
                }
                for bb in hull.per_block
            ],
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"blocks: {[list(b) for b in hull.blocks]}")
    if viol:
        print("folded-angle hypothesis violations (bounds use stationary-angle corners):")
        for key, phi, eff in viol:
            print(f"  line {key}: phi={math.degrees(phi):.2f} deg, folded={math.degrees(eff):.2f} deg")
    for bb in hull.per_block:
        print(f"block {list(bb.block)}: {bb.D_stack.shape[0]} corner profiles, "
              f"relevant buses {list(bb.relevant_buses)}")
        with np.printoptions(precision=4, suppress=True, linewidth=160):
            print("  J_lo =\n", bb.J_lo)
            print("  J_hi =\n", bb.J_hi)
    return EXIT_OK


def _cmd_certify(args) -> int:
    case = load_case(args.case)
    gains = load_gains(args.gains)
    hull = build_hull(case)
    feas = block_feasibility(gains, hull, d=1e-9)
    print(f"block feasibility: {'PASS' if feas.passed else 'FAIL'} "
          f"(worst eigenvalue {feas.worst:.6e}, margin d = {-feas.worst:.6e})")
    if args.cert:
        cert = load_certificate(args.cert, case, gains)
        report = verify_certificate(case, gains, cert)
        print(f"certificate: {report.format()}")
        return EXIT_OK if report.passed else EXIT_CERTIFICATE
    if not feas.passed:
        print("no certificate possible: block conditions infeasible", file=sys.stderr)
        return EXIT_CERTIFICATE
    cert = certificate_for_gains(case, gains, hull)
    report = verify_certificate(case, gains, cert)
    print(f"synthesized certificate: xi={cert.xi:.6g} eps={cert.eps:.6g} "
          f"zeta={cert.zeta:.6g} (requested {cert.meta.get('zeta_requested', float('nan')):.6g})")
    print(f"verification: {report.format()}")
    if args.stats:
        print(json.dumps(cert.meta["stats"], sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(certificate_to_json(cert) + "\n")
        print(f"certificate written to {args.out}")
    return EXIT_OK if report.passed else EXIT_CERTIFICATE


def _cmd_synthesize(args) -> int:
    case = load_case(args.case)
    hull = build_hull(case)
    gains, cert = synthesize_gains(case, hull)
    report = verify_certificate(case, gains, cert)
    print(f"gains synthesized; block margin d = {cert.d:.6g}, xi = {cert.xi:.6g}, "
          f"zeta = {cert.zeta:.6g}")
    print(f"verification: {report.format()}")
    if args.stats:
        print(json.dumps(cert.meta["stats"], sort_keys=True))
    if args.out:
        gains_path = args.out + ".gains.json"
        cert_path = args.out + ".cert.json"
        with open(gains_path, "w", encoding="utf-8") as fh:
            fh.write(gains_to_json(gains) + "\n")
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(certificate_to_json(cert) + "\n")
        print(f"written {gains_path} and {cert_path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    case = load_case(args.case)
    gains = load_gains(args.gains)
    scenario = load_scenario(args.scenario, case)
    trace = run_scenario(case, gains, scenario)
    if args.out:
        write_trace_csv(trace, args.out)
        print(f"trace written to {args.out} ({trace.n_rows} rows)")
    print(metrics(trace, case).format())
    if args.stats:
        print(json.dumps(trace.meta["stats"], sort_keys=True))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    trace = read_trace_csv(args.trace)
    case = load_case(args.case) if args.case else None
    print(metrics(trace, case).format())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="microgridctl",
                                description="microgrid consensus-control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check-case", help="run the solvability-condition report")
    c.add_argument("case")
    c.add_argument("--ranges", help="JSON file with injection ranges for condition (f)")
    c.set_defaults(fn=_cmd_check_case)

    c = sub.add_parser("bounds", help="dump Jacobian blocks and entry bounds")
    c.add_argument("case")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_bounds)

    c = sub.add_parser("certify", help="verify a certificate or search for one")
    c.add_argument("case")
    c.add_argument("gains")
    c.add_argument("--cert", help="stored certificate to verify")
    c.add_argument("--out", help="write the searched certificate here")
    c.add_argument("--stats", action="store_true", help="print the search counters as one JSON line")
    c.set_defaults(fn=_cmd_certify)

    c = sub.add_parser("synthesize", help="synthesize gains plus a certificate")
    c.add_argument("case")
    c.add_argument("--out", help="output prefix for .gains.json / .cert.json")
    c.add_argument("--stats", action="store_true", help="print the search counters as one JSON line")
    c.set_defaults(fn=_cmd_synthesize)

    c = sub.add_parser("simulate", help="run a scenario and write the trace CSV")
    c.add_argument("case")
    c.add_argument("gains")
    c.add_argument("scenario")
    c.add_argument("--out", help="trace CSV path")
    c.add_argument("--stats", action="store_true", help="print the run counters as one JSON line")
    c.set_defaults(fn=_cmd_simulate)

    c = sub.add_parser("metrics", help="summarize a trace CSV")
    c.add_argument("trace")
    c.add_argument("--case", help="case file for bound checks")
    c.set_defaults(fn=_cmd_metrics)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NewtonError, SimulationError, SynthesisError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CertificateError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
