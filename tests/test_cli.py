import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from microgridctl.cli import main
from microgridctl.certify import certificate_to_json
from microgridctl.netmodel import case_to_json
from microgridctl import data as bundled

from conftest import (MALFORMED_SCENARIOS, NON_FINITE_SCENARIOS, inverter, line, make_case,
                      z_load)


CASE = str(bundled.data_path(bundled.CASE14))
GAINS = str(bundled.data_path(bundled.GAINS14))
SYNTH = str(bundled.data_path(bundled.GAINS14_SYNTH))
CERT = str(bundled.data_path(bundled.CERT14))


def test_check_case(capsys):
    assert main(["check-case", CASE]) == 0
    out = capsys.readouterr().out
    assert "(a) PASS" in out
    assert "(f) not checked" in out


def test_check_case_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check-case", str(bad)]) == 1


def test_bounds_text_and_json(capsys):
    assert main(["bounds", CASE]) == 0
    out = capsys.readouterr().out
    assert "blocks: [[0, 1, 2], [5], [7]]" in out
    assert main(["bounds", CASE, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["blocks"] == [[0, 1, 2], [5], [7]]
    assert len(doc["per_block"]) == 3


def test_certify_verifies_bundled_certificate(capsys):
    assert main(["certify", CASE, SYNTH, "--cert", CERT]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_certify_rejects_mismatched_digest(capsys):
    # the table gains are not the ones this certificate covers
    assert main(["certify", CASE, GAINS, "--cert", CERT]) == 3


def test_certify_rejects_certificate_without_digest(tmp_path, capsys):
    doc = json.loads(bundled.data_path(bundled.CERT14).read_text(encoding="utf-8"))
    doc["digest"] = ""
    path = tmp_path / "no_digest.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", CASE, GAINS, "--cert", str(path)]) == 3
    assert "no digest" in capsys.readouterr().err


def test_certify_rejects_corrupted_certificate(tmp_path, capsys):
    cert = bundled.bundled_certificate()
    U = np.array(cert.U)
    U[0, 0] *= 1.1
    from microgridctl.certify import StabilityCertificate

    bad = StabilityCertificate(U=U, eps=cert.eps, xi=cert.xi, zeta=cert.zeta, d=cert.d,
                               hull_kind=cert.hull_kind, zeta_mode=cert.zeta_mode,
                               digest=cert.digest, meta=cert.meta)
    path = tmp_path / "bad_cert.json"
    path.write_text(certificate_to_json(bad))
    assert main(["certify", CASE, SYNTH, "--cert", str(path)]) == 3


def test_simulate_and_metrics(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "events": [{"t": 0.05, "kind": "load_step", "bus": 9, "dP": 0.01, "dQ": 0.005}],
        "sim": {"t_end": 0.2, "dt": 0.005, "record_stride": 2},
    }))
    out_csv = tmp_path / "trace.csv"
    assert main(["simulate", CASE, GAINS, str(scen), "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("t,theta_0,")
    assert "sharing_err_P" in header
    captured = capsys.readouterr().out
    assert "final sharing error" in captured

    assert main(["metrics", str(out_csv), "--case", CASE]) == 0
    assert main(["metrics", str(out_csv)]) == 0


def test_simulate_infeasible_load_is_numerical_failure(tmp_path, capsys):
    # constant-power demand far beyond deliverable power: the algebraic
    # solve has no solution and the run must exit with the numerical code
    case = tmp_path / "case.json"
    case.write_text(json.dumps({
        "buses": [
            {"id": 0, "kind": "inverter", "E_min": 0.9, "E_max": 1.1,
             "P_star": 1.0, "Q_star": 0.5},
            {"id": 1, "kind": "inverter", "E_min": 0.9, "E_max": 1.1,
             "P_star": 1.0, "Q_star": 0.5},
            {"id": 2, "kind": "load", "E_min": 0.9, "E_max": 1.1,
             "load": {"kind": "constant_power", "P": 0.2, "Q": 0.05}},
        ],
        "lines": [{"from": 0, "to": 2, "R": 0.02, "X": 0.3},
                  {"from": 1, "to": 2, "R": 0.02, "X": 0.3}],
        "comm_edges": [[0, 1]],
        "params": {"gamma_deg": 30.0, "f0_hz": 50.0, "base_mva": 1.0, "base_kv": 0.4},
    }))
    gains = tmp_path / "gains.json"
    gains.write_text(json.dumps({
        "rate_limits": {"freq_dev_max_hz": 0.3, "E_dot_max_pu_per_s": 0.05},
        "gains_mrad_mV": {"0": [[-10.0, 0.0], [0.0, -10.0]],
                          "1": [[-10.0, 0.0], [0.0, -10.0]]},
    }))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "events": [{"t": 0.01, "kind": "load_step", "bus": 2, "dP": 60.0, "dQ": 30.0}],
        "sim": {"t_end": 0.1, "dt": 0.005},
    }))
    assert main(["simulate", str(case), str(gains), str(scen)]) == 2


def test_simulate_bad_scenario_exits_1(tmp_path, capsys):
    for name, text in {**MALFORMED_SCENARIOS, **NON_FINITE_SCENARIOS}.items():
        scen = tmp_path / f"{name}.json"
        scen.write_text(text)
        assert main(["simulate", CASE, GAINS, str(scen)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, name


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "microgridctl.cli", "check-case", CASE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "(a) PASS" in proc.stdout


def test_certify_with_nan_gain_exits_1_without_traceback(tmp_path):
    gains = tmp_path / "gains.json"
    gains.write_text('{"gains_mrad_mV": {"0": [[NaN, 0.0], [0.0, -10.0]]}}')
    proc = subprocess.run(
        [sys.executable, "-m", "microgridctl.cli", "certify", CASE, str(gains)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_simulate_stats_prints_run_counters(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({
        "events": [{"t": 0.05, "kind": "der_loss", "bus": 0}],
        "sim": {"t_end": 0.1, "dt": 0.005, "record_stride": 4},
    }))
    assert main(["simulate", CASE, GAINS, str(scen), "--stats"]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    # 20 RK4 steps of 4 stages, plus one law evaluation per recorded row (t = 0, 0.02, ..., 0.1)
    assert stats == {"derivative_evals": 86, "dt_halvings": 0, "eliminated_buses": [9, 10],
                     "newton_iters": 0, "start": "equilibrium", "start_fallback": None,
                     "tangent_updates": 0}


def _json_lines(text):
    return [json.loads(ln) for ln in text.splitlines() if ln.startswith("{")]


def test_synthesize_and_certify_stats_print_search_counters(tmp_path, capsys):
    pair = make_case([inverter(0, P=1.0, Q=0.5), inverter(1, P=0.5, Q=0.25),
                      z_load(2, G=0.4, B=0.15)],
                     [line(0, 2, R=0.03, X=0.12), line(1, 2, R=0.04, X=0.15)], [[0, 1]])
    case = tmp_path / "pair.json"
    case.write_text(case_to_json(pair))
    prefix = str(tmp_path / "pair")
    assert main(["synthesize", str(case), "--stats", "--out", prefix]) == 0
    out = capsys.readouterr().out
    assert "PASS: 400 vertices, " in out  # the full product fits: no subset wording
    [stats] = _json_lines(out)
    assert set(stats) == {"margin_stacks", "screened_vertices", "exact_margins", "zeta_halvings",
                          "zeta_skipped"}
    cert = json.loads((tmp_path / "pair.cert.json").read_text())
    assert cert["meta"]["stats"] == stats
    # the same gains give the same search, counted the same
    assert main(["certify", str(case), prefix + ".gains.json", "--stats"]) == 0
    assert _json_lines(capsys.readouterr().out) == [stats]
    assert main(["certify", str(case), prefix + ".gains.json"]) == 0
    assert _json_lines(capsys.readouterr().out) == []


def _trace_csv(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"sim": {"t_end": 0.02, "dt": 0.005}}))
    path = tmp_path / "trace.csv"
    assert main(["simulate", CASE, GAINS, str(scen), "--out", str(path)]) == 0
    return path


def _non_numeric_cell(tmp_path):
    path = _trace_csv(tmp_path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, "x," + first.split(",", 1)[1], *rest]) + "\n")
    return ["metrics", str(path)]


def _no_t_column(tmp_path):
    path = _trace_csv(tmp_path)
    path.write_text("".join(ln.split(",", 1)[1] + "\n" for ln in path.read_text().splitlines()))
    return ["metrics", str(path)]


def _ranges(text):
    def argv(tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text(text)
        return ["check-case", CASE, "--ranges", str(path)]
    return argv


def _scenario(text):
    def argv(tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(text)
        return ["simulate", CASE, GAINS, str(path)]
    return argv


def _subnormal_line(command, patch):
    def argv(tmp_path):
        doc = json.loads(Path(CASE).read_text(encoding="utf-8"))
        doc["lines"][0].update(patch)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        scenario = str(bundled.data_path(bundled.SCENARIO_LOADSTEP))
        return [command, str(path), GAINS] + ([scenario] if command == "simulate" else [])
    return argv


BAD_INPUTS = {
    "metrics_non_numeric_cell": _non_numeric_cell,
    "metrics_without_t_column": _no_t_column,
    "ranges_bad_json": _ranges("{bad"),
    "ranges_top_level_list": _ranges("[1, 2]"),
    "ranges_non_integer_bus": _ranges('{"P": {"x": [0.0, 1.0]}}'),
    "ranges_400_digit_integer": _ranges('{"P": {"0": [0, 1%s]}}' % ("0" * 400)),
    "ranges_bus_outside_the_case": _ranges('{"P": {"99": [0.0, 1.0]}}'),
    "ranges_q_at_an_inverter_bus": _ranges('{"Q": {"0": [-1.0, 1.0]}}'),
    "check_case_on_a_directory": lambda tmp_path: ["check-case", str(tmp_path)],
    "simulate_too_many_steps": _scenario('{"sim": {"t_end": 1e12, "dt": 0.005}}'),
    "simulate_subnormal_line_R": _subnormal_line("simulate", {"R": 1e-320, "X": 0.0}),
    "certify_subnormal_line_X": _subnormal_line("certify", {"R": 0.0, "X": 1e-310}),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_1_without_traceback(name, tmp_path, capsys):
    argv = BAD_INPUTS[name](tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_ranges_are_checked(tmp_path, capsys):
    path = tmp_path / "ranges.json"
    path.write_text('{"P": {"0": [0.0, 5.0]}, "Q": {"3": [-1.0, 1.0]}}')
    assert main(["check-case", CASE, "--ranges", str(path)]) == 0
    assert "(f) PASS" in capsys.readouterr().out
    path.write_text('{"P": {"0": [0.0, NaN]}}')
    assert main(["check-case", CASE, "--ranges", str(path)]) == 1


def test_metrics_of_a_trace_from_another_case_exits_1(tmp_path, capsys):
    other = make_case([inverter(0), inverter(1, P=0.5, Q=0.25), z_load(2, G=0.4, B=0.15)],
                      [line(0, 2, R=0.03, X=0.12), line(1, 2, R=0.04, X=0.15)], [[0, 1]])
    case = tmp_path / "other.json"
    case.write_text(case_to_json(other))
    path = _trace_csv(tmp_path)
    assert main(["metrics", str(path), "--case", str(case)]) == 1
    assert "do not match the case" in capsys.readouterr().err
