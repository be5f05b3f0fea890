"""Mutated bundled inputs end in the documented parse errors, never a raw exception.

Each example drops keys or list entries, swaps values for other JSON types,
inserts NaN or +-inf, or nests a value one list deeper (a shape change),
then hands the text to the parser.  Non-finite numbers reach the parser as
the ``NaN``/``Infinity`` tokens that Python's json module reads.  The
command-line tests at the end feed such files, and damaged trace CSVs, to
the ``microgridctl`` subcommands, which must end in a documented exit code.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from microgridctl import data as bundled
from microgridctl.certify import CertificateError, parse_certificate
from microgridctl.cli import main
from microgridctl.controller import parse_gains
from microgridctl.netmodel import ParseError, ValidationError, parse_case
from microgridctl.sim import parse_scenario

DOCUMENTED = (ParseError, ValidationError, CertificateError)
NON_FINITE = (math.nan, math.inf, -math.inf)
JUNK = (None, True, "x", "", [], {}, [1.0, 2.0], {"a": 1}, 0, -1, 1e308) + NON_FINITE


def _doc(name):
    return json.loads(bundled.data_path(name).read_text(encoding="utf-8"))


def _paths(node):
    """Every (container, key) slot of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _paths(child)


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_paths(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("drop", "junk", "non_finite", "nest")))
        if op == "drop":
            del parent[key]
        elif op == "junk":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif op == "non_finite":
            parent[key] = draw(st.sampled_from(NON_FINITE))
        else:
            parent[key] = [parent[key]]
    return json.dumps(doc)


def _parses_or_documented_error(parse, text):
    try:
        parse(text)
    except DOCUMENTED:
        pass


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(mutated(_doc(bundled.CASE14)))
def test_fuzzed_case_raises_only_documented_errors(text):
    _parses_or_documented_error(parse_case, text)


@FUZZ
@given(mutated(_doc(bundled.GAINS14)))
def test_fuzzed_gains_raise_only_documented_errors(text):
    _parses_or_documented_error(parse_gains, text)


@FUZZ
@given(mutated(_doc(bundled.SCENARIO_DERLOSS) | {"events": [
    {"t": 0.5, "kind": "load_step", "bus": 9, "dP": 0.01, "dQ": 0.005},
    {"t": 1.0, "kind": "der_loss", "bus": 0, "residual": {"P": 0.01, "Q": 0.0}},
    {"t": 2.0, "kind": "comm_loss", "edge": [0, 1]},
]}))
def test_fuzzed_scenario_raises_only_documented_errors(case14, text):
    _parses_or_documented_error(lambda t: parse_scenario(t, case14), text)


@FUZZ
@given(mutated(_doc(bundled.CERT14)))
def test_fuzzed_certificate_raises_only_documented_errors(text):
    _parses_or_documented_error(parse_certificate, text)


# -- the command line on mutated files ------------------------------------------
#
# The bundled files and a short trace CSV are mutated as above, rescaled or
# truncated, written to disk and handed to ``cli.main``.  Whatever the mutant, the
# command must return one of the documented exit codes: no exception escapes.

CASE = str(bundled.data_path(bundled.CASE14))
SHORT_SCENARIO = {"events": [
    {"t": 0.02, "kind": "load_step", "bus": 9, "dP": 0.01, "dQ": 0.005},
    {"t": 0.04, "kind": "der_loss", "bus": 0, "residual": {"P": 0.01, "Q": 0.0}},
    {"t": 0.06, "kind": "comm_loss", "edge": [1, 2]},
], "sim": {"t_end": 0.1, "dt": 0.005, "record_stride": 5}}
CELLS = ("x", "", "nan", "inf", "-inf", "1e999", "-1", "0.5")
CLI_FUZZ = settings(FUZZ, max_examples=25)


@st.composite
def truncated(draw, doc):
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text) - 1))]


@st.composite
def rescaled(draw, doc):
    """Numbers scaled by 0, -1, 1/2 or 2: mostly still well-formed, often invalid."""
    doc = copy.deepcopy(doc)
    slots = [(p, k) for p, k in _paths(doc) if type(p[k]) in (int, float)]
    for _ in range(draw(st.integers(1, 3))):
        parent, key = draw(st.sampled_from(slots))
        parent[key] *= draw(st.sampled_from((0, -1, 0.5, 2)))
    return json.dumps(doc)


def damaged(doc):
    return st.one_of(mutated(doc), truncated(doc), rescaled(doc))


@st.composite
def mutated_csv(draw, text):
    """Junk or NaN cells, dropped cells or columns, or a file cut short."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[r].split(",")
        c = draw(st.integers(0, len(cells) - 1))
        op = draw(st.sampled_from(("junk", "junk", "drop_cell", "drop_column", "truncate")))
        if op == "junk":
            lines[r] = ",".join(cells[:c] + [draw(st.sampled_from(CELLS))] + cells[c + 1 :])
        elif op == "drop_cell":
            lines[r] = ",".join(cells[:c] + cells[c + 1 :])
        elif op == "drop_column":
            lines = [",".join(x for k, x in enumerate(ln.split(",")) if k != c) for ln in lines]
        else:
            lines = lines[:r] + [",".join(cells[:c])]
    return "\n".join(lines) + "\n"


def _short_trace_csv():
    from microgridctl.sim import parse_scenario, run_scenario, write_trace_csv

    case = bundled.bundled_case()
    trace = run_scenario(case, bundled.bundled_gains(), parse_scenario(json.dumps(SHORT_SCENARIO), case))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz") / "mutant"


def _runs_cleanly(path, text, *argvs):
    """Every argv, with ``path`` holding ``text``, ends in a documented exit code."""
    path.write_text(text, encoding="utf-8")
    for argv in argvs:
        assert main([str(path) if a is None else a for a in argv]) in (0, 1, 2, 3), argv


@CLI_FUZZ
@given(damaged(_doc(bundled.CASE14)))
def test_cli_on_fuzzed_case_exits_with_a_documented_code(mutant_path, text):
    _runs_cleanly(mutant_path, text, ["check-case", None], ["bounds", None])


@CLI_FUZZ
@given(damaged(_doc(bundled.CERT14)))
def test_cli_on_fuzzed_certificate_exits_with_a_documented_code(mutant_path, text):
    synth = str(bundled.data_path(bundled.GAINS14_SYNTH))
    _runs_cleanly(mutant_path, text, ["certify", CASE, synth, "--cert", None])


@CLI_FUZZ
@given(damaged(SHORT_SCENARIO))
def test_cli_on_fuzzed_scenario_exits_with_a_documented_code(mutant_path, text):
    gains = str(bundled.data_path(bundled.GAINS14))
    _runs_cleanly(mutant_path, text, ["simulate", CASE, gains, None])


@settings(CLI_FUZZ, max_examples=60)
@given(st.deferred(lambda: mutated_csv(_short_trace_csv())))
def test_cli_on_fuzzed_trace_exits_with_a_documented_code(mutant_path, text):
    _runs_cleanly(mutant_path, text, ["metrics", None], ["metrics", None, "--case", CASE])


# -- one key policy and one number policy for every format ---------------------------
#
# Each edit turns a valid document into the text of one every reader must refuse
# with its documented error: a key the format does not know, at each object level
# that has a fixed key set; a number written as a string or a boolean; a key
# repeated in one object; or an id key not written as ``str(i)`` of an integer.
# The ranges file is read only by ``check-case``, which must exit 1 with an
# ``error:`` line.

RANGES = {"P": {"0": [0.0, 5.0]}, "Q": {"3": [-1.0, 1.0]}}
READERS = {  # format: (valid document, reader, documented error)
    "case": (_doc(bundled.CASE14), parse_case, ParseError),
    "gains": (_doc(bundled.GAINS14), parse_gains, ParseError),
    "scenario": (SHORT_SCENARIO, parse_scenario, ParseError),
    "certificate": (_doc(bundled.CERT14), parse_certificate, CertificateError),
    "ranges": (RANGES, None, ParseError),
}


def _at(doc, path):
    """The value at ``path`` (keys and list indices) of a document."""
    for key in path:
        doc = doc[key]
    return doc


def _set(path, value):
    """An edit that stores ``value`` at ``path`` of a document."""
    def edit(doc):
        _at(doc, path[:-1])[path[-1]] = value
        return json.dumps(doc)
    return edit


def _rename(path, old, new):
    """An edit that renames the key ``old`` of the object at ``path`` to ``new``."""
    def edit(doc):
        obj = _at(doc, path)
        obj[new] = obj.pop(old)
        return json.dumps(doc)
    return edit


def _repeat(path):
    """An edit that writes the first key of the object at ``path`` twice, with the
    same value: text that ``json.dumps`` of a dict cannot produce."""
    def edit(doc):
        obj = _at(doc, path)
        first = next(iter(obj))
        twice = "{" + json.dumps(first) + ": " + json.dumps(obj[first]) + ", " + json.dumps(obj)[1:]
        return json.dumps(doc).replace(json.dumps(obj), twice, 1)
    return edit


NUMBER = "must be a number"
EDITS = {
    "case-top-level": ("case", _set(["comm_edge"], []), "'comm_edge'"),
    "case-params": ("case", _set(["params", "f0_Hz"], 50.0), "'f0_Hz'"),
    "case-inverter-bus": ("case", _set(["buses", 0, "P_str"], 0.3), "'P_str'"),
    "case-load-bus": ("case", _set(["buses", 3, "E_mn"], 0.9), "'E_mn'"),
    "case-impedance-load": ("case", _set(["buses", 3, "load", "P"], 0.1), "'P'"),
    "case-power-load": ("case", _set(["buses", 3, "load"], {
        "kind": "constant_power", "P": 0.1, "Q": 0.05, "G": 0.0}), "'G'"),
    "case-line": ("case", _set(["lines", 0, "Imax"], 1.0), "'Imax'"),
    "case-string-number": ("case", _set(["lines", 0, "R"], "0.01"), NUMBER),
    "case-boolean-number": ("case", _set(["params", "gamma_deg"], True), NUMBER),
    "gains-top-level": ("gains", _set(["rate_limit"], {}), "'rate_limit'"),
    "gains-rate-limits": ("gains", _set(["rate_limits", "freq_dev_max"], 0.5), "'freq_dev_max'"),
    "gains-string-number": ("gains", _set(["rate_limits", "freq_dev_max_hz"], "0.3"), NUMBER),
    "gains-boolean-number": ("gains", _set(["gains_mrad_mV", "0", 0, 0], True), NUMBER),
    "scenario-top-level": ("scenario", _set(["event"], []), "'event'"),
    "scenario-sim": ("scenario", _set(["sim", "dT"], 0.01), "'dT'"),
    "scenario-load-step": ("scenario", _set(["events", 0, "dp"], 0.1), "'dp'"),
    "scenario-der-loss": ("scenario", _set(["events", 1, "residul"], {}), "'residul'"),
    "scenario-residual": ("scenario", _set(["events", 1, "residual", "q"], 0.0), "'q'"),
    "scenario-comm-loss": ("scenario", _set(["events", 2, "edges"], [1, 2]), "'edges'"),
    "scenario-string-number": ("scenario", _set(["events", 0, "t"], "1"), NUMBER),
    "scenario-boolean-number": ("scenario", _set(["sim", "dt"], True), NUMBER),
    "certificate-top-level": ("certificate", _set(["Zeta"], 0.1), "'Zeta'"),
    "certificate-string-number": ("certificate", _set(["xi"], "0.1"), NUMBER),
    "certificate-boolean-number": ("certificate", _set(["eps"], True), NUMBER),
    "certificate-string-in-U": ("certificate", _set(["U", 0, 0], "1.0"), NUMBER),
    "ranges-top-level": ("ranges", _set(["Qq"], {}), "'Qq'"),
    "ranges-string-number": ("ranges", _set(["P", "0", 0], "0"), NUMBER),
    "ranges-boolean-number": ("ranges", _set(["P", "0", 0], False), NUMBER),
    "case-repeated-key": ("case", _repeat(["params"]), "repeated key 'gamma_deg'"),
    "gains-repeated-bus": ("gains", _repeat(["gains_mrad_mV"]), "repeated key '0'"),
    "scenario-repeated-key": ("scenario", _repeat(["sim"]), "repeated key 't_end'"),
    "certificate-repeated-key": ("certificate", _repeat([]), "repeated key 'U'"),
    "ranges-repeated-bus": ("ranges", _repeat(["P"]), "repeated key '0'"),
    "gains-id-underscore": ("gains", _rename(["gains_mrad_mV"], "1", "0_1"), "'0_1'"),
    "gains-id-blanks": ("gains", _rename(["gains_mrad_mV"], "2", " 2 "), "' 2 '"),
    "ranges-id-leading-zero": ("ranges", _rename(["Q"], "3", "03"), "'03'"),
}


def _read(fmt, text, tmp_path, capsys):
    """``text`` read as ``fmt``: the parsed object, or for ranges the check-case exit code."""
    if fmt != "ranges":
        return READERS[fmt][1](text)
    path = tmp_path / "ranges.json"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["check-case", CASE, "--ranges", str(path)])
    if code:
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: "), err
        raise ParseError(err)
    return code


@pytest.mark.parametrize("name", sorted(EDITS))
def test_unknown_keys_and_non_numbers_are_refused(name, tmp_path, capsys):
    fmt, edit, match = EDITS[name]
    doc = copy.deepcopy(READERS[fmt][0])
    _read(fmt, json.dumps(doc), tmp_path, capsys)  # the edit is the document's only fault
    text = edit(doc)
    with pytest.raises(READERS[fmt][2], match=match):
        _read(fmt, text, tmp_path, capsys)
