"""Mutated bundled inputs end in the documented parse errors, never a raw exception.

Each example drops keys or list entries, swaps values for other JSON types,
inserts NaN or +-inf, or nests a value one list deeper (a shape change),
then hands the text to the parser.  Non-finite numbers reach the parser as
the ``NaN``/``Infinity`` tokens that Python's json module reads.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from microgridctl import data as bundled
from microgridctl.certify import CertificateError, parse_certificate
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
