"""The falsifier against exhaustive enumeration on products small enough to list,
and the judgement of verification reports that rests on it.

    python3 -m pytest -q bench/test_falsifier.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import certcheck  # noqa: E402
import workloads  # noqa: E402
from model import Network  # noqa: E402


@pytest.fixture(scope="module")
def bundle():
    from microgridctl import certify, controller, netmodel

    case = netmodel.load_case(workloads.DATA / "case14.json")
    gains = controller.load_gains(workloads.DATA / "gains14_synth.json")
    cert = certify.load_certificate(workloads.DATA / "cert14.json", case, gains)
    hull = certify.build_hull(case)
    net = Network(workloads._read("case14.json"), workloads._read("gains14_synth.json"))
    pos = {b: k for k, b in enumerate(net.inverters)}
    positions = [[2 * pos[b] + s for b in blk for s in (0, 1)] for blk in hull.blocks]
    form = certcheck.QuadraticForm(net, positions, cert.U, cert.eps, cert.xi, cert.zeta,
                                   cert.zeta_mode)
    return form, [np.asarray(bb.D_stack) for bb in hull.per_block], (case, gains, cert, hull)


@pytest.mark.parametrize("seed", range(4))
def test_worst_margin_equals_exhaustive_maximum(bundle, seed):
    form, stacks, _ = bundle
    rng = np.random.default_rng(seed)
    # a random sub-product of a few hundred vertices, then the attainer product
    for lists in ([s[rng.choice(len(s), size=min(len(s), k), replace=False)]
                   for s, k in zip(stacks, (12, 6, 4))],
                  [certcheck.attainers(s) for s in stacks]):
        margins, combos = form.exhaustive(lists)
        found, combo = form.falsify(lists, workloads.FALSIFIER_STARTS, rng)
        assert found == pytest.approx(margins.max(), abs=1e-12)
        assert form.margins(form.block_terms(lists), [combo])[0] == found


def test_bundled_certificate_fails_on_the_full_product(bundle):
    form, stacks, _ = bundle
    rng = np.random.default_rng(workloads.FALSIFIER_SEED)
    found, _ = form.falsify([certcheck.dedup(s) for s in stacks], workloads.FALSIFIER_STARTS, rng)
    assert found > certcheck.MARGIN_TOL


def test_verification_is_judged_by_its_verdict(bundle):
    """Today's PASS on the attainer subset counts as failed; a FAIL over a wider set does not."""
    from microgridctl import certify

    form, stacks, (case, gains, cert, hull) = bundle
    subset = [certcheck.attainers(s) for s in stacks]
    margins, _ = form.exhaustive(subset)
    full = [certcheck.dedup(s) for s in stacks]
    found, combo = form.falsify(full, workloads.FALSIFIER_STARTS,
                                np.random.default_rng(workloads.FALSIFIER_SEED))

    today = certify.verify_certificate(case, gains, cert)
    assert today.passed and not certcheck.judge_report(today, margins, found)

    # the program's vertices plus the falsifier's product vertex, as a library
    # that covers the whole product would include it
    checked = certify.certification_vertices(hull)
    vertex = np.zeros(checked.shape[1:])
    for bi, vi in enumerate(combo):
        ix = np.ix_(hull.block_positions(bi), hull.block_positions(bi))
        vertex[ix] = full[bi][vi]
    wider = np.concatenate([checked, vertex[None]])
    rejected = certify.verify_certificate(case, gains, cert, vertex_matrices=wider)
    assert rejected.n_vertices == len(margins) + 1 and not rejected.passed
    assert rejected.worst == pytest.approx(found, abs=certcheck.AGREE_TOL)
    assert certcheck.judge_report(rejected, margins, found)
