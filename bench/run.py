"""Benchmark of microgridctl: closed-loop studies and certificate search.

    python3 bench/run.py --workload scenarios14|cpower14|certify14 \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until the next round would pass S
seconds of timed calls, checks every output against its own
recomputation, and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs half the budget untraced, then wraps the
library's public functions and reports per-layer metrics (see README.md).
The result also goes to ``bench/out/``.  A failed check exits 1.
"""

import os

# numpy's own thread pools are capped at the CPUs this process may use;
# must happen before numpy is first imported.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    _cur = os.environ.get(_var, "")
    _n = int(_cur) if _cur.isdigit() and int(_cur) > 0 else _NPROC
    os.environ[_var] = str(min(_n, _NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scenarios14", "cpower14", "certify14"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up, print the monotonic clock and exit (setup_s sample)")
    return ap.parse_args(argv)


def setup_sample(args, cpu) -> float:
    """One cold set-up in a fresh interpreter: spawn to inputs ready, less steal, in seconds."""
    from workloads import steal_s

    s0, t0 = steal_s(cpu), time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    t_ready, s_ready = map(float, done.stdout.split()[-2:])
    return t_ready - t0 - (s_ready - s0)


def run_rounds(wl, seconds, cpu):
    """Whole rounds until another would pass `seconds` of timed calls."""
    from workloads import Clock

    clock = Clock(cpu)
    rounds = attempted = failed = 0
    while True:
        ops = wl.run_round(rounds, clock)
        passed = [op.error is None and wl.check(op) for op in ops]
        del ops  # a round's outputs must not outlive it, or peak_rss_mb grows with rounds
        attempted += len(passed)
        failed += passed.count(False)
        rounds += 1
        if clock.total * (rounds + 1) / rounds > seconds:
            return rounds, clock.total, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "microgridctl" / "__init__.py").is_file():
        print(f"microgridctl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, current_cpu, steal_s
    from model import CheckError

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.setup()
        print(repr(time.perf_counter()), repr(steal_s(current_cpu())))
        return 0
    # Pin the main thread (numpy's pools, started at import, keep every CPU)
    # so the steal counted on its CPU can be taken out of the timings.
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu})

    try:
        if args.trace:
            result = traced(wl, args, cpu)
        else:
            setups = [setup_sample(args, cpu) for _ in range(SETUP_SAMPLES)]
            wl.setup()
            wl.prepare_checks()
            rounds, timed, attempted, failed = run_rounds(wl, args.seconds, cpu)
            metrics = {
                "wall_s": {"value": timed / rounds, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
        code = 0
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = 1
    OUT.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return code


def traced(wl, args, cpu):
    from tracing import Tracer, per_layer_metrics

    wl.setup()
    wl.prepare_checks()
    n_plain, t_plain, attempted, failed = run_rounds(wl, 0.5 * args.seconds, cpu)
    tracer = Tracer()
    tracer.install()
    try:
        m_setup = tracer.mark()
        wl.setup()
        m_rounds = tracer.mark()
        n_traced, t_traced, a, f = run_rounds(wl, 0.5 * args.seconds, cpu)
        m_end = tracer.mark()
    finally:
        tracer.uninstall()
    overhead = t_traced / n_traced - t_plain / n_plain
    metrics = per_layer_metrics(tracer, m_setup, m_rounds, m_end, n_traced, overhead)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return {"correct": True, "attempted": attempted + a, "failed": failed + f, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
