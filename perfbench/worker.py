"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` as ``python -I perfbench/worker.py ...``.  It imports
the program from ``src/`` of the checkout that holds this directory, builds
the root systems the workload uses (the set-up), then drives every operation
through ``pathcrystals.cli.main(argv)`` with stdout captured, exactly as a
user's command runs.  It prints one JSON object with the set-up time, each
operation's exit code, stdout digest, byte count and latency, the durations
of the host-speed probe taken while the operations ran, the peak RSS and,
when traced, the span aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# Per-operation call counts shown by the traced run.
DETAIL = ("characters.decompose_hd", "rootdata.solve_exact", "paths.e_op")
# The host-speed probe runs a fixed pure-Python loop from a timer signal at
# this interval while the operations run, about 0.3% of the time.  A shared
# virtual machine can slow all Python code alike by up to 1.6x for minutes at
# a time (seen on a 2-vCPU KVM guest); the probe's durations measure by how
# much.
PROBE_EVERY_S = 0.05


def probe_loop():
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


@contextlib.contextmanager
def host_probe(durations_ns):
    """Append one probe duration to durations_ns per timer tick."""
    def tick(signum, frame):
        start = time.perf_counter_ns()
        probe_loop()
        durations_ns.append(time.perf_counter_ns() - start)

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(cli, argv):
    buf = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an uncaught error fails the op, not the pass
            traceback.print_exc()
            rc = None
    elapsed = time.perf_counter_ns() - start
    data = buf.getvalue().encode()
    return rc, hashlib.sha256(data).hexdigest(), len(data), elapsed / 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before the spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    import pathcrystals.cli as cli
    import pathcrystals.rootdata as rootdata

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = T.Tracer()
        T.install(tracer)
    for letter, rank in W.types_used(args.workload):
        rootdata.root_system(letter, rank)
    setup_s = (time.monotonic_ns() - args.started_ns) / 1e9

    ops, probe_ns = [], []
    if not args.setup_only:
        with host_probe(probe_ns):
            for op_id, op_argv in W.operations(args.workload, args.seed):
                before = tracer.calls() if tracer else None
                rc, digest, nbytes, seconds = run_op(cli, op_argv)
                rec = {"id": op_id, "rc": rc, "sha256": digest, "bytes": nbytes,
                       "s": seconds}
                if tracer:
                    after = tracer.calls()
                    rec["calls"] = {n: after.get(n, 0) - before.get(n, 0) for n in DETAIL}
                ops.append(rec)

    result = {
        "setup_s": setup_s,
        "ops": ops,
        "probe_ns": probe_ns,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
