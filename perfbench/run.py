"""Benchmark of the pathcrystals CLI: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass runs the workload's operations
in a fresh interpreter (``worker.py``), so every pass starts with cold
caches, as a CLI invocation does.  With ``--trace 0`` the run takes set-up
samples before and after its passes, repeats passes while another one still
fits in ``--seconds``, and reports the end-to-end metrics as medians over
passes.
With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  Every operation's exit code and stdout
digest are checked against ``goldens.json``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
# Set-up-only interpreters per untraced run, besides the passes; half run
# before the passes and half after, so the median spans the host's speed
# over the whole run.
SETUP_SAMPLES = 20
RUN_LIMIT_S = 170  # every child is killed past this point of the run
P90_MIN_OPS = 100
# Duration of worker.probe_loop at the nominal host speed: its median on the
# 2-vCPU virtual machine (Intel Xeon, Python 3.11.7) the baseline was
# recorded on.  The *_norm_* metrics are times at that speed.
PROBE_NOMINAL_NS = 180_000

LAYERS = ("rootdata", "paths", "crystals", "characters", "demazure", "decompose", "cli")
# Layers whose spans each workload must reach, plus spans named in full.
REQUIRED = {
    "verify-large": LAYERS + ("characters.decompose_hd",),
    "verify-sweep": LAYERS + ("characters.decompose_hd",),
    "crystal-kernel": ("rootdata", "paths", "crystals", "demazure", "cli",
                       "crystals.graph_to_json"),
}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, trace=0, setup_only=False, deadline=None):
    """Run one worker interpreter and return its parsed report."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    cmd += ["--started-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def failures(ops, goldens) -> list:
    """Operations with a nonzero exit code or a stdout digest off the golden."""
    return [op["id"] for op in ops
            if op["rc"] != 0 or goldens.get(op["id"]) != {"rc": 0, "sha256": op["sha256"]}]


def hd_median(values):
    """Harrell-Davis estimate of the median (Biometrika 69, 1982): a mean of
    all order statistics weighted by the Beta((n+1)/2, (n+1)/2) density over
    their ranks.  The middle value alone jumps when one operation crosses a
    gap at the middle rank, as the cache-order effects of the shuffled sweep
    make some operations do; this estimate moves only by that operation's
    weight."""
    ordered = sorted(values)
    n = len(ordered)
    steps = 64  # midpoint rule per rank slice
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum((4 * x * (1 - x)) ** ((n - 1) / 2) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def pass_wall(report) -> float:
    return sum(op["s"] for op in report["ops"])


def latencies_ms(passes) -> list:
    return [[op["s"] * 1e3 for op in rep["ops"]] for rep in passes]


def host_factor(report) -> float:
    """Actual ÷ nominal host speed, averaged over the pass: the mean of
    nominal ÷ measured probe durations, so a stretch at half speed counts
    0.5.  Times multiplied by it are times at the nominal speed."""
    return statistics.fmean(PROBE_NOMINAL_NS / ns for ns in report["probe_ns"])


def raw_times(passes) -> dict:
    """Pass wall time and median operation latency as measured, medians over
    passes; printed on a `#` line beside the normalised metrics."""
    return {
        "wall_s": statistics.median(pass_wall(rep) for rep in passes),
        "op_p50_ms": statistics.median(hd_median(v) for v in latencies_ms(passes)),
        "host_factor": statistics.median(host_factor(rep) for rep in passes),
    }


def end_to_end(setups, passes) -> dict:
    factors = [host_factor(rep) for rep in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_norm_s": (statistics.median(pass_wall(rep) * f
                                          for rep, f in zip(passes, factors)), "s"),
        "op_p50_norm_ms": (statistics.median(hd_median(v) * f for v, f
                                             in zip(latencies_ms(passes), factors)), "ms"),
        "peak_rss_mb": (statistics.median(rep["maxrss_mb"] for rep in passes), "MB"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics from one traced pass; the untraced pass gives the base
    of the tracing overhead."""
    raw = traced["trace"]["stats"]
    edges = {(p, c): n for p, c, n in traced["trace"]["edges"]}

    def stat(name):
        calls, incl_ns, self_ns, non_none, size = raw.get(name, (0, 0, 0, 0, 0))
        return {"calls": calls, "incl_s": incl_ns / 1e9, "self_s": self_ns / 1e9,
                "non_none": non_none, "size": size}

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("rootdata.solve_exact.calls", stat("rootdata.solve_exact")["calls"], "count")
    put("rootdata.solve_exact.self_s", stat("rootdata.solve_exact")["self_s"], "s")
    put("rootdata.root_system.self_s", stat("rootdata.root_system")["self_s"], "s")
    for op in ("e_op", "f_op", "eps_phi"):
        s = stat(f"paths.{op}")
        put(f"paths.{op}.calls", s["calls"], "count")
        put(f"paths.{op}.self_s", s["self_s"], "s")
        put(f"paths.{op}.us_per_call", _ratio(s["incl_s"] * 1e6, s["calls"]), "us")
    e_op = stat("paths.e_op")
    put("paths.e_op.yield", _ratio(e_op["non_none"], e_op["calls"]), "ratio")

    gen = stat("crystals.generate_level_zero")
    put("crystals.generate_level_zero.calls", gen["calls"], "count")
    put("crystals.generate_level_zero.nodes", gen["size"], "count")
    put("crystals.generate_level_zero.nodes_per_s", _ratio(gen["size"], gen["incl_s"]), "1/s")
    cached = stat("crystals.level_zero_cached")["calls"]
    built = edges.get(("crystals.level_zero_cached", "crystals.generate_level_zero"), 0)
    put("crystals.level_zero_cached.hit_ratio", _ratio(cached - built, cached), "ratio")
    put("crystals.graph_to_json.self_s", stat("crystals.graph_to_json")["self_s"], "s")

    hd = stat("characters.decompose_hd")
    put("characters.decompose_hd.calls", hd["calls"], "count")
    put("characters.decompose_hd.incl_s", hd["incl_s"], "s")
    put("characters.decompose_hd.per_verify",
        _ratio(stat("decompose.verify_main")["calls"], hd["calls"]), "ratio")
    put("characters.in_q_plus.calls", stat("characters.in_q_plus")["calls"], "count")
    put("characters.peel_demazure.incl_s", stat("characters.peel_demazure")["incl_s"], "s")
    fc = stat("characters.finite_char")["calls"]
    fc_built = edges.get(("characters.finite_char", "crystals.finite_closure"), 0)
    put("characters.finite_char.hit_ratio", _ratio(fc - fc_built, fc), "ratio")

    for fn in ("demazure_character", "f_string_closure"):
        s = stat(f"demazure.{fn}")
        put(f"demazure.{fn}.calls", s["calls"], "count")
        put(f"demazure.{fn}.incl_s", s["incl_s"], "s")

    for fn in ("path_side_char", "weyl_filtration_multiset", "filtration_char",
               "decompose_tensor_image", "short_restriction_identity"):
        put(f"decompose.{fn}.incl_s", stat(f"decompose.{fn}")["incl_s"], "s")
    put("decompose.verify_main.self_s", stat("decompose.verify_main")["self_s"], "s")

    # Self time of each layer; for cli that is the time in cli code outside
    # the other layers: parsing, the selftest loop and serialisation.
    for layer in LAYERS:
        name = "cli.main.self_s" if layer == "cli" else f"{layer}.self_s"
        put(name, sum(row[2] for span, row in raw.items() if span.startswith(layer + "."))
            / 1e9, "s")
    put("cli.stdout_bytes", sum(op["bytes"] for op in traced["ops"]), "B")
    put("trace.overhead_frac", pass_wall(traced) * host_factor(traced)
        / (pass_wall(untraced) * host_factor(untraced)) - 1, "ratio")
    return out


def coverage_gaps(workload, traced) -> list:
    """Required layers or spans that the traced pass never entered."""
    calls = {name: row[0] for name, row in traced["trace"]["stats"].items()}
    gaps = []
    for req in REQUIRED[workload]:
        if "." in req:
            hit = calls.get(req, 0)
        else:
            hit = sum(n for name, n in calls.items() if name.startswith(req + "."))
        if not hit:
            gaps.append(req)
    return gaps


def measure(workload, seed, seconds, trace, goldens):
    """Run the workload; returns (summary lines, attempted, bad op ids, metrics, ok)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn(workload, seed, setup_only=True, deadline=deadline)  # compiles bytecode
    if trace:
        untraced = spawn(workload, seed, deadline=deadline)
        traced = spawn(workload, seed, trace=1, deadline=deadline)
        bad = failures(untraced["ops"], goldens) + failures(traced["ops"], goldens)
        gaps = coverage_gaps(workload, traced)
        lines = [f"trace: span coverage gaps {gaps}" if gaps else "trace: span coverage ok"]
        for op in traced["ops"]:
            counts = " ".join(f"{k}={v}" for k, v in op["calls"].items())
            lines.append(f"op {op['id']}: {counts}")
        attempted = len(untraced["ops"]) + len(traced["ops"])
        return lines, attempted, bad, per_layer(traced, untraced), not gaps

    def setup_samples(count):
        return [spawn(workload, seed, setup_only=True, deadline=deadline)["setup_s"]
                for _ in range(count)]

    setups = setup_samples(SETUP_SAMPLES // 2)
    closing_s = time.monotonic() - start  # the closing samples take about as long
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, seed, deadline=deadline))
        now = time.monotonic()
        if now - start + (now - t0) + closing_s > seconds:
            break
    setups += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setups += [rep["setup_s"] for rep in passes]
    bad = [op for rep in passes for op in failures(rep["ops"], goldens)]
    n_ops = len(passes[0]["ops"])
    lines = [f"passes={len(passes)} ops_per_pass={n_ops} setup_samples={len(setups)}",
             " ".join(f"{k}={v}" for k, v in raw_times(passes).items())]
    # A p90 needs ten samples beyond it, so only a pass of 100 operations
    # has one; it is printed here because a metric must exist on every workload.
    if n_ops >= P90_MIN_OPS:
        p90_ms = statistics.median(p90(v) for v in latencies_ms(passes))
        lines.append(f"op_p90_ms={p90_ms} over {n_ops} operations per pass")
    return lines, sum(len(rep["ops"]) for rep in passes), bad, end_to_end(setups, passes), True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O: selftest checks are "
              "bare asserts and would pass without checking", file=sys.stderr)
        return 2
    try:
        lines, attempted, bad, metrics, ok = measure(
            args.workload, args.seed, args.seconds, args.trace, load_goldens())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"# {line}")
    for op_id in bad:
        print(f"# FAILED {op_id}")
    print(json.dumps({
        "correct": ok and not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
