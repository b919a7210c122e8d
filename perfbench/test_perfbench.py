"""Checks of the benchmark itself: case lists, goldens, tracing, refusals.

    python3 -m pytest -q perfbench

Each check runs a handful of small operations, in a subprocess wherever the
tracer patches the program, so the program's modules stay untouched here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

# Small operations that also appear in the workloads, so they have goldens.
SMALL_OPS = [
    ["verify", "--type", "A", "--rank", "2", "--weight", "1,1"],
    ["verify", "--type", "B", "--rank", "2", "--weight", "1,1"],
    ["verify", "--type", "G", "--rank", "2", "--weight", "1,0"],
    ["selftest", "--type", "A", "--rank", "1", "--seed", "5"],
]

# Runs the command lines in argv[2] (JSON) in a fresh interpreter, traced if
# argv[1] == "1", and prints their exit codes, digests and the span call counts.
PROBE = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import pathcrystals.cli as cli
import tracer as T
import worker
tr = T.Tracer()
if sys.argv[1] == "1":
    T.install(tr)
import pathcrystals.characters as characters, pathcrystals.decompose as decompose
ops = [worker.run_op(cli, argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({{
    "digests": [[rc, digest] for rc, digest, _, _ in ops],
    "calls": tr.calls(),
    "rebound": decompose.decompose_hd is characters.decompose_hd
               and hasattr(decompose.decompose_hd, "__wrapped__")
               and hasattr(cli.demazure_character, "__wrapped__"),
}}))
"""


def _probe(trace: int, argvs=SMALL_OPS) -> dict:
    code = PROBE.format(here=HERE, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-I", "-c", code, str(trace), json.dumps(argvs)],
                         capture_output=True, check=True, timeout=120)
    return json.loads(out.stdout)


def _golden_id(argv):
    return " ".join(argv[:-2] if argv[0] == "selftest" else argv)


def test_sweep_covers_all_types_with_at_least_100_ops():
    ops = W.operations("verify-sweep", 0)
    assert len(ops) >= 100
    assert len({op_id for op_id, _ in ops}) == len(ops)
    assert {(argv[2], int(argv[4])) for _, argv in ops} == set(W.TYPES)
    assert sorted(ops) == sorted(W.operations("verify-sweep", 1))
    assert ops != W.operations("verify-sweep", 1)


def test_every_operation_has_a_passing_golden():
    goldens = run.load_goldens()
    ids = {op_id for w in W.WORKLOADS for op_id, _ in W.operations(w, 3)}
    assert ids == set(goldens)
    assert all(rec["rc"] == 0 for rec in goldens.values())


def test_corrupted_golden_counts_as_failure():
    probe = _probe(0)
    goldens = run.load_goldens()
    ops = [{"id": _golden_id(argv), "rc": rc, "sha256": digest}
           for argv, (rc, digest) in zip(SMALL_OPS, probe["digests"])]
    assert run.failures(ops, goldens) == []
    corrupted = dict(goldens)
    corrupted[ops[1]["id"]] = {"rc": 0, "sha256": "0" * 64}
    assert run.failures(ops, corrupted) == [ops[1]["id"]]
    ops[2]["rc"] = 2
    assert len(run.failures(ops, goldens)) == 1


def test_digests_match_with_tracing_on_and_off():
    plain, traced = _probe(0), _probe(1)
    assert plain["digests"] == traced["digests"]
    assert traced["rebound"] and not plain["rebound"]
    calls = traced["calls"]
    # decompose reaches decompose_hd through its own imported name.
    assert calls["characters.decompose_hd"] > 0
    assert calls["decompose.verify_main"] == 3
    assert calls["cli.main"] == len(SMALL_OPS)


def test_sweep_failing_cases_still_fail():
    # Once these exit 0, move them into VERIFY_SWEEP and re-record the goldens.
    argvs = [W._verify(*case)[1] for case in W.SWEEP_FAILING]
    assert [rc for rc, _ in _probe(0, argvs)["digests"]] == [2] * len(argvs)


def test_hd_median_moves_little_when_one_value_crosses_a_gap():
    assert run.hd_median([1.0, 2.0, 3.0]) == 2.0
    low, high = [100.0] * 50, [200.0] * 50
    before, after = run.hd_median(low + [110.0] + high), run.hd_median(low + [190.0] + high)
    assert 0 < after - before < 0.1 * (190.0 - 110.0)


def test_normalised_times_cancel_a_uniform_host_slowdown():
    def report(slowdown):
        ops = [{"s": s * slowdown} for s in (0.1, 0.2, 0.4)]
        return {"ops": ops, "maxrss_mb": 20.0,
                "probe_ns": [run.PROBE_NOMINAL_NS * slowdown * k for k in (1, 1, 2)]}

    plain, slow = run.end_to_end([0.1], [report(1.0)]), run.end_to_end([0.1], [report(1.6)])
    for name in ("wall_norm_s", "op_p50_norm_ms"):
        assert abs(slow[name][0] - plain[name][0]) < 1e-9 * plain[name][0]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    op = {"id": "x", "rc": 0, "sha256": "", "bytes": 10, "s": 0.5}
    rep = {"setup_s": 0.1, "ops": [op, op], "probe_ns": [run.PROBE_NOMINAL_NS],
           "maxrss_mb": 20.0, "trace": {"stats": {}, "edges": []}}
    e2e = run.end_to_end([0.1, 0.2], [rep])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layers = run.per_layer(rep, rep)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_python_O():
    out = subprocess.run([sys.executable, "-O", os.path.join(HERE, "run.py"),
                          "--workload", "verify-large", "--seed", "0", "--seconds", "1"],
                         capture_output=True, timeout=60)
    assert out.returncode != 0 and out.stdout == b""


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-sweep",
                          "--seed", "0", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, timeout=60)
    assert out.returncode != 0 and out.stdout == b""
