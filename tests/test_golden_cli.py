"""Stored CLI outputs: exit code and stdout, byte for byte.

Each case runs ``cli.main`` in process and compares its stdout with
``tests/golden/<id>.out``.  The cases are the README commands, their
``--format tsv`` / ``--format dot`` variants where the command has them,
``decompose --nodes`` on C2 (2,0) and G2 (0,3), the three largest verify
cases of the ROADMAP, the filtration of G2 (0,4), the one small weight
where several dominant keys are maximal at once during the peel, and verify
on F4 (1,0,0,1) and B3 (2,0,2), which need larger irreducible characters.  One more
test runs every case again in a single ``python -O`` interpreter, where a
bare ``assert`` would be stripped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pathcrystals import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("crystal-C2-tsv", ["crystal", "--type", "C", "--rank", "2", "--weight", "1,0", "--format", "tsv"], 0),
    ("crystal-C2-json", ["crystal", "--type", "C", "--rank", "2", "--weight", "1,0"], 0),
    ("crystal-C2-dot", ["crystal", "--type", "C", "--rank", "2", "--weight", "1,0", "--format", "dot"], 0),
    ("demazure-A2", ["demazure", "--type", "A", "--rank", "2", "--weight", "1,1", "--level", "1",
                     "--mshift", "0", "--restrict"], 0),
    ("demazure-A2-tsv", ["demazure", "--type", "A", "--rank", "2", "--weight", "1,1", "--level", "1",
                         "--mshift", "0", "--restrict", "--format", "tsv"], 0),
    ("demazure-A2-dot", ["demazure", "--type", "A", "--rank", "2", "--weight", "1,1", "--level", "1",
                         "--mshift", "0", "--restrict", "--format", "dot"], 0),
    ("decompose-C2", ["decompose", "--type", "C", "--rank", "2", "--weight", "2,0"], 0),
    ("decompose-C2-tsv", ["decompose", "--type", "C", "--rank", "2", "--weight", "2,0", "--format", "tsv"], 0),
    ("decompose-C2-nodes", ["decompose", "--type", "C", "--rank", "2", "--weight", "2,0", "--nodes"], 0),
    ("decompose-G2-03-nodes", ["decompose", "--type", "G", "--rank", "2", "--weight", "0,3", "--nodes"], 0),
    ("filtration-G2", ["filtration", "--type", "G", "--rank", "2", "--weight", "0,2"], 0),
    ("filtration-G2-tsv", ["filtration", "--type", "G", "--rank", "2", "--weight", "0,2", "--format", "tsv"], 0),
    ("filtration-G2-04", ["filtration", "--type", "G", "--rank", "2", "--weight", "0,4"], 0),
    ("filtration-G2-04-tsv", ["filtration", "--type", "G", "--rank", "2", "--weight", "0,4", "--format", "tsv"], 0),
    ("verify-C2", ["verify", "--type", "C", "--rank", "2", "--weight", "2,0;1,1;2,1"], 0),
    ("verify-C2-tsv", ["verify", "--type", "C", "--rank", "2", "--weight", "2,0;1,1;2,1", "--format", "tsv"], 0),
    ("verify-F4", ["verify", "--type", "F", "--rank", "4", "--weight", "0,0,0,2"], 0),
    ("verify-B4-0002", ["verify", "--type", "B", "--rank", "4", "--weight", "0,0,0,2"], 0),
    ("verify-G2-03", ["verify", "--type", "G", "--rank", "2", "--weight", "0,3"], 0),
    ("verify-F4-1001", ["verify", "--type", "F", "--rank", "4", "--weight", "1,0,0,1"], 0),
    ("verify-B3-202", ["verify", "--type", "B", "--rank", "3", "--weight", "2,0,2"], 0),
    ("selftest-G2", ["selftest", "--type", "G", "--rank", "2", "--seed", "7"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(capsys, name, argv, code):
    assert cli.main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


# runs in the child: every case through cli.main, stdout captured per case
_CHILD = """
import contextlib, io, json, sys
from pathcrystals import cli
if not sys.flags.optimize:
    sys.exit("not running under -O")
results = {}
for name, argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results[name] = [code, out.getvalue()]
sys.stdout.write(json.dumps(results))
"""


def test_cli_outputs_match_golden_under_python_O():
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHILD],
        input=json.dumps([[name, argv] for name, argv, _ in CASES]),
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for name, _, code in CASES:
        assert results[name][0] == code, name
        assert results[name][1].encode() == (GOLDEN / f"{name}.out").read_bytes(), name
