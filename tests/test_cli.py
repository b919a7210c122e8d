import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers as H
from conftest import EXPORT_WEIGHTS, LARGE_WEIGHTS, sweep_weights
from pathcrystals import cli
from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import demazure as D
from pathcrystals import paths as P
from pathcrystals.characters import Character
from pathcrystals.rootdata import root_system
from test_golden_cli import CASES, GOLDEN

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crystal_table_a1(capsys):
    code, out, _ = run(capsys, ["crystal", "--type", "A", "--rank", "1", "--weight", "1", "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["node", "degree", "full_weight"]
    assert len(rows) == 3
    assert all(r[1] == "0" for r in rows[1:])


def test_crystal_json_trivial_weight(capsys):
    code, out, _ = run(capsys, ["crystal", "--type", "A", "--rank", "2", "--weight", "0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1


def test_verify_pass_matrix(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A", "--rank", "2", "--weight", "1,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["ok"]
    assert all(payload["reports"][0]["checks"].values())


def test_verify_failure_prints_details_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(DC, "in_q_plus_short", lambda rs, lam_finite, key_finite: True)
    code, out, err = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "1,0"])
    assert code == 2
    assert json.loads(out)["reports"][0]["checks"]["short_restriction"] is False
    assert "verify [1, 0]: path-side projection differs: {" in err


def test_a_failed_peel_exits_two(capsys, monkeypatch):
    # doubled level-2 blocks leave a negative residue in the route (b) peel
    real = DC.block_char
    monkeypatch.setattr(DC, "block_char", lambda rs, level, mu, m, cap=D.NODE_CAP:
                        Character().added(real(rs, level, mu, m, cap),
                                          sign=2 if level == 2 else 1))
    code, out, err = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "1,0"])
    assert code == 2
    assert out == ""
    assert err.startswith("check failed: negative residue after stripping block")


def test_weights_of_unequal_length_exit_one(capsys, monkeypatch):
    # RootSystem.add and sub raise RootDataError, a ValueError, which main
    # reports as a configuration error naming both lengths
    monkeypatch.setattr(cli, "run_selftest", lambda rs, seed: rs.add(H.zero(rs), H.zero(rs, cl=True)))
    code, out, err = run(capsys, ["selftest", "--type", "G", "--rank", "2"])
    assert (code, out) == (1, "")
    assert err == "error: weights of lengths 4 and 3 do not combine\n"


def _shift_first_component(real):
    def patched(*args, **kwargs):
        first, *rest = real(*args, **kwargs)
        return [first._replace(n=first.n + 7)] + rest
    return patched


@pytest.mark.parametrize("check,name,patch,line", [
    ("char_a_eq_b", "filtration_char",
     lambda real: lambda *a: real(*a).added(Character.monomial((0, 0, 5))),
     "char_a_eq_b: a - b = {(0, 0, 5): -1}"),
    ("multiset_b_eq_c", "decompose_tensor_image", _shift_first_component,
     "multiset_b_eq_c: b - c = [((1, 0), 0)], c - b = [((1, 0), 7)]"),
    ("graded_multiplicities", "classically_highest", lambda real: lambda graph: [],
     "graded_multiplicities: (decomposition, highest elements) = {(1, 0): ({0: 1}, None)}"),
    ("short_restriction", "short_demazure_identity",
     lambda real: lambda *a: Character.monomial((0, 0, 5)),
     "block projection differs: {(0, 0, 5): 1}"),
], ids=["char_a_eq_b", "multiset_b_eq_c", "graded_multiplicities", "short_restriction"])
def test_verify_failure_says_which_sides_differ(capsys, monkeypatch, check, name, patch, line):
    monkeypatch.setattr(DC, name, patch(getattr(DC, name)))
    code, out, err = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "1,0"])
    assert code == 2
    checks = json.loads(out)["reports"][0]["checks"]
    assert [k for k, ok in checks.items() if not ok] == [check]
    assert err.splitlines() == [f"verify [1, 0]: {line}"]


def test_verify_failure_lines_follow_the_check_table(capsys, monkeypatch):
    # stdout sorts the checks by name; stderr keeps the table's order
    monkeypatch.setattr(DC, "decompose_tensor_image",
                        _shift_first_component(DC.decompose_tensor_image))
    monkeypatch.setattr(DC, "classically_highest", lambda graph: [])
    monkeypatch.setattr(DC, "short_demazure_identity",
                        lambda *a: Character.monomial((0, 0, 5)))
    code, out, err = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "1,0"])
    assert code == 2
    checks = json.loads(out)["reports"][0]["checks"]
    assert [k for k, ok in checks.items() if not ok] == \
        ["graded_multiplicities", "multiset_b_eq_c", "short_restriction"]
    assert err.splitlines() == [
        "verify [1, 0]: multiset_b_eq_c: b - c = [((1, 0), 0)], c - b = [((1, 0), 7)]",
        "verify [1, 0]: graded_multiplicities: (decomposition, highest elements) = "
        "{(1, 0): ({0: 1}, None)}",
        "verify [1, 0]: block projection differs: {(0, 0, 5): 1}",
    ]


def test_verify_weight_list(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "1,0;0,1"])
    assert code == 0
    assert len(json.loads(out)["reports"]) == 2
    # a repeated weight is built afresh and reports the same
    code, out, _ = run(capsys, ["verify", "--type", "C", "--rank", "2", "--weight", "2,0;2,0"])
    first, second = json.loads(out)["reports"]
    assert code == 0 and first == second


def test_demazure_character_output(capsys):
    code, out, _ = run(
        capsys,
        ["demazure", "--type", "A", "--rank", "1", "--weight", "1", "--level", "1", "--restrict"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == 2
    assert payload["word"] == [1]
    # integer options may carry spaces, and --mshift a leading '-'
    code, out, _ = run(
        capsys,
        ["demazure", "--type", "A", "--rank", " 1 ", "--weight", "1", "--mshift", "-2", "--restrict"],
    )
    assert code == 0
    assert {tuple(term["weight"]) for term in json.loads(out)["character"]} == {(1, -2), (-1, -2)}


def test_decompose_output(capsys):
    code, out, _ = run(capsys, ["decompose", "--type", "C", "--rank", "2", "--weight", "2,0"])
    assert code == 0
    payload = json.loads(out)
    assert [(tuple(c["mu"]), c["n"]) for c in payload["components"]] == [((2, 0), 0), ((0, 1), 1)]


def test_filtration_output(capsys):
    code, out, _ = run(capsys, ["filtration", "--type", "G", "--rank", "2", "--weight", "0,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [
        {"mu": [0, 2], "m": 0, "mult": 1},
        {"mu": [1, 0], "m": 1, "mult": 1},
    ]


def test_selftest_runs(capsys):
    code, out, _ = run(capsys, ["selftest", "--type", "G", "--rank", "2", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_selftest_tsv_is_a_table(capsys):
    code, out, _ = run(capsys, ["selftest", "--type", "A", "--rank", "1", "--format", "tsv"])
    assert code == 0
    assert out == "type\tpaths\tok\nA1\t200\tTrue\n"


def test_selftest_checks_survive_python_O():
    # with lowering sabotaged, selftest must fail even when asserts are stripped
    code = (
        "import sys; from pathcrystals import cli, paths; "
        "paths.f_op = lambda rs, i, path, col=None: None; "
        "sys.exit(cli.main(['selftest', '--type', 'A', '--rank', '2']))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "check failed" in proc.stderr


def test_deterministic_output(capsys):
    argv = ["crystal", "--type", "C", "--rank", "2", "--weight", "1,0"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_config_errors_exit_one(capsys):
    code, _, err = run(capsys, ["crystal", "--type", "E", "--rank", "6", "--weight", "1"])
    assert code == 1 and "unsupported" in err
    code, _, err = run(capsys, ["crystal", "--type", "A", "--rank", "2", "--weight", "1"])
    assert code == 1
    code, _, err = run(capsys, ["crystal", "--type", "A", "--rank", "2", "--weight", "1,-1"])
    assert code == 1


def test_demazure_level_zero_is_a_config_error(capsys):
    argv = ["demazure", "--type", "C", "--rank", "2", "--weight", "1,0", "--level", "0"]
    assert run(capsys, argv) == (1, "", "error: level must be positive\n")


@pytest.mark.parametrize("weight", ["1_0,0", "\u0661", "1,0;;0,1", "+1,0", "1,-1", "1,", " ,1"])
def test_weight_coefficients_are_ascii_decimal_digits(capsys, weight):
    code, out, err = run(capsys, ["verify", "--type", "A", "--rank", "2", "--weight", weight])
    assert (code, out) == (1, "")
    assert err == "error: weight needs 2 nonnegative coefficients\n"


def test_weight_coefficients_may_carry_spaces(capsys):
    code, out, _ = run(capsys, ["verify", "--type", "A", "--rank", "2", "--weight", " 1, 0 "])
    assert code == 0 and json.loads(out)["reports"][0]["weight"] == [1, 0]


def test_cap_exceeded_exits_three(capsys):
    code, _, err = run(
        capsys,
        ["crystal", "--type", "C", "--rank", "2", "--weight", "1,1", "--node-cap", "5"],
    )
    assert code == 3


def test_filtration_honours_the_node_cap(capsys):
    capped = ["filtration", "--type", "C", "--rank", "2", "--weight", "2,1", "--node-cap", "1"]
    for argv, want in [(capped, 3), (capped[:-2], 0), (capped, 3)]:
        code, _, err = run(capsys, argv)
        assert code == want
        assert ("node cap 1 exceeded" in err) == (want == 3)


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_raise_cap_bounds_the_longest_raising_chain(capsys, command):
    # the longest raising chain of G2 (0,3) has 27 steps
    argv = [command, "--type", "G", "--rank", "2", "--weight", "0,3", "--raise-cap"]
    code, _, err = run(capsys, argv + ["27"])
    assert code == 3 and "raising exceeded the step cap" in err
    code, _, err = run(capsys, argv + ["28"])
    assert code == 0 and err == ""


SPELLING_ERRORS = {
    "--node-cap": "a cap must be an integer of at least 1",
    "--raise-cap": "a cap must be an integer of at least 1",
    "--rank": "expected ASCII decimal digits",
    "--level": "expected ASCII decimal digits",
    "--seed": "expected ASCII decimal digits",
    "--mshift": "expected an optional '-' and ASCII decimal digits",
}


CAP_SPELLINGS = [
    (command, option, value) for command, (_, _, options) in cli.COMMANDS.items()
    for option in ("--node-cap", "--raise-cap") if option in options
    for value in ("0", "-3", "1_0", "\u0663", "+5")]

# every other integer option spelled otherwise than in ASCII digits
INTEGER_SPELLINGS = [
    (command, option, value)
    for command, option in [(command, "--rank") for command in cli.COMMANDS]
    + [("demazure", "--level"), ("selftest", "--seed")]
    for value in ("\u0662", "0_2", "+2", "-2", "2.0")] + [
    ("demazure", "--mshift", value) for value in ("\u0661", "1_0", "+1", "- 1", "-\u0663", "1-")]


@pytest.mark.parametrize("command,option,value", CAP_SPELLINGS + INTEGER_SPELLINGS)
def test_a_cap_below_one_is_a_usage_error(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--type", "C", "--rank", "2", "--weight", "1,1", option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {option}: {SPELLING_ERRORS[option]}, got '{value}'" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["crystal", "--type", "A", "--rank", "1"])  # no --weight
    assert exc.value.code == 1
    assert "required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_dot_export(capsys):
    code, out, _ = run(
        capsys, ["crystal", "--type", "A", "--rank", "1", "--weight", "1", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph")


def test_demazure_dot_export(capsys):
    code, out, _ = run(
        capsys,
        ["demazure", "--type", "C", "--rank", "2", "--weight", "1,0", "--format", "dot"],
    )
    assert code == 0
    assert out.startswith("digraph") and "->" in out


def test_demazure_dot_builds_the_crystal_once(capsys, monkeypatch):
    calls = []
    build = D.demazure_crystal

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(D, "demazure_crystal", counted)
    code, out, _ = run(
        capsys, ["demazure", "--type", "A", "--rank", "2", "--weight", "1,1", "--format", "dot"]
    )
    assert code == 0 and out.startswith("digraph")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--type", "A", "--rank", "2", "--format", "dot"],
        ["filtration", "--type", "G", "--rank", "2", "--weight", "0,2", "--format", "dot"],
        ["crystal", "--type", "A", "--rank", "1", "--weight", "1", "--level", "3"],
        ["crystal", "--type", "A", "--rank", "1", "--weight", "1", "--restrict"],
        ["verify", "--type", "A", "--rank", "1", "--weight", "1", "--nodes"],
        ["decompose", "--type", "A", "--rank", "1", "--weight", "1", "--seed", "3"],
        ["demazure", "--type", "A", "--rank", "1", "--weight", "1", "--raise-cap", "5"],
        ["selftest", "--type", "A", "--rank", "1", "--node-cap", "5"],
    ],
    ids=lambda argv: f"{argv[0]} {[a for a in argv if a.startswith('--')][-1]}",
)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


# -- the parser is built once per process --------------------------------------

def test_parser_is_built_during_the_first_call_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()  # start as a fresh process would
    counts = []
    for argv in (["selftest", "--type", "A", "--rank", "1"],
                 ["verify", "--type", "A", "--rank", "2", "--weight", "1,1"],
                 ["crystal", "--type", "C", "--rank", "2", "--weight", "1,0", "--format", "tsv"]):
        assert run(capsys, argv)[0] == 0
        counts.append(len(built))
    # the top-level parser and one subparser per command, all in the first call
    assert counts == [1 + len(cli.COMMANDS)] * 3


def test_repeated_calls_match_the_goldens(capsys):
    runs = CASES * 2
    random.Random(9).shuffle(runs)
    usage, helps = [], []
    for k, (name, argv, code) in enumerate(runs):
        assert cli.main(argv) == code, name
        assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes(), name
        # a usage error or a --help between two cases leaves the parser as it was
        bad, seen, expected = ((["verify", "--type", "C"], usage, 1) if k % 2
                               else (["--help"], helps, 0))
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == expected
        seen.append(capsys.readouterr())
    assert "required" in usage[0].err and "verify" in helps[0].out
    assert usage == [usage[0]] * len(usage)
    assert helps == [helps[0]] * len(helps)


_IMPORT_COUNTS_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import pathcrystals.cli
at_import = len(built)
pathcrystals.cli.build_parser()
print(at_import, len(built))
"""


def test_import_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_COUNTS_PARSERS],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(1 + len(cli.COMMANDS))]


_IMPORT_ADDS_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import pathcrystals.cli
print(*sorted(set(sys.modules) - before))
"""


def test_import_loads_no_dataclasses_or_introspection():
    # the result types are namedtuples and plain classes; dataclasses would
    # pull inspect, ast, dis and tokenize into every start-up
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_ADDS_MODULES, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "pathcrystals.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_a_replaced_handler_takes_effect_after_the_first_call(capsys, monkeypatch):
    argv = ["selftest", "--type", "A", "--rank", "1"]
    assert run(capsys, argv)[0] == 0
    seen = []

    def handler(rs, args):
        seen.append(args)
        return 5

    monkeypatch.setitem(cli.COMMANDS, "selftest", (handler,) + cli.COMMANDS["selftest"][1:])
    assert run(capsys, argv)[0] == 5
    # the parsed options carry no handler: main reads it from COMMANDS
    assert len(seen) == 1 and not any(callable(v) for v in vars(seen[0]).values())


# -- the crystal writer against json.dumps of its record tree --------------------

def _assert_same_text(got, want, label="output"):
    """Fail naming the first differing offset, with the 80 characters around
    it on each side, so that pytest does not diff long texts."""
    if got == want:
        return
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(0, k - 40)
    raise AssertionError(f"{label}: texts of lengths {len(got)} and {len(want)} first differ "
                         f"at offset {k}: got {got[lo:lo + 80]!r}, want {want[lo:lo + 80]!r}")


def test_crystal_writer_matches_json_dumps_of_the_records():
    cases = [("A", 1, (0,))] + sweep_weights() + LARGE_WEIGHTS + EXPORT_WEIGHTS
    assert len(cases) == 108
    for letter, rank, coeffs in cases:
        rs = root_system(letter, rank)
        graph = H.level_zero(rs, rs.weight_of(coeffs))
        payload = H.graph_records(graph) | {"size": len(graph)}
        text = H.written_json(graph)[0]
        _assert_same_text(text, json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          f"{letter}{rank} {coeffs}")
        if not any(coeffs):
            assert len(graph) == 1 and '"edges": [],' in text


def test_crystal_writer_writes_a_large_crystal_in_several_chunks():
    rs = root_system("A", 4)
    graph = H.level_zero(rs, rs.weight_of((1, 1, 1, 1)))
    chunks = []
    C.graph_to_json(graph, chunks.append)
    assert len(chunks) > 1
    # every edge and node record opens at the list indent
    records = [chunk.count("\n    {\n") for chunk in chunks]
    payload = json.loads("".join(chunks))
    assert sum(records) == len(payload["edges"]) + len(payload["nodes"])
    assert max(records) <= 256


def test_crystal_writer_rejects_a_fraction_entry():
    A1 = root_system("A", 1)
    half = Fraction(1, 2)
    path = P.Path(((half, 0, 0), (-half, 0, 0)), (1, 2))
    graph = C.CrystalGraph(A1, [path], [[None, None]], [[None, None]])
    assert path.endpoint() == (0, 0, 0)  # only the direction holds a Fraction
    with pytest.raises(TypeError):
        json.dumps(H.graph_records(graph))
    with pytest.raises(TypeError, match="Fraction"):
        C.graph_to_json(graph, lambda text: None)
