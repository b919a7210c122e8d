"""Command-line driver: crystal tables, characters, decompositions, checks.

Subcommands
  crystal     projected finite crystal with degree and full-weight table
  demazure    resolved spec, node count and character
  decompose   components of the concatenated crystal
  filtration  block multiset for one weight
  verify      full identity matrix for a list of weights
  selftest    seeded randomized property suite

Output is JSON by default (tsv for tables, dot on request); reports are
byte-identical for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import crystals as C
from . import decompose as DC
from . import paths as P
from .characters import CharacterError, char_to_json
from .demazure import demazure_character, demazure_graph, demazure_params
from .rootdata import RootDataError, root_system

SUPPORTED = {
    "A": (1, 2, 3, 4),
    "B": (2, 3, 4),
    "C": (2, 3, 4),
    "D": (4,),
    "G": (2,),
    "F": (4,),
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISMATCH = 2
EXIT_LIMIT = 3


def _ascii_int(text, signed=False):
    """``text`` as an int if, spaces stripped, it is ASCII decimal digits
    (after one optional '-' when ``signed``); else None."""
    text = text.strip()
    digits = text.removeprefix("-") if signed else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _parse_weight(rs, text):
    """Comma-separated ASCII decimal coefficients, spaces around each allowed."""
    coeffs = tuple(map(_ascii_int, text.split(",")))
    if len(coeffs) != rs.rank or None in coeffs:
        raise RootDataError(f"weight needs {rs.rank} nonnegative coefficients")
    return coeffs


def _integer(message, low=None, signed=False):
    """An argparse type reading ``_ascii_int`` of at least ``low``; anything
    else is a usage error that quotes ``message``."""
    def parse(text):
        n = _ascii_int(text, signed)
        if n is None or low is not None and n < low:
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
        return n
    return parse


_cap = _integer("a cap must be an integer of at least 1", low=1)
_count = _integer("expected ASCII decimal digits")
_shift = _integer("expected an optional '-' and ASCII decimal digits", signed=True)


def _emit(payload, fmt, rows):
    if fmt == "tsv":
        for row in rows:
            print("\t".join(str(v) for v in row))
    else:
        # these payloads are small; the one large output, the crystal
        # export, streams through graph_to_json instead
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_crystal(rs, args):
    coeffs = _parse_weight(rs, args.weight)
    graph = C.generate_level_zero(rs, rs.weight_of(coeffs), args.node_cap)
    if args.format == "dot":
        print(C.graph_to_dot(graph))
        return EXIT_OK
    if args.format == "tsv":
        rows = [("node", "degree", "full_weight")]
        for path in graph.nodes:
            weight = path.endpoint()
            rows.append((C.node_id(path), -weight[-1], list(weight)))
        _emit(None, args.format, rows)
        return EXIT_OK
    C.graph_to_json(graph, sys.stdout.write)
    return EXIT_OK


def cmd_demazure(rs, args):
    coeffs = _parse_weight(rs, args.weight)
    spec = demazure_params(rs, args.level, coeffs, args.mshift)
    if args.format == "dot":
        print(C.graph_to_dot(demazure_graph(spec, args.node_cap)))
        return EXIT_OK
    ch = demazure_character(spec, restrict_to_hd=args.restrict, cap=args.node_cap)
    payload = {
        "Lambda": list(spec.Lambda),
        "word": list(spec.word),
        "target": list(spec.target),
        "nodes": ch.mass(),
        "character": char_to_json(ch),
    }
    rows = [("weight", "coeff")] + [(r["weight"], r["coeff"]) for r in payload["character"]]
    _emit(payload, args.format, rows)
    return EXIT_OK


def cmd_decompose(rs, args):
    coeffs = _parse_weight(rs, args.weight)
    graph = C.generate_level_zero(rs, rs.weight_of(coeffs), args.node_cap)
    components = DC.decompose_tensor_image(rs, graph, args.raise_cap, cap=args.node_cap)
    payload = {
        "components": [
            {"mu": list(comp.mu_coeffs), "n": comp.n, "size": len(comp.members)}
            for comp in components
        ],
        "checks": {"partition_size": sum(len(c.members) for c in components)},
    }
    if args.nodes:
        for comp, rec in zip(components, payload["components"]):
            rec["nodes"] = [C.node_id(graph.nodes[p]) for p in comp.members]
    rows = [("mu", "n", "size")] + [
        (r["mu"], r["n"], r["size"]) for r in payload["components"]
    ]
    _emit(payload, args.format, rows)
    return EXIT_OK


def cmd_filtration(rs, args):
    coeffs = _parse_weight(rs, args.weight)
    filt = DC.weyl_filtration_multiset(rs, rs.weight_of(coeffs), args.node_cap)
    payload = {"blocks": [{"mu": list(mu), "m": m, "mult": mult} for mu, m, mult in filt]}
    rows = [("mu", "m", "mult")] + [(list(mu), m, mult) for mu, m, mult in filt]
    _emit(payload, args.format, rows)
    return EXIT_OK


def cmd_verify(rs, args):
    status = EXIT_OK
    reports = []
    for text in args.weight.split(";"):
        coeffs = _parse_weight(rs, text)
        rep = DC.verify_main(rs, rs.weight_of(coeffs), args.node_cap, args.raise_cap)
        reports.append(
            {
                "weight": list(coeffs),
                "size": rep.crystal_size,
                "filtration": [
                    {"mu": list(mu), "m": m, "mult": mult} for mu, m, mult in rep.filtration
                ],
                "checks": {k: bool(v) for k, v in sorted(rep.checks.items())},
                "ok": rep.ok,
            }
        )
        if not rep.ok:
            status = EXIT_MISMATCH
            for line in rep.details:
                print(f"verify {list(coeffs)}: {line}", file=sys.stderr)
    rows = [("weight", "check", "pass")]
    for rep in reports:
        for name, value in rep["checks"].items():
            rows.append((rep["weight"], name, value))
    _emit({"reports": reports}, args.format, rows)
    return status


def random_integral_path(rs, rng):
    """Concatenation of one to three random straight paths, then up to three
    random root operators; the draws from ``rng`` follow that order."""
    randrange = rng.randrange  # randint(a, b) draws randrange(a, b + 1)
    pieces = []
    for _ in range(randrange(1, 4)):
        coeffs = [randrange(-2, 3) for _ in range(rs.rank)]
        w = rs.weight_of(coeffs, delta=randrange(-1, 2))
        pieces.append(P.straight(w))
    path = pieces[0]
    for piece in pieces[1:]:
        path = P.concat(path, piece)
    for _ in range(randrange(0, 4)):
        i = rng.choice(rs.nodes)
        nxt = P.f_op(rs, i, path) if rng.random() < 0.5 else P.e_op(rs, i, path)
        if nxt is not None:
            path = nxt
    return path


def _require(ok, message):
    # an explicit raise, so the check also runs under python -O
    if not ok:
        raise AssertionError(message)


def check_operator_properties(rs, path):
    """Root-operator identities at one integral path; raises AssertionError."""
    try:  # one column per node, read by every operator at that node
        cols = {i: P.column(path, i) for i in rs.nodes}
    except P.PathError:
        raise AssertionError("closure lost integrality") from None
    wt = path.endpoint()
    for i, col in cols.items():
        alpha = rs.simple_root(i)
        eps, phi = P.eps_phi(rs, i, path, col)
        _require(phi - eps == wt[i], "statistics do not match the weight pairing")
        up = P.e_op(rs, i, path, col)
        _require((up is None) == (eps == 0), "raising disagrees with epsilon")
        if up is not None:
            _require(P.f_op(rs, i, up) == path, "lowering does not invert raising")
            _require(up.endpoint() == rs.add(wt, alpha), "raising misses +alpha_i")
        down = P.f_op(rs, i, path, col)
        _require((down is None) == (phi == 0), "lowering disagrees with phi")
        if down is not None:
            _require(P.e_op(rs, i, down) == path, "raising does not invert lowering")
            _require(down.endpoint() == rs.sub(wt, alpha), "lowering misses -alpha_i")


def run_selftest(rs, seed, count=200):
    """Operator identities on randomized integral paths; raises on failure."""
    rng = random.Random(seed)
    for _ in range(count):
        check_operator_properties(rs, random_integral_path(rs, rng))
    return count


def cmd_selftest(rs, args):
    count = run_selftest(rs, args.seed)
    payload = {"type": f"{rs.letter}{rs.rank}", "paths": count, "ok": True}
    _emit(payload, args.format, [tuple(payload), tuple(payload.values())])
    return EXIT_OK


LABELING_NOTE = """node labels per type (finite nodes 1..n, affine node 0):
  A_n chain 1-...-n; B_n short node n; C_n short nodes 1..n-1;
  D_4 fork at node 2; G_2 node 1 long / node 2 short; F_4 nodes 3,4 short.
weights are given as comma-separated coefficients on the classical
fundamental weights in that labeling."""


# per subcommand: handler, --format choices and the options it reads
COMMANDS = {
    "crystal": (cmd_crystal, "json tsv dot", "--weight --node-cap"),
    "demazure": (cmd_demazure, "json tsv dot", "--weight --level --mshift --restrict --node-cap"),
    "decompose": (cmd_decompose, "json tsv", "--weight --nodes --node-cap --raise-cap"),
    "filtration": (cmd_filtration, "json tsv", "--weight --node-cap"),
    "verify": (cmd_verify, "json tsv", "--weight --node-cap --raise-cap"),
    "selftest": (cmd_selftest, "json tsv", "--seed"),
}
OPTIONS = {
    "--weight": {"required": True,
                 "help": "comma-separated coefficients; verify accepts ;-separated lists"},
    "--level": {"type": _count, "default": 1},
    "--mshift": {"type": _shift, "default": 0},
    "--seed": {"type": _count, "default": 0},
    "--node-cap": {"type": _cap, "default": C.NODE_CAP},
    "--raise-cap": {"type": _cap, "default": DC.RAISE_CAP},
    "--restrict": {"action": "store_true", "help": "restrict characters"},
    "--nodes": {"action": "store_true", "help": "include node inventories"},
}


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, and the handler is looked up in
    ``COMMANDS`` at call time, so the shared parser holds only the table.
    """
    parser = argparse.ArgumentParser(
        prog="pathcrystals",
        description=__doc__,
        epilog=LABELING_NOTE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--type", required=True, help="finite type letter (A,B,C,D,G,F)")
        p.add_argument("--rank", type=_count, required=True)
        p.add_argument("--format", choices=formats.split(), default="json")
        for option in options.split():
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is a configuration error
        raise SystemExit(EXIT_CONFIG if exc.code else exc.code) from None
    try:
        letter = args.type.upper()
        if letter not in SUPPORTED or args.rank not in SUPPORTED[letter]:
            raise RootDataError(f"unsupported type {letter}{args.rank}")
        return COMMANDS[args.command][0](root_system(letter, args.rank), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except C.LimitError as exc:
        print(f"limit reached: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (C.GenerationError, DC.DecompositionError, CharacterError, P.PathError,
            AssertionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
