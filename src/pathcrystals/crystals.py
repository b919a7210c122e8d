"""Crystal generation by operator closure, and the level-zero bookkeeping.

A crystal graph is the closure of a seed path under the root operators at
every node, deduplicated by canonical form.  For level-zero dominant weights
the closure is run on anchored representatives: every produced path is
shifted by the unique null-root multiple that puts its initial direction
back into the finite Weyl orbit of the seed weight.  The shift removed at
each step is recorded on the edge, because the finite-node operators must
never need one while the affine node may.
"""

from __future__ import annotations

import hashlib
from math import gcd

from . import paths as P
from .rootdata import RootSystem, Weight

NODE_CAP = 10**6


class GenerationError(RuntimeError):
    pass


class LimitError(GenerationError):
    """A node cap or the raise cap was hit: the input was too large, not wrong."""


class CrystalGraph:
    def __init__(self, rs: RootSystem, nodes: list, f_edges: list, e_edges: list):
        self.rs = rs
        self.nodes = nodes  # Paths in BFS discovery order
        self.f_edges = f_edges  # f_edges[pos][i]: (target pos, shift) or None
        self.e_edges = e_edges  # e_edges[pos][i]: (target pos, shift) or None

    def __len__(self):
        return len(self.nodes)


def _closure(rs, seed, cap, normalizer=None):
    """Breadth-first closure of one seed under both root operators at every
    node; ``normalizer`` maps each result to its representative and shift."""
    nodes = []
    index = {}
    f_edges = []
    e_edges = []
    blank = [None] * len(rs.nodes)
    shared = {}.setdefault  # one tuple per direction for every node holding it

    def intern(path):
        shift = 0
        if normalizer is not None:
            path, shift = normalizer(path)
        pos = index.get(path)
        if pos is None:
            pos = len(nodes)
            if pos >= cap:
                raise LimitError(f"node cap {cap} exceeded")
            path.dirs = tuple(map(shared, path.dirs, path.dirs))
            nodes.append(path)
            index[path] = pos
            f_edges.append(blank[:])
            e_edges.append(blank[:])
        return pos, shift

    intern(seed)
    # e_i f_i = id: an edge found from one end is stored at both, with the
    # shift negated, and an operator runs only while its edge is unknown;
    # every column of the seed is built, so a seed that is not integral raises
    # PathError
    ops = tuple(rs.nodes)
    head = 0
    while head < len(nodes):
        pos = head
        head += 1
        path = nodes[pos]
        f_row = f_edges[pos]
        e_row = e_edges[pos]
        for i in ops:
            need_f = f_row[i] is None
            need_e = e_row[i] is None
            if not (need_f or need_e):
                continue
            col = P.column(path, i)
            if need_f and (down := P.f_op(rs, i, path, col)) is not None:
                tgt, shift = f_row[i] = intern(down)
                e_edges[tgt][i] = (pos, -shift)
            if need_e and (up := P.e_op(rs, i, path, col)) is not None:
                tgt, shift = e_row[i] = intern(up)
                f_edges[tgt][i] = (pos, -shift)
    return CrystalGraph(rs, nodes, f_edges, e_edges)


def d_lambda(rs: RootSystem, lam: Weight) -> int:
    """Generator of the null-root offsets inside the affine orbit of lam:
    the gcd of the finite pairings.  Verified again during generation."""
    if rs.level(lam) != 0 or lam[-1] != 0:
        raise ValueError("expected a classical level-zero weight")
    d = 0
    for i in rs.finite_nodes:
        d = gcd(d, abs(lam[i]))
    if d == 0:
        raise ValueError("the zero weight has no offset generator")
    return d


def generate_level_zero(rs: RootSystem, lam: Weight, cap: int = NODE_CAP) -> CrystalGraph:
    """Closure from the straight path to ``lam`` over anchored representatives.

    Every operator output is shifted by a null-root multiple so that its
    initial direction lies in the finite orbit of ``lam``; the node set is
    then finite and in bijection with the projected finite crystal.
    """
    if rs.level(lam) != 0 or lam[-1] != 0 or any(lam[i] < 0 for i in rs.finite_nodes):
        raise ValueError("expected a dominant classical level-zero weight")
    seed = P.straight(lam)
    if all(c == 0 for c in lam):
        return _closure(rs, seed, cap)
    d = d_lambda(rs, lam)

    def normalizer(path):
        offset = path.dirs[0][-1]
        if offset == 0:
            return path, 0
        if offset % d != 0:
            raise GenerationError(
                f"initial-direction offset {offset} is not a multiple of {d}"
            )
        minus = tuple([0] * (rs.rank + 1)) + (-offset,)
        return P.shift(path, minus), offset // d

    graph = _closure(rs, seed, cap, normalizer=normalizer)
    # every e-edge is an f-edge reversed, with the shift negated
    nonzero = {abs(edge[1]) for row in graph.f_edges for edge in row if edge and edge[1]}
    if not nonzero or min(nonzero) != 1:
        raise GenerationError("declared offset generator was never attained")
    return graph


def classically_highest(graph: CrystalGraph) -> list:
    """Positions with no recorded raising edge at any finite node."""
    finite = graph.rs.finite_nodes
    return [pos for pos, row in enumerate(graph.e_edges) if not any(row[i] for i in finite)]


# -- exports ---------------------------------------------------------------

def _breakpoints(path: P.Path) -> list:
    """The breakpoints as reduced (numerator, denominator) pairs."""
    scale = path.ts[-1]
    return [(t // g, scale // g) for t in path.ts for g in (gcd(t, scale),)]


def node_id(path: P.Path) -> str:
    # the id prints a breakpoint as a Fraction does: n/1 as n
    sigmas = tuple(f"{n}/{d}" if d != 1 else str(n) for n, d in _breakpoints(path))
    return hashlib.sha1(repr((path.dirs, sigmas)).encode()).hexdigest()[:12]


def _int_row(row, pad: str) -> str:
    """An int list as json indents it at ``pad``; other entries raise TypeError."""
    return "[\n" + pad + (",\n" + pad).join(map(int.__repr__, row)) + "\n" + pad[:-2] + "]"


def graph_to_json(graph: CrystalGraph, write) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline in
    chunks of at most 256 records.  The payload holds the f-edges {node,
    source, target} by (source, node), the nodes {degree, id, path:
    [{direction, sigma}], weight} and the size."""
    ids = list(map(node_id, graph.nodes))
    # each distinct direction is rendered once for all its segments
    rows = {mu: _int_row(mu, " " * 12) for mu in {mu for p in graph.nodes for mu in p.dirs}}
    parts = ["{"]

    def put_list(key, records):
        parts.append(f'\n  "{key}": ')
        sep = "["
        for rec in records:
            parts.append(sep + "\n    {\n" + rec + "\n    }")
            sep = ","
            if len(parts) >= 256:
                write("".join(parts))
                parts.clear()
        parts.append("[]," if sep == "[" else "\n  ],")

    def node(path, ident):
        weight = path.endpoint()
        segments = "\n        },\n        {\n".join(
            f'          "direction": {rows[mu]},\n          "sigma": "{n}/{d}"'
            for mu, (n, d) in zip(path.dirs, _breakpoints(path)))
        return (f'      "degree": {int.__repr__(-weight[-1])},\n      "id": "{ident}",\n'
                f'      "path": [\n        {{\n{segments}\n        }}\n      ],\n'
                f'      "weight": {_int_row(weight, " " * 8)}')

    put_list("edges", (f'      "node": {i},\n      "source": "{ids[pos]}",\n'
                       f'      "target": "{ids[edge[0]]}"'
                       for pos, row in enumerate(graph.f_edges)
                       for i, edge in enumerate(row) if edge))
    put_list("nodes", map(node, graph.nodes, ids))
    parts.append(f'\n  "size": {len(graph)}\n}}\n')
    write("".join(parts))


def graph_to_dot(graph: CrystalGraph) -> str:
    ids = [node_id(path) for path in graph.nodes]
    lines = ["digraph crystal {"]
    for pos, path in enumerate(graph.nodes):
        lines.append(f'  "{ids[pos]}" [label="{list(path.endpoint())}"];')
    for pos, row in enumerate(graph.f_edges):
        for i, edge in enumerate(row):
            if edge:
                lines.append(f'  "{ids[pos]}" -> "{ids[edge[0]]}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
