"""Demazure crystals as path sets, and their characters by the Demazure
character formula.

A Demazure crystal is built by applying full lowering strings along a word
inside the path model of the ambient highest-weight crystal; it is the graph
that ``demazure --format dot`` draws.  Its character, the plain weight sum
over the node set, is computed by the Demazure character formula,
``characters.demazure_operator``, which shares nothing with the crystal but
the word.  The formula is the one engine of the ``demazure`` command and of
the route (b) blocks; the tests keep the crystal's weight sum as its
reference.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import paths as P
from .characters import Character, demazure_operator, restrict_hd
from .crystals import NODE_CAP, CrystalGraph, GenerationError, LimitError
from .rootdata import RootSystem, Weight


class DemazureSpec(namedtuple("DemazureSpec", "rs level lam_coeffs m Lambda word")):
    """The triple (level, classical dominant weight, grading shift) resolved
    into a dominant affine weight and the word reaching the extremal target.

    ``word`` satisfies target = s_{word[0]} ... s_{word[-1]} (Lambda); string
    closures are applied along the word from its last letter to its first.
    """

    __slots__ = ()

    @property
    def target(self) -> Weight:
        return self.rs.weyl_apply(self.word, self.Lambda)


def demazure_params(rs: RootSystem, level: int, lam_coeffs, m: int = 0) -> DemazureSpec:
    """Resolve (level, lam, m): dominantize w_0(lam) + level Lambda_0 + m delta."""
    if level < 1:
        raise ValueError("level must be positive")
    lam_coeffs = tuple(lam_coeffs)
    if len(lam_coeffs) != rs.rank or any(c < 0 for c in lam_coeffs):
        raise ValueError("need nonnegative coefficients, one per finite node")
    lowest, _ = rs.antidominantize_finite(rs.weight_of(lam_coeffs))
    target = rs.add(lowest, rs.weight_of((0,) * rs.rank, delta=m, level=level))
    Lam, word = rs.dominantize(target)
    spec = DemazureSpec(rs, level, lam_coeffs, m, Lam, word)
    if spec.target != target:
        raise AssertionError(f"word {word} does not reach the target {target}")
    return spec


def f_string_closure(rs: RootSystem, paths, i: int, cap: int = NODE_CAP, walked=None):
    """Close an ordered node set under the full lowering string at one node.

    A walk stops at a node an earlier walk passed, whose string below is in
    already; the node order and the point where the cap trips do not change.
    ``walked``, updated in place, may hold the nodes walked under ``i`` before.
    """
    out = dict.fromkeys(paths)
    walked = set() if walked is None else walked
    for path in paths:
        cur = path
        while cur not in walked:
            walked.add(cur)
            cur = P.f_op(rs, i, cur)
            if cur is None:
                break
            out[cur] = None
            if len(out) > cap:
                raise LimitError(f"node cap {cap} exceeded")
    return list(out)


def demazure_crystal_for_word(rs: RootSystem, Lambda: Weight, word, cap: int = NODE_CAP):
    """Node set grown from the straight highest path by string closures,
    applied along the word from the innermost letter outwards.  The set only
    grows, so one walked set per node i serves every letter i."""
    nodes = [P.straight(Lambda)]
    walked = {i: set() for i in set(word)}
    for i in reversed(word):
        nodes = f_string_closure(rs, nodes, i, cap, walked[i])
    return nodes


def demazure_crystal(spec: DemazureSpec, cap: int = NODE_CAP):
    return demazure_crystal_for_word(spec.rs, spec.Lambda, spec.word, cap)


def demazure_graph(spec: DemazureSpec, cap: int = NODE_CAP) -> CrystalGraph:
    """The Demazure node set with the operator edges staying inside it.

    The e-edges are the recorded f-edges reversed; a node that some e_i
    raises (epsilon_i > 0) without a recorded e_i-edge would leave the set.
    """
    rs = spec.rs
    nodes = demazure_crystal(spec, cap)
    index = {p: k for k, p in enumerate(nodes)}
    f_edges = [[None] * len(rs.nodes) for _ in nodes]
    e_edges = [[None] * len(rs.nodes) for _ in nodes]
    raised = []
    for pos, path in enumerate(nodes):
        for i in rs.nodes:
            col = P.column(path, i)
            tgt = index.get(P.f_op(rs, i, path, col))
            if tgt is not None:
                f_edges[pos][i] = (tgt, 0)
                e_edges[tgt][i] = (pos, 0)
            if P.eps_phi(rs, i, path, col)[0] > 0:
                raised.append((pos, i))
    if any(e_edges[pos][i] is None for pos, i in raised):
        raise GenerationError("raising left the Demazure node set")
    return CrystalGraph(rs, list(nodes), f_edges, e_edges)


def demazure_character(spec: DemazureSpec, restrict_to_hd: bool = False,
                       cap: int = NODE_CAP) -> Character:
    """The Demazure crystal's character by the Demazure operators of the word
    applied to e^Lambda.

    The cap bounds the crystal's node count, the character's mass, as it
    bounds the string closures of :func:`demazure_crystal`, which count only
    the nodes the strings add: a one-node crystal passes any cap.
    """
    ch = demazure_operator(spec.rs, spec.word, Character.monomial(spec.Lambda))
    mass = ch.mass()
    if mass > cap and mass > 1:
        raise LimitError(f"node cap {cap} exceeded")
    return restrict_hd(spec.rs, ch) if restrict_to_hd else ch


@lru_cache(maxsize=None)
def _block_char(rs: RootSystem, level: int, mu: tuple, m: int, cap: int) -> Character:
    return demazure_character(demazure_params(rs, level, mu, m), True, cap)


def block_char(rs: RootSystem, level: int, mu, m: int, cap: int = NODE_CAP) -> Character:
    """Restricted character of the level-``level`` block with top key
    ``mu + m delta``, memoised per node cap; the caller gets its own copy."""
    return Character(_block_char(rs, level, tuple(mu), m, cap))
