import functools
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import helpers as H
from pathcrystals import characters as CH
from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import paths as P
from pathcrystals.characters import Character
from pathcrystals.rootdata import root_system

ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
]

NON_SIMPLY_LACED = [t for t in ALL_TYPES if t[0] in "BCGF"]

# the three largest verify cases of the ROADMAP
LARGE_WEIGHTS = [("F", 4, (0, 0, 0, 2)), ("B", 4, (0, 0, 0, 2)), ("G", 2, (0, 3))]

# the crystal exports of the benchmark; A4 (1,1,1,1) is the largest crystal
EXPORT_WEIGHTS = [("A", 4, (1, 1, 1, 1)), ("C", 3, (1, 1, 1)), ("D", 4, (0, 2, 0, 0))]

# weights of at most 100 nodes whose crystal does not generate yet: the
# offset-generator check of generate_level_zero rejects them
NOT_GENERATED = {("B", 2, (2, 1)), ("C", 2, (1, 2))}


def small_weights(rs, bound=100):
    """Every nonzero dominant weight whose level-zero crystal has at most
    ``bound`` nodes.  That size is the product of the fundamental crystal
    sizes raised to the coefficients."""
    sizes = []
    for i in rs.finite_nodes:
        try:
            sizes.append(len(C.generate_level_zero(rs, rs.varpi(i), bound + 1)))
        except C.GenerationError:
            sizes.append(bound + 1)
    out = []
    for coeffs in itertools.product(range(7), repeat=rs.rank):
        size = 1
        for s, c in zip(sizes, coeffs):
            size *= s**c
        if any(coeffs) and size <= bound:
            out.append(coeffs)
    return out


def sweep_weights():
    """The 101 small weights that generate, as (letter, rank, coeffs)."""
    return [
        (letter, rank, coeffs)
        for letter, rank in ALL_TYPES
        for coeffs in small_weights(root_system(letter, rank))
        if (letter, rank, coeffs) not in NOT_GENERATED
    ]


@functools.cache
def verify_requests():
    """What verify_main asks for over the sweep and the large weights, in
    one recorded pass: the (rs, mu) of every finite_char call and the
    (rs, level, mu, m) of every block_char call, each in first-request order."""
    finite, blocks = {}, {}
    real_finite, real_block = CH.finite_char, DC.block_char

    def finite_char(rs, mu):
        finite[(rs, mu)] = None
        return real_finite(rs, mu)

    def block_char(rs, level, mu, m, cap=C.NODE_CAP):
        blocks[(rs, level, tuple(mu), m)] = None
        return real_block(rs, level, mu, m, cap)

    CH.finite_char, DC.block_char = finite_char, block_char
    try:
        for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS:
            rs = root_system(letter, rank)
            assert DC.verify_main(rs, rs.weight_of(coeffs)).ok
    finally:
        CH.finite_char, DC.block_char = real_finite, real_block
    return list(finite), list(blocks)


def two_call_closure(rs, seed, ops, cap, normalizer=None):
    """The closure as it was: f_op and e_op from every node, over the given
    operators; the reference for ``crystals._closure``."""
    nodes = []
    index = {}
    f_edges = []
    e_edges = []

    def intern(path):
        shift = 0
        if normalizer is not None:
            path, shift = normalizer(path)
        pos = index.get(path)
        if pos is None:
            pos = len(nodes)
            if pos >= cap:
                raise C.GenerationError(f"node cap {cap} exceeded")
            nodes.append(path)
            index[path] = pos
            f_edges.append([None] * len(rs.nodes))
            e_edges.append([None] * len(rs.nodes))
        return pos, shift

    if not H.is_integral(rs, seed):
        raise P.PathError("seed path is not integral")
    intern(seed)
    head = 0
    while head < len(nodes):
        pos = head
        head += 1
        path = nodes[pos]
        for i in ops:
            down = P.f_op(rs, i, path)
            if down is not None:
                f_edges[pos][i] = intern(down)
            up = P.e_op(rs, i, path)
            if up is not None:
                e_edges[pos][i] = intern(up)
    return C.CrystalGraph(rs, nodes, f_edges, e_edges)


def finite_path_crystal(rs, mu_coeffs, cap=C.NODE_CAP):
    """Finite-type path crystal: the closure of the classical straight path
    under the finite-node operators only."""
    return two_call_closure(rs, P.straight(rs.weight_of(mu_coeffs)[:-1]), rs.finite_nodes, cap)


def finite_path_char(rs, mu_coeffs):
    """Weight sum of the finite path crystal, on finite keys: the reference
    for the irreducible characters the Demazure operator builds."""
    ch = Character()
    for path in finite_path_crystal(rs, mu_coeffs).nodes:
        ch.add_term(path.endpoint()[1:], 1)
    return ch


@pytest.fixture(params=ALL_TYPES, ids=lambda t: f"{t[0]}{t[1]}")
def any_rs(request):
    return root_system(*request.param)


@pytest.fixture(params=NON_SIMPLY_LACED, ids=lambda t: f"{t[0]}{t[1]}")
def nsl_rs(request):
    return root_system(*request.param)


def finite_orbit(rs, x, finite_only=True, cap=200000):
    """Full reflection orbit of a weight (finite Weyl group by default)."""
    nodes = rs.finite_nodes if finite_only else rs.nodes
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for w in frontier:
            for i in nodes:
                y = rs.reflect(i, w)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        assert len(seen) <= cap
    return seen


def affine_orbit_bounded(rs, x, depth):
    """All weights reachable by at most ``depth`` affine reflections."""
    layer = {x}
    seen = {x}
    for _ in range(depth):
        nxt = set()
        for w in layer:
            for i in rs.nodes:
                y = rs.reflect(i, w)
                if y not in seen:
                    nxt.add(y)
        seen |= nxt
        layer = nxt
    return seen
