"""Structural decompositions tying the three computation routes together.

Route (a) sums the full-lattice weights over the finite level-zero crystal.
Route (b) peels the level-one block character of the short subsystem into
level-r blocks and moves them back to the full lattice by their root-lattice
differences from lam.  Route (c) concatenates the basic highest path onto
every crystal element, follows the crystal's recorded raising edges to its
component's top, and returns the components, each required to sum to the
level-one block named by its top key.  The headline checks are (a) = (b) as
characters and (b) = (c) as multisets; :func:`verify_main` keeps every check
in one table of the differences its failure lines print.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache

from .characters import (
    Character,
    decompose_hd,
    finite_key,
    hd_delta,
    hd_finite_part,
    hd_height,
    hd_key,
    in_q_plus_short,
    peel_demazure,
    transport_short,
)
from .crystals import (
    NODE_CAP,
    CrystalGraph,
    LimitError,
    classically_highest,
    generate_level_zero,
)
from .demazure import block_char
from .rootdata import RootSystem, Weight

RAISE_CAP = 10**4


class DecompositionError(RuntimeError):
    pass


# -- highest elements under a dominant weight --------------------------------

def _raised(rs: RootSystem, Lambda: Weight, graph: CrystalGraph, pos: int):
    """Target of the first e_i (in ``rs.nodes`` order) raising the straight
    path of Lambda followed by node ``pos``, or None.  The straight part's
    profile is nonnegative, so e_i raises when epsilon_i of the node exceeds
    ``Lambda[i]``, that is when the node's recorded e_i-string has more than
    ``Lambda[i]`` edges, and it raises along the first of them; e-stability
    forbids that edge a shift."""
    e_edges = graph.e_edges
    for i in rs.nodes:
        edge = up = e_edges[pos][i]
        for _ in range(Lambda[i]):
            up = up and e_edges[up[0]][i]
        if up:
            tgt, shift = edge
            if shift:
                raise DecompositionError(f"raising {pos} by e_{i} shifts it by {shift}")
            return tgt
    return None


# -- route (c): components of the concatenated crystal ------------------------

class Component(namedtuple("Component", "mu_coeffs n members top")):
    """A component's block (mu, n), its member positions into the crystal
    graph and the position of its top."""
    __slots__ = ()


def decompose_tensor_image(rs: RootSystem, graph: CrystalGraph,
                           raise_cap: int = RAISE_CAP,
                           Lambda: Weight | None = None,
                           keys: list | None = None,
                           cap: int = NODE_CAP) -> list:
    """Group the concatenations of the highest straight path of ``Lambda``
    with every element of the level-zero crystal ``graph`` by their
    component's top, reached by walking :func:`_raised`; an element that
    needs ``raise_cap`` or more raisings is an error.  ``Lambda`` is the
    basic level-one weight (the default) or a positive multiple of it.
    ``keys`` are the nodes' restricted keys (:func:`node_keys`), if known.

    Each component must be a Demazure crystal: its keys sum to the block of
    ``Lambda``'s level (under the node cap ``cap``) topped by its key of
    greatest ``hd_height``.  A block has coefficient 1 at its top and support
    below it in the dominance order, so the top key is unique and maximal.
    """
    if Lambda is None:
        Lambda = rs.fundamental(0)
    if any(Lambda[i] != 0 for i in rs.finite_nodes) or Lambda[0] < 1 or Lambda[-1] != 0:
        raise DecompositionError("the tensor base must be a positive multiple "
                                 "of the basic level-one weight")
    tops: dict = {}  # position -> (its component's top, raisings to reach it)
    buckets: dict = {}  # top -> members, in order of the first member
    for pos in range(len(graph)):
        chain = [pos]
        while chain[-1] not in tops and (up := _raised(rs, Lambda, graph, chain[-1])) is not None:
            chain.append(up)
        top, steps = tops.get(chain[-1], (chain[-1], 0))
        for p in reversed(chain):
            tops[p] = (top, steps)
            steps += 1
        if tops[pos][1] >= raise_cap:
            raise LimitError("raising exceeded the step cap")
        buckets.setdefault(top, []).append(pos)
    if keys is None:
        keys = node_keys(rs, graph)
    components = []
    for top, members in buckets.items():
        summed = Character(Counter(keys[pos] for pos in members))
        top_key = max(summed, key=lambda k: hd_height(rs, k))
        mu, n = hd_finite_part(top_key), hd_delta(top_key)
        if any(c < 0 for c in mu):
            raise DecompositionError(f"component top {top_key} is not dominant")
        diff = summed.added(block_char(rs, Lambda[0], mu, n, cap), -1)
        if diff:
            raise DecompositionError(f"component {(mu, n)} differs from its block: "
                                     f"keys - block = {diff}")
        components.append(Component(mu, n, members, top))
    return components


# -- the short subsystem --------------------------------------------------------

def lam_bar_coeffs(rs: RootSystem, lam: Weight) -> tuple:
    """Coefficients of the restricted weight on the short chain."""
    return tuple(lam[i] for i in rs.short_nodes)


def peel_short_filtration(rs: RootSystem, lam: Weight, cap: int = NODE_CAP):
    """Peel the level-one short block character into level-r pieces, listed
    by grading ascending, then pairings descending."""
    sh = rs.short_system()
    ch = block_char(sh, 1, lam_bar_coeffs(rs, lam), 0, cap)
    pieces = peel_demazure(sh, ch, lambda nu, m: block_char(sh, rs.r, nu, m, cap))
    return sorted(pieces, key=lambda p: (p[1], tuple(-c for c in p[0])))


def weyl_filtration_multiset(rs: RootSystem, lam: Weight, cap: int = NODE_CAP):
    """The multiset of (mu coefficients, grading shift, multiplicity).

    Simply laced types contribute the single block at the weight itself;
    otherwise each piece of the short-system peel moves to the full lattice
    by its root-lattice difference from lam.
    """
    coeffs = finite_key(rs, lam)
    if rs.is_simply_laced:
        return [(coeffs, 0, 1)]
    out = []
    for nu_key, m, mult in peel_short_filtration(rs, lam, cap):
        mu = hd_finite_part(transport_short(rs, lam, nu_key + (0,)))
        if any(c < 0 for c in mu):
            raise DecompositionError(f"filtration weight {mu} is not dominant")
        out.append((mu, m, mult))
    return out


def node_keys(rs: RootSystem, graph: CrystalGraph) -> list:
    """The restricted key of every node's full weight, by position."""
    return [hd_key(rs, path.endpoint()) for path in graph.nodes]


def path_side_char(rs: RootSystem, graph: CrystalGraph,
                   keys: list | None = None) -> Character:
    """Route (a): the full-lattice weight sum over the level-zero crystal;
    ``keys`` are the nodes' restricted keys when the caller has them."""
    ch = Character()
    for key in node_keys(rs, graph) if keys is None else keys:
        ch.add_term(key, 1)
    return ch


def filtration_char(rs: RootSystem, filtration, cap: int = NODE_CAP) -> Character:
    """Route (b): the blocks of the filtration, summed at their shifts."""
    out = Character()
    for mu, m, mult in filtration:
        for key, coeff in block_char(rs, 1, mu, m, cap).items():
            out.add_term(key, mult * coeff)
    return out


def _short_projection_difference(rs: RootSystem, lam: Weight, full: Character,
                                 level: int, m: int, cap: int) -> Character:
    """The part of ``full`` supported below lam along short roots, minus the
    transported level-``level`` short block at shift ``m``.  A key is below
    lam along short roots when its finite part lies in lam - Q_+^sh."""
    lam_f = finite_key(rs, lam)
    out = Character({key: v for key, v in full.items()
                     if in_q_plus_short(rs, lam_f, hd_finite_part(key))})
    short = block_char(rs.short_system(), level, lam_bar_coeffs(rs, lam), m, cap)
    for key, coeff in short.items():
        out.add_term(transport_short(rs, lam, key), -coeff)
    return out


def short_restriction_identity(rs: RootSystem, lam: Weight, a_char: Character,
                               cap: int = NODE_CAP):
    """Both short-projection identities, reported as the detail lines of the
    ones that fail.

    First: the part of the route (a) character ``a_char`` of lam supported
    below lam along short roots equals the transported level-one short block
    character.  Second: the same projection applied to the full level-one
    block character equals the transported level-r short block character.
    """
    lines = []
    diff = _short_projection_difference(rs, lam, a_char, 1, 0, cap)
    if diff:
        lines.append(f"path-side projection differs: {diff}")
    diff = short_demazure_identity(rs, lam, 0, cap)
    if diff:
        lines.append(f"block projection differs: {diff}")
    return lines


def short_demazure_identity(rs: RootSystem, lam: Weight, m: int,
                            cap: int = NODE_CAP) -> Character:
    """Projection identity for the level-one block at an arbitrary shift: the
    difference of its two sides, empty exactly when the identity holds."""
    full = block_char(rs, 1, finite_key(rs, lam), m, cap)
    return _short_projection_difference(rs, lam, full, rs.r, m, cap)


# -- the full verification report ---------------------------------------------

class VerifyReport(namedtuple("VerifyReport", "crystal_size filtration checks details")):
    """``checks`` maps each check name to whether it passed; ``details`` says
    why a check failed: the difference of its two sides."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@lru_cache(maxsize=None)
def _fundamental_size(rs: RootSystem, i: int, cap: int) -> int:
    """Size of the level-zero crystal of varpi_i, built under the node cap ``cap``."""
    return len(generate_level_zero(rs, rs.varpi(i), cap))


def _failing(line: str, differs) -> list:
    """A check's detail lines: ``line`` when its two sides differ, else none."""
    return [line] if differs else []


def verify_main(rs: RootSystem, lam: Weight, cap: int = NODE_CAP,
                raise_cap: int = RAISE_CAP) -> VerifyReport:
    """Run all three routes for one weight and cross-check every identity:
    one table maps each check to the lines naming the difference of its two
    sides, and a check passes when it has none."""
    graph = generate_level_zero(rs, lam, cap)
    keys = node_keys(rs, graph)  # read by routes (a) and (c) and the graded check
    a_char = path_side_char(rs, graph, keys)

    filtration = weyl_filtration_multiset(rs, lam, cap)
    b_char = filtration_char(rs, filtration, cap)

    components = decompose_tensor_image(rs, graph, raise_cap, keys=keys, cap=cap)

    a_minus_b = a_char.added(b_char, -1)
    b_count = Counter((mu, m) for mu, m, mult in filtration for _ in range(mult))
    c_count = Counter((comp.mu_coeffs, comp.n) for comp in components)
    b_minus_c = sorted((b_count - c_count).elements())
    c_minus_b = sorted((c_count - b_count).elements())
    # a repeated position is listed more than once, or is no crystal position
    members = Counter(p for comp in components for p in comp.members)
    missing = sorted(Counter(range(len(graph))) - members)
    repeated = sorted(members - Counter(range(len(graph))))
    prod = math.prod(_fundamental_size(rs, i, cap) ** lam[i] for i in rs.finite_nodes if lam[i])

    # graded multiplicity series {mu: {m: mult}}: from the one decomposition
    # of route (a), and directly from the classically highest elements
    graded = {}
    for (mu, m), mult in decompose_hd(rs, a_char).items():
        graded.setdefault(mu, {})[m] = mult
    direct = {}
    for pos in classically_highest(graph):
        series = direct.setdefault(hd_finite_part(keys[pos]), {})
        deg = hd_delta(keys[pos])  # the node's degree, negated
        series[deg] = series.get(deg, 0) + 1
    differ = {mu: (graded.get(mu), direct.get(mu)) for mu in sorted(graded.keys() | direct.keys())
              if graded.get(mu) != direct.get(mu)}

    table = {
        "char_a_eq_b": _failing(f"char_a_eq_b: a - b = {a_minus_b}", a_minus_b),
        "multiset_b_eq_c": _failing(f"multiset_b_eq_c: b - c = {b_minus_c}, c - b = {c_minus_b}",
                                    b_minus_c or c_minus_b),
        "partition": _failing(f"partition: missing positions {missing}, "
                              f"repeated positions {repeated}", missing or repeated),
        "dimension_product": _failing(f"dimension_product: product {prod}, "
                                      f"crystal size {len(graph)}", prod != len(graph)),
        "graded_multiplicities": _failing(
            f"graded_multiplicities: (decomposition, highest elements) = {differ}", differ),
    }
    if not rs.is_simply_laced:
        table["short_restriction"] = short_restriction_identity(rs, lam, a_char, cap)

    return VerifyReport(
        crystal_size=len(graph),
        filtration=filtration,
        checks={name: not lines for name, lines in table.items()},
        details=[line for lines in table.values() for line in lines],
    )
