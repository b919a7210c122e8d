import itertools
import random

import pytest

from conftest import verify_requests
import helpers as H
from helpers import dominance_leq
from pathcrystals import demazure as D
from pathcrystals import paths as P
from pathcrystals.characters import Character, finite_char, hd_key
from pathcrystals.crystals import NODE_CAP, GenerationError
from pathcrystals.demazure import (
    DemazureSpec,
    block_char,
    demazure_character,
    demazure_crystal,
    demazure_crystal_for_word,
    demazure_graph,
    demazure_params,
    f_string_closure,
)
from pathcrystals.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


def braid_order(rs, a, b):
    prod = rs.cartan[a][b] * rs.cartan[b][a]
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod)


def braid_pairs(rs, word):
    """All words obtained by one braid move, paired with the original."""
    out = []
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            continue
        m = braid_order(rs, a, b)
        if m is None or p + m > len(word):
            continue
        pattern = tuple(a if k % 2 == 0 else b for k in range(m))
        if word[p : p + m] == pattern:
            swapped = tuple(b if k % 2 == 0 else a for k in range(m))
            out.append(word[:p] + swapped + word[p + m :])
    return out


def spec_pool(rs, max_len=8, levels=(1, 2, 3), shifts=(0, 1), bound=2):
    pool = []
    for coeffs in itertools.product(range(bound + 1), repeat=rs.rank):
        for ell in levels:
            for m in shifts:
                spec = demazure_params(rs, ell, coeffs, m)
                if len(spec.word) <= max_len:
                    pool.append(spec)
    return pool


# -- parameter resolution ------------------------------------------------------

def test_params_trivial():
    spec = demazure_params(A1, 1, (0,), 0)
    assert spec.Lambda == A1.fundamental(0)
    assert spec.word == ()


def test_params_a1_fundamental():
    spec = demazure_params(A1, 1, (1,), 0)
    assert spec.Lambda == A1.fundamental(1)
    assert spec.word == (1,)


def test_params_round_trip():
    rng = random.Random(3)
    for rs in (A2, C2, G2):
        for _ in range(10):
            coeffs = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            ell = rng.randint(1, 3)
            m = rng.randint(-1, 1)
            spec = demazure_params(rs, ell, coeffs, m)
            want = rs.add(
                rs.antidominantize_finite(rs.weight_of(coeffs))[0],
                rs.weight_of((0,) * rs.rank, delta=m, level=ell),
            )
            assert spec.target == want
            assert rs.level(spec.Lambda) == ell
            assert all(spec.Lambda[i] >= 0 for i in rs.nodes)
            # the resolved target is antidominant at every finite node
            assert all(spec.target[i] <= 0 for i in rs.finite_nodes)


# -- crystals -------------------------------------------------------------------

def test_empty_word_crystal():
    spec = demazure_params(A1, 1, (0,), 0)
    assert demazure_crystal(spec) == [P.straight(A1.fundamental(0))]


def test_string_closure_idempotent():
    spec = demazure_params(C2, 1, (1, 1), 0)
    nodes = demazure_crystal(spec)
    i = spec.word[-1]
    once = f_string_closure(C2, nodes, i)
    assert set(f_string_closure(C2, once, i)) == set(once)


def test_raising_stability():
    for rs, coeffs in [(A2, (1, 1)), (C2, (2, 0)), (G2, (0, 1))]:
        spec = demazure_params(rs, 1, coeffs, 0)
        nodes = set(demazure_crystal(spec))
        for path in nodes:
            for i in rs.nodes:
                up = P.e_op(rs, i, path)
                assert up is None or up in nodes


def test_extremal_node_unique_and_weights_bounded():
    for rs, coeffs, m in [(A2, (2, 0), 0), (C2, (1, 1), 1), (G2, (0, 1), 0)]:
        spec = demazure_params(rs, 1, coeffs, m)
        nodes = demazure_crystal(spec)
        extremal = [p for p in nodes if p.endpoint() == spec.target]
        assert len(extremal) == 1
        top = hd_key(rs, rs.weight_of(coeffs, delta=m, level=1))
        for p in nodes:
            assert dominance_leq(rs, hd_key(rs, p.endpoint()), top)


def test_word_independence_via_braid_moves():
    rng = random.Random(7)
    pairs = 0
    for rs in (A2, C2, G2):
        for spec in spec_pool(rs, max_len=8):
            for other in braid_pairs(rs, spec.word):
                lhs = set(demazure_crystal(spec))
                rhs = set(demazure_crystal_for_word(rs, spec.Lambda, other))
                assert lhs == rhs
                pairs += 1
            if pairs >= 8:
                break
    assert pairs >= 8


def test_growth_law_redundant_letter():
    # prepending the word's own first letter must not grow the crystal
    spec = demazure_params(C2, 1, (1, 1), 0)
    nodes = demazure_crystal(spec)
    again = f_string_closure(C2, nodes, spec.word[0])
    assert set(again) == set(nodes)


def test_growth_law_fresh_letter():
    # a letter lengthening the element strictly grows the node set
    spec = demazure_params(A2, 1, (1, 0), 0)
    nodes = demazure_crystal(spec)
    fresh = next(
        i for i in A2.nodes
        if any(P.f_op(A2, i, p) is not None and P.f_op(A2, i, p) not in nodes for p in nodes)
    )
    grown = f_string_closure(A2, nodes, fresh)
    assert set(nodes) < set(grown)


# -- characters -------------------------------------------------------------------

def test_character_trivial_spec():
    spec = demazure_params(A1, 1, (0,), 0)
    assert demazure_character(spec) == Character.monomial(A1.fundamental(0))


def test_character_delta_shift_covariance():
    for rs, coeffs in [(A1, (2,)), (C2, (1, 1)), (G2, (0, 1))]:
        base = demazure_character(demazure_params(rs, 1, coeffs, 0), restrict_to_hd=True)
        shifted = demazure_character(demazure_params(rs, 1, coeffs, 3), restrict_to_hd=True)
        assert shifted == H.per_entry_shifted(base, (0,) * rs.rank + (3,))


def test_type_a_blocks_are_irreducible_characters():
    for rs, i in [(A2, 1), (A2, 2), (root_system("A", 3), 2)]:
        coeffs = tuple(1 if k == i else 0 for k in rs.finite_nodes)
        for ell in (1, 2):
            ch = demazure_character(demazure_params(rs, ell, coeffs, 0), restrict_to_hd=True)
            collapsed = Character()
            for key, v in ch.items():
                assert key[-1] == 0  # single grading layer
                collapsed[key[:-1]] += v
            assert Character({k: v for k, v in collapsed.items() if v}) == finite_char(rs, coeffs)


def test_oracle_trivial_and_zero_string():
    spec = demazure_params(A1, 1, (0,), 0)
    assert demazure_character(spec) == Character.monomial(spec.Lambda)
    # a pairing-zero weight is fixed by the string operator
    mu = A2.add(A2.fundamental(0), A2.weight_of((0, 0), delta=2))
    fixed = DemazureSpec(A2, 1, (0, 0), 2, mu, (1,))
    assert demazure_character(fixed) == Character.monomial(mu)


def test_oracle_matches_crystal_sum():
    rng = random.Random(11)
    count = 0
    for rs in (A2, C2, G2):
        pool = spec_pool(rs, max_len=8)
        rng.shuffle(pool)
        for spec in pool[:8]:
            assert H.demazure_crystal_sum(spec) == demazure_character(spec)
            count += 1
    assert count >= 20


def test_block_char_is_a_copy_memoised_per_cap():
    want = H.demazure_crystal_sum(demazure_params(C2, 1, (2, 1), 0), restrict_to_hd=True)
    got = block_char(C2, 1, (2, 1), 0)
    assert got == want
    got.clear()
    assert block_char(C2, 1, [2, 1], 0) == want
    # a block built under the default cap is not served to a smaller one
    with pytest.raises(GenerationError, match="node cap 1 exceeded"):
        block_char(C2, 1, (2, 1), 0, cap=1)


# -- string closures against the loop they replaced -------------------------------

def _f_string_closure_every_walk(rs, paths, i, cap):
    """The string closure as it was: a full walk down from every node."""
    out = dict.fromkeys(paths)
    for path in paths:
        cur = path
        while True:
            cur = P.f_op(rs, i, cur)
            if cur is None:
                break
            out[cur] = None
            if len(out) > cap:
                raise GenerationError(f"node cap {cap} exceeded")
    return list(out)


def _closure_outcome(closure, rs, nodes, i, cap):
    try:
        return closure(rs, nodes, i, cap)
    except GenerationError as exc:
        return str(exc)


def test_string_closure_matches_the_every_walk_loop():
    steps = 0
    for rs in (A2, C2, G2):
        for spec in spec_pool(rs):
            nodes = [P.straight(spec.Lambda)]
            for i in reversed(spec.word):
                want = _f_string_closure_every_walk(rs, nodes, i, NODE_CAP)
                assert f_string_closure(rs, nodes, i) == want
                # the cap trips at the same node count
                for cap in (len(want) - 1, len(want)):
                    assert _closure_outcome(f_string_closure, rs, nodes, i, cap) == \
                        _closure_outcome(_f_string_closure_every_walk, rs, nodes, i, cap)
                nodes = want
                steps += 1
    assert steps > 100


# -- the Demazure graph ---------------------------------------------------------------

def test_graph_reads_raising_edges_off_the_lowering_edges():
    for rs, coeffs in [(A2, (1, 1)), (C2, (2, 1)), (G2, (0, 2))]:
        spec = demazure_params(rs, 1, coeffs, 0)
        graph = demazure_graph(spec)
        index = {path: pos for pos, path in enumerate(graph.nodes)}
        # the e-edges the operators give, every one inside the node set
        want = [[None] * len(rs.nodes) for _ in graph.nodes]
        for pos, path in enumerate(graph.nodes):
            for i in rs.nodes:
                up = P.e_op(rs, i, path)
                if up is not None:
                    want[pos][i] = (index[up], 0)
        assert graph.e_edges == want


def test_graph_rejects_a_node_set_that_is_not_raising_stable(monkeypatch):
    spec = demazure_params(C2, 1, (1, 1), 0)
    nodes = demazure_crystal(spec)
    # without the highest path, the nodes right below it raise out of the set
    monkeypatch.setattr(D, "demazure_crystal", lambda spec, cap=NODE_CAP: nodes[1:])
    with pytest.raises(GenerationError, match="raising left the Demazure node set"):
        demazure_graph(spec)


# -- route (b) blocks by the character formula ----------------------------------------

def _block_outcome(build, cap):
    try:
        return build(cap)
    except GenerationError as exc:
        return str(exc)


def test_blocks_match_the_crystal_sum():
    blocks = verify_requests()[1]
    # level one, and level r = 2, 3 on the short systems
    assert {level for _, level, _, _ in blocks} == {1, 2, 3}
    for rs, level, mu, m in blocks:
        spec = demazure_params(rs, level, mu, m)
        want = H.demazure_crystal_sum(spec, restrict_to_hd=True)
        assert block_char(rs, level, mu, m) == want
        mass = want.mass()
        for cap in (mass - 1, mass):
            crystal = _block_outcome(lambda c: H.demazure_crystal_sum(spec, True, c), cap)
            assert _block_outcome(lambda c: block_char(rs, level, mu, m, c), cap) == crystal
            assert _block_outcome(lambda c: demazure_character(spec, True, c), cap) == crystal
        if mass > 1:
            with pytest.raises(GenerationError, match=f"node cap {mass - 1} exceeded"):
                block_char(rs, level, mu, m, mass - 1)


def test_block_char_calls_no_path_operator(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a path operator ran")

    for name in ("f_op", "e_op", "eps_phi", "straight"):
        monkeypatch.setattr(P, name, forbidden)
    D._block_char.cache_clear()
    assert block_char(G2, 2, (1, 1), 1).mass() > 1
    assert block_char(C2, 1, (2, 1), 0).mass() > 1


@pytest.mark.parametrize("letter,rank,coeffs,walks", [
    ("A", 4, (1, 1, 1, 1), 6475),
    ("F", 4, (0, 0, 1, 0), 1129),
    ("D", 4, (1, 0, 1, 1), 1592),
], ids=["A4", "F4", "D4"])
def test_word_closure_lowers_each_node_once_per_letter_node(monkeypatch, letter, rank,
                                                            coeffs, walks):
    rs = root_system(letter, rank)
    spec = demazure_params(rs, 1, coeffs)
    # the closure of each letter on its own, walking again what an earlier
    # letter with the same node walked
    want = [P.straight(spec.Lambda)]
    for i in reversed(spec.word):
        want = f_string_closure(rs, want, i)
    real = P.f_op
    calls = []

    def counted(rs, i, path, col=None):
        calls.append((path, i))
        return real(rs, i, path, col)

    monkeypatch.setattr(P, "f_op", counted)
    assert demazure_crystal(spec) == want
    assert len(calls) == len(set(calls)) == walks


# -- input guards, each with its exact message --------------------------------

DEMAZURE_GUARDS = [
    ("level_zero", lambda: D.demazure_params(C2, 0, (1, 0)), "level must be positive"),
    ("negative", lambda: D.demazure_params(C2, 1, (-1, 0)),
     "need nonnegative coefficients, one per finite node"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in DEMAZURE_GUARDS],
                         ids=[g[0] for g in DEMAZURE_GUARDS])
def test_demazure_params_rejects_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message
