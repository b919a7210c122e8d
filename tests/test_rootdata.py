import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import helpers as H
from conftest import affine_orbit_bounded, finite_orbit
from pathcrystals.rootdata import RootDataError, root_system

A1 = root_system("A", 1)
G2 = root_system("G", 2)
C2 = root_system("C", 2)


def test_simple_root_a1_affine():
    # alpha_0 = 2 Lambda_0 - 2 Lambda_1 + delta in rank one
    assert A1.simple_root(0) == (2, -2, 1)


def test_cartan_diagonal(any_rs):
    for i in any_rs.nodes:
        assert any_rs.simple_root(i)[i] == 2


def test_g2_affine_root_level_zero():
    a0 = G2.simple_root(0)
    assert a0[-1] == 1
    assert G2.level(a0) == 0


def test_pairings_match_cartan(any_rs):
    for i in any_rs.nodes:
        for j in any_rs.nodes:
            assert any_rs.simple_root(j)[i] == any_rs.cartan[i][j]


def test_reflect_fixes_lambda0_at_finite_nodes(any_rs):
    L0 = any_rs.fundamental(0)
    for i in any_rs.finite_nodes:
        assert any_rs.reflect(i, L0) == L0
    assert any_rs.reflect(0, L0) == any_rs.sub(L0, any_rs.simple_root(0))


@given(st.data())
def test_reflect_involution(data):
    rs = root_system(*data.draw(st.sampled_from([("A", 2), ("C", 2), ("G", 2), ("F", 4)])))
    coords = data.draw(
        st.tuples(*[st.integers(-4, 4) for _ in range(rs.rank + 2)])
    )
    i = data.draw(st.sampled_from(list(rs.nodes)))
    assert rs.reflect(i, rs.reflect(i, coords)) == coords
    assert rs.level(rs.reflect(i, coords)) == rs.level(coords)


def test_delta_invariant(any_rs):
    for i in any_rs.nodes:
        assert any_rs.reflect(i, H.delta(any_rs)) == H.delta(any_rs)


def test_dominantize_already_dominant(any_rs):
    lam = any_rs.fundamental(0)
    dom, word = any_rs.dominantize(lam)
    assert dom == lam and word == ()


def test_dominantize_a1_example():
    x = A1.sub(A1.fundamental(0), A1.varpi(1))
    dom, word = A1.dominantize(x)
    assert dom == A1.fundamental(1)
    assert word == (1,)


def test_dominantize_orbit_round_trip(any_rs):
    rng = random.Random(11)
    nodes = list(any_rs.nodes)
    for _ in range(25):
        lam = list(H.zero(any_rs))
        lam[0] = 1
        lam[rng.choice(nodes)] += 1
        lam = tuple(lam)
        x = lam
        for _ in range(rng.randint(0, 10)):
            x = any_rs.reflect(rng.choice(nodes), x)
        dom, word = any_rs.dominantize(x)
        assert dom == lam
        assert any_rs.weyl_apply(word, dom) == x


def test_dominantize_rejects_level_zero():
    with pytest.raises(RootDataError):
        A1.dominantize(A1.varpi(1))


def test_antidominantize_zero_and_a1():
    assert A1.antidominantize_finite(H.zero(A1))[0] == H.zero(A1)
    assert A1.antidominantize_finite(A1.varpi(1))[0] == H.scale(-1, A1.varpi(1))


@pytest.mark.parametrize("letter,rank", [("A", 2), ("C", 2), ("B", 3), ("G", 2)])
def test_antidominantize_matches_orbit_minimum(letter, rank):
    rs = root_system(letter, rank)
    rng = random.Random(5)
    for _ in range(5):
        lam = rs.weight_of(tuple(rng.randint(0, 2) for _ in range(rs.rank)))
        low, _ = rs.antidominantize_finite(lam)
        orbit = finite_orbit(rs, lam)
        antidominant = {w for w in orbit if all(w[i] <= 0 for i in rs.finite_nodes)}
        assert antidominant == {low}


def test_antidominantize_word_is_a_shortest_one(any_rs):
    coroots = any_rs.positive_coroots()
    for coeffs in itertools.product(range(-1, 3), repeat=any_rs.rank):
        lam = any_rs.weight_of(coeffs)
        low, word = any_rs.antidominantize_finite(lam)
        assert any_rs.weyl_apply(word, lam) == low
        assert all(low[i] <= 0 for i in any_rs.finite_nodes)
        positive = [gv for gv in coroots if sum(d * c for d, c in zip(gv, coeffs)) > 0]
        assert len(word) == len(positive)


def test_restrict_include_short_roots(nsl_rs):
    sh = nsl_rs.short_system()
    for node in nsl_rs.short_nodes:
        alpha = nsl_rs.simple_root(node)
        assert H.include_sh(nsl_rs, H.restrict_sh(nsl_rs, alpha)) == alpha
    assert H.include_sh(nsl_rs, H.restrict_sh(nsl_rs, H.delta(nsl_rs))) == H.delta(nsl_rs)


def test_restrict_preserves_short_pairings(nsl_rs):
    for j in nsl_rs.nodes:
        bar = H.restrict_sh(nsl_rs, nsl_rs.simple_root(j))
        for pos, node in enumerate(nsl_rs.short_nodes, start=1):
            assert bar[pos] == nsl_rs.cartan[node][j]


def test_restrict_include_is_identity(nsl_rs):
    sh = nsl_rs.short_system()
    rng = random.Random(3)
    for _ in range(10):
        y = tuple(rng.randint(-3, 3) for _ in range(sh.rank + 2))
        back = H.restrict_sh(nsl_rs, H.include_sh(nsl_rs, y))
        assert back == y


def test_short_complement_orthogonality():
    # the part of a weight invisible to the short system pairs to zero there
    lam = C2.varpi(1)
    diff = H.lam_prime(C2, lam)
    for i in C2.short_nodes:
        assert diff[i] == 0


def test_include_sh_levels(nsl_rs):
    # level-r short weights land at level one upstairs
    sh = nsl_rs.short_system()
    L0r = H.restrict_sh(nsl_rs, nsl_rs.fundamental(0))
    assert sh.level(L0r) == nsl_rs.r
    assert nsl_rs.level(H.include_sh(nsl_rs, L0r)) == 1


def test_tau_transports_to_lowest_short_level(nsl_rs):
    assert H.tau_data(nsl_rs)[1] in nsl_rs.short_nodes
    assert H.tau_transports(nsl_rs)


def test_tau_prefixes_avoid_short_layers(nsl_rs):
    # each prefix image, expanded over the simple roots, must not be a short
    # root shifted by a null-root multiple
    word, _ = H.tau_data(nsl_rs)
    short_roots = {
        r
        for r in finite_orbit_roots(nsl_rs)
        if all(
            c == 0 for node, c in zip(nsl_rs.finite_nodes, r) if node not in nsl_rs.short_nodes
        )
    }
    for cut in range(len(word)):
        prefix, letter = word[:cut], word[cut]
        img = nsl_rs.weyl_apply(prefix, nsl_rs.simple_root(letter))
        coeffs = H.classical_alpha_expand(nsl_rs, img)
        assert tuple(coeffs) not in short_roots


def finite_orbit_roots(rs):
    pos = H.positive_roots_alpha(rs)
    return {tuple(r) for r in pos} | {tuple(-c for c in r) for r in pos}


def test_simply_laced_short_ops_unavailable():
    with pytest.raises(RootDataError):
        root_system("A", 2).short_system()
    with pytest.raises(RootDataError):
        H.tau_data(root_system("D", 4))


def test_tau_words_match_table():
    assert H.tau_data(G2) == ((1, 2, 0, 1), 2)
    assert H.tau_data(root_system("C", 3)) == ((3, 2, 1, 0), 1)
    assert H.tau_data(root_system("B", 2)) == ((0, 1), 2)
    assert H.tau_data(root_system("F", 4)) == ((2, 3, 1, 2, 3, 4, 0, 1, 2), 3)


def test_weyl_dimensions():
    assert root_system("A", 3).weyl_dimension((0, 1, 0)) == 6
    assert G2.weyl_dimension((0, 1)) == 7
    assert root_system("F", 4).weyl_dimension((0, 0, 0, 1)) == 26
    assert root_system("B", 4).weyl_dimension((0, 0, 0, 1)) == 16


def test_d_offset_membership_in_affine_orbit():
    # 2*varpi + 2*delta lies in the affine orbit, 2*varpi + delta does not
    lam = A1.weight_of((2,))
    reachable = affine_orbit_bounded(A1, lam, 12)
    shifted = {w[-1] for w in reachable if w[:-1] == lam[:-1]}
    assert 2 in shifted or -2 in shifted
    assert 1 not in shifted and -1 not in shifted


def solve_exact(matrix, rhs):
    """Solve a small square linear system by fraction-exact elimination; the
    per-call expansion that the stored Cartan inverse replaced."""
    n = len(rhs)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def test_alpha_expand_matches_elimination(any_rs):
    # the stored Cartan inverse against a fresh elimination per input
    rng = random.Random(f"{any_rs.letter}{any_rs.rank}")
    for k in range(60):
        if k % 2:
            x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in any_rs.nodes)
        else:
            x = tuple(rng.randint(-5, 5) for _ in any_rs.nodes)
        got = H.classical_alpha_expand(any_rs, x)
        want = H.normalize_weight(solve_exact(any_rs.finite_cartan, x[1:]))
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


def _reflect_normalizing(rs, i, x):
    """s_i(x) with every entry normalized: the formula int weights no longer need."""
    c = x[i]
    alpha = rs.simple_root(i, cl=rs.is_cl(x))
    return tuple(H.normalize_entry(a - c * b) for a, b in zip(x, alpha))


def test_reflect_matches_the_normalizing_formula(any_rs):
    # int directions, on either lattice; weights hold no other entries
    entries = [-3, -2, -1, 0, 1, 2, 3]
    rng = random.Random(any_rs.rank)
    dirs = []
    for length in (any_rs.rank + 1, any_rs.rank + 2):
        for _ in range(100):
            path = H.make_path([[rng.choice(entries) for _ in range(length)] for _ in range(3)],
                               [Fraction(1, 3), Fraction(1, 2), 1])
            dirs.extend(path.dirs)
    for mu in dirs:
        for i in any_rs.nodes:
            got = any_rs.reflect(i, mu)
            want = _reflect_normalizing(any_rs, i, mu)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]


# -- input guards, each with its exact message --------------------------------

ROOTDATA_GUARDS = [
    ("B1", lambda: root_system("B", 1), "type B needs rank >= 2"),
    ("E6", lambda: root_system("E", 6), "type E exceeds the supported rank table"),
    ("X2", lambda: root_system("X", 2), "unknown type letter 'X'"),
    ("simple_root", lambda: C2.simple_root(9), "unknown node index 9"),
    ("varpi", lambda: C2.varpi(0), "0 is not a finite node"),
    ("weight_of", lambda: C2.weight_of((1,)), "need one coefficient per finite node"),
    ("is_cl", lambda: C2.is_cl((1,)), "weight of length 1 does not fit rank 2"),
    ("dominantize", lambda: C2.dominantize((1, 0.0, 0, 0)),
     "dominantize needs an integral weight"),
    ("antidominantize", lambda: C2.antidominantize_finite(C2.weight_of((0, 0), level=1)),
     "expected a classical (level-zero) weight"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in ROOTDATA_GUARDS],
                         ids=[g[0] for g in ROOTDATA_GUARDS])
def test_root_data_rejects_bad_input(call, message):
    with pytest.raises(RootDataError) as exc:
        call()
    assert type(exc.value) is RootDataError and str(exc.value) == message
