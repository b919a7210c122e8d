import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers as H
from conftest import ALL_TYPES, LARGE_WEIGHTS, finite_path_char, sweep_weights, verify_requests
from pathcrystals import characters as CH
from pathcrystals import decompose as DC
from pathcrystals.characters import Character
from pathcrystals.demazure import block_char, demazure_character, demazure_params
from pathcrystals.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_character_arithmetic():
    a = Character.monomial((1, 0))
    b = Character.monomial((0, 1), 2)
    s = a.added(b)
    assert s[(1, 0)] == 1 and s[(0, 1)] == 2
    assert s.added(s, -1) == Character()
    prod = H.convolved(a, b)
    assert prod == Character.monomial((1, 1), 2)
    assert H.per_entry_shifted(a, (3, 3)) == Character.monomial((4, 3))


def test_project_short_cone_drops_long_direction():
    # e(lam) survives, e(lam - alpha_long) does not
    lam = C2.weight_of((1, 1))
    lam_f = CH.finite_key(C2, lam)
    long_root = C2.simple_root(2)
    keys = {
        CH.hd_key(C2, lam): True,
        CH.hd_key(C2, C2.sub(lam, long_root)): False,
        CH.hd_key(C2, C2.sub(lam, C2.simple_root(1))): True,
    }
    for key, keep in keys.items():
        assert CH.in_q_plus_short(C2, lam_f, CH.hd_finite_part(key)) == keep


def test_i_sh_char_basics(nsl_rs):
    sh = nsl_rs.short_system()
    zero = (0,) * (nsl_rs.rank + 1)
    assert H.i_sh_char(nsl_rs, Character.monomial((0,) * (sh.rank + 1))) == Character.monomial(zero)
    # the null-root class passes through to the null-root class
    delta_bar = (0,) * sh.rank + (1,)
    assert H.i_sh_char(nsl_rs, Character.monomial(delta_bar)) == Character.monomial(
        (0,) * nsl_rs.rank + (1,)
    )


def test_i_sh_char_additive():
    rng = random.Random(2)
    sh = C2.short_system()
    for _ in range(5):
        k1 = tuple(rng.randint(-2, 2) for _ in range(sh.rank + 1))
        k2 = tuple(rng.randint(-2, 2) for _ in range(sh.rank + 1))
        a, b = Character.monomial(k1), Character.monomial(k2, 3)
        assert H.i_sh_char(C2, a.added(b)) == H.i_sh_char(C2, a).added(H.i_sh_char(C2, b))


def _i_sh_hd_cartan_loop(rs, key):
    """Reference pushforward: the short expansion re-read as ambient
    pairings through the Cartan matrix, one short node at a time."""
    sh = rs.short_system()
    finite = H.classical_alpha_expand(sh, (0,) + tuple(key[:-1]))
    pair = [Fraction(0)] * rs.rank
    for j, node in enumerate(rs.short_nodes):
        for i in rs.finite_nodes:
            pair[i - 1] += finite[j] * rs.cartan[i][node]
    return H.normalize_weight(tuple(pair) + (key[-1],))


def test_i_sh_hd_matches_the_cartan_loop(nsl_rs):
    # values and int/Fraction entry types of the reference pushforward
    rng = random.Random(11)
    k = nsl_rs.short_system().rank
    for _ in range(300):
        key = tuple(rng.randint(-4, 4) for _ in range(k + 1))
        want = _i_sh_hd_cartan_loop(nsl_rs, key)
        got = H.i_sh_hd(nsl_rs, key)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want], (key, got, want)


def test_finite_char_small():
    assert CH.finite_char(A1, (0,)) == Character.monomial((0,))
    assert CH.finite_char(A1, (1,)) == Character.monomial((1,)).added(Character.monomial((-1,)))
    assert CH.finite_char(A1, (1,)) is CH.finite_char(A1, (1,))  # one shared instance
    with pytest.raises(CH.CharacterError):
        CH.finite_char(A1, (-1,))


def test_finite_char_g2_mass():
    for mu in [(1, 0), (0, 1), (1, 1)]:
        assert CH.finite_char(G2, mu).mass() == G2.weyl_dimension(mu)


def test_finite_char_weyl_invariance():
    ch = CH.finite_char(C2, (1, 1))
    for i in C2.finite_nodes:
        reflected = Character()
        for key, v in ch.items():
            full = C2.reflect(i, (0,) + key + (0,))
            reflected[CH.finite_key(C2, full)] += v
        reflected = Character({k: v for k, v in reflected.items() if v})
        assert reflected == ch


def test_finite_char_matches_the_path_crystal_on_verify_requests():
    requests = verify_requests()[0]
    assert len(requests) == 119
    for rs, mu in requests:
        assert CH.finite_char(rs, mu) == finite_path_char(rs, mu), (rs, mu)


def test_finite_char_matches_the_path_crystal_on_small_coefficients():
    # coefficients at most 1; the path crystal is kept to 3,000 nodes, which
    # leaves out the 20 largest (up to 2^24 nodes for F4 (1,1,1,1))
    checked = 0
    for letter, rank in ALL_TYPES:
        rs = root_system(letter, rank)
        for mu in itertools.product((0, 1), repeat=rank):
            if rs.weyl_dimension(mu) <= 3000:
                assert CH.finite_char(rs, mu) == finite_path_char(rs, mu), (rs, mu)
                checked += 1
    assert checked == 102


def test_characters_load_no_path_code():
    child = "import sys, pathcrystals.characters; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {m for m in proc.stdout.split() if m.startswith("pathcrystals")}
    assert "pathcrystals.characters" in loaded
    assert not loaded & {"pathcrystals.paths", "pathcrystals.crystals", "pathcrystals.demazure"}


def test_graded_multiplicity_identity_cases():
    mu = (1, 1)
    base = Character({k + (0,): v for k, v in CH.finite_char(C2, mu).items()})
    assert CH.decompose_hd(C2, base) == {(mu, 0): 1}
    shifted = Character({k[:-1] + (3,): v for k, v in base.items()})
    assert CH.decompose_hd(C2, shifted) == {(mu, 3): 1}


def test_graded_multiplicity_mass_conservation():
    # block character of a fundamental: nonnegative graded parts whose total
    # weighted mass returns the node count
    spec = demazure_params(C2, 1, (1, 0), 0)
    ch = demazure_character(spec, restrict_to_hd=True)
    decomp = CH.decompose_hd(C2, ch)
    assert all(mult > 0 for mult in decomp.values())
    total = sum(
        mult * C2.weyl_dimension(tuple(mu)) for (mu, m), mult in decomp.items()
    )
    assert total == ch.mass()


def test_straightening_equals_the_peel_on_route_a():
    cases = sweep_weights() + LARGE_WEIGHTS
    assert len(cases) == 104
    for letter, rank, coeffs in cases:
        rs = root_system(letter, rank)
        ch = DC.path_side_char(rs, H.level_zero(rs, rs.weight_of(coeffs)))
        assert H.straighten(rs, ch) == CH.decompose_hd(rs, ch), (letter, rank, coeffs)


def test_decompose_finite_rejects_garbage():
    bad = Character.monomial((0, 1, 0), -1)  # negative at a maximal weight
    with pytest.raises(CH.CharacterError):
        CH.decompose_hd(C2, bad)


def test_peel_single_block_is_identity():
    sh = C2.short_system()
    block = block_char(sh, 2, (1,), 0)

    def char_of(nu, m):
        return block_char(sh, 2, nu, m)

    assert CH.peel_demazure(sh, block, char_of) == [((1,), 0, 1)]


def test_peel_reconstruction_c2():
    sh = C2.short_system()
    ch = block_char(sh, 1, DC.lam_bar_coeffs(C2, C2.weight_of((2, 0))), 0)

    def char_of(nu, m):
        return block_char(sh, 2, nu, m)

    pieces = CH.peel_demazure(sh, ch, char_of)
    rebuilt = Character()
    for nu, m, mult in pieces:
        rebuilt = rebuilt.added(char_of(nu, m), sign=mult)
    assert rebuilt == ch


def _peel_demazure_pairwise(rs, ch, char_of, tie_break=None):
    """Reference peel: a pairwise scan finds the dominant maximal keys, and
    the first of them under ``tie_break`` (default: grading ascending,
    pairings descending) is stripped."""
    if tie_break is None:
        tie_break = lambda key: (CH.hd_delta(key), tuple(-c for c in CH.hd_finite_part(key)))
    residue = Character(ch)
    out = []
    while residue:
        keys = sorted(residue)
        maximal = [
            k for k in keys
            if not any(k2 != k and H.dominance_leq(rs, k, k2) for k2 in keys)
        ]
        maximal = [k for k in maximal if residue[k] > 0]
        dominant = [k for k in maximal if all(c >= 0 for c in CH.hd_finite_part(k))]
        if not dominant:
            raise CH.CharacterError(
                f"no dominant maximal key while residue remains: {dict(residue)}"
            )
        top = min(dominant, key=tie_break)
        mult = residue[top]
        nu = CH.hd_finite_part(top)
        m = CH.hd_delta(top)
        out.append((nu, m, mult))
        for key, coeff in char_of(nu, m).items():
            residue.add_term(key, -mult * coeff)
        if any(v < 0 for v in residue.values()):
            raise CH.CharacterError(
                f"negative residue after stripping block {(nu, m)}: {dict(residue)}"
            )
    return out


def _short_peel_inputs(rs, lam):
    sh = rs.short_system()

    def char_of(nu, m):
        return block_char(sh, rs.r, nu, m)

    return sh, block_char(sh, 1, DC.lam_bar_coeffs(rs, lam), 0), char_of


def test_peel_tie_break_invariance():
    # randomized preference among incomparable maxima must not change the result
    lam = G2.weight_of((1, 2))
    sh, ch, char_of = _short_peel_inputs(G2, lam)
    baseline = sorted(DC.peel_short_filtration(G2, lam))
    assert sorted(CH.peel_demazure(sh, ch, char_of)) == baseline
    rng = random.Random(9)
    for _ in range(4):
        salt = rng.random()

        def shuffled(key, _salt=salt):
            return hash((key, _salt))

        assert sorted(_peel_demazure_pairwise(sh, ch, char_of, tie_break=shuffled)) == baseline


# every nonzero weight with coefficient sum at most 6, 3, 2 on rank 2, 3, 4
PEEL_TYPES = [("B", 2), ("C", 2), ("G", 2), ("B", 3), ("C", 3), ("B", 4), ("C", 4), ("F", 4)]
PEEL_WEIGHTS = [
    (letter, rank, coeffs)
    for letter, rank in PEEL_TYPES
    for coeffs in itertools.product(range({2: 7, 3: 4, 4: 3}[rank]), repeat=rank)
    if 0 < sum(coeffs) <= {2: 6, 3: 3, 4: 2}[rank]
]


def test_peel_weights_cover_the_reference_sweep():
    assert len(PEEL_WEIGHTS) == 161
    assert ("G", 2, (0, 4)) in PEEL_WEIGHTS


@pytest.mark.parametrize("letter,rank,coeffs", PEEL_WEIGHTS, ids=lambda v: str(v))
def test_short_peel_matches_the_pairwise_reference(letter, rank, coeffs):
    # the same blocks in the same order as the pairwise scan's default tie-break
    rs = root_system(letter, rank)
    lam = rs.weight_of(coeffs)
    assert DC.peel_short_filtration(rs, lam) == _peel_demazure_pairwise(*_short_peel_inputs(rs, lam))


def test_dominance_order():
    # (lam - alpha, m) precedes (lam, m); deeper grading precedes shallower
    lam = CH.hd_key(C2, C2.weight_of((1, 1)))
    below = CH.hd_key(C2, C2.sub(C2.weight_of((1, 1)), C2.simple_root(1)))
    assert H.dominance_leq(C2, below, lam)
    assert not H.dominance_leq(C2, lam, below)
    deeper = lam[:-1] + (lam[-1] + 1,)
    assert H.dominance_leq(C2, deeper, lam)


def test_char_json_sorted():
    ch = Character.monomial((1, 0)).added(Character.monomial((-1, 2), 4))
    blob = CH.char_to_json(ch)
    assert blob == sorted(blob, key=lambda r: tuple(map(str, r["weight"])))


# -- the integer lattice predicates against the Fraction versions they replaced -------

def _in_q_plus_fractions(rs, lam_finite, key_finite):
    diff = [a - b for a, b in zip(lam_finite, key_finite, strict=True)]
    coeffs = H.classical_alpha_expand(rs, (0,) + tuple(diff))
    return all(isinstance(c, int) and c >= 0 for c in coeffs)


def _in_q_plus_short_fractions(rs, lam_finite, key_finite):
    diff = [a - b for a, b in zip(lam_finite, key_finite, strict=True)]
    coeffs = H.classical_alpha_expand(rs, (0,) + tuple(diff))
    for node, c in zip(rs.finite_nodes, coeffs):
        if not isinstance(c, int):
            return False
        if node in rs.short_nodes:
            if c < 0:
                return False
        elif c != 0:
            return False
    return True


def _hd_height_fractions(rs, key):
    return sum(H.classical_alpha_expand(rs, (0,) + tuple(key[:-1]))) - key[-1]


def test_lattice_predicates_match_the_fraction_versions():
    compared = 0
    for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        keys = list(DC.path_side_char(rs, H.level_zero(rs, lam)))
        lam_f = CH.finite_key(rs, lam)
        # each key against lam, against the first and the highest key, both ways
        anchors = [lam_f, keys[0][:-1], max(keys, key=lambda k: _hd_height_fractions(rs, k))[:-1]]
        for key in keys:
            assert CH.hd_height(rs, key) == rs.alpha_den * _hd_height_fractions(rs, key)
            for anchor in anchors:
                for a, b in ((anchor, key[:-1]), (key[:-1], anchor)):
                    assert H.in_q_plus(rs, a, b) == _in_q_plus_fractions(rs, a, b)
                    if not rs.is_simply_laced:
                        assert CH.in_q_plus_short(rs, a, b) == _in_q_plus_short_fractions(rs, a, b)
                    compared += 1
    assert compared > 10_000


def test_lattice_predicates_on_fractional_differences():
    # a difference off the root lattice is in no cone, however it is signed
    zero = (0, 0)
    for rs in (A2, C2, G2):
        half = (Fraction(1, 2), 0)
        cases = [(half, zero, False), (zero, half, False), (half, half, True)]
        if not rs.is_simply_laced:
            # half a short simple root: coefficient 1/2 on its node alone
            short = rs.simple_root(rs.short_nodes[0])[1:3]
            cases += [(tuple(Fraction(c, 2) for c in short), zero, False), (short, zero, True)]
        for a, b, want in cases:
            assert H.in_q_plus(rs, a, b) == _in_q_plus_fractions(rs, a, b) == want
            if not rs.is_simply_laced:
                assert CH.in_q_plus_short(rs, a, b) == _in_q_plus_short_fractions(rs, a, b) == want


# -- input guards, each with its exact message --------------------------------

CHARACTER_GUARDS = [
    ("hd_key", lambda: CH.hd_key(C2, C2.weight_of((1, 0))[:-1]),
     "restriction needs a full affine weight"),
    ("decompose_hd", lambda: CH.decompose_hd(C2, Character({(-1, 0, 0): 1})),
     "maximal key (-1, 0, 0) is not dominant"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in CHARACTER_GUARDS],
                         ids=[g[0] for g in CHARACTER_GUARDS])
def test_characters_reject_bad_input(call, message):
    with pytest.raises(CH.CharacterError) as exc:
        call()
    assert type(exc.value) is CH.CharacterError and str(exc.value) == message
