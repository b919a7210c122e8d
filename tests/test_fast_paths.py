"""Differential tests of the integer fast paths against the code they replaced.

``paths.column`` builds a column and checks its integrality in one pass;
``tests/helpers.py`` keeps the two-pass build-then-check.  The weight layer
holds int tuples and normalizes no entry; the per-entry originals are in
the helpers too, as are the Fraction bridge to the short subsystem that
``characters.transport_short`` replaced and the ``randint`` random-path
generator that ``cli.random_integral_path`` replaced, and the Demazure
operator that added its terms string by string through ``Character.add_term``.
"""

import random
from fractions import Fraction

import pytest

import fraction_paths as R
import helpers as H
from conftest import ALL_TYPES, LARGE_WEIGHTS, sweep_weights, verify_requests
from pathcrystals import characters as CH
from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import paths as P
from pathcrystals.cli import random_integral_path
from pathcrystals.demazure import block_char, demazure_params
from pathcrystals.rootdata import RootDataError, root_system

SEEDS = (0, 1, 7)


def column_outcome(fn, path, i):
    try:
        return "ok", fn(path, i)
    except P.PathError as exc:
        return "raise", str(exc)


def assert_columns_agree(rs, path):
    """The fused and the two-pass column at every node; returns the outcomes."""
    outcomes = []
    for i in rs.nodes:
        got = column_outcome(P.column, path, i)
        assert got == column_outcome(H.two_pass_column, path, i), (path, i)
        outcomes.append(got[0])
    return outcomes


def half_way(weight):
    """The path that runs straight to ``weight`` / 2 by t = 1/2 and stays."""
    return H.make_path([weight, tuple(0 for _ in weight)], [Fraction(1, 2), 1])


def fractional_expression(rs, rng):
    """Int directions and fractional breakpoints of 1 to 4 segments, as the
    Fraction kernel's differential draws them."""
    pool = []
    for _ in range(2):
        w = rs.weight_of([rng.randint(-3, 3) for _ in range(rs.rank)], delta=rng.randint(-1, 1))
        pool += [w, tuple(-c for c in w)]
    count = rng.randint(1, 4)
    dirs = [rng.choice(pool) for _ in range(count)]
    lengths = [rng.randint(0, 5) for _ in range(count)]
    if not any(lengths):
        lengths[-1] = 1
    total = sum(lengths)
    sigmas = [Fraction(sum(lengths[:j + 1]), total) for j in range(count)]
    return dirs, sigmas


# -- one pass per column ---------------------------------------------------

def test_fused_column_matches_two_pass_on_the_sweep_crystals():
    count = 0
    for letter, rank, coeffs in sweep_weights():
        rs = root_system(letter, rank)
        for path in H.level_zero(rs, rs.weight_of(coeffs)).nodes:
            assert set(assert_columns_agree(rs, path)) == {"ok"}
            count += 1
    assert count > 2000


def test_fused_column_matches_two_pass_on_the_selftest_paths():
    for letter, rank in ALL_TYPES:
        rs = root_system(letter, rank)
        for path in H.selftest_paths(rs, 0):
            assert set(assert_columns_agree(rs, path)) == {"ok"}
            for i in rs.nodes:  # and at each operator result
                for op in (P.e_op, P.f_op):
                    out = op(rs, i, path)
                    if out is not None:
                        assert_columns_agree(rs, out)


def test_fused_column_matches_two_pass_on_straight_half_weights():
    # a path that runs straight to a half-weight and stays there ends on a
    # descent to a half-integer at every node the weight pairs oddly and
    # negatively with, and passes where it ascends
    seen = set()
    for letter, rank in ALL_TYPES:
        rs = root_system(letter, rank)
        weights = [rs.varpi(j) for j in rs.finite_nodes] + [rs.simple_root(j) for j in rs.nodes]
        for w in weights + [tuple(-c for c in w) for w in weights]:
            for mu in (w, w[:-1]):
                path = half_way(mu)
                outcomes = assert_columns_agree(rs, path)
                seen.update(outcomes)
                assert H.is_integral(rs, path) == ("raise" not in outcomes)
    assert seen == {"ok", "raise"}


def test_fused_column_matches_two_pass_on_fractional_breakpoints():
    # the integrality verdict also matches the Fraction kernel's
    rng = random.Random(15)
    seen = set()
    for letter, rank in ALL_TYPES:
        rs = root_system(letter, rank)
        for _ in range(60):
            dirs, sigmas = fractional_expression(rs, rng)
            path = H.make_path(dirs, sigmas)
            outcomes = assert_columns_agree(rs, path)
            seen.update(outcomes)
            assert ("raise" not in outcomes) == R.is_integral(rs, R.make_path(dirs, sigmas))
            for i in rs.nodes:
                for op in (P.e_op, P.f_op):
                    try:
                        out = op(rs, i, path)
                    except P.PathError:
                        continue
                    if out is not None:
                        seen.update(assert_columns_agree(rs, out))
    assert seen == {"ok", "raise"}


def test_interior_and_final_minima_both_raise():
    A1 = root_system("A", 1)
    w = A1.varpi(1)
    # H_1 falls to -1/4, then climbs: an interior quarter-integer minimum
    tent = H.make_path([H.scale(-1, w), w], [Fraction(1, 4), 1])
    # H_1 climbs to 1/2, then falls to 0 and on to -1/2: the minimum is the end
    fall = H.make_path([w, H.scale(-2, w)], [Fraction(1, 2), 1])
    for path in (tent, fall):
        assert column_outcome(P.column, path, 1) == (
            "raise", "path is not integral along node 1")
        assert column_outcome(H.two_pass_column, path, 1)[0] == "raise"


def test_a_closure_seed_that_is_not_integral_raises():
    A1 = root_system("A", 1)
    with pytest.raises(P.PathError, match="not integral"):
        C._closure(A1, half_way(A1.varpi(1)), C.NODE_CAP)


# -- weights: int tuples only ----------------------------------------------

def weight_samples():
    """Int weights of length 4, and the empty weight."""
    return [(0, 0, 0, 0), (1, -2, 3, 0), (-5, 7, 0, 2), (4, -6, 1, 9), ()]


def assert_same_weight(got, want):
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want], (got, want)


def test_add_and_sub_match_per_entry():
    A2 = root_system("A", 2)
    samples = weight_samples()
    for x in samples:
        for y in samples:
            if len(x) == len(y):
                assert_same_weight(A2.add(x, y), H.per_entry_add(x, y))
                assert_same_weight(A2.sub(x, y), H.per_entry_sub(x, y))


def endpoint_samples():
    A2 = root_system("A", 2)
    out = [P.straight(x) for x in weight_samples() if x]
    # fractional breakpoints whose sums are integral, and ones whose sums are not
    odd = (1, -1, 0, 3)
    other = (3, 1, 2, -1)
    out.append(H.make_path([odd, other], [Fraction(1, 2), 1]))
    out.append(H.make_path([odd, other], [Fraction(1, 3), 1]))
    out.append(H.make_path([(1, 0, 0, 0), (0, 1, 0, 0)], [Fraction(1, 3), 1]))
    out += H.selftest_paths(A2, 0, 50)
    for letter, rank, coeffs in LARGE_WEIGHTS:
        rs = root_system(letter, rank)
        out += H.level_zero(rs, rs.weight_of(coeffs)).nodes[:300]
    return out


def test_endpoint_matches_per_entry():
    # an endpoint is the per-entry one where that is integral, else PathError
    outcomes = set()
    for path in endpoint_samples():
        want = H.per_entry_endpoint(path)
        if {type(v) for v in want} == {int}:
            assert_same_weight(path.endpoint(), want)
            outcomes.add("ok")
        else:
            with pytest.raises(P.PathError, match="endpoint is not integral"):
                path.endpoint()
            outcomes.add("raise")
    assert outcomes == {"ok", "raise"}


def test_add_and_sub_name_both_lengths():
    A2 = root_system("A", 2)
    for op in (A2.add, A2.sub):
        with pytest.raises(RootDataError, match="lengths 4 and 3"):
            op(H.zero(A2), H.zero(A2, cl=True))


# -- moving short keys to the full lattice ---------------------------------

def short_block_keys(rs, lam):
    """Every key of the level-one short block of lam and of each level-r
    block its peel strips."""
    sh = rs.short_system()
    keys = list(block_char(sh, 1, DC.lam_bar_coeffs(rs, lam), 0, C.NODE_CAP))
    for nu, m, _ in DC.peel_short_filtration(rs, lam):
        keys += block_char(sh, rs.r, nu, m, C.NODE_CAP)
    return keys


def fraction_height(rs, key):
    return sum(H.classical_alpha_expand(rs, (0,) + tuple(key[:-1]))) - key[-1]


def test_transport_short_matches_the_fraction_bridge():
    cases = [case for case in sweep_weights() if case[0] in "BCGF"]
    cases += [("G", 2, (0, 3)), ("F", 4, (1, 0, 0, 1)), ("B", 3, (2, 0, 2))]
    compared = 0
    for letter, rank, coeffs in cases:
        rs = root_system(letter, rank)
        sh = rs.short_system()
        lam = rs.weight_of(coeffs)
        shift = CH.hd_key(rs, H.lam_prime(rs, lam))
        for key in short_block_keys(rs, lam):
            got = CH.transport_short(rs, lam, key)
            assert_same_weight(got, H.per_entry_add(H.i_sh_hd(rs, key), shift))
            assert CH.hd_height(sh, key) == sh.alpha_den * fraction_height(sh, key)
            assert CH.hd_height(rs, got) == rs.alpha_den * fraction_height(rs, got)
            compared += 1
    assert compared == 290


def test_transport_short_rejects_a_key_off_the_short_coset(nsl_rs):
    sh = nsl_rs.short_system()
    lam = nsl_rs.weight_of((1,) * nsl_rs.rank)
    top = DC.lam_bar_coeffs(nsl_rs, lam) + (0,)
    # lam_bar - alpha_1 lies on the coset and lands on lam minus its namesake
    on = tuple(a - b for a, b in zip(top, sh.simple_root(1)[1:]))
    below = nsl_rs.sub(lam, nsl_rs.simple_root(nsl_rs.short_nodes[0]))
    assert CH.transport_short(nsl_rs, lam, on) == CH.hd_key(nsl_rs, below)
    # lam_bar + varpi_1 does not: no short system's root lattice holds varpi_1
    off = (top[0] + 1,) + top[1:]
    with pytest.raises(CH.CharacterError) as exc:
        CH.transport_short(nsl_rs, lam, off)
    assert str(exc.value) == f"short key {off} is not lam_bar minus a short root-lattice element"


# -- the random-path generator ---------------------------------------------

def test_randrange_generator_draws_the_same_paths_as_randint():
    for seed in SEEDS:
        for letter, rank in ALL_TYPES:
            rs = root_system(letter, rank)
            new = random.Random(seed)
            old = random.Random(seed)
            for _ in range(200):
                got = random_integral_path(rs, new)
                want = H.randint_integral_path(rs, old)
                assert (got.dirs, got.ts) == (want.dirs, want.ts)
            assert new.random() == old.random()  # the streams end level


# -- the Demazure operator -------------------------------------------------

def assert_operator_matches_reference(rs, word, ch):
    got = CH.demazure_operator(rs, word, ch)
    assert type(got) is CH.Character and all(got.values())
    assert got == H.demazure_operator_reference(rs, word, ch), (rs, word, ch)
    return got


def test_demazure_operator_matches_the_reference_on_verify_requests():
    finite, blocks = verify_requests()
    assert (len(finite), len(blocks)) == (119, 150)
    for rs, mu in finite:
        x = rs.weight_of(mu)
        word = rs.antidominantize_finite(x)[1]
        assert_operator_matches_reference(rs, word, CH.Character.monomial(x))
    for rs, level, mu, m in blocks:
        spec = demazure_params(rs, level, mu, m)
        assert_operator_matches_reference(rs, spec.word, CH.Character.monomial(spec.Lambda))


@pytest.mark.parametrize("pairing", [-3, -2, -1, 0, 1, 3])
def test_demazure_operator_matches_the_reference_on_single_letters(pairing):
    # D_i e^x has mass <x, alpha_i^vee> + 1: the string down to s_i(x), the
    # empty string at -1, and below it the strict interior up to s_i(x), negated
    for letter, rank in ALL_TYPES:
        rs = root_system(letter, rank)
        for i in rs.nodes:
            x = tuple(pairing if j == i else j - 1 for j in range(rank + 2))
            got = assert_operator_matches_reference(rs, (i,), CH.Character.monomial(x, 2))
            assert got.mass() == 2 * (pairing + 1)
            up = rs.add(x, rs.simple_root(i))
            # at -2 the interior of x is -e^{x + alpha_i}, which D_i e^{x + alpha_i} cancels
            both = assert_operator_matches_reference(rs, (i,), CH.Character({x: 1, up: 1}))
            assert both.mass() == 2 * pairing + 4 and (both == {}) == (pairing == -2)
