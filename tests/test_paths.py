import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import helpers as H
from pathcrystals import paths as P
from pathcrystals.cli import random_integral_path
from pathcrystals.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


# -- canonical form ---------------------------------------------------------

def test_canonical_form_merges_and_drops():
    w = A1.varpi(1)
    p = H.make_path([w, w, H.zero(A1), H.zero(A1)], [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1])
    assert p.dirs == (w, H.zero(A1))
    assert H.sigmas(p) == (Fraction(1, 2), Fraction(1))


def test_a_path_stores_only_its_expression():
    # the operators compute the one column they read; nothing else is kept
    assert P.Path.__slots__ == ("dirs", "ts")
    assert not hasattr(P.straight(A1.varpi(1)), "__dict__")


def test_path_equality_is_canonical():
    w = A1.varpi(1)
    a = H.make_path([w, w], [Fraction(1, 3), 1])
    assert a == P.straight(w)
    assert hash(a) == hash(P.straight(w))


# -- profiles ---------------------------------------------------------------

def test_profile_straight_line():
    lam = A2.weight_of((2, 1))
    p = P.straight(lam)
    for i in A2.nodes:
        prof = H.h_profile(A2, p, i)
        assert prof[0] == (0, 0) and prof[-1] == (1, lam[i])
        assert H.min_h(A2, p, i) == min(0, lam[i])


def test_profile_tent():
    # straight to varpi, then its reflection: pairing rises to 1 and returns
    p = P.concat(P.straight(A1.varpi(1)), P.straight(A1.reflect(1, A1.varpi(1))))
    prof = H.h_profile(A1, p, 1)
    assert prof == [(0, 0), (Fraction(1, 2), 1), (1, 0)]
    assert H.min_h(A1, p, 1) == 0


def test_is_integral_basic():
    w = A1.varpi(1)
    assert H.is_integral(A1, P.straight(w))
    # H_1 falls to -1/4 before it climbs
    assert not H.is_integral(A1, H.make_path([H.scale(-1, w), w], [Fraction(1, 4), 1]))


def test_integrality_closed_under_operators():
    rng = random.Random(7)
    for _ in range(60):
        rs = rng.choice([A1, A2, C2])
        path = random_integral_path(rs, rng)
        assert H.is_integral(rs, path)


def test_integral_directions_keep_integer_numerators():
    # times, vertex numerators and operator results stay ints, so the
    # kernel does no Fraction arithmetic on integral directions
    rng = random.Random(11)
    for _ in range(60):
        rs = rng.choice([A2, C2, G2])
        path = random_integral_path(rs, rng)
        for out in [path] + [op(rs, i, path) for i in rs.nodes for op in (P.e_op, P.f_op)]:
            if out is not None:
                assert all(type(t) is int for t in out.ts)
                assert all(type(c) is int for mu in out.dirs for c in mu)
                assert all(type(v) is int for col in H.kernel_columns(out) for v in col)


def test_non_integral_input_raises():
    # int directions, but H_0 falls to -1/2 at t = 1/2 and stays there
    w = A1.varpi(1)
    path = H.make_path([w, H.zero(A1)], [Fraction(1, 2), 1])
    with pytest.raises(P.PathError, match="not integral along node 0"):
        P.e_op(A1, 0, path)


@pytest.mark.parametrize("weight", [
    (Fraction(1, 2), Fraction(-1, 2), 0), (Fraction(2, 1), 0, 0), (1.0, -1, 0)])
def test_straight_and_shift_take_int_entries_only(weight):
    with pytest.raises(P.PathError, match="int entries"):
        P.straight(weight)
    with pytest.raises(P.PathError, match="int entries"):
        P.shift(P.straight(A1.varpi(1)), weight)


# -- root operators ----------------------------------------------------------

def test_raising_blocked_at_dominant():
    assert P.e_op(A1, 1, P.straight(A1.varpi(1))) is None


def test_affine_raising_reflects_whole_path():
    out = P.e_op(A1, 0, P.straight(A1.varpi(1)))
    expected = P.straight(A1.add(H.scale(-1, A1.varpi(1)), H.delta(A1)))
    assert out == expected


def test_lowering_a1():
    w = A1.varpi(1)
    out = P.f_op(A1, 1, P.straight(w))
    assert out == P.straight(H.scale(-1, w))
    assert P.f_op(A1, 1, out) is None


def test_inverse_pairs_random():
    rng = random.Random(13)
    for _ in range(80):
        rs = rng.choice([A2, C2, G2])
        path = random_integral_path(rs, rng)
        for i in rs.nodes:
            down = P.f_op(rs, i, path)
            if down is not None:
                assert P.e_op(rs, i, down) == path
            up = P.e_op(rs, i, path)
            if up is not None:
                assert P.f_op(rs, i, up) == path


def test_weight_shift_by_simple_root():
    rng = random.Random(17)
    for _ in range(40):
        rs = rng.choice([A2, C2])
        path = random_integral_path(rs, rng)
        wt = path.endpoint()
        for i in rs.nodes:
            up = P.e_op(rs, i, path)
            if up is not None:
                assert up.endpoint() == rs.add(wt, rs.simple_root(i))


def test_eps_phi_statistics():
    p = P.straight(A1.varpi(1))
    assert P.eps_phi(A1, 1, p) == (0, 1)
    assert P.eps_phi(A1, 0, p) == (1, 0)


def test_eps_phi_count_applications():
    rng = random.Random(19)
    for _ in range(30):
        rs = rng.choice([A2, C2])
        path = random_integral_path(rs, rng)
        for i in rs.nodes:
            eps, phi = P.eps_phi(rs, i, path)
            k = 0
            cur = path
            while True:
                cur = P.e_op(rs, i, cur)
                if cur is None:
                    break
                k += 1
            assert k == eps
            assert phi - eps == path.endpoint()[i]


# -- concatenation ------------------------------------------------------------

def test_concat_endpoint_additivity():
    rng = random.Random(23)
    for _ in range(20):
        rs = rng.choice([A2, G2])
        p1 = random_integral_path(rs, rng)
        p2 = random_integral_path(rs, rng)
        assert P.concat(p1, p2).endpoint() == rs.add(p1.endpoint(), p2.endpoint())


def test_concat_weight_associativity():
    rng = random.Random(29)
    p1, p2, p3 = (random_integral_path(A2, rng) for _ in range(3))
    left = P.concat(P.concat(p1, p2), p3)
    right = P.concat(p1, P.concat(p2, p3))
    assert left.endpoint() == right.endpoint()


def _reference_concat(p1, p2):
    """Both factors at double speed over the lcm of their scales, then the
    two-pass canonical form."""
    scale = lcm(p1.ts[-1], p2.ts[-1])
    dirs = [tuple(2 * c for c in mu) for mu in p1.dirs + p2.dirs]
    ts = [t * (scale // p1.ts[-1]) for t in p1.ts]
    ts += [scale + t * (scale // p2.ts[-1]) for t in p2.ts]
    return H.two_pass_canonical(dirs, ts)


def _starting_with(mu, path):
    """A straight stretch in direction ``mu`` on [0, 1/2], then ``path``."""
    s = path.ts[-1]
    return H.two_pass_canonical((mu,) + path.dirs, (s,) + tuple(s + t for t in path.ts))


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 3),
                                         ("D", 4), ("G", 2), ("F", 4)])
def test_concat_matches_two_pass_canonical(letter, rank):
    # half the pairs share the junction direction, so the merge is exercised;
    # a straight first factor merged into the second often leaves a common
    # factor in the times, so their reduction is exercised too
    rs = root_system(letter, rank)
    rng = random.Random(f"concat {letter}{rank}")
    merges = 0
    for k in range(3000):
        p1 = random_integral_path(rs, rng)
        p2 = random_integral_path(rs, rng)
        if k % 4 == 0:
            p2 = _starting_with(p1.dirs[-1], p2)
        elif k % 4 == 1:
            p1 = P.straight(p2.dirs[0])
        got = P.concat(p1, p2)
        want = _reference_concat(p1, p2)
        assert (got.dirs, got.ts) == (want.dirs, want.ts)
        merges += p1.dirs[-1] == p2.dirs[0]
    assert merges >= 1000


def tensor_rule_prediction(rs, i, p1, p2, lowering):
    """Which factor the operator hits, by the statistics comparison."""
    phi1 = P.eps_phi(rs, i, p1)[1]
    eps2 = P.eps_phi(rs, i, p2)[0]
    if lowering:
        return "left" if phi1 > eps2 else "right"
    return "left" if phi1 >= eps2 else "right"


def test_tensor_rule():
    rng = random.Random(31)
    for _ in range(60):
        rs = rng.choice([A2, C2, G2])
        p1 = random_integral_path(rs, rng)
        p2 = random_integral_path(rs, rng)
        both = P.concat(p1, p2)
        for i in rs.nodes:
            up = P.e_op(rs, i, both)
            if up is not None:
                if tensor_rule_prediction(rs, i, p1, p2, lowering=False) == "left":
                    assert up == P.concat(P.e_op(rs, i, p1), p2)
                else:
                    assert up == P.concat(p1, P.e_op(rs, i, p2))
            down = P.f_op(rs, i, both)
            if down is not None:
                if tensor_rule_prediction(rs, i, p1, p2, lowering=True) == "left":
                    assert down == P.concat(P.f_op(rs, i, p1), p2)
                else:
                    assert down == P.concat(p1, P.f_op(rs, i, p2))


# -- crystal reflections -------------------------------------------------------

def test_s_op_involution():
    rng = random.Random(37)
    for _ in range(30):
        rs = rng.choice([A2, C2])
        path = random_integral_path(rs, rng)
        for i in rs.nodes:
            assert H.s_op(rs, i, H.s_op(rs, i, path)) == path


def test_s_op_monotone_profile_is_pointwise_reflection():
    lam = C2.weight_of((1, 1))
    p = P.straight(lam)
    for i in C2.nodes:
        out = H.s_op(C2, i, p)
        assert out == P.straight(C2.reflect(i, lam))


@pytest.mark.parametrize(
    "rs,braid",
    [(A2, 3), (C2, 4), (G2, 6)],
    ids=["A2", "C2", "G2"],
)
def test_braid_relations_on_straight_paths(rs, braid):
    lam = rs.weight_of((1, 2))
    p = P.straight(lam)
    w1 = tuple(1 if k % 2 == 0 else 2 for k in range(braid))
    w2 = tuple(2 if k % 2 == 0 else 1 for k in range(braid))
    assert H.weyl_act(rs, w1, p) == H.weyl_act(rs, w2, p)


def test_raising_fixes_high_initial_stretch():
    # wherever the profile stays above min+1, the raised path is unchanged
    rng = random.Random(41)
    for _ in range(40):
        rs = rng.choice([A2, C2])
        path = random_integral_path(rs, rng)
        for i in rs.nodes:
            up = P.e_op(rs, i, path)
            if up is None:
                continue
            m = H.min_h(rs, path, i)
            prof = H.h_profile(rs, path, i)
            hold = Fraction(0)
            for (t0, v0), (t1, v1) in zip(prof, prof[1:]):
                if v0 >= m + 1 and v1 >= m + 1:
                    hold = t1
                else:
                    break
            for k in range(5):
                t = hold * k / 4
                assert H.value(up, t) == H.value(path, t)


def test_raising_with_flat_minimum_stretch():
    # profile 0 -> -1, flat at -1, back to 0: raise reflects only the descent
    w3 = H.scale(3, A1.varpi(1))
    p = H.make_path(
        [H.scale(-1, w3), H.zero(A1), w3],
        [Fraction(1, 3), Fraction(2, 3), 1],
    )
    assert H.min_h(A1, p, 1) == -1
    out = P.e_op(A1, 1, p)
    assert out == H.make_path([w3, H.zero(A1), w3], [Fraction(1, 3), Fraction(2, 3), 1])
    assert out.endpoint() == A1.add(p.endpoint(), A1.simple_root(1))


def test_lowering_with_flat_minimum_stretch():
    # same tent: lowering reflects the final ascent, landing one level lower
    w3 = H.scale(3, A1.varpi(1))
    p = H.make_path(
        [H.scale(-1, w3), H.zero(A1), w3],
        [Fraction(1, 3), Fraction(2, 3), 1],
    )
    out = P.f_op(A1, 1, p)
    # descent kept, flat kept, ascent reflected until the crossing at 8/9
    assert out is not None
    assert out.endpoint() == A1.sub(p.endpoint(), A1.simple_root(1))
    assert P.e_op(A1, 1, out) == p


def test_interior_crossing_is_exact():
    # steep descent crosses level m+1 strictly inside a segment: the raise
    # must cut at the exact rational crossing time t = 1/4
    w = H.scale(2, A1.varpi(1))
    p = H.make_path([H.scale(-2, w), w], [Fraction(1, 2), 1])
    assert H.min_h(A1, p, 1) == -2
    out = P.e_op(A1, 1, p)
    expected = H.make_path(
        [H.scale(-2, w), H.scale(2, w), w],
        [Fraction(1, 4), Fraction(1, 2), 1],
    )
    assert out == expected
    assert out.endpoint() == A1.add(p.endpoint(), A1.simple_root(1))
    assert P.f_op(A1, 1, out) == p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operator_axioms_hypothesis(data):
    rs = root_system(*data.draw(st.sampled_from([("A", 1), ("A", 2), ("C", 2)])))
    segs = data.draw(st.integers(1, 3))
    dirs = [
        rs.weight_of(
            data.draw(st.tuples(*[st.integers(-2, 2) for _ in range(rs.rank)])),
            delta=data.draw(st.integers(-1, 1)),
        )
        for _ in range(segs)
    ]
    path = P.straight(dirs[0])
    for d in dirs[1:]:
        path = P.concat(path, P.straight(d))
    i = data.draw(st.sampled_from(list(rs.nodes)))
    eps, phi = P.eps_phi(rs, i, path)
    assert phi - eps == path.endpoint()[i]
    up = P.e_op(rs, i, path)
    assert (up is None) == (eps == 0)
    if up is not None:
        assert P.f_op(rs, i, up) == path
        assert H.is_integral(rs, up)


# -- input guards, each with its exact message --------------------------------

def test_concat_rejects_paths_on_different_lattices():
    lam = C2.weight_of((1, 0))
    with pytest.raises(P.PathError) as exc:
        P.concat(P.straight(lam), P.straight(lam[:-1]))
    assert type(exc.value) is P.PathError
    assert str(exc.value) == "concatenation needs a common lattice"
