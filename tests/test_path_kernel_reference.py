"""Differential test: the integer-time path kernel against the Fraction kernel.

``fraction_paths`` is the kernel with Fraction breakpoints that
``pathcrystals.paths`` replaced.  Both kernels run the same random
expressions of int directions, including fractional breakpoints where the
path is not integral and steep segments whose level crossings fall strictly
between breakpoints, and every result is compared through ``dirs`` and
``sigmas``, including which calls raise ``PathError``.  Where the reference
endpoint is a Fraction weight, ``Path.endpoint`` raises.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import fraction_paths as R
import helpers as H
from conftest import ALL_TYPES
from pathcrystals import paths as P
from pathcrystals.rootdata import root_system


def same_path(new, ref):
    if new is None or ref is None:
        return new is None and ref is None
    return new.dirs == ref.dirs and H.sigmas(new) == ref.sigmas


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (P.PathError, R.PathError) as exc:
        return "raise", str(exc)


def assert_same_outcome(new, ref, compare=lambda a, b: a == b):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "raise":
        assert new[1] == ref[1]
    else:
        assert compare(new[1], ref[1]), (new, ref)


def endpoint_outcome(want):
    """The outcome of ``Path.endpoint`` where the Fraction division gives ``want``."""
    if all(type(v) is int for v in want):
        return "ok", want
    return "raise", "path endpoint is not integral"


def assert_canonical(path):
    ts = path.ts
    assert all(a < b for a, b in zip((0,) + ts, ts))
    assert gcd(*ts) == 1
    assert all(type(c) is int for mu in path.dirs for c in mu)
    columns = H.vertex_columns(path)
    assert H.kernel_columns(path) == columns
    want = tuple(H._over(col[-1], ts[-1]) for col in columns)
    assert outcome(path.endpoint) == endpoint_outcome(want)


@st.composite
def expressions(draw, rs):
    """Int directions and fractional breakpoints of a random expression of
    1 to 4 segments."""
    count = draw(st.integers(1, 4))
    # segments reuse two weights and their negatives, so profiles often
    # repeat a level (several minima, flat stretches, tents)
    pool = []
    for _ in range(2):
        coeffs = draw(st.tuples(*[st.integers(-3, 3) for _ in range(rs.rank)]))
        w = rs.weight_of(coeffs, delta=draw(st.integers(-1, 1)))
        pool += [w, tuple(-c for c in w)]
    dirs = [draw(st.sampled_from(pool)) for _ in range(count)]
    lengths = draw(st.lists(st.integers(0, 5), min_size=count, max_size=count))
    if not any(lengths):
        lengths[-1] = 1
    total = sum(lengths)
    sigmas = [Fraction(sum(lengths[: k + 1]), total) for k in range(count)]
    return dirs, sigmas


def compare_at(rs, new, ref):
    """Every kernel statistic and operator at one path, for every node."""
    assert same_path(new, ref)
    assert_canonical(new)
    assert H.is_integral(rs, new) == R.is_integral(rs, ref)
    assert outcome(new.endpoint) == endpoint_outcome(ref.endpoint())
    for i in rs.nodes:
        assert H.h_profile(rs, new, i) == R.h_profile(rs, ref, i)
        assert H.min_h(rs, new, i) == R.min_h(rs, ref, i)
        assert_same_outcome(outcome(P.eps_phi, rs, i, new), outcome(R.eps_phi, rs, i, ref))
        for op_new, op_ref in ((P.e_op, R.e_op), (P.f_op, R.f_op)):
            got = outcome(op_new, rs, i, new)
            assert_same_outcome(got, outcome(op_ref, rs, i, ref), same_path)
            if got[0] == "ok" and got[1] is not None:
                assert_canonical(got[1])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_reference(data):
    rs = root_system(*data.draw(st.sampled_from(ALL_TYPES)))
    dirs, sigmas = data.draw(expressions(rs))
    new = H.make_path(dirs, sigmas)
    ref = R.make_path(dirs, sigmas)
    compare_at(rs, new, ref)

    # walk both kernels along the same operator sequence
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.sampled_from(list(rs.nodes)))
        lower = data.draw(st.booleans())
        got = outcome(P.f_op if lower else P.e_op, rs, i, new)
        want = outcome(R.f_op if lower else R.e_op, rs, i, ref)
        assert_same_outcome(got, want, same_path)
        if got[0] == "ok" and got[1] is not None:
            new, ref = got[1], want[1]
            compare_at(rs, new, ref)

    dirs2, sigmas2 = data.draw(expressions(rs))
    other_new = H.make_path(dirs2, sigmas2)
    other_ref = R.make_path(dirs2, sigmas2)
    both = P.concat(new, other_new)
    assert same_path(both, R.concat(ref, other_ref))
    compare_at(rs, both, R.concat(ref, other_ref))

    weight = rs.weight_of(
        data.draw(st.tuples(*[st.integers(-2, 2) for _ in range(rs.rank)])),
        delta=data.draw(st.integers(-2, 2)),
    )
    assert same_path(P.shift(new, weight), R.shift(ref, weight))
    assert same_path(H.cl_path(rs, new), R.cl_path(rs, ref))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_make_path_errors_match_fraction_reference(data):
    rs = root_system(*data.draw(st.sampled_from(ALL_TYPES)))
    count = data.draw(st.integers(1, 3))
    dirs = [rs.weight_of((0,) * rs.rank, delta=k) for k in range(count)]
    sigmas = data.draw(st.lists(
        st.fractions(min_value=-1, max_value=2, max_denominator=6),
        min_size=count, max_size=count,
    ))
    assert_same_outcome(
        outcome(H.make_path, dirs, sigmas), outcome(R.make_path, dirs, sigmas), same_path
    )
