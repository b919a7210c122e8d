import hashlib
import json
import random
from collections import Counter

import pytest

import helpers as H
from conftest import (
    EXPORT_WEIGHTS,
    LARGE_WEIGHTS,
    affine_orbit_bounded,
    finite_path_crystal,
    sweep_weights,
    two_call_closure,
)
from pathcrystals import cli
from pathcrystals import crystals as C
from pathcrystals import demazure as DZ
from pathcrystals import paths as P
from pathcrystals.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


def test_zero_path_is_fixed():
    g = C._closure(A2, P.straight(H.zero(A2)), C.NODE_CAP)
    assert len(g) == 1


def test_a1_projected_fundamental_has_two_nodes():
    seed = P.straight(A1.varpi(1)[:-1])
    g = C._closure(A1, seed, C.NODE_CAP)
    assert len(g) == 2


@pytest.mark.parametrize(
    "letter,rank,mu",
    [
        ("A", 1, (1,)), ("A", 1, (3,)),
        ("A", 2, (1, 1)), ("A", 2, (2, 1)),
        ("C", 2, (1, 0)), ("C", 2, (0, 1)), ("C", 2, (1, 1)),
        ("G", 2, (1, 0)), ("G", 2, (0, 1)),
        ("B", 3, (0, 0, 1)), ("A", 3, (0, 1, 0)),
    ],
)
def test_finite_closure_counts_weyl_dimension(letter, rank, mu):
    rs = root_system(letter, rank)
    assert len(finite_path_crystal(rs, mu)) == rs.weyl_dimension(mu)


def test_cap_exceeded_signals():
    with pytest.raises(C.GenerationError):
        finite_path_crystal(G2, (1, 1), cap=10)


def test_unnormalized_level_zero_blows_past_cap():
    # without anchoring, the closure keeps absorbing null-root shifts
    with pytest.raises(C.GenerationError):
        C._closure(A1, P.straight(A1.varpi(1)), 50)


# -- anchored level-zero generation ------------------------------------------

def test_level_zero_a1_fundamental():
    g = C.generate_level_zero(A1, A1.varpi(1))
    assert len(g) == 2
    assert all(-H.full_weight(g, k)[-1] == 0 for k in range(len(g)))
    assert sorted(H.full_weight(g, k) for k in range(len(g))) == sorted(
        [A1.varpi(1), H.scale(-1, A1.varpi(1))]
    )


def test_level_zero_matches_projected_closure():
    for rs, lam in [(A1, A1.weight_of((2,))), (C2, C2.weight_of((1, 0))), (A2, A2.weight_of((1, 1)))]:
        anchored = C.generate_level_zero(rs, lam)
        projected = C._closure(rs, P.straight(lam[:-1]), C.NODE_CAP)
        assert len(anchored) == len(projected)
        assert {H.cl_path(rs, p) for p in anchored.nodes} == set(projected.nodes)


def test_level_zero_trivial_weight():
    g = C.generate_level_zero(A2, H.zero(A2))
    assert len(g) == 1


def test_d_lambda_values():
    assert C.d_lambda(A1, A1.weight_of((1,))) == 1
    assert C.d_lambda(A1, A1.weight_of((2,))) == 2
    assert C.d_lambda(A2, A2.weight_of((1, 1))) == 1
    assert C.d_lambda(C2, C2.weight_of((2, 2))) == 2
    with pytest.raises(ValueError):
        C.d_lambda(A1, H.zero(A1))


def test_d_lambda_against_affine_orbit():
    # the declared generator appears as an offset and no smaller one does
    lam = A1.weight_of((2,))
    d = C.d_lambda(A1, lam)
    offsets = {
        abs(w[-1])
        for w in affine_orbit_bounded(A1, lam, 12)
        if w[:-1] == lam[:-1] and w[-1] != 0
    }
    assert min(offsets) == d


def test_degrees_nonpositive_and_zero_at_seed():
    for rs, coeffs in [(A1, (2,)), (C2, (1, 1)), (G2, (0, 1))]:
        lam = rs.weight_of(coeffs)
        g = C.generate_level_zero(rs, lam)
        assert g.nodes[0] == P.straight(lam)
        assert -H.full_weight(g, 0)[-1] == 0
        assert all(-H.full_weight(g, k)[-1] <= 0 for k in range(len(g)))


def test_weight_confinement():
    from pathcrystals.characters import finite_key

    for rs, coeffs in [(A2, (1, 1)), (C2, (2, 0))]:
        lam = rs.weight_of(coeffs)
        g = C.generate_level_zero(rs, lam)
        lam_f = finite_key(rs, lam)
        for path in g.nodes:
            assert H.in_q_plus(rs, lam_f, finite_key(rs, path.endpoint()))


def test_anchored_initial_directions():
    for rs, coeffs in [(A1, (2,)), (C2, (1, 1))]:
        lam = rs.weight_of(coeffs)
        g = C.generate_level_zero(rs, lam)
        for path in g.nodes:
            assert path.dirs[0][-1] == 0


def test_tensor_size_multiplicativity():
    for rs, coeffs in [(A2, (2, 1)), (C2, (1, 1)), (G2, (1, 1))]:
        lam = rs.weight_of(coeffs)
        total = len(C.generate_level_zero(rs, lam))
        prod = 1
        for i in rs.finite_nodes:
            prod *= len(C.generate_level_zero(rs, rs.varpi(i))) ** lam[i]
        assert total == prod


def test_compatible_lift_check():
    exercised = 0
    for rs, coeffs in [(A2, (1, 1)), (C2, (1, 0)), (C2, (0, 1)), (G2, (0, 1)), (C2, (1, 1))]:
        g = C.generate_level_zero(rs, rs.weight_of(coeffs))
        assert H.compatible_lift_check(g) == []
        exercised += sum(
            1 for pos in range(len(g)) if g.e_edges[pos][0] and g.f_edges[pos][0]
        )
    assert exercised > 0  # the affine branch of the check is not vacuous


def test_compatible_lift_check_vacuous_for_zero():
    g = C.generate_level_zero(A2, H.zero(A2))
    assert H.compatible_lift_check(g) == []


def test_classically_highest_seed():
    g = C.generate_level_zero(C2, C2.weight_of((1, 1)))
    highest = C.classically_highest(g)
    assert 0 in highest  # the straight seed admits no finite raising


def _classically_highest_by_eps(graph):
    """The classically highest positions, read from the path statistics."""
    rs = graph.rs
    return [
        pos for pos, path in enumerate(graph.nodes)
        if all(P.eps_phi(rs, i, path)[0] == 0 for i in rs.finite_nodes)
    ]


def test_classically_highest_matches_path_statistics(any_rs):
    weights = [any_rs.varpi(i) for i in any_rs.finite_nodes]
    weights += [
        any_rs.weight_of(coeffs)
        for letter, rank, coeffs in [("F", 4, (0, 0, 0, 2)), ("B", 4, (0, 0, 0, 2)), ("G", 2, (0, 3))]
        if (letter, rank) == (any_rs.letter, any_rs.rank)
    ]
    for lam in weights:
        graph = H.level_zero(any_rs, lam)
        assert C.classically_highest(graph) == _classically_highest_by_eps(graph)


def test_exports():
    g = C.generate_level_zero(A1, A1.varpi(1))
    payload = json.loads(H.written_json(g)[0])
    assert len(payload["nodes"]) == 2
    assert all(rec["degree"] == 0 for rec in payload["nodes"])
    dot = C.graph_to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == sum(edge is not None for row in g.f_edges for edge in row)


# -- the closure against the two-call loop it replaced ---------------------------

def test_closure_shares_one_tuple_per_direction():
    # the nodes of a closure hold one object for each distinct direction
    for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS + EXPORT_WEIGHTS:
        rs = root_system(letter, rank)
        g = H.level_zero(rs, rs.weight_of(coeffs))
        dirs = [mu for p in g.nodes for mu in p.dirs]
        assert len({id(mu) for mu in dirs}) == len(set(dirs)), f"{letter}{rank} {coeffs}"


def _closure_weights():
    return sweep_weights() + LARGE_WEIGHTS + EXPORT_WEIGHTS


def _assert_same_graph(got, want):
    assert got.nodes == want.nodes
    assert len(set(got.nodes)) == len(got.nodes)  # one position per path
    assert got.f_edges == want.f_edges
    assert got.e_edges == want.e_edges


def _reference_closure(rs, seed, cap, normalizer=None):
    """The reference with the one-seed, every-node signature of ``_closure``."""
    return two_call_closure(rs, seed, rs.nodes, cap, normalizer)


def test_closure_matches_two_call_reference(monkeypatch):
    weights = _closure_weights()
    assert len(weights) == 107
    for letter, rank, coeffs in weights:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        got = C.generate_level_zero(rs, lam)
        with monkeypatch.context() as m:
            m.setattr(C, "_closure", _reference_closure)
            want = C.generate_level_zero(rs, lam)
        _assert_same_graph(got, want)
        if len(got) <= 100:
            seed = P.straight(lam[:-1])
            _assert_same_graph(C._closure(rs, seed, C.NODE_CAP),
                               _reference_closure(rs, seed, C.NODE_CAP))


@pytest.mark.parametrize("letter,rank,coeffs", [("C", 2, (1, 1)), ("G", 2, (0, 2))])
def test_closure_trips_the_cap_where_the_reference_does(monkeypatch, letter, rank, coeffs):
    rs = root_system(letter, rank)
    lam = rs.weight_of(coeffs)
    size = len(C.generate_level_zero(rs, lam))
    for cap in (size - 1, size):
        outcomes = []
        for closure in (C._closure, _reference_closure):
            with monkeypatch.context() as m:
                m.setattr(C, "_closure", closure)
                try:
                    outcomes.append(len(C.generate_level_zero(rs, lam, cap)))
                except C.GenerationError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    assert outcomes[0] == size


def test_closure_finds_each_edge_once(monkeypatch):
    calls = []

    def counted(name):
        op = getattr(P, name)

        def call(rs, i, path, col=None):
            out = op(rs, i, path, col)
            if out is not None:
                calls.append((name, path, i))
            return out
        return call

    for letter, rank, coeffs in _closure_weights():
        rs = root_system(letter, rank)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(P, "f_op", counted("f_op"))
            m.setattr(P, "e_op", counted("e_op"))
            graph = C.generate_level_zero(rs, rs.weight_of(coeffs))
        # name every result by the f-edge it found: (source, node)
        index = {path: pos for pos, path in enumerate(graph.nodes)}
        found = []
        for name, path, i in calls:
            pos = index[path]
            found.append((pos, i) if name == "f_op" else (graph.e_edges[pos][i][0], i))
        assert len(found) == len(set(found))
        assert set(found) == {(pos, i) for pos, row in enumerate(graph.f_edges)
                              for i, edge in enumerate(row) if edge}


def test_one_pass_reflection_matches_the_two_pass_reference(monkeypatch):
    # every reflection the operators make on the sweep and the large
    # crystals, against the copy-then-canonicalize code it replaced; an
    # operator gives the same result with the column passed in as without
    one_pass = P._reflected
    calls = []

    def checked(rs, path, i, g, a, b):
        got = one_pass(rs, path, i, g, a, b)
        want = H.two_pass_reflected(rs, path, i, g, a, b)
        if got.dirs != want.dirs or got.ts != want.ts:
            raise AssertionError(f"{path!r} at node {i}, (g, a, b) = {(g, a, b)}: "
                                 f"{got!r} != {want!r}")
        calls.append(i)
        return got

    monkeypatch.setattr(P, "_reflected", checked)
    for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS:
        rs = root_system(letter, rank)
        for path in H.level_zero(rs, rs.weight_of(coeffs)).nodes:
            for i in rs.nodes:
                col = P.column(path, i)
                assert P.eps_phi(rs, i, path, col) == P.eps_phi(rs, i, path)
                assert P.e_op(rs, i, path, col) == P.e_op(rs, i, path)
                assert P.f_op(rs, i, path, col) == P.f_op(rs, i, path)
    assert len(calls) > 10**4


def test_each_column_is_built_once_per_path_and_node(monkeypatch):
    # _closure, check_operator_properties and demazure_graph hand one column
    # to every operator they run on a (path, node) pair
    counts = Counter()
    column = P.column

    def counted(path, i):
        counts[(path, i)] += 1
        return column(path, i)

    def assert_once():
        assert counts and max(counts.values()) == 1
        counts.clear()

    def nodes_then_count(spec, cap):
        # count the edge pass only: the string closures run f_op on their own
        nodes = node_set(spec, cap)
        counts.clear()
        return nodes

    node_set = DZ.demazure_crystal
    monkeypatch.setattr(P, "column", counted)
    monkeypatch.setattr(DZ, "demazure_crystal", nodes_then_count)
    for letter, rank, coeffs in [("C", 2, (1, 1)), ("G", 2, (0, 2)), ("B", 3, (1, 0, 1))]:
        rs = root_system(letter, rank)
        C.generate_level_zero(rs, rs.weight_of(coeffs))
        assert_once()
        DZ.demazure_graph(DZ.demazure_params(rs, 1, coeffs, 0))
        assert_once()
        rng = random.Random(7)
        for _ in range(20):
            path = cli.random_integral_path(rs, rng)
            counts.clear()
            cli.check_operator_properties(rs, path)
            assert_once()


def test_shift_matches_a_path_built_from_scratch():
    # the anchoring normalizer shifts by null-root multiples; the other
    # weights move every column
    for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        weights = [H.scale(-2, H.delta(rs)), H.delta(rs), rs.simple_root(0), lam,
                   rs.simple_root(rank)]
        for path in H.level_zero(rs, lam).nodes:
            for weight in weights:
                got = P.shift(path, weight)
                dirs = tuple(H.normalize_weight([a + b for a, b in zip(mu, weight)])
                             for mu in path.dirs)
                want = P.Path(dirs, path.ts)
                assert (got.dirs, got.ts, H.kernel_columns(got)) == (
                    want.dirs, want.ts, H.vertex_columns(want))


def test_columns_and_endpoint_match_the_vertex_columns():
    # every node of the sweep and large crystals, against the builder the
    # paths once ran on construction
    for letter, rank, coeffs in sweep_weights() + LARGE_WEIGHTS:
        rs = root_system(letter, rank)
        for path in H.level_zero(rs, rs.weight_of(coeffs)).nodes:
            columns = H.vertex_columns(path)
            assert H.kernel_columns(path) == columns
            assert path.endpoint() == tuple(H._over(col[-1], path.ts[-1]) for col in columns)


def test_export_breakpoints_match_their_fractions():
    # the node id and the JSON breakpoints, reduced by gcd, against the
    # Fraction forms they replaced, on every node of the sweep crystals
    for letter, rank, coeffs in sweep_weights():
        rs = root_system(letter, rank)
        graph = H.level_zero(rs, rs.weight_of(coeffs))
        records = json.loads(H.written_json(graph)[0])["nodes"]
        for path, rec in zip(graph.nodes, records):
            sigmas = H.sigmas(path)
            blob = repr((path.dirs, tuple(str(s) for s in sigmas)))
            assert C.node_id(path) == rec["id"] == hashlib.sha1(blob.encode()).hexdigest()[:12]
            assert [seg["sigma"] for seg in rec["path"]] == [
                f"{s.numerator}/{s.denominator}" for s in sigmas]


# -- input guards, each with its exact message --------------------------------

CRYSTAL_GUARDS = [
    ("d_lambda", lambda: C.d_lambda(C2, C2.weight_of((0, 0), level=1)),
     "expected a classical level-zero weight"),
    ("generate_level_zero", lambda: C.generate_level_zero(C2, C2.weight_of((-1, 1))),
     "expected a dominant classical level-zero weight"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in CRYSTAL_GUARDS],
                         ids=[g[0] for g in CRYSTAL_GUARDS])
def test_crystals_reject_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == message
