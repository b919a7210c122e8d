import gc
import json
import weakref
from fractions import Fraction

import pytest

import helpers as H
from conftest import ALL_TYPES, LARGE_WEIGHTS, NOT_GENERATED
from conftest import small_weights as _small_weights
from pathcrystals import characters as CH
from pathcrystals import cli
from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import paths as P
from pathcrystals.characters import Character, hd_key
from pathcrystals.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
B2 = root_system("B", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


# -- highest candidates --------------------------------------------------------

def test_straight_seed_qualifies_iff_theta_pairing_small():
    # the straight path clears the basic threshold exactly when its pairing
    # with the affine coroot is at least -1
    for rs, coeffs, expect in [
        (A1, (1,), True),
        (C2, (1, 0), True),
        (C2, (2, 0), False),
        (G2, (1, 0), False),  # adjoint weight pairs 2 against theta-vee
    ]:
        lam = rs.weight_of(coeffs)
        graph = C.generate_level_zero(rs, lam)
        highest = H.highest_candidates(rs, rs.fundamental(0), graph)
        seed_pos = graph.nodes.index(P.straight(lam))
        assert (seed_pos in highest) == expect


def test_zero_weight_single_candidate():
    graph = C.generate_level_zero(A2, H.zero(A2))
    highest = H.highest_candidates(A2, A2.fundamental(0), graph)
    assert len(graph) == 1 and highest == [0]


def test_huge_thresholds_admit_everything():
    lam = C2.weight_of((1, 1))
    big = (40,) * (C2.rank + 1) + (0,)
    graph = C.generate_level_zero(C2, lam)
    highest = H.highest_candidates(C2, big, graph)
    assert len(highest) == len(graph)


# -- tensor image ----------------------------------------------------------------

def test_image_trivial_weight():
    components = DC.decompose_tensor_image(A2, C.generate_level_zero(A2, H.zero(A2)))
    assert H.component_multiset(components) == [((0, 0), 0)]


@pytest.mark.parametrize(
    "letter,rank,coeffs",
    [("A", 2, (1, 1)), ("A", 2, (2, 1)), ("A", 1, (3,)), ("D", 4, (1, 0, 0, 1))],
)
def test_image_simply_laced_single_component(letter, rank, coeffs):
    rs = root_system(letter, rank)
    components = DC.decompose_tensor_image(rs, C.generate_level_zero(rs, rs.weight_of(coeffs)))
    assert H.component_multiset(components) == [(coeffs, 0)]


@pytest.mark.parametrize(
    "letter,rank,i",
    [("C", 2, 1), ("C", 2, 2), ("G", 2, 1), ("G", 2, 2), ("B", 2, 1), ("B", 2, 2)],
)
def test_image_fundamental_single_component(letter, rank, i):
    rs = root_system(letter, rank)
    coeffs = tuple(1 if k == i else 0 for k in rs.finite_nodes)
    components = DC.decompose_tensor_image(rs, C.generate_level_zero(rs, rs.weight_of(coeffs)))
    assert H.component_multiset(components) == [(coeffs, 0)]


def test_image_component_count_matches_candidates():
    graph = C.generate_level_zero(C2, C2.weight_of((2, 0)))
    components = DC.decompose_tensor_image(C2, graph)
    highest = H.highest_candidates(C2, C2.fundamental(0), graph)
    assert len(components) == len(highest)
    members = sorted(p for comp in components for p in comp.members)
    assert members == list(range(len(graph)))


def test_image_components_carry_block_characters():
    # each component's shifted weight multiset is exactly the character of
    # the block its top key names, node for node, read off the Demazure crystal
    from pathcrystals.demazure import demazure_params

    for rs, coeffs in [(C2, (2, 0)), (G2, (0, 2)), (C2, (1, 1))]:
        graph = C.generate_level_zero(rs, rs.weight_of(coeffs))
        for comp in DC.decompose_tensor_image(rs, graph):
            spec = demazure_params(rs, 1, comp.mu_coeffs, comp.n)
            block = H.demazure_crystal_sum(spec, restrict_to_hd=True)
            got = Character()
            for pos in comp.members:
                key = hd_key(rs, H.full_weight(graph, pos))
                got[key] += 1
            got = Character({k: v for k, v in got.items() if v})
            assert got == block
            assert len(comp.members) == block.mass()
            # the component's resolved target is antidominant at finite nodes
            assert all(spec.target[i] <= 0 for i in rs.finite_nodes)


def test_image_level_two_base():
    # with the doubled base weight the components are level-two blocks;
    # their member weight multisets must match those block characters exactly,
    # read off the Demazure crystals
    from pathcrystals.demazure import demazure_params

    for rs, coeffs in [(C2, (1, 0)), (A2, (1, 1)), (G2, (0, 1))]:
        graph = C.generate_level_zero(rs, rs.weight_of(coeffs))
        Lambda = H.scale(2, rs.fundamental(0))
        components = DC.decompose_tensor_image(rs, graph, Lambda=Lambda)
        assert sum(len(c.members) for c in components) == len(graph)
        for comp in components:
            spec = demazure_params(rs, 2, comp.mu_coeffs, comp.n)
            block = H.demazure_crystal_sum(spec, restrict_to_hd=True)
            got = Character()
            for pos in comp.members:
                key = hd_key(rs, H.full_weight(graph, pos))
                got[key] += 1
            got = Character({k: v for k, v in got.items() if v})
            assert got == block


def test_image_rejects_bad_base():
    with pytest.raises(DC.DecompositionError):
        DC.decompose_tensor_image(
            A2, C.generate_level_zero(A2, A2.weight_of((1, 0))), Lambda=A2.fundamental(1)
        )


def test_image_unique_killed_member_per_component():
    graph = C.generate_level_zero(G2, G2.weight_of((0, 2)))
    base = P.straight(G2.fundamental(0))
    for comp in DC.decompose_tensor_image(G2, graph):
        killed = [
            pos
            for pos in comp.members
            if all(
                P.eps_phi(G2, i, P.concat(base, graph.nodes[pos]))[0] == 0
                for i in G2.nodes
            )
        ]
        assert killed == [comp.top]


# -- route (c) against the raising loop it replaced ------------------------------

def _raise_to_highest(rs, path, cap):
    for _ in range(cap):
        for i in rs.nodes:
            up = P.e_op(rs, i, path)
            if up is not None:
                path = up
                break
        else:
            return path
    raise DC.DecompositionError("raising exceeded the step cap")


def _reference_components(rs, graph, Lambda):
    """(top path, members) per component, ordered by first member, found by
    raising every concatenation with the path operators."""
    base = P.straight(Lambda)
    buckets = {}
    for pos, path in enumerate(graph.nodes):
        top = _raise_to_highest(rs, P.concat(base, path), DC.RAISE_CAP)
        buckets.setdefault(top, []).append(pos)

    # the tops are exactly the elements above the Lambda thresholds
    highest = [
        pos for pos, path in enumerate(graph.nodes)
        if all(H.min_h(rs, path, i) >= -Lambda[i] for i in rs.nodes)
    ]
    assert set(buckets) == {P.concat(base, graph.nodes[pos]) for pos in highest}
    assert H.highest_candidates(rs, Lambda, graph) == highest
    return sorted(buckets.items(), key=lambda kv: min(kv[1]))


def _assert_walk_matches_reference(rs, graph):
    for Lambda in (rs.fundamental(0), H.scale(2, rs.fundamental(0))):
        components = DC.decompose_tensor_image(rs, graph, Lambda=Lambda)
        want = _reference_components(rs, graph, Lambda)
        assert [(P.concat(P.straight(Lambda), graph.nodes[c.top]), c.members)
                for c in components] == want
        tops = [
            _pairwise_top_key(rs, [hd_key(rs, H.full_weight(graph, pos)) for pos in members])
            for _, members in want
        ]
        assert H.component_multiset(components) == sorted((k[:-1], k[-1]) for k in tops)


def test_small_weights_are_the_101_generating_ones():
    count = 0
    for letter, rank in ALL_TYPES:
        weights = _small_weights(root_system(letter, rank))
        count += len([c for c in weights if (letter, rank, c) not in NOT_GENERATED])
    assert count == 101


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=lambda v: str(v))
def test_walk_matches_raising_reference_on_small_weights(letter, rank):
    rs = root_system(letter, rank)
    for coeffs in _small_weights(rs):
        if (letter, rank, coeffs) not in NOT_GENERATED:
            _assert_walk_matches_reference(rs, H.level_zero(rs, rs.weight_of(coeffs)))


@pytest.mark.parametrize(
    "letter,rank,coeffs",
    [("F", 4, (0, 0, 0, 2)), ("B", 4, (0, 0, 0, 2)), ("G", 2, (0, 3))],
)
def test_walk_matches_raising_reference_on_large_weights(letter, rank, coeffs):
    rs = root_system(letter, rank)
    _assert_walk_matches_reference(rs, H.level_zero(rs, rs.weight_of(coeffs)))


def _column_minimum_raised(rs, Lambda, graph, pos):
    """``_raised`` as it was: e_i raises when the minimum of the node's
    vertex column at i lies below ``-Lambda[i]`` times the scale."""
    path = graph.nodes[pos]
    columns = H.vertex_columns(path)
    for i in rs.nodes:
        if min(columns[i]) < -Lambda[i] * path.ts[-1]:
            tgt, shift = graph.e_edges[pos][i]
            if shift:
                raise DC.DecompositionError(f"raising {pos} by e_{i} shifts it by {shift}")
            return tgt
    return None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DC.DecompositionError as exc:
        return "raise", str(exc)


@pytest.mark.parametrize("letter,rank", ALL_TYPES, ids=lambda v: str(v))
def test_raised_matches_the_column_minimum_rule(letter, rank):
    # the recorded e_i-string is longer than Lambda[i] exactly when the
    # node's profile dips below -Lambda[i]; every node of the sweep and
    # large crystals, under the basic weight and its double
    rs = root_system(letter, rank)
    weights = [c for c in _small_weights(rs) if (letter, rank, c) not in NOT_GENERATED]
    weights += [c for lr, r, c in LARGE_WEIGHTS if (lr, r) == (letter, rank)]
    for coeffs in weights:
        graph = H.level_zero(rs, rs.weight_of(coeffs))
        for Lambda in (rs.fundamental(0), H.scale(2, rs.fundamental(0))):
            for pos in range(len(graph)):
                assert _outcome(DC._raised, rs, Lambda, graph, pos) == _outcome(
                    _column_minimum_raised, rs, Lambda, graph, pos)


def test_image_calls_no_path_function(monkeypatch):
    graph = C.generate_level_zero(C2, C2.weight_of((2, 1)))
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    functions = {name: fn for name, fn in vars(P).items()
                 if not name.startswith("_") and not isinstance(fn, type)
                 and getattr(fn, "__module__", None) == P.__name__}
    assert {"e_op", "f_op", "eps_phi", "concat"} <= set(functions)
    for name, fn in functions.items():
        monkeypatch.setattr(P, name, counted(name, fn))
    assert DC.decompose_tensor_image(C2, graph) and calls == []


def test_image_rejects_a_shifted_raising_edge():
    graph = C.generate_level_zero(C2, C2.weight_of((2, 0)))
    Lambda = C2.fundamental(0)
    # the first raising of the first element below the thresholds
    pos, i = next(
        (pos, i) for pos, path in enumerate(graph.nodes) for i in C2.nodes
        if H.min_h(C2, path, i) < -Lambda[i]
    )
    edges = [row[:] for row in graph.e_edges]
    edges[pos][i] = (edges[pos][i][0], 1)
    with pytest.raises(DC.DecompositionError, match="shifts"):
        DC.decompose_tensor_image(C2, C.CrystalGraph(C2, graph.nodes, graph.f_edges, edges))


# -- the short embedding -----------------------------------------------------------

def sh_embed(rs, lam, short_path):
    """Transport a short-system path: split each direction and add the
    straight line of the invisible part.  The result has integral directions
    whenever the input directions lie in the restricted orbit."""
    lp = H.lam_prime(rs, lam)
    dirs = []
    for nu in short_path.dirs:
        d = H.per_entry_add(H.include_sh(rs, nu), lp)
        if any(isinstance(c, Fraction) for c in d):
            raise DC.DecompositionError(f"embedded direction {d} is not integral")
        dirs.append(d)
    return H.make_path(dirs, H.sigmas(short_path))


def test_sh_embed_straight_seed(nsl_rs):
    lam = nsl_rs.weight_of(tuple(1 for _ in nsl_rs.finite_nodes))
    sh = nsl_rs.short_system()
    short_seed = P.straight(H.restrict_sh(nsl_rs, lam))
    assert sh_embed(nsl_rs, lam, short_seed) == P.straight(lam)


def test_sh_embed_weight_law():
    lam = C2.weight_of((2, 1))
    sh = C2.short_system()
    bar = H.restrict_sh(C2, lam)
    graph = C.generate_level_zero(sh, bar)
    lp = H.lam_prime(C2, lam)
    for path in graph.nodes:
        image = sh_embed(C2, lam, path)
        want = H.per_entry_add(H.include_sh(C2, path.endpoint()), lp)
        assert image.endpoint() == want


@pytest.mark.parametrize("letter,rank,coeffs", [("C", 2, (2, 0)), ("G", 2, (0, 2)), ("C", 3, (1, 1, 1))])
def test_sh_embed_bijection_onto_short_cone(letter, rank, coeffs):
    # anchored embeddings biject onto the anchored paths whose weights stay
    # below lam along short roots
    rs = root_system(letter, rank)
    lam = rs.weight_of(coeffs)
    sh = rs.short_system()
    short_graph = C.generate_level_zero(sh, H.restrict_sh(rs, lam))
    big_graph = C.generate_level_zero(rs, lam)

    anchored_images = set()
    for path in short_graph.nodes:
        image = sh_embed(rs, lam, path)
        offset = image.dirs[0][-1]
        minus = (0,) * (rs.rank + 1) + (-offset,)
        anchored_images.add(P.shift(image, minus))

    lam_f = CH.finite_key(rs, lam)
    cone = {p for p in big_graph.nodes
            if CH.in_q_plus_short(rs, lam_f, CH.hd_finite_part(hd_key(rs, p.endpoint())))}
    assert anchored_images == cone


# -- character identities ------------------------------------------------------------

@pytest.mark.parametrize(
    "letter,rank,coeffs",
    [("C", 2, (1, 0)), ("G", 2, (0, 1)), ("B", 2, (0, 1)), ("C", 2, (0, 1))],
)
def test_short_restriction_identity_fundamentals(letter, rank, coeffs):
    rs = root_system(letter, rank)
    lam = rs.weight_of(coeffs)
    lines = DC.short_restriction_identity(
        rs, lam, DC.path_side_char(rs, C.generate_level_zero(rs, lam))
    )
    assert lines == []


def test_short_restriction_trivial_bar():
    # a weight supported on long nodes only restricts to zero
    lam = C2.weight_of((0, 2))
    assert DC.lam_bar_coeffs(C2, lam) == (0,)
    lines = DC.short_restriction_identity(
        C2, lam, DC.path_side_char(C2, C.generate_level_zero(C2, lam))
    )
    assert lines == []


def test_short_demazure_identity_with_shift():
    # the difference of the two sides is empty
    assert DC.short_demazure_identity(C2, C2.weight_of((1, 1)), 2) == {}
    assert DC.short_demazure_identity(G2, G2.weight_of((0, 1)), 1) == {}


# -- filtration -----------------------------------------------------------------------

def test_filtration_simply_laced():
    assert DC.weyl_filtration_multiset(A2, A2.weight_of((2, 1))) == [((2, 1), 0, 1)]


def test_filtration_long_support_is_single():
    assert DC.weyl_filtration_multiset(C2, C2.weight_of((0, 2))) == [((0, 2), 0, 1)]


@pytest.mark.parametrize(
    "letter,rank,coeffs",
    [("C", 2, (2, 0)), ("C", 2, (2, 1)), ("G", 2, (0, 2)), ("B", 3, (1, 0, 2)), ("F", 4, (0, 0, 0, 1))],
)
def test_filtration_contains_top_block(letter, rank, coeffs):
    rs = root_system(letter, rank)
    filt = DC.weyl_filtration_multiset(rs, rs.weight_of(coeffs))
    assert any(mu == coeffs and m == 0 and mult >= 1 for mu, m, mult in filt)


def test_known_filtrations():
    assert DC.weyl_filtration_multiset(C2, C2.weight_of((2, 0))) == [
        ((2, 0), 0, 1),
        ((0, 1), 1, 1),
    ]
    assert DC.weyl_filtration_multiset(G2, G2.weight_of((0, 2))) == [
        ((0, 2), 0, 1),
        ((1, 0), 1, 1),
    ]


# -- the full report -----------------------------------------------------------------

def test_verify_main_simply_laced():
    lam = A2.weight_of((1, 1))
    rep = DC.verify_main(A2, lam)
    assert rep.ok
    assert H.component_multiset(DC.decompose_tensor_image(A2, H.level_zero(A2, lam))) == \
        [((1, 1), 0)]
    assert rep.filtration == [((1, 1), 0, 1)]


def test_verify_main_fundamentals_agree_three_ways():
    for rs, coeffs in [(C2, (1, 0)), (G2, (0, 1))]:
        lam = rs.weight_of(coeffs)
        rep = DC.verify_main(rs, lam)
        assert rep.ok
        assert rep.filtration == [(coeffs, 0, 1)]
        components = DC.decompose_tensor_image(rs, H.level_zero(rs, lam))
        assert H.component_multiset(components) == [(coeffs, 0)]


def test_verify_main_builds_route_a_once(monkeypatch):
    calls = []
    build = DC.path_side_char

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(DC, "path_side_char", counted)
    rep = DC.verify_main(C2, C2.weight_of((1, 0)))
    assert rep.ok and rep.details == []
    assert len(calls) == 1


def test_verify_main_builds_the_level_one_block_once(monkeypatch):
    # the filtration's top block (lam, 0) and the block projection identity
    # read the same memoised block
    from pathcrystals import demazure as D

    builds = []
    build = D.demazure_character

    def counted(spec, *args, **kwargs):
        builds.append((spec.level, spec.lam_coeffs, spec.m))
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(D, "demazure_character", counted)
    D._block_char.cache_clear()
    rep = DC.verify_main(C2, C2.weight_of((2, 1)))
    assert rep.ok
    assert builds.count((1, (2, 1), 0)) == 1


def test_verify_main_keeps_failure_details(monkeypatch):
    # every key counts as below lam, so the path-side projection keeps too much
    monkeypatch.setattr(DC, "in_q_plus_short", lambda rs, lam_finite, key_finite: True)
    rep = DC.verify_main(C2, C2.weight_of((1, 0)))
    assert not rep.checks["short_restriction"]
    assert rep.details and rep.details[0].startswith("path-side projection differs")


def test_partition_failure_names_the_positions(capsys, monkeypatch):
    # the first component loses its last member, the second repeats its first
    real = DC.decompose_tensor_image

    def broken(*args, **kwargs):
        components = real(*args, **kwargs)
        first, second = components[:2]
        first.members.pop()
        second.members.append(second.members[0])
        return components

    monkeypatch.setattr(DC, "decompose_tensor_image", broken)
    components = real(C2, H.level_zero(C2, C2.weight_of((2, 0))))
    lost, twice = components[0].members[-1], components[1].members[0]
    code = cli.main(["verify", "--type", "C", "--rank", "2", "--weight", "2,0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["reports"][0]["checks"]["partition"] is False
    assert (f"verify [2, 0]: partition: missing positions [{lost}], "
            f"repeated positions [{twice}]\n") in err


def test_dimension_product_failure_names_both_sides(capsys, monkeypatch):
    # each fundamental crystal reads one node larger than it is
    real = DC._fundamental_size
    monkeypatch.setattr(DC, "_fundamental_size", lambda rs, i, cap: real(rs, i, cap) + 1)
    size = len(H.level_zero(C2, C2.weight_of((1, 1))))
    sizes = [len(H.level_zero(C2, C2.varpi(i))) for i in (1, 2)]
    product = (sizes[0] + 1) * (sizes[1] + 1)
    code = cli.main(["verify", "--type", "C", "--rank", "2", "--weight", "1,1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["reports"][0]["checks"]["dimension_product"] is False
    assert f"verify [1, 1]: dimension_product: product {product}, crystal size {size}\n" in err


def test_fundamental_size_honours_the_cap_on_a_hit():
    assert DC._fundamental_size(C2, 1, C.NODE_CAP) == len(H.level_zero(C2, C2.varpi(1))) > 2
    with pytest.raises(C.LimitError, match="node cap 2 exceeded"):
        DC._fundamental_size(C2, 1, 2)


def test_verify_main_keeps_no_graph_alive(monkeypatch):
    # the fundamentals are memoized by size only, and lambda's graph is
    # dropped when verify_main returns
    built = []

    def tracked(*args):
        graph = C.generate_level_zero(*args)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(DC, "generate_level_zero", tracked)
    DC._fundamental_size.cache_clear()
    assert DC.verify_main(C2, C2.weight_of((1, 1))).ok
    gc.collect()
    assert len(built) == 3 and all(ref() is None for ref in built)


def test_verify_main_reports_graded_series():
    lam = C2.weight_of((2, 0))
    rep = DC.verify_main(C2, lam)
    assert rep.ok and rep.checks["graded_multiplicities"]
    # one copy of the trivial, one layer deep
    graded = CH.decompose_hd(C2, DC.path_side_char(C2, H.level_zero(C2, lam)))
    assert {m: mult for (mu, m), mult in graded.items() if mu == (0,) * C2.rank} == {1: 1}


def test_classical_weight_sum_factors_over_fundamentals():
    # forgetting the grading, the crystal weight sum multiplies over the
    # fundamental factors
    for rs, coeffs in [(C2, (2, 1)), (G2, (1, 1)), (A2, (2, 1))]:
        lam = rs.weight_of(coeffs)
        total = Character()
        for path in C.generate_level_zero(rs, lam).nodes:
            key = hd_key(rs, path.endpoint())[:-1]
            total[key] += 1
        total = Character({k: v for k, v in total.items() if v})
        prod = Character.monomial((0,) * rs.rank)
        for i, c in zip(rs.finite_nodes, coeffs):
            if not c:
                continue
            factor = Character()
            for path in C.generate_level_zero(rs, rs.varpi(i)).nodes:
                key = hd_key(rs, path.endpoint())[:-1]
                factor[key] += 1
            factor = Character({k: v for k, v in factor.items() if v})
            for _ in range(c):
                prod = H.convolved(prod, factor)
        assert total == prod


def test_b2_c2_relabeling_consistency():
    # the two rank-two labelings describe the same algebra with nodes
    # swapped: graded characters must match under the swap
    for b_coeffs, c_coeffs in [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1))]:
        ch_b = DC.path_side_char(B2, C.generate_level_zero(B2, B2.weight_of(b_coeffs)))
        ch_c = DC.path_side_char(C2, C.generate_level_zero(C2, C2.weight_of(c_coeffs)))
        swapped = Character({(k[1], k[0], k[2]): v for k, v in ch_b.items()})
        assert swapped == ch_c


def test_fundamental_crystal_sizes_match_known_module_dimensions():
    # frozen cross-check against the standard dimension tables; each value
    # is also pinned internally by the three-route identities
    known = {
        ("A", 3): (4, 6, 4),
        ("B", 2): (5, 4),
        ("B", 3): (7, 22, 8),
        ("C", 2): (4, 5),
        ("C", 3): (6, 14, 14),
        ("C", 4): (8, 27, 48, 42),
        ("D", 4): (8, 29, 8, 8),
        ("G", 2): (15, 7),
    }
    for (letter, rank), dims in known.items():
        rs = root_system(letter, rank)
        for i, want in zip(rs.finite_nodes, dims):
            got = len(C.generate_level_zero(rs, rs.varpi(i)))
            assert got == want, f"{letter}{rank} node {i}: {got} != {want}"


def test_anchored_initial_directions_live_in_finite_orbit():
    from conftest import finite_orbit

    for rs, coeffs in [(C2, (1, 1)), (A2, (2, 0))]:
        lam = rs.weight_of(coeffs)
        orbit = finite_orbit(rs, lam)
        for path in C.generate_level_zero(rs, lam).nodes:
            assert path.dirs[0] in orbit


# -- one-pass argmax picks against the pairwise scans they replaced -----------

MAIN_CASES = [(C2, (2, 0)), (C2, (1, 1)), (C2, (2, 1)), (G2, (0, 2)), (G2, (1, 1))]


def _decompose_hd_pairwise(rs, ch):
    """decompose_hd stripping the last sorted key that no other key lies above."""
    slices = {}
    for key, v in ch.items():
        slices.setdefault(key[-1], Character())[key[:-1]] = v
    out = {}
    for m, residue in sorted(slices.items()):
        while residue:
            keys = sorted(residue)
            maximal = [
                k for k in keys if not any(k2 != k and H.in_q_plus(rs, k2, k) for k2 in keys)
            ]
            top = maximal[-1]
            mult = residue[top]
            residue = residue.added(CH.finite_char(rs, top), sign=-mult)
            out[(top, m)] = out.get((top, m), 0) + mult
    return out


def _pairwise_top_key(rs, keys):
    """The key of a component that dominates all of them, by pairwise scan."""
    maxima = [k for k in set(keys) if all(H.dominance_leq(rs, k2, k) for k2 in keys)]
    assert len(maxima) == 1 and keys.count(maxima[0]) == 1
    return maxima[0]


@pytest.mark.parametrize("rs,coeffs", MAIN_CASES, ids=lambda v: str(v))
def test_argmax_picks_match_pairwise_scans(rs, coeffs):
    lam = rs.weight_of(coeffs)
    graph = H.level_zero(rs, lam)
    a_char = DC.path_side_char(rs, graph)
    # the same picks in the same order
    picks = list(CH.decompose_hd(rs, a_char).items())
    assert picks == list(_decompose_hd_pairwise(rs, a_char).items())
    for comp in DC.decompose_tensor_image(rs, graph):
        keys = [hd_key(rs, H.full_weight(graph, pos)) for pos in comp.members]
        assert _pairwise_top_key(rs, keys) == comp.mu_coeffs + (comp.n,)


def test_tensor_image_rejects_a_repeated_top_key(monkeypatch):
    # every element reads the same key, so no component top occurs exactly once
    monkeypatch.setattr(DC, "hd_key", lambda rs, x: (0, 0, 0))
    with pytest.raises(DC.DecompositionError,
                       match=r"component \(\(0, 0\), 0\) differs from its block: "
                             r"keys - block = \{\(0, 0, 0\): 3\}"):
        DC.decompose_tensor_image(C2, C.generate_level_zero(C2, C2.weight_of((1, 0))))


def test_tensor_image_rejects_a_member_moved_between_components(monkeypatch):
    # C2 (2,0) has two components: ((2,0),0) with top 1 and ((0,1),1) with
    # top 15.  Raising position 4 straight to position 1 moves it, and
    # position 9 that raises through it, into the first component.
    graph = C.generate_level_zero(C2, C2.weight_of((2, 0)))
    first, second = DC.decompose_tensor_image(C2, graph)
    assert (first.mu_coeffs, first.n, first.top) == ((2, 0), 0, 1)
    assert (second.mu_coeffs, second.n, second.top) == ((0, 1), 1, 15)
    assert {4, 9} <= set(second.members)
    # the per-member dominance scan accepts both below the first top, and
    # leaves that top unique
    keys = DC.node_keys(C2, graph)
    assert all(H.dominance_leq(C2, keys[p], keys[1]) and keys[p] != keys[1] for p in (4, 9))
    real = DC._raised
    monkeypatch.setattr(DC, "_raised", lambda rs, Lambda, graph, pos:
                        1 if pos == 4 else real(rs, Lambda, graph, pos))
    with pytest.raises(DC.DecompositionError,
                       match=r"component \(\(2, 0\), 0\) differs from its block: "
                             r"keys - block = \{\(-2, 1, 1\): 1, \(0, -1, 1\): 1\}"):
        DC.decompose_tensor_image(C2, graph)
