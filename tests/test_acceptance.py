"""Acceptance suite: every identity the engine exists to verify, exactly.

One test per criterion; each prints a PASS/FAIL line naming the criterion.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
"""

import itertools
import random

from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import paths as P
from pathcrystals.characters import decompose_hd, hd_finite_part, hd_key
from pathcrystals.cli import check_operator_properties, random_integral_path
from pathcrystals.crystals import classically_highest
from pathcrystals.demazure import (
    demazure_character,
    demazure_crystal,
    demazure_crystal_for_word,
    demazure_params,
)
from pathcrystals.rootdata import root_system

import helpers as H
from helpers import full_weight
from test_demazure import braid_pairs, spec_pool


def weights_up_to(rank, total):
    out = []
    for coeffs in itertools.product(range(total + 1), repeat=rank):
        if sum(coeffs) <= total:
            out.append(coeffs)
    return sorted(out, key=lambda c: (sum(c), c))


SIMPLY_LACED_CASES = (
    [(("A", 1), c) for c in weights_up_to(1, 3)]
    + [(("A", 2), c) for c in weights_up_to(2, 3)]
    + [(("A", 3), c) for c in weights_up_to(3, 3)]
    + [(("D", 4), c) for c in weights_up_to(4, 2)]
)

FUNDAMENTAL_CASES = [
    (t, tuple(1 if k == i else 0 for k in range(t[1])))
    for t in [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("C", 4), ("G", 2)]
    for i in range(t[1])
] + [(("F", 4), (0, 0, 0, 1)), (("F", 4), (1, 0, 0, 0))]

MAIN_CASES = [
    (("C", 2), (2, 0)),
    (("C", 2), (1, 1)),
    (("C", 2), (2, 1)),
    (("G", 2), (0, 2)),
    (("G", 2), (1, 1)),
]

RANDOM_PATH_TYPES = sorted({t for t, _ in SIMPLY_LACED_CASES + FUNDAMENTAL_CASES + MAIN_CASES})


def path_char(rs, lam):
    return DC.path_side_char(rs, H.level_zero(rs, lam))


def report(criterion, label, ok):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {criterion} failed at {label}"


def test_criterion_01_simply_laced_identity():
    for (letter, rank), coeffs in SIMPLY_LACED_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        lhs = path_char(rs, lam)
        rhs = demazure_character(demazure_params(rs, 1, coeffs, 0), restrict_to_hd=True)
        report(1, f"{letter}{rank} {coeffs}", lhs == rhs)


def test_criterion_02_fundamental_identity():
    for (letter, rank), coeffs in FUNDAMENTAL_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        lhs = path_char(rs, lam)
        rhs = demazure_character(demazure_params(rs, 1, coeffs, 0), restrict_to_hd=True)
        report(2, f"{letter}{rank} {coeffs}", lhs == rhs)


def test_criterion_03_main_identity_non_simply_laced():
    for (letter, rank), coeffs in MAIN_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        lhs = path_char(rs, lam)
        filt = DC.weyl_filtration_multiset(rs, lam)
        rhs = DC.filtration_char(rs, filt)
        report(3, f"{letter}{rank} {coeffs} via {filt}", lhs == rhs)


def test_criterion_04_decomposition_multiset():
    for (letter, rank), coeffs in MAIN_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        blocks = sorted(
            (mu, m)
            for mu, m, mult in DC.weyl_filtration_multiset(rs, lam)
            for _ in range(mult)
        )
        components = DC.decompose_tensor_image(rs, H.level_zero(rs, lam))
        report(4, f"{letter}{rank} {coeffs}", blocks == H.component_multiset(components))


def test_criterion_05_dimension_multiplicativity():
    for (letter, rank), coeffs in SIMPLY_LACED_CASES + FUNDAMENTAL_CASES + MAIN_CASES:
        rs = root_system(letter, rank)
        total = len(H.level_zero(rs, rs.weight_of(coeffs)))
        prod = 1
        for i, c in zip(rs.finite_nodes, coeffs):
            if c:
                prod *= len(H.level_zero(rs, rs.varpi(i))) ** c
        report(5, f"{letter}{rank} {coeffs}: {total} nodes", total == prod)


def test_criterion_06_demazure_oracle_equivalence():
    rng = random.Random(2024)
    specs = []
    for letter, rank in [("A", 2), ("C", 2), ("G", 2)]:
        pool = spec_pool(root_system(letter, rank), max_len=8)
        rng.shuffle(pool)
        specs.extend(pool[:20])
    assert len(specs) >= 50
    for spec in specs:
        ok = H.demazure_crystal_sum(spec) == demazure_character(spec)
        assert ok, f"oracle mismatch at {spec.rs} {spec.lam_coeffs} {spec.word}"
    report(6, f"{len(specs)} random specs", True)


def test_criterion_07_word_independence():
    pairs = 0
    for letter, rank in [("A", 2), ("C", 2), ("G", 2)]:
        rs = root_system(letter, rank)
        for spec in spec_pool(rs, max_len=10):
            for other in braid_pairs(rs, spec.word):
                lhs = set(demazure_crystal(spec))
                rhs = set(demazure_crystal_for_word(rs, spec.Lambda, other))
                assert lhs == rhs, f"word dependence at {spec.word} vs {other}"
                pairs += 1
            if pairs >= 30:
                break
    report(7, f"{pairs} braid-related word pairs", pairs >= 20)


def _check_operator_properties(rs, path, check_counts=True):
    # the selftest checks, plus integrality of each neighbour and string counts
    check_operator_properties(rs, path)
    for i in rs.nodes:
        for op in (P.e_op, P.f_op):
            nxt = op(rs, i, path)
            assert nxt is None or H.is_integral(rs, nxt)
        if check_counts:
            eps = P.eps_phi(rs, i, path)[0]
            k, cur = 0, path
            while True:
                cur = P.e_op(rs, i, cur)
                if cur is None:
                    break
                k += 1
            assert k == eps


def _check_cl_compatibility(rs, path):
    down = H.cl_path(rs, path)
    for i in rs.nodes:
        for op in (P.e_op, P.f_op):
            full = op(rs, i, path)
            proj = op(rs, i, down)
            if full is None:
                assert proj is None
            else:
                assert proj == H.cl_path(rs, full)


def test_criterion_08_operator_property_suite():
    # exhaustive over every crystal the other criteria generate
    for (letter, rank), coeffs in SIMPLY_LACED_CASES + FUNDAMENTAL_CASES + MAIN_CASES:
        rs = root_system(letter, rank)
        graph = H.level_zero(rs, rs.weight_of(coeffs))
        for pos, path in enumerate(graph.nodes):
            assert -full_weight(graph, pos)[-1] <= 0
            _check_operator_properties(rs, path, check_counts=(pos % 7 == 0))
        for pos in range(0, len(graph), 5):
            _check_cl_compatibility(rs, graph.nodes[pos])
    # plus randomized paths for every type in play
    rng = random.Random(777)
    for letter, rank in RANDOM_PATH_TYPES:
        rs = root_system(letter, rank)
        paths = [random_integral_path(rs, rng) for _ in range(1000)]
        for k, path in enumerate(paths):
            _check_operator_properties(rs, path, check_counts=(k % 10 == 0))
        for k in range(0, 1000, 2):
            p1, p2 = paths[k], paths[k - 1]
            both = P.concat(p1, p2)
            for i in rs.nodes:
                up = P.e_op(rs, i, both)
                if up is not None:
                    if P.eps_phi(rs, i, p1)[1] >= P.eps_phi(rs, i, p2)[0]:
                        assert up == P.concat(P.e_op(rs, i, p1), p2)
                    else:
                        assert up == P.concat(p1, P.e_op(rs, i, p2))
    report(8, f"{len(RANDOM_PATH_TYPES)} types x 1000 paths + all generated crystals", True)


def test_criterion_09_short_subalgebra_identities():
    for (letter, rank), coeffs in MAIN_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        lines = DC.short_restriction_identity(rs, lam, path_char(rs, lam))
        report(9, f"{letter}{rank} {coeffs} restriction identity", lines == [])
    for letter, rank in [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("F", 4), ("G", 2)]:
        rs = root_system(letter, rank)
        word, _ = H.tau_data(rs)
        cond_i = H.tau_transports(rs)
        pos = H.positive_roots_alpha(rs)
        short_roots = set()
        for r in pos:
            if all(c == 0 for node, c in zip(rs.finite_nodes, r) if node not in rs.short_nodes):
                short_roots.add(tuple(r))
                short_roots.add(tuple(-c for c in r))
        cond_ii = True
        for cut in range(len(word)):
            img = rs.weyl_apply(word[:cut], rs.simple_root(word[cut]))
            if tuple(H.classical_alpha_expand(rs, img)) in short_roots:
                cond_ii = False
        report(9, f"{letter}{rank} tau word conditions", cond_i and cond_ii)


def test_criterion_10_graded_multiplicities():
    for (letter, rank), coeffs in MAIN_CASES:
        rs = root_system(letter, rank)
        lam = rs.weight_of(coeffs)
        graph = H.level_zero(rs, lam)
        graded = {}
        for (nu, m), mult in decompose_hd(rs, path_char(rs, lam)).items():
            graded.setdefault(nu, {})[m] = mult
        highest = classically_highest(graph)
        support = sorted(
            {
                hd_finite_part(hd_key(rs, full_weight(graph, pos)))
                for pos in highest
            }
        )
        ok = True
        for mu in support:
            direct = {}
            for pos in highest:
                key = hd_key(rs, full_weight(graph, pos))
                if hd_finite_part(key) == mu:
                    exp = full_weight(graph, pos)[-1]
                    direct[exp] = direct.get(exp, 0) + 1
            if graded.get(mu, {}) != direct:
                ok = False
        report(10, f"{letter}{rank} {coeffs} over {len(support)} weights", ok)
