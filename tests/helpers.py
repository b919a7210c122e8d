"""Tools the tests share that the program itself never calls: the tau words
and the root enumeration that check the root tables, paths built from
fractional breakpoints and read pointwise, crystal reflections, the
dominance order, a few weight, character and crystal readings, a memo of
the level-zero crystals, the Demazure crystal's weight sum that the
character formula replaced, the Racah-Speiser straightening that is to
replace the peel in ``decompose_hd``, the record tree of the crystal JSON
export, and the per-entry weight arithmetic, the Fraction division, the
Fraction bridge to the short subsystem, the two-pass column and the
random-path generator that the integer code replaced."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from pathcrystals import crystals as C
from pathcrystals import decompose as DC
from pathcrystals import demazure as D
from pathcrystals import paths as P
from pathcrystals.characters import Character, hd_delta, hd_finite_part, hd_key, restrict_hd
from pathcrystals.cli import random_integral_path
from pathcrystals.rootdata import RootDataError, _positive_roots

# -- root data -------------------------------------------------------------

def zero(rs, cl: bool = False):
    """The zero weight of the affine lattice, or of the classical one."""
    return (0,) * (rs.rank + 1 + (0 if cl else 1))


def delta(rs):
    """The null root."""
    return (0,) * (rs.rank + 1) + (1,)


def positive_roots_alpha(rs) -> tuple:
    """Positive finite roots as coefficient tuples on (alpha_1..alpha_n)."""
    return _positive_roots(rs.finite_cartan)


def short_theta_alpha(rs):
    """Highest root of the short subsystem: the sum of the short simple roots."""
    out = zero(rs)
    for i in rs.short_nodes:
        out = rs.add(out, rs.simple_root(i))
    return out


def tau_data(rs):
    """The word over the affine nodes and the short node j that it transports
    to the lowest short root level, hardcoded per non-simply-laced type."""
    n = rs.rank
    words = {
        "B": (tuple(range(n - 1, 1, -1)) + (0,) + tuple(range(1, n)), n),
        "C": (tuple(range(n, 0, -1)) + (0,), 1),
        "G": ((1, 2, 0, 1), 2),
        "F": ((2, 3, 1, 2, 3, 4, 0, 1, 2), 3),
    }
    if rs.is_simply_laced:
        raise RootDataError("no tau word for a simply laced type")
    return words[rs.letter]


def tau_transports(rs) -> bool:
    """The tau word sends alpha_j to delta minus the short highest root."""
    word, j = tau_data(rs)
    target = rs.sub(delta(rs), short_theta_alpha(rs))
    return rs.weyl_apply(word, rs.simple_root(j)) == target


# -- weights and characters ------------------------------------------------

def normalize_entry(v):
    """An integral Fraction as an int; any other entry as it is."""
    if type(v) is not int and isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    return v


def normalize_weight(x):
    """The weight x with every entry normalized on its own."""
    return tuple(normalize_entry(v) for v in x)


def scale(c, x):
    """The weight c * x."""
    return tuple(normalize_entry(c * a) for a in x)


def convolved(a: Character, b: Character) -> Character:
    """The product of two characters."""
    out = Character()
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(normalize_entry(x + y) for x, y in zip(k1, k2, strict=True))
            out.add_term(k, v1 * v2)
    return out


def in_q_plus(rs, lam_finite, key_finite) -> bool:
    """lam - key is a nonnegative integer sum of simple roots."""
    den = rs.alpha_den
    diff = [a - b for a, b in zip(lam_finite, key_finite, strict=True)]
    return all(v >= 0 and v % den == 0 for v in rs.alpha_numerators(diff))


def dominance_leq(rs, key1, key2) -> bool:
    """key1 precedes key2: finite parts differ by Q_+ and the grading of
    key1 is at least that of key2."""
    return hd_delta(key1) >= hd_delta(key2) and in_q_plus(
        rs, hd_finite_part(key2), hd_finite_part(key1)
    )


def per_entry_add(x, y):
    return tuple(normalize_entry(a + b) for a, b in zip(x, y, strict=True))


def per_entry_sub(x, y):
    return tuple(normalize_entry(a - b) for a, b in zip(x, y, strict=True))


def per_entry_shifted(ch: Character, key) -> Character:
    return Character({per_entry_add(k, key): v for k, v in ch.items()})


# -- the Fraction bridge to the short subsystem -----------------------------

def classical_alpha_expand(rs, x):
    """Coefficients on (alpha_1..alpha_n) of the classical part of x, as
    Fractions where they are not integral."""
    den = rs.alpha_den
    return tuple(normalize_entry(Fraction(v, den))
                 for v in rs.alpha_numerators(x[1:rs.rank + 1]))


def restrict_sh(rs, x):
    """Project an affine weight to the lattice of the short subsystem."""
    rs.short_system()  # raises for a simply laced type
    if rs.is_cl(x):
        raise RootDataError("restrict_sh expects a full affine weight")
    c0 = rs.r * rs.level(x) - sum(x[i] for i in rs.short_nodes)
    return normalize_weight((c0, *(x[i] for i in rs.short_nodes), x[-1]))


def include_sh(rs, y):
    """Splitting of restrict_sh: short simple roots, Lambda_0 and delta map
    to their namesakes upstairs.  Coordinates may come out fractional."""
    sh = rs.short_system()
    if len(y) != sh.rank + 2:
        raise RootDataError("include_sh expects a full short-lattice weight")
    finite = classical_alpha_expand(sh, y)
    out = [Fraction(0)] * (rs.rank + 2)
    for j, node in enumerate(rs.short_nodes):
        for p, a in enumerate(rs.simple_root(node)):
            out[p] += finite[j] * a
    out[0] += Fraction(sh.level(y), rs.r)
    out[-1] += y[-1]
    return normalize_weight(out)


def lam_prime(rs, lam):
    """The part of lam invisible to the short subsystem (may be fractional)."""
    return per_entry_sub(lam, include_sh(rs, restrict_sh(rs, lam)))


def i_sh_hd(rs, key):
    """Push a restricted key of the short system through ``include_sh``;
    the grading entry is carried across."""
    return hd_key(rs, include_sh(rs, (0,) + tuple(key)))


def i_sh_char(rs, ch: Character) -> Character:
    out = Character()
    for k, v in ch.items():
        out.add_term(i_sh_hd(rs, k), v)
    return out


# -- paths -----------------------------------------------------------------

def make_path(dirs, sigmas) -> P.Path:
    """Canonicalize an expression given by fractional breakpoints: drop empty
    segments, merge equal neighbours."""
    out_dirs = []
    fracs = []
    prev = Fraction(0)
    for mu, s in zip(dirs, sigmas):
        s = Fraction(s)
        if s < prev:
            raise P.PathError("breakpoints must be nondecreasing")
        out_dirs.append(normalize_weight(mu))
        fracs.append(s)
        prev = s
    if prev == 0:
        raise P.PathError("empty path expression")
    if prev != 1:
        raise P.PathError("final breakpoint must be 1")
    scale = lcm(*(s.denominator for s in fracs))
    ts = [s.numerator * (scale // s.denominator) for s in fracs]
    return two_pass_canonical(out_dirs, ts)


def two_pass_canonical(dirs, ts) -> P.Path:
    """Drop empty segments, merge equal neighbours and reduce the times.

    ``dirs`` must be normalized and ``ts`` nondecreasing nonnegative ints.
    """
    out_dirs = []
    out_ts = []
    prev = 0
    for mu, t in zip(dirs, ts):
        if t == prev:
            continue
        if out_dirs and out_dirs[-1] == mu:
            out_ts[-1] = t
        else:
            out_dirs.append(mu)
            out_ts.append(t)
        prev = t
    if not out_dirs:
        raise P.PathError("empty path expression")
    g = gcd(*out_ts)
    if g > 1:
        out_ts = [t // g for t in out_ts]
    return P.Path(tuple(out_dirs), tuple(out_ts))


def two_pass_reflected(rs, path: P.Path, i: int, g: int, a, b) -> P.Path:
    """The reflection that ``paths._reflected`` replaced: copy ``path``,
    times scaled by g, with the stretch (a, b] reflected by s_i, then
    canonicalize the copy in a second pass."""
    dirs = []
    ts = []
    prev = 0
    for mu, t in zip(path.dirs, path.ts):
        t *= g
        if prev < a:
            dirs.append(mu)
            ts.append(min(t, a))
        if t > a and prev < b:
            dirs.append(rs.reflect(i, mu))
            ts.append(min(t, b))
        if t > b:
            dirs.append(mu)
            ts.append(t)
        prev = t
    return two_pass_canonical(dirs, ts)


def plain_column(path: P.Path, i: int) -> list:
    """``scale`` times H_i at every vertex, vertex 0 (value 0) first, with no
    integrality check: the first pass of the two-pass column."""
    col = [0]
    v = prev = 0
    for mu, t in zip(path.dirs, path.ts):
        v += (t - prev) * mu[i]
        col.append(v)
        prev = t
    return col


def axis_integral(col, scale) -> bool:
    """Every local minimum of the vertex column is a multiple of ``scale``:
    the second pass of the two-pass column.

    t = 0 always counts (value 0); t = 1 counts when the last nonconstant
    stretch descends; an interior vertex counts when the surrounding
    nonconstant stretches descend then ascend.
    """
    prev = col[0]
    descending = False
    for v in col:
        if v < prev:
            descending = True
        elif v > prev:
            if descending and prev % scale:
                return False
            descending = False
        prev = v
    return not (descending and prev % scale)


def two_pass_column(path: P.Path, i: int) -> list:
    """The column ``paths.column`` builds and checks in one pass, built and
    checked in two; raises PathError where it does."""
    col = plain_column(path, i)
    if not axis_integral(col, path.ts[-1]):
        raise P.PathError(f"path is not integral along node {i}")
    return col


def is_integral(rs, path: P.Path) -> bool:
    """Every local minimum of every H_i is an integer: every node's column
    passes."""
    try:
        for i in rs.nodes:
            P.column(path, i)
    except P.PathError:
        return False
    return True


def sigmas(path: P.Path) -> tuple:
    """The breakpoints as reduced fractions of the unit interval."""
    scale = path.ts[-1]
    return tuple(Fraction(t, scale) for t in path.ts)


def vertex_columns(path: P.Path) -> tuple:
    """Every vertex column at once, as ``Path`` once stored them:
    ``[p][k]`` is ``scale`` times coordinate ``p`` at the k-th vertex."""
    acc = [0] * len(path.dirs[0])
    rows = [acc]
    prev = 0
    for mu, t in zip(path.dirs, path.ts):
        dt = t - prev
        acc = [a + dt * c for a, c in zip(acc, mu)]
        rows.append(acc)
        prev = t
    return tuple(zip(*rows))


def kernel_columns(path: P.Path) -> tuple:
    """Every vertex column, each computed the way the operators compute it
    where its profile is integral, else by the plain pass."""
    out = []
    for p in range(len(path.dirs[0])):
        try:
            out.append(tuple(P.column(path, p)))
        except P.PathError:
            out.append(tuple(plain_column(path, p)))
    return tuple(out)


def value(path: P.Path, t) -> tuple:
    """pi(t), exactly."""
    t = Fraction(t)
    acc = [Fraction(0)] * len(path.dirs[0])
    prev = Fraction(0)
    for mu, s in zip(path.dirs, sigmas(path)):
        seg = min(t, s) - prev
        if seg <= 0:
            break
        for p, c in enumerate(mu):
            acc[p] += seg * c
        prev = s
    return tuple(acc)


def _over(v, scale):
    """v / scale as an int when it is integral, else as a Fraction: how the
    path kernel divided before its directions were int only."""
    if v % scale == 0:
        return int(v // scale)
    return Fraction(v, scale)


def per_entry_endpoint(path: P.Path) -> tuple:
    """``Path.endpoint`` as it was: every entry divided by the scale on its
    own, a Fraction where the endpoint is not integral."""
    spans = [t - s for t, s in zip(path.ts, (0,) + path.ts)]
    return tuple(_over(sum(map(mul, spans, col)), path.ts[-1]) for col in zip(*path.dirs))


def randint_integral_path(rs, rng) -> P.Path:
    """``cli.random_integral_path`` as it was, drawing with ``randint`` and
    choosing from ``list(rs.nodes)``."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-2, 2) for _ in range(rs.rank)]
        w = rs.weight_of(coeffs, delta=rng.randint(-1, 1))
        pieces.append(P.straight(w))
    path = pieces[0]
    for piece in pieces[1:]:
        path = P.concat(path, piece)
    for _ in range(rng.randint(0, 3)):
        i = rng.choice(list(rs.nodes))
        nxt = P.f_op(rs, i, path) if rng.random() < 0.5 else P.e_op(rs, i, path)
        if nxt is not None:
            path = nxt
    return path


def selftest_paths(rs, seed, count=200) -> list:
    """The paths ``cli.run_selftest`` checks for one seed."""
    rng = random.Random(seed)
    return [random_integral_path(rs, rng) for _ in range(count)]


def cl_path(rs, path: P.Path) -> P.Path:
    """Project every direction along cl (drop the null-root entry)."""
    if rs.is_cl(path.dirs[0]):
        return path
    return two_pass_canonical([mu[:-1] for mu in path.dirs], path.ts)


def h_profile(rs, path: P.Path, i: int):
    """Breakpoint values of H_i: pairs (t, <pi(t), alpha_i^vee>) at 0 and
    every sigma.  H_i is linear in between, so these determine it."""
    scale = path.ts[-1]
    return [
        (Fraction(t, scale), Fraction(v, scale))
        for t, v in zip((0,) + path.ts, plain_column(path, i))
    ]


def min_h(rs, path: P.Path, i: int):
    """The minimum of H_i."""
    return _over(min(plain_column(path, i)), path.ts[-1])


def s_op(rs, i: int, path: P.Path) -> P.Path:
    """Crystal reflection: the full i-string jump across the weight."""
    ell = path.endpoint()[i]
    out = path
    if ell >= 0:
        for _ in range(ell):
            out = P.f_op(rs, i, out)
    else:
        for _ in range(-ell):
            out = P.e_op(rs, i, out)
    return out


def weyl_act(rs, word, path: P.Path) -> P.Path:
    """Apply the crystal reflections along the word, rightmost letter first."""
    for i in reversed(word):
        path = s_op(rs, i, path)
    return path


# -- crystals --------------------------------------------------------------

# the level-zero crystals the tests read, each built once per process
level_zero = functools.cache(C.generate_level_zero)


def full_weight(graph, pos: int):
    return graph.nodes[pos].endpoint()


def compatible_lift_check(graph) -> list:
    """Violations of the anchored-lift compatibility rules.

    Finite-node edges must never remove a shift; the affine lowering out of
    a node that admits an affine raising must not either.
    """
    bad = []
    for rows in (graph.e_edges, graph.f_edges):
        for pos, row in enumerate(rows):
            for i, edge in enumerate(row):
                if edge and i != 0 and edge[1] != 0:
                    bad.append(("finite", pos, i, edge[1]))
    for pos, row in enumerate(graph.f_edges):
        if row[0] and graph.e_edges[pos][0] and row[0][1] != 0:
            bad.append(("affine", pos, 0, row[0][1]))
    return bad


def demazure_crystal_sum(spec, restrict_to_hd: bool = False, cap: int = C.NODE_CAP) -> Character:
    """Weight sum over the Demazure crystal's nodes: the reference for the
    character formula ``demazure.demazure_character``, built under ``cap`` by
    the string closures."""
    ch = Character()
    for path in D.demazure_crystal(spec, cap):
        ch.add_term(path.endpoint(), 1)
    return restrict_hd(spec.rs, ch) if restrict_to_hd else ch


def demazure_operator_reference(rs, word, ch: Character) -> Character:
    """The Demazure operators as first written, string by string through
    ``Character.add_term``: the reference for ``characters.demazure_operator``."""
    for i in reversed(word):
        out = Character()
        alpha = rs.simple_root(i)
        for key, coeff in ch.items():
            k = key[i]
            if k >= 0:
                js, c = range(k + 1), coeff
            else:  # the strict interior of the string, negated
                js, c = range(-1, k, -1), -coeff
            for j in js:
                out.add_term(tuple(a - j * b for a, b in zip(key, alpha)), c)
        ch = out
    return ch


def straighten(rs, ch) -> dict:
    """Racah-Speiser straightening of a W-invariant restricted character
    (Humphreys, GTM 9, §24), in ints: {(mu, m): multiplicity}, the reference
    for ``characters.decompose_hd``.  Each key's finite part plus rho is
    reflected into the dominant chamber, its sign flipping at each
    reflection; a key that hits a wall drops out, and any other lands on
    mu + rho and keeps its delta entry m."""
    alphas = {i: rs.simple_root(i)[1 : rs.rank + 1] for i in rs.finite_nodes}
    out = Character()
    for key, coeff in ch.items():
        x = [c + 1 for c in hd_finite_part(key)]
        while (i := next((i for i in rs.finite_nodes if x[i - 1] < 0), None)) is not None:
            x = [a - x[i - 1] * b for a, b in zip(x, alphas[i])]
            coeff = -coeff
        if 0 not in x:
            out.add_term((tuple(c - 1 for c in x), hd_delta(key)), coeff)
    return dict(out)


def component_multiset(components) -> list:
    """The sorted (mu coefficients, grading shift) of route (c)'s components."""
    return sorted((c.mu_coeffs, c.n) for c in components)


def highest_candidates(rs, Lambda, graph) -> list:
    """Positions that no e_i raises after the straight path of Lambda; each
    anchored representative stands for its whole null-root shift family."""
    return [pos for pos in range(len(graph)) if DC._raised(rs, Lambda, graph, pos) is None]


def graph_records(graph) -> dict:
    """The crystal JSON export as a record tree, less the size: the reference
    that the text ``crystals.graph_to_json`` writes is compared against."""
    ids = []
    nodes = []
    for path in graph.nodes:
        ident = C.node_id(path)
        breakpoints = C._breakpoints(path)
        ids.append(ident)
        weight = path.endpoint()
        rec = {"id": ident, "weight": list(weight),
               "path": [{"direction": list(mu), "sigma": f"{n}/{d}"}
                        for mu, (n, d) in zip(path.dirs, breakpoints)]}
        rec["degree"] = -weight[-1]
        nodes.append(rec)
    edges = [
        {"source": ids[pos], "node": i, "target": ids[edge[0]]}
        for pos, row in enumerate(graph.f_edges) for i, edge in enumerate(row) if edge
    ]
    return {"nodes": nodes, "edges": edges}


def written_json(graph):
    """The text ``crystals.graph_to_json`` writes, and the number of chunks."""
    chunks = []
    C.graph_to_json(graph, chunks.append)
    return "".join(chunks), len(chunks)
