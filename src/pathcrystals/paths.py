"""Piecewise-linear paths and the root operators acting on them.

A path is stored by its expression: a sequence of direction weights and the
strictly increasing breakpoints where the direction changes.  Breakpoints
are integer time numerators ``ts`` over the path's scale ``ts[-1]``, reduced
so that ``gcd(ts) == 1``.  Two paths are equal exactly when their canonical
forms agree (zero-length segments dropped, equal adjacent directions
merged, times reduced), which makes paths hashable and crystal generation a
plain set closure.

A path stores nothing beyond its expression, and its directions are int
weights (:func:`straight` and :func:`shift` check them).  Each root operator
at node i reads one column, ``scale`` times H_i at every vertex
(:func:`column`, one pass that also checks integrality), which a caller
running several operators on one (path, i) builds once and passes in.  So
the operators compare integers and test integrality as ``v % scale == 0``;
a level crossing strictly inside a segment is made a breakpoint by
rescaling the whole path.  No tolerances and no Fraction objects appear.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .rootdata import RootSystem, Weight


class PathError(RuntimeError):
    pass


class Path:
    """Canonical expression (mu_1..mu_N; t_1 < ... < t_N = scale).

    Segment k runs from time ``ts[k-1] / scale`` (0 for the first) to
    ``ts[k] / scale`` in direction ``dirs[k]``.  Directions are int weight
    tuples of the ambient lattice (with or without the null-root entry).
    Build paths with :func:`straight`, :func:`concat` or the operators; the
    constructor takes an expression that is already canonical.
    """

    __slots__ = ("dirs", "ts")

    def __init__(self, dirs: tuple, ts: tuple):
        self.dirs = dirs
        self.ts = ts

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.ts == other.ts and self.dirs == other.dirs

    def __hash__(self):
        return hash((self.dirs, self.ts))

    def __repr__(self):
        return f"Path(dirs={self.dirs!r}, ts={self.ts!r})"

    def endpoint(self) -> Weight:
        """pi(1); PathError when it is not an integral weight."""
        ts = self.ts
        if len(ts) == 1:
            return self.dirs[0]
        scale = ts[-1]
        spans = [t - s for t, s in zip(ts, (0,) + ts)]
        sums = [sum(map(mul, spans, col)) for col in zip(*self.dirs)]
        if any(v % scale for v in sums):
            raise PathError("path endpoint is not integral")
        return tuple([v // scale for v in sums])


def _time(path: Path, k: int):
    """Numerator of the k-th vertex time (vertex 0 is t = 0)."""
    return path.ts[k - 1] if k else 0


def _direction(weight) -> Weight:
    """``weight`` as a tuple, when every entry is an int; else PathError."""
    weight = tuple(weight)
    if not all(type(c) is int for c in weight):
        raise PathError(f"path directions need int entries, got {weight!r}")
    return weight


def straight(weight: Weight) -> Path:
    """The straight-line path t |-> t * weight (also used for weight 0)."""
    return Path((_direction(weight),), (1,))


def shift(path: Path, weight: Weight) -> Path:
    """Add the straight-line path of ``weight`` pointwise."""
    weight = _direction(weight)
    # adding one weight to every direction keeps neighbours distinct
    return Path(tuple(tuple([a + b for a, b in zip(mu, weight)]) for mu in path.dirs), path.ts)


def concat(p1: Path, p2: Path) -> Path:
    """Concatenation: p1 traversed on [0, 1/2], then p2 from p1's endpoint.

    Each factor runs at double speed, so directions double while the
    breakpoints compress into the half-intervals, over the lcm of the two
    scales.  Both factors are canonical, so the only merge is at the
    junction, and the times are reduced once.
    """
    if len(p1.dirs[0]) != len(p2.dirs[0]):
        raise PathError("concatenation needs a common lattice")
    scale = lcm(p1.ts[-1], p2.ts[-1])
    c1 = scale // p1.ts[-1]
    c2 = scale // p2.ts[-1]
    n = len(p1.dirs) - (p1.dirs[-1] == p2.dirs[0])  # p1's segments kept
    ts = [t * c1 for t in p1.ts[:n]] + [scale + t * c2 for t in p2.ts]
    g = gcd(*ts)
    if g > 1:
        ts = [t // g for t in ts]
    return Path(tuple(tuple([2 * c for c in mu]) for mu in p1.dirs[:n] + p2.dirs), tuple(ts))


# -- vertex columns and the root operators ---------------------------------

def column(path: Path, i: int) -> list:
    """``scale`` times H_i at every vertex, vertex 0 (value 0) first: the
    column the operators at node i read.

    Raises PathError unless every local minimum of H_i is an integer, which
    the same pass checks: t = 0 always counts (value 0); t = 1 counts when
    the last nonconstant stretch descends; an interior vertex counts when
    the surrounding nonconstant stretches descend then ascend.
    """
    scale = path.ts[-1]
    col = [0]
    v = prev = 0
    descending = False  # while True, v is the low point of the current descent
    for mu, t in zip(path.dirs, path.ts):
        w = v + (t - prev) * mu[i]
        if w < v:
            descending = True
        elif w > v:
            if descending and v % scale:
                raise PathError(f"path is not integral along node {i}")
            descending = False
        col.append(w)
        v = w
        prev = t
    if descending and v % scale:
        raise PathError(f"path is not integral along node {i}")
    return col


def _crossing(path: Path, col: list, k: int, level, i: int):
    """Where H_i, with vertex column ``col``, reaches ``level`` on segment k
    (from vertex k to k+1).

    Returns (g, t): the path's times scaled by g make the crossing the
    integer time t; g = |slope| / gcd(level - v, slope) when it falls
    strictly between breakpoints, else 1.
    """
    num = level - col[k]
    slope = path.dirs[k][i]
    start = _time(path, k)
    step, rem = divmod(num, slope)
    if not rem:
        return 1, start + step
    g = abs(slope) // gcd(num, slope)
    return g, start * g + num * g // slope


def _reflected(rs: RootSystem, path: Path, i: int, g: int, a, b) -> Path:
    """``path``, times scaled by g, with the stretch (a, b] reflected by s_i,
    in canonical form and in one pass: the path is canonical, a < b and s_i
    is injective, so no piece is empty and neighbours can merge only at a, b."""
    alpha = rs.simple_root(i, cl=rs.is_cl(path.dirs[0]))
    dirs = []
    ts = []
    prev = 0
    for mu, t in zip(path.dirs, path.ts):
        t *= g
        if prev < a:
            dirs.append(mu)
            ts.append(t if t < a else a)
        if t > a and prev < b:
            c = mu[i]  # s_i with alpha_i read once; s_i fixes mu when c == 0
            nu = tuple([x - c * y for x, y in zip(mu, alpha)]) if c else mu
            if prev > a or not dirs or dirs[-1] != nu:  # else continue the prefix
                dirs.append(nu)
                ts.append(0)
            ts[-1] = t if t < b else b
        if t > b:
            if prev > b or dirs[-1] != mu:  # else continue the stretch
                dirs.append(mu)
                ts.append(0)
            ts[-1] = t
        prev = t
    d = gcd(*ts)
    if d > 1:
        ts = [t // d for t in ts]
    return Path(tuple(dirs), tuple(ts))


def e_op(rs: RootSystem, i: int, path: Path, col=None):
    """Raising root operator; None when the minimum of H_i is 0."""
    col = column(path, i) if col is None else col
    m = min(col)
    if m >= 0:
        return None
    k1 = col.index(m)
    level = m + path.ts[-1]
    # last time before the first minimum at which H_i equals m + 1
    k = k1 - 1
    while col[k] < level:
        k -= 1
    g, t0 = _crossing(path, col, k, level, i)
    return _reflected(rs, path, i, g, t0, _time(path, k1) * g)


def f_op(rs: RootSystem, i: int, path: Path, col=None):
    """Lowering root operator; None when H_i(1) equals the minimum."""
    col = column(path, i) if col is None else col
    m = min(col)
    level = m + path.ts[-1]
    if col[-1] < level:
        return None
    k0 = len(col) - 1 - col[::-1].index(m)
    # first time after the last minimum at which H_i equals m + 1
    k = k0 + 1
    while col[k] < level:
        k += 1
    g, t1 = _crossing(path, col, k - 1, level, i)
    return _reflected(rs, path, i, g, _time(path, k0) * g, t1)


def eps_phi(rs: RootSystem, i: int, path: Path, col=None):
    """(number of applicable raisings, number of applicable lowerings)."""
    col = column(path, i) if col is None else col
    scale = path.ts[-1]
    m = min(col)
    phi = col[-1] - m
    if phi % scale:
        raise PathError(f"endpoint pairing at node {i} is not integral")
    return -m // scale, phi // scale

