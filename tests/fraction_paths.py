# Reference for the differential tests: the Fraction-breakpoint path kernel
# that pathcrystals.paths replaced, kept verbatim apart from its imports;
# the functions no test compares against (straight, the crystal reflections,
# JSON) are left out.
"""Piecewise-linear paths and the root operators acting on them.

A path is stored by its expression: a sequence of direction weights and the
strictly increasing rational breakpoints where the direction changes.  Two
paths are equal exactly when their canonical forms agree (zero-length
segments dropped, equal adjacent directions merged), which makes paths
hashable and crystal generation a plain set closure.

All breakpoint arithmetic is exact: the times where a pairing profile
crosses an integer level are rational and computed as such; no tolerances
appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from helpers import normalize_weight
from pathcrystals.rootdata import RootSystem, Weight

ZERO = Fraction(0)
ONE = Fraction(1)


class PathError(ValueError):
    pass


@dataclass(frozen=True)
class Path:
    """Canonical expression (mu_1..mu_N; sigma_1 < ... < sigma_N = 1).

    ``sigmas`` holds the right endpoint of each segment; the left endpoint of
    the first segment is 0.  Directions are weight tuples of the ambient
    lattice (with or without the null-root entry).
    """

    dirs: tuple
    sigmas: tuple

    def __post_init__(self):
        if len(self.dirs) != len(self.sigmas) or not self.dirs:
            raise PathError("expression lengths differ or are empty")
        if self.sigmas[-1] != 1:
            raise PathError("final breakpoint must be 1")

    def value(self, t) -> tuple:
        """pi(t), exactly."""
        t = Fraction(t)
        acc = [ZERO] * len(self.dirs[0])
        prev = ZERO
        for mu, s in zip(self.dirs, self.sigmas):
            seg = min(t, s) - prev
            if seg <= 0:
                break
            for p, c in enumerate(mu):
                acc[p] += seg * c
            prev = s
        return tuple(acc)

    def endpoint(self) -> Weight:
        return normalize_weight(self.value(ONE))


def make_path(dirs, sigmas) -> Path:
    """Canonicalize an expression: drop empty segments, merge equal neighbours."""
    out_dirs = []
    out_sigmas = []
    prev = ZERO
    for mu, s in zip(dirs, sigmas):
        s = Fraction(s)
        if s < prev:
            raise PathError("breakpoints must be nondecreasing")
        if s == prev:
            continue
        mu = normalize_weight(mu)
        if out_dirs and out_dirs[-1] == mu:
            out_sigmas[-1] = s
        else:
            out_dirs.append(mu)
            out_sigmas.append(s)
        prev = s
    if not out_dirs:
        raise PathError("empty path expression")
    return Path(tuple(out_dirs), tuple(out_sigmas))


def shift(path: Path, weight: Weight) -> Path:
    """Add the straight-line path of ``weight`` pointwise."""
    dirs = [tuple(a + b for a, b in zip(mu, weight)) for mu in path.dirs]
    return make_path(dirs, path.sigmas)


def concat(p1: Path, p2: Path) -> Path:
    """Concatenation: p1 traversed on [0, 1/2], then p2 from p1's endpoint.

    Each factor runs at double speed, so directions double while the
    breakpoints compress into the half-intervals.
    """
    if len(p1.dirs[0]) != len(p2.dirs[0]):
        raise PathError("concatenation needs a common lattice")
    dirs = [tuple(2 * c for c in mu) for mu in p1.dirs + p2.dirs]
    sigmas = [s / 2 for s in p1.sigmas] + [(1 + s) / 2 for s in p2.sigmas]
    return make_path(dirs, sigmas)


def cl_path(rs: RootSystem, path: Path) -> Path:
    """Project every direction along cl (drop the null-root entry)."""
    if rs.is_cl(path.dirs[0]):
        return path
    return make_path([mu[:-1] for mu in path.dirs], path.sigmas)


# -- pairing profiles ----------------------------------------------------

def h_profile(rs: RootSystem, path: Path, i: int):
    """Breakpoint values of H_i: pairs (t, <pi(t), alpha_i^vee>) at 0 and
    every sigma.  H_i is linear in between, so these determine it."""
    vals = [(ZERO, ZERO)]
    h = ZERO
    prev = ZERO
    for mu, s in zip(path.dirs, path.sigmas):
        h += (s - prev) * mu[i]
        vals.append((s, h))
        prev = s
    return vals

def min_h(rs: RootSystem, path: Path, i: int):
    return min(v for _, v in h_profile(rs, path, i))


def _local_min_values(profile):
    """Values of the local minima of a breakpoint profile.

    t = 0 always counts (value 0); t = 1 counts when the last nonconstant
    stretch descends; an interior breakpoint counts when the surrounding
    nonconstant stretches descend then ascend.
    """
    compressed = [profile[0][1]]
    for _, v in profile[1:]:
        if v != compressed[-1]:
            compressed.append(v)
    mins = [compressed[0]]
    for k in range(1, len(compressed) - 1):
        if compressed[k - 1] > compressed[k] < compressed[k + 1]:
            mins.append(compressed[k])
    if len(compressed) > 1 and compressed[-2] > compressed[-1]:
        mins.append(compressed[-1])
    return mins


def is_integral(rs: RootSystem, path: Path) -> bool:
    """Every local minimum of every H_i is an integer."""
    for i in rs.nodes:
        for v in _local_min_values(h_profile(rs, path, i)):
            if Fraction(v).denominator != 1:
                return False
    return True


def _require_axis_integral(rs, path, i, profile):
    for v in _local_min_values(profile):
        if Fraction(v).denominator != 1:
            raise PathError(f"path is not integral along node {i}")


def _last_time_at_level(profile, level, limit):
    """max{t <= limit : H(t) = level}; the profile must attain it."""
    best = None
    for k in range(1, len(profile)):
        (t0, v0), (t1, v1) = profile[k - 1], profile[k]
        if t0 > limit:
            break
        hi = min(t1, limit)
        if v1 == level and t1 <= limit:
            best = t1
        if v0 == level:
            best = max(best, t0) if best is not None else t0
        if (v0 < level < v1) or (v1 < level < v0):
            cross = t0 + (level - v0) * (t1 - t0) / (v1 - v0)
            if cross <= hi:
                best = max(best, cross) if best is not None else cross
    if best is None and profile[0][1] == level:
        best = ZERO
    if best is None:
        raise PathError("level not attained")
    return best


def _first_time_at_level(profile, level, start):
    """min{t >= start : H(t) = level}; the profile must attain it."""
    for k in range(1, len(profile)):
        (t0, v0), (t1, v1) = profile[k - 1], profile[k]
        if t1 < start:
            continue
        if v0 == level and t0 >= start:
            return t0
        if (v0 < level < v1) or (v1 < level < v0):
            cross = t0 + (level - v0) * (t1 - t0) / (v1 - v0)
            if cross >= start:
                return cross
        if v1 == level and t1 >= start:
            return t1
    raise PathError("level not attained")


def _rebuild(rs, path, i, t0, t1):
    """Copy ``path`` with the stretch (t0, t1) reflected by s_i."""
    cl = rs.is_cl(path.dirs[0])
    dirs = []
    sigmas = []
    prev = ZERO
    cuts = sorted(set(path.sigmas) | {t0, t1})
    for s in cuts:
        if s <= ZERO or s > ONE:
            continue
        # direction of the original path on (prev, s]
        for mu, sp in zip(path.dirs, path.sigmas):
            if sp > prev:
                seg_dir = mu
                break
        if t0 < s <= t1:
            seg_dir = rs.reflect(i, seg_dir)
        dirs.append(seg_dir)
        sigmas.append(s)
        prev = s
    return make_path(dirs, sigmas)


def e_op(rs: RootSystem, i: int, path: Path):
    """Raising root operator; None when the minimum of H_i is 0."""
    profile = h_profile(rs, path, i)
    _require_axis_integral(rs, path, i, profile)
    m = min(v for _, v in profile)
    if m >= 0:
        return None
    t1 = next(t for t, v in profile if v == m)
    t0 = _last_time_at_level(profile, m + 1, t1)
    return _rebuild(rs, path, i, t0, t1)


def f_op(rs: RootSystem, i: int, path: Path):
    """Lowering root operator; None when H_i(1) equals the minimum."""
    profile = h_profile(rs, path, i)
    _require_axis_integral(rs, path, i, profile)
    m = min(v for _, v in profile)
    if profile[-1][1] < m + 1:
        return None
    t0 = max(t for t, v in profile if v == m)
    t1 = _first_time_at_level(profile, m + 1, t0)
    return _rebuild(rs, path, i, t0, t1)


def eps_phi(rs: RootSystem, i: int, path: Path):
    """(number of applicable raisings, number of applicable lowerings)."""
    profile = h_profile(rs, path, i)
    _require_axis_integral(rs, path, i, profile)
    m = min(v for _, v in profile)
    phi = profile[-1][1] - m
    if Fraction(phi).denominator != 1:
        raise PathError(f"endpoint pairing at node {i} is not integral")
    return int(-m), int(phi)

