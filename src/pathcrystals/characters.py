"""Finitely supported integer formal sums over weight lattices, and the one
engine that computes characters from root data: the Demazure operator.

A character is a dict from hashable weight keys to nonzero integers.  Three
key shapes circulate: full affine keys ``(c_0..c_n, c_delta)``, restricted
keys ``(c_1..c_n, c_delta)`` obtained by dropping the affine fundamental
coordinate, and finite keys ``(c_1..c_n)``.  The restriction map erases the
level, which is exactly what lets level-zero path weights be compared with
level-one crystal weights.  The route (b) blocks and the finite irreducibles
both come from the Demazure operator; this module runs no path code.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from .rootdata import RootSystem, Weight


class CharacterError(RuntimeError):
    pass


class Character(dict):
    """Integer-coefficient formal sum; zero coefficients are never stored."""

    def __missing__(self, key):
        return 0

    @classmethod
    def monomial(cls, key, coeff: int = 1):
        ch = cls()
        if coeff:
            ch[tuple(key)] = coeff
        return ch

    def add_term(self, key, coeff: int) -> None:
        """Add coeff at key in place; a coefficient that reaches zero is dropped."""
        new = self[key] + coeff
        if new:
            self[key] = new
        else:
            self.pop(key, None)

    def added(self, other, sign: int = 1) -> "Character":
        out = Character(self)
        for k, v in other.items():
            out.add_term(k, sign * v)
        return out

    def mass(self) -> int:
        return sum(self.values())


# -- key shapes ------------------------------------------------------------

def hd_key(rs: RootSystem, x: Weight) -> tuple:
    """Drop the affine fundamental coordinate: (c_1..c_n, c_delta)."""
    if rs.is_cl(x):
        raise CharacterError("restriction needs a full affine weight")
    return tuple(x[1:])


def finite_key(rs: RootSystem, x: Weight) -> tuple:
    """Finite pairings only."""
    return tuple(x[1 : rs.rank + 1])


def restrict_hd(rs: RootSystem, ch: Character) -> Character:
    out = Character()
    for k, v in ch.items():
        out.add_term(hd_key(rs, k), v)
    return out


def hd_finite_part(key) -> tuple:
    return key[:-1]


def hd_delta(key):
    return key[-1]


# -- lattice predicates ------------------------------------------------------

def in_q_plus_short(rs: RootSystem, lam_finite, key_finite) -> bool:
    """lam - key is a nonnegative integer sum of short simple roots."""
    den = rs.alpha_den
    diff = [a - b for a, b in zip(lam_finite, key_finite, strict=True)]
    for node, v in zip(rs.finite_nodes, rs.alpha_numerators(diff)):
        if node in rs.short_nodes:
            if v < 0 or v % den:
                return False
        elif v != 0:
            return False
    return True


# -- moving short keys to the full lattice -----------------------------------

def transport_short(rs: RootSystem, lam: Weight, key) -> tuple:
    """The restricted key lam - beta + m delta for the short system's
    restricted key ``key`` = lam_bar - beta + m delta, where lam_bar is lam
    read on the short nodes and each short simple root in beta stands for
    its namesake upstairs.  beta's coefficients are read off the short
    system's Cartan inverse, so the result is integral; a key off the coset
    lam_bar - Q^sh is an error."""
    sh = rs.short_system()
    diff = [lam[i] - c for i, c in zip(rs.short_nodes, hd_finite_part(key), strict=True)]
    out = list(finite_key(rs, lam))
    for node, v in zip(rs.short_nodes, sh.alpha_numerators(diff)):
        b, rem = divmod(v, sh.alpha_den)
        if rem:
            raise CharacterError(f"short key {key} is not lam_bar minus a short root-lattice element")
        for p, a in enumerate(rs.simple_root(node)[1 : rs.rank + 1]):
            out[p] -= b * a
    return tuple(out) + (hd_delta(key),)


# -- the Demazure character formula -----------------------------------------

def demazure_operator(rs: RootSystem, word, ch: Character) -> Character:
    """Demazure operators D_{word[0]} ... D_{word[-1]} applied to a character
    on full keys, rightmost letter first as in ``RootSystem.weyl_apply``
    (Kumar, Invent. Math. 89, 1987; Littelmann, Ann. of Math. 142, 1995):
    D_i e^x is the alpha_i-string from x down to s_i(x).  Each letter steps
    along the strings into a plain dict and drops zeros once at its end."""
    for i in reversed(word):
        alpha = rs.simple_root(i)
        out = {}
        get = out.get
        for key, c in ch.items():
            k = key[i]
            if k >= 0:
                out[key] = get(key, 0) + c
                step, n = sub, k
            else:  # the strict interior of the string, negated
                step, n, c = add, -1 - k, -c
            for _ in range(n):
                key = tuple(map(step, key, alpha))
                out[key] = get(key, 0) + c
        ch = {key: c for key, c in out.items() if c}
    return Character(ch)


@lru_cache(maxsize=None)
def finite_char(rs: RootSystem, mu_coeffs: tuple) -> Character:
    """Character of the irreducible finite-type module, on finite keys; a
    shared read-only instance."""
    if any(c < 0 for c in mu_coeffs):
        raise CharacterError("need a dominant weight")
    # the Demazure module of w_0, along a shortest word from mu to w_0(mu),
    # is the whole irreducible module
    mu = rs.weight_of(mu_coeffs)
    ch = demazure_operator(rs, rs.antidominantize_finite(mu)[1], Character.monomial(mu))
    ch = Character({key[1:-1]: c for key, c in ch.items()})
    if ch.mass() != rs.weyl_dimension(mu_coeffs):
        raise AssertionError(f"Demazure character of {mu_coeffs} misses the Weyl dimension")
    return ch


# -- peeling into building blocks -------------------------------------------

def hd_height(rs: RootSystem, key) -> int:
    """``alpha_den`` times the height of the finite part minus the grading.
    It strictly increases up the dominance order (one key lies below another
    when their finite parts differ by Q_+ and its grading is at least the
    other's), so a key that maximises it is maximal."""
    return rs.height_num(hd_finite_part(key)) - rs.alpha_den * hd_delta(key)


def peel_demazure(rs: RootSystem, ch: Character, char_of) -> list:
    """Strip a restricted character into the given building-block characters;
    returns ``[(nu, m, mult)]`` in stripping order.

    ``char_of(nu_coeffs, m)`` must return the restricted character of the
    block with top key ``nu + m delta``: coefficient 1 there and support
    below it in the dominance order.  That makes the blocks unitriangular, so a
    genuine input has exactly one expansion, and any maximal support key of
    the residue is a block top whose multiplicity is its coefficient.  The
    loop strips a key of greatest ``hd_height``, which is maximal; a
    non-dominant top, a negative multiplicity or a negative residue means
    the input was not a nonnegative sum of blocks.
    """
    residue = Character(ch)
    # stripping only removes keys (a new one would be negative), so every
    # height is computed once
    height = {k: hd_height(rs, k) for k in residue}
    out = []
    while residue:
        top = max(residue, key=height.__getitem__)
        nu, m, mult = hd_finite_part(top), hd_delta(top), residue[top]
        if any(c < 0 for c in nu):
            raise CharacterError(f"maximal key {top} is not dominant")
        if mult < 0:
            raise CharacterError(f"negative multiplicity at {top}")
        out.append((nu, m, mult))
        for key, coeff in char_of(nu, m).items():
            residue.add_term(key, -mult * coeff)
        if any(v < 0 for v in residue.values()):
            raise CharacterError(
                f"negative residue after stripping block {(nu, m)}: {dict(residue)}"
            )
    return out


def decompose_hd(rs: RootSystem, ch: Character) -> dict:
    """Decompose a restricted character slice-by-slice in the grading:
    returns {(mu, m): multiplicity} over dominant finite weights mu."""
    slices: dict = {}
    for key, v in ch.items():
        slices.setdefault(hd_delta(key), Character())[key] = v

    def placed(mu, m):
        return {k + (m,): c for k, c in finite_char(rs, mu).items()}

    out = {}
    for _, slice_ch in sorted(slices.items()):
        for mu, m, mult in peel_demazure(rs, slice_ch, placed):
            out[(mu, m)] = mult
    return out


# -- serialization -------------------------------------------------------------

def char_to_json(ch: Character) -> list:
    return [{"weight": list(k), "coeff": v}
            for k, v in sorted(ch.items(), key=lambda kv: tuple(map(str, kv[0])))]
