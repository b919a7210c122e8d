"""Untwisted affine root-system data for the finite types A-G.

Weights are plain tuples of ints.  A weight of the affine lattice
carries ``rank + 2`` entries ``(c_0, ..., c_n, c_delta)``: the coefficients on
the affine fundamental weights followed by the null-root coefficient.  A
classical (cl-projected) weight drops the last entry.  With this choice the
pairing against the i-th simple coroot is a coordinate read, and simple
reflections are integer column updates.

Node labels follow the standard tables (finite nodes 1..n, affine node 0);
for G2 node 1 is the long simple root and node 2 the short one.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add as plus, sub as minus

Weight = tuple  # (c_0, ..., c_n[, c_delta]) with int entries

ITERATION_CAP = 100_000


class RootDataError(ValueError):
    pass


def _chain_cartan(n: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _finite_tables(letter: str, rank: int):
    """Finite Cartan matrix, theta marks, comarks, r and short nodes."""
    n = rank
    if letter == "A":
        if n < 1:
            raise RootDataError("type A needs rank >= 1")
        return _chain_cartan(n), [1] * n, [1] * n, 1, ()
    if letter == "B":
        if n < 2:
            raise RootDataError("type B needs rank >= 2")
        c = _chain_cartan(n)
        c[n - 1][n - 2] = -2  # <alpha_{n-1}, alpha_n^vee> = -2
        marks = [1] + [2] * (n - 1)
        comarks = [1] + [2] * (n - 2) + [1]
        return c, marks, comarks, 2, (n,)
    if letter == "C":
        if n < 2:
            raise RootDataError("type C needs rank >= 2")
        c = _chain_cartan(n)
        c[n - 2][n - 1] = -2  # <alpha_n, alpha_{n-1}^vee> = -2
        marks = [2] * (n - 1) + [1]
        comarks = [1] * n
        return c, marks, comarks, 2, tuple(range(1, n))
    if letter == "D":
        if n < 4:
            raise RootDataError("type D needs rank >= 4")
        c = _chain_cartan(n - 1)
        for row in c:
            row.append(0)
        c.append([0] * n)
        c[n - 1][n - 1] = 2
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        marks = [1] + [2] * (n - 3) + [1, 1]
        return c, marks, list(marks), 1, ()
    if letter == "G":
        if n != 2:
            raise RootDataError("type G needs rank 2")
        c = [[2, -1], [-3, 2]]  # node 1 long, node 2 short
        return c, [2, 3], [2, 1], 3, (2,)
    if letter == "F":
        if n != 4:
            raise RootDataError("type F needs rank 4")
        c = _chain_cartan(4)
        c[2][1] = -2  # <alpha_2, alpha_3^vee> = -2
        return c, [2, 3, 4, 2], [2, 3, 2, 1], 2, (3, 4)
    if letter == "E":
        raise RootDataError("type E exceeds the supported rank table")
    raise RootDataError(f"unknown type letter {letter!r}")


def _minor(matrix, i: int, j: int) -> list:
    """The matrix without row i and column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(matrix) if k != i]


def _det(matrix) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * _det(_minor(matrix, 0, j)) for j, a in enumerate(matrix[0]) if a)


def _same_length(x: Weight, y: Weight) -> None:
    if len(x) != len(y):
        raise RootDataError(f"weights of lengths {len(x)} and {len(y)} do not combine")


class RootSystem:
    """Affine root-system instance for one finite type and rank.

    All derived tables (affine Cartan matrix, finite Cartan inverse, root
    enumerations) are computed once in the constructor; instances are
    immutable and shared through :func:`root_system`.
    """

    def __init__(self, letter: str, rank: int):
        cartan, marks, comarks, r, short_nodes = _finite_tables(letter, rank)
        self.letter = letter
        self.rank = rank
        self.finite_cartan = tuple(tuple(row) for row in cartan)
        self.comarks = (1,) + tuple(comarks)  # a_i^vee with a_0^vee = 1
        self.r = r
        self.nodes = range(rank + 1)
        self.finite_nodes = range(1, rank + 1)
        self.short_nodes = short_nodes
        # finite Cartan inverse, stored as integer numerators over one
        # denominator: the adjugate over the determinant
        self.alpha_den = _det(cartan)
        self._inv_num = tuple(
            tuple((-1) ** (i + j) * _det(_minor(cartan, j, i)) for j in range(rank))
            for i in range(rank)
        )
        # the inverse's column sums: alpha_den times the height of x is
        # their pairing with x
        self._height_row = tuple(sum(col) for col in zip(*self._inv_num))

        n = rank
        # affine Cartan: row 0 / column 0 from theta and theta^vee
        chat = [[0] * (n + 1) for _ in range(n + 1)]
        chat[0][0] = 2
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                chat[i][j] = cartan[i - 1][j - 1]
        for j in range(1, n + 1):
            chat[0][j] = -sum(comarks[i - 1] * cartan[i - 1][j - 1] for i in range(1, n + 1))
            chat[j][0] = -sum(marks[i - 1] * cartan[j - 1][i - 1] for i in range(1, n + 1))
        self.cartan = tuple(tuple(row) for row in chat)
        # alpha_i as columns of the affine Cartan matrix, keyed by cl
        self._alphas = {
            cl: tuple(tuple(row[i] for row in self.cartan) + (() if cl else (int(i == 0),))
                      for i in range(n + 1))
            for cl in (False, True)
        }

        for i in range(n + 1):
            for j in range(n + 1):
                if (self.cartan[i][j] == 0) != (self.cartan[j][i] == 0):
                    raise RootDataError("affine Cartan matrix fails the GCM symmetry test")
        # theta is long: <theta, theta^vee> = 2
        if sum(self.comarks[i] * -self.cartan[i][0] for i in range(1, n + 1)) != 2:
            raise RootDataError("marks/comarks tables are inconsistent")

    def __repr__(self):
        return f"RootSystem({self.letter}{self.rank})"

    @property
    def is_simply_laced(self) -> bool:
        return self.r == 1

    # -- weights ---------------------------------------------------------

    def simple_root(self, i: int, cl: bool = False) -> Weight:
        """alpha_i in the fundamental-weight basis; delta entry 1 iff i == 0."""
        if i not in self.nodes:
            raise RootDataError(f"unknown node index {i}")
        return self._alphas[cl][i]

    def fundamental(self, i: int) -> Weight:
        if i not in self.nodes:
            raise RootDataError(f"unknown node index {i}")
        return tuple(1 if k == i else 0 for k in range(self.rank + 2))

    def varpi(self, i: int) -> Weight:
        """Classical fundamental weight Lambda_i - a_i^vee Lambda_0, delta = 0."""
        if i not in self.finite_nodes:
            raise RootDataError(f"{i} is not a finite node")
        w = [0] * (self.rank + 2)
        w[i] = 1
        w[0] = -self.comarks[i]
        return tuple(w)

    def weight_of(self, varpi_coeffs, delta: int = 0, level: int = 0) -> Weight:
        """Sum of varpi multiples plus level * Lambda_0 plus delta * delta."""
        if len(varpi_coeffs) != self.rank:
            raise RootDataError("need one coefficient per finite node")
        w = [0] * (self.rank + 2)
        for i, c in enumerate(varpi_coeffs, start=1):
            w[i] += c
            w[0] -= c * self.comarks[i]
        w[0] += level
        w[-1] += delta
        return tuple(w)

    def level(self, x: Weight):
        return sum(self.comarks[i] * x[i] for i in self.nodes)

    def is_cl(self, x: Weight) -> bool:
        if len(x) == self.rank + 2:
            return False
        if len(x) == self.rank + 1:
            return True
        raise RootDataError(f"weight of length {len(x)} does not fit rank {self.rank}")

    def add(self, x: Weight, y: Weight) -> Weight:
        _same_length(x, y)
        return tuple(map(plus, x, y))

    def sub(self, x: Weight, y: Weight) -> Weight:
        _same_length(x, y)
        return tuple(map(minus, x, y))

    # -- reflections -----------------------------------------------------

    def reflect(self, i: int, x: Weight) -> Weight:
        """s_i(x) = x - <x, alpha_i^vee> alpha_i, on either lattice."""
        c = x[i]
        if c == 0:
            return x
        alpha = self.simple_root(i, cl=self.is_cl(x))
        return tuple([a - c * b for a, b in zip(x, alpha)])

    def weyl_apply(self, word, x: Weight) -> Weight:
        """Apply s_{word[0]} ... s_{word[-1]} to x (rightmost letter first)."""
        for i in reversed(word):
            x = self.reflect(i, x)
        return x

    def dominantize(self, x: Weight):
        """Dominant representative and a word with x = s_{j_1}...s_{j_k} Lambda.

        Reflects at the lowest violated node each step; terminates for
        integral weights of positive level.
        """
        if self.level(x) <= 0:
            raise RootDataError("dominantize needs a positive-level weight")
        if any(not isinstance(v, int) for v in x):
            raise RootDataError("dominantize needs an integral weight")
        word = []
        for _ in range(ITERATION_CAP):
            neg = next((i for i in self.nodes if x[i] < 0), None)
            if neg is None:
                return x, tuple(word)
            word.append(neg)
            x = self.reflect(neg, x)
        raise RootDataError("dominantize exceeded the iteration cap")

    def antidominantize_finite(self, lam: Weight):
        """Antidominant representative and a shortest word with it =
        s_{j_1}...s_{j_k} lam; for dominant lam that is w_0(lam)."""
        if self.level(lam) != 0 or (len(lam) == self.rank + 2 and lam[-1] != 0):
            raise RootDataError("expected a classical (level-zero) weight")
        x = lam
        word = []
        for _ in range(ITERATION_CAP):
            pos = next((i for i in self.finite_nodes if x[i] > 0), None)
            if pos is None:
                return x, tuple(reversed(word))
            word.append(pos)
            x = self.reflect(pos, x)
        raise RootDataError("antidominantize exceeded the iteration cap")

    # -- finite root enumeration ----------------------------------------

    def positive_coroots(self) -> tuple:
        """Positive coroots as coefficient tuples on (alpha_1^vee..alpha_n^vee):
        the positive roots of the transposed Cartan matrix."""
        return _positive_roots(tuple(zip(*self.finite_cartan)))

    def weyl_dimension(self, varpi_coeffs) -> int:
        """Dimension of the irreducible finite-type module, by the product formula."""
        num = 1
        den = 1
        for gv in self.positive_coroots():
            num *= sum(d * (c + 1) for d, c in zip(gv, varpi_coeffs))
            den *= sum(gv)
        if num % den:
            raise AssertionError(f"Weyl dimension {num}/{den} is not an integer")
        return num // den

    def alpha_numerators(self, finite) -> tuple:
        """Numerators over ``alpha_den`` of the coefficients on
        (alpha_1..alpha_n) of the weight with finite pairings ``finite``."""
        return tuple(sum(a * c for a, c in zip(row, finite)) for row in self._inv_num)

    def height_num(self, finite) -> int:
        """``alpha_den`` times the sum of the simple-root coefficients of the
        weight with finite pairings ``finite``."""
        return sum(a * c for a, c in zip(self._height_row, finite))

    # -- short subsystem -------------------------------------------------

    def short_system(self) -> "RootSystem":
        if self.is_simply_laced:
            raise RootDataError("short-subsystem operations need a non-simply-laced type")
        return root_system("A", len(self.short_nodes))


@lru_cache(maxsize=None)
def _positive_roots(cartan) -> tuple:
    """Positive roots of a finite Cartan matrix, as coefficient tuples on the
    simple roots, by reflecting the simple roots until nothing new appears."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in range(n):
                p = sum(gamma[j] * cartan[i][j] for j in range(n))
                refl = list(gamma)
                refl[i] -= p
                refl = tuple(refl)
                if all(v >= 0 for v in refl) and refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def root_system(letter: str, rank: int) -> RootSystem:
    return RootSystem(letter, rank)
