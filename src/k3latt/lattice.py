"""Exact linear algebra over Z and Q for integral lattices.

Everything runs on arbitrary-precision integers, and on
``fractions.Fraction`` where a result is rational (dual vectors, their norms
and pairings); no floating point enters any code path, so quantities like
norms mod 2Z stay exact and comparable.  Determinant and signature are
fraction-free, so only the rational functions import ``fractions``.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence, TypeAlias

from .value import Value

if TYPE_CHECKING:
    from fractions import Fraction

Vector: TypeAlias = "tuple[Fraction, ...]"
IntRows = tuple[tuple[int, ...], ...]


class DegenerateLattice(ValueError):
    """A nondegenerate Gram matrix is required but det == 0."""


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not agree."""


class NotInDual(ValueError):
    """The vector does not pair integrally with the lattice."""


class OddLattice(ValueError):
    """An even lattice is required but some diagonal entry is odd."""


class ZeroTwist(ValueError):
    """twist() called with factor 0."""


class DegenerateSublattice(ValueError):
    """The sublattice basis matrix is singular."""


def as_vector(coords: Iterable) -> Vector:
    """Coerce a sequence of ints / 'p/q' strings / Fractions to exact rationals."""
    from fractions import Fraction
    return tuple(Fraction(c) for c in coords)


class GramMatrix(Value):
    """Symmetric integer matrix of a bilinear form on Z^n."""

    __slots__ = ("rows",)
    rows: IntRows

    def __init__(self, rows):
        rows = tuple(tuple(map(int, row)) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "GramMatrix":
        return cls(rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_even(self) -> bool:
        return all(self.rows[i][i] % 2 == 0 for i in range(self.n))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def _rows_of(mat) -> list[list[int]]:
    if isinstance(mat, GramMatrix):
        mat = mat.rows
    return [[int(x) for x in row] for row in mat]


def determinant(mat) -> int:
    """Exact determinant of a square integer matrix (Bareiss, fraction-free)."""
    a = _rows_of(mat)
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signature(g: GramMatrix) -> tuple[int, int]:
    """(s+, s-) of a nondegenerate form, by fraction-free symmetric elimination.

    Bareiss elimination keeps every entry an integer: after step k the
    trailing block is the rational Schur complement times the k-th pivot,
    which is a leading principal minor.  So the pivot of the rational
    LDL^T reduction is a quotient of consecutive minors, its sign is
    sign(a_kk) * sign(previous pivot), and Sylvester's law counts those
    signs.  Zero pivots are repaired by a congruence inside the trailing
    block (row/col swap, or adding a row+column when the whole remaining
    diagonal vanishes); a row of zeros there means det == 0.
    """
    n = g.n
    a = [list(row) for row in g.rows]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                for r in range(k, n):
                    a[r][k], a[r][j] = a[r][j], a[r][k]
                a[k], a[j] = a[j], a[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    raise DegenerateLattice("signature undefined for det == 0")
                for c in range(k, n):
                    a[k][c] += a[j][c]
                for r in range(k, n):
                    a[r][k] += a[r][j]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        pivot_row = a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                q, rem = divmod(row[j] * p - f * pivot_row[j], prev)
                if rem:
                    raise AssertionError(f"Bareiss division by {prev} left remainder {rem}")
                row[j] = q
        prev = p
    return pos, neg


class SNFResult(Value):
    """Smith normal form U*M*V == D with unimodular U, V and chained divisors."""

    __slots__ = ("U", "D", "V")
    U: IntRows
    D: IntRows
    V: IntRows

    def __init__(self, U: IntRows, D: IntRows, V: IntRows):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.D), len(self.D[0])))
                     if self.D[i][i] != 0)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> SNFResult:
    """Smith normal form of an integer matrix, with both transforms.

    Runs elementary row/column operations, keeping U and V in sync so that
    U*M*V == D holds exactly.  Each pivot, once settled, divides every entry
    of its trailing submatrix, which makes the diagonal a divisor chain.
    """
    a = _rows_of(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        arow, srow = a[dst], a[src]
        for c in range(n):
            arow[c] += q * srow[c]
        urow, usrc = u[dst], u[src]
        for c in range(m):
            urow[c] += q * usrc[c]

    def add_col(dst, src, q):  # col_dst += q * col_src
        for r in range(m):
            a[r][dst] += q * a[r][src]
        for r in range(n):
            v[r][dst] += q * v[r][src]

    for t in range(min(m, n)):
        # pick the absolutely smallest nonzero entry of the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:  # remainder strictly smaller: promote it
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; force the pivot to divide the rest
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)

        if a[t][t] < 0:
            for c in range(n):
                a[t][c] = -a[t][c]
            for c in range(m):
                u[t][c] = -u[t][c]

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SNFResult(freeze(u), freeze(a), freeze(v))


def discriminant_group(g: GramMatrix) -> tuple[list[int], list[Vector]]:
    """Invariant factors (> 1) of L^dual/L and matching generators.

    With U*G*V == D, the class of (column i of V)/D[i][i] has exact order
    D[i][i] in the quotient, and together these classes generate it.
    """
    if determinant(g) == 0:
        raise DegenerateLattice("discriminant group needs det != 0")
    from fractions import Fraction
    snf = smith_normal_form(g.rows)
    n = g.n
    factors: list[int] = []
    gens: list[Vector] = []
    for i in range(n):
        d = snf.D[i][i]
        if d > 1:
            factors.append(d)
            gens.append(tuple(Fraction(snf.V[r][i], d) % 1 for r in range(n)))
    return factors, gens


def _over_common_denominator(g: GramMatrix,
                             v: Sequence) -> tuple[Vector, list[int], int, list[int]]:
    """(v as rationals, c, n, G*c) with v = c/n and n the least common denominator.

    v lies in the dual lattice iff G*v = G*c/n is integral, i.e. n divides
    every entry of G*c; then v^T G w = c^T G d / (n m) for w = d/m.
    """
    vv = as_vector(v)
    if len(vv) != g.n:
        raise DimensionMismatch(f"expected length {g.n}, got {len(vv)}")
    n = lcm(*(x.denominator for x in vv))
    c = [x.numerator * (n // x.denominator) for x in vv]
    return vv, c, n, [sum(map(mul, row, c)) for row in g.rows]


def is_dual_vector(g: GramMatrix, v: Sequence) -> bool:
    """True iff G*v is integral, i.e. v pairs integrally with every lattice vector."""
    _, _, n, gc = _over_common_denominator(g, v)
    return all(x % n == 0 for x in gc)


def qnorm_mod2Z(g: GramMatrix, v: Sequence) -> Fraction:
    """v^T G v reduced into the canonical representative [0, 2) of Q/2Z."""
    from fractions import Fraction
    vv, c, n, gc = _over_common_denominator(g, v)
    if any(x % n for x in gc):
        raise NotInDual(f"{vv} is not in the dual lattice")
    return Fraction(sum(map(mul, c, gc)), n * n) % 2


def pairing_modZ(g: GramMatrix, v: Sequence, w: Sequence) -> Fraction:
    """v^T G w reduced into [0, 1), defined for dual vectors."""
    _, c, n, gc = _over_common_denominator(g, v)
    if not any(x % n for x in gc):
        _, d, m, gd = _over_common_denominator(g, w)
        if not any(x % m for x in gd):
            from fractions import Fraction
            return Fraction(sum(map(mul, c, gd)), n * m) % 1
    raise NotInDual("both vectors must lie in the dual lattice")


def order_in_quotient(g: GramMatrix, v: Sequence) -> int:
    """Least n >= 1 with n*v integral, i.e. the order of [v] in L^dual/L."""
    vv, _, n, gc = _over_common_denominator(g, v)
    if any(x % n for x in gc):
        raise NotInDual(f"{vv} is not in the dual lattice")
    return n


def sublattice_index_law(g_l: GramMatrix, basis_m) -> tuple[int, bool]:
    """Index of the sublattice spanned by the columns-in-L-coordinates of basis_m.

    Returns (|det basis|, verified) where verified checks
    index^2 * d(L) == d(M) with d(M) = det(B^T G B).
    """
    b = _rows_of(basis_m)
    n = g_l.n
    if len(b) != n or any(len(r) != n for r in b):
        raise DimensionMismatch("basis matrix must be n x n")
    det_b = determinant(b)
    if det_b == 0:
        raise DegenerateSublattice("basis matrix is singular")
    index = abs(det_b)
    gb = [[sum(g_l.rows[i][k] * b[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    btgb = [[sum(b[k][i] * gb[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    d_m = determinant(btgb)
    d_l = determinant(g_l)
    return index, d_m == index * index * d_l


def direct_sum(*grams: GramMatrix) -> GramMatrix:
    """Block-diagonal sum of Gram matrices."""
    if not grams:
        raise ValueError("direct_sum needs at least one summand")
    total = sum(g.n for g in grams)
    rows = [[0] * total for _ in range(total)]
    off = 0
    for g in grams:
        for i in range(g.n):
            for j in range(g.n):
                rows[off + i][off + j] = g.rows[i][j]
        off += g.n
    return GramMatrix.from_rows(rows)


def twist(g: GramMatrix, n: int) -> GramMatrix:
    """Scale the form by a nonzero integer: L(n)."""
    if n == 0:
        raise ZeroTwist("twist factor must be nonzero")
    return GramMatrix.from_rows([[n * x for x in row] for row in g.rows])


# Standard built-in lattices.
U = GramMatrix.from_rows([[0, 1], [1, 0]])

E8 = GramMatrix.from_rows([
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
])

A2 = GramMatrix.from_rows([[2, -1], [-1, 2]])

# Full K3 lattice -E8 + -E8 + U + U + U and the Hessian-quartic lattice.
K3_LATTICE = direct_sum(twist(E8, -1), twist(E8, -1), U, U, U)
T_HESS = direct_sum(U, twist(U, 2), twist(A2, -2))
