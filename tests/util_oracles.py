"""Independent oracles and random generators shared by the test modules.

The SL2 search here is deliberately separate from the reduce-and-compare
implementation it cross-checks: it enumerates every determinant-1 integer
matrix with bounded entries and transforms the form coordinates directly.
The discriminant-form oracles are the whole-group exhaustive isomorphism
search that the prime-by-prime ``FiniteQF.is_isomorphic`` replaced, and
the Fraction construction of a discriminant form from dual vectors that
the integer ``FiniteQF.from_lattice`` replaced.  The subgroup oracle closes
candidate classes under addition, as ``generators_report`` once did.  The
split-axis grid fills the m x m table of residues mod m = p^e that the
orbit sweep of ``local_obstruction`` replaced.  The dual-vector oracles
multiply G by Fraction vectors, as ``is_dual_vector``, ``qnorm_mod2Z``,
``pairing_modZ`` and ``order_in_quotient`` did before they cleared
denominators, and the factorizer is the plain trial division that
``arith.factorize`` extends.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import numpy as np

from k3latt.binforms import EvenBinaryForm, UnimodularTransform, enumerate_reduced
from k3latt.discforms import FiniteQF
from k3latt.lattice import (
    DegenerateLattice,
    DimensionMismatch,
    GramMatrix,
    NotInDual,
    OddLattice,
    as_vector,
    determinant,
    discriminant_group,
    is_dual_vector,
    pairing_modZ,
    qnorm_mod2Z,
    smith_normal_form,
)
from k3latt.ternary import TernaryForm, _split_axis


@lru_cache(maxsize=None)
def sl2_entries(bound: int):
    """All (p, q, r, s) with det == 1 and |entries| <= bound, as numpy columns."""
    vals = range(-bound, bound + 1)
    quad = [(p, q, r, s)
            for p in vals for q in vals for r in vals for s in vals
            if p * s - q * r == 1]
    arr = np.array(quad, dtype=np.int64)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


def brute_force_equivalent(f1: EvenBinaryForm, f2: EvenBinaryForm, bound: int = 10) -> bool:
    """Is there gamma with entries <= bound and gamma^T M1 gamma == M2?"""
    p, q, r, s = sl2_entries(bound)
    a, b, c = f1.a, f1.b, f1.c
    a2 = a * p * p + c * p * r + b * r * r
    b2 = a * q * q + c * q * s + b * s * s
    c2 = 2 * a * p * q + c * (p * s + q * r) + 2 * b * r * s
    return bool(((a2 == f2.a) & (b2 == f2.b) & (c2 == f2.c)).any())


def random_sl2(rng: random.Random, bound: int = 20) -> UnimodularTransform:
    """Random SL2(Z) element with entries bounded by `bound`.

    Built as a short word in the standard generators, rejected if it grows
    past the bound, so the distribution covers shears and swaps.
    """
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(-3, 3)
            step = ((1, k), (0, 1)) if rng.random() < 0.5 else ((0, -1), (1, 0))
            m = ((m[0][0] * step[0][0] + m[0][1] * step[1][0],
                  m[0][0] * step[0][1] + m[0][1] * step[1][1]),
                 (m[1][0] * step[0][0] + m[1][1] * step[1][0],
                  m[1][0] * step[0][1] + m[1][1] * step[1][1]))
        if all(abs(x) <= bound for row in m for x in row):
            return UnimodularTransform(m)


def random_even_gram(rng: random.Random, rank: int, entry_bound: int = 10,
                     require_nondegenerate: bool = True) -> GramMatrix:
    """Random symmetric integer matrix with even diagonal, nonzero det."""
    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-entry_bound, entry_bound)
        g = GramMatrix.from_rows(rows)
        if not require_nondegenerate or determinant(g) != 0:
            return g


def random_posdef_form(rng: random.Random, bound: int = 12) -> EvenBinaryForm:
    while True:
        a = rng.randint(1, bound)
        b = rng.randint(1, bound)
        c = rng.randint(-bound, bound)
        if 4 * a * b - c * c > 0:
            return EvenBinaryForm(a, b, c)



def change_basis(g: GramMatrix, rng: random.Random, steps: int = 6) -> GramMatrix:
    """U^T G U for a random unimodular U built from row shears and swaps."""
    rows = [list(r) for r in g.rows]
    n = len(rows)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            for r in rows:
                r[i], r[j] = r[j], r[i]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randint(-2, 2)
            for r in rows:  # column i += c * column j
                r[i] += c * r[j]
            for k in range(n):  # row i += c * row j
                rows[i][k] += c * rows[j][k]
    return GramMatrix.from_rows(rows)


def shear(f: FiniteQF, i: int, j: int, c: int) -> FiniteQF:
    """The same form on the generators with g_i replaced by g_i + c * g_j.

    That is a change of generators when c * g_j has order dividing m_i.
    """
    k = len(f.orders)
    coeffs = [[int(r == s) for s in range(k)] for r in range(k)]
    coeffs[i][j] += c
    q = tuple(f.evaluate(v) for v in coeffs)
    b = tuple(tuple(f.pairing(v, w) for w in coeffs) for v in coeffs)
    return FiniteQF(f.orders, q, b)


def scale_form(f: FiniteQF, u: int) -> FiniteQF:
    """q -> u * q on the same generators (nondegenerate when u is a unit)."""
    return FiniteQF(f.orders, tuple(u * v % 2 for v in f.q),
                    tuple(tuple(u * x % 1 for x in row) for row in f.b))

# -- whole-group discriminant-form isomorphism --------------------------------

def _prime_power_factors(orders) -> Counter:
    out: Counter = Counter()
    for m in orders:
        d = 2
        while d * d <= m:
            if m % d == 0:
                pe = 1
                while m % d == 0:
                    pe *= d
                    m //= d
                out[pe] += 1
            d += 1
        if m > 1:
            out[m] += 1
    return out


def _element_order(orders, x) -> int:
    return lcm(*(m // gcd(m, xi) for m, xi in zip(orders, x))) if x else 1


def _scaled_table(f: FiniteQF, scale: int) -> dict:
    """(element order, q * scale mod 2 * scale) for every group element."""
    k = len(f.orders)
    qs = [int(v * scale) for v in f.q]
    bs = [[int(x * scale) for x in row] for row in f.b]
    table = {}
    for x in product(*(range(m) for m in f.orders)):
        val = 0
        for i in range(k):
            if x[i]:
                val += x[i] * x[i] * qs[i]
                for j in range(i + 1, k):
                    val += 2 * x[i] * x[j] * bs[i][j]
        table[x] = (_element_order(f.orders, x), val % (2 * scale))
    return table


def _generates_all(images, orders) -> bool:
    k = len(orders)
    mat = [[img[r] for img in images] + [orders[r] if c == r else 0 for c in range(k)]
           for r in range(k)]
    snf = smith_normal_form(mat)
    return all(snf.D[i][i] == 1 for i in range(k))


def exhaustive_isomorphic(f1: FiniteQF, f2: FiniteQF) -> bool:
    """Search the whole group for generator images carrying q1 to q2.

    Images are pruned by (element order, q value) and by the pairings with
    the images already chosen; a full assignment must generate the target.
    No bound is applied.
    """
    n1, n2 = f1.group_order, f2.group_order
    if n1 != n2 or _prime_power_factors(f1.orders) != _prime_power_factors(f2.orders):
        return False
    if not f1.orders:
        return True
    scale = lcm(*([v.denominator for v in f1.q + f2.q]
                  + [x.denominator for f in (f1, f2) for row in f.b for x in row]))
    table1, table2 = _scaled_table(f1, scale), _scaled_table(f2, scale)
    if Counter(table1.values()) != Counter(table2.values()):
        return False
    by_sig: dict = {}
    for x, sig in table2.items():
        by_sig.setdefault(sig, []).append(x)
    k = len(f1.orders)
    idx = sorted(range(k), key=lambda i: -f1.orders[i])
    qs1 = [int(v * scale) for v in f1.q]
    bs1 = [[int(x * scale) for x in row] for row in f1.b]
    bs2 = [[int(x * scale) for x in row] for row in f2.b]

    def pair2(x, y) -> int:
        return sum(x[i] * y[j] * bs2[i][j]
                   for i in range(len(x)) for j in range(len(y))) % scale

    images = [None] * k

    def search(pos: int) -> bool:
        if pos == k:
            return _generates_all(images, f2.orders)
        i = idx[pos]
        for cand in by_sig.get((f1.orders[i], qs1[i] % (2 * scale)), ()):
            if all(pair2(cand, images[prev]) == bs1[i][prev] % scale for prev in idx[:pos]):
                images[i] = cand
                if search(pos + 1):
                    return True
                images[i] = None
        return False

    return search(0)


def exhaustive_genus_partition(d: int) -> list[list[EvenBinaryForm]]:
    """Reduced forms of discriminant d grouped by pairwise exhaustive search."""
    forms = enumerate_reduced(d)
    disc = [FiniteQF.from_lattice(f.gram) for f in forms]
    groups: list[list[int]] = []
    for i in range(len(forms)):
        for g in groups:
            if exhaustive_isomorphic(disc[g[0]], disc[i]):
                g.append(i)
                break
        else:
            groups.append([i])
    return [[forms[i] for i in g] for g in groups]


# -- Fraction discriminant forms and subgroup closure ---------------------------

def fraction_from_lattice(g: GramMatrix) -> FiniteQF:
    """Discriminant form from the Fraction generators of ``discriminant_group``."""
    if not g.is_even():
        raise OddLattice("discriminant form requires an even lattice")
    if determinant(g) == 0:
        raise DegenerateLattice("discriminant form requires det != 0")
    factors, gens = discriminant_group(g)
    q = tuple(qnorm_mod2Z(g, v) for v in gens)
    k = len(gens)
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        b[i][i] = q[i] % 1
        for j in range(i + 1, k):
            b[i][j] = b[j][i] = pairing_modZ(g, gens[i], gens[j])
    return FiniteQF(tuple(factors), q, tuple(tuple(r) for r in b))


def closure_subgroup_order(g: GramMatrix, candidates) -> int:
    """Order of the subgroup of L^dual/L generated by the dual classes c/n.

    Classes are vectors mod Z^rank; the subgroup is closed under addition
    breadth first, so time and memory grow with its order.
    """
    def mod1(v):
        return tuple(c % 1 for c in v)

    gens = [mod1(tuple(Fraction(c, n) for c in coeffs)) for coeffs, n in candidates]
    gens = [v for v in gens if is_dual_vector(g, v)]
    seen = {tuple(Fraction(0) for _ in range(g.n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for w in gens:
                x = mod1(tuple(a + c for a, c in zip(v, w)))
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return len(seen)


# -- split-axis local obstruction on the full residue grid ----------------------

def split_grid_obstruction(f: TernaryForm, p: int, e: int) -> bool:
    """``local_obstruction`` of a split form, from every pair of residues mod p^e.

    The values of the rank-2 block are collected over the whole m x m grid,
    m = p^e, once for primitive pairs and once for all pairs, and then the
    remaining coordinate is swept.  Time and memory are quadratic in m.
    """
    axis = _split_axis(f.gram)
    assert axis is not None, "the grid oracle needs a split form"
    m = p ** e
    i, j = [t for t in range(3) if t != axis]
    g = f.gram.rows
    cxx, cxy, cyy = g[i][i] % m, (2 * g[i][j]) % m, g[j][j] % m
    czz = g[axis][axis] % m
    xs = np.arange(m, dtype=np.int64)
    col = xs[:, None]
    row = xs[None, :]
    vals = (cxx * col * col + cxy * col * row + cyy * row * row) % m
    prim_pair = (col % p != 0) | (row % p != 0)
    attained_all = np.zeros(m, dtype=bool)
    attained_prim = np.zeros(m, dtype=bool)
    attained_all[vals.ravel()] = True
    attained_prim[vals[prim_pair].ravel()] = True
    zs = xs
    targets = (-(czz * zs * zs)) % m
    if attained_prim[targets].any():
        return False
    z_prim = zs % p != 0
    if (z_prim & attained_all[targets]).any():
        return False
    return True


# -- dual vectors with Fraction arithmetic --------------------------------------

def fraction_mul(g: GramMatrix, v) -> tuple[Fraction, ...]:
    """G*v with exact rationals."""
    if len(v) != g.n:
        raise DimensionMismatch(f"expected length {g.n}, got {len(v)}")
    return tuple(sum((Fraction(x) * c for x, c in zip(row, v)), Fraction(0))
                 for row in g.rows)


def fraction_is_dual_vector(g: GramMatrix, v) -> bool:
    return all(x.denominator == 1 for x in fraction_mul(g, as_vector(v)))


def fraction_qnorm_mod2Z(g: GramMatrix, v) -> Fraction:
    vv = as_vector(v)
    if not fraction_is_dual_vector(g, vv):
        raise NotInDual(f"{vv} is not in the dual lattice")
    return sum((c * w for c, w in zip(vv, fraction_mul(g, vv))), Fraction(0)) % 2


def fraction_pairing_modZ(g: GramMatrix, v, w) -> Fraction:
    vv, ww = as_vector(v), as_vector(w)
    if not fraction_is_dual_vector(g, vv) or not fraction_is_dual_vector(g, ww):
        raise NotInDual("both vectors must lie in the dual lattice")
    return sum((c * x for c, x in zip(vv, fraction_mul(g, ww))), Fraction(0)) % 1


def fraction_order_in_quotient(g: GramMatrix, v) -> int:
    vv = as_vector(v)
    if not fraction_is_dual_vector(g, vv):
        raise NotInDual(f"{vv} is not in the dual lattice")
    return lcm(*(c.denominator for c in vv)) if vv else 1


# -- factoring ------------------------------------------------------------------

def trial_division_factorize(m: int) -> dict[int, int]:
    """Prime factorization {p: e} of m >= 1 by trial division up to sqrt(m)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out
