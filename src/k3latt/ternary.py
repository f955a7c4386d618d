"""Integer isotropy of ternary quadratic forms: witness or local obstruction.

A witness is a nonzero integer vector v with v^T G v == 0.  A local
obstruction at (p, e) certifies that no vector with a coordinate prime to p
satisfies the congruence mod p^e, established by exhaustive search over
residues; an obstruction at any precision rules out a witness outright.
The solver makes no completeness claim: when the witness box and the tried
primes are both exhausted it answers "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional, Sequence

from .lattice import DegenerateLattice, GramMatrix, determinant, signature, twist

DEFAULT_BOUND = 20
DEFAULT_BUDGET = 500_000_000


class SearchTooLarge(ValueError):
    """The modular search would exceed the work budget."""


class WrongSignature(ValueError):
    """A signature-(2,1) lattice is required."""


@dataclass(frozen=True)
class TernaryForm:
    gram: GramMatrix

    def __post_init__(self):
        if self.gram.n != 3:
            raise ValueError("ternary form needs a 3x3 Gram matrix")
        if determinant(self.gram) == 0:
            raise DegenerateLattice("ternary form must be nondegenerate")

    def value(self, v: Sequence[int]) -> int:
        x, y, z = v
        g = self.gram.rows
        return (g[0][0] * x * x + g[1][1] * y * y + g[2][2] * z * z
                + 2 * (g[0][1] * x * y + g[0][2] * x * z + g[1][2] * y * z))


@dataclass(frozen=True)
class IsotropyVerdict:
    kind: str  # "witness" | "obstruction" | "inconclusive"
    witness: Optional[tuple[int, int, int]] = None
    prime: Optional[int] = None
    precision: Optional[int] = None
    bound: Optional[int] = None
    primes_tested: Optional[tuple[int, ...]] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.prime is not None:
            out["prime"] = self.prime
            out["precision"] = self.precision
        if self.kind == "inconclusive":
            out["bound"] = self.bound
            out["primes_tested"] = list(self.primes_tested or ())
        return out


def _signed_range(h: int):
    yield 0
    for k in range(1, h + 1):
        yield k
        yield -k


def find_isotropic(f: TernaryForm, bound: int) -> Optional[tuple[int, int, int]]:
    """First nonzero v with |v_i| <= bound and v^T G v == 0, or None.

    Scans (x, y) outward from 0 and solves the remaining quadratic in z
    exactly, so the cost is quadratic in the bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    g = f.gram.rows
    a = g[2][2]
    for x in _signed_range(bound):
        for y in _signed_range(bound):
            bq = 2 * (g[0][2] * x + g[1][2] * y)
            cq = g[0][0] * x * x + 2 * g[0][1] * x * y + g[1][1] * y * y
            roots: list[int] = []
            if a == 0:
                if bq == 0:
                    if cq == 0:
                        # value is 0 for every z; pick the smallest nonzero vector
                        roots = [0] if (x, y) != (0, 0) else [1]
                elif cq % bq == 0:
                    roots = [-cq // bq]
            else:
                disc = bq * bq - 4 * a * cq
                if disc >= 0:
                    s = _isqrt_exact(disc)
                    if s is not None:
                        for num in (-bq + s, -bq - s):
                            if num % (2 * a) == 0:
                                roots.append(num // (2 * a))
                roots = sorted(set(roots), key=lambda z: (abs(z), -z))
            for z in roots:
                if abs(z) <= bound and (x, y, z) != (0, 0, 0):
                    if f.value((x, y, z)) != 0:
                        raise AssertionError(f"({x}, {y}, {z}) is not a zero of the form")
                    return (x, y, z)
    return None


def _isqrt_exact(n: int) -> Optional[int]:
    s = isqrt(n)
    return s if s * s == n else None


def _split_axis(g: GramMatrix) -> Optional[int]:
    """An axis orthogonal to the other two, if any (enables the fast search)."""
    for k in range(3):
        if all(g.rows[k][i] == 0 for i in range(3) if i != k):
            return k
    return None


def local_obstruction(f: TernaryForm, p: int, e: int,
                      budget: int = DEFAULT_BUDGET) -> bool:
    """True iff no primitive solution of v^T G v == 0 mod p^e exists.

    Primitive means some coordinate is not divisible by p.  When one axis
    splits off orthogonally the search collects the residue classes attained
    by the rank-2 block once and then sweeps the remaining coordinate, which
    is quadratic instead of cubic in p^e.
    """
    if p < 2 or e < 1:
        raise ValueError("need a prime p and precision e >= 1")
    m = p ** e
    axis = _split_axis(f.gram)
    work = m * m if axis is not None else m * m * m
    if work > budget:
        raise SearchTooLarge(f"modular search size {work} exceeds budget {budget}")
    import numpy as np  # only this search uses numpy, so `import k3latt` stays light

    if axis is not None:
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

    # general case: z outermost, vectorized (x, y) grid per z
    g = f.gram.rows
    xs = np.arange(m, dtype=np.int64)
    col = xs[:, None]
    row = xs[None, :]
    base = (g[0][0] * col * col + 2 * g[0][1] * col * row + g[1][1] * row * row) % m
    lin = (2 * (g[0][2] * col + g[1][2] * row)) % m
    prim_pair = (col % p != 0) | (row % p != 0)
    for z in range(m):
        vals = (base + z * lin + g[2][2] * z * z) % m
        zero = vals == 0
        if z % p != 0:
            if zero.any():
                return False
        elif (zero & prim_pair).any():
            return False
    return True


def _odd_prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def _valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def decide_isotropy(f: TernaryForm, bound: int = DEFAULT_BOUND,
                    primes: Sequence[int] | None = None,
                    budget: int = DEFAULT_BUDGET) -> IsotropyVerdict:
    """Witness search, then local obstructions, else inconclusive.

    Default primes are the odd primes dividing 2*det, largest first, each at
    precision e = 3 + v_p(2*det).  Several primes can carry an obstruction;
    the verdict records the first that does under this fixed order.
    """
    w = find_isotropic(f, bound)
    if w is not None:
        return IsotropyVerdict("witness", witness=w)
    det2 = 2 * abs(determinant(f.gram))
    plist = list(primes) if primes is not None else sorted(_odd_prime_factors(det2), reverse=True)
    tried = []
    for p in plist:
        e = 3 + _valuation(det2, p)
        tried.append(p)
        if local_obstruction(f, p, e, budget=budget):
            return IsotropyVerdict("obstruction", prime=p, precision=e)
    return IsotropyVerdict("inconclusive", bound=bound, primes_tested=tuple(tried))


def is_simple_shioda_inose(t: GramMatrix, bound: int = DEFAULT_BOUND,
                           primes: Sequence[int] | None = None,
                           budget: int = DEFAULT_BUDGET) -> IsotropyVerdict:
    """Isotropy verdict for the sign-flipped lattice T(-1).

    T(-1) plays the role of the Neron-Severi lattice of the associated
    abelian surface; an obstruction verdict means that surface contains no
    elliptic curve, i.e. the structure is simple.
    """
    if signature(t) != (2, 1):
        raise WrongSignature("simple Shioda-Inose test needs signature (2,1)")
    return decide_isotropy(TernaryForm(twist(t, -1)), bound=bound,
                           primes=primes, budget=budget)
