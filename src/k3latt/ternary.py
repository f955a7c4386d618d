"""Integer isotropy of ternary quadratic forms: witness or local obstruction.

A witness is a nonzero integer vector v with v^T G v == 0.  The witness scan
is integer arithmetic alone: each row x of the box is screened by the
discriminant of the quadratic in z, itself a quadratic in y, and z is solved
for only where that discriminant is a square.  A local obstruction at (p, e)
certifies that no vector with a coordinate prime to p satisfies the
congruence mod p^e; an obstruction at any precision rules out a witness
outright.  When one axis is orthogonal to the other two, the values of the
binary block mod p^e are read as orbits under multiplication by unit
squares, from p^e + p^(e-1) evaluations; otherwise every residue vector is
searched.  The solver makes no completeness claim: when the witness box and
the tried primes are both exhausted it answers "inconclusive".
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, prod
from typing import Optional, Sequence

from .arith import factorize
from .lattice import DegenerateLattice, GramMatrix, determinant, signature, twist
from .value import Value

DEFAULT_BOUND = 20
MAX_BOUND = 500  # the witness scan is quadratic in the bound: about 0.17 s at 500
# local_obstruction refuses a search whose grid over residues mod m = p^e, m^2
# cells with a split axis and m^3 without, exceeds BUDGET.  The orbit sweep of
# a split form visits only m + m/p residues, but the rule keeps the grid of the
# definition, so the same inputs are refused and the verdicts stay stable.
BUDGET = 500_000_000
# The odd primes p with p^8 <= BUDGET.  A default prime has precision e >= 4,
# so its grid has at least p^8 cells: no other prime is searched by default.
SEARCHABLE_PRIMES = tuple(p for p in range(3, isqrt(isqrt(isqrt(BUDGET))) + 1, 2)
                          if factorize(p) == {p: 1})


class SearchTooLarge(ValueError):
    """The modular search would exceed BUDGET."""


class WrongSignature(ValueError):
    """A signature-(2,1) lattice is required."""


class TernaryForm(Value):
    __slots__ = ("gram",)
    gram: GramMatrix

    def __init__(self, gram: GramMatrix):
        if gram.n != 3:
            raise ValueError("ternary form needs a 3x3 Gram matrix")
        if determinant(gram) == 0:
            raise DegenerateLattice("ternary form must be nondegenerate")
        object.__setattr__(self, "gram", gram)

    def value(self, v: Sequence[int]) -> int:
        x, y, z = v
        g = self.gram.rows
        return (g[0][0] * x * x + g[1][1] * y * y + g[2][2] * z * z
                + 2 * (g[0][1] * x * y + g[0][2] * x * z + g[1][2] * y * z))


class IsotropyVerdict(Value):
    __slots__ = ("kind", "witness", "prime", "precision", "bound", "primes_tested")
    kind: str  # "witness" | "obstruction" | "inconclusive"
    witness: Optional[tuple[int, int, int]]
    prime: Optional[int]
    precision: Optional[int]
    bound: Optional[int]
    primes_tested: Optional[tuple[int, ...]]

    def __init__(self, kind: str, witness: Optional[tuple[int, int, int]] = None,
                 prime: Optional[int] = None, precision: Optional[int] = None,
                 bound: Optional[int] = None, primes_tested: Optional[tuple[int, ...]] = None):
        self._assign(kind, witness, prime, precision, bound, primes_tested)

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


def find_isotropic(f: TernaryForm, bound: int) -> Optional[tuple[int, int, int]]:
    """First nonzero v with |v_i| <= bound and v^T G v == 0, or None.

    Scans x, then y, over 0, 1, -1, 2, -2, ... and solves the remaining
    quadratic g22 z^2 + 2 B z + C in z exactly, where B = g02 x + g12 y and
    C = g00 x^2 + 2 g01 x y + g11 y^2; of two roots the smaller |z| comes
    first, and the positive one of a pair +-z.  For a fixed x the reduced
    discriminant D = B^2 - g22 C is a quadratic P y^2 + Q y + R in y, so one
    pass over a row keeps the y where D is a square, and only those build
    roots.  The cost is quadratic in the bound, which MAX_BOUND caps.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_BOUND:
        raise ValueError(f"bound {bound} exceeds the cap {MAX_BOUND}")
    g = f.gram.rows
    a, b0, b1 = g[2][2], g[0][2], g[1][2]
    if a == 0:  # the third basis vector is isotropic, and (0, 0) is scanned first
        return _checked(f, 0, 0, 1)
    p = b1 * b1 - a * g[1][1]
    q1 = 2 * (b0 * b1 - a * g[0][1])
    r1 = b0 * b0 - a * g[0][0]
    order = [0]
    for k in range(1, bound + 1):
        order += (k, -k)
    for x in order:
        q, r = q1 * x, r1 * x * x
        hits = [(y, d) for y in order
                if (d := (p * y + q) * y + r) >= 0 and isqrt(d) ** 2 == d]
        for y, d in hits:
            b = b0 * x + b1 * y
            s = isqrt(d)
            # the integral roots z = (-b +- s) / a keyed (|z|, -z): smallest |z| first,
            # then positive; at x = y = 0 the only root is z = 0
            key = min(((abs(n // a), -(n // a)) for n in (s - b, -s - b) if n % a == 0),
                      default=(bound + 1, 0))
            if key[0] <= bound and (x, y) != (0, 0):
                return _checked(f, x, y, -key[1])
    return None


def _checked(f: TernaryForm, x: int, y: int, z: int) -> tuple[int, int, int]:
    if f.value((x, y, z)) != 0:
        raise AssertionError(f"({x}, {y}, {z}) is not a zero of the form")
    return (x, y, z)


def _split_axis(g: GramMatrix) -> Optional[int]:
    """An axis orthogonal to the other two, if any (enables the orbit method)."""
    for k in range(3):
        if all(g.rows[k][i] == 0 for i in range(3) if i != k):
            return k
    return None


def _square_class(v: int, p: int, e: int) -> Optional[tuple[int, int]]:
    """The orbit of v mod p^e under multiplication by unit squares; None for 0.

    For v = p^k * w with w a unit the orbit is fixed by k and the class of w
    modulo unit squares mod p^(e-k): its Legendre symbol for odd p, and
    w mod 2^min(3, e-k) for p = 2.
    """
    v %= p ** e
    if v == 0:
        return None
    k = 0
    while v % p == 0:
        v //= p
        k += 1
    if p == 2:
        return k, v % 2 ** min(3, e - k)
    return k, pow(v, (p - 1) // 2, p)


def _split_obstruction(a: int, b: int, c: int, cz: int, p: int, e: int) -> bool:
    """local_obstruction for a x^2 + b xy + c y^2 + cz z^2, in O(p^e) steps.

    Since B(ux, uy) = u^2 B(x, y) for a unit u, the values of primitive pairs
    form a union of unit-square orbits, and every primitive pair is a unit
    times (1, t), or a unit times (s, 1) with p | s.  A pair p^j * (x, y)
    takes p^(2j) times the value of (x, y).
    """
    m = p ** e
    a, b, c = a % m, b % m, c % m
    values = {(a + (b + c * t) * t) % m for t in range(m)}
    values.update((c + (b + a * s) * s) % m for s in range(0, m, p))
    reps = {}  # one primitive value per orbit
    for v in values:
        reps.setdefault(_square_class(v, p, e), v)
    if None in reps:  # z = 0
        return False
    if any(_square_class(-cz * p ** (2 * i), p, e) in reps for i in range(e)):
        return False  # a primitive pair against any z
    reached = {None} | {_square_class(p ** (2 * j) * r, p, e) for r in reps.values()
                        for j in range(e)}
    return _square_class(-cz, p, e) not in reached  # any pair against a unit z


def local_obstruction(f: TernaryForm, p: int, e: int) -> bool:
    """True iff no primitive solution of v^T G v == 0 mod p^e exists.

    Primitive means some coordinate is not divisible by p.  When one axis
    splits off orthogonally the binary block is read by its unit-square
    orbits (see _split_obstruction), which takes p^e + p^(e-1) evaluations
    and no numpy; otherwise a vectorized search visits (x, y, z) residues,
    cubic in p^e.  Either search is refused by the size of its grid over
    residues, m^2 or m^3 cells for m = p^e, which is checked before the
    primality of p, so a huge p is refused at no cost.
    """
    if p < 2 or e < 1:
        raise ValueError("need a prime p and precision e >= 1")
    m = p ** e
    axis = _split_axis(f.gram)
    work = m * m if axis is not None else m * m * m
    if work > BUDGET:
        raise SearchTooLarge(f"modular search size {work} exceeds budget {BUDGET}")
    if factorize(p) != {p: 1}:
        raise ValueError(f"{p} is not a prime")
    g = f.gram.rows
    if axis is not None:
        i, j = [t for t in range(3) if t != axis]
        return _split_obstruction(g[i][i], 2 * g[i][j], g[j][j], g[axis][axis], p, e)

    import numpy as np  # only the general search uses numpy, so `import k3latt` stays light

    # z outermost, vectorized (x, y) grid per z
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


def decide_isotropy(f: TernaryForm, bound: int = DEFAULT_BOUND,
                    primes: Sequence[int] | None = None) -> IsotropyVerdict:
    """Witness search, then local obstructions, else inconclusive.

    Default primes are the odd primes dividing 2*det, largest first, each at
    precision e = 3 + v_p(2*det).  Several primes can carry an obstruction;
    the verdict records the first that does under this fixed order.  Only
    SEARCHABLE_PRIMES are divided out of 2*det: a cofactor left above 1 holds
    a larger prime, which would come first and exceed BUDGET, so
    SearchTooLarge is raised at once, however large det is.
    """
    w = find_isotropic(f, bound)
    if w is not None:
        return IsotropyVerdict("witness", witness=w)
    det2 = 2 * abs(determinant(f.gram))
    if primes is None:
        primes = [p for p in reversed(SEARCHABLE_PRIMES) if det2 % p == 0]
        rest = det2
        while (g := gcd(rest, 2 * prod(SEARCHABLE_PRIMES))) > 1:
            rest //= g
        if rest > 1:
            raise SearchTooLarge(f"2*|det| has the factor {rest}, whose primes exceed "
                                 f"{SEARCHABLE_PRIMES[-1]}: their search exceeds budget {BUDGET}")
    tried = []
    for p in primes:
        e = 3 + (next(k for k in count() if det2 % p ** (k + 1)) if p >= 2 else 0)
        tried.append(p)
        if local_obstruction(f, p, e):
            return IsotropyVerdict("obstruction", prime=p, precision=e)
    return IsotropyVerdict("inconclusive", bound=bound, primes_tested=tuple(tried))


def is_simple_shioda_inose(t: GramMatrix, bound: int = DEFAULT_BOUND,
                           primes: Sequence[int] | None = None) -> IsotropyVerdict:
    """Isotropy verdict for the sign-flipped lattice T(-1).

    T(-1) plays the role of the Neron-Severi lattice of the associated
    abelian surface; an obstruction verdict means that surface contains no
    elliptic curve, i.e. the structure is simple.
    """
    if signature(t) != (2, 1):
        raise WrongSignature("simple Shioda-Inose test needs signature (2,1)")
    return decide_isotropy(TernaryForm(twist(t, -1)), bound=bound, primes=primes)
