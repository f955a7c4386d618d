"""Reference arithmetic for the benchmark's inputs and verdict checks.

Nothing here imports k3latt.  The generators use it to build inputs and the
checks use it to judge verdicts, so a change to the program can change
neither what is asked nor what counts as a right answer.

Binary forms are triples (a, b, c) for the even matrix (2a c; c 2b) of
discriminant d = 4ab - c^2, the same convention as the program's output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced triples of discriminant d by a direct scan over (a, c).

    Reduced means -a < c <= a <= b, with c >= 0 when a == b: one triple per
    SL2(Z)-class of positive even binary forms.
    """
    out = []
    for a in range(1, isqrt(d // 3) + 1):
        for c in range(-a + 1, a + 1):
            num = d + c * c
            if num % (4 * a):
                continue
            b = num // (4 * a)
            if b < a or (a == b and c < 0):
                continue
            out.append((a, b, c))
    out.sort()
    return out


def is_reduced(a: int, b: int, c: int) -> bool:
    return -a < c <= a <= b and not (a == b and c < 0)


def apply_unimodular(form, m) -> tuple[int, int, int]:
    """The triple of gamma^T M gamma for gamma = m = ((p, q), (r, s))."""
    a, b, c = form
    (p, q), (r, s) = m
    return (a * p * p + c * p * r + b * r * r,
            a * q * q + c * q * s + b * s * s,
            2 * a * p * q + c * (p * s + q * r) + 2 * b * r * s)


def odd_primes(n: int) -> list[int]:
    """Distinct odd primes dividing n, ascending."""
    n = abs(n)
    while n and n % 2 == 0:
        n //= 2
    out, p = [], 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out


def valuation(n: int, p: int) -> int:
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def genus_key(form) -> tuple:
    """Gauss genus of a positive binary form by its assigned characters.

    The form a x^2 + c xy + b y^2 (half the lattice norm) has discriminant
    D = -d.  Its content g and the characters of the primitive part on a
    represented value prime to D determine the genus (Cox, *Primes of the
    form x^2 + ny^2*, Thm 3.15), which for even lattices of one signature is
    the same as the isomorphism class of the discriminant form (Nikulin).
    """
    a, b, c = form
    g = gcd(gcd(a, b), abs(c))
    a, b, c = a // g, b // g, c // g
    disc = c * c - 4 * a * b
    n = _value_prime_to(a, b, c, disc)
    chars = [legendre(n, p) for p in odd_primes(disc)]
    delta = (-1) ** ((n - 1) // 2 % 2)
    eps = (-1) ** ((n * n - 1) // 8 % 2)
    if disc % 4 == 0:
        m = (-disc // 4) % 8
        if m in (1, 5, 4):
            chars.append(delta)
        elif m == 2:
            chars.append(delta * eps)
        elif m == 6:
            chars.append(eps)
        elif m == 0:
            chars += [delta, eps]
    return (g, disc, tuple(chars))


def _value_prime_to(a: int, b: int, c: int, disc: int) -> int:
    for h in range(1, 4 * abs(disc) + 2):
        for x in range(0, h + 1):
            y = h - x
            if gcd(x, y) != 1:
                continue
            for yy in {y, -y}:
                v = a * x * x + c * x * yy + b * yy * yy
                if v > 0 and gcd(v, 2 * disc) == 1:
                    return v
    raise ArithmeticError(f"no value prime to {disc} found")


def genera(d: int) -> dict[tuple, list[tuple[int, int, int]]]:
    """Reduced triples of discriminant d bucketed by genus_key."""
    out: dict[tuple, list] = {}
    for f in reduced_forms(d):
        out.setdefault(genus_key(f), []).append(f)
    return out


def cube_small(d: int) -> bool:
    """No k >= 2 with k = 0, 1 mod 4 and k^3 | 4|d|."""
    n = 4 * abs(d)
    return not any(n % (k ** 3) == 0 for k in range(2, round(n ** (1 / 3)) + 2)
                   if k % 4 in (0, 1))


# -- ternary forms ------------------------------------------------------------

def mat_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def transpose(x):
    return [list(r) for r in zip(*x)]


def congruent(g, p):
    """p^T g p."""
    return mat_mul(transpose(p), mat_mul(g, p))


def ternary_value(g, v) -> int:
    return sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3))


def rational_diagonal(g) -> list[Fraction] | None:
    """Diagonal entries of an orthogonal basis over Q, or None if a basis
    vector met on the way is isotropic (then the form is isotropic over Q)."""
    a = [[Fraction(x) for x in row] for row in g]
    n = len(a)
    diag = []
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
            return None
        diag.append(piv)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / piv
    return diag


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers, p prime (Serre ch. III)."""
    al, be = valuation(a, p), valuation(b, p)
    u, v = a // p ** al, b // p ** be
    if p != 2:
        sign = (-1) ** (al * be * ((p - 1) // 2) % 2)
        return sign * legendre(u, p) ** be * legendre(v, p) ** al
    e = lambda t: ((t - 1) // 2) % 2
    w = lambda t: ((t * t - 1) // 8) % 2
    return (-1) ** ((e(u) * e(v) + al * w(v) + be * w(u)) % 2)


def anisotropic_primes(g) -> list[int]:
    """Primes at which the ternary form g is anisotropic over Q_p.

    For an orthogonal basis with norms x, y, z the form is isotropic over
    Q_p iff (-xz, -yz)_p = 1.  Only p = 2 and primes dividing the norms
    can fail.  Empty for an indefinite form means isotropic over Q.
    """
    diag = rational_diagonal(g)
    if diag is None:
        return []
    x, y, z = (q.numerator * q.denominator for q in diag)  # same square class
    cand = sorted({2, *odd_primes(x * y * z)})
    return [p for p in cand if hilbert(-x * z, -y * z, p) == -1]


def split_axis(g) -> int | None:
    """An axis orthogonal to the other two, if any."""
    for k in range(3):
        if all(g[k][i] == 0 for i in range(3) if i != k):
            return k
    return None
