"""Elementary integer arithmetic shared by the form modules."""

from __future__ import annotations

from itertools import count
from math import gcd

# Trial division runs over d < TRIAL_BOUND, which alone factors every m below
# TRIAL_BOUND^2; a cofactor left after it has no prime factor below TRIAL_BOUND.
TRIAL_BOUND = 1 << 10
# Miller-Rabin to these bases, the first 13 primes, proves primality below
# PROVEN_BELOW (psi_13; Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard-Brent steps spent on one composite before giving up: enough for
# prime factors up to about 2^36, and 0.7-1 s of CPU on a composite of 80-90
# bits (CPython 3.11, 2-vCPU VM).  A step costs more as n grows, so a
# cofactor above 2^COFACTOR_BITS is refused before any test; the largest
# take about 1.1 s to give up.
RHO_STEPS = 1 << 20
COFACTOR_BITS = 128
_BATCH = 128  # rho steps between two gcds


class FactorLimit(ValueError):
    """A cofactor that factorize can neither split nor prove prime within its bounds."""


def factorize(m: int) -> dict[int, int]:
    """Prime factorization {p: e} of m >= 1, primes in increasing order.

    Trial division by d < TRIAL_BOUND; a cofactor left above TRIAL_BOUND^2 is
    proven prime by Miller-Rabin or split by Pollard-Brent rho.  Raises
    FactorLimit past COFACTOR_BITS, naming the size of the cofactor, and past
    PROVEN_BELOW or RHO_STEPS, naming the cofactor.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: need m >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m and d < TRIAL_BOUND:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if m.bit_length() > COFACTOR_BITS:
            raise FactorLimit(f"cannot factor a number of {m.bit_length()} bits with no prime "
                              f"factor below {TRIAL_BOUND}: the limit is {COFACTOR_BITS} bits")
        for p in sorted(_prime_factors(m)) if d * d <= m else (m,):
            out[p] = out.get(p, 0) + 1
    return out


def _prime_factors(m: int) -> list[int]:
    """The prime factors of m, with multiplicity, for m with none below TRIAL_BOUND.

    A perfect power r^k is split by its root first: rho would take about
    sqrt(r) steps on it.  As every prime factor is at least TRIAL_BOUND = 2^10,
    k is at most bit_length / 10.
    """
    for k in range(2, m.bit_length() // 10 + 1):
        r = _integer_root(m, k)
        if r ** k == m:
            return _prime_factors(r) * k
    if m < TRIAL_BOUND * TRIAL_BOUND or _passes_miller_rabin(m):
        if m >= PROVEN_BELOW:
            raise FactorLimit(f"cannot factor {m}: it passes Miller-Rabin, but primality "
                              f"is proven only below {PROVEN_BELOW}")
        return [m]
    d = _pollard_brent(m)
    return _prime_factors(d) + _prime_factors(m // d)


def _integer_root(m: int, k: int) -> int:
    """The largest r with r^k <= m, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _passes_miller_rabin(n: int) -> bool:
    """Strong probable prime to every base in MR_BASES; n odd and above them."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n (Brent, BIT 20 (1980) 176-184).

    Iterates y -> y^2 + c mod n, doubling the stretch r between saved
    points, and takes one gcd per _BATCH steps of the product of |x - y|;
    when a batch overshoots to n, it steps again one at a time.  A cycle
    that gives n outright is retried with the next c.
    """
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _BATCH
            steps += 2 * r
            if steps > RHO_STEPS:
                raise FactorLimit(f"cannot factor {n}: no factor found in "
                                  f"{RHO_STEPS} Pollard-Brent steps")
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
