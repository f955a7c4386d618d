"""Positive-definite even binary quadratic forms.

A form (a, b, c) stands for the matrix (2a c; c 2b) with discriminant
d = 4ab - c^2 > 0.  Reduction is classical Gauss reduction; enumeration
emits exactly one representative per SL2(Z)-class, absorbing the two
boundary identifications (c == -a and a == b with c < 0) into a canonical
sign choice c >= 0 there.  The lattice and discriminant-form modules are
imported by the functions that use them, so reduction and enumeration load
neither.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import InvalidForm, MathFailure
from .value import Value


class EmptyResult(MathFailure):
    """No even form exists: d must be 0 or 3 mod 4."""


class EvenBinaryForm(Value):
    """Triple (a, b, c) for the even matrix (2a c; c 2b)."""

    __slots__ = ("a", "b", "c")
    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int):
        if a <= 0 or b <= 0 or 4 * a * b - c * c <= 0:
            raise InvalidForm(f"({a},{b},{c}) is not positive definite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return 4 * self.a * self.b - self.c * self.c

    @property
    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((2 * self.a, self.c), (self.c, 2 * self.b))

    @property
    def gram(self) -> GramMatrix:
        from .lattice import GramMatrix
        return GramMatrix.from_rows(self.matrix)

    @classmethod
    def from_matrix(cls, rows) -> "EvenBinaryForm":
        rows = [[int(x) for x in r] for r in rows]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise InvalidForm("need a 2x2 matrix")
        if rows[0][1] != rows[1][0]:
            raise InvalidForm("matrix must be symmetric")
        if rows[0][0] % 2 or rows[1][1] % 2:
            raise InvalidForm("matrix must be even")
        return cls(rows[0][0] // 2, rows[1][1] // 2, rows[0][1])

    def is_reduced(self) -> bool:
        return -self.a <= self.c <= self.a <= self.b

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def __str__(self) -> str:
        return f"[{2 * self.a} {self.c}; {self.c} {2 * self.b}]"


def discriminant(f: EvenBinaryForm) -> int:
    return f.d


class UnimodularTransform(Value):
    """2x2 integer matrix with determinant 1, acting by gamma^T M gamma."""

    __slots__ = ("m",)
    m: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, m: tuple[tuple[int, int], tuple[int, int]]):
        ((p, q), (r, s)) = m
        if p * s - q * r != 1:
            raise ValueError("transform must have determinant 1")
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "UnimodularTransform":
        return UnimodularTransform(((1, 0), (0, 1)))

    def then(self, other: "UnimodularTransform") -> "UnimodularTransform":
        ((a, b), (c, d)) = self.m
        ((e, f), (g, h)) = other.m
        return UnimodularTransform(((a * e + b * g, a * f + b * h),
                                    (c * e + d * g, c * f + d * h)))

    def inverse(self) -> "UnimodularTransform":
        ((p, q), (r, s)) = self.m
        return UnimodularTransform(((s, -q), (-r, p)))


def apply_transform(f: EvenBinaryForm, t: UnimodularTransform) -> EvenBinaryForm:
    """gamma^T M gamma back as a form triple."""
    ((p, q), (r, s)) = t.m
    a, b, c = f.a, f.b, f.c
    return EvenBinaryForm(
        a * p * p + c * p * r + b * r * r,
        a * q * q + c * q * s + b * s * s,
        2 * a * p * q + c * (p * s + q * r) + 2 * b * r * s,
    )


def reduce(f: EvenBinaryForm) -> tuple[EvenBinaryForm, UnimodularTransform]:
    """Gauss-reduce to -a < c <= a <= b, with c >= 0 when a == b.

    Alternates translations c -> c + 2ka into (-a, a] with swaps when a > b;
    a + b strictly decreases so this terminates.  The translation lands
    c == -a on +a, and the final swap fixes the sign when a == b, so each
    class has exactly one output.
    """
    total = UnimodularTransform.identity()
    cur = f
    while True:
        k = (cur.a - cur.c) // (2 * cur.a)
        if k:
            step = UnimodularTransform(((1, k), (0, 1)))
            cur = apply_transform(cur, step)
            total = total.then(step)
        if cur.a > cur.b:
            step = UnimodularTransform(((0, -1), (1, 0)))
            cur = apply_transform(cur, step)
            total = total.then(step)
            continue
        break
    if cur.a == cur.b and cur.c < 0:
        step = UnimodularTransform(((0, -1), (1, 0)))
        cur = apply_transform(cur, step)
        total = total.then(step)
    if apply_transform(f, total) != cur:
        raise AssertionError(f"the accumulated transform does not carry {f} to {cur}")
    return cur, total


def enumerate_reduced(d: int) -> list[EvenBinaryForm]:
    """All reduced forms of discriminant d, one per SL2(Z)-class.

    c ranges over c^2 <= d/3 with c^2 == -d mod 4; a negative c survives
    only when |c| < a < b, since c == -a and a == b duplicates fold onto
    the nonnegative representative.
    """
    if d <= 0:
        raise InvalidForm("discriminant must be positive")
    if d % 4 not in (0, 3):
        raise EmptyResult(f"no even forms of discriminant {d}: need d = 0, 3 mod 4")
    out: list[EvenBinaryForm] = []
    cmax = isqrt(d // 3)
    for c in range(-cmax, cmax + 1):
        if (d + c * c) % 4:
            continue
        n = (d + c * c) // 4
        for a in range(max(1, abs(c)), isqrt(n) + 1):
            if n % a:
                continue
            b = n // a
            if c >= 0 or (abs(c) < a and a < b):
                out.append(EvenBinaryForm(a, b, c))
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return out


def class_number(d: int) -> int:
    return len(enumerate_reduced(d))


def equivalent(f1: EvenBinaryForm, f2: EvenBinaryForm) -> UnimodularTransform | None:
    """A gamma with gamma^T M1 gamma == M2, or None.

    Reduce-and-compare is complete: distinct reduced forms are inequivalent
    once the two boundary families are folded by the canonical sign.
    """
    r1, t1 = reduce(f1)
    r2, t2 = reduce(f2)
    if r1 != r2:
        return None
    t = t1.then(t2.inverse())
    if apply_transform(f1, t) != f2:
        raise AssertionError(f"the composed transform does not carry {f1} to {f2}")
    return t


def _genus_keys(forms: list[EvenBinaryForm]) -> list[tuple]:
    """The genus_key of each form's discriminant form (imports once per list)."""
    from .discforms import FiniteQF
    from .lattice import GramMatrix
    return [FiniteQF.from_lattice(GramMatrix.from_rows(f.matrix)).genus_key() for f in forms]


def genus_partition(d: int) -> list[list[EvenBinaryForm]]:
    """Classes of discriminant d grouped by discriminant-form isomorphism.

    Forms are bucketed by their discriminant form's genus_key, which
    decides isomorphism of discriminant forms of lattices (Jordan
    invariants at odd primes, the canonical 2-adic symbol at 2), so a
    bucket is a group.  Groups come in order of their first member,
    members in class order.
    """
    forms = enumerate_reduced(d)
    groups: dict[tuple, list[EvenBinaryForm]] = {}
    for f, key in zip(forms, _genus_keys(forms)):
        groups.setdefault(key, []).append(f)
    return list(groups.values())


def match_disc_form(d: int, target: FiniteQF) -> list[EvenBinaryForm]:
    """Reduced forms of discriminant d whose discriminant form matches target.

    A match is an equal genus_key.  That decides isomorphism here: the
    forms of the lattices are nondegenerate, and a target with a degenerate
    p-part keys that part apart from every nondegenerate one.
    """
    key = target.genus_key()
    forms = enumerate_reduced(d)
    return [f for f, k in zip(forms, _genus_keys(forms)) if k == key]


class CMSurd(Value):
    """Exact value (p + q*sqrt(-d)) / r with gcd(p, q, r) == 1 and r > 0."""

    __slots__ = ("p", "q", "r", "d")
    p: int
    q: int
    r: int
    d: int

    def __init__(self, p: int, q: int, r: int, d: int):
        self._assign(p, q, r, d)

    @staticmethod
    def make(p: int, q: int, r: int, d: int) -> "CMSurd":
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(abs(p), abs(q)), r)
        return CMSurd(p // g, q // g, r // g, d)

    def __str__(self) -> str:
        root = f"sqrt(-{self.d})" if self.q == 1 else f"{self.q}*sqrt(-{self.d})"
        num = f"{self.p}+{root}" if self.p else root
        return f"({num})/{self.r}" if self.r != 1 else num


def cm_moduli(f: EvenBinaryForm) -> tuple[CMSurd, CMSurd]:
    """Periods tau1 = (-c + sqrt(-d))/(2a) and tau2 = (c + sqrt(-d))/2."""
    d = f.d
    return (CMSurd.make(-f.c, 1, 2 * f.a, d), CMSurd.make(f.c, 1, 2, d))


def hessian_embeddable(f: EvenBinaryForm) -> bool:
    """Parity test for a primitive embedding into U + U(2) + A2(-2).

    For (2n a; a 2m) the embedding exists iff one of a, n, m is even,
    i.e. not all of our (a, b, c) are odd.
    """
    return not (f.a % 2 and f.b % 2 and f.c % 2)
