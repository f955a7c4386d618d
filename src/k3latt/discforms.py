"""Finite quadratic forms on finite abelian groups (discriminant forms).

A form is presented by generators: a list of orders m_i, the values
q(g_i) in Q/2Z, and the pairings b(g_i, g_j) in Q/Z.  The presentation is
kept as given (cyclic_normalize is explicit, never implicit).  It is stored
in integers over the exponent n = lcm(m_i) of the group, Q[i] = n * q(g_i)
mod 2n and B[i][j] = n * b(g_i, g_j) mod n, and all arithmetic runs on
those; the Fraction values ``q`` and ``b`` are computed only when read, for
text and JSON output.  The discriminant form of a lattice comes from the
Smith normal form U G V = D of its Gram matrix: the columns V_i / D_i with
D_i > 1 generate L*/L (Cohen, "A Course in Computational Algebraic Number
Theory", 2.4), so Q[i] = n V_i^T G V_i / D_i^2 and
B[i][j] = n V_i^T G V_j / (D_i D_j) are integer dot products.

Isomorphism is decided prime by prime.  The p-primary parts of a form are
mutually orthogonal, so two forms are isomorphic iff their p-parts are.  At
an odd prime q is determined by b, and a nondegenerate p-part is classified
by its Jordan invariants: for each scale p^t, the rank of the homogeneous
component and the Legendre symbol of its unit determinant (Wall, "Quadratic
forms on finite groups", Topology 1963; Nikulin 1979, 1.8).  Only the
2-part and degenerate odd parts are compared by exhaustive search over
generator images.  A nondegenerate 2-part whose scales leave gaps of three
or more is first replaced by a smaller model with those gaps shortened,
which keeps the class of its 2-adic symbol (Conway-Sloane, SPLAG ch. 15).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm

from .lattice import (
    DimensionMismatch,
    GramMatrix,
    OddLattice,
    DegenerateLattice,
    smith_normal_form,
)

# Largest part that is_isomorphic searches exhaustively: a 2-part (or its
# shortened model) or a degenerate odd part.  Nondegenerate odd parts are
# compared by their Jordan invariants at any order and are not bounded.
ISO_GROUP_BOUND = 100_000


class InvalidForm(ValueError):
    """Presentation violates the finite-quadratic-form axioms."""


class TooLarge(ValueError):
    """A part that must be searched exceeds ISO_GROUP_BOUND."""


@dataclass(frozen=True, init=False)
class FiniteQF:
    """Finite abelian group with a Q/2Z quadratic form and Q/Z pairing.

    ``FiniteQF(orders, q, b)``: ``orders[i]`` is the order of generator g_i,
    ``q[i] = q(g_i)`` in [0,2), and ``b[i][j] = b(g_i, g_j)`` in [0,1) with
    b[i][i] == q[i] mod 1.  Stored are ``n = lcm(orders)`` and the integers
    ``Q[i] = n * q[i]`` and ``B[i][j] = n * b[i][j]``.
    """

    orders: tuple[int, ...]
    n: int
    Q: tuple[int, ...]
    B: tuple[tuple[int, ...], ...]

    def __init__(self, orders, q, b):
        orders = tuple(orders)
        n = lcm(*orders)
        self._set(orders, n, tuple(_numerator(v, n) for v in q),
                  tuple(tuple(_numerator(x, n) for x in row) for row in b))

    @classmethod
    def _of(cls, orders, n: int, Q, B) -> "FiniteQF":
        """The form with q = Q / n (mod 2) and b = B / n (mod 1), n = lcm(orders)."""
        self = object.__new__(cls)
        self._set(tuple(orders), n, tuple(v % (2 * n) for v in Q),
                  tuple(tuple(x % n for x in row) for row in B))
        return self

    def _set(self, orders, n, Q, B) -> None:
        k = len(orders)
        if len(Q) != k or len(B) != k or any(len(r) != k for r in B):
            raise InvalidForm("inconsistent presentation sizes")
        if any(m < 2 for m in orders):
            raise InvalidForm("generator orders must be >= 2")
        if n != lcm(*orders):
            raise InvalidForm(f"scale {n} is not the exponent of the group")
        for i, m in enumerate(orders):
            qi = Q[i]
            if not (0 <= qi < 2 * n):
                raise InvalidForm(f"q value {Fraction(qi, n)} outside [0, 2)")
            if m * m * qi % (2 * n):
                raise InvalidForm(f"q({m}*g) = {Fraction(m * m * qi, n)} must vanish mod 2Z")
            if B[i][i] != qi % n:
                raise InvalidForm("pairing diagonal must equal q mod Z")
        for i in range(k):
            for j in range(k):
                bij = B[i][j]
                if not (0 <= bij < n):
                    raise InvalidForm(f"pairing {Fraction(bij, n)} outside [0, 1)")
                if bij != B[j][i]:
                    raise InvalidForm("pairing must be symmetric")
                if orders[i] * bij % n or orders[j] * bij % n:
                    raise InvalidForm("pairing must be killed by both generator orders")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "B", B)

    @property
    def q(self) -> tuple[Fraction, ...]:
        """q(g_i) in [0, 2), as Fractions."""
        return tuple(Fraction(v, self.n) for v in self.Q)

    @property
    def b(self) -> tuple[tuple[Fraction, ...], ...]:
        """b(g_i, g_j) in [0, 1), as Fractions."""
        return tuple(tuple(Fraction(x, self.n) for x in row) for row in self.B)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def cyclic(m: int, value) -> "FiniteQF":
        """Z_m with q(generator) = value."""
        v = Fraction(value) % 2
        return FiniteQF((m,), (v,), ((v % 1,),))

    @staticmethod
    def trivial() -> "FiniteQF":
        return FiniteQF((), (), ())

    @staticmethod
    def from_generators(orders, qvals, pairings=None) -> "FiniteQF":
        """Build from orders, q values and optional off-diagonal pairings.

        ``pairings`` maps (i, j) with i < j to b(g_i, g_j); omitted pairs are 0.
        """
        orders = tuple(int(m) for m in orders)
        q = tuple(Fraction(v) % 2 for v in qvals)
        k = len(orders)
        b = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            b[i][i] = q[i] % 1
        if pairings:
            for (i, j), v in pairings.items():
                if i == j:
                    raise InvalidForm("diagonal pairings are determined by q")
                b[i][j] = b[j][i] = Fraction(v) % 1
        return FiniteQF(orders, q, tuple(tuple(r) for r in b))

    @staticmethod
    def from_lattice(g: GramMatrix) -> "FiniteQF":
        """Discriminant form of an even nondegenerate lattice.

        With U G V = D in Smith normal form, column i of V divided by
        D_i = D[i][i] is a dual vector of order D_i in L*/L, and those with
        D_i > 1 generate it.
        """
        if not g.is_even():
            raise OddLattice("discriminant form requires an even lattice")
        snf = smith_normal_form(g.rows)
        diag = [snf.D[i][i] for i in range(g.n)]
        if 0 in diag:
            raise DegenerateLattice("discriminant form requires det != 0")
        idx = [i for i, d in enumerate(diag) if d > 1]
        orders = [diag[i] for i in idx]
        n = lcm(*orders)
        cols = [[row[i] for row in snf.V] for i in idx]
        gcols = [[sum(x * c for x, c in zip(row, col)) for row in g.rows] for col in cols]
        raw = [[sum(x * y for x, y in zip(v, gw)) * n // (d * e)
                for gw, e in zip(gcols, orders)] for v, d in zip(cols, orders)]
        return FiniteQF._of(orders, n, [raw[i][i] for i in range(len(raw))], raw)

    # -- basic algebra --------------------------------------------------

    @property
    def group_order(self) -> int:
        n = 1
        for m in self.orders:
            n *= m
        return n

    def is_orthogonal(self) -> bool:
        """True when all cross-pairings between distinct generators vanish."""
        k = len(self.orders)
        return all(self.B[i][j] == 0 for i in range(k) for j in range(i + 1, k))

    def direct_sum(self, other: "FiniteQF") -> "FiniteQF":
        """Orthogonal sum: concatenated generators, zero cross-pairings."""
        n = lcm(self.n, other.n)
        s, t = n // self.n, n // other.n
        k1, k2 = len(self.orders), len(other.orders)
        b = ([[x * s for x in row] + [0] * k2 for row in self.B]
             + [[0] * k1 + [x * t for x in row] for row in other.B])
        return FiniteQF._of(self.orders + other.orders, n,
                            [v * s for v in self.Q] + [v * t for v in other.Q], b)

    def negate(self) -> "FiniteQF":
        """Sign-flip: q -> (2 - q) mod 2Z, b -> (1 - b) mod Z."""
        return FiniteQF._of(self.orders, self.n, [-v for v in self.Q],
                            [[-x for x in row] for row in self.B])

    def evaluate(self, coeffs) -> Fraction:
        """q of the combination sum(c_i * g_i), via bilinear expansion."""
        c = [int(x) for x in coeffs]
        if len(c) != len(self.orders):
            raise DimensionMismatch(
                f"expected {len(self.orders)} coefficients, got {len(c)}")
        c = [x % m for x, m in zip(c, self.orders)]
        val = sum(ci * ci * qi for ci, qi in zip(c, self.Q))
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                val += 2 * c[i] * c[j] * self.B[i][j]
        return Fraction(val % (2 * self.n), self.n)

    def pairing(self, coeffs1, coeffs2) -> Fraction:
        """b of two combinations, in [0, 1)."""
        c1 = [int(x) for x in coeffs1]
        c2 = [int(x) for x in coeffs2]
        val = 0
        for i, x in enumerate(c1):
            for j, y in enumerate(c2):
                val += x * y * self.B[i][j]
        return Fraction(val % self.n, self.n)

    def cyclic_normalize(self) -> "FiniteQF":
        """Merge coprime-order generators by CRT, then sort summands.

        Two generators of coprime order automatically pair to zero, so their
        sum generates the product cyclic group and carries q = q_i + q_j.
        Merging is leftmost-first and the result is sorted by (order, q),
        which makes the output deterministic.
        """
        n = self.n
        orders = list(self.orders)
        q = list(self.Q)
        b = [list(row) for row in self.B]
        while True:
            hit = None
            for i in range(len(orders)):
                for j in range(i + 1, len(orders)):
                    if gcd(orders[i], orders[j]) == 1:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                break
            i, j = hit
            if b[i][j] != 0:
                raise InvalidForm("coprime generators must pair to zero")
            m = orders[i] * orders[j]
            qm = (q[i] + q[j]) % (2 * n)
            cross = [(b[i][t] + b[j][t]) % n for t in range(len(orders))]
            orders[i] = m
            q[i] = qm
            for t in range(len(orders)):
                if t != i:
                    b[i][t] = b[t][i] = cross[t]
            b[i][i] = qm % n
            del orders[j], q[j]
            del b[j]
            for row in b:
                del row[j]
        perm = sorted(range(len(orders)), key=lambda t: (orders[t], q[t]))
        orders = [orders[t] for t in perm]
        q = [q[t] for t in perm]
        b = [[b[s][t] for t in perm] for s in perm]
        return FiniteQF._of(orders, n, q, b)

    # -- prime-by-prime structure ----------------------------------------

    def primary_parts(self) -> dict[int, "FiniteQF"]:
        """The p-primary parts, by prime; they are orthogonal and sum to the form.

        Generator g_i of order m_i = p^a * c contributes c * g_i, of order p^a.
        """
        n, data = self._primary_data()
        return {p: _scaled_form(orders, qs, bs, n) for p, (orders, qs, bs) in data.items()}

    def _primary_data(self) -> tuple[int, dict[int, tuple]]:
        """(N, {p: (orders, Q, B)}): the p-parts with q = Q / N and b = B / N.

        N is the exponent of the group, so every value is an integer.
        """
        n, qint, bint = self.n, self.Q, self.B
        facs = [_factorize(m) for m in self.orders]
        data = {}
        for p in sorted({p for fac in facs for p in fac}):
            idx = [i for i, fac in enumerate(facs) if p in fac]
            cof = [self.orders[i] // p ** facs[i][p] for i in idx]
            data[p] = (tuple(self.orders[i] // c for i, c in zip(idx, cof)),
                       [c * c * qint[i] % (2 * n) for i, c in zip(idx, cof)],
                       [[ci * cj * bint[i][j] % n for j, cj in zip(idx, cof)]
                        for i, ci in zip(idx, cof)])
        return n, data

    @cached_property
    def _split(self) -> tuple[tuple, dict[int, "FiniteQF"]]:
        """(invariants by prime, forms to search).

        The invariants are the Jordan invariants of each nondegenerate odd
        part and the group structure of a 2-part that is searched through
        its model.  A nondegenerate 2-part whose scales leave a gap to
        shorten is searched through that smaller model (which does not keep
        the group structure); every other 2-part, and a degenerate odd
        part, is searched as it stands.
        """
        n, data = self._primary_data()
        invariants, searched = [], {}
        for p, (orders, qs, bs) in data.items():
            pieces = (_jordan(p, orders, qs, bs, n)
                      if p != 2 or _two_adic_shortens(orders) else None)
            if pieces is None:
                searched[p] = _scaled_form(orders, qs, bs, n)
            elif p == 2:
                invariants.append((p, tuple(sorted(orders))))
                searched[p] = _two_adic_model(pieces)
            else:
                invariants.append((p, _odd_invariants(p, pieces)))
        return tuple(invariants), searched

    def genus_key(self) -> tuple:
        """Hashable isomorphism invariant.

        It holds the Jordan invariants of the nondegenerate odd parts, the
        group structure of a 2-part searched through its model, and, for
        each form that is_isomorphic searches (a 2-part or its model, a
        degenerate odd part), the counts of (element order, q value) pairs,
        or only its group structure when it exceeds ISO_GROUP_BOUND.
        Isomorphic forms have equal keys; equal keys decide isomorphism
        when no part needs a search.
        """
        invariants, searched = self._split
        return invariants, tuple((p, part._value_counts()) for p, part in searched.items())

    def _value_counts(self) -> tuple:
        if self.group_order > ISO_GROUP_BOUND:
            return tuple(sorted(_abelian_factors(self.orders).items()))
        table, _ = self._scaled_tables(self.n)
        return tuple(sorted(Counter(table.values()).items()))

    # -- isomorphism ----------------------------------------------------

    def is_isomorphic(self, other: "FiniteQF") -> bool:
        """Is there a group isomorphism carrying q to q?

        Decided prime by prime: group orders, then the Jordan invariants of
        the nondegenerate odd parts, then an exhaustive search on each
        remaining part (the 2-part or its model, and any degenerate odd
        part).
        """
        if self.group_order != other.group_order:
            return False
        invariants1, searched1 = self._split
        invariants2, searched2 = other._split
        if invariants1 != invariants2:
            return False
        return all(part._search_isomorphic(searched2[p])
                   for p, part in searched1.items())

    def _element_order(self, x: tuple[int, ...]) -> int:
        return lcm(*(m // gcd(m, xi) for m, xi in zip(self.orders, x))) if x else 1

    def _scaled_tables(self, scale: int):
        """Integer q values (mod 2*scale) for every group element.

        ``scale`` is a multiple of the exponent n; the pairings B * scale / n
        come back with the table.
        """
        k = len(self.orders)
        s = scale // self.n
        qs = [v * s for v in self.Q]
        bs = [[x * s for x in row] for row in self.B]
        table: dict[tuple[int, ...], tuple[int, int]] = {}
        for x in product(*(range(m) for m in self.orders)):
            val = 0
            for i in range(k):
                xi = x[i]
                if xi:
                    val += xi * xi * qs[i]
                    for j in range(i + 1, k):
                        if x[j]:
                            val += 2 * xi * x[j] * bs[i][j]
            table[x] = (self._element_order(x), val % (2 * scale))
        return table, bs

    def _generates_all(self, images: list[tuple[int, ...]], other: "FiniteQF") -> bool:
        """Do the image elements generate the whole target group?

        The cokernel of [images | diag(orders)] is trivial exactly when the
        induced map is onto, which for equal group orders means bijective.
        """
        k2 = len(other.orders)
        cols = [list(img) for img in images]
        mat = [[cols[c][r] for c in range(len(cols))] +
               [other.orders[r] if c == r else 0 for c in range(k2)]
               for r in range(k2)]
        snf = smith_normal_form(mat)
        return all(snf.D[i][i] == 1 for i in range(k2))

    def _search_isomorphic(self, other: "FiniteQF") -> bool:
        """Exhaustive search for an isomorphism carrying q to q.

        It is enough to match q on generators and b on generator pairs:
        bilinear expansion then transports q everywhere, and b is determined
        by q.  Candidate images are pruned by element order and q value.
        """
        if self.group_order != other.group_order:
            return False
        if self.group_order > ISO_GROUP_BOUND:
            raise TooLarge(f"the part to search has order {self.group_order}, "
                           f"over the bound {ISO_GROUP_BOUND}")
        if _abelian_factors(self.orders) != _abelian_factors(other.orders):
            return False
        if not self.orders:
            return True

        scale = lcm(self.n, other.n)
        table1, bs1 = self._scaled_tables(scale)
        table2, bs2 = other._scaled_tables(scale)

        if Counter(table1.values()) != Counter(table2.values()):
            return False

        by_sig: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for x, sig in table2.items():
            by_sig.setdefault(sig, []).append(x)

        k = len(self.orders)
        idx = sorted(range(k), key=lambda i: -self.orders[i])
        qs1 = [v * (scale // self.n) for v in self.Q]

        def pair2(x, y) -> int:
            val = 0
            for i in range(len(x)):
                if x[i]:
                    row = bs2[i]
                    for j in range(len(y)):
                        if y[j]:
                            val += x[i] * y[j] * row[j]
            return val % scale

        images: list[tuple[int, ...] | None] = [None] * k

        def search(pos: int) -> bool:
            if pos == k:
                return self._generates_all([images[i] for i in range(k)], other)
            i = idx[pos]
            want = (self.orders[i], qs1[i])
            for cand in by_sig.get(want, ()):
                ok = True
                for prev in idx[:pos]:
                    if pair2(cand, images[prev]) != bs1[i][prev]:
                        ok = False
                        break
                if ok:
                    images[i] = cand
                    if search(pos + 1):
                        return True
                    images[i] = None
            return False

        return search(0)

    # -- text form --------------------------------------------------------

    def literal(self) -> str | None:
        """`Zm(p/q)+...` text form; None when cross-pairings are nonzero."""
        if not self.is_orthogonal():
            return None
        if not self.orders:
            return "trivial"
        return "+".join(f"Z{m}({v})" for m, v in zip(self.orders, self.q))

    def __str__(self) -> str:
        lit = self.literal()
        if lit is not None:
            return lit
        b = self.b
        pairs = ", ".join(
            f"b(g{i + 1},g{j + 1})={b[i][j]}"
            for i in range(len(self.orders)) for j in range(i + 1, len(self.orders))
            if b[i][j] != 0)
        base = "+".join(f"Z{m}({v})" for m, v in zip(self.orders, self.q))
        return f"{base} [{pairs}]"


def _numerator(v, n: int) -> int:
    """n * v for a value v that must be a multiple of 1/n."""
    x = Fraction(v) * n
    if x.denominator != 1:
        raise InvalidForm(f"value {v} is not a multiple of 1/{n}")
    return x.numerator


def _scaled_form(orders, qs, bs, n: int) -> "FiniteQF":
    """The form with q = qs / n and b = bs / n, stored over its own exponent."""
    m = lcm(*orders)
    s = n // m
    return FiniteQF._of(orders, m, [v // s for v in qs], [[x // s for x in row] for row in bs])


def _jordan(p: int, orders, qs, bs, top: int) -> list[tuple[int, tuple, tuple]] | None:
    """Orthogonal splitting of a p-group form into homogeneous pieces.

    The form has generators of the given orders, q = qs / top (mod 2) and
    b = bs / top (mod 1).  Each piece is (n, B, Q): n = p^a its exponent,
    B[i][j] = n * b and Q[i] = n * q (mod 2n) on its one or two generators.
    Each step splits off, at the exponent n of what remains, a generator y
    with n * b(y, y) a unit, or at p = 2 failing that a pair v, w with
    n * b(v, w) odd (at odd p the sum v + w then serves as y), and projects
    the other generators onto the orthogonal complement.  No such piece
    exists when (n/p) times the remainder lies in the radical, so None
    means b is degenerate.
    """
    k = len(orders)

    def pair(x, y) -> int:
        return sum(x[i] * bs[i][j] * y[j]
                   for i in range(k) if x[i] for j in range(k) if y[j]) % top

    def norm(x) -> int:
        return (sum(x[i] * x[i] * qs[i] for i in range(k))
                + 2 * sum(x[i] * x[j] * bs[i][j]
                          for i in range(k) for j in range(i + 1, k))) % (2 * top)

    def order(x) -> int:
        return max(m // gcd(m, xi) for m, xi in zip(orders, x))

    gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    pieces = []
    while True:
        gens = [w for w in gens if order(w) > 1]
        if not gens:
            return pieces
        n = max(order(w) for w in gens)
        s = top // n  # elements of order <= n pair to (multiples of s) / top
        basis = next(([w] for w in gens if (pair(w, w) // s) % p), None)
        if basis is None:
            basis = next(([v, w] if p == 2 else [tuple(a + c for a, c in zip(v, w))]
                          for i, v in enumerate(gens) for w in gens[i + 1:]
                          if (pair(v, w) // s) % p), None)
        if basis is None:
            return None
        gram = [[pair(x, y) // s for y in basis] for x in basis]
        if len(basis) == 1:
            inv = [[pow(gram[0][0], -1, n)]]
        else:
            (a, c), (_, d) = gram
            e = pow(a * d - c * c, -1, n)
            inv = [[d * e, -c * e], [-c * e, a * e]]
        new = []
        for w in gens:
            bw = [pair(w, x) // s for x in basis]
            coef = [sum(r[j] * bw[j] for j in range(len(basis))) % n for r in inv]
            new.append(tuple((wi - sum(c * x[i] for c, x in zip(coef, basis))) % m
                             for i, (wi, m) in enumerate(zip(w, orders))))
        gens = new
        pieces.append((n, tuple(map(tuple, gram)),
                       tuple((norm(x) // s) % (2 * n) for x in basis)))


def _odd_invariants(p: int, pieces) -> tuple[tuple[int, int, int], ...]:
    """(t, rank, Legendre symbol of the unit determinant) per scale p^t."""
    blocks: dict[int, list[int]] = {}  # exponent -> [rank, unit determinant mod p]
    for n, gram, _ in pieces:
        blk = blocks.setdefault(n, [0, 1])
        blk[0] += 1
        blk[1] = blk[1] * gram[0][0] % p
    return tuple((_factorize(n)[p], rank, 1 if pow(det, (p - 1) // 2, p) == 1 else -1)
                 for n, (rank, det) in sorted(blocks.items()))


def _two_adic_shortens(orders) -> bool:
    """Would _two_adic_model shorten a scale gap for a 2-part of these orders?"""
    exps = sorted({m.bit_length() - 1 for m in orders})
    return any(b - a > 3 for a, b in zip([0] + exps, exps))


def _two_adic_model(pieces) -> FiniteQF:
    """A small stand-in for a nondegenerate 2-part, split into ``pieces``.

    Two 2-parts of the same group structure are isomorphic iff their models
    are; the model alone does not keep the group structure.  Pieces become
    <u / 2^k> (u mod 2^(k+1)) and the blocks u_k or v_k, which is the data
    of the 2-adic symbol (Conway-Sloane, SPLAG ch. 15 sec. 7).  A gap of
    three or more between consecutive scales, counting up from scale
    1 = 2^0, is shortened to three: such a gap holds two empty (even)
    constituents, so it already separates trains and compartments, and the
    equivalences of 2-adic symbols never act across it.  For k >= 3 the
    class of <u / 2^k> depends only on u mod 8, so the shorter scale keeps
    it.
    """
    scale: dict[int, int] = {}
    old = new = 1
    for n in sorted({n for n, _, _ in pieces}):
        new <<= min(n.bit_length() - old.bit_length(), 3)
        scale[n], old = new, n
    top = new
    orders: list[int] = []
    qs: list[int] = []
    blocks: list[tuple[int, int]] = []  # (first generator, top / m)
    for n, _, norms in pieces:
        m = scale[n]
        s = top // m
        if len(norms) == 1:
            orders.append(m)
            qs.append(norms[0] * s)
        else:  # v_k when both norms are 2 * odd, else the hyperbolic u_k
            v = (norms[0] // 2) % 2 and (norms[1] // 2) % 2
            blocks.append((len(orders), s))
            orders += [m, m]
            qs += [2 * v * s] * 2
    bs = [[qs[i] if i == j else 0 for j in range(len(orders))] for i in range(len(orders))]
    for i, s in blocks:
        bs[i][i + 1] = bs[i + 1][i] = s
    return FiniteQF._of(orders, top, qs, bs)


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization {p: e} of m >= 1, by trial division."""
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


def _abelian_factors(orders) -> dict[int, int]:
    """Multiset of prime-power cyclic factors of a product of cyclic groups."""
    out: dict[int, int] = {}
    for m in orders:
        for p, e in _factorize(m).items():
            out[p ** e] = out.get(p ** e, 0) + 1
    return out


def direct_sum(*forms: FiniteQF) -> FiniteQF:
    total = FiniteQF.trivial()
    for f in forms:
        total = total.direct_sum(f)
    return total


_TOKEN = re.compile(r"Z(\d+)\(\s*(-?\d+(?:/\d+)?)\s*\)$")


def parse_form_literal(text: str) -> FiniteQF:
    """Parse `Z2(3/2)+Z30(23/30)` style literals (orthogonal sums only)."""
    text = text.strip()
    if text in ("trivial", ""):
        return FiniteQF.trivial()
    parts = [p.strip() for p in text.split("+")]
    orders: list[int] = []
    qvals: list[Fraction] = []
    for p in parts:
        m = _TOKEN.match(p)
        if not m:
            raise ValueError(f"bad finite-form token {p!r}")
        orders.append(int(m.group(1)))
        qvals.append(Fraction(m.group(2)))
    return FiniteQF.from_generators(orders, qvals)
