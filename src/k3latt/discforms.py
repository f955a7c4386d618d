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
mutually orthogonal, so two forms are isomorphic iff their p-parts are.  Each
p-part is split into Jordan pieces once (``_jordan``), with p^e, the exponent
of the p-part, read off a single factorization of n.  At an odd prime q is
determined by b, and a nondegenerate p-part is classified by its Jordan
invariants: for each scale p^t, the rank of the homogeneous component and
the Legendre symbol of its unit determinant (Wall, "Quadratic forms on
finite groups", Topology 1963; Nikulin 1979, 1.8).  A nondegenerate 2-part
is classified by its canonical 2-adic symbol: for each scale 2^t the rank,
sign, type and oddity read off the pieces, made canonical by oddity fusion
over compartments and sign walking along trains (Conway-Sloane, SPLAG
ch. 15 sec. 7.3-7.6; ``_two_adic_symbol``).  So ``genus_key`` decides
isomorphism of nondegenerate forms, every discriminant form of a lattice
among them.  Only degenerate parts, which come from literal input such as
``Z25(0)``, are compared by exhaustive search over generator images.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .arith import factorize
from .errors import InvalidForm
from .lattice import (
    DimensionMismatch,
    GramMatrix,
    OddLattice,
    DegenerateLattice,
    smith_normal_form,
)
from .value import Value

# Largest part that is_isomorphic searches exhaustively: a degenerate p-part.
# Nondegenerate parts are compared by their Jordan invariants or 2-adic
# symbol at any order and are not bounded.
ISO_GROUP_BOUND = 100_000


class TooLarge(ValueError):
    """A degenerate p-part that must be searched exceeds ISO_GROUP_BOUND."""


class FiniteQF(Value):
    """Finite abelian group with a Q/2Z quadratic form and Q/Z pairing.

    ``FiniteQF(orders, q, b)``: ``orders[i]`` is the order of generator g_i,
    ``q[i] = q(g_i)`` in [0,2), and ``b[i][j] = b(g_i, g_j)`` in [0,1) with
    b[i][i] == q[i] mod 1.  Stored are ``n = lcm(orders)`` and the integers
    ``Q[i] = n * q[i]`` and ``B[i][j] = n * b[i][j]``.  The instance
    ``__dict__`` holds what ``cached_property`` computes.
    """

    __slots__ = ("orders", "n", "Q", "B", "__dict__")
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
        return {p: FiniteQF._of(orders, p ** e, qs, bs)
                for p, (e, orders, qs, bs) in self._primary_data().items()}

    def _primary_data(self) -> dict[int, tuple]:
        """{p: (e, orders, Q, B)}: the p-part, with q = Q / p^e and b = B / p^e.

        p^e is the exponent of the p-part; the exponent n of the form is
        factored once.
        """
        n, qint, bint = self.n, self.Q, self.B
        data = {}
        for p, e in factorize(n).items():
            pe = p ** e
            s = n // pe
            gens = [(i, m // a, a) for i, m in enumerate(self.orders) if (a := gcd(m, pe)) > 1]
            data[p] = (e, tuple(a for _, _, a in gens),
                       [c * c * qint[i] % (2 * n) // s for i, c, _ in gens],
                       [[ci * cj * bint[i][j] % n // s for j, cj, _ in gens]
                        for i, ci, _ in gens])
        return data

    @cached_property
    def _split(self) -> tuple[tuple, dict[int, "FiniteQF"]]:
        """(invariants of the nondegenerate p-parts, the degenerate p-parts).

        The invariants are the Jordan invariants of an odd part and the
        canonical 2-adic symbol of the 2-part; they decide isomorphism.  A
        p-part is degenerate when its Jordan pieces do not fill the group.
        """
        invariants, searched = [], {}
        for p, (e, orders, qs, bs) in self._primary_data().items():
            pieces = _jordan(p, e, qs, bs)
            if prod(p ** (t * len(norms)) for t, _, norms in pieces) != prod(orders):
                searched[p] = FiniteQF._of(orders, p ** e, qs, bs)
            elif p == 2:
                invariants.append((p, _two_adic_symbol(pieces)))
            else:
                invariants.append((p, _odd_invariants(p, pieces)))
        return tuple(invariants), searched

    def genus_key(self) -> tuple:
        """Hashable isomorphism invariant: (decided, searched).

        ``decided`` holds, by prime, the invariants of each nondegenerate
        p-part: the Jordan invariants (t, rank, Legendre symbol) of an odd
        part and the canonical 2-adic symbol of the 2-part.  ``searched``
        holds the group structure of each degenerate p-part.  Isomorphic
        forms have equal keys, and for nondegenerate forms (every
        discriminant form of a lattice) equal keys mean isomorphic.
        """
        invariants, searched = self._split
        return invariants, tuple((p, tuple(sorted(part.orders))) for p, part in searched.items())

    # -- isomorphism ----------------------------------------------------

    def is_isomorphic(self, other: "FiniteQF") -> bool:
        """Is there a group isomorphism carrying q to q?

        Decided prime by prime: nondegenerate p-parts by their invariants
        (Jordan invariants at odd p, the canonical 2-adic symbol at p = 2),
        degenerate p-parts by an exhaustive search.
        """
        if self.genus_key() != other.genus_key():
            return False
        searched = other._split[1]
        return all(part._search_isomorphic(searched[p]) for p, part in self._split[1].items())

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

        Both forms are p-parts with the same group structure, as their
        genus keys say.  It is enough to match q on generators and b on
        generator pairs: bilinear expansion then transports q everywhere,
        and b is determined by q.  Candidate images are pruned by element
        order and q value.
        """
        if self.group_order > ISO_GROUP_BOUND:
            raise TooLarge(f"the part to search has order {self.group_order}, "
                           f"over the bound {ISO_GROUP_BOUND}")

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


def _jordan(p: int, e: int, qs, bs) -> list[tuple[int, tuple, tuple]]:
    """Orthogonal splitting of a p-group form into homogeneous pieces.

    The form has q = qs / p^e (mod 2) and b = bs / p^e (mod 1) on its
    generators.  Each piece is (t, B, Q) on one or two generators of order
    p^t: B[i][j] = p^t * b and Q[i] = p^t * q (mod 2 p^t).  Each step takes
    the largest p^t to which some generator pairs, and splits off a
    generator y with p^t * b(y, y) a unit, or at p = 2 failing that a pair
    v, w with p^t * b(v, w) odd (at odd p, v is replaced by v + w, which
    then serves as y).  The other generators are projected onto the
    orthogonal complement by updating their pairings and norms in place,
    b(w', v) = b(w, v) - sum c_i b(x_i, v) and q(w') = q(w) - q(sum c_i x_i),
    so each pairing is computed once per step.  The pieces fill the group
    exactly when b is nondegenerate; otherwise what is left pairs to zero
    with everything.
    """
    top = p ** e
    gram = [list(r) for r in bs]
    norm = list(qs)
    live = list(range(len(norm)))
    pieces = []
    while True:
        s = gcd(top, *[gram[w][v] for w in live for v in live])
        if s == top:  # what is left pairs to zero with everything
            return pieces
        n, t = top // s, 0
        while p ** t < n:
            t += 1
        basis = next(([w] for w in live if gram[w][w] // s % p), None)
        if basis is None:
            v, w = next((v, w) for i, v in enumerate(live) for w in live[i + 1:]
                        if gram[v][w] // s % p)
            if p == 2:
                basis = [v, w]
            else:
                norm[v] = (norm[v] + norm[w] + 2 * gram[v][w]) % (2 * top)
                for x in live:
                    gram[v][x] = gram[x][v] = (gram[v][x] + gram[w][x]) % top
                gram[v][v] = norm[v] % top
                basis = [v]
        gb = tuple(tuple(gram[x][y] // s for y in basis) for x in basis)
        pieces.append((t, gb, tuple(norm[x] // s % (2 * n) for x in basis)))
        live = [w for w in live if w not in basis]
        if not live:
            return pieces
        if len(basis) == 1:
            inv = [[pow(gb[0][0], -1, n)]]
        else:
            (a, c), (_, d) = gb
            det = pow(a * d - c * c, -1, n)
            inv = [[d * det, -c * det], [-c * det, a * det]]
        coef = {}
        for w in live:
            c = coef[w] = [sum(r * gram[w][x] // s for r, x in zip(row, basis)) % n
                           for row in inv]
            y = sum(ci * ci * norm[x] for ci, x in zip(c, basis))
            if len(basis) == 2:
                y += 2 * c[0] * c[1] * gram[basis[0]][basis[1]]
            norm[w] = (norm[w] - y) % (2 * top)
        for i, w in enumerate(live):
            for v in live[i:]:
                gram[w][v] = gram[v][w] = (
                    gram[w][v] - sum(ci * gram[x][v] for ci, x in zip(coef[w], basis))) % top


def _odd_invariants(p: int, pieces) -> tuple[tuple[int, int, int], ...]:
    """(t, rank, Legendre symbol of the unit determinant) per scale p^t."""
    blocks: dict[int, list[int]] = {}  # t -> [rank, unit determinant mod p]
    for t, gram, _ in pieces:
        blk = blocks.setdefault(t, [0, 1])
        blk[0] += 1
        blk[1] = blk[1] * gram[0][0] % p
    return tuple((t, rank, 1 if pow(det, (p - 1) // 2, p) == 1 else -1)
                 for t, (rank, det) in sorted(blocks.items()))


def _two_adic_symbol(pieces) -> tuple[tuple[int, int, int, int, int], ...]:
    """Canonical 2-adic symbol of a nondegenerate 2-part split into ``pieces``.

    One entry (t, rank, odd, sign, oddity) per scale 2^t (Conway-Sloane,
    SPLAG ch. 15 sec. 7).  A piece <u / 2^t> is odd, with sign +1 when
    u = +-1 mod 8 and oddity u; a block is even, with sign -1 for v_t (both
    norms 2 mod 4) and +1 for u_t.  The component at 2^t is the unimodular
    form of its pieces, and its (rank, odd, sign, oddity) are those of
    the lattice component 2^t (that form)^-1 of a lattice with this
    discriminant form.

    Two such symbols give isomorphic forms iff oddity fusion and sign
    walking carry one to the other.  A compartment is a maximal run of
    consecutive odd scales, and only its total oddity is kept, on its first
    scale (0 on the others).  A train is a maximal run of scales in which
    no two neighbours are both even (an empty scale counts as even).
    Walking flips the signs at two scales of one train and adds 4 to the
    oddity of the compartment met at each step between neighbours.  Every
    sign is walked down to the first nonempty scale of its train.  Scale
    2^0 is an even component of any rank that a discriminant form does not
    see, so the train that holds it (and 2^1 too when 2^1 is odd)
    absorbs every sign: <1/2> and <5/2>, one form, read as sign +1,
    oddity 1 and sign -1, oddity 5.
    """
    comps: dict[int, list[int]] = {}  # t -> [rank, sign, odd, oddity]
    for t, _, norms in pieces:
        c = comps.setdefault(t, [0, 1, 0, 0])
        c[0] += len(norms)
        if len(norms) == 1:
            u = norms[0] % 8
            c[1] *= 1 if u in (1, 7) else -1
            c[2] = 1
            c[3] += u
        elif norms[0] & norms[1] & 2:
            c[1] = -c[1]
    comp: dict[int, int] = {}  # odd scale -> first scale of its compartment
    for t in sorted(t for t, c in comps.items() if c[2]):
        comp[t] = comp.get(t - 1, t)
    oddity = dict.fromkeys(comp.values(), 0)
    for t, first in comp.items():
        oddity[first] += comps[t][3]
    sink: int | None = 0  # the scale that takes the signs of the current train
    for t in range(1, max(comps) + 1):
        if t - 1 not in comp and t not in comp:
            sink = None
        if t not in comps:
            continue
        if sink is None:
            sink = t
        elif comps[t][1] < 0:
            comps[t][1] = 1
            if sink:
                comps[sink][1] *= -1
            for m in range(sink + 1, t + 1):  # the step between m - 1 and m
                first = comp[m] if m in comp else comp[m - 1]
                oddity[first] += 4
    return tuple((t, rank, odd, sign, oddity.get(t, 0) % 8)
                 for t, (rank, sign, odd, _) in sorted(comps.items()))


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
            raise InvalidForm(f"bad finite-form token {p!r}")
        orders.append(int(m.group(1)))
        try:
            qvals.append(Fraction(m.group(2)))
        except ZeroDivisionError:
            raise InvalidForm(f"zero denominator in {p!r}") from None
    return FiniteQF.from_generators(orders, qvals)
