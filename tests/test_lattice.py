import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3latt.lattice import (
    A2,
    E8,
    K3_LATTICE,
    T_HESS,
    U,
    DegenerateLattice,
    DegenerateSublattice,
    DimensionMismatch,
    GramMatrix,
    NotInDual,
    ZeroTwist,
    as_vector,
    determinant,
    direct_sum,
    discriminant_group,
    is_dual_vector,
    order_in_quotient,
    pairing_modZ,
    qnorm_mod2Z,
    signature,
    smith_normal_form,
    sublattice_index_law,
    twist,
)
from util_oracles import (
    fraction_is_dual_vector,
    fraction_order_in_quotient,
    fraction_pairing_modZ,
    fraction_qnorm_mod2Z,
    random_even_gram,
)

A_15 = GramMatrix.from_rows([[4, 1], [1, 4]])
T0 = direct_sum(A_15, GramMatrix.from_rows([[-2]]))
T1 = direct_sum(GramMatrix.from_rows([[10, 4], [4, 10]]), GramMatrix.from_rows([[-2]]))
F1_T0 = as_vector(["4/15", "-1/15", "1/2"])
F3_T1 = as_vector(["8/21", "-19/42", "0"])


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GramMatrix.from_rows([[0, 1], [2, 0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            GramMatrix.from_rows([[0, 1]])

    def test_evenness(self):
        assert U.is_even() and E8.is_even()
        assert not GramMatrix.from_rows([[1]]).is_even()


class TestDeterminant:
    def test_hyperbolic_plane(self):
        assert determinant(U) == -1

    def test_e8_unimodular(self):
        assert determinant(E8) == 1

    def test_t0(self):
        assert determinant(T0) == -30

    def test_k3_lattice(self):
        # multiplicativity over the block sum
        assert determinant(K3_LATTICE) == determinant(E8) ** 2 * determinant(U) ** 3 == -1

    def test_t_hess(self):
        assert determinant(T_HESS) == (-1) * (-4) * 12 == 48

    def test_singular(self):
        assert determinant([[1, 1], [1, 1]]) == 0


class TestSignature:
    def test_hyperbolic(self):
        assert signature(U) == (1, 1)

    def test_e8_positive_definite(self):
        assert signature(E8) == (8, 0)

    def test_t1(self):
        assert signature(T1) == (2, 1)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateLattice):
            signature(GramMatrix.from_rows([[1, 1], [1, 1]]))

    def test_twist_swaps(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_even_gram(rng, rng.randint(1, 4))
            sp, sm = signature(g)
            assert sp + sm == g.n
            assert signature(twist(g, -1)) == (sm, sp)

    def test_against_jacobi_minor_oracle(self):
        # when every leading principal minor is nonzero, the number of sign
        # changes in 1, D1, ..., Dn counts the negative eigenvalues exactly
        rng = random.Random(37)
        checked = 0
        while checked < 100:
            g = random_even_gram(rng, rng.randint(1, 5))
            minors = [determinant([row[: k + 1] for row in g.rows[: k + 1]])
                      for k in range(g.n)]
            if any(m == 0 for m in minors):
                continue
            seq = [1] + minors
            neg = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            assert signature(g) == (g.n - neg, neg)
            checked += 1


def snf_checks(mat):
    res = smith_normal_form(mat)
    m, n = len(res.U), len(res.V)
    # U*M*V == D by explicit multiplication
    mv = [[sum(mat[i][k] * res.V[k][j] for k in range(n)) for j in range(n)]
          for i in range(m)]
    umv = [[sum(res.U[i][k] * mv[k][j] for k in range(m)) for j in range(n)]
           for i in range(m)]
    assert umv == [list(row) for row in res.D]
    assert determinant(res.U) in (1, -1)
    assert determinant(res.V) in (1, -1)
    diag = [res.D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.D[i][j] == 0
    nonzero = [d for d in diag if d]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return res


class TestSmithNormalForm:
    def test_identity(self):
        res = snf_checks([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert [res.D[i][i] for i in range(3)] == [1, 1, 1]

    def test_already_chained(self):
        res = snf_checks([[2, 0], [0, 4]])
        assert [res.D[i][i] for i in range(2)] == [2, 4]

    def test_a15(self):
        res = snf_checks([[4, 1], [1, 4]])
        assert [res.D[i][i] for i in range(2)] == [1, 15]

    def test_rectangular_and_rank_deficient(self):
        snf_checks([[2, 4, 6], [4, 8, 12]])
        snf_checks([[0, 0], [0, 0]])
        snf_checks([[6, 4], [4, 8], [2, 2]])

    def test_random(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            snf_checks(mat)


class TestDiscriminantGroup:
    def test_e8_trivial(self):
        assert discriminant_group(E8) == ([], [])

    def test_a15(self):
        factors, gens = discriminant_group(A_15)
        assert factors == [15]
        assert is_dual_vector(A_15, gens[0])
        assert order_in_quotient(A_15, gens[0]) == 15

    def test_t0_cyclic30(self):
        factors, gens = discriminant_group(T0)
        assert factors == [30]
        # brute-force oracle: order is the lcm of coordinate denominators
        assert lcm(*(c.denominator for c in gens[0])) == 30

    def test_generator_orders_match_factors(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_even_gram(rng, rng.randint(1, 4))
            factors, gens = discriminant_group(g)
            assert all(order_in_quotient(g, v) == m for m, v in zip(factors, gens))

    def test_order_product_is_det(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_even_gram(rng, rng.randint(1, 4))
            factors, _ = discriminant_group(g)
            prod = 1
            for m in factors:
                prod *= m
            assert prod == abs(determinant(g))


class TestDualAndNorms:
    def test_u_half_vector_not_dual(self):
        assert not is_dual_vector(U, as_vector(["1/2", "0"]))

    def test_f1_in_dual(self):
        assert is_dual_vector(T0, F1_T0)
        assert is_dual_vector(A_15, as_vector(["4/15", "-1/15"]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_dual_vector(U, as_vector(["1/2"]))

    def test_qnorm_goldens(self):
        assert qnorm_mod2Z(T0, F1_T0) == Fraction(53, 30)
        assert qnorm_mod2Z(T1, F3_T1) == Fraction(5, 42)
        assert qnorm_mod2Z(T1, as_vector(["1/2", "0", "1/2"])) == 0
        assert qnorm_mod2Z(T1, as_vector(["1/2", "0", "-1/2"])) == 0

    def test_qnorm_requires_dual(self):
        with pytest.raises(NotInDual):
            qnorm_mod2Z(U, as_vector(["1/2", "0"]))

    def test_pairing_zero_vector(self):
        z = as_vector(["0", "0"])
        assert pairing_modZ(U, z, z) == 0

    def test_pairing_diag_consistency(self):
        v = as_vector(["4/15", "-1/15"])
        assert pairing_modZ(A_15, v, v) == qnorm_mod2Z(A_15, v) % 1

    def test_pairing_one_half_between_generators(self):
        # the two classes spanning the d=28 class [4 2; 2 8] pair to 1/2
        b = GramMatrix.from_rows([[4, 2], [2, 8]])
        assert pairing_modZ(b, as_vector(["0", "1/2"]),
                            as_vector(["3/14", "1/14"])) == Fraction(1, 2)

    def test_orders(self):
        assert order_in_quotient(T0, as_vector(["1", "-2", "3"])) == 1
        assert order_in_quotient(T0, F1_T0) == 30
        assert order_in_quotient(T1, F3_T1) == 42

    def test_qnorm_well_defined_mod_lattice(self):
        rng = random.Random(97)
        for _ in range(40):
            g = random_even_gram(rng, 3)
            _, gens = discriminant_group(g)
            if not gens:
                continue
            v = gens[0]
            w = tuple(c + rng.randint(-3, 3) for c in v)
            assert qnorm_mod2Z(g, v) == qnorm_mod2Z(g, w)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotInDual as exc:
        return ("NotInDual", str(exc))


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(1, 5), seed=st.integers(0, 10**9), even=st.booleans())
def test_integer_dual_arithmetic_matches_fractions(rank, seed, even):
    """Cleared denominators give the Fraction results, or the same NotInDual."""
    rng = random.Random(seed)
    g = random_even_gram(rng, rank, entry_bound=12)
    if not even:
        g = GramMatrix.from_rows([[x + (i == j) * rng.randint(0, 1) for j, x in enumerate(r)]
                                  for i, r in enumerate(g.rows)])
    _, gens = discriminant_group(g) if determinant(g) else ([], [])

    def vector():
        v = [Fraction(rng.randint(-3, 3)) for _ in range(rank)]
        for gen in gens:
            k = rng.randint(-2, 2)
            v = [a + k * b for a, b in zip(v, gen)]
        if rng.random() < 0.3:
            v[rng.randrange(rank)] += Fraction(1, rng.randint(2, 12))
        return tuple(v)

    for _ in range(4):
        v, w = vector(), vector()
        assert is_dual_vector(g, v) == fraction_is_dual_vector(g, v)
        assert _outcome(qnorm_mod2Z, g, v) == _outcome(fraction_qnorm_mod2Z, g, v)
        assert _outcome(order_in_quotient, g, v) == _outcome(fraction_order_in_quotient, g, v)
        assert _outcome(pairing_modZ, g, v, w) == _outcome(fraction_pairing_modZ, g, v, w)


class TestSublatticeIndexLaw:
    def test_identity(self):
        assert sublattice_index_law(U, [[1, 0], [0, 1]]) == (1, True)

    def test_u_index_two(self):
        assert sublattice_index_law(U, [[2, 0], [0, 1]]) == (2, True)

    def test_rank_one(self):
        assert sublattice_index_law(GramMatrix.from_rows([[2]]), [[3]]) == (3, True)

    def test_singular_basis(self):
        with pytest.raises(DegenerateSublattice):
            sublattice_index_law(U, [[1, 1], [1, 1]])

    def test_random(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 4)
            g = random_even_gram(rng, n)
            while True:
                basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                if determinant(basis) != 0:
                    break
            _, verified = sublattice_index_law(g, basis)
            assert verified


class TestSumAndTwist:
    def test_twist_u(self):
        assert twist(U, 2).rows == ((0, 2), (2, 0))

    def test_zero_twist(self):
        with pytest.raises(ZeroTwist):
            twist(U, 0)

    def test_direct_sum_blocks(self):
        g = direct_sum(U, A2)
        assert g.n == 4
        assert g.rows[0][1] == 1 and g.rows[2][3] == -1 and g.rows[1][2] == 0

    def test_det_multiplicative(self):
        assert determinant(direct_sum(U, A2)) == determinant(U) * determinant(A2)
