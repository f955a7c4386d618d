import random
from fractions import Fraction

import pytest

from k3latt.discforms import (
    FiniteQF,
    InvalidForm,
    TooLarge,
    direct_sum,
    parse_form_literal,
)
from k3latt.lattice import (
    E8,
    DimensionMismatch,
    GramMatrix,
    OddLattice,
    determinant,
    twist,
)
from util_oracles import random_even_gram

A_15 = GramMatrix.from_rows([[4, 1], [1, 4]])


class TestConstruction:
    def test_literal_roundtrip(self):
        f = parse_form_literal("Z2(3/2)+Z30(23/30)")
        assert f.orders == (2, 30)
        assert f.literal() == "Z2(3/2)+Z30(23/30)"

    def test_trivial(self):
        assert parse_form_literal("trivial").orders == ()

    @pytest.mark.parametrize("text", ["Z2(1/0)", "Z0(1/2)", "Z1(0)", "Z2(1/0)+Z3(2/3)"])
    def test_literal_rejects_zero_orders_and_denominators(self, text):
        with pytest.raises(InvalidForm):
            parse_form_literal(text)

    def test_rejects_bad_q(self):
        # q = 1/3 on Z_2 fails q(2g) = 0 mod 2Z
        with pytest.raises(InvalidForm):
            FiniteQF.cyclic(2, Fraction(1, 3))

    def test_rejects_bad_pairing(self):
        # pairing 1/3 is not killed by either order-2 generator
        with pytest.raises(InvalidForm):
            FiniteQF.from_generators([2, 2], [0, 0], {(0, 1): Fraction(1, 3)})

    def test_pairing_storage(self):
        f = FiniteQF.from_generators([2, 2, 7], ["0", "0", "12/7"], {(0, 1): "1/2"})
        assert f.b[0][1] == Fraction(1, 2)
        assert f.literal() is None
        assert not f.is_orthogonal()


class TestFromLattice:
    def test_e8_trivial(self):
        assert FiniteQF.from_lattice(E8).orders == ()

    def test_a15(self):
        f = FiniteQF.from_lattice(A_15)
        assert f.is_isomorphic(parse_form_literal("Z15(4/15)"))

    def test_diag_6_10(self):
        f = FiniteQF.from_lattice(GramMatrix.from_rows([[6, 0], [0, 10]]))
        assert f.is_isomorphic(parse_form_literal("Z2(3/2)+Z30(23/30)"))

    def test_group_order_is_det(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_even_gram(rng, rng.randint(1, 3))
            assert FiniteQF.from_lattice(g).group_order == abs(determinant(g))

    def test_odd_lattice_rejected(self):
        with pytest.raises(OddLattice):
            FiniteQF.from_lattice(GramMatrix.from_rows([[3]]))


class TestDirectSumNegate:
    def test_sum_with_trivial(self):
        f = parse_form_literal("Z15(4/15)")
        assert f.direct_sum(FiniteQF.trivial()) == f

    def test_order_six(self):
        f = parse_form_literal("Z2(1/2)+Z3(4/3)")
        assert f.group_order == 6

    def test_order_112(self):
        f = parse_form_literal("Z4(0)+Z28(12/7)")
        assert f.group_order == 112

    def test_variadic(self):
        f = direct_sum(parse_form_literal("Z2(1/2)"), parse_form_literal("Z3(4/3)"),
                       parse_form_literal("Z5(2/5)"))
        assert f.orders == (2, 3, 5)

    def test_negate_trivial(self):
        assert FiniteQF.trivial().negate() == FiniteQF.trivial()

    def test_negate_goldens(self):
        assert parse_form_literal("Z30(7/30)").negate() == parse_form_literal("Z30(53/30)")
        assert parse_form_literal("Z15(26/15)").negate() == parse_form_literal("Z15(4/15)")

    def test_negate_involution(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_even_gram(rng, rng.randint(1, 3))
            f = FiniteQF.from_lattice(g)
            assert f.negate().negate() == f

    def test_negate_matches_twisted_lattice(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_even_gram(rng, rng.randint(1, 3))
            lhs = FiniteQF.from_lattice(twist(g, -1))
            rhs = FiniteQF.from_lattice(g).negate()
            assert lhs.is_isomorphic(rhs)


class TestCyclicNormalize:
    def test_golden_30(self):
        f = parse_form_literal("Z2(1/2)+Z3(4/3)+Z5(2/5)").cyclic_normalize()
        assert f == parse_form_literal("Z30(7/30)")

    def test_golden_14(self):
        f = parse_form_literal("Z2(0)+Z7(12/7)").cyclic_normalize()
        assert f == parse_form_literal("Z14(12/7)")

    def test_golden_case_8_2(self):
        f = parse_form_literal("Z2(3/2)+Z2(3/2)+Z3(2/3)+Z7(12/7)").cyclic_normalize()
        assert f == parse_form_literal("Z2(3/2)+Z42(79/42)")

    def test_preserves_isomorphism(self):
        rng = random.Random(59)
        for _ in range(20):
            g = random_even_gram(rng, rng.randint(1, 3))
            f = FiniteQF.from_lattice(g)
            assert f.cyclic_normalize().is_isomorphic(f)

    def test_keeps_pairings(self):
        f = FiniteQF.from_generators([2, 2, 7], ["0", "0", "12/7"], {(0, 1): "1/2"})
        n = f.cyclic_normalize()
        assert n.orders == (2, 14)
        assert n.pairing([1, 0], [0, 1]) == Fraction(1, 2)
        assert n.is_isomorphic(f)


class TestIsIsomorphic:
    def test_reflexive(self):
        f = parse_form_literal("Z2(3/2)+Z30(23/30)")
        assert f.is_isomorphic(f)

    def test_crt_identity(self):
        assert parse_form_literal("Z30(7/30)").is_isomorphic(
            parse_form_literal("Z2(1/2)+Z3(4/3)+Z5(2/5)"))

    def test_distinguishes_d15_classes(self):
        assert not parse_form_literal("Z15(4/15)").is_isomorphic(
            parse_form_literal("Z15(26/15)"))

    def test_symmetric_and_transitive_on_sample(self):
        forms = [
            parse_form_literal("Z30(7/30)"),
            parse_form_literal("Z2(1/2)+Z3(4/3)+Z5(2/5)"),
            parse_form_literal("Z2(1/2)+Z15(26/15)").cyclic_normalize(),
        ]
        for f in forms:
            for g in forms:
                assert f.is_isomorphic(g) == g.is_isomorphic(f)
        # transitivity on an isomorphic pair chained through the first
        assert forms[0].is_isomorphic(forms[1])
        third = parse_form_literal("Z5(2/5)+Z6(11/6)").cyclic_normalize()
        assert forms[1].is_isomorphic(third) == forms[0].is_isomorphic(third)

    def test_group_structure_matters(self):
        # same order 16, different groups
        a = parse_form_literal("Z4(1/2)+Z4(1/2)")
        b = parse_form_literal("Z2(1/2)+Z8(1/8)").direct_sum(FiniteQF.trivial())
        assert not a.is_isomorphic(b)

    def test_pairing_matters(self):
        plain = parse_form_literal("Z2(0)+Z2(0)+Z42(5/42)")
        paired = FiniteQF.from_generators([2, 2, 42], ["0", "0", "5/42"], {(0, 1): "1/2"})
        assert not plain.is_isomorphic(paired)

    def test_odd_jordan_invariants(self):
        # the 2-part Z2(1/2) contributes its 2-adic symbol: scale 2^1,
        # rank 1, odd, sign +1, oddity 1
        assert parse_form_literal("Z30(23/30)").genus_key()[0] == (
            (2, ((1, 1, 1, 1, 1),)), (3, ((1, 1, -1),)), (5, ((1, 1, -1),)))
        # rank 2 at p = 3: only the Legendre symbol of the determinant counts
        a = parse_form_literal("Z3(2/3)+Z3(2/3)")
        assert a.is_isomorphic(parse_form_literal("Z3(4/3)+Z3(4/3)"))
        assert not a.is_isomorphic(parse_form_literal("Z3(2/3)+Z3(4/3)"))

    def test_primary_parts_sum_to_form(self):
        f = FiniteQF.from_generators([2, 2, 42], ["0", "0", "5/42"], {(0, 1): "1/2"})
        parts = f.primary_parts()
        assert {p: g.group_order for p, g in parts.items()} == {2: 8, 3: 3, 7: 7}
        assert direct_sum(*parts.values()).is_isomorphic(f)

    def test_degenerate_odd_part_is_searched(self):
        f = parse_form_literal("Z25(0)")
        assert f.genus_key()[0] == ()
        assert f.is_isomorphic(parse_form_literal("Z25(0)"))
        assert not f.is_isomorphic(parse_form_literal("Z25(2/5)"))

    def test_shortened_two_parts_keep_group_structure(self):
        # both 2-parts shorten to scales 8 and 64, but Z8+Z1024 is not Z32+Z256
        a = parse_form_literal("Z8(1/8)+Z1024(13/1024)")
        b = parse_form_literal("Z32(1/32)+Z256(13/256)")
        assert not a.is_isomorphic(b)
        assert a.genus_key() != b.genus_key()
        assert a.is_isomorphic(parse_form_literal("Z8(9/8)+Z1024(5/1024)"))

    def test_equal_keys_still_searched(self):
        # the 2-parts have the same (order, q) counts but are not isomorphic
        z2 = parse_form_literal("Z2(1/2)")
        a = z2.direct_sum(FiniteQF.from_generators([4, 4], [0, 0], {(0, 1): "1/2"}))
        b = z2.direct_sum(FiniteQF.from_generators([4, 4], ["1/2", 0], {(0, 1): "1/2"}))
        assert a.genus_key() == b.genus_key()
        assert not a.is_isomorphic(b)

    def test_too_large(self):
        # the 2-part must be searched, and 512 * 512 exceeds ISO_GROUP_BOUND
        a = FiniteQF.cyclic(512, 0).direct_sum(FiniteQF.cyclic(512, 0))
        with pytest.raises(TooLarge):
            a.is_isomorphic(a)


class TestEvaluate:
    def test_zero(self):
        assert parse_form_literal("Z15(4/15)").evaluate([0]) == 0

    def test_scaling(self):
        f = parse_form_literal("Z15(4/15)")
        assert f.evaluate([2]) == Fraction(16, 15)
        assert f.evaluate([4]) == Fraction(4, 15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse_form_literal("Z15(4/15)").evaluate([1, 2])

    def test_axioms_random(self):
        rng = random.Random(71)
        for _ in range(25):
            g = random_even_gram(rng, rng.randint(1, 3))
            f = FiniteQF.from_lattice(g)
            k = len(f.orders)
            if k == 0:
                continue
            for _ in range(8):
                a = [rng.randrange(m) for m in f.orders]
                b = [rng.randrange(m) for m in f.orders]
                n = rng.randint(-3, 5)
                na = [n * x for x in a]
                # q(na) == n^2 q(a)
                assert f.evaluate(na) == (n * n * f.evaluate(a)) % 2
                # q(a+b) - q(a) - q(b) == 2 b(a,b) mod 2Z
                ab = [x + y for x, y in zip(a, b)]
                lhs = (f.evaluate(ab) - f.evaluate(a) - f.evaluate(b)) % 2
                assert lhs == (2 * f.pairing(a, b)) % 2
