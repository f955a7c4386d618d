import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3latt.lattice import DimensionMismatch, GramMatrix, determinant, discriminant_group
from k3latt.nsverify import (
    CurveConfig,
    InvalidConfig,
    check_divisible_class,
    generators_report,
)
from util_oracles import closure_subgroup_order, random_even_gram


def diag_config(*entries, names=None):
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    names = tuple(names or (f"C{i+1}" for i in range(n)))
    return CurveConfig(names, GramMatrix.from_rows(rows))


class TestCurveConfig:
    def test_rational_curves_flag(self):
        CurveConfig(("M1",), GramMatrix.from_rows([[-2]]), rational_curves=True)
        with pytest.raises(InvalidConfig):
            CurveConfig(("M1",), GramMatrix.from_rows([[-4]]), rational_curves=True)

    def test_label_count(self):
        with pytest.raises(InvalidConfig):
            CurveConfig(("A",), GramMatrix.from_rows([[-2, 0], [0, -2]]))


class TestCheckDivisibleClass:
    def test_three_disjoint_minus2_curves(self):
        cfg = diag_config(-2, -2, -2)
        rep = check_divisible_class(cfg, (1, 1, 1), 2)
        assert rep.in_dual
        assert rep.qnorm == Fraction(1, 2)  # -3/2 mod 2Z
        assert rep.order == 2

    def test_single_curve_half(self):
        rep = check_divisible_class(diag_config(-2), (1,), 2)
        assert rep.in_dual and rep.qnorm == Fraction(3, 2)  # -1/2 mod 2Z

    def test_zero_class(self):
        rep = check_divisible_class(diag_config(-2, -2), (0, 0), 2)
        assert rep.in_dual and rep.order == 1 and rep.qnorm == 0

    def test_not_in_dual(self):
        rep = check_divisible_class(diag_config(-2), (1,), 3)
        assert not rep.in_dual and rep.qnorm is None

    def test_n_equal_one_always_integral(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_even_gram(rng, rng.randint(1, 3))
            cfg = CurveConfig(tuple(f"C{i}" for i in range(g.n)), g)
            coeffs = [rng.randint(-4, 4) for _ in range(g.n)]
            rep = check_divisible_class(cfg, coeffs, 1)
            assert rep.in_dual and rep.order == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_divisible_class(diag_config(-2, -2), (1,), 2)

    def test_norm_stable_mod_n_shifts(self):
        cfg = diag_config(-2, -2, -2)
        base = check_divisible_class(cfg, (1, 1, 1), 2)
        shifted = check_divisible_class(cfg, (3, -1, 5), 2)  # + 2 * (1,-1,2)
        assert base.qnorm == shifted.qnorm


class TestGeneratorsReport:
    def test_a15_generator(self):
        cfg = CurveConfig(("e1", "e2"), GramMatrix.from_rows([[4, 1], [1, 4]]))
        rep = generators_report(cfg, [((4, -1), 15)])
        assert rep.classes[0].order == 15
        assert rep.subgroup_order == 15
        assert rep.generates_full_group

    def test_single_minus2(self):
        cfg = CurveConfig(("M",), GramMatrix.from_rows([[-2]]))
        rep = generators_report(cfg, [((1,), 2)])
        assert rep.subgroup_order == 2 and rep.generates_full_group

    def test_diag_6_10_pair(self):
        cfg = CurveConfig(("u", "v"), GramMatrix.from_rows([[6, 0], [0, 10]]))
        rep = generators_report(cfg, [((1, 0), 2), ((10, 3), 30)])  # (1/2,0), (1/3,1/10)
        assert rep.expected_order == 60
        assert rep.subgroup_order == 60
        assert rep.generates_full_group

    def test_partial_subgroup(self):
        cfg = CurveConfig(("u", "v"), GramMatrix.from_rows([[6, 0], [0, 10]]))
        rep = generators_report(cfg, [((1, 0), 2)])
        assert rep.subgroup_order == 2
        assert not rep.generates_full_group

    def test_non_dual_candidates_ignored_in_span(self):
        cfg = diag_config(-2, -2)
        rep = generators_report(cfg, [((1, 0), 3), ((1, 0), 2)])
        assert not rep.classes[0].in_dual
        assert rep.classes[1].in_dual
        assert rep.subgroup_order == 2


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 10**9))
def test_subgroup_order_matches_closure(rank, seed):
    rng = random.Random(seed)
    g = random_even_gram(rng, rank, entry_bound=6)
    assume(abs(determinant(g)) <= 3000)
    factors, gens = discriminant_group(g)
    candidates = []
    for _ in range(rng.randint(0, 3)):
        v = [sum(rng.randrange(m) * gen[r] for m, gen in zip(factors, gens))
             + rng.randint(-2, 2) for r in range(rank)]
        n = lcm(*(x.denominator for x in v)) * rng.randint(1, 3)
        candidates.append(([int(x * n) for x in v], n))
    # usually outside the dual, and then left out of the span
    candidates.append(([rng.randint(-3, 3) for _ in range(rank)], rng.randint(1, 5)))
    cfg = CurveConfig(tuple(f"C{i}" for i in range(rank)), g)
    assert (generators_report(cfg, candidates).subgroup_order
            == closure_subgroup_order(g, candidates))


def test_twenty_four_halved_curves():
    rep = generators_report(diag_config(*[-2] * 24),
                            [([int(i == j) for j in range(24)], 2) for i in range(24)])
    assert rep.subgroup_order == 2 ** 24
    assert rep.generates_full_group
