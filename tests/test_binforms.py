import os
import random
import subprocess
import sys

import pytest

import k3latt
from k3latt.binforms import (
    CMSurd,
    EmptyResult,
    EvenBinaryForm,
    InvalidForm,
    MathFailure,
    UnimodularTransform,
    apply_transform,
    class_number,
    cm_moduli,
    enumerate_reduced,
    equivalent,
    genus_partition,
    hessian_embeddable,
    match_disc_form,
    reduce,
)
from k3latt import discforms
from k3latt.discforms import FiniteQF, parse_form_literal
from k3latt.rank3 import Ambiguous, NoMatch
from util_oracles import brute_force_equivalent, random_posdef_form, random_sl2


def forms_as_matrices(forms):
    return {f.matrix for f in forms}


class TestFormBasics:
    def test_discriminant(self):
        assert EvenBinaryForm(1, 1, 0).d == 4
        assert EvenBinaryForm(1, 4, 1).d == 15
        assert EvenBinaryForm(2, 2, 1).d == 15

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidForm):
            EvenBinaryForm(1, 1, 3)
        with pytest.raises(InvalidForm):
            EvenBinaryForm(-1, 1, 0)

    def test_from_matrix(self):
        f = EvenBinaryForm.from_matrix([[4, 1], [1, 4]])
        assert (f.a, f.b, f.c) == (2, 2, 1)
        with pytest.raises(InvalidForm):
            EvenBinaryForm.from_matrix([[3, 1], [1, 4]])

    def test_primitivity(self):
        assert EvenBinaryForm(1, 4, 1).is_primitive()
        assert not EvenBinaryForm(2, 4, 2).is_primitive()  # 2 * (2 1; 1 4)
        assert EvenBinaryForm(3, 5, 0).is_primitive()


class TestReduce:
    def test_fixed_point(self):
        f = EvenBinaryForm(1, 4, 1)
        red, t = reduce(f)
        assert red == f and t == UnimodularTransform.identity()

    def test_mirror_at_a_equals_b(self):
        red, t = reduce(EvenBinaryForm(4, 4, -2))
        assert red == EvenBinaryForm(4, 4, 2)
        assert apply_transform(EvenBinaryForm(4, 4, -2), t) == red

    def test_undoes_shear(self):
        f = EvenBinaryForm(1, 100, 1)
        sheared = apply_transform(f, UnimodularTransform(((1, 1), (0, 1))))
        red, _ = reduce(sheared)
        assert red == f

    def test_boundary_c_negative_a(self):
        # c == -a folds onto c == +a
        red, _ = reduce(EvenBinaryForm(2, 5, -2))
        assert red == EvenBinaryForm(2, 5, 2)

    def test_output_is_reduced_random(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_posdef_form(rng)
            red, t = reduce(f)
            assert red.is_reduced()
            assert red.d == f.d
            assert apply_transform(f, t) == red
            if red.c == -red.a:
                pytest.fail("canonical form must not have c == -a")
            if red.a == red.b:
                assert red.c >= 0

    def test_class_invariance(self):
        rng = random.Random(29)
        for _ in range(200):
            f = random_posdef_form(rng)
            g = random_sl2(rng)
            assert reduce(apply_transform(f, g))[0] == reduce(f)[0]


class TestEnumerate:
    def test_golden_15(self):
        assert forms_as_matrices(enumerate_reduced(15)) == {
            ((2, 1), (1, 8)), ((4, 1), (1, 4))}

    def test_golden_60(self):
        assert forms_as_matrices(enumerate_reduced(60)) == {
            ((2, 0), (0, 30)), ((6, 0), (0, 10)), ((4, 2), (2, 16)), ((8, 2), (2, 8))}

    def test_golden_168(self):
        assert forms_as_matrices(enumerate_reduced(168)) == {
            ((2, 0), (0, 84)), ((6, 0), (0, 28)), ((12, 0), (0, 14)), ((4, 0), (0, 42))}

    def test_golden_112(self):
        assert forms_as_matrices(enumerate_reduced(112)) == {
            ((2, 0), (0, 56)), ((4, 0), (0, 28)), ((8, 0), (0, 14)), ((8, 4), (4, 16))}

    def test_sorted_lexicographically(self):
        for d in (60, 84, 112, 168):
            forms = enumerate_reduced(d)
            assert forms == sorted(forms, key=lambda f: (f.a, f.b, f.c))

    def test_bad_parity(self):
        for d in (5, 6, 9, 10):
            with pytest.raises(EmptyResult):
                enumerate_reduced(d)

    def test_members_reduced_with_discriminant(self):
        for d in range(3, 120):
            if d % 4 not in (0, 3):
                continue
            for f in enumerate_reduced(d):
                assert f.is_reduced() and f.d == d

    def test_exhaustive_against_triple_scan(self):
        # independent oracle: scan every reduced triple directly
        for d in range(3, 301):
            if d % 4 not in (0, 3):
                continue
            expect = set()
            a = 1
            while 3 * a * a <= d:
                for c in range(-a, a + 1):
                    num = d + c * c
                    if num % (4 * a) == 0 and num // (4 * a) >= a:
                        f = EvenBinaryForm(a, num // (4 * a), c)
                        if f.is_reduced() and not (c < 0 and (c == -a or a == f.b)):
                            expect.add(f)
                a += 1
            assert set(enumerate_reduced(d)) == expect, d

    def test_class_number(self):
        assert class_number(15) == 2
        assert class_number(84) == 4
        assert class_number(7) == 1

    def test_class_number_bad_parity_propagates(self):
        with pytest.raises(EmptyResult):
            class_number(5)


class TestEquivalent:
    def test_self(self):
        f = EvenBinaryForm(1, 4, 1)
        t = equivalent(f, f)
        assert t is not None and apply_transform(f, t) == f

    def test_exceptional_family_one(self):
        # c == a: (4 2; 2 16) ~ (4 -2; -2 16)
        t = equivalent(EvenBinaryForm(2, 8, 2), EvenBinaryForm(2, 8, -2))
        assert t is not None
        assert apply_transform(EvenBinaryForm(2, 8, 2), t) == EvenBinaryForm(2, 8, -2)

    def test_exceptional_family_two(self):
        # a == b: (8 2; 2 8) ~ (8 -2; -2 8)
        assert equivalent(EvenBinaryForm(4, 4, 2), EvenBinaryForm(4, 4, -2)) is not None

    def test_distinct_classes_d15(self):
        assert equivalent(EvenBinaryForm(1, 4, 1), EvenBinaryForm(2, 2, 1)) is None

    def test_agrees_with_brute_force_on_transforms(self):
        rng = random.Random(43)
        for _ in range(60):
            f = random_posdef_form(rng, bound=6)
            g = apply_transform(f, random_sl2(rng, bound=5))
            t = equivalent(f, g)
            assert t is not None
            assert apply_transform(f, t) == g

    def test_pairwise_nonequivalence_with_oracle(self):
        # the brute-force gamma search is an independent check of class
        # separation for every enumerable discriminant up to 120
        for d in range(3, 121):
            if d % 4 not in (0, 3):
                continue
            forms = enumerate_reduced(d)
            for i in range(len(forms)):
                for j in range(i + 1, len(forms)):
                    assert equivalent(forms[i], forms[j]) is None
                    assert not brute_force_equivalent(forms[i], forms[j])


class TestGenusAndMatching:
    def test_d15_two_singletons(self):
        assert [len(g) for g in genus_partition(15)] == [1, 1]

    def test_d60_four_singletons(self):
        assert [len(g) for g in genus_partition(60)] == [1, 1, 1, 1]

    def test_d4_single_class(self):
        assert genus_partition(4) == [[EvenBinaryForm(1, 1, 0)]]

    def test_d56_two_classes_per_genus(self):
        sizes = sorted(len(g) for g in genus_partition(56))
        assert sizes == [2, 2]

    def test_past_search_bound(self):
        # |G| = 100003 is odd: every class is keyed by Jordan invariants alone
        flat = [f for g in genus_partition(100003) for f in g]
        assert sorted(flat, key=lambda f: (f.a, f.b, f.c)) == enumerate_reduced(100003)

    def test_match_goldens(self):
        assert forms_as_matrices(match_disc_form(15, parse_form_literal("Z15(4/15)"))) == {
            ((4, 1), (1, 4))}
        assert forms_as_matrices(match_disc_form(60, parse_form_literal("Z2(3/2)+Z30(23/30)"))) == {
            ((6, 0), (0, 10))}
        assert forms_as_matrices(match_disc_form(28, parse_form_literal("Z2(1/2)+Z14(25/14)"))) == {
            ((2, 0), (0, 14))}

    def test_match_empty(self):
        assert match_disc_form(15, parse_form_literal("Z15(26/15)")) == []

    def test_disc_form_order_matches_d(self):
        for d in (15, 28, 60):
            for f in enumerate_reduced(d):
                assert FiniteQF.from_lattice(f.gram).group_order == d


class TestCMModuli:
    def test_d15(self):
        t1, t2 = cm_moduli(EvenBinaryForm(1, 4, 1))
        assert t1 == CMSurd(-1, 1, 2, 15)
        assert t2 == CMSurd(1, 1, 2, 15)

    def test_c_zero(self):
        t1, t2 = cm_moduli(EvenBinaryForm(1, 1, 0))
        assert t1 == CMSurd(0, 1, 2, 4)
        assert t2 == CMSurd(0, 1, 2, 4)

    def test_d28(self):
        t1, t2 = cm_moduli(EvenBinaryForm(2, 4, 2))
        assert t1 == CMSurd(-2, 1, 4, 28)
        assert t2 == CMSurd(2, 1, 2, 28)

    def test_gcd_reduction(self):
        assert CMSurd.make(-4, 2, 6, 15) == CMSurd(-2, 1, 3, 15)


class TestHessian:
    def test_goldens(self):
        assert hessian_embeddable(EvenBinaryForm(2, 2, 1))      # n = m = 2
        assert hessian_embeddable(EvenBinaryForm(1, 4, 1))      # m = 4
        assert not hessian_embeddable(EvenBinaryForm(1, 1, 1))  # all odd, d = 3


def test_reduce_self_check_survives_optimize():
    # python -O strips assert statements; reduce must still refuse a result
    # that its accumulated transform does not reproduce
    code = """
import sys
import k3latt.binforms as bf
if not sys.flags.optimize:
    sys.exit(2)
correct = bf.apply_transform
def broken(f, t):
    r = correct(f, t)
    return bf.EvenBinaryForm(r.a, r.b, -r.c)
bf.apply_transform = broken
try:
    bf.reduce(bf.EvenBinaryForm(2, 3, 1))
except AssertionError:
    sys.exit(0)
sys.exit(1)
"""
    src = os.path.dirname(os.path.dirname(k3latt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_one_math_failure_base():
    assert InvalidForm is discforms.InvalidForm
    assert not issubclass(InvalidForm, MathFailure)
    assert issubclass(MathFailure, ValueError)
    for cls in (EmptyResult, NoMatch, Ambiguous):
        assert issubclass(cls, MathFailure)
