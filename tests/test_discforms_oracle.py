"""Prime-by-prime isomorphism against the whole-group exhaustive search."""

import random
from fractions import Fraction
from math import gcd, prod

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from k3latt.binforms import genus_partition
from k3latt.catalog import load_catalog
from k3latt.discforms import FiniteQF, direct_sum, parse_form_literal
from k3latt.lattice import determinant
from util_oracles import (
    change_basis,
    exhaustive_genus_partition,
    exhaustive_isomorphic,
    random_even_gram,
    scale_form,
    shear,
)

SLOW = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def unit_mod(rng: random.Random, n: int) -> int:
    while True:
        u = rng.randrange(1, 2 * n + 2)
        if gcd(u, n) == 1:
            return u


def random_shears(f: FiniteQF, rng: random.Random, steps: int = 4) -> FiniteQF:
    k = len(f.orders)
    for _ in range(steps if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.randrange(f.orders[j])
        if f.orders[i] % (f.orders[j] // gcd(f.orders[j], c)) == 0:
            f = shear(f, i, j, c)
    return f


def check_against_oracle(f: FiniteQF, g: FiniteQF) -> bool:
    expected = exhaustive_isomorphic(f, g)
    assert f.is_isomorphic(g) == expected
    assert g.is_isomorphic(f) == expected
    if expected:
        assert f.genus_key() == g.genus_key()
    return expected


@SLOW
@given(rank=st.integers(1, 4), seed=st.integers(0, 10**9))
def test_random_lattices(rank, seed):
    rng = random.Random(seed)
    g = random_even_gram(rng, rank, entry_bound=8 if rank < 3 else 4)
    n = abs(determinant(g))
    assume(n <= 10**4)
    f = FiniteQF.from_lattice(g)
    same = FiniteQF.from_lattice(change_basis(g, rng))
    assert check_against_oracle(f, same)
    check_against_oracle(f, scale_form(same, unit_mod(rng, n)))
    check_against_oracle(f, f.negate())


PIECES = {
    (2,): ["Z2(0)", "Z2(1)", "Z2(1/2)", "Z2(3/2)"],
    (4,): ["Z4(0)", "Z4(1)", "Z4(1/4)", "Z4(3/4)", "Z4(5/4)", "Z4(1/2)"],
    (8,): ["Z8(1/8)", "Z8(3/8)", "Z8(5/8)", "Z8(7/8)", "Z8(0)"],
    (3,): ["Z3(2/3)", "Z3(4/3)", "Z3(0)"],
    (9,): ["Z9(2/9)", "Z9(4/9)", "Z9(0)", "Z9(6/9)"],
    (5,): ["Z5(2/5)", "Z5(4/5)", "Z5(0)"],
    (25,): ["Z25(0)", "Z25(2/25)", "Z25(4/25)", "Z25(2/5)"],
}
PAIRED = {  # (orders, q, cross-pairing) on two generators
    (2, 2): [((0, 0), "1/2"), ((1, 1), "1/2"), ((0, 0), "0"), ((1, 1), "0")],
    (4, 4): [((0, 0), "1/4"), ((1, 1), "1/4"), ((0, 0), "1/2")],
}


def piece(key, choice: int) -> FiniteQF:
    if key in PIECES:
        return parse_form_literal(PIECES[key][choice % len(PIECES[key])])
    q, cross = PAIRED[key][choice % len(PAIRED[key])]
    return FiniteQF.from_generators(key, q, {(0, 1): cross})


@SLOW
@given(keys=st.lists(st.sampled_from(sorted(PIECES) + sorted(PAIRED)), min_size=1, max_size=4),
       seed=st.integers(0, 10**9))
def test_literal_forms(keys, seed):
    rng = random.Random(seed)
    f = direct_sum(*(piece(k, rng.randrange(6)) for k in keys))
    # both searches backtrack through every generator tuple on degenerate
    # 2-groups, which takes seconds from (Z/4)^4 on
    assume(len(f.orders) <= 4 and f.group_order <= 2500
           and prod(m & -m for m in f.orders) <= 64)
    shuffled = keys[:]
    rng.shuffle(shuffled)
    g = direct_sum(*(piece(k, rng.randrange(6)) for k in shuffled))
    check_against_oracle(f, random_shears(g, rng))
    assert check_against_oracle(f, random_shears(f, rng))


def two_adic_piece(rng: random.Random, k: int, block: bool) -> FiniteQF:
    m = 2 ** k
    if block:  # u_k or v_k
        v = Fraction(rng.choice([0, 2]), m)
        return FiniteQF.from_generators([m, m], [v, v], {(0, 1): Fraction(1, m)})
    return FiniteQF.cyclic(m, Fraction(rng.randrange(1, 2 * m, 2), m))


@SLOW
@given(shape=st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1, max_size=3),
       seed=st.integers(0, 10**9))
def test_two_adic_forms(shape, seed):
    # scale gaps of 3 and more are shortened in the searched model
    rng = random.Random(seed)
    f = direct_sum(*(two_adic_piece(rng, k, block) for k, block in shape))
    assume(f.group_order <= 1024)
    if len(shape) > 1 and rng.random() < 0.5:  # same order, other scales
        (i, (ki, bi)), (j, (kj, bj)) = rng.sample(list(enumerate(shape)), 2)
        if ki > 1 and bi == bj:
            shape = shape[:]
            shape[i], shape[j] = (ki - 1, bi), (kj + 1, bj)
    g = direct_sum(*(two_adic_piece(rng, k, block) for k, block in shape))
    check_against_oracle(f, random_shears(g, rng))
    assert check_against_oracle(f, random_shears(f, rng))


def catalog_forms() -> list[FiniteQF]:
    cat = load_catalog()
    out = []
    for fam in cat.families:
        cases = list(fam.singular) + ([fam.general] if fam.general else [])
        for case in cases:
            out.append(FiniteQF.from_lattice(case.gram))
            out.extend(getattr(case, attr) for attr in ("ns_form", "expected_form")
                       if getattr(case, attr, None) is not None)
    return out + [f.negate() for f in out]


def test_catalog_forms():
    forms = catalog_forms()
    rng = random.Random(5)
    pairs = 0
    for i, f in enumerate(forms):
        variant = scale_form(random_shears(f, rng), unit_mod(rng, f.group_order))
        check_against_oracle(f, variant)
        for g in forms[i:]:
            if f.group_order == g.group_order:
                check_against_oracle(f, g)
                pairs += 1
    assert pairs > len(forms)


def test_genus_partition_matches_oracle():
    for d in range(3, 501):
        if d % 4 in (0, 3):
            assert genus_partition(d) == exhaustive_genus_partition(d), d
