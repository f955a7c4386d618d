import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3latt import arith
from k3latt.arith import FactorLimit, factorize
from util_oracles import trial_division_factorize

MERSENNE_61 = 2 ** 61 - 1


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if trial_division_factorize(p) == {p: 1}:
            return p


def test_small_cases():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(60) == {2: 2, 3: 1, 5: 1}
    assert factorize(7 ** 3 * 101) == {7: 3, 101: 1}


@given(st.integers(1, 10 ** 7))
def test_factorization_multiplies_back_to_primes(m):
    fac = factorize(m)
    assert prod(p ** e for p, e in fac.items()) == m
    for p, e in fac.items():
        assert e >= 1 and all(p % d for d in range(2, min(p, 4000)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 12))
def test_matches_trial_division(m):
    assert list(factorize(m).items()) == list(trial_division_factorize(m).items())


@pytest.mark.parametrize("m", [0, -1, -12])
def test_rejects_non_positive(m):
    with pytest.raises(ValueError):
        factorize(m)


def test_mersenne_prime():
    assert factorize(MERSENNE_61) == {MERSENNE_61: 1}
    assert factorize(6 * MERSENNE_61 ** 2) == {2: 1, 3: 1, MERSENNE_61: 2}


def test_products_of_two_30_bit_primes():
    rng = random.Random(30)
    for _ in range(10):
        p, q = random_prime(rng, 30), random_prime(rng, 30)
        assert factorize(p * q) == ({p: 2} if p == q else dict(sorted({p: 1, q: 1}.items())))


@pytest.mark.parametrize("factors", [
    (3, 11, 17), (7, 13, 19), (7, 11, 13, 41),
    # Chernick numbers (6k+1)(12k+1)(18k+1): no factor below the trial bound
    (1171, 2341, 3511), (1237, 2473, 3709), (1297, 2593, 3889),
])
def test_carmichael_numbers(factors):
    m = prod(factors)
    assert all(pow(a, m - 1, m) == 1 for a in (2, 5, 101) if m % a)  # Fermat liars
    assert factorize(m) == dict.fromkeys(factors, 1)


@pytest.mark.parametrize("p, q", [(1069, 2137), (1129, 5641), (1061, 3181)])
def test_strong_pseudoprimes_to_some_bases(p, q):
    # 1069 * 2137 passes Miller-Rabin to the bases 2, 3, 7, 11, 37 and 41
    assert factorize(p * q) == {p: 1, q: 1}


def test_unproven_prime_is_a_declared_limit():
    p = 2 ** 89 - 1  # prime, past the range the Miller-Rabin bases prove
    assert p > arith.PROVEN_BELOW
    with pytest.raises(FactorLimit, match=str(p)):
        factorize(4 * p)


def test_large_cofactor_is_refused_at_once():
    # a rho step costs more on a larger n: a 3000-bit cofactor took 74 s before the cap
    assert factorize(2 ** 3000 * 3 ** 5) == {2: 3000, 3: 5}
    m = 1031 ** 13 * 1033 ** 13
    with pytest.raises(FactorLimit, match=f"{m.bit_length()} bits .* {arith.COFACTOR_BITS} bits"):
        factorize(m)


def test_rho_bound_is_a_declared_limit(monkeypatch):
    rng = random.Random(40)
    n = random_prime(rng, 40) * random_prime(rng, 40)
    monkeypatch.setattr(arith, "RHO_STEPS", 1 << 10)
    with pytest.raises(FactorLimit, match=str(n)):
        factorize(n)
    assert issubclass(FactorLimit, ValueError)
