from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3latt.arith import factorize


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


@pytest.mark.parametrize("m", [0, -1, -12])
def test_rejects_non_positive(m):
    with pytest.raises(ValueError):
        factorize(m)
