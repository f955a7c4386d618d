import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from k3latt.lattice import DegenerateLattice, GramMatrix, determinant, direct_sum, twist, U
from k3latt.ternary import (
    BUDGET,
    MAX_BOUND,
    SEARCHABLE_PRIMES,
    SearchTooLarge,
    TernaryForm,
    WrongSignature,
    decide_isotropy,
    find_isotropic,
    is_simple_shioda_inose,
    local_obstruction,
)
from util_oracles import cellwise_find_isotropic, change_basis, split_grid_obstruction

T0 = GramMatrix.from_rows([[4, 1, 0], [1, 4, 0], [0, 0, -2]])
T1 = GramMatrix.from_rows([[10, 4, 0], [4, 10, 0], [0, 0, -2]])
NS0 = TernaryForm(twist(T0, -1))
NS1 = TernaryForm(twist(T1, -1))


# every prime power p^e <= 2500 with p <= 13; the grid oracle is quadratic in p^e
PRIME_POWERS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 12) if p ** e <= 2500]
SLOW = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@st.composite
def split_forms(draw, max_m: int):
    """(f, p, e): a nondegenerate form with one orthogonal axis, p^e <= max_m.

    Coefficients are often 0 or divisible by p or p^2, and the cross term of
    the binary block is often odd.
    """
    p, e = draw(st.sampled_from([pe for pe in PRIME_POWERS if pe[0] ** pe[1] <= max_m]))
    coefficient = st.builds(lambda c, k: c * p ** k, st.integers(-8, 8), st.integers(0, 2))
    a, c, cz = draw(coefficient), draw(coefficient), draw(coefficient)
    b = draw(st.one_of(coefficient, st.just(0), st.integers(-9, 9).map(lambda x: 2 * x + 1)))
    assume(cz != 0 and a * c != b * b)
    axis = draw(st.integers(0, 2))
    i, j = [t for t in range(3) if t != axis]
    rows = [[0] * 3 for _ in range(3)]
    rows[axis][axis], rows[i][i], rows[j][j] = cz, a, c
    rows[i][j] = rows[j][i] = b
    return TernaryForm(GramMatrix.from_rows(rows)), p, e


@st.composite
def ternary_forms(draw):
    """A nondegenerate form with entries in [-9, 9]; often g22 = 0, or one axis
    orthogonal to the other two."""
    rows = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
    shape = draw(st.sampled_from(["any", "g22 = 0", "split x", "split y", "split z"]))
    if shape == "g22 = 0":
        rows[2][2] = 0
    elif shape.startswith("split"):
        k = "xyz".index(shape[-1])
        for i in range(3):
            if i != k:
                rows[i][k] = rows[k][i] = 0
    assume(determinant(rows) != 0)
    return TernaryForm(GramMatrix.from_rows(rows))


def diag(*entries):
    n = len(entries)
    return TernaryForm(GramMatrix.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]))


class TestTernaryForm:
    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateLattice):
            diag(1, 1, 0)

    def test_value_convention(self):
        # -4x^2 - 2xy - 4y^2 + 2z^2 at (1, 1, 1)
        assert NS0.value((1, 1, 1)) == -4 - 2 - 4 + 2

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            TernaryForm(GramMatrix.from_rows([[2, 0], [0, 2]]))


class TestFindIsotropic:
    def test_easy_witness(self):
        assert find_isotropic(diag(1, -1, 5), 1) == (1, 1, 0)

    def test_control_witness(self):
        assert find_isotropic(diag(1, 1, -2), 5) == (1, 1, 1)

    def test_ns_forms_have_no_small_witness(self):
        assert find_isotropic(NS0, 50) is None
        assert find_isotropic(NS1, 50) is None

    def test_zero_corner_witness(self):
        # last basis vector is isotropic; the linear solves alone would
        # put every other zero outside the box
        f = TernaryForm(GramMatrix.from_rows([[2, 0, 7], [0, 2, 9], [7, 9, 0]]))
        assert find_isotropic(f, 1) == (0, 0, 1)

    def test_bound_cap(self):
        assert find_isotropic(diag(1, -1, 5), MAX_BOUND) == (1, 1, 0)
        for bound in (MAX_BOUND + 1, 10 ** 5):
            with pytest.raises(ValueError, match="exceeds the cap"):
                find_isotropic(diag(1, -1, 5), bound)

    @SLOW
    @given(f=ternary_forms(), bound=st.integers(1, 30))
    def test_scan_matches_cellwise_oracle(self, f, bound):
        assert find_isotropic(f, bound) == cellwise_find_isotropic(f, bound)

    @pytest.mark.parametrize("f, first", [
        (NS0, None),  # no witness: the whole box at the cap
        (TernaryForm(GramMatrix.from_rows([[-38, 4, 7], [4, 214050, 5], [7, 5, 16]])),
         (337, 4, 129)),
        (TernaryForm(GramMatrix.from_rows([[-21, 11, 13], [11, 188555, -13], [13, -13, 7]])),
         (406, 5, -137)),
    ])
    def test_scan_at_the_cap_matches_cellwise_oracle(self, f, first):
        assert find_isotropic(f, MAX_BOUND) == cellwise_find_isotropic(f, MAX_BOUND) == first

    @pytest.mark.parametrize("rows, first", [
        # at (0, 1) the roots of z^2 + 2z - 8 are 2 and -4: the smaller |z| first
        ([[1, 0, 0], [0, -8, 1], [0, 1, 1]], (0, 1, 2)),
        # at (0, 1) the roots of z^2 - 4 are 2 and -2: the positive one first
        ([[1, 0, 0], [0, -4, 0], [0, 0, 1]], (0, 1, 2)),
    ])
    def test_root_order(self, rows, first):
        f = TernaryForm(GramMatrix.from_rows(rows))
        assert find_isotropic(f, 5) == cellwise_find_isotropic(f, 5) == first

    def test_witness_verified(self):
        rng = random.Random(31)
        for _ in range(100):
            while True:
                rows = [[0] * 3 for _ in range(3)]
                for i in range(3):
                    rows[i][i] = rng.randint(-6, 6)
                    for j in range(i):
                        rows[i][j] = rows[j][i] = rng.randint(-3, 3)
                try:
                    f = TernaryForm(GramMatrix.from_rows(rows))
                    break
                except DegenerateLattice:
                    continue
            w = find_isotropic(f, 6)
            if w is not None:
                assert w != (0, 0, 0)
                assert f.value(w) == 0


class TestLocalObstruction:
    def test_ns0_mod_5(self):
        assert local_obstruction(NS0, 5, 3)

    def test_ns1_mod_7(self):
        assert local_obstruction(NS1, 7, 3)

    def test_soluble_form_everywhere(self):
        f = diag(1, -1, 5)
        for p in (2, 3, 5, 7):
            assert not local_obstruction(f, p, 1)

    def test_axis_vanishing_mod_p(self):
        # x^2 + y^2 has no primitive zero mod 3, but (0, 0, 1) is one of x^2 + y^2 + 3z^2
        assert local_obstruction(diag(1, 1, 3), 3, 1) is False
        assert local_obstruction(diag(1, 1, 3), 3, 2) is True

    def test_obstruction_tower(self):
        # obstruction at e implies obstruction at every higher precision,
        # and the default verdicts re-verify one step below
        for f, p in ((NS0, 5), (NS1, 7)):
            v = decide_isotropy(f)
            assert v.kind == "obstruction" and v.prime == p
            assert local_obstruction(f, p, v.precision - 1)
            assert local_obstruction(f, p, v.precision)

    def test_obstruction_excludes_witness(self):
        for f, h in ((NS0, 30), (NS1, 30)):
            assert find_isotropic(f, h) is None

    @SLOW
    @given(case=split_forms(max_m=2500))
    def test_split_path_matches_grid_oracle(self, case):
        f, p, e = case
        assert local_obstruction(f, p, e) == split_grid_obstruction(f, p, e)

    @SLOW
    @given(case=split_forms(max_m=100), seed=st.integers(0, 10 ** 9))
    def test_general_path_matches_fast_path(self, case, seed):
        # the same form, once split and once mixed by a change of basis in
        # GL3(Z) that leaves no axis orthogonal to the other two; m^3 <= 10^6
        f, p, e = case
        mixed = change_basis(f.gram, random.Random(seed))
        assume(all(any(mixed.rows[k][i] for i in range(3) if i != k) for k in range(3)))
        assert local_obstruction(f, p, e) == local_obstruction(TernaryForm(mixed), p, e)

    def test_budget(self):
        # split axis: 7^6 squared is 7^12 cells, over the 5*10^8 budget
        with pytest.raises(SearchTooLarge):
            local_obstruction(NS1, 7, 6)

    @pytest.mark.parametrize("p", [-1, 0, 1, 25])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError, match="prime"):
            local_obstruction(NS0, p, 3)

    def test_huge_p_is_refused_by_size(self):
        with pytest.raises(SearchTooLarge):
            local_obstruction(NS0, 10 ** 40, 3)


class TestDecideIsotropy:
    def test_ns0_prime_5(self):
        v = decide_isotropy(NS0)
        assert (v.kind, v.prime) == ("obstruction", 5)

    def test_ns1_prime_7(self):
        v = decide_isotropy(NS1)
        assert (v.kind, v.prime) == ("obstruction", 7)

    def test_control(self):
        v = decide_isotropy(diag(1, 1, -2))
        assert v.kind == "witness" and v.witness == (1, 1, 1)

    def test_deterministic(self):
        assert decide_isotropy(NS0) == decide_isotropy(NS0)

    def test_explicit_primes(self):
        v = decide_isotropy(NS0, primes=[3])
        assert (v.kind, v.prime) == ("obstruction", 3)

    def test_explicit_primes_do_not_factor_det(self):
        # det = -(2^61 - 1) is prime, which trial division would take minutes to find
        f = diag(-1, -1, -(2 ** 61 - 1))
        assert decide_isotropy(f, primes=[3]).primes_tested == (3,)
        with pytest.raises(SearchTooLarge):
            decide_isotropy(f, primes=[2 ** 61 - 1])

    def test_searchable_primes(self):
        assert SEARCHABLE_PRIMES == (3, 5, 7, 11)
        assert all(p ** 8 <= BUDGET for p in SEARCHABLE_PRIMES) and 13 ** 8 > BUDGET

    @pytest.mark.parametrize("entries", [(-1, -1, -3), (-1, -3, -5), (-4, -1, -2 * 25),
                                         (-2, -7, -3), (-1, -1, -7), (3, 5, -7)])
    def test_default_primes_are_the_odd_primes_of_det(self, entries):
        f = diag(*entries)
        odd = [p for p in (7, 5, 3) if (2 * entries[0] * entries[1] * entries[2]) % p == 0]
        assert decide_isotropy(f) == decide_isotropy(f, primes=odd)

    @pytest.mark.parametrize("c, rest", [(13, 13), (3 * 13, 13), (2 * 17 * 17, 289),
                                         (2 ** 61 - 1, 2 ** 61 - 1)])
    def test_default_prime_past_budget_is_refused_at_once(self, c, rest):
        # the largest prime would be searched first, with at least p^8 > BUDGET cells
        with pytest.raises(SearchTooLarge, match=f"factor {rest},"):
            decide_isotropy(diag(-1, -1, -c))

    def test_inconclusive(self):
        # x^2 + y^2 - 3z^2 has no small witness and no obstruction at 5
        v = decide_isotropy(diag(1, 1, -3), bound=3, primes=[5])
        assert v.kind == "inconclusive"
        assert v.primes_tested == (5,)

    def test_json_shapes(self):
        assert decide_isotropy(diag(1, 1, -2)).to_json()["kind"] == "witness"
        j = decide_isotropy(NS0).to_json()
        assert j == {"kind": "obstruction", "prime": 5, "precision": 4}


class TestSimpleShiodaInose:
    def test_t0_simple(self):
        v = is_simple_shioda_inose(T0)
        assert (v.kind, v.prime) == ("obstruction", 5)

    def test_t1_simple(self):
        v = is_simple_shioda_inose(T1)
        assert (v.kind, v.prime) == ("obstruction", 7)

    def test_hyperbolic_not_simple(self):
        v = is_simple_shioda_inose(direct_sum(U, GramMatrix.from_rows([[2]])))
        assert v.kind == "witness"

    def test_wrong_signature(self):
        with pytest.raises(WrongSignature):
            is_simple_shioda_inose(GramMatrix.from_rows(
                [[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
