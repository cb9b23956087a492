"""Good-shift tests: the divisibility certificate, minimum-shift search,
and the prime-based shift behind the superlinear bound."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    ParameterError,
    Params,
    ShiftSearchError,
    build_ap_good_shift,
    ap_lower_bound_value,
    ap_scan,
    is_good_shift,
    is_prime,
    min_good_shift,
    prime_factors,
    prime_shift,
)
from zerosum.good_shift import divisible_weight


def test_prime_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1) and not is_prime(0)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(101) == (101,)
    with pytest.raises(ParameterError):
        prime_factors(1)


def test_is_prime_matches_a_sieve():
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    assert [m for m in range(-3, n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_shift_one_is_good_for_pm1():
    for k in (2, 6, 20, 100, 998):
        verdict = is_good_shift(Params(1, 1, k), 1)
        assert verdict.good
        assert verdict.s_alpha.values() == (-1, 1)


def test_shift_zero_is_never_good():
    for params in (Params(1, 1, 4), Params(1, 2, 6), Params(2, 3, 10)):
        verdict = is_good_shift(params, 0)
        assert not verdict.good
        assert verdict.blocking[1] == 0  # every prime divides 0


def test_1_2_parity_examples():
    v20 = is_good_shift(Params(1, 2, 20), 1)
    assert v20.good and v20.prime_factors == (3, 7)
    v21 = is_good_shift(Params(1, 2, 21), 1)
    assert not v21.good and v21.blocking == (2, 2)
    assert is_good_shift(Params(1, 2, 21), 2).good


def test_min_good_shift_examples():
    assert min_good_shift(Params(1, 1, 20)).alpha == 1
    assert min_good_shift(Params(1, 2, 20)).alpha == 1
    assert min_good_shift(Params(1, 2, 21)).alpha == 2


def test_min_good_shift_is_minimal():
    """Every alpha below the reported one fails an independent recheck."""
    for params in (Params(1, 2, 21), Params(2, 3, 15), Params(1, 4, 25)):
        best = min_good_shift(params)
        for alpha in range(1, best.alpha):
            assert not is_good_shift(params, alpha).good


# Every coprime r, s <= 8 and k = m(r + s), m <= 8, where no alpha has
# k + alpha prime and k + alpha > s * alpha, with its minimum good shift.
_NO_PRIME_HORIZON = [
    (1, 4, 5, 2), (1, 6, 7, 4), (1, 6, 14, 3), (1, 7, 8, 1), (1, 7, 24, 1),
    (1, 8, 9, 2), (2, 5, 7, 4), (2, 7, 9, 2), (3, 4, 7, 4), (3, 5, 8, 3),
    (3, 8, 11, 2), (4, 3, 7, 4), (4, 7, 11, 2), (5, 7, 24, 5), (5, 8, 13, 4),
    (6, 7, 13, 4), (7, 6, 13, 4), (8, 5, 13, 4),
]


def test_prime_horizon_is_good_wherever_r_plus_s_divides_k():
    """On coprime r, s <= 8 and k = m(r + s) <= 8(r + s), the first alpha
    with k + alpha prime lies at alpha <= k and is good, so the search,
    which runs to alpha = k there, stops at or before it."""
    for r in range(1, 9):
        for s in range(1, 9):
            if math.gcd(r, s) == 1:
                for k in range(r + s, 8 * (r + s) + 1, r + s):
                    params = Params(r, s, k)
                    alpha = next(a for a in range(1, 2 * k + 1) if is_prime(k + a))
                    assert alpha <= k, (r, s, k)
                    assert is_good_shift(params, alpha).good, (r, s, k)
                    assert min_good_shift(params).alpha <= alpha, (r, s, k)


def test_min_good_shift_matches_brute_force():
    """On coprime r, s <= 8 and k <= 60 the search returns the least good
    alpha found by trying every alpha up to 4000, and fails where there is
    none, so no least good shift lies past its horizon of (r + s)k when
    r + s does not divide k.  Points like (4, 1, 7), whose least good
    shift 6 lies past the first prime 11 = k + 4, are among them."""
    for r in range(1, 9):
        for s in range(1, 9):
            if math.gcd(r, s) == 1:
                for k in range(1, 61):
                    params = Params(r, s, k)
                    least = next(
                        (a for a in range(1, 4001) if is_good_shift(params, a).good), None
                    )
                    if least is None:
                        with pytest.raises(ShiftSearchError):
                            min_good_shift(params)
                    else:
                        assert min_good_shift(params).alpha == least, (r, s, k)


@pytest.mark.parametrize("r,s,k,alpha", _NO_PRIME_HORIZON)
def test_min_good_shift_without_prime_horizon(r, s, k, alpha):
    """Small k with large s has no prime k + alpha above s * alpha, the
    certificate prime_shift needs; the search still finds the least good
    shift."""
    params = Params(r, s, k)
    assert min_good_shift(params).alpha == alpha
    assert not any(is_good_shift(params, a).good for a in range(1, alpha))


def test_min_good_shift_horizon_exhaustion():
    with pytest.raises(ShiftSearchError) as exc_info:
        min_good_shift(Params(1, 2, 21), horizon=1)
    assert exc_info.value.alpha_max == 1
    assert not exc_info.value.proven


@pytest.mark.parametrize("r,s,k", [(1, 3, 2), (2, 7, 3), (3, 5, 4), (7, 5, 6)])
def test_min_good_shift_proves_none_exists(r, s, k):
    """Where r + s does not divide k the search runs to (r + s)k, past
    which no least good shift lies, so finding none there proves that
    none exists."""
    with pytest.raises(ShiftSearchError) as exc_info:
        min_good_shift(Params(r, s, k))
    assert exc_info.value.proven
    assert exc_info.value.alpha_max == (r + s) * k


def test_good_shift_enables_clean_construction():
    """A certified shift always yields an AP-avoiding sequence."""
    for params in (Params(1, 2, 12), Params(2, 3, 10), Params(1, 1, 14)):
        shift = min_good_shift(params)
        c = build_ap_good_shift(params, shift)
        if c.length >= params.k:
            assert not ap_scan(c.seq, params.k).found


@pytest.mark.parametrize("consumer", [build_ap_good_shift, ap_lower_bound_value])
def test_consumers_share_one_certification(consumer):
    """Both consumers of a shift reject one certified for other params and
    a bad shift, with the same message."""
    shift = min_good_shift(Params(1, 2, 12))
    with pytest.raises(ParameterError, match="certified for different parameters"):
        consumer(Params(1, 2, 15), shift)
    with pytest.raises(ParameterError) as bad:
        consumer(Params(1, 2, 21), 1)
    assert str(bad.value) == (
        "alpha = 1 is not a good shift for (r, s, k) = (1, 2, 21): "
        "prime 2 divides weight 2"
    )


@given(st.data())
@settings(max_examples=150)
def test_divisible_weight_matches_enumeration(data):
    """The arithmetic membership test agrees with enumerating S_alpha."""
    params = data.draw(
        st.sampled_from([Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5), Params(3, 4, 7)])
    )
    alpha = data.draw(st.integers(min_value=0, max_value=40))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 23]))
    enumerated = [
        -params.r * alpha + params.modulus * i
        for i in range(alpha + 1)
    ]
    hits = [w for w in enumerated if w % p == 0]
    result = divisible_weight(p, params, alpha)
    if hits:
        assert result == hits[0]
    else:
        assert result is None


class TestPrimeShift:
    def test_2_3_100(self):
        shift = prime_shift(Params(2, 3, 100))
        assert shift.alpha == 1
        assert shift.a == 101
        assert shift.prime_factors == (101,)

    def test_1_2_24(self):
        shift = prime_shift(Params(1, 2, 24))
        assert shift.alpha == 5
        assert shift.a == 29

    def test_postcondition_s_alpha_below_a(self):
        for params in (Params(1, 2, 24), Params(2, 3, 100), Params(1, 1, 36)):
            shift = prime_shift(params)
            assert params.s * shift.alpha < params.k + shift.alpha
            assert shift.good

    def test_reported_shift_is_good_and_prime(self):
        shift = prime_shift(Params(1, 4, 30))
        assert is_prime(shift.a)
        assert shift.good


def test_good_shift_json_keys():
    verdict = is_good_shift(Params(1, 2, 21), 1)
    data = verdict.to_json_dict()
    assert set(data) == {
        "params", "alpha", "a", "primeFactorsOfA", "sAlpha", "good",
        "blockingWitness",
    }
    assert data["blockingWitness"] == {"prime": 2, "weight": 2}
    assert data["sAlpha"] == {"alpha": 1, "low": -1, "step": 3, "count": 2}
