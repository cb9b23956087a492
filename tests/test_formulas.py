"""Threshold formula tests with hand-evaluated frozen values.

Each frozen tuple was derived by evaluating the closed forms with exact
rationals and, where feasible, cross-checked against the exhaustive
search (see test_oracle / test_acceptance for that side of the pairing).
"""

import pytest

from zerosum import (
    ParameterError,
    Params,
    ap_lower_bound_value,
    block_threshold,
    build_block_extremal,
    exact_block_threshold,
    exact_block_threshold_symmetric,
    pm1_block_threshold,
    pm1_smallsum_threshold,
    sufficient_block_bound,
)


@pytest.mark.parametrize(
    "r,s,k,t,t_prime,m1,m2,n_exact",
    [
        (1, 2, 6, 0, 2, 10, 4, 10),
        (1, 2, 3, 2, 0, 1, 1, 3),
        (2, 3, 10, 0, 2, 26, 16, 26),
        (2, 3, 5, 3, 4, 1, 1, 5),  # exercises both t > r and t' > s branches
        (1, 3, 8, 3, 3, 13, 5, 13),
        (1, 2, 12, 2, 0, 31, 28, 31),
    ],
)
def test_exact_block_threshold_values(r, s, k, t, t_prime, m1, m2, n_exact):
    report = exact_block_threshold(Params(r, s, k))
    assert (report.t, report.t_prime) == (t, t_prime)
    assert (report.m1, report.m2) == (m1, m2)
    assert report.n_exact == n_exact


def test_exact_block_threshold_shift_congruences():
    """t and t' satisfy their defining congruences and lie in [0, r+s)."""
    for r, s in [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5), (4, 5)]:
        m = r + s
        for k in (m, 2 * m, 5 * m, 9 * m):
            report = exact_block_threshold(Params(r, s, k))
            assert 0 <= report.t < m and 0 <= report.t_prime < m
            assert (s * k // m - 1 + report.t) % m == 0
            assert (r * k // m - 1 + report.t_prime) % m == 0
            assert report.n_exact == max(k, report.m1, report.m2)


def test_exact_block_threshold_preconditions():
    with pytest.raises(ParameterError):
        exact_block_threshold(Params(1, 2, 4))  # 3 does not divide 4


def test_swapped_letters_exchange_the_cases():
    """(r, s) and (s, r) trade (t, M1) for (t', M2) and share N; each report
    carries its own params, and the r = 1 note only where r = 1."""
    assert exact_block_threshold_symmetric is exact_block_threshold
    report = exact_block_threshold(Params(2, 1, 6))
    assert report.params == Params(2, 1, 6)
    assert (report.t, report.t_prime, report.m1, report.m2) == (2, 0, 4, 10)
    assert (report.n_exact, report.notes) == (10, ())
    for r, s in [(1, 2), (2, 3), (1, 4), (3, 5), (2, 7), (4, 9)]:
        for k in ((r + s), 2 * (r + s), 5 * (r + s), 11 * (r + s)):
            a = exact_block_threshold(Params(r, s, k))
            b = exact_block_threshold(Params(s, r, k))
            assert b.params == Params(s, r, k)
            assert (b.t, b.m1, b.t_prime, b.m2) == (a.t_prime, a.m2, a.t, a.m1)
            assert b.n_exact == a.n_exact == block_threshold(Params(s, r, k))
            assert b.notes == (("t' > s branch unreachable for r = 1",) if s == 1 else ())


def test_pm1_alphabet_is_the_general_formula():
    """At r = s = 1 the general closed form is the {-1, 1} threshold:
    M1 = M2 = k^2/4 - tk/2 + t with t = k/2 - 1 mod 2."""
    for k in range(2, 201, 2):
        report = exact_block_threshold(Params(1, 1, k))
        t = (k // 2 - 1) % 2
        assert report.t == report.t_prime == t
        assert report.m1 == report.m2 == k * k // 4 - t * k // 2 + t
        assert report.n_exact == block_threshold(Params(1, 1, k)) == pm1_block_threshold(k)


def test_symmetric_threshold_is_symmetric():
    for r, s in [(1, 2), (2, 3), (1, 4), (3, 5), (2, 7)]:
        for k in ((r + s), 3 * (r + s), 7 * (r + s)):
            a = exact_block_threshold_symmetric(Params(r, s, k)).n_exact
            b = exact_block_threshold_symmetric(Params(s, r, k)).n_exact
            assert a == b


@pytest.mark.parametrize(
    "k,q,expected",
    [
        (6, 0, 9),
        (2, 0, 2),
        (4, 2, 7),
        (4, 0, 4),
        (8, 0, 13),
    ],
)
def test_pm1_block_threshold_values(k, q, expected):
    assert pm1_block_threshold(k, q) == expected


def test_pm1_block_threshold_matches_its_integer_form():
    """The small-sum threshold at t = 0 against the integer expression
    max(k, k^2/4 + (q - s)k/2 + s), s = q + (k-2)/2 mod 2, kept here as the
    reference."""
    for k in range(2, 400, 2):
        for q in range(40):
            s01 = (q + (k - 2) // 2) % 2
            reference = max(k, k * k // 4 + (q - s01) * k // 2 + s01)
            assert pm1_block_threshold(k, q) == reference


def test_pm1_block_threshold_preconditions():
    with pytest.raises(ParameterError):
        pm1_block_threshold(5, 0)
    with pytest.raises(ParameterError):
        pm1_block_threshold(6, -1)


@pytest.mark.parametrize(
    "k,t,q,expected",
    [
        (6, 0, 0, 9),
        (6, 2, 0, 6),
        (8, 0, 0, 13),
    ],
)
def test_pm1_smallsum_threshold_values(k, t, q, expected):
    assert pm1_smallsum_threshold(k, t, q) == expected


def test_pm1_smallsum_reduces_to_block_threshold():
    """Tolerance t = 0 recovers the zero-sum block threshold exactly."""
    for k in range(2, 101, 2):
        for q in range(11):
            assert pm1_smallsum_threshold(k, 0, q) == pm1_block_threshold(k, q)


def test_pm1_smallsum_preconditions():
    with pytest.raises(ParameterError):
        pm1_smallsum_threshold(6, 1, 0)  # parity mismatch
    with pytest.raises(ParameterError):
        pm1_smallsum_threshold(6, 6, 0)  # t must stay below k


@pytest.mark.parametrize(
    "r,s,k,q,expected",
    [
        (1, 1, 6, 0, 10),
        (1, 2, 6, 0, 11),
    ],
)
def test_sufficient_block_bound_values(r, s, k, q, expected):
    assert sufficient_block_bound(Params(r, s, k), q).n_sufficient == expected


def test_sufficient_block_bound_monotone_in_q():
    for r, s in [(1, 1), (1, 2), (2, 3)]:
        k = 4 * (r + s)
        values = [
            sufficient_block_bound(Params(r, s, k), q).n_sufficient
            for q in range(12)
        ]
        assert values == sorted(values)


def test_sufficient_bound_dominates_exact_lower_construction():
    """The extremal construction (one below the exact threshold) never
    reaches the sufficient bound at q = 0."""
    for r, s in [(1, 2), (2, 3), (1, 4)]:
        for k in (2 * (r + s), 5 * (r + s)):
            params = Params(r, s, k)
            length = build_block_extremal(params).length
            assert length + 1 <= sufficient_block_bound(params, 0).n_sufficient


def test_extremal_lengths_match_case_bounds():
    """The base construction is one below M1, its negation one below M2,
    and together they realize N - 1 whenever N exceeds k.

    Either case value can dominate: at (2, 3, 15) the negated construction
    is the longer one (M2 = 51 > M1 = 41).
    """
    from zerosum import build_block_extremal_negated

    for r, s in [(1, 2), (2, 3), (1, 4), (3, 4)]:
        for k in ((r + s), 2 * (r + s), 3 * (r + s), 6 * (r + s)):
            params = Params(r, s, k)
            report = exact_block_threshold(params)
            base_len = build_block_extremal(params).length
            neg_len = build_block_extremal_negated(params).length
            assert base_len + 1 == report.m1
            assert neg_len + 1 == report.m2
            assert max(report.m1, report.m2) <= report.n_exact
            if report.n_exact > k:
                assert max(base_len, neg_len) == report.n_exact - 1


@pytest.mark.parametrize(
    "r,s,k,alpha,expected",
    [
        (1, 1, 6, 1, 0),
        (1, 1, 14, 1, 36),
        (1, 2, 6, 1, 0),
    ],
)
def test_ap_lower_bound_values(r, s, k, alpha, expected):
    assert ap_lower_bound_value(Params(r, s, k), alpha) == expected


def test_ap_lower_bound_closed_form_for_pm1():
    """At (1, 1) with shift 1 the bound is (k+4) * floor((k-2)/6)."""
    for k in range(2, 201, 2):
        value = ap_lower_bound_value(Params(1, 1, k), 1)
        assert value == (k + 4) * ((k - 2) // 6)


def test_ap_lower_bound_rejects_bad_shift():
    with pytest.raises(ParameterError):
        ap_lower_bound_value(Params(1, 2, 6), 2)  # 2 | -2 in S_2, a = 8 even
