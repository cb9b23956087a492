"""Construction tests: literal sequences, zero-sum totals, and the claimed
avoidance properties re-checked through the scanners."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zerosum import (
    ParameterError,
    Params,
    ap_lower_bound_value,
    ap_scan,
    block_scan,
    build_ap_good_shift,
    build_ap_mod_k,
    build_ap_mod_k_plus1,
    build_ap_mod_k_product,
    build_ap_two_p,
    build_block_extremal,
    build_block_extremal_negated,
    exact_block_threshold,
    min_good_shift,
)

from termwise import per_d_min_abs, window_weight
from test_formulas import ref_shift_and_term


class TestBlockExtremal:
    def test_literal_1_2_6(self):
        c = build_block_extremal(Params(1, 2, 6))
        assert c.length == 9
        assert c.seq.values() == (-1, -1, -1, 2, 2, 2, -1, -1, -1)
        assert c.seq.total_weight() == 0

    def test_every_window_weight_is_r_plus_s(self):
        c = build_block_extremal(Params(1, 2, 6))
        weights = {window_weight(c.seq, i, 6) for i in range(c.length - 5)}
        assert weights == {3}

    def test_pm1_letters_are_feasible(self):
        # (1, 1, 6): shift t = 0, one full block plus a two-letter remainder.
        c = build_block_extremal(Params(1, 1, 6))
        assert c.length == 8
        assert c.seq.values() == (-1, -1, 1, 1, 1, 1, -1, -1)
        weights = {window_weight(c.seq, i, 6) for i in range(3)}
        assert weights == {2}

    def test_2_3_10(self):
        c = build_block_extremal(Params(2, 3, 10))
        assert c.length == 25
        assert c.seq.total_weight() == 0
        assert {window_weight(c.seq, i, 10) for i in range(16)} == {5}

    def test_degenerate_small_k(self):
        c = build_block_extremal(Params(1, 2, 3))
        assert c.length == 0

    @pytest.mark.parametrize(
        "r,s", [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5), (1, 4)]
    )
    def test_extremality_grid(self, r, s):
        """Length is one below the exact threshold and no window is zero-sum."""
        for mult in (1, 2, 4, 7):
            params = Params(r, s, mult * (r + s))
            c = build_block_extremal(params)
            n_exact = exact_block_threshold(params).n_exact
            assert c.length == ref_shift_and_term(r, s, params.k)[1] - 1
            assert c.length < n_exact
            assert c.seq.total_weight() == 0
            if c.length >= params.k:
                report = block_scan(c.seq, params.k)
                assert not report.found
                assert report.min_abs_weight == r + s

    def test_divisibility_required(self):
        with pytest.raises(ParameterError):
            build_block_extremal(Params(1, 2, 4))


class TestBlockExtremalNegated:
    def test_literal_2_1_6(self):
        c = build_block_extremal_negated(Params(2, 1, 6))
        assert c.seq.values() == (1, 1, 1, -2, -2, -2, 1, 1, 1)
        assert c.seq.total_weight() == 0

    def test_windows_are_negative_constant(self):
        c = build_block_extremal_negated(Params(2, 1, 6))
        weights = {window_weight(c.seq, i, 6) for i in range(4)}
        assert weights == {-3}
        assert not block_scan(c.seq, 6).found

    @pytest.mark.parametrize("r,s", [(2, 1), (3, 2), (3, 1), (5, 2)])
    def test_negation_grid(self, r, s):
        for mult in (2, 5):
            params = Params(r, s, mult * (r + s))
            c = build_block_extremal_negated(params)
            assert c.seq.total_weight() == 0
            if c.length >= params.k:
                assert not block_scan(c.seq, params.k).found


class TestApModK:
    def test_degenerate_k6(self):
        c = build_ap_mod_k(6)
        assert c.length == 0

    def test_literal_k10(self):
        c = build_ap_mod_k(10)
        assert c.length == 12
        assert c.seq.values() == (-1, -1, 1, 1, 1, -1, -1, 1, 1, 1, -1, -1)
        assert c.seq.total_weight() == 0
        report = ap_scan(c.seq, 10)
        assert not report.found

    def test_gcd_weight_bound_k10(self):
        """Every scanned AP weight is at least gcd(d, k) in absolute value."""
        c = build_ap_mod_k(10)
        assert not ap_scan(c.seq, 10).found
        for d, min_abs in per_d_min_abs(c.seq, 10).items():
            assert min_abs >= math.gcd(d, 10)

    @pytest.mark.parametrize("k", [4, 8, 12, 16, 2])
    def test_rejects_wrong_congruence(self, k):
        with pytest.raises(ParameterError):
            build_ap_mod_k(k)


class TestApModKProduct:
    def test_counts_k30(self):
        fn = build_ap_mod_k_product(30, (3, 5))
        assert fn.count_plus() == 16
        assert fn.count_minus() == 14

    def test_single_factor_matches_period_pattern(self):
        fn = build_ap_mod_k_product(6, (3,))
        assert fn.values == (-1, 1, 1, -1, 1, 1)
        assert fn.count_plus() == 4 and fn.count_minus() == 2

    def test_full_progressions_nonzero(self):
        """Every full progression weighs nonzero, and its slice sum (the
        oracle's residue-lemma check) equals the term-by-term weight."""
        fn = build_ap_mod_k_product(30, (3, 5))
        for d in (1, 2, 3, 5, 6, 10, 15, 30):
            for start in range(d):
                weight = sum(fn.values[start::d])
                assert weight != 0
                assert sum(fn.values[(start + j * d) % 30] for j in range(30 // d)) == weight

    def test_bad_factorizations(self):
        with pytest.raises(ParameterError):
            build_ap_mod_k_product(30, (3, 7))  # product mismatch
        with pytest.raises(ParameterError):
            build_ap_mod_k_product(12, (6,))  # even factor
        with pytest.raises(ParameterError):
            build_ap_mod_k_product(18, (3, 3))  # not coprime


class TestApModKPlus1:
    def test_literal_k8(self):
        c = build_ap_mod_k_plus1(8)
        assert c.length == 12
        assert c.seq.values() == (-1, -1, -1, 1, 1, 1, 1, 1, 1, -1, -1, -1)
        assert c.seq.total_weight() == 0
        assert not ap_scan(c.seq, 8).found

    def test_length_k14(self):
        c = build_ap_mod_k_plus1(14)
        assert c.length == 36
        assert c.length == (14 + 4) * ((14 - 2) // 6)

    def test_per_period_counts(self):
        c = build_ap_mod_k_plus1(14)
        a = 15
        period = c.seq.values()[:a]
        assert period.count(-1) == (a - 3) // 2
        assert period.count(1) == (a + 3) // 2

    def test_rejects_odd_k(self):
        with pytest.raises(ParameterError):
            build_ap_mod_k_plus1(7)


class TestApGoodShift:
    def test_1_2_12_shift1(self):
        c = build_ap_good_shift(Params(1, 2, 12), 1)
        assert c.length == 18
        assert c.seq.total_weight() == 0
        assert not ap_scan(c.seq, 12).found
        # per-period weight r + s + s*alpha = 5 on the first full period
        assert window_weight(c.seq, 0, 13) == 5

    def test_reduces_to_plus1_at_pm1(self):
        # Period 9, three -1 letters a period, length (a+3)*((a-3)//6) = 12.
        expected = (-1, -1, -1, 1, 1, 1, 1, 1, 1, -1, -1, -1)
        assert build_ap_good_shift(Params(1, 1, 8), 1).seq.values() == expected
        assert build_ap_mod_k_plus1(8).seq.values() == expected

    def test_rejects_bad_shift(self):
        with pytest.raises(ParameterError):
            build_ap_good_shift(Params(1, 2, 12), 2)


class TestApTwoP:
    def test_literal_p3(self):
        c = build_ap_two_p(3)
        assert c.length == 8
        assert c.seq.values() == (-1, -1, 1, 1, 1, 1, -1, -1)
        assert c.seq.total_weight() == 0
        assert not ap_scan(c.seq, 6).found

    @pytest.mark.parametrize("p", [5, 7])
    def test_scan_clean(self, p):
        c = build_ap_two_p(p)
        assert c.length == p * p - 1
        assert not ap_scan(c.seq, 2 * p).found

    @pytest.mark.parametrize("p", [2, 4, 9, 15])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(ParameterError):
            build_ap_two_p(p)


def test_ap_constructions_desk_scale_grid():
    """Every AP construction scans clean for k up to 60."""
    for k in range(8, 61, 2):
        c = build_ap_mod_k_plus1(k)
        if c.length >= k:
            assert not ap_scan(c.seq, k).found, k
    for k in range(6, 59, 4):
        c = build_ap_mod_k(k)
        if c.length >= k:
            assert not ap_scan(c.seq, k).found, k
    for k in range(6, 61, 6):
        params = Params(1, 2, k)
        c = build_ap_good_shift(params, 1)
        if c.length >= k:
            assert not ap_scan(c.seq, k).found, k


def _ref_good_shift_length(r, s, k, alpha):
    """The paper's (r(k+a) + (r+s+s*a)) * floor((sk/(r+s) - 1) / (r(r+s+s*a)))
    in exact rationals."""
    period_weight = r + s + s * alpha
    runs = math.floor((Fraction(s * k, r + s) - 1) / (r * period_weight))
    return (r * (k + alpha) + period_weight) * runs


def test_good_shift_length_matches_lower_bound_value():
    for params, alpha, length in [
        (Params(1, 2, 12), 1, 18),
        (Params(1, 1, 14), 1, 36),
        (Params(2, 3, 30), 1, 70),  # a = 31 is prime and divides nothing in {-2, 3}
    ]:
        c = build_ap_good_shift(params, alpha)
        assert c.length == ap_lower_bound_value(params, alpha) == length
        assert length == _ref_good_shift_length(params.r, params.s, params.k, alpha)


def test_good_shift_claim_names_the_weight_of_its_first_period():
    """The claim's per-period weight, read from ``_good_shift_pattern``, is
    the weight of the built sequence's first period, at the least good
    shift of every coprime r, s <= 5 and (r + s) | k <= 60."""
    checked = 0
    for r in range(1, 6):
        for s in range(1, 6):
            if math.gcd(r, s) != 1:
                continue
            for k in range(r + s, 61, r + s):
                params = Params(r, s, k)
                c = build_ap_good_shift(params, min_good_shift(params))
                period, weight = map(int, re.search(
                    r"\(period (\d+), per-period weight (\d+),", c.claim.description).groups())
                assert weight == r + s + s * (period - k), (r, s, k)
                if c.length:  # a nonempty build holds a full period and more
                    assert c.length > period
                    assert weight == sum(c.seq.values()[:period]), (r, s, k)
                    checked += 1
    assert checked > 50


def test_all_constructions_zero_sum():
    built = [
        build_block_extremal(Params(1, 2, 6)),
        build_block_extremal_negated(Params(2, 1, 6)),
        build_ap_mod_k(14),
        build_ap_mod_k_plus1(10),
        build_ap_good_shift(Params(1, 2, 12), 1),
        build_ap_two_p(5),
    ]
    for c in built:
        assert c.seq.total_weight() == 0
        assert c.length == c.seq.n


def test_zero_sum_check_survives_python_O():
    """The run-pattern kernel raises its zero-sum check rather than
    asserting it, so ``python -O`` keeps it: the all +1 pattern of period 2
    is not zero-sum, and must not reach a sequence file unchecked."""
    code = "from zerosum import Params\nfrom zerosum.constructions import _periodic\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code + "_periodic(Params(1, 1, 2), 2, 0, 2)"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "AssertionError: construction must be zero-sum" in proc.stderr


def _run_letters(n, period, neg_run, first, rest):
    """The docstring rule: ``first`` at j when j mod period < neg_run, else ``rest``."""
    return tuple(first if j % period < neg_run else rest for j in range(n))


def _is_odd_prime(p):
    return p >= 3 and all(p % d for d in range(2, p))


def test_every_construction_follows_its_docstring_rule():
    """Each builder's letters, term by term, against the rule its docstring
    states; lengths against their closed forms; invalid inputs raise
    ParameterError.  The grid holds degenerate length-0 points."""
    degenerate = set()

    def check(c, period, neg_run, first, rest, n=None):
        assert c.seq.values() == _run_letters(c.length, period, neg_run, first, rest)
        assert c.length == c.seq.n and c.seq.total_weight() == 0
        assert n is None or c.length == n
        if c.length == 0:
            degenerate.add(c.kind)

    for r in range(1, 6):
        for s in range(1, 6):
            if math.gcd(r, s) != 1:
                continue
            for k in range(r + s, 8 * (r + s) + 1, r + s):
                params, c_star = Params(r, s, k), s * k // (r + s)
                plain = build_block_extremal(params)
                check(plain, k, c_star - 1, -r, s, n=ref_shift_and_term(r, s, k)[1] - 1)
                swapped = build_block_extremal(Params(s, r, k))
                check(build_block_extremal_negated(params), k, k - c_star - 1, s, -r,
                      n=swapped.length)
                # The default horizon needs a prime k + alpha > s*alpha, which small k lacks.
                shift = min_good_shift(params, horizon=2 * k)
                check(build_ap_good_shift(params, shift), k + shift.alpha, c_star - 1, -r, s,
                      n=_ref_good_shift_length(r, s, k, shift.alpha))
    for k in range(-2, 121):
        a = k // 2
        if k % 4 == 2 and k >= 6:
            check(build_ap_mod_k(k), a, (a - 1) // 2, -1, 1, n=(2 * a + 2) * ((a - 1) // 4))
        else:
            with pytest.raises(ParameterError):
                build_ap_mod_k(k)
        a = k + 1
        if k % 2 == 0 and k >= 2:
            check(build_ap_mod_k_plus1(k), a, (k - 2) // 2, -1, 1, n=(a + 3) * ((a - 3) // 6))
        else:
            with pytest.raises(ParameterError):
                build_ap_mod_k_plus1(k)
    for p in range(-1, 32):
        if _is_odd_prime(p):
            check(build_ap_two_p(p), 2 * p, p - 1, -1, 1, n=p * p - 1)
        else:
            with pytest.raises(ParameterError):
                build_ap_two_p(p)
    assert degenerate == {
        "block-extremal", "block-extremal-neg", "ap-mod-k", "ap-mod-k1", "ap-good-shift"
    }
