"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``);
an assertion failure prints FAIL before propagating.
"""

import contextlib
import math
import random

from zerosum import (
    Params,
    SignSeq,
    ap_lower_bound_value,
    ap_scan,
    ap_scan_naive,
    block_scan,
    block_threshold,
    build_ap_mod_k,
    build_ap_mod_k_plus1,
    build_ap_two_p,
    build_block_extremal,
    exact_block_threshold,
    exact_threshold,
    interpolation_check,
    min_good_shift,
    verify_2k_proposition,
    verify_pow2_rigidity,
)
from termwise import per_d_min_abs, window_weight


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_formula_oracle_agreement():
    grid = [
        (1, 1, 4, 16),
        (1, 1, 6, 16),
        (1, 1, 8, 18),
        (1, 2, 3, 15),
        (1, 2, 6, 18),
        (1, 2, 9, 24),
        (1, 1, 10, 28),
        (2, 3, 10, 30),
    ]
    with criterion(1, "exhaustive block thresholds equal the formula values"):
        for r, s, k, cap in grid:
            params = Params(r, s, k)
            expected = block_threshold(params)
            result = exact_threshold(
                params, "block", q=0, search_cap=cap, budget=10**10
            )
            assert result.exhaustive and not result.capped, (r, s, k)
            assert result.derived_threshold == expected, (r, s, k)


def test_criterion_2_extremal_certificate():
    with criterion(2, "build_block_extremal(1,2,6) is a length-9 certificate"):
        params = Params(1, 2, 6)
        c = build_block_extremal(params)
        assert c.length == 9 == exact_block_threshold(params).n_exact - 1
        assert c.seq.total_weight() == 0
        assert all(window_weight(c.seq, i, 6) == 3 for i in range(4))
        report = block_scan(c.seq, 6)
        assert not report.found and report.min_abs_weight == 3


def test_criterion_3_two_k_proposition():
    with criterion(3, "every zero-sum length-2k sequence has a zero-sum k-block"):
        for k in (2, 4, 6, 8, 10):
            verdict = verify_2k_proposition(k)
            assert verdict.ok, k
            assert verdict.sequences_checked == math.comb(2 * k, k)


def test_criterion_4_ap_constructions_avoid_zero_sums():
    with criterion(4, "periodic AP constructions scan clean at stated lengths"):
        for k in range(2, 41, 2):
            c = build_ap_mod_k_plus1(k)
            assert c.length == (k + 4) * ((k - 2) // 6), k
            assert c.seq.total_weight() == 0
            if c.length >= k:
                assert not ap_scan(c.seq, k).found, k
        for k in range(6, 43, 4):
            c = build_ap_mod_k(k)
            assert c.seq.total_weight() == 0
            if c.length >= k:
                assert not ap_scan(c.seq, k).found, k
                for d, min_abs in per_d_min_abs(c.seq, k).items():
                    assert min_abs >= math.gcd(d, k), (k, d)


def test_criterion_5_quadratic_lower_bound_table():
    with criterion(5, "shift-1 AP bound equals (k+4)*floor((k-2)/6) up to k=200"):
        for k in range(2, 201, 2):
            value = ap_lower_bound_value(Params(1, 1, k), 1)
            assert value == (k + 4) * ((k - 2) // 6), k


def test_criterion_6_pow2_rigidity():
    with criterion(6, "only the two constant functions survive the dyadic checks"):
        for v in (2, 3, 4):
            verdict = verify_pow2_rigidity(v)
            assert verdict.ok, v
            assert len(verdict.survivors) == 2, v


def test_criterion_7_good_shifts():
    with criterion(7, "minimum good shifts match over k <= 1000"):
        for k in range(2, 1001, 2):
            assert min_good_shift(Params(1, 1, k)).alpha == 1, k
        for k in range(3, 1001, 3):
            alpha = min_good_shift(Params(1, 2, k)).alpha
            assert alpha in (1, 2), k
            assert alpha % 2 == (k + 1) % 2, k


def test_criterion_8_interpolation_property():
    with criterion(8, "interpolation facts hold on 10^4 random sequences per pair"):
        rng = random.Random(20230817)
        for r, s in ((1, 1), (1, 2), (2, 3)):
            m = r + s
            for _ in range(10_000):
                k = m * rng.randint(1, 4)
                n = rng.randint(k, k + 30)
                seq = SignSeq(Params(r, s, k), n, rng.getrandbits(n))
                report = interpolation_check(seq, k)
                assert report.ok, (r, s, report.detail)


def test_criterion_9_scanner_oracle_equivalence():
    with criterion(9, "optimized AP scan equals the naive rescan on 10^3 sequences"):
        rng = random.Random(96180339)
        pairs = (Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5))
        found = 0
        for trial in range(1000):
            params = rng.choice(pairs)
            k = params.modulus * rng.randint(1, 6)
            n = rng.randint(k, 200)
            if trial % 2:
                bits = rng.getrandbits(n)
            else:
                # Too few negative letters for any window to cancel:
                # exercises the full-scan, exact-minimum path.
                negs = rng.randint(0, params.s * k // params.modulus - 1)
                bits = (1 << n) - 1
                for p in rng.sample(range(n), negs):
                    bits ^= 1 << p
            seq = SignSeq(params, n, bits)
            fast = ap_scan(seq, k)
            slow = ap_scan_naive(seq, k)
            assert fast.found == slow.found
            assert fast.witness == slow.witness
            assert fast.min_abs_weight == slow.min_abs_weight
            found += fast.found
        assert 100 < found < 900  # both outcomes well represented


def test_criterion_10_two_p_construction():
    with criterion(10, "p^2-1 constructions avoid zero-sum 2p-term APs"):
        for p in (3, 5, 7):
            c = build_ap_two_p(p)
            assert c.length == p * p - 1, p
            assert c.seq.total_weight() == 0, p
            assert not ap_scan(c.seq, 2 * p).found, p
