"""Scanner tests: witnesses, certificates of absence, and equivalence of
the optimized AP scan with its naive rescan oracle."""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    ParameterError,
    Params,
    ScanReport,
    SignSeq,
    ap_scan,
    ap_scan_naive,
    block_scan,
    build_ap_mod_k,
    build_ap_mod_k_plus1,
    build_block_extremal,
    build_block_extremal_negated,
    interpolation_check,
    pm1_smallsum_threshold,
    smallsum_block_scan,
)
from zerosum import scanners
from zerosum.scanners import (
    MODE_BLOCK,
    MODE_SMALLSUM,
    InterpolationReport,
    _spread,
    max_difference,
)
from termwise import per_d_min_abs, window_weight

PM1 = Params(1, 1, 2)


def test_block_scan_finds_lowest_start():
    seq = SignSeq.from_values(PM1, [1, -1, 1, -1])
    report = block_scan(seq, 2)
    assert report.found and report.witness == (0, 1)
    assert report.min_abs_weight == 0


def test_block_scan_certifies_absence():
    seq = build_block_extremal(Params(1, 2, 6)).seq
    report = block_scan(seq, 6)
    assert not report.found
    assert report.min_abs_weight == 3
    assert report.scanned_count == 4


def test_block_scan_rejects_k_above_n():
    seq = SignSeq.from_values(PM1, [1, -1])
    with pytest.raises(ParameterError):
        block_scan(seq, 3)


def test_ap_scan_plus1_certificate():
    seq = build_ap_mod_k_plus1(8).seq
    report = ap_scan(seq, 8)
    assert not report.found
    assert report.scanned_count == 5
    assert report.min_abs_weight == 2


def test_ap_scan_alternating_witness():
    for k in (2, 4, 6):
        values = [1, -1] * k
        seq = SignSeq.from_values(PM1, values)
        report = ap_scan(seq, k)
        assert report.found and report.witness == (0, 1)


def test_ap_scan_gcd_bound_on_mod_k_construction():
    seq = build_ap_mod_k(10).seq
    report = ap_scan(seq, 10)
    assert not report.found
    per_d = per_d_min_abs(seq, 10)
    assert report.min_abs_weight == min(per_d.values())
    for d, min_abs in per_d.items():
        assert min_abs >= math.gcd(d, 10)


def _random_seq(rng: random.Random, params: Params, n: int) -> SignSeq:
    return SignSeq(params, n, rng.getrandbits(n) if n else 0)


def _sparse_seq(rng: random.Random, params: Params, n: int, negs: int) -> SignSeq:
    """All +s but for negs letters -r at random positions."""
    bits = (1 << n) - 1
    for p in rng.sample(range(n), negs):
        bits ^= 1 << p
    return SignSeq(params, n, bits)


def _plant_ap(rng: random.Random, params: Params, n: int, bits: int, k: int, d: int) -> SignSeq:
    """``bits`` with a zero-sum k-term AP of difference d written over it at
    a random start."""
    start = rng.randrange(n - (k - 1) * d)
    negatives = set(rng.sample(range(k), params.s * k // params.modulus))
    for j in range(k):
        bit = 1 << (start + j * d)
        bits = bits & ~bit if j in negatives else bits | bit
    return SignSeq(params, n, bits)


def _assert_ap_scan_matches_naive(seq: SignSeq, k: int) -> ScanReport:
    """The report equals the naive rescan's.  Returns the naive report."""
    naive = ap_scan_naive(seq, k)
    assert ap_scan(seq, k) == naive
    return naive


def test_ap_scan_matches_naive_rescan():
    """Optimized and naive AP scans give equal reports, for k = 1, k a
    multiple of r + s and any other k."""
    rng = random.Random(314159)
    pairs = [Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5)]
    for trial in range(300):
        params = rng.choice(pairs)
        if trial % 3 == 2:
            k = 1 if trial % 9 == 2 else rng.randint(1, 3 * params.modulus + 1)
        else:
            k = params.modulus * rng.randint(1, 4)
        n = rng.randint(k, 80)
        if trial % 2:
            seq = _random_seq(rng, params, n)
        else:
            # sparse negatives: no window can cancel, so both scanners
            # sweep everything and must agree on the exact minimum
            negs = rng.randint(0, max(0, params.s * k // params.modulus - 1))
            seq = _sparse_seq(rng, params, n, negs)
        _assert_ap_scan_matches_naive(seq, k)


@pytest.mark.parametrize(
    "k,params", [(255, Params(2, 3, 255)), (256, Params(1, 1, 256)), (257, Params(1, 1, 257))]
)
def test_ap_scan_count_field_width_edges(k, params):
    """Around k = 2**8, where the AP scan's count fields widen from 9 to
    10 bits: random and sparse sequences, sparse ones with a zero-sum AP
    planted at difference 2 or 3 (when (r + s) | k), and the all-(-r)
    sequence, whose every AP count is k, the largest count a field holds
    below its guard bit."""
    rng = random.Random(k)
    cases = [SignSeq(params, n, 0) for n in (k, 2 * k + 1)]
    for _ in range(3):
        n = rng.randint(k, 3 * k)
        cases.append(_random_seq(rng, params, n))
        cases.append(_sparse_seq(rng, params, n, rng.randint(0, 40)))
    planted = []
    if k % params.modulus == 0:
        for d in (2, 3, 2):
            n = rng.randint((k - 1) * d + 1, 3 * k)
            bits = _sparse_seq(rng, params, n, rng.randint(0, 10)).bits
            planted.append(_plant_ap(rng, params, n, bits, k, d))
    for seq in cases + planted:
        _assert_ap_scan_matches_naive(seq, k)
    for seq in planted:
        assert ap_scan(seq, k).witness[1] >= 2
    assert ap_scan(cases[0], k).min_abs_weight == params.r * k


def _ap_scan_cases(rng: random.Random, params: Params, k: int, n_max: int) -> list[SignSeq]:
    """All -r and all +s at n = k and n_max (every AP count is k or 0, far
    from tau = s*k/(r+s)), random and sparse sequences, and, when
    (r+s) | k, a zero-sum AP planted at a random difference."""
    cases = [SignSeq(params, n, bits) for n in (k, n_max) for bits in (0, (1 << n) - 1)]
    for _ in range(3):
        n = rng.randint(k, n_max)
        cases.append(_random_seq(rng, params, n))
        cases.append(_sparse_seq(rng, params, n, rng.randint(0, min(n, k))))
        if k % params.modulus == 0 and k > 1:
            d = rng.randint(1, max_difference(n, k))
            cases.append(_plant_ap(rng, params, n, rng.getrandbits(n), k, d))
    return cases


@pytest.mark.parametrize("k", sorted({2**j + e for j in range(1, 9) for e in (-1, 0, 1)}))
def test_ap_scan_guard_width_edges(k):
    """At k = 2**j - 1, 2**j and 2**j + 1 the AP scan's count fields
    (k.bit_length() + 1 bits, the top one a guard) change width: full
    reports match the term-by-term scan."""
    rng = random.Random(k)
    n_max = 2 * k + 10 if k > 64 else 6 * k + 10
    for params in (Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5), Params(1, 4, 5)):
        for seq in _ap_scan_cases(rng, params, k, n_max):
            _assert_ap_scan_matches_naive(seq, k)


def test_spread_moves_bit_p_to_field_p():
    """The scan kernel's flag int, expanded a column at a time from a table
    per field width, against a bit-by-bit build, at lengths around byte
    boundaries and around 4096 (the run length of an earlier string-based
    build).  Widths below 8 have fewer than 8 columns; from 9 on some
    columns are all zero (every other one at 16 and 24)."""
    rng = random.Random(8191)
    for n in (0, 1, 7, 8, 9, 15, 16, 17, 4095, 4096, 4097, 8197):
        for w in (1, 2, 3, 4, 7, 8, 9, 11, 16, 17, 24):
            bits = rng.getrandbits(n) if n else 0
            expected = sum(1 << p * w for p in range(n) if bits >> p & 1)
            assert _spread(bits, n, w) == expected, (n, w)


@pytest.mark.parametrize("r,s", [(1, 4), (4, 1), (1, 6), (5, 2)])
def test_ap_scan_skewed_alphabets(r, s):
    """Skewed alphabets put tau = s*k/(r+s) near 0 or near k, or between two
    counts, so the window searched around tau is clipped to [0, k]."""
    rng = random.Random(r * 10 + s)
    params = Params(r, s, r + s)
    for k in range(1, 3 * (r + s) + 2):
        for seq in _ap_scan_cases(rng, params, k, 6 * k + 10):
            _assert_ap_scan_matches_naive(seq, k)


@pytest.mark.parametrize("params", [Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5)])
def test_ap_scan_chains_match_naive(params):
    """Differences d >= 2 come off one chain per odd part of d, read with o
    ascending, so d = 4 is read before d = 3.  Against the naive rescan:
    sparse avoiders, k with (r + s)
    not dividing k (no AP weighs 0, every difference is read to its least
    |weight|), and zero-sum APs planted at d = 1, 2, 3 and at odd d > 2,
    alone and in pairs, over an avoider; the least (d, start) wins."""
    rng = random.Random(params.modulus * 1009)
    m = params.modulus
    for k in (m + 1, 3 * m - 1, 4 * m + 1):  # never zero-sum
        for _ in range(4):
            n = rng.randint(k, 12 * k)
            _assert_ap_scan_matches_naive(_random_seq(rng, params, n), k)
            negs = rng.randint(0, min(n, k))
            _assert_ap_scan_matches_naive(_sparse_seq(rng, params, n, negs), k)
    plants = ([1], [2], [3], [5], [7], [4, 3], [2, 3], [6, 5], [8, 7], [3, 3], [9, 2], [5, 1])
    for k in (m, 2 * m, 3 * m):
        c_star = params.s * k // m
        for ds in plants:
            n = (k - 1) * max(ds) + 1 + rng.randint(0, 3 * k)
            # fewer than c* negatives: no AP of the background is zero-sum
            seq = _sparse_seq(rng, params, n, rng.randint(0, c_star - 1))
            for d in sorted(ds, reverse=True):  # the least d planted last stays zero-sum
                seq = _plant_ap(rng, params, n, seq.bits, k, d)
            naive = _assert_ap_scan_matches_naive(seq, k)
            assert naive.found and naive.witness[1] <= min(ds)


def test_ap_scan_chain_field_width_boundaries():
    """A chain's fields hold up to ceil(n/l), l = max(o, 2) its least
    difference, so they are W(o) = max(bit_length(ceil(n/l)),
    k.bit_length() + 1) bits wide.  At n = o * 2**j that bound is a power
    of two and fills its field's top bit; the all -r sequence reaches it
    in field 0 of Q_l.  Around each such n, for o = 1, 3, 5 and k small
    enough that W(o) exceeds the d = 1 width."""
    rng = random.Random(4099)
    for k in (2, 3, 4, 6):
        for o in (1, 3, 5):
            for j in range(2, 8):
                for n in ((o << j) - 1, o << j, (o << j) + 1):
                    if n > 200 or n < k or max_difference(n, k) < o:
                        continue
                    for params in (Params(1, 1, 2), Params(1, 2, 3)):
                        for bits in (0, (1 << n) - 1, rng.getrandbits(n)):
                            _assert_ap_scan_matches_naive(SignSeq(params, n, bits), k)


def test_ap_scan_difference_one_hit_builds_no_chain(monkeypatch):
    """A zero-sum block ends an AP scan after its d = 1 pass, with one flag
    spread and no chain; a first hit at d = 2 needs the o = 1 chain, whose
    fields are wider here, and so a second spread."""
    widths = []
    spread = scanners._spread

    def counted(bits: int, n: int, w: int) -> int:
        widths.append(w)
        return spread(bits, n, w)

    monkeypatch.setattr(scanners, "_spread", counted)
    params, k, n = Params(1, 1, 2), 10, 4000
    for d in (1, 2):
        # +1 but for the odd terms of the AP at (n/2, d): it is zero-sum,
        # no earlier AP of difference d holds all five -1s, and no block
        # holds more than three at d = 2
        bits = (1 << n) - 1
        for j in range(1, k, 2):
            bits ^= 1 << (n // 2 + j * d)
        widths.clear()
        report = ap_scan(SignSeq(params, n, bits), k)
        assert report.witness == (n // 2, d)
        assert widths == [k.bit_length() + 1] + [(n // 2).bit_length()] * (d - 1)


def _reference_block_scan(seq: SignSeq, k: int, t: int | None = None) -> ScanReport:
    """Block (t None) and small-sum scans as a per-window loop over the
    prefix sums, an engine the bit-parallel kernel does not use; kept as
    their reference."""
    prefix = seq.prefix_weights()
    mode = MODE_BLOCK if t is None else MODE_SMALLSUM
    min_abs = None
    scanned = 0
    for i in range(seq.n - k + 1):
        w = prefix[i + k] - prefix[i]
        scanned += 1
        if min_abs is None or abs(w) < min_abs:
            min_abs = abs(w)
        if abs(w) <= (t or 0):
            return ScanReport(mode, k, True, (i, 1), min_abs, scanned, t)
    return ScanReport(mode, k, False, None, min_abs, scanned, t)


def _planted_seq(rng: random.Random, params: Params, n: int, k: int, p: int) -> SignSeq:
    """+s letters before p, then a zero-sum k-block at p with its c* -r
    letters last (so no earlier window is zero-sum), then random letters."""
    c_star = params.s * k // params.modulus
    bits = ((1 << (p + k)) - 1) ^ (((1 << c_star) - 1) << (p + k - c_star))
    return SignSeq(params, n, bits | (rng.getrandbits(n - p - k) << (p + k)))


@pytest.mark.parametrize("k", range(1, 13))
def test_block_scans_match_reference_loop(k):
    """block_scan and smallsum_block_scan (every t of k's parity) give the
    reference loop's full report: random letters, all +s, a run of N -r
    letters each period of k for every N in [0, k], and zero-sum blocks
    planted at the first and the last start, from n = k up.  Every window
    of the runs weighs s*k - (r + s)*N, so each least value is read, those
    between the search's probes and those where r + s does not divide k
    included."""
    rng = random.Random(k)
    for params in (Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5)):
        for n in (k, k + 1, k + 9, 3 * k + 40):
            seqs = [_random_seq(rng, params, n) for _ in range(4)]
            seqs.append(SignSeq(params, n, (1 << n) - 1))
            for negs in range(k + 1):
                period = ((1 << k) - 1) ^ ((1 << negs) - 1)  # -r at 0..negs-1
                runs = sum(period << j * k for j in range(n // k + 1))
                seqs.append(SignSeq(params, n, runs & ((1 << n) - 1)))
            if k % params.modulus == 0:
                for p in {0, min(2, n - k), n - k}:
                    seqs.append(_planted_seq(rng, params, n, k, p))
                    assert block_scan(seqs[-1], k).witness == (p, 1)
            for seq in seqs:
                assert block_scan(seq, k) == _reference_block_scan(seq, k)
                if params.modulus == 2:
                    for t in range(k % 2, k, 2):
                        report = smallsum_block_scan(seq, k, t)
                        assert report == _reference_block_scan(seq, k, t)


@pytest.mark.parametrize("k", sorted({2**j + e for j in range(1, 9) for e in (-1, 0, 1)}))
def test_block_scans_guard_width_edges(k):
    """At k = 2**j - 1, 2**j and 2**j + 1, where the count fields of the
    shared kernel change width, block and small-sum scans give the
    reference loop's full report: random letters, all +s, all -r, zero-sum
    blocks planted at the first and the last start when (r + s) | k, and
    alphabets whose r + s does not divide k (no zero-sum window at all)."""
    rng = random.Random(k)
    for params in (Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5), Params(3, 4, 7)):
        for n in (k, 2 * k + 7):
            seqs = [_random_seq(rng, params, n)]
            seqs += [SignSeq(params, n, bits) for bits in ((1 << n) - 1, 0)]
            if k % params.modulus == 0:
                for p in (0, n - k):
                    seqs.append(_planted_seq(rng, params, n, k, p))
                    assert block_scan(seqs[-1], k).witness == (p, 1)
            for seq in seqs:
                assert block_scan(seq, k) == _reference_block_scan(seq, k)
                if params.modulus == 2:
                    for t in {k % 2, k % 2 + 2, k - 4, k - 2} & set(range(k % 2, k, 2)):
                        report = smallsum_block_scan(seq, k, t)
                        assert report == _reference_block_scan(seq, k, t)


def test_block_scans_match_reference_loop_on_long_sequences():
    """Full reports on 24000 letters, where a scan reads many windows: a
    zero-sum block planted at starts spread over every octave, and
    avoiders whose least |weight| lies in one window at those starts."""
    rng = random.Random(2718)
    n = 24000
    octaves = [(1 << e, rng.randrange(1 << e, 2 << e)) for e in range(4, 15)]
    near = {p + dp for ps in octaves for p in ps for dp in (-1, 0, 1)}
    starts = sorted({0, n - 12} | {p for p in near if p <= n - 12})
    for params, k in ((Params(1, 1, 2), 8), (Params(1, 2, 3), 6)):
        c_star = params.s * k // params.modulus
        for p in starts:
            planted = _planted_seq(rng, params, n, k, p)
            # c* - 1 negatives in a row at p: no window reaches zero
            avoider = SignSeq(params, n, ((1 << n) - 1) ^ (((1 << (c_star - 1)) - 1) << p))
            for seq in (planted, avoider):
                assert block_scan(seq, k) == _reference_block_scan(seq, k)
                if params.modulus == 2:
                    for t in range(0, k, 2):
                        report = smallsum_block_scan(seq, k, t)
                        assert report == _reference_block_scan(seq, k, t)
            assert block_scan(planted, k).witness == (p, 1)
            assert block_scan(avoider, k).min_abs_weight == params.modulus


def test_block_scan_is_ap_scan_difference_one():
    """A block witness exists iff the d = 1 slice of the AP scan has one."""
    rng = random.Random(271828)
    for _ in range(150):
        params = rng.choice([Params(1, 1, 2), Params(1, 2, 3)])
        k = params.modulus * rng.randint(1, 3)
        n = rng.randint(k, 40)
        seq = _random_seq(rng, params, n)
        block = block_scan(seq, k)
        d1_zero = [
            start
            for start in range(n - k + 1)
            if window_weight(seq, start, k) == 0
        ]
        assert block.found == bool(d1_zero)
        if block.found:
            assert block.witness == (d1_zero[0], 1)


def test_min_abs_weight_is_exact():
    """When nothing is found, minAbsWeight equals the naive full minimum."""
    rng = random.Random(999)
    for _ in range(100):
        params = rng.choice([Params(1, 2, 3), Params(2, 3, 5)])
        k = params.modulus
        n = rng.randint(k, 60)
        seq = _random_seq(rng, params, n)
        report = ap_scan(seq, k)
        naive_min = min(
            abs(sum(seq.values()[s + j * d] for j in range(k)))
            for d in range(1, (n - 1) // (k - 1) + 1)
            for s in range(n - (k - 1) * d)
        )
        if not report.found:
            assert report.min_abs_weight == naive_min
        else:
            assert naive_min == 0


@given(st.data())
@settings(max_examples=100)
def test_window_weights_divisible_when_k_divisible(data):
    """Every reported window weight is divisible by r + s when (r+s) | k."""
    params = data.draw(st.sampled_from([Params(1, 2, 3), Params(2, 3, 5)]))
    k = params.modulus * data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=k, max_value=k + 16))
    seq = SignSeq(params, n, data.draw(st.integers(0, (1 << n) - 1)))
    report = block_scan(seq, k)
    if not report.found:
        assert report.min_abs_weight % params.modulus == 0


def test_zero_sum_length_2k_always_has_block_witness():
    """Scanner-path check of the length-2k fact, independent of the
    enumeration oracle's counting logic."""
    import itertools

    for k in (2, 4, 6):
        n = 2 * k
        for ones in itertools.combinations(range(n), k):
            bits = 0
            for p in ones:
                bits |= 1 << p
            seq = SignSeq(PM1, n, bits)
            assert block_scan(seq, k).found


class TestSmallSum:
    def test_constant_sequence_has_no_small_window(self):
        seq = SignSeq.from_values(PM1, [1] * 9)
        report = smallsum_block_scan(seq, 4, 2)
        assert not report.found
        assert report.min_abs_weight == 4

    def test_zero_tolerance_reduces_to_block_scan(self):
        rng = random.Random(42)
        for _ in range(100):
            k = 2 * rng.randint(1, 4)
            n = rng.randint(k, 30)
            seq = _random_seq(rng, PM1, n)
            small = smallsum_block_scan(seq, k, 0)
            block = block_scan(seq, k)
            assert small.found == block.found
            assert small.witness == block.witness

    def test_threshold_length_sequences_contain_small_window(self):
        """At the threshold length every admissible sequence has a window
        within tolerance.  Combos beyond the work cap are skipped."""
        import itertools

        cap = 200_000
        for k in range(2, 11):
            for t in range(k % 2, min(3, k), 2):
                for q in range(3):
                    n = pm1_smallsum_threshold(k, t, q)
                    admissible = [
                        ones
                        for ones in range(n + 1)
                        if abs(2 * ones - n) <= q
                    ]
                    total = sum(math.comb(n, ones) for ones in admissible)
                    if total > cap or n > 40:
                        continue
                    for ones in admissible:
                        for pos in itertools.combinations(range(n), ones):
                            bits = 0
                            for p_ in pos:
                                bits |= 1 << p_
                            seq = SignSeq(PM1, n, bits)
                            assert smallsum_block_scan(seq, k, t).found, (k, t, q)

    def test_preconditions(self):
        seq = SignSeq.from_values(PM1, [1, -1, 1, -1])
        with pytest.raises(ParameterError):
            smallsum_block_scan(seq, 3, 0)  # parity mismatch
        with pytest.raises(ParameterError):
            smallsum_block_scan(seq, 2, 2)  # t must stay below k
        other = SignSeq.from_values(Params(1, 2, 3), [-1, -1, 2])
        with pytest.raises(ParameterError):
            smallsum_block_scan(other, 2, 0)


def _reference_interpolation_check(seq: SignSeq, k: int) -> InterpolationReport:
    """The interpolation facts as a per-window loop over the prefix sums;
    kept as the reference for ``interpolation_check``'s set-based passes."""
    m = seq.params.modulus
    prefix = seq.prefix_weights()
    weights = [b - a for a, b in zip(prefix, prefix[k:])]

    has_neg = any(w < 0 for w in weights)
    has_pos = any(w > 0 for w in weights)
    has_zero = any(w == 0 for w in weights)
    sign_ok = (not (has_neg and has_pos)) or has_zero

    step_ok = all(
        abs(weights[i + 1] - weights[i]) <= m for i in range(len(weights) - 1)
    )
    residue_ok = all(w % m == 0 for w in weights)

    detail = None
    if not sign_ok:
        detail = "sign change without a zero window"
    elif not step_ok:
        detail = "adjacent windows differ by more than r + s"
    elif not residue_ok:
        detail = "window weight not divisible by r + s"
    return InterpolationReport(
        ok=sign_ok and step_ok and residue_ok,
        sign_change_implies_zero=sign_ok,
        adjacent_step_bounded=step_ok,
        residues_vanish=residue_ok,
        window_count=len(weights),
        detail=detail,
    )


def _forged_seq(params: Params, k: int, weights: list[int]) -> SignSeq:
    """A sequence whose cached prefix sums are replaced by ones whose
    k-windows weigh ``weights``: no {-r, s}-sequence reaches the failure
    branches, so they are reached through the cache."""
    prefix = [0] * k
    for w in weights:
        prefix.append(prefix[-k] + w)
    seq = SignSeq(params, len(prefix) - 1, 0)
    seq._prefix = tuple(prefix)
    return seq


class TestInterpolation:
    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 3), (3, 5)])
    def test_matches_reference_loop(self, r, s):
        """Random, periodic and one-letter sequences at k = m..6m, n = k to
        k + 200 (both ends and a random sample between)."""
        rng = random.Random(r * 100 + s)
        m = r + s
        params = Params(r, s, m)
        for k in range(m, 6 * m + 1, m):
            for n in (k, k + 200, *rng.sample(range(k + 1, k + 200), 12)):
                period = rng.randrange(1, 2 * k)
                pattern = rng.getrandbits(period)
                cases = [
                    _random_seq(rng, params, n),
                    SignSeq.from_bitstring(
                        params,
                        "".join(str(pattern >> (i % period) & 1) for i in range(n)),
                    ),
                    SignSeq(params, n, 0),
                    SignSeq(params, n, (1 << n) - 1),
                ]
                for seq in cases:
                    report = interpolation_check(seq, k)
                    assert report == _reference_interpolation_check(seq, k), (seq, k)

    @pytest.mark.parametrize(
        "r,s,k,weights,detail",
        [
            # a sign change without a zero, and a residue that fails with it
            (1, 1, 2, [-1, 1, 1], "sign change without a zero window"),
            # a sign change without a zero, and a step that fails with it
            (1, 1, 2, [-2, 2, 2], "sign change without a zero window"),
            (1, 2, 3, [0, 3, 9, 6], "adjacent windows differ by more than r + s"),
            (1, 1, 2, [4, 0, 2], "adjacent windows differ by more than r + s"),
            (1, 1, 4, [2, 2, 3, 2], "window weight not divisible by r + s"),
            # a step and a residue at once: the step is named
            (2, 3, 5, [0, 5, 12], "adjacent windows differ by more than r + s"),
            (2, 3, 5, [-5, 0, 5], None),
            # a span of exactly r + s settles the steps without reading them
            (2, 3, 5, [5, 0, 5, 0], None),
            (1, 1, 2, [-2, 0, 0, -2], None),
            # a span of 2(r + s) with one step past r + s: the step is named
            (2, 3, 5, [0, 10, 5], "adjacent windows differ by more than r + s"),
        ],
    )
    def test_failure_branches_match_reference(self, r, s, k, weights, detail):
        seq = _forged_seq(Params(r, s, k), k, weights)
        report = interpolation_check(seq, k)
        assert report == _reference_interpolation_check(seq, k)
        assert report.detail == detail
        assert report.window_count == len(weights)

    @pytest.mark.parametrize("weights,step_passes", [([5, 0, 5, 0], 0), ([0, 10, 5], 1)])
    def test_steps_are_read_only_past_a_span_of_r_plus_s(self, monkeypatch, weights, step_passes):
        calls = []
        monkeypatch.setattr(scanners, "islice", lambda *a: calls.append(a) or islice(*a))
        interpolation_check(_forged_seq(Params(2, 3, 5), 5, weights), 5)
        assert len(calls) == 1 + step_passes

    @pytest.mark.parametrize("r,s,k", [(1, 1, 100), (2, 3, 100), (1, 2, 120), (3, 4, 140)])
    def test_block_extremal_matches_reference(self, r, s, k):
        """Thousands of letters whose k-windows all weigh the same, so the
        weights span 0 and the steps are never read."""
        for build in (build_block_extremal, build_block_extremal_negated):
            seq = build(Params(r, s, k)).seq
            assert seq.n >= 2000
            assert interpolation_check(seq, k) == _reference_interpolation_check(seq, k)

    def test_example_windows(self):
        seq = SignSeq.from_values(Params(1, 2, 3), [-1, -1, 2, 2, -1, -1])
        weights = [window_weight(seq, i, 3) for i in range(4)]
        assert weights == [0, 3, 3, 0]
        report = interpolation_check(seq, 3)
        assert report.ok
        assert report.window_count == 4

    def test_requires_divisibility(self):
        seq = SignSeq.from_values(PM1, [1, -1, 1, -1])
        with pytest.raises(ParameterError):
            interpolation_check(seq, 3)

    @given(st.data())
    @settings(max_examples=300)
    def test_never_fails_on_random_sequences(self, data):
        """Sign change forces a zero window; steps stay within r + s."""
        params = data.draw(
            st.sampled_from([Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5)])
        )
        k = params.modulus * data.draw(st.integers(min_value=1, max_value=3))
        n = data.draw(st.integers(min_value=k, max_value=k + 24))
        seq = SignSeq(params, n, data.draw(st.integers(0, (1 << n) - 1)))
        report = interpolation_check(seq, k)
        assert report.ok, report.detail
        assert report.sign_change_implies_zero
        assert report.adjacent_step_bounded
        assert report.residues_vanish
