"""Workload ap-constructions: the periodic AP-avoiding constructions, the
good-shift search and the threshold formulas, checked by the AP scanner.

Every AP construction is built at growing k, makes a v1 file round trip in
both encodings and must get a clean ``ap_scan`` verdict that covers every
k-term AP window, counted from (n, k) by the bench.  Doubling prefixes of
one long construction at fixed k are scanned too: a prefix of an
AP-avoiding sequence still avoids, so the verdict stays known while n
doubles and the window count grows as n * maxD, about 4x per doubling.
Small inputs are scanned by ``ap_scan`` and ``ap_scan_naive`` and must get
identical reports.  The formula and good-shift sweeps are checked against
block-extremal lengths and a brute-force goodness test of the bench's own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from common import Clock, PassResult, LayerSpec, TOP, VALUE, formula_n, ladder
from zerosum import (
    Params,
    SignSeq,
    ap_lower_bound_value,
    ap_scan,
    ap_scan_naive,
    block_scan,
    build_ap_good_shift,
    build_ap_mod_k,
    build_ap_mod_k_plus1,
    build_ap_mod_k_product,
    build_ap_two_p,
    build_block_extremal,
    build_block_extremal_negated,
    format_sequence,
    min_good_shift,
    parse_sequence,
    pm1_smallsum_threshold,
    prime_shift,
    sufficient_block_bound,
)
from zerosum.good_shift import PRIME_GAP_EXPONENT
from zerosum.seqfile import ENCODING_BITS, ENCODING_VALUES

NAME = "ap-constructions"
THROUGHPUT = ("ap_windows_per_s", "k-term AP windows certified clean, counted from (n, k)")
OP = "one construction built, round-tripped and scanned; one prefix scan; one sweep"
# Pass time follows the machine-speed probe fully: in-process pure Python,
# with ``values()`` shifting large ints inside every ``ap_scan`` (measured
# slope of log pass time on log probe time across runs: 0.82).
SPEED_EXPONENT = 1.0

ALPHABETS = ((1, 1), (1, 2), (2, 3))
SMALL_N = 400  # constructions up to this length are also scanned naively

LAYERS = (
    *ladder("scanners.ap_scan", 4),
    LayerSpec("scanners.ap_scan.windows", VALUE),
    LayerSpec("scanners.ap_scan_naive_s", TOP, "scanners.ap_scan_naive"),
    *ladder("core.values", 2),
    *(
        LayerSpec(f"constructions.{b}_s", TOP, f"constructions.{b}")
        for b in (
            "build_ap_two_p", "build_ap_mod_k", "build_ap_mod_k_plus1",
            "build_ap_mod_k_product", "build_ap_good_shift",
            "build_block_extremal", "build_block_extremal_negated",
        )
    ),
    LayerSpec("good_shift.min_good_shift_s", TOP, "good_shift.min_good_shift"),
    LayerSpec("good_shift.prime_shift_s", TOP, "good_shift.prime_shift"),
    LayerSpec("formulas.sweep_s", TOP, "formulas.sweep"),
)


@dataclass(frozen=True)
class Inputs:
    two_p: tuple[int, ...]
    mod_k: tuple[int, ...]
    mod_k1: tuple[int, ...]
    good_shift: tuple[tuple[int, int, int], ...]
    products: tuple[tuple[int, ...], ...]
    extremal: tuple[tuple[int, int, int], ...]
    sweep: tuple[int, int]  # k range [lo, hi)
    prefix_k: int  # fixed k of the long construction (ap-mod-k1)
    prefix_top: int  # ladder top; rungs are top / 2^j
    small: tuple[tuple[int, int, int, int, int], ...]  # (r, s, k, n, bits)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _primes_of(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]


def _brute_good(params: Params, alpha: int) -> bool:
    """No prime of k + alpha divides any weight -r*alpha + (r+s)i, 0 <= i <= alpha."""
    weights = [-params.r * alpha + params.modulus * i for i in range(alpha + 1)]
    return not any(
        w % p == 0 for p in _primes_of(params.k + alpha) for w in weights
    )


def ap_windows(n: int, k: int) -> int:
    """Number of k-term APs inside [0, n): sum over d of n - (k-1)d."""
    if k == 1:
        return n
    top = (n - 1) // (k - 1)
    return top * n - (k - 1) * top * (top + 1) // 2


def generate(seed: int, census: bool = False) -> Inputs:
    rng = random.Random(f"{NAME}:{seed}")
    pick = rng.choice
    if census:
        two_p = (pick((5, 7)), pick((11, 13)))
        mod_k = tuple(4 * rng.randrange(lo, lo + 3) + 2 for lo in (3, 6))
        mod_k1 = tuple(2 * rng.randrange(lo, lo + 3) for lo in (10, 16))
        good = tuple((r, s, (r + s) * rng.randrange(16, 20)) for r, s in ALPHABETS)
        products = ((3, 5),)
        extremal = tuple((r, s, (r + s) * rng.randrange(3, 8)) for r, s in ALPHABETS)
        lo = rng.randrange(30, 60)
        sweep = (lo, lo + 30)
        prefix_k, prefix_top = 50, 400
        n_small = 3
    else:
        two_p = tuple(pick(band) for band in ((11, 13), (23, 29), (47, 53), (89, 97)))
        mod_k = tuple(4 * rng.randrange(lo, lo + 3) + 2 for lo in (17, 35, 50, 70))
        mod_k1 = tuple(2 * rng.randrange(lo, lo + 3) for lo in (30, 55, 80, 115))
        good = tuple(
            (r, s, (r + s) * rng.randrange(lo, lo + 3))
            for r, s in ALPHABETS for lo in (20, 40, 60)
        )
        products = tuple(rng.sample(((3, 5, 7), (3, 5, 7, 11), (5, 7, 11), (3, 7, 11)), 3))
        extremal = tuple(
            (r, s, (r + s) * rng.randrange(lo, lo + 4))
            for r, s in ALPHABETS for lo in (10, 30, 60)
        )
        lo = rng.randrange(200, 400)
        sweep = (lo, lo + 240)
        # ap-mod-k1 at k = 540 has length 48416 >= 48000 = 8 * 6000.
        prefix_k, prefix_top = 540, 48000
        n_small = 12
    small = []
    for _ in range(n_small):
        r, s = pick(ALPHABETS)
        n = rng.randrange(40, 161)
        small.append((r, s, (r + s) * rng.randrange(2, 5), n, rng.getrandbits(n)))
    products = tuple(tuple(rng.sample(f, len(f))) for f in products)
    return Inputs(
        two_p, mod_k, mod_k1, good, products, extremal, sweep, prefix_k,
        prefix_top, tuple(small),
    )


def warm_up(inputs: Inputs, tr, chk) -> None:
    run_pass(generate(0, census=True), tr, chk, Clock())


def _round_trip_and_scan(seq: SignSeq, k: int, tag: str, tr, chk) -> int:
    """v1 round trip in both encodings, then a full clean AP scan."""
    for encoding in (ENCODING_VALUES, ENCODING_BITS):
        back = parse_sequence(format_sequence(seq, encoding), k)
        chk.check(back == seq, f"{tag}: {encoding} round trip changed the sequence")
    with tr.span("scanners.ap_scan"):
        rep = ap_scan(seq, k)
    windows = ap_windows(seq.n, k)
    chk.check(
        not rep.found and rep.scanned_count == windows,
        f"{tag}: ap_scan {rep.witness} scanned {rep.scanned_count} of {windows}",
    )
    return windows


class _Pass:
    def __init__(self, tr, chk, clock: Clock) -> None:
        self.tr, self.chk, self.clock = tr, chk, clock
        self.windows = 0  # AP windows certified clean
        self.scanned = 0  # ap_scan scanned_count, all calls

    def op(self, fn, *args) -> None:
        with self.clock.op(str(len(self.clock.ops))), self.tr.span("op.ap"):
            fn(*args)

    def construction(self, build, arg: int) -> None:
        with self.tr.span(f"constructions.{build.__name__}"):
            c = build(arg)
        k, tag = c.claim.k, f"{c.kind} k={c.claim.k}"
        self.chk.check(
            c.seq.total_weight() == 0 and c.length == c.seq.n >= k,
            f"{tag}: length {c.length} total {c.seq.total_weight()}",
        )
        certified = _round_trip_and_scan(c.seq, k, tag, self.tr, self.chk)
        self.windows += certified
        self.scanned += certified
        if c.length <= SMALL_N:
            self.cross_check(c.seq, k, tag)

    def product(self, factors: tuple[int, ...]) -> None:
        k = 2 * math.prod(factors)
        with self.tr.span("constructions.build_ap_mod_k_product"):
            fn = build_ap_mod_k_product(k, factors)
        vals = fn.values
        full_ok = all(
            sum(vals[(start + j * d) % k] for j in range(k // d)) != 0
            for d in range(1, k + 1) if k % d == 0 for start in range(d)
        )
        self.chk.check(
            vals.count(1) == k // 2 + 1 and vals.count(-1) == k // 2 - 1 and full_ok,
            f"product {factors}: counts or a zero full progression",
        )
        certified = _round_trip_and_scan(fn.as_sequence(), k, f"product {factors}", self.tr, self.chk)
        self.windows += certified
        self.scanned += certified

    def good_shift(self, r: int, s: int, k: int) -> None:
        params = Params(r, s, k)
        with self.tr.span("good_shift.min_good_shift"):
            shift = min_good_shift(params)
        with self.tr.span("constructions.build_ap_good_shift"):
            c = build_ap_good_shift(params, shift)
        tag = f"good-shift {(r, s, k)} alpha={shift.alpha}"
        self.chk.check(
            c.length == ap_lower_bound_value(params, shift) and c.seq.total_weight() == 0,
            f"{tag}: length {c.length} != lower-bound value",
        )
        certified = _round_trip_and_scan(c.seq, k, tag, self.tr, self.chk)
        self.windows += certified
        self.scanned += certified

    def extremal(self, r: int, s: int, k: int) -> None:
        params = Params(r, s, k)
        lengths = []
        for builder, build in (
            ("build_block_extremal", build_block_extremal),
            ("build_block_extremal_negated", build_block_extremal_negated),
        ):
            with self.tr.span(f"constructions.{builder}"):
                c = build(params)
            rep = block_scan(c.seq, k)
            self.chk.check(
                c.seq.total_weight() == 0 and not rep.found
                and rep.min_abs_weight == r + s,
                f"{builder} {(r, s, k)}: {rep}",
            )
            lengths.append(c.length)
        n_exact = formula_n(r, s, k)
        self.chk.check(
            max(lengths) + 1 == n_exact,
            f"extremal {(r, s, k)}: longest {max(lengths)} != N - 1 = {n_exact - 1}",
        )

    def sweep(self, r: int, s: int, lo: int, hi: int) -> None:
        m = r + s
        ks = [k for k in range(lo, hi) if k % m == 0]
        with self.tr.span("formulas.sweep"):
            rows = []
            for k in ks:
                params = Params(r, s, k)
                exact = formula_n(r, s, k)
                suff = [sufficient_block_bound(params, q).n_sufficient for q in (0, 1, 2)]
                small = pm1_smallsum_threshold(k, 0) if (r, s) == (1, 1) else exact
                rows.append((k, exact, suff, small))
        for k, exact, suff, small in rows:
            self.chk.check(
                exact <= suff[0] <= suff[1] <= suff[2] and small == exact,
                f"formulas {(r, s, k)}: N={exact} sufficient={suff} smallsum={small}",
            )
        params_list = [Params(r, s, k) for k in ks]
        with self.tr.span("good_shift.min_good_shift"):
            mins = [min_good_shift(p) for p in params_list]
        with self.tr.span("good_shift.prime_shift"):
            primes = [prime_shift(p) for p in params_list]
        with self.tr.span("formulas.sweep"):
            lbs = [ap_lower_bound_value(p, g) for p, g in zip(params_list, mins)]
        for p, g, ps, lb in zip(params_list, mins, primes, lbs):
            a = g.alpha
            self.chk.check(
                _brute_good(p, a) and not any(_brute_good(p, b) for b in range(1, a)),
                f"min_good_shift {p}: alpha={a}",
            )
            limit = max(1, math.ceil(p.k ** PRIME_GAP_EXPONENT))
            expect = next(
                b for b in range(1, limit + 1)
                if p.k + b > p.s * b and _is_prime(p.k + b) and _brute_good(p, b)
            )
            self.chk.check(ps.alpha == expect, f"prime_shift {p}: {ps.alpha} != {expect}")
            self.chk.check(lb >= 0, f"ap_lower_bound_value {p}: {lb}")

    def prefix_rung(self, full: SignSeq, k: int, n: int) -> None:
        seq = SignSeq(full.params, n, full.bits & ((1 << n) - 1))
        with self.tr.span("core.values", n):
            values = seq.values()
        self.chk.check(len(values) == n, f"prefix n={n}: values length")
        with self.tr.span("scanners.ap_scan", n):
            rep = ap_scan(seq, k)
        windows = ap_windows(n, k)
        self.chk.check(
            not rep.found and rep.scanned_count == windows,
            f"prefix n={n} k={k}: {rep.witness} scanned {rep.scanned_count} of {windows}",
        )
        self.windows += windows
        self.scanned += windows

    def cross_check(self, seq: SignSeq, k: int, tag: str) -> None:
        with self.tr.span("scanners.ap_scan"):
            fast = ap_scan(seq, k)
        with self.tr.span("scanners.ap_scan_naive"):
            slow = ap_scan_naive(seq, k)
        self.scanned += fast.scanned_count
        self.chk.check(fast == slow, f"{tag}: ap_scan {fast} != ap_scan_naive {slow}")


def run_pass(inputs: Inputs, tr, chk, clock: Clock) -> PassResult:
    ps = _Pass(tr, chk, clock)
    for build, args in (
        (build_ap_two_p, inputs.two_p),
        (build_ap_mod_k, inputs.mod_k),
        (build_ap_mod_k_plus1, inputs.mod_k1),
    ):
        for arg in args:
            ps.op(ps.construction, build, arg)
    for factors in inputs.products:
        ps.op(ps.product, factors)
    for r, s, k in inputs.good_shift:
        ps.op(ps.good_shift, r, s, k)
    for r, s, k in inputs.extremal:
        ps.op(ps.extremal, r, s, k)
    for r, s in ALPHABETS:
        ps.op(ps.sweep, r, s, *inputs.sweep)

    k = inputs.prefix_k
    long = []

    def build_long() -> None:
        with tr.span("constructions.build_ap_mod_k_plus1"):
            long.append(build_ap_mod_k_plus1(k))
        chk.check(long[0].length >= inputs.prefix_top, f"long construction k={k} too short")

    ps.op(build_long)
    for j in range(3, -1, -1):
        ps.op(ps.prefix_rung, long[0].seq, k, inputs.prefix_top >> j)

    def small_batch() -> None:
        for r, s, k, n, bits in inputs.small:
            seq = SignSeq(Params(r, s, k), n, bits)
            ps.cross_check(seq, k, f"random {(r, s, k)} n={n}")

    ps.op(small_batch)
    return PassResult(ps.windows, {"scanners.ap_scan.windows": ps.scanned})
