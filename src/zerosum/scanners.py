"""Fast detectors for zero-sum blocks, zero-sum arithmetic subsequences,
and small-sum blocks, plus the interpolation-property checker.

A k-block is a k-term AP of difference 1, so all three scanners run one
bit-parallel kernel (_scan), the block and small-sum scans as its d = 1
pass.  The -r flags become one int of w-bit fields, w = k.bit_length()
+ 1, whose top bits are guards no count reaches.  Per common difference
d, shift-adds give the -r count of every k-term AP in the field of its
start, and range tests on the guard bits read the verdict (a count whose
|weight| is within the tolerance t, 0 but for small-sum scans) and the
least |weight| off that int.  So a scan costs O(log k) big-int
operations of n*w bits per difference d, hit or not, up to d = 1 for
blocks and d = maxD = floor((n-1)/(k-1)) for APs, and makes no
per-start Python object.  Witness order is deterministic: blocks by
lowest start, APs by lowest difference then lowest start.  A naive
rescan is kept alongside as the AP scanner's correctness oracle; the
interpolation checker reads the window weights off the prefix sums, an
engine the scanners do not use.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache
from itertools import islice
from operator import sub

from .core import MODE_AP, MODE_BLOCK, MODE_SMALLSUM, ParameterError, Report, SignSeq


class ScanReport(Report, namedtuple(
    "ScanReport", "mode k found witness min_abs_weight scanned_count t per_d_min_abs",
    defaults=(None, None),
)):
    """Outcome of one scan: a witness or a certificate of absence.

    ``witness`` is (start, difference), difference 1 for blocks.
    ``min_abs_weight`` and ``scanned_count`` cover the windows up to and
    including the witness, or all windows when there is none; the scan
    reads every window of the witness's difference, and the minimum up to
    the witness stays exact because every earlier window misses the
    target.
    """

    __slots__ = ()
    _meta = {
        "witness": {"pair": ("start", "difference")},
        "t": {"optional": True},
        "per_d_min_abs": {"json": "perDifferenceMinAbs", "optional": True},
    }


def _check_window_length(seq: SignSeq, k: int) -> None:
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > seq.n:
        raise ParameterError(f"k = {k} exceeds sequence length n = {seq.n}")


def max_difference(n: int, k: int) -> int:
    """Largest common difference d with a k-term AP inside [0, n)."""
    return (n - 1) // (k - 1) if k > 1 else 1


@cache
def _spread_table(w: int) -> tuple[bytes, ...]:
    """Byte b spread to w-bit fields: bit j of b moved to bit j*w, as the
    w little-endian bytes that eight fields fill."""
    return tuple(
        sum(((b >> j) & 1) << (j * w) for j in range(8)).to_bytes(w, "little")
        for b in range(256)
    )


def _spread(bits: int, n: int, w: int) -> int:
    """The n bits of ``bits`` (below 2**n) moved to w-bit fields, bit p to
    bit p*w.

    Eight positions fill exactly w bytes, so each byte of ``bits`` is
    looked up in a 256-entry table per w and the pieces are joined: C-level
    passes over n/8 bytes, and the table entries are shared, not copied."""
    table = _spread_table(w)
    return int.from_bytes(
        b"".join(map(table.__getitem__, bits.to_bytes((n + 7) // 8, "little"))),
        "little",
    )


def _least(holds: Callable[[int], bool], empty: int, full: int, guess: int) -> int:
    """Least x in (empty, full] with holds(x), for holds false up to some
    point and true from there on, holds(full) being true.  Gallops from
    ``guess`` in doubling steps, then bisects: O(log |answer - guess|)
    calls."""
    x, step = min(max(guess, empty + 1), full), 1
    if holds(x):
        full = x
        while full - step > empty and holds(full - step):
            full, step = full - step, 2 * step
        empty = max(empty, full - step)
    else:
        empty = x
        while empty + step < full and not holds(empty + step):
            empty, step = empty + step, 2 * step
        full = min(full, empty + step)
    while full - empty > 1:
        mid = (empty + full) // 2
        if holds(mid):
            full = mid
        else:
            empty = mid
    return full


def _scan(
    seq: SignSeq, k: int, t: int, mode: str, collect_per_d: bool = False
) -> ScanReport:
    """The least (difference, start) k-term AP with |weight| <= t, or a
    certificate that there is none.  AP mode scans every difference up to
    maxD; block and small-sum mode scan d = 1 only, the k-blocks.

    F holds the -r flags as little-endian w-bit fields, field p being 1
    when position p holds -r, with w = k.bit_length() + 1, so that every
    count c <= k lies below the field's top (guard) bit 2**(w-1).  For
    each difference d the -r count N of every k-term AP is read at once:
    field p of sum_{j<k} F >> (j*d*w) is N for the AP starting at p.
    Binary doubling over the bits of k builds that sum in at most
    2 log2(k) shift-adds, and no field carries because every partial sum
    is at most k.  The AP weighs s*k - (r + s)*N, so |weight| <= t exactly
    when N lies in [c_lo, c_hi], c_lo = ceil((s*k - t)/(r + s)) and
    c_hi = floor((s*k + t)/(r + s)); c_lo > c_hi (as at t = 0 when r + s
    does not divide k) leaves no hit.

    The verdict is read off the sum without unpacking it.  Let ``raised``
    be its first ``starts`` fields (the APs of difference d) with their
    guard bits set, and ``unit`` hold 1 in each of them; then
    (raised - c*unit) & guard flags the fields whose count is at least c,
    for 0 <= c <= k + 1: every raised field is at least 2**(w-1) > k, so no
    borrow crosses a field.  Two such tests bound a range.  A hit is a
    count in [c_lo, c_hi], the lowest flag giving its start and its field
    the hit's own |weight|, which is the least |weight| up to it since
    every earlier AP misses the range.  Otherwise the least |weight| of
    difference d comes from the least radius rho whose window
    [floor(tau) - rho, ceil(tau) + rho] around tau = s*k/(r + s) holds a
    count, galloped from the previous difference's rho and then bisected.
    So a difference costs O(log k) big-int operations on n*w-bit ints, hit
    or not, and no per-start Python object is made.  For k = 1 only d = 1
    is scanned: one-term windows are the same set for every difference.
    """
    _check_window_length(seq, k)
    n = seq.n
    s, m = seq.params.s, seq.params.modulus
    floor_tau, rem = divmod(s * k, m)
    ceil_tau = floor_tau + (rem > 0)
    c_lo, c_hi = -((t - s * k) // m), (s * k + t) // m
    w = k.bit_length() + 1
    flags = _spread(((1 << n) - 1) ^ seq.bits, n, w)  # F
    units = ((1 << n * w) - 1) // ((1 << w) - 1)  # 1 in each of n fields
    scanned, witness, rho = 0, None, 0
    per_d: dict[int, int] = {}
    for d in range(1, (max_difference(n, k) if mode == MODE_AP else 1) + 1):
        starts = n - (k - 1) * d  # APs of difference d
        shift, total, terms = d * w, flags, 1
        for bit in bin(k)[3:]:
            total += total >> (terms * shift)
            terms *= 2
            if bit == "1":
                total = flags + (total >> shift)
                terms += 1
        unit = units >> (n - starts) * w
        guard = unit << (w - 1)
        # fields from ``starts`` on hold APs that run past the end: drop them
        raised = (total & ((1 << starts * w) - 1)) | guard
        at_least = {0: guard, k + 1: 0}  # c: flags of the fields holding >= c

        def holds(lo: int, hi: int) -> bool:
            """Whether some AP count lies in [lo, hi], clipped to [0, k]."""
            lo, hi = max(lo, 0), min(hi, k) + 1
            for c in (lo, hi):
                if c not in at_least:
                    at_least[c] = (raised - c * unit) & guard
            return at_least[lo] != at_least[hi]

        if c_lo <= c_hi and holds(c_lo, c_hi):  # 0 <= c_lo, c_hi <= k as t < k
            hit = at_least[c_lo] ^ at_least[c_hi + 1]
            start = ((hit & -hit).bit_length() - 1) // w
            count = (total >> start * w) & ((1 << w) - 1)
            witness, per_d[d] = (start, d), abs(s * k - m * count)
            scanned += start + 1
            break
        rho = _least(
            lambda x: holds(floor_tau - x, ceil_tau + x),
            0 if rem == 0 else -1,
            max(floor_tau, k - ceil_tau),
            rho,
        )
        per_d[d] = min(  # a count nearest tau lies at an end of the window
            abs(s * k - m * c)
            for c in (floor_tau - rho, ceil_tau + rho)
            if 0 <= c <= k and holds(c, c)
        )
        scanned += starts
    return ScanReport(
        mode=mode,
        k=k,
        found=witness is not None,
        witness=witness,
        min_abs_weight=min(per_d.values()),
        scanned_count=scanned,
        t=t if mode == MODE_SMALLSUM else None,
        per_d_min_abs=per_d if collect_per_d else None,
    )


def block_scan(seq: SignSeq, k: int) -> ScanReport:
    """Find the lowest-start zero-sum k-block, or certify there is none."""
    return _scan(seq, k, 0, MODE_BLOCK)


def ap_scan(seq: SignSeq, k: int, collect_per_d: bool = False) -> ScanReport:
    """Find the least (difference, start) zero-sum k-term AP, or certify none."""
    return _scan(seq, k, 0, MODE_AP, collect_per_d)


def ap_scan_naive(seq: SignSeq, k: int) -> ScanReport:
    """Reference AP scan: sum every window term by term, O(#APs * k).

    Kept deliberately independent of ap_scan as its correctness oracle.
    """
    _check_window_length(seq, k)
    n = seq.n
    values = seq.values()
    min_abs: int | None = None
    scanned = 0
    for d in range(1, max_difference(n, k) + 1):
        for start in range(0, n - (k - 1) * d):
            w = 0
            for j in range(k):
                w += values[start + j * d]
            scanned += 1
            if min_abs is None or abs(w) < min_abs:
                min_abs = abs(w)
            if w == 0:
                return ScanReport(
                    mode=MODE_AP,
                    k=k,
                    found=True,
                    witness=(start, d),
                    min_abs_weight=0,
                    scanned_count=scanned,
                )
    return ScanReport(
        mode=MODE_AP,
        k=k,
        found=False,
        witness=None,
        min_abs_weight=min_abs,
        scanned_count=scanned,
    )


def smallsum_block_scan(seq: SignSeq, k: int, t: int) -> ScanReport:
    """Find the lowest-start k-block with |weight| <= t in a {-1, 1}-sequence."""
    if seq.params.r != 1 or seq.params.s != 1:
        raise ParameterError("small-sum scans are defined for r = s = 1 only")
    if not 0 <= t < k:
        raise ParameterError(f"t must satisfy 0 <= t < k, got t={t} k={k}")
    if t % 2 != k % 2:
        raise ParameterError(f"t and k must have the same parity, got t={t} k={k}")
    return _scan(seq, k, t, MODE_SMALLSUM)


class InterpolationReport(Report, namedtuple(
    "InterpolationReport",
    "ok sign_change_implies_zero adjacent_step_bounded residues_vanish window_count detail",
    defaults=(None,),
)):
    """All three window-weight facts behind the intermediate-value argument."""

    __slots__ = ()


def interpolation_check(seq: SignSeq, k: int) -> InterpolationReport:
    """Verify the interpolation facts on every k-window of the sequence.

    Requires (r + s) | k.  Checks that (a) a strictly negative and a
    strictly positive window force a zero window, (b) adjacent windows
    differ by at most r + s (they differ in exactly two elements), and
    (c) every window weight is divisible by r + s.  The weights come off
    the prefix sums, and each fact is decided exactly over the set of
    distinct weights or of distinct adjacent steps.
    """
    m = seq.params.modulus
    if k % m != 0:
        raise ParameterError(f"(r + s) = {m} must divide k = {k}")
    _check_window_length(seq, k)
    prefix = seq.prefix_weights()
    weights = list(map(sub, islice(prefix, k, None), prefix))
    seen = set(weights)

    sign_ok = not (min(seen) < 0 < max(seen)) or 0 in seen
    steps = set(map(sub, islice(weights, 1, None), weights))
    step_ok = max(map(abs, steps), default=0) <= m
    residue_ok = not any(map(m.__rmod__, seen))

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
