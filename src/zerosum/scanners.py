"""Fast detectors for zero-sum blocks, zero-sum arithmetic subsequences,
and small-sum blocks, plus the interpolation-property checker.

A k-block is a k-term AP of difference 1, so all three scanners run one
bit-parallel kernel, the block and small-sum scans as its d = 1 pass.  Its
producer, _counts, keeps the -r counts of the k-term APs of one difference
in at most B = k.bit_length() bit planes of n bits, bit p of plane b bit b
of the count at start p, and a shift-add on every count at once is a
ripple-carry add over the planes: d = 1 by binary doubling, about 2 log2 k
adds, and every d >= 2 off one chain per odd part o of d, through the
class-suffix counts Q_d = Q_2d + (Q_2d >> d) kept mod 2**B, whose k-term
counts Q_d - (Q_d >> k*d) are exact as 2**B > k: some (log2 k)/2 + 2 adds
per difference.  Its reader, _scan, compares every count of a difference
with a constant at once, most significant plane first, to read the
verdict (a count whose |weight| is within the tolerance t, 0 but for
small-sum scans) and the least |weight|, one running minimum; a hit's
difference goes back to the producer, which then builds no larger one.
So a scan costs O(log k) adds of at most B planes, each some five bitwise
operations and a shift of n-bit ints, per difference read, up to d = 1
for blocks and d = maxD = floor((n-1)/(k-1)) for APs, and makes no
per-start Python object.  Witness order is deterministic: blocks by
lowest start, APs by lowest difference then lowest start.  A naive rescan
is the AP scanner's correctness oracle; the interpolation checker reads
the window weights off the prefix sums, an engine the scanners do not
use, and neighbouring windows' steps only when the weights span more
than r + s.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice, tee
from operator import sub

from .core import (
    MODE_AP, MODE_BLOCK, MODE_SMALLSUM, ParameterError, Report, SignSeq, require_tolerance,
)


class ScanReport(Report, namedtuple(
    "ScanReport", "mode k found witness min_abs_weight scanned_count t", defaults=(None,)
)):
    """Outcome of one scan: a witness or a certificate of absence.

    ``witness`` is (start, difference), difference 1 for blocks.
    ``min_abs_weight`` and ``scanned_count`` cover the windows up to and
    including the witness, or all windows when there is none.  With a
    witness the minimum is the witness's own |weight| (0 for APs), as
    every earlier window misses the target.
    """

    __slots__ = ()
    _meta = {
        "witness": {"pair": ("start", "difference")},
        "t": {"optional": True},
    }


def _check_window_length(seq: SignSeq, k: int) -> None:
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > seq.n:
        raise ParameterError(f"k = {k} exceeds sequence length n = {seq.n}")


def max_difference(n: int, k: int) -> int:
    """Largest common difference d with a k-term AP inside [0, n)."""
    return (n - 1) // (k - 1) if k > 1 else 1


def _double(planes: list[int], shift: int, cap: int) -> list[int]:
    """The planes of planes + (planes >> shift) mod 2**cap: a ripple-carry
    add that adds a plane only for a nonzero carry out of the top one."""
    out, carry = [], 0
    for x in planes:
        t = x ^ x >> shift
        out.append(t ^ carry)
        carry = (x ^ carry) & t ^ x  # the majority of x, x >> shift and carry
    if carry and len(out) < cap:
        out.append(carry)
    return out


def _minus(planes: list[int], shift: int, live: int) -> list[int]:
    """The planes of planes - (planes >> shift) at the starts in ``live``,
    exact where it lies in [0, 2**len(planes)): the complement added, carry
    1 in and carry out dropped, trailing zero planes cut."""
    out, carry = [], live
    for x in planes:
        y = x >> shift ^ live
        x &= live
        t = x ^ y
        out.append(t ^ carry)
        carry = (x ^ carry) & t ^ x
    while out and not out[-1]:
        out.pop()
    return out


def _compare(planes: list[int], live: int, c: int, or_more: bool) -> int:
    """The starts in ``live`` whose count equals c, or with ``or_more`` is
    at least c: one walk down the planes, most significant first, ``eq``
    the starts whose bits so far equal c's and ``gt`` those above it, that
    stops once ``eq`` is empty or, for ``or_more``, at c's lowest set bit."""
    eq, gt = 0 if c >> len(planes) else live, 0
    last = (c & -c).bit_length() - 1 if or_more and c else 0  # the last plane walked
    for i in range(len(planes) - 1, last - 1, -1):
        if not eq:
            break
        x = eq & planes[i]
        if c >> i & 1:
            eq = x
        else:
            gt |= x if or_more else 0
            eq ^= x
    return gt | eq


def _counts(negs: int, n: int, k: int, end: int):
    """Yield (d, planes, live) for each difference d < ``end`` in scan
    order: d = 1, then odd parts o ascending, each chain's differences
    descending.  Bit p of ``planes[b]`` is bit b of the -r count of the AP
    at (p, d), for the starts p < L = n - (k-1)*d of ``live`` = 2**L - 1,
    and 0 from L up; a difference sent in place of next() lowers ``end``.

    The counts are at most B = k.bit_length() bit planes, and a shift-add
    on all of them is a ripple-carry add over the planes.  The -r flags
    ``negs`` are the one-plane counts of the one-term APs; d = 1 sums k
    shifted copies, sum_{j<k} negs >> j, by binary doubling over the bits
    of k in at most 2 log2(k) adds.  Each d >= 2 comes off the chain of
    its odd part o.  Q_D counts at p the -r letters at p, p + D, p + 2D,
    ... below n, so Q_D = negs once D >= n, and Q_D = Q_2D + (Q_2D >> D):
    the even terms from p are Q_2D(p), the odd ones Q_2D(p + D).  The
    k-term AP at (p, D) counts Q_D(p) - Q_D(p + kD), in [0, k].  Q_D
    reaches ceil(n/D), so the chain keeps it mod 2**B, its planes growing
    one at a time up to B; the k-term counts, mod 2**B too, are exact as
    2**B > k.  The chain for o starts at the largest o*2**i below n and
    takes one add a step down to its least difference, o or 2 for o = 1:
    about (log2 k)/2 + 2 adds per difference over all odd o <= maxD.
    Chains stop once their least difference reaches ``end``, as no unread
    one is smaller: a d = 1 hit builds no chain, but one at a small d >= 2
    pays the whole o = 1 chain, about log2(n) adds.
    """
    cap = k.bit_length()
    live = (1 << n - k + 1) - 1
    counts, terms = [negs], 1
    for bit in bin(k)[3:]:
        counts = _double(counts, terms, cap)
        terms *= 2
        if bit == "1":  # negs + (counts >> 1): a carry from negs ripples up
            counts, carry = [x >> 1 for x in counts], negs
            for i, x in enumerate(counts):
                counts[i], carry = x ^ carry, x & carry
            if carry:
                counts.append(carry)
            terms += 1
    end = (yield 1, [plane & live for plane in counts], live) or end
    for o in range(1, end, 2):
        low = o + (o == 1)  # the least difference of the chain; d = 1 is done
        if low >= end:
            break
        counts, d = [negs], o << ((n - 1) // o).bit_length() - 1
        while low <= d and low < end:  # a sent difference can end the chain early
            counts = _double(counts, d, cap)  # Q_2d to Q_d
            if d < end:
                live = (1 << n - (k - 1) * d) - 1
                end = (yield d, _minus(counts, k * d, live), live) or end
            d //= 2


def _scan(seq: SignSeq, k: int, t: int, mode: str) -> ScanReport:
    """The least (difference, start) k-term AP with |weight| <= t, or a
    certificate that there is none.  AP mode scans every difference up to
    maxD; block and small-sum mode scan d = 1 only, the k-blocks.  Each
    difference's counts come from ``_counts`` in its scan order, and a
    hit's difference is sent back to it, as no larger one needs reading.

    The AP of -r count N weighs s*k - (r + s)*N, so its |weight| is at
    most b exactly when N lies in [ceil((s*k - b)/(r + s)), floor((s*k +
    b)/(r + s))], a range that may be empty (as at b = 0 when r + s does
    not divide k).

    The verdict is read off the count planes by ``_compare``, with no
    count unpacked: one monotone question, within(b), flags the APs of
    |weight| <= b as ge(lo) ^ ge(hi), ge(c) the live starts whose count is
    at least c, each kept for the difference, or by one equality walk when
    the range holds one count.  A difference with no flag at b = max(t,
    least - 1) neither hits nor lowers the least so far, and is done.
    Otherwise a flag at b = t is a hit, the lowest giving its start and
    that start's bits of the planes the hit's own |weight|, the least up
    to it as every earlier AP misses t.  Else the new least is the least b
    with a flag, probed at b = t + (r + s)*x for x = 1, 2, 4, ... below
    the old least and then bisected: a step of r + s moves each end of the
    count range by one.  So the least read is the report's minimum.  No
    per-start Python object is made.  For k = 1 only d = 1 is scanned:
    one-term windows are the same set for every difference.
    """
    _check_window_length(seq, k)
    n = seq.n
    s, m = seq.params.s, seq.params.modulus
    max_d = max_difference(n, k) if mode == MODE_AP else 1
    least = m * k + 1  # least |weight| read so far
    witness = sent = None
    produced = _counts(((1 << n) - 1) ^ seq.bits, n, k, max_d + 1)
    # send(None) is next(); after a hit it sends the hit's difference
    for d, planes, live in iter(lambda: produced.send(sent), None):
        at_least = {0: live, k + 1: 0}  # ge(c): the live starts whose count is >= c

        def within(b: int) -> int:
            """The live starts of the APs whose count N has |s*k - (r + s)*N|
            <= b, 0 when there are none."""
            lo, hi = max(-((b - s * k) // m), 0), min((s * k + b) // m, k) + 1
            if lo >= hi:
                return 0
            if hi == lo + 1:  # one count: no ge, an equality walk
                return _compare(planes, live, lo, False)
            for c in (lo, hi):
                if c not in at_least:
                    at_least[c] = _compare(planes, live, c, True)
            return at_least[lo] ^ at_least[hi]

        if within(max(t, least - 1)):  # within t or below the least so far
            hit = within(t)
            if hit:
                start = (hit & -hit).bit_length() - 1
                count = sum((plane >> start & 1) << i for i, plane in enumerate(planes))
                least = abs(s * k - m * count)
                witness, sent = (start, d), d
            else:
                empty, full, b = t, least - 1, t + m  # within(empty) is 0, within(full) is not
                while b < full and not within(b):
                    empty, b = b, 2 * b - t
                full = min(full, b)
                while full - empty > 1:
                    mid = (empty + full) // 2
                    if within(mid):
                        full = mid
                    else:
                        empty = mid
                least = full
    last = witness[1] if witness else max_d
    return ScanReport(
        mode=mode, k=k, found=witness is not None, witness=witness, min_abs_weight=least,
        # every AP of a difference below ``last``, then the hit's first ones
        scanned_count=(last - 1) * n - (k - 1) * (last - 1) * last // 2
        + (witness[0] + 1 if witness else n - (k - 1) * last),
        t=t if mode == MODE_SMALLSUM else None,
    )


def block_scan(seq: SignSeq, k: int) -> ScanReport:
    """Find the lowest-start zero-sum k-block, or certify there is none."""
    return _scan(seq, k, 0, MODE_BLOCK)


def ap_scan(seq: SignSeq, k: int) -> ScanReport:
    """Find the least (difference, start) zero-sum k-term AP, or certify none."""
    return _scan(seq, k, 0, MODE_AP)


def ap_scan_naive(seq: SignSeq, k: int) -> ScanReport:
    """Reference AP scan: sum every AP's k terms, one strided slice each,
    O(#APs * k).

    Kept deliberately independent of ap_scan as its correctness oracle.
    """
    _check_window_length(seq, k)
    n = seq.n
    values = seq.values()
    min_abs = witness = None
    scanned = 0
    for d in range(1, max_difference(n, k) + 1):
        for start in range(0, n - (k - 1) * d):
            w = abs(sum(values[start:start + (k - 1) * d + 1:d]))
            scanned += 1
            if min_abs is None or w < min_abs:
                min_abs = w
            if w == 0:
                witness = (start, d)
                break
        if witness is not None:
            break
    return ScanReport(
        mode=MODE_AP,
        k=k,
        found=witness is not None,
        witness=witness,
        min_abs_weight=min_abs,
        scanned_count=scanned,
    )


def smallsum_block_scan(seq: SignSeq, k: int, t: int) -> ScanReport:
    """Find the lowest-start k-block with |weight| <= t in a {-1, 1}-sequence."""
    if seq.params.r != 1 or seq.params.s != 1:
        raise ParameterError("small-sum scans are defined for r = s = 1 only")
    require_tolerance(t, k)
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
    distinct weights.  Weights that span at most r + s settle (b) at
    once, as no step between them can exceed their span (every periodic
    input, whose windows all weigh the same, takes this path); only a
    wider span streams the weights again, each beside the next, to read
    the distinct adjacent steps.  No list of the weights is kept.
    """
    m = seq.params.modulus
    if k % m != 0:
        raise ParameterError(f"(r + s) = {m} must divide k = {k}")
    _check_window_length(seq, k)
    prefix = seq.prefix_weights()
    seen = set(map(sub, islice(prefix, k, None), prefix))

    low, high = min(seen), max(seen)
    sign_ok = not (low < 0 < high) or 0 in seen
    steps = ()
    if high - low > m:
        weights, later = tee(map(sub, islice(prefix, k, None), prefix))
        next(later)
        steps = set(map(sub, later, weights))
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
        window_count=len(prefix) - k,
        detail=detail,
    )
