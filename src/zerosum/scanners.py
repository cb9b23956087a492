"""Fast detectors for zero-sum blocks, zero-sum arithmetic subsequences,
and small-sum blocks, plus the interpolation-property checker.

A k-block is a k-term AP of difference 1, so all three scanners run one
bit-parallel kernel (_scan), the block and small-sum scans as its d = 1
pass.  The -r flags become one int of W-bit fields whose top bits are
guards no count reaches, and shift-adds put the -r count of every k-term
AP of one difference in the field of its start: d = 1 by binary doubling,
about 2 log2 k shift-adds, and every d >= 2 off one chain per odd part o
of d, through the class-suffix counts Q_d = Q_2d + (Q_2d >> d*W), whose
k-term counts are Q_d - (Q_d >> k*d*W), in fields of W(o) =
max(bit_length(ceil(n/l)), k.bit_length() + 1) bits, l = max(o, 2) the
chain's least difference: some (log2 k)/2 + 2 shift-adds per
difference.  Range tests on the guard bits then read the verdict (a
count whose |weight| is within the tolerance t, 0 but for small-sum
scans) and the least |weight|, one running minimum over the differences
read.  So a scan costs O(log k) big-int operations of n*W bits per
difference read, up to d = 1 for blocks and d = maxD = floor((n-1)/(k-1))
for APs, and makes no per-start Python object.  Witness order is
deterministic: blocks by lowest start, APs by lowest difference then
lowest start.  A naive rescan is kept alongside as the AP scanner's
correctness oracle; the interpolation checker reads the window weights
off the prefix sums, an engine the scanners do not use, and differences
neighbouring windows only when their weights span more than r + s.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import islice
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


@cache
def _spread_table(w: int) -> tuple[bytes, ...]:
    """Byte b spread to w-bit fields: bit j of b moved to bit j*w, as the
    w little-endian bytes that eight fields fill."""
    spread = [0]
    for j in range(8):  # the bytes below 2**(j+1): bit j clear, then set
        spread += [v | 1 << j * w for v in spread]
    return tuple(v.to_bytes(w, "little") for v in spread)


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


def _fields(bits: int, n: int, w: int) -> tuple[int, int, int]:
    """The n low bits of ``bits`` spread to w-bit fields, an int with 1 in
    each of the n fields and one with each field's top (guard) bit."""
    table = _spread_table(w)
    units = int.from_bytes(table[255] * (n // 8) + table[(1 << n % 8) - 1], "little")
    return _spread(bits, n, w), units, units << (w - 1)


def _scan(seq: SignSeq, k: int, t: int, mode: str) -> ScanReport:
    """The least (difference, start) k-term AP with |weight| <= t, or a
    certificate that there is none.  AP mode scans every difference up to
    maxD; block and small-sum mode scan d = 1 only, the k-blocks.

    Counts sit in little-endian W-bit fields, field p for start p, with
    W > k.bit_length(), so every count c <= k lies below the field's top
    (guard) bit 2**(W-1).  F holds the -r flags, field p being 1 when
    position p holds -r.  d = 1 sums k shifted copies, field p of
    sum_{j<k} F >> (j*W), by binary doubling over the bits of k in at most
    2 log2(k) shift-adds at W = w = k.bit_length() + 1.

    Each d >= 2 comes off the chain of its odd part o.  Q_D holds in field
    p the -r count at p, p + D, p + 2D, ... below n, so Q_D = F once D >=
    n, and Q_D = Q_2D + (Q_2D >> D*W): the even terms from p are Q_2D(p),
    the odd ones Q_2D(p + D).  The k-term AP at (p, D) counts field p of
    Q_D - (Q_D >> k*D*W), with no borrow as Q_D(p) >= Q_D(p + kD).  The
    chain for o starts at the largest o*2**i below n and takes one
    shift-add a step down to its least difference l, o or 2 for o = 1; its
    fields hold up to ceil(n/l), so W(o) = max(bit_length(ceil(n/l)), w).
    Over all odd o <= maxD that is about (log2 k)/2 + 2 shift-adds per
    difference, against 2 log2(k) to double each one.  Chains run with o
    ascending and stop once o passes the least difference with a hit, as
    no unread one is smaller: a d = 1 hit builds no chain, but one at a
    small d >= 2 pays the whole o = 1 chain, about log2(n) shift-adds on
    its widest fields.

    The AP of -r count N weighs s*k - (r + s)*N, so its |weight| is at
    most b exactly when N lies in [ceil((s*k - b)/(r + s)), floor((s*k +
    b)/(r + s))], a range that may be empty (as at b = 0 when r + s does
    not divide k).

    The verdict is read off the counts without unpacking them.  Every
    field holds at most k, those from n - (k-1)*d on the counts of APs
    that run past the end.  Let ``raised`` be the counts with every guard
    bit set and ``units`` hold 1 in each field: raised - c*units keeps a
    field's guard bit exactly when its count is at least c, for 0 <= c <=
    k + 1, and no borrow crosses a field, as every raised field is at
    least 2**(W-1) > k.  Masked to the guard bits of the first n - (k-1)*d
    fields, the APs of difference d, two such tests bound a count range,
    so one monotone question, within(b), flags the APs of |weight| <= b.
    A difference with no flag at b = max(t, least - 1) neither hits nor
    lowers the least so far, and is done.  Otherwise a flag at b = t is a
    hit, the lowest giving its start and its field the hit's own |weight|,
    the least up to it as every earlier AP misses t.  Else the new least
    is the least b with a flag, probed at b = t + (r + s)*x for x = 1, 2,
    4, ... below the old least and then bisected: a step of r + s moves
    each end of the count range by one.  So the least read is the report's
    minimum; the multiples c*units are kept until it moves.  No per-start
    Python object is made.  For k = 1 only d = 1 is scanned: one-term
    windows are the same set for every difference.
    """
    _check_window_length(seq, k)
    n = seq.n
    s, m = seq.params.s, seq.params.modulus
    negs = ((1 << n) - 1) ^ seq.bits
    max_d = max_difference(n, k) if mode == MODE_AP else 1
    least = m * k + 1  # least |weight| read so far

    def read(raised: int, d: int) -> int | None:
        """Read difference d, field p of ``raised`` holding the -r count
        of the AP at (p, d) below its guard bit, which is set; return the
        start of its first hit, or None."""
        nonlocal least
        # fields from n - (k-1)*d on hold APs that run past the end: no
        # guard bit reads them
        guard = guards >> (k - 1) * d * w
        at_least = {0: guard, k + 1: 0}  # c: flags of the fields holding >= c

        def within(b: int) -> int:
            """Guard flags of the APs whose count N has |s*k - (r + s)*N|
            <= b, 0 when there are none."""
            lo, hi = max(-((b - s * k) // m), 0), min((s * k + b) // m, k) + 1
            if lo >= hi:
                return 0
            for c in (lo, hi):
                if c not in at_least:
                    times = kept.get(c)
                    if times is None:
                        times = kept[c] = c * units
                    at_least[c] = (raised - times) & guard
            return at_least[lo] ^ at_least[hi]

        if not within(max(t, least - 1)):  # within t or below the least so far
            return None
        hit = within(t)
        if hit:
            start = ((hit & -hit).bit_length() - 1) // w
            least = abs(s * k - m * ((raised >> start * w) & ((1 << (w - 1)) - 1)))
            return start
        kept.clear()  # the least moves: the old bound's multiples are spent
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
        return None

    w = k.bit_length() + 1
    flags, units, guards = _fields(negs, n, w)
    kept: dict[int, int] = {}  # c: c * units, until the least moves
    total, terms = flags, 1
    for bit in bin(k)[3:]:
        total += total >> (terms * w)
        terms *= 2
        if bit == "1":
            total = flags + (total >> w)
            terms += 1
    total |= guards
    start = read(total, 1)
    del total
    witness = None if start is None else (start, 1)
    top = 0 if witness else max_d  # differences above it need no reading
    for o in range(1, top + 1, 2):
        low = o + (o == 1)  # the least difference of the chain; d = 1 is read
        if low > top:
            break
        width = max((-(-n // low)).bit_length(), k.bit_length() + 1)  # W(o)
        if width != w:  # one width's ints at a time
            counts = flags = units = guards = None
            kept.clear()
            w = width
            flags, units, guards = _fields(negs, n, w)
        counts, d = flags, o << ((n - 1) // o).bit_length() - 1
        while d >= low:
            counts += counts >> d * w  # Q_2d to Q_d
            if d <= top:
                start = read((counts - (counts >> k * d * w)) | guards, d)
                if start is not None:
                    witness, top = (start, d), d - 1
            d //= 2
    last = witness[1] if witness else max_d
    return ScanReport(
        mode=mode,
        k=k,
        found=witness is not None,
        witness=witness,
        min_abs_weight=least,
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
    input, whose windows all weigh the same, takes this path); a wider
    span reads the distinct adjacent steps.
    """
    m = seq.params.modulus
    if k % m != 0:
        raise ParameterError(f"(r + s) = {m} must divide k = {k}")
    _check_window_length(seq, k)
    prefix = seq.prefix_weights()
    weights = list(map(sub, islice(prefix, k, None), prefix))
    seen = set(weights)

    low, high = min(seen), max(seen)
    sign_ok = not (low < 0 < high) or 0 in seen
    steps = () if high - low <= m else set(map(sub, islice(weights, 1, None), weights))
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
