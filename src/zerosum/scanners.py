"""Fast detectors for zero-sum blocks, zero-sum arithmetic subsequences,
and small-sum blocks, plus the interpolation-property checker.

Block scans read window weights as differences of the cached prefix
sums by one window scan (_window_scan): it reads the |weights| in runs of
growing length, keeps each run's minimum and stops in the first run that
holds a window within the tolerance, so a scan costs O(n), and O(h) up to
a hit at start h; the zero-sum scan is the small-sum scan at t = 0.
The AP scan counts bit-parallel instead: the -r flags become one int of
w-bit fields, field p for position p, with w the narrowest of 8, 16 and
32 bits such that k < 2**w.  For each common difference d, binary doubling
over the bits of k (at most 2 log2 k shift-adds of n*w-bit ints) gives
the -r count of every k-term AP of difference d at once, in the field of
its start; no field carries, each partial sum being at most k < 2**w.
One ``set`` over those counts gives the least |weight| and whether a
zero-sum count occurs.  So an AP scan costs O(log k) big-int operations
and one O(n) set per difference d <= maxD = floor((n-1)/(k-1)); a
difference costs that whether or not it holds a hit.  Witness order is
deterministic: blocks by lowest start, APs by lowest difference then
lowest start.  A naive rescan is kept alongside the optimized AP scanner
as its correctness oracle.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import indexOf, sub

from .core import ParameterError, SignSeq

MODE_BLOCK = "block"
MODE_AP = "ap"
MODE_SMALLSUM = "smallsum"

_RUN = 4096  # most windows a scan holds at once
# AP count fields: (width in bits, str codec giving one field per char,
# array typecode of that width)
_FIELDS = ((8, "latin-1", "B"), (16, "utf-16-le", "H"), (32, "utf-32-le", "I"))
_NEGATIVE_FLAG = str.maketrans("01", "\x01\x00")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one scan: a witness or a certificate of absence.

    ``witness`` is (start, difference), difference 1 for blocks.
    ``min_abs_weight`` and ``scanned_count`` cover the windows up to and
    including the witness, or all windows when there is none; the scan may
    read somewhat past the witness, and the minimum up to it stays exact
    because every earlier window misses the target.
    """

    mode: str
    k: int
    found: bool
    witness: tuple[int, int] | None
    min_abs_weight: int
    scanned_count: int
    t: int | None = None
    per_d_min_abs: dict[int, int] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "k": self.k,
            "found": self.found,
            "witness": (
                None
                if self.witness is None
                else {"start": self.witness[0], "difference": self.witness[1]}
            ),
            "minAbsWeight": self.min_abs_weight,
            "scannedCount": self.scanned_count,
        }
        if self.t is not None:
            out["t"] = self.t
        if self.per_d_min_abs is not None:
            out["perDifferenceMinAbs"] = {
                str(d): v for d, v in sorted(self.per_d_min_abs.items())
            }
        return out


def _check_window_length(seq: SignSeq, k: int) -> None:
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k > seq.n:
        raise ParameterError(f"k = {k} exceeds sequence length n = {seq.n}")


def _window_weights(prefix: Sequence[int], k: int) -> Iterator[int]:
    """The k-window weights of a prefix-sum sequence, lowest start first,
    streamed so that no full-length list is built."""
    return map(sub, islice(prefix, k, None), prefix)


def _window_scan(prefix: Sequence[int], k: int, t: int) -> tuple[int | None, int]:
    """The first k-window with |weight| <= t (None when there is none) and
    the least |weight| over the windows up to it, or over all of them.

    The |weights| are read in runs that grow by a quarter, from 16 up to
    _RUN windows, so a hit at start h costs about 1.25 h window reads (not
    a pass over every window) and no full-length list is held.  Every
    window before the first hit weighs more than t in absolute value, so
    the least |weight| up to a hit is the hit's own."""
    weights = map(abs, _window_weights(prefix, k))
    minima, start, size = [], 0, 16
    while run := list(islice(weights, size)):
        minima.append(min(run))
        if minima[-1] <= t:
            hit = indexOf(map(t.__ge__, run), True)
            return start + hit, run[hit]
        start, size = start + size, min(size + size // 4, _RUN)
    return None, min(minima)


def _tolerance_scan(seq: SignSeq, k: int, t: int, mode: str) -> ScanReport:
    """Lowest-start k-block with |weight| <= t; block mode is t = 0."""
    _check_window_length(seq, k)
    hit, min_abs = _window_scan(seq.prefix_weights(), k, t)
    return ScanReport(
        mode=mode,
        k=k,
        found=hit is not None,
        witness=None if hit is None else (hit, 1),
        min_abs_weight=min_abs,
        scanned_count=seq.n - k + 1 if hit is None else hit + 1,
        t=None if mode == MODE_BLOCK else t,
    )


def block_scan(seq: SignSeq, k: int) -> ScanReport:
    """Find the lowest-start zero-sum k-block, or certify there is none."""
    return _tolerance_scan(seq, k, 0, MODE_BLOCK)


def max_difference(n: int, k: int) -> int:
    """Largest common difference d with a k-term AP inside [0, n)."""
    return (n - 1) // (k - 1) if k > 1 else 1


def ap_scan(seq: SignSeq, k: int, collect_per_d: bool = False) -> ScanReport:
    """Find the least (difference, start) zero-sum k-term AP, or certify none.

    F holds the -r flags as little-endian w-bit fields, field p being 1
    when position p holds -r, with w the narrowest of 8, 16 and 32 bits
    such that k < 2**w.  For each difference d the -r count N of every
    k-term AP is read at once: field p of sum_{j<k} F >> (j*d*w) is N for
    the AP starting at p.  Binary doubling over the bits of k builds that
    sum in at most 2 log2(k) shift-adds, and no field carries because
    every partial sum is at most k < 2**w.  The AP weighs s*k - (r + s)*N,
    so it is zero-sum exactly when N = s*k/(r + s); the first d whose
    counts hold that value ends the scan at the lowest start holding it.
    For k = 1 only d = 1 is scanned: one-term windows are the same set for
    every difference (and never zero-sum, the letters being nonzero).
    """
    _check_window_length(seq, k)
    n = seq.n
    s, m = seq.params.s, seq.params.modulus
    target = s * k // m if s * k % m == 0 else None
    w, encoding, typecode = next(f for f in _FIELDS if k < 1 << f[0])
    flag_bytes = seq.bitstring().translate(_NEGATIVE_FLAG).encode(encoding)
    flags = int.from_bytes(flag_bytes, "little")  # F
    scanned, witness = 0, None
    per_d: dict[int, int] = {}
    for d in range(1, max_difference(n, k) + 1):
        starts = n - (k - 1) * d  # APs of difference d
        shift, total, terms = d * w, flags, 1
        for bit in bin(k)[3:]:
            total += total >> (terms * shift)
            terms *= 2
            if bit == "1":
                total = flags + (total >> shift)
                terms += 1
        fields = total.to_bytes(n * w // 8, "little")[: starts * w // 8]
        counts = array(typecode, fields)  # counts[p]: N of the AP starting at p
        if sys.byteorder == "big":
            counts.byteswap()
        distinct = set(counts)
        if target in distinct:
            hit = counts.index(target)
            witness, per_d[d], scanned = (hit, d), 0, scanned + hit + 1
            break
        per_d[d] = min(abs(s * k - m * c) for c in distinct)
        scanned += starts
    return ScanReport(
        mode=MODE_AP,
        k=k,
        found=witness is not None,
        witness=witness,
        min_abs_weight=min(per_d.values()),
        scanned_count=scanned,
        per_d_min_abs=per_d if collect_per_d else None,
    )


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
    return _tolerance_scan(seq, k, t, MODE_SMALLSUM)


@dataclass(frozen=True)
class InterpolationReport:
    """All three window-weight facts behind the intermediate-value argument."""

    ok: bool
    sign_change_implies_zero: bool
    adjacent_step_bounded: bool
    residues_vanish: bool
    window_count: int
    detail: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "signChangeImpliesZero": self.sign_change_implies_zero,
            "adjacentStepBounded": self.adjacent_step_bounded,
            "residuesVanish": self.residues_vanish,
            "windowCount": self.window_count,
            "detail": self.detail,
        }


def interpolation_check(seq: SignSeq, k: int) -> InterpolationReport:
    """Verify the interpolation facts on every k-window of the sequence.

    Requires (r + s) | k.  Checks that (a) a strictly negative and a
    strictly positive window force a zero window, (b) adjacent windows
    differ by at most r + s (they differ in exactly two elements), and
    (c) every window weight is divisible by r + s.
    """
    m = seq.params.modulus
    if k % m != 0:
        raise ParameterError(f"(r + s) = {m} must divide k = {k}")
    _check_window_length(seq, k)
    weights = list(_window_weights(seq.prefix_weights(), k))

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
