"""Exhaustive ground truth: exact thresholds for small parameters and
full-enumeration checks of the structural propositions.

Both modes run one DP over (last k-1 letters, negatives so far) past the
cap until no prefix lives, its work bounded up front by (r, s, k, q) alone
(see _block_dp_estimate): an AP avoider is a block avoider (a k-block is
the d = 1 AP), so the DP bounds where avoiders of either kind can lie.
Below length k - 1 no window closes and every prefix lives, so the DP
starts there, and it stores states from length k on.  Avoiders come from
one walk back through the DP's stored states (see _avoiders), which starts
from a state's k - 1 tail letters, adds one letter per step and stops at
length k, where the state's count of negatives fixes the first letter; AP
mode also tests, against its own position bitmask, each k-term AP of
difference d >= 2 as soon as the visited state fixes its first term (a
zero-sum AP holds c* = sk/(r+s) negatives), and drops a state holding one
with its prefix count, so the walk's avoiders plus drops equal the DP's
count.  Each walk is bounded, before it starts, by that count (see
exact_threshold); no work grows with the search cap.

At r = s = 1 negating every letter maps avoiders, kills, drops and
zero-sum APs to themselves, so the DP keeps one state of each mirror pair,
the one whose newest letter is +1 (see _block_dp for why that is exact),
and the walk reads every state through the one kept for its pair and
emits each avoider with its negation.

The pow2 check enumerates the 2^(2^v) sign functions on Z/2^v bit-sliced,
2^16 to a word (one big int per position, one bit per function), so its
memory does not grow with v: a ripple-carry counter sums a progression's
words, and one AND over the count's digits marks every function it hits.

The residue-lemma check sums the product residue function over each class
mod d, for every d | k: the k values fold into the d class sums one prime
of k at a time, depth first, so no class is summed from scratch.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .core import (
    MODE_AP, MODE_BLOCK, BudgetExceededError, ParameterError, Params, Report, SignSeq,
    require_even_k, require_nonnegative_q,
)
from .constructions import build_ap_mod_k_product, product_factors
from .good_shift import prime_factors

DEFAULT_BUDGET = 10**9
BUDGET_ENV_VAR = "ZEROSUM_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Work-unit ceiling: explicit value, else env override, else default;
    a negative ceiling from either source is rejected.  A unit is one
    block-DP step (threshold targets and two-k), one avoider-walk pop, one
    pow2 function or one residue-lemma progression."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = DEFAULT_BUDGET if env is None else int(env)
        except ValueError as exc:
            raise ParameterError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from exc
    if budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    return budget


def _require_budget(estimate: int | None, budget: int | None, log2: int | None = None) -> None:
    """Refuse work estimated above the ceiling (see resolve_budget).  An
    estimate of exactly 2^log2 may come as ``log2`` alone; it is compared by
    bit length and never built."""
    ceiling = resolve_budget(budget)
    if (estimate > ceiling) if log2 is None else (log2 >= ceiling.bit_length()):
        raise BudgetExceededError(estimate, ceiling, log2)


class ThresholdResult(Report, namedtuple(
    "ThresholdResult",
    "params mode q max_avoiding_n derived_threshold witnesses search_cap exhaustive capped"
    " avoiding_count_at_max notes",
    defaults=((),),
)):
    """Outcome of an exhaustive threshold search.

    derived_threshold = max(k, max_avoiding_n + 1) over admissible lengths,
    or k when nothing avoids; with ``capped`` false this is the exact
    threshold under the convention that only lengths admitting the weight
    constraint count (``exhaustive`` is always true).  ``capped`` marks a
    lower bound and means only that an admissible block avoider lies beyond
    the cap (in AP mode it leaves AP avoiders there open); a note names its
    length.  The block DP runs on past the cap until no prefix lives, so a
    result that is not capped is exact even when avoiders reach the cap.
    """

    __slots__ = ()


def admissible_pos_counts(params: Params, q: int, n: int) -> list[int]:
    """Counts b of +s letters at length n with total weight |(r+s)b - rn| <= q."""
    m = params.modulus
    lo = -((q - params.r * n) // m)  # ceil((r*n - q) / m) in pure ints
    hi = (params.r * n + q) // m
    return list(range(max(lo, 0), min(hi, n) + 1))


def estimate_window_evaluations(
    params: Params, mode: str, q: int, search_cap: int
) -> int:
    """Scanner-window evaluations of a full enumeration: every admissible
    sequence up to ``search_cap`` times its k-blocks (k-term APs in AP mode).
    No oracle path gates on it; the benchmark's per-layer
    ``oracle.*.estimate_windows`` metric is its one consumer."""
    k, total = params.k, 0
    for n in range(k, search_cap + 1):
        top = 1 if mode == MODE_BLOCK or k == 1 else (n - 1) // (k - 1)  # differences
        windows = top * n - (k - 1) * top * (top + 1) // 2  # n - (k-1)d over d <= top
        for b in admissible_pos_counts(params, q, n):
            total += math.comb(n, b) * windows
    return total


def _check_tally(n: int, negs: int, candidates: int) -> None:
    if candidates != math.comb(n, negs):
        raise AssertionError(
            f"enumeration accounted for {candidates} of "
            f"{math.comb(n, negs)} candidates at n={n} negs={negs}"
        )


def _zero_negs(params: Params) -> int:
    return params.s * params.k // params.modulus  # c*: -r letters in a zero-sum k-window


def _block_dp_estimate(params: Params, q: int) -> int:
    """Bound on the block DP's transitions (one window check each): 2^n states
    at n < k (an overcount, as the DP starts at n = k - 1), then tails of
    under c* negatives on prefixes weighing -r(k-1) to q + r(k-1), so of
    (q + 2r(k-1)) // (r+s) windows at most; mirrored in s."""
    k, m, c_star = params.k, params.modulus, _zero_negs(params)
    total = 2**k - 1
    for side, tails in ((params.r, range(c_star)), (params.s, range(c_star, k))):
        span = (q + 2 * side * (k - 1)) // m
        total += k * span * (span + 1) * sum(math.comb(k - 1, j) for j in tails)
    return 2 * total


def _block_bounds(params: Params, q: int) -> tuple[list[int], list[int]]:
    """Per tail, the most an avoider's prefix may weigh with positive windows
    (the least, negated, with negative ones): q plus the most the next j < k
    letters, closing a window, take back: min(W(last k - j) - (r+s), rj) or 0.
    At r = s = 1 negating a tail flips all its k - 1 bits, t to t ^ mask,
    which reverses the index: the negative bounds are the positive ones
    reversed."""
    k, r, s, m = params.k, params.r, params.s, params.modulus
    w, pos, neg = [0], [0], [0]  # per tail of i letters: its weight, slacks
    for i in range(1, k):  # prepend the oldest letter, +s then -r
        w = [v + s for v in w] + [v - r for v in w]
        top, bot = r * (k - i), s * (k - i)  # max(p, min(top, v - m)) without builtin calls
        pos = [p if p >= top or p >= v - m else top if top < v - m else v - m
               for p, v in zip(pos + pos, w)]
        if r != s:
            neg = [p if p >= bot or p >= -v - m else bot if bot < -v - m else -v - m
                   for p, v in zip(neg + neg, w)]
    hi = [q + p for p in pos]
    return hi, hi[::-1] if r == s else [q + p for p in neg]


def _block_dp(
    params: Params, q: int, through: int, probe: bool = True
) -> tuple[list[int], list[dict[int, int] | None], int | None]:
    """Count avoiding prefixes per state ``negs << (k-1) | tail`` (the last
    k-1 letters, bit 0 the newest, a set bit a -r letter).  A step kills a
    prefix whose newest k-window holds c* negatives, and drops one that no
    avoider extends (see _block_bounds).  With ``probe`` off it runs through
    ``through``; with it on, until no prefix lives (short of ``through`` too,
    as every later tally is vacuous) or a later admissible length has an
    avoider.  Returns the admissible avoider count per length run, up to
    ``through``, the states (key to prefix count) per length from k on
    (None below), and that later length or None.

    Below length k - 1 no window closes, so every prefix lives, once: those
    lengths take their counts from the binomials.  The DP starts at n = k - 1,
    where the tail is the whole prefix, with every tail at count 1, and from
    there every step closes a window.  It stores no layer below k: the walk
    stops at length k, where a state fixes its whole prefix.

    At r = s = 1 it keeps one state per mirror pair.  Negating every letter
    maps a length-n prefix in state (negs, tail) to one in (n - negs,
    tail ^ tail_mask): a k-window's negatives go from j to k - j, so it is
    zero-sum (j = c* = k/2) exactly when its mirror is, and _block_bounds
    gives the mirror's bound on negative windows as the tail's bound on
    positive ones (hi[t] == lo[t ^ tail_mask]).  So both states of a pair
    hold the same prefix count, and they differ in bit 0.  Only the state
    whose newest letter is +1 (bit 0 clear) is kept: its +1 successor is
    kept as it is, its -1 successor is stored as that successor's mirror,
    and the two stand for the successors of the dropped mirror too.  The
    tallies add each per-negs list to its reverse, so every length still
    accounts for C(n, negs)."""
    k, m, s, (hi, lo) = params.k, params.modulus, params.s, _block_bounds(params, q)
    c_star, shift, tail_mask = _zero_negs(params), k - 1, (1 << (k - 1)) - 1
    mirrored = params.r == params.s  # gcd 1: r = s = 1
    counts = [sum(math.comb(n, b) for b in admissible_pos_counts(params, q, n))
              for n in range(min(shift, through + 1))]
    layers: list[dict[int, int] | None] = [None] * len(counts)
    states = {tail.bit_count() << shift | tail: 1 for tail in range(0, 1 << shift, 1 + mirrored)}
    n, dead = shift, [0] * k  # dead[negs]: length-n prefixes killed or dropped
    while True:
        alive = [0] * (n + 1)
        for key, count in states.items():
            alive[key >> shift] += count
        full_alive, full_dead = alive, dead
        if mirrored:  # each kept state and kill stands for its mirror too
            full_alive = [a + b for a, b in zip(alive, reversed(alive))]
            full_dead = [a + b for a, b in zip(dead, reversed(dead))]
        avoiders = 0
        for b in admissible_pos_counts(params, q, n):
            _check_tally(n, n - b, full_alive[n - b] + full_dead[n - b])
            avoiders += full_alive[n - b]
        if n <= through:
            counts.append(avoiders)
            layers.append(states if n >= k else None)
        elif avoiders and n >= k:
            return counts, layers, n
        if not (states if probe else n < through):
            return counts, layers, None
        dead = [a + b for a, b in zip(dead + [0], [0] + dead)]
        nxt: dict[int, int] = {}
        get, grown = nxt.get, s * (n + 1)
        # The -r successor's key is (plus ^ invert) + offset, plus the +s one's:
        # plus + (1 << shift | 1), or at r = s = 1 its mirror's key,
        # (n - negs) << shift | (older | 1) ^ tail_mask = (n + 1 << shift) - 2 - plus
        # (older | 1 lies within tail_mask, and plus ^ -1 = -1 - plus).
        if mirrored:
            invert, offset = -1, (n + 1 << shift) - 1
        else:
            invert, offset = 0, 1 << shift | 1
        for key, count in states.items():
            negs, tail = key >> shift, key & tail_mask
            ones, older = tail.bit_count(), tail << 1 & tail_mask
            plus, w = older | negs << shift, grown - m * negs  # after +s: key, weight
            if ones == c_star or (w > hi[older] if ones < c_star else -w > lo[older]):
                dead[negs] += count
            else:
                nxt[plus] = get(plus, 0) + count
            ones, w, older = ones + 1, w - m, older | 1  # after -r instead
            if ones == c_star or (w > hi[older] if ones < c_star else -w > lo[older]):
                dead[negs + 1] += count
            else:
                new = (plus ^ invert) + offset
                nxt[new] = get(new, 0) + count
        states, n = nxt, n + 1


def _ap_starts(n: int, k: int) -> list[list[int]]:
    """Position bitmasks of the k-term APs in [0, n) with difference d >= 2,
    listed by first term (the block DP already kills every d = 1 window)."""
    starts: list[list[int]] = [[] for _ in range(n)]
    for d in range(2, (n - 1) // (k - 1) + 1):
        base = sum(1 << j * d for j in range(k))
        for start in range(n - (k - 1) * d):
            starts[start].append(base << start)
    return starts


def _avoiders(
    params: Params, q: int, layers: list[dict[int, int] | None], n: int,
    starts: list[list[int]] | None = None,
) -> list[SignSeq]:
    """Every admissible avoider of length n, recovered by walking back from
    the layer-n states kept by _block_dp, one letter per step, down to
    length k, where the first letter is -r exactly when the prefix holds a
    negative more than its tail; every state it visits has a live prefix.
    ``mask`` holds the letters fixed so far: the root's tail, then at each
    step the letter that enters the predecessor's tail, then the first.
    With ``starts`` (see _ap_starts), visiting a state tests the APs whose
    first term is its oldest tail letter (at length k also those from 0),
    the first state to fix all their terms, and a hit drops the state with
    its prefix count.  Avoiders plus dropped counts must equal the DP's
    avoider count at n.

    At r = s = 1 the walk starts from the kept states only, reads each
    state it visits through the one kept for its mirror pair, and emits
    each avoider with its negation: negating every letter maps avoiders,
    kills and zero-sum APs (c* = k/2 negatives) to themselves, so a drop
    also stands for the negated prefixes and counts twice."""
    k, shift, c_star = params.k, params.k - 1, _zero_negs(params)
    tail_mask, pair = (1 << shift) - 1, 2 if params.r == params.s else 1
    starts = starts or [[]] * n  # block mode tests no AP of difference d >= 2

    def kept(key: int, length: int) -> int:  # the stored state of key's mirror pair
        if pair == 1 or not key & 1:
            return key
        return (length - (key >> shift)) << shift | (key & tail_mask) ^ tail_mask

    negs_ok, low = {n - b for b in admissible_pos_counts(params, q, n)}, n - shift
    stack = [  # the root's tail, newest letter (bit 0) first, onto positions n - 1 .. n - k + 1
        (key, n, int(f"{key & tail_mask:0{shift}b}"[::-1], 2) << low)
        for key in layers[n] if key >> shift in negs_ok]
    expected, dropped = pair * sum(layers[n][key] for key, _, _ in stack), 0
    out: list[SignSeq] = []
    while stack:
        key, length, mask = stack.pop()
        aps = starts[length - shift]  # empty from n - 2k + 2 on
        if length == k:
            mask |= (key >> shift) - (key & tail_mask).bit_count()
            aps = starts[0] + aps
        if aps and any((mask & ap).bit_count() == c_star for ap in aps):
            dropped += pair * layers[length][kept(key, length)]
            continue
        if length == k:
            out.append(SignSeq(params, n, ((1 << n) - 1) ^ mask))
            if pair == 2:
                out.append(SignSeq(params, n, mask))
            continue
        negs, tail, x = key >> shift, key & tail_mask, key & 1
        layer, low = layers[length - 1], length - k
        for y in (0, 1):
            prev_tail = tail >> 1 | y << (shift - 1)
            if prev_tail.bit_count() + x == c_star:
                continue  # that transition was killed
            prev = (negs - x) << shift | prev_tail
            if kept(prev, length - 1) in layer:
                stack.append((prev, length - 1, mask | y << low))
    if len(out) + dropped != expected:
        raise AssertionError(
            f"walk accounted for {len(out)} avoiders and {dropped} dropped "
            f"prefixes of the DP's {expected} avoiders at n={n}"
        )
    return out


def exact_threshold(
    params: Params,
    mode: str,
    q: int = 0,
    search_cap: int = 0,
    budget: int | None = None,
    shards: int = 1,
) -> ThresholdResult:
    """Exhaustively derive the block or AP threshold up to ``search_cap``.

    Every sequence of each admissible length (one where a sequence with
    |total| <= q exists) is decided, in-process.  The derived threshold is
    max(k, last avoiding length + 1) and ``capped`` marks a lower bound (see
    ThresholdResult).  Both modes run the block DP past the cap: every AP
    avoider is a block avoider (a k-block is a k-term AP with d = 1), so a
    block avoider beyond the cap leaves AP avoiders there open.  Both walk
    back from the DP's states (see _avoiders) over the lengths with a block
    avoider, top down, to the first with an avoider; AP mode also tests the
    APs of difference d >= 2 as it places each letter.  The DP's own bound
    (see _block_dp_estimate) must fit the budget, and so must the running
    total of (2n + 1) times the DP's avoider count at each length n before
    it is walked: every state the walk pops leads to at least one of those
    avoiders, and distinct pops at one depth to disjoint sets of them, so a
    walk, which pops one state per length from n down to k, makes at most
    n - k + 1 <= n + 1 pops per avoider and spends n letters on each
    witness.  Neither bound depends on the cap.
    ``shards`` has no effect; it is accepted for callers that pass it.
    """
    params.require_block_divisibility()
    require_nonnegative_q(q)
    if mode not in (MODE_BLOCK, MODE_AP):
        raise ParameterError(f"mode must be 'block' or 'ap', got {mode!r}")
    ceiling = resolve_budget(budget)
    _require_budget(_block_dp_estimate(params, q), ceiling)

    k = params.k
    counts, layers, beyond = _block_dp(params, q, search_cap)
    max_avoiding, witnesses, walk = None, [], 0
    for n in reversed([n for n in range(k, len(counts)) if counts[n]]):  # block avoiders, top down
        walk += (2 * n + 1) * counts[n]  # at most n + 1 pops and n letters per avoider
        _require_budget(walk, ceiling)
        witnesses = _avoiders(params, q, layers, n, _ap_starts(n, k) if mode == MODE_AP else None)
        if witnesses:
            max_avoiding = n
            break
    # n = k admits b = rk/(r+s) (weight 0), so some length is admissible iff the cap reaches k.
    notes = [] if search_cap >= k else ["no admissible length within the search cap"]
    derived = k if max_avoiding is None else max_avoiding + 1  # every walked n is >= k
    lower = "; the derived threshold is only a lower bound"
    if beyond is not None and mode == MODE_BLOCK:
        notes.append(f"an admissible avoider exists at n={beyond}, beyond the search cap" + lower)
    elif beyond is not None:
        notes.append(
            f"an admissible block avoider exists at n={beyond}, beyond the search "
            f"cap, so AP avoiders there are not ruled out" + lower
        )
    return ThresholdResult(
        params=params,
        mode=mode,
        q=q,
        max_avoiding_n=max_avoiding,
        derived_threshold=derived,
        witnesses=tuple(sorted(witnesses, key=SignSeq.bitstring)),
        search_cap=search_cap,
        exhaustive=True,
        capped=beyond is not None,
        avoiding_count_at_max=len(witnesses),
        notes=tuple(notes),
    )


class TwoKVerdict(Report, namedtuple("TwoKVerdict", "k ok sequences_checked counterexample")):
    """Every zero-sum {-1,1}-sequence of length 2k has a zero-sum k-block."""

    __slots__ = ()


def verify_2k_proposition(k: int, budget: int | None = None) -> TwoKVerdict:
    """Enumerate all C(2k, k) zero-sum sequences of length 2k and confirm
    each contains a zero-sum k-block, by the block DP under its own step
    bound and the shared budget."""
    require_even_k(k)
    params = Params(1, 1, k)
    _require_budget(_block_dp_estimate(params, 0), budget)
    _, layers, _ = _block_dp(params, 0, 2 * k, probe=False)
    witnesses = _avoiders(params, 0, layers, 2 * k)
    counterexample = min(witnesses, key=SignSeq.bitstring, default=None)
    return TwoKVerdict(
        k=k,
        ok=counterexample is None,
        sequences_checked=math.comb(2 * k, k),  # the DP's tally asserts this
        counterexample=counterexample,
    )


class Pow2Verdict(Report, namedtuple("Pow2Verdict", "v ok functions_checked survivors")):
    """Only the two constant sign functions on Z/2^v avoid every zero-sum
    dyadic progression (difference 2^v', full length, for all v' < v)."""

    __slots__ = ()


_SLICE_BITS = 16  # 2^16 functions per word, so memory does not grow with v


def _column(i: int, width: int) -> int:
    """Bit g set when function g has a 1 at position i, over g < 2^width:
    2^i zeros then 2^i ones, doubled up to 2^width bits."""
    col, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
    while period < 1 << width:
        col |= col << period
        period <<= 1
    return col


def _count_is(columns: list[int], target: int, full: int) -> int:
    """The bits of ``full`` at which exactly ``target`` of ``columns`` are
    set: a ripple-carry counter sums them, one big int per binary digit."""
    digits = [0] * max(len(columns), target).bit_length()
    for carry in columns:
        for j, d in enumerate(digits):
            digits[j], carry = d ^ carry, d & carry
            if not carry:
                break
    for j, d in enumerate(digits):
        full &= d if target >> j & 1 else ~d
    return full


def verify_pow2_rigidity(v: int, budget: int | None = None) -> Pow2Verdict:
    """Enumerate all sign functions on {0, ..., 2^v - 1} and keep those with
    no zero-sum dyadic progression; exactly the two constants must remain.
    The 2^(2^v) functions must fit the budget.

    The progressions checked have common difference 2^v' and 2^(v-v') terms
    for every v' in [0, v - 1]; v' = 0 is the full-length progression, and
    without it non-constant period-2 functions would slip through.

    Functions base .. base + 2^16 - 1 share one word per position, bit g
    for function base + g (see _column); from position 16 on, the word is
    all ones or zero.
    """
    if v < 2:
        raise ParameterError(f"v must be at least 2, got {v}")
    k = 1 << v
    _require_budget(None, budget, log2=k)
    width = min(k, _SLICE_BITS)
    full, low = (1 << (1 << width)) - 1, [_column(i, width) for i in range(width)]
    survivors: list[int] = []
    for base in range(0, 1 << k, 1 << width):
        cols = low + [full if base >> i & 1 else 0 for i in range(width, k)]
        hit = 0
        for vp in range(v):
            step = 1 << vp
            for j in range(step):
                hit |= _count_is(cols[j::step], k // step // 2, full)
        miss = full ^ hit
        while miss:
            survivors.append(base + (miss & -miss).bit_length() - 1)
            miss &= miss - 1
    expected = [0, (1 << k) - 1]
    bitstrings = tuple(format(fn, f"0{k}b")[::-1] for fn in survivors)
    return Pow2Verdict(
        v=v,
        ok=survivors == expected,
        functions_checked=1 << k,
        survivors=bitstrings,
    )


class ResidueLemmaVerdict(Report, namedtuple(
    "ResidueLemmaVerdict",
    "k factors ok plus_count minus_count progressions_checked failure",
)):
    """Counts and full-progression nonvanishing for a product residue function."""

    __slots__ = ()
    _meta = {"failure": {"pair": ("difference", "start")}}


def verify_lemma_residue_properties(
    k: int, factors: tuple[int, ...] | list[int], budget: int | None = None
) -> ResidueLemmaVerdict:
    """Build the product residue function and check both of its properties:
    the +1/-1 counts are k/2 + 1 and k/2 - 1, and every full d-spaced
    progression over the residues has nonzero weight, for every d | k.
    Valid factors come first, then k^2 must fit the budget."""
    factors = product_factors(k, factors)
    _require_budget(k * k, budget)
    fn = build_ap_mod_k_product(k, factors)
    plus, minus = fn.count_plus(), fn.count_minus()
    counts_ok = plus == k // 2 + 1 and minus == k // 2 - 1
    # A list of d sums holds the weights of the d full progressions of
    # difference d, one per residue class mod d (start < d and d * (k/d) = k:
    # none wraps).  Class a mod d/p is the union of classes a + j(d/p) mod d,
    # j < p, so each list folds into one for every prime p | d.  Dividing out
    # k's primes in non-increasing order reaches each d | k once, from dp with
    # p the least prime of k/d; a list is dropped once its folds are pushed,
    # and each d keeps only the start of its first zero-weight progression.
    primes, zero, stack = prime_factors(k), {}, [(fn.values, k, k)]
    while stack:
        sums, d, top = stack.pop()
        zero[d] = sums.index(0) if 0 in sums else None
        for p in primes:
            if p <= top and d % p == 0:
                e = d // p
                parts = (sums[j * e:(j + 1) * e] for j in range(p))
                stack.append((list(map(sum, zip(*parts))), e, p))
    checked = 0
    failure: tuple[int, int] | None = None
    for d in sorted(zero):
        if zero[d] is not None:
            checked += zero[d] + 1
            failure = (d, zero[d])
            break
        checked += d
    return ResidueLemmaVerdict(
        k=k,
        factors=fn.factors,
        ok=counts_ok and failure is None,
        plus_count=plus,
        minus_count=minus,
        progressions_checked=checked,
        failure=failure,
    )
