"""Exhaustive ground truth: exact thresholds for small parameters and
full-enumeration checks of the structural propositions.

Both modes run one DP over (last k-1 letters, negatives so far) past the
cap until no prefix lives, its work bounded up front by (r, s, k, q) alone
(see _block_dp_estimate): an AP avoider is a block avoider (a k-block is
the d = 1 AP), so the DP bounds where avoiders of either kind can lie.
Avoiders come from one walk back through the DP's stored states (see
_avoiders), which places one letter per step; AP mode also tests, against
its own position bitmask, each k-term AP of difference d >= 2 as its first
term is placed (a zero-sum AP holds c* = sk/(r+s) negatives), and drops a
state holding one with its prefix count, so the walk's avoiders plus drops
equal the DP's count.  Each walk is bounded, before it starts, by that
count (see exact_threshold); no work grows with the search cap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .core import BudgetExceededError, ParameterError, Params, SignSeq
from .constructions import ResidueFunction, build_ap_mod_k_product, product_factors

MODE_BLOCK = "block"
MODE_AP = "ap"

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


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of an exhaustive threshold search.

    derived_threshold = max(k, max_avoiding_n + 1) over admissible lengths,
    or k when nothing avoids; with ``exhaustive`` true and ``capped`` false
    this is the exact threshold under the convention that only lengths
    admitting the weight constraint count.  ``capped`` marks a lower bound
    and means only that an admissible block avoider lies beyond the cap
    (in AP mode it leaves AP avoiders there open); a note names its length.
    The block DP runs on past the cap until no prefix lives, so a result
    that is not capped is exact even when avoiders reach the cap.
    """

    params: Params
    mode: str
    q: int
    max_avoiding_n: int | None
    derived_threshold: int
    witnesses: tuple[SignSeq, ...]
    search_cap: int
    exhaustive: bool
    capped: bool
    avoiding_count_at_max: int
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "mode": self.mode,
            "q": self.q,
            "maxAvoidingN": self.max_avoiding_n,
            "derivedThreshold": self.derived_threshold,
            "witnesses": [f"b:{w.bitstring()}" for w in self.witnesses],
            "searchCap": self.search_cap,
            "exhaustive": self.exhaustive,
            "capped": self.capped,
            "avoidingCountAtMax": self.avoiding_count_at_max,
            "notes": list(self.notes),
        }


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
    at n < k, then tails of under c* negatives on prefixes weighing -r(k-1) to
    q + r(k-1), so of (q + 2r(k-1)) // (r+s) windows at most; mirrored in s."""
    k, m, c_star = params.k, params.modulus, _zero_negs(params)
    total = 2**k - 1
    for side, tails in ((params.r, range(c_star)), (params.s, range(c_star, k))):
        span = (q + 2 * side * (k - 1)) // m
        total += k * span * (span + 1) * sum(math.comb(k - 1, j) for j in tails)
    return 2 * total


def _block_bounds(params: Params, q: int) -> tuple[list[int], list[int]]:
    """Per tail, the most an avoider's prefix may weigh with positive windows
    (the least, negated, with negative ones): q plus the most the next j < k
    letters, closing a window, take back: min(W(last k - j) - (r+s), rj) or 0."""
    k, r, s, m = params.k, params.r, params.s, params.modulus
    w, pos, neg = [0], [0], [0]  # per tail of i letters: its weight, slacks
    for i in range(1, k):  # prepend the oldest letter, +s then -r
        w = [v + s for v in w] + [v - r for v in w]
        pos = [max(p, min(r * (k - i), v - m)) for p, v in zip(pos + pos, w)]
        neg = [max(p, min(s * (k - i), -v - m)) for p, v in zip(neg + neg, w)]
    return [q + p for p in pos], [q + p for p in neg]


def _block_dp(
    params: Params, q: int, through: int, probe: bool = True
) -> tuple[list[int], list[dict[int, int]], int | None]:
    """Count avoiding prefixes per state ``negs << (k-1) | tail`` (the last
    k-1 letters, bit 0 the newest, a set bit a -r letter).  A step kills a
    prefix whose newest k-window holds c* negatives, and drops one that no
    avoider extends (see _block_bounds).  With ``probe`` off it runs through
    ``through``; with it on, until no prefix lives (short of ``through`` too,
    as every later tally is vacuous) or a later admissible length has an
    avoider.  Returns the admissible avoider count and the states (key to
    prefix count) per length run, up to ``through``, and that later length
    or None."""
    k, m, s, (hi, lo) = params.k, params.modulus, params.s, _block_bounds(params, q)
    c_star, shift, tail_mask = _zero_negs(params), k - 1, (1 << (k - 1)) - 1
    states, dead = {0: 1}, [0]  # dead[negs]: length-n prefixes killed or dropped
    counts, layers, n = [], [], 0
    while True:
        alive = [0] * (n + 1)
        for key, count in states.items():
            alive[key >> shift] += count
        avoiders = 0
        for b in admissible_pos_counts(params, q, n):
            _check_tally(n, n - b, alive[n - b] + dead[n - b])
            avoiders += alive[n - b]
        if n <= through:
            counts.append(avoiders)
            layers.append(states)
        elif avoiders and n >= k:
            return counts, layers, n
        if not (states if probe else n < through):
            return counts, layers, None
        dead = [a + b for a, b in zip(dead + [0], [0] + dead)]
        nxt: dict[int, int] = {}
        for key, count in states.items():
            negs, tail = key >> shift, key & tail_mask
            for x in (0, 1):
                j, after, new = tail.bit_count() + x, negs + x, (tail << 1 | x) & tail_mask
                w = s * (n + 1) - m * after  # the new prefix's weight
                if n >= shift and (j == c_star or (w > hi[new] if j < c_star else -w > lo[new])):
                    dead[after] += count
                else:
                    nxt[after << shift | new] = nxt.get(after << shift | new, 0) + count
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
    params: Params, q: int, layers: list[dict[int, int]], n: int,
    starts: list[list[int]] | None = None,
) -> list[SignSeq]:
    """Every admissible avoider of length n, recovered by walking back from
    the layer-n states kept by _block_dp, one letter per step; every state
    it visits has a live prefix.  With ``starts`` (see _ap_starts), placing
    letter t tests the APs whose first term is t, and a hit drops the state
    with its prefix count.  Avoiders plus dropped counts must equal the DP's
    avoider count at n."""
    k, shift, c_star = params.k, params.k - 1, _zero_negs(params)
    negs_ok = {n - b for b in admissible_pos_counts(params, q, n)}
    stack = [(key, n, 0) for key in layers[n] if key >> shift in negs_ok]
    expected, dropped = sum(layers[n][key] for key, _, _ in stack), 0
    out: list[SignSeq] = []
    while stack:
        key, length, mask = stack.pop()
        if length == 0:
            out.append(SignSeq(params, n, ((1 << n) - 1) ^ mask))
            continue
        negs, tail, x = key >> shift, key & ((1 << shift) - 1), key & 1
        mask |= x << (length - 1)
        if starts and any((mask & ap).bit_count() == c_star for ap in starts[length - 1]):
            dropped += layers[length][key]
            continue
        layer = layers[length - 1]
        for y in (0, 1):
            prev_tail = tail >> 1 | y << (shift - 1)
            if length >= k and prev_tail.bit_count() + x == c_star:
                continue  # that transition was killed
            prev = (negs - x) << shift | prev_tail
            if prev in layer:
                stack.append((prev, length - 1, mask))
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
    walk makes at most n + 1 pops per avoider and spends n letters on each
    witness.  Neither bound depends on the cap.
    ``shards`` has no effect; it is accepted for callers that pass it.
    """
    params.require_block_divisibility()
    if q < 0:
        raise ParameterError(f"q must be nonnegative, got {q}")
    if mode not in (MODE_BLOCK, MODE_AP):
        raise ParameterError(f"mode must be 'block' or 'ap', got {mode!r}")
    ceiling = resolve_budget(budget)
    _require_budget(_block_dp_estimate(params, q), ceiling)

    k = params.k
    counts, layers, beyond = _block_dp(params, q, search_cap)
    max_avoiding, witnesses, walk = None, [], 0
    for n in reversed([n for n in range(k, len(counts)) if counts[n]]):  # block avoiders, top down
        walk += (2 * n + 1) * counts[n]  # n + 1 pops and n letters per avoider
        _require_budget(walk, ceiling)
        witnesses = _avoiders(params, q, layers, n, _ap_starts(n, k) if mode == MODE_AP else None)
        if witnesses:
            max_avoiding = n
            break
    admissible = any(admissible_pos_counts(params, q, n) for n in range(k, search_cap + 1))
    notes = [] if admissible else ["no admissible length within the search cap"]
    derived = k if max_avoiding is None else max(k, max_avoiding + 1)
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


@dataclass(frozen=True)
class TwoKVerdict:
    """Every zero-sum {-1,1}-sequence of length 2k has a zero-sum k-block."""

    k: int
    ok: bool
    sequences_checked: int
    counterexample: SignSeq | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ok": self.ok,
            "sequencesChecked": self.sequences_checked,
            "counterexample": (
                None if self.counterexample is None
                else f"b:{self.counterexample.bitstring()}"
            ),
        }


def verify_2k_proposition(k: int, budget: int | None = None) -> TwoKVerdict:
    """Enumerate all C(2k, k) zero-sum sequences of length 2k and confirm
    each contains a zero-sum k-block, by the block DP under its own step
    bound and the shared budget."""
    if k < 2 or k % 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")
    params = Params(1, 1, k)
    _require_budget(_block_dp_estimate(params, 0), budget)
    counts, layers, _ = _block_dp(params, 0, 2 * k, probe=False)
    witnesses = _avoiders(params, 0, layers, 2 * k)
    counterexample = min(witnesses, key=SignSeq.bitstring, default=None)
    return TwoKVerdict(
        k=k,
        ok=counterexample is None,
        sequences_checked=math.comb(2 * k, k),  # the DP's tally asserts this
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class Pow2Verdict:
    """Only the two constant sign functions on Z/2^v avoid every zero-sum
    dyadic progression (difference 2^v', full length, for all v' < v)."""

    v: int
    ok: bool
    functions_checked: int
    survivors: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "ok": self.ok,
            "functionsChecked": self.functions_checked,
            "survivors": list(self.survivors),
        }


def verify_pow2_rigidity(v: int, budget: int | None = None) -> Pow2Verdict:
    """Enumerate all sign functions on {0, ..., 2^v - 1} and keep those with
    no zero-sum dyadic progression; exactly the two constants must remain.
    The 2^(2^v) functions must fit the budget.

    The progressions checked have common difference 2^v' and 2^(v-v') terms
    for every v' in [0, v - 1]; v' = 0 is the full-length progression, and
    without it non-constant period-2 functions would slip through.
    """
    if v < 2:
        raise ParameterError(f"v must be at least 2, got {v}")
    k = 1 << v
    _require_budget(None, budget, log2=k)
    checks: list[tuple[int, int]] = []
    for vp in range(v):
        step = 1 << vp
        terms = k // step
        for j in range(step):
            mask = 0
            for t in range(terms):
                mask |= 1 << (j + t * step)
            checks.append((mask, terms // 2))
    survivors: list[int] = []
    for fn in range(1 << k):
        for mask, half in checks:
            if (fn & mask).bit_count() == half:
                break
        else:
            survivors.append(fn)
    expected = [0, (1 << k) - 1]
    bitstrings = tuple(format(fn, f"0{k}b")[::-1] for fn in survivors)
    return Pow2Verdict(
        v=v,
        ok=survivors == expected,
        functions_checked=1 << k,
        survivors=bitstrings,
    )


@dataclass(frozen=True)
class ResidueLemmaVerdict:
    """Counts and full-progression nonvanishing for a product residue function."""

    k: int
    factors: tuple[int, ...]
    ok: bool
    plus_count: int
    minus_count: int
    progressions_checked: int
    failure: tuple[int, int] | None  # (difference, start)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "factors": list(self.factors),
            "ok": self.ok,
            "plusCount": self.plus_count,
            "minusCount": self.minus_count,
            "progressionsChecked": self.progressions_checked,
            "failure": (
                None
                if self.failure is None
                else {"difference": self.failure[0], "start": self.failure[1]}
            ),
        }


def verify_lemma_residue_properties(
    k: int, factors: tuple[int, ...] | list[int], budget: int | None = None
) -> ResidueLemmaVerdict:
    """Build the product residue function and check both of its properties:
    the +1/-1 counts are k/2 + 1 and k/2 - 1, and every full d-spaced
    progression over the residues has nonzero weight, for every d | k.
    Valid factors come first, then k^2 must fit the budget."""
    factors = product_factors(k, factors)
    _require_budget(k * k, budget)
    fn: ResidueFunction = build_ap_mod_k_product(k, factors)
    plus, minus = fn.count_plus(), fn.count_minus()
    counts_ok = plus == k // 2 + 1 and minus == k // 2 - 1
    checked = 0
    failure: tuple[int, int] | None = None
    for d in range(1, k + 1):
        if k % d:
            continue
        for start in range(d):
            checked += 1
            # start < d and d * (k/d) = k: the full progression never wraps
            if sum(fn.values[start::d]) == 0:
                failure = (d, start)
                break
        if failure:
            break
    return ResidueLemmaVerdict(
        k=k,
        factors=fn.factors,
        ok=counts_ok and failure is None,
        plus_count=plus,
        minus_count=minus,
        progressions_checked=checked,
        failure=failure,
    )
