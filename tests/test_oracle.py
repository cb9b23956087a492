"""Oracle tests: exhaustive threshold searches against frozen brute-force
values, candidate accounting, shard independence, and the proposition
verifiers.  The unguided AP placement search is kept here as the
reference for the oracle's avoider walk."""

import functools
import math
import random
import time

import pytest

from zerosum import (
    BudgetExceededError,
    ParameterError,
    Params,
    SignSeq,
    block_scan,
    ap_lower_bound_value,
    ap_scan,
    ap_scan_naive,
    block_threshold,
    estimate_window_evaluations,
    exact_threshold,
    min_good_shift,
    pm1_block_threshold,
    verify_2k_proposition,
    verify_lemma_residue_properties,
    verify_pow2_rigidity,
)
from zerosum import oracle
from zerosum.oracle import (
    _ap_starts,
    _avoiders,
    _block_bounds,
    _block_dp,
    _block_dp_estimate,
    _zero_negs,
    admissible_pos_counts,
)


def test_block_threshold_1_2_6():
    result = exact_threshold(Params(1, 2, 6), "block", q=0, search_cap=18)
    assert result.max_avoiding_n == 9
    assert result.derived_threshold == 10
    assert result.exhaustive and not result.capped
    assert result.avoiding_count_at_max == 1
    assert [w.values() for w in result.witnesses] == [
        (-1, -1, -1, 2, 2, 2, -1, -1, -1)
    ]


def test_block_threshold_1_1_6():
    result = exact_threshold(Params(1, 1, 6), "block", q=0, search_cap=14)
    assert result.max_avoiding_n == 8
    assert result.derived_threshold == 9


def test_block_threshold_2_3_5():
    result = exact_threshold(Params(2, 3, 5), "block", q=0, search_cap=15)
    assert result.max_avoiding_n is None
    assert result.derived_threshold == 5


def test_block_threshold_1_3_8_contains_canonical_witness():
    """The exhaustive search rediscovers the periodic extremal sequence."""
    from zerosum import build_block_extremal, exact_block_threshold

    params = Params(1, 3, 8)
    result = exact_threshold(params, "block", q=0, search_cap=16)
    assert result.derived_threshold == exact_block_threshold(params).n_exact == 13
    assert result.max_avoiding_n == 12
    assert build_block_extremal(params).seq in result.witnesses


def test_ap_threshold_small_pm1():
    """New empirical data points: M(1,1,4) = 4 and M(1,1,6) = 9, the
    latter bracketed by k^2/6 and k^2/4 up to linear terms."""
    four = exact_threshold(Params(1, 1, 4), "ap", q=0, search_cap=12)
    assert four.max_avoiding_n is None
    assert four.derived_threshold == 4
    six = exact_threshold(Params(1, 1, 6), "ap", q=0, search_cap=12)
    assert six.max_avoiding_n == 8
    assert six.derived_threshold == 9


def test_threshold_witnesses_reverify_under_scanners():
    """Witnesses must pass the independent scanner code path."""
    result = exact_threshold(Params(1, 1, 8), "block", q=0, search_cap=14)
    assert result.max_avoiding_n == 12
    assert result.derived_threshold == 13
    assert result.avoiding_count_at_max > 0
    for witness in result.witnesses:
        assert witness.total_weight() == 0
        assert not block_scan(witness, 8).found


def test_ap_witnesses_reverify():
    result = exact_threshold(Params(1, 1, 6), "ap", q=0, search_cap=10)
    for witness in result.witnesses:
        assert witness.total_weight() == 0
        assert not ap_scan(witness, 6).found


def test_threshold_with_positive_q():
    """With q = 2 odd lengths admit sequences of total weight +-2 as well."""
    result = exact_threshold(Params(1, 1, 4), "block", q=2, search_cap=8)
    assert result.exhaustive
    for witness in result.witnesses:
        assert abs(witness.total_weight()) <= 2
        assert not block_scan(witness, 4).found


def test_shard_count_does_not_change_results():
    """``shards`` has no effect in either mode."""
    for mode in ("block", "ap"):
        serial, *sharded = (
            exact_threshold(Params(1, 2, 6), mode, q=0, search_cap=12, shards=shards)
            for shards in (1, 2, 3)
        )
        for result in sharded:
            assert result.to_json_dict() == serial.to_json_dict(), mode


def test_block_mode_never_starts_a_pool(monkeypatch):
    """Both modes run in-process for any shard count: no pool is built and
    no process starts."""
    import concurrent.futures
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for mode in ("block", "ap"):
        result = exact_threshold(Params(1, 1, 8), mode, q=0, search_cap=14, shards=2)
        assert result.derived_threshold == 13, mode


def test_capped_when_an_avoider_lies_beyond_the_cap():
    """N(2,3,10) = 26: at cap 24 the last avoider (n = 25) lies past the cap,
    so 16 is only a lower bound even though nothing avoids at n = 20."""
    result = exact_threshold(
        Params(2, 3, 10), "block", q=0, search_cap=24, budget=10**10
    )
    assert result.max_avoiding_n == 15
    assert result.derived_threshold == 16
    assert result.capped
    assert any("n=25" in note and "lower bound" in note for note in result.notes)
    confirmed = exact_threshold(
        Params(2, 3, 10), "block", q=0, search_cap=30, budget=10**10
    )
    assert (confirmed.derived_threshold, confirmed.capped) == (26, False)


def test_skewed_large_k_point_runs_within_its_own_bound():
    """(1,7,16): the enumeration estimate at cap 16 is only C(16,14) = 120
    windows, but the DP carries up to 2^15 tails per length.  It runs under
    the default budget, a budget below its own bound refuses it, and the
    avoider it finds past the cap is a real one."""
    params = Params(1, 7, 16)
    assert estimate_window_evaluations(params, "block", 0, 16) == 120
    with pytest.raises(BudgetExceededError) as exc_info:
        exact_threshold(params, "block", q=0, search_cap=16, budget=10**6)
    assert exc_info.value.estimate == _block_dp_estimate(params, 0)
    result = exact_threshold(params, "block", q=0, search_cap=16)
    assert (result.max_avoiding_n, result.capped) == (None, True)
    assert any("n=24" in note for note in result.notes)
    at_24 = exact_threshold(params, "block", q=0, search_cap=24)
    assert at_24.max_avoiding_n == 24
    assert not any(block_scan(w, 16).found for w in at_24.witnesses)


@pytest.mark.parametrize(
    "r,s,k", [(1, 1, 4), (1, 2, 3), (3, 1, 4), (1, 2, 6), (1, 5, 6), (2, 3, 5)]
)
@pytest.mark.parametrize("q", [0, 1, 5])
def test_block_dp_estimate_bounds_its_work(r, s, k, q):
    """Nothing lives at the estimate's horizon, and the transitions made on
    the way (two per live state) stay within the estimate.  A length below
    k stores no states, and counts as the 2 * 2^n transitions of its 2^n
    prefixes."""
    params = Params(r, s, k)
    horizon = k * ((q + 2 * max(r, s) * (k - 1)) // params.modulus + 1)
    _, layers, _ = _block_dp(params, q, horizon, probe=False)
    assert len(layers[horizon]) == 0
    work = sum(2 * (2**n if layer is None else len(layer)) for n, layer in enumerate(layers))
    assert work <= _block_dp_estimate(params, q)


@pytest.mark.parametrize(
    "r,s,k",
    [(1, 1, 6), (1, 1, 12), (1, 2, 6), (1, 2, 9), (2, 1, 9), (2, 3, 10), (3, 4, 7), (3, 4, 14)],
)
@pytest.mark.parametrize("q", [0, 1, 3])
def test_block_bounds_match_their_definition(r, s, k, q):
    """Each tail's slack read straight off its definition: q + max(0, max
    over i of min(r(k-i), W(newest i letters) - (r+s))), and the mirror in
    s for negative windows.  Bit 0 of a tail is its newest letter, a set
    bit a -r letter."""
    m = r + s
    want_hi, want_lo = [], []
    for tail in range(1 << (k - 1)):
        weights = []  # W(newest i letters), i = 1 .. k-1
        for i in range(k - 1):
            weights.append((weights[-1] if weights else 0) + (-r if tail >> i & 1 else s))
        want_hi.append(q + max([0] + [min(r * (k - i), w - m) for i, w in enumerate(weights, 1)]))
        want_lo.append(q + max([0] + [min(s * (k - i), -w - m) for i, w in enumerate(weights, 1)]))
    assert _block_bounds(Params(r, s, k), q) == (want_hi, want_lo)


def _full_block_dp(params, q, through, probe=True):
    """The block DP that keeps every state, as it stood before the (1,1)
    halving: the reference for ``_block_dp``'s counts, probe and layers."""
    k, m, s, (hi, lo) = params.k, params.modulus, params.s, _block_bounds(params, q)
    c_star, shift, tail_mask = _zero_negs(params), k - 1, (1 << (k - 1)) - 1
    states, dead = {0: 1}, [0]
    counts, layers, n = [], [], 0
    while True:
        alive = [0] * (n + 1)
        for key, count in states.items():
            alive[key >> shift] += count
        avoiders = 0
        for b in admissible_pos_counts(params, q, n):
            assert alive[n - b] + dead[n - b] == math.comb(n, n - b)
            avoiders += alive[n - b]
        if n <= through:
            counts.append(avoiders)
            layers.append(states)
        elif avoiders and n >= k:
            return counts, layers, n
        if not (states if probe else n < through):
            return counts, layers, None
        dead = [a + b for a, b in zip(dead + [0], [0] + dead)]
        nxt = {}
        get, grown, closes = nxt.get, s * (n + 1), n >= shift
        for key, count in states.items():
            negs, tail = key >> shift, key & tail_mask
            ones, older = tail.bit_count(), tail << 1 & tail_mask
            for x in (0, 1):
                j, after, new = ones + x, negs + x, older | x
                w = grown - m * after
                if closes and (j == c_star or (w > hi[new] if j < c_star else -w > lo[new])):
                    dead[after] += count
                else:
                    new |= after << shift
                    nxt[new] = get(new, 0) + count
        states, n = nxt, n + 1


def _every_prefix(n, k):
    """The full DP's layer at n < k: every prefix once, its tail all of it."""
    return {tail.bit_count() << (k - 1) | tail: 1 for tail in range(1 << n)}


def _lower_layers_skipped(layers, want_layers, k):
    """``_block_dp`` stores no states below length k, where the reference's
    layers hold every prefix once."""
    low = min(k, len(want_layers))
    assert layers[:low] == [None] * low
    assert want_layers[:low] == [_every_prefix(n, k) for n in range(low)]


def _mirror(key, n, k):
    """The state of the negated prefix: (n - negs, tail ^ the low min(n, k-1) bits)."""
    shift = k - 1
    return (n - (key >> shift)) << shift | (key & ((1 << shift) - 1)) ^ ((1 << min(n, shift)) - 1)


@pytest.mark.parametrize("k", range(2, 17, 2))
@pytest.mark.parametrize("q", [0, 1, 2])
def test_halved_pm1_dp_matches_the_full_dp(k, q):
    """At (1,1) the DP keeps the state with newest letter +1 of each mirror
    pair.  With probe on, its counts and ``beyond`` equal the full DP's, and
    each kept layer from k on, expanded by the mirrors, is the full layer.  Through 3k + 6 every prefix dies up to k = 12; at k = 14 and 16
    the probe finds a later avoider for some q."""
    params = Params(1, 1, k)
    through = 3 * k + 6
    counts, layers, beyond = _block_dp(params, q, through)
    want_counts, want_layers, want_beyond = _full_block_dp(params, q, through)
    assert (counts, beyond) == (want_counts, want_beyond)
    assert len(layers) == len(want_layers)
    _lower_layers_skipped(layers, want_layers, k)
    for n, (layer, want) in enumerate(zip(layers, want_layers)):
        if n < k:
            continue
        assert all(not key & 1 for key in layer), n
        expanded = dict(layer)
        for key, count in layer.items():
            expanded[_mirror(key, n, k)] = count
        assert expanded == want, n


@pytest.mark.parametrize("r,s,k,q,through", [(1, 2, 9, 0, 24), (2, 3, 10, 1, 30), (3, 1, 8, 2, 20)])
def test_dp_off_pm1_keeps_every_state(r, s, k, q, through):
    """Off (1,1) nothing is halved: the DP is the full one, layer by layer
    from k on."""
    params = Params(r, s, k)
    counts, layers, beyond = _block_dp(params, q, through)
    want_counts, want_layers, want_beyond = _full_block_dp(params, q, through)
    assert (counts, beyond) == (want_counts, want_beyond)
    assert len(layers) == len(want_layers)
    _lower_layers_skipped(layers, want_layers, k)
    assert layers[k:] == want_layers[k:]


@pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
@pytest.mark.parametrize("q", [0, 1, 2, 5])
def test_pm1_block_bounds_mirror(k, q):
    """At (1,1) the bound on a tail's negative windows is its mirror's bound
    on positive ones, which the halving relies on."""
    hi, lo = _block_bounds(Params(1, 1, k), q)
    mask = (1 << (k - 1)) - 1
    assert all(hi[t] == lo[t ^ mask] for t in range(1 << (k - 1)))


def test_pm1_dp_stores_one_state_per_mirror_pair():
    """(1,1,12) through 24 keeps 1998 states, the full DP 8091.  The halved
    DP stores nothing below length 12, where it would keep 2048 states (the
    empty prefix, its own mirror, and half of every later layer); from 12
    on every mirror pair is halved."""
    params = Params(1, 1, 12)
    for probe in (True, False):
        layers = _block_dp(params, 0, 24, probe)[1]
        assert layers[:12] == [None] * 12
        assert sum(map(len, layers[12:])) == 1998
        assert sum(map(len, _full_block_dp(params, 0, 24, probe)[1])) == 8091


@pytest.mark.parametrize(
    "r,s,k", [(1, 1, 2), (1, 1, 6), (1, 1, 12), (1, 2, 3), (2, 1, 9), (2, 3, 10), (3, 4, 7)]
)
@pytest.mark.parametrize("q", [0, 3])
def test_dp_starts_with_every_tail_once(r, s, k, q):
    """The DP starts from every tail of k - 1 letters at count 1 and stores
    from layer k on, so layer k holds each length-k prefix once, read off
    its definition: every one but those whose window holds c* negatives or
    whose weight its tail's bound rules out, and at (1,1) only those whose
    newest letter is +1.  A prefix's key is its count of negatives and its
    newest k - 1 letters."""
    params, shift = Params(r, s, k), k - 1
    c_star, (hi, lo) = _zero_negs(params), _block_bounds(params, q)
    layers = _block_dp(params, q, k, probe=False)[1]
    want = {}
    for prefix in range(0, 1 << k, 2 if r == s else 1):  # bit 0 the newest letter
        negs, tail = prefix.bit_count(), prefix & ((1 << shift) - 1)
        w = s * (k - negs) - r * negs
        if negs != c_star and (w <= hi[tail] if negs < c_star else -w <= lo[tail]):
            want[negs << shift | tail] = 1
    assert layers[:k] == [None] * k
    assert layers[k] == want


def _dp_avoiders(n, k, negs, c_star):
    """Neg-position masks of the block DP's avoiders at (n, negs): the
    alphabet is the one with c_star = sk/(r+s), and q the pair's |weight|."""
    g = math.gcd(k, c_star)
    params = Params((k - c_star) // g, c_star // g, k)
    q = abs(params.s * (n - negs) - params.r * negs)
    _, layers, _ = _block_dp(params, q, n, probe=False)
    masks = [((1 << n) - 1) ^ w.bits for w in _avoiders(params, q, layers, n)]
    return sorted(m for m in masks if m.bit_count() == negs)


def _brute_force_avoiders(n, k, negs, c_star, ap_mode=False):
    """Plain itertools + term-by-term rescan; the enumerators' oracle."""
    import itertools

    out = []
    for pos in itertools.combinations(range(n), negs):
        flags = [0] * n
        for p in pos:
            flags[p] = 1
        if ap_mode:
            diffs = range(1, (n - 1) // (k - 1) + 1)
            hit = any(
                sum(flags[s + j * d] for j in range(k)) == c_star
                for d in diffs
                for s in range(n - (k - 1) * d)
            )
        else:
            hit = any(
                sum(flags[i : i + k]) == c_star for i in range(n - k + 1)
            )
        if not hit:
            mask = 0
            for p in pos:
                mask |= 1 << p
            out.append(mask)
    return sorted(out)


@pytest.mark.parametrize(
    "n,k,negs,c_star",
    [
        (9, 6, 6, 4),   # the (1, 2, 6) grid point
        (12, 6, 6, 3),  # pm1 at length 12
        (10, 4, 5, 2),
        (11, 6, 7, 4),
        (8, 4, 2, 2),
    ],
)
def test_pruned_enumerator_matches_brute_force(n, k, negs, c_star):
    """The block DP's witness walk returns exactly the brute-force avoider
    set."""
    assert _dp_avoiders(n, k, negs, c_star) == _brute_force_avoiders(
        n, k, negs, c_star
    )


@pytest.mark.parametrize(
    "r,s,k", [(1, 1, 2), (1, 1, 4), (1, 2, 3), (2, 1, 6), (1, 3, 8)]
)
def test_block_dp_matches_every_bitmask(r, s, k):
    """Every sequence up to n = 14, judged by block_scan, against the DP's
    per-length avoider counts and witnesses; q in {0, 1, 2}, small enough
    for the weight bounds to drop prefixes."""
    params = Params(r, s, k)
    top = 14
    avoiders = {}  # (n, |total|) -> bitstrings of block_scan avoiders
    for n in range(k, top + 1):
        for bits in range(1 << n):
            seq = SignSeq(params, n, bits)
            total = abs(seq.total_weight())
            if total <= 2 and not block_scan(seq, k).found:
                avoiders.setdefault((n, total), []).append(seq.bitstring())
    for q in (0, 1, 2):
        counts, layers, _ = _block_dp(params, q, top, probe=False)
        for n in range(k, top + 1):
            want = sorted(b for t in range(q + 1) for b in avoiders.get((n, t), []))
            got = sorted(
                w.bitstring() for w in _avoiders(params, q, layers, n)
            )
            assert got == want, (q, n)
            assert counts[n] == len(want), (q, n)


def _ap_masks(n, k):
    """Position bitmasks of the k-term APs in [0, n), listed by last term."""
    ends = [[] for _ in range(n)]
    for d in range(1, (n - 1) // (k - 1) + 1):
        base = sum(1 << j * d for j in range(k))
        for start in range(n - (k - 1) * d):
            ends[start + (k - 1) * d].append(base << start)
    return ends


def _enumerate_ap(ends, negs, c_star):
    """The reference AP search: all placements of ``negs`` negatives in
    [0, n), as (candidates, neg-position bitmasks of avoiders).  Negatives
    go in left to right, and moving from one at p to the next at t fixes the
    letters p+1..t, so only the APs ending there (``ends``) are tested: one
    already holding c* - 1 negatives is zero-sum if t is -r, one holding c*
    if t is +s, which drops every placement whose next negative lies past t.
    A complete placement also tests the APs ending in its all-+s tail.  A
    dropped subtree counts C(positions left, negatives left), so the tally
    stays C(n, negs)."""
    n, near, comb = len(ends), c_star - 1, math.comb
    avoiders, candidates = [], 0

    def place(x, p, rem):
        # x: the negatives up to p, none closing a zero-sum AP; rem to go.
        nonlocal candidates
        if not rem:
            candidates += 1
            for tail in ends[p + 1 :]:
                for mask in tail:
                    if (x & mask).bit_count() == c_star:
                        return
            avoiders.append(x)
            return
        for t in range(p + 1, n - rem + 1):
            minus = plus = True
            for mask in ends[t]:
                c = (x & mask).bit_count()
                if c == near:
                    minus = False
                elif c == c_star:
                    plus = False
            if minus:
                place(x | 1 << t, t, rem - 1)
            else:
                candidates += comb(n - 1 - t, rem - 1)
            if not plus:
                candidates += comb(n - 1 - t, rem)
                return

    place(0, -1, negs)
    return candidates, avoiders


def _ap_enumerate(n, k, negs, c_star):
    """The reference AP search at (n, negs): (candidates, avoider masks)."""
    return _enumerate_ap(_ap_masks(n, k), negs, c_star)


@functools.lru_cache(maxsize=None)
def _reference_ap_avoiders(r, s, k, q, n):
    """Neg-position masks of every admissible AP avoider of length n, by the
    reference search, each (n, negs) tallied to C(n, negs)."""
    params = Params(r, s, k)
    ends, c_star, out = _ap_masks(n, k), _zero_negs(params), []
    for b in admissible_pos_counts(params, q, n):
        candidates, avoiders = _enumerate_ap(ends, n - b, c_star)
        assert candidates == math.comb(n, n - b), (n, n - b)
        out.extend(avoiders)
    return sorted(out)


def _walk_ap_avoiders(params, q, layers, n):
    """Neg-position masks of the walk's AP avoiders of length n."""
    walked = _avoiders(params, q, layers, n, _ap_starts(n, params.k))
    return sorted(((1 << n) - 1) ^ w.bits for w in walked)


@pytest.mark.parametrize(
    "n,k,negs,c_star",
    [(10, 4, 5, 2), (12, 6, 8, 4), (9, 6, 3, 4)],
)
def test_ap_enumerator_matches_brute_force(n, k, negs, c_star):
    expected = _brute_force_avoiders(n, k, negs, c_star, ap_mode=True)
    _, got = _ap_enumerate(n, k, negs, c_star)
    assert sorted(got) == expected


@pytest.mark.parametrize(
    "r,s,k",
    [(1, 1, 2), (1, 1, 4), (1, 1, 6), (1, 2, 3), (2, 1, 3),
     (1, 2, 6), (2, 1, 6), (1, 3, 4), (3, 1, 4), (2, 3, 5)],
)
def test_pruned_ap_shard_matches_brute_force(r, s, k):
    """Per (n, negs), the pruned search counts all C(n, negs) placements and
    returns the brute-force avoiders, at every negative count, zero
    included, that some q in 0..3 admits up to n = k + 10."""
    params = Params(r, s, k)
    c_star = _zero_negs(params)
    for n in range(k, k + 11):
        counts = {b for q in range(4) for b in admissible_pos_counts(params, q, n)}
        for negs in sorted(n - b for b in counts):
            candidates, avoiders = _ap_enumerate(n, k, negs, c_star)
            assert candidates == math.comb(n, negs), (n, negs)
            assert sorted(avoiders) == _brute_force_avoiders(
                n, k, negs, c_star, ap_mode=True
            ), (n, negs)


@pytest.mark.parametrize(
    "r,s,k,cap,threshold,count",
    [(1, 1, 8, 27, 13, 20), (1, 1, 8, 28, 13, 20), (1, 2, 9, 29, 16, 21),
     (1, 1, 14, 48, 49, 2)],
)
def test_ap_threshold_at_the_pruned_reach(r, s, k, cap, threshold, count):
    """M(1,1,8) = 13 and M(1,2,9) = 16, as the unpruned enumerator also
    found, and M(1,1,14) = 49; every cap fits the default budget, which
    gates on the DP's work, not on a full enumeration to the cap (2.8e15
    windows at (1,1,14,48)).  The witnesses pass the naive AP rescan, and
    M is at least the good-shift construction's length."""
    params = Params(r, s, k)
    result = exact_threshold(params, "ap", q=0, search_cap=cap)
    assert result.derived_threshold == threshold
    assert result.max_avoiding_n == threshold - 1
    assert result.avoiding_count_at_max == count
    assert result.exhaustive and not result.capped
    for witness in result.witnesses:
        assert witness.total_weight() == 0
        assert not ap_scan_naive(witness, k).found
    assert threshold >= ap_lower_bound_value(params, min_good_shift(params))


@pytest.mark.parametrize(
    "r,s,k,q,cap,threshold,beyond",
    [(1, 1, 10, 0, 23, 17, 24), (1, 1, 12, 0, 27, 21, 28), (1, 1, 6, 2, 13, 11, 14)],
)
def test_ap_threshold_below_a_block_avoider_is_a_lower_bound(
    r, s, k, q, cap, threshold, beyond
):
    """AP avoiders are not monotone in n: (1,1,10) has some at n = 16 and 24
    and none in between.  Each point has a block avoider, so possibly an AP
    avoider, just past the cap; the result is a lower bound that names it."""
    result = exact_threshold(Params(r, s, k), "ap", q=q, search_cap=cap)
    assert result.derived_threshold == threshold
    assert result.capped
    assert any(
        f"block avoider exists at n={beyond}," in note and "lower bound" in note
        for note in result.notes
    )


def _uncapped_ap_points():
    """Every coprime alphabet with (r+s) | k <= 8 at q = 0, and (1,1) at
    q = 1, 2, with N(r,s,k,q) from its closed form."""
    for m in range(2, 9):
        for r in range(1, m):
            if math.gcd(r, m) != 1:
                continue
            for k in range(m, 9, m):
                params = Params(r, m - r, k)
                yield params, 0, block_threshold(params)
                if r == 1 and m == 2:
                    for q in (1, 2):
                        yield params, q, pm1_block_threshold(k, q)


def test_uncapped_ap_result_matches_the_run_at_n_minus_1():
    """No AP avoider is longer than a block avoider, so cap N - 1 settles M;
    a result at any cap that is not ``capped`` must agree with it."""
    for params, q, n_block in _uncapped_ap_points():
        settled = exact_threshold(params, "ap", q=q, search_cap=n_block - 1)
        for cap in range(params.k, n_block + params.modulus):
            result = exact_threshold(params, "ap", q=q, search_cap=cap)
            if not result.capped:
                assert (result.derived_threshold, result.max_avoiding_n) == (
                    settled.derived_threshold, settled.max_avoiding_n,
                ), (params, q, cap)


_AP_POINTS = [  # (r, s, k, q, cap): the AP-mode calls above, short of k = 14 and cap 28
    (1, 1, 4, 0, 12), (1, 1, 6, 0, 12), (1, 1, 6, 0, 10), (1, 2, 6, 0, 12),
    (1, 1, 8, 0, 14), (1, 1, 8, 0, 27), (1, 2, 9, 0, 29), (1, 1, 10, 0, 23),
    (1, 1, 12, 0, 27), (1, 1, 6, 2, 13),
]


@pytest.mark.parametrize("r,s,k,q,cap", _AP_POINTS)
def test_ap_search_skips_lengths_without_a_block_avoider(monkeypatch, r, s, k, q, cap):
    """AP mode walks only the lengths where the block DP left an avoider,
    and its report equals a reference search over every admissible length."""
    params = Params(r, s, k)
    counts = _block_dp(params, q, cap)[0]
    searched = []
    avoiders = oracle._avoiders

    def record(params, q, layers, n, starts=None):
        searched.append(n)
        return avoiders(params, q, layers, n, starts)

    monkeypatch.setattr(oracle, "_avoiders", record)
    result = exact_threshold(params, "ap", q=q, search_cap=cap)
    assert all(counts[n] for n in searched)
    found = {n: _reference_ap_avoiders(r, s, k, q, n) for n in range(k, cap + 1)}
    top = max((n for n in found if found[n]), default=None)
    full = 0 if top is None else (1 << top) - 1
    witnesses = sorted(SignSeq(params, top, full ^ m).bitstring() for m in found.get(top, []))
    assert result.max_avoiding_n == top
    assert result.derived_threshold == (k if top is None else max(k, top + 1))
    assert [w.bitstring() for w in result.witnesses] == witnesses
    assert result.avoiding_count_at_max == len(witnesses)


@pytest.mark.parametrize("r,s,k,cap", sorted({(r, s, k, cap) for r, s, k, _, cap in _AP_POINTS}))
@pytest.mark.parametrize("q", [0, 1, 2])
def test_ap_walk_matches_the_reference_search(r, s, k, cap, q):
    """At every length up to the point's cap, the walk's AP avoiders are
    exactly the reference search's."""
    params = Params(r, s, k)
    layers = _block_dp(params, q, cap, probe=False)[1]
    for n in range(k, cap + 1):
        assert _walk_ap_avoiders(params, q, layers, n) == _reference_ap_avoiders(
            r, s, k, q, n
        ), n


@pytest.mark.parametrize(
    "r,s,k,q,cap",
    [(1, 1, 4, 8, 16), (1, 2, 3, 8, 13), (2, 1, 3, 8, 13), (1, 1, 6, 5, 20), (1, 2, 6, 8, 20)],
)
def test_ap_walk_matches_the_reference_search_beyond_difference_two(r, s, k, q, cap):
    """The AP points above hold no block avoider as long as 3k - 2, the
    shortest length with a d = 3 AP, so their walks test only d = 2.  A
    large q keeps avoiders alive past 3k - 2, so these walks test APs of
    d >= 3 and drop states that count several prefixes."""
    params = Params(r, s, k)
    layers = _block_dp(params, q, cap, probe=False)[1]
    walked = {n: _walk_ap_avoiders(params, q, layers, n) for n in range(k, cap + 1)}
    assert any(walked[n] for n in range(3 * k - 2, cap + 1))
    for n in range(k, cap + 1):
        assert walked[n] == _reference_ap_avoiders(r, s, k, q, n), n


@pytest.mark.parametrize(
    "r,s,k,q", [(1, 1, 4, 3), (1, 1, 6, 3), (1, 2, 3, 4), (1, 2, 6, 4), (1, 3, 4, 5)]
)
def test_walk_base_case_tests_the_aps_from_position_zero(r, s, k, q):
    """At n = 2k - 1 the one AP of difference d >= 2 is the d = 2 AP from
    position 0, and no AP starts at 1: only the walk's base case, at length
    k, can test it.  The walk's AP avoiders equal the reference search's,
    and fewer than its block avoiders, so the base case drops states."""
    params, n = Params(r, s, k), 2 * k - 1
    starts = _ap_starts(n, k)
    assert [len(aps) for aps in starts[:2]] == [1, 0]
    layers = _block_dp(params, q, n, probe=False)[1]
    walked = _walk_ap_avoiders(params, q, layers, n)
    assert walked == _reference_ap_avoiders(r, s, k, q, n)
    assert len(walked) < len(_avoiders(params, q, layers, n))


@pytest.mark.parametrize(
    "r,s,k,q,cap,deep",
    [(2, 3, 10, 0, 26, 15), (2, 3, 10, 1, 26, 17), (2, 3, 10, 2, 26, 24),
     (3, 4, 7, 0, 21, None), (3, 4, 7, 2, 21, 11), (3, 4, 7, 5, 21, 17), (3, 4, 7, 10, 21, 18)],
)
def test_ap_walk_matches_the_reference_search_with_r_and_s_above_one(r, s, k, q, cap, deep):
    """Alphabets with r, s > 1, at every length up to the cap: no mirror
    halving, and c* = sk/(r+s) is neither k/2 nor k - 1.  ``deep`` is the
    longest length with an AP avoider: (2,3,10) at q = 2 has some at
    n = 24, where d = 2 APs span 19 letters, and (3,4,7) at q = 10 at
    n = 18, where they span 13."""
    params = Params(r, s, k)
    layers = _block_dp(params, q, cap, probe=False)[1]
    for n in range(k, cap + 1):
        assert _walk_ap_avoiders(params, q, layers, n) == _reference_ap_avoiders(
            r, s, k, q, n
        ), n
    found = [n for n in range(k, cap + 1) if _reference_ap_avoiders(r, s, k, q, n)]
    assert max(found, default=None) == deep


@pytest.mark.parametrize("starts", [False, True])
def test_walk_raises_when_a_layer_count_is_changed(starts):
    """The walk's avoiders plus dropped counts must equal the DP's count: one
    stored prefix count off by one is an AssertionError in either mode."""
    params, n = Params(1, 1, 8), 12
    layers = _block_dp(params, 0, n, probe=False)[1]
    masks = _ap_starts(n, params.k) if starts else None
    assert _avoiders(params, 0, layers, n, masks)
    key = next(key for key in layers[n] if key >> (params.k - 1) == n // 2)
    layers[n][key] += 1
    with pytest.raises(AssertionError, match="walk accounted for"):
        _avoiders(params, 0, layers, n, masks)


def test_candidate_accounting_matches_binomials(monkeypatch):
    """Killed and dropped prefixes are carried forward: the block DP's
    tally (live plus dead) and the AP enumerator's candidate total equal
    C(n, negatives)."""
    tallies = {}
    check = oracle._check_tally

    def record(n, negs, candidates):
        tallies[(n, negs)] = candidates
        check(n, negs, candidates)

    monkeypatch.setattr(oracle, "_check_tally", record)
    for n, k, negs, c_star in [(10, 4, 5, 2), (12, 6, 8, 4), (9, 6, 6, 4)]:
        tallies.clear()
        _dp_avoiders(n, k, negs, c_star)
        assert tallies[(n, negs)] == math.comb(n, negs)
        ap_total, _ = _ap_enumerate(n, k, negs, c_star)
        assert ap_total == math.comb(n, negs)


def test_admissible_lengths_q0():
    params = Params(1, 2, 6)
    for n in range(6, 19):
        counts = admissible_pos_counts(params, 0, n)
        if n % 3 == 0:
            assert counts == [n // 3]
        else:
            assert counts == []


def test_no_admissible_length_degenerate_report():
    result = exact_threshold(Params(1, 2, 6), "block", q=0, search_cap=5)
    assert result.max_avoiding_n is None
    assert result.derived_threshold == 6
    assert any("no admissible length" in note for note in result.notes)


@pytest.mark.parametrize("mode", ["block", "ap"])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("cap", [-1, 0, 5, 6, 9])
def test_no_admissible_length_note_exactly_below_k(mode, q, cap):
    """n = k admits the weight-0 count b = rk/(r+s), so some length up to
    the cap is admissible exactly when the cap reaches k."""
    notes = exact_threshold(Params(1, 2, 6), mode, q=q, search_cap=cap).notes
    assert ("no admissible length within the search cap" in notes) == (cap < 6)


def test_capped_flag_when_avoiders_reach_cap():
    """Cap at the extremal length itself: avoiders exist at the top length,
    but the block DP runs on past the cap and finds none beyond it, so the
    result is exact and agrees with the closed form and a larger cap."""
    params = Params(1, 2, 6)
    result = exact_threshold(params, "block", q=0, search_cap=9)
    assert result.max_avoiding_n == 9
    assert not result.capped and result.notes == ()
    assert result.derived_threshold == 10 == block_threshold(params)
    wider = exact_threshold(params, "block", q=0, search_cap=14)
    assert (wider.derived_threshold, wider.capped) == (10, False)


def test_ap_avoiders_at_the_cap_leave_an_exact_result():
    """(1,1,10) has AP avoiders at n = 24, the cap, and no block avoider
    past it, so 25 is exact: the run at cap 28 gives the same."""
    params = Params(1, 1, 10)
    result = exact_threshold(params, "ap", q=0, search_cap=24)
    assert (result.max_avoiding_n, result.derived_threshold) == (24, 25)
    assert not result.capped and result.notes == ()
    wider = exact_threshold(params, "ap", q=0, search_cap=28, budget=10**10)
    assert (wider.derived_threshold, wider.capped) == (25, False)


def test_budget_refusal():
    estimate = _block_dp_estimate(Params(1, 1, 6), 0)
    with pytest.raises(BudgetExceededError) as exc_info:
        exact_threshold(Params(1, 1, 6), "block", q=0, search_cap=20, budget=10)
    assert exc_info.value.estimate == estimate == 11646
    assert exc_info.value.budget == 10


def test_walk_gate_reads_the_dp_count():
    """(1,2,12) at q = 30 passes the DP's own bound, but the walk's bound,
    2n + 1 per avoider the DP counts at n, refuses its 8276525 avoiders at
    n = 24 under a budget of 10^8, and its 29641793 at n = 26 under the
    default."""
    params = Params(1, 2, 12)
    assert _block_dp_estimate(params, 30) <= 10**8
    with pytest.raises(BudgetExceededError) as exc_info:
        exact_threshold(params, "block", q=30, search_cap=24, budget=10**8)
    assert exc_info.value.estimate == 49 * 8276525 == 405549725
    with pytest.raises(BudgetExceededError) as exc_info:
        exact_threshold(params, "block", q=30, search_cap=26)
    assert exc_info.value.estimate == 53 * 29641793 == 1571015029


def test_the_cap_costs_nothing():
    """(1,1,6)'s live prefixes die out near n = 9, and the DP stops there,
    so a cap of 10^6 settles N = 9 as fast as a cap of 20."""
    params = Params(1, 1, 6)
    assert len(_block_dp(params, 0, 10**6)[0]) < 20
    start = time.perf_counter()
    result = exact_threshold(params, "block", 0, 10**6)
    assert time.perf_counter() - start < 1.0
    assert (result.derived_threshold, result.capped, result.notes) == (9, False, ())


def test_default_budget_admits_block_2_3_10_at_cap_30():
    """A full enumeration to cap 30 would score 1.87e9 windows; the DP and
    its walk settle N(2,3,10) = 26 under the default budget."""
    result = exact_threshold(Params(2, 3, 10), "block", q=0, search_cap=30)
    assert (result.derived_threshold, result.capped) == (26, False)


def test_mode_validation():
    with pytest.raises(ParameterError):
        exact_threshold(Params(1, 1, 6), "diagonal", q=0, search_cap=8)
    with pytest.raises(ParameterError):
        exact_threshold(Params(1, 1, 6), "block", q=-1, search_cap=8)


class TestTwoKProposition:
    @pytest.mark.parametrize("k,count", [(2, 6), (4, 70), (6, 924)])
    def test_small_cases(self, k, count):
        verdict = verify_2k_proposition(k)
        assert verdict.ok
        assert verdict.sequences_checked == count
        assert verdict.counterexample is None

    def test_rejects_odd_k(self):
        with pytest.raises(ParameterError):
            verify_2k_proposition(5)

    def test_budget_refusal_large_k(self):
        """k = 18 needs 1.44e9 DP steps, over the default 10^9."""
        with pytest.raises(BudgetExceededError):
            verify_2k_proposition(18)

    def test_default_budget_runs_k14(self):
        verdict = verify_2k_proposition(14)
        assert verdict.ok
        assert verdict.sequences_checked == math.comb(28, 14)

    def test_explicit_budget_refuses_k14_with_dp_estimate(self):
        with pytest.raises(BudgetExceededError) as info:
            verify_2k_proposition(14, budget=10**7)
        assert info.value.estimate == _block_dp_estimate(Params(1, 1, 14), 0)
        assert info.value.budget == 10**7


def _pow2_survivors_one_at_a_time(v):
    """The per-function enumeration the bit-sliced pow2 check replaced:
    every function against every dyadic progression's position mask."""
    k = 1 << v
    checks = []
    for vp in range(v):
        step = 1 << vp
        for j in range(step):
            mask = sum(1 << (j + t * step) for t in range(k // step))
            checks.append((mask, k // step // 2))
    survivors = [
        fn for fn in range(1 << k)
        if not any((fn & mask).bit_count() == half for mask, half in checks)
    ]
    return tuple(format(fn, f"0{k}b")[::-1] for fn in survivors), 1 << k


class TestPow2Rigidity:
    @pytest.mark.parametrize("v,checked", [(2, 16), (3, 256), (4, 65536)])
    def test_exactly_two_survivors(self, v, checked):
        verdict = verify_pow2_rigidity(v)
        assert verdict.ok
        assert verdict.functions_checked == checked
        k = 1 << v
        assert verdict.survivors == ("0" * k, "1" * k)

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_sliced_check_matches_the_per_function_loop(self, v):
        verdict = verify_pow2_rigidity(v)
        assert (verdict.survivors, verdict.functions_checked) == _pow2_survivors_one_at_a_time(v)

    @pytest.mark.parametrize(
        "positions,target",
        [((0, 2, 3, 7), 2), ((1, 4, 5), 0), ((1, 4, 5), 3), ((0, 1, 2, 3, 4, 5, 6, 7, 8), 4),
         ((6,), 1), ((2, 5, 8), 1), ((), 0), ((0, 3), 5)],
    )
    def test_sliced_count_matches_bit_count(self, positions, target):
        """Off the dyadic sets and their two targets, the counter's mask is
        exactly the functions with ``target`` ones at ``positions``."""
        k = 9
        columns = [oracle._column(i, k) for i in range(k)]
        got = oracle._count_is([columns[i] for i in positions], target, (1 << (1 << k)) - 1)
        mask = sum(1 << i for i in positions)
        for fn in range(1 << k):
            assert (got >> fn & 1) == ((fn & mask).bit_count() == target), fn

    @pytest.mark.parametrize("v", [3, 4])
    def test_narrow_slices_give_the_one_word_verdict(self, monkeypatch, v):
        """At 2^4 functions per word the positions from 4 on are constant
        within each word, and the verdict must not change."""
        one_word = verify_pow2_rigidity(v)
        monkeypatch.setattr(oracle, "_SLICE_BITS", 4)
        assert verify_pow2_rigidity(v) == one_word

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            verify_pow2_rigidity(1)
        with pytest.raises(BudgetExceededError):
            verify_pow2_rigidity(5)

    def test_budget_gates_the_function_count(self):
        """v = 3 enumerates 2^8 functions: a budget of 256 runs it, 255 refuses."""
        assert verify_pow2_rigidity(3, budget=256).ok
        with pytest.raises(BudgetExceededError) as info:
            verify_pow2_rigidity(3, budget=255)
        assert (info.value.estimate, info.value.budget) == (256, 255)

    def test_huge_v_is_refused_without_building_the_estimate(self):
        """2^(2^100) is never built: the refusal compares bit lengths and
        prints the estimate as a power of two."""
        with pytest.raises(BudgetExceededError) as info:
            verify_pow2_rigidity(100)
        assert info.value.log2 == 1 << 100
        assert str(info.value) == "estimated 2^2^100 work units exceed budget 1000000000"


class TestResidueLemma:
    @pytest.mark.parametrize(
        "k,factors,plus,minus",
        [
            (6, (3,), 4, 2),
            (18, (9,), 10, 8),
            (30, (3, 5), 16, 14),
            (30, (15,), 16, 14),
            (210, (3, 5, 7), 106, 104),
        ],
    )
    def test_grid(self, k, factors, plus, minus):
        verdict = verify_lemma_residue_properties(k, factors)
        assert verdict.ok
        assert verdict.plus_count == plus == k // 2 + 1
        assert verdict.minus_count == minus == k // 2 - 1
        assert verdict.failure is None

    def test_invalid_factorization(self):
        with pytest.raises(ParameterError):
            verify_lemma_residue_properties(30, (3, 7))

    def test_budget_cap(self):
        """The k^2 estimate must fit the budget: 210^2 = 44100."""
        with pytest.raises(BudgetExceededError) as info:
            verify_lemma_residue_properties(210, (3, 5, 7), budget=210 * 210 - 1)
        assert (info.value.estimate, info.value.budget) == (44100, 44099)
        assert verify_lemma_residue_properties(210, (3, 5, 7), budget=210 * 210).ok

    def test_factors_are_checked_before_the_budget(self):
        """2 * 3 * 5 * 7 * 11 = 2310, not 4620: an input error, whatever the budget."""
        with pytest.raises(ParameterError, match="2310 != k = 4620"):
            verify_lemma_residue_properties(4620, (3, 5, 7, 11), budget=0)

    @staticmethod
    def _per_start(k, values):
        """(progressions checked, failure) by one slice sum per (d, start),
        d | k ascending: the check before the class sums were folded."""
        checked = 0
        for d in range(1, k + 1):
            if k % d:
                continue
            for start in range(d):
                checked += 1
                if sum(values[start::d]) == 0:
                    return checked, (d, start)
        return checked, None

    @pytest.mark.parametrize(
        "k,factors",
        [
            (30, (3, 5)), (210, (3, 5, 7)), (2310, (3, 5, 7, 11)), (30030, (3, 5, 7, 11, 13)),
            # prime powers: the fold divides by the same prime more than once
            (18, (9,)), (54, (27,)), (450, (9, 25)), (1350, (27, 25)),
        ],
    )
    def test_folded_sums_match_per_start_slices(self, monkeypatch, k, factors):
        """The folded class sums give the per-start check's count and first
        failure (lowest d, then lowest start), on the product function and
        on perturbed copies that have a zero-sum progression."""
        from zerosum.constructions import build_ap_mod_k_product

        fn = build_ap_mod_k_product(k, factors)
        verdict = verify_lemma_residue_properties(k, factors)
        assert self._per_start(k, fn.values) == (verdict.progressions_checked, None)
        assert verdict.failure is None
        values = list(fn.values)
        a = next(a for a in range(k // 2) if values[a] == values[a + k // 2])
        b = next(b for b in range(k) if values[b] == -values[a])
        pair = values.copy()  # swap: same counts, and (a, a + k/2) sums to 0
        pair[a + k // 2], pair[b] = values[b], values[a + k // 2]
        balanced = values.copy()
        balanced[values.index(1)] = -1  # k/2 letters of each sign: the d = 1 progression
        perturbed = [pair, balanced]
        rng = random.Random(k)
        for _ in range(2 if k > 2310 else 6):
            flipped = values.copy()
            for i in rng.sample(range(k), 3):
                flipped[i] = -flipped[i]
            perturbed.append(flipped)
        assert self._per_start(k, pair)[1] is not None
        for case in perturbed:
            changed = fn._replace(values=tuple(case))
            monkeypatch.setattr(oracle, "build_ap_mod_k_product", lambda k, factors: changed)
            got = verify_lemma_residue_properties(k, factors)
            checked, failure = self._per_start(k, case)
            assert (got.progressions_checked, got.failure) == (checked, failure)
            assert got.ok == (failure is None and case.count(1) == k // 2 + 1)

    def test_default_budget_admits_k_past_2310(self):
        """2 * 3 * 5 * 7 * 11 * 13 = 30030 and 30030^2 < 10^9."""
        verdict = verify_lemma_residue_properties(30030, (3, 5, 7, 11, 13))
        assert verdict.ok and verdict.plus_count == 15016


@pytest.mark.parametrize(
    "estimate,shown",
    [(10**18, "1000000000000000000"), (1 << 20000, "2^20000"), ((1 << 70) + 1, "over 2^70")],
    ids=["full", "power-of-two", "over-power-of-two"],
)
def test_budget_error_prints_oversize_estimates_compactly(estimate, shown):
    """Past 2^64 the message gives a power of two, not thousands of digits
    (2^20000 has 6021, past str()'s default limit); ``estimate`` stays exact."""
    exc = BudgetExceededError(estimate, 10**9)
    assert str(exc) == f"estimated {shown} work units exceed budget 1000000000"
    assert (exc.estimate, exc.budget) == (estimate, 10**9)


def test_threshold_json_keys():
    result = exact_threshold(Params(1, 2, 6), "block", q=0, search_cap=9)
    data = result.to_json_dict()
    assert set(data) == {
        "params", "mode", "q", "maxAvoidingN", "derivedThreshold",
        "witnesses", "searchCap", "exhaustive", "capped",
        "avoidingCountAtMax", "notes",
    }
    assert data["witnesses"] == ["b:000111000"]
