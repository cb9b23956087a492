"""Closed-form thresholds for zero-sum and small-sum blocks.

Three families are evaluated:

* the exact threshold N(r, s, k): the least n0 such that every zero-sum
  {-r, s}-sequence of length n >= n0 contains a zero-sum k-block;
* a sufficient bound parameterized by a slack q on the total weight;
* the {-1, 1} thresholds for blocks with |weight| <= t under |total| <= q.

All arithmetic is exact and in integers: where a formula divides by r + s,
it is evaluated at c = k/(r+s), an integer once (r + s) | k is checked, so
nothing is rounded.
"""

from __future__ import annotations

from collections import namedtuple

from .core import Params, Report, require_even_k, require_nonnegative_q, require_tolerance
from .good_shift import GoodShift, certified_shift


class BoundReport(Report, namedtuple(
    "BoundReport", "params t t_prime m1 m2 n_exact notes", defaults=((),)
)):
    """Evaluated exact-threshold formulas for one parameter triple."""

    __slots__ = ()
    _meta = {"n_exact": {"json": "n_exact"}}


class SufficientBound(Report, namedtuple("SufficientBound", "params q n_sufficient")):
    """Least n certified to force a zero-sum k-block given |total| <= q."""

    __slots__ = ()
    _meta = {"n_sufficient": {"json": "n_sufficient"}}


def _shift_and_term(r: int, s: int, k: int) -> tuple[int, int]:
    """(t, M1) for the letters (r, s); the letters exchanged give (t', M2).

    t is the unique member of [0, r+s) with sk/(r+s) - 1 + t divisible by
    r + s, and M1 splits on whether t exceeds r.  With c = k/(r+s), an
    integer, M1 = (rsk/(r+s)^2 - (r + st)/(r+s))k + sk/(r+s) + t is
    rsc^2 - (r + st)c + sc + t, and likewise in the other case.
    """
    m = r + s
    c = k // m
    t = (1 - s * c) % m
    if t <= r:
        return t, r * s * c * c - (r + s * t) * c + s * c + t
    return t, r * s * c * c - (r + r * (m - t)) * c + s * c - (m - t)


def exact_block_threshold(params: Params) -> BoundReport:
    """Exact threshold N(r, s, k) = max(k, M1, M2) for any coprime r, s.

    M2 and t' are M1 and t with r and s exchanged (see _shift_and_term), so
    the value is symmetric in r and s by construction: (s, r) swaps (t, M1)
    with (t', M2). At r = s = 1, t = t' is the residue of k/2 - 1 mod 2 and
    M1 = M2 = k^2/4 - tk/2 + t, which is pm1_block_threshold(k).
    """
    r, s, k = params.r, params.s, params.k
    params.require_block_divisibility()
    t, m1 = _shift_and_term(r, s, k)
    t_prime, m2 = _shift_and_term(s, r, k)
    # For r = 1, t' <= s always holds; the other branch cannot be exercised.
    notes = ("t' > s branch unreachable for r = 1",) if r == 1 else ()
    return BoundReport(
        params=params,
        t=t,
        t_prime=t_prime,
        m1=m1,
        m2=m2,
        n_exact=max(k, m1, m2),
        notes=notes,
    )


# A public alias: the formula above is already symmetric in r and s.
exact_block_threshold_symmetric = exact_block_threshold


def block_threshold(params: Params) -> int:
    """N(r, s, k) as a plain integer."""
    return exact_block_threshold(params).n_exact


def pm1_block_threshold(k: int, q: int = 0) -> int:
    """Least n forcing a zero-sum k-block in {-1, 1}-sequences, |total| <= q.

    Returns max(k, k^2/4 + (q - s)k/2 + s) where s in {0, 1} satisfies
    s = q + (k-2)/2 mod 2: the small-sum threshold at tolerance t = 0.
    """
    require_even_k(k)
    return pm1_smallsum_threshold(k, 0, q)


def pm1_smallsum_threshold(k: int, t: int, q: int = 0) -> int:
    """Least n forcing a k-block of |weight| <= t in {-1, 1}-sequences.

    s in [0, t+1] is the unique residue with s = q + (k-t-2)/2 mod t+2;
    the bound is max(k, k^2/(2(t+2)) + (q-s)k/(t+2) - t/2 + s), returned as
    the smallest integer n satisfying it.
    """
    require_tolerance(t, k)
    require_nonnegative_q(q)
    s = (q + (k - t - 2) // 2) % (t + 2)
    # The bound over the common denominator 2(t+2), rounded up.
    numerator = k * k + 2 * (q - s) * k + (2 * s - t) * (t + 2)
    return max(k, -(-numerator // (2 * (t + 2))))


def sufficient_block_bound(params: Params, q: int = 0) -> SufficientBound:
    """Smallest n certified to contain a zero-sum k-block when |total| <= q.

    Evaluates

        k * floor((q - r)/(r+s) + rsk/(r+s)^2) + sk/(r+s) + r/s

    and the mirror expression with r and s exchanged, and returns the least
    integer n that is >= k and >= both.  With c = k/(r+s), an integer, the
    first rounds up to k*floor((q - r + rsc)/(r+s)) + sc + ceil(r/s).
    """
    params.require_block_divisibility()
    require_nonnegative_q(q)
    r, s, k = params.r, params.s, params.k
    m = params.modulus
    c = k // m
    first = k * ((q - r + r * s * c) // m) + s * c - (-r // s)
    second = k * ((q - s + r * s * c) // m) + r * c - (-s // r)
    n = max(k, first, second)
    return SufficientBound(params=params, q=q, n_sufficient=n)


def _good_shift_pattern(params: Params, alpha: int | GoodShift) -> tuple[GoodShift, int, int, int]:
    """(shift, period, neg_run, n): sk/(r+s) - 1 letters -r, then +s to the
    period k + alpha, cut to length n.  Each full period weighs
    r + s + s*alpha, and n leaves an all -r remainder that cancels them.
    (r + s) | k is checked before the shift is certified."""
    params.require_block_divisibility()
    shift = certified_shift(params, alpha)
    r, s, k = params.r, params.s, params.k
    period = k + shift.alpha
    period_weight = params.modulus + s * shift.alpha
    neg_run = s * k // params.modulus - 1
    return shift, period, neg_run, (r * period + period_weight) * (neg_run // (r * period_weight))


def ap_lower_bound_value(params: Params, alpha: int | GoodShift) -> int:
    """Length of the shifted periodic construction certifying
    M(r, s, k) >= (r(k+a) + (r+s+s*a)) * floor((sk/(r+s) - 1) / (r(r+s+s*a))).

    ``alpha`` may be a verified GoodShift or a plain integer, in which case
    goodness is checked here.
    """
    return _good_shift_pattern(params, alpha)[3]
