"""Closed-form thresholds for zero-sum and small-sum blocks.

Three families are evaluated:

* the exact threshold N(r, s, k): the least n0 such that every zero-sum
  {-r, s}-sequence of length n >= n0 contains a zero-sum k-block;
* a sufficient bound parameterized by a slack q on the total weight;
* the {-1, 1} thresholds for blocks with |weight| <= t under |total| <= q.

All arithmetic is exact (integers and fractions); where the formulas
require an intermediate to be an integer, that is asserted and a
FormulaDomainError is raised on violation, never a silent rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import FormulaDomainError, ParameterError, Params, Report
from .good_shift import GoodShift, certified_shift


@dataclass(frozen=True)
class BoundReport(Report):
    """Evaluated exact-threshold formulas for one parameter triple."""

    params: Params
    t: int
    t_prime: int
    m1: int
    m2: int
    n_exact: int = field(metadata={"json": "n_exact"})
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SufficientBound(Report):
    """Least n certified to force a zero-sum k-block given |total| <= q."""

    params: Params
    q: int
    n_sufficient: int = field(metadata={"json": "n_sufficient"})


def shift_residue(x: int, modulus: int) -> int:
    """The unique t in [0, modulus) with x - 1 + t divisible by modulus."""
    return (1 - x) % modulus


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise FormulaDomainError(f"{what} evaluates to non-integer {value}")
    return int(value)


def _shift_and_term(r: int, s: int, k: int, name: str) -> tuple[int, int]:
    """(t, M1) for the letters (r, s); the letters exchanged give (t', M2).

    t is the unique member of [0, r+s) with sk/(r+s) - 1 + t divisible by
    r + s, and M1 splits on whether t exceeds r.
    """
    m = r + s
    sk = s * k // m
    t = shift_residue(sk, m)
    c = Fraction(r * s * k, m * m)
    if t <= r:
        term = (c - Fraction(r + s * t, m)) * k + sk + t
    else:
        term = (c - Fraction(r + r * (m - t), m)) * k + sk - (m - t)
    return t, _as_int(term, name)


def exact_block_threshold(params: Params) -> BoundReport:
    """Exact threshold N(r, s, k) = max(k, M1, M2) for any coprime r, s.

    M2 and t' are M1 and t with r and s exchanged (see _shift_and_term), so
    the value is symmetric in r and s by construction: (s, r) swaps (t, M1)
    with (t', M2). At r = s = 1, t = t' is the residue of k/2 - 1 mod 2 and
    M1 = M2 = k^2/4 - tk/2 + t, which is pm1_block_threshold(k).
    """
    r, s, k = params.r, params.s, params.k
    params.require_block_divisibility()
    t, m1 = _shift_and_term(r, s, k, "M1")
    t_prime, m2 = _shift_and_term(s, r, k, "M2")
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
    if k < 2 or k % 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")
    if q < 0:
        raise ParameterError(f"q must be nonnegative, got {q}")
    return pm1_smallsum_threshold(k, 0, q)


def pm1_smallsum_threshold(k: int, t: int, q: int = 0) -> int:
    """Least n forcing a k-block of |weight| <= t in {-1, 1}-sequences.

    s in [0, t+1] is the unique residue with s = q + (k-t-2)/2 mod t+2;
    the bound is max(k, k^2/(2(t+2)) + (q-s)k/(t+2) - t/2 + s), returned as
    the smallest integer n satisfying it.
    """
    if not 0 <= t < k:
        raise ParameterError(f"t must satisfy 0 <= t < k, got t={t} k={k}")
    if t % 2 != k % 2:
        raise ParameterError(f"t and k must have the same parity, got t={t} k={k}")
    if q < 0:
        raise ParameterError(f"q must be nonnegative, got {q}")
    s = (q + (k - t - 2) // 2) % (t + 2)
    # The bound over the common denominator 2(t+2), rounded up.
    numerator = k * k + 2 * (q - s) * k + (2 * s - t) * (t + 2)
    return max(k, -(-numerator // (2 * (t + 2))))


def sufficient_block_bound(params: Params, q: int = 0) -> SufficientBound:
    """Smallest n certified to contain a zero-sum k-block when |total| <= q.

    Evaluates, with exact rationals,

        k * floor((q - r)/(r+s) + rsk/(r+s)^2) + sk/(r+s) + r/s

    and the mirror expression with r and s exchanged, and returns the least
    integer n that is >= k and >= both.
    """
    params.require_block_divisibility()
    if q < 0:
        raise ParameterError(f"q must be nonnegative, got {q}")
    r, s, k = params.r, params.s, params.k
    m = params.modulus
    quad = Fraction(r * s * k, m * m)
    first = (
        k * math.floor(Fraction(q - r, m) + quad) + Fraction(s * k, m) + Fraction(r, s)
    )
    second = (
        k * math.floor(Fraction(q - s, m) + quad) + Fraction(r * k, m) + Fraction(s, r)
    )
    n = max(k, math.ceil(first), math.ceil(second))
    return SufficientBound(params=params, q=q, n_sufficient=n)


def ap_lower_bound_value(params: Params, alpha: int | GoodShift) -> int:
    """Length of the shifted periodic construction certifying
    M(r, s, k) >= (r(k+a) + (r+s+s*a)) * floor((sk/(r+s) - 1) / (r(r+s+s*a))).

    ``alpha`` may be a verified GoodShift or a plain integer, in which case
    goodness is checked here.
    """
    params.require_block_divisibility()
    shift = certified_shift(params, alpha)
    r, s, k = params.r, params.s, params.k
    a = k + shift.alpha
    period_weight = params.modulus + s * shift.alpha
    neg_run = s * k // params.modulus - 1
    return (r * a + period_weight) * (neg_run // (r * period_weight))
