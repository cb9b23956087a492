"""Good shifts: the number-theoretic certificates behind the periodic
zero-sum-AP-avoiding constructions.

A nonnegative shift alpha is *good* for (r, s, k) when no prime factor of
k + alpha divides any achievable weight of a length-alpha {-r, s}-sequence
(with the convention that every positive integer divides 0).  The module
decides goodness, searches for the minimum good shift, and finds the
prime-based shift that certifies a superlinear lower bound: some
alpha <= k^0.525 with k + alpha prime exists for all large k by the known
prime-gap bound, and such a shift is automatically good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import ParameterError, Params, Report, ShiftSearchError, WeightRange, weight_range

PRIME_GAP_EXPONENT = 0.525

# How far min_good_shift scans when no prime horizon exists (see there).
_FALLBACK_HORIZON = 1000


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 2, ascending, by trial division."""
    if n < 2:
        raise ParameterError(f"prime factorization needs n >= 2, got {n}")
    out = []
    if n % 2 == 0:
        out.append(2)
        while n % 2 == 0:
            n //= 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class GoodShift(Report):
    """Verdict for one shift, with the certificate data that decides it."""

    params: Params
    alpha: int
    a: int
    prime_factors: tuple[int, ...] = field(metadata={"json": "primeFactorsOfA"})
    s_alpha: WeightRange
    good: bool
    # (prime p, weight w in S_alpha with p | w)
    blocking: tuple[int, int] | None = field(
        metadata={"json": "blockingWitness", "pair": ("prime", "weight")}
    )


def divisible_weight(p: int, params: Params, alpha: int) -> int | None:
    """Smallest-index element of S_alpha divisible by p, or None.

    S_alpha = {-r*alpha + (r+s)i : 0 <= i <= alpha}.  Solved arithmetically
    so large alpha stays cheap: we need (r+s)i = r*alpha mod p for some
    i in [0, alpha].
    """
    r, m = params.r, params.modulus
    if m % p == 0:
        # (r+s)i vanishes mod p; p | r*alpha iff p | alpha since p cannot
        # divide r (gcd(r, r+s) = 1).
        return -r * alpha if alpha % p == 0 else None
    i0 = (r * alpha * pow(m, -1, p)) % p
    if i0 <= alpha:
        return -r * alpha + m * i0
    return None


def is_good_shift(params: Params, alpha: int) -> GoodShift:
    """Decide whether alpha is a good shift for (r, s, k).

    Goodness is well defined for any k; divisibility of k by r + s only
    matters to the constructions that consume the shift.  alpha = 0 is
    never good: S_0 = {0} and every prime divides 0.
    """
    if alpha < 0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
    a = params.k + alpha
    factors = prime_factors(a)
    s_alpha = weight_range(alpha, params)
    blocking = None
    for p in factors:
        w = divisible_weight(p, params, alpha)
        if w is not None:
            blocking = (p, w)
            break
    return GoodShift(
        params=params,
        alpha=alpha,
        a=a,
        prime_factors=factors,
        s_alpha=s_alpha,
        good=blocking is None,
        blocking=blocking,
    )


def certified_shift(params: Params, alpha: int | GoodShift) -> GoodShift:
    """The good shift ``alpha`` for these params: a plain integer is
    decided here, a GoodShift must have been decided for these params."""
    shift = alpha if isinstance(alpha, GoodShift) else is_good_shift(params, alpha)
    if shift.params != params:
        raise ParameterError("good shift was certified for different parameters")
    if not shift.good:
        raise ParameterError(
            f"alpha = {shift.alpha} is not a good shift for "
            f"(r, s, k) = ({params.r}, {params.s}, {params.k}): "
            f"prime {shift.blocking[0]} divides weight {shift.blocking[1]}"
        )
    return shift


def _prime_horizon(params: Params) -> int | None:
    """First alpha >= 1 with k + alpha prime when (r + s) | k, else None.

    For k = (r + s)c such a shift is good, so a minimum-shift search never
    needs to look past it: the one prime p = k + alpha exceeds r + s, and
    -r*alpha + (r + s)i = 0 mod p only at i = p - rc mod p, since
    (r + s)(p - rc) - r*alpha = s*p.  Both p - rc = sc + alpha > alpha and
    -rc < 0 lie outside [0, alpha].  Bertrand's postulate puts a prime in
    (k, 2k], so alpha <= k.
    """
    k = params.k
    if k % params.modulus:
        return None
    return next(alpha for alpha in range(1, k + 1) if is_prime(k + alpha))


def min_good_shift(params: Params, horizon: int | None = None) -> GoodShift:
    """Smallest alpha >= 1 that is a good shift, searched up to ``horizon``.

    With no horizon given, the search stops at the first alpha with
    k + alpha prime when (r + s) | k, a shift that is itself good (see
    _prime_horizon).  For other k no shift is known good in advance, and
    the search runs to alpha = 1000.  Exhausting the horizon raises
    ShiftSearchError with the scanned range.
    """
    limit = horizon if horizon is not None else _prime_horizon(params) or _FALLBACK_HORIZON
    if limit < 1:
        raise ParameterError(f"horizon must be >= 1, got {limit}")
    for alpha in range(1, limit + 1):
        verdict = is_good_shift(params, alpha)
        if verdict.good:
            return verdict
    raise ShiftSearchError(
        f"no good shift for (r, s, k) = ({params.r}, {params.s}, {params.k}) "
        f"with alpha in [1, {limit}]",
        1,
        limit,
    )


def prime_shift(params: Params) -> GoodShift:
    """Smallest alpha <= ceil(k^0.525) with k + alpha prime, k + alpha > s*alpha,
    certified good.

    The only prime factor of k + alpha is then k + alpha itself; for
    r <= s and (r + s) | k it exceeds every element of S_alpha in absolute
    value and cannot divide 0, so the shift is automatically good.
    Goodness is verified regardless, never assumed; candidates that fail
    the check are skipped.
    """
    k, s = params.k, params.s
    limit = max(1, math.ceil(k**PRIME_GAP_EXPONENT))
    for alpha in range(1, limit + 1):
        if k + alpha <= s * alpha or not is_prime(k + alpha):
            continue
        verdict = is_good_shift(params, alpha)
        if verdict.good:
            return verdict
    raise ShiftSearchError(
        f"no prime k + alpha with k + alpha > s*alpha and alpha in "
        f"[1, {limit}] certifies a good shift at k = {k}",
        1,
        limit,
    )
