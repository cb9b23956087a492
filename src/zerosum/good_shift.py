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
from collections import namedtuple

from .core import ParameterError, Params, Report, ShiftSearchError, weight_range

PRIME_GAP_EXPONENT = 0.525


def is_prime(n: int) -> bool:
    """Whether n is prime: n >= 2 is its own one prime factor."""
    return n >= 2 and prime_factors(n) == (n,)


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


class GoodShift(Report, namedtuple(
    "GoodShift", "params alpha a prime_factors s_alpha good blocking"
)):
    """Verdict for one shift, with the certificate data that decides it.

    ``blocking`` is (prime p, weight w in S_alpha with p | w), or None.
    """

    __slots__ = ()
    _meta = {
        "prime_factors": {"json": "primeFactorsOfA"},
        "blocking": {"json": "blockingWitness", "pair": ("prime", "weight")},
    }


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


def _first_good(params: Params, alphas, limit: int, text: str, proven: bool = False) -> GoodShift:
    """The first good verdict among ``alphas``, all within [1, limit]; else
    ShiftSearchError with ``text``, the failure text the CLI prints."""
    for alpha in alphas:
        verdict = is_good_shift(params, alpha)
        if verdict.good:
            return verdict
    raise ShiftSearchError(text, limit, proven)


def min_good_shift(params: Params, horizon: int | None = None) -> GoodShift:
    """Smallest alpha >= 1 that is a good shift, searched up to ``horizon``.

    With no horizon given, the search runs to alpha = k when (r + s) | k:
    Bertrand's postulate puts a prime k + alpha in (k, 2k], and the first
    such shift is good, so the search stops at or before it.  Its one
    prime p = k + alpha exceeds r + s, and with k = (r + s)c,
    -r*alpha + (r + s)i = 0 mod p only at i = p - rc mod p, since
    (r + s)(p - rc) - r*alpha = s*p; both p - rc = sc + alpha > alpha and
    -rc < 0 lie outside [0, alpha].

    For other k it runs to alpha = (r + s)k, past which no least good
    shift lies.  If a prime p | r + s does not divide k, alpha = p^e - k
    is good, p^e the least power of p above k: p is the one prime factor
    of k + alpha, every weight is -r*alpha mod p, and p divides neither r
    nor alpha = -k mod p; and alpha < p^e <= pk <= (r + s)k.  Otherwise
    every prime factor of r + s divides k, and for alpha >= k - 1 a prime
    q | k + alpha with q <= alpha + 1 divides an element of S_alpha: if
    q | r + s then q | k, so q | alpha and q divides -r*alpha; if not,
    (r + s)i = r*alpha mod q has a root i < q.
    So a good alpha >= k - 1 makes k + alpha <= 2*alpha + 1, all of whose
    prime factors exceed alpha + 1, a prime p; p does not divide r + s,
    as p > k, and the root of (r + s)i = r*alpha = -rk mod p must exceed
    alpha, so it is p - y with y in [1, k - 1] and p | (r + s)y - rk.
    That number is nonzero, as r + s does not divide k, and below
    max(r, s)k in absolute value, so alpha = p - k < (r + s)k.  A search
    to (r + s)k that finds nothing thus proves that no good shift exists.

    Exhausting the search raises ShiftSearchError with the scanned range.
    With no horizon it is ``proven`` and says that no good shift exists for
    (r, s, k); a horizon h gives "no good shift found for alpha in [1, h]".
    """
    m = params.modulus
    limit = horizon if horizon is not None else params.k * (m if params.k % m else 1)
    if limit < 1:
        raise ParameterError(f"horizon must be >= 1, got {limit}")
    proven = horizon is None
    failure = (f"no good shift exists for (r, s, k) = ({params.r}, {params.s}, {params.k}): "
               f"the least would lie in [1, {limit}]" if proven else
               f"no good shift found for alpha in [1, {limit}]")
    return _first_good(params, range(1, limit + 1), limit, failure, proven)


def prime_shift(params: Params) -> GoodShift:
    """Smallest alpha <= ceil(k^0.525) with k + alpha prime, k + alpha > s*alpha,
    certified good.

    The only prime factor of k + alpha is then k + alpha itself; for
    r <= s and (r + s) | k it exceeds every element of S_alpha in absolute
    value and cannot divide 0, so the shift is automatically good.
    Goodness is verified regardless, never assumed; candidates that fail
    the check are skipped.  Finding none raises ShiftSearchError, never
    ``proven``: a larger alpha or a composite k + alpha may still be good.
    """
    k, s = params.k, params.s
    limit = max(1, math.ceil(k**PRIME_GAP_EXPONENT))
    alphas = (a for a in range(1, limit + 1) if k + a > s * a and is_prime(k + a))
    return _first_good(params, alphas, limit, (
        f"no prime k + alpha with k + alpha > s*alpha and alpha in "
        f"[1, {limit}] certifies a good shift at k = {k}"
    ))
