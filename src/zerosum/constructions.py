"""Explicit extremal sequences, each with a machine-checkable claim.

Every sequence construction is one run pattern (period, neg_run, n): a run
of neg_run letters -r, then period - neg_run letters +s, repeated and cut
to length n.  A builder fixes only those three numbers and its claim, what
the sequence avoids (zero-sum k-blocks or zero-sum k-term arithmetic
subsequences); the scanners re-check each claim independently.  The
residue product is the exception: a sign function on Z/k, not a run
pattern.  Lengths that legally evaluate to 0 at small parameters are
flagged degenerate rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    AP_GOOD_SHIFT,
    AP_MOD_K,
    AP_MOD_K_PLUS1,
    AP_MOD_K_PRODUCT,
    AP_TWO_P,
    BLOCK_EXTREMAL,
    BLOCK_EXTREMAL_NEGATED,
    ParameterError,
    Params,
    SignSeq,
)
from .good_shift import GoodShift, certified_shift, is_prime


@dataclass(frozen=True)
class ClaimedProperty:
    """What the construction avoids, stated checkably."""

    k: int
    description: str


@dataclass(frozen=True)
class Construction:
    kind: str
    params: Params
    length: int
    seq: SignSeq
    claim: ClaimedProperty
    degenerate: bool = False


def _periodic(params: Params, period: int, neg_run: int, n: int) -> SignSeq:
    """neg_run letters -r then period - neg_run letters +s, repeated and cut
    to length n; every construction here is zero-sum."""
    run = "0" * neg_run + "1" * (period - neg_run)
    seq = SignSeq.from_bitstring(params, (run * (n // period + 1))[:n])
    assert seq.total_weight() == 0, "construction must be zero-sum"
    return seq


def _construction(kind: str, seq: SignSeq, description: str) -> Construction:
    params = seq.params
    return Construction(
        kind=kind,
        params=params,
        length=seq.n,
        seq=seq,
        claim=ClaimedProperty(k=params.k, description=description),
        degenerate=seq.n == 0,
    )


def _block_extremal_length(r: int, s: int, k: int) -> int:
    """Length of the periodic block-extremal construction.

    The sequence consists of b periods of k letters [sk/(r+s) - 1 copies of
    -r, rk/(r+s) + 1 copies of +s] followed by a remainder that is a prefix
    of the same pattern, so every k-window covers each residue class mod k
    exactly once and has weight exactly r + s.  The shift t decides the
    remainder: the -r run and t letters +s when t <= r, else a shorter run
    of -r letters.  With cap = k/(r+s) >= 1 both b and the remainder
    length are nonnegative (CHANGES.md gives the short proof).
    """
    m = r + s
    cap = k // m
    t = (1 - s * cap) % m
    neg_run = s * cap - 1
    if t <= r:
        b = (r * s * cap - (r + s * t)) // m
        rem_len = neg_run + t
    else:
        b = (r * s * cap - (r + r * (m - t))) // m
        rem_len = neg_run - (m - t)
    return b * k + rem_len


def build_block_extremal(params: Params) -> Construction:
    """Zero-sum sequence one below the exact threshold with every k-window
    weight equal to r + s, hence no zero-sum k-block."""
    params.require_block_divisibility()
    r, s, k = params.r, params.s, params.k
    n = _block_extremal_length(r, s, k)
    return _construction(
        BLOCK_EXTREMAL,
        _periodic(params, k, s * k // params.modulus - 1, n),
        f"every {k}-window has weight exactly {r + s}; no zero-sum {k}-block",
    )


def build_block_extremal_negated(params: Params) -> Construction:
    """Negation of the block-extremal sequence for swapped letters.

    Builds the extremal {-s, r}-sequence and negates every term, giving a
    {-r, s}-sequence whose k-windows all weigh -(r + s): negation swaps the
    letters, so it complements the selector bits.
    """
    r, s, k = params.r, params.s, params.k
    swapped = build_block_extremal(Params(s, r, k)).seq
    return _construction(
        BLOCK_EXTREMAL_NEGATED,
        SignSeq(params, swapped.n, swapped.bits ^ ((1 << swapped.n) - 1)),
        f"every {k}-window has weight exactly {-(r + s)}; no zero-sum {k}-block",
    )


def build_ap_mod_k(k: int) -> Construction:
    """Period-k/2 sign sequence avoiding zero-sum k-term APs, for k = 2a
    with a > 1 odd.

    f(j) = -1 when j mod a < (a-1)/2, else +1; length (2a+2)*floor((a-1)/4).
    Every k-term AP weight is nonzero, with |weight| >= gcd(d, k).
    """
    if k % 4 != 2 or k < 6:
        raise ParameterError(
            f"k must be 2 mod 4 with k/2 odd and > 1, got k = {k}"
        )
    a = k // 2
    n = (2 * a + 2) * ((a - 1) // 4)
    return _construction(
        AP_MOD_K,
        _periodic(Params(1, 1, k), a, (a - 1) // 2, n),
        f"no zero-sum {k}-term arithmetic subsequence; every "
        f"{k}-term AP with difference d has |weight| >= gcd(d, {k})",
    )


@dataclass(frozen=True)
class ResidueFunction:
    """A sign assignment on residues mod k, the product of half-interval
    signs over a coprime factorization k = 2 * a1 * ... * am.

    Unlike the length-n constructions this is not zero-sum as a sequence:
    exactly k/2 + 1 residues carry +1 and k/2 - 1 carry -1, so every full
    d-spaced progression over the residues has nonzero weight.
    """

    modulus: int
    factors: tuple[int, ...]
    values: tuple[int, ...]

    def count_plus(self) -> int:
        return self.values.count(1)

    def count_minus(self) -> int:
        return self.values.count(-1)

    def progression_weight(self, start: int, d: int, terms: int) -> int:
        return sum(self.values[(start + j * d) % self.modulus] for j in range(terms))

    def as_sequence(self) -> SignSeq:
        return SignSeq.from_values(Params(1, 1, self.modulus), self.values)


def product_factors(k: int, factors: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The factors as ints, checked: odd, > 1, pairwise coprime, and
    k = 2 * a1 * ... * am."""
    factors = tuple(int(a) for a in factors)
    if not factors:
        raise ParameterError("at least one factor is required")
    prod = 2
    for a in factors:
        if a <= 1 or a % 2 == 0:
            raise ParameterError(f"factors must be odd and > 1, got {a}")
        prod *= a
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if math.gcd(factors[i], factors[j]) != 1:
                raise ParameterError(
                    f"factors must be pairwise coprime, got {factors[i]} "
                    f"and {factors[j]}"
                )
    if prod != k:
        raise ParameterError(
            f"factorization 2 * {' * '.join(map(str, factors))} = {prod} != k = {k}"
        )
    return factors


def build_ap_mod_k_product(k: int, factors: tuple[int, ...] | list[int]) -> ResidueFunction:
    """Product-of-signs residue function for k = 2 * a1 * ... * am.

    Each factor contributes -1 on its small residues (j mod a_i < (a_i-1)/2)
    and +1 otherwise; the factors must be odd, > 1, and pairwise coprime.
    """
    factors = product_factors(k, factors)
    values = []
    for j in range(k):
        f = 1
        for a in factors:
            f *= -1 if j % a < (a - 1) // 2 else 1
        values.append(f)
    fn = ResidueFunction(modulus=k, factors=factors, values=tuple(values))
    assert fn.count_plus() == k // 2 + 1 and fn.count_minus() == k // 2 - 1
    return fn


def build_ap_mod_k_plus1(k: int) -> Construction:
    """Period-(k+1) sign sequence avoiding zero-sum k-term APs, any even k.

    f(j) = -1 when j mod (k+1) < (k-2)/2, else +1.  The length is
    (a+3) * floor((a-3)/6) with a = k + 1: that floor keeps the trailing
    remainder short enough to consist of -1's only, which is what makes the
    total weight zero.
    """
    if k < 2 or k % 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")
    a = k + 1
    n = (a + 3) * ((a - 3) // 6)
    return _construction(
        AP_MOD_K_PLUS1,
        _periodic(Params(1, 1, k), a, (a - 3) // 2, n),
        f"no zero-sum {k}-term arithmetic subsequence (period {a}, every "
        f"full-period AP weight is at least 3 in absolute value)",
    )


def build_ap_good_shift(params: Params, alpha: int | GoodShift) -> Construction:
    """Period-(k+alpha) {-r, s}-sequence avoiding zero-sum k-term APs,
    for any good shift alpha.

    f(j) = -r when j mod (k+alpha) < sk/(r+s) - 1, else +s; each full
    period weighs r + s + s*alpha, and the length is chosen so that the
    remainder is all -r and cancels the full periods exactly.
    """
    params.require_block_divisibility()
    shift = certified_shift(params, alpha)
    r, s, k = params.r, params.s, params.k
    a = k + shift.alpha
    neg_run = s * k // params.modulus - 1
    period_weight = params.modulus + s * shift.alpha
    n = (r * a + period_weight) * (neg_run // (r * period_weight))
    return _construction(
        AP_GOOD_SHIFT,
        _periodic(params, a, neg_run, n),
        f"no zero-sum {k}-term arithmetic subsequence (period {a}, per-period "
        f"weight {period_weight}, good shift alpha = {shift.alpha})",
    )


def build_ap_two_p(p: int) -> Construction:
    """Length p^2 - 1 sequence avoiding zero-sum 2p-term APs, p an odd prime.

    f(j) = -1 when j mod 2p < p - 1, else +1.  Certifies that the quadratic
    upper-bound constant for {-1, 1}-sequences cannot be improved.
    """
    if p < 3 or not is_prime(p):
        raise ParameterError(f"p must be an odd prime, got {p}")
    k = 2 * p
    n = p * p - 1
    return _construction(
        AP_TWO_P,
        _periodic(Params(1, 1, k), k, p - 1, n),
        f"no zero-sum {k}-term arithmetic subsequence in length {n} = p^2 - 1",
    )
