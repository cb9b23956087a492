"""Explicit extremal sequences, each with a machine-checkable claim.

Every sequence construction is one run pattern (period, neg_run, n): a run
of neg_run letters -r, then period - neg_run letters +s, repeated and cut
to length n.  A builder fixes only those three numbers and its claim, what
the sequence avoids (zero-sum k-blocks or zero-sum k-term arithmetic
subsequences); the scanners re-check each claim independently.  The
lengths of block-extremal and ap-good-shift are closed forms that live in
``formulas``: block-extremal reads M1 - 1, and ap-good-shift reads its
whole run pattern (certified shift, period, the per-period weight its
claim names, run and the length ``ap_lower_bound_value``) from
``formulas._good_shift_pattern``.  Three
kinds retag another builder's sequence with their own kind and claim:
ap-two-p is block-extremal at (1, 1, 2p), ap-mod-k1 is ap-good-shift at
(1, 1, k) with alpha = 1, and block-extremal-neg negates block-extremal
with r and s swapped.  The residue product is the exception: a sign
function on Z/k, not a run pattern.  Lengths that legally evaluate to 0 at
small parameters are built, not rejected.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .core import (
    AP_GOOD_SHIFT,
    AP_MOD_K,
    AP_MOD_K_PLUS1,
    AP_TWO_P,
    BLOCK_EXTREMAL,
    BLOCK_EXTREMAL_NEGATED,
    ParameterError,
    Params,
    SignSeq,
    require_even_k,
)
from .formulas import _good_shift_pattern, exact_block_threshold
from .good_shift import GoodShift, is_prime


# What the construction avoids, stated checkably.
ClaimedProperty = namedtuple("ClaimedProperty", "k description")
Construction = namedtuple("Construction", "kind params length seq claim")


def _periodic(params: Params, period: int, neg_run: int, n: int) -> SignSeq:
    """neg_run letters -r then period - neg_run letters +s, repeated and cut
    to length n; every construction here is zero-sum."""
    run = "0" * neg_run + "1" * (period - neg_run)
    seq = SignSeq.from_bitstring(params, (run * (n // period + 1))[:n])
    if seq.total_weight():  # raised, not asserted, so that python -O checks it too
        raise AssertionError("construction must be zero-sum")
    return seq


def _construction(kind: str, seq: SignSeq, description: str) -> Construction:
    params = seq.params
    return Construction(
        kind=kind,
        params=params,
        length=seq.n,
        seq=seq,
        claim=ClaimedProperty(k=params.k, description=description),
    )


def build_block_extremal(params: Params) -> Construction:
    """Zero-sum sequence of length M1 - 1 with every k-window weight equal
    to r + s, hence no zero-sum k-block.

    Period k: sk/(r+s) - 1 letters -r, then rk/(r+s) + 1 letters +s, so
    every k-window covers each residue class mod k once.  The length M1 - 1
    is read from ``formulas.exact_block_threshold``.  It is nonnegative: with
    c = k/(r+s) >= 1 and t the shift there, M1 - 1 = bk + rem.  If t <= r,
    rem = sc - 1 + t and (r+s)b = rsc - r - st, which is 0 mod r + s (as
    st = s - s^2 c) and at least r(s(c-1) - 1) >= -r > -(r+s), so b >= 0.
    If t > r, rem = sc - 1 - (r+s-t) >= s(c-1) >= 0 and (r+s)b = r * rem.
    """
    r, s, k = params.r, params.s, params.k
    n = exact_block_threshold(params).m1 - 1
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


class ResidueFunction(namedtuple("ResidueFunction", "modulus factors values")):
    """A sign assignment on residues mod k, the product of half-interval
    signs over a coprime factorization k = 2 * a1 * ... * am.

    Unlike the length-n constructions this is not zero-sum as a sequence:
    exactly k/2 + 1 residues carry +1 and k/2 - 1 carry -1, so every full
    d-spaced progression over the residues has nonzero weight.
    """

    __slots__ = ()

    def count_plus(self) -> int:
        return self.values.count(1)

    def count_minus(self) -> int:
        return self.values.count(-1)

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
    values = [1] * k
    for a in factors:  # a | k: the factor's signs repeat k/a times
        h = (a - 1) // 2
        values = list(map(mul, values, ([-1] * h + [1] * (a - h)) * (k // a)))
    fn = ResidueFunction(modulus=k, factors=factors, values=tuple(values))
    if (fn.count_plus(), fn.count_minus()) != (k // 2 + 1, k // 2 - 1):
        raise AssertionError(f"residue product at k = {k}: signs +1 and -1 must count k/2 +- 1")
    return fn


def build_ap_mod_k_plus1(k: int) -> Construction:
    """Period-(k+1) sign sequence avoiding zero-sum k-term APs, any even k.

    f(j) = -1 when j mod (k+1) < (k-2)/2, else +1, with length
    (a+3) * floor((a-3)/6) for a = k + 1: that floor keeps the trailing
    remainder short enough to consist of -1's only, which is what makes the
    total weight zero.  It is the good-shift sequence at (1, 1, k) with
    alpha = 1, which is always good there since S_1 = {-1, 1}.
    """
    require_even_k(k)
    return _construction(
        AP_MOD_K_PLUS1,
        build_ap_good_shift(Params(1, 1, k), 1).seq,
        f"no zero-sum {k}-term arithmetic subsequence (period {k + 1}, every "
        f"full-period AP weight is at least 3 in absolute value)",
    )


def build_ap_good_shift(params: Params, alpha: int | GoodShift) -> Construction:
    """Period-(k+alpha) {-r, s}-sequence avoiding zero-sum k-term APs,
    for any good shift alpha.

    f(j) = -r when j mod (k+alpha) < sk/(r+s) - 1, else +s; the run pattern,
    its length ``ap_lower_bound_value`` and the per-period weight the claim
    names included, is read from ``formulas._good_shift_pattern``.
    """
    shift, period, period_weight, neg_run, n = _good_shift_pattern(params, alpha)
    return _construction(
        AP_GOOD_SHIFT,
        _periodic(params, period, neg_run, n),
        f"no zero-sum {params.k}-term arithmetic subsequence (period {period}, per-period "
        f"weight {period_weight}, good shift alpha = {shift.alpha})",
    )


def build_ap_two_p(p: int) -> Construction:
    """Length p^2 - 1 sequence avoiding zero-sum 2p-term APs, p an odd prime.

    f(j) = -1 when j mod 2p < p - 1, else +1: the block-extremal sequence at
    (1, 1, 2p), whose length M1 - 1 is p^2 - 1.  Certifies that the quadratic
    upper-bound constant for {-1, 1}-sequences cannot be improved.
    """
    if p < 3 or not is_prime(p):
        raise ParameterError(f"p must be an odd prime, got {p}")
    seq = build_block_extremal(Params(1, 1, 2 * p)).seq
    return _construction(
        AP_TWO_P,
        seq,
        f"no zero-sum {2 * p}-term arithmetic subsequence in length {seq.n} = p^2 - 1",
    )
