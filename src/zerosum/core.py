"""Domain types for two-letter integer sequences and their weights.

A sequence assigns each position 0..n-1 a value in {-r, +s} with r, s
positive and gcd(r, s) = 1.  The weight of an index set is the sum of the
values it selects.  Everything here is immutable after construction and
safe to share across threads; positions are 0-based throughout.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Iterable, Iterator, TypeAlias

Weight: TypeAlias = int

# Construction kind names: ``constructions`` tags its builders with them and
# the CLI offers them as ``--kind`` choices without loading the builders.
BLOCK_EXTREMAL = "block-extremal"
BLOCK_EXTREMAL_NEGATED = "block-extremal-neg"
AP_MOD_K = "ap-mod-k"
AP_MOD_K_PRODUCT = "ap-product"
AP_MOD_K_PLUS1 = "ap-mod-k1"
AP_GOOD_SHIFT = "ap-good-shift"
AP_TWO_P = "ap-two-p"


class ParameterError(ValueError):
    """A precondition on (r, s, k), an index, or an argument was violated."""


class FormulaDomainError(ValueError):
    """A threshold formula produced a non-integer where one is required."""


def _compact(n: int) -> str:
    """n in full below 2^64, else as the power of two at or just below it."""
    e = n.bit_length() - 1
    return str(n) if e < 64 else f"{'' if n == 1 << e else 'over '}2^{e}"


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed the configured work ceiling.

    An estimate of 2^64 or more prints as the power of two at or below it.
    One too large to build is passed as ``log2`` alone (it is exactly
    2^log2); ``estimate`` builds it only when read."""

    def __init__(self, estimate: int | None, budget: int, log2: int | None = None) -> None:
        self._estimate, self.budget = estimate, budget
        self.log2 = estimate.bit_length() - 1 if log2 is None else log2
        shown = _compact(self.estimate) if self.log2 < 64 or log2 is None else f"2^{_compact(log2)}"
        super().__init__(f"estimated {shown} work units exceed budget {budget}")

    @property
    def estimate(self) -> int:
        return 1 << self.log2 if self._estimate is None else self._estimate


class ShiftSearchError(RuntimeError):
    """No qualifying shift was found within the scanned range."""

    def __init__(self, message: str, alpha_min: int, alpha_max: int) -> None:
        super().__init__(message)
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max


class Report:
    """Base of every dataclass reported as a v1 JSON object.

    ``to_json_dict`` emits the fields in order, each keyed by its name in
    camelCase unless its metadata names the key (``"json"``).  A 2-tuple
    field with ``"pair"`` metadata becomes an object under those names, and
    a None field marked ``"optional"`` is left out.  Values nest: a report
    is its own object, a SignSeq is ``"b:<bits>"``, a tuple is a list, and
    a dict has its keys sorted, then stringified.
    """

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None and meta.get("optional"):
                continue
            head, *rest = f.name.split("_")
            key = meta.get("json", head + "".join(map(str.capitalize, rest)))
            if value is not None and "pair" in meta:
                out[key] = dict(zip(meta["pair"], value))
            else:
                out[key] = _encode(value)
        return out


def _encode(value):
    if isinstance(value, Report):
        return value.to_json_dict()
    if isinstance(value, SignSeq):
        return f"b:{value.bitstring()}"
    if isinstance(value, tuple):
        return list(map(_encode, value))
    if isinstance(value, dict):
        return {str(key): _encode(v) for key, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class Params(Report):
    """The triple (r, s, k): letters -r and +s, target subsequence length k.

    gcd(r, s) = 1 is required; dividing both letters by their gcd leaves
    every zero-sum question unchanged, so nothing is lost.  Divisibility of
    k by r + s is only needed when a zero-sum k-subsequence is actually
    sought, so it is checked per operation, not here.
    """

    r: int
    s: int
    k: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1:
            raise ParameterError(f"r and s must be positive, got r={self.r} s={self.s}")
        if self.k < 1:
            raise ParameterError(f"k must be positive, got k={self.k}")
        if math.gcd(self.r, self.s) != 1:
            raise ParameterError(
                f"gcd(r, s) must be 1, got gcd({self.r}, {self.s}) = "
                f"{math.gcd(self.r, self.s)}"
            )

    @property
    def modulus(self) -> int:
        return self.r + self.s

    def require_block_divisibility(self) -> None:
        """Raise unless (r + s) | k.

        A sum of k terms from {-r, s} is congruent to s*k mod r + s, so a
        zero-sum k-subsequence can only exist when r + s divides k.
        """
        if self.k % self.modulus != 0:
            raise ParameterError(
                f"(r + s) = {self.modulus} must divide k = {self.k} "
                f"for zero-sum k-subsequences to exist"
            )


class SignSeq:
    """A finite {-r, +s}-valued sequence with a compact selector encoding.

    Bit i of ``bits`` is 0 for value -r and 1 for value +s at position i.
    ``from_values``, ``from_bitstring``, ``values`` and ``bitstring`` cost
    O(n): one C-level map/join pass (``from_values`` looks each value up
    in a two-entry dict, so a hashable value equal to a letter, like
    ``True`` or ``1.0``, counts as it) and one base-2 int/str conversion,
    which Python's int/str digit limit exempts.  Prefix weights cost O(n)
    once, built lazily, so full-sequence and window weights cost O(1) after
    the first query.  ``value(i)`` costs O(n - i).
    """

    __slots__ = ("params", "n", "bits", "_prefix")

    def __init__(self, params: Params, n: int, bits: int) -> None:
        if n < 0:
            raise ParameterError(f"sequence length must be nonnegative, got {n}")
        if bits < 0 or bits >> n:
            raise ParameterError("selector bits out of range for length")
        self.params = params
        self.n = n
        self.bits = bits
        self._prefix: tuple[int, ...] | None = None

    @classmethod
    def from_values(cls, params: Params, values: Iterable[int]) -> "SignSeq":
        """Encode values equal to -r or s; raise ``ParameterError`` naming
        the first other value and its position (a one-shot iterator is read
        into a list first, for that second pass)."""
        s, neg_r = params.s, -params.r
        if iter(values) is values:
            values = list(values)
        try:
            bitstring = "".join(map({s: "1", neg_r: "0"}.get, values))
        except TypeError:  # a foreign value gave None, or was unhashable
            n, v = next(
                (n, v)
                for n, v in enumerate(values)
                if type(v).__hash__ is None or (v != s and v != neg_r)
            )
            raise ParameterError(
                f"value {v} at position {n} is neither -r = {neg_r} nor s = {s}"
            ) from None
        return cls.from_bitstring(params, bitstring)

    @classmethod
    def from_bitstring(cls, params: Params, bitstring: str) -> "SignSeq":
        # int(x, 2) alone would accept "_", spaces, a sign, "0b" and non-ASCII digits.
        i = re.match("[01]*", bitstring).end()
        if i < len(bitstring):
            raise ParameterError(f"bad selector character {bitstring[i]!r} at position {i}")
        return cls(params, i, int(bitstring[::-1] or "0", 2))

    def value(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ParameterError(f"index {i} out of range [0, {self.n})")
        return self.params.s if (self.bits >> i) & 1 else -self.params.r

    def values(self) -> tuple[int, ...]:
        letter = {"0": -self.params.r, "1": self.params.s}
        return tuple(map(letter.__getitem__, self.bitstring()))

    def bitstring(self) -> str:
        return format(self.bits, "b").zfill(self.n)[::-1] if self.n else ""

    def prefix_weights(self) -> tuple[int, ...]:
        """Prefix sums P with P[i] = weight of positions [0, i)."""
        if self._prefix is None:
            self._prefix = tuple(accumulate(self.values(), initial=0))
        return self._prefix

    def total_weight(self) -> int:
        ones = self.bits.bit_count()
        return self.params.s * ones - self.params.r * (self.n - ones)

    def window_weight(self, start: int, length: int) -> int:
        if start < 0 or length < 0 or start + length > self.n:
            raise ParameterError(
                f"window [{start}, {start + length}) out of range [0, {self.n})"
            )
        p = self.prefix_weights()
        return p[start + length] - p[start]

    def __eq__(self, other: object) -> bool:
        # k parameterizes queries against a sequence, not the sequence
        # itself, so equality compares the alphabet and the letters only.
        if not isinstance(other, SignSeq):
            return NotImplemented
        return (
            (self.params.r, self.params.s) == (other.params.r, other.params.s)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.params.r, self.params.s, self.n, self.bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        body = self.bitstring() if self.n <= 64 else f"<{self.n} positions>"
        return f"SignSeq(r={self.params.r}, s={self.params.s}, n={self.n}, {body})"


def weight(seq: SignSeq, indices: Iterable[int]) -> Weight:
    """Sum of sequence values over an index set."""
    total = 0
    for i in indices:
        total += seq.value(i)
    return total


@dataclass(frozen=True)
class WeightRange(Report):
    """All achievable total weights of a {-r, s}-sequence of length alpha.

    An arithmetic progression from -r*alpha to s*alpha with alpha + 1 terms
    and common difference r + s.
    """

    alpha: int
    low: int
    step: int
    count: int

    @property
    def high(self) -> int:
        return self.low + self.step * (self.count - 1)

    def __contains__(self, w: int) -> bool:
        return self.low <= w <= self.high and (w - self.low) % self.step == 0

    def __iter__(self) -> Iterator[int]:
        for i in range(self.count):
            yield self.low + i * self.step

    def values(self) -> tuple[int, ...]:
        return tuple(self)


def weight_range(alpha: int, params: Params) -> WeightRange:
    """Descriptor for the weights achievable with exactly alpha letters."""
    if alpha < 0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
    return WeightRange(
        alpha=alpha,
        low=-params.r * alpha,
        step=params.modulus,
        count=alpha + 1,
    )
