"""Domain types for two-letter integer sequences and their weights.

A sequence assigns each position 0..n-1 a value in {-r, +s} with r, s
positive and gcd(r, s) = 1.  The weight of an index set is the sum of the
values it selects.  Everything here is immutable after construction and
safe to share across threads; positions are 0-based throughout.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import cache
from itertools import accumulate, chain, islice, zip_longest

# Construction kind names: ``constructions`` tags its builders with them and
# the CLI offers them as ``--kind`` choices without loading the builders.
BLOCK_EXTREMAL = "block-extremal"
BLOCK_EXTREMAL_NEGATED = "block-extremal-neg"
AP_MOD_K = "ap-mod-k"
AP_MOD_K_PRODUCT = "ap-product"
AP_MOD_K_PLUS1 = "ap-mod-k1"
AP_GOOD_SHIFT = "ap-good-shift"
AP_TWO_P = "ap-two-p"

# Scan mode names, shared by ``scanners``, ``oracle`` and the CLI's
# ``--mode`` choices.
MODE_BLOCK = "block"
MODE_AP = "ap"
MODE_SMALLSUM = "smallsum"


class ParameterError(ValueError):
    """A precondition on (r, s, k), an index, or an argument was violated."""


def require_even_k(k: int) -> None:
    if k < 2 or k % 2:
        raise ParameterError(f"k must be even and >= 2, got {k}")


def require_tolerance(t: int, k: int) -> None:
    """A small-sum tolerance: 0 <= t < k, of the parity of k."""
    if not 0 <= t < k:
        raise ParameterError(f"t must satisfy 0 <= t < k, got t={t} k={k}")
    if t % 2 != k % 2:
        raise ParameterError(f"t and k must have the same parity, got t={t} k={k}")


def require_nonnegative_q(q: int) -> None:
    if q < 0:
        raise ParameterError(f"q must be nonnegative, got {q}")


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
    """No qualifying shift was found for alpha in [1, alpha_max]; ``proven``
    when that range holds every good shift, so none exists.  The message is
    the whole failure text, the one ``zerosum shift`` prints."""

    def __init__(self, message: str, alpha_max: int, proven: bool = False) -> None:
        super().__init__(message)
        self.alpha_max = alpha_max
        self.proven = proven


class Report:
    """Mixin of every named tuple reported as a v1 JSON object.

    ``to_json_dict`` emits the fields in order, each keyed by its name in
    camelCase unless the class's ``_meta`` entry for it names the key
    (``"json"``).  A 2-tuple field with a ``"pair"`` entry becomes an object
    under those names, and a None field marked ``"optional"`` is left out.
    Values nest: a report is its own object, a SignSeq is ``"b:<bits>"`` and
    a tuple is a list.
    """

    __slots__ = ()
    _meta: dict = {}  # field name -> {"json": key, "pair": names, "optional": True}

    def to_json_dict(self) -> dict:
        out = {}
        for name, value in zip(self._fields, self):
            meta = self._meta.get(name, {})
            if value is None and meta.get("optional"):
                continue
            head, *rest = name.split("_")
            key = meta.get("json", head + "".join(map(str.capitalize, rest)))
            if value is not None and "pair" in meta:
                out[key] = dict(zip(meta["pair"], value))
            else:
                out[key] = _encode(value)
        return out


def _encode(value):
    if isinstance(value, Report):  # before tuple: every report is one
        return value.to_json_dict()
    if isinstance(value, SignSeq):
        return f"b:{value.bitstring()}"
    if isinstance(value, tuple):
        return list(map(_encode, value))
    return value


class Params(Report, namedtuple("Params", "r s k")):
    """The triple (r, s, k): letters -r and +s, target subsequence length k.

    gcd(r, s) = 1 is required; dividing both letters by their gcd leaves
    every zero-sum question unchanged, so nothing is lost.  Divisibility of
    k by r + s is only needed when a zero-sum k-subsequence is actually
    sought, so it is checked per operation, not here.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, k: int) -> Params:
        if r < 1 or s < 1:
            raise ParameterError(f"r and s must be positive, got r={r} s={s}")
        if k < 1:
            raise ParameterError(f"k must be positive, got k={k}")
        if math.gcd(r, s) != 1:
            raise ParameterError(f"gcd(r, s) must be 1, got gcd({r}, {s}) = {math.gcd(r, s)}")
        return super().__new__(cls, r, s, k)

    @classmethod
    def _make(cls, iterable) -> Params:  # so that _replace validates too
        return cls(*iterable)

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


@cache
def _letter_table(r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Byte b as the 8 letters it selects, bit 0 first."""
    return tuple(tuple(s if b >> j & 1 else -r for j in range(8)) for b in range(256))


@cache
def _letter_bytes(r: int, s: int) -> dict[tuple[int, ...], int]:
    """The inverse of ``_letter_table``: 8 letters to their byte."""
    return {letters: b for b, letters in enumerate(_letter_table(r, s))}


def _columns(entries: Iterable[bytes]) -> tuple[bytes | None, ...]:
    """The byte columns of 256 entries of one width: column u maps byte b
    to byte u of entry b, a ``bytes.translate`` table, or None when it maps
    every byte to 0."""
    columns = map(bytes, zip(*entries))
    return tuple(column if column.count(0) < 256 else None for column in columns)


def _expand(octets: bytes, columns: tuple[bytes | None, ...]) -> bytearray:
    """Each octet replaced by its entry in the table of ``columns``, the
    entries joined: one ``translate`` and one strided store per nonzero
    column fill byte u of every entry at C speed."""
    width = len(columns)
    out = bytearray(width * len(octets))
    for u, column in enumerate(columns):
        if column is not None:
            out[u::width] = octets.translate(column)
    return out


@cache
def _packed_table(r: int, s: int) -> tuple[tuple[bytes | None, ...], str] | None:
    """Byte b as its 8 letters packed as machine ints, bit 0 first, held as
    the table's byte columns for ``_expand``, and the ``memoryview`` format
    that reads them; None unless both letters lie in -5..256, the ints
    CPython shares: a wider letter read off a view is a new object per
    position, slower than the tuple table's shared ones."""
    if r > 5 or s > 256:
        return None
    size, fmt = (1, "b") if s < 128 else (2, "h")
    neg, pos = (v.to_bytes(size, sys.byteorder, signed=True) for v in (-r, s))
    entries = (b"".join(pos if b >> j & 1 else neg for j in range(8)) for b in range(256))
    return _columns(entries), fmt


class SignSeq:
    """A finite {-r, +s}-valued sequence with a compact selector encoding.

    Bit i of ``bits`` is 0 for value -r and 1 for value +s at position i.
    ``from_values``, ``from_bitstring``, ``values`` and ``bitstring`` cost
    O(n) in C-level passes.  ``values`` and the prefix sums read the
    letters eight positions per byte of ``bits``, from a 256-entry table
    cached per (r, s).  When both letters lie in -5..256 the table packs
    each byte's letters as machine ints and is held as its byte columns:
    ``_expand`` fills one ``memoryview`` of n ints with one ``translate``
    and one strided store per column, not one lookup per byte, and
    ``tuple`` and ``accumulate`` iterate it in C; wider letters come off a
    table of int tuples, one lookup per byte, whose letter objects are
    shared.  ``from_values`` maps each group of eight values to its byte by
    the inverse dict, the last group padded with -r letters (zero bits), so
    a hashable value equal to a letter, like ``True`` or ``1.0``, counts as
    it.  ``from_bitstring`` and ``bitstring`` are one base-2 int/str
    conversion, which Python's int/str digit limit exempts.  The prefix
    weights cost O(n) once, built lazily and cached; ``total_weight`` is a
    popcount.
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
        the first other value and its position (an input that is neither a
        list nor a tuple is read into a list first, for that second pass)."""
        s, neg_r = params.s, -params.r
        if not isinstance(values, (list, tuple)):
            values = list(values)
        octets = zip_longest(*[iter(values)] * 8, fillvalue=neg_r)
        try:
            head = bytes(map(_letter_bytes(params.r, s).get, octets))
        except TypeError:  # a foreign value gave None, or was unhashable
            n, v = next(
                (n, v)
                for n, v in enumerate(values)
                if type(v).__hash__ is None or (v != s and v != neg_r)
            )
            raise ParameterError(
                f"value {v} at position {n} is neither -r = {neg_r} nor s = {s}"
            ) from None
        return cls(params, len(values), int.from_bytes(head, "little"))

    @classmethod
    def from_bitstring(cls, params: Params, bitstring: str) -> "SignSeq":
        # int(x, 2) alone would accept "_", spaces, a sign, "0b" and non-ASCII digits.
        if not bitstring.isascii() or bitstring.encode().translate(None, b"01"):
            i = next(i for i, c in enumerate(bitstring) if c not in "01")
            raise ParameterError(f"bad selector character {bitstring[i]!r} at position {i}")
        return cls(params, len(bitstring), int(bitstring[::-1] or "0", 2))

    def _letters(self) -> Iterable[int]:
        r, s = self.params.r, self.params.s
        octets = self.bits.to_bytes((self.n + 7) // 8, "little")
        packed = _packed_table(r, s)
        if packed is None:
            table = _letter_table(r, s)
            return islice(chain.from_iterable(map(table.__getitem__, octets)), self.n)
        columns, fmt = packed
        return memoryview(_expand(octets, columns)).cast(fmt)[:self.n]

    def values(self) -> tuple[int, ...]:
        return tuple(self._letters())

    def bitstring(self) -> str:
        return format(self.bits, "b").zfill(self.n)[::-1] if self.n else ""

    def prefix_weights(self) -> tuple[int, ...]:
        """Prefix sums P with P[i] = weight of positions [0, i)."""
        if self._prefix is None:
            self._prefix = tuple(accumulate(self._letters(), initial=0))
        return self._prefix

    def total_weight(self) -> int:
        ones = self.bits.bit_count()
        return self.params.s * ones - self.params.r * (self.n - ones)

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

    def __repr__(self) -> str:
        body = self.bitstring() if self.n <= 64 else f"<{self.n} positions>"
        return f"SignSeq(r={self.params.r}, s={self.params.s}, n={self.n}, {body})"


class WeightRange(Report, namedtuple("WeightRange", "alpha low step count")):
    """All achievable total weights of a {-r, s}-sequence of length alpha.

    An arithmetic progression from -r*alpha to s*alpha with alpha + 1 terms
    and common difference r + s.
    """

    __slots__ = ()


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
