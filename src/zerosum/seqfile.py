"""The v1 sequence file format.

Line 1 is exactly ``# zerosum v1 r=<r> s=<s> n=<n>`` with decimal integers.
The body is either whitespace-separated signed values, each -r or +s and
n in total, or a single line ``b:<bitstring>`` of length n where 0 means
-r and 1 means +s.  A length-0 sequence has an empty body.

``format_sequence`` writes the values as ``str(-r)`` and ``str(s)`` joined
by single spaces, eight tokens per lookup of a byte of the selector bits in
a 256-entry table cached per alphabet.  ``parse_sequence`` decodes such
canonical ASCII text by deleting its digits and replacing each ``"- "``
and each remaining space with a selector letter, and accepts the guess
only if formatting it back gives the text.  Anything else, like ``+2``,
``02``, doubled spaces or non-ASCII text, goes through ``split`` and reads
each token through ``int()``.
"""

from __future__ import annotations

import os
from functools import cache

from .core import ParameterError, Params, SignSeq

ENCODING_VALUES = "values"
ENCODING_BITS = "bits"


class SequenceFileError(ValueError):
    """The file does not conform to the v1 sequence format."""


@cache
def _token_table(r: int, s: int) -> tuple[str, ...]:
    """Byte b as the 8 tokens it selects, bit 0 first, each followed by a
    space."""
    neg, pos = f"{-r} ", f"{s} "
    return tuple("".join(pos if b >> j & 1 else neg for j in range(8)) for b in range(256))


def _values_body(seq: SignSeq) -> str:
    """The n tokens of ``seq`` joined by single spaces.

    The table join writes 8 tokens per byte; the padding bits of the last
    byte are 0, so all it writes past the cut are -r tokens."""
    r, s, n = seq.params.r, seq.params.s, seq.n
    ones = seq.bits.bit_count()
    octets = seq.bits.to_bytes((n + 7) // 8, "little")
    body = "".join(map(_token_table(r, s).__getitem__, octets))
    return body[:(n - ones) * len(str(-r)) + ones * len(str(s)) + n - 1]


def format_sequence(seq: SignSeq, encoding: str = ENCODING_VALUES) -> str:
    if encoding not in (ENCODING_VALUES, ENCODING_BITS):
        raise ParameterError(f"unknown encoding {encoding!r}")
    header = f"# zerosum v1 r={seq.params.r} s={seq.params.s} n={seq.n}"
    if seq.n == 0:
        return header + "\n"
    if encoding == ENCODING_BITS:
        return f"{header}\nb:{seq.bitstring()}\n"
    return f"{header}\n{_values_body(seq)}\n"


def write_sequence(path: str | os.PathLike, seq: SignSeq, encoding: str = ENCODING_VALUES) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_sequence(seq, encoding))


def parse_sequence(text: str, k: int = 1) -> SignSeq:
    """Parse the v1 format; ``k`` seeds the Params triple for later scans."""
    lines = text.splitlines()
    if not lines:
        raise SequenceFileError("empty file")
    # Trailing whitespace and the digits are what str.isspace and
    # str.isdecimal accept.
    words = lines[0].rstrip().split(" ")
    keys, fields = [w[:2] for w in words[3:]], [w[2:] for w in words[3:]]
    if (words[:3] != ["#", "zerosum", "v1"] or keys != ["r=", "s=", "n="]
            or not all(map(str.isdecimal, fields))):
        raise SequenceFileError(
            f"bad header {lines[0]!r}; expected '# zerosum v1 r=<r> s=<s> n=<n>'"
        )
    r, s, n = map(int, fields)
    try:
        params = Params(r, s, max(k, 1))
    except ParameterError as exc:
        raise SequenceFileError(str(exc)) from exc
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        if n != 0:
            raise SequenceFileError(f"header says n={n} but the body is empty")
        return SignSeq(params, 0, 0)
    if body[0].startswith("b:"):
        if len(body) != 1:
            raise SequenceFileError("bitstring body must be a single line")
        bitstring = body[0][2:].strip()
        if len(bitstring) != n:
            raise SequenceFileError(
                f"bitstring length {len(bitstring)} does not match n={n}"
            )
        try:
            return SignSeq.from_bitstring(params, bitstring)
        except ParameterError as exc:
            raise SequenceFileError(str(exc)) from exc
    joined = " ".join(body)
    if joined.isascii():
        # Canonical text: with the digits gone, each token and its space
        # are "- " (-r) or " " (s), one selector letter each.
        guess = (joined + " ").encode().translate(None, b"0123456789")
        guess = guess.replace(b"- ", b"0").replace(b" ", b"1")
        if len(guess) == n and not guess.translate(None, b"01"):
            seq = SignSeq(params, n, int(guess[::-1], 2))
            if _values_body(seq) == joined:
                return seq
    tokens = joined.split()
    if len(tokens) != n:
        raise SequenceFileError(f"expected {n} values, found {len(tokens)}")
    try:
        return SignSeq.from_values(params, map(int, tokens))
    except ParameterError as exc:
        raise SequenceFileError(str(exc)) from exc
    except ValueError as exc:  # from int(): from_values reads every token first
        raise SequenceFileError(f"non-integer value in body: {exc}") from exc


def read_sequence(path: str | os.PathLike, k: int = 1) -> SignSeq:
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SequenceFileError(f"non-ASCII byte at offset {exc.start}") from exc
    return parse_sequence(text, k=k)
