"""The v1 sequence file format.

Line 1 is exactly ``# zerosum v1 r=<r> s=<s> n=<n>`` with decimal integers.
The body is either whitespace-separated signed values, each -r or +s and
n in total, or a single line ``b:<bitstring>`` of length n where 0 means
-r and 1 means +s.  A length-0 sequence has an empty body.  Values written
as ``str(-r)`` and ``str(s)`` (as ``format_sequence`` writes them) map
straight to selector letters; any other spelling, like ``+2`` or ``02``,
is read through ``int()``.
"""

from __future__ import annotations

import re
from pathlib import Path

from .core import ParameterError, Params, SignSeq

_HEADER_RE = re.compile(
    r"^# zerosum v1 r=(\d+) s=(\d+) n=(\d+)\s*$"
)

ENCODING_VALUES = "values"
ENCODING_BITS = "bits"


class SequenceFileError(ValueError):
    """The file does not conform to the v1 sequence format."""


def format_sequence(seq: SignSeq, encoding: str = ENCODING_VALUES) -> str:
    header = f"# zerosum v1 r={seq.params.r} s={seq.params.s} n={seq.n}"
    if seq.n == 0:
        return header + "\n"
    if encoding == ENCODING_BITS:
        return f"{header}\nb:{seq.bitstring()}\n"
    if encoding == ENCODING_VALUES:
        token = {"0": str(-seq.params.r), "1": str(seq.params.s)}
        return f"{header}\n{' '.join(map(token.__getitem__, seq.bitstring()))}\n"
    raise ParameterError(f"unknown encoding {encoding!r}")


def write_sequence(path: str | Path, seq: SignSeq, encoding: str = ENCODING_VALUES) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_sequence(seq, encoding))


def parse_sequence(text: str, k: int = 1) -> SignSeq:
    """Parse the v1 format; ``k`` seeds the Params triple for later scans."""
    lines = text.splitlines()
    if not lines:
        raise SequenceFileError("empty file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise SequenceFileError(
            f"bad header {lines[0]!r}; expected '# zerosum v1 r=<r> s=<s> n=<n>'"
        )
    r, s, n = (int(g) for g in match.groups())
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
    tokens = " ".join(body).split()
    if len(tokens) != n:
        raise SequenceFileError(f"expected {n} values, found {len(tokens)}")
    try:  # canonical tokens map straight to selector letters
        bitstring = "".join(map({str(-r): "0", str(s): "1"}.get, tokens))
    except TypeError:  # some token is not canonical: read each through int()
        try:
            return SignSeq.from_values(params, map(int, tokens))
        except ParameterError as exc:
            raise SequenceFileError(str(exc)) from exc
        except ValueError as exc:  # from int(): from_values reads every token first
            raise SequenceFileError(f"non-integer value in body: {exc}") from exc
    return SignSeq.from_bitstring(params, bitstring)


def read_sequence(path: str | Path, k: int = 1) -> SignSeq:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise SequenceFileError(f"non-ASCII byte at offset {exc.start}") from exc
    return parse_sequence(text, k=k)
