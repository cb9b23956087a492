"""The table-driven codec against the per-letter and per-token code it
replaced, kept here as the reference.

``format_sequence`` must write the same bytes, ``parse_sequence`` must give
the same sequence or the same error on canonical text and on every
perturbation of it, and ``SignSeq.from_values`` must accept what the
per-value dict accepted and name the same first foreign value.
"""

import random
from collections import deque

import pytest

from zerosum import (
    ParameterError,
    Params,
    SequenceFileError,
    SignSeq,
    format_sequence,
    parse_sequence,
)
from zerosum.seqfile import ENCODING_BITS, ENCODING_VALUES

ALPHABETS = [(1, 1), (1, 2), (2, 3), (1, 10), (10, 1), (7, 123)]


def ref_format(seq, encoding=ENCODING_VALUES):
    """One dict lookup per letter of the bitstring."""
    header = f"# zerosum v1 r={seq.params.r} s={seq.params.s} n={seq.n}"
    if encoding not in (ENCODING_VALUES, ENCODING_BITS):
        raise ParameterError(f"unknown encoding {encoding!r}")
    if seq.n == 0:
        return header + "\n"
    if encoding == ENCODING_BITS:
        return f"{header}\nb:{seq.bitstring()}\n"
    token = {"0": str(-seq.params.r), "1": str(seq.params.s)}
    return f"{header}\n{' '.join(map(token.__getitem__, seq.bitstring()))}\n"


def ref_from_values(params, values):
    """One two-entry dict lookup per value, then a second pass for the error."""
    s, neg_r = params.s, -params.r
    if iter(values) is values:
        values = list(values)
    try:
        bitstring = "".join(map({s: "1", neg_r: "0"}.get, values))
    except TypeError:
        n, v = next(
            (n, v)
            for n, v in enumerate(values)
            if type(v).__hash__ is None or (v != s and v != neg_r)
        )
        raise ParameterError(
            f"value {v} at position {n} is neither -r = {neg_r} nor s = {s}"
        ) from None
    return SignSeq.from_bitstring(params, bitstring)


def ref_parse(text, k=1):
    """The values body through split: canonical tokens by a dict, any other
    spelling through int()."""
    lines = text.splitlines()
    header = lines[0].split()
    r, s, n = (int(field.partition("=")[2]) for field in header[3:])
    params = Params(r, s, max(k, 1))
    tokens = " ".join(line for line in lines[1:] if line.strip()).split()
    if len(tokens) != n:
        raise SequenceFileError(f"expected {n} values, found {len(tokens)}")
    try:
        bitstring = "".join(map({str(-r): "0", str(s): "1"}.get, tokens))
    except TypeError:
        try:
            return ref_from_values(params, map(int, tokens))
        except ParameterError as exc:
            raise SequenceFileError(str(exc)) from exc
        except ValueError as exc:
            raise SequenceFileError(f"non-integer value in body: {exc}") from exc
    return SignSeq.from_bitstring(params, bitstring)


def outcome(decode, *args):
    """A decoded sequence as (params, n, bits), an error as (type, message)."""
    try:
        seq = decode(*args)
    except (ParameterError, SequenceFileError) as exc:
        return type(exc), str(exc)
    return seq.params, seq.n, seq.bits


def sequences(rng, r, s, n):
    """All -r, all s, and two random selectors of length n."""
    params = Params(r, s, 1)
    for bits in {0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n) >> (n // 3)}:
        yield SignSeq(params, n, bits)


@pytest.mark.parametrize("r,s", ALPHABETS)
def test_format_matches_the_per_token_reference(r, s):
    rng = random.Random(f"format {r} {s}")
    for n in [*range(71), 100_003, 131_072]:
        for seq in sequences(rng, r, s, n):
            for encoding in (ENCODING_VALUES, ENCODING_BITS):
                assert format_sequence(seq, encoding) == ref_format(seq, encoding)


@pytest.mark.parametrize("n", [0, 2])
def test_format_rejects_an_unknown_encoding_at_every_length(n):
    seq = SignSeq(Params(1, 1, 2), n, 0)
    with pytest.raises(ParameterError, match="^unknown encoding 'bogus'$"):
        format_sequence(seq, "bogus")


@pytest.mark.parametrize("r,s", ALPHABETS)
def test_parse_of_canonical_text_matches_the_reference(r, s):
    rng = random.Random(f"parse {r} {s}")
    for n in [*range(1, 71), 100_003]:
        for seq in sequences(rng, r, s, n):
            text = format_sequence(seq)
            assert outcome(parse_sequence, text, 5) == outcome(ref_parse, text, 5)
            assert parse_sequence(text, 5) == seq


def perturbations(rng, seq):
    """Text near the canonical form of ``seq``: other layouts, two tokens
    glued, other spellings, a wrong n, and foreign or non-integer tokens in
    a full byte of the selector and in its last partial byte."""
    r, s, n = seq.params.r, seq.params.s, seq.n
    header = f"# zerosum v1 r={r} s={s} n={n}"
    tokens = format_sequence(seq).splitlines()[1].split(" ")
    body = " ".join(tokens)
    yield f"{header}\n{body.replace(' ', '  ')}\n"
    yield f"{header}\n{body.replace(' ', chr(10))}\n"
    yield f"{header}\n{body}   \n"
    yield f"{header}\n {body}\n"
    yield f"{header}\n{body.replace(' ', chr(9))}\n"
    yield f"{header}\r\n{body}\r\n"
    yield f"{header}\n{body}\n\n\n"
    yield f"# zerosum v1 r={r} s={s} n={n + 1}\n{body}\n"
    yield f"# zerosum v1 r={r} s={s} n={n - 1}\n{body}\n"
    yield f"{header}\n{body} {tokens[-1]}\n"
    yield f"{header}\n{body.replace(' ', '', 1)}\n"
    full = n - n % 8
    positions = {rng.randrange(full)} if full else set()
    if full < n:
        positions.add(rng.randrange(full, n))
    for i in positions:
        spelled = {str(s): (f"+{s}", f"0{s}"), str(-r): (f"-0{r}",)}[tokens[i]]
        for token in (*spelled, str(r + s + 1), str(-r - s), "x", "1.0", "--1"):
            yield f"{header}\n{' '.join(tokens[:i] + [token] + tokens[i + 1:])}\n"
        # A spelling one letter longer than its token meets a header one
        # longer; "x" takes the place of two tokens.
        for token in spelled:
            longer = " ".join(tokens[:i] + [token] + tokens[i + 1:])
            yield f"# zerosum v1 r={r} s={s} n={n + 1}\n{longer}\n"
        yield f"{header}\n{' '.join(tokens[:i] + ['x'] + tokens[i + 2:])}\n"


@pytest.mark.parametrize("r,s", ALPHABETS)
def test_parse_of_perturbed_text_matches_the_reference(r, s):
    rng = random.Random(f"perturb {r} {s}")
    for n in (1, 5, 8, 9, 16, 23, 64, 70):
        for seq in sequences(rng, r, s, n):
            for text in perturbations(rng, seq):
                assert outcome(parse_sequence, text, 5) == outcome(ref_parse, text, 5), text


def test_from_values_takes_a_deque_and_a_generator():
    rng = random.Random(3)
    params = Params(2, 3, 5)
    for n in (0, 7, 8, 21, 1000):
        values = [rng.choice((-2, 3)) for _ in range(n)]
        expected = outcome(ref_from_values, params, values)
        for source in (deque(values), (v for v in values), values, tuple(values)):
            assert outcome(SignSeq.from_values, params, source) == expected


def test_from_values_counts_values_equal_to_a_letter_in_either_part():
    # Positions 0..15 fill two full bytes; 16..20 are the partial byte.
    values = [True, 1.0, -1.0, -1, 1, True, -1, 1.0] * 2 + [1.0, True, -1.0, -1, 1]
    seq = SignSeq.from_values(Params(1, 1, 2), values)
    assert seq == ref_from_values(Params(1, 1, 2), values)
    assert seq.bitstring() == "110011011100110111001"


@pytest.mark.parametrize("bad", [2, 0, "1", 1.5, None, [1], (1,)])
@pytest.mark.parametrize("position", [3, 15, 16, 20])
def test_from_values_names_the_first_foreign_value_in_either_part(bad, position):
    params = Params(1, 1, 2)
    values = [1, -1, -1, 1, 1] * 4 + [-1]
    values[position] = bad
    message = f"value {bad} at position {position} is neither -r = -1 nor s = 1"
    for source in (values, iter(values), deque(values)):
        assert outcome(SignSeq.from_values, params, source) == (ParameterError, message)
    assert outcome(ref_from_values, params, values) == (ParameterError, message)
