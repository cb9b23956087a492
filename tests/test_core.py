"""Core type tests: the SignSeq codec, weights, weight ranges.

Expected values for the range descriptors are checked against
direct enumeration, which stays the oracle for the arithmetic shortcuts.
The linear codec is checked against a per-bit reference kept here.
"""

import copy
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zerosum import (
    ParameterError,
    Params,
    SequenceFileError,
    SignSeq,
    format_sequence,
    is_good_shift,
    parse_sequence,
    weight,
    weight_range,
)
from zerosum.core import _expand, _packed_table
from zerosum.scanners import _spread_table

SMALL_PARAMS = [Params(1, 1, 2), Params(1, 2, 3), Params(2, 3, 5), Params(3, 4, 7)]


def test_params_validation():
    with pytest.raises(ParameterError):
        Params(2, 4, 6)
    with pytest.raises(ParameterError):
        Params(0, 1, 2)
    with pytest.raises(ParameterError):
        Params(1, 1, 0)
    with pytest.raises(ParameterError):
        Params(r=2, s=4, k=6)
    with pytest.raises(ParameterError):
        Params(r=0, s=1, k=2)
    with pytest.raises(ParameterError):
        Params(1, 2, 6)._replace(r=2, s=4)
    Params(1, 1, 1).require_block_divisibility  # attribute exists
    with pytest.raises(ParameterError):
        Params(1, 2, 4).require_block_divisibility()


@pytest.mark.parametrize("make,message", [
    (lambda: SignSeq(Params(1, 1, 2), -1, 0), "sequence length must be nonnegative, got -1"),
    (lambda: SignSeq(Params(1, 1, 2), 2, 4), "selector bits out of range for length"),
    (lambda: weight_range(-1, Params(1, 1, 2)), "alpha must be nonnegative, got -1"),
    (lambda: is_good_shift(Params(1, 2, 6), -1), "alpha must be nonnegative, got -1"),
], ids=["negative-length", "bits-past-length", "negative-alpha", "negative-shift"])
def test_out_of_range_arguments(make, message):
    with pytest.raises(ParameterError) as exc_info:
        make()
    assert str(exc_info.value) == message


def test_weight_balanced_pair():
    seq = SignSeq.from_values(Params(1, 1, 2), [-1, 1])
    assert weight(seq, [0, 1]) == 0


def test_weight_block_extremal_values():
    # The length-9 extremal sequence for (1, 2, 6); its total cancels.
    seq = SignSeq.from_values(Params(1, 2, 6), [-1, -1, -1, 2, 2, 2, -1, -1, -1])
    assert weight(seq, range(9)) == 0
    assert seq.total_weight() == 0


def test_weight_index_out_of_range():
    seq = SignSeq.from_values(Params(1, 1, 2), [-1, 1])
    with pytest.raises(ParameterError):
        weight(seq, [0, 2])


def test_signseq_encodings_round_trip():
    params = Params(2, 3, 5)
    seq = SignSeq.from_values(params, [-2, 3, 3, -2, -2, 3])
    assert seq.bitstring() == "011001"
    assert SignSeq.from_bitstring(params, "011001") == seq
    assert seq.values() == (-2, 3, 3, -2, -2, 3)
    assert seq.value(1) == 3
    assert len(seq) == 6


def test_signseq_rejects_foreign_values():
    with pytest.raises(ParameterError):
        SignSeq.from_values(Params(1, 2, 3), [-1, 1])


def ref_from_values(params, values):
    """Reference decoder: one shift-and-OR per position, O(n^2)."""
    bits = 0
    n = 0
    for v in values:
        if v == params.s:
            bits |= 1 << n
        elif v != -params.r:
            raise ParameterError(
                f"value {v} at position {n} is neither -r = {-params.r} "
                f"nor s = {params.s}"
            )
        n += 1
    return n, bits


def ref_from_bitstring(bitstring):
    """Reference decoder for the selector text, per character."""
    bits = 0
    for i, ch in enumerate(bitstring):
        if ch == "1":
            bits |= 1 << i
        elif ch != "0":
            raise ParameterError(f"bad selector character {ch!r} at position {i}")
    return len(bitstring), bits


def ref_values(params, n, bits):
    """Reference encoder: one shift per position, O(n^2)."""
    return tuple(params.s if (bits >> i) & 1 else -params.r for i in range(n))


def ref_bitstring(n, bits):
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def ref_prefix_weights(params, n, bits):
    acc = [0]
    total = 0
    for i in range(n):
        total += params.s if (bits >> i) & 1 else -params.r
        acc.append(total)
    return tuple(acc)


def check_codec_against_reference(params, n, bits):
    seq = SignSeq(params, n, bits)
    values = ref_values(params, n, bits)
    bitstring = ref_bitstring(n, bits)
    assert seq.values() == values
    assert seq.bitstring() == bitstring
    assert seq.prefix_weights() == ref_prefix_weights(params, n, bits)
    assert ref_from_values(params, values) == (n, bits)
    assert ref_from_bitstring(bitstring) == (n, bits)
    from_values = SignSeq.from_values(params, (v for v in values))
    from_bitstring = SignSeq.from_bitstring(params, bitstring)
    for decoded in (from_values, from_bitstring):
        assert (decoded.n, decoded.bits) == (n, bits)
    header = f"# zerosum v1 r={params.r} s={params.s} n={n}"
    if n == 0:
        expected = {"values": header + "\n", "bits": header + "\n"}
    else:
        expected = {
            "values": header + "\n" + " ".join(str(v) for v in values) + "\n",
            "bits": f"{header}\nb:{bitstring}\n",
        }
    for encoding, text in expected.items():
        assert format_sequence(seq, encoding) == text
        assert parse_sequence(text, params.k) == seq


@given(st.data())
@settings(max_examples=300)
def test_codec_matches_per_bit_reference(data):
    """Encode, decode, prefix sums and the v1 text agree with the per-bit loops.

    ``high_zeros`` clears the top bits, so sequences end in runs of -r.
    """
    params = data.draw(st.sampled_from(SMALL_PARAMS))
    n = data.draw(st.integers(min_value=0, max_value=300))
    high_zeros = data.draw(st.integers(min_value=0, max_value=n))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (n - high_zeros)) - 1))
    check_codec_against_reference(params, n, bits)


def test_codec_matches_reference_past_the_int_str_digit_limit():
    """Base-2 conversions are exempt from the int/str digit limit."""
    rng = random.Random(5)
    for n in (4301, 20000):
        check_codec_against_reference(Params(2, 3, 5), n, rng.getrandbits(n - 7))


@pytest.mark.parametrize(
    "r,s,packed",
    [
        # letters within -5..256 read off the packed view, one byte or two
        (1, 1, "b"), (5, 127, "b"), (5, 128, "h"), (5, 256, "h"),
        # wider letters, in 1, 2, 4 and 8 bytes and past 64 bits, read off the tuple table
        (6, 1, None), (1, 257, None), (128, 127, None), (129, 127, None),
        (40000, 1, None), (2**31 + 1, 1, None), (2**64 + 1, 2**64, None),
    ],
)
def test_codec_matches_reference_across_letter_widths(r, s, packed):
    """Both letter readers agree with the per-bit reference, on random bits
    and on bits whose top positions are cleared (a last octet of -r)."""
    assert (_packed_table(r, s) or (None, None))[1] == packed
    rng = random.Random(r * 31 + s)
    params = Params(r, s, r + s)
    for n in (0, 1, 7, 8, 9, 300):
        for bits in (rng.getrandbits(n), rng.getrandbits(n // 2)):
            check_codec_against_reference(params, n, bits)


def _spread_entry(b, w):
    """Bit j of byte b at bit j*w, as w little-endian bytes."""
    return sum(1 << j * w for j in range(8) if b >> j & 1).to_bytes(w, "little")


def _packed_entry(b, r, s, size):
    """The 8 letters byte b selects, bit 0 first, as machine ints of ``size`` bytes."""
    return b"".join(
        (s if b >> j & 1 else -r).to_bytes(size, sys.byteorder, signed=True) for j in range(8)
    )


def test_expand_matches_the_per_octet_join():
    """The column expand against one table lookup per octet, joined: every
    spread width 1..24 (under 8 columns, and from 9 on all-zero columns)
    and the packed letter tables in one byte and in two."""
    tables = [(f"spread w={w}", _spread_table(w), [_spread_entry(b, w) for b in range(256)])
              for w in range(1, 25)]
    for r, s, size in ((1, 1, 1), (5, 127, 1), (5, 128, 2), (1, 256, 2)):
        columns, fmt = _packed_table(r, s)
        assert fmt == {1: "b", 2: "h"}[size]
        entries = [_packed_entry(b, r, s, size) for b in range(256)]
        tables.append((f"packed {r},{s}", columns, entries))
    rng = random.Random(2024)
    for name, columns, entries in tables:
        for length in (0, 1, 7, 300):
            octets = rng.randbytes(length)
            expected = b"".join(map(entries.__getitem__, octets))
            assert _expand(octets, columns) == expected, (name, length)
        assert _expand(bytes(range(256)), columns) == b"".join(entries), name


STRICT_BITSTRINGS = [
    ("1_0", 1),
    (" 10", 0),
    ("10 ", 2),
    ("+10", 0),
    ("-10", 0),
    ("0b10", 1),
    ("\uff110", 0),
]


@pytest.mark.parametrize("text,position", STRICT_BITSTRINGS)
def test_from_bitstring_rejects_what_int_base_2_accepts(text, position):
    message = f"bad selector character {text[position]!r} at position {position}"
    with pytest.raises(ParameterError) as exc:
        SignSeq.from_bitstring(Params(1, 1, 2), text)
    assert str(exc.value) == message
    with pytest.raises(ParameterError) as ref_exc:
        ref_from_bitstring(text)
    assert str(ref_exc.value) == message


@pytest.mark.parametrize("text,position", STRICT_BITSTRINGS)
def test_parse_sequence_rejects_what_int_base_2_accepts(text, position):
    # The reader strips whitespace around a b: body, so the padded cases
    # fail the length check against the header.
    file_text = f"# zerosum v1 r=1 s=1 n={len(text)}\nb:{text}\n"
    if text != text.strip():
        message = f"bitstring length {len(text.strip())} does not match n={len(text)}"
    else:
        message = f"bad selector character {text[position]!r} at position {position}"
    with pytest.raises(SequenceFileError) as exc:
        parse_sequence(file_text)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [2, 0, "1", 1.5, [1]])
def test_from_values_rejects_foreign_values(bad):
    params = Params(1, 1, 2)
    values = [1, -1, bad, 1]
    message = f"value {bad} at position 2 is neither -r = -1 nor s = 1"
    for source in (values, iter(values)):
        with pytest.raises(ParameterError) as exc:
            SignSeq.from_values(params, source)
        assert str(exc.value) == message
    with pytest.raises(ParameterError) as ref_exc:
        ref_from_values(params, values)
    assert str(ref_exc.value) == message


def test_from_values_accepts_values_equal_to_a_letter():
    seq = SignSeq.from_values(Params(1, 1, 2), [True, 1.0, -1.0, -1])
    assert seq.bitstring() == "1100"


def test_parse_sequence_reports_non_integer_before_foreign_value():
    with pytest.raises(SequenceFileError, match="^non-integer value in body: "):
        parse_sequence("# zerosum v1 r=1 s=1 n=3\n5 -1 x\n")


def test_parse_sequence_reads_non_canonical_tokens_through_int():
    """Tokens other than str(-r) and str(s) still parse by value."""
    canonical = parse_sequence("# zerosum v1 r=1 s=2 n=6\n2 2 -1 -1 2 -1\n")
    mixed = parse_sequence("# zerosum v1 r=1 s=2 n=6\n+2 02 -1 -01 2 -1\n")
    assert mixed == canonical
    assert canonical.bitstring() == "110010"
    rng = random.Random(11)
    params = Params(2, 3, 5)
    seq = SignSeq(params, 1000, rng.getrandbits(1000))
    spellings = {-2: ("-2", "-02", "-002"), 3: ("3", "+3", "03", "+03")}
    body = " ".join(rng.choice(spellings[v]) for v in seq.values())
    assert parse_sequence(f"# zerosum v1 r=2 s=3 n=1000\n{body}\n", 5) == seq


def test_parse_sequence_keeps_multi_digit_letters_apart():
    """At (11, 1) the tokens -11 and 1 share a digit but not a letter."""
    seq = parse_sequence("# zerosum v1 r=11 s=1 n=5\n-11 1 1 -11 1\n")
    assert seq.bitstring() == "01101"
    assert seq.values() == (-11, 1, 1, -11, 1)
    for token in ("-1", "11"):
        with pytest.raises(SequenceFileError) as exc:
            parse_sequence(f"# zerosum v1 r=11 s=1 n=3\n-11 {token} 1\n")
        assert str(exc.value) == (
            f"value {int(token)} at position 1 is neither -r = -11 nor s = 1"
        )


@pytest.mark.parametrize(
    "body,message",
    [
        ("-1 3 2 2", "value 3 at position 1 is neither -r = -1 nor s = 2"),
        ("-1 +2 03 2", "value 3 at position 2 is neither -r = -1 nor s = 2"),
        # every token is read before any is checked, so x is named, not 1
        ("-1 2 1 x", "non-integer value in body: "
         "invalid literal for int() with base 10: 'x'"),
        ("2.0 2 -1 2", "non-integer value in body: "
         "invalid literal for int() with base 10: '2.0'"),
    ],
)
def test_parse_sequence_messages_for_foreign_and_non_integer_tokens(body, message):
    with pytest.raises(SequenceFileError) as exc:
        parse_sequence(f"# zerosum v1 r=1 s=2 n=4\n{body}\n")
    assert str(exc.value) == message


def test_from_values_takes_any_iterable():
    rng = random.Random(20000)
    params = Params(2, 3, 5)
    values = [rng.choice((-2, 3)) for _ in range(20000)]
    expected = ref_from_values(params, values)
    for source in ((v for v in values), values, tuple(values)):
        seq = SignSeq.from_values(params, source)
        assert (seq.n, seq.bits) == expected


def test_prefix_and_window_weights():
    params = Params(1, 2, 3)
    seq = SignSeq.from_values(params, [-1, 2, 2, -1, -1, -1])
    assert seq.prefix_weights() == (0, -1, 1, 3, 2, 1, 0)
    assert seq.window_weight(1, 3) == 3
    assert seq.window_weight(0, 6) == 0
    with pytest.raises(ParameterError):
        seq.window_weight(4, 3)


@given(st.data())
@settings(max_examples=200)
def test_window_weights_vanish_mod_r_plus_s(data):
    """Any k consecutive values sum to 0 mod r + s when (r + s) | k."""
    params = data.draw(st.sampled_from(SMALL_PARAMS))
    m = params.modulus
    k = m * data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=k, max_value=k + 20))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    seq = SignSeq(params, n, bits)
    for start in range(n - k + 1):
        assert seq.window_weight(start, k) % m == 0


@given(st.data())
@settings(max_examples=200)
def test_weight_magnitude_bound(data):
    """|weight(B)| <= s|B| when the weight is >= 0, and <= r|B| when <= 0."""
    params = data.draw(st.sampled_from(SMALL_PARAMS))
    n = data.draw(st.integers(min_value=1, max_value=24))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    seq = SignSeq(params, n, bits)
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
    )
    w = weight(seq, indices)
    if w >= 0:
        assert abs(w) <= params.s * len(indices)
    if w <= 0:
        assert abs(w) <= params.r * len(indices)


@pytest.mark.parametrize(
    "alpha,r,s,expected",
    [
        (0, 1, 2, (0,)),
        (1, 1, 1, (-1, 1)),
        (2, 1, 2, (-2, 1, 4)),
    ],
)
def test_weight_range_examples(alpha, r, s, expected):
    wr = weight_range(alpha, Params(r, s, r + s))
    assert wr.values() == expected
    assert wr.count == alpha + 1
    assert wr.step == r + s


def test_weight_range_is_a_record_of_its_four_fields():
    # Copying and _asdict read the fields, not the weights.
    wr = weight_range(3, Params(1, 2, 3))
    assert copy.copy(wr) == wr
    assert list(wr._asdict()) == ["alpha", "low", "step", "count"]
    assert wr._asdict() == {"alpha": 3, "low": -3, "step": 3, "count": 4}


def test_weight_range_membership_matches_brute_force():
    """Enumerate all 2^alpha sequences and compare total-weight sets."""
    params = Params(1, 2, 3)
    for alpha in range(17):
        achieved = set()
        for bits in range(1 << alpha):
            total = 0
            for i in range(alpha):
                total += params.s if (bits >> i) & 1 else -params.r
            achieved.add(total)
        wr = weight_range(alpha, params)
        assert achieved == set(wr.values())
        lo, hi = wr.low - 5, wr.high + 5
        for w in range(lo, hi + 1):
            assert (w in wr) == (w in achieved)


@given(
    st.sampled_from(SMALL_PARAMS),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=60)
def test_weight_range_membership_random_params(params, alpha):
    """Membership test agrees with per-bit enumeration for random (r, s)."""
    achieved = set()
    for bits in range(1 << alpha):
        total = sum(
            params.s if (bits >> i) & 1 else -params.r for i in range(alpha)
        )
        achieved.add(total)
    wr = weight_range(alpha, params)
    assert set(wr.values()) == achieved
