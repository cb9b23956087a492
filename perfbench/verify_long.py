"""Workload verify-long: long {-r,s} sequences through the v1 codec and the
block scanners.

Each sequence is formatted in both encodings, parsed back, decoded and
re-encoded by the core codec on fresh objects, and scanned by
``block_scan``, ``smallsum_block_scan`` (alphabet (1,1) only) and
``interpolation_check`` on warm prefix sums.

Most inputs are *avoiding*: a seeded random period-k pattern with
c != c* = sk/(r+s) negative letters, so every k-window weighs
sk - (r+s)c != 0.  They force full scans, and their verdicts and
``min_abs_weight`` follow in closed form.  The rest switch at a seeded late
position p to a zero-sum period-k pattern; the bench checks that no window
starting before p weighs zero, so the block scan must stop at p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from common import Clock, PassResult, LayerSpec, VALUE, ladder
from zerosum import (
    Params,
    SignSeq,
    block_scan,
    format_sequence,
    interpolation_check,
    parse_sequence,
    smallsum_block_scan,
)
from zerosum.seqfile import ENCODING_BITS, ENCODING_VALUES

NAME = "verify-long"
THROUGHPUT = ("verify_positions_per_s", "positions taken from v1 text to a checked verdict")
OP = "one sequence: format x2, parse x2, codec, scans"
# Pass time follows the machine-speed probe fully: like the probe, a pass
# is in-process pure Python dominated by shifts of large ints (measured
# slope of log pass time on log probe time across runs: 0.86).
SPEED_EXPONENT = 1.0

# (1,1) climbs to 2^17 so that a quadratic codec shows as a ~4x step at
# the ladder top; the other alphabets use sizes 3072 * 2^j, which never
# coincide with the (1,1) sizes, so each ladder stays separate.
LADDERS = {(1, 1): 16384, (1, 2): 3072, (2, 3): 3072}
CENSUS_LADDERS = {(1, 1): 1024, (1, 2): 384, (2, 3): 384}
RUNGS = 4
PLANTED_N = 16384
CENSUS_PLANTED_N = 1024

LAYERS = (
    *ladder("core.from_values", 2),
    *ladder("core.from_bitstring", 2),
    *ladder("core.values", 2),
    *ladder("core.bitstring", 2),
    *ladder("core.prefix_weights", 2),
    *ladder("seqfile.format_values", 2),
    *ladder("seqfile.format_bits", 2),
    *ladder("seqfile.parse_values", 2),
    *ladder("seqfile.parse_bits", 2),
    *ladder("scanners.block_scan", 2),
    *ladder("scanners.smallsum_block_scan", 2),
    *ladder("scanners.interpolation_check", 2),
    LayerSpec("scanners.block_scan.windows", VALUE),
)


@dataclass(frozen=True)
class Item:
    params: Params
    n: int
    bits: int
    rung: int  # ladder size for avoiders, 0 for planted inputs
    witness: int | None  # planted start of the first zero-sum k-block
    min_abs: int  # closed-form block-scan minimum (0 when planted)
    t: int | None  # small-sum tolerance, alphabet (1,1) only
    small_start: int | None  # first window with |weight| <= t
    small_min_abs: int  # small-sum minimum over the windows scanned


@dataclass(frozen=True)
class Inputs:
    items: tuple[Item, ...]


def _pattern(rng: random.Random, k: int, negs: int) -> str:
    letters = ["0"] * negs + ["1"] * (k - negs)
    rng.shuffle(letters)
    return "".join(letters)


def _repeat(pattern: str, n: int) -> str:
    return (pattern * (n // len(pattern) + 1))[:n]


def _bits(letters: str) -> int:
    """Selector int whose bit i is letter i ('1' = +s)."""
    return int(letters[::-1], 2) if letters else 0


def _window_weights(letters: str, r: int, s: int, k: int, lo: int, hi: int) -> list[int]:
    """Weights of the k-windows starting at lo..hi-1, summed term by term."""
    return [
        sum(s if ch == "1" else -r for ch in letters[i:i + k]) for i in range(lo, hi)
    ]


def _small_t(params: Params, delta: int) -> int | None:
    # Avoider windows weigh -2*delta for (1,1); t = 2|delta| - 2 is the
    # largest tolerance of the right parity that they all exceed.
    return 2 * abs(delta) - 2 if (params.r, params.s) == (1, 1) else None


def _avoider(rng, params: Params, n: int, rung: int) -> tuple[Item, str, int]:
    r, s, k = params.r, params.s, params.k
    c_star = s * k // params.modulus
    delta = rng.choice((-2, -1, 1, 2))
    letters = _repeat(_pattern(rng, k, c_star + delta), n)
    w0 = -params.modulus * delta
    t = _small_t(params, delta)
    item = Item(params, n, _bits(letters), rung, None, abs(w0), t, None, abs(w0))
    return item, letters, delta


def _planted(rng, params: Params, n: int) -> Item:
    r, s, k = params.r, params.s, params.k
    c_star = s * k // params.modulus
    _, base, delta = _avoider(rng, params, n, 0)
    w0 = -params.modulus * delta
    t = _small_t(params, delta)
    for _ in range(1000):
        p = rng.randrange(n - n // 4, n - 2 * k)
        letters = base[:p] + _repeat(_pattern(rng, k, c_star), n - p)
        straddle = _window_weights(letters, r, s, k, p - k + 1, p + 1)
        if 0 in straddle[:-1] or straddle[-1] != 0:
            continue
        small_start, small_min = None, abs(w0)
        if t is not None:
            for i, w in enumerate(straddle):
                small_min = min(small_min, abs(w))
                if abs(w) <= t:
                    small_start = p - k + 1 + i
                    break
        return Item(params, n, _bits(letters), 0, p, 0, t, small_start, small_min)
    raise RuntimeError(f"could not plant a witness for {params} at n={n}")


def generate(seed: int, census: bool = False) -> Inputs:
    rng = random.Random(f"{NAME}:{seed}")
    ladders = CENSUS_LADDERS if census else LADDERS
    planted_n = CENSUS_PLANTED_N if census else PLANTED_N
    items: list[Item] = []
    for (r, s), base in ladders.items():
        m = r + s
        params = Params(r, s, m * rng.randrange(16 // m + 1, 64 // m + 1))
        for j in range(RUNGS):
            n = base << j
            items.append(_avoider(rng, params, n, n)[0])
        items.append(_planted(rng, params, planted_n))
    rng.shuffle(items)
    return Inputs(tuple(items))


def warm_up(inputs: Inputs, tr, chk) -> None:
    run_pass(generate(0, census=True), tr, chk, Clock())


def _verify(item: Item, tr, chk) -> int:
    params, k, n, rung = item.params, item.params.k, item.n, item.rung
    seq0 = SignSeq(params, n, item.bits)
    with tr.span("seqfile.format_values", rung):
        text_values = format_sequence(seq0, ENCODING_VALUES)
    with tr.span("seqfile.format_bits", rung):
        text_bits = format_sequence(seq0, ENCODING_BITS)
    with tr.span("seqfile.parse_values", rung):
        seq_v = parse_sequence(text_values, k)
    with tr.span("seqfile.parse_bits", rung):
        seq_b = parse_sequence(text_bits, k)
    tag = f"{NAME} r={params.r} s={params.s} k={k} n={n}"
    chk.check(seq_v == seq0, f"{tag}: values round trip changed the sequence")
    chk.check(seq_b == seq0, f"{tag}: bits round trip changed the sequence")

    with tr.span("core.values", rung):
        values = seq_v.values()
    with tr.span("core.bitstring", rung):
        bitstring = seq_b.bitstring()
    with tr.span("core.from_values", rung):
        again_v = SignSeq.from_values(params, values)
    with tr.span("core.from_bitstring", rung):
        again_b = SignSeq.from_bitstring(params, bitstring)
    chk.check(again_v == seq0 and again_b == seq0, f"{tag}: core codec round trip")
    with tr.span("core.prefix_weights", rung):
        prefix = seq_v.prefix_weights()
    chk.check(len(prefix) == n + 1, f"{tag}: prefix length")

    with tr.span("scanners.block_scan", rung):
        rep = block_scan(seq_v, k)
    if item.witness is None:
        chk.check(
            not rep.found and rep.min_abs_weight == item.min_abs
            and rep.scanned_count == n - k + 1,
            f"{tag}: avoider verdict {rep} != closed form |w|={item.min_abs}",
        )
    else:
        chk.check(
            rep.found and rep.witness == (item.witness, 1)
            and rep.scanned_count == item.witness + 1,
            f"{tag}: witness {rep.witness} != planted start {item.witness}",
        )
    if item.t is not None:
        with tr.span("scanners.smallsum_block_scan", rung):
            small = smallsum_block_scan(seq_v, k, item.t)
        expect_found = item.small_start is not None
        expect_scanned = item.small_start + 1 if expect_found else n - k + 1
        chk.check(
            small.found == expect_found
            and (small.witness == (item.small_start, 1) if expect_found else True)
            and small.min_abs_weight == item.small_min_abs
            and small.scanned_count == expect_scanned,
            f"{tag}: small-sum t={item.t} verdict {small}",
        )
    with tr.span("scanners.interpolation_check", rung):
        interp = interpolation_check(seq_v, k)
    chk.check(
        interp.ok and interp.window_count == n - k + 1,
        f"{tag}: interpolation {interp}",
    )
    return rep.scanned_count


def run_pass(inputs: Inputs, tr, chk, clock: Clock) -> PassResult:
    work = windows = 0
    for i, item in enumerate(inputs.items):
        with clock.op(str(i)), tr.span("op.verify"):
            windows += _verify(item, tr, chk)
        work += item.n
    return PassResult(work, {"scanners.block_scan.windows": windows})
