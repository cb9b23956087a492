"""Term-by-term reference sums shared by the test modules, independent of
the scan kernel."""

from zerosum import SignSeq, WeightRange
from zerosum.scanners import max_difference


def weight(seq: SignSeq, indices) -> int:
    """Sum of the values over an index set, read off ``seq.values()``."""
    values = seq.values()
    return sum(values[i] for i in indices)


def window_weight(seq: SignSeq, start: int, length: int) -> int:
    """Weight of positions [start, start + length), read off the prefix sums."""
    prefix = seq.prefix_weights()
    return prefix[start + length] - prefix[start]


def members(wr: WeightRange) -> range:
    """The weights in S_alpha: ``count`` terms from ``low`` in steps of ``step``."""
    return range(wr.low, wr.low + wr.step * wr.count, wr.step)


def per_d_min_abs(seq: SignSeq, k: int) -> dict[int, int]:
    """Least |weight| of the k-term APs of each difference, summed term by
    term."""
    values = seq.values()
    return {
        d: min(
            abs(sum(values[start + j * d] for j in range(k)))
            for start in range(seq.n - (k - 1) * d)
        )
        for d in range(1, max_difference(seq.n, k) + 1)
    }
