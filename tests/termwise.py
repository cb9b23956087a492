"""Term-by-term reference counts shared by the test modules, independent of
the scan kernel."""

from zerosum import SignSeq
from zerosum.scanners import max_difference


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
