"""Pieces shared by the workloads: correctness gates, pass results, the
closed-form block threshold, and per-layer metric specs evaluated over the
spans of the traced passes."""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from zerosum import Params, exact_block_threshold_symmetric, pm1_block_threshold

# Kinds of per-layer metric:
#   top    self time of the named spans at the largest ladder size in the
#          pass (the sum over all such spans when the calls are not on a
#          ladder, n = 0)
#   ratio  top time / time of the same spans at half that size
#   mean   mean self time of one named span, in the best pass
#   value  a number the workload computed for the pass (a count or a
#          ratio of its own operation times)
TOP, RATIO, MEAN, VALUE = "top", "ratio", "mean", "value"


@dataclass(frozen=True)
class LayerSpec:
    metric: str
    kind: str
    span: str = ""
    predicted: float | None = None  # doubling ratio the stated big-O predicts


def ladder(span: str, predicted: float) -> tuple[LayerSpec, LayerSpec]:
    """The ``<span>_s`` and ``<span>.ratio`` pair of a doubling ladder."""
    return (
        LayerSpec(f"{span}_s", TOP, span),
        LayerSpec(f"{span}.ratio", RATIO, span, predicted),
    )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "speedup")):
        return "x"
    return "count"


def formula_n(r: int, s: int, k: int) -> int:
    """Closed-form block threshold N(r, s, k)."""
    if (r, s) == (1, 1):
        return pm1_block_threshold(k)
    return exact_block_threshold_symmetric(Params(r, s, k)).n_exact


@dataclass
class PassResult:
    work: int  # workload work units completed in the pass
    values: dict[str, float] = field(default_factory=dict)


class Clock:
    """Times the operations of one pass, and reads the machine's speed with
    ``probe`` after an operation once ``gap`` seconds have passed since the
    last reading.

    The readings cut the pass into segments; each segment is scaled by the
    readings at its two ends (see "Machine speed" in README.md).  Without a
    probe, a clock only times operations.
    """

    def __init__(self, probe=None, gap: float = math.inf, first: float = 0.0) -> None:
        self.probe, self.gap = probe, gap
        # Latency of each operation, seconds, keyed so that one operation has
        # the same key in every pass.  Keys starting with "_" are fixed
        # per-pass work, such as interpreter floors, that is not a
        # user-visible operation.
        self.ops: dict[str, float] = {}
        self.readings = [first]
        self.segments: list[float] = []  # seconds between readings, probes excluded
        self._start = time.perf_counter()

    @contextmanager
    def op(self, key: str):
        t0 = time.perf_counter()
        yield
        end = time.perf_counter()
        self.ops[key] = end - t0
        if end - self._start >= self.gap:
            self.read()

    def read(self) -> None:
        """End the current segment with a speed reading."""
        self.segments.append(time.perf_counter() - self._start)
        self.readings.append(self.probe())
        self._start = time.perf_counter()


class Checker:
    """Counts correctness gates; a failed gate keeps its message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def eval_layers(specs, passes) -> dict[str, float]:
    """Per-layer values from (self-time rows, PassResult) per traced pass.

    A span's time at one ladder size is its per-pass sum, least over the
    passes: one call of a codec function swings by up to 2x with the load
    of the shared machine, and that noise only ever adds time.  VALUE
    metrics are low medians over passes, so counts stay integers.
    """
    sums: dict[tuple[str, int], list[float]] = {}
    calls: dict[tuple[str, int], int] = {}
    for rows, _ in passes:
        acc: dict[tuple[str, int], float] = {}
        count: dict[tuple[str, int], int] = {}
        for name, n, dt in rows:
            acc[(name, n)] = acc.get((name, n), 0.0) + dt
            count[(name, n)] = count.get((name, n), 0) + 1
        for key, total in acc.items():
            sums.setdefault(key, []).append(total)
            calls.setdefault(key, count[key])
    typical = {key: min(totals) for key, totals in sums.items()}
    out: dict[str, float] = {}
    for spec in specs:
        if spec.kind == VALUE:
            values = [r.values[spec.metric] for _, r in passes if spec.metric in r.values]
            if values:
                out[spec.metric] = statistics.median_low(values)
            continue
        sizes = {n: t for (name, n), t in typical.items() if name == spec.span}
        if not sizes:
            continue
        top = max(sizes)
        if spec.kind == MEAN:
            out[spec.metric] = sum(sizes.values()) / sum(calls[(spec.span, n)] for n in sizes)
        elif spec.kind == TOP:
            out[spec.metric] = sizes[top]
        elif top > 0 and sizes.get(top // 2):
            out[spec.metric] = sizes[top] / sizes[top // 2]
    return out
