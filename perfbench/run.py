#!/usr/bin/env python3
"""Benchmark for zerosum: four seeded workloads, each checked against an
engine that did not produce its outputs.

    python3 perfbench/run.py --workload verify-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from a checkout of the repository; it imports ``zerosum`` from
``src/`` and writes only under ``.bench_out/``.  One run measures one
workload in this process (``all`` runs every workload, untraced and traced,
one process at a time).  It prints a table of every metric by name and
unit, writes ``.bench_out/result_<workload>_seed<n>_trace<t>.json`` (with
the spans of a traced run next to it) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones; both are listed
in ``BENCHMARK.json`` and explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "verify-long": "verify_long",
    "ap-constructions": "ap_constructions",
    "oracle-grid": "oracle_grid",
    "cli-tour": "cli_tour",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
}
SETUP_SAMPLES = 11
MIN_PASSES = 3
# About the best _probe() time on the machine the bounds were set on (2-core
# Xeon VM, Python 3.11.7).  Each measured interval is scaled by (PROBE_REF_S /
# the probe time around it) ** exponent, where the exponent is how closely
# the interval follows the probe: each workload's SPEED_EXPONENT for its
# passes, SETUP_SPEED_EXPONENT for set-up processes, which are mostly
# interpreter start and imports.  See "Machine speed" in perfbench/README.md.
PROBE_REF_S = 0.012
PROBES = 3  # probe timings per reading; a reading is their best
PROBE_GAP_S = 0.5  # least time between speed readings within a pass
SETUP_SPEED_EXPONENT = 0.5


@dataclass
class Pass:
    wall: float  # raw seconds, speed readings excluded
    result: object  # the workload's PassResult
    ops: dict[str, float]  # raw seconds per operation, from the pass's Clock
    tracer: object
    begin: int  # span indices of the pass in its tracer
    end: int
    factor: float  # machine-speed scale for this pass's times: scaled wall / wall


def _import_zerosum() -> None:
    """Import zerosum from this checkout's src/, or exit without a result."""
    if not (SRC / "zerosum" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'zerosum'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import zerosum

    if Path(zerosum.__file__).resolve().parent != (SRC / "zerosum").resolve():
        sys.exit(f"error: imported zerosum from {zerosum.__file__}, not from {SRC}")


def _close(mod, inputs) -> None:
    if hasattr(mod, "close"):
        mod.close(inputs)


def _probe() -> float:
    """Best of PROBES timings of a fixed piece of pure Python that touches
    nothing of zerosum: big-int shifts, dict stores and string formatting,
    in little memory."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        bits = (1 << 20000) // 3
        total, seen = 0, {}
        for i in range(20000):
            total += (bits >> i) & 1
            seen[i & 1023] = total
        for _ in range(4):
            " ".join([str(i) for i in range(5000)])
        times.append(time.perf_counter() - t0)
    return min(times)


def _factor(before: float, after: float, exponent: float) -> float:
    """Scale for an interval between two probe readings."""
    return (PROBE_REF_S / ((before + after) / 2)) ** exponent


def _timed_passes(mod, inputs, tracers, chk, budget: float) -> list[Pass]:
    """Run passes, cycling through ``tracers``, until the next pass would
    likely overrun ``budget`` seconds; read the machine's speed between
    operations, at most every PROBE_GAP_S seconds, and between passes."""
    from common import Clock

    passes: list[Pass] = []
    start = time.perf_counter()
    before = _probe()
    while True:
        tr = tracers[len(passes) % len(tracers)]
        mark = tr.mark()
        clock = Clock(_probe, PROBE_GAP_S, before)
        with tr.span("pass"):
            result = mod.run_pass(inputs, tr, chk, clock)
        clock.read()
        wall = sum(clock.segments)
        scaled = sum(
            seg * _factor(a, b, mod.SPEED_EXPONENT)
            for seg, a, b in zip(clock.segments, clock.readings, clock.readings[1:])
        )
        passes.append(Pass(wall, result, clock.ops, tr, mark, tr.mark(), scaled / wall))
        before = clock.readings[-1]
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > budget:
            return passes


def _setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw wall, scale) of fresh processes that only set up: start, import,
    generate, warm up."""
    samples = []
    before = _probe()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")
        after = _probe()
        samples.append((wall, _factor(before, after, SETUP_SPEED_EXPONENT)))
        before = after
    return samples


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def _benchmark_json() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = _benchmark_json() or {}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "git_revision": _git_revision(),
        "why": {w["name"]: w["why"] for w in spec.get("workloads", [])},
    }


def all_layer_specs() -> list:
    """Every per-layer spec, first owner first, in workload order."""
    seen, specs = set(), []
    for name in WORKLOADS:
        for spec in importlib.import_module(WORKLOADS[name]).LAYERS:
            if spec.metric not in seen:
                seen.add(spec.metric)
                specs.append(spec)
    return specs


def _census(workload: str, seed: int, have: dict, chk) -> dict[str, tuple[float, str]]:
    """Per-layer values this workload does not produce, from one traced pass
    of their owner workload at census scale."""
    from common import Clock, eval_layers
    from spans import Tracer

    filled: dict[str, tuple[float, str]] = {}
    for other, module in WORKLOADS.items():
        if other == workload:
            continue
        mod = importlib.import_module(module)
        if all(spec.metric in have or spec.metric in filled for spec in mod.LAYERS):
            continue
        inputs = mod.generate(seed, census=True)
        tr = Tracer(True)
        try:
            mod.warm_up(inputs, Tracer(False), chk)
            before = _probe()
            result = mod.run_pass(inputs, tr, chk, Clock())
            factor = _factor(before, _probe(), mod.SPEED_EXPONENT)
        finally:
            _close(mod, inputs)
        rows = [(name, n, dt * factor) for name, n, dt in tr.self_times(0)]
        for metric, value in eval_layers(mod.LAYERS, [(rows, result)]).items():
            if metric not in have and metric not in filled:
                filled[metric] = (value, f"census:{other}")
    return filled


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def run_workload(args) -> int:
    _import_zerosum()
    mod = importlib.import_module(WORKLOADS[args.workload])
    from common import Checker, eval_layers, unit_of
    from spans import Tracer

    chk = Checker()
    inputs = mod.generate(args.seed)
    mod.warm_up(inputs, Tracer(False), chk)
    if args.setup_only:
        _close(mod, inputs)
        return 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    try:
        # A traced run interleaves one untraced pass with three traced ones,
        # so both kinds see the same machine state; their wall ratio is the
        # tracing overhead.  Per-layer times take the best traced pass, so
        # more traced passes make them steadier.
        if args.trace:
            traced_tr = Tracer(True)
            tracers = [Tracer(False), traced_tr, traced_tr, traced_tr]
        else:
            tracers = [Tracer(False)]
        passes = _timed_passes(mod, inputs, tracers, chk, args.seconds)
        plain = [p for p in passes if not p.tracer.enabled]
        layers: dict[str, tuple[float, str]] = {}
        if args.trace:
            traced = [p for p in passes if p.tracer.enabled]
            values = eval_layers(mod.LAYERS, [
                ([(name, n, dt * p.factor) for name, n, dt in p.tracer.self_times(p.begin, p.end)],
                 p.result)
                for p in traced
            ])
            layers = {m: (v, "workload") for m, v in values.items()}
            overhead = (statistics.median(p.wall * p.factor for p in traced)
                        / statistics.median(p.wall * p.factor for p in plain))
            layers["trace.overhead_ratio"] = (overhead, "workload")
            traced_tr.write(OUT / f"trace_{stem}.json")
        rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if args.trace:
            layers.update(_census(args.workload, args.seed, layers, chk))
    finally:
        _close(mod, inputs)

    # Made after the RSS reading, so that the git child is not counted.
    record = _record(args.workload, args.seed, args.seconds, args.trace)
    factors = [p.factor for p in passes]
    record.update({"pass_walls_s": [p.wall for p in passes], "pass_factors": factors,
                   "pass_ops_s": [p.ops for p in passes],
                   "speed_exponent": mod.SPEED_EXPONENT,
                   "setup_speed_exponent": SETUP_SPEED_EXPONENT})
    specs = {spec.metric: spec for spec in all_layer_specs()}
    failed_ratio = chk.failed / chk.attempted
    throughput_name, throughput_meaning = mod.THROUGHPUT
    print(f"# zerosum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# revision {record['git_revision']}, nproc {record['nproc']}, "
          f"python {platform.python_version()}, numpy importable: {record['numpy_importable']}")
    print(f"# {len(passes)} passes; work unit: {throughput_meaning}; operation: {mod.OP}")
    print(f"# times are scaled to a {PROBE_REF_S * 1000:g} ms probe with exponent "
          f"{mod.SPEED_EXPONENT:g}; pass scales {min(factors):.3f}..{max(factors):.3f}")
    rows = [("failed_ratio", failed_ratio, "ratio", f"{chk.failed} failed of {chk.attempted} checks")]
    end_to_end = {}
    if not args.trace:
        setups = _setup_samples(args.workload, args.seed)
        walls = [p.wall * p.factor for p in plain]
        ops = [dt * p.factor for p in plain for key, dt in p.ops.items() if not key.startswith("_")]
        p50, p75 = _quartiles(ops)
        end_to_end = {
            "setup_s": statistics.median(wall * factor for wall, factor in setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": rss_kib / 1024,
            "work_per_s": statistics.median(p.result.work / w for p, w in zip(plain, walls)),
        }
        record["setup_samples"] = [{"wall_s": w, "factor": f} for w, f in setups]
        record["op_latency"] = {"p50_s": p50, "p75_s": p75, "samples": len(ops)}
        cli = args.workload == "cli-tour"
        rows += [
            ("setup_s", end_to_end["setup_s"], "s", f"median of {len(setups)} fresh set-up processes"),
            ("wall_s", end_to_end["wall_s"], "s", f"median of {len(walls)} passes over fixed inputs"),
            ("peak_rss_mib", end_to_end["peak_rss_mib"], "MiB", "this process + largest child"),
            (f"work_per_s = {throughput_name}", end_to_end["work_per_s"], "1/s", "median over passes"),
            ("op_p50_s" + (" = cli_command_p50_s" if cli else ""), p50, "s",
             f"over {len(ops)} samples: {len(ops) // len(plain)} operations x {len(plain)} "
             "passes; not gated"),
            ("op_p75_s" + (" = cli_command_p75_s" if cli else ""), p75, "s",
             f"{sum(dt > p75 for dt in ops)} samples beyond p75; not gated"),
        ]
    for metric, (value, source) in sorted(layers.items()):
        spec = specs.get(metric)
        note = source
        if spec is not None and spec.predicted is not None:
            note += f"; big-O predicts {spec.predicted:g}x"
            if value >= 1.5 * spec.predicted:
                note += "  <-- FLAG: steeper than stated complexity"
        rows.append((metric, value, unit_of(metric), note))
    for name, value, unit, note in rows:
        print(f"{name:44s} {value:>16.6g} {unit:6s} {note}")
    for message in chk.messages:
        print(f"FAILED: {message}")
    if hasattr(mod, "KNOWN_DEFECT"):
        print(f"# known program defect: {mod.KNOWN_DEFECT}")

    metrics = end_to_end if not args.trace else {m: v for m, (v, _) in layers.items()}
    units = END_TO_END if not args.trace else {m: unit_of(m) for m in metrics}
    _check_against_spec(metrics, args.trace)
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in sorted(metrics)},
    }
    record.update({
        "end_to_end": end_to_end,
        "failed_ratio": failed_ratio,
        throughput_name: end_to_end.get("work_per_s"),
        "per_layer": {m: {"value": v, "unit": unit_of(m), "source": s,
                          "predicted_ratio": getattr(specs.get(m), "predicted", None)}
                      for m, (v, s) in layers.items()},
        "failures": chk.messages,
        "known_defect": getattr(mod, "KNOWN_DEFECT", None),
        "result": result,
    })
    (OUT / f"result_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _check_against_spec(metrics: dict, trace: int) -> None:
    """The printed metric names must be exactly those BENCHMARK.json lists."""
    spec = _benchmark_json()
    if spec is None:
        return
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != want:
        sys.exit(f"error: metrics {sorted(set(metrics) ^ want)} differ from BENCHMARK.json")


def run_all(args) -> int:
    """Every workload in its own process, one at a time, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{workload}/{metric}"] = value
            print()
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        _import_zerosum()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
