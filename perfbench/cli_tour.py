"""Workload cli-tour: the README "Command-line tour", one subprocess at a
time, over several passes.

Each pass starts with a bare-interpreter floor (``python -c pass``) and an
import floor (``python -c "import zerosum.cli"``), then runs the 16 tour
commands as ``python -m zerosum.cli ...``; each command that takes
``--json`` runs a second time with it, 28 commands in all.  The seed orders
the command groups (a construct stays before the verify that reads its
file) in each pass.  Exit codes, v1 JSON keys and the printed values are
checked against the README and against the library called in this process.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from common import Clock, PassResult, LayerSpec, MEAN
from zerosum import (
    Params,
    ap_lower_bound_value,
    ap_scan,
    block_scan,
    min_good_shift,
    prime_shift,
    read_sequence,
)

NAME = "cli-tour"
THROUGHPUT = ("cli_commands_per_s", "README tour commands completed")
OP = "one README tour command, process start included"
# Pass time follows the machine-speed probe about half: much of a command
# is process start, file reads and page faults in the kernel (measured
# slope of log pass time on log probe time across runs: 0.51).
SPEED_EXPONENT = 0.5

COMMANDS = ("bound", "construct", "verify", "oracle", "shift", "table")
LAYERS = (
    LayerSpec("cli.python_start_s", MEAN, "cli.python_start"),
    LayerSpec("cli.import_s", MEAN, "cli.import"),
    *(LayerSpec(f"cli.{c}_s", MEAN, f"cli.{c}") for c in COMMANDS),
)

REPORT_KEYS = {"command", "params", "result", "toolVersion", "elapsedMillis", "indexing"}


@dataclass(frozen=True)
class Cmd:
    args: tuple[str, ...]
    json_ok: bool  # takes --json
    expect: dict  # what the output must show, by field


def _tour() -> list[list[Cmd]]:
    """The README tour as groups; a group's commands run back to back."""
    table = [(k, ap_lower_bound_value(Params(1, 1, k), min_good_shift(Params(1, 1, k))))
             for k in range(6, 61, 2)]
    return [
        [Cmd(("bound", "--r", "1", "--s", "2", "--k", "6"), True, {"value": 10})],
        [Cmd(("bound", "--r", "1", "--s", "1", "--k", "6"), True, {"value": 9})],
        [Cmd(("bound", "--r", "1", "--s", "1", "--k", "6", "--t", "2"), True, {})],
        [Cmd(("bound", "--r", "1", "--s", "2", "--k", "6", "--q", "0"), True, {})],
        [
            Cmd(("construct", "--kind", "block-extremal", "--r", "1", "--s", "2", "--k", "6",
                 "--out", "s.txt"), False, {"n": 9, "file_k": 6, "mode": "block"}),
            Cmd(("verify", "--mode", "block", "--k", "6", "--in", "s.txt"), True, {"found": False}),
        ],
        [
            Cmd(("construct", "--kind", "ap-mod-k1", "--r", "1", "--s", "1", "--k", "8",
                 "--out", "s.txt"), False, {"n": 12, "file_k": 8, "mode": "ap"}),
            Cmd(("verify", "--mode", "ap", "--k", "8", "--in", "s.txt"), True, {"found": False}),
        ],
        [Cmd(("construct", "--kind", "ap-two-p", "--p", "3", "--out", "s.txt"), False,
             {"n": 8, "file_k": 6, "mode": "ap"})],
        [Cmd(("oracle", "--target", "block-threshold", "--r", "1", "--s", "2", "--k", "6",
              "--cap", "18"), True, {"derivedThreshold": 10})],
        [Cmd(("oracle", "--target", "two-k", "--k", "10"), True, {"sequencesChecked": 184756})],
        [Cmd(("oracle", "--target", "pow2", "--v", "4"), True, {"functionsChecked": 65536})],
        [Cmd(("oracle", "--target", "residue-lemma", "--k", "30", "--factors", "3,5"), True,
             {"progressionsChecked": 72})],
        [Cmd(("shift", "--r", "1", "--s", "2", "--k", "21"), True,
             {"alpha": min_good_shift(Params(1, 2, 21)).alpha})],
        [Cmd(("shift", "--r", "1", "--s", "2", "--k", "24", "--prime"), True,
             {"alpha": prime_shift(Params(1, 2, 24)).alpha})],
        [Cmd(("table", "--r", "1", "--s", "1", "--k-min", "6", "--k-max", "60", "--what",
              "ap-lb", "--out", "table.csv"), False, {"rows": table})],
    ]


@dataclass
class Inputs:
    work: Path
    env: dict
    passes: list[list[tuple[Cmd, bool]]]  # per pass: (command, with --json)
    next_pass: int = 0


PASS_PLANS = 16  # distinct seeded pass orders; pass i uses plan i mod 16
CENSUS_GROUPS = (0, 4, 9, 11, 13)  # bound, construct + verify, pow2, shift, table


def generate(seed: int, census: bool = False) -> Inputs:
    root = Path(__file__).resolve().parent.parent
    rng = random.Random(f"{NAME}:{seed}")
    groups = _tour()
    if census:  # one group per command kind
        groups = [groups[i] for i in CENSUS_GROUPS]
    plans = []
    for _ in range(PASS_PLANS):
        order = groups[:]
        rng.shuffle(order)
        plans.append([
            (cmd, as_json) for group in order for cmd in group
            for as_json in ((False, True) if cmd.json_ok else (False,))
        ])
    work = root / ".bench_out" / f"cli_work_{os.getpid()}{'_census' if census else ''}"
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "ZEROSUM_"))}
    env["PYTHONPATH"] = str(root / "src")
    return Inputs(work, env, plans)


def _run(inputs: Inputs, argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=inputs.work, env=inputs.env,
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def _check(inputs: Inputs, cmd: Cmd, as_json: bool, code: int, out: str, chk) -> None:
    tag = f"zerosum {' '.join(cmd.args)}{' --json' if as_json else ''}"
    chk.check(code == 0, f"{tag}: exit {code}")
    want = cmd.expect
    if as_json:
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            chk.check(False, f"{tag}: stdout is not JSON")
            return
        chk.check(
            set(report) == REPORT_KEYS and report["indexing"] == "0-based"
            and report["command"] == cmd.args[0],
            f"{tag}: v1 report keys {sorted(report)}",
        )
        result = report.get("result", {})
        for key, value in want.items():
            chk.check(result.get(key) == value, f"{tag}: {key}={result.get(key)} != {value}")
        return
    text = out.strip()
    name = cmd.args[0]
    if name == "bound" and "value" in want:
        chk.check(text.splitlines()[0].endswith(f"= {want['value']}"), f"{tag}: printed {text!r}")
    elif name == "construct":
        chk.check(text.startswith(f"n={want['n']} "), f"{tag}: printed {text!r}")
        seq = read_sequence(inputs.work / "s.txt", k=want["file_k"])
        scan = block_scan if want["mode"] == "block" else ap_scan
        chk.check(
            seq.n == want["n"] and seq.total_weight() == 0
            and not scan(seq, want["file_k"]).found,
            f"{tag}: s.txt does not hold a zero-sum avoider of length {want['n']}",
        )
    elif name == "verify":
        chk.check(text.startswith("no witness"), f"{tag}: printed {text!r}")
    elif name == "oracle" and "derivedThreshold" in want:
        chk.check(text.startswith(f"derivedThreshold={want['derivedThreshold']} (exact)"),
                  f"{tag}: printed {text!r}")
    elif name == "oracle":
        chk.check("verified" in text, f"{tag}: printed {text!r}")
    elif name == "shift":
        chk.check(text.startswith(f"alpha={want['alpha']} "), f"{tag}: printed {text!r}")
    elif name == "table":
        with open(inputs.work / "table.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        expect = [["k", "value"]] + [[str(k), str(v)] for k, v in want["rows"]]
        chk.check(rows == expect, f"{tag}: table.csv differs from the library values")


def _floors(inputs: Inputs, tr, chk, clock: Clock) -> None:
    for span, argv in (("cli.python_start", ["-c", "pass"]),
                       ("cli.import", ["-c", "import zerosum.cli"])):
        with clock.op(f"_{span}"), tr.span(span):
            code, _ = _run(inputs, argv)
        chk.check(code == 0, f"python {' '.join(argv)}: exit {code}")


def warm_up(inputs: Inputs, tr, chk) -> None:
    inputs.work.mkdir(parents=True, exist_ok=True)
    _floors(inputs, tr, chk, Clock())


def run_pass(inputs: Inputs, tr, chk, clock: Clock) -> PassResult:
    inputs.work.mkdir(parents=True, exist_ok=True)
    plan = inputs.passes[inputs.next_pass % len(inputs.passes)]
    inputs.next_pass += 1
    _floors(inputs, tr, chk, clock)
    for cmd, as_json in plan:
        argv = ["-m", "zerosum.cli", *cmd.args] + (["--json"] if as_json else [])
        with clock.op(" ".join(argv[2:])), tr.span(f"cli.{cmd.args[0]}"):
            code, out = _run(inputs, argv)
        _check(inputs, cmd, as_json, code, out, chk)
    return PassResult(len(plan))


def close(inputs: Inputs) -> None:
    shutil.rmtree(inputs.work, ignore_errors=True)
