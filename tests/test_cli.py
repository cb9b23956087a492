"""Sequence file format and CLI contract tests: round-trips, exit codes,
JSON schema stability, CSV output."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from zerosum import (
    Params,
    SequenceFileError,
    SignSeq,
    format_sequence,
    parse_sequence,
)
from zerosum.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class Runner:
    """Runs ``cli.main`` in process under the program name ``cli``, with
    ``env`` set for the call and both streams captured."""

    def invoke(self, args, env=None) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            code = main(args, prog="cli")
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture
def runner():
    return Runner()


GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
_ELAPSED = re.compile(r'"elapsedMillis": \d+')


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_output(runner, tmp_path, case):
    """Every command's exit code, stdout, stderr and written files, byte for
    byte: the README tour, each bound branch, each construct kind and its
    missing option, hit and miss per verify mode, the oracle targets, shift
    found and exhausted, and table's errors, with and without --json.
    ``{tmp}`` stands for the test's directory and elapsedMillis reads 0."""
    for name, text in case["files"].items():
        (tmp_path / name).write_text(text)
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in case["args"]]
    result = runner.invoke(args, env=case["env"])

    def mask(text):
        return _ELAPSED.sub('"elapsedMillis": 0', text.replace(str(tmp_path), "{tmp}"))

    assert (result.exit_code, mask(result.stdout), mask(result.stderr)) == (
        case["exit"], case["stdout"], case["stderr"]
    )
    for name, text in case["written"].items():
        assert (tmp_path / name).read_text() == text


class TestSequenceFile:
    def test_values_round_trip(self):
        seq = SignSeq.from_values(Params(1, 2, 6), [-1, -1, 2, 2, -1, -1])
        text = format_sequence(seq, "values")
        assert text.splitlines()[0] == "# zerosum v1 r=1 s=2 n=6"
        assert parse_sequence(text) == seq

    def test_bits_round_trip(self):
        seq = SignSeq.from_values(Params(2, 3, 5), [-2, 3, 3, -2, 3])
        text = format_sequence(seq, "bits")
        assert text == "# zerosum v1 r=2 s=3 n=5\nb:01101\n"
        assert parse_sequence(text) == seq

    def test_empty_sequence_round_trip(self):
        seq = SignSeq(Params(1, 2, 3), 0, 0)
        text = format_sequence(seq)
        assert parse_sequence(text).n == 0

    def test_multiline_values_body(self):
        text = "# zerosum v1 r=1 s=1 n=4\n1 -1\n1 -1\n"
        assert parse_sequence(text).values() == (1, -1, 1, -1)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# zerosum v2 r=1 s=1 n=2\n1 -1\n",
            "# zerosum v1 r=1 s=1 n=3\n1 -1\n",
            "# zerosum v1 r=1 s=1 n=2\n1 -2\n",
            "# zerosum v1 r=1 s=1 n=2\nb:011\n",
            "# zerosum v1 r=2 s=4 n=1\n4\n",
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(SequenceFileError):
            parse_sequence(text)


class TestBoundCommand:
    def test_exact(self, runner):
        result = runner.invoke(["bound", "--r", "1", "--s", "2", "--k", "6"])
        assert result.exit_code == 0
        assert "N(1,2,6) = 10" in result.output

    def test_pm1(self, runner):
        result = runner.invoke(["bound", "--r", "1", "--s", "1", "--k", "6"])
        assert result.exit_code == 0
        assert "= 9" in result.output

    def test_smallsum(self, runner):
        result = runner.invoke(
            ["bound", "--r", "1", "--s", "1", "--k", "6", "--t", "2"]
        )
        assert result.exit_code == 0
        assert "n >= 6" in result.output

    def test_pm1_q_bound(self, runner):
        result = runner.invoke(
            ["bound", "--r", "1", "--s", "1", "--k", "4", "--q", "2"]
        )
        assert result.exit_code == 0
        assert "n >= 7" in result.output

    def test_sufficient_q_bound(self, runner):
        result = runner.invoke(
            ["bound", "--r", "1", "--s", "2", "--k", "6", "--q", "0"]
        )
        assert result.exit_code == 0
        assert "n >= 11" in result.output

    def test_smallsum_requires_pm1(self, runner):
        result = runner.invoke(
            ["bound", "--r", "1", "--s", "2", "--k", "6", "--t", "2"]
        )
        assert result.exit_code == 2

    def test_invalid_params_exit_2(self, runner):
        result = runner.invoke(["bound", "--r", "2", "--s", "4", "--k", "6"])
        assert result.exit_code == 2
        assert "gcd" in result.output

    def test_json_is_integer_only(self, runner):
        result = runner.invoke(
            ["bound", "--r", "1", "--s", "2", "--k", "6", "--json"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["command"] == "bound"
        assert report["indexing"] == "0-based"
        assert report["result"]["value"] == 10

        def no_floats(node):
            if isinstance(node, float):
                raise AssertionError(f"float in report: {node}")
            if isinstance(node, dict):
                for v in node.values():
                    no_floats(v)
            if isinstance(node, list):
                for v in node:
                    no_floats(v)

        no_floats(report)


class TestConstructVerifyPipeline:
    def test_block_extremal_round_trip(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "block-extremal", "--r", "1", "--s", "2",
             "--k", "6", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "n=9" in result.output
        assert out.read_text().splitlines()[1] == "-1 -1 -1 2 2 2 -1 -1 -1"
        verify = runner.invoke(
            ["verify", "--mode", "block", "--k", "6", "--in", str(out)]
        )
        assert verify.exit_code == 0
        assert "minAbsWeight=3" in verify.output

    def test_bits_encoding(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        runner.invoke(
            ["construct", "--kind", "ap-mod-k1", "--r", "1", "--s", "1",
             "--k", "8", "--out", str(out), "--bits"],
        )
        assert out.read_text() == "# zerosum v1 r=1 s=1 n=12\nb:000111111000\n"
        verify = runner.invoke(
            ["verify", "--mode", "ap", "--k", "8", "--in", str(out)]
        )
        assert verify.exit_code == 0

    def test_ap_two_p(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-two-p", "--p", "3", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "n=8" in result.output
        verify = runner.invoke(
            ["verify", "--mode", "ap", "--k", "6", "--in", str(out)]
        )
        assert verify.exit_code == 0

    def test_good_shift_defaults_to_min_alpha(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-good-shift", "--r", "1", "--s", "2",
             "--k", "12", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "n=18" in result.output

    def test_good_shift_without_prime_horizon(self, runner, tmp_path):
        """(1,4,5) has no alpha with 5 + alpha prime and 5 + alpha > 4 alpha;
        the default search still finds alpha = 2."""
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-good-shift", "--r", "1", "--s", "4",
             "--k", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "good shift alpha = 2" in result.output

    def test_bad_good_shift_exit_2(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-good-shift", "--r", "1", "--s", "2",
             "--k", "21", "--alpha", "1", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "not a good shift" in result.output

    def test_degenerate_warns_but_succeeds(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-mod-k", "--k", "6", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "degenerate" in result.output
        assert "n=0" in result.output

    def test_pm1_kinds_reject_other_letters(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-mod-k1", "--r", "1", "--s", "2",
             "--k", "8", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "r = s = 1" in result.output

    def test_infeasible_inputs_exit_2(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-two-p", "--p", "4", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "odd prime" in result.output

    def test_construct_into_missing_directory_exit_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-mod-k", "--k", "6", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_verify_witness_exit_1(self, runner, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("# zerosum v1 r=1 s=1 n=4\n1 -1 1 -1\n")
        result = runner.invoke(
            ["verify", "--mode", "block", "--k", "2", "--in", str(path)]
        )
        assert result.exit_code == 1
        assert "start=0" in result.output

    def test_verify_malformed_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a sequence file\n")
        result = runner.invoke(
            ["verify", "--mode", "block", "--k", "2", "--in", str(path)]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "body,offset",
        [(b"\xff1\n", 25), ("b:\uff1101\n".encode("utf-8"), 27)],
        ids=["byte-0xff", "fullwidth-digit"],
    )
    def test_verify_non_ascii_file_exit_2(self, runner, tmp_path, body, offset):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# zerosum v1 r=1 s=1 n=2\n" + body)
        result = runner.invoke(
            ["verify", "--mode", "block", "--k", "2", "--in", str(path)]
        )
        assert result.exit_code == 2
        assert result.output == f"error: non-ASCII byte at offset {offset}\n"

    def test_verify_smallsum_mode(self, runner, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# zerosum v1 r=1 s=1 n=9\n1 1 1 1 1 1 1 1 1\n")
        clean = runner.invoke(
            ["verify", "--mode", "smallsum", "--k", "4", "--t", "2",
             "--in", str(path)]
        )
        assert clean.exit_code == 0
        missing_t = runner.invoke(
            ["verify", "--mode", "smallsum", "--k", "4", "--in", str(path)]
        )
        assert missing_t.exit_code == 2

    def test_verify_json_report(self, runner, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# zerosum v1 r=1 s=2 n=9\n-1 -1 -1 2 2 2 -1 -1 -1\n")
        result = runner.invoke(
            ["verify", "--mode", "block", "--k", "6", "--in", str(path), "--json"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["result"]["minAbsWeight"] == 3
        assert report["result"]["scannedCount"] == 4
        assert report["result"]["witness"] is None


class TestOracleCommand:
    def test_block_threshold(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "block-threshold", "--r", "1", "--s", "2",
             "--k", "6", "--cap", "18"],
        )
        assert result.exit_code == 0
        assert "derivedThreshold=10 (exact)" in result.output

    def test_ap_threshold(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "ap-threshold", "--r", "1", "--s", "1",
             "--k", "6", "--cap", "10", "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)["result"]
        assert payload["derivedThreshold"] == 9
        assert payload["maxAvoidingN"] == 8
        assert payload["mode"] == "ap"

    def test_two_k(self, runner):
        result = runner.invoke(["oracle", "--target", "two-k", "--k", "6"])
        assert result.exit_code == 0
        assert "verified" in result.output

    @pytest.mark.parametrize("where", ["option", "env"])
    def test_two_k_obeys_budget(self, runner, where):
        """two-k is gated by the block DP's step bound against the shared
        budget: (1,1,8) needs more than 5 steps."""
        args = ["oracle", "--target", "two-k", "--k", "8"]
        env = {"ZEROSUM_BUDGET": "5"} if where == "env" else {}
        if where == "option":
            args += ["--budget", "5"]
        result = runner.invoke(args, env=env)
        assert result.exit_code == 2
        assert "budget" in result.output

    def test_pow2(self, runner):
        result = runner.invoke(["oracle", "--target", "pow2", "--v", "3"])
        assert result.exit_code == 0
        assert "2 of 256" in result.output

    def test_residue_lemma_default_factors(self, runner):
        result = runner.invoke(["oracle", "--target", "residue-lemma", "--k", "30"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("where", ["option", "env"])
    @pytest.mark.parametrize(
        "args",
        [["--target", "pow2", "--v", "3"], ["--target", "residue-lemma", "--k", "30"]],
        ids=["pow2", "residue-lemma"],
    )
    def test_enumeration_checks_obey_budget(self, runner, args, where):
        """pow2 (2^(2^v) functions) and residue-lemma (k^2) fit the shared
        ceiling: 256 and 900 both exceed a budget of 1."""
        env = {"ZEROSUM_BUDGET": "1"} if where == "env" else {}
        extra = ["--budget", "1"] if where == "option" else []
        result = runner.invoke(["oracle", *args, *extra], env=env)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: estimated ") and "budget 1\n" in result.stderr

    @pytest.mark.parametrize(
        "v,shown",
        [("14", "2^16384"), ("100", "2^2^100"), ("20000", "2^2^20000")],
        ids=["v14", "v100", "v20000"],
    )
    def test_huge_pow2_is_one_line(self, runner, v, shown):
        """2^(2^14) has 4933 digits and 2^(2^100) cannot be built; each
        refusal prints one line."""
        result = runner.invoke(["oracle", "--target", "pow2", "--v", v])
        assert result.exit_code == 2
        assert result.output == (
            f"error: estimated {shown} work units exceed budget 1000000000\n"
        )

    def test_residue_lemma_checks_factors_before_budget(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "residue-lemma", "--k", "4620", "--factors",
             "3,5,7,11", "--budget", "100000000000"],
        )
        assert result.exit_code == 2
        assert result.output == "error: factorization 2 * 3 * 5 * 7 * 11 = 2310 != k = 4620\n"

    def test_budget_env_refusal(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "block-threshold", "--r", "1", "--s", "1",
             "--k", "6", "--cap", "16"],
            env={"ZEROSUM_BUDGET": "5"},
        )
        assert result.exit_code == 2
        assert "budget" in result.output

    def test_threshold_json_keys(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "block-threshold", "--r", "1", "--s", "2",
             "--k", "6", "--cap", "12", "--json"],
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        payload = report["result"]
        assert payload["derivedThreshold"] == 10
        assert payload["maxAvoidingN"] == 9
        assert payload["witnesses"] == ["b:000111000"]
        assert payload["exhaustive"] is True

    def test_block_threshold_lower_bound_past_cap(self, runner):
        """N(2,3,10) = 26 with an avoider at n = 25, past cap 24."""
        result = runner.invoke(
            ["oracle", "--target", "block-threshold", "--r", "2", "--s", "3",
             "--k", "10", "--cap", "24", "--budget", "10000000000"],
        )
        assert result.exit_code == 0
        assert "derivedThreshold=16 (lower bound)" in result.output
        assert "n=25" in result.output

    def test_malformed_factors_residue_lemma(self, runner):
        result = runner.invoke(
            ["oracle", "--target", "residue-lemma", "--k", "30", "--factors", "3,x"]
        )
        assert result.exit_code == 2
        assert "error: --factors" in result.output
        assert "Traceback" not in result.output

    def test_malformed_factors_construct(self, runner, tmp_path):
        out = tmp_path / "s.txt"
        result = runner.invoke(
            ["construct", "--kind", "ap-product", "--k", "30", "--factors", "3,x",
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "error: --factors" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,env",
        [(["--budget", "-5"], {}), ([], {"ZEROSUM_BUDGET": "-5"})],
        ids=["option", "env"],
    )
    def test_negative_budget_is_a_usage_error(self, runner, args, env):
        result = runner.invoke(
            ["oracle", "--target", "ap-threshold", "--k", "4", "--cap", "10", *args],
            env=env,
        )
        assert result.exit_code == 2
        assert result.output == "error: budget must be >= 0, got -5\n"

    def test_threads_is_an_unknown_option(self, runner):
        """The oracle runs in-process and takes no ``--threads``."""
        result = runner.invoke(
            ["oracle", "--target", "ap-threshold", "--r", "1", "--s", "1",
             "--k", "6", "--cap", "12", "--threads", "2"],
        )
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output


class TestShiftCommand:
    def test_min_shift(self, runner):
        result = runner.invoke(["shift", "--r", "1", "--s", "1", "--k", "100"])
        assert result.exit_code == 0
        assert "alpha=1" in result.output

    def test_min_shift_parity_case(self, runner):
        result = runner.invoke(["shift", "--r", "1", "--s", "2", "--k", "21"])
        assert result.exit_code == 0
        assert "alpha=2" in result.output

    def test_min_shift_past_the_first_prime(self, runner):
        """5 does not divide 7, so 7 + 4 = 11 prime proves nothing; the
        least good shift is 6."""
        result = runner.invoke(["shift", "--r", "4", "--s", "1", "--k", "7"])
        assert result.exit_code == 0
        assert "alpha=6" in result.output

    def test_prime_shift(self, runner):
        result = runner.invoke(
            ["shift", "--r", "1", "--s", "2", "--k", "24", "--prime"]
        )
        assert result.exit_code == 0
        assert "alpha=5" in result.output

    def test_search_failure_exit_1(self, runner):
        result = runner.invoke(
            ["shift", "--r", "1", "--s", "2", "--k", "21", "--max-alpha", "1"]
        )
        assert result.exit_code == 1
        assert "[1, 1]" in result.output

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_no_good_shift_exists(self, runner, json_flag):
        """4 does not divide 2, and no shift below (r + s)k = 8 is good, so
        none is: exit 1, nothing on stdout, and that verdict on stderr."""
        result = runner.invoke(["shift", "--r", "1", "--s", "3", "--k", "2", *json_flag])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == (
            "no good shift exists for (r, s, k) = (1, 3, 2): the least would lie in [1, 8]\n"
        )


class TestTableCommand:
    def test_ap_lb_table(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(
            ["table", "--r", "1", "--s", "1", "--k-min", "6", "--k-max", "12",
             "--what", "ap-lb", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_bytes() == b"k,value\n6,0\n8,12\n10,14\n12,16\n"

    def test_n_table_skips_non_divisible_k(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(
            ["table", "--r", "1", "--s", "2", "--k-min", "3", "--k-max", "9",
             "--what", "N", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text() == "k,value\n3,3\n6,10\n9,16\n"

    def test_shift_table(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        result = runner.invoke(
            ["table", "--r", "1", "--s", "2", "--k-min", "18", "--k-max", "24",
             "--what", "shift", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text() == "k,value\n18,1\n21,2\n24,1\n"

    def test_letters_summing_to_zero_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            ["table", "--r", "-1", "--s", "1", "--k-min", "2", "--k-max", "4",
             "--what", "N", "--out", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 2
        assert result.output == "error: r and s must be positive, got r=-1 s=1\n"

    def test_non_coprime_letters_exit_2_with_no_multiple_in_range(self, runner, tmp_path):
        # No multiple of r + s = 6 lies in [1, 5], so no row needs the
        # alphabet; it is still rejected, as it is when a row does.
        out = tmp_path / "t.csv"
        result = runner.invoke(
            ["table", "--r", "2", "--s", "4", "--k-min", "1", "--k-max", "5",
             "--what", "N", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.output == "error: gcd(r, s) must be 1, got gcd(2, 4) = 2\n"
        assert not out.exists()

    def test_table_into_missing_directory_exit_2(self, runner, tmp_path):
        out = tmp_path / "missing" / "t.csv"
        result = runner.invoke(
            ["table", "--r", "1", "--s", "1", "--k-min", "6", "--k-max", "8",
             "--what", "N", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1


class TestStreams:
    """What a command does when its reader goes away, when it is
    interrupted, and when no command is given."""

    @staticmethod
    def _popen(args, stdout):
        return subprocess.Popen(
            [sys.executable, "-m", "zerosum.cli", *args], stdout=stdout,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    def test_reader_closing_stdout_early_is_quiet(self):
        """As under ``| head -c 100``: the 346 KB report outgrows the pipe, the
        reader leaves after 100 bytes, and the command still exits 0 with
        nothing on stderr."""
        proc = self._popen(
            ["oracle", "--target", "block-threshold", "--r", "1", "--s", "1", "--k", "8",
             "--cap", "30", "--q", "6", "--json"], subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (0, b"")
        assert head.startswith(b'{\n  "command": "oracle"')

    def test_closed_stdout_keeps_the_exit_code(self, tmp_path):
        """With the reader gone before the first write, a witness still exits 1."""
        path = tmp_path / "alt.txt"
        path.write_text("# zerosum v1 r=1 s=1 n=4\n1 -1 1 -1\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self._popen(["verify", "--mode", "block", "--k", "2", "--in", str(path)],
                           write_end)
        os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")

    def test_interrupt_prints_aborted_and_exits_1(self, runner, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("zerosum.formulas.pm1_block_threshold", interrupted)
        result = runner.invoke(["bound", "--r", "1", "--s", "1", "--k", "6"])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")

    def test_no_command_prints_help_on_stderr_and_exits_2(self, runner):
        result = runner.invoke([])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("Usage: cli [OPTIONS] COMMAND [ARGS]...\n")
        assert "bound" in result.stderr

    @pytest.mark.parametrize(
        "args, usage",
        [
            (["--help"], "Usage: cli [OPTIONS] COMMAND [ARGS]...\n"),
            (["bound", "--help"], "Usage: cli bound [OPTIONS]\n"),
            (["table", "--r", "x", "--help"], "Usage: cli table [OPTIONS]\n"),
        ],
        ids=["group", "bound", "table-bad-value"],
    )
    def test_help_exits_0_on_stdout(self, runner, args, usage):
        result = runner.invoke(args)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(usage)
