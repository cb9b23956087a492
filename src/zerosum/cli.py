"""Command-line front end.

Exit codes are uniform across commands: 0 when a value was computed or a
claim verified, 1 when a witness or counterexample was found (or a shift
search failed), 2 on usage, input, or budget errors.  All positions in
output are 0-based.

Start-up loads only ``core`` and ``seqfile``; each command imports the
modules it runs in its own body.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import click

from . import __version__
from .core import (
    AP_GOOD_SHIFT,
    AP_MOD_K,
    AP_MOD_K_PLUS1,
    AP_MOD_K_PRODUCT,
    AP_TWO_P,
    BLOCK_EXTREMAL,
    BLOCK_EXTREMAL_NEGATED,
    BudgetExceededError,
    FormulaDomainError,
    ParameterError,
    Params,
    ShiftSearchError,
)
from .seqfile import (
    ENCODING_BITS,
    ENCODING_VALUES,
    SequenceFileError,
    read_sequence,
    write_sequence,
)

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2

_EXIT_2_ERRORS = (
    ParameterError,
    FormulaDomainError,
    SequenceFileError,
    BudgetExceededError,
    OSError,
)


def _exit_codes(shift_failure: str = "error: {exc}"):
    """Map a command's exceptions to exit codes, each reported as one stderr
    line: 1 for an exhausted shift search (``shift_failure`` formatted with
    ``exc``), 2 for usage, input, budget and file errors."""

    def decorate(command):
        @functools.wraps(command)
        def run(*args, **kwargs):
            try:
                return command(*args, **kwargs)
            except ShiftSearchError as exc:
                click.echo(shift_failure.format(exc=exc), err=True)
                sys.exit(EXIT_WITNESS)
            except _EXIT_2_ERRORS as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_ERROR)

        return run

    return decorate


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"--factors must be comma-separated integers, got {text!r}") from None


def _finish(
    command: str, params: dict, result: dict, lines: list[str], as_json: bool,
    started: float, code: int = EXIT_OK,
) -> None:
    """Print the v1 JSON report (``result`` under ``params``) or the human
    ``lines``, then exit with ``code``."""
    if as_json:
        import json

        lines = [json.dumps({
            "command": command,
            "params": params,
            "result": result,
            "toolVersion": __version__,
            "elapsedMillis": int((time.perf_counter() - started) * 1000),
            "indexing": "0-based",
        }, indent=2)]
    for line in lines:
        click.echo(line)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__, prog_name="zerosum")
def cli() -> None:
    """Zero-sum block and arithmetic-subsequence toolkit for {-r,s}-sequences."""


@cli.command("bound")
@click.option("--r", "r", type=int, required=True, help="Magnitude of the negative letter.")
@click.option("--s", "s", type=int, required=True, help="Positive letter.")
@click.option("--k", "k", type=int, required=True, help="Target subsequence length.")
@click.option("--q", "q", type=int, default=None, help="Slack on |total weight|; selects the sufficient bound.")
@click.option("--t", "t", type=int, default=None, help="Small-sum tolerance; requires r = s = 1.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes()
def cmd_bound(r: int, s: int, k: int, q: int | None, t: int | None, as_json: bool) -> None:
    """Evaluate a threshold formula for (r, s, k)."""
    from .formulas import (
        exact_block_threshold_symmetric,
        pm1_block_threshold,
        pm1_smallsum_threshold,
        sufficient_block_bound,
    )

    started = time.perf_counter()
    params = Params(r, s, k)
    if t is not None:
        if (r, s) != (1, 1):
            raise ParameterError("--t requires r = s = 1")
        value = pm1_smallsum_threshold(k, t, q or 0)
        result = {"kind": "smallsum-threshold", "value": value, "t": t, "q": q or 0}
        lines = [f"smallsum threshold (k={k}, t={t}, q={q or 0}): n >= {value}"]
    elif (r, s) == (1, 1):
        value = pm1_block_threshold(k, q or 0)
        result = {"kind": "pm1-block-threshold", "value": value, "q": q or 0}
        lines = [
            f"N({r},{s},{k}) = {value}" if q is None
            else f"block threshold for r=s=1 (k={k}, q={q}): n >= {value}"
        ]
    elif q is not None:
        bound = sufficient_block_bound(params, q)
        value = bound.n_sufficient
        result = {"kind": "sufficient-block-bound", "value": value, **bound.to_json_dict()}
        lines = [f"sufficient block bound (k={k}, q={q}): n >= {value}"]
    else:
        report = exact_block_threshold_symmetric(params)
        value = report.n_exact
        result = {"kind": "exact-block-threshold", "value": value, **report.to_json_dict()}
        lines = [
            f"N({r},{s},{k}) = {value}",
            f"  t={report.t} t'={report.t_prime} M1={report.m1} M2={report.m2}",
            *(f"  note: {note}" for note in report.notes),
        ]
    _finish("bound", {"r": r, "s": s, "k": k, "q": q, "t": t}, result, lines, as_json, started)


_KIND_CHOICES = [
    BLOCK_EXTREMAL, BLOCK_EXTREMAL_NEGATED, AP_MOD_K, AP_MOD_K_PRODUCT, AP_MOD_K_PLUS1,
    AP_GOOD_SHIFT, AP_TWO_P,
]


@cli.command("construct")
@click.option("--kind", type=click.Choice(_KIND_CHOICES), required=True)
@click.option("--r", "r", type=int, default=1, show_default=True)
@click.option("--s", "s", type=int, default=1, show_default=True)
@click.option("--k", "k", type=int, default=None, help="Target length (not used by ap-two-p).")
@click.option("--alpha", type=int, default=None, help="Shift for ap-good-shift; minimum good shift when omitted.")
@click.option("--factors", type=str, default=None, help="Comma-separated odd coprime factors for ap-product.")
@click.option("--p", "p", type=int, default=None, help="Odd prime for ap-two-p.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--bits", "use_bits", is_flag=True, help="Write the b:<bitstring> body instead of values.")
@_exit_codes()
def cmd_construct(
    kind: str, r: int, s: int, k: int | None, alpha: int | None, factors: str | None,
    p: int | None, out_path: str, use_bits: bool,
) -> None:
    """Generate an extremal sequence and write it as a sequence file."""
    from .constructions import (
        build_ap_good_shift,
        build_ap_mod_k,
        build_ap_mod_k_plus1,
        build_ap_mod_k_product,
        build_ap_two_p,
        build_block_extremal,
        build_block_extremal_negated,
    )
    from .good_shift import min_good_shift

    if (r, s) != (1, 1) and kind in (AP_MOD_K, AP_MOD_K_PRODUCT, AP_MOD_K_PLUS1, AP_TWO_P):
        raise ParameterError(f"{kind} is defined for r = s = 1 only")
    if None in {AP_TWO_P: (p,), AP_MOD_K_PRODUCT: (k, factors)}.get(kind, (k,)):
        needed = {AP_TWO_P: "--p is", AP_MOD_K_PRODUCT: "--k and --factors are"}
        raise ParameterError(f"{needed.get(kind, '--k is')} required for {kind}")
    if kind == AP_MOD_K_PRODUCT:
        fn = build_ap_mod_k_product(k, _parse_factors(factors))
        seq, claim = fn.as_sequence(), (
            f"residue function with {fn.count_plus()} ones and {fn.count_minus()} minus-ones; "
            "every full progression over the residues has nonzero weight"
        )
    else:
        if kind == AP_TWO_P:
            construction = build_ap_two_p(p)
        elif kind == AP_MOD_K:
            construction = build_ap_mod_k(k)
        elif kind == AP_MOD_K_PLUS1:
            construction = build_ap_mod_k_plus1(k)
        elif kind == AP_GOOD_SHIFT:
            params = Params(r, s, k)
            shift = min_good_shift(params) if alpha is None else alpha
            construction = build_ap_good_shift(params, shift)
        elif kind == BLOCK_EXTREMAL:
            construction = build_block_extremal(Params(r, s, k))
        else:
            construction = build_block_extremal_negated(Params(r, s, k))
        seq, claim = construction.seq, construction.claim.description
    write_sequence(out_path, seq, ENCODING_BITS if use_bits else ENCODING_VALUES)
    if seq.n == 0:
        click.echo("warning: degenerate construction of length 0 at these parameters", err=True)
    click.echo(f"n={seq.n} {claim} (positions 0-based)")


@cli.command("verify")
@click.option("--mode", type=click.Choice(["block", "ap", "smallsum"]), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--t", "t", type=int, default=None, help="Tolerance for smallsum mode.")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--json", "as_json", is_flag=True)
@_exit_codes()
def cmd_verify(mode: str, k: int, t: int | None, in_path: str, as_json: bool) -> None:
    """Scan a sequence file; exit 0 when the avoidance claim holds, 1 on a witness."""
    from .scanners import ap_scan, block_scan, smallsum_block_scan

    started = time.perf_counter()
    seq = read_sequence(in_path, k=k)
    if mode == "block":
        report = block_scan(seq, k)
    elif mode == "ap":
        report = ap_scan(seq, k)
    else:
        if t is None:
            raise ParameterError("--t is required for smallsum mode")
        report = smallsum_block_scan(seq, k, t)
    if report.found:
        start, diff = report.witness
        line = (
            f"witness found: start={start} difference={diff} "
            f"(positions 0-based, scanned {report.scanned_count})"
        )
    else:
        line = (
            f"no witness: minAbsWeight={report.min_abs_weight} over "
            f"{report.scanned_count} windows (positions 0-based)"
        )
    _finish(
        "verify", {"mode": mode, "k": k, "t": t, "in": os.fspath(in_path)},
        report.to_json_dict(), [line], as_json, started,
        EXIT_WITNESS if report.found else EXIT_OK,
    )


@cli.command("oracle")
@click.option(
    "--target",
    type=click.Choice(["block-threshold", "ap-threshold", "two-k", "pow2", "residue-lemma"]),
    required=True,
)
@click.option("--r", "r", type=int, default=1, show_default=True)
@click.option("--s", "s", type=int, default=1, show_default=True)
@click.option("--k", "k", type=int, default=None)
@click.option("--q", "q", type=int, default=0, show_default=True)
@click.option("--cap", type=int, default=None, help="Largest length to enumerate.")
@click.option("--v", "v", type=int, default=None, help="Exponent for the pow2 target.")
@click.option("--factors", type=str, default=None, help="Factors for residue-lemma (default: k/2).")
@click.option("--budget", type=int, default=None, help="Work-unit ceiling override.")
@click.option("--json", "as_json", is_flag=True)
@_exit_codes()
def cmd_oracle(
    target: str, r: int, s: int, k: int | None, q: int, cap: int | None, v: int | None,
    factors: str | None, budget: int | None, as_json: bool,
) -> None:
    """Exhaustive searches and full-enumeration proposition checks."""
    from .oracle import (
        exact_threshold,
        verify_2k_proposition,
        verify_lemma_residue_properties,
        verify_pow2_rigidity,
    )

    started = time.perf_counter()
    cli_params = {"target": target, "r": r, "s": s, "k": k, "q": q, "cap": cap, "v": v}
    if target in ("block-threshold", "ap-threshold"):
        if k is None or cap is None:
            raise ParameterError("--k and --cap are required for threshold targets")
        result = exact_threshold(
            Params(r, s, k),
            "block" if target == "block-threshold" else "ap",
            q=q,
            search_cap=cap,
            budget=budget,
        )
        label = "exact" if result.exhaustive and not result.capped else "lower bound"
        lines = [
            f"derivedThreshold={result.derived_threshold} ({label}), "
            f"maxAvoidingN={result.max_avoiding_n}, "
            f"{result.avoiding_count_at_max} avoiding sequence(s) at the max",
            *(f"note: {note}" for note in result.notes),
        ]
        _finish("oracle", cli_params, result.to_json_dict(), lines, as_json, started)
    if target == "pow2":
        if v is None:
            raise ParameterError("--v is required for pow2")
        verdict = verify_pow2_rigidity(v, budget)
        line = (
            f"pow2 {'verified' if verdict.ok else 'FAILED'}: {len(verdict.survivors)} "
            f"of {verdict.functions_checked} functions survive"
        )
    elif k is None:
        raise ParameterError(f"--k is required for {target}")
    elif target == "two-k":
        verdict = verify_2k_proposition(k, budget)
        state = "verified" if verdict.ok else "COUNTEREXAMPLE FOUND"
        line = f"two-k {state}: {verdict.sequences_checked} sequences checked"
    else:
        fac = (k // 2,) if factors is None else _parse_factors(factors)
        verdict = verify_lemma_residue_properties(k, fac, budget)
        line = (
            f"residue-lemma {'verified' if verdict.ok else 'FAILED'}: counts "
            f"{verdict.plus_count}/{verdict.minus_count}, "
            f"{verdict.progressions_checked} progressions"
        )
    _finish(
        "oracle", cli_params, verdict.to_json_dict(), [line], as_json, started,
        EXIT_OK if verdict.ok else EXIT_WITNESS,
    )


@cli.command("shift")
@click.option("--r", "r", type=int, required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--max-alpha", type=int, default=None, help="Explicit search horizon.")
@click.option("--prime", "use_prime", is_flag=True, help="Search for the prime-certified shift.")
@click.option("--json", "as_json", is_flag=True)
@_exit_codes("no good shift found for alpha in [{exc.alpha_min}, {exc.alpha_max}]")
def cmd_shift(
    r: int, s: int, k: int, max_alpha: int | None, use_prime: bool, as_json: bool
) -> None:
    """Find the minimum good shift (or the prime-certified shift) for (r, s, k)."""
    from .good_shift import min_good_shift, prime_shift

    started = time.perf_counter()
    params = Params(r, s, k)
    shift = prime_shift(params) if use_prime else min_good_shift(params, max_alpha)
    line = (
        f"alpha={shift.alpha} (k + alpha = {shift.a} with prime factors "
        f"{list(shift.prime_factors)})"
    )
    _finish(
        "shift", {"r": r, "s": s, "k": k, "maxAlpha": max_alpha, "prime": use_prime},
        shift.to_json_dict(), [line], as_json, started,
    )


@cli.command("table")
@click.option("--r", "r", type=int, required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--k-min", type=int, required=True)
@click.option("--k-max", type=int, required=True)
@click.option("--what", type=click.Choice(["N", "shift", "ap-lb"]), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_exit_codes()
def cmd_table(r: int, s: int, k_min: int, k_max: int, what: str, out_path: str) -> None:
    """Write a k,value CSV over the k-range (k restricted to multiples of r + s)."""
    import csv

    from .formulas import ap_lower_bound_value, block_threshold
    from .good_shift import min_good_shift

    if k_min < 1 or k_max < k_min:
        raise ParameterError(f"bad k range [{k_min}, {k_max}]")
    rows: list[tuple[int, int]] = []
    modulus = Params(r, s, k_min).modulus  # validates r and s before k % (r + s)
    for k in range(k_min, k_max + 1):
        if k % modulus:
            continue
        params = Params(r, s, k)
        if what == "N":
            value = block_threshold(params)
        elif what == "shift":
            value = min_good_shift(params).alpha
        else:
            value = ap_lower_bound_value(params, min_good_shift(params))
        rows.append((k, value))
    with open(out_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONE)
        writer.writerow(["k", "value"])
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
