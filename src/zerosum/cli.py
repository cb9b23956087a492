"""Command-line front end.

Exit codes are uniform across commands: 0 when a value was computed or a
claim verified, 1 when a witness or counterexample was found (or a shift
search failed), 2 on usage, input, or budget errors.  All positions in
output are 0-based.

Each command declares one option table and returns its outcome, ``(lines, code)`` plus
``(params, result)`` with --json, printing nothing on stdout.  ``main`` alone parses against
the table (usage errors in click's wording, pinned by the golden tests), times the command,
prints its lines or v1 JSON report, returns its code and maps every exception to an exit code.
Start-up loads only ``core`` and ``seqfile``; each command imports the modules it runs.
"""

from __future__ import annotations

import os
import sys
import time
from collections import namedtuple

from . import __version__
from .core import (
    AP_GOOD_SHIFT,
    AP_MOD_K,
    AP_MOD_K_PLUS1,
    AP_MOD_K_PRODUCT,
    AP_TWO_P,
    BLOCK_EXTREMAL,
    BLOCK_EXTREMAL_NEGATED,
    MODE_AP,
    MODE_BLOCK,
    MODE_SMALLSUM,
    BudgetExceededError,
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

EXIT_OK, EXIT_WITNESS, EXIT_ERROR = 0, 1, 2

_EXIT_2_ERRORS = (ParameterError, SequenceFileError, BudgetExceededError, OSError)

# A command's option table holds one Option per flag.  ``type`` is int, str, a tuple of
# choices, FLAG (takes no value), IN_FILE (must exist, not as a directory) or OUT_FILE (not
# a directory); these three double as help metavars.  ``dest`` defaults to the flag's name.
FLAG, IN_FILE, OUT_FILE = "", " FILE", " PATH"
Option = namedtuple("Option", "flag type required default help dest",
                    defaults=(int, False, None, "", None))
_HELP = Option("--help", FLAG, help="Show this message and exit.")
_GROUP = (Option("--version", FLAG, help="Show the version and exit."), _HELP)
_ABOUT = "Zero-sum block and arithmetic-subsequence toolkit for {-r,s}-sequences."
_COMMANDS: dict = {}  # name -> (command, option table)


class _UsageError(Exception):
    """``(message)``, printed below the usage lines, or ``(message, True)``, printed bare."""


def _command(*options: Option):
    """Register ``cmd_<name>`` as command ``<name>`` with its option table."""
    return lambda command: _COMMANDS.setdefault(command.__name__[4:], (command, options))[0]


def _no_such(what: str, name: str, candidates) -> _UsageError:
    from difflib import get_close_matches

    shown = ", ".join(map(repr, found := sorted(get_close_matches(name, candidates))))
    hint = f" (Did you mean one of: {shown}?)" if len(found) > 1 else (
        f" Did you mean {shown}?" if found else "")
    return _UsageError(f"No such {what} {name!r}.{hint}")


def _scan(options, args: list[str]) -> tuple[dict, list[str]]:
    """``{flag: raw value}`` (first-appearance order, last value kept) and positionals."""
    by_flag, rest = {opt.flag: opt for opt in options}, iter(args)
    given, positional = {}, []
    for arg in rest:
        if arg == "--":
            return given, positional + list(rest)
        if arg[:1] != "-" or arg == "-":
            positional.append(arg)
            continue
        flag, eq, value = arg.partition("=") if arg[:2] == "--" else (arg[:2], "", "")
        if flag not in by_flag:
            raise _no_such("option", flag, by_flag if arg[:2] == "--" else ())
        if by_flag[flag].type == FLAG:
            if eq:
                raise _UsageError(f"Option '{flag}' does not take a value.", True)
            value = True
        elif not eq and (value := next(rest, None)) is None:
            raise _UsageError(f"Option '{flag}' requires an argument.", True)
        given[flag] = value
    return given, positional


def _value(opt: Option, given: dict):
    """``opt``'s given text, converted, else its default; or a _UsageError."""
    kind, value = opt.type, given.get(opt.flag)
    if value is None:
        if not opt.required:
            return False if kind == FLAG else opt.default
        listing = ". Choose from:\n\t" + ",\n\t".join(kind) if isinstance(kind, tuple) else "."
        raise _UsageError(f"Missing option '{opt.flag}'{listing}")
    if kind is int:
        try:
            return int(value)
        except ValueError:
            problem = f"{value!r} is not a valid integer."
    elif isinstance(kind, tuple) and value not in kind:
        problem = f"{value!r} is not one of {', '.join(map(repr, kind))}."
    elif kind in (IN_FILE, OUT_FILE) and os.path.isdir(value):
        problem = f"File {value!r} is a directory."
    elif kind == IN_FILE and not os.path.exists(value):
        problem = f"File {value!r} does not exist."
    else:
        return value
    raise _UsageError(f"Invalid value for '{opt.flag}': {problem}")


def _help(usage: str, about: str, options, commands: dict | None = None) -> str:
    """The --help text: usage and summary, then a line per option and command."""
    lines = [f"Usage: {usage}", "", f"  {about}", "", "Options:"]
    for opt in options:
        kind, default = opt.type, opt.default
        meta = f" [{'|'.join(kind)}]" if isinstance(kind, tuple) else (
            " INTEGER" if kind is int else " TEXT" if kind is str else kind)
        note = "[required]" if opt.required else f"[default: {default}]" * (default is not None)
        lines.append(f"  {opt.flag + meta:<17}  " + "  ".join(filter(None, (opt.help, note))))
    if commands:
        lines += ["", "Commands:"]
        lines += [f"  {name:<17}  {cmd.__doc__}" for name, (cmd, _) in commands.items()]
    return "\n".join(line.rstrip() for line in lines)


def _echo(*lines: str) -> int:
    """Print ``lines`` on stdout and return EXIT_OK.  Once a reader closes the pipe
    (``| head``), stdout points at the null device and the rest drops quietly."""
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def main(argv: list[str] | None = None, prog: str | None = None) -> int:
    """Run one command line; return its exit code.  ``prog`` defaults to argv[0]'s basename."""
    args = sys.argv[1:] if argv is None else list(argv)
    where = prog = prog or os.path.basename(sys.argv[0])
    usage = f"{prog} [OPTIONS] COMMAND [ARGS]..."
    try:
        cmd_at = next((i for i, arg in enumerate(args) if arg[:1] != "-" or arg == "-"), len(args))
        given, rest = _scan(_GROUP, args[:cmd_at])[0], args[cmd_at:]
        if given:
            return _echo(f"zerosum, version {__version__}" if next(iter(given)) == "--version"
                         else _help(usage, _ABOUT, _GROUP, _COMMANDS))
        if not rest:  # no command: the help, as an error
            print(_help(usage, _ABOUT, _GROUP, _COMMANDS), file=sys.stderr)
            return EXIT_ERROR
        if rest[0] not in _COMMANDS:
            raise _no_such("command", rest[0], _COMMANDS)
        command, options = _COMMANDS[rest[0]]
        where, usage = f"{prog} {rest[0]}", f"{prog} {rest[0]} [OPTIONS]"
        given, extra = _scan((*options, _HELP), rest[1:])
        if "--help" in given:
            return _echo(_help(usage, command.__doc__, (*options, _HELP)))
        # click's order: the options given, as given, then the rest as declared.
        order = [*given, *(opt.flag for opt in options)]
        values = {opt.dest or opt.flag[2:].replace("-", "_"): _value(opt, given)
                  for opt in sorted(options, key=lambda opt: order.index(opt.flag))}
        if extra:
            plural = "s" * (len(extra) > 1)
            raise _UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
        as_json = values.pop("as_json", False)
        started = time.perf_counter()
        lines, code, *report = command(**values)
        if as_json:
            import json

            params, result = report
            lines = [json.dumps({
                "command": rest[0], "params": params, "result": result, "toolVersion": __version__,
                "elapsedMillis": int((time.perf_counter() - started) * 1000), "indexing": "0-based",
            }, indent=2)]
        _echo(*lines)
        return code
    except _UsageError as exc:
        message, *bare = exc.args
        head = "" if bare else f"Usage: {usage}\nTry '{where} --help' for help.\n\n"
        print(f"{head}Error: {message}", file=sys.stderr)
        return EXIT_ERROR
    except ShiftSearchError as exc:  # raised by ``shift`` alone
        print(exc if exc.proven else
              f"no good shift found for alpha in [{exc.alpha_min}, {exc.alpha_max}]",
              file=sys.stderr)
        return EXIT_WITNESS
    except _EXIT_2_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        return EXIT_WITNESS


def _parse_factors(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"--factors must be comma-separated integers, got {text!r}") from None


_JSON = Option("--json", FLAG, help="Emit a JSON report.", dest="as_json")


@_command(
    Option("--r", required=True, help="Magnitude of the negative letter."),
    Option("--s", required=True, help="Positive letter."),
    Option("--k", required=True, help="Target subsequence length."),
    Option("--q", help="Slack on |total weight|; selects the sufficient bound."),
    Option("--t", help="Small-sum tolerance; requires r = s = 1."),
    _JSON,
)
def cmd_bound(r: int, s: int, k: int, q: int | None, t: int | None) -> tuple:
    """Evaluate a threshold formula for (r, s, k)."""
    from .formulas import (
        exact_block_threshold,
        pm1_block_threshold,
        pm1_smallsum_threshold,
        sufficient_block_bound,
    )

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
        lines = [f"N({r},{s},{k}) = {value}" if q is None
                 else f"block threshold for r=s=1 (k={k}, q={q}): n >= {value}"]
    elif q is not None:
        bound = sufficient_block_bound(params, q)
        value = bound.n_sufficient
        result = {"kind": "sufficient-block-bound", "value": value, **bound.to_json_dict()}
        lines = [f"sufficient block bound (k={k}, q={q}): n >= {value}"]
    else:
        report = exact_block_threshold(params)
        value = report.n_exact
        result = {"kind": "exact-block-threshold", "value": value, **report.to_json_dict()}
        lines = [
            f"N({r},{s},{k}) = {value}",
            f"  t={report.t} t'={report.t_prime} M1={report.m1} M2={report.m2}",
            *(f"  note: {note}" for note in report.notes),
        ]
    return lines, EXIT_OK, {"r": r, "s": s, "k": k, "q": q, "t": t}, result


@_command(
    Option("--kind", (BLOCK_EXTREMAL, BLOCK_EXTREMAL_NEGATED, AP_MOD_K, AP_MOD_K_PRODUCT,
                      AP_MOD_K_PLUS1, AP_GOOD_SHIFT, AP_TWO_P), required=True),
    Option("--r", default=1),
    Option("--s", default=1),
    Option("--k", help="Target length (not used by ap-two-p)."),
    Option("--alpha", help="Shift for ap-good-shift; minimum good shift when omitted."),
    Option("--factors", str, help="Comma-separated odd coprime factors for ap-product."),
    Option("--p", help="Odd prime for ap-two-p."),
    Option("--out", OUT_FILE, required=True, dest="out_path"),
    Option("--bits", FLAG, help="Write the b:<bitstring> body instead of values.", dest="use_bits"),
)
def cmd_construct(
    kind: str, r: int, s: int, k: int | None, alpha: int | None, factors: str | None,
    p: int | None, out_path: str, use_bits: bool,
) -> tuple:
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
    if kind == AP_GOOD_SHIFT and alpha is None:  # (r + s) | k is checked before the search
        Params(r, s, k).require_block_divisibility()
        alpha = min_good_shift(Params(r, s, k))
    built = {
        BLOCK_EXTREMAL: lambda: build_block_extremal(Params(r, s, k)),
        BLOCK_EXTREMAL_NEGATED: lambda: build_block_extremal_negated(Params(r, s, k)),
        AP_MOD_K: lambda: build_ap_mod_k(k),
        AP_MOD_K_PRODUCT: lambda: build_ap_mod_k_product(k, _parse_factors(factors)),
        AP_MOD_K_PLUS1: lambda: build_ap_mod_k_plus1(k),
        AP_GOOD_SHIFT: lambda: build_ap_good_shift(Params(r, s, k), alpha),
        AP_TWO_P: lambda: build_ap_two_p(p),
    }[kind]()
    if kind == AP_MOD_K_PRODUCT:
        seq, claim = built.as_sequence(), (
            f"residue function with {built.count_plus()} ones and {built.count_minus()} "
            "minus-ones; every full progression over the residues has nonzero weight"
        )
    else:
        seq, claim = built.seq, built.claim.description
    write_sequence(out_path, seq, ENCODING_BITS if use_bits else ENCODING_VALUES)
    if seq.n == 0:
        print("warning: degenerate construction of length 0 at these parameters", file=sys.stderr)
    return [f"n={seq.n} {claim} (positions 0-based)"], EXIT_OK


@_command(
    Option("--mode", (MODE_BLOCK, MODE_AP, MODE_SMALLSUM), required=True),
    Option("--k", required=True),
    Option("--t", help="Tolerance for smallsum mode."),
    Option("--in", IN_FILE, required=True, dest="in_path"),
    _JSON,
)
def cmd_verify(mode: str, k: int, t: int | None, in_path: str) -> tuple:
    """Scan a sequence file; exit 0 when the avoidance claim holds, 1 on a witness."""
    from .scanners import ap_scan, block_scan, smallsum_block_scan

    seq = read_sequence(in_path, k=k)
    if mode == MODE_SMALLSUM and t is None:
        raise ParameterError("--t is required for smallsum mode")
    report = {
        MODE_BLOCK: block_scan, MODE_AP: ap_scan,
        MODE_SMALLSUM: lambda seq, k: smallsum_block_scan(seq, k, t),
    }[mode](seq, k)
    if report.found:
        start, diff = report.witness
        line = (f"witness found: start={start} difference={diff} "
                f"(positions 0-based, scanned {report.scanned_count})")
    else:
        line = (f"no witness: minAbsWeight={report.min_abs_weight} over "
                f"{report.scanned_count} windows (positions 0-based)")
    return ([line], EXIT_WITNESS if report.found else EXIT_OK,
            {"mode": mode, "k": k, "t": t, "in": in_path}, report.to_json_dict())


@_command(
    Option("--target", ("block-threshold", "ap-threshold", "two-k", "pow2", "residue-lemma"),
           required=True),
    Option("--r", default=1),
    Option("--s", default=1),
    Option("--k"),
    Option("--q", default=0),
    Option("--cap", help="Largest length to enumerate."),
    Option("--v", help="Exponent for the pow2 target."),
    Option("--factors", str, help="Factors for residue-lemma (default: k/2)."),
    Option("--budget", help="Work-unit ceiling override."),
    _JSON,
)
def cmd_oracle(
    target: str, r: int, s: int, k: int | None, q: int, cap: int | None, v: int | None,
    factors: str | None, budget: int | None,
) -> tuple:
    """Exhaustive searches and full-enumeration proposition checks."""
    from .oracle import (
        exact_threshold,
        verify_2k_proposition,
        verify_lemma_residue_properties,
        verify_pow2_rigidity,
    )

    cli_params = {"target": target, "r": r, "s": s, "k": k, "q": q, "cap": cap, "v": v}
    mode = {"block-threshold": MODE_BLOCK, "ap-threshold": MODE_AP}.get(target)
    if mode is not None:
        if k is None or cap is None:
            raise ParameterError("--k and --cap are required for threshold targets")
        result = exact_threshold(Params(r, s, k), mode, q=q, search_cap=cap, budget=budget)
        label = "lower bound" if result.capped else "exact"
        lines = [
            f"derivedThreshold={result.derived_threshold} ({label}), "
            f"maxAvoidingN={result.max_avoiding_n}, "
            f"{result.avoiding_count_at_max} avoiding sequence(s) at the max",
            *(f"note: {note}" for note in result.notes),
        ]
        return lines, EXIT_OK, cli_params, result.to_json_dict()
    if target == "pow2":
        if v is None:
            raise ParameterError("--v is required for pow2")
        verdict = verify_pow2_rigidity(v, budget)
        line = (f"pow2 {'verified' if verdict.ok else 'FAILED'}: {len(verdict.survivors)} "
                f"of {verdict.functions_checked} functions survive")
    elif k is None:
        raise ParameterError(f"--k is required for {target}")
    elif target == "two-k":
        verdict = verify_2k_proposition(k, budget)
        state = "verified" if verdict.ok else "COUNTEREXAMPLE FOUND"
        line = f"two-k {state}: {verdict.sequences_checked} sequences checked"
    else:
        fac = (k // 2,) if factors is None else _parse_factors(factors)
        verdict = verify_lemma_residue_properties(k, fac, budget)
        line = (f"residue-lemma {'verified' if verdict.ok else 'FAILED'}: counts "
                f"{verdict.plus_count}/{verdict.minus_count}, "
                f"{verdict.progressions_checked} progressions")
    return [line], EXIT_OK if verdict.ok else EXIT_WITNESS, cli_params, verdict.to_json_dict()


@_command(
    Option("--r", required=True),
    Option("--s", required=True),
    Option("--k", required=True),
    Option("--max-alpha", help="Explicit search horizon."),
    Option("--prime", FLAG, help="Search for the prime-certified shift.", dest="use_prime"),
    _JSON,
)
def cmd_shift(r: int, s: int, k: int, max_alpha: int | None, use_prime: bool) -> tuple:
    """Find the minimum good shift (or the prime-certified shift) for (r, s, k)."""
    from .good_shift import min_good_shift, prime_shift

    params = Params(r, s, k)
    shift = prime_shift(params) if use_prime else min_good_shift(params, max_alpha)
    line = (f"alpha={shift.alpha} (k + alpha = {shift.a} with prime factors "
            f"{list(shift.prime_factors)})")
    return ([line], EXIT_OK, {"r": r, "s": s, "k": k, "maxAlpha": max_alpha, "prime": use_prime},
            shift.to_json_dict())


@_command(
    Option("--r", required=True),
    Option("--s", required=True),
    Option("--k-min", required=True),
    Option("--k-max", required=True),
    Option("--what", ("N", "shift", "ap-lb"), required=True),
    Option("--out", OUT_FILE, required=True, dest="out_path"),
)
def cmd_table(r: int, s: int, k_min: int, k_max: int, what: str, out_path: str) -> tuple:
    """Write a k,value CSV over the k-range (k restricted to multiples of r + s)."""
    from .formulas import ap_lower_bound_value, block_threshold
    from .good_shift import min_good_shift

    if k_min < 1 or k_max < k_min:
        raise ParameterError(f"bad k range [{k_min}, {k_max}]")
    value_of = {
        "N": block_threshold,
        "shift": lambda params: min_good_shift(params).alpha,
        "ap-lb": lambda params: ap_lower_bound_value(params, min_good_shift(params)),
    }[what]
    modulus = Params(r, s, k_min).modulus  # validates r and s before k % (r + s)
    rows = [(k, value_of(Params(r, s, k))) for k in range(k_min, k_max + 1) if k % modulus == 0]
    with open(out_path, "w", newline="", encoding="ascii") as fh:
        fh.write("k,value\n" + "".join(f"{k},{value}\n" for k, value in rows))
    return [f"wrote {len(rows)} rows to {out_path}"], EXIT_OK


if __name__ == "__main__":
    sys.exit(main(prog="python -m zerosum.cli"))
