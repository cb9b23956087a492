"""Start-up contract: which ``zerosum`` modules an import or a command loads,
and the lazily resolved public API of the package."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import zerosum

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

# The public names of the package; none may be dropped.
PUBLIC = {
    "__version__",
    "BudgetExceededError", "ParameterError", "Params", "ShiftSearchError", "SignSeq",
    "WeightRange", "weight_range",
    "BoundReport", "SufficientBound", "ap_lower_bound_value", "block_threshold",
    "exact_block_threshold", "exact_block_threshold_symmetric", "pm1_block_threshold",
    "pm1_smallsum_threshold", "sufficient_block_bound",
    "ClaimedProperty", "Construction", "ResidueFunction", "build_ap_good_shift",
    "build_ap_mod_k", "build_ap_mod_k_plus1", "build_ap_mod_k_product", "build_ap_two_p",
    "build_block_extremal", "build_block_extremal_negated",
    "InterpolationReport", "ScanReport", "ap_scan", "ap_scan_naive", "block_scan",
    "interpolation_check", "smallsum_block_scan",
    "GoodShift", "is_good_shift", "is_prime", "min_good_shift", "prime_factors",
    "prime_shift",
    "Pow2Verdict", "ResidueLemmaVerdict", "ThresholdResult", "TwoKVerdict",
    "estimate_window_evaluations", "exact_threshold", "verify_2k_proposition",
    "verify_lemma_residue_properties", "verify_pow2_rigidity",
    "SequenceFileError", "format_sequence", "parse_sequence", "read_sequence",
    "write_sequence",
}

# A child records its modules before zerosum loads and prints, on its last
# stdout line, the modules added since.
PRELUDE = "import runpy, sys\nbefore = set(sys.modules)\n"
REPORT = "\nprint(' '.join(sorted(set(sys.modules) - before)))\n"

# No import or command may load these: ``dataclasses`` brings ``inspect``,
# ``ast``, ``dis`` and ``tokenize``, several milliseconds of every process
# start, and ``fractions`` brings ``decimal`` and ``numbers`` (the closed
# forms are evaluated in integers).
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}


def _added(code: str, cwd: Path, *flags: str) -> set[str]:
    """The modules a fresh interpreter (with ``src`` on its path and the
    given interpreter ``flags``) adds to ``sys.modules`` while it runs
    ``code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, *flags, "-c", PRELUDE + code + REPORT],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


def _ours(added: set[str]) -> set[str]:
    """The ``zerosum`` and ``click`` modules among ``added``; click is kept
    so that every set pinned below also pins that the CLI runs on the
    standard library alone."""
    return {m for m in added if m.partition(".")[0] in ("zerosum", "click")}


def test_import_zerosum_loads_no_submodule(tmp_path):
    assert _ours(_added("import zerosum", tmp_path)) == {"zerosum"}


def test_import_cli_loads_core_and_seqfile_only(tmp_path):
    # None of oracle, scanners, constructions, formulas or good_shift.
    added = _added("import zerosum.cli", tmp_path)
    assert _ours(added) == {"zerosum", "zerosum.cli", "zerosum.core", "zerosum.seqfile"}
    assert not added & HEAVY


def test_importing_every_submodule_loads_no_heavy_module(tmp_path):
    homes = sorted(set(zerosum._HOME.values()))
    assert len(homes) == 7
    added = _added("".join(f"import zerosum.{m}\n" for m in homes), tmp_path)
    assert _ours(added) == {"zerosum", *(f"zerosum.{m}" for m in homes)}
    assert not added & HEAVY


# The CLI itself runs as __main__ (as under ``python -m zerosum.cli``), so
# ``zerosum.cli`` is not among the loaded modules; start-up adds ``core`` and
# ``seqfile``, each command its own modules.
START = {"zerosum", "zerosum.core", "zerosum.seqfile"}
SEQ_FILE = "# zerosum v1 r=1 s=2 n=9\n-1 -1 -1 2 2 2 -1 -1 -1\n"


def _command(args: list[str]) -> str:
    """Code that runs the CLI on ``args`` as ``__main__`` and fails unless it exits 0."""
    return (
        f"sys.argv = ['zerosum', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('zerosum.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
    )


# Each command with the modules it adds to START.
COMMANDS = [
    (["bound", "--r", "1", "--s", "2", "--k", "6"], {"formulas", "good_shift"}),
    (["construct", "--kind", "block-extremal", "--r", "1", "--s", "2", "--k", "6",
      "--out", "out.txt"], {"constructions", "formulas", "good_shift"}),
    (["verify", "--mode", "block", "--k", "6", "--in", "s.txt"], {"scanners"}),
    (["oracle", "--target", "pow2", "--v", "2"],
     {"oracle", "constructions", "formulas", "good_shift"}),
    (["shift", "--r", "1", "--s", "2", "--k", "21", "--json"], {"good_shift"}),
    (["table", "--r", "1", "--s", "1", "--k-min", "6", "--k-max", "8", "--what", "ap-lb",
      "--out", "t.csv"], {"formulas", "good_shift"}),
]


@pytest.mark.parametrize(
    "args, extra", COMMANDS, ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_command_loads_only_its_modules(tmp_path, args, extra):
    (tmp_path / "s.txt").write_text(SEQ_FILE)
    added = _added(_command(args), tmp_path)
    assert _ours(added) == START | {f"zerosum.{m}" for m in extra}
    assert not added & HEAVY


# Under ``python -S`` no ``.pth`` file imports anything before the command
# runs, so what it loads is its own.  These three cost about 20 ms of each
# such command (``bound`` 47 against 27 ms, Python 3.11 on a 2-core VM).
# ``--json`` still loads ``re``, through ``json``.
BARE_FREE = {"re", "typing", "pathlib"}


@pytest.mark.parametrize(
    "args",
    [
        ["bound", "--r", "1", "--s", "2", "--k", "6"],
        ["verify", "--mode", "block", "--k", "6", "--in", "s.txt"],
    ],
    ids=lambda v: v[0],
)
def test_command_on_a_bare_interpreter_loads_no_re_typing_or_pathlib(tmp_path, args):
    (tmp_path / "s.txt").write_text(SEQ_FILE)
    # Nothing has loaded them before the command starts, so a load would show.
    assert _added("import pathlib, re, typing", tmp_path, "-S") >= BARE_FREE
    assert not _added(_command(args), tmp_path, "-S") & BARE_FREE


# ``SignSeq`` packs its letters with ``int.to_bytes`` and reads them through
# ``memoryview``, so nothing needs these; loading ``array`` alone costs about
# 0.4 ms of each process start (a shared-library load).  Under ``python -S``
# no ``.pth`` file has loaded ``struct`` first, so a load would show.
PACKERS = {"array", "struct"}


@pytest.mark.parametrize(
    "code", ["import zerosum.cli", *(_command(args) for args, _ in COMMANDS)],
    ids=["import", *(args[0] for args, _ in COMMANDS)],
)
def test_no_import_or_command_loads_array_or_struct(tmp_path, code):
    (tmp_path / "s.txt").write_text(SEQ_FILE)
    assert _added("import array, struct", tmp_path, "-S") >= PACKERS
    assert not _added(code, tmp_path, "-S") & PACKERS


def test_every_imported_name_is_used():
    """Each name a module binds by a top-level import is read somewhere in it."""
    import ast

    unused = {}
    for path in sorted((SRC / "zerosum").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in imports if getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}


def test_usage_names_the_module_under_python_m(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "zerosum.cli", "bound", "--r", "1", "--s", "2"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "Usage: python -m zerosum.cli bound [OPTIONS]",
        "Try 'python -m zerosum.cli bound --help' for help.",
        "",
        "Error: Missing option '--k'.",
    ]


def test_all_keeps_every_public_name():
    assert PUBLIC <= set(zerosum.__all__)
    assert len(zerosum.__all__) == len(set(zerosum.__all__))


def test_readme_library_example_prints_what_its_comments_say(capsys):
    """The README's ``python`` block, the documented use of the public API,
    runs and prints 10, 3 and 10, each the number its comment opens with."""
    example = README.read_text(encoding="utf-8").split("```python\n")[1].split("```")[0]
    exec(compile(example, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed == ["10", "3", "10"]
    assert re.findall(r"^print\(.*# (\d+)", example, re.MULTILINE) == printed


@pytest.mark.parametrize("name", [n for n in zerosum.__all__ if n != "__version__"])
def test_export_resolves_to_its_home_module_object(name):
    home = f"zerosum.{zerosum._HOME[name]}"
    value = getattr(zerosum, name)
    assert value is getattr(import_module(home), name)
    assert value.__module__ == home
    assert getattr(zerosum, name) is value


def test_star_import_binds_all_and_dir_covers_it():
    namespace: dict = {}
    exec("from zerosum import *", namespace)
    assert set(zerosum.__all__) <= namespace.keys()
    assert set(zerosum.__all__) <= set(dir(zerosum))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zerosum.no_such_name  # noqa: B018
