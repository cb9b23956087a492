"""v1 report JSON pinned as literal ``json.dumps`` strings, so key names,
key order and nested encodings are all checked.  These are the report
shapes that the CLI golden file does not show."""

import json

import pytest

from zerosum import (
    InterpolationReport,
    Params,
    ResidueLemmaVerdict,
    ScanReport,
    SignSeq,
    TwoKVerdict,
    ap_scan,
    build_block_extremal,
    exact_block_threshold,
    is_good_shift,
    smallsum_block_scan,
)

_PINNED = [
    (
        "ap-scan-per-difference",
        lambda: ap_scan(SignSeq.from_bitstring(Params(1, 1, 2), "1" * 12), 2, collect_per_d=True),
        '{"mode": "ap", "k": 2, "found": false, "witness": null, "minAbsWeight": 2, '
        '"scannedCount": 66, "perDifferenceMinAbs": {"1": 2, "2": 2, "3": 2, "4": 2, '
        '"5": 2, "6": 2, "7": 2, "8": 2, "9": 2, "10": 2, "11": 2}}',
    ),
    (
        "smallsum-scan-with-t",
        lambda: smallsum_block_scan(build_block_extremal(Params(1, 1, 6)).seq, 6, 2),
        '{"mode": "smallsum", "k": 6, "found": true, "witness": {"start": 0, "difference": 1}, '
        '"minAbsWeight": 2, "scannedCount": 1, "t": 2}',
    ),
    (
        "scan-with-t-and-unsorted-differences",
        lambda: ScanReport(
            mode="smallsum", k=4, found=False, witness=None, min_abs_weight=2,
            scanned_count=30, t=0, per_d_min_abs={10: 4, 2: 2, 1: 6},
        ),
        '{"mode": "smallsum", "k": 4, "found": false, "witness": null, "minAbsWeight": 2, '
        '"scannedCount": 30, "t": 0, "perDifferenceMinAbs": {"1": 6, "2": 2, "10": 4}}',
    ),
    (
        "interpolation",
        lambda: InterpolationReport(
            ok=False, sign_change_implies_zero=True, adjacent_step_bounded=False,
            residues_vanish=True, window_count=5,
            detail="adjacent windows differ by more than r + s",
        ),
        '{"ok": false, "signChangeImpliesZero": true, "adjacentStepBounded": false, '
        '"residuesVanish": true, "windowCount": 5, '
        '"detail": "adjacent windows differ by more than r + s"}',
    ),
    (
        "good-shift-blocked",
        lambda: is_good_shift(Params(1, 2, 21), 1),
        '{"params": {"r": 1, "s": 2, "k": 21}, "alpha": 1, "a": 22, "primeFactorsOfA": [2, 11], '
        '"sAlpha": {"alpha": 1, "low": -1, "step": 3, "count": 2}, "good": false, '
        '"blockingWitness": {"prime": 2, "weight": 2}}',
    ),
    (
        "residue-lemma-failure",
        lambda: ResidueLemmaVerdict(
            k=30, factors=(3, 5), ok=False, plus_count=16, minus_count=14,
            progressions_checked=4, failure=(3, 1),
        ),
        '{"k": 30, "factors": [3, 5], "ok": false, "plusCount": 16, "minusCount": 14, '
        '"progressionsChecked": 4, "failure": {"difference": 3, "start": 1}}',
    ),
    (
        "two-k-counterexample",
        lambda: TwoKVerdict(
            k=4, ok=False, sequences_checked=70,
            counterexample=SignSeq.from_bitstring(Params(1, 1, 4), "00001111"),
        ),
        '{"k": 4, "ok": false, "sequencesChecked": 70, "counterexample": "b:00001111"}',
    ),
    (
        "bound-r-greater-than-s",
        lambda: exact_block_threshold(Params(3, 2, 10)),
        '{"params": {"r": 3, "s": 2, "k": 10}, "t": 2, "tPrime": 0, "m1": 16, "m2": 26, '
        '"n_exact": 26, "notes": []}',
    ),
]


@pytest.mark.parametrize("build,expected", [p[1:] for p in _PINNED], ids=[p[0] for p in _PINNED])
def test_report_json_is_pinned(build, expected):
    assert json.dumps(build().to_json_dict()) == expected
