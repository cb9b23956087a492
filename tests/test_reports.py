"""v1 report JSON pinned as literal ``json.dumps`` strings, so key names,
key order and nested encodings are all checked.  These are the report
shapes that the CLI golden file does not show.  The value semantics of the
report and construction records (defaults, immutability, hashing, repr)
are pinned too."""

import json

import pytest

from zerosum import (
    BoundReport,
    ClaimedProperty,
    Construction,
    GoodShift,
    InterpolationReport,
    Params,
    Pow2Verdict,
    ResidueFunction,
    ResidueLemmaVerdict,
    ScanReport,
    SignSeq,
    SufficientBound,
    ThresholdResult,
    TwoKVerdict,
    ap_scan,
    build_block_extremal,
    exact_block_threshold,
    is_good_shift,
    smallsum_block_scan,
    weight_range,
)

_PINNED = [
    (
        "ap-scan-per-difference",
        lambda: ap_scan(SignSeq.from_bitstring(Params(1, 1, 2), "1" * 12), 2),
        '{"mode": "ap", "k": 2, "found": false, "witness": null, "minAbsWeight": 2, '
        '"scannedCount": 66}',
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
            scanned_count=30, t=0,
        ),
        '{"mode": "smallsum", "k": 4, "found": false, "witness": null, "minAbsWeight": 2, '
        '"scannedCount": 30, "t": 0}',
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


_P = Params(r=1, s=2, k=6)
_CLAIM = ClaimedProperty(k=6, description="x")

# (build by keyword, the defaults it must fill, repr); every record is built
# by keyword and every default is left out.
_RECORDS = [
    (lambda: Params(r=1, s=2, k=6), {}, "Params(r=1, s=2, k=6)"),
    (
        lambda: weight_range(3, _P), {},
        "WeightRange(alpha=3, low=-3, step=3, count=4)",
    ),
    (
        lambda: BoundReport(params=_P, t=1, t_prime=2, m1=3, m2=4, n_exact=5),
        {"notes": ()},
        "BoundReport(params=Params(r=1, s=2, k=6), t=1, t_prime=2, m1=3, m2=4, n_exact=5, "
        "notes=())",
    ),
    (
        lambda: SufficientBound(params=_P, q=1, n_sufficient=9), {},
        "SufficientBound(params=Params(r=1, s=2, k=6), q=1, n_sufficient=9)",
    ),
    (
        lambda: GoodShift(params=_P, alpha=1, a=7, prime_factors=(7,),
                          s_alpha=weight_range(1, _P), good=True, blocking=None),
        {},
        "GoodShift(params=Params(r=1, s=2, k=6), alpha=1, a=7, prime_factors=(7,), "
        "s_alpha=WeightRange(alpha=1, low=-1, step=3, count=2), good=True, blocking=None)",
    ),
    (lambda: ClaimedProperty(k=6, description="x"), {}, "ClaimedProperty(k=6, description='x')"),
    (
        lambda: Construction(kind="ap-mod-k", params=_P, length=3,
                             seq=SignSeq.from_values(_P, [-1, 2, -1]), claim=_CLAIM),
        {"degenerate": False},
        "Construction(kind='ap-mod-k', params=Params(r=1, s=2, k=6), length=3, "
        "seq=SignSeq(r=1, s=2, n=3, 010), claim=ClaimedProperty(k=6, description='x'), "
        "degenerate=False)",
    ),
    (
        lambda: ResidueFunction(modulus=2, factors=(), values=(1, 1)), {},
        "ResidueFunction(modulus=2, factors=(), values=(1, 1))",
    ),
    (
        lambda: ScanReport(mode="block", k=6, found=False, witness=None, min_abs_weight=3,
                           scanned_count=4),
        {"t": None},
        "ScanReport(mode='block', k=6, found=False, witness=None, min_abs_weight=3, "
        "scanned_count=4, t=None)",
    ),
    (
        lambda: InterpolationReport(ok=True, sign_change_implies_zero=True,
                                    adjacent_step_bounded=True, residues_vanish=True,
                                    window_count=3),
        {"detail": None},
        "InterpolationReport(ok=True, sign_change_implies_zero=True, "
        "adjacent_step_bounded=True, residues_vanish=True, window_count=3, detail=None)",
    ),
    (
        lambda: ThresholdResult(params=_P, mode="block", q=0, max_avoiding_n=None,
                                derived_threshold=6, witnesses=(), search_cap=9,
                                exhaustive=True, capped=False, avoiding_count_at_max=0),
        {"notes": ()},
        "ThresholdResult(params=Params(r=1, s=2, k=6), mode='block', q=0, "
        "max_avoiding_n=None, derived_threshold=6, witnesses=(), search_cap=9, "
        "exhaustive=True, capped=False, avoiding_count_at_max=0, notes=())",
    ),
    (
        lambda: TwoKVerdict(k=2, ok=True, sequences_checked=6, counterexample=None), {},
        "TwoKVerdict(k=2, ok=True, sequences_checked=6, counterexample=None)",
    ),
    (
        lambda: Pow2Verdict(v=2, ok=True, functions_checked=16, survivors=("0000", "1111")),
        {},
        "Pow2Verdict(v=2, ok=True, functions_checked=16, survivors=('0000', '1111'))",
    ),
    (
        lambda: ResidueLemmaVerdict(k=6, factors=(3,), ok=True, plus_count=4, minus_count=2,
                                    progressions_checked=9, failure=None),
        {},
        "ResidueLemmaVerdict(k=6, factors=(3,), ok=True, plus_count=4, minus_count=2, "
        "progressions_checked=9, failure=None)",
    ),
]


@pytest.mark.parametrize(
    "build,defaults,expected", _RECORDS, ids=[r[2].partition("(")[0] for r in _RECORDS]
)
def test_record_value_semantics(build, defaults, expected):
    record = build()
    assert {name: getattr(record, name) for name in defaults} == defaults
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = build()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert repr(record) == expected
