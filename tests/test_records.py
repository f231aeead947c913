"""Decision records and the FDP/power metrics against recount oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefdr.records import (
    DecisionRecord,
    fdp_from_flags,
    power_from_flags,
    validate_pvalue,
)
from replay_oracle import recount_fdp, recount_power


def test_validate_pvalue_bounds():
    assert validate_pvalue(0.0) == 0.0
    assert validate_pvalue(1) == 1.0
    for bad in (-0.01, 1.0001, float("nan")):
        with pytest.raises(ValueError):
            validate_pvalue(bad)


def test_record_rejects_inconsistent_flags():
    with pytest.raises(ValueError):
        DecisionRecord(1, 0.3, 0.01, 0.5, rejected=True, candidate=True)
    with pytest.raises(ValueError):
        DecisionRecord(1, 0.3, 0.01, 0.5, rejected=False, candidate=False)
    with pytest.raises(ValueError):
        DecisionRecord(1, 0.3, 0.6, 0.5, rejected=True, candidate=True)  # alpha > lam
    with pytest.raises(ValueError):
        DecisionRecord(0, 0.3, 0.01, 0.5, rejected=False, candidate=True)


def test_record_threshold_is_inclusive():
    rec = DecisionRecord(1, 0.5, 0.5, 0.5, rejected=True, candidate=True)
    assert rec.rejected and rec.candidate


def test_fdp_no_rejections_is_zero():
    assert fdp_from_flags([False] * 5, [True] * 5) == 0.0


def test_fdp_direct_count():
    rejected = [True, True, True, False]
    labels = [True, False, False, True]  # rejected steps are null, non, non
    assert fdp_from_flags(rejected, labels) == pytest.approx(1 / 3)


def test_power_all_non_nulls_rejected():
    assert power_from_flags([True, True, True], [False, False, False]) == 1.0


def test_power_no_non_nulls_is_zero():
    assert power_from_flags([True, False, True], [True, True, True]) == 0.0


def test_power_partial_count():
    rejected = [True] * 4 + [False] * 6
    labels = [False] * 10  # 10 non-nulls, 4 rejected
    assert power_from_flags(rejected, labels) == pytest.approx(0.4)


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        fdp_from_flags([True, False], [True])
    with pytest.raises(ValueError):
        power_from_flags([True, False], [True, False, True])


def test_exhaustive_recount_all_lengths_up_to_8():
    # every rejection pattern x every label pattern, all stream lengths <= 8
    for k in range(1, 9):
        for rej_bits in itertools.product([False, True], repeat=k):
            for null_bits in itertools.product([False, True], repeat=k):
                assert fdp_from_flags(rej_bits, null_bits) == recount_fdp(rej_bits, null_bits)
                assert power_from_flags(rej_bits, null_bits) == recount_power(rej_bits, null_bits)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30
    )
)
def test_recount_oracle_random(bits):
    rejected = [r for r, _ in bits]
    labels = [n for _, n in bits]
    assert fdp_from_flags(rejected, labels) == pytest.approx(recount_fdp(rejected, labels))
    assert power_from_flags(rejected, labels) == pytest.approx(recount_power(rejected, labels))
