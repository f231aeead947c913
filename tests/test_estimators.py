"""FDP estimator traces and across-trial aggregation."""

import itertools
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefdr.estimators import (
    aggregate,
    fdp_hat_lord,
    fdp_hat_saffron,
    fdp_oracle,
)
from onlinefdr.gamma import from_spec
from onlinefdr.procedures import PROCEDURE_NAMES, make_procedure
from onlinefdr.records import StreamTrace, TrialResult


def records_from(pvalues, alphas, lam=0.5):
    """The trace of a run that tested ``pvalues`` at the given levels."""
    p = np.asarray(pvalues, dtype=np.float64)
    alpha = np.asarray(alphas, dtype=np.float64)
    lams = np.broadcast_to(np.asarray(lam, dtype=np.float64), p.shape)
    return StreamTrace(p, alpha, lams, p <= alpha, p <= lams)


def scratch_traces(trace, is_null):
    """Quadratic from-scratch recomputation of all three estimators."""
    steps = list(zip(trace.pvalues, trace.alpha, trace.lam, trace.rejected))
    oracle, naive, discounted = [], [], []
    for t in range(1, len(steps) + 1):
        upto = steps[:t]
        den = max(sum(r for _, _, _, r in upto), 1)
        oracle.append(sum(a for (_, a, _, _), n in zip(upto, is_null) if n) / den)
        naive.append(sum(a for _, a, _, _ in upto) / den)
        discounted.append(sum(a / (1 - lam) for p, a, lam, _ in upto if p > lam) / den)
    return oracle, naive, discounted


def test_oracle_zero_when_all_non_null():
    recs = records_from([0.001, 0.5, 0.01], [0.02, 0.01, 0.02])
    trace = fdp_oracle(recs, [False, False, False])
    assert trace.tolist() == [0.0, 0.0, 0.0]


def test_oracle_direct_sum_two_nulls():
    # one rejection, both hypotheses null: (0.01 + 0.02) / 1
    recs = records_from([0.5, 0.01], [0.01, 0.02])
    assert recs.rejected[1]
    trace = fdp_oracle(recs, [True, True])
    assert trace[1] == pytest.approx(0.03)


def test_lord_estimator_single_step():
    recs = records_from([0.9], [0.005])
    assert fdp_hat_lord(recs).tolist() == [pytest.approx(0.005)]


def test_saffron_estimator_all_candidates_is_zero():
    recs = records_from([0.1, 0.2, 0.3], [0.01, 0.01, 0.01], lam=0.5)
    assert fdp_hat_saffron(recs).tolist() == [0.0, 0.0, 0.0]


def test_saffron_estimator_hand_example():
    # lam = 1/2, alphas (.01,.02,.03), P (.6,.2,.7), no rejections:
    # (0.01*2 + 0 + 0.03*2) / 1 = 0.08
    recs = records_from([0.6, 0.2, 0.7], [0.01, 0.02, 0.03], lam=0.5)
    trace = fdp_hat_saffron(recs)
    assert trace[0] == pytest.approx(0.02)
    assert trace[1] == pytest.approx(0.02)
    assert trace[2] == pytest.approx(0.08)


def test_saffron_estimator_with_lam_equal_alpha_is_spent_wealth_sum():
    # with lam_j = alpha_j the numerator is the alpha-investing spend:
    # sum of alpha_j / (1 - alpha_j) over non-rejected steps
    rng = np.random.default_rng(0)
    pvalues = rng.random(50)
    alphas = 0.02 + 0.01 * rng.random(50)
    recs = records_from(pvalues.tolist(), alphas.tolist(), lam=alphas.tolist())
    trace = fdp_hat_saffron(recs)
    den = np.maximum(np.cumsum(recs.rejected), 1)
    spend = np.cumsum(
        [0.0 if r else a / (1 - a) for r, a in zip(recs.rejected, recs.alpha)]
    )
    assert np.allclose(trace, spend / den, rtol=0, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),  # p
            st.floats(min_value=1e-4, max_value=0.4),  # alpha
            st.booleans(),  # is_null
        ),
        min_size=1,
        max_size=25,
    )
)
def test_traces_match_scratch_recomputation(data):
    pvalues = [d[0] for d in data]
    alphas = [d[1] for d in data]
    is_null = [d[2] for d in data]
    recs = records_from(pvalues, alphas, lam=0.5)
    expected_oracle, expected_naive, expected_disc = scratch_traces(recs, is_null)
    assert np.allclose(fdp_oracle(recs, is_null), expected_oracle, atol=1e-12)
    assert np.allclose(fdp_hat_lord(recs), expected_naive, atol=1e-12)
    assert np.allclose(fdp_hat_saffron(recs), expected_disc, atol=1e-12)
    # dominance: the naive estimate never drops below the oracle
    assert (fdp_hat_lord(recs) >= fdp_oracle(recs, is_null) - 1e-15).all()
    assert (fdp_oracle(recs, is_null) >= 0).all()


def test_oracle_length_mismatch():
    recs = records_from([0.5], [0.01])
    with pytest.raises(ValueError):
        fdp_oracle(recs, [True, False])
    with pytest.raises(ValueError, match=r"decisions \(1,\) vs labels \(\)"):
        fdp_oracle(recs, True)


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_estimators_read_batched_traces_as_run_traces(name):
    is_null = np.random.default_rng(4).random(40) < 0.5
    # B > 1, B = 1 (whose transpose is already contiguous) and a Fortran-ordered batch
    for pvalues in (
        np.random.default_rng(3).random((3, 40)) ** 4,
        np.random.default_rng(5).random((1, 40)) ** 4,
        np.asfortranarray(np.random.default_rng(6).random((3, 40)) ** 4),
    ):
        kept = pvalues.copy()
        proc = make_procedure(name, 0.05, 0.025, from_spec("power:1.6"))
        batch = proc.run_batch(pvalues)
        alone = [
            make_procedure(name, 0.05, 0.025, from_spec("power:1.6")).run(pvalues[i])
            for i in range(len(pvalues))
        ]
        assert len(batch) == len(pvalues)
        for i, row in enumerate(batch):
            fields = [row.pvalues, row.alpha, row.lam, row.rejected, row.candidate]
            assert [f.shape for f in fields] == [(40,)] * 5
            assert len(row) == 40
            # no two arrays of a trace, and no array of either trace and the input, share memory
            for trace in (row, alone[i]):
                arrays = [trace.pvalues, trace.alpha, trace.lam, trace.rejected, trace.candidate]
                for a, b in itertools.combinations(arrays + [pvalues], 2):
                    assert not np.shares_memory(a, b)
            np.testing.assert_allclose(
                fdp_oracle(row, is_null), fdp_oracle(alone[i], is_null), rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                fdp_hat_lord(row), fdp_hat_lord(alone[i]), rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                fdp_hat_saffron(row), fdp_hat_saffron(alone[i]), rtol=1e-12, atol=0
            )
        # changing the input after the call changes no trace
        before = [fdp_hat_saffron(trace) for trace in batch + alone]
        pvalues[:] = 1.0
        for trace, estimate in zip(batch + alone, before):
            np.testing.assert_array_equal(fdp_hat_saffron(trace), estimate)
        for i, row in enumerate(batch):
            np.testing.assert_array_equal(row.pvalues, kept[i])
            np.testing.assert_array_equal(alone[i].pvalues, kept[i])


def test_aggregate_single_trial():
    summary = aggregate([TrialResult(fdp=0.2, power=0.7, rejections=3)])
    assert summary.fdr == 0.2
    assert summary.power == 0.7
    assert summary.fdr_se == 0.0
    assert summary.power_se == 0.0


def test_aggregate_two_trials():
    trials = [
        TrialResult(fdp=0.0, power=0.5, rejections=1),
        TrialResult(fdp=0.1, power=0.7, rejections=2),
    ]
    summary = aggregate(trials)
    assert summary.fdr == pytest.approx(0.05)
    assert summary.power == pytest.approx(0.6)


def test_aggregate_matches_closed_form_on_synthetic_batch():
    rng = np.random.default_rng(9)
    fdps = rng.random(200) * 0.1
    powers = rng.random(200)
    trials = [
        TrialResult(fdp=float(f), power=float(p), rejections=1)
        for f, p in zip(fdps, powers)
    ]
    summary = aggregate(trials)
    assert summary.fdr == pytest.approx(statistics.fmean(fdps), rel=1e-12)
    assert summary.fdr_se == pytest.approx(
        statistics.stdev(fdps) / len(fdps) ** 0.5, rel=1e-12
    )
    assert summary.power_se == pytest.approx(
        statistics.stdev(powers) / len(powers) ** 0.5, rel=1e-12
    )


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])
