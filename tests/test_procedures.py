"""Online procedures against from-scratch replay oracles and invariants."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefdr import gamma as G
from onlinefdr.procedures import (
    PROCEDURE_NAMES,
    AdaptiveSaffron,
    AlphaInvesting,
    Lord,
    Saffron,
    make_procedure,
)
import replay_oracle as oracle

ALPHA = 0.05
W0 = 0.025

# Frozen plug-in values (alpha=0.05, w0=0.025, gamma = power:2, lambda=1/2):
SAFFRON_ALPHA1 = 0.007599088773175333
SAFFRON_AI_ALPHA1 = 0.014970650935449265
LORD_ALPHA7_AFTER_TAU5 = 0.004109711275288702


@pytest.fixture(scope="module")
def g2():
    return G.from_spec("power:2")


@pytest.fixture(scope="module")
def g16():
    return G.from_spec("power:1.6")


# a p-value mix that actually triggers rejections and candidacies
pvalue_stream = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=0.0, max_value=0.02),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=40,
)


def drive(proc, pvalues):
    return [proc.step(p) for p in pvalues]


# ---------------------------------------------------------------- saffron


def test_saffron_first_level_frozen(g2):
    proc = Saffron(ALPHA, W0, g2, lam=0.5)
    a, lam = proc.next_level()
    assert lam == 0.5
    assert a == pytest.approx(SAFFRON_ALPHA1, abs=1e-15)


def test_saffron_empty_history_reduction(g2):
    # without rejections or candidates only the initial-budget term survives
    proc = Saffron(ALPHA, W0, g2, lam=0.5)
    for t in range(1, 12):
        a, _ = proc.next_level()
        assert a == pytest.approx(0.5 * W0 * g2[t], rel=1e-12)
        proc.observe(1.0)


def test_saffron_p_one_changes_nothing(g2):
    proc = Saffron(ALPHA, W0, g2)
    proc.step(1.0)
    rec = proc.step(1.0)
    assert not rec.rejected and not rec.candidate
    # no rejection and no candidate: the level is the empty-history one at t = 3
    expected = oracle.saffron_levels([False, False], [False, False], ALPHA, W0, g2, lam=0.5)
    assert proc.next_level() == pytest.approx(expected, rel=1e-12)


def test_saffron_p_zero_always_rejects(g2):
    proc = Saffron(ALPHA, W0, g2)
    rec = proc.step(0.0)
    assert rec.rejected and rec.candidate
    # window 0 saw the candidate (its index stays 1) and the new window starts at 1
    expected = oracle.saffron_levels([True], [True], ALPHA, W0, g2, lam=0.5)
    assert proc.next_level() == pytest.approx(expected, rel=1e-12)


def test_saffron_scripted_stream_matches_replay_oracle(g2):
    # hits: candidate-only steps, a rejection, and plain misses
    pvalues = [0.3, 0.004, 0.6, 0.3, 1.0, 0.002, 0.4, 0.001, 0.7, 0.2]
    proc = Saffron(ALPHA, W0, g2, lam=0.5)
    R, C = [], []
    for p in pvalues:
        a, lam = proc.next_level()
        oa, olam = oracle.saffron_levels(R, C, ALPHA, W0, g2, lam=0.5)
        assert a == pytest.approx(oa, rel=1e-12)
        assert lam == olam
        rec = proc.observe(p)
        R.append(rec.rejected)
        C.append(rec.candidate)
    assert any(R) and any(c and not r for r, c in zip(R, C))


def test_saffron_rejection_opens_reward_window(g2):
    # P_3 below alpha_3: from step 4 on the oracle includes the new window term
    proc = Saffron(ALPHA, W0, g2, lam=0.5)
    proc.step(1.0)
    proc.step(1.0)
    a3, _ = proc.next_level()
    rec = proc.observe(a3)  # p exactly at the level: rejected
    assert rec.rejected
    a4, _ = proc.next_level()
    R, C = [False, False, True], [False, False, True]
    expected, _ = oracle.saffron_levels(R, C, ALPHA, W0, g2, lam=0.5)
    assert a4 == pytest.approx(expected, rel=1e-12)
    # and the window term is really there: level jumped above the no-rejection path
    assert a4 > 0.5 * W0 * g2[4]


@settings(max_examples=120, deadline=None)
@given(pvalues=pvalue_stream)
def test_saffron_random_streams_match_replay_oracle(pvalues, g16):
    proc = Saffron(ALPHA, W0, g16, lam=0.5)
    R, C = [], []
    for p in pvalues:
        a, _ = proc.next_level()
        expected, _ = oracle.saffron_levels(R, C, ALPHA, W0, g16, lam=0.5)
        assert a == pytest.approx(expected, rel=1e-12)
        rec = proc.observe(p)
        R.append(rec.rejected)
        C.append(rec.candidate)


@settings(max_examples=80, deadline=None)
@given(pvalues=pvalue_stream)
def test_saffron_alpha_at_most_lambda(pvalues, g16):
    proc = Saffron(ALPHA, W0, g16, lam=0.5)
    for rec in drive(proc, pvalues):
        assert rec.alpha <= rec.lam
        assert rec.candidate or not rec.rejected


# ------------------------------------------------------------- saffron-ai


def test_saffron_ai_first_level_frozen(g2):
    proc = AdaptiveSaffron(ALPHA, W0, g2)
    a, lam = proc.next_level()
    assert a == lam == pytest.approx(SAFFRON_AI_ALPHA1, abs=1e-15)
    # the inversion of x / (1 - x) at the initial payout w0 * gamma_1
    s1 = W0 * g2[1]
    assert a == pytest.approx(s1 / (1.0 + s1), rel=1e-14)


def test_saffron_ai_lambda_equals_alpha_exactly(g16):
    proc = AdaptiveSaffron(ALPHA, W0, g16)
    rng = np.random.default_rng(5)
    for p in rng.random(200):
        a, lam = proc.next_level()
        assert lam == a  # bitwise, not approximately
        proc.observe(float(p))


@settings(max_examples=100, deadline=None)
@given(pvalues=pvalue_stream)
def test_saffron_ai_random_streams_match_replay_oracle(pvalues, g16):
    proc = AdaptiveSaffron(ALPHA, W0, g16)
    R, C = [], []
    for p in pvalues:
        a, _ = proc.next_level()
        expected, _ = oracle.saffron_ai_levels(R, C, ALPHA, W0, g16)
        assert a == pytest.approx(expected, rel=1e-12)
        rec = proc.observe(p)
        R.append(rec.rejected)
        C.append(rec.candidate)


# ------------------------------------------------------------------ lord


def test_lord_no_rejections_single_term(g2):
    proc = Lord(ALPHA, W0, g2)
    for t in range(1, 9):
        a, lam = proc.next_level()
        assert a == pytest.approx(W0 * g2[t], rel=1e-12)
        assert lam == a
        proc.observe(1.0)


def test_lord_level_after_first_rejection_frozen(g2):
    proc = Lord(ALPHA, W0, g2)
    for _ in range(4):
        proc.step(1.0)
    rec = proc.step(0.0)  # rejection at tau_1 = 5
    assert rec.rejected
    proc.step(1.0)
    a7, _ = proc.next_level()
    assert a7 == pytest.approx(W0 * g2[7] + (ALPHA - W0) * g2[2], rel=1e-12)
    assert a7 == pytest.approx(LORD_ALPHA7_AFTER_TAU5, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(pvalues=pvalue_stream)
def test_lord_random_streams_match_replay_oracle(pvalues, g16):
    proc = Lord(ALPHA, W0, g16)
    R = []
    for p in pvalues:
        a, _ = proc.next_level()
        assert a == pytest.approx(oracle.lord_level(R, ALPHA, W0, g16), rel=1e-12)
        R.append(proc.observe(p).rejected)


@settings(max_examples=80, deadline=None)
@given(pvalues=pvalue_stream)
def test_lord_spend_bounded_by_rejection_budget(pvalues, g16):
    from onlinefdr.estimators import fdp_hat_lord

    trace = Lord(ALPHA, W0, g16).run(pvalues)
    spend = np.cumsum(trace.alpha)
    budget = ALPHA * np.maximum(np.cumsum(trace.rejected), 1)
    assert (spend <= budget + 1e-10).all()
    assert fdp_hat_lord(trace).max() <= ALPHA + 1e-10


# ------------------------------------------------------- alpha-investing


def test_alpha_investing_zero_wealth_is_inert(g2):
    proc = AlphaInvesting(ALPHA, g2)
    proc.wealth = 0.0
    a, lam = proc.next_level()
    assert a == lam == 0.0
    rec = proc.observe(0.5)
    assert not rec.rejected
    assert proc.wealth == 0.0


def test_alpha_investing_default_schedule_is_absolute_time(g2):
    proc = AlphaInvesting(ALPHA, g2)
    rec = proc.step(0.0)  # immediate rejection
    assert rec.rejected
    a2, _ = proc.next_level()
    pen2 = g2[2] * proc.wealth  # schedule keeps marching with t, no reset
    assert a2 == pytest.approx(pen2 / (1 + pen2), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(pvalues=pvalue_stream)
def test_alpha_investing_matches_wealth_replay(pvalues, g16):
    proc = AlphaInvesting(ALPHA, g16)
    replay = oracle.alpha_investing_replay(pvalues, ALPHA, psi_of_t=lambda t: g16[t])
    for i, p in enumerate(pvalues):
        a, _ = proc.next_level()
        assert a == pytest.approx(replay["levels"][i], rel=1e-12)
        assert proc.observe(p).rejected == replay["rejected"][i]
        assert proc.wealth == pytest.approx(replay["wealth"][i], rel=1e-12)
        assert proc.wealth >= 0.0


@settings(max_examples=60, deadline=None)
@given(pvalues=pvalue_stream)
def test_alpha_investing_wealth_identity(pvalues, g16):
    # wealth = alpha + alpha |R(t)| - sum of penalties on non-rejected steps
    proc = AlphaInvesting(ALPHA, g16)
    trace = proc.run(pvalues)
    penalties = trace.alpha / (1.0 - trace.alpha)
    spent = penalties[~trace.rejected].sum()
    expected = ALPHA + ALPHA * trace.rejected.sum() - spent
    assert proc.wealth == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------- protocol & shared


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_observe_decides_at_next_level_without_being_asked(name, g16):
    # three twins on one stream: observe alone, next_level then observe, and step
    alone, asked, stepped = (make_procedure(name, ALPHA, W0, g16) for _ in range(3))
    for p in resume_stream().tolist():
        record = alone.observe(p)
        assert (record.alpha, record.lam) == asked.next_level()
        assert record == asked.observe(p) == stepped.step(p)


def test_next_level_is_idempotent(g2):
    proc = Saffron(ALPHA, W0, g2)
    assert proc.next_level() == proc.next_level()


def test_run_rejects_bad_pvalues(g2):
    with pytest.raises(ValueError):
        Saffron(ALPHA, W0, g2).run([0.5, 1.5])
    with pytest.raises(ValueError):
        Saffron(ALPHA, W0, g2).run(np.array([[0.5]]))
    with pytest.raises(ValueError):
        Saffron(ALPHA, W0, g2).run_batch([0.5, 0.2])
    with pytest.raises(ValueError, match=r"position \(1, 0\)"):
        Saffron(ALPHA, W0, g2).run_batch([[0.5], [-0.1]])


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_empty_runs(name, g16):
    proc = make_procedure(name, ALPHA, W0, g16)
    drive(proc, [0.001, 0.9, 0.3])
    t, levels = proc.t, proc.next_level()
    trace = proc.run([])
    for field in ("pvalues", "alpha", "lam", "rejected", "candidate"):
        assert getattr(trace, field).shape == (0,), field
    assert (proc.t, proc.next_level()) == (t, levels)
    traces = proc.run_batch(np.empty((3, 0)))
    assert len(traces) == 3
    assert all(getattr(tr, f).shape == (0,) for tr in traces for f in ("alpha", "rejected"))
    assert proc.run_batch(np.empty((0, 5))) == []
    assert (proc.t, proc.next_level()) == (t, levels)


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_run_batch_rows_do_not_depend_on_the_batch(name, g16):
    # every row its own signal fraction, so the rows' clocks and wealth drift apart
    rng = np.random.default_rng(23)
    u = rng.random((3, 150, 300))
    pvalues = np.where(u[0] < rng.random((150, 1)), u[1] ** 8, u[2])
    proc = make_procedure(name, ALPHA, W0, g16)
    whole = proc.run_batch(pvalues)
    assert len(whole) == 150
    # alone, and on both sides of a split where a batch would end
    for lo, hi in ((7, 8), (100, 101), (0, 64), (64, 150)):
        part = proc.run_batch(pvalues[lo:hi])
        for i, trace in zip(range(lo, hi), part, strict=True):
            for field in ("alpha", "lam", "rejected", "candidate"):
                assert np.array_equal(getattr(trace, field), getattr(whole[i], field)), (i, field)
    assert proc.t == 1  # the machine itself did not move
    for i in (7, 100):
        trace = make_procedure(name, ALPHA, W0, g16).run(pvalues[i])
        assert whole[i].pvalues.tolist() == trace.pvalues.tolist()
        assert trace.rejected.tolist() == whole[i].rejected.tolist()
        assert trace.candidate.tolist() == whole[i].candidate.tolist()
        np.testing.assert_allclose(whole[i].alpha, trace.alpha, rtol=1e-12, atol=0)
        np.testing.assert_allclose(whole[i].lam, trace.lam, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_run_equals_stepwise(name, g16):
    # half near-certain signals (saffron still meets candidates it does not
    # reject), half non-candidates: every clock passes 1024 slots
    rng = np.random.default_rng(11)
    u = rng.random((3, 3000))
    pvalues = np.where(u[0] < 0.5, u[1] ** 10, 0.5 + 0.5 * u[2])
    proc, twin = (make_procedure(name, ALPHA, W0, g16) for _ in range(2))
    pieces = [proc.run(part) for part in (pvalues[:1234], [], pvalues[1234:])]
    stepwise = drive(twin, pvalues)
    for field in ("alpha", "lam", "rejected", "candidate"):
        ran = np.concatenate([getattr(piece, field) for piece in pieces])
        assert ran.tolist() == [getattr(r, field) for r in stepwise], field
    assert name == "alpha-investing" or len(proc._weights) - 1 > 1024
    assert proc.t == twin.t == len(pvalues) + 1
    assert proc.next_level() == twin.next_level()


@pytest.mark.parametrize("name", ["saffron", "saffron-ai", "lord", "alpha-investing"])
def test_every_rejection_is_a_candidate(name, g16):
    rng = np.random.default_rng(23)
    pvalues = np.concatenate([np.zeros(5), rng.random(45) * 0.05, rng.random(50)])
    proc = make_procedure(name, ALPHA, W0, g16)
    records = drive(proc, pvalues)
    assert any(r.rejected for r in records)
    for rec in records:
        assert rec.alpha <= rec.lam
        assert rec.candidate or not rec.rejected


@pytest.mark.parametrize("name", ["saffron", "saffron-ai", "lord", "alpha-investing"])
def test_levels_are_predictable_from_prefix(name, g16):
    # two streams sharing a 30-step prefix see identical levels on the prefix
    rng = np.random.default_rng(3)
    prefix = rng.random(30) * 0.05
    futures = [rng.random(20), np.ones(20)]
    levels = []
    for future in futures:
        proc = make_procedure(name, ALPHA, W0, g16)
        trace = proc.run(np.concatenate([prefix, future]))
        levels.append(trace.alpha[:31])
    assert levels[0].tolist() == levels[1].tolist()


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_load_history_replays_realized_bits(name, g16):
    rng = np.random.default_rng(17)
    pvalues = (rng.random(60) * 0.08).tolist()
    driven = make_procedure(name, ALPHA, W0, g16)
    trace = driven.run(pvalues)
    replayed = make_procedure(name, ALPHA, W0, g16)
    replayed.load_history(trace.rejected.tolist(), trace.candidate.tolist())
    assert replayed.next_level() == driven.next_level()


def resume_stream():
    """40 p-values that every procedure both rejects and leaves as
    non-candidates; saffron also meets candidates it does not reject."""
    rng = np.random.default_rng(29)
    return np.concatenate([[0.0, 0.9, 0.001], rng.random(37) ** 3])


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_resume_by_replay_at_every_split_is_bit_identical(name, g16):
    pvalues = resume_stream()
    whole = make_procedure(name, ALPHA, W0, g16).run(pvalues)
    assert whole.rejected.any() and not whole.candidate.all()
    assert name != "saffron" or (whole.candidate & ~whole.rejected).any()
    for k in range(len(pvalues) + 1):
        resumed = make_procedure(name, ALPHA, W0, g16)
        resumed.load_history(whole.rejected[:k], whole.candidate[:k])
        assert resumed.t == k + 1
        rest = resumed.run(pvalues[k:])
        assert rest.alpha.tolist() == whole.alpha[k:].tolist()
        assert rest.lam.tolist() == whole.lam[k:].tolist()
        assert rest.rejected.tolist() == whole.rejected[k:].tolist()
        assert rest.candidate.tolist() == whole.candidate[k:].tolist()


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
@pytest.mark.parametrize(
    "rejected, candidate",
    [
        ([True], [False]),
        ([False, False, True], [False, True, False]),
        ([False, True], [False, True, True]),
        ([True, True, False], [True, True]),
    ],
    ids=[
        "first-rejection-no-candidate",
        "last-rejection-no-candidate",
        "fewer-rejection-bits",
        "fewer-candidate-bits",
    ],
)
def test_bad_history_raises_and_changes_nothing(name, rejected, candidate, g16):
    prefix = resume_stream()[:10]
    proc, twin = (make_procedure(name, ALPHA, W0, g16) for _ in range(2))
    proc.run(prefix)
    twin.run(prefix)
    with pytest.raises(ValueError):
        proc.load_history(rejected, candidate)
    assert proc.t == twin.t == len(prefix) + 1
    assert proc.next_level() == twin.next_level()
    assert proc.step(0.01) == twin.step(0.01)


def test_load_history_needs_both_bit_vectors(g2):
    with pytest.raises(TypeError):
        Saffron(ALPHA, W0, g2).load_history([False, True])


def _no_level(*args):
    raise AssertionError("load_history evaluated a level")


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_load_history_evaluates_no_level(name, g16):
    pvalues = resume_stream()
    driven = make_procedure(name, ALPHA, W0, g16)
    trace = driven.run(pvalues)
    replayed = make_procedure(name, ALPHA, W0, g16)
    replayed.next_level = _no_level
    replayed.load_history(trace.rejected, trace.candidate)
    del replayed.next_level
    assert replayed.next_level() == driven.next_level()


def _state(proc):
    """Every attribute but the payout cache, arrays (the slot store too) by value."""
    return {
        key: value.tolist() if isinstance(value, (np.ndarray, array)) else value
        for key, value in vars(proc).items()
        if key != "_s"
    }


@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_next_level_only_reads_the_state(name, g16):
    proc = make_procedure(name, ALPHA, W0, g16)
    for p in resume_stream().tolist():
        before = _state(proc)
        levels = proc.next_level()
        assert _state(proc) == before
        assert proc.next_level() == levels
        proc.observe(p)


def test_make_procedure_unknown_name(g2):
    with pytest.raises(ValueError):
        make_procedure("bonferroni", ALPHA, W0, g2)


def test_constructor_validation(g2):
    with pytest.raises(ValueError):
        Saffron(0.0, W0, g2)
    with pytest.raises(ValueError):
        Saffron(ALPHA, 0.0, g2)
    with pytest.raises(ValueError):
        Saffron(ALPHA, ALPHA + 0.01, g2)  # w0 > alpha
    with pytest.raises(ValueError):
        Saffron(ALPHA, W0, g2, lam=1.0)
    Saffron(ALPHA, ALPHA, g2)  # w0 == alpha is allowed
    for alpha in (1.0, 0.0):
        with pytest.raises(ValueError, match="target FDR level"):
            AlphaInvesting(alpha, g2)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([(0, 0), (0, 1), (1, 1)]), st.sampled_from([(0, 0), (0, 1), (1, 1)])),
        min_size=0,
        max_size=8,
    )
)
def test_monotonicity_spot_checks(pairs, g16):
    # coordinatewise-ordered history pairs give ordered levels
    hi_bits = [max(a, b) for a, b in pairs]
    lo_bits = [min(a, b) for a, b in pairs]
    for factory in (
        lambda: Saffron(ALPHA, W0, g16, lam=0.5),
        lambda: AdaptiveSaffron(ALPHA, W0, g16),
    ):
        hi_proc, lo_proc = factory(), factory()
        hi_proc.load_history([r for r, _ in hi_bits], [c for _, c in hi_bits])
        lo_proc.load_history([r for r, _ in lo_bits], [c for _, c in lo_bits])
        a_hi, l_hi = hi_proc.next_level()
        a_lo, l_lo = lo_proc.next_level()
        assert a_hi >= a_lo - 1e-12
        assert l_hi >= l_lo - 1e-12
