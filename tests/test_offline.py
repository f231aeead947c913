"""Step-up procedures against brute-force threshold-maximization oracles.

"p <= level" means the exact comparison of the binary64 values, so both
oracles compute in rationals.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinefdr.offline import bh, storey_bh, storey_pi0

pvalue_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
)


def brute_force_threshold(pvalues, alpha, scale):
    """Max s over the candidate grid with n * s * scale / |R(s)| <= alpha."""
    n = len(pvalues)
    best = 0.0
    for s in pvalues:
        hits = sum(1 for p in pvalues if p <= s)
        if n * Fraction(s) * Fraction(scale) <= Fraction(alpha) * hits and s > best:
            best = s
    return best


def classical_step_up(pvalues, alpha):
    """Sort ascending, find the largest k with p_(k) <= alpha * k / n."""
    ps = sorted(pvalues)
    n = len(ps)
    k_star = 0
    for k in range(1, n + 1):
        if Fraction(ps[k - 1]) <= Fraction(alpha) * k / n:
            k_star = k
    if k_star == 0:
        return set()
    threshold = ps[k_star - 1]
    return {i for i, p in enumerate(pvalues) if p <= threshold}


def test_bh_all_ones_rejects_nothing():
    assert bh([1.0] * 5, 0.05).rejected == frozenset()


def test_bh_single_pvalue():
    assert bh([0.04], 0.05).rejected == frozenset({0})
    assert bh([0.06], 0.05).rejected == frozenset()


def test_bh_known_instance():
    # candidates: 4*0.01 <= 0.05*1 and 4*0.02 <= 0.05*2; 0.6, 0.8 fail
    result = bh([0.01, 0.02, 0.6, 0.8], 0.05)
    assert result.rejected == frozenset({0, 1})
    assert result.threshold == pytest.approx(0.02)


def test_storey_pi0_formula():
    # n=4, lam=0.5, two p-values above lam: (1 + 2) / (4 * 0.5)
    assert storey_pi0([0.01, 0.02, 0.6, 0.8], 0.5) == pytest.approx(1.5)


def test_storey_pi0_all_above_lambda_at_least_one():
    n = 6
    pvalues = [0.9] * n
    assert storey_pi0(pvalues, 0.5) == pytest.approx((1 + n) / (n * 0.5))
    assert storey_pi0(pvalues, 0.5) >= 1.0


def test_storey_known_instance_stricter_than_bh():
    # pi0_hat = 1.5 > 1 makes the adaptive rule reject nothing here,
    # while plain BH rejects the two small p-values
    pvalues = [0.01, 0.02, 0.6, 0.8]
    result = storey_bh(pvalues, 0.05, lam=0.5)
    assert result.rejected == frozenset()
    assert result.threshold == 0.0
    assert bh(pvalues, 0.05).rejected == frozenset({0, 1})


@settings(max_examples=300, deadline=None)
@given(pvalues=pvalue_lists, alpha=st.floats(min_value=0.01, max_value=0.3))
# alpha * 3 / 3 rounds below alpha in binary64; exactly, p_(3) = alpha is on the line
@example(pvalues=[0.0, 0.0, 0.11592259791548784], alpha=0.11592259791548784)
# 3 * p_(3) and 3 * alpha round to one binary64 value, but p_(3) > alpha: no rejection
@example(
    pvalues=[0.039170836833204416, 0.11751251049961323, 0.11751251049961324],
    alpha=0.11751251049961323,
)
def test_bh_matches_brute_force_and_step_up(pvalues, alpha):
    result = bh(pvalues, alpha)
    threshold = brute_force_threshold(pvalues, alpha, scale=1.0)
    assert result.threshold == pytest.approx(threshold, abs=1e-15)
    expected = {i for i, p in enumerate(pvalues) if p <= threshold}
    assert result.rejected == expected
    assert result.rejected == classical_step_up(pvalues, alpha)


@settings(max_examples=300, deadline=None)
@given(
    pvalues=pvalue_lists,
    alpha=st.floats(min_value=0.01, max_value=0.3),
    lam=st.floats(min_value=0.2, max_value=0.8),
)
def test_storey_matches_brute_force(pvalues, alpha, lam):
    result = storey_bh(pvalues, alpha, lam)
    scale = (1 + sum(1 for p in pvalues if p > lam)) / (len(pvalues) * (1 - lam))
    threshold = brute_force_threshold(pvalues, alpha, scale=scale)
    assert result.threshold == pytest.approx(threshold, abs=1e-15)
    assert result.rejected == {i for i, p in enumerate(pvalues) if p <= threshold}


@settings(max_examples=200, deadline=None)
@given(
    pvalues=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_bh_is_permutation_invariant(pvalues, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pvalues))
    base = bh(pvalues, 0.1)
    shuffled = bh([pvalues[i] for i in perm], 0.1)
    assert shuffled.rejected == {int(np.where(perm == i)[0][0]) for i in base.rejected}
    assert shuffled.threshold == base.threshold


@settings(max_examples=300, deadline=None)
@given(
    pvalues=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=12),
    lam=st.floats(min_value=0.2, max_value=0.8),
)
def test_storey_rejects_superset_of_bh_when_pi0_below_one(pvalues, lam):
    from hypothesis import assume

    assume(storey_pi0(pvalues, lam) < 1.0)
    assert storey_bh(pvalues, 0.1, lam).rejected >= bh(pvalues, 0.1).rejected


def test_ties_are_all_included():
    result = bh([0.02, 0.02, 0.02, 0.9], 0.05)
    assert result.rejected == frozenset({0, 1, 2})


def test_input_validation():
    with pytest.raises(ValueError):
        bh([], 0.05)
    with pytest.raises(ValueError):
        bh([0.5, 1.5], 0.05)
    with pytest.raises(ValueError):
        bh([0.5], 0.0)
    with pytest.raises(ValueError):
        storey_bh([0.5], 0.05, lam=1.0)
    with pytest.raises(ValueError, match="alpha"):
        storey_bh([0.5], 1.0)
