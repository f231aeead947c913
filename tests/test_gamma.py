"""Discount-sequence constructors: normalization, monotonicity, frozen values."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from onlinefdr import gamma as G

# Frozen by the truncated-series oracle (N = 1e7, integral tail bound):
GAMMA1_POWER2 = 0.6079271018540267  # = 6 / pi^2
GAMMA1_POWER16 = 0.4374901657744732
PARTIAL_1E6_POWER16 = 0.9998168457863907
NORMALIZER_LOG_OPTIMAL = 12.645107872872
GAMMA1_LOG_OPTIMAL = 0.054815442266569536
GAMMA1_BETA05 = 0.1956448183522752
GAMMA2_BETA05 = 0.0489112045880688


@pytest.fixture(scope="module")
def power2():
    return G.from_spec("power:2")


@pytest.fixture(scope="module")
def power16():
    return G.from_spec("power:1.6")


@pytest.fixture(scope="module")
def logopt():
    return G.from_spec("log-optimal")


@pytest.fixture(scope="module")
def beta05():
    return G.from_spec("beta:0.5")


def test_power2_first_value_is_inverse_basel_sum(power2):
    assert power2[1] == pytest.approx(6.0 / math.pi**2, abs=1e-12)
    assert power2[1] == pytest.approx(GAMMA1_POWER2, abs=1e-14)


def test_power_law_normalizer_matches_zeta(power2, power16):
    for seq, s in [(power2, 2.0), (power16, 1.6)]:
        assert seq.normalizer == pytest.approx(float(special.zeta(s)), rel=1e-12)


def test_power16_head_sum_frozen(power16):
    # the mass left beyond 1e6 is ~1.8e-4, larger than a naive guess of 1e-4
    total = float(power16.head(10**6).sum())
    assert total == pytest.approx(PARTIAL_1E6_POWER16, abs=1e-9)
    assert total == pytest.approx(1.0, abs=2e-4)


def test_power16_first_value_frozen(power16):
    assert power16[1] == pytest.approx(GAMMA1_POWER16, abs=1e-14)


def test_power_law_strictly_decreasing_head(power2, power16):
    for seq in (power2, power16):
        assert seq[1] > seq[2] > seq[3]


def test_log_optimal_first_value_and_ratio(logopt):
    assert logopt[1] == pytest.approx(GAMMA1_LOG_OPTIMAL, rel=1e-12)
    assert logopt.normalizer == pytest.approx(NORMALIZER_LOG_OPTIMAL, rel=1e-12)
    # normalizer-free check of the raw form: gamma_1/gamma_2 = 2 e^sqrt(log 2)
    assert logopt[1] / logopt[2] == pytest.approx(2.0 * math.exp(math.sqrt(math.log(2))), rel=1e-12)


def test_log_optimal_normalizer_stable_under_longer_truncation():
    short = G.log_optimal(truncation=10**6)
    assert short.normalizer == pytest.approx(NORMALIZER_LOG_OPTIMAL, rel=1e-9)


def test_beta_normalizer_matches_zeta_derivative_identity(beta05):
    # raw total = (log 2)^2 + zeta''(2); the running-minimum repair then
    # subtracts the j=3 excess (log3/3)^2 - (log2/2)^2
    mpmath.mp.dps = 30
    raw_total = float((mpmath.log(2)) ** 2 + mpmath.zeta(2, 1, 2))
    repair = (math.log(3) / 3) ** 2 - (math.log(2) / 2) ** 2
    assert beta05.normalizer == pytest.approx(raw_total - repair, rel=1e-10)
    assert beta05[1] == pytest.approx(GAMMA1_BETA05, rel=1e-12)
    assert beta05[2] == pytest.approx(GAMMA2_BETA05, rel=1e-12)


def test_beta_running_min_flattens_small_j(beta05):
    # raw weights rise again at j=3; repair pins j=2..4 at the j=2 value
    assert beta05[2] == beta05[3] == beta05[4]
    assert beta05[4] > beta05[5] > beta05[6]


def test_beta_vanishes_at_infinity(beta05):
    assert beta05[10**5] < 1e-7
    assert beta05[10**6] < beta05[10**5] < beta05[10**4]


@pytest.mark.parametrize("spec", ["power:1.6", "power:2", "log-optimal", "beta:0.5"])
def test_positive_nonincreasing_up_to_1e5(spec):
    values = G.from_spec(spec).head(10**5)
    assert (values > 0).all()
    assert (np.diff(values) <= 0).all()


@pytest.mark.parametrize("spec", ["power:1.2", "power:1.6", "power:2", "log-optimal", "beta:0.5"])
def test_sum_bracket_contains_one(spec):
    lo, hi = G.from_spec(spec).sum_bracket()
    assert lo <= 1.0 <= hi
    assert hi - lo < 1e-6


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        G.power_law(1.0)
    with pytest.raises(ValueError):
        G.power_law(0.5)
    with pytest.raises(ValueError):
        G.beta_optimal(0.0)
    with pytest.raises(ValueError):
        G.beta_optimal(1.0)
    with pytest.raises(ValueError):
        G.from_spec("nope:1")
    with pytest.raises(ValueError):
        G.from_spec("power:abc")
    with pytest.raises(ValueError):
        G.from_spec("log-optimal:3")


@pytest.mark.parametrize(
    "spec, reason", [("power:inf", "finite"), ("power:1e6", "underflow"), ("power:60", "underflow")]
)
def test_vanishing_sequence_rejected(spec, reason):
    # j**-s is 0.0 in float64 by the truncation point, so gamma would not be positive
    with pytest.raises(ValueError, match=reason):
        G.from_spec(spec)


def test_canonical_spec_round_trip():
    assert G.canonical_spec("power:1.60") == "power:1.6"
    assert G.canonical_spec("beta:0.50") == "beta:0.5"
    assert G.canonical_spec("log-optimal") == "log-optimal"
    assert G.from_spec("power:1.6").spec == "power:1.6"


def test_index_below_one_rejected(power2):
    with pytest.raises(IndexError):
        power2[0]
    with pytest.raises(IndexError):
        power2.at(np.array([3, 0]))


def test_vector_lookup_matches_scalar(power16):
    idx = np.array([1, 5, 17, 4000, 3], dtype=np.int64)
    vec = power16.at(idx)
    assert vec.tolist() == [power16[int(j)] for j in idx]


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=1.05, max_value=4.0))
def test_power_law_properties_random_exponent(s):
    seq = G.power_law(s, truncation=10**5)
    lo, hi = seq.sum_bracket()
    assert lo <= 1.0 <= hi
    head = seq.head(50)
    assert (head > 0).all()
    assert (np.diff(head) < 0).all()
    # raw ratio check, independent of the normalizer
    assert seq[2] / seq[1] == pytest.approx(2.0**-s, rel=1e-12)
