"""Discount-sequence constructors: normalization, monotonicity, frozen values."""

import math
import threading
import tracemalloc

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
# Normalizers as summed over the first 1e7 terms (integral tail plus f/2):
NORMALIZER_1E7 = {
    "log-optimal": 12.645107872871753,
    "beta:0.5": 2.455741061606366,
    "beta:0.9": 109.38050186364661,
    # the family's edges: at beta:0.99 the f' term is ~8e-15 of the total
    "beta:0.1": 0.025699434692910937,
    "beta:0.99": 10311.515655250372,
}


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


def test_beta_normalizer_matches_zeta_derivative_identity(beta05):
    # raw total = (log 2)^2 + zeta''(2); the running-minimum repair then
    # subtracts the j=3 excess (log3/3)^2 - (log2/2)^2
    mpmath.mp.dps = 30
    raw_total = float((mpmath.log(2)) ** 2 + mpmath.zeta(2, 1, 2))
    repair = (math.log(3) / 3) ** 2 - (math.log(2) / 2) ** 2
    assert beta05.normalizer == pytest.approx(raw_total - repair, rel=1e-15)
    assert beta05[1] == pytest.approx(GAMMA1_BETA05, rel=1e-12)
    assert beta05[2] == pytest.approx(GAMMA2_BETA05, rel=1e-12)


@pytest.mark.parametrize("spec", sorted(NORMALIZER_1E7))
def test_normalizer_matches_1e7_term_sum(spec):
    assert G.from_spec(spec).normalizer == pytest.approx(NORMALIZER_1E7[spec], rel=1e-15)


def test_beta_shape_edge_builds_a_finite_normalizer():
    # The positivity guard admits shapes from about 0.0179004 up.  At the edge
    # the tail's regularized incomplete gamma is about 3.5e-193, not zero, so
    # its logarithm is finite.
    seq = G.beta_optimal(0.017901)
    assert 0.0 < seq.normalizer < math.inf
    with pytest.raises(ValueError, match="underflow"):
        G.beta_optimal(0.0179)


def test_raw_weights_rising_near_the_truncation_point_rejected():
    power_raw, power_tail = G._power(1.6)

    def rising(j):
        return power_raw(j) * np.where(j > 99_000, 2.0, 1.0)

    with pytest.raises(ValueError, match="not non-increasing near the truncation point"):
        G.GammaSequence("rising", rising, power_tail)


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


def assert_normalizer_is_zeta(seq, s):
    with mpmath.workdps(30):
        zeta = mpmath.zeta(s)
        assert abs(mpmath.mpf(seq.normalizer) - zeta) <= 5e-16 * zeta


@pytest.mark.parametrize("s", [1.2, 1.6, 2.0])
def test_power_normalizer_within_an_ulp_or_two_of_zeta(s):
    assert_normalizer_is_zeta(G.power_law(s), s)


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
    "build, name, x",
    [(G.power_law, "power", x) for x in (1.0, 0.5, math.inf, math.nan)]
    + [(G.beta_optimal, "beta", x) for x in (0.0, 1.0, math.nan)],
)
def test_constructor_and_spec_raise_one_error(build, name, x):
    # the constructors and spec text are checked by one parser, in one wording
    with pytest.raises(ValueError) as by_spec:
        G.from_spec(f"{name}:{x!r}")
    with pytest.raises(ValueError) as by_constructor:
        build(x)
    assert str(by_constructor.value) == str(by_spec.value)


@pytest.mark.parametrize("spec", ["log-optimal:", "log-optimal:3"])
def test_log_optimal_takes_no_parameter(spec):
    with pytest.raises(ValueError, match="takes no parameter"):
        G.canonical_spec(spec)


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
    assert repr(G.from_spec("power:1.6")) == "GammaSequence('power:1.6')"


def test_index_below_one_rejected(power2):
    with pytest.raises(IndexError):
        power2[0]
    with pytest.raises(IndexError):
        power2.at(np.array([3, 0]))


def test_head_length_below_zero_rejected(power16):
    with pytest.raises(IndexError):
        power16.head(-1)
    assert power16.head(0).shape == (0,)


def test_a_head_belongs_to_its_caller():
    # from_spec shares one cached sequence among all procedures built from a
    # spec, and the cache holds final values: a head must be a copy
    seq = G.from_spec("power:1.6")
    first, vector, before = seq[1], seq.at([1]), seq.head(10)
    seq.head(10)[:] = -1.0
    assert seq[1] == first
    assert seq.at([1]).tolist() == vector.tolist()
    assert seq.head(10).tolist() == before.tolist()


def test_vector_lookup_takes_any_integer_array_like(power16):
    assert power16.at([4000, 1]).tolist() == [power16[4000], power16[1]]
    for empty in (power16.at(np.array([], dtype=np.int64)), power16.at([])):
        assert empty.shape == (0,) and empty.dtype == np.float64
    with pytest.raises(IndexError):
        power16.at([1.0])


def test_concurrent_reads_equal_a_serial_read():
    # Four threads start together on one fresh sequence and race its cache
    # across its doubling points, each through [], at and head in its own order.
    tops = [3, 40, 700, 5_000, 33_000, 131_073, 300_000]
    orders = [tops, tops[::-1], tops[::2] + tops[1::2], tops[1::2] + tops[::2]]

    def reads(seq, order):
        return [
            v for top in order for v in (seq[top], seq.at([top, top // 2 + 1, 1]), seq.head(top)[-5:])
        ]

    shared, alone = G.power_law(1.6), G.power_law(1.6)
    barrier = threading.Barrier(len(orders))
    results = [None] * len(orders)

    def worker(w):
        barrier.wait()
        results[w] = reads(shared, orders[w])

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(len(orders))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for got, order in zip(results, orders):
        want = reads(alone, order)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]
    assert shared.head(300_000).tobytes() == alone.head(300_000).tobytes()


def test_a_first_vector_read_grows_the_cache():
    # a fresh sequence caches nothing, so at() must grow the cache before it reads
    first, second = G.power_law(1.6), G.power_law(1.6)
    assert first.at([5000, 1]).tolist() == [second[5000], second[1]]


def test_vector_lookup_matches_scalar(power16):
    idx = np.array([1, 5, 17, 4000, 3], dtype=np.int64)
    vec = power16.at(idx)
    assert vec.tolist() == [power16[int(j)] for j in idx]


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=1.05, max_value=4.0))
def test_power_law_properties_random_exponent(s):
    seq = G.power_law(s)
    assert_normalizer_is_zeta(seq, s)
    head = seq.head(50)
    assert (head > 0).all()
    assert (np.diff(head) < 0).all()
    # raw ratio check, independent of the normalizer
    assert seq[2] / seq[1] == pytest.approx(2.0**-s, rel=1e-12)


# the families' parameter edges join three everyday specs
EXACT_SPECS = ["power:1.6", "log-optimal", "beta:0.5",
               "power:1.01", "power:40", "beta:0.05", "beta:0.99"]


@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_cached_values_equal_one_running_minimum_pass(spec):
    # the constructor's head and every later extension read as one pass
    seq = G.from_spec(spec)
    n = 200_000
    raw = seq._raw(np.arange(1, n + 1, dtype=np.float64))
    want = np.minimum.accumulate(raw) / seq.normalizer
    assert np.array_equal(seq.head(n), want)


@pytest.mark.parametrize("spec", EXACT_SPECS)
def test_normalizer_is_one_exactly_rounded_sum(spec):
    # the head streams into fsum a stretch at a time; the sum is the one-shot sum's float
    _, raw, tail = G._parse(spec)
    n = G._TRUNCATION
    head = np.minimum.accumulate(raw(np.arange(1, n + 1, dtype=np.float64)))
    f_n, f_next, f_after = (G._raw_at(raw, n + k) for k in range(3))
    want = math.fsum([*head.tolist(), tail(n + 1.0), 0.5 * f_next, (f_n - f_after) / 24.0])
    assert G.from_spec(spec).normalizer == want


def test_a_build_holds_no_head_array():
    # a 1e5-term head as an array and as Python floats would be over 4 MB;
    # scipy.special, which the beta tail imports, is loaded with this module
    tracemalloc.start()
    try:
        G.power_law(1.63), G.beta_optimal(0.37), G.log_optimal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
