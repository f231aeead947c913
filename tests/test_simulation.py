"""Stream generators, trial runner determinism, and the sweep harness."""

import io
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from onlinefdr import simulation
from onlinefdr.estimators import aggregate, mfdr
from onlinefdr.records import fdp_from_flags, power_from_flags
from onlinefdr.simulation import (
    BetaAlternative,
    DataModel,
    GaussianMean,
    ProcedureSpec,
    SimConfig,
    generate_stream,
    grid,
    model_spec,
    normal_sf,
    parse_model,
    run_cell,
    run_trial,
    run_trials,
    sweep,
    trial_rng,
    write_csv,
)


def test_normal_sf_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for z in np.arange(-8.0, 8.01, 0.5):
        expected = float(mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2)
        got = float(normal_sf(z))
        assert got == pytest.approx(expected, rel=1e-13)


def test_normal_sf_vectorized_and_symmetric():
    z = np.array([-3.0, 0.0, 3.0])
    p = normal_sf(z)
    assert p[1] == pytest.approx(0.5)
    assert p[0] + p[2] == pytest.approx(1.0, abs=1e-15)


def test_null_gaussian_pvalues_are_uniform():
    model = DataModel(GaussianMean(3.0), pi1=0.0, T=100_000)
    pvalues, is_null = generate_stream(model, np.random.default_rng(123))
    assert is_null.all()
    assert stats.kstest(pvalues, "uniform").pvalue > 1e-3


def test_all_signal_gaussian_pvalues_are_small():
    model = DataModel(GaussianMean(3.0), pi1=1.0, T=20_000)
    pvalues, is_null = generate_stream(model, np.random.default_rng(7))
    assert not is_null.any()
    # E[Phi(-Z)] with Z ~ N(3, sqrt(2)) is Phi(-3/sqrt(3)) ~ 0.042
    assert pvalues.mean() < 0.1


def test_beta_alternative_mean():
    model = DataModel(BetaAlternative(0.5, 5.0), pi1=1.0, T=100_000)
    pvalues, _ = generate_stream(model, np.random.default_rng(21))
    # Beta(0.5, 5) has mean 1/11 and sd ~ 0.113, so 5 sigma of the mean ~ 2e-3
    assert pvalues.mean() == pytest.approx(1.0 / 11.0, abs=2e-3)


def test_beta_model_nulls_are_uniform():
    model = DataModel(BetaAlternative(0.5, 5.0), pi1=0.3, T=50_000)
    pvalues, is_null = generate_stream(model, np.random.default_rng(5))
    assert stats.kstest(pvalues[is_null], "uniform").pvalue > 1e-3


def test_label_fraction_tracks_pi1():
    model = DataModel(GaussianMean(2.0), pi1=0.3, T=50_000)
    _, is_null = generate_stream(model, np.random.default_rng(2))
    assert (~is_null).mean() == pytest.approx(0.3, abs=0.02)


def base_config(**overrides):
    defaults = dict(
        model=DataModel(GaussianMean(3.0), pi1=0.5, T=100),
        procedure=ProcedureSpec("saffron", 0.05, 0.025, 0.5, "power:1.6"),
        trials=5,
        seed=42,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def trial_trace(cfg, trial_index):
    """The trace and labels of one trial, recomputed from its documented parts."""
    pvalues, is_null = generate_stream(cfg.model, trial_rng(cfg.seed, trial_index))
    return cfg.procedure.build().run(pvalues), is_null


def test_single_step_trial_is_well_defined():
    cfg = base_config(model=DataModel(GaussianMean(3.0), pi1=0.0, T=1))
    result = run_trial(cfg, 0)
    trace, _ = trial_trace(cfg, 0)
    assert len(trace) == 1
    if not trace.rejected[0]:
        assert result.fdp == 0.0
        assert result.rejections == 0
    assert result.power == 0.0  # no non-nulls at pi1 = 0


def test_run_trial_is_deterministic():
    cfg = base_config()
    first = run_trial(cfg, 3)
    second = run_trial(cfg, 3)
    assert first == second
    trace, again = trial_trace(cfg, 3)[0], trial_trace(cfg, 3)[0]
    for field in ("pvalues", "alpha", "lam", "rejected", "candidate"):
        assert np.array_equal(getattr(trace, field), getattr(again, field))
    other = run_trial(cfg, 4)
    assert other != first
    assert not np.array_equal(trial_trace(cfg, 4)[0].pvalues, trace.pvalues)


def test_trial_rng_split_is_documented_function_of_seed_and_index():
    a = trial_rng(42, 1).random(4)
    b = np.random.default_rng([42, 1]).random(4)
    assert a.tolist() == b.tolist()
    assert trial_rng(42, 1).random(4).tolist() != trial_rng(42, 2).random(4).tolist()
    assert trial_rng(43, 1).random(4).tolist() != trial_rng(42, 1).random(4).tolist()


def test_run_trial_metrics_match_trace_recount():
    cfg = base_config(model=DataModel(GaussianMean(3.0), pi1=0.4, T=20))
    result = run_trial(cfg, 0)
    trace, is_null = trial_trace(cfg, 0)
    assert result.fdp == pytest.approx(fdp_from_flags(trace.rejected, is_null))
    assert result.power == pytest.approx(power_from_flags(trace.rejected, is_null))
    assert result.rejections == sum(trace.rejected)


def test_single_cell_sweep_equals_aggregate():
    cfg = base_config()
    rows = sweep([cfg])
    summary = aggregate(run_trials(cfg))
    assert len(rows) == 1
    assert rows[0].fdr == summary.fdr
    assert rows[0].power == summary.power
    assert rows[0].fdr_se == summary.fdr_se
    assert rows[0].procedure == "saffron"
    assert rows[0].gamma == "power:1.6"
    assert rows[0].pi1 == 0.5


def test_sweep_deterministic_across_job_counts():
    cfgs = grid(
        base_config(model=DataModel(GaussianMean(3.0), pi1=0.5, T=150), trials=8),
        pi1_values=[0.2, 0.6],
        procedures=[
            ProcedureSpec("saffron", 0.05, 0.025, 0.5, "power:1.6"),
            ProcedureSpec("lord", 0.05, 0.025, 0.5, "power:1.6"),
        ],
    )
    serial = sweep(cfgs, jobs=1)
    parallel = sweep(cfgs, jobs=2)
    assert serial == parallel
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(serial, buf1)
    write_csv(parallel, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
    cfgs = grid(base_config(trials=2), pi1_values=[0.2, 0.6])
    assert sweep(cfgs, jobs=5000) == sweep(cfgs, jobs=1)
    assert started == [2]


def test_null_streams_keep_every_procedure_below_alpha():
    # pure-null streams: empirical FDR = P(any false rejection) stays near alpha
    for name in ("saffron", "saffron-ai", "lord", "alpha-investing"):
        cfg = base_config(
            model=DataModel(GaussianMean(3.0), pi1=0.0, T=200),
            procedure=ProcedureSpec(name, 0.05, 0.025, 0.5, "power:1.6"),
            trials=200,
        )
        summary = aggregate(run_trials(cfg))
        assert summary.fdr <= 0.05 + 3 * summary.fdr_se + 1e-12, name


def test_mfdr_plug_in_stays_near_alpha():
    cfg = base_config(model=DataModel(GaussianMean(3.0), pi1=0.5, T=300), trials=200)
    value = mfdr(run_trials(cfg))
    assert value <= 0.05 + 0.02


def test_write_csv_header_and_precision():
    cfg = base_config(trials=2)
    rows = sweep([cfg])
    buf = io.StringIO()
    write_csv(rows, buf, precision=6)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed"
    fields = lines[1].split(",")
    assert fields[0] == "saffron"
    assert fields[-2:] == ["2", "42"]
    for cell in fields[3:7]:
        mantissa = cell.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa.split("e")[0]) <= 6


def test_model_spec_round_trip():
    for text in ("gaussian:3", "beta:0.5:5"):
        kind = parse_model(text)
        assert parse_model(model_spec(kind)) == kind
    with pytest.raises(ValueError):
        parse_model("cauchy:1")
    with pytest.raises(ValueError):
        parse_model("beta:0.5")


@pytest.mark.parametrize(
    "text", ["gaussian:nan", "gaussian:inf", "gaussian:-inf", "beta:0.5:inf", "beta:nan:5"]
)
def test_non_finite_model_parameters_rejected(text):
    with pytest.raises(ValueError, match="finite"):
        parse_model(text)


def test_config_validation():
    with pytest.raises(ValueError):
        DataModel(GaussianMean(3.0), pi1=1.2, T=100)
    with pytest.raises(ValueError):
        DataModel(GaussianMean(3.0), pi1=0.5, T=0)
    with pytest.raises(ValueError):
        base_config(trials=0)
    with pytest.raises(ValueError):
        base_config(seed=-1)
    with pytest.raises(ValueError):
        BetaAlternative(0.0, 5.0)
