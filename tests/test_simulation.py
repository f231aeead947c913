"""Stream generators, trial runner determinism, and the sweep harness."""

import io
import math
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import stats

from onlinefdr import simulation
from onlinefdr.estimators import aggregate
from onlinefdr.records import TrialResult, fdp_from_flags, power_from_flags
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


def test_tiny_beta_shapes_give_no_nan_pvalues():
    # at shape 1e-3 about half the gamma draws are 0.0, and 0/0 would be NaN
    model = DataModel(BetaAlternative(0.001, 0.001), pi1=1.0, T=1000)
    pvalues, _ = generate_stream(model, np.random.default_rng(0))
    assert ((pvalues >= 0.0) & (pvalues <= 1.0)).all()
    # Beta(0.001, 0.001) puts almost all its mass at the two ends
    assert 0.3 < (pvalues < 0.5).mean() < 0.7
    cfg = base_config(model=DataModel(BetaAlternative(0.001, 0.001), 0.5, 100), trials=2, seed=0)
    assert run_cell(cfg).trials == 2


def test_beta_stream_is_a_ratio_of_two_gamma_draws():
    # the redraw of 0/0 entries takes no draw from streams that have none
    model = DataModel(BetaAlternative(0.5, 5.0), pi1=0.4, T=2000)
    pvalues, is_null = generate_stream(model, trial_rng(42, 3))
    rng = trial_rng(42, 3)
    assert (rng.random(2000) >= 0.4).tolist() == is_null.tolist()
    expected = rng.random(2000)
    x = rng.standard_gamma(0.5, size=int((~is_null).sum()))
    y = rng.standard_gamma(5.0, size=int((~is_null).sum()))
    expected[~is_null] = x / (x + y)
    assert pvalues.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", [GaussianMean(3.0), BetaAlternative(0.5, 5.0)])
def test_all_null_stream_draws_only_labels_and_nulls(kind):
    # pi1 = 0: the size-0 signal draws take nothing from the generator
    gen = trial_rng(5, 2)
    pvalues, is_null = generate_stream(DataModel(kind, pi1=0.0, T=500), gen)
    rng = trial_rng(5, 2)
    rng.random(500)
    if isinstance(kind, GaussianMean):
        expected = normal_sf(rng.standard_normal(500))
    else:
        expected = rng.random(500)
    assert is_null.all()
    assert pvalues.tobytes() == expected.tobytes()
    assert gen.random() == rng.random()  # and nothing else was drawn


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


def trial_results(cfg):
    """Every trial of a cell, one scalar ``run`` at a time."""
    results = []
    for i in range(cfg.trials):
        trace, is_null = trial_trace(cfg, i)
        results.append(
            TrialResult(
                fdp_from_flags(trace.rejected, is_null),
                power_from_flags(trace.rejected, is_null),
                int(trace.rejected.sum()),
            )
        )
    return results


def test_single_step_trial_is_well_defined():
    cfg = base_config(model=DataModel(GaussianMean(3.0), pi1=0.0, T=1), trials=1)
    row = run_cell(cfg)
    (result,) = simulation._batch_results([(cfg, 0)])
    trace, _ = trial_trace(cfg, 0)
    assert len(trace) == 1
    if not trace.rejected[0]:
        assert row.fdr == result.fdp == 0.0
        assert result.rejections == 0
    assert row.power == result.power == 0.0  # no non-nulls at pi1 = 0


def test_run_cell_is_deterministic():
    cfg = base_config()
    first = run_cell(cfg)
    second = run_cell(cfg)
    assert first == second
    trace, again = trial_trace(cfg, 3)[0], trial_trace(cfg, 3)[0]
    for field in ("pvalues", "alpha", "lam", "rejected", "candidate"):
        assert np.array_equal(getattr(trace, field), getattr(again, field))
    other = run_cell(replace(cfg, seed=43))
    assert other != first
    assert not np.array_equal(trial_trace(cfg, 4)[0].pvalues, trace.pvalues)


def test_trial_rng_split_is_documented_function_of_seed_and_index():
    a = trial_rng(42, 1).random(4)
    b = np.random.default_rng([42, 1]).random(4)
    assert a.tolist() == b.tolist()
    assert trial_rng(42, 1).random(4).tolist() != trial_rng(42, 2).random(4).tolist()
    assert trial_rng(43, 1).random(4).tolist() != trial_rng(42, 1).random(4).tolist()


def test_run_cell_metrics_match_trace_recount():
    cfg = base_config(model=DataModel(GaussianMean(3.0), pi1=0.4, T=20), trials=1)
    row = run_cell(cfg)
    trace, is_null = trial_trace(cfg, 0)
    assert row.fdr == pytest.approx(fdp_from_flags(trace.rejected, is_null))
    assert row.power == pytest.approx(power_from_flags(trace.rejected, is_null))
    # one trial is decided by run, a batch of MIN_BATCH_ROWS by run_batch
    for trials in (1, simulation._MIN_BATCH_ROWS):
        results = simulation._batch_results([(cfg, i) for i in range(trials)])
        assert results == trial_results(replace(cfg, trials=trials))
        assert results[0].rejections == sum(trace.rejected)


def test_single_cell_sweep_equals_aggregate():
    cfg = base_config()
    rows = sweep([cfg])
    summary = aggregate(trial_results(cfg))
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


TWO_PROCEDURES = [
    ProcedureSpec("saffron", 0.05, 0.025, 0.5, "power:1.6"),
    ProcedureSpec("lord", 0.05, 0.025, 0.5, "power:1.6"),
]


def test_sweep_starts_no_more_workers_than_batches(monkeypatch):
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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    # two cells of one procedure share one batch: no pool at all
    base = base_config(trials=2)
    cfgs = grid(base, pi1_values=[0.2, 0.6], procedures=[base.procedure])
    assert sweep(cfgs, jobs=5000) == sweep(cfgs, jobs=1)
    assert started == []
    cfgs = grid(base_config(trials=2), pi1_values=[0.2, 0.6], procedures=TWO_PROCEDURES)
    assert sweep(cfgs, jobs=5000) == sweep(cfgs, jobs=1)
    assert started == [2]


def test_sweep_batches_follow_procedure_and_length(monkeypatch):
    base = base_config(trials=5)
    short = replace(base.model, T=50)
    cfgs = grid(base, [0.2, 0.6], TWO_PROCEDURES) + [replace(base, model=short)]
    trials = range(5)
    assert simulation._plan_batches(cfgs) == [
        [(0, i) for i in trials] + [(1, i) for i in trials],
        [(2, i) for i in trials] + [(3, i) for i in trials],
        [(4, i) for i in trials],
    ]
    # a cap of 7 trials at T = 100 splits the second cell's trials across batches
    monkeypatch.setattr(simulation, "_BATCH_TRIAL_STEPS", 7 * 100)
    assert simulation._plan_batches(cfgs[:2]) == [
        [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)],
        [(1, 2), (1, 3), (1, 4)],
    ]


def test_sweep_rows_do_not_depend_on_batch_boundaries(monkeypatch):
    cfgs = grid(base_config(trials=20), [0.1, 0.5, 0.9], TWO_PROCEDURES)
    whole = sweep(cfgs)
    assert whole == [aggregate_row(c) for c in cfgs]
    # batches of 24, 37 and 60 rows, and 7 rows, too few to batch at all
    for cap in (24, 37, 60, 7):
        monkeypatch.setattr(simulation, "_BATCH_TRIAL_STEPS", cap * 100)
        assert sweep(cfgs) == whole, cap
        assert sweep(cfgs, jobs=3) == whole, cap


def test_only_batches_too_small_to_pay_go_one_at_a_time(monkeypatch):
    calls = []
    run, run_batch = simulation.OnlineProcedure.run, simulation.OnlineProcedure.run_batch
    monkeypatch.setattr(simulation.OnlineProcedure, "run",
                        lambda self, p: calls.append("run") or run(self, p))
    monkeypatch.setattr(simulation.OnlineProcedure, "run_batch",
                        lambda self, p: calls.append("run_batch") or run_batch(self, p))
    assert simulation._MIN_BATCH_ROWS == 24
    sweep([base_config(trials=24)])
    assert calls == ["run_batch"]
    calls.clear()
    sweep([base_config(trials=23)])
    assert calls == ["run"] * 23
    calls.clear()
    # a cap of 25 rows cuts 28 trials into a batch of 25 and one of 3
    monkeypatch.setattr(simulation, "_BATCH_TRIAL_STEPS", 25 * 100)
    sweep([base_config(trials=28)])
    assert calls == ["run_batch"] + ["run"] * 3


def aggregate_row(cfg):
    """The cell's row from one scalar ``run`` per trial."""
    s = aggregate(trial_results(cfg))
    return simulation.SweepRow(
        cfg.procedure.name, cfg.procedure.gamma, cfg.model.pi1, s.fdr, s.fdr_se,
        s.power, s.power_se, cfg.trials, cfg.seed,
    )


# Run in a fresh interpreter, where nothing has imported scipy yet.
SWEEP_IMPORT_PROBE = """
import concurrent.futures
import sys
from onlinefdr import simulation as S

class SerialPool:
    def __init__(self, max_workers):
        print("scipy.special" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

concurrent.futures.ProcessPoolExecutor = SerialPool
base = S.SimConfig(S.DataModel(S.GaussianMean(3.0), 0.5, 20), S.ProcedureSpec("lord", 0.05, 0.025), 1, 1)
procs = [S.ProcedureSpec("lord", 0.05, 0.025), S.ProcedureSpec("saffron", 0.05, 0.025)]
assert "scipy" not in sys.modules
S.sweep(S.grid(base, [0.2, 0.6], procs), jobs=2)
"""


def test_sweep_imports_scipy_special_before_the_pool_forks():
    # forked workers inherit it instead of each importing it for normal_sf
    result = subprocess.run(
        [sys.executable, "-c", SWEEP_IMPORT_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_null_streams_keep_every_procedure_below_alpha():
    # pure-null streams: empirical FDR = P(any false rejection) stays near alpha
    for name in ("saffron", "saffron-ai", "lord", "alpha-investing"):
        cfg = base_config(
            model=DataModel(GaussianMean(3.0), pi1=0.0, T=200),
            procedure=ProcedureSpec(name, 0.05, 0.025, 0.5, "power:1.6"),
            trials=200,
        )
        row = run_cell(cfg)
        assert row.fdr <= 0.05 + 3 * row.fdr_se + 1e-12, name


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


def test_sweep_of_no_configs_raises():
    with pytest.raises(ValueError, match="at least one configuration"):
        sweep([])


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
