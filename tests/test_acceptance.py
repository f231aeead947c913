"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy Monte Carlo fixtures are shared at module scope and parallelized over
two workers; every result is a pure function of the seeds fixed here.

Procedure configurations for the Gaussian comparison grid: saffron,
saffron-ai, and alpha-investing use the power:1.6 discount sequence; lord
uses power:1.6 as well, so the adaptive-versus-non-adaptive comparison is
matched on the same payout schedule.
"""

import io
import itertools
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from onlinefdr import gamma as G
from onlinefdr.estimators import fdp_hat_lord, fdp_hat_saffron, fdp_oracle
from onlinefdr.procedures import AdaptiveSaffron, AlphaInvesting, Lord, Saffron
from onlinefdr.offline import bh
from onlinefdr.simulation import (
    BetaAlternative,
    DataModel,
    GaussianMean,
    ProcedureSpec,
    SimConfig,
    generate_stream,
    grid,
    normal_sf,
    sweep,
    trial_rng,
    write_csv,
)

ALPHA = 0.05
W0 = 0.025
T = 1000
TRIALS = 200
SEED = 42
JOBS = 2

PI1_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
SIX_SEQUENCES = ("power:1.2", "power:1.4", "power:1.6", "power:1.8", "power:2.0", "log-optimal")

GAUSSIAN_PROCS = (
    ProcedureSpec("saffron", ALPHA, W0, 0.5, "power:1.6"),
    ProcedureSpec("saffron-ai", ALPHA, W0, 0.5, "power:1.6"),
    ProcedureSpec("lord", ALPHA, W0, 0.5, "power:1.6"),
    ProcedureSpec("alpha-investing", ALPHA, W0, 0.5, "power:1.6"),
)


def report(name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\n[{status}] {name}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"{name}: {failures}"


@pytest.fixture(scope="module")
def gaussian_grid():
    base = SimConfig(
        model=DataModel(GaussianMean(3.0), pi1=0.5, T=T),
        procedure=GAUSSIAN_PROCS[0],
        trials=TRIALS,
        seed=SEED,
    )
    rows = sweep(grid(base, PI1_GRID, GAUSSIAN_PROCS), jobs=JOBS)
    return {(r.procedure, r.pi1): r for r in rows}


@pytest.fixture(scope="module")
def beta_grid():
    base = SimConfig(
        model=DataModel(BetaAlternative(0.5, 5.0), pi1=0.5, T=T),
        procedure=GAUSSIAN_PROCS[0],
        trials=TRIALS,
        seed=SEED,
    )
    procs = [
        ProcedureSpec(name, ALPHA, W0, 0.5, g)
        for name in ("saffron", "lord")
        for g in SIX_SEQUENCES
    ]
    rows = sweep(grid(base, (0.5, 0.6, 0.7, 0.8, 0.9), procs), jobs=JOBS)
    return rows


def test_criterion_1_fdr_control_gaussian_grid(gaussian_grid):
    failures = []
    for name in ("saffron", "saffron-ai", "lord", "alpha-investing"):
        for pi1 in PI1_GRID:
            row = gaussian_grid[(name, pi1)]
            bound = ALPHA + 3 * row.fdr_se
            if row.fdr > bound:
                failures.append(
                    f"{name} pi1={pi1}: fdr={row.fdr:.4f} > {bound:.4f}"
                )
    report("criterion 1: FDR <= 0.05 + 3 se on the Gaussian grid", failures)


def test_criterion_2_power_ordering(gaussian_grid):
    failures = []
    for pi1 in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        saff = gaussian_grid[("saffron", pi1)]
        lord = gaussian_grid[("lord", pi1)]
        invest = gaussian_grid[("alpha-investing", pi1)]
        gap_sl = saff.power - lord.power
        need_sl = 2 * float(np.hypot(saff.power_se, lord.power_se))
        if gap_sl <= need_sl:
            failures.append(f"pi1={pi1}: saffron-lord gap {gap_sl:.4f} <= {need_sl:.4f}")
        gap_li = lord.power - invest.power
        need_li = 2 * float(np.hypot(lord.power_se, invest.power_se))
        if gap_li <= need_li:
            failures.append(f"pi1={pi1}: lord-investing gap {gap_li:.4f} <= {need_li:.4f}")
    report("criterion 2: power ordering saffron > lord > alpha-investing", failures)


def test_criterion_3_beta_alternatives_best_of_six(beta_grid):
    failures = []
    by = {(r.procedure, r.gamma, r.pi1): r for r in beta_grid}
    for pi1 in (0.5, 0.6, 0.7, 0.8, 0.9):
        best_s = max((by[("saffron", g, pi1)] for g in SIX_SEQUENCES), key=lambda r: r.power)
        best_l = max((by[("lord", g, pi1)] for g in SIX_SEQUENCES), key=lambda r: r.power)
        gap = best_s.power - best_l.power
        need = 2 * float(np.hypot(best_s.power_se, best_l.power_se))
        if gap <= need:
            failures.append(
                f"pi1={pi1}: best saffron ({best_s.gamma}) {best_s.power:.3f} vs "
                f"best lord ({best_l.gamma}) {best_l.power:.3f}, gap {gap:.4f} <= {need:.4f}"
            )
    report("criterion 3: beta-alternative best-of-six power margin", failures)


FEASIBLE_STEPS = ((0, 0), (0, 1), (1, 1))
ORDERED_STEP_PAIRS = tuple(
    (hi, lo)
    for hi in FEASIBLE_STEPS
    for lo in FEASIBLE_STEPS
    if hi[0] >= lo[0] and hi[1] >= lo[1]
)


def _levels_for_all_histories(factory, max_len):
    levels = {}
    for k in range(max_len + 1):
        for hist in itertools.product(FEASIBLE_STEPS, repeat=k):
            proc = factory()
            proc.load_history([r for r, _ in hist], [c for _, c in hist])
            levels[hist] = proc.next_level()
    return levels


def test_criterion_4_monotonicity_exhaustive():
    g16 = G.from_spec("power:1.6")
    failures = []
    factories = {
        "saffron": lambda: Saffron(ALPHA, W0, g16, lam=0.5),
        "saffron-ai": lambda: AdaptiveSaffron(ALPHA, W0, g16),
    }
    for name, factory in factories.items():
        levels = _levels_for_all_histories(factory, max_len=6)
        checked = 0
        for k in range(7):
            for pair_seq in itertools.product(ORDERED_STEP_PAIRS, repeat=k):
                hi = tuple(p[0] for p in pair_seq)
                lo = tuple(p[1] for p in pair_seq)
                a_hi, l_hi = levels[hi]
                a_lo, l_lo = levels[lo]
                checked += 1
                if (a_hi < a_lo - 1e-12 or l_hi < l_lo - 1e-12) and len(failures) < 6:
                    failures.append(f"{name}: {hi} vs {lo}: {a_hi} < {a_lo}")
        assert checked == sum(6**k for k in range(7))
    report("criterion 4: monotone levels over all ordered feasible histories", failures)


PI1_CYCLE = (0.0, 0.1, 0.3, 0.5, 0.9)
N_CONTROL_STREAMS = 10_000
CONTROL_T = 200
CONTROL_SEED = 5150


def _lord_overspend(trace):
    spend = np.cumsum(trace.alpha)
    return float((spend - ALPHA * np.maximum(np.cumsum(trace.rejected), 1)).max())


def _saffron_overshoot(trace):
    return float(fdp_hat_saffron(trace).max() - ALPHA)


def _control_chunk(bounds):
    lo, hi = bounds
    g16 = G.from_spec("power:1.6")
    streams = np.array([
        generate_stream(
            DataModel(GaussianMean(3.0), PI1_CYCLE[i % len(PI1_CYCLE)], CONTROL_T),
            trial_rng(CONTROL_SEED, i),
        )[0]
        for i in range(lo, hi)
    ])
    worst = {}
    for name, factory, excess in (
        ("saffron", lambda: Saffron(ALPHA, W0, g16, lam=0.5), _saffron_overshoot),
        ("saffron-ai", lambda: AdaptiveSaffron(ALPHA, W0, g16), _saffron_overshoot),
        ("lord", lambda: Lord(ALPHA, W0, g16), _lord_overspend),
    ):
        # the first chunk goes through scalar run, the others through run_batch
        if lo == 0:
            traces = [factory().run(pvalues) for pvalues in streams]
        else:
            traces = factory().run_batch(streams)
        worst[name] = max(map(excess, traces))
    # the first chunk reads the machine's own wealth after every step; the
    # others the wealth its run_batch trace implies: alpha earned per
    # rejection, alpha_t / (1 - alpha_t) spent per non-rejection
    min_wealth = np.inf
    if lo == 0:
        for pvalues in streams:
            invest = AlphaInvesting(ALPHA, g16)
            for p in pvalues.tolist():
                invest.step(p)
                if invest.wealth < min_wealth:
                    min_wealth = invest.wealth
    else:
        for trace in AlphaInvesting(ALPHA, g16).run_batch(streams):
            paid = np.where(trace.rejected, ALPHA, -trace.alpha / (1.0 - trace.alpha))
            min_wealth = min(min_wealth, float((ALPHA + np.cumsum(paid)).min()))
    return worst, min_wealth


def test_criterion_5_control_by_construction_on_random_streams():
    edges = np.linspace(0, N_CONTROL_STREAMS, 9, dtype=int)
    chunks = list(zip(edges[:-1], edges[1:]))
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_control_chunk, chunks))
    failures = []
    for name in ("saffron", "saffron-ai", "lord"):
        violation = max(r[0][name] for r in results)
        if violation > 1e-12:
            failures.append(f"{name}: control estimator exceeded alpha by {violation:.2e}")
    min_wealth = min(r[1] for r in results)
    if min_wealth < 0.0:
        failures.append(f"alpha-investing wealth dipped to {min_wealth:.2e}")
    report(
        f"criterion 5: control-by-construction on {N_CONTROL_STREAMS} random streams",
        failures,
    )


def test_criterion_6_investing_equivalence_identity():
    g16 = G.from_spec("power:1.6")
    failures = []
    for i in range(200):
        model = DataModel(GaussianMean(3.0), PI1_CYCLE[i % len(PI1_CYCLE)], CONTROL_T)
        pvalues, _ = generate_stream(model, trial_rng(99, i))
        trace = AdaptiveSaffron(ALPHA, W0, g16).run(pvalues)
        numerator = np.cumsum(
            np.where(trace.pvalues > trace.lam, trace.alpha / (1.0 - trace.lam), 0.0)
        )
        spent = np.cumsum(
            np.where(trace.rejected, 0.0, trace.alpha / (1.0 - trace.alpha))
        )
        gap = float(np.abs(numerator - spent).max())
        if gap > 1e-12:
            failures.append(f"stream {i}: numerator mismatch {gap:.2e}")
    report("criterion 6: candidate-discounted numerator equals spent-wealth sum", failures)


BH_INSTANCES = 100_000


def _bh_all_null_fdps() -> np.ndarray:
    """BH's FDP on each of 100 000 instances of 20 null p-values."""
    rng = np.random.default_rng(777)
    fdps = np.empty(BH_INSTANCES)
    for i in range(BH_INSTANCES):
        pvalues = rng.random(20)
        result = bh(pvalues, ALPHA)
        fdps[i] = 1.0 if result.rejected else 0.0  # all hypotheses null
    return fdps


def _bh_half_null_fdps() -> np.ndarray:
    """BH's FDP on each of 100 000 instances of 10 null and 10 strong signals."""
    rng = np.random.default_rng(778)
    pvalues = np.empty((BH_INSTANCES, 20))
    z = np.empty((BH_INSTANCES, 10))
    for i in range(BH_INSTANCES):
        pvalues[i, :10] = rng.random(10)
        # strong one-sided signals: mean drawn from N(3, 1), observation N(mean, 1)
        z[i] = 3.0 + rng.standard_normal(10) + rng.standard_normal(10)
    pvalues[:, 10:] = normal_sf(z)
    fdps = np.empty(BH_INSTANCES)
    for i in range(BH_INSTANCES):
        rejected = bh(pvalues[i], ALPHA).rejected
        # indices below 10 are the nulls; 0/0 = 0
        fdps[i] = sum(j < 10 for j in rejected) / len(rejected) if rejected else 0.0
    return fdps


def test_criterion_7_bh_exact_fdr_identity():
    # the two halves draw from their own seeds, one worker each
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        halves = [pool.submit(f) for f in (_bh_all_null_fdps, _bh_half_null_fdps)]
        results = [half.result() for half in halves]
    failures = []
    for label, fdps, target in zip(("all-null", "half-null"), results, (0.05, 0.025)):
        mean = fdps.mean()
        se = fdps.std(ddof=1) / np.sqrt(BH_INSTANCES)
        if abs(mean - target) > 3 * se:
            failures.append(f"{label}: fdr {mean:.5f} vs {target} +- {3 * se:.5f}")
    report("criterion 7: step-up FDR equals alpha x null fraction", failures)


def test_criterion_8_oracle_dominance_pointwise():
    g16 = G.from_spec("power:1.6")
    failures = []
    models = [
        DataModel(GaussianMean(3.0), 0.4, CONTROL_T),
        DataModel(BetaAlternative(0.5, 5.0), 0.6, CONTROL_T),
    ]
    procedures = (
        lambda: Saffron(ALPHA, W0, g16, lam=0.5),
        lambda: AdaptiveSaffron(ALPHA, W0, g16),
        lambda: Lord(ALPHA, W0, g16),
        lambda: AlphaInvesting(ALPHA, g16),
    )
    for i in range(100):
        model = models[i % 2]
        pvalues, is_null = generate_stream(model, trial_rng(31, i))
        for factory in procedures:
            trace = factory().run(pvalues)
            naive = fdp_hat_lord(trace)
            oracle = fdp_oracle(trace, is_null)
            if not (naive >= oracle - 1e-15).all():
                failures.append(f"stream {i}: naive estimate dipped below oracle")
            if not (oracle >= 0).all():
                failures.append(f"stream {i}: negative oracle value")
    report("criterion 8: naive estimator dominates the oracle pointwise", failures)


def test_criterion_9_determinism_byte_identical_csv():
    base = SimConfig(
        model=DataModel(GaussianMean(3.0), pi1=0.5, T=200),
        procedure=GAUSSIAN_PROCS[0],
        trials=20,
        seed=SEED,
    )
    cfgs = grid(base, (0.2, 0.5), [GAUSSIAN_PROCS[0], GAUSSIAN_PROCS[2]])

    def csv_bytes(jobs):
        buf = io.StringIO()
        write_csv(sweep(cfgs, jobs=jobs), buf)
        return buf.getvalue().encode()

    failures = []
    first, second = csv_bytes(1), csv_bytes(1)
    if first != second:
        failures.append("two serial runs differ")
    for jobs in (2, 3):  # 3 asks for more workers than there are batches
        if csv_bytes(jobs) != first:
            failures.append(f"run with {jobs} workers differs from serial run")
    report("criterion 9: byte-identical CSV across runs and worker counts", failures)
