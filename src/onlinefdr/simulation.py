"""Data generators and the seeded Monte Carlo experiment harness.

Two stream models: Gaussian one-sided tests, where each observation is
Z ~ N(mu, 1) with mu = 0 under the null and mu ~ N(mu_c, 1) under the
alternative, converted to p = Phi(-Z); and a direct p-value mixture with
Uniform[0,1] nulls and Beta(m, n) alternatives.  Labels are Bernoulli(pi1)
per index, so the realized non-null count varies by trial.

Every trial's randomness is a pure function of (seed, trial_index): the
per-trial generator is ``numpy.random.default_rng([seed, trial_index])``,
i.e. a SeedSequence keyed on both integers.  ``sweep`` draws each trial's
stream from its own generator, then stacks the trials of every cell that
shares a procedure and a stream length into batches, each decided by one
``run_batch`` call in lockstep over t (a batch of fewer than 16 trials goes
one trial at a time through ``run``).  A trial's decisions do not depend on
the batch it lands in, and the sweep output is identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from typing import IO, Sequence

import numpy as np

from . import gamma as gamma_mod
from .estimators import aggregate
from .procedures import OnlineProcedure, make_procedure
from .records import TrialResult, fdp_from_flags, power_from_flags


def normal_sf(z):
    """Upper tail of the standard normal: Phi(-z) = erfc(z / sqrt(2)) / 2."""
    from scipy import special

    return 0.5 * special.erfc(np.asarray(z, dtype=np.float64) / math.sqrt(2.0))


@dataclass(frozen=True)
class GaussianMean:
    """One-sided Gaussian testing; alternatives draw their mean from N(mu_c, 1)."""

    mu_c: float

    def __post_init__(self):
        if not math.isfinite(self.mu_c):
            raise ValueError(f"gaussian mean must be finite, got {self.mu_c}")


@dataclass(frozen=True)
class BetaAlternative:
    """Direct p-value mixture; alternatives are Beta(m, n)."""

    m: float
    n: float

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0:
            raise ValueError(f"beta shape parameters must be positive, got {self}")
        if not (math.isfinite(self.m) and math.isfinite(self.n)):
            raise ValueError(f"beta shape parameters must be finite, got {self}")


ModelKind = GaussianMean | BetaAlternative


@dataclass(frozen=True)
class DataModel:
    kind: ModelKind
    pi1: float
    T: int

    def __post_init__(self):
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must lie in [0, 1], got {self.pi1}")
        if self.T < 1:
            raise ValueError(f"stream length must be >= 1, got {self.T}")


def parse_model(spec: str) -> ModelKind:
    """Parse ``gaussian:<mu_c>`` or ``beta:<m>:<n>``."""
    parts = spec.split(":")
    if parts[0] == "gaussian" and len(parts) == 2:
        return GaussianMean(float(parts[1]))
    if parts[0] == "beta" and len(parts) == 3:
        return BetaAlternative(float(parts[1]), float(parts[2]))
    raise ValueError(f"unknown data model {spec!r}")


def model_spec(kind: ModelKind) -> str:
    if isinstance(kind, GaussianMean):
        return f"gaussian:{kind.mu_c!r}"
    return f"beta:{kind.m!r}:{kind.n!r}"


def generate_stream(model: DataModel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one stream: (p-values, is_null labels)."""
    T = model.T
    is_null = rng.random(T) >= model.pi1
    k = int((~is_null).sum())
    if isinstance(model.kind, GaussianMean):
        z = rng.standard_normal(T)
        if k:
            z[~is_null] += model.kind.mu_c + rng.standard_normal(k)
        p = normal_sf(z)
    else:
        p = rng.random(T)
        if k:
            # Beta(m, n) as a ratio of two gamma draws (Marsaglia-Tsang sampler)
            x = rng.standard_gamma(model.kind.m, size=k)
            y = rng.standard_gamma(model.kind.n, size=k)
            p[~is_null] = x / (x + y)
    return p, is_null


@dataclass(frozen=True)
class ProcedureSpec:
    """Plain-data description of a procedure, buildable from config text."""

    name: str
    alpha: float
    w0: float
    lam: float = 0.5
    gamma: str = "power:1.6"

    def build(self) -> OnlineProcedure:
        seq = gamma_mod.from_spec(self.gamma)
        return make_procedure(self.name, self.alpha, self.w0, seq, self.lam)


@dataclass(frozen=True)
class SimConfig:
    model: DataModel
    procedure: ProcedureSpec
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The documented per-trial stream split: SeedSequence on (seed, index)."""
    return np.random.default_rng([seed, trial_index])


@dataclass(frozen=True)
class SweepRow:
    procedure: str
    gamma: str
    pi1: float
    fdr: float
    fdr_se: float
    power: float
    power_se: float
    trials: int
    seed: int


# A batch holds at most this many trial-steps (rows x T).  At T = 1000 that is
# 256 rows: on 2 vCPUs the acceptance grids ran fastest from 128 to 512 rows
# a batch, where the lockstep loop's per-step cost is spread over enough rows
# while both workers still get batches to the end of a sweep.  The budget
# also bounds a batch's arrays (about 40 bytes a trial-step) at any T.
_BATCH_TRIAL_STEPS = 256_000

# With fewer rows than this, run_batch decides a batch more slowly than run()
# decides its trials one at a time: on 2 vCPUs the crossover was 8 rows at
# T = 1000 and 16 at T = 8000.  Smaller batches, such as a cell of a few
# trials or any batch of streams longer than 16 000 steps, are therefore
# decided one trial at a time.
_MIN_BATCH_ROWS = 16

# A batch segment: (index of the cell in the sweep, first trial, end trial).
_Segment = tuple[int, int, int]


def _plan_batches(configs: Sequence[SimConfig]) -> list[list[_Segment]]:
    """Stack the trials of cells that share a (procedure, T) pair into batches.

    Cells keep their input order and trials their index order, so reading the
    batches in order gives every cell's trials in trial order.
    """
    groups: dict[tuple[ProcedureSpec, int], list[int]] = {}
    for k, cfg in enumerate(configs):
        groups.setdefault((cfg.procedure, cfg.model.T), []).append(k)
    batches: list[list[_Segment]] = []
    for (_, T), cells in groups.items():
        cap = max(1, _BATCH_TRIAL_STEPS // T)
        batch: list[_Segment] = []
        room = cap
        for k in cells:
            lo = 0
            while lo < configs[k].trials:
                hi = min(configs[k].trials, lo + room)
                batch.append((k, lo, hi))
                room -= hi - lo
                lo = hi
                if room == 0:
                    batches.append(batch)
                    batch, room = [], cap
        if batch:
            batches.append(batch)
    return batches


def _batch_results(segments: Sequence[tuple[SimConfig, int, int]]) -> list[TrialResult]:
    """Generate each trial's stream, then decide them all: one run_batch call,
    or one run per trial for a batch of fewer than ``_MIN_BATCH_ROWS`` trials."""
    streams = [
        generate_stream(cfg.model, trial_rng(cfg.seed, i))
        for cfg, lo, hi in segments
        for i in range(lo, hi)
    ]
    spec = segments[0][0].procedure
    if len(streams) >= _MIN_BATCH_ROWS:
        decisions = spec.build().run_batch(np.array([p for p, _ in streams])).rejected
    else:
        decisions = [spec.build().run(p).rejected for p, _ in streams]
    return [
        TrialResult(
            fdp=fdp_from_flags(rejected, is_null),
            power=power_from_flags(rejected, is_null),
            rejections=int(rejected.sum()),
        )
        for rejected, (_, is_null) in zip(decisions, streams)
    ]


def run_cell(config: SimConfig) -> SweepRow:
    """Aggregate all trials of one grid cell into a result row."""
    return sweep([config])[0]


def grid(
    base: SimConfig,
    pi1_values: Sequence[float],
    procedures: Sequence[ProcedureSpec] | None = None,
) -> list[SimConfig]:
    """Expand a base config over non-null fractions and procedure variants."""
    procs = list(procedures) if procedures is not None else [base.procedure]
    return [
        replace(base, model=replace(base.model, pi1=pi1), procedure=proc)
        for proc in procs
        for pi1 in pi1_values
    ]


def sweep(configs: Sequence[SimConfig], jobs: int = 1) -> list[SweepRow]:
    """Run every cell; output order follows input order for any job count.

    The trials of all cells that share a procedure and a stream length are
    decided together, in batches of at most ``_BATCH_TRIAL_STEPS`` trial-steps
    that may span cells; the batches do not depend on ``jobs``.  Each batch
    is one ``run_batch`` call, except that a batch of fewer than 16 trials
    is decided one trial at a time by ``run`` (see ``_MIN_BATCH_ROWS``).  Each
    worker takes one batch at a time, and at most one worker per batch is
    started: the pool forks all its workers at the first submit.
    ``scipy.special`` is imported before the fork, so that the workers
    inherit it.
    """
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    batches = _plan_batches(configs)
    tasks = [[(configs[k], lo, hi) for k, lo, hi in batch] for batch in batches]
    if jobs <= 1 or len(tasks) == 1:
        results = list(map(_batch_results, tasks))
    else:
        import scipy.special  # noqa: F401

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_batch_results, tasks))
    per_cell: list[list[TrialResult]] = [[] for _ in configs]
    for batch, batch_results in zip(batches, results):
        done = iter(batch_results)
        for k, lo, hi in batch:
            per_cell[k] += islice(done, hi - lo)
    rows = []
    for cfg, cell in zip(configs, per_cell):
        summary = aggregate(cell)
        rows.append(
            SweepRow(
                procedure=cfg.procedure.name,
                gamma=cfg.procedure.gamma,
                pi1=cfg.model.pi1,
                fdr=summary.fdr,
                fdr_se=summary.fdr_se,
                power=summary.power,
                power_se=summary.power_se,
                trials=cfg.trials,
                seed=cfg.seed,
            )
        )
    return rows


CSV_HEADER = "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed"


def write_csv(rows: Sequence[SweepRow], out: IO[str], precision: int = 6) -> None:
    """Emit the sweep table; floats use the given number of significant digits."""

    def fmt(x: float) -> str:
        return format(x, f".{precision}g")

    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.procedure},{r.gamma},{fmt(r.pi1)},{fmt(r.fdr)},{fmt(r.fdr_se)},"
            f"{fmt(r.power)},{fmt(r.power_se)},{r.trials},{r.seed}\n"
        )
