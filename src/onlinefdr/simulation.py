"""Data generators and the seeded Monte Carlo experiment harness.

Two stream models: Gaussian one-sided tests, where each observation is
Z ~ N(mu, 1) with mu = 0 under the null and mu ~ N(mu_c, 1) under the
alternative, converted to p = Phi(-Z); and a direct p-value mixture with
Uniform[0,1] nulls and Beta(m, n) alternatives.  Labels are Bernoulli(pi1)
per index, so the realized non-null count varies by trial.

Every trial's randomness is a pure function of (seed, trial_index): the
per-trial generator is ``numpy.random.default_rng([seed, trial_index])``,
i.e. a SeedSequence keyed on both integers.  ``sweep`` lists the (cell,
trial) pairs of all cells that share a procedure and a stream length, cuts
the list into batches, draws each trial's stream from its own generator, and
decides a batch with one ``run_batch`` call in lockstep over t (a batch of
fewer than 24 trials goes one trial at a time through ``run``).  Both return
one trace per trial.  A trial's decisions do not depend on the batch it lands
in, and the sweep output is identical for any worker count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass, fields, replace
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


def _integer(field: str, value) -> int:
    """The value of an integer field, a Python or NumPy integer, as an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{field} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class DataModel:
    kind: ModelKind
    pi1: float
    T: int

    def __post_init__(self):
        if not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must lie in [0, 1], got {self.pi1}")
        if _integer("T", self.T) < 1:
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
        z[~is_null] += model.kind.mu_c + rng.standard_normal(k)
        p = normal_sf(z)
    else:
        p = rng.random(T)
        # Beta(m, n) as a ratio of two gamma draws (Marsaglia-Tsang sampler).  At
        # tiny shapes both draws can be 0.0, and 0/0 is NaN: numpy's beta sampler
        # redraws those after all other draws.  A size-0 draw takes nothing.
        x = rng.standard_gamma(model.kind.m, size=k)
        y = rng.standard_gamma(model.kind.n, size=k)
        with np.errstate(invalid="ignore"):
            alt = x / (x + y)
        nan = np.isnan(alt)
        alt[nan] = rng.beta(model.kind.m, model.kind.n, size=int(nan.sum()))
        p[~is_null] = alt
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
        if _integer("trials", self.trials) < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if _integer("seed", self.seed) < 0:
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
# decides its trials one at a time.  On 2 vCPUs, with rows at pi1 0.1 to 0.9
# in turn, the crossover at T = 1000 was 16-24 rows for alpha-investing, about
# 16 for saffron, 8-16 for saffron-ai and 8 or fewer for lord.  At T = 8000 it
# was 16-24 for alpha-investing and 8 or fewer for lord, and saffron and
# saffron-ai were still slower batched at 48 rows: each batched row pays for
# the batch's longest clock.  With every row at pi1 0.5 those two crossed at
# 16-24 and about 24 rows.
# Smaller batches, such as a cell of a few trials or any batch of streams
# longer than 10 666 steps, are therefore decided one trial at a time.
_MIN_BATCH_ROWS = 24


def _plan_batches(configs: Sequence[SimConfig]) -> list[list[tuple[int, int]]]:
    """Cut the (cell index, trial index) keys of each (procedure, T) group into
    batches of at most ``max(1, _BATCH_TRIAL_STEPS // T)`` keys.

    Cells keep their input order and trials their index order, so reading the
    batches in order gives every cell's trials in trial order.
    """
    groups: dict[tuple[ProcedureSpec, int], list[tuple[int, int]]] = {}
    for k, cfg in enumerate(configs):
        keys = groups.setdefault((cfg.procedure, cfg.model.T), [])
        keys += [(k, i) for i in range(cfg.trials)]
    batches = []
    for (_, T), keys in groups.items():
        cap = max(1, _BATCH_TRIAL_STEPS // T)
        batches += [keys[lo : lo + cap] for lo in range(0, len(keys), cap)]
    return batches


def _batch_results(trials: Sequence[tuple[SimConfig, int]]) -> list[TrialResult]:
    """Generate each trial's stream, then decide them all: one run_batch call,
    or one run per trial for a batch of fewer than ``_MIN_BATCH_ROWS`` trials."""
    streams = [generate_stream(cfg.model, trial_rng(cfg.seed, i)) for cfg, i in trials]
    spec = trials[0][0].procedure
    if len(streams) >= _MIN_BATCH_ROWS:
        traces = spec.build().run_batch(np.array([p for p, _ in streams]))
    else:
        traces = [spec.build().run(p) for p, _ in streams]
    return [
        TrialResult(
            fdp=fdp_from_flags(trace.rejected, is_null),
            power=power_from_flags(trace.rejected, is_null),
            rejections=int(trace.rejected.sum()),
        )
        for trace, (_, is_null) in zip(traces, streams)
    ]


def run_cell(config: SimConfig) -> SweepRow:
    """Aggregate all trials of one grid cell into a result row."""
    return sweep([config])[0]


def grid(
    base: SimConfig,
    pi1_values: Sequence[float],
    procedures: Sequence[ProcedureSpec],
) -> list[SimConfig]:
    """Expand a base config over non-null fractions and procedure variants."""
    return [
        replace(base, model=replace(base.model, pi1=pi1), procedure=proc)
        for proc in procedures
        for pi1 in pi1_values
    ]


def sweep(configs: Sequence[SimConfig], jobs: int = 1) -> list[SweepRow]:
    """Run every cell; output order follows input order for any job count.

    The trials of all cells that share a procedure and a stream length are
    decided together, in batches of at most ``_BATCH_TRIAL_STEPS`` trial-steps
    that may span cells; the batches do not depend on ``jobs``.  Each batch
    is one ``run_batch`` call, except that a batch of fewer than 24 trials
    is decided one trial at a time by ``run`` (see ``_MIN_BATCH_ROWS``).  Each
    worker takes one batch at a time, and at most one worker per batch is
    started: the pool forks all its workers at the first submit.
    ``scipy.special`` is imported before the fork, so that the workers
    inherit it.
    """
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    batches = _plan_batches(configs)
    tasks = [[(configs[k], i) for k, i in batch] for batch in batches]
    if jobs <= 1 or len(tasks) == 1:
        results = list(map(_batch_results, tasks))
    else:
        # imported here, not at module level: the pool costs a cold start that
        # the stream command never uses
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # noqa: F401

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_batch_results, tasks))
    per_cell: list[list[TrialResult]] = [[] for _ in configs]
    for batch, batch_results in zip(batches, results):
        for (k, _), result in zip(batch, batch_results):
            per_cell[k].append(result)
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


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def write_csv(rows: Sequence[SweepRow], out: IO[str], precision: int = 6) -> None:
    """Emit the sweep table in ``SweepRow``'s field order; floats use the
    given number of significant digits, every other field ``str``."""
    spec = f".{precision}g"
    out.write(CSV_HEADER + "\n")
    for r in rows:
        cells = (format(v, spec) if isinstance(v, float) else str(v) for v in astuple(r))
        out.write(",".join(cells) + "\n")
