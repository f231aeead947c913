"""Running FDP estimators and across-trial error metrics.

The three estimators read the :class:`StreamTrace` of one stream, as ``run``
returns it and as ``run_batch`` returns one per row, and return one float64
array with the value after each step t = 1..T.  They share the denominator
max(|R(t)|, 1):

* oracle: sums the levels spent on truly null steps (needs labels);
* naive:  sums every level, an upper bound on the oracle;
* candidate-discounted: sums alpha_j / (1 - lambda_j) over non-candidate
  steps only, the quantity the candidate-aware procedures keep below alpha.

``aggregate`` reduces a batch of trials to mean FDR/power with standard
errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import StreamTrace, TrialResult, flag_arrays


def _over_rejections(numerators: np.ndarray, rejected: np.ndarray) -> np.ndarray:
    return np.cumsum(numerators) / np.maximum(np.cumsum(rejected), 1)


def fdp_oracle(trace: StreamTrace, is_null: Sequence[bool]) -> np.ndarray:
    """Levels spent on truly null steps over rejections (simulation only)."""
    rejected, null = flag_arrays(trace.rejected, is_null)
    return _over_rejections(trace.alpha * null, rejected)


def fdp_hat_lord(trace: StreamTrace) -> np.ndarray:
    """All levels spent, over rejections; dominates the oracle pointwise."""
    return _over_rejections(trace.alpha, trace.rejected)


def fdp_hat_saffron(trace: StreamTrace) -> np.ndarray:
    """Candidate-discounted spend over rejections.

    Non-candidate steps contribute alpha_j / (1 - lambda_j); candidates
    contribute nothing.
    """
    contrib = np.where(trace.candidate, 0.0, trace.alpha / (1.0 - trace.lam))
    return _over_rejections(contrib, trace.rejected)


@dataclass(frozen=True)
class TrialSummary:
    fdr: float
    power: float
    fdr_se: float
    power_se: float


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    n = len(x)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


def aggregate(trials: Sequence[TrialResult]) -> TrialSummary:
    """Mean FDR and power across trials, with standard errors of the mean."""
    if not trials:
        raise ValueError("cannot aggregate an empty list of trials")
    fdr, fdr_se = _mean_se(np.array([t.fdp for t in trials]))
    power, power_se = _mean_se(np.array([t.power for t in trials]))
    return TrialSummary(fdr, power, fdr_se, power_se)
