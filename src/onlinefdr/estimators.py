"""Running FDP estimators and across-trial error metrics.

The three estimators read a :class:`StreamTrace` and return one float64 array
with the value after each step t = 1..T.  They share the denominator
max(|R(t)|, 1):

* oracle: sums the levels spent on truly null steps (needs labels);
* naive:  sums every level, an upper bound on the oracle;
* candidate-discounted: sums alpha_j / (1 - lambda_j) over non-candidate
  steps only, the quantity the candidate-aware procedures keep below alpha.

``aggregate`` reduces a batch of trials to mean FDR/power with standard
errors; ``mfdr`` is the plug-in ratio of across-trial means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .records import StreamTrace, TrialResult


def _over_rejections(numerators: np.ndarray, rejected: np.ndarray) -> np.ndarray:
    return np.cumsum(numerators) / np.maximum(np.cumsum(rejected), 1)


def fdp_oracle(trace: StreamTrace, is_null: Sequence[bool]) -> np.ndarray:
    """Levels spent on truly null steps over rejections (simulation only)."""
    null = np.asarray(is_null, dtype=bool)
    if null.shape != trace.alpha.shape:
        raise ValueError(
            f"length mismatch: {trace.alpha.shape[0]} steps vs {null.shape[0]} labels"
        )
    return _over_rejections(trace.alpha * null, trace.rejected)


def fdp_hat_lord(trace: StreamTrace) -> np.ndarray:
    """All levels spent, over rejections; dominates the oracle pointwise."""
    return _over_rejections(trace.alpha, trace.rejected)


def fdp_hat_saffron(trace: StreamTrace) -> np.ndarray:
    """Candidate-discounted spend over rejections.

    Non-candidate steps contribute alpha_j / (1 - lambda_j); candidates
    contribute nothing.
    """
    contrib = np.where(trace.pvalues > trace.lam, trace.alpha / (1.0 - trace.lam), 0.0)
    return _over_rejections(contrib, trace.rejected)


@dataclass(frozen=True)
class TrialSummary:
    fdr: float
    power: float
    fdr_se: float
    power_se: float
    trials: int


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
    return TrialSummary(fdr, power, fdr_se, power_se, len(trials))


def mfdr(trials: Sequence[TrialResult]) -> float:
    """Plug-in modified FDR: mean false discoveries over mean discoveries."""
    if not trials:
        raise ValueError("cannot compute mFDR of an empty list of trials")
    false = sum(t.fdp * t.rejections for t in trials)
    total = sum(t.rejections for t in trials)
    return false / total if total else 0.0
