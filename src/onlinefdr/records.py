"""Shared vocabulary for online testing runs.

P-values are plain floats validated at the boundaries; hypothesis labels are
plain booleans with the convention ``True`` = truly null (ground truth, known
only in simulation).  A :class:`DecisionRecord` is what one ``observe`` call
returns; a :class:`StreamTrace` holds a whole run as arrays, and is the one
form that the metrics and estimators read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def validate_pvalue(p: float) -> float:
    """Return p as a float, rejecting anything outside [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError(f"p-value must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class DecisionRecord:
    """One step of an online procedure.

    ``alpha`` is the test level and ``lam`` the candidacy threshold in force
    at step ``index`` (1-based).  A p-value at or below the threshold counts
    (<=, not <).  Since alpha <= lam, every rejection is also a candidate.
    """

    index: int
    p: float
    alpha: float
    lam: float
    rejected: bool
    candidate: bool

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"step index must be >= 1, got {self.index}")
        validate_pvalue(self.p)
        if not 0.0 <= self.alpha <= self.lam < 1.0:
            raise ValueError(
                f"need 0 <= alpha <= lam < 1, got alpha={self.alpha}, lam={self.lam}"
            )
        if self.rejected != (self.p <= self.alpha):
            raise ValueError("rejected flag inconsistent with p <= alpha")
        if self.candidate != (self.p <= self.lam):
            raise ValueError("candidate flag inconsistent with p <= lam")


@dataclass
class StreamTrace:
    """Array-backed record of a full run (one entry per step, t = 1..T)."""

    pvalues: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    rejected: np.ndarray
    candidate: np.ndarray

    def __len__(self) -> int:
        return len(self.pvalues)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one simulated trial.

    ``fdp`` uses the 0/0 = 0 convention; ``power`` is the fraction of truly
    non-null hypotheses rejected, 0 when there are none.
    """

    fdp: float
    power: float
    rejections: int


def fdp_from_flags(rejected: np.ndarray, is_null: np.ndarray) -> float:
    """False discovery proportion from boolean arrays, 0/0 = 0."""
    rejected = np.asarray(rejected, dtype=bool)
    is_null = np.asarray(is_null, dtype=bool)
    if rejected.shape != is_null.shape:
        raise ValueError(
            f"length mismatch: {rejected.shape[0]} decisions vs {is_null.shape[0]} labels"
        )
    total = int(rejected.sum())
    if total == 0:
        return 0.0
    return float((rejected & is_null).sum() / total)


def power_from_flags(rejected: np.ndarray, is_null: np.ndarray) -> float:
    """Fraction of non-nulls rejected; 0 when there are no non-nulls."""
    rejected = np.asarray(rejected, dtype=bool)
    is_null = np.asarray(is_null, dtype=bool)
    if rejected.shape != is_null.shape:
        raise ValueError(
            f"length mismatch: {rejected.shape[0]} decisions vs {is_null.shape[0]} labels"
        )
    non_null = int((~is_null).sum())
    if non_null == 0:
        return 0.0
    return float((rejected & ~is_null).sum() / non_null)
