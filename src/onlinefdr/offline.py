"""Offline baselines: the step-up procedure and its null-fraction-adaptive form.

Both pick a single rejection threshold s over the candidate grid
{sorted p-values} union {0}: the largest s whose estimated false discovery
proportion n * s * scale / |{i : P_i <= s}| stays at or below alpha.  Plain
BH uses scale = 1; the adaptive variant scales by the estimated fraction of
true nulls pi0_hat = (1 + #{P_i > lambda}) / (n * (1 - lambda)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class OfflineResult:
    """Threshold and the 0-based indices of the rejected inputs."""

    threshold: float
    rejected: frozenset[int]


def _validated(pvalues: Sequence[float]) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError("need a one-dimensional batch of at least one p-value")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        bad = int(np.argmax(~((p >= 0.0) & (p <= 1.0))))
        raise ValueError(f"p-value out of [0, 1] at position {bad}: {p[bad]}")
    return p


def _best_threshold(p: np.ndarray, alpha: float, scale: float) -> float:
    """Largest s among the observed p-values with n*s*scale/|R(s)| <= alpha."""
    n = len(p)
    ps = np.sort(p)
    # with ties, |R(p_(k))| is the rank of the last equal value
    ranks = np.searchsorted(ps, ps, side="right")
    ok = n * ps * scale <= alpha * ranks
    if not ok.any():
        return 0.0
    return float(ps[ok][-1])


def bh(pvalues: Sequence[float], alpha: float) -> OfflineResult:
    """Step-up control of the FDR at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p = _validated(pvalues)
    s = _best_threshold(p, alpha, scale=1.0)
    return OfflineResult(s, frozenset(np.flatnonzero(p <= s).tolist()))


def storey_pi0(pvalues: Sequence[float], lam: float) -> float:
    """Estimated fraction of true nulls: (1 + #{P_i > lam}) / (n * (1 - lam))."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    p = _validated(pvalues)
    return float((1 + (p > lam).sum()) / (len(p) * (1.0 - lam)))


def storey_bh(pvalues: Sequence[float], alpha: float, lam: float = 0.5) -> OfflineResult:
    """Adaptive step-up: BH scaled by the estimated null fraction."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p = _validated(pvalues)
    pi0 = storey_pi0(pvalues, lam)
    s = _best_threshold(p, alpha, scale=pi0)
    return OfflineResult(s, frozenset(np.flatnonzero(p <= s).tolist()))
