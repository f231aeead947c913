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

from .records import validate_pvalues

# Each side of the step-up comparison is off its exact value by at most two
# roundings; past this gap the float comparison agrees with the exact one.
_NEAR_ULPS = 8 * np.finfo(np.float64).eps
_NEAR_ABS = 8 * np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class OfflineResult:
    """Threshold and the 0-based indices of the rejected inputs."""

    threshold: float
    rejected: frozenset[int]


def _validated(pvalues: Sequence[float], alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    p = validate_pvalues(pvalues, 1)
    if not len(p):
        raise ValueError("need at least one p-value")
    return p


def _step_up(p: np.ndarray, alpha: float, scale: float) -> OfflineResult:
    """Reject at the largest s among the validated p-values p with
    n*s*scale/|R(s)| <= alpha.

    The comparison n*s*scale <= alpha*|R(s)| is exact on the binary64 inputs:
    the rounded products decide it unless they lie within a few ulps of each
    other, and those near-ties are decided in rationals.
    """
    n = len(p)
    ps = np.sort(p)
    # with ties, |R(p_(k))| is the rank of the last equal value
    ranks = np.searchsorted(ps, ps, side="right")
    lhs = n * ps * scale
    rhs = alpha * ranks
    ok = lhs <= rhs
    near = np.abs(lhs - rhs) <= _NEAR_ULPS * np.maximum(lhs, rhs) + _NEAR_ABS
    for k in np.flatnonzero(near):
        from fractions import Fraction  # here, not at module level: it loads decimal
        ok[k] = n * Fraction(ps[k]) * Fraction(scale) <= Fraction(alpha) * int(ranks[k])
    s = float(ps[ok][-1]) if ok.any() else 0.0
    return OfflineResult(s, frozenset(np.flatnonzero(p <= s).tolist()))


def bh(pvalues: Sequence[float], alpha: float) -> OfflineResult:
    """Step-up control of the FDR at level alpha."""
    return _step_up(_validated(pvalues, alpha), alpha, 1.0)


def _pi0(p: np.ndarray, lam: float) -> float:
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    return float((1 + (p > lam).sum()) / (len(p) * (1.0 - lam)))


def storey_bh(pvalues: Sequence[float], alpha: float, lam: float = 0.5) -> OfflineResult:
    """Adaptive step-up: BH scaled by the estimated null fraction."""
    p = _validated(pvalues, alpha)
    return _step_up(p, alpha, _pi0(p, lam))
