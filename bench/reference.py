"""Independent reference for the benchmark's correctness checks.

The level rules of saffron, saffron-ai, lord and alpha-investing are rebuilt
here from the rejection and candidate history alone, with prefix counts
instead of the package's incremental per-window counters, and the power-law
sequence is taken in closed form, gamma_j = j**-s / zeta(s), instead of the
package's 1e7-term numeric normalizer.  Nothing here imports ``onlinefdr``.

Log-optimal has no closed form; :class:`TableGamma` wraps a table of its
values taken from the package, so for those cells only the level rule is
independent (see README).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class PowerGamma:
    """gamma_j = j**-s / zeta(s), the normalized power-law sequence."""

    def __init__(self, s: float):
        if not s > 1:
            raise ValueError(f"power-law exponent must be > 1, got {s}")
        self.s = float(s)
        self.zeta = float(special.zeta(self.s, 1))

    def __call__(self, j: np.ndarray) -> np.ndarray:
        return np.asarray(j, dtype=np.float64) ** -self.s / self.zeta


class TableGamma:
    """A sequence given by its first values (index 1 is ``values[0]``)."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)

    def __call__(self, j: np.ndarray) -> np.ndarray:
        return self.values[np.asarray(j, dtype=np.int64) - 1]


def gamma_for(spec: str, table: np.ndarray | None = None):
    """Reference sequence for a canonical spec; log-optimal needs a table."""
    name, _, arg = spec.partition(":")
    if name == "power":
        return PowerGamma(float(arg))
    if table is None:
        raise ValueError(f"no closed form for {spec!r}; pass a table of its values")
    return TableGamma(table)


def _weights(n_windows: int, alpha: float, w0: float) -> np.ndarray:
    w = np.full(n_windows, alpha)
    w[0] = w0
    if n_windows > 1:
        w[1] = alpha - w0
    return w


def _levels(name: str, s: float, lam: float) -> tuple[float, float]:
    """(alpha_t, lambda_t) from the payout s_t."""
    if name == "saffron":
        return min(lam, (1.0 - lam) * s), lam
    if name == "saffron-ai":
        a = s / (1.0 + s)
        return a, a
    if name == "lord":
        return s, s
    raise ValueError(f"no gamma-window rule for {name!r}")


def level_at(name, t, rejected, candidate, alpha, w0, gamma, lam=0.5) -> float:
    """The level at step t (1-based) of a gamma-scheduled procedure.

    ``rejected``/``candidate`` hold the bits of steps 1..t-1 (at least).
    Window j opens at rejection time tau_j (tau_0 = 0); its gamma index is
    t - tau_j, minus, for the saffron family, the candidates seen in steps
    tau_j + 1 .. t - 1.
    """
    r = np.asarray(rejected[: t - 1], dtype=bool)
    taus = np.concatenate([[0], np.flatnonzero(r) + 1])
    idx = t - taus
    if name in ("saffron", "saffron-ai"):
        c = r if name == "saffron-ai" else np.asarray(candidate[: t - 1], dtype=bool)
        seen = np.concatenate([[0], np.cumsum(c)])  # seen[k] = candidates in 1..k
        idx = idx - (seen[t - 1] - seen[taus])
    return _levels(name, float(_weights(len(taus), alpha, w0) @ gamma(idx)), lam)[0]


def replay(name, pvalues, alpha, w0, gamma, lam=0.5):
    """Decide a whole stream; returns (levels, rejected, candidate).

    Each level is rebuilt from the decisions made so far with the window
    rule of :func:`level_at`, kept as arrays of window openings and of the
    candidate count at each opening.
    """
    if name == "alpha-investing":
        out = alpha_investing(pvalues, alpha, gamma)
        return out["levels"], out["rejected"], out["rejected"].copy()
    p = np.asarray(pvalues, dtype=np.float64)
    n = len(p)
    levels = np.empty(n)
    rejected = np.zeros(n, dtype=bool)
    candidate = np.zeros(n, dtype=bool)
    taus = np.zeros(n + 1, dtype=np.int64)  # window openings, tau_0 = 0
    seen_at = np.zeros(n + 1, dtype=np.int64)  # candidates in 1..tau_j
    weights = _weights(n + 1, alpha, w0)
    k = 1
    seen = 0
    discounted = name in ("saffron", "saffron-ai")
    for i in range(n):
        t = i + 1
        idx = t - taus[:k]
        if discounted:
            idx = idx - (seen - seen_at[:k])
        a, thr = _levels(name, float(weights[:k] @ gamma(idx)), lam)
        r = p[i] <= a
        c = p[i] <= thr
        levels[i], rejected[i], candidate[i] = a, r, c
        seen += int(c)
        if r:
            taus[k], seen_at[k] = t, seen
            k += 1
    return levels, rejected, candidate


def alpha_investing(pvalues, alpha, gamma) -> dict:
    """Replay the wealth machine staking gamma_t of the current wealth."""
    p = np.asarray(pvalues, dtype=np.float64)
    psi = gamma(np.arange(1, len(p) + 1)).tolist()
    wealth = alpha
    levels, rejected, path = [], [], []
    for t, x in enumerate(p.tolist()):
        pen = psi[t] * wealth
        a = pen / (1.0 + pen)
        rej = x <= a
        wealth = wealth + alpha if rej else wealth - pen
        levels.append(a)
        rejected.append(rej)
        path.append(wealth)
    return {
        "levels": np.array(levels),
        "rejected": np.array(rejected, dtype=bool),
        "wealth": np.array(path),
    }


def fdp(rejected, is_null) -> float:
    r = np.asarray(rejected, dtype=bool)
    total = int(r.sum())
    return int((r & np.asarray(is_null, dtype=bool)).sum()) / total if total else 0.0


def power(rejected, is_null) -> float:
    non_null = ~np.asarray(is_null, dtype=bool)
    n = int(non_null.sum())
    return int((np.asarray(rejected, dtype=bool) & non_null).sum()) / n if n else 0.0


def mean_se(values) -> tuple[float, float]:
    x = [float(v) for v in values]
    n = len(x)
    mean = math.fsum(x) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in x) / (n - 1)
    return mean, math.sqrt(var / n)


def saffron_fdp_hat(pvalues, levels, lams, rejected) -> np.ndarray:
    """Running candidate-discounted FDP estimate, the quantity saffron bounds."""
    p = np.asarray(pvalues)
    spend = np.where(p > lams, levels / (1.0 - np.asarray(lams)), 0.0)
    return np.cumsum(spend) / np.maximum(np.cumsum(rejected), 1)


def lord_spend_excess(levels, rejected, alpha) -> np.ndarray:
    """Spend minus the rejection budget alpha * max(R(t), 1), per step."""
    return np.cumsum(levels) - alpha * np.maximum(np.cumsum(rejected), 1)
