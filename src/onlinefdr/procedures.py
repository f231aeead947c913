"""Online FDR procedures as incremental decision state machines.

Each procedure follows a two-phase step protocol: ``next_level()`` returns the
pair (test level alpha_t, candidacy threshold lambda_t) for the current step,
computed from past rejections and candidacies only, and ``observe(p)`` commits
the p-value, returning a :class:`DecisionRecord` and advancing the state.
``step(p)`` fuses the two; ``run(pvalues)`` streams a whole array through and
returns a :class:`StreamTrace`.

Implemented procedures:

* :class:`Saffron` -- adaptive candidacy with a constant threshold lambda.
  Wealth is only spent on non-candidate tests, and every rejection after the
  first earns (1 - lambda) * alpha back.
* :class:`AdaptiveSaffron` -- lambda_t tied to alpha_t through a non-decreasing
  map h with h(x) >= x; :func:`saffron_ai` picks h = identity, the monotone
  alpha-investing variant where lambda_t == alpha_t.
* :class:`Lord` -- the non-adaptive special case: wealth is spent at every
  step and the payout schedule is indexed by time since each rejection.
* :class:`AlphaInvesting` -- the classic (non-monotone) wealth machine that
  spends a gamma-scheduled fraction of current wealth per test.

The first three share one payout kernel on a clock of non-candidate steps
(see ``_GammaInvesting``): a candidate step costs O(1), a tick one O(clock)
contiguous dot product.

All step counters, rejection times, and gamma indices are 1-based.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .gamma import GammaSequence
from .records import DecisionRecord, StreamTrace, validate_pvalue


class ProtocolError(RuntimeError):
    """next_level/observe called out of order."""


def _check_params(alpha: float, w0: float) -> tuple[float, float]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"target FDR level must lie in (0, 1), got {alpha}")
    if not 0.0 < w0 <= alpha:
        raise ValueError(f"initial wealth must lie in (0, alpha], got {w0}")
    return float(alpha), float(w0)


class OnlineProcedure:
    """Common stepping machinery; subclasses implement the level rule."""

    alpha: float

    def __init__(self):
        self._t = 1
        self._pending: tuple[float, float] | None = None

    @property
    def t(self) -> int:
        """Index of the next step to be tested (1-based)."""
        return self._t

    def _compute_levels(self) -> tuple[float, float]:
        raise NotImplementedError

    def _apply(self, rejected: bool, candidate: bool) -> None:
        raise NotImplementedError

    def next_level(self) -> tuple[float, float]:
        """The (alpha_t, lambda_t) pair for the current step.

        Depends only on the rejection/candidacy history before this step;
        idempotent until the step is committed with ``observe``.
        """
        if self._pending is None:
            self._pending = self._compute_levels()
        return self._pending

    def observe(self, p: float) -> DecisionRecord:
        """Commit the p-value for the current step and advance."""
        if self._pending is None:
            raise ProtocolError("observe() called before next_level() for this step")
        p = validate_pvalue(p)
        alpha_t, lam_t = self._pending
        rejected = p <= alpha_t
        candidate = p <= lam_t
        record = DecisionRecord(
            index=self._t,
            p=p,
            alpha=alpha_t,
            lam=lam_t,
            rejected=rejected,
            candidate=candidate,
        )
        self._commit(rejected, candidate)
        return record

    def step(self, p: float) -> DecisionRecord:
        self.next_level()
        return self.observe(p)

    def _commit(self, rejected: bool, candidate: bool) -> None:
        self._apply(rejected, candidate)
        self._t += 1
        self._pending = None

    def run(self, pvalues: Sequence[float] | np.ndarray) -> StreamTrace:
        """Stream an array of p-values through the procedure."""
        pv = np.asarray(pvalues, dtype=np.float64)
        if pv.ndim != 1:
            raise ValueError("p-value stream must be one-dimensional")
        if len(pv) and not ((pv >= 0.0) & (pv <= 1.0)).all():
            bad = int(np.argmax(~((pv >= 0.0) & (pv <= 1.0))))
            raise ValueError(f"p-value out of [0, 1] at position {bad}: {pv[bad]}")
        n = len(pv)
        alphas = np.empty(n)
        lams = np.empty(n)
        rejected = np.empty(n, dtype=bool)
        candidate = np.empty(n, dtype=bool)
        plist = pv.tolist()
        for i, p in enumerate(plist):
            alpha_t, lam_t = self.next_level()
            r = p <= alpha_t
            c = p <= lam_t
            alphas[i] = alpha_t
            lams[i] = lam_t
            rejected[i] = r
            candidate[i] = c
            self._commit(r, c)
        return StreamTrace(pv, alphas, lams, rejected, candidate)

    def load_history(
        self, rejected: Sequence[bool], candidate: Sequence[bool] | None = None
    ) -> None:
        """Replay a rejection/candidacy history without p-values.

        Useful for computing the level a given history would produce.  If
        ``candidate`` is omitted it defaults to the rejection bits.  Requires
        rejected[i] implies candidate[i] at every step.
        """
        if self._pending is not None:
            raise ProtocolError("cannot load history with a step in progress")
        if candidate is None:
            candidate = rejected
        if len(rejected) != len(candidate):
            raise ValueError("history bit vectors must have equal length")
        for r, c in zip(rejected, candidate):
            r, c = bool(r), bool(c)
            if r and not c:
                raise ValueError("infeasible history: a rejection must be a candidate")
            self.next_level()  # wealth-tracking procedures stake the step's penalty here
            self._commit(r, c)


class _GammaInvesting(OnlineProcedure):
    """The payout kernel shared by saffron, saffron-ai and lord.

    The payout is s_t = sum_j w_j gamma_{t - tau_j - C_j} over the windows
    opened at tau_0 = 0 (weight W0) and at each rejection tau_j (alpha - W0
    for the first, alpha after), where C_j counts the candidates strictly
    between tau_j and t (none for lord).  A clock ticks on every non-candidate
    step (every step for lord), so t - tau_j - C_j = 1 + clock - clock(tau_j):
    a rejection adds its weight at slot ``clock`` of one dense array, merging
    with windows opened at the same clock value, and s_t is one contiguous dot
    of the slots with the reversed gamma head.  s_t is cached until the next
    tick or rejection.
    """

    _ticks_on_candidates = False

    def __init__(self, alpha: float, w0: float, gamma: GammaSequence):
        super().__init__()
        self.alpha, self.w0 = _check_params(alpha, w0)
        self.gamma = gamma
        self._clock = 0
        self._nrej = 0
        self._weights = np.zeros(1024)
        self._weights[0] = self.w0
        self._grev = gamma.head(1024)[::-1].copy()
        self._s: float | None = None

    def _payout(self) -> float:
        if self._s is None:
            n = self._clock + 1
            self._s = float(self._weights[:n] @ self._grev[len(self._grev) - n :])
        return self._s

    def _apply(self, rejected: bool, candidate: bool) -> None:
        # Tick before placing the weight: lord's rejection step ticks, so its
        # window starts one slot later; saffron's rejection (a candidate) never does.
        if self._ticks_on_candidates or not candidate:
            self._clock += 1
            if self._clock == len(self._weights):
                self._weights = np.concatenate([self._weights, np.zeros_like(self._weights)])
                self._grev = self.gamma.head(len(self._weights))[::-1].copy()
            self._s = None
        if rejected:
            self._nrej += 1
            self._weights[self._clock] += self.alpha - self.w0 if self._nrej == 1 else self.alpha
            self._s = None


class Saffron(_GammaInvesting):
    """Online FDR control with candidate-aware wealth recycling, constant lambda.

    The test level is alpha_t = min(lambda, (1 - lambda) * s_t) where s_t pays
    the initial budget and per-rejection rewards out along the gamma sequence,
    with each window's index discounted by the candidates it has seen:
    a candidate step freezes every window's position in the schedule.
    """

    def __init__(
        self,
        alpha: float,
        w0: float,
        gamma: GammaSequence,
        lam: float = 0.5,
    ):
        super().__init__(alpha, w0, gamma)
        if not 0.0 < lam < 1.0:
            raise ValueError(f"candidacy threshold must lie in (0, 1), got {lam}")
        self.lam = float(lam)

    def _compute_levels(self) -> tuple[float, float]:
        return min(self.lam, (1.0 - self.lam) * self._payout()), self.lam


class AdaptiveSaffron(_GammaInvesting):
    """Saffron variant with lambda_t = h(alpha_t).

    ``h`` must be non-decreasing on (0, 1) with h(x) >= x, which keeps the
    emitted levels monotone in the history.  The level solves
    alpha_t / (1 - h(alpha_t)) = s_t; for h = identity (the default, the
    monotone alpha-investing rule) the closed form alpha_t = s_t / (1 + s_t)
    is used, and lambda_t equals alpha_t exactly.  Other maps are solved by
    bisection to absolute tolerance 1e-12.
    """

    _BISECT_TOL = 1e-12

    def __init__(
        self,
        alpha: float,
        w0: float,
        gamma: GammaSequence,
        h: Callable[[float], float] | None = None,
    ):
        super().__init__(alpha, w0, gamma)
        self.h = h

    def _compute_levels(self) -> tuple[float, float]:
        s = self._payout()
        if self.h is None:
            a = s / (1.0 + s)
            return a, a
        a = self._invert(s)
        lam = float(self.h(a))
        if not a <= lam < 1.0:
            raise ValueError(
                f"threshold map must satisfy x <= h(x) < 1, got h({a}) = {lam}"
            )
        return a, lam

    def _invert(self, s: float) -> float:
        def q(x: float) -> float:
            return x / (1.0 - self.h(x))

        lo, hi = 0.0, 1.0 - self._BISECT_TOL
        if q(hi) <= s:
            return hi
        while hi - lo > self._BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if q(mid) < s:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def saffron_ai(alpha: float, w0: float, gamma: GammaSequence) -> AdaptiveSaffron:
    """The monotone alpha-investing rule: lambda_t = alpha_t = s_t / (1 + s_t)."""
    return AdaptiveSaffron(alpha, w0, gamma, h=None)


class Lord(_GammaInvesting):
    """Non-adaptive gamma-recycling allocation.

    alpha_t = W0 * gamma_t + (alpha - W0) * gamma_{t - tau_1}
    + alpha * sum_{j >= 2} gamma_{t - tau_j}.  Because the indices within each
    window are all distinct, the running spend satisfies
    sum_{j <= t} alpha_j <= alpha * max(|R(t)|, 1) deterministically.

    There is no candidacy notion here: the kernel's clock ticks on every step,
    and emitted records carry lam = alpha so that candidate equals rejected.
    """

    _ticks_on_candidates = True

    def _compute_levels(self) -> tuple[float, float]:
        a = self._payout()
        return a, a


class AlphaInvesting(OnlineProcedure):
    """The original wealth-spending procedure (controls mFDR, not FDR).

    Starts with wealth alpha; each test stakes a penalty psi_t * W_{t-1}, so
    the level is alpha_t = pen / (1 + pen).  A non-rejection costs
    alpha_t / (1 - alpha_t) = pen; a rejection earns alpha.  Wealth therefore
    never goes negative.  Not monotone: a past rejection can lower a later
    level through the wealth path.  The staked fraction psi_t is gamma_t, the
    discount sequence indexed by absolute time.
    """

    def __init__(self, alpha: float, gamma: GammaSequence):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"target FDR level must lie in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.gamma = gamma
        self.wealth = self.alpha
        self._pen = 0.0

    def _compute_levels(self) -> tuple[float, float]:
        self._pen = self.gamma[self._t] * self.wealth
        a = self._pen / (1.0 + self._pen)
        return a, a

    def _apply(self, rejected: bool, candidate: bool) -> None:
        if rejected:
            self.wealth += self.alpha
        else:
            self.wealth -= self._pen


def make_procedure(
    name: str,
    alpha: float,
    w0: float,
    gamma: GammaSequence,
    lam: float = 0.5,
) -> OnlineProcedure:
    """Build a procedure by its config name.

    Known names: ``saffron``, ``saffron-ai``, ``lord``, ``alpha-investing``.
    ``lam`` applies to saffron only; ``w0`` is ignored by alpha-investing,
    which always starts with wealth alpha.
    """
    if name == "saffron":
        return Saffron(alpha, w0, gamma, lam)
    if name == "saffron-ai":
        return saffron_ai(alpha, w0, gamma)
    if name == "lord":
        return Lord(alpha, w0, gamma)
    if name == "alpha-investing":
        return AlphaInvesting(alpha, gamma)
    raise ValueError(f"unknown procedure {name!r}")


PROCEDURE_NAMES = ("saffron", "saffron-ai", "lord", "alpha-investing")
