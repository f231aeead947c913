"""Online FDR procedures as incremental decision state machines.

Each procedure follows a two-phase step protocol: ``next_level()`` returns the
pair (test level alpha_t, candidacy threshold lambda_t) for the current step,
computed from past rejections and candidacies only, and ``observe(p)`` commits
the p-value, returning a :class:`DecisionRecord` and advancing the state.
``step(p)`` fuses the two; ``run(pvalues)`` streams a whole array through and
returns a :class:`StreamTrace`.  ``run_batch(pvalues)`` decides every row of a
(B, T) matrix as a stream of its own, all rows in lockstep over t, and returns
one such trace per row, which is how the simulation harness runs its trials.

Implemented procedures:

* :class:`Saffron` -- adaptive candidacy with a constant threshold lambda.
  Wealth is only spent on non-candidate tests, and every rejection after the
  first earns (1 - lambda) * alpha back.
* :class:`AdaptiveSaffron` -- lambda_t = alpha_t = s_t / (1 + s_t), the
  monotone alpha-investing variant (``saffron-ai``).
* :class:`Lord` -- the non-adaptive special case: wealth is spent at every
  step and the payout schedule is indexed by time since each rejection.
* :class:`AlphaInvesting` -- the classic (non-monotone) wealth machine that
  spends a gamma-scheduled fraction of current wealth per test.

The first three share one payout kernel on a clock of non-candidate steps
(see ``_GammaInvesting``): a candidate step costs O(1), a tick one O(clock)
contiguous dot product.  The level rules :func:`saffron_level` and
:func:`investing_level` are written once and serve both the scalar machine
and the batched kernel.

All step counters, rejection times, and gamma indices are 1-based.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gamma import GammaSequence
from .records import DecisionRecord, StreamTrace, validate_pvalue, validate_pvalues


class ProtocolError(RuntimeError):
    """next_level/observe called out of order."""


def _check_params(alpha: float, w0: float) -> tuple[float, float]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"target FDR level must lie in (0, 1), got {alpha}")
    if not 0.0 < w0 <= alpha:
        raise ValueError(f"initial wealth must lie in (0, alpha], got {w0}")
    return float(alpha), float(w0)


def saffron_level(s, lam, minimum=min):
    """SAFFRON's test level min(lam, (1 - lam) * s) at payout s.

    ``s`` is a float, or an array of payouts with ``minimum=np.minimum``.
    """
    return minimum(lam, (1.0 - lam) * s)


def investing_level(s):
    """s / (1 + s): the level whose alpha-investing cost alpha / (1 - alpha) is s.

    Saffron-ai's level at payout s, and alpha-investing's at penalty s; a
    float or an array.
    """
    return s / (1.0 + s)


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
        """Stream an array of p-values through the procedure; the trace keeps a copy."""
        pv = validate_pvalues(pvalues, 1).copy()
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

    def run_batch(self, pvalues: np.ndarray) -> list[StreamTrace]:
        """Decide each row of a (B, T) p-value matrix as a stream of its own.

        All rows start from the procedure's initial state and advance in
        lockstep over t; this machine's own state is neither read nor
        changed.  Returns one 1-D :class:`StreamTrace` per row, the form
        ``run`` returns.  A row's decisions do not depend on which other rows
        share the batch.  They match ``run`` on that row, the levels to
        rounding: the batched payout sum adds its terms in another order.
        The traces read their p-values from the kernel's own (T, B) copy.
        """
        pt = np.array(validate_pvalues(pvalues, 2).T, order="C")
        alphas, lams, rejected, candidate = self._run_batch(pt)
        return [
            StreamTrace(pt[:, i], alphas[:, i], lams[:, i], rejected[:, i], candidate[:, i])
            for i in range(pt.shape[1])
        ]

    def _run_batch(
        self, pt: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Levels, thresholds and bits as four (T, B) arrays, no two sharing
        memory, for the (T, B) p-values ``pt``."""
        raise NotImplementedError

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


# The batched payout sums run over a multiple of this many slots.  einsum's
# vectorized dot adds the terms of a final, partial group of lanes in another
# order than those of a full group.  With no partial group, the zero slots
# past a row's clock add exactly nothing, and a row's payout does not depend
# on how far the other rows' clocks have run.
_SLOT_BLOCK = 64


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
    tick or rejection.  Subclasses turn s_t into the level pair in
    ``_levels``, which both the scalar machine and the batched kernel call.
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

    def _levels(self, s, minimum=min):
        """The (alpha_t, lambda_t) pair at payout s (floats, or arrays with np.minimum)."""
        raise NotImplementedError

    def _compute_levels(self) -> tuple[float, float]:
        return self._levels(self._payout())

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

    def _run_batch(self, pt):
        # The same slots and clock as the scalar machine, one row per stream.
        # Every row's s is recomputed at every step: recomputing only the
        # rows that ticked or rejected measured no faster, since gathering
        # those rows costs as much as the dot it saves.
        T, B = pt.shape
        n = -(-(T + 1) // _SLOT_BLOCK) * _SLOT_BLOCK
        grev = np.zeros(2 * n)
        grev[:n] = self.gamma.head(n)[::-1]
        # windows[n - 1 - c, k] = gamma_{1 + c - k} for k <= c, else 0
        windows = sliding_window_view(grev, n)
        weights = np.zeros((B, n))
        weights[:, 0] = self.w0
        clock = np.zeros(B, dtype=np.intp)
        has_rejected = np.zeros(B, dtype=bool)
        alphas, lams = np.empty((T, B)), np.empty((T, B))
        rejected, candidate = np.empty((T, B), dtype=bool), np.empty((T, B), dtype=bool)
        for t in range(T):
            if self._ticks_on_candidates:  # one shared clock, equal to t
                k = -(-(t + 1) // _SLOT_BLOCK) * _SLOT_BLOCK
                s = np.einsum("ij,j->i", weights[:, :k], windows[n - 1 - t, :k])
            else:
                k = -(-(int(clock.max(initial=0)) + 1) // _SLOT_BLOCK) * _SLOT_BLOCK
                s = np.einsum("ij,ij->i", weights[:, :k], windows[n - 1 - clock, :k])
            a, lam = self._levels(s, np.minimum)
            p = pt[t]
            r = p <= a
            c = p <= lam
            alphas[t], lams[t], rejected[t], candidate[t] = a, lam, r, c
            if self._ticks_on_candidates:
                clock += 1
            else:
                clock += ~c
            rows = np.flatnonzero(r)
            if rows.size:
                weights[rows, clock[rows]] += np.where(
                    has_rejected[rows], self.alpha, self.alpha - self.w0
                )
                has_rejected[rows] = True
        return alphas, lams, rejected, candidate


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

    def _levels(self, s, minimum=min):
        return saffron_level(s, self.lam, minimum), self.lam


class AdaptiveSaffron(_GammaInvesting):
    """Saffron with lambda_t = alpha_t, the monotone alpha-investing rule.

    The level solves alpha_t / (1 - alpha_t) = s_t, so alpha_t = s_t / (1 + s_t)
    and lambda_t equals alpha_t exactly.
    """

    def _levels(self, s, minimum=min):
        a = investing_level(s)
        return a, a


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

    def _levels(self, s, minimum=min):
        return s, s


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
        a = investing_level(self._pen)
        return a, a

    def _apply(self, rejected: bool, candidate: bool) -> None:
        if rejected:
            self.wealth += self.alpha
        else:
            self.wealth -= self._pen

    def _run_batch(self, pt):
        # The same arithmetic as the scalar machine, a wealth per row.
        T, B = pt.shape
        psi = self.gamma.head(T)
        wealth = np.full(B, self.alpha)
        alphas = np.empty((T, B))
        rejected = np.empty((T, B), dtype=bool)
        for t in range(T):
            pen = psi[t] * wealth
            a = investing_level(pen)
            r = pt[t] <= a
            alphas[t], rejected[t] = a, r
            wealth = np.where(r, wealth + self.alpha, wealth - pen)
        return alphas, alphas.copy(), rejected, rejected.copy()


_CONSTRUCTORS = {
    "saffron": Saffron,
    "saffron-ai": lambda alpha, w0, gamma, lam: AdaptiveSaffron(alpha, w0, gamma),
    "lord": lambda alpha, w0, gamma, lam: Lord(alpha, w0, gamma),
    "alpha-investing": lambda alpha, w0, gamma, lam: AlphaInvesting(alpha, gamma),
}

PROCEDURE_NAMES = tuple(_CONSTRUCTORS)


def make_procedure(
    name: str,
    alpha: float,
    w0: float,
    gamma: GammaSequence,
    lam: float = 0.5,
) -> OnlineProcedure:
    """Build a procedure by its config name, one of :data:`PROCEDURE_NAMES`.

    ``lam`` applies to saffron only; ``w0`` is ignored by alpha-investing,
    which always starts with wealth alpha.
    """
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown procedure {name!r}")
    return _CONSTRUCTORS[name](alpha, w0, gamma, lam)
