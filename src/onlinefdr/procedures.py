"""Online FDR procedures as incremental decision state machines.

``next_level()`` is each procedure's level rule: it returns the pair (test
level alpha_t, candidacy threshold lambda_t) for the current step, computed
from past rejections and candidacies only.  ``observe(p)`` decides p at that
level, returns a :class:`DecisionRecord` and advances the state; ``step(p)``
is the same call.  ``observe`` is the private ``_decide(p)``, which applies
the level rule and commits the decision, plus the record around it; the
stream command calls ``_decide`` directly and checks each new level pair
once.  ``run(pvalues)`` streams a whole array through and returns
a :class:`StreamTrace`.  ``run_batch(pvalues)`` decides every row of a
(B, T) matrix as a stream of its own, all rows in lockstep over t, and returns
one such trace per row, which is how the simulation harness runs its trials.

A machine's state is its history: ``next_level()`` only reads it, and
``load_history(rejected, candidate)`` checks both bit vectors whole before it
replays them, so a bad history changes nothing, and evaluates no level.

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
(see ``_GammaInvesting``), whose slot store grows by one weight a tick, so
the clock is its last index: a candidate step and a rejection that does not
tick cost O(1), a tick past a weighted slot an O(2048) update of cached
payouts, and each 2048 clock values past the first one matrix product; ``run``
re-reads the level only after ``_apply`` reports a tick or a rejection.
``run_batch`` keeps no cache: each step, a row's payout is the BLAS dot
product of its slots with the gamma window at its clock.  ``_levels`` maps a
payout to the level pair for both the scalar machine and the batched kernel;
saffron-ai shares :func:`investing_level` with alpha-investing.

All step counters, rejection times, and gamma indices are 1-based.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gamma import GammaSequence
from .records import DecisionRecord, StreamTrace, validate_pvalue, validate_pvalues


def investing_level(s):
    """s / (1 + s): the level whose alpha-investing cost alpha / (1 - alpha) is s.

    Saffron-ai's level at payout s, and alpha-investing's at penalty s; a
    float or an array.
    """
    return s / (1.0 + s)


class OnlineProcedure:
    """Common stepping machinery; subclasses implement the level rule and
    ``_apply`` (advance past one decision, leaving ``t`` to the caller),
    ``_run`` (advance over a list as ``observe`` would, writing the levels,
    leaving ``t`` to ``run``) and ``_run_batch`` (the levels and thresholds
    of (T, B) p-values, as two (T, B) arrays that do not share memory)."""

    def __init__(self, alpha: float, gamma: GammaSequence):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"target FDR level must lie in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.gamma = gamma
        self._t = 1

    @property
    def t(self) -> int:
        """Index of the next step to be tested (1-based)."""
        return self._t

    def next_level(self) -> tuple[float, float]:
        """The (alpha_t, lambda_t) pair for the current step.

        A pure read of the rejection/candidacy history before this step:
        calling it any number of times changes no decision.
        """
        raise NotImplementedError

    def observe(self, p: float) -> DecisionRecord:
        """Decide p at the current step's ``next_level()`` and advance.

        ``step`` is the same method.
        """
        p = validate_pvalue(p)
        index = self._t
        alpha_t, lam_t, rejected, candidate = self._decide(p)
        return DecisionRecord(index, p, alpha_t, lam_t, rejected, candidate)

    step = observe

    def _decide(self, p: float) -> tuple[float, float, bool, bool]:
        """Decide a p-value already checked to lie in [0, 1] and advance.

        Returns (alpha_t, lambda_t, rejected, candidate): ``observe`` without
        the record, for callers that check the levels themselves.
        """
        alpha_t, lam_t = self.next_level()
        rejected = p <= alpha_t
        candidate = p <= lam_t
        self._commit(rejected, candidate)
        return alpha_t, lam_t, rejected, candidate

    def _commit(self, rejected: bool, candidate: bool) -> None:
        self._apply(rejected, candidate)
        self._t += 1

    def run(self, pvalues: Sequence[float] | np.ndarray) -> StreamTrace:
        """Stream an array of p-values through the procedure; the trace keeps a copy."""
        pv = validate_pvalues(pvalues, 1).copy()
        alphas, lams = np.empty(len(pv)), np.empty(len(pv))
        self._run(pv.tolist(), alphas, lams)
        self._t += len(pv)
        return StreamTrace(pv, alphas, lams, pv <= alphas, pv <= lams)

    def run_batch(self, pvalues: np.ndarray) -> list[StreamTrace]:
        """Decide each row of a (B, T) p-value matrix as a stream of its own.

        All rows start from the procedure's initial state and advance in
        lockstep over t; this machine's own state is neither read nor
        changed.  Returns one 1-D :class:`StreamTrace` per row, the form
        ``run`` returns.  A row's decisions do not depend on which other rows
        share the batch.  They match ``run`` on that row, the levels to
        rounding: the batched payout is the dot product of the row's slots
        with the gamma window at its clock, which adds its terms in another
        order than the scalar cache.
        The traces read their p-values from the kernel's own (T, B) copy, and
        their bits are derived from the levels, as ``run`` derives them.
        """
        pt = np.array(validate_pvalues(pvalues, 2).T, order="C")
        alphas, lams = self._run_batch(pt)
        rejected, candidate = pt <= alphas, pt <= lams
        return [
            StreamTrace(pt[:, i], alphas[:, i], lams[:, i], rejected[:, i], candidate[:, i])
            for i in range(pt.shape[1])
        ]

    def load_history(self, rejected: Sequence[bool], candidate: Sequence[bool]) -> None:
        """Replay a rejection/candidacy history without p-values.

        Both bit vectors are required, of equal length, with rejected[i]
        implying candidate[i]; each entry is a bool or a number equal to 0 or
        1.  All of it is checked before any step is replayed, so a bad history
        changes nothing; the replay evaluates no level and costs O(1) a step.
        """
        r, c = np.asarray(rejected), np.asarray(candidate)
        if r.ndim != 1 or r.shape != c.shape:
            raise ValueError(f"need two 1-D bit vectors of one length: {r.shape}, {c.shape}")
        bad = ~((r == 0) | (r == 1)) | ~((c == 0) | (c == 1))
        if bad.any():
            i = int(bad.argmax())
            pair = r.tolist()[i], c.tolist()[i]
            raise ValueError(f"history entry {i} is not a pair of 0/1 bits: {pair}")
        r, c = r.astype(bool), c.astype(bool)
        if (r & ~c).any():
            raise ValueError("infeasible history: a rejection must be a candidate")
        for ri, ci in zip(r.tolist(), c.tolist()):
            self._commit(ri, ci)


# The batched payout sums run over a multiple of this many slots.  Each sum
# is OpenBLAS ddot, which adds the terms of a final, partial block in another
# order than those of a full block.  Padding kernel-shaped rows with zeros
# (OpenBLAS 0.3.31, AVX-512 x86-64) changed 1 142 of 169 612 sums at lengths
# that are not multiples of 32 and none of 5 332 at multiples of 32, so 64
# leaves a margin for kernels with wider blocks.  With no partial block, the
# zero slots past a row's clock add exactly nothing, and a row's payout does
# not depend on how far the other rows' clocks have run.
_SLOT_BLOCK = 64

# A batched sum of more slots than this adds its spans of _DOT_SPAN slots in
# order, one ddot a span: OpenBLAS splits a ddot of more than 10 000 terms
# across threads, which would make the sum depend on the thread count.
_DOT_SPAN = 8192


def _row_dots(x, y):
    """``np.matmul(x, y)[:, 0, 0]`` for x of shape (B, 1, k) and y of (B, k, 1)
    or (k, 1): numpy hands each row of a span to BLAS as one dot product."""
    k = x.shape[-1]
    if k <= _DOT_SPAN:
        return np.matmul(x, y)[:, 0, 0]
    return sum(np.matmul(x[..., lo : lo + _DOT_SPAN], y[..., lo : lo + _DOT_SPAN, :])[:, 0, 0]
               for lo in range(0, k, _DOT_SPAN))


# The scalar payout cache's superblocks span _SUPERBLOCK clock values each,
# which bounds a closed slot's update; its far-field product has rows of _ROW
# values and is summed over chunks of _CHUNK (3 MB of copies).
_SUPERBLOCK = 2048
_ROW = 64
_CHUNK = 4096


class _GammaInvesting(OnlineProcedure):
    """The payout kernel shared by saffron, saffron-ai and lord.

    The payout is s_t = sum_j w_j gamma_{t - tau_j - C_j} over the windows
    opened at tau_0 = 0 (weight W0) and at each rejection tau_j (weight
    ``_reward``, state that is alpha - W0 until the first rejection and alpha
    after it), where C_j counts the candidates strictly between tau_j and t
    (none for lord).  A clock ticks on every non-candidate step (every step
    for lord), so t - tau_j - C_j = 1 + clock - clock(tau_j).  Each tick
    appends a slot to the slot store ``_weights`` ([W0] at first), so the
    clock is its last index; a rejection adds its weight there, merging with
    windows opened at the same clock value.  s_t is base[clock] + W[clock] *
    gamma_1, where base[c] sums the slots before c: O(1) for a rejection
    that does not tick (every saffron and saffron-ai rejection).
    ``_s`` caches base over a superblock [c0, c0 + 2048) of clock values, as
    [first open slot k, base[k], c0, base].  The first superblock starts at
    zero; entering a later one, a matrix product (``_far_field``) pays the
    final slots before c0 out to all 2048 values.  Each slot the clock passes
    then adds its window to the rest of the superblock, from the gamma row
    ``_g`` and its alpha multiple ``_ag``, both formed once per machine.
    ``next_level`` makes both updates lazily and in slot order, so the levels
    do not depend on when it is called.  Subclasses turn s_t into the level
    pair in ``_levels(s, minimum)``: a float s with ``min`` for the scalar
    machine, the batched kernel's array with ``np.minimum``.
    """

    _ticks_on_candidates = False

    def __init__(self, alpha: float, w0: float, gamma: GammaSequence):
        super().__init__(alpha, gamma)
        if not 0.0 < w0 <= self.alpha:
            raise ValueError(f"initial wealth must lie in (0, alpha], got {w0}")
        self.w0 = float(w0)
        self._reward = self.alpha - self.w0
        self._weights = array("d", [self.w0])
        self._g1 = gamma[1]
        self._g = gamma.head(_SUPERBLOCK)
        # alpha is the weight of most lord slots and of each saffron slot
        # with one rejection
        self._ag = self.alpha * self._g
        # the first superblock has no slots before it, so its far field is zero
        self._s = [0, 0.0, 0, np.zeros(_SUPERBLOCK)]

    def next_level(self) -> tuple[float, float]:
        return self._levels(self._payout())

    def _payout(self) -> float:
        c, s = len(self._weights) - 1, self._s
        if s[0] < c:  # slots s[0] .. c - 1 have closed since the last call
            k, _, c0, base = s
            if c >= c0 + len(base):
                k, _, c0, base = s = self._s = self._far_field(c)
            w, alpha = self._weights, self.alpha
            for k in range(k, c):
                wk = w[k]
                if wk == alpha:
                    base[k + 1 - c0 :] += self._ag[1 : c0 + len(base) - k]
                elif wk:
                    base[k + 1 - c0 :] += wk * self._g[1 : c0 + len(base) - k]
            s[0], s[1] = c, base.item(c - c0)
        return s[1] + self._weights[c] * self._g1

    def _far_field(self, c: int) -> list:
        """A fresh cache for the superblock holding clock value c: far[a * _ROW
        + b] = sum_v X[a, v] G[v, b], with X[a, v] = Wrev[v - a * _ROW] the
        reversed slots before c0 and G[v, b] = gamma_{2 + v + b}, both window
        views copied (BLAS takes only unit strides), _CHUNK values of v at a
        time.  Called only for c >= _SUPERBLOCK.  Its view of the slots dies
        with its statement: the store cannot grow while a view of it lives."""
        c0 = c - c % _SUPERBLOCK
        g = self.gamma.head(c0 + _SUPERBLOCK)
        far = np.zeros((_SUPERBLOCK // _ROW, _ROW))
        span = c0 + _SUPERBLOCK - _ROW  # X[a, v] = 0 for v >= span
        wrev = np.zeros(span + _SUPERBLOCK - _ROW)
        wrev[_SUPERBLOCK - _ROW : _SUPERBLOCK - _ROW + c0] = np.frombuffer(self._weights, count=c0)[::-1]
        for v in range(0, span, _CHUNK):
            m = min(_CHUNK, span - v)
            x = sliding_window_view(wrev[v : v + _SUPERBLOCK - _ROW + m], m)[::-_ROW]
            far += np.array(x) @ np.array(sliding_window_view(g[1 + v : v + m + _ROW], _ROW))
        return [c0, far.item(0), c0, far.ravel()]

    def _apply(self, rejected: bool, candidate: bool) -> bool:
        """Tick the clock and place a rejection's weight, ``_reward``; return
        whether either happened, since only such a step can change the level pair."""
        # Tick before placing the weight: lord's rejection step ticks, so its
        # window starts one slot later; saffron's rejection (a candidate) never does.
        ticks = self._ticks_on_candidates or not candidate
        if ticks:
            self._weights.append(0.0)
        if rejected:
            self._weights[-1] += self._reward
            self._reward = self.alpha
        return ticks or rejected

    def _run(self, plist, alphas, lams):
        # next_level without its own call, re-read only when _apply says so
        apply, levels, payout = self._apply, self._levels, self._payout
        a, lam = levels(payout())
        for i, p in enumerate(plist):
            alphas[i], lams[i] = a, lam
            if apply(p <= a, p <= lam):
                a, lam = levels(payout())

    def _run_batch(self, pt):
        # The same slots, clock and reward as the scalar machine, one row per stream.
        # A row's s is its slots' dot product with the window row r at its
        # clock, so it reads only that row and k; lord's clock is t on every
        # row, so its r is one shared row, broadcast with no gather.
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
        reward = np.full(B, self.alpha - self.w0)
        alphas, lams = np.empty((T, B)), np.empty((T, B))
        for t in range(T):
            if self._ticks_on_candidates:
                c, r = t, n - 1 - t
            else:
                c, r = int(clock.max(initial=0)), n - 1 - clock
            k = -(-(c + 1) // _SLOT_BLOCK) * _SLOT_BLOCK
            s = _row_dots(weights[:, None, :k], windows[r, :k, None])
            alphas[t], lams[t] = a, lam = self._levels(s, np.minimum)
            p = pt[t]
            # tick before placing the weight, as ``_apply`` does
            clock += 1 if self._ticks_on_candidates else p > lam
            rows = (p <= a).nonzero()[0]
            if rows.size:
                weights[rows, clock[rows]] += reward[rows]
                reward[rows] = self.alpha
        return alphas, lams


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
        return minimum(self.lam, (1.0 - self.lam) * s), self.lam


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
        super().__init__(alpha, gamma)
        self.wealth = self.alpha

    def next_level(self) -> tuple[float, float]:
        a = investing_level(self.gamma[self._t] * self.wealth)
        return a, a

    def _apply(self, rejected: bool, candidate: bool) -> None:
        if rejected:
            self.wealth += self.alpha
        else:
            self.wealth -= self.gamma[self._t] * self.wealth

    def _run(self, plist, alphas, lams):
        # gamma_t for the whole stretch from one head slice, not two lookups a step
        t0 = self._t - 1
        psi = map(float, self.gamma.head(t0 + len(plist))[t0:])
        alpha, wealth = self.alpha, self.wealth
        for i, (p, g) in enumerate(zip(plist, psi)):
            pen = g * wealth
            alphas[i] = a = investing_level(pen)
            if p <= a:
                wealth += alpha
            else:
                wealth -= pen
        lams[:] = alphas
        self.wealth = wealth

    def _run_batch(self, pt):
        # The same arithmetic as the scalar machine, a wealth per row.
        T, B = pt.shape
        psi = self.gamma.head(T)
        wealth = np.full(B, self.alpha)
        alphas = np.empty((T, B))
        for t in range(T):
            pen = psi[t] * wealth
            alphas[t] = a = investing_level(pen)
            wealth = np.where(pt[t] <= a, wealth + self.alpha, wealth - pen)
        return alphas, alphas.copy()


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
