"""Discount sequences for alpha-wealth allocation.

Every online procedure in this package pays out its error budget over future
tests according to a positive, non-increasing sequence ``gamma_1, gamma_2, ...``
that sums to one.  The constructors here build the three standard families:

* ``power_law(s)``:      gamma_j proportional to j**-s, s > 1
* ``log_optimal()``:     gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))
* ``beta_optimal(m)``:   gamma_j proportional to (log(max(j,2)) / j)**(1/m), 0 < m < 1

Normalization is numeric: a truncated sum over the first ``truncation`` terms
plus an analytic integral tail estimate (Euler-Maclaurin corrected).  Raw
weights are forced non-increasing by a running minimum before normalizing;
this only matters for ``beta_optimal`` at very small j.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

DEFAULT_TRUNCATION = 10_000_000

_CHUNK = 1 << 21


class GammaSequence:
    """A positive non-increasing sequence summing to one, lazily evaluated.

    Indices are 1-based, matching the allocation formulas of the online
    procedures.  Instances are immutable after construction apart from an
    internal value cache, whose growth is lock-protected; concurrent reads
    are safe.
    """

    def __init__(
        self,
        spec: str,
        raw: Callable[[np.ndarray], np.ndarray],
        tail_integral: Callable[[float], float],
        truncation: int = DEFAULT_TRUNCATION,
    ):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        # Raw weights only decrease, so a zero here means gamma_j = 0 from
        # some j on: the sequence would not be positive.
        f_last = float(raw(np.array([float(truncation)]))[0])
        if not f_last > 0.0:
            raise ValueError(
                f"raw weights for {spec!r} underflow to zero by the truncation "
                f"point {truncation}; the sequence would not be positive"
            )
        self._spec = spec
        self._raw = raw
        self._tail_integral = tail_integral
        self._truncation = truncation
        self._lock = threading.Lock()

        partial, running_min = self._summed_head(truncation)
        # Euler-Maclaurin: sum_{j>N} f(j) ~ int_{N+1}^inf f + f(N+1)/2.
        f_next = float(raw(np.array([truncation + 1.0]))[0])
        tail_lower = tail_integral(truncation + 1.0)
        tail_upper = tail_integral(float(truncation))
        self._normalizer = partial + tail_lower + 0.5 * f_next
        self._sum_bracket = (partial + tail_lower, partial + tail_upper)

        # The tail estimate assumes the raw weights are already non-increasing
        # beyond the truncation point, i.e. the running minimum has caught up.
        if not math.isclose(running_min, f_last, rel_tol=1e-12):
            raise ValueError(
                f"raw weights for {spec!r} are not non-increasing near the "
                f"truncation point; tail estimate would be invalid"
            )

        self._values = np.empty(0)
        self._min_raw = math.inf

    def _summed_head(self, n: int) -> tuple[float, float]:
        """Sum of the first n raw weights after the running-minimum repair."""
        parts = []
        carry = math.inf
        for lo in range(1, n + 1, _CHUNK):
            hi = min(n, lo + _CHUNK - 1)
            v = self._raw(np.arange(lo, hi + 1, dtype=np.float64))
            if v[0] > carry:
                v[0] = carry
            np.minimum.accumulate(v, out=v)
            parts.append(float(v.sum()))
            carry = float(v[-1])
        return math.fsum(parts), carry

    @property
    def spec(self) -> str:
        """Canonical text form, e.g. ``"power:1.6"`` or ``"log-optimal"``."""
        return self._spec

    @property
    def normalizer(self) -> float:
        """The series total the raw weights are divided by."""
        return self._normalizer

    @property
    def truncation(self) -> int:
        return self._truncation

    def sum_bracket(self) -> tuple[float, float]:
        """Bracket on the normalized series total.

        Returns (lo, hi) such that the true total of gamma_j lies in
        [lo, hi]: the truncated sum plus lower/upper integral tail bounds,
        divided by the normalizer.  Both endpoints are within ~f(N)/Z of 1.
        """
        lo, hi = self._sum_bracket
        return lo / self._normalizer, hi / self._normalizer

    def _extend(self, upto: int) -> None:
        with self._lock:
            n = len(self._values)
            if upto <= n:
                return
            new_n = max(upto, 2 * n)
            v = self._raw(np.arange(n + 1, new_n + 1, dtype=np.float64))
            if v[0] > self._min_raw:
                v[0] = self._min_raw
            np.minimum.accumulate(v, out=v)
            self._min_raw = float(v[-1])
            self._values = np.concatenate([self._values, v / self._normalizer])

    def at(self, indices: np.ndarray) -> np.ndarray:
        """Vector of gamma values at the given 1-based indices."""
        top = int(indices.max())
        if top > len(self._values):
            self._extend(top)
        return self._values[indices - 1]

    def __getitem__(self, j: int) -> float:
        if j < 1:
            raise IndexError(f"gamma index must be >= 1, got {j}")
        if j > len(self._values):
            self._extend(j)
        return float(self._values[j - 1])

    def head(self, n: int) -> np.ndarray:
        """The first n values as an array (copy)."""
        if n > len(self._values):
            self._extend(n)
        return self._values[:n].copy()

    def __repr__(self) -> str:
        return f"GammaSequence({self._spec!r})"


def power_law(s: float, truncation: int = DEFAULT_TRUNCATION) -> GammaSequence:
    """gamma_j proportional to j**-s.  Requires s > 1 for summability."""
    if not s > 1:
        raise ValueError(f"power-law exponent must be > 1, got {s}")
    s = float(s)

    def raw(j: np.ndarray) -> np.ndarray:
        return j ** (-s)

    def tail(x: float) -> float:
        return x ** (1.0 - s) / (s - 1.0)

    return GammaSequence(f"power:{s!r}", raw, tail, truncation)


def log_optimal(truncation: int = DEFAULT_TRUNCATION) -> GammaSequence:
    """gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))."""

    def raw(j: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(j, 2.0)) / (j * np.exp(np.sqrt(np.log(j))))

    def tail(x: float) -> float:
        # substitute u = sqrt(log t):  integrand becomes 2 u^3 e^-u
        u = math.sqrt(math.log(x))
        return 2.0 * math.exp(-u) * (u**3 + 3.0 * u**2 + 6.0 * u + 6.0)

    return GammaSequence("log-optimal", raw, tail, truncation)


def beta_optimal(m: float, truncation: int = DEFAULT_TRUNCATION) -> GammaSequence:
    """gamma_j proportional to (log(max(j,2)) / j)**(1/m).  Requires 0 < m < 1."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"beta-optimal shape must lie in (0, 1), got {m}")
    m = float(m)
    q = 1.0 / m

    def raw(j: np.ndarray) -> np.ndarray:
        return (np.log(np.maximum(j, 2.0)) / j) ** q

    def tail(x: float) -> float:
        # substitute t = log x: integral of t^q e^{-(q-1)t} from log(x),
        # an upper incomplete gamma evaluated in log space.
        arg = (q - 1.0) * math.log(x)
        reg = float(special.gammaincc(q + 1.0, arg))
        if reg == 0.0:
            return 0.0
        return math.exp(
            special.gammaln(q + 1.0) + math.log(reg) - (q + 1.0) * math.log(q - 1.0)
        )

    return GammaSequence(f"beta:{m!r}", raw, tail, truncation)


def canonical_spec(spec: str) -> str:
    """Validate a gamma spec string and return its canonical form.

    Accepted forms: ``power:<s>``, ``log-optimal``, ``beta:<m>``.  Does not
    construct the sequence (normalization is expensive).
    """
    name, _, arg = spec.partition(":")
    if name == "power":
        try:
            s = float(arg)
        except ValueError:
            raise ValueError(f"bad power-law exponent in gamma spec {spec!r}") from None
        if not 1 < s < math.inf:
            raise ValueError(f"power-law exponent must be finite and > 1, got {s}")
        return f"power:{s!r}"
    if name == "log-optimal":
        if arg:
            raise ValueError(f"log-optimal takes no parameter, got {spec!r}")
        return "log-optimal"
    if name == "beta":
        try:
            m = float(arg)
        except ValueError:
            raise ValueError(f"bad beta shape in gamma spec {spec!r}") from None
        if not 0.0 < m < 1.0:
            raise ValueError(f"beta-optimal shape must lie in (0, 1), got {m}")
        return f"beta:{m!r}"
    raise ValueError(f"unknown gamma spec {spec!r}")


@lru_cache(maxsize=None)
def _from_canonical(spec: str, truncation: int) -> GammaSequence:
    name, _, arg = spec.partition(":")
    if name == "power":
        return power_law(float(arg), truncation)
    if name == "log-optimal":
        return log_optimal(truncation)
    return beta_optimal(float(arg), truncation)


def from_spec(spec: str, truncation: int = DEFAULT_TRUNCATION) -> GammaSequence:
    """Build (and cache) a sequence from its text form, e.g. ``power:1.6``."""
    return _from_canonical(canonical_spec(spec), truncation)
