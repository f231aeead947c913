"""Discount sequences for alpha-wealth allocation.

Every online procedure in this package pays out its error budget over future
tests according to a positive, non-increasing sequence ``gamma_1, gamma_2, ...``
that sums to one.  The constructors here build the three standard families:

* ``power_law(s)``:      gamma_j proportional to j**-s, s > 1
* ``log_optimal()``:     gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))
* ``beta_optimal(m)``:   gamma_j proportional to (log(max(j,2)) / j)**(1/m), 0 < m < 1

Normalization is numeric: the first 1e5 raw weights (``_TRUNCATION``) plus the
Euler-Maclaurin tail ``int_{N+1}^inf f + f(N+1)/2 - f'(N+1)/12``, with each
family's analytic integral and derivative, summed in one ``math.fsum``.  For
the power law this is ``zeta(s)`` to within an ulp or so; a build takes a few
milliseconds.  Raw weights are forced non-increasing by a running minimum
before normalizing; this only matters for ``beta_optimal`` at very small j.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable

import numpy as np

# The normalizer sums this many raw weights, then adds the tail estimate.
_TRUNCATION = 100_000

# Raw weights must stay positive at least this far out: a float64 weight
# that underflows is zero from there on.
_POSITIVE_THROUGH = 10_000_000


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
        slope: Callable[[float], float],
    ):
        # Raw weights only decrease, so a zero here means gamma_j = 0 from
        # some j on: the sequence would not be positive.
        if not float(raw(np.array([float(_POSITIVE_THROUGH)]))[0]) > 0.0:
            raise ValueError(
                f"raw weights for {spec!r} underflow to zero by index {_POSITIVE_THROUGH}; "
                f"the sequence would not be positive"
            )
        self._spec = spec
        self._raw = raw
        self._lock = threading.Lock()

        head = raw(np.arange(1, _TRUNCATION + 1, dtype=np.float64))
        f_last = float(head[-1])
        np.minimum.accumulate(head, out=head)
        # The tail estimate assumes the raw weights are already non-increasing
        # beyond the truncation point, i.e. the running minimum has caught up.
        if not math.isclose(float(head[-1]), f_last, rel_tol=1e-12):
            raise ValueError(
                f"raw weights for {spec!r} are not non-increasing near the "
                f"truncation point; tail estimate would be invalid"
            )
        # Euler-Maclaurin: sum_{j>N} f(j) ~ int_{N+1}^inf f + f(N+1)/2 - f'(N+1)/12.
        x = _TRUNCATION + 1.0
        f_next = float(raw(np.array([x]))[0])
        self._normalizer = math.fsum(
            [*head.tolist(), tail_integral(x), 0.5 * f_next, -slope(x) / 12.0]
        )

        # The repaired head is the first stretch of the value cache.
        self._values = head / self._normalizer
        self._min_raw = float(head[-1])

    @property
    def spec(self) -> str:
        """Canonical text form, e.g. ``"power:1.6"`` or ``"log-optimal"``."""
        return self._spec

    @property
    def normalizer(self) -> float:
        """The series total the raw weights are divided by."""
        return self._normalizer

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
        low = int(indices.min())
        if low < 1:
            raise IndexError(f"gamma index must be >= 1, got {low}")
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
        if n < 0:
            raise IndexError(f"gamma head length must be >= 0, got {n}")
        if n > len(self._values):
            self._extend(n)
        return self._values[:n].copy()

    def __repr__(self) -> str:
        return f"GammaSequence({self._spec!r})"


def power_law(s: float) -> GammaSequence:
    """gamma_j proportional to j**-s.  Requires s > 1 for summability."""
    if not s > 1:
        raise ValueError(f"power-law exponent must be > 1, got {s}")
    s = float(s)

    def raw(j: np.ndarray) -> np.ndarray:
        return j ** (-s)

    def tail(x: float) -> float:
        return x ** (1.0 - s) / (s - 1.0)

    def slope(x: float) -> float:
        return -s * x ** (-s - 1.0)

    return GammaSequence(f"power:{s!r}", raw, tail, slope)


def log_optimal() -> GammaSequence:
    """gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))."""

    def raw(j: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(j, 2.0)) / (j * np.exp(np.sqrt(np.log(j))))

    def tail(x: float) -> float:
        # substitute u = sqrt(log t):  integrand becomes 2 u^3 e^-u
        u = math.sqrt(math.log(x))
        return 2.0 * math.exp(-u) * (u**3 + 3.0 * u**2 + 6.0 * u + 6.0)

    def slope(x: float) -> float:
        # f * d(log f)/dx, with log f = log log x - log x - sqrt(log x)
        lx = math.log(x)
        f = lx / (x * math.exp(math.sqrt(lx)))
        return f * (1.0 / (x * lx) - 1.0 / x - 0.5 / (x * math.sqrt(lx)))

    return GammaSequence("log-optimal", raw, tail, slope)


def beta_optimal(m: float) -> GammaSequence:
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
        from scipy import special

        arg = (q - 1.0) * math.log(x)
        reg = float(special.gammaincc(q + 1.0, arg))
        if reg == 0.0:
            return 0.0
        return math.exp(
            special.gammaln(q + 1.0) + math.log(reg) - (q + 1.0) * math.log(q - 1.0)
        )

    def slope(x: float) -> float:
        # f * d(log f)/dx, with log f = q * (log log x - log x)
        lx = math.log(x)
        return (lx / x) ** q * q * (1.0 / (x * lx) - 1.0 / x)

    return GammaSequence(f"beta:{m!r}", raw, tail, slope)


def canonical_spec(spec: str) -> str:
    """Validate a gamma spec string and return its canonical form.

    Accepted forms: ``power:<s>``, ``log-optimal``, ``beta:<m>``.  Does not
    construct the sequence.
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
def _from_canonical(spec: str) -> GammaSequence:
    name, _, arg = spec.partition(":")
    if name == "power":
        return power_law(float(arg))
    if name == "log-optimal":
        return log_optimal()
    return beta_optimal(float(arg))


def from_spec(spec: str) -> GammaSequence:
    """Build (and cache) a sequence from its text form, e.g. ``power:1.6``."""
    return _from_canonical(canonical_spec(spec))
