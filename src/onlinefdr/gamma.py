"""Discount sequences for alpha-wealth allocation.

Every online procedure in this package pays out its error budget over future
tests according to a positive, non-increasing sequence ``gamma_1, gamma_2, ...``
that sums to one.  ``GammaSequence(spec)`` builds one of three standard
families from its spec text:

* ``power:<s>``:      gamma_j proportional to j**-s, s > 1
* ``log-optimal``:    gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))
* ``beta:<m>``:       gamma_j proportional to (log(max(j,2)) / j)**(1/m), 0 < m < 1

A family is its raw weights and their analytic tail integral, listed once in
``_FAMILIES`` with its spec name and parameter range; one parser reads that
table for every spec.  ``from_spec`` caches one sequence per spec text.
Normalization is numeric: the first 1e5 raw weights (``_TRUNCATION``) plus the
Euler-Maclaurin tail ``int_{N+1}^inf f + f(N+1)/2 - f'(N+1)/12``, with the
family's tail integral and f' the central difference ``(f(N+2) - f(N)) / 2``,
streamed a stretch at a time into one exactly rounded ``math.fsum``: a build
takes a few milliseconds and holds no 1e5-term array.  For the power law the
sum is ``zeta(s)`` to within an ulp or so.  Raw weights are forced
non-increasing by a running minimum, which only matters for the beta family
at very small j.  A sequence caches gamma_j only as far as it has been read,
each stretch divided by the normalizer once, so a cached read is a lookup.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import lru_cache
from typing import Callable

import numpy as np

Raw = Callable[[np.ndarray], np.ndarray]
Tail = Callable[[float], float]

# The normalizer sums this many raw weights, then adds the tail estimate.
_TRUNCATION = 100_000
_STRETCH = 4096  # raw weights computed at a time, for the normalizer

# Raw weights must stay positive at least this far out: a float64 weight
# that underflows is zero from there on.
_POSITIVE_THROUGH = 10_000_000


def _raw_at(raw: Raw, j: int) -> float:
    return float(raw(np.array([float(j)]))[0])


def _running_min(raw: Raw, lo: int, hi: int, before: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Raw weights lo..hi-1 over scale, as a running minimum continuing ``before``."""
    v = raw(np.arange(lo, hi, dtype=np.float64)) / scale
    v[0] = np.min(before[-1:], initial=v[0])
    return np.minimum.accumulate(v, out=v)


class GammaSequence:
    """A positive non-increasing sequence summing to one, lazily evaluated.

    Indices are 1-based, matching the allocation formulas of the online
    procedures.  Instances are immutable after construction apart from an
    internal cache of gamma values, whose growth is lock-protected;
    concurrent reads are safe.  The cache starts empty and grows as values
    are read.  A value is the running minimum of the raw weights over the
    normalizer.  A positive divisor keeps their order, so the normalizer's sum
    (before the division) and the cache (after it) share one helper.
    """

    def __init__(self, spec: str):
        spec, raw, tail_integral = _parse(spec)
        # Raw weights only decrease, so a zero here means gamma_j = 0 from
        # some j on: the sequence would not be positive.
        if not _raw_at(raw, _POSITIVE_THROUGH) > 0.0:
            raise ValueError(
                f"raw weights for {spec!r} underflow to zero by index {_POSITIVE_THROUGH}; "
                f"the sequence would not be positive"
            )
        self._spec = spec
        self._raw = raw
        self._lock = threading.Lock()
        self._gamma = np.empty(0)  # gamma_1, gamma_2, ... as far as read
        f_n, f_next, f_after = (_raw_at(raw, _TRUNCATION + k) for k in range(3))

        def terms():
            v = np.empty(0)
            for lo in range(1, _TRUNCATION + 1, _STRETCH):
                v = _running_min(raw, lo, min(lo + _STRETCH, _TRUNCATION + 1), v)
                yield v.tolist()
            # The tail estimate needs the running minimum to have caught up by N.
            if not math.isclose(v[-1], f_n, rel_tol=1e-12):
                raise ValueError(f"raw weights for {spec!r} are not non-increasing near the "
                                 f"truncation point; tail estimate would be invalid")
            # Euler-Maclaurin: sum_{j>N} f(j) ~ int_{N+1}^inf f + f(N+1)/2 - f'(N+1)/12,
            # with f'(N+1) ~ (f(N+2) - f(N)) / 2.
            yield tail_integral(_TRUNCATION + 1.0), 0.5 * f_next, (f_n - f_after) / 24.0

        self._normalizer = math.fsum(itertools.chain.from_iterable(terms()))

    @property
    def normalizer(self) -> float:
        """The series total the raw weights are divided by."""
        return self._normalizer

    def _extend(self, upto: int) -> None:
        with self._lock:
            n = len(self._gamma)
            if upto <= n:
                return
            v = _running_min(self._raw, n + 1, max(upto, 2 * n) + 1, self._gamma, self._normalizer)
            self._gamma = np.concatenate([self._gamma, v])

    def at(self, indices) -> np.ndarray:
        """Vector of gamma values at the given 1-based indices, an integer array-like."""
        idx = np.asarray(indices)
        low = int(idx.min(initial=1))
        if low < 1:
            raise IndexError(f"gamma index must be >= 1, got {low}")
        top = int(idx.max(initial=0))
        if top > len(self._gamma):
            self._extend(top)
        return self._gamma[idx - 1] if idx.size else np.empty(idx.shape)  # [] reads as float

    def __getitem__(self, j: int) -> float:
        if j < 1:
            raise IndexError(f"gamma index must be >= 1, got {j}")
        if j > len(self._gamma):
            self._extend(j)
        return float(self._gamma[j - 1])

    def head(self, n: int) -> np.ndarray:
        """The first n values as a new array."""
        if n < 0:
            raise IndexError(f"gamma head length must be >= 0, got {n}")
        if n > len(self._gamma):
            self._extend(n)
        return self._gamma[:n].copy()

    def __repr__(self) -> str:
        return f"GammaSequence({self._spec!r})"


def _power(s: float) -> tuple[Raw, Tail]:
    def raw(j: np.ndarray) -> np.ndarray:
        return j ** (-s)

    def tail(x: float) -> float:
        return x ** (1.0 - s) / (s - 1.0)

    return raw, tail


def _log_optimal() -> tuple[Raw, Tail]:
    def raw(j: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(j, 2.0)) / (j * np.exp(np.sqrt(np.log(j))))

    def tail(x: float) -> float:
        # substitute u = sqrt(log t):  integrand becomes 2 u^3 e^-u
        u = math.sqrt(math.log(x))
        return 2.0 * math.exp(-u) * (u**3 + 3.0 * u**2 + 6.0 * u + 6.0)

    return raw, tail


def _beta(m: float) -> tuple[Raw, Tail]:
    q = 1.0 / m

    def raw(j: np.ndarray) -> np.ndarray:
        return (np.log(np.maximum(j, 2.0)) / j) ** q

    def tail(x: float) -> float:
        # substitute t = log x: integral of t^q e^{-(q-1)t} from log(x),
        # an upper incomplete gamma evaluated in log space.
        from scipy import special

        arg = (q - 1.0) * math.log(x)
        reg = float(special.gammaincc(q + 1.0, arg))
        return math.exp(
            special.gammaln(q + 1.0) + math.log(reg) - (q + 1.0) * math.log(q - 1.0)
        )

    return raw, tail


# name -> (parameter -> (raw weights, tail integral); and the parameter's name,
# its range in words and a test of that range, or None if the family takes none)
_FAMILIES: dict[str, tuple[Callable[..., tuple[Raw, Tail]], tuple | None]] = {
    "power": (_power, ("power-law exponent", "must be finite and > 1", lambda s: 1 < s < math.inf)),
    "log-optimal": (_log_optimal, None),
    "beta": (_beta, ("beta-optimal shape", "must lie in (0, 1)", lambda m: 0.0 < m < 1.0)),
}


def _parse(spec: str) -> tuple[str, Raw, Tail]:
    """Check a spec against ``_FAMILIES``: its canonical form, raw weights and tail integral."""
    name, colon, arg = spec.partition(":")
    if name not in _FAMILIES:
        raise ValueError(f"unknown gamma spec {spec!r}")
    weights, parameter = _FAMILIES[name]
    if parameter is None:
        if colon:
            raise ValueError(f"{name} takes no parameter, got {spec!r}")
        return (name, *weights())
    noun, rule, admits = parameter
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"bad {noun} in gamma spec {spec!r}") from None
    if not admits(value):
        raise ValueError(f"{noun} {rule}, got {value}")
    return (f"{name}:{value!r}", *weights(value))


def power_law(s: float) -> GammaSequence:
    """gamma_j proportional to j**-s.  Requires s > 1 for summability."""
    return GammaSequence(f"power:{float(s)!r}")


def log_optimal() -> GammaSequence:
    """gamma_j proportional to log(max(j,2)) / (j * exp(sqrt(log j)))."""
    return GammaSequence("log-optimal")


def canonical_spec(spec: str) -> str:
    """Validate a gamma spec (``power:<s>``, ``log-optimal`` or ``beta:<m>``)
    and return its canonical form, without building the sequence."""
    return _parse(spec)[0]


@lru_cache(maxsize=None)
def from_spec(spec: str) -> GammaSequence:
    """Build (and cache) a sequence from its text form, e.g. ``power:1.6``."""
    return GammaSequence(spec)
