"""Edge cases of the shared payout kernel against the replay oracle.

Histories are built from segments: a gap of non-candidate steps (each one a
clock tick for the saffron family) followed by a run of rejections ("R") or
of candidates that are not rejections ("C").  Runs of rejections on candidate
steps share one clock slot, a history that starts with "R" places the first
rejection before any tick (merging it with W0), and the long gaps push the
clock past 1024 slots and past the 1e5-term head that the gamma normalizer
sums.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinefdr import gamma as G
from onlinefdr.procedures import _SUPERBLOCK, AdaptiveSaffron, Lord, Saffron
import replay_oracle as oracle

ALPHA = 0.05
LAM = 0.5
LONG_GAP = 1100  # a clock past 1024 slots
PROCEDURES = ("saffron", "saffron-ai", "lord")


@pytest.fixture(scope="module")
def g16():
    return G.from_spec("power:1.6")


def build(name, w0, gam):
    if name == "saffron":
        return Saffron(ALPHA, w0, gam, LAM)
    if name == "saffron-ai":
        return AdaptiveSaffron(ALPHA, w0, gam)
    return Lord(ALPHA, w0, gam)


def history(segments):
    """Bits R, C and the step counts after each segment."""
    R, C, ends = [], [], []
    for gap, kind, run in segments:
        R += [False] * gap + [kind == "R"] * run
        C += [False] * gap + [True] * run
        ends.append(len(R))
    return R, C, ends


def check_levels(name, w0, gam, R, C):
    proc = build(name, w0, gam)
    proc.load_history(R, C)
    a, lam = proc.next_level()
    assert proc.next_level() == (a, lam)  # a pure read: asking again gives the same pair
    if name == "lord":
        assert a == lam == pytest.approx(oracle.lord_level(R, ALPHA, w0, gam), rel=1e-12)
    elif name == "saffron":
        assert (a, lam) == pytest.approx(oracle.saffron_levels(R, C, ALPHA, w0, gam, LAM), rel=1e-12)
    else:
        assert (a, lam) == pytest.approx(oracle.saffron_ai_levels(R, C, ALPHA, w0, gam), rel=1e-12)
    # the machine keeps stepping after the checked level
    proc.observe(1.0)
    assert proc.next_level() == proc.next_level()


EDGE_HISTORIES = {
    "burst-of-rejections": [(0, "R", 3), (2, "C", 2), (1, "R", 2), (3, "R", 1)],
    "first-rejection-before-any-tick": [(0, "R", 1), (4, "C", 1), (5, "R", 1)],
    "candidates-only": [(2, "C", 3), (1, "C", 1)],
    "past-1024-ticks": [(3, "R", 1), (LONG_GAP, "C", 2), (40, "R", 2), (5, "R", 1)],
    "rejection-burst-after-1024-ticks": [(0, "R", 2), (LONG_GAP, "R", 3)],
    "past-the-gamma-head": [(3, "R", 1), (110_000, "C", 2), (40, "R", 2), (5, "R", 1)],
    # weight in the last slots before the superblock start 2048 and in its
    # first one, then read again from the next superblock's far field
    "rejections-at-a-superblock-start": [(2046, "R", 3), (1, "R", 1), (1, "R", 1), (2046, "C", 1)],
}


@pytest.mark.parametrize("w0", [ALPHA / 2, ALPHA], ids=["w0=alpha/2", "w0=alpha"])
@pytest.mark.parametrize("name", PROCEDURES)
@pytest.mark.parametrize("case", sorted(EDGE_HISTORIES))
def test_edge_histories_match_replay_oracle(case, name, w0, g16):
    R, C, ends = history(EDGE_HISTORIES[case])
    for end in [0] + ends:
        check_levels(name, w0, g16, R[:end], C[:end])


segment = st.tuples(st.integers(0, 3), st.sampled_from("RC"), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(
    head=st.lists(segment, max_size=4),
    gap=st.sampled_from([0, LONG_GAP]),
    tail=st.lists(segment, max_size=4),
    w0=st.sampled_from([ALPHA / 2, ALPHA]),
    name=st.sampled_from(PROCEDURES),
)
def test_random_histories_match_replay_oracle(head, gap, tail, w0, name, g16):
    R, C, ends = history(head + [(gap, "C", 1)] + tail)
    for end in ends:
        check_levels(name, w0, g16, R[:end], C[:end])


BLAS_PROBE = """
import sys
import numpy as np
from onlinefdr import Lord, Saffron, from_spec
g, p = from_spec("power:1.6"), np.load(sys.argv[1])
lord, saffron = Lord(0.05, 0.025, g).run(p), Saffron(0.05, 0.025, g, 0.5).run(p)
np.savez(sys.argv[2], lord=lord.alpha, saffron=saffron.alpha)
"""


def test_long_lord_stream_decides_alike_on_one_blas_thread(g16, tmp_path):
    # OpenBLAS may split a product across threads, but only along its output
    # dimensions: each payout adds its terms in one order on any thread count
    rng = np.random.default_rng(31)
    u = rng.random((3, 12_000))
    np.save(tmp_path / "p.npy", np.where(u[0] < 0.3, u[1] ** 8, u[2]))
    result = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, tmp_path / "p.npy", tmp_path / "one.npz"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    pvalues = np.load(tmp_path / "p.npy")
    lord = Lord(ALPHA, ALPHA / 2, g16)
    saffron = Saffron(ALPHA, ALPHA / 2, g16, LAM)
    traces = {"lord": lord.run(pvalues), "saffron": saffron.run(pvalues)}
    assert traces["lord"].rejected[10_000:].any()
    # past two full-size superblocks
    assert len(lord._weights) - 1 > 4096 and len(saffron._weights) - 1 > 4096
    with np.load(tmp_path / "one.npz") as one:
        for name, trace in traces.items():
            assert one[name].tolist() == trace.alpha.tolist(), name


BATCH_BLAS_PROBE = """
import sys
import numpy as np
from onlinefdr import from_spec, make_procedure
g, p, long = from_spec("power:1.6"), np.load(sys.argv[1]), np.load(sys.argv[2])
levels = {name: [trace.alpha for trace in make_procedure(name, 0.05, 0.025, g, 0.5).run_batch(p)]
          for name in ("saffron", "saffron-ai", "lord")}
levels["lord-long"] = [trace.alpha for trace in make_procedure("lord", 0.05, 0.025, g).run_batch(long)]
np.savez(sys.argv[3], **levels)
"""


def test_batched_levels_decide_alike_on_one_blas_thread(g16, tmp_path):
    # each row's payout adds one dot product a span of slots, which OpenBLAS
    # sums in one order on any thread count; every row its own signal
    # fraction, and lord's long rows sum over more than 10 000 slots, past
    # which OpenBLAS splits one dot product across threads
    rng = np.random.default_rng(37)
    u = rng.random((3, 150, 1000))
    np.save(tmp_path / "p.npy", np.where(u[0] < rng.random((150, 1)), u[1] ** 8, u[2]))
    u = rng.random((3, 4, 10_200))
    np.save(tmp_path / "long.npy", np.where(u[0] < 0.1, u[1] ** 8, u[2]))
    result = subprocess.run(
        [sys.executable, "-c", BATCH_BLAS_PROBE, *(tmp_path / f for f in ("p.npy", "long.npy", "one.npz"))],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    pvalues = np.load(tmp_path / "p.npy")
    traces = {name: build(name, ALPHA / 2, g16).run_batch(pvalues) for name in PROCEDURES}
    traces["lord-long"] = build("lord", ALPHA / 2, g16).run_batch(np.load(tmp_path / "long.npy"))
    with np.load(tmp_path / "one.npz") as one:
        for name, batch in traces.items():
            assert sum(trace.rejected.sum() for trace in batch) > 1000, name
            assert one[name].tolist() == [trace.alpha.tolist() for trace in batch], name


def test_long_batched_rows_do_not_depend_on_the_batch(g16):
    # the sparse row's clock passes 10 000 and sets every row's slot count k,
    # so the other rows' sums are padded past where one dot product would be
    # split across threads
    rng = np.random.default_rng(4)
    u = rng.random((3, 3, 11_000))
    pvalues = np.where(u[0] < np.array([[0.005], [0.3], [0.9]]), u[1] ** 8, u[2])
    whole = AdaptiveSaffron(ALPHA, ALPHA / 2, g16).run_batch(pvalues)
    assert (whole[0].pvalues > whole[0].lam).sum() > 10_000
    for i in (1, 2):
        alone = AdaptiveSaffron(ALPHA, ALPHA / 2, g16).run_batch(pvalues[i : i + 1])[0]
        assert alone.alpha.tolist() == whole[i].alpha.tolist(), i


# Clock values at which the kernel starts a new superblock of its payout cache.
BOUNDARIES = tuple(k * _SUPERBLOCK for k in (1, 2, 3))
# Each dense stretch places a burst of rejections shortly before a boundary.
STRETCHES = ((1950, 0.01), (40, 0.9), (2000, 0.01), (40, 0.9), (2000, 0.01), (40, 0.9), (490, 0.01))


def stretched_stream():
    """Sparse stretches (pi1 = 0.01) between dense ones (pi1 = 0.9), 6560 steps.

    The sparse stretches draw their nulls above lambda, so each one ticks
    saffron's clock and every procedure's clock crosses all the boundaries.
    """
    rng = np.random.default_rng(41)
    pi1 = np.concatenate([np.full(n, pi) for n, pi in STRETCHES])
    u = rng.random((3, len(pi1)))
    nulls = np.where(pi1 < 0.5, LAM + (1 - LAM) * u[2], u[2])
    return np.where(u[0] < pi1, u[1] ** 20, nulls)


def oracle_levels(name, R, C, gam):
    if name == "lord":
        a = oracle.lord_level(R, ALPHA, ALPHA / 2, gam)
        return a, a
    if name == "saffron":
        return oracle.saffron_levels(R, C, ALPHA, ALPHA / 2, gam, LAM)
    return oracle.saffron_ai_levels(R, C, ALPHA, ALPHA / 2, gam)


@pytest.mark.parametrize("name", PROCEDURES)
def test_superblock_boundaries(name, g16):
    pvalues = stretched_stream()
    driven = build(name, ALPHA / 2, g16)
    stepwise = [driven.observe(p) for p in pvalues.tolist()]
    R = [r.rejected for r in stepwise]
    C = [r.candidate for r in stepwise]
    # clock[i]: the clock when step i + 1 is decided
    ticks = np.ones(len(R), dtype=int) if name == "lord" else ~np.array(C)
    clock = np.concatenate([[0], np.cumsum(ticks)])[:-1]
    crossed = [b for b in BOUNDARIES if b <= clock[-1]]
    assert crossed == list(BOUNDARIES)
    # levels against the oracle at the first and the last clock value of each superblock
    for value in sorted({0, *(b - 1 for b in crossed), *crossed, clock[-1]}):
        i = int(np.argmax(clock == value))
        expected = oracle_levels(name, R[:i], C[:i], g16)
        assert (stepwise[i].alpha, stepwise[i].lam) == pytest.approx(expected, rel=1e-12), value
    for b in crossed:
        first = int(np.argmax(clock == b))
        for split in (first - 1, first, first + 1):
            proc = build(name, ALPHA / 2, g16)
            pieces = [proc.run(pvalues[:split]), proc.run(pvalues[split:])]
            for field in ("alpha", "lam", "rejected", "candidate"):
                ran = np.concatenate([getattr(piece, field) for piece in pieces])
                assert ran.tolist() == [getattr(r, field) for r in stepwise], (split, field)
            replayed = build(name, ALPHA / 2, g16)
            replayed.load_history(R[:split], C[:split])
            assert replayed.next_level() == (stepwise[split].alpha, stepwise[split].lam), split
