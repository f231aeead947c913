"""Program-side processes of the benchmark, each a fresh interpreter.

    python3 bench/child.py grid --seed S --trials N --seconds X --jobs J --out F
    python3 bench/child.py long-horizon --pvalues P --out F

Both print ``ready`` once set up (the parent times spawn -> ready as
``setup_s``); ``--setup-only`` exits right there.  ``grid`` runs whole rounds
of the two acceptance sweeps for about ``--seconds``, the way the
experiment scripts run them: a process that never built a gamma sequence
calls ``sweep``, whose pool workers each build their own.  ``long-horizon``
streams the p-values through ``Saffron.run``, ``Lord.run`` and
``AlphaInvesting.run``.  Results go to ``--out`` as JSON or ``.npz``; the
parent checks them.  The module is also imported by the parent for the grid
and stream definitions below.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

ALPHA = 0.05
W0 = ALPHA / 2.0
LAM = 0.5
GAMMA = "power:1.6"
MU_C = 3.0
T_GRID = 1000
PI1_GAUSSIAN = tuple(round(0.1 * k, 1) for k in range(1, 10))
PI1_BETA = (0.5, 0.6, 0.7, 0.8, 0.9)
BETA_SHAPE = (0.5, 5.0)
SEQUENCES = ("power:1.2", "power:1.4", "power:1.6", "power:1.8", "power:2.0", "log-optimal")
GAUSSIAN_PROCEDURES = ("saffron", "saffron-ai", "lord", "alpha-investing")
BETA_PROCEDURES = ("saffron", "lord")
LONG_PROCEDURES = ("saffron", "lord", "alpha-investing")


def grid_configs(seed: int, trials: int):
    """The Gaussian and beta acceptance grids as ``SimConfig`` lists."""
    from onlinefdr import BetaAlternative, DataModel, GaussianMean, ProcedureSpec, SimConfig, grid

    gauss = [ProcedureSpec(n, ALPHA, W0, LAM, GAMMA) for n in GAUSSIAN_PROCEDURES]
    beta = [ProcedureSpec(n, ALPHA, W0, LAM, g) for n in BETA_PROCEDURES for g in SEQUENCES]
    g_base = SimConfig(DataModel(GaussianMean(MU_C), 0.5, T_GRID), gauss[0], trials, seed)
    b_base = SimConfig(DataModel(BetaAlternative(*BETA_SHAPE), 0.5, T_GRID), beta[0], trials, seed)
    return grid(g_base, PI1_GAUSSIAN, gauss), grid(b_base, PI1_BETA, beta)


def stream_config(name: str, pi1: float, T: int, trials: int, seed: int):
    """A Gaussian-mixture cell whose trial k is the k-th stream of a workload."""
    from onlinefdr import DataModel, GaussianMean, ProcedureSpec, SimConfig

    return SimConfig(
        DataModel(GaussianMean(MU_C), pi1, T),
        ProcedureSpec(name, ALPHA, W0, LAM, GAMMA),
        trials,
        seed,
    )


def peak_rss_kb() -> int:
    """Peak resident set of this process and of its reaped children, in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def _grid(args) -> None:
    from dataclasses import asdict

    from onlinefdr import sweep

    gaussian, beta = grid_configs(args.seed, args.trials)
    print("ready", flush=True)
    if args.setup_only:
        return
    # A round takes about half a run, so another one starts only if it
    # would end nearer to --seconds than stopping now does.
    rounds, last = [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + last / 2 < args.seconds:
        t0 = time.perf_counter()
        g_rows = sweep(gaussian, jobs=args.jobs)
        t1 = time.perf_counter()
        b_rows = sweep(beta, jobs=args.jobs)
        t2 = time.perf_counter()
        last = t2 - t0
        rounds.append(
            {
                "gaussian_s": t1 - t0,
                "beta_s": t2 - t1,
                "rows": [asdict(r) for r in g_rows + b_rows],
            }
        )
    with open(args.out, "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_kb": peak_rss_kb()}, fh)


def _long_horizon(args) -> None:
    import numpy as np

    from onlinefdr import AlphaInvesting, Lord, Saffron, from_spec

    gamma = from_spec(GAMMA)
    procs = {
        "saffron": Saffron(ALPHA, W0, gamma, LAM),
        "lord": Lord(ALPHA, W0, gamma),
        "alpha-investing": AlphaInvesting(ALPHA, gamma),
    }
    print("ready", flush=True)
    if args.setup_only:
        return
    pvalues = np.load(args.pvalues)
    arrays, seconds = {}, {}
    for name, proc in procs.items():
        t0 = time.perf_counter()
        trace = proc.run(pvalues)
        seconds[name] = time.perf_counter() - t0
        arrays[f"{name}.alpha"] = trace.alpha
        arrays[f"{name}.lam"] = trace.lam
        arrays[f"{name}.rejected"] = trace.rejected
        arrays[f"{name}.candidate"] = trace.candidate
    arrays["alpha-investing.wealth"] = np.array([procs["alpha-investing"].wealth])
    np.savez(args.out, **arrays)
    print(json.dumps({"seconds": seconds, "peak_rss_kb": peak_rss_kb()}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="workload", required=True)
    g = sub.add_parser("grid")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--trials", type=int, required=True)
    g.add_argument("--seconds", type=float, default=0.0)
    g.add_argument("--jobs", type=int, required=True)
    g.add_argument("--out")
    g.add_argument("--setup-only", action="store_true")
    g.set_defaults(handler=_grid)
    h = sub.add_parser("long-horizon")
    h.add_argument("--pvalues")
    h.add_argument("--out")
    h.add_argument("--setup-only", action="store_true")
    h.set_defaults(handler=_long_horizon)
    args = ap.parse_args(argv)
    args.handler(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
