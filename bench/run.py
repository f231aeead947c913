#!/usr/bin/env python3
"""One benchmark for onlinefdr: three workloads, end to end and per layer.

    python3 bench/run.py --workload {grid,gatekeeper,long-horizon} \
        --seed N --seconds S --trace {0,1} [--tiny]

The package is imported from ``src/`` beside this directory; the program's
processes are fresh interpreters started with ``PYTHONPATH=src``.  Each run
repeats whole rounds of its workload for at least ``--seconds`` (closed
loop, no more processes than ``nproc``), checks every output against the
independent reference in ``reference.py`` outside the timed region, prints
one line per metric and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one round
of the same workload, with its checks, and then times the calls into each
module from this file, keeping spans in memory and writing them to
``bench/out/`` at the end; it reports the per-layer metrics and the tracing
overhead.  ``--tiny`` shrinks every size for the benchmark's own tests.  See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from subprocess import DEVNULL, PIPE

import numpy as np

import child as C
import reference as ref
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
CLI = [PY, "-m", "onlinefdr.cli", "stream", "--alpha", repr(C.ALPHA), "--precision", "17"]
STREAM_HEADER = b"t,alpha,lambda,reject,candidate\n"
GATEKEEPER_PI1 = 0.1
LONG_PI1 = 0.5
REL = 1e-12  # tolerance of every comparison with the reference
HISTORY_REJECTIONS = (10, 1000, 10000)
CHILD_TIMEOUT = 600


@dataclass(frozen=True)
class Sizes:
    grid_trials: int = 20  # trials per grid cell; the experiment scripts use 200
    session_lines: int = 4000  # p-values per gatekeeper session
    min_sessions: int = 5
    long_T: int = 40_000
    setups: int = 7  # fresh processes timed for setup_s
    level_samples: int = 200  # long-horizon steps whose level is recomputed
    probe_steps: int = 2000  # lines of the step() and CLI probes in traced runs
    imports: int = 3  # fresh interpreters per import probe


TINY = Sizes(
    grid_trials=3,
    session_lines=60,
    min_sessions=2,
    long_T=3000,
    setups=2,
    level_samples=20,
    probe_steps=60,
    imports=1,
)


@dataclass
class Outcome:
    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]  # end to end, untraced
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] | None = None


class BenchError(RuntimeError):
    """A program process misbehaved; the run cannot report metrics."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@contextmanager
def spawn(cmd, **kw):
    """Start a program process; on leaving, kill it if still running and reap it."""
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=_env(), **kw)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        for f in (proc.stdin, proc.stdout, proc.stderr):
            if f is not None:
                f.close()
        proc.wait()


def time_to_ready(cmd) -> float:
    """Seconds from spawning ``cmd`` to its ``ready`` line; it must exit 0."""
    t0 = time.perf_counter()
    with spawn(cmd, stdout=PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line != b"ready\n" or proc.wait(timeout=CHILD_TIMEOUT) != 0:
            raise BenchError(f"{cmd[1:3]} did not start: {line!r}")
    return elapsed


def median(xs) -> float:
    return float(statistics.median(xs))


def rel_close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a - b) <= REL * np.maximum(np.abs(a), np.abs(b))


def first_bad(mask) -> int:
    return int(np.argmin(mask)) + 1


# ---------------------------------------------------------------- checks


def check_cell(config, row: dict, trials) -> list[str]:
    """Recompute one grid cell with the reference.

    ``trials`` holds (p-values, is_null, package levels, package rejection
    bits) per trial.  Bits must match exactly; levels, fdr, power and their
    se to 1e-12.
    """
    from onlinefdr import from_spec

    spec = config.procedure
    table = None if spec.gamma.startswith("power:") else from_spec(spec.gamma).head(config.model.T)
    gamma = ref.gamma_for(spec.gamma, table)
    where = f"{spec.name} {spec.gamma} pi1={config.model.pi1}"
    failures, fdps, powers = [], [], []
    for i, (p, is_null, levels, bits) in enumerate(trials):
        ref_levels, ref_bits, _ = ref.replay(spec.name, p, spec.alpha, spec.w0, gamma, spec.lam)
        if not np.array_equal(bits, ref_bits):
            failures.append(f"grid {where} trial {i}: rejection bits differ from the reference")
        elif not rel_close(levels, ref_levels).all():
            failures.append(f"grid {where} trial {i}: levels differ from the reference")
        fdps.append(ref.fdp(ref_bits, is_null))
        powers.append(ref.power(ref_bits, is_null))
    fdr, fdr_se = ref.mean_se(fdps)
    pw, pw_se = ref.mean_se(powers)
    for key, want in (("fdr", fdr), ("fdr_se", fdr_se), ("power", pw), ("power_se", pw_se)):
        if not abs(row[key] - want) <= REL:
            failures.append(f"grid {where}: {key} {row[key]!r} != reference {want!r}")
    return failures


def package_trials(config):
    from onlinefdr import generate_stream, trial_rng

    out = []
    for i in range(config.trials):
        p, is_null = generate_stream(config.model, trial_rng(config.seed, i))
        trace = config.procedure.build().run(p)
        out.append((p, is_null, trace.alpha, trace.rejected))
    return out


def cells_to_recompute(configs, seed: int) -> list[int]:
    """One cell per (procedure, model) pair, its pi1 and sequence drawn from the seed."""
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.procedure.name, type(cfg.model.kind)), []).append(i)
    rng = np.random.default_rng([seed, 1])
    return [int(rng.choice(members)) for members in groups.values()]


def check_grid(rounds, configs, picks: list[int]) -> list[str]:
    rows = rounds[0]["rows"]
    failures = [f"grid round {k}: rows differ from round 1" for k, r in
                enumerate(rounds[1:], 2) if r["rows"] != rows]
    if len(rows) != len(configs):
        return failures + [f"grid: {len(rows)} rows for {len(configs)} cells"]
    for cfg, row in zip(configs, rows):
        key = (cfg.procedure.name, cfg.procedure.gamma, cfg.model.pi1, cfg.trials, cfg.seed)
        if key != (row["procedure"], row["gamma"], row["pi1"], row["trials"], row["seed"]):
            failures.append(f"grid: row {row} is not cell {key}")
        elif row["procedure"] != "alpha-investing" and not row["fdr"] <= C.ALPHA + 3 * row["fdr_se"]:
            failures.append(f"grid {key}: fdr {row['fdr']} above alpha + 3 se")
    for i in picks:
        failures += check_cell(configs[i], rows[i], package_trials(configs[i]))
    return failures


def parse_decisions(replies: list[bytes]):
    """Columns t, alpha, lambda, reject, candidate of the CLI's decision lines."""
    cols = [line.decode().rstrip("\n").split(",") for line in replies]
    if any(len(c) != 5 for c in cols):
        raise ValueError("a decision line does not have five fields")
    t, a, lam, rej, cand = zip(*cols) if cols else ((),) * 5
    return (
        np.array([int(x) for x in t], dtype=np.int64),
        np.array([float(x) for x in a]),
        np.array([float(x) for x in lam]),
        np.array([x == "1" for x in rej], dtype=bool),
        np.array([x == "1" for x in cand], dtype=bool),
    )


def check_session(pvalues, header: bytes, replies: list[bytes], code: int) -> list[str]:
    """Every line of one gatekeeper session against the reference replay."""
    failures = []
    if code != 0:
        failures.append(f"gatekeeper: exit code {code}")
    if header != STREAM_HEADER:
        failures.append(f"gatekeeper: header {header!r}")
    try:
        t, a, lam, rej, cand = parse_decisions(replies)
    except ValueError as exc:
        return failures + [f"gatekeeper: {exc}"]
    n = len(pvalues)
    if len(t) != n:
        return failures + [f"gatekeeper: {len(t)} decisions for {n} lines"]
    levels, _, _ = ref.replay("saffron", pvalues, C.ALPHA, C.W0, ref.PowerGamma(1.6), C.LAM)
    for ok, what in (
        (t == np.arange(1, n + 1), "t does not count up by one"),
        (rej == (pvalues <= a), "reject != (p <= alpha)"),
        (cand == (pvalues <= lam), "candidate != (p <= lambda)"),
        (lam == C.LAM, "lambda is not the configured threshold"),
        (rel_close(a, levels), "alpha differs from the reference"),
        (ref.saffron_fdp_hat(pvalues, a, lam, rej) <= C.ALPHA + REL, "FDP estimate above alpha"),
    ):
        if not ok.all():
            failures.append(f"gatekeeper: {what} at line {first_bad(ok)}")
    return failures


def level_samples(T: int, n: int) -> np.ndarray:
    return np.unique(np.linspace(1, T, min(n, T)).astype(np.int64))


def check_long(pvalues, arrays: dict, n_samples: int) -> list[str]:
    """Invariants at every step and reference levels of one long-horizon round."""
    failures = []
    gamma = ref.PowerGamma(1.6)
    for name in C.LONG_PROCEDURES:
        a, lam = arrays[f"{name}.alpha"], arrays[f"{name}.lam"]
        rej, cand = arrays[f"{name}.rejected"], arrays[f"{name}.candidate"]
        checks = [
            (rej == (pvalues <= a), "reject != (p <= alpha)"),
            (cand == (pvalues <= lam), "candidate != (p <= lambda)"),
        ]
        if name == "saffron":
            fdp_hat = ref.saffron_fdp_hat(pvalues, a, lam, rej)
            checks.append((fdp_hat <= C.ALPHA + REL, "FDP estimate above alpha"))
        if name == "lord":
            budget = C.ALPHA * np.maximum(np.cumsum(rej), 1)
            checks.append((ref.lord_spend_excess(a, rej, C.ALPHA) <= REL * budget,
                           "spend above alpha * max(R, 1)"))
        if name == "alpha-investing":
            replay = ref.alpha_investing(pvalues, C.ALPHA, gamma)
            checks += [
                (rel_close(a, replay["levels"]), "alpha differs from the reference replay"),
                (rej == replay["rejected"], "rejections differ from the reference replay"),
                (replay["wealth"] >= 0.0, "wealth below zero"),
            ]
            if not rel_close(arrays["alpha-investing.wealth"], replay["wealth"][-1:]).all():
                failures.append("long-horizon alpha-investing: final wealth differs from the reference")
        else:
            steps = level_samples(len(pvalues), n_samples)
            want = [ref.level_at(name, t, rej, cand, C.ALPHA, C.W0, gamma, C.LAM) for t in steps]
            ok = rel_close(a[steps - 1], want)
            if not ok.all():
                failures.append(f"long-horizon {name}: alpha differs from the reference "
                                f"at step {int(steps[first_bad(ok) - 1])}")
        for ok, what in checks:
            if not ok.all():
                failures.append(f"long-horizon {name}: {what} at step {first_bad(ok)}")
    return failures


# ---------------------------------------------------------------- workloads


@dataclass
class LayerInputs:
    """What the traced run needs to know about the workload it follows."""

    own_cells: list  # SimConfig cells whose streams the workload decides
    extra_cells: list  # the same streams under the procedures it does not run
    untraced_wall: float  # wall seconds the workload's processes took for own_cells
    processes: int
    rows: list[dict] | None  # the workload's own rows, where it has them
    specs: tuple[str, ...]
    top_index: int  # largest gamma index the workload reaches
    first_stream: np.ndarray


def grid_workload(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    jobs = len(os.sched_getaffinity(0))
    cmd = [PY, BENCH / "child.py", "grid", "--seed", seed, "--trials", sizes.grid_trials,
           "--jobs", jobs]
    setups = [time_to_ready(cmd + ["--setup-only"]) for _ in range(sizes.setups)]
    out = OUT / f"grid-seed{seed}.json"
    with spawn(cmd + ["--seconds", seconds, "--out", out], stdout=DEVNULL) as proc:
        if proc.wait(timeout=seconds + CHILD_TIMEOUT) != 0:
            raise BenchError("grid process failed")
    res = json.loads(out.read_text())
    rounds = res["rounds"]
    gaussian, beta = C.grid_configs(seed, sizes.grid_trials)
    configs = gaussian + beta
    failures = check_grid(rounds, configs, cells_to_recompute(configs, seed))
    n_g, n_b = len(gaussian) * sizes.grid_trials, len(beta) * sizes.grid_trials
    walls = [r["gaussian_s"] + r["beta_s"] for r in rounds]
    outcome = Outcome(
        attempted=len(rounds) * (n_g + n_b) * C.T_GRID,
        failures=failures,
        metrics={
            "setup_s": (median(setups), "s"),
            "decisions_per_s": (median((n_g + n_b) * C.T_GRID / w for w in walls), "decisions/s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        },
        detail={
            "gaussian_trials_per_s": (median(n_g / r["gaussian_s"] for r in rounds), "trials/s"),
            "beta_trials_per_s": (median(n_b / r["beta_s"] for r in rounds), "trials/s"),
            "rounds": (len(rounds), "count"),
            "jobs": (jobs, "count"),
        },
    )
    if traced:
        from onlinefdr import generate_stream, trial_rng

        first = next(c for c in gaussian if c.procedure.name == "saffron")
        outcome.layers = layer_suite(
            "grid", seed, sizes, outcome,
            LayerInputs(
                own_cells=configs, extra_cells=[], untraced_wall=median(walls),
                processes=jobs, rows=rounds[0]["rows"], specs=C.SEQUENCES, top_index=C.T_GRID,
                first_stream=generate_stream(first.model, trial_rng(seed, 0))[0],
            ),
        )
    return outcome


@dataclass
class Session:
    setup_s: float
    wall_s: float
    latency_ns: np.ndarray
    peak_rss_kb: int
    failures: list[str]


def vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM in /proc status")


@contextmanager
def one_cpu():
    """Keep this process, and the processes it starts, on one CPU meanwhile.

    A client and a gatekeeper that share a CPU hand each line over without a
    cross-CPU wakeup, whose cost on a shared virtual machine varies by several
    times from minute to minute and would drown the program's own per-line cost.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def gatekeeper_session(pvalues: np.ndarray) -> Session:
    """One cold CLI process, fed one line at a time, each decision read back first."""
    lines = [f"{p!r}\n".encode() for p in pvalues.tolist()]
    latency = np.empty(len(lines), dtype=np.int64)
    replies = []
    t0 = time.perf_counter()
    with one_cpu(), spawn(CLI, stdin=PIPE, stdout=PIPE, stderr=PIPE) as proc:
        header = proc.stdout.readline()
        setup = time.perf_counter() - t0
        w, r = proc.stdin, proc.stdout
        for i, line in enumerate(lines):
            start = time.perf_counter_ns()
            w.write(line)
            w.flush()
            replies.append(r.readline())
            latency[i] = time.perf_counter_ns() - start
        rss = vm_hwm_kb(proc.pid)
        w.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    failures = check_session(pvalues, header, replies, code)
    if err:
        failures.append(f"gatekeeper: stderr {err[:200]!r}")
    return Session(setup, wall, latency, rss, failures)


def gatekeeper_workload(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    from onlinefdr import generate_stream, trial_rng

    model = C.stream_config("saffron", GATEKEEPER_PI1, sizes.session_lines, 1, seed).model
    sessions, streams = [], []
    start = time.perf_counter()
    while len(sessions) < sizes.min_sessions or time.perf_counter() - start < seconds:
        p, _ = generate_stream(model, trial_rng(seed, len(sessions)))
        streams.append(p)
        sessions.append(gatekeeper_session(p))
    latency = np.concatenate([s.latency_ns for s in sessions]) / 1e3
    n = len(sessions)
    outcome = Outcome(
        attempted=int(latency.size),
        failures=[f for s in sessions for f in s.failures],
        metrics={
            "setup_s": (median(s.setup_s for s in sessions), "s"),
            "decisions_per_s": (median(s.latency_ns.size / s.latency_ns.sum() * 1e9
                                       for s in sessions), "decisions/s"),
            "peak_rss_mb": (median(s.peak_rss_kb for s in sessions) / 1024, "MB"),
        },
        detail={
            "decision_p50_us": (float(np.percentile(latency, 50)), "us"),
            "decision_p99_us": (float(np.percentile(latency, 99)), "us"),
            "decision_samples": (int(latency.size), "count"),
            "sessions": (n, "count"),
        },
    )
    if traced:
        cells = [C.stream_config(name, GATEKEEPER_PI1, sizes.session_lines, n, seed)
                 for name in ("saffron", "saffron-ai", "lord", "alpha-investing")]
        outcome.layers = layer_suite(
            "gatekeeper", seed, sizes, outcome,
            LayerInputs(
                own_cells=cells[:1], extra_cells=cells[1:],
                untraced_wall=sum(s.wall_s for s in sessions), processes=1, rows=None,
                specs=(C.GAMMA,), top_index=sizes.session_lines, first_stream=streams[0],
            ),
        )
    return outcome


def long_horizon_workload(seed: int, seconds: float, sizes: Sizes, traced: bool) -> Outcome:
    from onlinefdr import generate_stream, trial_rng

    model = C.stream_config("saffron", LONG_PI1, sizes.long_T, 1, seed).model
    pvalues, _ = generate_stream(model, trial_rng(seed, 0))
    pfile, out = OUT / f"long-seed{seed}-p.npy", OUT / f"long-seed{seed}.npz"
    np.save(pfile, pvalues)
    cmd = [PY, BENCH / "child.py", "long-horizon"]
    rounds, setups, walls = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with spawn(cmd + ["--pvalues", pfile, "--out", out], stdout=PIPE) as proc:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            info = proc.stdout.readline()
            if ready != b"ready\n" or proc.wait(timeout=CHILD_TIMEOUT) != 0:
                raise BenchError("long-horizon process failed")
        walls.append(time.perf_counter() - t0)
        with np.load(out) as npz:
            rounds.append((json.loads(info), dict(npz)))
    while len(setups) < sizes.setups:
        setups.append(time_to_ready(cmd + ["--setup-only"]))
    first = rounds[0][1]
    failures = check_long(pvalues, first, sizes.level_samples)
    failures += [f"long-horizon round {k}: outputs differ from round 1"
                 for k, (_, arrays) in enumerate(rounds[1:], 2)
                 if any(not np.array_equal(arrays[key], first[key]) for key in first)]
    T = sizes.long_T
    secs = [info["seconds"] for info, _ in rounds]
    detail = {
        f"{name.replace('-', '_')}_steps_per_s": (median(T / s[name] for s in secs), "steps/s")
        for name in C.LONG_PROCEDURES
    }
    detail["rejections.saffron"] = (int(first["saffron.rejected"].sum()), "count")
    detail["rounds"] = (len(rounds), "count")
    outcome = Outcome(
        attempted=len(rounds) * len(C.LONG_PROCEDURES) * T,
        failures=failures,
        metrics={
            "setup_s": (median(setups), "s"),
            "decisions_per_s": (median(len(s) * T / sum(s.values()) for s in secs), "decisions/s"),
            "peak_rss_mb": (median(info["peak_rss_kb"] for info, _ in rounds) / 1024, "MB"),
        },
        detail=detail,
    )
    if traced:
        cells = [C.stream_config(name, LONG_PI1, T, 1, seed)
                 for name in C.LONG_PROCEDURES + ("saffron-ai",)]
        outcome.layers = layer_suite(
            "long-horizon", seed, sizes, outcome,
            LayerInputs(
                own_cells=cells[:3], extra_cells=cells[3:], untraced_wall=median(walls),
                processes=1, rows=None, specs=(C.GAMMA,), top_index=T, first_stream=pvalues,
            ),
        )
    return outcome


WORKLOADS = {
    "grid": grid_workload,
    "gatekeeper": gatekeeper_workload,
    "long-horizon": long_horizon_workload,
}


# ---------------------------------------------------------------- per layer


def replay_cell(config, tracer: Tracer):
    """``run_cell`` stepped through the public functions it is built from, with spans."""
    from onlinefdr import (BetaAlternative, SweepRow, TrialResult, aggregate, generate_stream,
                           trial_rng)
    from onlinefdr.records import fdp_from_flags, power_from_flags

    name = config.procedure.name
    model = "beta" if isinstance(config.model.kind, BetaAlternative) else "gaussian"
    results = []
    for i in range(config.trials):
        with tracer.span("simulation.trial_rng"):
            rng = trial_rng(config.seed, i)
        with tracer.span(f"simulation.generate_stream.{model}"):
            p, is_null = generate_stream(config.model, rng)
        with tracer.span("simulation.build"):
            proc = config.procedure.build()
        with tracer.span(f"procedures.run.{name}"):
            trace = proc.run(p)
        with tracer.span("records.flags"):
            fdp = fdp_from_flags(trace.rejected, is_null)
            pw = power_from_flags(trace.rejected, is_null)
        results.append(TrialResult(fdp, pw, int(trace.rejected.sum())))
    with tracer.span("estimators.aggregate"):
        s = aggregate(results)
    row = SweepRow(name, config.procedure.gamma, config.model.pi1, s.fdr, s.fdr_se,
                   s.power, s.power_se, config.trials, config.seed)
    return row, sum(r.rejections for r in results)


def next_level_us(name: str, rejections: int) -> float:
    """Median ``next_level()`` after ``load_history`` with this many rejections."""
    from onlinefdr import from_spec, make_procedure

    proc = make_procedure(name, C.ALPHA, C.W0, from_spec(C.GAMMA), C.LAM)
    rejected = np.zeros(2 * rejections, dtype=bool)
    rejected[1::2] = True
    proc.load_history(rejected, rejected)
    times = []
    for _ in range(200):
        t0 = time.perf_counter_ns()
        proc.next_level()
        times.append(time.perf_counter_ns() - t0)
        proc.observe(1.0)  # neither candidate nor rejection: R stays put
    return median(times) / 1e3


def import_s(module: str, repeats: int) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return median(
        float(subprocess.run([PY, "-c", code], cwd=ROOT, env=_env(), check=True,
                             capture_output=True, timeout=CHILD_TIMEOUT).stdout)
        for _ in range(repeats)
    )


def layer_suite(workload: str, seed: int, sizes: Sizes, outcome: Outcome,
                w: LayerInputs) -> dict[str, tuple[float, str]]:
    """Per-layer metrics on the workload's own inputs; appends to outcome.failures."""
    from onlinefdr import (BetaAlternative, ProcedureSpec, from_spec, generate_stream, run_cell,
                           trial_rng)
    from onlinefdr import gamma as gamma_mod

    m: dict[str, tuple[float, str]] = {}
    tracer = Tracer()

    build = 0.0
    for spec in w.specs:
        name, _, arg = spec.partition(":")
        t0 = time.perf_counter()
        gamma_mod.power_law(float(arg)) if name == "power" else gamma_mod.log_optimal()
        build += time.perf_counter() - t0
    m["gamma.build_s"] = (build, "s")
    for spec in w.specs:  # warm the cache so both passes below build nothing
        from_spec(spec)
    seq = from_spec(C.GAMMA)
    idx = np.random.default_rng([seed, 2]).integers(1, w.top_index + 1, size=4096)
    seq.at(idx)
    at = []
    for _ in range(200):
        t0 = time.perf_counter_ns()
        seq.at(idx)
        at.append(time.perf_counter_ns() - t0)
    m["gamma.at_ns"] = (median(at) / idx.size, "ns")

    for name in ("saffron", "lord"):
        for r in HISTORY_REJECTIONS:
            m[f"procedures.next_level_us.{name}.r{r}"] = (next_level_us(name, r), "us")

    # Each cell runs twice: run_cell untraced (the single-process baseline)
    # and the traced replay, in alternating order so that neither pass is
    # always the one that meets cold caches.
    cells = w.own_cells + w.extra_cells
    run_cell(replace(cells[0], trials=1))
    serial, rows, replayed, replay_wall = [], [], [], 0.0
    for i, cfg in enumerate(cells):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                replayed.append(replay_cell(cfg, tracer))
                replay_wall += time.perf_counter() - t0
            else:
                rows.append(run_cell(cfg))
                serial.append(time.perf_counter() - t0)
    if [r for r, _ in replayed] != rows:
        outcome.failures.append(f"{workload}: traced replay rows differ from run_cell rows")
    if w.rows is not None and [asdict(r) for r in rows[: len(w.own_cells)]] != w.rows:
        outcome.failures.append(f"{workload}: run_cell rows differ from the sweep rows")
    if not any(isinstance(c.model.kind, BetaAlternative) for c in cells):
        beta = replace(cells[0].model, kind=BetaAlternative(*C.BETA_SHAPE))
        for k in range(8):
            with tracer.span("simulation.generate_stream.beta"):
                generate_stream(beta, trial_rng(seed, k))

    self_ns = tracer.self_times()
    for name in ("saffron", "saffron-ai", "lord", "alpha-investing"):
        m[f"procedures.run_s.{name}"] = (self_ns[f"procedures.run.{name}"] / 1e9, "s")

    proc = ProcedureSpec("saffron", C.ALPHA, C.W0, C.LAM, C.GAMMA).build()
    probe = w.first_stream[: sizes.probe_steps]
    steps = []
    for p in probe.tolist():
        t0 = time.perf_counter_ns()
        proc.step(p)
        steps.append(time.perf_counter_ns() - t0)
    m["procedures.step_us"] = (median(steps) / 1e3, "us")
    m["procedures.rejections"] = (sum(n for _, n in replayed), "count")

    for model in ("gaussian", "beta"):
        m[f"simulation.generate_us.{model}"] = (
            statistics.fmean(tracer.durations(f"simulation.generate_stream.{model}")) / 1e3, "us")
    m["simulation.build_us"] = (statistics.fmean(tracer.durations("simulation.build")) / 1e3, "us")
    m["simulation.serial_cell_s"] = (sum(serial), "s")
    own = sum(serial[: len(w.own_cells)])
    m["simulation.pool_efficiency"] = (own / (w.processes * w.untraced_wall), "ratio")
    m["estimators.aggregate_us"] = (
        statistics.fmean(tracer.durations("estimators.aggregate")) / 1e3, "us")
    m["records.flags_us"] = (statistics.fmean(tracer.durations("records.flags")) / 1e3, "us")

    m["cli.import_s"] = (import_s("onlinefdr", sizes.imports), "s")
    m["cli.scipy_import_s"] = (import_s("scipy.special", sizes.imports), "s")
    session = gatekeeper_session(probe)
    outcome.failures += session.failures
    m["cli.io_us"] = (median(session.latency_ns) / 1e3 - m["procedures.step_us"][0], "us")
    m["trace.overhead_pct"] = ((replay_wall / sum(serial) - 1.0) * 100.0, "%")
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "onlinefdr" / "__init__.py").is_file():
        print(f"error: no onlinefdr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # A traced run needs one round of the workload, for its checks and its wall
    # time; the time goes to the per-layer passes that follow.
    seconds = 0.0 if args.trace else args.seconds
    outcome = WORKLOADS[args.workload](args.seed, seconds, TINY if args.tiny else Sizes(),
                                       bool(args.trace))
    reported = outcome.layers if args.trace else outcome.metrics
    shown = dict(outcome.metrics, **outcome.detail, **(outcome.layers or {}))
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for f in outcome.failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"{args.workload} attempted = {outcome.attempted} failed = 0")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, detail={k: v for k, (v, _) in shown.items()}), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
