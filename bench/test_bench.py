"""The benchmark's own tests: tiny runs of every workload, and checks that bite.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import child as C
import reference as ref
import run

sys.path.insert(0, str(run.SRC))

from onlinefdr import (  # noqa: E402
    AlphaInvesting,
    Lord,
    Saffron,
    from_spec,
    generate_stream,
    run_cell,
    trial_rng,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CORRUPT = 1.0 + 1e-9


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run.BENCH / "run.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", 5, "--seconds", 0, "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, out.stderr
    assert res["attempted"] >= 1 and res["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------- checks


def stream(pi1, T, seed=3):
    model = C.stream_config("saffron", pi1, T, 1, seed).model
    return generate_stream(model, trial_rng(seed, 0))


def cli_replies(pvalues):
    """What ``onlinefdr stream --precision 17`` prints for these p-values."""
    proc = Saffron(C.ALPHA, C.W0, from_spec(C.GAMMA), C.LAM)
    return [
        f"{r.index},{r.alpha:.17g},{r.lam:.17g},{r.rejected:d},{r.candidate:d}\n".encode()
        for r in (proc.step(p) for p in pvalues.tolist())
    ]


def flip_reject(line: bytes) -> bytes:
    f = line.decode().split(",")
    f[3] = "0" if f[3] == "1" else "1"
    return ",".join(f).encode()


def scale_alpha(line: bytes) -> bytes:
    f = line.decode().split(",")
    f[1] = repr(float(f[1]) * CORRUPT)
    return ",".join(f).encode()


@pytest.fixture(scope="module")
def session():
    p, _ = stream(0.1, 400)
    return p, cli_replies(p)


def test_gatekeeper_check_passes_on_package_output(session):
    p, replies = session
    assert run.check_session(p, run.STREAM_HEADER, replies, 0) == []


@pytest.mark.parametrize("corrupt", [scale_alpha, flip_reject])
@pytest.mark.parametrize("line", [0, 399])
def test_gatekeeper_check_fails_on_corrupted_line(session, corrupt, line):
    p, replies = session
    bad = list(replies)
    bad[line] = corrupt(bad[line])
    assert run.check_session(p, run.STREAM_HEADER, bad, 0)


def test_gatekeeper_check_fails_on_exit_code_and_short_output(session):
    p, replies = session
    assert run.check_session(p, run.STREAM_HEADER, replies, 2)
    assert run.check_session(p, run.STREAM_HEADER, replies[:-1], 0)


@pytest.fixture(scope="module")
def long_round():
    p, _ = stream(0.5, 3000)
    gamma = from_spec(C.GAMMA)
    procs = {"saffron": Saffron(C.ALPHA, C.W0, gamma, C.LAM), "lord": Lord(C.ALPHA, C.W0, gamma),
             "alpha-investing": AlphaInvesting(C.ALPHA, gamma)}
    arrays = {}
    for name, proc in procs.items():
        trace = proc.run(p)
        for key in ("alpha", "lam", "rejected", "candidate"):
            arrays[f"{name}.{key}"] = getattr(trace, key)
    arrays["alpha-investing.wealth"] = np.array([procs["alpha-investing"].wealth])
    return p, arrays


def test_long_horizon_check_passes_on_package_output(long_round):
    p, arrays = long_round
    assert run.check_long(p, arrays, 50) == []


@pytest.mark.parametrize("name", C.LONG_PROCEDURES)
def test_long_horizon_check_fails_on_level_off_by_1e9(long_round, name):
    p, arrays = long_round
    bad = dict(arrays)
    bad[f"{name}.alpha"] = arrays[f"{name}.alpha"].copy()
    bad[f"{name}.alpha"][-1] *= CORRUPT  # the last step is always a sampled one
    assert run.check_long(p, bad, 50)


@pytest.mark.parametrize("name", C.LONG_PROCEDURES)
def test_long_horizon_check_fails_on_flipped_rejection(long_round, name):
    p, arrays = long_round
    bad = dict(arrays)
    bad[f"{name}.rejected"] = arrays[f"{name}.rejected"].copy()
    bad[f"{name}.rejected"][1234] ^= True
    assert run.check_long(p, bad, 50)


@pytest.fixture(scope="module")
def cell():
    gaussian, _ = C.grid_configs(seed=4, trials=3)
    config = next(c for c in gaussian if c.procedure.name == "saffron" and c.model.pi1 == 0.5)
    return config, asdict(run_cell(config)), run.package_trials(config)


def test_grid_cell_check_passes_on_package_output(cell):
    config, row, trials = cell
    assert run.check_cell(config, row, trials) == []


@pytest.mark.parametrize("key", ["fdr", "fdr_se", "power", "power_se"])
def test_grid_cell_check_fails_on_statistic_off_by_1e9(cell, key):
    config, row, trials = cell
    bad = dict(row, **{key: row[key] * CORRUPT + 1e-9 * (row[key] == 0)})
    assert run.check_cell(config, bad, trials)


def test_grid_cell_check_fails_on_flipped_rejection(cell):
    config, row, trials = cell
    p, is_null, levels, bits = trials[0]
    bits = bits.copy()
    bits[int(np.flatnonzero(bits)[0])] = False
    assert run.check_cell(config, row, [(p, is_null, levels, bits)] + trials[1:])


def test_grid_cell_check_fails_on_level_off_by_1e9(cell):
    config, row, trials = cell
    p, is_null, levels, bits = trials[-1]
    levels = levels.copy()
    levels[-1] *= CORRUPT
    assert run.check_cell(config, row, trials[:-1] + [(p, is_null, levels, bits)])


def test_grid_check_fails_on_fdr_bound_and_unequal_rounds(cell):
    config, row, _ = cell
    rounds = [{"rows": [dict(row, fdr=0.2, fdr_se=0.01)]}]
    assert run.check_grid(rounds, [config], picks=[])
    assert run.check_grid([{"rows": [row]}, {"rows": [dict(row, power=0.0)]}], [config], [])


def test_grid_recomputes_one_cell_of_every_procedure_and_model():
    configs = sum(C.grid_configs(seed=1, trials=1), [])
    picked = {(configs[i].procedure.name, type(configs[i].model.kind).__name__)
              for i in run.cells_to_recompute(configs, seed=9)}
    assert picked == {(n, "GaussianMean") for n in C.GAUSSIAN_PROCEDURES} | {
        (n, "BetaAlternative") for n in C.BETA_PROCEDURES}


def test_reference_matches_the_package_sequence():
    assert ref.PowerGamma(1.6).zeta == pytest.approx(from_spec("power:1.6").normalizer, rel=1e-15)
    j = np.arange(1, 5000)
    assert np.allclose(ref.PowerGamma(1.6)(j), from_spec("power:1.6").at(j), rtol=1e-14, atol=0)
