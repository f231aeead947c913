"""Mutation checks for the payout kernel, the gamma cache, the history check
and the package's lazy exports.

Each mutant is one plausible slip: a file under ``src/onlinefdr``, an exact
text that occurs once in the source, the text that replaces it, and the test
ids that must fail once it is applied.  For each mutant the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
applies the mutant there, and runs only its tests.  The mutant is killed when
every listed id has at least one failing case, and survives otherwise.  A
race is run ``runs`` times and reported as a kill rate; it survives only if
no run kills it.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py far-span-short   # the named ones

The exit code is 1 if any mutant survived.  The file is not collected
by pytest; ``test_mutants.py`` checks in tier-1 that each text still occurs
exactly once, so a kernel change that moves a text must re-point its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/onlinefdr
    old: str
    new: str
    tests: tuple[str, ...]
    runs: int = 1


GOLDEN = "tests/test_golden.py::test_decisions_match_golden"
EDGES = "tests/test_payout_kernel.py::test_edge_histories_match_replay_oracle"
BOUNDARIES = "tests/test_payout_kernel.py::test_superblock_boundaries"

MUTANTS = (
    # The first rejection earns alpha - W0, every later one alpha.
    Mutant(
        "reward-first-alpha",
        "procedures.py",
        "self._reward = self.alpha - self.w0",
        "self._reward = self.alpha",
        (GOLDEN, EDGES),
    ),
    Mutant(
        "reward-reset-dropped",
        "procedures.py",
        "+= self._reward\n            self._reward = self.alpha\n",
        "+= self._reward\n",
        (GOLDEN, EDGES),
    ),
    # A rejection's weight goes to the slot of the clock after its tick: lord's
    # rejections tick, so this puts each one in the slot its tick just closed.
    Mutant(
        "rejection-slot-before-tick",
        "procedures.py",
        "self._weights[-1] += self._reward",
        "self._weights[-1 - ticks] += self._reward",
        (GOLDEN, EDGES),
    ),
    Mutant(
        "batch-reward-first-alpha",
        "procedures.py",
        "reward = np.full(B, self.alpha - self.w0)",
        "reward = np.full(B, self.alpha)",
        ("tests/test_golden.py::test_batched_decisions_match_golden",
         "tests/test_procedures.py::test_run_batch_rows_do_not_depend_on_the_batch"),
    ),
    # The batched sums: a slot count that ends inside a dot product's block,
    # lord's shared window row read one clock value late, and spans long
    # enough for OpenBLAS to split across threads (killed only where BLAS
    # runs more than one thread).
    Mutant(
        "slot-block-partial",
        "procedures.py",
        "_SLOT_BLOCK = 64",
        "_SLOT_BLOCK = 8",
        ("tests/test_procedures.py::test_run_batch_rows_do_not_depend_on_the_batch",),
    ),
    Mutant(
        "batch-lord-row-shifted",
        "procedures.py",
        "c, r = t, n - 1 - t",
        "c, r = t, n - t",
        ("tests/test_golden.py::test_batched_decisions_match_golden",),
    ),
    Mutant(
        "dot-span-threaded",
        "procedures.py",
        "_DOT_SPAN = 8192",
        "_DOT_SPAN = 16384",
        ("tests/test_payout_kernel.py::test_batched_levels_decide_alike_on_one_blas_thread",
         "tests/test_payout_kernel.py::test_long_batched_rows_do_not_depend_on_the_batch"),
    ),
    # The far field: the product's span, its gamma rows, the superblock
    # entry, the first open slot, and the last slot before c0.
    Mutant(
        "far-span-short",
        "procedures.py",
        "span = c0 + _SUPERBLOCK - _ROW",
        "span = c0 + _SUPERBLOCK - 2 * _ROW",
        (BOUNDARIES,),
    ),
    Mutant(
        "far-gamma-shifted",
        "procedures.py",
        "sliding_window_view(g[1 + v : v + m + _ROW], _ROW)",
        "sliding_window_view(g[v : v + m + _ROW - 1], _ROW)",
        (BOUNDARIES,),
    ),
    Mutant(
        "superblock-entered-late",
        "procedures.py",
        "if c >= c0 + len(base):",
        "if c > c0 + len(base):",
        (BOUNDARIES,),
    ),
    Mutant(
        "stale-first-open-slot",
        "procedures.py",
        "k, _, c0, base = s = self._s = self._far_field(c)",
        "_, _, c0, base = s = self._s = self._far_field(c)",
        (BOUNDARIES,),
    ),
    Mutant(
        "far-slot-c0-1-dropped",
        "procedures.py",
        "wrev[_SUPERBLOCK - _ROW : _SUPERBLOCK - _ROW + c0] = np.frombuffer(self._weights, count=c0)[::-1]",
        "wrev[_SUPERBLOCK - _ROW + 1 : _SUPERBLOCK - _ROW + c0] = np.frombuffer(self._weights, count=c0 - 1)[::-1]",
        (EDGES,),
    ),
    # Without the lock, threads growing the cache at once may lose a stretch.
    Mutant(
        "cache-lock-removed",
        "gamma.py",
        "        with self._lock:\n",
        "        if True:\n",
        ("tests/test_gamma.py::test_concurrent_reads_equal_a_serial_read",),
        runs=5,
    ),
    # Without the bit check, a history entry such as 0.5 or NaN replays as a rejection.
    Mutant(
        "history-bit-check-dropped",
        "procedures.py",
        "        if bad.any():\n",
        "        if False:\n",
        ("tests/test_procedures.py::test_history_of_non_bits_raises_naming_the_entry",),
    ),
    # A lazy export that names the wrong module: simulation re-exports only
    # two of procedures' names, and importing it loads the sweep machinery.
    Mutant(
        "export-wrong-module",
        "__init__.py",
        '("procedures", "PROCEDURE_NAMES',
        '("simulation", "PROCEDURE_NAMES',
        ("tests/test_exports.py::test_each_name_is_its_defining_module_object",
         "tests/test_cli.py::test_cli_import_leaves_heavy_modules_unloaded"),
    ),
)


def failures(mutant: Mutant, tree: Path) -> list[str]:
    """The failing cases of one run of the mutant's tests, read off pytest's
    per-case lines, which are printed even if the session ends early."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", *mutant.tests]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True).stdout
    return [words[0] for words in map(str.split, out.splitlines()) if words[1:2] == ["FAILED"]]


def killed(mutant: Mutant, failed: list[str]) -> bool:
    """Whether every listed test id has a failing case."""
    return all(any(f == t or f.startswith(t + "[") for f in failed) for t in mutant.tests)


def check(mutant: Mutant) -> tuple[int, int]:
    """Apply one mutant to a copy of the tree; return the runs that killed it
    and the failing cases of its last run."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        path = tree / "src" / "onlinefdr" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
        path.write_text(text.replace(mutant.old, mutant.new))
        kills = 0
        for _ in range(mutant.runs):
            failed = failures(mutant, tree)
            kills += killed(mutant, failed)
        return kills, len(failed)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = 0
    for m in chosen:
        start = time.perf_counter()
        kills, cases = check(m)
        survivors += kills == 0
        verdict = "killed" if kills else "SURVIVED"
        print(f"{m.name:26} {verdict:8} in {kills}/{m.runs} runs, {cases:3} failing cases"
              f"  {time.perf_counter() - start:5.1f} s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
