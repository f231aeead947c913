"""Which statements of ``src/onlinefdr`` tier-1 reaches, and which only tests reach.

    python tests/reach.py

The script traces the package with ``sys.settrace`` over two things, side by
side:

* tier-1: ``pytest`` over ``tests`` and ``bench``, as ROADMAP.md runs it, in
  two halves side by side;
* the program: every ``TRANSCRIPT`` case of ``test_cli.py`` through
  ``cli.main``, one ``python -m onlinefdr.cli stream`` session, a small
  ``sweep`` at ``jobs=1`` and at ``jobs=2``, and ``bench/child.py``'s ``grid``
  and ``long-horizon`` workloads at small sizes.

Each traced interpreter, the spawned ones too, loads the tracer from a
``sitecustomize.py`` on its ``PYTHONPATH``, and a forked pool worker inherits
it.  Each writes the lines it ran when it exits, also through the
``os._exit`` that ends a pool worker.  A function whose name ``bench/*.py``
references counts as reached by the program, since the benchmark's layer
suite calls it.

It prints three reports:

1. the statements tier-1 never reaches;
2. the statements that only tests reach, grouped by function;
3. the public names with no reference outside ``tests/``, each with the reason
   it is kept (``KEPT``), and the names that only ``bench/`` references.

The exit code is 1 if a traced run failed, tier-1 leaves a statement
unreached, or a test-only public name has no reason in ``KEPT``.  The file is
not collected by pytest; ``test_reach.py`` checks in tier-1 that the entry
points it runs still exist.
"""

from __future__ import annotations

import ast
import atexit
import io
import marshal
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "onlinefdr"
# Tier-1 runs in two halves side by side, which together are ROADMAP.md's
# ``pytest`` over ``tests`` and ``bench``: tracing doubles its time.
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
TIER1 = {"bench and acceptance": ["bench", "tests/test_acceptance.py"],
         "the other tests": ["tests", "--ignore=tests/test_acceptance.py"]}

# Public names that only tests reference, and why each stays.
KEPT = {
    "estimators.fdp_hat_lord": "a running FDP estimate; the gatekeeper's reported state is to "
                               "share its formula",
    "estimators.fdp_hat_saffron": "the running FDP estimate SAFFRON controls; the gatekeeper's "
                                  "reported state is to share its formula",
    "estimators.fdp_oracle": "the oracle the running estimates are checked against",
}

SITECUSTOMIZE = """\
import os, sys
sys.path.insert(0, {tests!r})
import reach
sys.path.remove({tests!r})
reach.trace_this_process(os.environ["REACH_OUT"])
"""

PROGRAM = "import sys; sys.path.insert(0, {tests!r}); import reach; reach.run_program()"


# ---------------------------------------------------------------- tracing


def trace_this_process(out: str) -> None:
    """Record the lines of the package this process runs, and write them to a
    new file in ``out`` when it exits."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    in_package: dict[str, bool] = {}  # code file -> whether it is a package file
    local_of: dict[object, object] = {}  # code object -> its local trace function, or None

    def tracer(code):
        # Each line of the code object raises a line event when it runs, but
        # the line of its first instruction, which starts the call.  Once all
        # have run, neither a new frame of it nor the rest of this one is traced.
        lines = list(code.co_lines())
        todo = {line for _, _, line in lines if line is not None}
        todo.discard(lines[0][2])
        if not todo:
            return None
        add = hits.setdefault(os.path.realpath(code.co_filename), set()).add

        def local(frame, event, arg):
            line = frame.f_lineno
            if line in todo:
                todo.discard(line)
                add(line)
                if not todo:
                    local_of[code] = frame.f_trace = None
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return local_of[code]
        except KeyError:
            name = code.co_filename
            if name not in in_package:
                in_package[name] = os.path.realpath(name).startswith(prefix)
            local = local_of[code] = tracer(code) if in_package[name] else None
            return local

    def dump():
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".marshal", dir=out)
        with os.fdopen(fd, "wb") as fh:
            marshal.dump({path: lines for path, lines in hits.items() if lines}, fh)

    real_exit = os._exit

    def dump_and_exit(code):
        dump()
        real_exit(code)

    def in_forked_child():
        # the parent writes what it ran itself; a pool worker ends by os._exit
        for lines in hits.values():
            lines.clear()
        os._exit = dump_and_exit

    os.register_at_fork(after_in_child=in_forked_child)
    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)


def read_hits(out: Path) -> dict[str, set[int]]:
    """The lines of each package file that any process wrote to ``out``."""
    hits: dict[str, set[int]] = {}
    for path in out.iterdir():
        for name, lines in marshal.loads(path.read_bytes()).items():
            hits.setdefault(Path(name).name, set()).update(lines)
    return hits


# ---------------------------------------------------------------- the program
# This module is imported into every traced interpreter, so the package and
# numpy are imported only by the functions that use them.


def transcript():
    """The CLI transcript's cases, each ``(argv, stdin, files, code, out, err)``."""
    import test_cli

    return [case.values for case in test_cli.TRANSCRIPT]


def bench_child():
    """``bench/child.py``, the benchmark's program-side processes."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import child
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return child


def child_runs(tmp: Path) -> list[list[str]]:
    """``bench/child.py``'s two workloads at small sizes; one round of each."""
    script = str(ROOT / "bench" / "child.py")
    return [
        [script, "grid", "--seed", "1", "--trials", "3", "--jobs", "2",
         "--out", str(tmp / "grid.json")],
        [script, "long-horizon", "--pvalues", str(tmp / "long.npy"),
         "--out", str(tmp / "long.npz")],
    ]


def run_transcript_case(argv, stdin, files, cwd: Path) -> None:
    """One case through ``cli.main``, as ``test_cli.test_transcript`` runs it."""
    from onlinefdr import cli

    cwd.mkdir()
    for name, text in files.items():
        (cwd / name).write_bytes(text.encode() if isinstance(text, str) else text)
    saved, home = (sys.stdin, sys.stdout, sys.stderr), os.getcwd()
    os.chdir(cwd)
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()))
    sys.stdout, sys.stderr = (io.TextIOWrapper(io.BytesIO(), write_through=True) for _ in "12")
    try:
        cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        os.chdir(home)


def run_program() -> None:
    """The program's own entry points, each as a user or the benchmark calls it."""
    import numpy as np

    from onlinefdr import (PROCEDURE_NAMES, DataModel, GaussianMean, ProcedureSpec, SimConfig,
                           generate_stream, grid, sweep, trial_rng, write_csv)

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for k, (argv, stdin, files, *_) in enumerate(transcript()):
            run_transcript_case(argv, stdin, files, tmp / f"case{k}")
        gate = [sys.executable, "-m", "onlinefdr.cli", "stream", "--alpha", "0.05",
                "--precision", "17"]
        stream, _ = generate_stream(DataModel(GaussianMean(3.0), 0.1, 200), trial_rng(1, 0))
        lines = "".join(f"{p!r}\n" for p in stream.tolist())
        subprocess.run(gate, input=lines, capture_output=True, text=True, check=True)
        procs = [ProcedureSpec(name, 0.05, 0.025) for name in PROCEDURE_NAMES]
        base = SimConfig(DataModel(GaussianMean(3.0), 0.5, 200), procs[0], 30, 1)
        for jobs in (1, 2):
            write_csv(sweep(grid(base, (0.2, 0.8), procs), jobs=jobs), io.StringIO())
        long, _ = generate_stream(DataModel(GaussianMean(3.0), 0.5, 3000), trial_rng(1, 0))
        np.save(tmp / "long.npy", long)
        for argv in child_runs(tmp):
            subprocess.run([sys.executable, *argv], capture_output=True, check=True)


# ---------------------------------------------------------------- the source


class Statement(NamedTuple):
    """One statement: where it is, the lines that run it, and its function."""

    module: str
    line: int
    own: range
    scope: str


def statements(path: Path) -> list[Statement]:
    """The statements of one module that have code, with the lines of each
    that belong to it alone: a compound statement's header, a simple
    statement's every line.  A function's docstring has no code."""
    source = path.read_text()
    code_lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    module = path.stem
    found = []

    def visit(body, scope):
        for node in body:
            blocks = [getattr(node, field) for field in ("body", "orelse", "finalbody")
                      if getattr(node, field, None)]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = blocks[0][0].lineno - 1 if blocks else node.end_lineno
            own = range(first, max(first, end) + 1)
            if code_lines.intersection(own):
                found.append(Statement(module, node.lineno, own, scope))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            for block in blocks:
                visit(block, inner)
            for handler in getattr(node, "handlers", []):
                visit([handler], inner)

    visit(ast.parse(source).body, "<module>")
    return found


def references(paths) -> set[str]:
    """Every name the files read: loaded names, attributes and imported names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
    return names


def public_names(path: Path) -> list[str]:
    """The module's public functions, classes and constants, and the public
    methods and aliases of its classes, as ``module.name`` or
    ``module.Class.name``."""
    found = []

    def visit(body, prefix):
        for node in body:
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            for name in names:
                if not name.startswith("_"):
                    found.append(f"{prefix}.{name}")
            if isinstance(node, ast.ClassDef) and prefix == path.stem and node.name[0] != "_":
                visit(node.body, f"{prefix}.{node.name}")

    visit(ast.parse(path.read_text()).body, path.stem)
    return found


# ---------------------------------------------------------------- main


def traced(argv: list[str], out: Path, site: Path, cwd: Path) -> subprocess.Popen:
    paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, REACH_OUT=str(out), PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        site, tier1_out, program_out = tmp / "site", tmp / "tier1", tmp / "program"
        for d in (site, tier1_out, program_out):
            d.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(tests=str(ROOT / "tests")))
        start = time.perf_counter()
        # side by side; the program's run is much the shorter, so it is awaited first
        runs = {
            "the program": traced([sys.executable, "-c", PROGRAM.format(tests=str(ROOT / "tests"))],
                                  program_out, site, tmp),
            **{f"tier-1, {half}": traced(PYTEST + paths, tier1_out, site, ROOT)
               for half, paths in TIER1.items()},
        }
        failed = False
        for label, proc in runs.items():
            output = proc.communicate()[0]
            tail = output.strip().splitlines()[-1:] or [""]
            print(f"{label}: exit {proc.returncode}, done after {time.perf_counter() - start:.1f} s"
                  f"  {tail[0]}")
            if proc.returncode:
                failed = True
                print(output[-4000:])
        tier1, program = read_hits(tier1_out), read_hits(program_out)

    bench_names = references((ROOT / "bench").glob("*.py"))
    unreached, test_only = [], {}
    for path in modules:
        lines = path.read_text().splitlines()
        for st in statements(path):
            text = f"{st.module}.py:{st.line}  {lines[st.line - 1].strip()}"
            if not tier1.get(path.name, set()).intersection(st.own):
                unreached.append(f"{text}    [{st.scope}]")
            elif not (program.get(path.name, set()).intersection(st.own)
                      or st.scope.rpartition(".")[2] in bench_names):
                test_only.setdefault(f"{st.module}.{st.scope}", []).append(text)

    print(f"\n1. Statements tier-1 never reaches: {len(unreached) or 'none'}")
    for text in unreached:
        print(f"   {text}")

    count = sum(map(len, test_only.values()))
    print(f"\n2. Statements only tests reach: {count} in {len(test_only)} functions")
    for scope, texts in test_only.items():
        print(f"   {scope}")
        for text in texts:
            print(f"      {text[:96]}")

    program_names = references([*modules, *(ROOT / "scripts").glob("*.py")])
    by_tests, by_bench = [], []
    for path in modules:
        for qualified in public_names(path):
            name = qualified.rpartition(".")[2]
            if name in program_names:
                continue
            (by_bench if name in bench_names else by_tests).append(qualified)
    unexplained = [q for q in by_tests if q not in KEPT]
    print(f"\n3. Public names with no reference outside tests/: {len(by_tests) or 'none'}")
    for qualified in by_tests:
        print(f"   {qualified}: {KEPT.get(qualified, 'NO REASON ON RECORD')}")
    print(f"   Referenced outside tests/ only by bench/: {', '.join(by_bench) or 'none'}")
    return 1 if failed or unreached or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
