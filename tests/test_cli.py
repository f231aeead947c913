"""Command-line interface: exit codes, config handling, stream protocol."""

import io
import os
import select
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from onlinefdr import cli
from onlinefdr import gamma as G
from onlinefdr.procedures import PROCEDURE_NAMES, Saffron, make_procedure

SWEEP_TINY = [
    "sweep", "--alpha", "0.05", "--pi1", "0.3,0.5", "--procedure", "saffron,lord",
    "--T", "80", "--trials", "4", "--seed", "9",
]


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode())))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_alpha_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--pi1", "0.5"])
    assert code == 1
    assert "--alpha" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--alpha", "0.05", "--whatever", "1"])
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, ["frobnicate"])[0] == 1


def test_bad_gamma_names_the_key(capsys):
    code, _, err = run_cli(capsys, SWEEP_TINY + ["--gamma", "power:0.5"])
    assert code == 1
    assert "gamma" in err


def test_bad_pi1_names_the_key(capsys):
    code, _, err = run_cli(capsys, SWEEP_TINY[:3] + ["--pi1", "1.5"])
    assert code == 1
    assert "pi1" in err


def test_sweep_csv_shape_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, SWEEP_TINY)
    code2, out2, _ = run_cli(capsys, SWEEP_TINY)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed"
    assert len(lines) == 1 + 4  # 2 procedures x 2 pi1 values
    assert lines[1].split(",")[:3] == ["saffron", "power:1.6", "0.3"]


def test_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, stdout, _ = run_cli(capsys, SWEEP_TINY + ["--out", str(out)])
    assert code == 0
    assert stdout == ""
    assert out.read_text().startswith("procedure,gamma,")


UNDERFLOW = ("error: raw weights for 'power:60.0' underflow to zero by index 10000000; "
             "the sequence would not be positive\n")


@pytest.mark.parametrize("argv, err", [
    (["stream", "--alpha", "0.05", "--gamma", "power:60"], UNDERFLOW),
    (["stream", "--alpha", "0.05", "--input", "nope.txt"],
     "error: [Errno 2] No such file or directory: 'nope.txt'\n"),
    (["sweep", "--alpha", "0.05", "--gamma", "power:60", "--T", "10", "--trials", "1"], UNDERFLOW),
], ids=["stream-gamma", "stream-input", "sweep-gamma"])
def test_failed_setup_leaves_the_out_file(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_bytes(b"12345678")
    assert run_cli(capsys, [*argv, "--out", "o.csv"], "0.01\n", monkeypatch) == (2, "", err)
    assert (tmp_path / "o.csv").read_bytes() == b"12345678"


@pytest.mark.parametrize("link", [None, os.symlink, os.link], ids=["same-name", "symlink", "hard-link"])
def test_stream_refuses_to_write_over_its_input(link, tmp_path, monkeypatch, capsys):
    # opening --out would empty the input before a line of it is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_bytes(b"0.001\n0.8\n0.03\n")
    out = "p.txt"
    if link:
        link("p.txt", "o.txt")
        out = "o.txt"
    argv = ["stream", "--alpha", "0.05", "--input", "p.txt", "--out", out]
    assert run_cli(capsys, argv) == (1, "", f"error: --out names the input file: {out}\n")
    assert (tmp_path / "p.txt").read_bytes() == b"0.001\n0.8\n0.03\n"


def test_stream_refuses_to_write_over_its_stdin(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.txt").write_bytes(b"0.001\n0.8\n")
    with open("p.txt") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run_cli(capsys, ["stream", "--alpha", "0.05", "--out", "p.txt"])
    assert (code, err) == (1, "error: --out names the input file: p.txt\n")
    assert (tmp_path / "p.txt").read_bytes() == b"0.001\n0.8\n"


def test_stream_may_share_a_device_between_input_and_out(capsys):
    # only a regular file is refused: a device, like a terminal, is not emptied by opening it
    argv = ["stream", "--alpha", "0.05", "--input", os.devnull, "--out", os.devnull]
    assert run_cli(capsys, argv) == (0, "", "")


def test_config_file_supplies_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "alpha = 0.05\n"
        "pi1 = 0.3\n"
        'gamma = "power:2"\n'
        "T = 60\n"
        "trials = 3\n"
        "seed = 4\n"
    )
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "power:2.0"
    # flag overrides the file
    code, out, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--gamma", "power:1.6"])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "power:1.6"


def test_unknown_config_key_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 0.05\nwibble = 2\n")
    code, _, err = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert code == 1
    assert "wibble" in err


def test_config_round_trip_is_canonical(tmp_path, capsys):
    _, dumped, _ = run_cli(capsys, SWEEP_TINY + ["--dump-config"])
    cfg = tmp_path / "canon.cfg"
    cfg.write_text(dumped)
    code, redumped, _ = run_cli(capsys, ["sweep", "--config", str(cfg), "--dump-config"])
    assert code == 0
    assert redumped == dumped


def test_stream_all_ones_never_rejects(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["stream", "--alpha", "0.05"],
        stdin_text="1.0\n" * 25,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,alpha,lambda,reject,candidate"
    assert len(lines) == 26
    assert all(line.split(",")[3] == "0" for line in lines[1:])


def test_stream_alpha_column_replays_library_levels(tmp_path, capsys):
    pvalues = [0.002, 0.8, 0.004, 0.3, 1.0, 0.0, 0.25]
    source = tmp_path / "p.txt"
    source.write_text("".join(f"{p}\n" for p in pvalues))
    code, out, _ = run_cli(
        capsys,
        ["stream", "--alpha", "0.05", "--w0", "0.025", "--lambda", "0.5",
         "--gamma", "power:1.6", "--input", str(source), "--precision", "17"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    proc = Saffron(0.05, 0.025, G.from_spec("power:1.6"), lam=0.5)
    for row, p in zip(rows, pvalues):
        alpha_t, lam_t = proc.next_level()
        rec = proc.observe(p)
        assert float(row[1]) == alpha_t
        assert float(row[2]) == lam_t
        assert row[3] == str(int(rec.rejected))
        assert row[4] == str(int(rec.candidate))


def test_stream_truncation_yields_identical_prefix(tmp_path, capsys):
    full = tmp_path / "full.txt"
    head = tmp_path / "head.txt"
    values = ["0.001", "0.9", "0.02", "0.5", "0.003"]
    full.write_text("\n".join(values) + "\n")
    head.write_text("\n".join(values[:3]) + "\n")
    _, out_full, _ = run_cli(capsys, ["stream", "--alpha", "0.05", "--input", str(full)])
    _, out_head, _ = run_cli(capsys, ["stream", "--alpha", "0.05", "--input", str(head)])
    assert out_full.splitlines()[:4] == out_head.splitlines()[:4]


def test_stream_bad_line_skipped_and_reported(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys,
        ["stream", "--alpha", "0.05"],
        stdin_text="0.4\nbananas\n1.2\n0.6\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "line 2" in err and "bananas" in err
    assert "line 3" in err
    lines = out.strip().splitlines()
    # two valid p-values processed; bad lines did not advance the step counter
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


def _messy_stream(n):
    """n lines of p-values with blank, non-numeric and out-of-range lines mixed in."""
    rng = np.random.default_rng(14)
    pvalues = np.where(rng.random(n) < 0.3, rng.random(n) ** 8, rng.random(n))
    lines = [repr(p) for p in pvalues.tolist()]
    for start, step, bad in ((0, 37, "bananas"), (5, 53, ""), (9, 61, "1.5"), (11, 71, " nan ")):
        lines[start::step] = [bad] * len(lines[start::step])
    lines[20:23] = ["-0", " 0.25\u3000", "\u0660.\u0665"]  # text-only spaces and digits parse too
    return lines


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("name", PROCEDURE_NAMES)
def test_stream_prints_what_observe_decides(name, precision, capsys, monkeypatch):
    lines = _messy_stream(3000)
    code, out, err = run_cli(
        capsys, ["stream", "--alpha", "0.05", "--procedure", name, "--precision", str(precision)],
        stdin_text="".join(f"{line}\n" for line in lines), monkeypatch=monkeypatch,
    )
    twin = make_procedure(name, 0.05, 0.025, G.from_spec("power:1.6"))
    fmt = f".{precision}g"
    rows, errors = ["t,alpha,lambda,reject,candidate\n"], []
    for lineno, line in enumerate(lines, start=1):
        try:
            p = float(line)
        except ValueError:
            p = float("nan")
        if 0.0 <= p <= 1.0:
            r = twin.observe(p)
            rows.append(f"{r.index},{r.alpha:{fmt}},{r.lam:{fmt}},{r.rejected:d},{r.candidate:d}\n")
        elif line.strip():
            errors.append(f"error: line {lineno}: not a p-value in [0, 1]: {line.strip()!r}\n")
    assert len(rows) > 2700 and len(errors) > 100
    assert (code, out, err) == (2, "".join(rows), "".join(errors))


def test_undecodable_line_is_reported_as_text(tmp_path, capsys, monkeypatch):
    raw = b"0.4\n\xff\n0.5\n"
    (tmp_path / "p.txt").write_bytes(raw)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    argv = ["stream", "--alpha", "0.05"]
    piped = run_cli(capsys, argv)
    assert piped == (
        2,
        "t,alpha,lambda,reject,candidate\n1,0.00546863,0.5,0,1\n2,0.00546863,0.5,0,1\n",
        "error: line 2: not a p-value in [0, 1]: '\\udcff'\n",
    )
    # a file is read as stdin is, not stopped at its first undecodable byte
    assert run_cli(capsys, [*argv, "--input", str(tmp_path / "p.txt")]) == piped
    # and, as on stdin, a bare \r does not end a line (a text-mode file used to
    # give one p-value per \r)
    (tmp_path / "cr.txt").write_bytes(b"0.1\r0.2\r")
    assert run_cli(capsys, [*argv, "--input", str(tmp_path / "cr.txt")]) == (
        2,
        "t,alpha,lambda,reject,candidate\n",
        "error: line 1: not a p-value in [0, 1]: '0.1\\r0.2'\n",
    )


def _reply(stream, seconds=30.0):
    ready, _, _ = select.select([stream], [], [], seconds)
    assert ready, f"no reply within {seconds} s"
    return stream.readline()


def test_stream_replies_to_each_line_before_the_next():
    # the gatekeeper protocol: a client writes one line and waits for its reply
    pvalues = [0.001, 0.8, 0.03, 0.0004, 0.6, 0.2, 1.0, 0.0, 0.01, 0.04,
               0.5, 0.002, 0.9, 0.3, 0.0001, 0.7, 0.02, 0.45, 0.005]
    twin = Saffron(0.05, 0.025, G.from_spec("power:1.6"))
    with subprocess.Popen(
        [sys.executable, "-m", "onlinefdr.cli", "stream", "--alpha", "0.05", "--precision", "17"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    ) as proc:
        try:
            assert _reply(proc.stdout) == b"t,alpha,lambda,reject,candidate\n"
            for i, p in enumerate(pvalues):
                if i == 7:
                    proc.stdin.write(b"oops\n")
                    assert _reply(proc.stderr) == (
                        b"error: line 8: not a p-value in [0, 1]: 'oops'\n"
                    )
                proc.stdin.write(f"{p!r}\n".encode())
                r = twin.observe(p)
                expected = f"{r.index},{r.alpha:.17g},{r.lam:.17g},{r.rejected:d},{r.candidate:d}\n"
                assert _reply(proc.stdout) == expected.encode()
            proc.stdin.close()
            assert proc.wait(timeout=30) == 2
            assert proc.stdout.read() == proc.stderr.read() == b""
        finally:
            proc.kill()


def test_stream_takes_single_procedure(capsys):
    code, _, err = run_cli(capsys, ["stream", "--alpha", "0.05", "--procedure", "saffron,lord"])
    assert code == 1


@pytest.mark.parametrize("spec", ["power:inf", "power:1e6"])
def test_stream_gamma_underflow_is_an_error(spec, capsys, monkeypatch):
    # j**-s underflows to zero: the sequence would stop paying out at step 2
    code, out, err = run_cli(
        capsys,
        ["stream", "--alpha", "0.05", "--gamma", spec],
        stdin_text="0.001\n0.8\n0.03\n0.5\n",
        monkeypatch=monkeypatch,
    )
    assert code != 0
    assert err.startswith("error:")
    assert out.splitlines()[1:] == []


def test_offline_bh_rows(tmp_path, capsys):
    source = tmp_path / "p.txt"
    source.write_text("0.01\n0.02\n0.6\n0.8\n")
    code, out, err = run_cli(
        capsys, ["offline", "--alpha", "0.05", "--method", "bh", "--input", str(source)]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,p,rejected"
    assert [line.split(",")[2] for line in lines[1:]] == ["1", "1", "0", "0"]
    assert "threshold: 0.02" in err


def test_offline_storey_is_stricter_here(tmp_path, capsys):
    source = tmp_path / "p.txt"
    source.write_text("0.01\n0.02\n0.6\n0.8\n")
    code, out, _ = run_cli(
        capsys,
        ["offline", "--alpha", "0.05", "--method", "storey-bh", "--input", str(source)],
    )
    assert code == 0
    assert [line.split(",")[2] for line in out.strip().splitlines()[1:]] == ["0"] * 4


def test_offline_bad_line_is_runtime_error(tmp_path, capsys):
    source = tmp_path / "p.txt"
    source.write_text("0.01\noops\n")
    code, _, err = run_cli(capsys, ["offline", "--alpha", "0.05", "--input", str(source)])
    assert code == 2
    assert "line 2" in err


def test_offline_unknown_method(capsys):
    code, _, err = run_cli(capsys, ["offline", "--alpha", "0.05", "--method", "qvalue"])
    assert code == 1
    assert "method" in err


def test_sweep_reference_invocation_controls_fdr(capsys):
    # the documented single-cell run: Gaussian mu_c=3, saffron at defaults
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--model", "gaussian:3", "--pi1", "0.5", "--procedure", "saffron",
         "--lambda", "0.5", "--gamma", "power:1.6", "--alpha", "0.05",
         "--w0", "0.025", "--T", "1000", "--trials", "200", "--seed", "42"],
    )
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["fdr"]) <= 0.065
    assert float(fields["power"]) > 0.5


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "onlinefdr.cli", "sweep", "--alpha", "0.05",
         "--pi1", "0.5", "--T", "50", "--trials", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("procedure,gamma,")


def test_cli_import_leaves_heavy_modules_unloaded():
    # each is imported only where it is used: scipy for normal_sf and the beta
    # tail, the process pool for a parallel sweep, fractions (which loads
    # decimal) for an offline near-tie
    heavy = ["scipy", "concurrent.futures", "fractions", "decimal"]
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, onlinefdr.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_stream_memory_stays_small(tmp_path):
    # the gamma build and cache hold only what 4000 decisions read
    rng = np.random.default_rng(18)
    p = np.where(rng.uniform(size=4000) < 0.1, 1e-3, 1.0) * rng.uniform(size=4000)
    source, out = tmp_path / "p.txt", tmp_path / "o.csv"
    source.write_text("".join(f"{x!r}\n" for x in p.tolist()))
    argv = ["stream", "--alpha", "0.05", "--gamma", "power:1.67",
            "--input", str(source), "--out", str(out)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out.read_text().splitlines()) == 4001
    assert peak < 1.0e6


# ------------------------------------------------------------ transcript
#
# Exact exit code, stdout and stderr of each invocation, recorded from the
# CLI as it stood before its option handling became table-driven.  Each case
# runs in an empty working directory holding only its ``files``; help text is
# laid out for 80 columns.

A = ["--alpha", "0.05"]
STREAM_P = "0.001\n0.8\n0.03\n0.0004\n0.6\n0.2\n1\n0\n0.01\n"
SWEEP_CFG = (
    "# grid\nalpha = 0.1\nmodel = beta:0.5:5\npi1 = 0.2, 0.8\nprocedure = saffron,lord\n"
    'gamma = "power:1.8"\nT = 400\ntrials = 7\nseed = 3\njobs = 2\nprecision = 4\nlambda = 0.25\n'
)
GATE_CFG = "procedure = lord\ngamma = 'beta:0.5'\nalpha = 0.2\nw0 = 0.01\nlambda = 0.3\nprecision = 9\n"


def case(case_id, argv, stdin="", files=None, *, code, out="", err=""):
    return pytest.param(argv, stdin, files or {}, code, out, err, id=case_id)


TRANSCRIPT = [
    case("help", ["--help"], code=0,
         out=(
             "usage: onlinefdr [-h] {sweep,stream,offline} ...\n"
             "\n"
             "Command-line front end. Three subcommands: * ``sweep`` -- run a seeded Monte\n"
             "Carlo grid over non-null fractions, procedures, and discount sequences; emit\n"
             "the result table as CSV. * ``stream`` -- gatekeeper mode: read p-values one\n"
             "per line (file or stdin) and print one decision record per line, before\n"
             "reading the next line. * ``offline`` -- one-shot batch testing of a p-value\n"
             "file with the step-up procedures. Options may come from flags or from a flat\n"
             "``key = value`` config file (``--config``); explicit flags win. Unknown config\n"
             "keys are rejected by name. Exit codes: 0 success, 1 usage error, 2 runtime\n"
             "error.\n"
             "\n"
             "positional arguments:\n"
             "  {sweep,stream,offline}\n"
             "    sweep               run a Monte Carlo grid, emit CSV\n"
             "    stream              decide p-values line by line\n"
             "    offline             batch step-up testing of a p-value file\n"
             "\n"
             "options:\n"
             "  -h, --help            show this help message and exit\n"
         )),
    case("help-sweep", ["sweep", "--help"], code=0,
         out=(
             "usage: onlinefdr sweep [-h] [--config CONFIG] [--out OUT] [--model MODEL]\n"
             "                       [--pi1 PI1] [--procedure PROCEDURE] [--gamma GAMMA]\n"
             "                       [--alpha ALPHA] [--w0 W0] [--lambda LAMBDA] [--T T]\n"
             "                       [--trials TRIALS] [--seed SEED] [--jobs JOBS]\n"
             "                       [--precision PRECISION] [--dump-config]\n"
             "\n"
             "options:\n"
             "  -h, --help            show this help message and exit\n"
             "  --config CONFIG       flat key = value config file\n"
             "  --out OUT             output path (default: stdout)\n"
             "  --model MODEL\n"
             "  --pi1 PI1\n"
             "  --procedure PROCEDURE\n"
             "  --gamma GAMMA\n"
             "  --alpha ALPHA\n"
             "  --w0 W0\n"
             "  --lambda LAMBDA\n"
             "  --T T\n"
             "  --trials TRIALS\n"
             "  --seed SEED\n"
             "  --jobs JOBS\n"
             "  --precision PRECISION\n"
             "  --dump-config         print the canonical config instead of running\n"
         )),
    case("help-stream", ["stream", "--help"], code=0,
         out=(
             "usage: onlinefdr stream [-h] [--config CONFIG] [--out OUT]\n"
             "                        [--procedure PROCEDURE] [--gamma GAMMA]\n"
             "                        [--alpha ALPHA] [--w0 W0] [--lambda LAMBDA]\n"
             "                        [--precision PRECISION] [--input INPUT]\n"
             "                        [--dump-config]\n"
             "\n"
             "options:\n"
             "  -h, --help            show this help message and exit\n"
             "  --config CONFIG       flat key = value config file\n"
             "  --out OUT             output path (default: stdout)\n"
             "  --procedure PROCEDURE\n"
             "  --gamma GAMMA\n"
             "  --alpha ALPHA\n"
             "  --w0 W0\n"
             "  --lambda LAMBDA\n"
             "  --precision PRECISION\n"
             "  --input INPUT         p-value file, one per line (default: stdin)\n"
             "  --dump-config         print the canonical config instead of running\n"
         )),
    case("help-offline", ["offline", "--help"], code=0,
         out=(
             "usage: onlinefdr offline [-h] [--config CONFIG] [--out OUT] [--method METHOD]\n"
             "                         [--alpha ALPHA] [--lambda LAMBDA]\n"
             "                         [--precision PRECISION] [--input INPUT]\n"
             "\n"
             "options:\n"
             "  -h, --help            show this help message and exit\n"
             "  --config CONFIG       flat key = value config file\n"
             "  --out OUT             output path (default: stdout)\n"
             "  --method METHOD\n"
             "  --alpha ALPHA\n"
             "  --lambda LAMBDA\n"
             "  --precision PRECISION\n"
             "  --input INPUT         p-value file, one per line (default: stdin)\n"
         )),
    case("no-command", [], code=1,
         err=(
             "usage: onlinefdr [-h] {sweep,stream,offline} ...\n"
             "onlinefdr: error: the following arguments are required: command\n"
         )),
    case("unknown-command", ["frobnicate"], code=1,
         err=(
             "usage: onlinefdr [-h] {sweep,stream,offline} ...\n"
             "onlinefdr: error: argument command: invalid choice: 'frobnicate' (choose from 'sweep', 'stream', 'offline')\n"
         )),
    case("unknown-flag", ["sweep", *A, "--whatever", "1"], code=1,
         err=(
             "usage: onlinefdr [-h] {sweep,stream,offline} ...\n"
             "onlinefdr: error: unrecognized arguments: --whatever 1\n"
         )),
    case("sweep-dump-defaults", ["sweep", *A, "--dump-config"], code=0,
         out=(
             "model = gaussian:3.0\n"
             "pi1 = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9\n"
             "procedure = saffron\n"
             "gamma = power:1.6\n"
             "alpha = 0.05\n"
             "w0 = 0.025\n"
             "lambda = 0.5\n"
             "T = 1000\n"
             "trials = 200\n"
             "seed = 0\n"
             "jobs = 1\n"
             "precision = 6\n"
         )),
    case("sweep-dump-file-and-flags",
         ["sweep", "--config", "run.cfg", "--T", "50", "--gamma", "log-optimal,power:2", "--dump-config"],
         files={"run.cfg": SWEEP_CFG}, code=0,
         out=(
             "model = beta:0.5:5.0\n"
             "pi1 = 0.2,0.8\n"
             "procedure = saffron,lord\n"
             "gamma = log-optimal,power:2.0\n"
             "alpha = 0.1\n"
             "w0 = 0.05\n"
             "lambda = 0.25\n"
             "T = 50\n"
             "trials = 7\n"
             "seed = 3\n"
             "jobs = 2\n"
             "precision = 4\n"
         )),
    case("stream-dump-defaults", ["stream", *A, "--dump-config"], code=0,
         out=(
             "procedure = saffron\n"
             "gamma = power:1.6\n"
             "alpha = 0.05\n"
             "w0 = 0.025\n"
             "lambda = 0.5\n"
             "precision = 6\n"
         )),
    case("stream-dump-file-and-flags",
         ["stream", "--config", "gate.cfg", "--alpha", "0.1", "--dump-config"],
         files={"gate.cfg": GATE_CFG}, code=0,
         out=(
             "procedure = lord\n"
             "gamma = beta:0.5\n"
             "alpha = 0.1\n"
             "w0 = 0.01\n"
             "lambda = 0.3\n"
             "precision = 9\n"
         )),
    case("sweep-missing-alpha", ["sweep"], code=1, err="error: missing required option --alpha\n"),
    case("stream-missing-alpha", ["stream"], code=1,
         err="error: missing required option --alpha\n"),
    case("offline-missing-alpha", ["offline"], code=1,
         err="error: missing required option --alpha\n"),
    case("alpha-not-a-number", ["sweep", "--alpha", "abc"], code=1,
         err="error: bad value for alpha: could not convert string to float: 'abc'\n"),
    case("alpha-above-one", ["stream", "--alpha", "1.5"], code=1,
         err="error: bad value for alpha: alpha must lie in (0, 1), got 1.5\n"),
    case("alpha-zero", ["offline", "--alpha", "0"], code=1,
         err="error: bad value for alpha: alpha must lie in (0, 1), got 0.0\n"),
    case("sweep-w0-above-alpha", ["sweep", *A, "--w0", "0.1"], code=1,
         err="error: bad value for w0: must lie in (0, alpha], got 0.1\n"),
    case("stream-w0-above-alpha", ["stream", *A, "--w0", "0.06"], code=1,
         err="error: bad value for w0: must lie in (0, alpha], got 0.06\n"),
    case("w0-not-a-number", ["stream", *A, "--w0", "x"], code=1,
         err="error: bad value for w0: could not convert string to float: 'x'\n"),
    case("w0-from-config-above-alpha", ["sweep", "--config", "w.cfg"],
         files={"w.cfg": (
             "alpha = 0.05\n"
             "w0 = 0.2\n"
         )},
         code=1, err="error: bad value for w0: must lie in (0, alpha], got 0.2\n"),
    case("sweep-lambda-one", ["sweep", *A, "--lambda", "1"], code=1,
         err="error: bad value for lambda: lambda must lie in (0, 1), got 1.0\n"),
    case("stream-lambda-text", ["stream", *A, "--lambda", "half"], code=1,
         err="error: bad value for lambda: could not convert string to float: 'half'\n"),
    case("offline-lambda-zero", ["offline", *A, "--lambda", "0"], code=1,
         err="error: bad value for lambda: lambda must lie in (0, 1), got 0.0\n"),
    case("T-zero", ["sweep", *A, "--T", "0"], code=1,
         err="error: bad value for T: T must be >= 1, got 0\n"),
    case("T-fraction", ["sweep", *A, "--T", "1.5"], code=1,
         err="error: bad value for T: invalid literal for int() with base 10: '1.5'\n"),
    case("trials-zero", ["sweep", *A, "--trials", "0"], code=1,
         err="error: bad value for trials: trials must be >= 1, got 0\n"),
    case("seed-negative", ["sweep", *A, "--seed", "-1"], code=1,
         err="error: bad value for seed: seed must be non-negative, got -1\n"),
    case("seed-text", ["sweep", *A, "--seed", "x"], code=1,
         err="error: bad value for seed: invalid literal for int() with base 10: 'x'\n"),
    case("jobs-zero", ["sweep", *A, "--jobs", "0"], code=1,
         err="error: bad value for jobs: jobs must be >= 1, got 0\n"),
    case("stream-precision-zero", ["stream", *A, "--precision", "0"], code=1,
         err="error: bad value for precision: precision must be >= 1, got 0\n"),
    case("offline-precision-text", ["offline", *A, "--precision", "six"], code=1,
         err="error: bad value for precision: invalid literal for int() with base 10: 'six'\n"),
    case("pi1-above-one", ["sweep", *A, "--pi1", "0.5,1.5"], code=1,
         err="error: bad value for pi1: pi1 values must lie in [0, 1], got 1.5\n"),
    case("pi1-empty-item", ["sweep", *A, "--pi1", "0.5,,0.7"], code=1,
         err="error: bad value for pi1: could not convert string to float: ''\n"),
    case("sweep-procedure-unknown", ["sweep", *A, "--procedure", "saffron,bonferroni"], code=1,
         err="error: bad value for procedure: unknown procedure 'bonferroni' (known: saffron, saffron-ai, lord, alpha-investing)\n"),
    case("stream-procedure-unknown", ["stream", *A, "--procedure", "lond"], code=1,
         err="error: bad value for procedure: unknown procedure 'lond' (known: saffron, saffron-ai, lord, alpha-investing)\n"),
    case("gamma-power-below-one", ["sweep", *A, "--gamma", "power:0.5"], code=1,
         err="error: bad value for gamma: power-law exponent must be finite and > 1, got 0.5\n"),
    case("gamma-unknown", ["stream", *A, "--gamma", "zeta:2"], code=1,
         err="error: bad value for gamma: unknown gamma spec 'zeta:2'\n"),
    case("gamma-log-optimal-argument", ["sweep", *A, "--gamma", "log-optimal:3"], code=1,
         err="error: bad value for gamma: log-optimal takes no parameter, got 'log-optimal:3'\n"),
    case("model-unknown", ["sweep", *A, "--model", "poisson:2"], code=1,
         err="error: bad value for model: unknown data model 'poisson:2'\n"),
    case("model-not-a-number", ["sweep", *A, "--model", "gaussian:x"], code=1,
         err="error: bad value for model: could not convert string to float: 'x'\n"),
    # non-finite parameters are usage errors, not runs with every alternative at p = 0
    case("model-gaussian-nan", ["sweep", *A, "--model", "gaussian:nan"], code=1,
         err="error: bad value for model: gaussian mean must be finite, got nan\n"),
    case("model-gaussian-inf", ["sweep", *A, "--model", "gaussian:inf"], code=1,
         err="error: bad value for model: gaussian mean must be finite, got inf\n"),
    case("model-beta-inf", ["sweep", *A, "--model", "beta:0.5:inf"], code=1,
         err="error: bad value for model: beta shape parameters must be finite, "
             "got BetaAlternative(m=0.5, n=inf)\n"),
    case("model-beta-not-positive", ["sweep", *A, "--model", "beta:0:5"], code=1,
         err="error: bad value for model: beta shape parameters must be positive, got BetaAlternative(m=0.0, n=5.0)\n"),
    case("method-unknown", ["offline", *A, "--method", "qvalue"], code=1,
         err="error: unknown method 'qvalue' (known: bh, storey-bh)\n"),
    case("method-from-config", ["offline", "--config", "m.cfg"],
         files={"m.cfg": (
             "alpha = 0.05\n"
             "method = by\n"
         )},
         code=1, err="error: unknown method 'by' (known: bh, storey-bh)\n"),
    case("sweep-config-unknown-key", ["sweep", "--config", "bad.cfg"],
         files={"bad.cfg": (
             "alpha = 0.05\n"
             "wibble = 2\n"
         )},
         code=1, err="error: unknown config key 'wibble' (line 2)\n"),
    case("stream-config-with-T", ["stream", "--config", "s.cfg"],
         files={"s.cfg": (
             "alpha = 0.05\n"
             "T = 100\n"
         )},
         code=1, err="error: unknown config key 'T' (line 2)\n"),
    case("offline-config-with-gamma", ["offline", "--config", "o.cfg"],
         files={"o.cfg": (
             "alpha = 0.05\n"
             "gamma = power:2\n"
         )},
         code=1, err="error: unknown config key 'gamma' (line 2)\n"),
    case("config-line-without-equals", ["sweep", "--config", "n.cfg"],
         files={"n.cfg": (
             "# note\n"
             "\n"
             "alpha 0.05\n"
         )},
         code=1, err="error: config line 3: expected 'key = value', got 'alpha 0.05'\n"),
    case("config-unreadable", ["sweep", "--config", "missing.cfg"], code=1,
         err="error: cannot read config file: [Errno 2] No such file or directory: 'missing.cfg'\n"),
    # a config file that is not UTF-8 is a usage error, as an unreadable one is
    case("config-undecodable", ["sweep", "--config", "latin1.cfg"],
         files={"latin1.cfg": b"# caf\xe9\nalpha = 0.05\n"}, code=1,
         err="error: cannot read config file: 'utf-8' codec can't decode byte 0xe9 in position 5: "
             "invalid continuation byte\n"),
    case("stream-two-procedures", ["stream", *A, "--procedure", "saffron,lord"], code=1,
         err="error: stream mode takes exactly one procedure\n"),
    case("stream-two-gammas", ["stream", *A, "--gamma", "power:1.6,power:2"], code=1,
         err="error: stream mode takes exactly one gamma sequence\n"),
    case("first-error-missing-alpha", ["sweep", "--model", "bogus", "--T", "0"], code=1,
         err="error: missing required option --alpha\n"),
    case("first-error-model-before-T", ["sweep", *A, "--T", "0", "--model", "bogus"], code=1,
         err="error: bad value for model: unknown data model 'bogus'\n"),
    case("first-error-procedures-before-lambda",
         ["stream", *A, "--lambda", "2", "--procedure", "saffron,lord"], code=1,
         err="error: stream mode takes exactly one procedure\n"),
    case("first-error-method-before-lambda", ["offline", *A, "--lambda", "2", "--method", "x"],
         code=1, err="error: unknown method 'x' (known: bh, storey-bh)\n"),
    case("first-error-config-key-before-flags", ["stream", "--config", "s.cfg", "--alpha", "7"],
         files={"s.cfg": "T = 100\n"}, code=1, err="error: unknown config key 'T' (line 1)\n"),
    case("stream-saffron", ["stream", *A, "--precision", "17"], stdin=STREAM_P, code=0,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.0054686270721809212,0.5,1,1\n"
             "2,0.010937254144361842,0.5,0,0\n"
             "3,0.0036079483414047674,0.5,0,1\n"
             "4,0.0036079483414047674,0.5,1,1\n"
             "5,0.014545202485766609,0.5,0,0\n"
             "6,0.0054938293897064724,0.5,0,1\n"
             "7,0.0054938293897064724,0.5,0,0\n"
             "8,0.0030760601428375884,0.5,1,1\n"
             "9,0.01401331428719943,0.5,1,1\n"
         )),
    case("stream-lord",
         ["stream", *A, "--procedure", "lord", "--w0", "0.01", "--gamma", "log-optimal"],
         stdin=STREAM_P, code=0,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.000548154,0.000548154,0,0\n"
             "2,0.000119206,0.000119206,0,0\n"
             "3,0.00010153,0.00010153,0,0\n"
             "4,8.44365e-05,8.44365e-05,0,0\n"
             "5,7.15847e-05,7.15847e-05,0,0\n"
             "6,6.19261e-05,6.19261e-05,0,0\n"
             "7,5.44853e-05,5.44853e-05,0,0\n"
             "8,4.86038e-05,4.86038e-05,1,1\n"
             "9,0.00223647,0.00223647,0,0\n"
         )),
    case("stream-saffron-ai",
         ["stream", "--alpha", "0.1", "--procedure", "saffron-ai", "--lambda", "0.3"],
         stdin=STREAM_P, code=0,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.0214063,0.0214063,1,1\n"
             "2,0.0419153,0.0419153,0,0\n"
             "3,0.0142265,0.0142265,0,0\n"
             "4,0.00748705,0.00748705,1,1\n"
             "5,0.04879,0.04879,0,0\n"
             "6,0.0188311,0.0188311,0,0\n"
             "7,0.0107579,0.0107579,0,0\n"
             "8,0.00719698,0.00719698,1,1\n"
             "9,0.0485236,0.0485236,1,1\n"
         )),
    case("stream-alpha-investing",
         ["stream", *A, "--procedure", "alpha-investing", "--gamma", "power:2"], stdin=STREAM_P,
         code=0,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.0294997,0.0294997,1,1\n"
             "2,0.0149707,0.0149707,0,0\n"
             "3,0.00569552,0.00569552,0,0\n"
             "4,0.00299544,0.00299544,1,1\n"
             "5,0.00312887,0.00312887,0,0\n"
             "6,0.00212213,0.00212213,0,0\n"
             "7,0.00153369,0.00153369,0,0\n"
             "8,0.0011601,0.0011601,1,1\n"
             "9,0.00129128,0.00129128,0,0\n"
         )),
    case("stream-config-and-input-file", ["stream", "--config", "gate.cfg", "--input", "p.txt"],
         files={"gate.cfg": GATE_CFG, "p.txt": STREAM_P}, code=0,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.00195644818,0.00195644818,1,1\n"
             "2,0.0376616275,0.0376616275,0,0\n"
             "3,0.00978224092,0.00978224092,0,0\n"
             "4,0.00978224092,0.00978224092,1,1\n"
             "5,0.0488440084,0.0488440084,0,0\n"
             "6,0.0181617829,0.0181617829,0,0\n"
             "7,0.0169965834,0.0169965834,0,0\n"
             "8,0.0160362558,0.0160362558,1,1\n"
             "9,0.0530373728,0.0530373728,1,1\n"
         )),
    case("stream-skips-bad-lines", ["stream", *A],
         stdin=(
             "0.4\n"
             "bananas\n"
             "\n"
             "1.2\n"
             " 0.6 \n"
             "nan\n"
             "-0\n"
         ),
         code=2,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.00546863,0.5,0,1\n"
             "2,0.00546863,0.5,0,0\n"
             "3,0.00180397,0.5,1,1\n"
         ),
         err=(
             "error: line 2: not a p-value in [0, 1]: 'bananas'\n"
             "error: line 4: not a p-value in [0, 1]: '1.2'\n"
             "error: line 6: not a p-value in [0, 1]: 'nan'\n"
         )),
    case("stream-missing-input", ["stream", *A, "--input", "nope.txt"], code=2,
         err="error: [Errno 2] No such file or directory: 'nope.txt'\n"),
    case("stream-gamma-underflow", ["stream", *A, "--gamma", "power:60"], stdin="0.001\n", code=2,
         err="error: raw weights for 'power:60.0' underflow to zero by index 10000000; the sequence would not be positive\n"),
    case("offline-bh", ["offline", *A, "--input", "p.txt"],
         files={"p.txt": (
             "0.01\n"
             "0.02\n"
             "\n"
             "0.6\n"
             "0.8\n"
             "0.001\n"
         )},
         code=0,
         out=(
             "index,p,rejected\n"
             "1,0.01,1\n"
             "2,0.02,1\n"
             "3,0.6,0\n"
             "4,0.8,0\n"
             "5,0.001,1\n"
         ),
         err="threshold: 0.02\n"),
    case("offline-storey-bh",
         ["offline", "--alpha", "0.2", "--method", "storey-bh", "--lambda", "0.4", "--precision", "3"],
         stdin=(
             "0.01\n"
             "0.02\n"
             "0.6\n"
             "0.8\n"
             "0.001\n"
             "0.3333333\n"
         ),
         code=0,
         out=(
             "index,p,rejected\n"
             "1,0.01,1\n"
             "2,0.02,1\n"
             "3,0.6,0\n"
             "4,0.8,0\n"
             "5,0.001,1\n"
             "6,0.333,0\n"
         ),
         err="threshold: 0.02\n"),
    case("offline-bad-line", ["offline", *A],
         stdin=(
             "0.01\n"
             "oops\n"
         ),
         code=2, err="error: line 2: not a p-value in [0, 1]: 'oops'\n"),
    case("offline-empty-input", ["offline", *A], code=2, err="error: no p-values in input\n"),
    case("offline-blank-input", ["offline", *A],
         stdin=(
             "\n"
             "  \n"
         ),
         code=2, err="error: no p-values in input\n"),
    case("offline-out-missing-dir", ["offline", *A, "--out", "nodir/x.csv"], stdin="0.01\n",
         code=2, err="error: [Errno 2] No such file or directory: 'nodir/x.csv'\n"),
    case("sweep-tiny",
         ["sweep", *A, "--pi1", "0.2,0.8", "--procedure", "saffron,alpha-investing", "--gamma", "power:1.6,power:2", "--T", "40", "--trials", "3", "--seed", "5"],
         code=0,
         out=(
             "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed\n"
             "saffron,power:1.6,0.2,0,0,0.392857,0.0743452,3,5\n"
             "saffron,power:1.6,0.8,0,0,0.738269,0.0588142,3,5\n"
             "saffron,power:2.0,0.2,0,0,0.35119,0.11496,3,5\n"
             "saffron,power:2.0,0.8,0,0,0.749763,0.0473259,3,5\n"
             "alpha-investing,power:1.6,0.2,0,0,0.309524,0.156129,3,5\n"
             "alpha-investing,power:1.6,0.8,0,0,0.414559,0.0555476,3,5\n"
             "alpha-investing,power:2.0,0.2,0,0,0.309524,0.156129,3,5\n"
             "alpha-investing,power:2.0,0.8,0,0,0.328826,0.0492376,3,5\n"
         )),
    case("sweep-beta-config", ["sweep", "--config", "b.cfg", "--precision", "17"],
         files={"b.cfg": (
             "alpha = 0.1\n"
             "model = beta:0.5:5\n"
             "pi1 = 0.5\n"
             "procedure = lord,saffron-ai\n"
             "T = 30\n"
             "trials = 2\n"
             "seed = 8\n"
         )},
         code=0,
         out=(
             "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed\n"
             "lord,power:1.6,0.5,0,0,0.14761904761904762,0.052380952380952382,2,8\n"
             "saffron-ai,power:1.6,0.5,0,0,0.14761904761904762,0.052380952380952382,2,8\n"
         )),
    # 2 cells of 12 trials share each (procedure, T): one run_batch call each
    case("sweep-batched",
         ["sweep", *A, "--pi1", "0.2,0.8", "--procedure", "saffron,saffron-ai,lord,alpha-investing", "--T", "60", "--trials", "12", "--precision", "17"],
         code=0,
         out=(
             "procedure,gamma,pi1,fdr,fdr_se,power,power_se,trials,seed\n"
             "saffron,power:1.6,0.20000000000000001,0.011904761904761904,0.011904761904761904,0.50726646039146039,0.055709620279593912,12,0\n"
             "saffron,power:1.6,0.80000000000000004,0.0098739588871167832,0.0044716426155889388,0.82440535676131643,0.01463228605229964,12,0\n"
             "saffron-ai,power:1.6,0.20000000000000001,0.011904761904761904,0.011904761904761904,0.48118027805527802,0.050226927128045752,12,0\n"
             "saffron-ai,power:1.6,0.80000000000000004,0.014674511759193617,0.0047749275122299069,0.81441308766639697,0.014998817965906495,12,0\n"
             "lord,power:1.6,0.20000000000000001,0.011904761904761904,0.011904761904761904,0.46839618714618719,0.051750748972606953,12,0\n"
             "lord,power:1.6,0.80000000000000004,0.0022522522522522522,0.0022522522522522522,0.73518333567468097,0.019846426825663989,12,0\n"
             "alpha-investing,power:1.6,0.20000000000000001,0,0,0.32062671125171122,0.044129694082814877,12,0\n"
             "alpha-investing,power:1.6,0.80000000000000004,0,0,0.45007698004436897,0.02569880967250477,12,0\n"
         )),
    case("sweep-out-missing-dir",
         ["sweep", *A, "--T", "5", "--trials", "1", "--pi1", "0.5", "--out", "nodir/x.csv"],
         code=2, err="error: [Errno 2] No such file or directory: 'nodir/x.csv'\n"),
    # --out naming the input is refused before it could empty the input
    case("stream-out-is-input", ["stream", *A, "--input", "p.txt", "--out", "p.txt"],
         files={"p.txt": STREAM_P}, code=1, err="error: --out names the input file: p.txt\n"),
    # a byte-order mark is dropped at the very start of a config or p-value input only
    case("config-bom", ["stream", "--config", "bom.cfg", "--dump-config"],
         files={"bom.cfg": "\ufeffalpha = 0.05\n"}, code=0,
         out="procedure = saffron\ngamma = power:1.6\nalpha = 0.05\nw0 = 0.025\nlambda = 0.5\n"
             "precision = 6\n"),
    case("stream-bom", ["stream", *A, "--input", "bom.txt"],
         files={"bom.txt": "\ufeff0.001\n0.8\n\ufeff0.03\n0.0004\n"}, code=2,
         out=(
             "t,alpha,lambda,reject,candidate\n"
             "1,0.00546863,0.5,1,1\n"
             "2,0.0109373,0.5,0,0\n"
             "3,0.00360795,0.5,1,1\n"
         ),
         err="error: line 3: not a p-value in [0, 1]: '\\ufeff0.03'\n"),
    case("offline-bom", ["offline", *A], "\ufeff0.001\n0.8\n0.03\n0.0004\n", code=0,
         out="index,p,rejected\n1,0.001,1\n2,0.8,0\n3,0.03,1\n4,0.0004,1\n",
         err="threshold: 0.03\n"),
]


@pytest.mark.parametrize("argv, stdin, files, code, out, err", TRANSCRIPT)
def test_transcript(argv, stdin, files, code, out, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode() if isinstance(text, str) else text)
    assert run_cli(capsys, argv, stdin, monkeypatch) == (code, out, err)
