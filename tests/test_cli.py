"""Command-line interface: exit codes, config handling, stream protocol."""

import io
import subprocess
import sys

import pytest

from onlinefdr import cli
from onlinefdr import gamma as G
from onlinefdr.procedures import Saffron

SWEEP_TINY = [
    "sweep", "--alpha", "0.05", "--pi1", "0.3,0.5", "--procedure", "saffron,lord",
    "--T", "80", "--trials", "4", "--seed", "9",
]


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
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
