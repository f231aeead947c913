"""The study scripts under ``scripts/``: the best-sequence report of a sweep CSV."""

import csv
import subprocess
import sys
from pathlib import Path

from onlinefdr import cli

BEST_SEQUENCE = Path(__file__).resolve().parents[1] / "scripts" / "best_sequence.py"


def test_best_sequence_prints_the_most_powerful_spec(tmp_path):
    out = tmp_path / "sweep.csv"
    # at pi1 = 0 every spec has power 0: a tie, which goes to the first spec
    assert cli.main([
        "sweep", "--alpha", "0.05", "--model", "beta:0.5:5", "--pi1", "0,0.5,0.9",
        "--procedure", "saffron,lord", "--gamma", "power:2.0,power:1.2,log-optimal",
        "--T", "100", "--trials", "3", "--seed", "7", "--out", str(out),
    ]) == 0
    text = out.read_text()
    report = subprocess.run(
        [sys.executable, str(BEST_SEQUENCE)],
        input=text, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    rows = list(csv.DictReader(text.splitlines()))
    pi1s = list(dict.fromkeys(r["pi1"] for r in rows))
    assert report[0] == "# best sequence per procedure and pi1:"
    assert len(report) == 1 + len(pi1s)
    ties = 0
    for pi1, line in zip(pi1s, report[1:]):
        head, *entries = line.removeprefix("#   ").split("  |  ")
        assert head == f"pi1={pi1}"
        assert [e.split(": ")[0] for e in entries] == ["saffron", "lord"]
        for entry in entries:
            name, spec, power, fdr = entry.replace(": ", " ", 1).split(" ")
            cell = [r for r in rows if r["procedure"] == name and r["pi1"] == pi1]
            powers = [float(r["power"]) for r in cell]
            best = cell[powers.index(max(powers))]
            ties += powers.count(max(powers)) > 1
            assert spec == best["gamma"]
            assert power == f"power={float(best['power']):.3f}"
            assert fdr == f"fdr={float(best['fdr']):.3f}"
    assert ties >= 2
