"""Write the golden decisions fixture, ``tests/golden_decisions.npz``.

The fixture freezes, for every procedure, the exact float64 test levels and
the rejection/candidate bits on 49 seeded streams: for each of four gamma
sequences and three non-null fractions pi1, three streams of T = 100 and one
of T = 1000, plus one stream of T = 10 000.  ``test_golden.py`` replays them
and requires identical bits and levels within rel 1e-12, so a kernel rewrite
can be checked against the decisions of the code it replaces.

P-values are built from ``Generator.random`` draws only (a uniform for the
null/non-null split, a uniform raised to the 8th power for non-null p-values),
whose streams numpy keeps stable across releases.  A SHA-256 of all p-values
is stored so that a drifting generator fails loudly instead of as a decision
mismatch.

Run from the repository root, on a tree whose ``src/`` is committed:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from onlinefdr import from_spec, make_procedure

ALPHA = 0.05
LAM = 0.5
PROCEDURES = ("saffron", "saffron-ai", "lord", "alpha-investing")
GAMMAS = ("power:1.6", "power:2.0", "log-optimal", "beta:0.5")
PI1S = (0.1, 0.5, 0.9)
W0S = (0.025, 0.05, 0.01)  # alpha / 2, alpha itself, and a small budget
PATH = Path(__file__).with_name("golden_decisions.npz")


def streams() -> list[dict]:
    """The stream table: one dict per stream, in fixture order."""
    out = []
    for gamma in GAMMAS:
        for pi1 in PI1S:
            for T in (100, 100, 100, 1000):
                out.append({"seed": len(out), "T": T, "pi1": pi1, "gamma": gamma,
                            "w0": W0S[len(out) % len(W0S)]})
    out.append({"seed": len(out), "T": 10_000, "pi1": 0.5, "gamma": "power:1.6", "w0": 0.025})
    return out


def pvalues(seed: int, T: int, pi1: float) -> np.ndarray:
    u = np.random.default_rng(seed).random((2, T))
    return np.where(u[0] < pi1, u[1] ** 8, u[1])


def pvalue_digest(table: list[dict]) -> str:
    h = hashlib.sha256()
    for s in table:
        h.update(pvalues(s["seed"], s["T"], s["pi1"]).tobytes())
    return h.hexdigest()


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    git = ["git", "-C", str(root)]
    if subprocess.run(git + ["status", "--porcelain", "src"], capture_output=True,
                      text=True, check=True).stdout.strip():
        print("error: src/ has uncommitted changes; commit them first", file=sys.stderr)
        return 1
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    table = streams()
    arrays = {}
    for name in PROCEDURES:
        traces = [
            make_procedure(name, ALPHA, s["w0"], from_spec(s["gamma"]), LAM).run(
                pvalues(s["seed"], s["T"], s["pi1"]))
            for s in table
        ]
        arrays[f"{name}.alpha"] = np.concatenate([t.alpha for t in traces])
        arrays[f"{name}.rejected"] = np.packbits(np.concatenate([t.rejected for t in traces]))
        arrays[f"{name}.candidate"] = np.packbits(np.concatenate([t.candidate for t in traces]))
    meta = {"commit": commit, "alpha": ALPHA, "lam": LAM, "streams": table,
            "pvalue_sha256": pvalue_digest(table)}
    np.savez_compressed(PATH, meta=np.array(json.dumps(meta)), **arrays)
    print(f"wrote {PATH} at commit {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
