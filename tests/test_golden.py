"""Decisions frozen by ``make_golden.py`` before the payout kernel changed.

Every procedure must reproduce the fixture's rejection and candidate bits
exactly and its levels within rel 1e-12, both stream by stream through
``run`` and in batches through ``run_batch``.
"""

import json

import numpy as np
import pytest

from onlinefdr import from_spec, make_procedure
import make_golden


@pytest.fixture(scope="module")
def golden():
    with np.load(make_golden.PATH) as z:
        data = {k: z[k] for k in z.files}
    data["meta"] = json.loads(str(data["meta"]))
    return data


def test_fixture_streams_are_regenerated_exactly(golden):
    meta = golden["meta"]
    assert meta["streams"] == make_golden.streams()
    assert meta["pvalue_sha256"] == make_golden.pvalue_digest(meta["streams"])


@pytest.mark.parametrize("name", make_golden.PROCEDURES)
def test_decisions_match_golden(name, golden):
    meta = golden["meta"]
    table = meta["streams"]
    n = sum(s["T"] for s in table)
    want_alpha = golden[f"{name}.alpha"]
    want_rej = np.unpackbits(golden[f"{name}.rejected"], count=n).astype(bool)
    want_cand = np.unpackbits(golden[f"{name}.candidate"], count=n).astype(bool)
    lo = 0
    for s in table:
        hi = lo + s["T"]
        proc = make_procedure(name, meta["alpha"], s["w0"], from_spec(s["gamma"]), meta["lam"])
        trace = proc.run(make_golden.pvalues(s["seed"], s["T"], s["pi1"]))
        assert trace.rejected.tolist() == want_rej[lo:hi].tolist(), s
        assert trace.candidate.tolist() == want_cand[lo:hi].tolist(), s
        np.testing.assert_allclose(trace.alpha, want_alpha[lo:hi], rtol=1e-12, atol=0, err_msg=str(s))
        expected_lam = meta["lam"] if name == "saffron" else trace.alpha
        assert (trace.lam == expected_lam).all(), s
        lo = hi
    assert lo == len(want_alpha)


@pytest.mark.parametrize("name", make_golden.PROCEDURES)
def test_batched_decisions_match_golden(name, golden):
    meta = golden["meta"]
    table = meta["streams"]
    n = sum(s["T"] for s in table)
    want_alpha = golden[f"{name}.alpha"]
    want_rej = np.unpackbits(golden[f"{name}.rejected"], count=n).astype(bool)
    want_cand = np.unpackbits(golden[f"{name}.candidate"], count=n).astype(bool)
    starts = np.cumsum([0] + [s["T"] for s in table])
    groups = {}
    for k, s in enumerate(table):
        groups.setdefault((s["gamma"], s["w0"], s["T"]), []).append(k)
    assert len(groups) < len(table)  # some batches hold several streams
    for (gamma, w0, T), members in groups.items():
        proc = make_procedure(name, meta["alpha"], w0, from_spec(gamma), meta["lam"])
        pvalues = [make_golden.pvalues(table[k]["seed"], T, table[k]["pi1"]) for k in members]
        traces = proc.run_batch(np.array(pvalues))
        for row, k in enumerate(members):
            lo, hi = starts[k], starts[k + 1]
            assert traces[row].rejected.tolist() == want_rej[lo:hi].tolist(), table[k]
            assert traces[row].candidate.tolist() == want_cand[lo:hi].tolist(), table[k]
            np.testing.assert_allclose(
                traces[row].alpha, want_alpha[lo:hi], rtol=1e-12, atol=0, err_msg=str(table[k])
            )
            expected_lam = meta["lam"] if name == "saffron" else traces[row].alpha
            assert (traces[row].lam == expected_lam).all(), table[k]
