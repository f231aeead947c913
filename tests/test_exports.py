"""The package's public names, resolved lazily from the submodules that define them."""

import importlib
import subprocess
import sys

import pytest

import onlinefdr

# The package's public names, by the submodule that defines each.
EXPORTS = {
    "estimators": ["TrialSummary", "aggregate", "fdp_hat_lord", "fdp_hat_saffron", "fdp_oracle"],
    "gamma": ["GammaSequence", "from_spec", "log_optimal", "power_law"],
    "offline": ["OfflineResult", "bh", "storey_bh"],
    "procedures": ["PROCEDURE_NAMES", "AdaptiveSaffron", "AlphaInvesting", "Lord",
                   "OnlineProcedure", "Saffron", "make_procedure"],
    "records": ["DecisionRecord", "StreamTrace", "TrialResult", "fdp_from_flags",
                "power_from_flags", "validate_pvalue"],
    "simulation": ["BetaAlternative", "DataModel", "GaussianMean", "ProcedureSpec", "SimConfig",
                   "SweepRow", "generate_stream", "grid", "normal_sf", "parse_model", "run_cell",
                   "sweep", "trial_rng", "write_csv"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_public_names():
    assert len(NAMES) == 39
    assert sorted(onlinefdr.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_defining_module_object(module, name):
    defining = importlib.import_module(f"onlinefdr.{module}")
    assert getattr(onlinefdr, name) is getattr(defining, name)
    assert name in dir(onlinefdr)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        onlinefdr.nonesuch


def test_star_import_and_submodules_in_a_fresh_interpreter():
    code = (
        "import sys\n"
        "ns = {}\n"
        "exec('from onlinefdr import *', ns)\n"
        "print(sorted(k for k in ns if not k.startswith('__')))\n"
        "import onlinefdr\n"
        "print(onlinefdr.simulation is sys.modules['onlinefdr.simulation'])\n"
        "from onlinefdr import gamma\n"
        "print(gamma is sys.modules['onlinefdr.gamma'])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [repr(sorted(NAMES)), "True", "True"]


def test_each_import_loads_only_the_submodules_it_needs():
    statements = ["import onlinefdr", "from onlinefdr import Saffron, from_spec",
                  "import onlinefdr.cli"]
    show = "print(sorted(m for m in sys.modules if m.startswith('onlinefdr')))"
    code = "import sys\n" + "".join(f"{s}\n{show}\n" for s in statements)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    decision_path = "'onlinefdr.gamma', 'onlinefdr.procedures', 'onlinefdr.records'"
    assert result.stdout.splitlines() == [
        "['onlinefdr']",
        f"['onlinefdr', {decision_path}]",
        f"['onlinefdr', 'onlinefdr.cli', {decision_path}]",
    ]
