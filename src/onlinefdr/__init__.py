"""Online false discovery rate control.

Streaming decision procedures (SAFFRON and its relatives: LORD,
alpha-investing, and the monotone alpha-investing variant), running FDP
estimators, offline step-up baselines, and a seeded Monte Carlo harness
for power/FDR experiments.

The public names below are loaded lazily (PEP 562): ``import onlinefdr``
imports no submodule, and ``from onlinefdr import Saffron`` imports only
``procedures`` and what it needs (``gamma`` and ``records``).  The
submodules themselves are attributes too, as ``onlinefdr.simulation``.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("estimators", "TrialSummary aggregate fdp_hat_lord fdp_hat_saffron fdp_oracle"),
    ("gamma", "GammaSequence from_spec log_optimal power_law"),
    ("offline", "OfflineResult bh storey_bh"),
    ("procedures", "PROCEDURE_NAMES AdaptiveSaffron AlphaInvesting Lord OnlineProcedure Saffron"
                   " make_procedure"),
    ("records", "DecisionRecord StreamTrace TrialResult fdp_from_flags power_from_flags"
                " validate_pvalue"),
    ("simulation", "BetaAlternative DataModel GaussianMean ProcedureSpec SimConfig SweepRow"
                   " generate_stream grid normal_sf parse_model run_cell sweep trial_rng"
                   " write_csv"),
) for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
