"""Online false discovery rate control.

Streaming decision procedures (SAFFRON and its relatives: LORD,
alpha-investing, and the monotone alpha-investing variant), running FDP
estimators, offline step-up baselines, and a seeded Monte Carlo harness
for power/FDR experiments.
"""

from .estimators import (
    TrialSummary,
    aggregate,
    fdp_hat_lord,
    fdp_hat_saffron,
    fdp_oracle,
    mfdr,
)
from .gamma import GammaSequence, beta_optimal, from_spec, log_optimal, power_law
from .offline import OfflineResult, bh, storey_bh, storey_pi0
from .procedures import (
    PROCEDURE_NAMES,
    AdaptiveSaffron,
    AlphaInvesting,
    Lord,
    OnlineProcedure,
    ProtocolError,
    Saffron,
    make_procedure,
    saffron_ai,
)
from .records import (
    DecisionRecord,
    StreamTrace,
    TrialResult,
    fdp_from_flags,
    power_from_flags,
    validate_pvalue,
)
from .simulation import (
    BetaAlternative,
    DataModel,
    GaussianMean,
    ProcedureSpec,
    SimConfig,
    SweepRow,
    generate_stream,
    grid,
    normal_sf,
    parse_model,
    run_cell,
    run_trial,
    run_trials,
    sweep,
    trial_rng,
    write_csv,
)

__version__ = "0.1.0"
