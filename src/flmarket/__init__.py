"""Desk-scale simulator of auction-based federated learning in a buyers' market.

Contracts are priced with procurement-auction closed forms under complete
and incomplete information, clients are scored with a Banzhaf-index
reputation mechanism, and reputations live in a tamper-evident
hash-chained ledger.
"""

from .auction import (
    ClientProfile,
    RoundReport,
    SimulationState,
    run_experiment,
    run_round,
)
from .flsim import (
    AggregationConfig,
    Aggregator,
    ModelParams,
    PoisonConfig,
    SyntheticDataset,
    aggregate,
    evaluate_accuracy,
    generate_population,
    local_train,
    poison,
)
from .ledger import HashChainLedger, PlainStore, ReputationRecord, TamperConfig, tamper_attack
from .mechanism import (
    Contract,
    IcDiagnostic,
    MarketParams,
    Regime,
    client_utility,
    cost,
    ic_diagnostic,
    information_rent,
    server_utility_per_client,
    solve_complete,
    solve_incomplete,
)
from .reputation import (
    CoalitionMode,
    CoalitionUtility,
    ReputationParams,
    banzhaf_exact,
    banzhaf_mc,
    select_top_k,
    update_reputation,
)

__version__ = "0.1.0"
