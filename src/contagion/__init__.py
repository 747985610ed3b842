"""Financial-contagion simulation on leverage networks.

Five distress-propagation models over a shared balance-sheet data model,
global vulnerability and the proved-ordering firewall, interbank network
reconstruction from aggregates, panel ingestion, and sweep tooling. The
paper's closed forms and conservation identity are test oracles.
"""
from .core import (
    FirstRound, LeverageDecomposition, LiabilityNetwork,
    RelativeLiabilities, ShockSpec, apply_first_round, build_network,
    leverage_decomposition, network_from_vectors, relative_liabilities,
)
from .models import (
    ADR, CDR, DC, EN, MODEL_NAMES, RV, ModelConfig, Trajectory, run_model,
)
from .analysis import (
    OrderingReport, global_vulnerability, ordering_audit, run_with_firewall,
)
from .reconstruct import (
    Aggregates, EnsembleResult, ReconstructionConfig, calibrate_z,
    fitness_scores, generate_ensemble, ipf_weights, rebalance_totals,
    sample_adjacency, write_ensemble,
)
from .ingest import (
    Panel, PanelRecord, interpolate_missing, load_panel, synthesize_panel,
    to_aggregates,
)
from .sweeps import (
    SweepSpec, make_shock, run_recovery_sweep, run_shock_sweep,
    run_timeseries,
)
from . import errors, fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
