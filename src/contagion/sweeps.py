"""Batch experiment harness: time series, shock sweeps, recovery sweeps.

Every realization passes through the ordering firewall
(``analysis.run_with_firewall``, re-exported here) before its numbers are
emitted: the clearing model may never exceed the discounted clearing model,
and the discounted clearing model may never exceed the zero-recovery cyclic
cascade. A violation signals an implementation bug and aborts the run.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import global_vulnerability, run_with_firewall
from .core import ShockSpec
from .ingest import Panel, to_aggregates
from .models import MODEL_NAMES, Trajectory
from .reconstruct import ReconstructionConfig, generate_ensemble

ASSET_CLASS_CHOICES = ("all_external", "derivatives", "impaired_loans")


@dataclass(frozen=True)
class SweepSpec:
    models: tuple = MODEL_NAMES
    shock_grid: tuple = (0.01,)
    recovery_grid: tuple = (0.6,)
    asset_class: str = "all_external"
    ensemble: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    rv_beta: float = 0.6

    def __post_init__(self):
        if not self.shock_grid or not self.recovery_grid:
            raise ValueError("grids must be non-empty")
        for v in tuple(self.shock_grid) + tuple(self.recovery_grid):
            if not 0.0 <= v <= 1.0:
                raise ValueError("grid values must lie in [0, 1]")
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}")
        if self.asset_class not in ASSET_CLASS_CHOICES:
            raise ValueError(f"asset_class must be one of {ASSET_CLASS_CHOICES}")


def make_shock(asset_class: str, s: float) -> ShockSpec:
    if asset_class == "all_external":
        return ShockSpec.uniform(s)
    return ShockSpec.on_class(asset_class, s)


def _default_fraction(traj: Trajectory, t: int) -> float:
    row = traj.h[t]
    return int(np.count_nonzero(row >= 1.0)) / row.size


# Per-run statistics a sweep can collect, by name. The lambdas look names up
# at call time, so a rebinding of global_vulnerability (the bench tracer's)
# is seen.
_STATISTICS = {
    "H1": lambda traj, net: global_vulnerability(traj, net, 1),
    "H_inf": lambda traj, net: global_vulnerability(traj, net),
    "df1": lambda traj, net: _default_fraction(traj, 1),
    "df_inf": lambda traj, net: _default_fraction(traj, -1),
}


def _collect(networks, shock: ShockSpec, models, recovery_rate: float,
             rv_beta: float, stats) -> dict:
    """Run every network through the firewall; return model -> statistic ->
    one value per network, for the named statistics only."""
    out = {m: {name: [] for name in stats} for m in models}
    for net in networks:
        trajs = run_with_firewall(net, shock, models, recovery_rate, rv_beta)
        for m in models:
            for name in stats:
                out[m][name].append(_STATISTICS[name](trajs[m], net))
    return out


def _h_inf_columns(values) -> dict:
    """Ensemble median and quartiles of H(inf)."""
    arr = np.asarray(values, dtype=float)
    return {"H_inf_median": float(np.median(arr)),
            "H_inf_q25": float(np.quantile(arr, 0.25)),
            "H_inf_q75": float(np.quantile(arr, 0.75))}


def run_shock_sweep(networks, spec: SweepSpec) -> list:
    """Per shock level and model: H(1), H(inf), default fractions.

    Returns long-format rows (dicts) with ensemble median and quartiles.
    """
    R, beta = spec.recovery_grid[0], spec.rv_beta
    rows = []
    for s in spec.shock_grid:
        per_model = _collect(networks, make_shock(spec.asset_class, s), spec.models,
                             R, beta, ("H1", "H_inf", "df1", "df_inf"))
        for m in spec.models:
            v = per_model[m]
            rows.append({
                "shock": s,
                "model": m,
                "recovery_rate": R,
                "rv_beta": beta,
                "H1": float(np.median(v["H1"])),
                **_h_inf_columns(v["H_inf"]),
                "default_fraction_first": float(np.median(v["df1"])),
                "default_fraction_final": float(np.median(v["df_inf"])),
            })
    return rows


def run_recovery_sweep(networks, spec: SweepSpec) -> list:
    """Per (recovery rate, shock): final H per model, with the discounted
    clearing model run at beta equal to the recovery rate."""
    rows = []
    for R in spec.recovery_grid:
        for s in spec.shock_grid:
            per_model = _collect(networks, make_shock(spec.asset_class, s), spec.models,
                                 R, R, ("H_inf",))
            for m in spec.models:
                rows.append({"recovery_rate": R, "shock": s, "model": m,
                             **_h_inf_columns(per_model[m]["H_inf"])})
    return rows


def run_timeseries(panel: Panel, spec: SweepSpec) -> list:
    """Per quarter: shared H(1) and ensemble-median H(inf) per model."""
    shock = make_shock(spec.asset_class, spec.shock_grid[0])
    rows = []
    for qi, quarter in enumerate(panel.quarters):
        agg, _ = to_aggregates(panel, quarter)
        cfg = replace(spec.ensemble, rng_seed=spec.ensemble.rng_seed + qi)
        per_model = _collect(generate_ensemble(agg, cfg).networks, shock, spec.models,
                             spec.recovery_grid[0], spec.rv_beta, ("H1", "H_inf"))
        for m in spec.models:
            v = per_model[m]
            rows.append({"quarter": quarter, "model": m,
                         "H1": float(np.median(v["H1"])),
                         **_h_inf_columns(v["H_inf"])})
    return rows
