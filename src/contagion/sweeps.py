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
    return len(traj.default_sets[min(t, len(traj.default_sets) - 1)]) / traj.n


def _quantiles(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    return (float(np.median(arr)), float(np.quantile(arr, 0.25)),
            float(np.quantile(arr, 0.75)))


def run_shock_sweep(networks, spec: SweepSpec, recovery_rate: float | None = None,
                    rv_beta: float | None = None) -> list:
    """Per shock level and model: H(1), H(inf), default fractions.

    Returns long-format rows (dicts) with ensemble median and quartiles.
    """
    R = spec.recovery_grid[0] if recovery_rate is None else recovery_rate
    beta = spec.rv_beta if rv_beta is None else rv_beta
    rows = []
    for s in spec.shock_grid:
        shock = make_shock(spec.asset_class, s)
        per_model = {m: {"H1": [], "H_inf": [], "df1": [], "df_inf": []}
                     for m in spec.models}
        for net in networks:
            trajs = run_with_firewall(net, shock, spec.models, R, beta)
            for m in spec.models:
                traj = trajs[m]
                per_model[m]["H1"].append(global_vulnerability(traj, net, 1))
                per_model[m]["H_inf"].append(global_vulnerability(traj, net))
                per_model[m]["df1"].append(_default_fraction(traj, 1))
                per_model[m]["df_inf"].append(_default_fraction(traj, len(traj.default_sets) - 1))
        for m in spec.models:
            med, q25, q75 = _quantiles(per_model[m]["H_inf"])
            rows.append({
                "shock": s,
                "model": m,
                "recovery_rate": R,
                "rv_beta": beta,
                "H1": float(np.median(per_model[m]["H1"])),
                "H_inf_median": med,
                "H_inf_q25": q25,
                "H_inf_q75": q75,
                "default_fraction_first": float(np.median(per_model[m]["df1"])),
                "default_fraction_final": float(np.median(per_model[m]["df_inf"])),
            })
    return rows


def run_recovery_sweep(networks, spec: SweepSpec) -> list:
    """Per (recovery rate, shock): final H per model, with the discounted
    clearing model run at beta equal to the recovery rate."""
    rows = []
    for R in spec.recovery_grid:
        for s in spec.shock_grid:
            shock = make_shock(spec.asset_class, s)
            per_model = {m: [] for m in spec.models}
            for net in networks:
                trajs = run_with_firewall(net, shock, spec.models, R, R)
                for m in spec.models:
                    per_model[m].append(global_vulnerability(trajs[m], net))
            for m in spec.models:
                med, q25, q75 = _quantiles(per_model[m])
                rows.append({
                    "recovery_rate": R,
                    "shock": s,
                    "model": m,
                    "H_inf_median": med,
                    "H_inf_q25": q25,
                    "H_inf_q75": q75,
                })
    return rows


def run_timeseries(panel: Panel, spec: SweepSpec, shock_level: float | None = None,
                   recovery_rate: float | None = None) -> list:
    """Per quarter: shared H(1) and ensemble-median H(inf) per model."""
    s = spec.shock_grid[0] if shock_level is None else shock_level
    R = spec.recovery_grid[0] if recovery_rate is None else recovery_rate
    rows = []
    for qi, quarter in enumerate(panel.quarters):
        agg, _ = to_aggregates(panel, quarter)
        cfg = replace(spec.ensemble, rng_seed=spec.ensemble.rng_seed + qi)
        ensemble = generate_ensemble(agg, cfg)
        shock = make_shock(spec.asset_class, s)
        per_model = {m: {"H1": [], "H_inf": []} for m in spec.models}
        for net in ensemble.networks:
            trajs = run_with_firewall(net, shock, spec.models, R, spec.rv_beta)
            for m in spec.models:
                per_model[m]["H1"].append(global_vulnerability(trajs[m], net, 1))
                per_model[m]["H_inf"].append(global_vulnerability(trajs[m], net))
        for m in spec.models:
            med, q25, q75 = _quantiles(per_model[m]["H_inf"])
            rows.append({
                "quarter": quarter,
                "model": m,
                "H1": float(np.median(per_model[m]["H1"])),
                "H_inf_median": med,
                "H_inf_q25": q25,
                "H_inf_q75": q75,
            })
    return rows
