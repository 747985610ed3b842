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
from .models import MODEL_NAMES, run_table
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
        if not 0.0 <= self.rv_beta <= 1.0:
            raise ValueError("rv_beta must lie in [0, 1]")
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}")
        if self.asset_class not in ASSET_CLASS_CHOICES:
            raise ValueError(f"asset_class must be one of {ASSET_CLASS_CHOICES}")


def make_shock(asset_class: str, s: float) -> ShockSpec:
    if asset_class == "all_external":
        return ShockSpec.uniform(s)
    return ShockSpec.on_class(asset_class, s)


def _summarise(networks, shock: ShockSpec, models, recovery_rate: float,
              rv_beta: float, h1: bool = False, fractions: bool = False) -> dict:
    """Run every network through the firewall once; return model -> summary
    columns: the ensemble median of H(1) if ``h1``, median and quartiles of
    H(inf), and the median first-round and final default fractions if
    ``fractions``. A statistic not asked for is not computed; 0.0 holds its
    place."""
    values = {m: [] for m in models}
    for net in networks:
        trajs = run_with_firewall(net, shock, models, recovery_rate, rv_beta)
        for m in models:
            h = trajs[m].h
            values[m].append((
                global_vulnerability(trajs[m], net, 1) if h1 else 0.0,
                global_vulnerability(trajs[m], net),
                np.count_nonzero(h[1] >= 1.0) / h.shape[1] if fractions else 0.0,
                np.count_nonzero(h[-1] >= 1.0) / h.shape[1] if fractions else 0.0))
    out = {}
    for m in models:
        first, final, df1, df_inf = np.array(values[m], dtype=float).T
        cols = {"H1": float(np.median(first))} if h1 else {}
        cols.update(H_inf_median=float(np.median(final)),
                    H_inf_q25=float(np.quantile(final, 0.25)),
                    H_inf_q75=float(np.quantile(final, 0.75)))
        if fractions:
            cols.update(default_fraction_first=float(np.median(df1)),
                        default_fraction_final=float(np.median(df_inf)))
        out[m] = cols
    return out


def run_shock_sweep(networks, spec: SweepSpec) -> list:
    """Per shock level and model: H(1), H(inf), default fractions.

    Returns long-format rows (dicts) with ensemble median and quartiles.
    """
    if len(spec.recovery_grid) != 1:
        raise ValueError("a shock sweep takes one recovery rate")
    R, beta = spec.recovery_grid[0], spec.rv_beta
    rows = []
    for s in spec.shock_grid:
        cols = _summarise(networks, make_shock(spec.asset_class, s), spec.models, R, beta,
                         h1=True, fractions=True)
        rows += [{"shock": s, "model": m, "recovery_rate": R, "rv_beta": beta, **cols[m]}
                 for m in spec.models]
    return rows


def run_recovery_sweep(networks, spec: SweepSpec) -> list:
    """Per (recovery rate, shock): final H per model, RV at beta = R. Each
    distinct clearing and cDR(R = 0) run is computed once (run_table)."""
    if spec.rv_beta != SweepSpec.rv_beta:
        raise ValueError("a recovery sweep runs RV at beta = R and takes no rv_beta")
    cols = {}
    for s in spec.shock_grid:
        shock = make_shock(spec.asset_class, s)
        with run_table():  # a run can repeat only under the same shock
            for R in spec.recovery_grid:
                cols[R, s] = _summarise(networks, shock, spec.models, R, R)
    return [{"recovery_rate": R, "shock": s, "model": m, **cols[R, s][m]}
            for R in spec.recovery_grid for s in spec.shock_grid for m in spec.models]


def run_timeseries(panel: Panel, spec: SweepSpec) -> list:
    """Per quarter: shared H(1) and ensemble-median H(inf) per model."""
    if len(spec.shock_grid) != 1 or len(spec.recovery_grid) != 1:
        raise ValueError("a time series takes one shock and one recovery rate")
    shock = make_shock(spec.asset_class, spec.shock_grid[0])
    rows = []
    for qi, quarter in enumerate(panel.quarters):
        agg, _ = to_aggregates(panel, quarter)
        cfg = replace(spec.ensemble, rng_seed=spec.ensemble.rng_seed + qi)
        cols = _summarise(generate_ensemble(agg, cfg).networks, shock, spec.models,
                         spec.recovery_grid[0], spec.rv_beta, h1=True)
        rows += [{"quarter": quarter, "model": m, **cols[m]} for m in spec.models]
    return rows
