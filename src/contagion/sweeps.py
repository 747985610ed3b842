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
from .models import MODEL_NAMES
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
        if not self.models or len(set(self.models)) != len(self.models):
            raise ValueError(f"models must be non-empty, without repeats: {list(self.models)}")
        if self.asset_class not in ASSET_CLASS_CHOICES:
            raise ValueError(f"asset_class must be one of {ASSET_CLASS_CHOICES}")


def make_shock(asset_class: str, s: float) -> ShockSpec:
    if asset_class == "all_external":
        return ShockSpec.uniform(s)
    return ShockSpec.on_class(asset_class, s)


def _sweep(networks, shocks, points, models, h1: bool = False, fractions: bool = False) -> dict:
    """Run each network under each shock through the firewall at each point
    (R, rv_beta); return (shock index, point index, model) -> the median H(1)
    if ``h1``, median and quartiles of H(inf), and the median first-round and
    final default fractions if ``fractions``."""
    if not networks:
        raise ValueError("a sweep needs at least one network")
    stats = np.zeros((len(networks), len(shocks), len(points), len(models), 4))
    for ni, net in enumerate(networks):
        for si, shock in enumerate(shocks):
            for pi, (R, beta) in enumerate(points):
                trajs = run_with_firewall(net, shock, models, R, beta)
                # Row 1 is h(1), the same in every model.
                df1 = np.count_nonzero(trajs[models[0]].h[1] >= 1.0) / net.n
                for mi, m in enumerate(models):
                    stats[ni, si, pi, mi] = (
                        global_vulnerability(trajs[m], net, 1) if h1 else 0.0,
                        global_vulnerability(trajs[m], net), df1,
                        np.count_nonzero(trajs[m].h[-1] >= 1.0) / net.n)
    medians = np.median(stats, axis=0).tolist()
    q25, q75 = np.quantile(stats[..., 1], (0.25, 0.75), axis=0).tolist()
    out = {}
    for si, pi, mi in np.ndindex(stats.shape[1:4]):
        first, final, df1, df_inf = medians[si][pi][mi]
        cols = {"H1": first} if h1 else {}
        cols.update(H_inf_median=final, H_inf_q25=q25[si][pi][mi], H_inf_q75=q75[si][pi][mi])
        if fractions:
            cols.update(default_fraction_first=df1, default_fraction_final=df_inf)
        out[si, pi, models[mi]] = cols
    return out


def run_shock_sweep(networks, spec: SweepSpec) -> list:
    """Per shock level and model: long-format rows (dicts) of the ensemble
    median H(1), median and quartiles of H(inf), and median default fractions."""
    if len(spec.recovery_grid) != 1:
        raise ValueError("a shock sweep takes one recovery rate")
    R, beta = spec.recovery_grid[0], spec.rv_beta
    cols = _sweep(networks, [make_shock(spec.asset_class, s) for s in spec.shock_grid],
                  [(R, beta)], spec.models, h1=True, fractions=True)
    return [{"shock": s, "model": m, "recovery_rate": R, "rv_beta": beta, **cols[si, 0, m]}
            for si, s in enumerate(spec.shock_grid) for m in spec.models]


def run_recovery_sweep(networks, spec: SweepSpec) -> list:
    """Per (recovery rate, shock): final H per model, RV at beta = R. Each distinct
    clearing and cDR(R = 0) run of a network under a shock is computed once."""
    if spec.rv_beta != SweepSpec.rv_beta:
        raise ValueError("a recovery sweep runs RV at beta = R and takes no rv_beta")
    cols = _sweep(networks, [make_shock(spec.asset_class, s) for s in spec.shock_grid],
                  [(R, R) for R in spec.recovery_grid], spec.models)
    return [{"recovery_rate": R, "shock": s, "model": m, **cols[si, pi, m]}
            for pi, R in enumerate(spec.recovery_grid)
            for si, s in enumerate(spec.shock_grid) for m in spec.models]


def run_timeseries(panel: Panel, spec: SweepSpec) -> list:
    """Per quarter: shared H(1) and ensemble-median H(inf) per model."""
    if len(spec.shock_grid) != 1 or len(spec.recovery_grid) != 1:
        raise ValueError("a time series takes one shock and one recovery rate")
    shock = make_shock(spec.asset_class, spec.shock_grid[0])
    rows = []
    for qi, quarter in enumerate(panel.quarters):
        agg, _ = to_aggregates(panel, quarter)
        cfg = replace(spec.ensemble, rng_seed=spec.ensemble.rng_seed + qi)
        cols = _sweep(generate_ensemble(agg, cfg).networks, [shock],
                      [(spec.recovery_grid[0], spec.rv_beta)], spec.models, h1=True)
        rows += [{"quarter": quarter, "model": m, **cols[0, 0, m]} for m in spec.models]
    return rows
