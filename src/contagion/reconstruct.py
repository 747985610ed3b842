"""Ensemble reconstruction of interbank networks from per-bank aggregates.

Pipeline: rebalance the two interbank totals to a common volume, derive a
fitness score per bank, calibrate the link-probability scale to a target
density, sample directed adjacency matrices, and fill in weights by iterative
proportional fitting against the aggregate marginals.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .core import build_network, DEFAULT_ASSET_CLASSES
from .errors import (
    AllZeroTotals, ContagionError, EnsembleInfeasible, InfeasibleSupport,
    IPFNonConvergence, UnreachableDensity,
)


@dataclass(frozen=True)
class Aggregates:
    """Per-bank totals sufficient to reconstruct a network ensemble."""

    bank_ids: tuple
    equity: np.ndarray
    interbank_assets: np.ndarray
    interbank_liabilities: np.ndarray
    external_assets_by_class: np.ndarray   # n x m
    asset_classes: tuple = DEFAULT_ASSET_CLASSES

    @property
    def n(self) -> int:
        return len(self.bank_ids)

    @property
    def external_assets(self) -> np.ndarray:
        return self.external_assets_by_class.sum(axis=1)


IPF_MARGINAL_TOLERANCE = 0.01  # absolute and relative marginal deviation
IPF_MAX_SWEEPS = 10_000
# A fit has stalled, and fails, when its residual has fallen by no more than
# IPF_STALL_RTOL of itself over the last IPF_STALL_WINDOW sweeps. Supports that
# cannot carry the marginals plateau: over both attempts of the 1000 members
# of the criterion-7 acceptance ensemble, all 61 failing fits stall by sweep
# 1,335, while every window of the 1,939 accepted fits falls by 4 % or more.
IPF_STALL_WINDOW = 100
IPF_STALL_RTOL = 1e-6


@dataclass(frozen=True)
class ReconstructionConfig:
    target_density: float = 0.20
    ensemble_size: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_density <= 1.0:
            raise ValueError("target_density must lie in (0, 1]")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be positive")


def rebalance_totals(aggregates: Aggregates) -> Aggregates:
    """Scale the larger interbank side so both totals equal the smaller one."""
    a = aggregates.interbank_assets.sum()
    l = aggregates.interbank_liabilities.sum()
    if a <= 0 or l <= 0:
        raise AllZeroTotals("interbank totals must be positive on both sides")
    target = min(a, l)
    return replace(
        aggregates,
        interbank_assets=aggregates.interbank_assets * (target / a),
        interbank_liabilities=aggregates.interbank_liabilities * (target / l),
    )


def fitness_scores(aggregates: Aggregates) -> np.ndarray:
    """x_i = (A^b_i / sum A^b + L^b_i / sum L^b) / 2."""
    a = aggregates.interbank_assets
    l = aggregates.interbank_liabilities
    return 0.5 * (a / a.sum() + l / l.sum())


def _link_probabilities(x: np.ndarray, z: float) -> np.ndarray:
    xx = np.outer(x, x)
    p = z * xx / (1.0 + z * xx)
    np.fill_diagonal(p, 0.0)
    return p


def _density_function(x: np.ndarray, row_needed=None, col_needed=None):
    """Mean link density as a function of z, with the z-free matrices built once.

    Each evaluation fills two preallocated n x n buffers with the floats of
    _link_probabilities(x, z) and reduces them in the same order.
    """
    xx = np.outer(x, x)
    mask = xx > 0
    np.fill_diagonal(mask, False)
    if not mask.any():
        raise UnreachableDensity("all fitness products vanish")
    pairs = mask.sum()
    p, q = np.empty_like(xx), np.empty_like(xx)

    def density(z: float) -> float:
        np.multiply(z, xx, out=p)
        np.divide(p, np.add(1.0, p, out=q), out=p)
        np.fill_diagonal(p, 0.0)
        expected_links = p[mask].sum()
        # Support repair forces one link for any needed-but-empty row or column;
        # include its expected contribution so the calibrated mean density is
        # that of the full sampling procedure, not just the Bernoulli stage.
        np.subtract(1.0, p, out=q)
        for axis, needed in ((1, row_needed), (0, col_needed)):
            if needed is not None:
                reachable = p.max(axis=axis) > 0
                expected_links += np.prod(q, axis=axis)[needed & reachable].sum()
        return float(expected_links / pairs)

    return density


def calibrate_z(fitnesses: np.ndarray, target_density: float,
                tol: float = 1e-6, row_needed=None, col_needed=None) -> float:
    """Solve for the scale z giving the target mean link probability.

    Density is averaged over ordered pairs with positive fitness product;
    zero-fitness banks are isolated by construction. Monotone bisection after
    exponential bracketing. When the needed-marginal masks are given, the
    expected links forced by support repair are part of the calibrated mean.
    Raises UnreachableDensity when 200 bisection steps do not bring the
    density within tol of the target.
    """
    if target_density >= 1.0:
        raise UnreachableDensity("mean link probability is strictly below 1")
    if target_density <= 0.0:
        return 0.0
    density = _density_function(fitnesses, row_needed, col_needed)
    hi = 1.0
    while density(hi) < target_density:
        hi *= 10.0
        if hi > 1e30:
            raise UnreachableDensity("density target not reachable")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d = density(mid)
        if abs(d - target_density) <= tol:
            return mid
        if d < target_density:
            lo = mid
        else:
            hi = mid
    raise UnreachableDensity(
        f"bisection did not reach density {target_density} within {tol}")


def sample_adjacency(fitnesses: np.ndarray, z: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws per ordered pair; zero diagonal."""
    p = _link_probabilities(fitnesses, z)
    return rng.random(p.shape) < p


def ipf_weights(adjacency: np.ndarray, row_targets: np.ndarray,
                col_targets: np.ndarray, tolerance: float = IPF_MARGINAL_TOLERANCE,
                max_sweeps: int = IPF_MAX_SWEEPS,
                init: np.ndarray | None = None) -> np.ndarray:
    """Alternate row/column scaling of a weight matrix on a fixed support.

    Targets are normalized marginal shares (each side sums to one). Stops
    when both the absolute and relative marginal deviations drop below the
    tolerance. The initial matrix defaults to the adjacency itself. Raises
    IPFNonConvergence once the residual, the larger of the two deviations,
    has stalled (see IPF_STALL_WINDOW) or after max_sweeps sweeps.
    """
    adjacency = adjacency.astype(bool)
    row_pos, col_pos = row_targets > 0, col_targets > 0
    for i in np.flatnonzero(row_pos & ~adjacency.any(axis=1)):
        raise InfeasibleSupport(int(i), "lending")
    for j in np.flatnonzero(col_pos & ~adjacency.any(axis=0)):
        raise InfeasibleSupport(int(j), "borrowing")

    w = (adjacency.astype(float) if init is None
         else np.where(adjacency, init, 0.0).astype(float))
    if w.sum() <= 0:
        raise InfeasibleSupport(0, "lending")
    w = w / w.sum()

    def deviation(rs, cs):
        """Largest absolute or relative deviation from the marginals."""
        r = np.abs(rs - row_targets)
        c = np.abs(cs - col_targets)
        rel_r = r[row_pos] / row_targets[row_pos]
        rel_c = c[col_pos] / col_targets[col_pos]
        return max(r.max(), c.max(), rel_r.max(initial=0.0), rel_c.max(initial=0.0))

    residuals = []  # residuals[k] is the residual after k sweeps
    rs = w.sum(axis=1)  # row sums of the current w, reused by the next sweep
    for sweep in range(max_sweeps + 1):
        residual = deviation(rs, w.sum(axis=0))
        if residual < tolerance:
            return w
        stalled = (sweep >= IPF_STALL_WINDOW and residuals[sweep - IPF_STALL_WINDOW]
                   - residual <= IPF_STALL_RTOL * residual)
        if stalled or sweep == max_sweeps:
            raise IPFNonConvergence(sweep, residual)
        residuals.append(residual)
        scale = np.where(rs > 0, np.divide(row_targets, rs, out=np.ones_like(rs),
                                           where=rs > 0), 0.0)
        w = w * scale[:, None]
        cs = w.sum(axis=0)
        scale = np.where(cs > 0, np.divide(col_targets, cs, out=np.ones_like(cs),
                                           where=cs > 0), 0.0)
        w = w * scale[None, :]
        rs = w.sum(axis=1)


@dataclass(frozen=True)
class EnsembleResult:
    networks: list
    skipped: list                 # (index, reason) pairs
    densities: np.ndarray
    config: ReconstructionConfig
    z: float


def _repair_support(adj: np.ndarray, probs: np.ndarray, row_needed: np.ndarray,
                    col_needed: np.ndarray) -> int:
    """Force the most probable link for banks whose marginal needs one.

    Heavy-tailed fitness makes empty rows/columns for the smallest banks a
    routine sampling outcome; a deterministic minimal repair keeps the draw
    usable without meaningfully moving the density. Returns the number of
    forced links.
    """
    forced = 0
    for i in np.flatnonzero(row_needed & ~adj.any(axis=1)):
        j = int(np.argmax(probs[i]))
        if probs[i, j] > 0:
            adj[i, j] = True
            forced += 1
    for j in np.flatnonzero(col_needed & ~adj.any(axis=0)):
        i = int(np.argmax(probs[:, j]))
        if probs[i, j] > 0:
            adj[i, j] = True
            forced += 1
    return forced


def _member_rng(seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    key = (index,) if attempt == 0 else (index, attempt)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _build_member(aggregates: Aggregates, x, z, config, index) -> tuple:
    volume = aggregates.interbank_assets.sum()
    row_t = aggregates.interbank_assets / volume       # lending shares
    col_t = aggregates.interbank_liabilities / volume  # borrowing shares
    last_error = None
    for attempt in (0, 1):
        rng = _member_rng(config.rng_seed, index, attempt)
        adj = sample_adjacency(x, z, rng)
        _repair_support(adj, _link_probabilities(x, z), row_t > 0, col_t > 0)
        if not adj.any():
            last_error = ContagionError("empty adjacency draw")
            continue
        try:
            pi_hat = ipf_weights(adj, row_t, col_t, init=np.outer(x, x))
        except ContagionError as exc:
            last_error = exc
            continue
        # pi_hat rows are lender shares: entry (i, j) is i's claim on j.
        claims = pi_hat * volume
        liabilities = claims.T
        ab = claims.sum(axis=1)
        lb = liabilities.sum(axis=1)
        ae_cls = aggregates.external_assets_by_class
        ae = ae_cls.sum(axis=1)
        le = ae + ab - lb - aggregates.equity
        if np.any(le < 0):
            last_error = ContagionError("negative implied outside liabilities")
            continue
        net = build_network(liabilities, aggregates.equity, ae_cls, le, ab, lb,
                            asset_classes=aggregates.asset_classes)
        density = adj.sum() / (adj.shape[0] * (adj.shape[0] - 1))
        return net, float(density), None
    return None, None, last_error


def generate_ensemble(aggregates: Aggregates,
                      config: ReconstructionConfig) -> EnsembleResult:
    """Sample ensemble_size networks consistent with the aggregates.

    Members are seeded independently from (rng_seed, index), so serial and
    parallel generation agree. A member whose adjacency cannot carry the
    marginals is re-drawn once; members failing twice are skipped, and more
    than 1% skips aborts the run.
    """
    agg = rebalance_totals(aggregates)
    x = fitness_scores(agg)
    z = calibrate_z(x, config.target_density,
                    row_needed=agg.interbank_assets > 0,
                    col_needed=agg.interbank_liabilities > 0)
    networks, skipped, densities = [], [], []
    for idx in range(config.ensemble_size):
        net, density, err = _build_member(agg, x, z, config, idx)
        if net is None:
            skipped.append((idx, str(err)))
        else:
            networks.append(net)
            densities.append(density)
    if len(skipped) > max(1, config.ensemble_size) * 0.01:
        raise EnsembleInfeasible(
            f"{len(skipped)} of {config.ensemble_size} draws infeasible")
    return EnsembleResult(
        networks=networks,
        skipped=skipped,
        densities=np.array(densities),
        config=config,
        z=z,
    )


def write_ensemble(result: EnsembleResult, aggregates: Aggregates,
                   out_dir: str) -> None:
    """Serialize an ensemble: edge list CSV, balance-sheet CSV, manifest JSON."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "edges.csv"), "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["realization", "debtor", "creditor", "liability"])
        for k, net in enumerate(result.networks):
            ii, jj = np.nonzero(net.liabilities)
            for i, j in zip(ii, jj):
                wr.writerow([k, aggregates.bank_ids[i], aggregates.bank_ids[j],
                             repr(net.liabilities[i, j])])
    with open(os.path.join(out_dir, "balance_sheets.csv"), "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["realization", "bank_id", "equity", "external_assets",
                     "interbank_assets", "interbank_liabilities",
                     "external_liabilities"])
        for k, net in enumerate(result.networks):
            # tolist() yields Python floats, whose repr carries no numpy prefix
            columns = zip(aggregates.bank_ids, net.equity.tolist(),
                          net.external_assets.tolist(), net.interbank_assets.tolist(),
                          net.interbank_liabilities.tolist(),
                          net.external_liabilities.tolist())
            for bank_id, *values in columns:
                wr.writerow([k, bank_id, *map(repr, values)])
    manifest = {
        "ensemble_size": result.config.ensemble_size,
        "emitted": len(result.networks),
        "skipped": result.skipped,
        "target_density": result.config.target_density,
        "mean_density": float(result.densities.mean()) if len(result.densities) else None,
        "z": result.z,
        "rng_seed": result.config.rng_seed,
        "ipf_marginal_tolerance": IPF_MARGINAL_TOLERANCE,
        "bank_ids": list(aggregates.bank_ids),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
