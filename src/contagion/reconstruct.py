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
from types import SimpleNamespace

import numpy as np

from .core import build_network
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

    @property
    def n(self) -> int:
        return len(self.bank_ids)


IPF_MARGINAL_TOLERANCE = 0.01  # absolute and relative marginal deviation
IPF_MAX_SWEEPS = 10_000
# A fit has stalled, and fails, when its residual has fallen by no more than
# IPF_STALL_RTOL of itself over the last IPF_STALL_WINDOW sweeps. _check_hall
# rejects a support where one bank's partners cannot take its share; one where
# only a group of banks is short still reaches the fit and plateaus. Of the
# 1,035 fits of the criterion-7 acceptance ensemble, 37 fail: the check catches
# 36 and the last stalls at sweep 1,335. The 998 accepted fits converge within
# 242 sweeps.
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
    """Scale the larger interbank side so both totals equal the smaller one;
    AllZeroTotals if a side sums to 0, also after scaling to a subnormal total."""
    a = aggregates.interbank_assets.sum()
    l = aggregates.interbank_liabilities.sum()
    target = min(a, l)
    with np.errstate(divide="ignore", invalid="ignore"):  # a side summing to 0 gives nan
        assets = aggregates.interbank_assets * (target / a)
        liabilities = aggregates.interbank_liabilities * (target / l)
    if not (assets.sum() > 0 and liabilities.sum() > 0):
        raise AllZeroTotals("interbank totals must be positive on both sides")
    return replace(aggregates, interbank_assets=assets, interbank_liabilities=liabilities)


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


DENSITY_BLOCK_ROWS = 64


def _density_function(x: np.ndarray, row_needed=None, col_needed=None):
    """Mean link density as a function of z, with the z-free arrays built once.

    x is finite and nonnegative, as calibrate_z requires. An evaluation makes
    one pass per DENSITY_BLOCK_ROWS rows of np.outer(x, x) into one small
    buffer: c = 1 / (1 + z x_i x_j) is the chance of no link, its limit 0 where
    z x_i x_j overflows, and is set to 1 on the diagonal. Off the mask it is 1
    exactly, so the expected links are n^2 - sum(c).
    """
    with np.errstate(over="ignore"):
        xx = np.outer(x, x)
        mask = xx > 0
        np.fill_diagonal(mask, False)
        if not mask.any():
            raise UnreachableDensity("all fitness products vanish")
        n, pairs = x.size, int(mask.sum())
        top = int(np.argmax(x))
        peers = np.full(n, x[top])
        peers[top] = np.delete(x, top).max()
        row_max = x * peers  # largest off-diagonal entry of each row of xx
    needed = [m for m in (row_needed, col_needed) if m is not None]
    buf = np.empty((min(DENSITY_BLOCK_ROWS, n), n))

    @np.errstate(over="ignore")
    def density(z: float) -> float:
        total = 0.0
        col_prod = np.ones(n)
        for r0 in range(0, n, DENSITY_BLOCK_ROWS):
            c = buf[:min(DENSITY_BLOCK_ROWS, n - r0)]
            np.multiply(z, xx[r0:r0 + len(c)], out=c)
            c += 1.0
            np.divide(1.0, c, out=c)
            c.ravel()[r0::n + 1] = 1.0  # the diagonal entries of these rows
            total += float(c.sum())
            if needed:
                col_prod *= c.prod(axis=0)
        links = n * n - total
        # Support repair forces one link for each needed-but-empty row or column
        # that can link (z times its largest product is positive). Its expected
        # count, c's column products (its row products too: np.outer(x, x) is
        # exactly symmetric), is part of the calibrated density.
        if needed:
            reachable = z * row_max > 0
            for m in needed:
                links += float(col_prod[m & reachable].sum())
        return links / pairs

    return density


def calibrate_z(fitnesses: np.ndarray, target_density: float,
                tol: float = 1e-6, row_needed=None, col_needed=None) -> float:
    """Solve for the scale z giving the target mean link probability.

    Density is averaged over ordered pairs with positive fitness product;
    zero-fitness banks are isolated by construction. Bisection after
    exponential bracketing. With the needed-marginal masks, the expected links
    forced by support repair are part of the calibrated mean, which then falls
    from its z -> 0 limit before it rises: a target below that limit is
    bracketed by the first decade where the density drops below it. Raises
    UnreachableDensity when no decade of z reaches the target, or when 200
    bisection steps do not bring the density within tol of it, and ValueError
    for a negative or non-finite fitness.
    """
    x = np.asarray(fitnesses, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("fitnesses must be finite and nonnegative")
    if target_density >= 1.0:
        raise UnreachableDensity("mean link probability is strictly below 1")
    if target_density <= 0.0:
        return 0.0
    density = _density_function(x, row_needed, col_needed)
    lo, hi = 0.0, 1.0  # density(lo) < target <= density(hi), once bracketed
    grid = [10.0 ** e for e in range(-30, 31)]
    if density(grid[0]) >= target_density:
        seen = np.array([density(z) for z in grid])
        if not np.any(seen < target_density):
            raise UnreachableDensity(f"no z reaches density {target_density}; "
                                     f"the smallest density seen is {seen.min()}")
        k = int(np.argmax(seen < target_density))
        lo, hi = grid[k], grid[k - 1]
    while density(hi) < target_density:
        hi *= 10.0
        if hi > 1e30:
            raise UnreachableDensity("density target not reachable")
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


def _check_hall(adjacency: np.ndarray, row_targets: np.ndarray,
                col_targets: np.ndarray, tolerance: float) -> None:
    """Raise InfeasibleSupport for a bank whose partners cannot take its share.

    An accepted fit has every row sum above (1 - tolerance) r_i where r_i > 0,
    and every column sum below (1 + tolerance) c_j where c_j > 0 and below
    tolerance where c_j = 0 (only the starting matrix can use that: a column
    sweep empties such a column). All of row i's mass lies in its partners'
    columns, so no fit succeeds if (1 - tolerance) r_i reaches the sum of those
    caps over its partners, 0 for a bank with none; likewise for columns. The
    sum is inflated by n eps to cover its rounding. einsum casts the boolean
    support in small buffers, where a matrix product would copy it to floats.
    """
    slack = 1.0 + adjacency.shape[0] * np.finfo(float).eps
    for side, t, other, subscripts in (("lending", row_targets, col_targets, "ij,j->i"),
                                       ("borrowing", col_targets, row_targets, "ij,i->j")):
        most = np.einsum(subscripts, adjacency,
                         (1.0 + tolerance) * other + tolerance * (other == 0))
        least = (1.0 - tolerance) * t
        for i in np.flatnonzero((t > 0) & (least >= most * slack)):
            raise InfeasibleSupport(int(i), side, float(least[i]), float(most[i]))


def ipf_weights(adjacency: np.ndarray, row_targets: np.ndarray,
                col_targets: np.ndarray, tolerance: float = IPF_MARGINAL_TOLERANCE,
                init: np.ndarray | None = None) -> np.ndarray:
    """Alternate row/column scaling of a weight matrix on a fixed support.

    Targets are normalized marginal shares (each side sums to one). Stops
    when both the absolute and relative marginal deviations drop below the
    tolerance. The initial matrix defaults to the adjacency itself. Raises
    InfeasibleSupport before fitting a support that fails _check_hall, and
    IPFNonConvergence once the residual, the larger of the two deviations,
    has stalled (see IPF_STALL_WINDOW) or after IPF_MAX_SWEEPS sweeps.
    """
    adjacency = adjacency.astype(bool)
    _check_hall(adjacency, row_targets, col_targets, tolerance)
    row_pos, col_pos = row_targets > 0, col_targets > 0

    w = (adjacency.astype(float) if init is None
         else np.where(adjacency, np.asarray(init, dtype=float), 0.0))
    total = w.sum()
    if total <= 0:
        i = int(np.argmax(row_pos))  # init vanishes on the whole support
        raise InfeasibleSupport(i, "lending", (1.0 - tolerance) * row_targets[i], 0.0)
    w /= total  # w is one fresh C-ordered float64 array; the sweeps scale it in place
    row_need, col_need = row_targets[row_pos], col_targets[col_pos]

    def deviation(rs, cs):
        """Largest absolute or relative deviation from the marginals."""
        r = np.abs(rs - row_targets)
        c = np.abs(cs - col_targets)
        rel_r = r[row_pos] / row_need
        rel_c = c[col_pos] / col_need
        return max(r.max(), c.max(), rel_r.max(initial=0.0), rel_c.max(initial=0.0))

    residuals = []  # residuals[k] is the residual after k sweeps
    rs = w.sum(axis=1)  # row sums of the current w, reused by the next sweep
    for sweep in range(IPF_MAX_SWEEPS + 1):
        residual = deviation(rs, w.sum(axis=0))
        if residual < tolerance:
            return w
        stalled = (sweep >= IPF_STALL_WINDOW and residuals[sweep - IPF_STALL_WINDOW]
                   - residual <= IPF_STALL_RTOL * residual)
        if stalled or sweep == IPF_MAX_SWEEPS:
            raise IPFNonConvergence(sweep, residual)
        residuals.append(residual)
        w *= np.divide(row_targets, rs, out=np.zeros_like(rs), where=rs > 0)[:, None]
        cs = w.sum(axis=0)
        w *= np.divide(col_targets, cs, out=np.zeros_like(cs), where=cs > 0)[None, :]
        rs = w.sum(axis=1)


@dataclass(frozen=True)
class EnsembleResult:
    networks: list
    skipped: list                 # (index, reason) pairs
    densities: np.ndarray
    config: ReconstructionConfig
    z: float


def _repair_links(x: np.ndarray, z: float) -> np.ndarray:
    """For each bank, the other end of its most probable link, or -1 where
    every link probability is 0. The probabilities are symmetric, as
    np.outer(x, x) is exactly, so this serves rows and columns alike."""
    probs = _link_probabilities(x, z)
    return np.where(probs.max(axis=1) > 0, probs.argmax(axis=1), -1)


def _repair_support(adj: np.ndarray, link: np.ndarray, row_needed: np.ndarray,
                    col_needed: np.ndarray) -> int:
    """Force the most probable link for banks whose marginal needs one.

    Heavy-tailed fitness makes empty rows/columns for the smallest banks a
    routine sampling outcome; a deterministic minimal repair keeps the draw
    usable without meaningfully moving the density. Rows are repaired first,
    then the columns still empty; link is _repair_links(x, z). Returns the
    number of forced links.
    """
    rows = np.flatnonzero(row_needed & ~adj.any(axis=1) & (link >= 0))
    adj[rows, link[rows]] = True
    cols = np.flatnonzero(col_needed & ~adj.any(axis=0) & (link >= 0))
    adj[link[cols], cols] = True
    return len(rows) + len(cols)


def _member_rng(seed: int, index: int, attempt: int) -> np.random.Generator:
    key = (index,) if attempt == 0 else (index, attempt)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _build_member(aggregates, link, z, config, index) -> tuple:
    """Member `index`; link is _repair_links(x, z). The IPF start np.outer(x, x) is
    rebuilt per attempt, so set-up never holds it for the whole ensemble."""
    x = fitness_scores(aggregates)
    volume = aggregates.interbank_assets.sum()
    row_t = aggregates.interbank_assets / volume       # lending shares
    col_t = aggregates.interbank_liabilities / volume  # borrowing shares
    last_error = None
    for attempt in (0, 1):
        rng = _member_rng(config.rng_seed, index, attempt)
        adj = sample_adjacency(x, z, rng)
        _repair_support(adj, link, row_t > 0, col_t > 0)
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
        ae_cls = aggregates.external_assets_by_class
        le = (ae_cls.sum(axis=1) + claims.sum(axis=1) - liabilities.sum(axis=1)
              - aggregates.equity)
        if np.any(le < 0):
            last_error = ContagionError("negative implied outside liabilities")
            continue
        net = build_network(liabilities, aggregates.equity, ae_cls, le)
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
    link = _repair_links(x, z)
    networks, skipped, densities = [], [], []
    for idx in range(config.ensemble_size):
        net, density, err = _build_member(agg, link, z, config, idx)
        if net is None:
            skipped.append((idx, str(err)))
        else:
            networks.append(net)
            densities.append(density)
    if len(skipped) > config.ensemble_size * 0.01:
        raise EnsembleInfeasible(
            f"{len(skipped)} of {config.ensemble_size} draws infeasible")
    return EnsembleResult(
        networks=networks,
        skipped=skipped,
        densities=np.array(densities),
        config=config,
        z=z,
    )


# edges.csv liability cells: repr(float(x)) between these two strings, which is
# repr(np.float64(x)): ("np.float64(", ")") under numpy 2, ("", "") under numpy 1.
LIABILITY_CELL = tuple(repr(np.float64(0.5)).split("0.5"))


def write_ensemble(result: EnsembleResult, aggregates: Aggregates,
                   out_dir: str) -> None:
    """Serialize an ensemble: edge list CSV, balance-sheet CSV, manifest JSON.

    Each network's CSV rows are written as one string, byte for byte the
    csv.writer rows of repr(np.float64) liabilities and float balance sheets.
    """
    os.makedirs(out_dir, exist_ok=True)
    row = csv.writer(SimpleNamespace(write=lambda line: line)).writerow  # returns the line
    ids = [row([b, ""])[:-len(",\r\n")] for b in aggregates.bank_ids]  # csv-quoted ids
    head, tail = LIABILITY_CELL
    with open(os.path.join(out_dir, "edges.csv"), "w", newline="") as f:
        f.write("realization,debtor,creditor,liability\r\n")
        for k, net in enumerate(result.networks):
            ii, jj = np.nonzero(net.liabilities)
            f.write("".join([f"{k},{ids[i]},{ids[j]},{head}{v!r}{tail}\r\n" for i, j, v in zip(
                ii.tolist(), jj.tolist(), net.liabilities[ii, jj].tolist())]))
    with open(os.path.join(out_dir, "balance_sheets.csv"), "w", newline="") as f:
        f.write("realization,bank_id,equity,external_assets,interbank_assets,"
                "interbank_liabilities,external_liabilities\r\n")
        for k, net in enumerate(result.networks):
            columns = zip(ids, net.equity.tolist(), net.external_assets.tolist(),
                          net.interbank_assets.tolist(), net.interbank_liabilities.tolist(),
                          net.external_liabilities.tolist())
            f.write("".join([f"{k},{b},{e!r},{ea!r},{ia!r},{il!r},{el!r}\r\n"
                             for b, e, ea, ia, il, el in columns]))
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
