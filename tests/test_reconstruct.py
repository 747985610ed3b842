import time

import numpy as np
import pytest

from contagion.errors import (
    AllZeroTotals, InfeasibleSupport, IPFNonConvergence, UnreachableDensity,
)
from contagion.reconstruct import (
    IPF_MARGINAL_TOLERANCE, IPF_MAX_SWEEPS, Aggregates, ReconstructionConfig,
    calibrate_z, fitness_scores,
    generate_ensemble, ipf_weights, rebalance_totals, sample_adjacency,
    write_ensemble, _link_probabilities,
)


def make_aggregates(n=10, seed=0, sigma=0.5):
    rng = np.random.default_rng(seed)
    assets = rng.lognormal(10.0, sigma, size=n)
    equity = assets / rng.uniform(10, 30, size=n)
    ab = rng.uniform(0.05, 0.2, size=n) * assets
    lb = rng.uniform(0.1, 0.5, size=n) * (assets - equity)
    ext = assets - ab
    by_class = np.column_stack([0.1 * ext, 0.2 * ext, 0.7 * ext])
    return Aggregates(
        bank_ids=tuple(f"B{i}" for i in range(n)),
        equity=equity,
        interbank_assets=ab,
        interbank_liabilities=lb,
        external_assets_by_class=by_class,
    )


@pytest.mark.parametrize("settings", [
    {"target_density": 0.0}, {"target_density": np.nan}, {"ensemble_size": 0},
])
def test_config_rejects_bad_settings(settings):
    with pytest.raises(ValueError):
        ReconstructionConfig(**settings)


def test_rebalance_scales_larger_side():
    agg = make_aggregates()
    out = rebalance_totals(agg)
    assert out.interbank_assets.sum() == pytest.approx(out.interbank_liabilities.sum())
    target = min(agg.interbank_assets.sum(), agg.interbank_liabilities.sum())
    assert out.interbank_assets.sum() == pytest.approx(target)
    # proportions preserved on the scaled side
    for side in ("interbank_assets", "interbank_liabilities"):
        before = getattr(agg, side)
        after = getattr(out, side)
        assert np.allclose(after / after.sum(), before / before.sum())


def test_rebalance_identity_when_equal():
    agg = make_aggregates()
    scale = agg.interbank_assets.sum() / agg.interbank_liabilities.sum()
    from dataclasses import replace
    balanced = replace(agg, interbank_liabilities=agg.interbank_liabilities * scale)
    out = rebalance_totals(balanced)
    assert np.allclose(out.interbank_assets, balanced.interbank_assets)
    assert np.allclose(out.interbank_liabilities, balanced.interbank_liabilities)


def test_rebalance_zero_totals():
    from dataclasses import replace
    agg = replace(make_aggregates(), interbank_assets=np.zeros(10))
    with pytest.raises(AllZeroTotals):
        rebalance_totals(agg)


def test_calibrate_z_symmetric_closed_form():
    # equal fitness: p = z x^2 / (1 + z x^2) for every pair,
    # so z = rho / ((1 - rho) x^2)
    x = np.full(8, 0.125)
    rho = 0.3
    z = calibrate_z(x, rho)
    assert z == pytest.approx(rho / ((1 - rho) * 0.125 ** 2), rel=1e-4)


def test_calibrate_z_small_density_small_z():
    x = np.full(8, 0.125)
    assert calibrate_z(x, 1e-5) < calibrate_z(x, 1e-3) < calibrate_z(x, 0.5)


def test_calibrate_z_zero_fitness_banks_excluded():
    x = np.array([0.4, 0.4, 0.0, 0.2])
    z = calibrate_z(x, 0.3)
    p = _link_probabilities(x, z)
    assert np.all(p[2, :] == 0) and np.all(p[:, 2] == 0)
    mask = np.outer(x, x) > 0
    np.fill_diagonal(mask, False)
    assert p[mask].mean() == pytest.approx(0.3, abs=1e-5)


def test_calibrate_z_unreachable():
    with pytest.raises(UnreachableDensity):
        calibrate_z(np.full(4, 0.25), 1.0)


def test_calibrate_z_raises_when_bisection_runs_out():
    # No midpoint the bisection visits gives this density exactly, so tol=0
    # exhausts the 200 steps.
    with pytest.raises(UnreachableDensity):
        calibrate_z(np.array([0.4, 0.3, 0.2, 0.1]), 0.2, tol=0.0)


def calibration_case(n):
    """Heavy-tailed fitnesses with two zero-fitness banks, and needed masks."""
    x = fitness_scores(rebalance_totals(make_aggregates(n, seed=n, sigma=1.5)))
    x[:2] = 0.0
    rng = np.random.default_rng(n)
    return x, rng.random(n) < 0.8, rng.random(n) < 0.8


# calibrate_z(...).hex() at the default tolerance, recorded from the density
# evaluation that rebuilt its matrices on each call. The bisection depends
# only on comparison outcomes, so equal density bits give equal z bits.
PINNED_Z = {
    (50, 0.05, False): "0x1.7b41d80000000p+8",
    (50, 0.05, True): "0x1.c71bd00000000p+7",
    (50, 0.2, False): "0x1.2331e60000000p+12",
    (50, 0.2, True): "0x1.1e832b0000000p+12",
    (50, 0.5, False): "0x1.9e46b00000000p+15",
    (50, 0.5, True): "0x1.9ddbe04000000p+15",
    (1000, 0.05, False): "0x1.72f4998000000p+16",
    (1000, 0.05, True): "0x1.72c3c58000000p+16",
    (1000, 0.2, False): "0x1.ba7d6f7000000p+19",
    (1000, 0.2, True): "0x1.ba7b872800000p+19",
    (1000, 0.5, False): "0x1.1052c8dd00000p+23",
    (1000, 0.5, True): "0x1.1052c8dd00000p+23",
}


@pytest.mark.parametrize("n, density, needed", sorted(PINNED_Z))
def test_calibrate_z_pinned_bits(n, density, needed):
    x, row_needed, col_needed = calibration_case(n)
    masks = {"row_needed": row_needed, "col_needed": col_needed} if needed else {}
    assert calibrate_z(x, density, **masks).hex() == PINNED_Z[n, density, needed]


# (k, density) with the density recorded, bit for bit, from the same
# evaluation at z = 0.75 * 10**k, where 10**k brackets density 0.2. With
# tol=0 the bisection returns that z at its second midpoint only when the
# density there repeats these bits; a sum in another order misses it.
EXACT_DENSITY = {
    (50, False): (4, "0x1.fabd7e5cd4d93p-3"),
    (50, True): (4, "0x1.fd1152eeafaa9p-3"),
    (1000, False): (6, "0x1.7362c3fb6572dp-3"),
    (1000, True): (6, "0x1.736359e8fa736p-3"),
}


@pytest.mark.parametrize("n, needed", sorted(EXACT_DENSITY))
def test_calibrate_z_repeats_recorded_density_bits(n, needed):
    x, row_needed, col_needed = calibration_case(n)
    masks = {"row_needed": row_needed, "col_needed": col_needed} if needed else {}
    k, density = EXACT_DENSITY[n, needed]
    assert calibrate_z(x, float.fromhex(density), tol=0.0, **masks) == 0.75 * 10.0 ** k


def test_probability_monotone_in_z():
    x = np.array([0.5, 0.3, 0.2])
    p1 = _link_probabilities(x, 1.0)
    p2 = _link_probabilities(x, 5.0)
    off = ~np.eye(3, dtype=bool)
    assert np.all(p2[off] >= p1[off])
    assert np.all(p1 >= 0) and np.all(p1 < 1)


def test_sample_adjacency_z_zero_empty():
    rng = np.random.default_rng(0)
    adj = sample_adjacency(np.full(5, 0.2), 0.0, rng)
    assert not adj.any()


def test_sample_adjacency_saturation():
    rng = np.random.default_rng(0)
    adj = sample_adjacency(np.full(5, 1e6), 1e6, rng)
    assert adj.sum() == 5 * 4  # complete digraph minus diagonal


def test_sample_adjacency_density_monte_carlo():
    rng = np.random.default_rng(42)
    x = fitness_scores(rebalance_totals(make_aggregates(n=20)))
    z = calibrate_z(x, 0.2)
    densities = []
    for _ in range(300):
        adj = sample_adjacency(x, z, rng)
        densities.append(adj.sum() / (20 * 19))
    mean = np.mean(densities)
    se = np.std(densities) / np.sqrt(len(densities))
    assert abs(mean - 0.2) < 3 * se + 1e-5


def test_ipf_uniform_targets_complete_support():
    n = 5
    adj = ~np.eye(n, dtype=bool)
    t = np.full(n, 1.0 / n)
    w = ipf_weights(adj, t, t, tolerance=1e-6)
    off = adj
    assert np.allclose(w[off], w[off][0], atol=1e-9)
    assert np.allclose(w.sum(axis=1), t, atol=1e-6)


def test_ipf_two_by_two_exact():
    adj = np.array([[False, True], [True, False]])
    row = np.array([0.4, 0.6])
    col = np.array([0.6, 0.4])
    w = ipf_weights(adj, row, col, tolerance=1e-12)
    assert w[0, 1] == pytest.approx(0.4, abs=1e-12)
    assert w[1, 0] == pytest.approx(0.6, abs=1e-12)


def test_ipf_infeasible_support():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    row = np.array([0.5, 0.5, 0.0])
    col = np.array([0.0, 0.5, 0.5])
    with pytest.raises(InfeasibleSupport):
        ipf_weights(adj, row, col)


@pytest.mark.parametrize("adjacency, row, col", [
    # Rows 0 and 2 lend only to column 1, which then receives 0.8 but needs
    # 0.2: the residual is 3.0 from the first sweep on.
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [0.4, 0.2, 0.4], [0.1, 0.2, 0.7]),
    # Column 0 needs 0.5 from row 0, which lends only 0.49: the residual falls
    # for about 200 sweeps, then plateaus at 0.0204, twice the tolerance.
    ([[1, 1], [0, 1]], [0.49, 0.51], [0.5, 0.5]),
], ids=["constant_residual", "plateau_near_tolerance"])
def test_ipf_stalled_fit_fails_early(adjacency, row, col):
    t0 = time.perf_counter()
    with pytest.raises(IPFNonConvergence) as info:
        ipf_weights(np.array(adjacency, dtype=bool), np.array(row), np.array(col))
    assert info.value.sweeps < IPF_MAX_SWEEPS
    assert info.value.residual >= IPF_MARGINAL_TOLERANCE
    assert time.perf_counter() - t0 < 1.0


def test_ipf_slow_convergence_is_accepted():
    # Feasible only with w[0, 1] = 0, so the residual decays like 1/sweeps:
    # 2,500 sweeps to reach 2e-4, falling by at most 10 % per 50 sweeps from
    # sweep 500 on and by 4 % per 100 sweeps at the end. A rule such as
    # "fell by less than half over 50 sweeps" would reject this fit.
    adj = np.array([[True, True], [False, True]])
    t = np.array([0.5, 0.5])
    w = ipf_weights(adj, t, t, tolerance=2e-4)
    assert np.abs(w.sum(axis=1) - t).max() < 2e-4
    assert np.abs(w.sum(axis=0) - t).max() < 2e-4


def test_generate_ensemble_deterministic():
    agg = make_aggregates(n=15, seed=3)
    cfg = ReconstructionConfig(ensemble_size=5, rng_seed=99, target_density=0.4)
    a = generate_ensemble(agg, cfg)
    b = generate_ensemble(agg, cfg)
    assert len(a.networks) == len(b.networks)
    for na, nb in zip(a.networks, b.networks):
        assert np.array_equal(na.liabilities, nb.liabilities)


def test_generate_ensemble_marginal_fidelity():
    agg = make_aggregates(n=30, seed=4)
    cfg = ReconstructionConfig(ensemble_size=10, rng_seed=1, target_density=0.3)
    result = generate_ensemble(rebalance_totals(agg), cfg)
    balanced = rebalance_totals(agg)
    volume = balanced.interbank_assets.sum()
    for net in result.networks:
        ab = net.liabilities.sum(axis=0)
        lb = net.liabilities.sum(axis=1)
        assert np.all(np.abs(ab / volume - balanced.interbank_assets / volume) < 0.0101)
        assert np.all(np.abs(lb / volume - balanced.interbank_liabilities / volume) < 0.0101)
        # all equities preserved and sheets valid (build_network already ran)
        assert np.allclose(net.equity, balanced.equity)


def test_concentrated_lender_produces_star_like_columns():
    n = 8
    ab = np.concatenate(([50.0], np.full(n - 1, 150.0)))
    lb = np.concatenate(([700.0], np.full(n - 1, 50.0)))  # bank 0 dominates borrowing
    equity = np.full(n, 500.0)
    ext = np.full(n, 5000.0)
    agg = Aggregates(
        bank_ids=tuple(f"B{i}" for i in range(n)),
        equity=equity,
        interbank_assets=ab,
        interbank_liabilities=lb,
        external_assets_by_class=ext[:, None],
        asset_classes=("external",),
    )
    cfg = ReconstructionConfig(ensemble_size=5, rng_seed=7, target_density=0.7)
    result = generate_ensemble(agg, cfg)
    for net in result.networks:
        row_share = net.liabilities.sum(axis=1) / net.liabilities.sum()
        assert row_share[0] > 0.6  # borrowing concentrates on bank 0's row


def test_write_ensemble_files(tmp_path):
    agg = make_aggregates(n=15, seed=5)
    cfg = ReconstructionConfig(ensemble_size=3, rng_seed=2, target_density=0.4)
    result = generate_ensemble(agg, cfg)
    write_ensemble(result, agg, str(tmp_path))
    assert (tmp_path / "edges.csv").exists()
    assert (tmp_path / "balance_sheets.csv").exists()
    import json
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["emitted"] == len(result.networks)
    assert manifest["rng_seed"] == 2
