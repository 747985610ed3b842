import csv
import hashlib
import os
import time
import warnings
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from contagion import ingest, reconstruct
from contagion.core import build_network
from contagion.errors import (
    AllZeroTotals, EnsembleInfeasible, InfeasibleSupport, IPFNonConvergence,
    UnreachableDensity,
)
from contagion.reconstruct import (
    IPF_MARGINAL_TOLERANCE, IPF_MAX_SWEEPS, LIABILITY_CELL, Aggregates,
    ReconstructionConfig, calibrate_z, fitness_scores,
    generate_ensemble, ipf_weights, rebalance_totals, sample_adjacency,
    write_ensemble, _density_function, _link_probabilities,
    _repair_links, _repair_support,
)
from oracles import reference_density


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


def unmasked(x):
    """All-False needed masks: calibrate the sampled links alone."""
    return np.zeros(len(x), dtype=bool), np.zeros(len(x), dtype=bool)


def test_calibrate_z_symmetric_closed_form():
    # equal fitness: p = z x^2 / (1 + z x^2) for every pair,
    # so z = rho / ((1 - rho) x^2)
    x = np.full(8, 0.125)
    rho = 0.3
    z = calibrate_z(x, rho, *unmasked(x))
    assert z == pytest.approx(rho / ((1 - rho) * 0.125 ** 2), rel=1e-4)


def test_calibrate_z_small_density_small_z():
    x = np.full(8, 0.125)
    masks = unmasked(x)
    assert calibrate_z(x, 1e-5, *masks) < calibrate_z(x, 1e-3, *masks) < calibrate_z(x, 0.5, *masks)


def test_calibrate_z_zero_fitness_banks_excluded():
    x = np.array([0.4, 0.4, 0.0, 0.2])
    z = calibrate_z(x, 0.3, *unmasked(x))
    p = _link_probabilities(x, z)
    assert np.all(p[2, :] == 0) and np.all(p[:, 2] == 0)
    mask = np.outer(x, x) > 0
    np.fill_diagonal(mask, False)
    assert p[mask].mean() == pytest.approx(0.3, abs=1e-5)


def test_calibrate_z_unreachable():
    with pytest.raises(UnreachableDensity):
        calibrate_z(np.full(4, 0.25), 1.0, *unmasked(range(4)))


@pytest.mark.parametrize("target", [0.0, -0.5])
def test_calibrate_z_rejects_a_target_of_zero_or_less(target):
    # No density lies below 0, so the decade scan finds no z for the target.
    with pytest.raises(UnreachableDensity, match=f"no z reaches density {target}"):
        calibrate_z(np.full(4, 0.25), target, *unmasked(range(4)))


def test_calibrate_z_raises_when_bisection_runs_out(monkeypatch):
    # No midpoint the bisection visits gives this density exactly, so a
    # tolerance of 0 exhausts the 200 steps.
    monkeypatch.setattr(reconstruct, "CALIBRATION_TOL", 0.0)
    with pytest.raises(UnreachableDensity, match="bisection did not reach density 0.2 within 0.0"):
        calibrate_z(np.array([0.4, 0.3, 0.2, 0.1]), 0.2, *unmasked(range(4)))


def calibration_case(n):
    """Heavy-tailed fitnesses with two zero-fitness banks, and needed masks."""
    x = fitness_scores(rebalance_totals(make_aggregates(n, seed=n, sigma=1.5)))
    x[:2] = 0.0
    rng = np.random.default_rng(n)
    return x, rng.random(n) < 0.8, rng.random(n) < 0.8


def bench_like_case():
    """Fitnesses and needed masks of 1000 synthetic banks, as generate_ensemble sets them."""
    panel, _ = ingest.interpolate_missing(ingest.synthesize_panel(1000, 4, seed=0),
                                          drop_failures=True)
    agg = rebalance_totals(ingest.to_aggregates(panel, panel.quarters[-1])[0])
    return fitness_scores(agg), agg.interbank_assets > 0, agg.interbank_liabilities > 0


# calibrate_z(...).hex() at CALIBRATION_TOL, recorded from the density
# evaluation that rebuilt its matrices on each call, and the "panel" case from
# the one that summed the full n x n matrix. The bisection depends only on
# comparison outcomes, so z keeps its bits while no comparison changes.
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
    (1000, 0.2, "panel"): "0x1.1104e22000000p+19",  # bench_like_case, with its masks
}


@pytest.mark.parametrize("n, density, needed", list(PINNED_Z))
def test_calibrate_z_pinned_bits(n, density, needed):
    x, row_needed, col_needed = bench_like_case() if needed == "panel" else calibration_case(n)
    masks = (row_needed, col_needed) if needed else unmasked(x)
    assert calibrate_z(x, density, *masks).hex() == PINNED_Z[n, density, needed]


# (k, density) with the density recorded, bit for bit, from the blocked
# evaluation at z = 0.75 * 10**k, where 10**k brackets density 0.2. With
# CALIBRATION_TOL = 0 the bisection returns that z at its second midpoint only
# when the density there repeats these bits; a sum in another order misses it.
EXACT_DENSITY = {
    (50, False): (4, "0x1.fabd7e5cd4d8fp-3"),
    (50, True): (4, "0x1.fd1152eeafaa5p-3"),
    (1000, False): (6, "0x1.7362c3fb6572bp-3"),
    (1000, True): (6, "0x1.736359e8fa734p-3"),
}


@pytest.mark.parametrize("n, needed", sorted(EXACT_DENSITY))
def test_calibrate_z_repeats_recorded_density_bits(monkeypatch, n, needed):
    x, row_needed, col_needed = calibration_case(n)
    masks = (row_needed, col_needed) if needed else unmasked(x)
    k, density = EXACT_DENSITY[n, needed]
    monkeypatch.setattr(reconstruct, "CALIBRATION_TOL", 0.0)
    assert calibrate_z(x, float.fromhex(density), *masks) == 0.75 * 10.0 ** k


def test_calibrate_z_brackets_a_density_that_falls_before_it_rises():
    # With every row and column needed, the links forced by support repair put
    # the density at 2/49 = 0.0408 as z -> 0; it falls to 0.0375 at z = 10
    # before it rises, so a bisection from z = 0 alone would chase the limit.
    x, needed = np.full(50, 0.02), np.ones(50, dtype=bool)
    z = calibrate_z(x, 0.039, needed, needed)
    assert _density_function(x, needed, needed)(z) == pytest.approx(0.039, abs=1e-6)
    with pytest.raises(UnreachableDensity, match="smallest density seen is 0.0375"):
        calibrate_z(x, 0.03, needed, needed)


def test_density_function_matches_the_reference():
    # Heavy-tailed fitness shares with some zeros, random or all-False needed
    # masks, and z over the whole range calibrate_z searches.
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 600:
        n = int(rng.integers(2, 301))
        x = rng.lognormal(0.0, 3.0, size=n) * (rng.random(n) > rng.uniform(0.0, 0.5))
        if np.count_nonzero(x) < 2:
            continue
        x /= x.sum()
        masks = [rng.random(n) < rng.random() if rng.random() < 0.7 else np.zeros(n, dtype=bool)
                 for _ in range(2)]
        density, reference = _density_function(x, *masks), reference_density(x, *masks)
        for z in 10.0 ** rng.uniform(-30.0, 30.0, size=6):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                d, d_ref = density(z), reference(z)
            assert abs(d - d_ref) <= 1e-12, (n, z, d, d_ref)
            checked += 1


def test_density_takes_the_limit_where_a_product_overflows():
    # z * x_i * x_j overflows for every pair: each link is certain, so the
    # density is 1, where the quotient z xx / (1 + z xx) would be nan.
    x = np.array([0.5, 0.3, 0.2]) * 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _density_function(x, *unmasked(x))(1e10) == 1.0
        assert _density_function(x * 1e5, *unmasked(x))(1e-30) == 1.0  # x_i * x_j overflows itself


@pytest.mark.parametrize("bad", [-0.25, np.nan, np.inf])
def test_calibrate_z_rejects_negative_or_non_finite_fitness(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        calibrate_z(np.array([0.5, 0.3, bad]), 0.3, *unmasked(range(3)))


def test_calibrate_z_reads_fitnesses_as_float64():
    x = np.array([0.5, 0.3, 0.2], dtype=np.float32)
    masks = unmasked(x)
    assert calibrate_z(x, 0.3, *masks) == calibrate_z(x.astype(np.float64), 0.3, *masks)
    assert calibrate_z([1, 2, 3], 0.3, *masks) == calibrate_z(np.array([1.0, 2.0, 3.0]), 0.3, *masks)


def test_probability_monotone_in_z():
    x = np.array([0.5, 0.3, 0.2])
    p1 = _link_probabilities(x, 1.0)
    p2 = _link_probabilities(x, 5.0)
    off = ~np.eye(3, dtype=bool)
    assert np.all(p2[off] >= p1[off])
    assert np.all(p1 >= 0) and np.all(p1 < 1)


def test_sample_adjacency_z_zero_empty():
    rng = np.random.default_rng(0)
    adj = sample_adjacency(_link_probabilities(np.full(5, 0.2), 0.0), rng)
    assert not adj.any()


def test_sample_adjacency_saturation():
    rng = np.random.default_rng(0)
    adj = sample_adjacency(_link_probabilities(np.full(5, 1e6), 1e6), rng)
    assert adj.sum() == 5 * 4  # complete digraph minus diagonal


def test_sample_adjacency_density_monte_carlo():
    rng = np.random.default_rng(42)
    x = fitness_scores(rebalance_totals(make_aggregates(n=20)))
    probabilities = _link_probabilities(x, calibrate_z(x, 0.2, *unmasked(x)))
    densities = []
    for _ in range(300):
        adj = sample_adjacency(probabilities, rng)
        densities.append(adj.sum() / (20 * 19))
    mean = np.mean(densities)
    se = np.std(densities) / np.sqrt(len(densities))
    assert abs(mean - 0.2) < 3 * se + 1e-5


def test_repair_support_forces_the_most_probable_link():
    def reference(adj, probs, row_needed, col_needed):
        """The per-bank loop over the probability matrix."""
        for i in np.flatnonzero(row_needed & ~adj.any(axis=1)):
            j = int(np.argmax(probs[i]))
            if probs[i, j] > 0:
                adj[i, j] = True
        for j in np.flatnonzero(col_needed & ~adj.any(axis=0)):
            i = int(np.argmax(probs[:, j]))
            if probs[i, j] > 0:
                adj[i, j] = True

    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        x = rng.choice([0.0, 0.1, 0.3, 0.3, 1.0], size=n)  # zeros and ties
        z = 10.0 ** rng.uniform(-2.0, 3.0)
        probs = _link_probabilities(x, z)
        adj = rng.random((n, n)) < 0.3 * probs
        needed = rng.random(n) < 0.9, rng.random(n) < 0.9
        expected, drawn = adj.copy(), np.count_nonzero(adj)
        reference(expected, probs, *needed)
        forced = _repair_support(adj, _repair_links(probs), *needed)
        assert np.array_equal(adj, expected)
        assert forced == np.count_nonzero(adj) - drawn


def test_ipf_uniform_targets_complete_support(monkeypatch):
    n = 5
    adj = ~np.eye(n, dtype=bool)
    t = np.full(n, 1.0 / n)
    monkeypatch.setattr(reconstruct, "IPF_MARGINAL_TOLERANCE", 1e-6)
    w = ipf_weights(adj, t, t, adj)
    off = adj
    assert np.allclose(w[off], w[off][0], atol=1e-9)
    assert np.allclose(w.sum(axis=1), t, atol=1e-6)


def test_ipf_two_by_two_exact(monkeypatch):
    adj = np.array([[False, True], [True, False]])
    row = np.array([0.4, 0.6])
    col = np.array([0.6, 0.4])
    monkeypatch.setattr(reconstruct, "IPF_MARGINAL_TOLERANCE", 1e-12)
    w = ipf_weights(adj, row, col, adj)
    assert w[0, 1] == pytest.approx(0.4, abs=1e-12)
    assert w[1, 0] == pytest.approx(0.6, abs=1e-12)


def test_ipf_infeasible_support():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    row = np.array([0.5, 0.5, 0.0])
    col = np.array([0.0, 0.5, 0.5])
    with pytest.raises(InfeasibleSupport):
        ipf_weights(adj, row, col, adj)


@pytest.mark.parametrize("adjacency, row, col, bank, side", [
    # Row 0 lends only to column 1, which can take at most 1.01 * 0.2 of the
    # 0.99 * 0.4 that row 0 must place.
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [0.4, 0.2, 0.4], [0.1, 0.2, 0.7], 0, "lending"),
    # Column 0 borrows only from row 0, which can give at most 1.01 * 0.49,
    # just short of the 0.99 * 0.5 that column 0 must receive.
    ([[1, 1], [0, 1]], [0.49, 0.51], [0.5, 0.5], 0, "borrowing"),
], ids=["constant_residual", "plateau_near_tolerance"])
def test_ipf_hall_violation_is_rejected_before_fitting(adjacency, row, col, bank, side):
    with pytest.raises(InfeasibleSupport) as info:
        adj = np.array(adjacency, dtype=bool)
        ipf_weights(adj, np.array(row), np.array(col), adj)
    assert (info.value.bank, info.value.side) == (bank, side)
    assert f"bank {bank} needs a {side} share of at least" in str(info.value)


def test_hall_check_lets_a_zero_target_partner_take_the_tolerance():
    # Row 0 lends only to column 0, whose target is 0. A column sweep empties
    # column 0, but the starting matrix already fits within the tolerance, so
    # the check must not reject it.
    adj = np.eye(2, dtype=bool)
    row, col = np.array([0.005, 0.995]), np.array([0.0, 1.0])
    w = ipf_weights(adj, row, col, np.diag(row))
    assert np.array_equal(w, np.diag(row))


@pytest.mark.parametrize("init", [np.eye(3), np.zeros((3, 3))], ids=["off_support", "zero"])
def test_ipf_rejects_a_start_that_vanishes_on_the_support(init):
    adj = ~np.eye(3, dtype=bool)
    t = np.full(3, 1.0 / 3.0)
    with pytest.raises(InfeasibleSupport) as info:
        ipf_weights(adj, t, t, init)
    assert (info.value.bank, info.value.side) == (0, "lending")
    assert str(info.value).endswith("can take at most 0")


def test_ipf_stalled_fit_fails_early():
    # Every bank alone passes the Hall check, but rows 0 and 1 need 0.6 from
    # column 0, which takes only 0.4: the residual stalls at 0.5 by sweep 100.
    adj = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 1]], dtype=bool)
    t0 = time.perf_counter()
    with pytest.raises(IPFNonConvergence) as info:
        ipf_weights(adj, np.array([0.3, 0.3, 0.4]), np.array([0.4, 0.3, 0.3]), adj)
    assert info.value.sweeps < IPF_MAX_SWEEPS
    assert info.value.residual >= IPF_MARGINAL_TOLERANCE
    assert time.perf_counter() - t0 < 1.0


def test_hall_check_rejects_only_fits_that_cannot_converge(monkeypatch):
    # The targets are the marginals of a random weighting of a random support,
    # each scaled by a factor within 1 +- spread and set to 0 one time in ten:
    # spread 0.06 gives fits near the bound, spread 1 gross misfits. Every
    # support the check rejects must fail to converge when fitted without it.
    rng = np.random.default_rng(22)
    rejected = []
    for _ in range(400):
        n = int(rng.integers(2, 12))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.7)
        w = adj * rng.lognormal(0.0, 1.0, size=(n, n))
        spread = rng.choice([0.06, 1.0])
        t = np.stack([w.sum(axis=1), w.sum(axis=0)])
        t *= rng.uniform(1.0 - spread, 1.0 + spread, size=t.shape) * (rng.random(t.shape) < 0.9)
        if not adj.any() or np.any(t.sum(axis=1) == 0):
            continue
        row, col = t / t.sum(axis=1, keepdims=True)
        try:
            reconstruct._check_hall(adj, row, col)
        except InfeasibleSupport:
            rejected.append((adj, row, col))
    assert len(rejected) >= 100
    monkeypatch.setattr(reconstruct, "_check_hall", lambda *args: None)
    for adj, row, col in rejected:
        with pytest.raises(IPFNonConvergence):
            ipf_weights(adj, row, col, adj)


def test_ipf_slow_convergence_is_accepted(monkeypatch):
    # Feasible only with w[0, 1] = 0, so the residual decays like 1/sweeps:
    # 2,500 sweeps to reach 2e-4, falling by at most 10 % per 50 sweeps from
    # sweep 500 on and by 4 % per 100 sweeps at the end. A rule such as
    # "fell by less than half over 50 sweeps" would reject this fit.
    adj = np.array([[True, True], [False, True]])
    t = np.array([0.5, 0.5])
    monkeypatch.setattr(reconstruct, "IPF_MARGINAL_TOLERANCE", 2e-4)
    w = ipf_weights(adj, t, t, adj)
    assert np.abs(w.sum(axis=1) - t).max() < 2e-4
    assert np.abs(w.sum(axis=0) - t).max() < 2e-4


def ipf_pin_cases():
    """ipf_weights inputs from 200 seeded draws, as (kind, adjacency, row,
    col, init, tolerance); a draw whose targets sum to 0 on a side is skipped.

    Kinds: dense supports, sparse ones, targets with zeros, targets far off
    the support's marginals (many fail Hall's condition), and rows 0 and 1
    lending only to column 0, which cannot take both shares (many stall).
    The zero-target cases fit to a tolerance of exactly their starting
    residual, so an accept test of <= in place of < returns the starting
    matrix there. Every seventh adjacency is passed as int8, and every other
    case starts from the adjacency itself rather than np.outer(x, x).
    """
    rng = np.random.default_rng(2029)
    for k in range(200):
        kind = ("dense", "sparse", "zero_targets", "hall", "stall")[k % 5]
        n = int(rng.integers(3, 14))
        if kind == "dense":
            adj = ~np.eye(n, dtype=bool)
        else:
            adj = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        w = adj * rng.lognormal(0.0, 1.0, size=(n, n))
        t = np.stack([w.sum(axis=1), w.sum(axis=0)])
        spread = 1.0 if kind == "hall" else 0.06
        t *= rng.uniform(1.0 - spread, 1.0 + spread, size=t.shape)
        if kind == "zero_targets":
            t *= rng.random(t.shape) < 0.75
        if kind == "stall":
            adj[:2] = False
            adj[:2, 0] = True
            t[0, :2] = rng.uniform(0.25, 0.32, size=2) * t[0].sum()
            t[1, 0] = rng.uniform(0.35, 0.45) * t[1].sum()
        if np.any(t.sum(axis=1) == 0):
            continue
        row, col = t / t.sum(axis=1, keepdims=True)
        x = rng.lognormal(0.0, 1.0, size=n) * (rng.random(n) < 0.9)
        init = adj if k % 2 else np.outer(x, x)
        tolerance = IPF_MARGINAL_TOLERANCE
        start = np.where(adj, np.asarray(init, dtype=float), 0.0)
        if k % 5 == 2 and start.sum() > 0:
            start /= start.sum()
            tolerance = max(max(d.max(), (d[g > 0] / g[g > 0]).max(initial=0.0))
                            for d, g in ((np.abs(start.sum(axis=1) - row), row),
                                         (np.abs(start.sum(axis=0) - col), col)))
        yield kind, adj if k % 7 else adj.astype(np.int8), row, col, init, tolerance


# sha256 of every matrix ipf_weights returns on ipf_pin_cases(), and of the
# arguments of every error it raises there, recorded before ipf_weights took
# its residual from one stacked deviation vector.
IPF_DIGEST = "9d2f5e4376d1488eab639ff22abf3f8e864b1777f74fb11a691dcd6e2b44c288"


def test_ipf_weights_repeats_its_recorded_bytes(monkeypatch):
    digest = hashlib.sha256()
    outcomes = {"fit": 0, InfeasibleSupport: 0, IPFNonConvergence: 0}
    for kind, adj, row, col, init, tolerance in ipf_pin_cases():
        digest.update(kind.encode())
        monkeypatch.setattr(reconstruct, "IPF_MARGINAL_TOLERANCE", tolerance)
        try:
            w = ipf_weights(adj, row, col, init)
        except InfeasibleSupport as exc:
            outcomes[InfeasibleSupport] += 1
            digest.update(repr((exc.bank, exc.side, str(exc))).encode())
        except IPFNonConvergence as exc:
            outcomes[IPFNonConvergence] += 1
            digest.update(repr((exc.sweeps, float(exc.residual).hex())).encode())
        else:
            outcomes["fit"] += 1
            digest.update(repr((w.shape, w.dtype.str, w.flags.c_contiguous)).encode())
            digest.update(w.tobytes())
    assert min(outcomes.values()) >= 40, outcomes
    assert digest.hexdigest() == IPF_DIGEST


def test_an_equity_above_the_balance_sheet_makes_the_ensemble_infeasible():
    # Bank 3's equity exceeds its assets, so every member implies negative
    # outside liabilities for it.
    agg = make_aggregates(n=20, seed=4)
    equity = agg.equity.copy()
    equity[3] = 1e9
    with pytest.raises(EnsembleInfeasible, match="member 0: negative implied outside liabilities"):
        generate_ensemble(replace(agg, equity=equity),
                          ReconstructionConfig(target_density=0.5, ensemble_size=3))


def test_calibration_counts_the_links_that_the_repair_forces(monkeypatch):
    # Bank 7's interbank assets are positive, but its share of the volume
    # underflows to 0, so the repair forces no lending link for it. The
    # calibration must take the repair's needed masks, not its own.
    agg = make_aggregates(n=30, seed=1)
    assets = agg.interbank_assets.copy()
    assets[7] = 1e-320
    masks = {}

    def recorder(name, fn):
        def wrapped(*args):
            masks.setdefault(name, args[2:4])
            return fn(*args)
        return wrapped

    for name in ("calibrate_z", "_repair_support"):
        monkeypatch.setattr(reconstruct, name, recorder(name, getattr(reconstruct, name)))
    generate_ensemble(replace(agg, interbank_assets=assets), ReconstructionConfig(ensemble_size=1))
    (lending, borrowing), repaired = masks["calibrate_z"], masks["_repair_support"]
    assert np.flatnonzero(~lending).tolist() == [7] and borrowing.all()
    assert np.array_equal(lending, repaired[0]) and np.array_equal(borrowing, repaired[1])


def test_generate_ensemble_deterministic():
    agg = make_aggregates(n=15, seed=3)
    cfg = ReconstructionConfig(ensemble_size=5, rng_seed=99, target_density=0.4)
    a = generate_ensemble(agg, cfg)
    b = generate_ensemble(agg, cfg)
    assert len(a.networks) == len(b.networks)
    for na, nb in zip(a.networks, b.networks):
        assert np.array_equal(na.liabilities, nb.liabilities)


@pytest.mark.parametrize("n, seed, density, attempts, outcome", [
    (15, 3, 0.4, 21, nullcontext()),  # one of the 20 members is re-drawn
    (10, 0, 0.2, 40, pytest.raises(EnsembleInfeasible)),  # every member is re-drawn
])
def test_generate_ensemble_builds_link_probabilities_once(monkeypatch, n, seed, density,
                                                          attempts, outcome):
    # Every draw of every member samples the one matrix built after calibration.
    calls = {"_link_probabilities": 0, "sample_adjacency": 0}
    for name in calls:
        def counted(*args, _original=getattr(reconstruct, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(reconstruct, name, counted)
    with outcome:
        generate_ensemble(make_aggregates(n=n, seed=seed),
                          ReconstructionConfig(ensemble_size=20, rng_seed=1, target_density=density))
    assert calls == {"_link_probabilities": 1, "sample_adjacency": attempts}


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


def write_ensemble_row_by_row(result, aggregates, out_dir):
    """write_ensemble's CSVs one csv.writer row and one numpy-scalar repr at
    a time: the oracle for its bytes (manifest.json excepted)."""
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
            columns = zip(aggregates.bank_ids, net.equity.tolist(),
                          net.external_assets.tolist(), net.interbank_assets.tolist(),
                          net.interbank_liabilities.tolist(),
                          net.external_liabilities.tolist())
            for bank_id, *values in columns:
                wr.writerow([k, bank_id, *map(repr, values)])


def test_write_ensemble_bytes_match_row_by_row_csv_writer(tmp_path):
    # Bank ids that csv.writer must quote or leave alone: a comma, a double
    # quote, a leading space, an embedded newline and an empty id.
    ids = ("plain", "a,b", 'say "hi"', " lead", "two\nlines", "", "C7", "last")
    agg = replace(make_aggregates(n=len(ids), seed=4), bank_ids=ids)
    result = generate_ensemble(agg, ReconstructionConfig(
        ensemble_size=5, rng_seed=1, target_density=0.5))
    assert len(result.networks) == 5
    write_ensemble(result, agg, str(tmp_path / "new"))
    os.makedirs(tmp_path / "old")
    write_ensemble_row_by_row(result, agg, str(tmp_path / "old"))
    for name in ("edges.csv", "balance_sheets.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "old" / name).read_bytes(), name
    assert b'"a,b"' in new and b'"say ""hi"""' in new and b'"two\nlines"' in new


def test_write_ensemble_bytes_match_row_by_row_csv_writer_at_300_banks(tmp_path):
    # The 300-bank, 3-member reconstruction of `contagion reconstruct
    # --synthetic-banks 300 --ensemble-size 3 --seed 5`, with an edgeless copy
    # of member 1 written between members 0 and 1.
    panel, _ = ingest.interpolate_missing(ingest.synthesize_panel(300, 4, seed=5),
                                          drop_failures=True)
    agg = ingest.to_aggregates(panel, panel.quarters[-1])[0]
    result = generate_ensemble(agg, ReconstructionConfig(ensemble_size=3, rng_seed=5))
    assert len(result.networks) == 3 and agg.n == 300
    net = result.networks[1]
    empty = SimpleNamespace(**{**vars(net), "liabilities": np.zeros_like(net.liabilities)})
    result = replace(result, networks=[result.networks[0], empty, *result.networks[1:]])
    write_ensemble(result, agg, str(tmp_path / "new"))
    os.makedirs(tmp_path / "old")
    write_ensemble_row_by_row(result, agg, str(tmp_path / "old"))
    for name in ("edges.csv", "balance_sheets.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "old" / name).read_bytes(), name
    edges = (tmp_path / "new" / "edges.csv").read_bytes()
    assert edges.count(b"\r\n") - 1 == sum(np.count_nonzero(n.liabilities)
                                           for n in result.networks) > 10_000
    assert b"\r\n1," not in edges and b"\r\n3," in edges and new.count(b"\r\n") == 1 + 4 * 300


def test_write_ensemble_reformats_cells_only_for_identical_members(tmp_path):
    # write_ensemble formats each bank's equity and external-asset cells once
    # per run of members whose two arrays are byte-identical. Consecutive
    # members here share every array, differ in one equity, differ only by
    # -0.0 against 0.0 (equal as floats, written differently), and have no
    # edges.
    def member(L, equity, external):
        L = np.array(L, dtype=float)
        by_class = np.array(external, dtype=float)[:, None]
        le = by_class[:, 0] + L.sum(axis=0) - L.sum(axis=1) - np.array(equity)
        return build_network(L, equity, by_class, le)

    def with_external(net, external):
        """net with other external-asset totals: numpy sums class entries of
        -0.0 to 0.0, so no built network has a total of -0.0."""
        return SimpleNamespace(**{**vars(net), "external_assets": np.array(external)})

    L0 = [[0.0, 6.1, 1.0], [0.0, 0.0, 2.0], [3.3, 1.0, 0.0]]
    L1 = [[0.0, 6.5, 0.5], [0.0, 0.0, 1.5], [3.0, 1.25, 0.0]]
    equity, equity_b = [5.1, 4.0, 1 / 3], [5.5, 4.0, 1 / 3]
    networks = [
        member(L0, equity, [10.0, 0.0, 8.0]),
        member(L1, equity, [10.0, 0.0, 8.0]),
        member(L0, equity_b, [10.0, 0.0, 8.0]),
        with_external(member(L0, equity_b, [10.0, 0.0, 8.0]), [10.0, -0.0, 8.0]),
        member(L1, equity_b, [10.0, 0.0, 8.0]),
        member(np.zeros((3, 3)), equity, [10.0, 6.0, 8.0]),
    ]
    result = reconstruct.EnsembleResult(
        networks=networks, skipped=[], densities=np.full(len(networks), 0.5),
        config=ReconstructionConfig(ensemble_size=len(networks)), z=1.0)
    agg = replace(make_aggregates(n=3), bank_ids=("a", "b,c", "d"))
    write_ensemble(result, agg, str(tmp_path / "new"))
    os.makedirs(tmp_path / "old")
    write_ensemble_row_by_row(result, agg, str(tmp_path / "old"))
    for name in ("edges.csv", "balance_sheets.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "old" / name).read_bytes(), name
    rows = list(csv.reader(new.decode().splitlines()))[1:]
    assert [row[1] for row in rows[:3]] == ["a", "b,c", "d"]
    assert [row[2] for row in rows[3:9]] == ["5.1", "4.0", repr(1 / 3), "5.5", "4.0", repr(1 / 3)]
    assert [row[3] for row in rows[9:15]] == ["10.0", "-0.0", "8.0", "10.0", "0.0", "8.0"]


def test_liability_cell_repeats_numpy_scalar_repr():
    bits = np.random.default_rng(8).integers(0, 2**64, size=120_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert x.size >= 100_000
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    edges = [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, big]
    for v in (1e-4, 1e16):
        edges += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    values = x.tolist() + [float(s * v) for v in edges for s in (1.0, -1.0)]
    head, tail = LIABILITY_CELL
    wrong = [v for v in values if f"{head}{v!r}{tail}" != repr(np.float64(v))]
    assert wrong == []
