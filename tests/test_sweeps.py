import hashlib
from dataclasses import replace

import numpy as np
import pytest

from contagion import fixtures as fx
from contagion import analysis, models, sweeps
from contagion.core import ShockSpec, apply_first_round
from contagion.errors import NonConvergence
from contagion.ingest import interpolate_missing, synthesize_panel
from contagion.models import ADR, CDR, DC, EN, MODEL_NAMES, RV, ModelConfig, run_model
from contagion.reconstruct import ReconstructionConfig
from contagion.sweeps import SweepSpec, run_recovery_sweep, run_shock_sweep, run_timeseries


def forbid_runs(monkeypatch):
    """Make any firewall run or ensemble draw fail the test."""
    def call(*args, **kwargs):
        raise AssertionError("sweep work started")
    monkeypatch.setattr(sweeps, "run_with_firewall", call)
    monkeypatch.setattr(sweeps, "generate_ensemble", call)


def test_shock_sweep_rejects_recovery_grid(monkeypatch):
    forbid_runs(monkeypatch)
    networks = [fx.golden()[0].network]
    with pytest.raises(ValueError, match="one recovery rate"):
        run_shock_sweep(networks, SweepSpec(recovery_grid=(0.3, 0.9)))


def test_recovery_sweep_rejects_rv_beta(monkeypatch):
    # RV runs at beta = R in a recovery sweep, so another beta would be dropped.
    forbid_runs(monkeypatch)
    networks = [fx.golden()[0].network]
    with pytest.raises(ValueError, match="takes no rv_beta"):
        run_recovery_sweep(networks, SweepSpec(rv_beta=0.3))


@pytest.mark.parametrize("grids", [{"shock_grid": (0.1, 0.5)},
                                   {"recovery_grid": (0.2, 0.7)}])
def test_timeseries_rejects_shock_or_recovery_grid(monkeypatch, grids):
    forbid_runs(monkeypatch)
    panel, _ = interpolate_missing(synthesize_panel(10, 2, seed=0))
    with pytest.raises(ValueError, match="one shock and one recovery rate"):
        run_timeseries(panel, SweepSpec(**grids))


@pytest.mark.parametrize("models_", [(), (EN, EN), (EN, RV, EN)])
def test_spec_rejects_an_empty_or_repeated_model_list(models_):
    # A repeated model would count each network twice in its statistics.
    with pytest.raises(ValueError, match="non-empty, without repeats"):
        SweepSpec(models=models_)


@pytest.mark.parametrize("settings, message", [
    ({"shock_grid": ()}, "grids must be non-empty"),
    ({"recovery_grid": ()}, "grids must be non-empty"),
    ({"asset_class": "bonds"}, "asset_class must be one of"),
])
def test_spec_rejects_an_empty_grid_or_an_unknown_asset_class(settings, message):
    with pytest.raises(ValueError, match=message):
        SweepSpec(**settings)


RECOVERY_GRID = (0.0, 0.5, 1.0)
SHOCK_GRID = (0.1, 0.4)


def count_solves(monkeypatch) -> list:
    """Record the order of every np.linalg.solve call made from here on."""
    sizes, solve = [], np.linalg.solve

    def counting(a, b):
        sizes.append(a.shape[0])
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", counting)
    return sizes


def random_networks(seed, k):
    rng = np.random.default_rng(seed)
    return [fx.random_network(rng, int(rng.integers(3, 20))) for _ in range(k)]


@pytest.mark.parametrize("case", ["random", "golden"])
def test_recovery_sweep_rows_match_per_point_runs(case):
    networks = (random_networks(3, 6) if case == "random"
                else [f.network for f in fx.golden()])
    networks.append(networks[0])  # one network twice in an ensemble
    got = run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID,
                                                 recovery_grid=RECOVERY_GRID))
    expected = []
    for R in RECOVERY_GRID:
        rows = run_shock_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID,
                                                   recovery_grid=(R,), rv_beta=R))
        expected += [{"recovery_rate": R, "shock": row["shock"], "model": row["model"],
                      **{k: v for k, v in row.items() if k.startswith("H_inf_")}}
                     for row in rows]
    assert repr(got) == repr(expected)


def test_recovery_sweep_solves_each_distinct_clearing_once(monkeypatch):
    sizes = count_solves(monkeypatch)
    networks = random_networks(7, 3)
    run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID))
    in_sweep = list(sizes)
    sizes.clear()
    # EN runs at beta = 1 and RV at beta = R; each fresh shock object stores its own runs.
    for net in networks:
        for s in SHOCK_GRID:
            for beta in {1.0, *RECOVERY_GRID}:
                run_model(net, ShockSpec.uniform(s), ModelConfig(model=RV, rv_beta=beta))
    assert sizes and sorted(in_sweep) == sorted(sizes)


def test_a_recovery_sweep_stores_each_distinct_run_once():
    # Each run is stored on its network's first round under its shock; the
    # network keeps the last shock's round, with every distinct run of the grid.
    networks = random_networks(7, 3)
    run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID))
    for net in networks:
        shock, first = net._first_round
        assert shock.per_bank_shock.tolist() == [SHOCK_GRID[-1]]
        assert set(first.runs) == ({("clearing", beta) for beta in RECOVERY_GRID}
                                   | {(m, R) for m in (DC, ADR, CDR) for R in RECOVERY_GRID})


@pytest.mark.parametrize("runner", [run_shock_sweep, run_recovery_sweep])
def test_a_repeated_grid_value_repeats_its_rows(runner):
    # Rows are collected per grid position, so a repeated value gets its own rows.
    shocks = (0.1, 0.4, 0.1)
    recovery = (0.0, 0.5, 0.0) if runner is run_recovery_sweep else (0.5,)
    rows = runner(random_networks(5, 3), SweepSpec(shock_grid=shocks, recovery_grid=recovery))
    grid = [(R, s) for R in recovery for s in shocks]  # the row order of both runners
    k = len(MODEL_NAMES)
    blocks = [rows[i:i + k] for i in range(0, len(rows), k)]
    assert len(blocks) == len(grid)
    for point, block in zip(grid, blocks):
        assert all((row["recovery_rate"], row["shock"]) == point for row in block)
        assert block == blocks[grid.index(point)]


@pytest.mark.parametrize("runner", [run_shock_sweep, run_recovery_sweep])
def test_sweep_of_no_networks_raises(monkeypatch, runner):
    forbid_runs(monkeypatch)
    with pytest.raises(ValueError, match="at least one network"):
        runner([], SweepSpec())


def test_a_second_sweep_computes_its_runs_again(monkeypatch):
    # A sweep makes its own shock objects, so no run of an earlier sweep is reused.
    sizes = count_solves(monkeypatch)
    networks = random_networks(7, 2)
    spec = SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID)
    first = run_recovery_sweep(networks, spec)
    n_first = len(sizes)
    assert run_recovery_sweep(networks, spec) == first
    assert n_first > 0 and len(sizes) == 2 * n_first


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_a_repeated_run_returns_the_stored_run(monkeypatch, model):
    sizes = count_solves(monkeypatch)
    net, shock = random_networks(11, 1)[0], ShockSpec.uniform(0.4)
    runs = [run_model(net, shock, ModelConfig(model=model, exogenous_recovery_rate=R))
            for R in (0.0, 0.5, 0.0, 0.5)]
    n_solves = len(sizes)
    assert runs[2] is runs[0] and runs[3] is runs[1]
    assert [run_model(net, shock, ModelConfig(model=model, exogenous_recovery_rate=R))
            for R in (0.0, 0.5)] == runs[:2]
    assert len(sizes) == n_solves and (n_solves > 0) == (model in (EN, RV))


def test_a_run_that_raises_stores_nothing(monkeypatch):
    net, shock = random_networks(11, 1)[0], ShockSpec.uniform(0.4)

    def fail(h):
        raise NonConvergence("vulnerability left [0, 1]; internal fault")
    check = models._check_trajectory
    monkeypatch.setattr(models, "_check_trajectory", fail)
    for model in MODEL_NAMES:
        with pytest.raises(NonConvergence):
            run_model(net, shock, ModelConfig(model=model))
    assert apply_first_round(net, shock).runs == {}
    monkeypatch.setattr(models, "_check_trajectory", check)
    run = run_model(net, shock, ModelConfig(model=EN))
    assert run_model(net, shock, ModelConfig(model=EN)) is run


def test_networks_with_equal_arrays_share_no_run(monkeypatch):
    sizes = count_solves(monkeypatch)
    net = random_networks(11, 1)[0]
    twin = replace(net)  # equal arrays, another network
    shock = ShockSpec.uniform(0.4)
    a = run_model(net, shock, ModelConfig(model=EN))
    n_one = len(sizes)
    b = run_model(twin, shock, ModelConfig(model=EN))
    assert n_one > 0 and len(sizes) == 2 * n_one
    assert run_model(net, shock, ModelConfig(model=EN)) is a
    assert run_model(twin, shock, ModelConfig(model=EN)) is b
    assert len(sizes) == 2 * n_one
    assert a is not b and np.array_equal(a.h, b.h) and np.array_equal(a.payments, b.payments)


def test_a_new_shock_object_drops_the_last_shocks_runs():
    net = random_networks(11, 1)[0]
    shock, other, equal = (ShockSpec.uniform(s) for s in (0.4, 0.1, 0.4))
    order = (shock, shock, other, equal, shock)
    runs = [[run_model(net, s, ModelConfig(model=m)) for m in (EN, CDR)] for s in order]
    assert runs[1] == runs[0]  # a repeat under one shock object: the stored runs
    assert not np.array_equal(runs[2][0].h, runs[0][0].h)
    # An equal shock shares no run, and the first shock's runs were dropped
    # when the network saw another shock object; both recompute the same arrays.
    for later in (runs[3], runs[4]):
        for a, b in zip(runs[0], later):
            assert a is not b and np.array_equal(a.h, b.h)
    kept_shock, first = net._first_round
    assert kept_shock is shock and set(first.runs) == {("clearing", 1.0), (CDR, 0.0)}
    assert first.runs["clearing", 1.0] is runs[4][0]


def test_en_and_rv_at_beta_one_share_one_read_only_run():
    net = random_networks(11, 1)[0]
    shock = ShockSpec.uniform(0.4)
    en = run_model(net, shock, ModelConfig(model=EN))
    rv = run_model(net, shock, ModelConfig(model=RV, rv_beta=1.0))
    assert rv is en
    assert run_model(net, shock, ModelConfig(model=RV, rv_beta=0.5)) is not en
    for arr in (en.h, en.payments):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rv.h[-1, 0] = 0.5


# sha256 of the rows and H values below, recorded before each (network,
# shock)'s model runs were kept with its first round.
SHOCK_SWEEP_DIGEST = "445053be5cebce27c60676866ad19ed14762eb32529404b69515efffec0a5f72"
TIMESERIES_DIGEST = "27243e44092bc1939b048dd5a0225f17ce183a5d4199fe9a5f55cf1d40ff5796"
AUDIT_DIGEST = "dfd22fc8709ff6a3ce3a18a65a0d96b2f0da6941846302e26d2f69dda98e8043"


def digest_of(values) -> str:
    # repr of a Python float round-trips, so equal digests mean equal bits.
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_shock_sweep_rows_repeat_their_recorded_bytes():
    networks = random_networks(13, 5) + [f.network for f in fx.golden()]
    networks.append(networks[0])  # one network twice in an ensemble
    rows = [run_shock_sweep(networks, SweepSpec(shock_grid=(0.05, 0.2, 0.6),
                                                recovery_grid=(R,), rv_beta=beta))
            for R in (0.0, 0.6) for beta in (1.0, 0.6)]
    assert digest_of(rows) == SHOCK_SWEEP_DIGEST


def test_timeseries_rows_repeat_their_recorded_bytes():
    panel, _ = interpolate_missing(synthesize_panel(20, 3, seed=4))
    rows = [run_timeseries(panel, SweepSpec(
        shock_grid=(0.05,), recovery_grid=(0.6,), rv_beta=beta,
        ensemble=ReconstructionConfig(ensemble_size=3, rng_seed=8, target_density=0.3)))
        for beta in (1.0, 0.6)]
    assert digest_of(rows) == TIMESERIES_DIGEST


def test_ordering_audit_repeats_its_recorded_bytes():
    # Each fixture's network and shock are audited at several (R, beta) in turn.
    H = [analysis.ordering_audit(f.network, f.shock, R, beta).H_final
         for f in fx.topology_family()
         for R, beta in ((0.0, 1.0), (f.recovery_rate, 1.0), (f.recovery_rate, 0.6), (0.0, 1.0))]
    assert digest_of(H) == AUDIT_DIGEST
