from dataclasses import replace

import numpy as np
import pytest

from contagion import fixtures as fx
from contagion import analysis, models, sweeps
from contagion.core import ShockSpec
from contagion.ingest import interpolate_missing, synthesize_panel
from contagion.models import ADR, CDR, DC, EN, MODEL_NAMES, RV, ModelConfig, run_model
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


def forbid_tables(monkeypatch):
    """Make any run table opened by a sweep fail the test."""
    def call(*args, **kwargs):
        raise AssertionError("run table opened")
    monkeypatch.setattr(sweeps, "run_table", call)


@pytest.mark.parametrize("case", ["random", "golden"])
def test_recovery_sweep_rows_match_per_point_runs(monkeypatch, case):
    networks = (random_networks(3, 6) if case == "random"
                else [f.network for f in fx.golden()])
    networks.append(networks[0])  # one network twice in an ensemble
    got = run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID,
                                                 recovery_grid=RECOVERY_GRID))
    forbid_tables(monkeypatch)  # a sweep at one (R, beta) point opens none
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
    for net in networks:  # EN runs at beta = 1 and RV at beta = R
        for s in SHOCK_GRID:
            for beta in {1.0, *RECOVERY_GRID}:
                models._run_clearing(net, ShockSpec.uniform(s), beta)
    assert sizes and sorted(in_sweep) == sorted(sizes)


def test_each_run_table_serves_one_network_and_one_shock(monkeypatch):
    # A run can repeat only for one network under one shock, so a sweep opens
    # a table per (network, shock) and every run inside it is of that pair.
    opened, served, run_table, run = [], [], models.run_table, analysis.run_model

    def opening(network, shock):
        opened.append((network, shock))
        return run_table(network, shock)

    def serving(network, shock, config):
        served.append((models._RUN_TABLE.get(), network, shock))
        return run(network, shock, config)
    monkeypatch.setattr(sweeps, "run_table", opening)
    monkeypatch.setattr(analysis, "run_model", serving)
    networks = random_networks(7, 3)
    run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID))
    assert len(opened) == len(networks) * len(SHOCK_GRID)
    assert {id(net) for net, _ in opened} == {id(net) for net in networks}
    tables = {id(table): table for table, _, _ in served}
    assert len(tables) == len(opened)
    for table, network, shock in served:
        assert table is not None and table[0] is network and table[1] is shock
    # per table: clearing at beta in {0, 0.5, 1} and cDR at R in {0, 0.5, 1}
    for _, _, runs in tables.values():
        assert set(runs) == {(kind, v) for kind in ("clearing", CDR) for v in RECOVERY_GRID}


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


def test_recovery_sweep_keeps_no_runs_after_it_returns(monkeypatch):
    sizes = count_solves(monkeypatch)
    networks = random_networks(7, 2)
    spec = SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID)
    first = run_recovery_sweep(networks, spec)
    n_first = len(sizes)
    assert models._RUN_TABLE.get() is None
    assert run_recovery_sweep(networks, spec) == first
    assert n_first > 0 and len(sizes) == 2 * n_first
    with pytest.raises(RuntimeError), models.run_table(networks[0], ShockSpec.uniform(0.1)):
        raise RuntimeError  # a sweep that fails keeps none either
    assert models._RUN_TABLE.get() is None


def test_networks_with_equal_arrays_share_no_run(monkeypatch):
    sizes = count_solves(monkeypatch)
    net = random_networks(11, 1)[0]
    twin = replace(net)  # equal arrays, another network
    shock = ShockSpec.uniform(0.4)
    with models.run_table(net, shock):
        a = run_model(net, shock, ModelConfig(model=EN))
        n_one = len(sizes)
        b = run_model(twin, shock, ModelConfig(model=EN))
        assert len(sizes) == 2 * n_one
        assert run_model(net, shock, ModelConfig(model=EN)).h is a.h
        assert run_model(twin, shock, ModelConfig(model=EN)).h is not b.h
    assert n_one > 0 and len(sizes) == 3 * n_one
    assert not a.h.flags.writeable and b.h.flags.writeable  # b was not stored
    assert np.array_equal(a.h, b.h)


def test_runs_under_other_shocks_share_no_run():
    net = random_networks(11, 1)[0]
    shock = ShockSpec.uniform(0.4)
    requests = [(s, ModelConfig(model=m)) for s in (shock, ShockSpec.uniform(0.1),
                                                     ShockSpec.uniform(0.4)) for m in (EN, CDR)]
    expected = [run_model(net, s, config) for s, config in requests]
    with models.run_table(net, shock):
        got = [run_model(net, s, config) for s, config in requests]
        runs = models._RUN_TABLE.get()[2]
    assert not np.array_equal(expected[0].h, expected[2].h)
    for e, g in zip(expected, got):
        assert np.array_equal(e.h, g.h)
        assert e.payments is None or np.array_equal(e.payments, g.payments)
    # only the bound shock object's runs are stored; an equal shock is another
    assert set(runs) == {("clearing", 1.0), (CDR, 0.0)}
    assert [g.h.flags.writeable for g in got] == [False, False, True, True, True, True]


def test_en_and_rv_at_beta_one_share_one_read_only_run():
    net = random_networks(11, 1)[0]
    shock = ShockSpec.uniform(0.4)
    assert run_model(net, shock, ModelConfig(model=EN)).h.flags.writeable  # outside the table
    with models.run_table(net, shock):
        en = run_model(net, shock, ModelConfig(model=EN))
        rv = run_model(net, shock, ModelConfig(model=RV, rv_beta=1.0))
        cdr = [run_model(net, shock, ModelConfig(model=CDR)) for _ in range(2)]
        cascades = [run_model(net, shock, ModelConfig(model=m)) for m in (DC, DC, ADR, ADR)]
        runs = models._RUN_TABLE.get()[2]
    assert rv is en and cdr[1] is cdr[0]
    # DC and aDR never repeat within a sweep's table, so none is stored
    assert set(runs) == {("clearing", 1.0), (CDR, 0.0)}
    assert cascades[0] is not cascades[1] and cascades[2] is not cascades[3]
    assert all(run.h.flags.writeable for run in cascades)
    for arr in (en.h, en.payments, cdr[0].h):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rv.h[-1, 0] = 0.5
