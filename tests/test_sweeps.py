import contextlib
from dataclasses import replace

import numpy as np
import pytest

from contagion import fixtures as fx
from contagion import models, sweeps
from contagion.core import ShockSpec
from contagion.ingest import interpolate_missing, synthesize_panel
from contagion.models import CDR, EN, MODEL_NAMES, RV, ModelConfig, run_model
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
    spec = SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID)
    expected = []
    for R in RECOVERY_GRID:
        for s in SHOCK_GRID:
            cols = sweeps._summarise(networks, ShockSpec.uniform(s), MODEL_NAMES, R, R)
            expected += [{"recovery_rate": R, "shock": s, "model": m, **cols[m]}
                         for m in MODEL_NAMES]
    assert repr(run_recovery_sweep(networks, spec)) == repr(expected)


def test_recovery_sweep_solves_each_distinct_clearing_once(monkeypatch):
    sizes = count_solves(monkeypatch)
    networks = random_networks(7, 3)
    run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID))
    in_sweep = list(sizes)
    sizes.clear()
    for net in networks:  # EN runs at beta = 1 and RV at beta = R
        for s in SHOCK_GRID:
            for beta in {1.0, *RECOVERY_GRID}:
                models._run_clearing(net, ShockSpec.uniform(s), beta, EN)
    assert sizes and sorted(in_sweep) == sorted(sizes)


def test_recovery_sweep_holds_the_runs_of_one_shock_at_a_time(monkeypatch):
    # A run can repeat only under the same shock, so a table never spans two.
    sizes, run_table = [], models.run_table

    @contextlib.contextmanager
    def recording():
        with run_table():
            yield
            sizes.append(len(models._RUN_TABLE.get()))
    monkeypatch.setattr(sweeps, "run_table", recording)
    networks = random_networks(7, 3)
    run_recovery_sweep(networks, SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID))
    # per network: clearing at beta in {0, 0.5, 1} and cDR at R in {0, 0.5, 1}
    assert sizes == [6 * len(networks)] * len(SHOCK_GRID)


def test_recovery_sweep_keeps_no_runs_after_it_returns(monkeypatch):
    sizes = count_solves(monkeypatch)
    networks = random_networks(7, 2)
    spec = SweepSpec(shock_grid=SHOCK_GRID, recovery_grid=RECOVERY_GRID)
    first = run_recovery_sweep(networks, spec)
    n_first = len(sizes)
    assert models._RUN_TABLE.get() is None
    assert run_recovery_sweep(networks, spec) == first
    assert n_first > 0 and len(sizes) == 2 * n_first
    with pytest.raises(RuntimeError), models.run_table():
        raise RuntimeError  # a sweep that fails keeps none either
    assert models._RUN_TABLE.get() is None


def test_networks_with_equal_arrays_share_no_run(monkeypatch):
    sizes = count_solves(monkeypatch)
    net = random_networks(11, 1)[0]
    twin = replace(net)
    shock = ShockSpec.uniform(0.4)
    with models.run_table():
        a = models.run_eisenberg_noe(net, shock)
        n_one = len(sizes)
        b = models.run_eisenberg_noe(twin, shock)
    assert n_one > 0 and len(sizes) == 2 * n_one
    assert a.h is not b.h and np.array_equal(a.h, b.h)


def test_runs_under_other_shocks_share_no_run():
    # A sweep's table sees one shock; a table used directly may see several.
    net = random_networks(11, 1)[0]
    requests = [(ShockSpec.uniform(s), ModelConfig(model=m)) for s in (0.4, 0.1) for m in (EN, CDR)]
    expected = [run_model(net, shock, config) for shock, config in requests]
    with models.run_table():
        got = [run_model(net, shock, config) for shock, config in requests]
    assert not np.array_equal(expected[0].h, expected[2].h)
    for e, g in zip(expected, got):
        assert np.array_equal(e.h, g.h)
        assert e.payments is None or np.array_equal(e.payments, g.payments)


def test_a_stored_run_is_read_only_and_carries_the_requested_model():
    net = random_networks(11, 1)[0]
    shock = ShockSpec.uniform(0.4)
    assert models.run_eisenberg_noe(net, shock).h.flags.writeable  # outside the table
    with models.run_table():
        en = run_model(net, shock, ModelConfig(model=EN))
        rv = run_model(net, shock, ModelConfig(model=RV, rv_beta=1.0))
        cdr = [run_model(net, shock, ModelConfig(model=CDR)) for _ in range(2)]
    assert (en.model, rv.model, cdr[1].model) == (EN, RV, CDR)
    assert rv.h is en.h and rv.payments is en.payments and cdr[1].h is cdr[0].h
    for arr in (en.h, en.payments, cdr[0].h):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rv.h[-1, 0] = 0.5
