import pytest

from contagion import fixtures as fx
from contagion import sweeps
from contagion.ingest import interpolate_missing, synthesize_panel
from contagion.sweeps import SweepSpec, run_shock_sweep, run_timeseries


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


@pytest.mark.parametrize("grids", [{"shock_grid": (0.1, 0.5)},
                                   {"recovery_grid": (0.2, 0.7)}])
def test_timeseries_rejects_shock_or_recovery_grid(monkeypatch, grids):
    forbid_runs(monkeypatch)
    panel, _ = interpolate_missing(synthesize_panel(10, 2, seed=0))
    with pytest.raises(ValueError, match="one shock and one recovery rate"):
        run_timeseries(panel, SweepSpec(**grids))
