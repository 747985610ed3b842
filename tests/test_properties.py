import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion import (
    ModelConfig, ShockSpec, apply_first_round, leverage_decomposition,
    network_from_vectors, relative_liabilities, run_model,
)
from contagion import ingest
from contagion.ingest import interpolate_missing, synthesize_panel


@st.composite
def networks(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    weights = draw(st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n),
        min_size=n, max_size=n))
    L = np.array(weights)
    np.fill_diagonal(L, 0.0)
    equity = np.array(draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n)))
    ab = L.sum(axis=0)
    lb = L.sum(axis=1)
    ae = np.maximum(0.0, equity + lb - ab) + np.array(
        draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n)))
    le = ae + ab - lb - equity
    return network_from_vectors(ae, le, L, equity=equity)


shocks = st.floats(0.0, 1.0)
recoveries = st.floats(0.0, 1.0)


@given(networks())
@settings(max_examples=50, deadline=None)
def test_leverage_additivity(net):
    # External plus interbank leverage is total assets over equity.
    lev = leverage_decomposition(net)
    total = lev.external_leverage_total + lev.interbank_leverage.sum(axis=1)
    assets = net.external_assets + net.interbank_assets
    assert np.allclose(total, assets / net.equity, rtol=1e-9, atol=1e-12)


@given(networks())
@settings(max_examples=50, deadline=None)
def test_pi_rows_match_connectivity(net):
    # beta_i, the row sums of Pi, is the share L^b_i / p_bar_i owed inside the network.
    rel = relative_liabilities(net)
    beta = rel.pi_matrix.sum(axis=1)
    p_bar = rel.total_obligations
    share = np.divide(net.interbank_liabilities, p_bar, out=np.zeros(net.n), where=p_bar > 0)
    np.testing.assert_allclose(beta, share, rtol=1e-12, atol=0)
    assert np.all((beta >= 0) & (beta <= 1 + 1e-12))


@given(networks(), shocks)
@settings(max_examples=50, deadline=None)
def test_first_round_bounds(net, s):
    first = apply_first_round(net, ShockSpec.uniform(s))
    assert np.all((first.h1 >= 0) & (first.h1 <= 1))
    assert np.all(first.shocked_external_assets >= -1e-12)
    assert np.all(first.shocked_external_assets <= net.external_assets + 1e-12)


@given(networks(), shocks)
@settings(max_examples=30, deadline=None)
def test_clearing_monotone_bounded(net, s):
    traj = run_model(net, ShockSpec.uniform(s), ModelConfig())
    assert np.all((traj.h >= 0) & (traj.h <= 1))
    assert np.all(np.diff(traj.h, axis=0) >= -1e-12)
    assert np.all(np.diff(traj.payments, axis=0) <= 1e-9)
    p_bar = net.liabilities.sum(axis=1) + net.external_liabilities
    assert np.all(traj.payments[-1] <= p_bar + 1e-9)


@given(networks(), shocks, st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_discounted_clearing_below_full(net, s, beta):
    shock = ShockSpec.uniform(s)
    en = run_model(net, shock, ModelConfig())
    rv = run_model(
        net, shock,
        ModelConfig(model="RV", exogenous_recovery_rate=0.0, rv_beta=beta))
    assert rv.payments[-1].sum() <= en.payments[-1].sum() + 1e-9
    T = max(en.h.shape[0], rv.h.shape[0])

    def pad(h):
        return np.vstack([h, np.repeat(h[-1][None], T - h.shape[0], axis=0)])

    assert np.all(pad(en.h) <= pad(rv.h) + 1e-9)


@given(networks(), shocks, recoveries)
@settings(max_examples=30, deadline=None)
def test_cascades_monotone_bounded(net, s, R):
    shock = ShockSpec.uniform(s)
    for name in ("DC", "CDR"):
        traj = run_model(net, shock, ModelConfig(model=name, exogenous_recovery_rate=R))
        assert np.all((traj.h >= 0) & (traj.h <= 1))
        assert np.all(np.diff(traj.h, axis=0) >= -1e-12)
        defaulted = traj.h >= 1.0  # no bank leaves the default set
        assert np.all(defaulted[:-1] <= defaulted[1:])


@given(st.integers(2, 8), st.integers(3, 10), st.integers(0, 1000),
       st.floats(0.0, 0.5))
@settings(max_examples=30, deadline=None)
def test_interpolation_idempotent_and_preserving(n_banks, n_quarters, seed, miss):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "SYNTHETIC_MISSINGNESS", miss)
        panel = synthesize_panel(n_banks, n_quarters, seed=seed)
    once, _ = interpolate_missing(panel)
    twice, _ = interpolate_missing(once)
    assert once.records == twice.records
    for r_in, r_out in zip(panel.records, once.records):
        for name in ("total_equity", "total_assets", "interbank_assets",
                     "interbank_liabilities", "total_loans", "impaired_loans",
                     "derivatives"):
            v = getattr(r_in, name)
            if v is not None:
                assert getattr(r_out, name) == v
