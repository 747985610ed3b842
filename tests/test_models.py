import numpy as np
import pytest

from contagion import (
    ModelConfig, ShockSpec, en_vulnerability_form, leverage_decomposition,
    run_acyclic_debtrank, run_cyclic_debtrank, run_default_cascade,
    run_eisenberg_noe, run_rogers_veraart,
)
from contagion import fixtures as fx
from contagion import models
from contagion.errors import NonConvergence


def cfg(model="EN", R=0.0, beta=1.0):
    return ModelConfig(model=model, exogenous_recovery_rate=R, rv_beta=beta)


# --- clearing model -------------------------------------------------------

def test_chain_clearing_values():
    f = fx.chain_fixture()
    traj = run_eisenberg_noe(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


def test_star_clearing_values():
    f = fx.star_fixture()
    traj = run_eisenberg_noe(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.02, 0.02, 0.02], atol=1e-9)


def test_cycle_clearing_values():
    f = fx.cycle_fixture()
    traj = run_eisenberg_noe(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


def test_zero_shock_full_payments():
    f = fx.chain_fixture()
    traj = run_eisenberg_noe(f.network, ShockSpec.uniform(0.0))
    p_bar = f.network.liabilities.sum(axis=1) + f.network.external_liabilities
    assert np.allclose(traj.payments[-1], p_bar)
    assert np.all(traj.h_final == 0.0)
    assert traj.default_sets[-1] == frozenset()


def test_clearing_fixed_point_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = fx.random_network(rng, int(rng.integers(3, 30)))
        s = rng.uniform(0, 0.5)
        traj = run_eisenberg_noe(net, ShockSpec.uniform(s))
        p = traj.payments[-1]
        p_bar = net.liabilities.sum(axis=1) + net.external_liabilities
        pi_T = np.zeros_like(net.liabilities)
        nz = p_bar > 0
        pi_T[nz] = net.liabilities[nz] / p_bar[nz, None]
        pi_T = pi_T.T
        ae = net.external_assets * (1 - s)
        target = np.minimum(pi_T @ p + ae, p_bar)
        assert np.allclose(p, target, rtol=1e-9, atol=1e-9 * max(1, p_bar.max()))
        # Picard iteration from p_bar decreases to the greatest clearing
        # vector; EN must have found that one, not a smaller fixed point.
        greatest = p_bar.copy()
        for _ in range(10_000):
            nxt = np.minimum(p_bar, pi_T @ greatest + ae)
            if np.array_equal(nxt, greatest):
                break
            greatest = nxt
        assert np.abs(p - greatest).max() <= 1e-12 * max(1, p_bar.max())


def test_picard_fallback_raises_at_its_cap(monkeypatch):
    # Two banks owing each other 10 with nothing outside: I - Pi^T_DD is
    # singular, so the solve falls back to Picard iteration, which from
    # p = (10, 4) swaps the two payments forever instead of settling.
    monkeypatch.setattr(models, "PICARD_MAX_ITERATIONS", 50)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonConvergence, match="50 iterations"):
        models._solve_defaulter_payments(
            swap, np.array([10.0, 10.0]), np.array([True, True]), 1.0,
            np.zeros(2), np.array([10.0, 4.0]))


def test_endogenous_recovery_recorded():
    f = fx.chain_fixture()
    traj = run_eisenberg_noe(f.network, f.shock)
    # bank 1 pays 72 of 75
    assert traj.endogenous_recovery[0] == pytest.approx(72.0 / 75.0, abs=1e-12)
    assert np.allclose(traj.endogenous_recovery[1:], 1.0)


# --- discounted clearing --------------------------------------------------

def test_rv_beta_one_bit_matches_en():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = fx.random_network(rng, int(rng.integers(3, 20)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.4))
        en = run_eisenberg_noe(net, shock)
        rv = run_rogers_veraart(net, shock, cfg("RV", beta=1.0))
        assert np.array_equal(en.h, rv.h)
        assert np.array_equal(en.payments, rv.payments)


def test_rv_beta_zero_full_writeoff():
    f = fx.chain_fixture()
    rv = run_rogers_veraart(f.network, f.shock, cfg("RV", beta=0.0))
    # defaulted bank 1 pays nothing, so bank 2 loses its whole claim (15 of equity 10)
    assert rv.payments[-1][0] == 0.0
    assert rv.h_final[1] == 1.0


def test_rv_payments_below_en_every_iteration():
    rng = np.random.default_rng(9)
    for _ in range(20):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.5))
        beta = rng.uniform(0, 1)
        en = run_eisenberg_noe(net, shock)
        rv = run_rogers_veraart(net, shock, cfg("RV", beta=beta))
        T = max(en.payments.shape[0], rv.payments.shape[0])
        pe = np.vstack([en.payments,
                        np.repeat(en.payments[-1][None], T - en.payments.shape[0], 0)])
        pr = np.vstack([rv.payments,
                        np.repeat(rv.payments[-1][None], T - rv.payments.shape[0], 0)])
        assert np.all(pr <= pe + 1e-9)


# --- threshold cascade ----------------------------------------------------

def test_dc_counterexample_values():
    f = fx.dc_vs_adr_fixture()
    traj = run_default_cascade(f.network, f.shock, cfg("DC", R=0.0))
    assert np.allclose(traj.h[1], [1.0, 2.0 / 3.0, 2.0 / 5.0], atol=1e-12)
    assert np.allclose(traj.h_final, [1.0, 1.0, 1.0], atol=1e-12)


def test_dc_full_recovery_stops_propagation():
    f = fx.dc_vs_adr_fixture()
    traj = run_default_cascade(f.network, f.shock, cfg("DC", R=1.0))
    assert np.allclose(traj.h_final, traj.h[1])


def test_dc_no_defaults_no_propagation():
    f = fx.chain_fixture()
    traj = run_default_cascade(f.network, ShockSpec.uniform(0.01), cfg("DC", R=0.0))
    assert np.allclose(traj.h_final, traj.h[1])


def test_single_propagation_invariant():
    # Each bank j transmits once, h_j at the first round t >= 1 in which it
    # meets the model's rule, so h(inf) = min(1, h(1) + (1-R) l_b v) with v_j
    # that value (0 if j never meets the rule). A second transmission by any
    # bank breaks this identity.
    rng = np.random.default_rng(13)
    for _ in range(20):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.6))
        lb = leverage_decomposition(net).interbank_leverage
        for runner, rule in ((run_default_cascade, lambda h: h >= 1.0),
                             (run_acyclic_debtrank, lambda h: h > 0.0)):
            R = rng.uniform(0, 1)
            traj = runner(net, shock, cfg("DC", R=R))
            meets = rule(traj.h[1:])
            first = np.argmax(meets, axis=0) + 1
            v = np.where(meets.any(axis=0), traj.h[first, np.arange(net.n)], 0.0)
            expected = np.minimum(1.0, traj.h1 + (1.0 - R) * (lb @ v))
            assert np.abs(traj.h_final - expected).max() <= 1e-12


# --- one-shot cascade -----------------------------------------------------

def test_adr_counterexample_values():
    f = fx.dc_vs_adr_fixture()
    traj = run_acyclic_debtrank(f.network, f.shock, cfg("ADR", R=0.0))
    assert np.allclose(traj.h_final, [1.0, 1.0, 4.0 / 5.0], atol=1e-12)


def test_adr_chain_values():
    f = fx.chain_fixture()
    traj = run_acyclic_debtrank(f.network, f.shock, cfg("ADR", R=0.5))
    assert np.allclose(traj.h_final, [1.0, 0.75, 0.5625, 0.421875], atol=1e-12)


def test_adr_zero_shock():
    f = fx.chain_fixture()
    traj = run_acyclic_debtrank(f.network, ShockSpec.uniform(0.0), cfg("ADR"))
    assert np.all(traj.h_final == 0.0)


# --- full-propagation cascade ---------------------------------------------

def test_cdr_zero_shock():
    f = fx.chain_fixture()
    traj = run_cyclic_debtrank(f.network, ShockSpec.uniform(0.0), cfg("CDR"))
    assert np.all(traj.h_final == 0.0)
    assert not traj.cap_hit


def test_cdr_equals_adr_on_dag():
    f = fx.chain_fixture()
    adr = run_acyclic_debtrank(f.network, f.shock, cfg("ADR", R=0.5))
    cdr = run_cyclic_debtrank(f.network, f.shock, cfg("CDR", R=0.5))
    assert np.allclose(cdr.h_final, adr.h_final, atol=1e-9)


def test_cdr_equals_adr_on_random_exposure_trees():
    # The one-shot and full-propagation cascades coincide when every bank's
    # distress arrives in a single wave, i.e. the exposure graph gives each
    # bank a unique path from any shocked bank. (On DAGs with multiple path
    # lengths to the same bank, the one-shot cascade transmits only the first
    # wave and genuinely falls below the full propagation.)
    from contagion import network_from_vectors
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        L = np.zeros((n, n))
        for i in range(1, n):
            debtor = int(rng.integers(0, i))
            L[debtor, i] = rng.uniform(1.0, 20.0)  # bank i claims on one debtor
        equity = rng.uniform(1.0, 10.0, size=n)
        lb = L.sum(axis=1)
        ab = L.sum(axis=0)
        ae = np.maximum(0.0, equity + lb - ab) + equity * rng.uniform(0.5, 10.0, n)
        le = ae + ab - lb - equity
        dag = network_from_vectors(ae, le, L, equity=equity)
        # shock only the root so each bank receives its one wave before it
        # first activates; a broad shock activates everyone at t=1 and the
        # one-shot cascade then transmits only first-round losses
        shock = ShockSpec.on_bank(0, rng.uniform(0.2, 1.0), n)
        R = rng.uniform(0, 1)
        adr = run_acyclic_debtrank(dag, shock, cfg("ADR", R=R))
        cdr = run_cyclic_debtrank(dag, shock, cfg("CDR", R=R))
        assert np.allclose(cdr.h_final, adr.h_final, atol=1e-8)


def test_one_shot_equivalence_at_full_recovery():
    rng = np.random.default_rng(19)
    net = fx.random_network(rng, 12)
    shock = ShockSpec.uniform(0.2)
    for runner in (run_default_cascade, run_acyclic_debtrank, run_cyclic_debtrank):
        traj = runner(net, shock, cfg("DC", R=1.0))
        assert np.allclose(traj.h_final, traj.h[1])


# --- leverage-form clearing oracle ----------------------------------------

def test_vulnerability_form_matches_on_fixtures():
    for f in fx.topology_family() + [fx.en_vs_adr_fixture(), fx.wheel_fixture(4)]:
        base = run_eisenberg_noe(f.network, f.shock)
        alt = en_vulnerability_form(f.network, f.shock)
        assert base.h.shape == alt.h.shape
        assert np.allclose(base.h, alt.h, atol=1e-9)


def test_cycle_vulnerability_form_values():
    f = fx.cycle_fixture()
    alt = en_vulnerability_form(f.network, f.shock)
    assert np.allclose(alt.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


# --- shared trajectory invariants -----------------------------------------

def test_monotone_bounded_trajectories():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.8))
        R = rng.uniform(0, 1)
        beta = rng.uniform(0, 1)
        runs = [
            run_eisenberg_noe(net, shock),
            run_rogers_veraart(net, shock, cfg("RV", beta=beta)),
            run_default_cascade(net, shock, cfg("DC", R=R)),
            run_acyclic_debtrank(net, shock, cfg("ADR", R=R)),
            run_cyclic_debtrank(net, shock, cfg("CDR", R=R)),
        ]
        for traj in runs:
            assert np.all(traj.h >= 0) and np.all(traj.h <= 1)
            assert np.all(np.diff(traj.h, axis=0) >= -1e-12)
            for a, b in zip(traj.default_sets, traj.default_sets[1:]):
                assert a <= b
            if traj.payments is not None:
                assert np.all(np.diff(traj.payments, axis=0) <= 1e-9)


def test_termination_bounds():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(3, 30))
        net = fx.random_network(rng, n)
        shock = ShockSpec.uniform(rng.uniform(0, 0.8))
        en = run_eisenberg_noe(net, shock)
        assert en.payments.shape[0] - 2 <= n + 1  # clearing sweeps
        dc = run_default_cascade(net, shock, cfg("DC", R=0.0))
        assert dc.h.shape[0] - 2 <= n
        cdr = run_cyclic_debtrank(net, shock, cfg("CDR", R=0.0))
        assert not cdr.cap_hit
