from dataclasses import replace

import numpy as np
import pytest

from contagion import (
    MODEL_NAMES, ModelConfig, ShockSpec, global_vulnerability,
    network_from_vectors, ordering_audit, run_model, run_with_firewall,
)
from contagion import analysis
from contagion.analysis import assert_proved_ordering
from contagion.errors import NonConvergence, ProvedOrderingViolated
from contagion.models import ADR, CDR, DC, EN, RV, Trajectory
from contagion import fixtures as fx
from contagion.ingest import interpolate_missing, synthesize_panel, to_aggregates
from contagion.reconstruct import ReconstructionConfig, generate_ensemble
import oracles
from oracles import (
    conservation_check, conservation_ring, en_closed_form_H, en_second_round_bound,
    en_second_round_exact, first_round_default_set, run, topology_invariance_check,
)


def checked_bound(network, shock):
    """The second-round bound, once its two forms agree to 1e-12 (rel and abs)."""
    bound, weighted = en_second_round_bound(network, shock)
    assert weighted == pytest.approx(bound, rel=1e-12, abs=1e-12), (bound, weighted)
    return bound


def test_global_vulnerability_chain():
    f = fx.chain_fixture()
    traj = run(f.network, f.shock)
    assert global_vulnerability(traj, f.network) == pytest.approx(0.16, abs=1e-9)


def test_global_vulnerability_star_cascade():
    f = fx.star_fixture()
    traj = run_model(
        f.network, f.shock,
        ModelConfig(model="ADR", exogenous_recovery_rate=f.recovery_rate))
    H = global_vulnerability(traj, f.network)
    assert H == pytest.approx(27.5 / 35.0, abs=1e-12)
    assert round(H, 2) == 0.79


def test_global_vulnerability_zero():
    f = fx.chain_fixture()
    traj = run(f.network, ShockSpec.uniform(0.0))
    assert global_vulnerability(traj, f.network) == 0.0


def test_global_vulnerability_index_error():
    f = fx.chain_fixture()
    traj = run(f.network, f.shock)
    with pytest.raises(IndexError):
        global_vulnerability(traj, f.network, t=99)


def test_global_vulnerability_rejects_a_negative_round():
    # A negative t would wrap to a round counted from the end: on the chain's
    # six aDR rows, t = -3 would return H(3).
    f = fx.chain_fixture()
    traj = run(f.network, f.shock, ADR)
    assert traj.h.shape[0] == 6
    for t in (-1, -3, -6, -7):
        with pytest.raises(IndexError, match=f"t = {t} outside"):
            global_vulnerability(traj, f.network, t=t)
    assert global_vulnerability(traj, f.network, t=0) == 0.0


def test_closed_form_on_fixtures():
    for f in fx.topology_family():
        traj = run(f.network, f.shock)
        closed = en_closed_form_H(f.network, f.shock, traj)
        assert closed == pytest.approx(0.16, abs=1e-9)
        assert closed == pytest.approx(
            global_vulnerability(traj, f.network), abs=1e-9)


def test_closed_form_zero_shock():
    f = fx.chain_fixture()
    shock = ShockSpec.uniform(0.0)
    traj = run(f.network, shock)
    assert en_closed_form_H(f.network, shock, traj) == pytest.approx(0.0, abs=1e-12)


def test_second_round_exact_on_fixtures():
    for f in fx.topology_family():
        traj = run(f.network, f.shock)
        exact = en_second_round_exact(f.network, f.shock, traj)
        assert exact == pytest.approx(0.6 / 35.0, abs=1e-9)
        H1 = global_vulnerability(traj, f.network, 1)
        H_inf = global_vulnerability(traj, f.network)
        assert H1 == pytest.approx(5.0 / 35.0, abs=1e-12)
        assert H_inf - H1 == pytest.approx(0.6 / 35.0, abs=1e-9)
        assert exact == pytest.approx(H_inf - H1, abs=1e-9)


def test_second_round_exact_no_defaults():
    f = fx.chain_fixture()
    shock = ShockSpec.uniform(0.01)
    traj = run(f.network, shock)
    assert en_second_round_exact(f.network, shock, traj) == pytest.approx(0.0, abs=1e-12)


def test_bound_attained_on_single_wave_fixtures():
    for f in fx.topology_family():
        traj = run(f.network, f.shock)
        bound = checked_bound(f.network, f.shock)
        exact = en_second_round_exact(f.network, f.shock, traj)
        assert bound == pytest.approx(0.6 / 35.0, abs=1e-12)
        assert bound == pytest.approx(exact, abs=1e-9)


def test_bound_raises_typed_error_when_its_forms_disagree(monkeypatch):
    # Scaling the leverages moves only the weighted form of the bound.
    f = fx.chain_fixture()
    lev = oracles.leverage_decomposition(f.network)
    monkeypatch.setattr(oracles, "leverage_decomposition", lambda net: replace(
        lev, external_leverage_total=1.5 * lev.external_leverage_total))
    with pytest.raises(AssertionError):
        checked_bound(f.network, f.shock)


def test_bound_zero_shock():
    f = fx.chain_fixture()
    assert en_second_round_bound(f.network, ShockSpec.uniform(0.0)) == (0.0, 0.0)


def test_bound_dominates_exact_on_random_networks():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net = fx.random_network(rng, int(rng.integers(3, 30)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.8))
        traj = run(net, shock)
        bound = checked_bound(net, shock)
        exact = en_second_round_exact(net, shock, traj)
        assert bound >= exact - 1e-9


def test_closed_forms_under_per_class_shocks():
    # Reconstructed members hold three asset classes, so a class shock hits
    # each bank by its own share of that class.
    panel, _ = interpolate_missing(synthesize_panel(30, 4, seed=2024))
    agg, _ = to_aggregates(panel, panel.quarters[-1])
    networks = generate_ensemble(agg, ReconstructionConfig(
        ensemble_size=4, rng_seed=11, target_density=0.20)).networks
    with_defaults = 0
    for net in networks:
        for name in ("derivatives", "impaired_loans"):
            for s in (0.2, 0.6, 1.0):
                shock = ShockSpec.on_class(name, s)
                assert np.ptp(shock.effective_per_bank(net)) > 0
                traj = run(net, shock)
                H1 = global_vulnerability(traj, net, 1)
                H_inf = global_vulnerability(traj, net)
                assert en_closed_form_H(net, shock, traj) == pytest.approx(H_inf, abs=1e-9)
                exact = en_second_round_exact(net, shock, traj)
                assert en_second_round_bound(net, shock)[0] >= exact - 1e-12
                d1, boundary = first_round_default_set(net, shock)
                if not boundary:
                    assert exact == pytest.approx(H_inf - H1, abs=1e-9)
                with_defaults += bool(d1)
    assert with_defaults > 0


def test_conservation_on_ring():
    net = conservation_ring(5, seed=2)
    shock = ShockSpec.on_bank(0, 0.2, 5)
    traj = run(net, shock)
    residual = conservation_check(net, shock, traj)
    assert residual < 1e-6 * net.equity.sum()


def test_common_shock_closed_form_at_full_connectivity():
    rng = np.random.default_rng(37)
    for _ in range(10):
        net = oracles.closed_random_network(rng, int(rng.integers(3, 20)))
        s = rng.uniform(0, 1)
        traj = run(net, ShockSpec.uniform(s))
        H = global_vulnerability(traj, net)
        l_sys = net.external_assets.sum() / net.equity.sum()
        assert H == pytest.approx(s * l_sys, abs=1e-9)


def test_topology_invariance_on_fixture_family():
    nets = [f.network for f in fx.topology_family()]
    shock = fx.chain_fixture().shock
    H, finals = topology_invariance_check(nets, shock)
    assert max(H) - min(H) < 1e-9
    assert all(abs(value - 0.16) < 1e-9 for value in H)
    # per-bank vulnerabilities are allowed to differ across topologies
    assert finals.std(axis=0).max() > 0


def test_topology_invariance_rejects_mismatched_aggregates():
    # same size, different equities/losses
    nets = [fx.chain_fixture().network, fx.wheel_fixture(4).network]
    with pytest.raises(ValueError):
        topology_invariance_check(nets, fx.chain_fixture().shock)


def test_topology_invariance_rejects_networks_of_different_sizes():
    nets = [fx.chain_fixture().network, fx.wheel_fixture(5).network]
    with pytest.raises(ValueError):
        topology_invariance_check(nets, ShockSpec.uniform(0.1))


def test_first_round_default_set_boundary():
    f = fx.chain_fixture()
    d1, boundary = first_round_default_set(f.network, f.shock)
    assert d1 == frozenset({0})
    assert not boundary
    # an exact-boundary shock (loss equals equity) lands in the set, flagged
    exact = ShockSpec.on_bank(0, 5.0 / 80.0, 4)
    d1, boundary = first_round_default_set(f.network, exact)
    assert 0 in d1
    assert boundary


def test_ordering_audit_flags_counterexamples():
    dc_ce = fx.dc_vs_adr_fixture()
    rep = ordering_audit(dc_ce.network, dc_ce.shock, recovery_rate=0.0, rv_beta=1.0)
    assert rep.H_final["DC"] > rep.H_final["ADR"] + 1e-12
    en_ce = fx.en_vs_adr_fixture()
    rep = ordering_audit(en_ce.network, en_ce.shock, recovery_rate=0.0, rv_beta=1.0)
    assert rep.H_final["EN"] > rep.H_final["ADR"] + 1e-12
    assert not rep.empirical_chain_holds


def test_ordering_audit_proved_chain_on_random_networks():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net = fx.random_network(rng, int(rng.integers(3, 15)))
        rep = ordering_audit(net, ShockSpec.uniform(rng.uniform(0, 0.5)),
                             recovery_rate=rng.uniform(0, 1),
                             rv_beta=rng.uniform(0, 1))
        assert list(rep.H_final) == list(MODEL_NAMES)


@pytest.mark.parametrize("excess, raises", [(2e-9, True), (0.5e-9, False)])
def test_firewall_fires_just_past_its_slack(excess, raises):
    # Excesses of 2 and 0.5 x ORDERING_TOL (1e-9). The upper run is one round
    # shorter, so bank 1's excess at t = 2 is found against its padded last row.
    hi = Trajectory(h=np.array([[0.0, 0.0, 0.0], [0.2, 0.5, 0.3]]))
    lo = Trajectory(h=np.array([[0.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.2, 0.5 + excess, 0.3]]))
    if not raises:
        assert_proved_ordering(lo, hi, "EN<=RV")
        return
    with pytest.raises(ProvedOrderingViolated) as caught:
        assert_proved_ordering(lo, hi, "EN<=RV")
    assert (caught.value.pair, caught.value.bank, caught.value.t) == ("EN<=RV", 1, 2)


@pytest.mark.parametrize("gap, holds", [(2e-12, False), (0.5e-12, True)])
def test_empirical_chain_allows_only_a_rounding_gap(monkeypatch, gap, holds):
    # RV above aDR by twice, then half, the chain's 1e-12 slack; the rest in order.
    H = {EN: 0.1, DC: 0.2, RV: 0.3 + gap, ADR: 0.3, CDR: 0.4}
    monkeypatch.setattr(analysis, "run_with_firewall",
                        lambda network, shock, models, R, beta: {m: m for m in MODEL_NAMES})
    monkeypatch.setattr(analysis, "global_vulnerability", lambda name, network: H[name])
    report = ordering_audit(None, None, recovery_rate=0.6, rv_beta=0.6)
    assert report.H_final == H and report.empirical_chain_holds is holds


@pytest.mark.parametrize("recovery_rate", [0.0, 0.9])
def test_firewall_raises_when_cyclic_debtrank_hits_its_cap(recovery_rate):
    # Two banks lend each other 1 - 1e-7 of their equity: rho(l_b) is 1 - 1e-7,
    # so at R = 0 cDR distress from a 1e-9 shock shrinks its change per round
    # by only that factor and is still moving at the 10,000-round cap. At
    # R = 0.9 the run converges and only the cDR(R=0) reference hits the cap.
    eps = 1.0 - 1e-7
    L = np.array([[0.0, eps], [eps, 0.0]])
    net = network_from_vectors([1.0, 1.0], [0.0, 0.0], L)
    shock = ShockSpec.uniform(1e-9)
    cdr = run_model(net, shock, ModelConfig(model="CDR", exogenous_recovery_rate=recovery_rate))
    assert cdr.cap_hit == (recovery_rate == 0.0)
    with pytest.raises(NonConvergence):
        run_with_firewall(net, shock, MODEL_NAMES, recovery_rate, recovery_rate)
    with pytest.raises(NonConvergence):
        ordering_audit(net, shock, recovery_rate=recovery_rate, rv_beta=1.0)


def test_cyclic_debtrank_runs_past_10n_rounds_when_it_contracts():
    # Two banks lend each other `share` of their equity. Either way the run
    # needs more than 10 n = 20 rounds to saturate at h = 1, and the cap of
    # 10,000 rounds lets it: at 0.999 (rho < 1) after about 107 rounds, at
    # 1.001 (rho > 1, distress growing by 1.001 a round from 0.01) after 97.
    for share, rounds in ((0.999, (20, 200)), (1.001, (96, 98))):
        L = np.array([[0.0, share], [share, 0.0]])
        net = network_from_vectors([1.0, 1.0], [0.0, 0.0], L)
        cdr = run_model(net, ShockSpec.uniform(0.01), ModelConfig(model="CDR"))
        assert not cdr.cap_hit
        assert rounds[0] < cdr.converged_at < rounds[1]
        np.testing.assert_array_equal(cdr.h_final, [1.0, 1.0])
        run_with_firewall(net, ShockSpec.uniform(0.01), MODEL_NAMES, 0.0, 1.0)
