import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from contagion import (
    ShockSpec, leverage_decomposition, network_from_vectors,
)
from contagion import fixtures as fx
from contagion import models
from contagion.core import SHORTFALL_TOL
from contagion.errors import NonConvergence
from exact import cascade, cdr_limit, clearing_payments
from oracles import closed_random_network, en_vulnerability_form, run


# --- clearing model -------------------------------------------------------

def test_chain_clearing_values():
    f = fx.chain_fixture()
    traj = run(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


def test_star_clearing_values():
    f = fx.star_fixture()
    traj = run(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.02, 0.02, 0.02], atol=1e-9)


def test_cycle_clearing_values():
    f = fx.cycle_fixture()
    traj = run(f.network, f.shock)
    assert np.allclose(traj.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


def test_zero_shock_full_payments():
    f = fx.chain_fixture()
    traj = run(f.network, ShockSpec.uniform(0.0))
    p_bar = f.network.liabilities.sum(axis=1) + f.network.external_liabilities
    assert np.allclose(traj.payments[-1], p_bar)
    assert np.all(traj.h_final == 0.0)
    assert np.flatnonzero(traj.h[-1] >= 1.0).size == 0  # no bank defaults


def clearing_map(net, s):
    """(p_bar, p -> min{p_bar, Pi^T p + A^e (1 - s)}) for a uniform shock s."""
    p_bar = net.liabilities.sum(axis=1) + net.external_liabilities
    pi_T = np.zeros_like(net.liabilities)
    nz = p_bar > 0
    pi_T[nz] = net.liabilities[nz] / p_bar[nz, None]
    pi_T = pi_T.T
    ae = net.external_assets * (1 - s)
    return p_bar, lambda p: np.minimum(pi_T @ p + ae, p_bar)


def greatest_clearing_vector(net, s):
    """Picard iteration from p_bar, which decreases to the greatest clearing vector."""
    p_bar, clear = clearing_map(net, s)
    greatest = p_bar.copy()
    for _ in range(10_000):
        nxt = clear(greatest)
        if np.array_equal(nxt, greatest):
            break
        greatest = nxt
    return greatest


def test_clearing_fixed_point_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = fx.random_network(rng, int(rng.integers(3, 30)))
        s = rng.uniform(0, 0.5)
        traj = run(net, ShockSpec.uniform(s))
        p = traj.payments[-1]
        p_bar, clear = clearing_map(net, s)
        assert np.allclose(p, clear(p), rtol=1e-9, atol=1e-9 * max(1, p_bar.max()))
        # EN must have found the greatest clearing vector, not a smaller one.
        assert np.abs(p - greatest_clearing_vector(net, s)).max() <= 1e-12 * max(1, p_bar.max())


def test_closed_cycle_boundary_bank_pays_in_full():
    # A closed cycle 0 -> 1 -> 2 -> 0 with no outside liabilities; a full
    # shock wipes A^e = (5, 15, 15) out of E = (25, 5, 5). Banks 1 and 2
    # default and pass on bank 0's 10 to bank 0, whose resources then equal
    # its obligations exactly: it stays out of the clearing default set and
    # pays in full, though its equity is gone.
    L = np.zeros((3, 3))
    L[0, 1], L[1, 2], L[2, 0] = 10.0, 20.0, 30.0
    net = network_from_vectors([5.0, 15.0, 15.0], np.zeros(3), L)
    assert net.equity.tolist() == [25.0, 5.0, 5.0]
    shock = ShockSpec.uniform(1.0)
    traj = run(net, shock)
    assert traj.payments[-1].tolist() == [10.0, 10.0, 10.0]
    assert traj.converged_at == 2
    assert traj.h_final.tolist() == [1.0, 1.0, 1.0]
    assert np.array_equal(traj.payments[-1], greatest_clearing_vector(net, 1.0))
    alt = en_vulnerability_form(net, shock)
    assert alt.h.shape == traj.h.shape
    assert np.allclose(alt.h, traj.h, atol=1e-12)


def solve_bare_defaulters(L):
    """_solve_defaulter_payments at beta = 1 with every bank bare (no outside
    assets or liabilities) and in D."""
    L = np.array(L, dtype=float)
    p_bar = L.sum(axis=1)
    every = np.ones(len(L), dtype=bool)
    return models._solve_defaulter_payments((L / p_bar[:, None]).T, p_bar, every, 1.0,
                                            np.zeros(len(L)), np.zeros(len(L)))


CYCLE_FED_BY_AN_UNPAID_BANK = [[0.0, 10.0, 0.0], [4.0, 0.0, 0.0], [6.0, 0.0, 0.0]]


@pytest.mark.parametrize("L, expected", [
    # Two banks owing each other 10 with nothing outside: I - Pi^T_DD is
    # singular, and the greatest solution has both banks paying in full.
    ([[0.0, 10.0], [10.0, 0.0]], [10.0, 10.0]),
    # Bank 2 owes 6 into the cycle 0 <-> 1 but no bank pays it, so it pays 0;
    # the cycle pays t v = 4 (1, 1), capped by bank 1's debt of 4.
    (CYCLE_FED_BY_AN_UNPAID_BANK, [4.0, 4.0, 0.0]),
    ([row[::-1] for row in CYCLE_FED_BY_AN_UNPAID_BANK[::-1]], [0.0, 4.0, 4.0]),
], ids=["swap", "forward", "mirrored"])
def test_bare_defaulters_pay_their_greatest_vector(L, expected):
    assert solve_bare_defaulters(L).tolist() == expected


def test_two_closed_classes_in_default_raise():
    # Two disjoint 2-cycles: the bare defaulters are not one closed class.
    L = np.zeros((4, 4))
    L[0, 1] = L[1, 0] = 10.0
    L[2, 3] = L[3, 2] = 5.0
    with pytest.raises(NonConvergence, match="not one closed class"):
        solve_bare_defaulters(L)


@pytest.mark.parametrize("result", ["raise", "nan"])
def test_a_failed_defaulter_solve_raises(monkeypatch, result):
    # A solve that raises LinAlgError or returns NaN has no fallback.
    def failed(a, b):
        if result == "raise":
            raise np.linalg.LinAlgError("forced")
        return np.full_like(b, np.nan)

    f = fx.chain_fixture()
    monkeypatch.setattr(np.linalg, "solve", failed)
    for model, beta in (("EN", 1.0), ("RV", 0.5)):
        with pytest.raises(NonConvergence, match="failed their solve"):
            run(f.network, f.shock, model, beta=beta)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_a_solvent_bank_named_in_default_raises(beta):
    # Bank 0 owes its 10 to bank 1 and holds 100 outside. Assumed in default,
    # it would pay beta x 100 > p_bar = 10; that is an internal fault, not a
    # payment to clip to p_bar.
    pi_T = np.array([[0.0, 0.0], [1.0, 0.0]])  # bank 1 holds all of bank 0's debt
    p_bar = np.array([10.0, 0.0])
    with pytest.raises(NonConvergence, match=r"left \[0, p_bar\]"):
        models._solve_defaulter_payments(pi_T, p_bar, np.array([True, False]), beta,
                                         np.array([100.0, 5.0]), np.ones(2))


# _solve_defaulter_payments forms the defaulters' inflow from non-defaulters
# as rows @ p - A_dd @ p[idx], a difference that cancels when a defaulter's
# p_bar dwarfs that inflow. The solve then comes out low. Summing
# Pi^T_{D,ND} p_bar_ND directly fixes this, but changes pinned output bytes.
CANCELLATION = ("known fault: the defaulters' inflow rows @ p - A_dd @ p[idx] "
                "cancels, so a solve comes out low")


@pytest.mark.xfail(strict=True, raises=NonConvergence, reason=CANCELLATION)
def test_closed_class_spanning_many_decades_clears():
    # Three banks with no outside liabilities whose debts span 1e-8 to 7e7.
    # The D = {0, 2} solve comes out 1.2e-9 low, which pushes boundary bank 1
    # into D. The closed-class rule clears D = {0, 1, 2} to the exact greatest
    # vector, above the low D = {0, 2} payments, so payments rise between sweeps.
    L = np.zeros((3, 3))
    L[0, 1] = 3.2096667467347764e-08
    L[0, 2] = 66491625.683161795
    L[1, 2] = 1.5520755174409277e-05
    L[2, 0] = 4.7579293618316154e-08
    L[2, 1] = 0.013279939309581636
    net = network_from_vectors(
        [66496106.175275594, 10589703.90618862, 8.812503742760243e-07], np.zeros(3), L)
    traj = run(net, ShockSpec.uniform(1.0))
    np.testing.assert_allclose(traj.payments[-1], greatest_clearing_vector(net, 1.0),
                               rtol=1e-12, atol=0.0)


def test_boundary_bank_is_not_pushed_into_default():
    # A closed 3-bank class at full shock. The D = {0, 1} solve comes out low,
    # so bank 2, whose resources equal its obligations, defaults too; the
    # closed-class rule then clears the greatest vector (1290.347, 1290.160,
    # 8.723), not the least, (0, 0, 0).
    L = np.zeros((3, 3))
    L[0, 1] = 4955.8066359518189
    L[0, 2] = 0.71940999812052364
    L[1, 0] = 385695.31998130237
    L[1, 2] = 2568.8312750450132
    L[2, 0] = 8.7232348697343696
    net = network_from_vectors(
        [0.012448654460388802, 383308.34594801441, 1.3123588068176821], np.zeros(3), L)
    traj = run(net, ShockSpec.uniform(1.0))
    np.testing.assert_allclose(traj.payments[-1], greatest_clearing_vector(net, 1.0),
                               rtol=1e-12, atol=0.0)


def test_closed_class_spanning_eight_decades_clears_exactly():
    # A closed 3-bank class at full shock whose debts span 3.5 to 8e7; every
    # bank ends in the default set, whose system I - Pi^T_DD is singular.
    L = np.zeros((3, 3))
    L[0, 2] = 59914.65431814832
    L[1, 0] = 3.5352713396421995
    L[2, 0] = 30479769.065234996
    L[2, 1] = 79335595.6194303
    net = network_from_vectors(
        [12.591747426060273, 520191.8200193307, 109755467.5944895], np.zeros(3), L)
    shock = ShockSpec.uniform(1.0)
    traj = run(net, shock)
    p, tol = traj.payments[-1], 1e-12 * traj.payments[0].max()
    assert np.abs(p - [4.893479508042813, 3.5352713396421995, 4.893479508042813]).max() <= tol
    assert np.abs(p - np.array(clearing_payments(net, shock), dtype=float)).max() <= tol


# --- exact-rational oracle ------------------------------------------------

def closed_class(rng, scale):
    """A closed 2-6-bank class, (network, full shock): no outside liabilities,
    a cycle through every bank, debts and external assets 10^U(0, scale)."""
    n = int(rng.integers(2, 7))
    order = rng.permutation(n)
    support = rng.random((n, n)) < 0.3
    support[order, np.roll(order, -1)] = True
    np.fill_diagonal(support, False)
    L = np.where(support, 10.0 ** rng.uniform(0.0, scale, (n, n)), 0.0)
    ae = np.maximum(0.0, L.sum(axis=1) - L.sum(axis=0)) + 10.0 ** rng.uniform(0.0, scale, n)
    return network_from_vectors(ae, np.zeros(n), L), ShockSpec.uniform(1.0)


def assert_clears_exactly(net, shock):
    """EN and RV payments within 1e-12 of max p_bar of exact arithmetic.

    The exact default rule carries the models' rounding allowance: below
    beta = 1 payments jump at the default boundary, so a bank short by an
    ulp would otherwise clear at p_bar in floats and at 0 in fractions.
    """
    for beta in (1.0, 0.6, 0.3):
        traj = (run(net, shock) if beta == 1.0
                else run(net, shock, "RV", beta=beta))
        exact = np.array(clearing_payments(net, shock, beta, models.SHORTFALL_TOL), dtype=float)
        assert np.abs(traj.payments[-1] - exact).max() <= 1e-12 * traj.payments[0].max()


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_clearing_is_exact_on_closed_classes(seed, scale):
    assert_clears_exactly(*closed_class(np.random.default_rng(seed), scale))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_clearing_is_exact_on_random_networks(seed):
    rng = np.random.default_rng(seed)
    net = fx.random_network(rng, int(rng.integers(2, 7)))
    assert_clears_exactly(net, ShockSpec(per_bank_shock=rng.uniform(0.0, 1.0, net.n)))


def test_clearing_is_exact_on_closed_classes_across_many_decades():
    rng = np.random.default_rng(0)
    for _ in range(300):
        assert_clears_exactly(*closed_class(rng, rng.uniform(4.0, 8.0)))


@pytest.mark.parametrize("draw", [66, 224])
def test_closed_class_pushed_wholly_into_default_clears_exactly(draw):
    # Solve error pushes the class's one balanced bank into D, which then holds
    # the whole class with b = 0; the least vector, p = 0, solves that system too.
    rng = np.random.default_rng(12353)
    for _ in range(draw):
        closed_class(rng, 8)
    net, shock = closed_class(rng, 8)
    traj = run(net, shock)
    exact = np.array(clearing_payments(net, shock), dtype=float)
    assert np.abs(traj.payments[-1] - exact).max() <= 1e-12 * traj.payments[0].max()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cascades_are_exact_on_random_networks(seed):
    # DC and aDR rounds within 1e-12 of exact arithmetic, round for round. A
    # DC draw with an h within 1e-12 of the default threshold 1 is skipped and
    # counted (see --hypothesis-show-statistics): floats may round it either way.
    rng = np.random.default_rng(seed)
    net = fx.random_network(rng, int(rng.integers(2, 7)))
    shock = ShockSpec(per_bank_shock=rng.uniform(0.0, 1.0, net.n))
    R = rng.uniform(0.0, 1.0)
    for model in ("DC", "ADR"):
        rows = cascade(net, shock, R, model, margin=1e-12)
        if rows is None:
            event("DC draw skipped at the default threshold")
            continue
        traj = run(net, shock, model, R=R)
        assert traj.h.shape[0] == len(rows)
        assert np.abs(traj.h - np.array(rows, dtype=float)).max() <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cyclic_debtrank_stops_within_its_tolerance_of_the_exact_limit(seed):
    # cDR stops once no h grows by CDR_TOLERANCE. With kappa = ||(1 - R) l_b||_inf
    # below 1 each round adds at most kappa times the last round's growth, so the
    # rounds left would add less than CDR_TOLERANCE kappa / (1 - kappa): the float
    # last row lies below the exact limit by at most that, and above it by
    # rounding only. Draws with kappa >= 1 are skipped and counted.
    rng = np.random.default_rng(seed)
    net = fx.random_network(rng, int(rng.integers(2, 7)))
    shock = ShockSpec(per_bank_shock=rng.uniform(0.0, 0.1, net.n))
    R = rng.uniform(0.0, 1.0)
    kappa = (1.0 - R) * leverage_decomposition(net).interbank_leverage.sum(axis=1).max()
    if kappa >= 1.0:
        event("draw skipped: kappa >= 1")
        return
    limit = np.array(cdr_limit(net, shock, R), dtype=float)
    h = run(net, shock, "CDR", R=R).h_final
    assert (h <= limit + 1e-12).all()
    assert (h >= limit - models.CDR_TOLERANCE * kappa / (1.0 - kappa) - 1e-12).all()


@pytest.mark.parametrize("share, shock, cap_hit", [(1.0 - 1e-7, 1e-9, True), (1.001, 0.01, False)])
def test_exact_cyclic_debtrank_limit_of_two_banks_lending_each_other(share, shock, cap_hit):
    # The pairs of the cDR cap tests in tests/test_analysis.py, at R = 0. Each
    # bank lends the other `share` of its equity, so rho(l_b) = share. Just
    # below 1 the limit is h(1) / (1 - share), about 0.01 per bank, while the
    # float run stops at its 10,000-round cap near 1e-5. Above 1 the only fixed
    # point is the saturated one.
    net = network_from_vectors([1.0, 1.0], [0.0, 0.0], [[0.0, share], [share, 0.0]])
    spec = ShockSpec.uniform(shock)
    limit = cdr_limit(net, spec, 0.0)
    traj = run(net, spec, "CDR")
    assert traj.cap_hit is cap_hit
    if cap_hit:
        assert net.equity.tolist() == [1.0, 1.0]
        assert limit == [Fraction(shock) / (1 - Fraction(share))] * 2
        np.testing.assert_allclose(np.array(limit, dtype=float), 0.01, rtol=1e-8)
        np.testing.assert_allclose(traj.h_final, 1e-5, rtol=1e-3)
    else:
        assert limit == [1, 1]
        np.testing.assert_array_equal(traj.h_final, [1.0, 1.0])


def test_trajectory_check_rejects_nan():
    with pytest.raises(NonConvergence, match="left"):
        models._check_trajectory(np.array([[0.0, 0.0], [np.nan, 0.5]]))


@pytest.mark.parametrize("last_row, match", [
    ([0.5, 0.5 - 2e-9], "decreased"),   # twice the decrease bound
    ([0.5, 0.5 - 5e-10], None),         # half of it
    ([0.5, 1.0 + 2e-12], "left"),       # twice the range slack above 1
])
def test_trajectory_check_fires_just_past_its_bounds(last_row, match):
    h = np.array([[0.0, 0.0], [0.5, 0.5], last_row])
    if match is None:
        models._check_trajectory(h)
    else:
        with pytest.raises(NonConvergence, match=match):
            models._check_trajectory(h)


def test_a_trajectory_is_checked_when_built():
    with pytest.raises(NonConvergence, match="decreased over time"):
        models.Trajectory(h=np.array([[0.0, 0.0], [0.5, 0.5], [0.5, 0.4]]))


def test_run_model_checks_each_kernels_run_and_stores_none_that_fails(monkeypatch):
    # A kernel's run is checked as the kernel builds it, so run_model stores
    # none that fails.
    f = fx.chain_fixture()

    def decreasing(*args):
        return models.Trajectory(h=np.array([[0.0] * 4, [0.5] * 4, [0.4] * 4]))
    monkeypatch.setattr(models, "_run_clearing", decreasing)
    monkeypatch.setattr(models, "_run_cascade", decreasing)
    for model in models.MODEL_NAMES:
        with pytest.raises(NonConvergence, match="decreased over time"):
            run(f.network, f.shock, model)
    assert models.apply_first_round(f.network, f.shock).runs == {}


def test_clearing_rejects_a_solve_off_by_one_part_in_a_million(monkeypatch):
    # Bank 0 of the chain defaults alone, with b = 72: the residual 7.2e-5 is far
    # above 1e-9 x max(1, |b|), and the raised payment stays below p_bar = 75.
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    f = fx.chain_fixture()
    with pytest.raises(NonConvergence, match="failed their solve"):
        run(f.network, f.shock)


@pytest.mark.parametrize("bump, raises", [(1e-13, False), (1e-9, True)])
def test_clearing_clamps_only_rounding_level_decreases(monkeypatch, bump, raises):
    # Bank 0 defaults on its debt to bank 1. Bank 2 stands apart, so each sweep
    # recomputes its first-round h = 0.2; raising h(1) of bank 2 by `bump`
    # makes the next sweep a decrease of `bump`.
    net = network_from_vectors([100.0, 100.0, 100.0], [45.0, 100.0, 50.0],
                               [[0.0, 50.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    shock = ShockSpec.uniform(0.1)
    first_round = models.apply_first_round

    def bumped(network, shock):
        first = first_round(network, shock)
        return replace(first, h1=first.h1 + np.array([0.0, 0.0, bump]))

    monkeypatch.setattr(models, "apply_first_round", bumped)
    if raises:
        with pytest.raises(NonConvergence, match="decreased between sweeps"):
            run(net, shock)
    else:
        traj = run(net, shock)
        assert traj.converged_at >= 2 and traj.h_final[2] == 0.2 + bump


@pytest.mark.parametrize("beta", [1.0, 0.6])
def test_resources_exactly_at_the_default_threshold_do_not_default(beta):
    # Bank 1 owes bank 0 t = 2 - SHORTFALL_TOL x 2, bank 0's threshold. Bank 0
    # loses its 1.0 outside, so its resources are exactly t: a bank defaults
    # only when its resources fall below the threshold, so it pays its 2.0.
    t = 2.0 - SHORTFALL_TOL * 2.0
    net = network_from_vectors([1.0, 3.0], [2.0, 0.0], [[0.0, 0.0], [t, 0.0]])
    traj = run(net, ShockSpec.on_bank(0, 1.0, 2), "RV", beta=beta)
    assert traj.payments.tolist() == [[2.0, t], [2.0, t]]
    assert traj.converged_at == 1


def test_endogenous_recovery_recorded():
    f = fx.chain_fixture()
    traj = run(f.network, f.shock)
    recovery = traj.payments[-1] / traj.payments[0]
    # bank 1 pays 72 of 75
    assert recovery[0] == pytest.approx(72.0 / 75.0, abs=1e-12)
    assert np.allclose(recovery[1:], 1.0)


# --- discounted clearing --------------------------------------------------

def test_rv_beta_one_bit_matches_en():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = fx.random_network(rng, int(rng.integers(3, 20)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.4))
        en = run(net, shock)
        rv = run(net, shock, "RV", beta=1.0)
        assert np.array_equal(en.h, rv.h)
        assert np.array_equal(en.payments, rv.payments)


def test_rv_beta_zero_full_writeoff():
    f = fx.chain_fixture()
    rv = run(f.network, f.shock, "RV", beta=0.0)
    # defaulted bank 1 pays nothing, so bank 2 loses its whole claim (15 of equity 10)
    assert rv.payments[-1][0] == 0.0
    assert rv.h_final[1] == 1.0


def test_rv_beta_zero_needs_no_solve(monkeypatch):
    # At beta = 0 defaulters pay exactly +0.0 and every other bank pays p_bar,
    # in every round, with no linear solve.
    def no_solve(a, b):
        raise AssertionError("solve called at beta = 0")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    rng = np.random.default_rng(21)
    f = fx.chain_fixture()
    cases = [(f.network, f.shock)] + [
        (fx.random_network(rng, int(rng.integers(3, 25))),
         ShockSpec.uniform(rng.uniform(0.1, 0.6))) for _ in range(20)]
    defaults = 0
    for net, shock in cases:
        rv = run(net, shock, "RV", beta=0.0)
        p_bar = rv.payments[0]
        defaulted = rv.payments != p_bar
        assert np.all(rv.payments[defaulted] == 0.0)
        assert not np.signbit(rv.payments).any()
        final = defaulted[-1] & (p_bar > 0)
        assert np.all(rv.payments[-1, final] / p_bar[final] == 0.0)
        assert np.all(rv.h_final[final] == 1.0)
        defaults += np.count_nonzero(final)
    assert defaults > 0


def test_rv_payments_below_en_every_iteration():
    rng = np.random.default_rng(9)
    for _ in range(20):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.5))
        beta = rng.uniform(0, 1)
        en = run(net, shock)
        rv = run(net, shock, "RV", beta=beta)
        T = max(en.payments.shape[0], rv.payments.shape[0])
        pe = np.vstack([en.payments,
                        np.repeat(en.payments[-1][None], T - en.payments.shape[0], 0)])
        pr = np.vstack([rv.payments,
                        np.repeat(rv.payments[-1][None], T - rv.payments.shape[0], 0)])
        assert np.all(pr <= pe + 1e-9)


# --- threshold cascade ----------------------------------------------------

def test_dc_counterexample_values():
    f = fx.dc_vs_adr_fixture()
    traj = run(f.network, f.shock, "DC", R=0.0)
    assert np.allclose(traj.h[1], [1.0, 2.0 / 3.0, 2.0 / 5.0], atol=1e-12)
    assert np.allclose(traj.h_final, [1.0, 1.0, 1.0], atol=1e-12)


def test_dc_full_recovery_stops_propagation():
    f = fx.dc_vs_adr_fixture()
    traj = run(f.network, f.shock, "DC", R=1.0)
    assert np.allclose(traj.h_final, traj.h[1])


def test_dc_no_defaults_no_propagation():
    f = fx.chain_fixture()
    traj = run(f.network, ShockSpec.uniform(0.01), "DC", R=0.0)
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
        for model, rule in (("DC", lambda h: h >= 1.0), ("ADR", lambda h: h > 0.0)):
            R = rng.uniform(0, 1)
            traj = run(net, shock, model, R=R)
            meets = rule(traj.h[1:])
            first = np.argmax(meets, axis=0) + 1
            v = np.where(meets.any(axis=0), traj.h[first, np.arange(net.n)], 0.0)
            expected = np.minimum(1.0, traj.h[1] + (1.0 - R) * (lb @ v))
            assert np.abs(traj.h_final - expected).max() <= 1e-12


# --- one-shot cascade -----------------------------------------------------

def test_adr_counterexample_values():
    f = fx.dc_vs_adr_fixture()
    traj = run(f.network, f.shock, "ADR", R=0.0)
    assert np.allclose(traj.h_final, [1.0, 1.0, 4.0 / 5.0], atol=1e-12)


def test_adr_chain_values():
    f = fx.chain_fixture()
    traj = run(f.network, f.shock, "ADR", R=0.5)
    assert np.allclose(traj.h_final, [1.0, 0.75, 0.5625, 0.421875], atol=1e-12)


def test_adr_zero_shock():
    f = fx.chain_fixture()
    traj = run(f.network, ShockSpec.uniform(0.0), "ADR")
    assert np.all(traj.h_final == 0.0)


# --- full-propagation cascade ---------------------------------------------

def test_cdr_zero_shock():
    f = fx.chain_fixture()
    traj = run(f.network, ShockSpec.uniform(0.0), "CDR")
    assert np.all(traj.h_final == 0.0)
    assert not traj.cap_hit


def test_cdr_equals_adr_on_dag():
    f = fx.chain_fixture()
    adr = run(f.network, f.shock, "ADR", R=0.5)
    cdr = run(f.network, f.shock, "CDR", R=0.5)
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
        adr = run(dag, shock, "ADR", R=R)
        cdr = run(dag, shock, "CDR", R=R)
        assert np.allclose(cdr.h_final, adr.h_final, atol=1e-8)


def test_one_shot_equivalence_at_full_recovery():
    rng = np.random.default_rng(19)
    net = fx.random_network(rng, 12)
    shock = ShockSpec.uniform(0.2)
    for model in ("DC", "ADR", "CDR"):
        traj = run(net, shock, model, R=1.0)
        assert np.allclose(traj.h_final, traj.h[1])


# --- leverage-form clearing oracle ----------------------------------------

def test_vulnerability_form_matches_on_fixtures():
    for f in fx.topology_family() + [fx.en_vs_adr_fixture(), fx.wheel_fixture(4)]:
        base = run(f.network, f.shock)
        alt = en_vulnerability_form(f.network, f.shock)
        assert base.h.shape == alt.h.shape
        assert np.allclose(base.h, alt.h, atol=1e-9)


def test_cycle_vulnerability_form_values():
    f = fx.cycle_fixture()
    alt = en_vulnerability_form(f.network, f.shock)
    assert np.allclose(alt.h_final, [1.0, 0.06, 0.0, 0.0], atol=1e-9)


# --- settings -------------------------------------------------------------

@pytest.mark.parametrize("settings, message", [
    ({"model": "XX"}, "unknown model 'XX'"),
    ({"exogenous_recovery_rate": -0.1}, "recovery rate must lie in"),
    ({"exogenous_recovery_rate": 1.5}, "recovery rate must lie in"),
    ({"rv_beta": 1.01}, "rv_beta must lie in"),
    ({"rv_beta": float("nan")}, "rv_beta must lie in"),
])
def test_model_config_rejects_an_unknown_model_or_a_rate_outside_the_unit_interval(
        settings, message):
    with pytest.raises(ValueError, match=message):
        models.ModelConfig(**settings)


# --- shared trajectory invariants -----------------------------------------

def test_monotone_bounded_trajectories():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        shock = ShockSpec.uniform(rng.uniform(0, 0.8))
        R = rng.uniform(0, 1)
        beta = rng.uniform(0, 1)
        runs = [
            run(net, shock),
            run(net, shock, "RV", beta=beta),
            run(net, shock, "DC", R=R),
            run(net, shock, "ADR", R=R),
            run(net, shock, "CDR", R=R),
        ]
        for traj in runs:
            assert np.all(traj.h >= 0) and np.all(traj.h <= 1)
            assert np.all(np.diff(traj.h, axis=0) >= -1e-12)
            defaulted = traj.h >= 1.0  # no bank leaves the default set
            assert np.all(defaulted[:-1] <= defaulted[1:])
            if traj.payments is not None:
                assert np.all(np.diff(traj.payments, axis=0) <= 1e-9)


def test_termination_bounds():
    rng = np.random.default_rng(29)
    for _ in range(15):
        n = int(rng.integers(3, 30))
        net = fx.random_network(rng, n)
        shock = ShockSpec.uniform(rng.uniform(0, 0.8))
        en = run(net, shock)
        assert en.payments.shape[0] - 2 <= n + 1  # clearing sweeps
        dc = run(net, shock, "DC", R=0.0)
        assert dc.h.shape[0] - 2 <= n
        cdr = run(net, shock, "CDR", R=0.0)
        assert not cdr.cap_hit


# sha256 of every runner's output on the inputs below; a change that moves any
# bit of any run changes it, on far more networks than the bench seeds reach.
TRAJECTORY_DIGEST = "ebc52debcdbf4ebcd632370ff8ccc659a94bd6d359c47320db8c0de4b31ebaa7"


def test_every_runner_repeats_its_recorded_bytes():
    # 200 random networks, a quarter with no outside liabilities (so the full
    # shock leaves bare defaulters for the closed-class rule at beta = 1), each
    # run by every model at beta = R in {1, 0.6, 0.3, 0}; EN needs no beta.
    digest = hashlib.sha256()
    rng = np.random.default_rng(2028)
    for draw in range(200):
        n = int(rng.integers(2, 30))
        net = closed_random_network(rng, n) if draw % 4 == 0 else fx.random_network(rng, n)
        for s in (0.05, 0.3, 1.0):
            shock = ShockSpec.uniform(s)
            for v in (1.0, 0.6, 0.3, 0.0):
                for model in models.MODEL_NAMES:
                    if model == models.EN and v != 1.0:
                        continue
                    traj = run(net, shock, model, R=v, beta=v)
                    digest.update(np.array(traj.h.shape).tobytes())
                    digest.update(traj.h.tobytes())
                    if traj.payments is not None:
                        digest.update(traj.payments.tobytes())
    assert digest.hexdigest() == TRAJECTORY_DIGEST
