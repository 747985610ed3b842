import ast
from collections import defaultdict
from dataclasses import fields, is_dataclass, replace
from inspect import isfunction, ismodule, signature
from pathlib import Path

import numpy as np
import pytest

import contagion
from contagion import (
    LiabilityNetwork, ShockSpec, apply_first_round, build_network, leverage_decomposition,
    network_from_vectors, relative_liabilities,
)
from contagion.errors import (
    ContagionError, DimensionMismatch, IdentityViolation, NegativeBalance, NegativeEntry,
    NonPositiveEquity,
)
from contagion import MODEL_NAMES, models, run_with_firewall
from contagion import fixtures as fx
from contagion.ingest import synthesize_panel
from oracles import run


INPUTS = ("liabilities", "equity", "external_assets_by_class", "external_liabilities")
# The three ways into a network, each taking the four inputs in INPUTS order.
WAYS_IN = (build_network, LiabilityNetwork,
           lambda *inputs: replace(fx.chain_fixture().network, **dict(zip(INPUTS, inputs))))


def build(L, equity, by_class, external_liabilities):
    """build_network(L, equity, by_class, external_liabilities). When it
    raises, the two other ways in, given the same arguments, must raise the
    same error type with the same message."""
    args = (L, equity, by_class, external_liabilities)
    try:
        return build_network(*args)
    except ContagionError as err:
        for make in WAYS_IN[1:]:
            with pytest.raises(ContagionError) as info:
                make(*args)
            assert (type(info.value), str(info.value)) == (type(err), str(err))
        raise


def single_class(L, external_assets, external_liabilities, equity):
    """build with one external asset class; each argument after L is an
    n-vector."""
    return build(L, equity, [[a] for a in external_assets], external_liabilities)


def test_build_network_accepts_three_bank_cycle():
    net = fx.dc_vs_adr_fixture().network
    assert net.n == 3
    assert np.allclose(net.equity, [5, 15, 25])
    assert np.allclose(net.interbank_assets, [20, 20, 15])
    assert np.allclose(net.interbank_liabilities, [20, 15, 20])


def test_zero_equity_rejected():
    with pytest.raises(NonPositiveEquity):
        single_class(np.zeros((2, 2)), [10, 10], [10, 5], [0.0, 5.0])
    with pytest.raises(NonPositiveEquity) as info:  # NaN equity is not positive
        network_from_vectors([10.0, np.nan], [0, 0], np.zeros((2, 2)),
                             equity=[10.0, np.nan])
    assert info.value.bank == 1


def test_self_loop_rejected():
    L = np.zeros((2, 2))
    L[0, 0] = 1.0
    with pytest.raises(NegativeEntry):
        single_class(L, [10, 10], [4, 6], [5.0, 5.0])


def test_negative_entry_rejected():
    L = np.zeros((2, 2))
    L[0, 1] = -1.0
    for value in (-1.0, np.nan, np.inf):
        L[0, 1] = value
        with pytest.raises(NegativeEntry):
            single_class(L, [10] * 2, [5] * 2, [5.0] * 2)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("faults, named", [
    # A negative entry is named before a non-zero diagonal, even an earlier one.
    ({(0, 0): 1.0, (2, 1): -1.0}, (2, 1)),
    ({(1, 1): np.nan, (2, 0): 2.0, (2, 2): 3.0}, (1, 1)),
    # Of several invalid entries, the first in row-major order is named.
    ({(2, 0): np.nan, (1, 2): np.inf, (0, 0): 1.0}, (1, 2)),
    ({(2, 0): -np.inf, (1, 2): -2.0, (0, 1): np.nan}, (0, 1)),
    ({(1, 0): -1.0, (0, 1): np.nan}, (0, 1)),
    ({(2, 2): 1.0, (1, 1): 4.0, (0, 1): 1.0}, (1, 1)),
])
def test_build_network_names_the_first_fault(faults, named, order):
    L = np.zeros((3, 3), order=order)
    for entry, value in faults.items():
        L[entry] = value
    with pytest.raises(NegativeEntry) as info:
        single_class(L, [10.0] * 3, [5.0] * 3, [5.0] * 3)
    assert (info.value.i, info.value.j) == named


def test_build_network_keeps_the_matrix_layout():
    L = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.5], [0.25, 3.0, 0.0]])
    for matrix, c_order in ((L, True), (np.asfortranarray(L), False)):
        net = single_class(matrix, [10.0] * 3, 5.0 + L.sum(axis=0) - L.sum(axis=1), [5.0] * 3)
        assert net.liabilities.flags.c_contiguous is c_order
        assert net.liabilities.flags.f_contiguous is not c_order
        assert np.array_equal(net.liabilities, L)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        single_class(np.zeros((2, 2)), [10] * 3, [5] * 3, [5.0] * 3)
    with pytest.raises(DimensionMismatch):  # vectors disagree with each other
        single_class(np.zeros((2, 2)), [10] * 3, [5] * 2, [5.0] * 2)


def test_identity_violation():
    with pytest.raises(IdentityViolation):  # bank 0 has residual 4
        single_class(np.zeros((2, 2)), [10, 10], [1, 5], [5.0, 5.0])
    # An infinite total would make the identity tolerance infinite: finite
    # asset classes whose sum overflows (bank 0) ...
    with pytest.raises(IdentityViolation) as info:
        build(np.zeros((2, 2)), [10.0, 10.0], [[1e308, 1e308], [10.0, 0.0]], [0.0, 0.0])
    assert info.value.bank == 0
    # ... or finite claims whose sum overflows: bank 1's interbank assets.
    L = np.zeros((3, 3))
    L[0, 1] = L[2, 1] = 1e308
    with pytest.raises(IdentityViolation) as info:
        single_class(L, [1.5e308, 10, 1.5e308], [0, 0, 0], [5e307, 10, 5e307])
    assert info.value.bank == 1


@pytest.mark.parametrize("by_class, external_liabilities, bank, field", [
    # Bank 0's sheet closes with a class entry of -10: a per-class shock [1, 0]
    # would raise its external assets and drive its vulnerability below 0.
    ([[-10.0, 40.0], [20.0, 0.0]], [10.0, 5.0], 0, "external_assets_by_class"),
    # Bank 0's sheet closes with L^e = -2: its Pi row would sum to 5/3.
    ([[10.0, 20.0], [20.0, 0.0]], [-2.0, 5.0], 0, "external_liabilities"),
    ([[np.inf, 0.0], [20.0, 0.0]], [10.0, 5.0], 0, "external_assets_by_class"),
    ([[10.0, 20.0], [20.0, 0.0]], [10.0, np.nan], 1, "external_liabilities"),
    # Both banks are faulty; the lower index is named.
    ([[10.0, 20.0], [-1.0, 21.0]], [-1.0, 5.0], 0, "external_liabilities"),
])
def test_negative_or_non_finite_balance_rejected(by_class, external_liabilities, bank, field):
    L = np.zeros((2, 2))
    L[0, 1] = 5.0
    by_class = np.array(by_class)
    le = np.array(external_liabilities)
    # Equity closes each sheet, with a NaN L^e read as 0 (an infinite asset
    # gives the largest float).
    equity = np.nan_to_num(by_class.sum(axis=1) + L.sum(axis=0) - np.nan_to_num(le) - L.sum(axis=1))
    with pytest.raises(NegativeBalance) as info:
        build(L, equity, by_class, le)
    assert (info.value.bank, info.value.field) == (bank, field)
    assert f"bank {bank}: {field} has a negative or non-finite entry" == str(info.value)


def test_network_totals_are_the_matrix_margins():
    nets = [fx.random_network(np.random.default_rng(3), 12), *(f.network for f in fx.golden())]
    for net in nets:
        assert np.array_equal(net.interbank_assets, net.liabilities.sum(axis=0))
        assert np.array_equal(net.interbank_liabilities, net.liabilities.sum(axis=1))
        assert np.array_equal(net.external_assets, net.external_assets_by_class.sum(axis=1))
        for arr in (net.external_assets, net.interbank_assets, net.interbank_liabilities):
            with pytest.raises(ValueError):
                arr[0] = 1.0
    # A copy with another matrix derives its own totals. Its whole balance
    # sheet is doubled, so that every sheet still closes.
    net = nets[0]
    other = replace(net, liabilities=2.0 * net.liabilities, equity=2.0 * net.equity,
                    external_assets_by_class=2.0 * net.external_assets_by_class,
                    external_liabilities=2.0 * net.external_liabilities)
    assert np.array_equal(other.interbank_assets, 2.0 * net.liabilities.sum(axis=0))
    assert np.array_equal(other.interbank_liabilities, 2.0 * net.liabilities.sum(axis=1))
    assert other.external_assets is not net.external_assets
    assert not other.interbank_assets.flags.writeable


def test_a_copy_whose_sheets_do_not_close_is_rejected():
    # Tripled equity breaks every bank's identity; the lowest index is named.
    net = fx.chain_fixture().network
    with pytest.raises(IdentityViolation) as info:
        replace(net, equity=3 * net.equity)
    assert info.value.bank == 0


def test_a_copy_with_a_negative_entry_is_rejected():
    # The entries are checked before the sheets, which fail too; the first
    # negative entry in row-major order is named.
    net = fx.chain_fixture().network
    with pytest.raises(NegativeEntry) as info:
        replace(net, liabilities=-net.liabilities)
    assert (info.value.i, info.value.j) == (0, 1)


def test_every_way_in_builds_the_same_float64_network_from_any_numeric_input():
    # The chain fixture's numbers are integers, so it is also given as int64
    # arrays. A network that kept int64 arrays would derive an all-zero Pi
    # (np.zeros_like of an int L truncates L / p_bar), and EN and RV on it
    # would fail with numpy's casting error.
    chain = fx.chain_fixture()
    rng = np.random.default_rng(35)
    draws = [(chain.network, chain.shock, chain.recovery_rate)] + [
        (fx.random_network(rng, int(rng.integers(2, 9))), ShockSpec.uniform(rng.uniform()),
         rng.uniform()) for _ in range(200)]
    for net, shock, R in draws:
        floats = [getattr(net, name) for name in INPUTS]
        kinds = [floats, [a.tolist() for a in floats]]
        if net is chain.network:
            kinds.append([a.astype(np.int64) for a in floats])
        reference = build_network(*floats)
        expected = [run(reference, shock, m, R, 0.6) for m in MODEL_NAMES]
        for inputs in kinds:
            for make in WAYS_IN:
                built = make(*inputs)
                for a, b in ((getattr(built, f.name), getattr(reference, f.name))
                             for f in fields(LiabilityNetwork)):
                    assert a.dtype == np.float64 and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                for m, traj in zip(MODEL_NAMES, expected):
                    got = run(built, shock, m, R, 0.6)
                    assert got.h.tobytes() == traj.h.tobytes()
                    if traj.payments is not None:
                        assert got.payments.tobytes() == traj.payments.tobytes()


def test_every_way_in_leaves_the_callers_arrays_writeable():
    net = fx.chain_fixture().network
    for make in WAYS_IN:
        inputs = [np.array(getattr(net, name)) for name in INPUTS]
        built = make(*inputs)
        assert all(a.flags.writeable for a in inputs)
        inputs[1][0] = 1.0  # the network holds copies, not the caller's arrays
        assert built.equity[0] == net.equity[0]


@pytest.mark.parametrize("field, value", [
    ("liabilities", [[0.0, 1.0], [1.0]]),  # ragged
    ("equity", ["five", "ten"]),
])
def test_every_way_in_rejects_a_ragged_or_non_numeric_input_alike(field, value):
    inputs = dict(zip(INPUTS, (np.zeros((2, 2)), [5.0, 5.0], [[5.0], [5.0]], [0.0, 0.0])))
    inputs[field] = value
    messages = set()
    for make in WAYS_IN:
        with pytest.raises(ValueError) as info:
            make(*inputs.values())
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("equity, external_liabilities, L01, error", [
    ([5.0, 0.0], [1, 5], 0.0, IdentityViolation),   # bank 0 identity, bank 1 equity
    ([0.0, 5.0], [10, 1], 0.0, NonPositiveEquity),  # bank 0 equity, bank 1 identity
    ([5.0, 5.0], [5, 5], 1.0, IdentityViolation),   # identity of both, via the margins
    ([1e-320, 5.0], [10, 5], 0.0, NonPositiveEquity),  # bank 0 leverage 10 / 1e-320 overflows
    ([5.0, 5.0], [-1, 15], 0.0, NegativeBalance),  # bank 0 negative L^e, both identities
    ([5.0, 5.0], [1, -5], 0.0, IdentityViolation),  # bank 0 identity, bank 1 negative L^e
])
def test_error_names_lowest_faulty_bank(equity, external_liabilities, L01, error):
    L = np.zeros((2, 2))
    L[0, 1] = L01
    with pytest.raises(error) as info:
        single_class(L, [10, 10], external_liabilities, equity)
    assert info.value.bank == 0


def test_network_arrays_are_read_only():
    L = np.zeros((2, 2))
    L[0, 1] = 5.0
    equity = np.array([5.0, 15.0])
    net = single_class(L, [10, 10], [0, 0], equity)
    arrays = (net.liabilities, net.equity, net.external_assets_by_class,
              net.external_assets, net.external_liabilities, net.interbank_assets,
              net.interbank_liabilities)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    equity[0] = 1.0  # the network holds a copy, not the caller's array
    assert net.equity[0] == 5.0


def test_records_compare_by_identity_and_can_key_a_dict():
    net = fx.dc_vs_adr_fixture().network
    shocks = [ShockSpec(per_bank_shock=np.array([0.1, 0.2, 0.3])) for _ in range(2)]
    runs = [run(network, shocks[0]) for network in (net, replace(net))]
    for a, b in ((net, replace(net)), shocks, runs):  # equal values, two objects
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a"


def test_derived_matrices_computed_once_and_read_only():
    net = fx.dc_vs_adr_fixture().network
    lev, rel = leverage_decomposition(net), relative_liabilities(net)
    assert leverage_decomposition(net) is lev
    assert relative_liabilities(net) is rel
    weights = net.equity_weights
    assert net.equity_weights is weights
    arrays = (lev.external_leverage, lev.interbank_leverage,
              lev.external_leverage_total, rel.total_obligations, rel.pi_matrix,
              weights)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_fragile_bank_leverage():
    # A^e=80, A^b=0, E=5 -> external leverage 16, interbank row 0
    net = fx.chain_fixture().network
    lev = leverage_decomposition(net)
    assert lev.external_leverage_total[0] == pytest.approx(16.0, abs=1e-12)
    assert np.all(lev.interbank_leverage[0] == 0.0)


def test_star_leaf_interbank_leverage():
    net = fx.star_fixture().network
    lev = leverage_decomposition(net)
    for i in (1, 2, 3):
        assert lev.interbank_leverage[i, 0] == pytest.approx(0.5, abs=1e-12)


def test_zero_external_assets_row():
    L = np.zeros((2, 2))
    L[0, 1] = 5.0
    net = network_from_vectors([10.0, 0.0], [0.0, 0.0], L, equity=[5.0, 5.0])
    lev = leverage_decomposition(net)
    assert lev.external_leverage_total[1] == 0.0


def test_leverage_additivity():
    # External plus interbank leverage is total assets over equity.
    rng = np.random.default_rng(7)
    for _ in range(25):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        lev = leverage_decomposition(net)
        total = lev.external_leverage_total + lev.interbank_leverage.sum(axis=1)
        assets = net.external_assets + net.interbank_assets
        assert np.allclose(total, assets / net.equity, rtol=1e-9, atol=0)
        assert np.array_equal(lev.external_leverage_total,
                              lev.external_leverage.sum(axis=1))


def test_pi_rows_equal_beta():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = fx.random_network(rng, int(rng.integers(3, 25)))
        rel = relative_liabilities(net)
        beta = rel.pi_matrix.sum(axis=1)
        # the connectivity beta_i is the share L^b_i / p_bar_i owed inside the network
        p_bar = rel.total_obligations
        share = np.divide(net.interbank_liabilities, p_bar, out=np.zeros(net.n),
                          where=p_bar > 0)
        np.testing.assert_allclose(beta, share, rtol=1e-12, atol=0)
        assert np.all(beta >= 0)
        assert np.all(beta <= 1 + 1e-12)


def test_shock_spec_validation():
    with pytest.raises(ValueError):
        ShockSpec()  # neither given
    with pytest.raises(ValueError):
        ShockSpec(per_bank_shock=np.array([0.5]), per_class_shock=np.array([0.5]))
    with pytest.raises(ValueError):
        ShockSpec(per_bank_shock=np.array([1.5]))
    with pytest.raises(ValueError):
        ShockSpec(per_bank_shock=np.array([np.nan]))
    with pytest.raises(ValueError):
        ShockSpec(per_class_shock=np.array([0.1, np.nan, 0.0]))


@pytest.mark.parametrize("i", [-1, 4])
def test_single_bank_shock_rejects_an_index_outside_the_network(i):
    # -1 would wrap to bank 3; 4 would raise numpy's IndexError.
    with pytest.raises(ValueError, match=rf"bank index {i} outside \[0, 4\)"):
        ShockSpec.on_bank(i, 0.3, 4)
    assert ShockSpec.on_bank(3, 0.3, 4).per_bank_shock.tolist() == [0.0, 0.0, 0.0, 0.3]


def test_class_shock_names_an_unknown_class_and_the_known_ones():
    with pytest.raises(ValueError, match=r"asset class 'loans' not in \('derivatives', "
                                         r"'impaired_loans', 'other'\)"):
        ShockSpec.on_class("loans", 0.1)
    assert ShockSpec.on_class("other", 0.1).per_class_shock.tolist() == [0.0, 0.0, 0.1]


@pytest.mark.parametrize("shock, message", [
    (ShockSpec(per_bank_shock=[0.1, 0.2]), "per-bank shock has size 2, expected 4"),
    (ShockSpec(per_class_shock=[0.1, 0.2]), "per-class shock has size 2, expected 1"),
], ids=["per_bank", "per_class"])
def test_a_shock_of_the_wrong_size_is_rejected(shock, message):
    # A one-value per-bank shock applies to every bank; any other size must
    # match the network's banks, and a per-class one its asset classes (1 here).
    with pytest.raises(DimensionMismatch, match=message):
        shock.effective_per_bank(fx.chain_fixture().network)


@pytest.mark.parametrize("build", [lambda: synthesize_panel(1, 4), lambda: fx.wheel_fixture(1)],
                         ids=["synthesize_panel", "wheel_fixture"])
def test_network_builders_need_two_banks(build):
    with pytest.raises(ValueError, match="at least 2 banks"):
        build()


def test_shock_spec_keeps_a_read_only_copy():
    # A change to the caller's vector after validation must not reach the
    # shock: 7.0 would drive the shocked external assets negative.
    net = fx.chain_fixture().network
    for field, v in (("per_bank_shock", np.array([0.1, 0, 0, 0])),
                     ("per_class_shock", [0.1])):
        shock = ShockSpec(**{field: v})
        v[0] = 7.0
        stored = getattr(shock, field)
        assert stored.dtype == float and stored[0] == 0.1
        with pytest.raises(ValueError):
            stored[0] = 7.0
        assert np.all(apply_first_round(net, shock).shocked_external_assets >= 0.0)


def test_first_round_zero_shock_is_identity():
    net = fx.star_fixture().network
    first = apply_first_round(net, ShockSpec.uniform(0.0))
    assert np.all(first.h1 == 0.0)
    assert np.allclose(first.shocked_external_assets, net.external_assets)


def test_first_round_full_shock_with_high_leverage_defaults():
    net = fx.chain_fixture().network
    first = apply_first_round(net, ShockSpec.uniform(1.0))
    assert np.all(first.h1 == 1.0)  # every l^e >= 1 here


def test_first_round_counterexample_values():
    ce = fx.en_vs_adr_fixture()
    first = apply_first_round(ce.network, ce.shock)
    assert np.allclose(first.h1, [1.0, 1.0 / 7.0, 4.0 / 7.0], atol=1e-12)


def test_first_round_wheel_center_defaults():
    wheel = fx.wheel_fixture(4)
    first = apply_first_round(wheel.network, wheel.shock)
    assert first.h1[0] == 1.0
    assert np.all(first.h1[1:] == 0.0)


def test_first_round_is_computed_once_per_network_and_shock(monkeypatch):
    # Every runner asks for the first round; the network computes it once per
    # shock object and serves the same read-only round to each later call.
    computed, served = [], []
    effective, first_round = ShockSpec.effective_per_bank, models.apply_first_round

    def computing(shock, network):
        computed.append((shock, network))
        return effective(shock, network)

    def serving(network, shock):
        served.append(first_round(network, shock))
        return served[-1]
    monkeypatch.setattr(ShockSpec, "effective_per_bank", computing)
    monkeypatch.setattr(models, "apply_first_round", serving)
    net = fx.random_network(np.random.default_rng(8), 12)
    shock = ShockSpec.uniform(0.3)
    run_with_firewall(net, shock, MODEL_NAMES, 0.6, 0.6)  # five runners and cDR(R = 0)
    assert len(served) == 6 and all(first is served[0] for first in served)
    assert computed == [(shock, net)]
    equal, twin = ShockSpec.uniform(0.3), replace(net)  # equal values, other objects
    for network, s in ((net, equal), (twin, shock)):
        first = apply_first_round(network, s)
        assert first is not served[0] and np.array_equal(first.h1, served[0].h1)
        assert computed[-1] == (s, network)
    assert len(computed) == 3
    for arr in (served[0].h1, served[0].shocked_external_assets):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_per_class_shock_aggregation():
    L = np.zeros((2, 2))
    L[0, 1] = 5.0
    net = build_network(L, equity=[10.0, 10.0],
                        external_assets_by_class=[[30.0, 10.0, 60.0], [20.0, 0.0, 30.0]],
                        external_liabilities=[85.0, 45.0])
    shock = ShockSpec.on_class("derivatives", 0.5)
    first = apply_first_round(net, shock)
    # bank 0: loss 15 on equity 10 -> clipped at 1; bank 1: loss 10 on equity 10
    assert first.h1[0] == 1.0
    assert first.h1[1] == pytest.approx(1.0, abs=1e-12)
    assert first.shocked_external_assets[0] == pytest.approx(85.0, abs=1e-12)


def test_per_class_shock_values():
    net = build_network(np.zeros((1, 1)), equity=[10.0],
                        external_assets_by_class=[[4.0, 2.0, 14.0]],
                        external_liabilities=[10.0])
    first = apply_first_round(net, ShockSpec.on_class("impaired_loans", 0.5))
    assert first.h1[0] == pytest.approx(0.1, abs=1e-12)
    # shocked external total drops by the class loss
    assert first.shocked_external_assets[0] == pytest.approx(19.0, abs=1e-12)


PUBLIC_API = [
    "ADR", "Aggregates", "CDR", "DC", "EN", "EnsembleResult", "FirstRound",
    "LeverageDecomposition", "LiabilityNetwork", "MODEL_NAMES", "ModelConfig",
    "OrderingReport", "Panel", "PanelRecord", "RV", "ReconstructionConfig",
    "RelativeLiabilities", "ShockSpec", "SweepSpec", "Trajectory", "analysis",
    "apply_first_round", "build_network", "calibrate_z", "core", "errors",
    "fitness_scores", "fixtures", "generate_ensemble", "global_vulnerability",
    "ingest", "interpolate_missing", "ipf_weights", "leverage_decomposition",
    "load_panel", "make_shock", "models", "network_from_vectors",
    "ordering_audit", "rebalance_totals", "reconstruct", "relative_liabilities",
    "run_model", "run_recovery_sweep", "run_shock_sweep", "run_timeseries",
    "run_with_firewall", "sample_adjacency", "sweeps", "synthesize_panel",
    "to_aggregates", "write_ensemble",
]


def test_public_api_is_pinned():
    # A name added to or dropped from the package's API shows up here first;
    # test-only references live in tests/oracles.py, not in the package.
    assert sorted(contagion.__all__) == PUBLIC_API


def program_files() -> list:
    """The package modules and the bench scripts."""
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "contagion").glob("*.py"), *(root / "bench").glob("*.py")]
    return [f for f in files if f.name != "__init__.py"]


def program_nodes():
    """Every AST node of the package modules and the bench scripts."""
    return [node for f in program_files() for node in ast.walk(ast.parse(f.read_text()))]


def program_reads() -> dict:
    """Qualified function name -> the attribute names it loads, over the program
    files; loads outside any function fall under the module's name. A
    __post_init__ only checks, derives or freezes, so its loads from self are
    no reads."""
    reads = defaultdict(set)

    def visit(node, name, in_init):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}", child.name == "__post_init__")
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                    and not (in_init and getattr(child.value, "id", None) == "self")):
                reads[name].add(child.attr)
            visit(child, name, in_init)
    for f in program_files():
        visit(ast.parse(f.read_text()), f.stem, False)
    return reads


def test_every_public_name_has_a_caller_in_the_program():
    # A function that only tests call belongs in tests/oracles.py.
    used = {node.id if isinstance(node, ast.Name) else node.attr for node in program_nodes()
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert [name for name in contagion.__all__
            if not ismodule(getattr(contagion, name)) and name not in used] == []


# Public dataclass fields that no program path reads, and why each stays.
UNREAD_FIELDS = {
    "Trajectory.payments": "tests check the clearing fixed point on it",
}


# Field names that several public dataclasses share. A read of such a name does
# not show which owner is read, so each owner names a function that reads it.
SHARED_FIELDS = {
    "Aggregates.equity": "reconstruct._build_member",
    "LiabilityNetwork.equity": "models._run_clearing",
    "Aggregates.external_assets_by_class": "reconstruct._build_member",
    "LiabilityNetwork.external_assets_by_class": "core.ShockSpec.effective_per_bank",
    "Aggregates.interbank_assets": "reconstruct.rebalance_totals",
    "LiabilityNetwork.interbank_assets": "reconstruct.write_ensemble",
    "PanelRecord.interbank_assets": "workloads.Reconstruct.check",
    "Aggregates.interbank_liabilities": "reconstruct.rebalance_totals",
    "LiabilityNetwork.interbank_liabilities": "reconstruct.write_ensemble",
    "PanelRecord.interbank_liabilities": "workloads.Reconstruct.check",
    "ModelConfig.rv_beta": "models.run_model",
    "SweepSpec.rv_beta": "sweeps.run_shock_sweep",
}


def test_every_public_field_is_read_by_the_program():
    # A field that only tests read is computed and stored for nothing; drop it,
    # or let tests/oracles.py derive it.
    reads = program_reads()
    read = set().union(*reads.values())
    owners = defaultdict(list)  # field name -> "Class.field" of each owner
    for obj in (getattr(contagion, name) for name in contagion.__all__):
        if isinstance(obj, type) and is_dataclass(obj):
            for f in fields(obj):
                owners[f.name].append(f"{obj.__name__}.{f.name}")
    unread = [key for name, keys in owners.items() if name not in read for key in keys]
    assert sorted(unread) == sorted(UNREAD_FIELDS)
    shared = [key for keys in owners.values() if len(keys) > 1 for key in keys]
    assert sorted(shared) == sorted(SHARED_FIELDS)
    assert [key for key, where in SHARED_FIELDS.items()
            if key.split(".")[1] not in reads.get(where, ())] == []


def test_every_default_is_set_by_the_program():
    # A default that no call in src/ or bench/ overrides is a constant; make it
    # one, which a test can monkeypatch. Covered: the functions in
    # contagion.__all__ and the public functions of the modules it lists.
    functions = set()
    for name in contagion.__all__:
        obj = getattr(contagion, name)
        if ismodule(obj):
            functions |= {f for n, f in vars(obj).items() if isfunction(f)
                          and not n.startswith("_") and f.__module__ == obj.__name__}
        elif isfunction(obj):
            functions.add(obj)
    calls = [node for node in program_nodes() if isinstance(node, ast.Call)]

    def is_set(fn, index, param):
        return any(getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.__name__
                   and (len(c.args) > index or param in {k.arg for k in c.keywords})
                   for c in calls)

    unset = [f"{fn.__name__}.{p.name}" for fn in functions
             for i, p in enumerate(signature(fn).parameters.values())
             if p.default is not p.empty and not is_set(fn, i, p.name)]
    assert unset == []
