"""Cross-check references that only the tests call.

Each reaches a result of the package by a second route, so a fault in either
route shows as a disagreement. They are safety code, not package API. The EN
closed forms gate no run: they hold for every clearing vector, not only the
greatest, and conservation needs zero outside liabilities.
"""
import numpy as np

from contagion import (
    EN, ModelConfig, Trajectory, global_vulnerability, leverage_decomposition,
    network_from_vectors, relative_liabilities, run_model,
)
from contagion.fixtures import _random_interbank
from contagion.reconstruct import _link_probabilities

BOUNDARY_TOL = 1e-12


def run(network, shock, model=EN, R=0.0, beta=1.0) -> Trajectory:
    """run_model under ModelConfig(model, exogenous_recovery_rate=R, rv_beta=beta)."""
    return run_model(network, shock,
                     ModelConfig(model=model, exogenous_recovery_rate=R, rv_beta=beta))


def connectivity(network) -> np.ndarray:
    """Financial connectivity beta_i: the share of bank i's obligations owed
    inside the network, the row sums of Pi."""
    return relative_liabilities(network).pi_matrix.sum(axis=1)


def _first_round(network, shock):
    """(s, A^e s, D(1) mask, boundary flag). D(1) holds the banks whose
    first-round loss l^e_i s_i (per-class shocks: sum_k l^e_ik s_k) meets or
    exceeds their equity; the flag marks a loss equal to equity, which the tie
    rule places inside D(1)."""
    s = shock.effective_per_bank(network)
    lev = leverage_decomposition(network)
    ratio = (lev.external_leverage @ shock.per_class_shock
             if shock.per_class_shock is not None else lev.external_leverage_total * s)
    return (s, network.external_assets * s, ratio >= 1.0 - BOUNDARY_TOL,
            bool(np.any(np.abs(ratio - 1.0) <= BOUNDARY_TOL)))


def _leak(network, en_trajectory) -> float:
    """Payment shortfalls that leave the network: (1 - beta) . (p_bar - p(inf))."""
    assert en_trajectory.payments is not None, "need a clearing run"
    rel = relative_liabilities(network)
    shortfall = rel.total_obligations - en_trajectory.payments[-1]
    return (1.0 - connectivity(network)) @ shortfall


def first_round_default_set(network, shock):
    """Banks in D(1) as (index set, boundary flag); see _first_round."""
    _, _, d1, boundary = _first_round(network, shock)
    return frozenset(np.flatnonzero(d1).tolist()), boundary


def en_closed_form_H(network, shock, en_trajectory) -> float:
    """Final global vulnerability from first-round losses and payment shortfalls.

    H(inf) = (1/sum E) sum_i [A^e_i s_i - (1 - beta_i)(p_bar_i - p_i(inf))].
    """
    leak = _leak(network, en_trajectory)
    s = shock.effective_per_bank(network)
    return float((network.external_assets @ s - leak) / network.equity.sum())


def en_second_round_exact(network, shock, en_trajectory) -> float:
    """Exact second-round loss: first-round excess over equity of defaulters,
    net of the share of payment shortfalls externalized outside the network."""
    leak = _leak(network, en_trajectory)
    _, loss, d1, _ = _first_round(network, shock)
    excess = loss[d1] - network.equity[d1]
    return float((excess.sum() - leak) / network.equity.sum())


def en_second_round_bound(network, shock) -> tuple:
    """Topology-free upper bound on second-round losses, in two equal forms:
    (1/sum E) sum_{i in D(1)} beta_i (A^e_i s_i - E_i), and the weighted form
    sum beta_i w_i (l^e_i s_i - 1). The tests compare them."""
    s, loss, d1, _ = _first_round(network, shock)
    beta = connectivity(network)[d1]
    bound = float((beta @ (loss[d1] - network.equity[d1])) / network.equity.sum())
    w = network.equity_weights[d1]
    lev = leverage_decomposition(network).external_leverage_total[d1]
    return bound, float(np.sum(beta * w * (lev * s[d1] - 1.0)))


def conservation_check(network, shock, en_trajectory) -> float:
    """Aggregate equity loss must equal the external-asset loss when no
    liabilities leave the network (connectivity 1 for every bank); returns
    the residual |E . h(inf) - A^e . s|."""
    assert en_trajectory.payments is not None, "need a clearing run"
    assert not np.any(network.external_liabilities > 1e-12), "needs zero outside liabilities"
    loss = network.external_assets @ shock.effective_per_bank(network)
    return abs(float(network.equity @ en_trajectory.h[-1] - loss))


def conservation_ring(n: int = 5, seed: int = 0):
    """Ring of banks with no outside liabilities (connectivity 1 everywhere)."""
    rng = np.random.default_rng(seed)
    L = np.roll(np.diag(rng.uniform(5.0, 20.0, size=n)), 1, axis=1)  # bank i lends to i + 1
    ab, lb = L.sum(axis=0), L.sum(axis=1)
    equity = np.maximum(0.0, ab - lb) + rng.uniform(1.0, 10.0, size=n)
    return network_from_vectors(equity + lb - ab, np.zeros(n), L, equity=equity)


def closed_random_network(rng, n: int):
    """Random network with no outside liabilities (connectivity 1 everywhere),
    for the conservation and closed-class checks.

    It draws the interbank matrix L as fixtures.random_network does, then
    redraws equity, so the leverage matrix's spectral radius is not held in
    [0.15, 0.85]: over 5,000 draws (n from 2 to 29, seed 0), 26 % lay above
    0.85, 17 % above 1, and the largest was 6.7. Only EN runs, which need no
    bound on it, and the runner byte pin use these networks.
    """
    _, L = _random_interbank(rng, n)
    ab, lb = L.sum(axis=0), L.sum(axis=1)
    equity = np.maximum(0.0, ab - lb) + rng.uniform(0.5, 10.0, size=n)
    return network_from_vectors(equity + lb - ab, np.zeros(n), L, equity=equity)


def en_vulnerability_form(network, shock) -> Trajectory:
    """Clearing dynamics re-expressed through leverages and payment shortfalls.

    h_i(t+1) = min{1, h_i(t) + sum_j l^b_ij (p_j(t) - p_j(t+1)) / p_bar_j};
    an independent arithmetic path that must agree with the EN run.
    """
    base = run(network, shock)
    p_bar = relative_liabilities(network).total_obligations
    lb = leverage_decomposition(network).interbank_leverage
    ratio = np.zeros_like(lb)
    nz = p_bar > 0
    ratio[:, nz] = lb[:, nz] / p_bar[nz]
    pay = base.payments
    h_rows = [np.zeros(network.n), base.h[1]]
    for t in range(1, pay.shape[0] - 1):
        h_rows.append(np.minimum(1.0, h_rows[-1] + ratio @ (pay[t] - pay[t + 1])))
    return Trajectory(h=np.array(h_rows), payments=pay)


def reference_density(x, row_needed, col_needed):
    """Mean link density as a function of z, from the full n x n matrix of link
    probabilities: reconstruct._density_function by a second route.

    Sums p over the ordered pairs with a positive fitness product, then adds
    the links support repair forces: for each needed bank that can link, the
    chance that its row (or column) of 1 - p draws none.
    """
    mask = np.outer(x, x) > 0
    np.fill_diagonal(mask, False)

    def density(z):
        p = _link_probabilities(x, z)
        links = p[mask].sum()
        for axis, needed in ((1, row_needed), (0, col_needed)):
            reachable = p.max(axis=axis) > 0
            links += np.prod(1.0 - p, axis=axis)[needed & reachable].sum()
        return float(links / mask.sum())

    return density


def topology_invariance_check(networks, shock):
    """(final clearing H per network, stacked final h rows), for the caller
    to check that H agrees across networks whose aggregates match.

    Networks must share size, D(1), equities, first-round monetary losses and
    the connectivity of first-round defaulters (the ingredients of the exact
    second-round expression), or ValueError is raised."""
    def signature(net):
        _, loss, d1, _ = _first_round(net, shock)
        return d1, net.equity, loss, connectivity(net)[d1]

    ref = signature(networks[0])
    for net in networks[1:]:
        sig = signature(net)
        # equal D(1) masks have equal sizes, so the closeness checks broadcast
        if not (np.array_equal(sig[0], ref[0])
                and all(np.allclose(a, b) for a, b in zip(sig[1:], ref[1:]))):
            raise ValueError("networks do not share the aggregates that pin H")
    runs = [run(net, shock) for net in networks]
    return ([global_vulnerability(t, net) for t, net in zip(runs, networks)],
            np.vstack([t.h[-1] for t in runs]))
