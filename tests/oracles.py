"""Cross-check references that only the tests call.

Each reaches a result of the package by a second route, so a fault in either
route shows as a disagreement. They are safety code, not package API.
"""
import numpy as np

from contagion import (
    EN, Trajectory, global_vulnerability, leverage_decomposition,
    relative_liabilities, run_eisenberg_noe,
)
from contagion.analysis import _first_round
from contagion.errors import AggregateMismatch
from contagion.models import _check_trajectory
from contagion.reconstruct import _link_probabilities


def en_vulnerability_form(network, shock) -> Trajectory:
    """Clearing dynamics re-expressed through leverages and payment shortfalls.

    h_i(t+1) = min{1, h_i(t) + sum_j l^b_ij (p_j(t) - p_j(t+1)) / p_bar_j};
    an independent arithmetic path that must agree with run_eisenberg_noe.
    """
    base = run_eisenberg_noe(network, shock)
    p_bar = relative_liabilities(network).total_obligations
    lb = leverage_decomposition(network).interbank_leverage
    ratio = np.zeros_like(lb)
    nz = p_bar > 0
    ratio[:, nz] = lb[:, nz] / p_bar[nz]
    pay = base.payments
    h_rows = [np.zeros(network.n), base.h[1]]
    for t in range(1, pay.shape[0] - 1):
        h_rows.append(np.minimum(1.0, h_rows[-1] + ratio @ (pay[t] - pay[t + 1])))
    h_arr = np.array(h_rows)
    _check_trajectory(h_arr)
    return Trajectory(model=EN, h=h_arr, payments=pay)


def reference_density(x, row_needed=None, col_needed=None):
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
            if needed is not None:
                reachable = p.max(axis=axis) > 0
                links += np.prod(1.0 - p, axis=axis)[needed & reachable].sum()
        return float(links / mask.sum())

    return density


def topology_invariance_check(networks, shock):
    """(final clearing H per network, stacked final h rows), for the caller
    to check that H agrees across networks whose aggregates match.

    Networks must share size, D(1), equities, first-round monetary losses and
    the connectivity of first-round defaulters (the ingredients of the exact
    second-round expression), or AggregateMismatch is raised."""
    def signature(net):
        _, loss, d1, _ = _first_round(net, shock)
        return d1, net.equity, loss, relative_liabilities(net).financial_connectivity[d1]

    ref = signature(networks[0])
    for net in networks[1:]:
        sig = signature(net)
        # equal D(1) masks have equal sizes, so the closeness checks broadcast
        if not (np.array_equal(sig[0], ref[0])
                and all(np.allclose(a, b) for a, b in zip(sig[1:], ref[1:]))):
            raise AggregateMismatch("networks do not share the aggregates that pin H")
    runs = [run_eisenberg_noe(net, shock) for net in networks]
    return ([global_vulnerability(t, net) for t, net in zip(runs, networks)],
            np.vstack([t.h[-1] for t in runs]))
