"""Global vulnerability, clearing-model closed forms, and model-order audits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LiabilityNetwork, ShockSpec, apply_first_round, leverage_decomposition,
    relative_liabilities,
)
from .errors import (
    EquivalentFormsDisagree, ModelMismatch, NonConvergence, PreconditionViolated,
    ProvedOrderingViolated,
)
from .models import (
    ADR, CDR, DC, EN, MODEL_NAMES, RV, ModelConfig, Trajectory, run_model,
)

BOUNDARY_TOL = 1e-12
ORDERING_TOL = 1e-9  # slack of the componentwise proved-ordering check


def equity_weights(network: LiabilityNetwork) -> np.ndarray:
    """E_i / sum E, read-only; computed once per network."""
    return network._equity_weights


def global_vulnerability(trajectory: Trajectory, network: LiabilityNetwork,
                         t: int | None = None) -> float:
    """Equity-weighted average of individual vulnerabilities at time t, the
    converged state when t is None; a t outside the trajectory raises IndexError."""
    return float(equity_weights(network) @ trajectory.h[-1 if t is None else t])


def _first_round(network: LiabilityNetwork, shock: ShockSpec):
    """(s, A^e s, D(1) mask, boundary flag). D(1) holds the banks whose
    first-round loss meets or exceeds their equity; the flag marks a loss
    equal to equity, which the tie rule places inside D(1)."""
    s = shock.effective_per_bank(network)
    ratio = apply_first_round(network, shock).loss_ratio
    return (s, network.external_assets * s, ratio >= 1.0 - BOUNDARY_TOL,
            bool(np.any(np.abs(ratio - 1.0) <= BOUNDARY_TOL)))


def _leak(network: LiabilityNetwork, en_trajectory: Trajectory) -> float:
    """Payment shortfalls that leave the network: (1 - beta) . (p_bar - p(inf))."""
    if en_trajectory.model != EN:
        raise ModelMismatch(f"need an EN clearing run, not {en_trajectory.model}")
    rel = relative_liabilities(network)
    shortfall = rel.total_obligations - en_trajectory.payments[-1]
    return (1.0 - rel.financial_connectivity) @ shortfall


def first_round_default_set(network: LiabilityNetwork, shock: ShockSpec):
    """Banks in D(1) as (index set, boundary flag); see _first_round."""
    _, _, d1, boundary = _first_round(network, shock)
    return frozenset(np.flatnonzero(d1).tolist()), boundary


def en_closed_form_H(network: LiabilityNetwork, shock: ShockSpec,
                     en_trajectory: Trajectory) -> float:
    """Final global vulnerability from first-round losses and payment shortfalls.

    H(inf) = (1/sum E) sum_i [A^e_i s_i - (1 - beta_i)(p_bar_i - p_i(inf))].
    """
    leak = _leak(network, en_trajectory)
    s = shock.effective_per_bank(network)
    return float((network.external_assets @ s - leak) / network.equity.sum())


def en_second_round_exact(network: LiabilityNetwork, shock: ShockSpec,
                          en_trajectory: Trajectory) -> float:
    """Exact second-round loss: first-round excess over equity of defaulters,
    net of the share of payment shortfalls externalized outside the network."""
    leak = _leak(network, en_trajectory)
    _, loss, d1, _ = _first_round(network, shock)
    excess = loss[d1] - network.equity[d1]
    return float((excess.sum() - leak) / network.equity.sum())


def en_second_round_bound(network: LiabilityNetwork, shock: ShockSpec) -> float:
    """Topology-free upper bound on second-round losses.

    (1/sum E) sum_{i in D(1)} beta_i (A^e_i s_i - E_i); the equivalent
    weighted form sum beta_i w_i (l^e_i s_i - 1) is checked internally and
    raises EquivalentFormsDisagree when it differs.
    """
    s, loss, d1, _ = _first_round(network, shock)
    beta = relative_liabilities(network).financial_connectivity[d1]
    bound = float((beta @ (loss[d1] - network.equity[d1])) / network.equity.sum())

    w = equity_weights(network)[d1]
    lev = leverage_decomposition(network).external_leverage_total[d1]
    alt = float(np.sum(beta * w * (lev * s[d1] - 1.0)))
    if abs(alt - bound) > 1e-12 * max(1.0, abs(bound)):
        raise EquivalentFormsDisagree(
            f"second-round bound {bound!r} != weighted form {alt!r}; internal fault")
    return bound


def conservation_check(network: LiabilityNetwork, shock: ShockSpec,
                       en_trajectory: Trajectory) -> float:
    """Aggregate equity loss must equal the external-asset loss when no
    liabilities leave the network (connectivity 1 for every bank); returns
    the residual |E . h(inf) - A^e . s|."""
    if en_trajectory.model != EN:
        raise ModelMismatch(f"need an EN clearing run, not {en_trajectory.model}")
    if np.any(network.external_liabilities > 1e-12):
        raise PreconditionViolated("conservation requires zero outside liabilities")
    loss = network.external_assets @ shock.effective_per_bank(network)
    return abs(float(network.equity @ en_trajectory.h[-1] - loss))


def _pad_to(h: np.ndarray, T: int) -> np.ndarray:
    if h.shape[0] >= T:
        return h
    return np.concatenate((h, h[-1:].repeat(T - h.shape[0], axis=0)))


@dataclass(frozen=True)
class OrderingReport:
    H_final: dict                      # model -> H(inf)
    empirical_chain_holds: bool


def assert_proved_ordering(lo: Trajectory, hi: Trajectory, pair: str) -> None:
    """Hard componentwise check h_lo(i, t) <= h_hi(i, t) after padding."""
    T = max(lo.h.shape[0], hi.h.shape[0])
    a = _pad_to(lo.h, T)
    b = _pad_to(hi.h, T)
    bad = a > b + ORDERING_TOL
    if bad.any():
        t, i = np.argwhere(bad)[0].tolist()
        raise ProvedOrderingViolated(pair, i, t)


def run_with_firewall(network: LiabilityNetwork, shock: ShockSpec, models,
                      recovery_rate: float, rv_beta: float) -> dict:
    """Run the requested models plus the firewall triple; return trajectories.

    The firewall hard-asserts the proved chain EN <= RV <= cDR, with the
    cascade at zero recovery (the regime covered by the proofs), running
    cDR(R=0) separately when recovery_rate is not 0. A cDR run that stopped
    at its iteration cap carries a truncated H(inf) and raises
    NonConvergence. Trajectories are keyed in MODEL_NAMES order.
    """
    trajectories = {}
    needed = set(models) | {EN, RV, CDR}
    for name in MODEL_NAMES:
        if name not in needed:
            continue
        cfg = ModelConfig(model=name, exogenous_recovery_rate=recovery_rate,
                          rv_beta=rv_beta)
        trajectories[name] = run_model(network, shock, cfg)
    assert_proved_ordering(trajectories[EN], trajectories[RV], "EN<=RV")
    cdr_ref = trajectories[CDR]
    if recovery_rate != 0.0:
        cdr_ref = run_model(network, shock,
                            ModelConfig(model=CDR, exogenous_recovery_rate=0.0))
    if trajectories[CDR].cap_hit or cdr_ref.cap_hit:
        raise NonConvergence("cyclic DebtRank stopped at its iteration cap; "
                             "H(inf) would be truncated")
    assert_proved_ordering(trajectories[RV], cdr_ref, "RV<=cDR")
    return trajectories


def ordering_audit(network: LiabilityNetwork, shock: ShockSpec,
                   recovery_rate: float = 0.0, rv_beta: float = 1.0) -> OrderingReport:
    """Run all five models through the firewall and report their ordering.

    The proved chain is hard-asserted by run_with_firewall. The five-model
    empirical chain at the supplied (R, beta) is reported, never asserted.
    """
    trajectories = run_with_firewall(network, shock, MODEL_NAMES, recovery_rate, rv_beta)
    H = {name: global_vulnerability(t, network) for name, t in trajectories.items()}
    chain = (H[EN] <= H[DC] + 1e-12 and H[DC] <= H[RV] + 1e-12
             and H[RV] <= H[ADR] + 1e-12 and H[ADR] <= H[CDR] + 1e-12)
    return OrderingReport(H_final=H, empirical_chain_holds=bool(chain))
