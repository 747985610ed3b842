"""Global vulnerability, the ordering firewall, and model-order audits."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import LiabilityNetwork, ShockSpec
from .errors import NonConvergence, ProvedOrderingViolated
from .models import (
    ADR, CDR, DC, EN, MODEL_NAMES, RV, ModelConfig, Trajectory, run_model,
)

ORDERING_TOL = 1e-9  # slack of the componentwise proved-ordering check


def global_vulnerability(trajectory: Trajectory, network: LiabilityNetwork,
                         t: int | None = None) -> float:
    """Equity-weighted average of individual vulnerabilities at time t, the
    converged state when t is None; a t outside the trajectory raises IndexError."""
    if t is not None and t < 0:  # a negative index would wrap to another round
        raise IndexError(f"t = {t} outside the trajectory")
    return float(network.equity_weights @ trajectory.h[-1 if t is None else t])


def _pad_to(h: np.ndarray, T: int) -> np.ndarray:
    if h.shape[0] >= T:
        return h
    return np.concatenate((h, h[-1:].repeat(T - h.shape[0], axis=0)))


# ModelConfig(model, R, beta), made once per distinct triple and then reused.
_config = lru_cache(maxsize=256)(ModelConfig)


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
        if name in needed:
            trajectories[name] = run_model(network, shock,
                                           _config(name, recovery_rate, rv_beta))
    assert_proved_ordering(trajectories[EN], trajectories[RV], "EN<=RV")
    cdr_ref = trajectories[CDR]
    if recovery_rate != 0.0:
        cdr_ref = run_model(network, shock, _config(CDR, 0.0, rv_beta))
    if trajectories[CDR].cap_hit or cdr_ref.cap_hit:
        raise NonConvergence("cyclic DebtRank stopped at its iteration cap; "
                             "H(inf) would be truncated")
    assert_proved_ordering(trajectories[RV], cdr_ref, "RV<=cDR")
    return trajectories


def ordering_audit(network: LiabilityNetwork, shock: ShockSpec,
                   recovery_rate: float, rv_beta: float) -> OrderingReport:
    """Run all five models through the firewall and report their ordering.

    The proved chain is hard-asserted by run_with_firewall. The five-model
    empirical chain at the supplied (R, beta) is reported, never asserted.
    """
    trajectories = run_with_firewall(network, shock, MODEL_NAMES, recovery_rate, rv_beta)
    H = {name: global_vulnerability(t, network) for name, t in trajectories.items()}
    chain = (H[EN] <= H[DC] + 1e-12 and H[DC] <= H[RV] + 1e-12
             and H[RV] <= H[ADR] + 1e-12 and H[ADR] <= H[CDR] + 1e-12)
    return OrderingReport(H_final=H, empirical_chain_holds=bool(chain))
