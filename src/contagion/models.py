"""Five distress-propagation dynamics on a leverage network.

All models share one timeline: t=0 initial allocation, t=1 first-round
losses from the external shock (identical across models), t>=2 second-round
propagation, last index = converged state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LiabilityNetwork, ShockSpec, apply_first_round, leverage_decomposition, relative_liabilities
from .errors import NonConvergence

EN = "EN"
RV = "RV"
DC = "DC"
ADR = "ADR"
CDR = "CDR"

MODEL_NAMES = (EN, RV, DC, ADR, CDR)

CDR_TOLERANCE = 1e-10  # cDR stops when no bank's h grows by this much
PICARD_MAX_ITERATIONS = 200_000  # the clearing fallback raises NonConvergence past this


@dataclass(frozen=True)
class ModelConfig:
    model: str = EN
    exogenous_recovery_rate: float = 0.0    # R, used by DC / aDR / cDR
    rv_beta: float = 1.0                    # payout discount on defaulters (RV)

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}")
        if not 0.0 <= self.exogenous_recovery_rate <= 1.0:
            raise ValueError("recovery rate must lie in [0, 1]")
        if not 0.0 <= self.rv_beta <= 1.0:
            raise ValueError("rv_beta must lie in [0, 1]")


@dataclass(frozen=True)
class Trajectory:
    """One run: the vulnerability path h(t), plus p(t) for the clearing models.

    Everything else (round count, default sets, endogenous recovery) is
    derived from these on read.
    """

    model: str
    h: np.ndarray                      # (T+1, n); row t is h(t), row 0 is zeros
    payments: np.ndarray | None = None  # (T+1, n) for EN/RV, row 0 is p_bar
    cap_hit: bool = False

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def h_final(self) -> np.ndarray:
        return self.h[-1]

    @property
    def h1(self) -> np.ndarray:
        return self.h[1]

    @property
    def converged_at(self) -> int:
        return self.h.shape[0] - 1

    @property
    def default_sets(self) -> tuple:
        """frozenset per t: {i : h_i(t) = 1}."""
        return tuple(frozenset(np.flatnonzero(row >= 1.0).tolist()) for row in self.h)

    @property
    def endogenous_recovery(self) -> np.ndarray | None:
        """p(inf) / p_bar per bank, 1 where p_bar = 0; None without payments."""
        if self.payments is None:
            return None
        p_bar = self.payments[0]
        recovery = np.ones(self.n)
        nz = p_bar > 0
        recovery[nz] = self.payments[-1, nz] / p_bar[nz]
        return recovery


def _check_trajectory(h: np.ndarray) -> None:
    if np.any(h < -1e-12) or np.any(h > 1.0 + 1e-12):
        raise NonConvergence("vulnerability left [0, 1]; internal fault")
    if np.any(np.diff(h, axis=0) < -1e-9):
        raise NonConvergence("vulnerability decreased over time; internal fault")


def _solve_defaulter_payments(pi_T, p_bar, D, beta, shocked_external, p_current):
    """Payments of the assumed-default set D with non-defaulters at p_bar.

    Solves (I - beta * Pi^T_DD) p_D = beta A^e'_D + beta (Pi^T)_D,ND p_bar_ND
    and falls back to damped fixed-point iteration when the linear system is
    ill-conditioned (closed defaulting subsystems).
    """
    idx = np.flatnonzero(D)
    if idx.size == 0:
        return p_bar.copy()
    p = p_bar.copy()
    A_dd = pi_T[np.ix_(idx, idx)]
    b = beta * shocked_external[idx] + beta * (pi_T[idx] @ p - A_dd @ p[idx])
    mat = np.eye(idx.size) - beta * A_dd
    ok = False
    try:
        sol = np.linalg.solve(mat, b)
        resid = np.abs(mat @ sol - b).max() if idx.size else 0.0
        scale = max(1.0, np.abs(b).max(initial=0.0))
        if np.all(np.isfinite(sol)) and resid <= 1e-9 * scale:
            ok = True
    except np.linalg.LinAlgError:
        sol = None
    if not ok:
        # Picard iteration from the current payments; monotone decreasing to
        # the greatest fixed point of the restricted map.
        sol = p_current[idx].copy()
        for _ in range(PICARD_MAX_ITERATIONS):
            prev, sol = sol, np.clip(beta * shocked_external[idx] + beta * (
                pi_T[idx] @ p - A_dd @ p[idx] + A_dd @ sol), 0.0, p_bar[idx])
            if np.abs(sol - prev).max() < 1e-13 * max(1.0, p_bar[idx].max(initial=0.0)):
                break
        else:
            raise NonConvergence(f"Picard fallback exceeded {PICARD_MAX_ITERATIONS} iterations")
    p[idx] = np.clip(sol, 0.0, p_bar[idx])
    return p


def _run_clearing(network: LiabilityNetwork, shock: ShockSpec, beta: float,
                  model: str) -> Trajectory:
    """Fictitious default algorithm shared by the EN and RV models.

    A bank defaults when its nominal resources Pi^T p + A^e(1-s) fall short
    of total obligations; defaulters pay beta (A^e' + Pi^T p), others pay
    in full. EN is the beta = 1 special case.
    """
    rel = relative_liabilities(network)
    p_bar = rel.total_obligations
    pi_T = rel.pi_matrix.T
    first = apply_first_round(network, shock)
    ae = first.shocked_external_assets
    E0 = network.equity

    def equities(p):
        return np.maximum(0.0, pi_T @ p + ae - p_bar)

    payments = [p_bar.copy(), p_bar.copy()]
    h_rows = [np.zeros(network.n), first.h1.copy()]

    p = p_bar.copy()
    D = np.zeros(network.n, dtype=bool)
    for _ in range(network.n + 1):
        resources = pi_T @ p + ae
        new_D = D | (resources < p_bar - 1e-12 * np.maximum(1.0, p_bar))
        if new_D.sum() == D.sum():
            # No new defaulters; with none at all, converged after the first round.
            break
        D = new_D
        p = _solve_defaulter_payments(pi_T, p_bar, D, beta, ae, p)
        E = equities(p)
        E[D] = 0.0
        h = np.minimum(1.0, (E0 - E) / E0)
        h = np.maximum(h, h_rows[-1])  # guard rounding-level wiggle only
        payments.append(p.copy())
        h_rows.append(h)
    else:
        raise NonConvergence("fictitious default algorithm exceeded n+1 sweeps")

    h_arr = np.vstack(h_rows)
    _check_trajectory(h_arr)
    pay = np.vstack(payments)
    if np.any(np.diff(pay, axis=0) > 1e-9 * np.maximum(1.0, p_bar)):
        raise NonConvergence("payments increased between sweeps; internal fault")
    return Trajectory(model=model, h=h_arr, payments=pay)


def run_eisenberg_noe(network: LiabilityNetwork, shock: ShockSpec,
                      config: ModelConfig | None = None) -> Trajectory:
    """Clearing-payment fixed point with full recovery on liquidation."""
    return _run_clearing(network, shock, beta=1.0, model=EN)


def run_rogers_veraart(network: LiabilityNetwork, shock: ShockSpec,
                       config: ModelConfig) -> Trajectory:
    """Clearing with bankruptcy costs: defaulters pay a beta-discounted value."""
    return _run_clearing(network, shock, beta=config.rv_beta, model=RV)


def _run_active_set(network, shock, R, active_rule, model):
    """Shared recursion for default cascades and the acyclic DebtRank.

    h_i(t+1) = min{1, h_i(t) + sum_{j active at t} (1-R) l^b_ij h_j(t)};
    each bank propagates exactly once, on entering the active state.
    """
    lev = leverage_decomposition(network)
    lb = lev.interbank_leverage
    first = apply_first_round(network, shock)
    h_rows = [np.zeros(network.n), first.h1.copy()]
    propagated = np.zeros(network.n, dtype=bool)

    for _ in range(network.n):
        h = h_rows[-1]
        active = active_rule(h) & ~propagated
        if not active.any():
            break
        inflow = (1.0 - R) * (lb[:, active] @ h[active])
        h_rows.append(np.minimum(1.0, h + inflow))
        propagated |= active
    h_arr = np.vstack(h_rows)
    _check_trajectory(h_arr)
    return Trajectory(model=model, h=h_arr)


def run_default_cascade(network: LiabilityNetwork, shock: ShockSpec,
                        config: ModelConfig) -> Trajectory:
    """Threshold cascade: only defaulted banks transmit losses."""
    return _run_active_set(network, shock, config.exogenous_recovery_rate,
                           lambda h: h >= 1.0, DC)


def run_acyclic_debtrank(network: LiabilityNetwork, shock: ShockSpec,
                         config: ModelConfig) -> Trajectory:
    """Mark-to-market cascade: any distressed bank transmits, once."""
    return _run_active_set(network, shock, config.exogenous_recovery_rate,
                           lambda h: h > 0.0, ADR)


def run_cyclic_debtrank(network: LiabilityNetwork, shock: ShockSpec,
                        config: ModelConfig) -> Trajectory:
    """Distress propagated along all walks, including cycles.

    h(t+1) = min{1, h(t) + (1-R) l^b [h(t) - h(t-1)]}; stops when the largest
    componentwise change drops below CDR_TOLERANCE or the 10 n iteration cap
    fires (flagged, not fatal).
    """
    lev = leverage_decomposition(network)
    lb = lev.interbank_leverage
    R = config.exogenous_recovery_rate
    first = apply_first_round(network, shock)
    h_rows = [np.zeros(network.n), first.h1.copy()]
    cap_hit = False
    for _ in range(10 * network.n):
        h_prev, h = h_rows[-2], h_rows[-1]
        delta = h - h_prev
        if delta.max(initial=0.0) < CDR_TOLERANCE:
            break
        h_rows.append(np.minimum(1.0, h + (1.0 - R) * (lb @ delta)))
    else:
        cap_hit = True
    h_arr = np.vstack(h_rows)
    _check_trajectory(h_arr)
    return Trajectory(model=CDR, h=h_arr, cap_hit=cap_hit)


def en_vulnerability_form(network: LiabilityNetwork, shock: ShockSpec,
                          config: ModelConfig | None = None) -> Trajectory:
    """Clearing dynamics re-expressed through leverages and payment shortfalls.

    h_i(t+1) = min{1, h_i(t) + sum_j l^b_ij (p_j(t) - p_j(t+1)) / p_bar_j};
    an independent arithmetic path that must agree with run_eisenberg_noe.
    """
    base = run_eisenberg_noe(network, shock)
    rel = relative_liabilities(network)
    p_bar = rel.total_obligations
    lb = leverage_decomposition(network).interbank_leverage
    ratio = np.zeros_like(lb)
    nz = p_bar > 0
    ratio[:, nz] = lb[:, nz] / p_bar[nz]
    pay = base.payments
    h_rows = [np.zeros(network.n), base.h[1].copy()]
    for t in range(1, pay.shape[0] - 1):
        drop = pay[t] - pay[t + 1]
        h_rows.append(np.minimum(1.0, h_rows[-1] + ratio @ drop))
    h_arr = np.vstack(h_rows)
    _check_trajectory(h_arr)
    return Trajectory(model=EN, h=h_arr, payments=pay)


def run_model(network: LiabilityNetwork, shock: ShockSpec,
              config: ModelConfig) -> Trajectory:
    """Dispatch a run by config.model."""
    runner = {
        EN: run_eisenberg_noe,
        RV: run_rogers_veraart,
        DC: run_default_cascade,
        ADR: run_acyclic_debtrank,
        CDR: run_cyclic_debtrank,
    }[config.model]
    return runner(network, shock, config)
