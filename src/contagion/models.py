"""Five distress-propagation dynamics on a leverage network.

All models share one timeline: t=0 initial allocation, t=1 first-round
losses from the external shock (identical across models), t>=2 second-round
propagation, last index = converged state.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .core import LiabilityNetwork, ShockSpec, apply_first_round, leverage_decomposition, relative_liabilities
from .core import _freeze_arrays
from .errors import NonConvergence

EN = "EN"
RV = "RV"
DC = "DC"
ADR = "ADR"
CDR = "CDR"

MODEL_NAMES = (EN, RV, DC, ADR, CDR)

CDR_TOLERANCE = 1e-10  # cDR stops when no bank's h grows by this much
CDR_MAX_ROUNDS = 10_000  # cDR's round cap (or 10 n, if larger)
SHORTFALL_TOL = 1e-12  # clearing: a shortfall up to this x max(1, p_bar) is rounding, not default


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run: the vulnerability path h(t), plus p(t) for the clearing models.
    Trajectories compare by identity."""

    model: str
    h: np.ndarray                      # (T+1, n); row t is h(t), row 0 is zeros
    payments: np.ndarray | None = None  # (T+1, n) for EN/RV, row 0 is p_bar
    cap_hit: bool = False

    @property
    def h_final(self) -> np.ndarray:
        return self.h[-1]

    @property
    def converged_at(self) -> int:
        return self.h.shape[0] - 1


def _check_trajectory(h: np.ndarray) -> None:
    # Written so that NaN fails the range check. Row 0 is zeros, so the
    # initial values change no result; they only let a 0-bank h through.
    if not (h.min(initial=0.0) >= -1e-12 and h.max(initial=0.0) <= 1.0 + 1e-12):
        raise NonConvergence("vulnerability left [0, 1]; internal fault")
    if (h[:-1] - h[1:]).max(initial=0.0) > 1e-9:
        raise NonConvergence("vulnerability decreased over time; internal fault")


_RUN_TABLE: ContextVar[tuple | None] = ContextVar("run_table", default=None)


@contextmanager
def run_table(network: LiabilityNetwork, shock: ShockSpec):
    """Within the block, compute each distinct clearing and cDR run of this
    network under this shock once; a repeat returns the stored run, read-only.
    Runs of any other network or shock bypass the table, which ends with the block."""
    token = _RUN_TABLE.set((network, shock, {}))
    try:
        yield
    finally:
        _RUN_TABLE.reset(token)


def _table(network, shock) -> dict | None:
    """The open run table, if it is bound to this network and shock."""
    bound = _RUN_TABLE.get()
    return bound[2] if bound and bound[0] is network and bound[1] is shock else None


def _keep(table: dict, key, trajectory: Trajectory) -> Trajectory:
    """Store a run read-only; return it."""
    _freeze_arrays(trajectory)
    table[key] = trajectory
    return trajectory


def _solve_defaulter_payments(pi_T, p_bar, D, beta, shocked_external, bare):
    """Payments of the assumed-default set D with non-defaulters at p_bar.

    Solves (I - beta * Pi^T_DD) p_D = beta A^e'_D + beta (Pi^T)_D,ND p_bar_ND;
    at beta = 0 that is p_D = 0, set without a solve. At beta = 1 it first
    clears S, the bare defaulters linked to no bank outside S, where the system
    is singular: S receives nothing, so banks that no bank of S pays pay 0 and
    the closed class left pays t v, with v its Perron vector and t = min p_bar / v
    (Rogers & Veraart 2013). A failed solve raises NonConvergence.
    """
    p = p_bar.copy()
    if beta == 1.0 and (S := D & bare).any():
        link = (pi_T != 0) | (pi_T.T != 0)
        while (cut := S & link[:, ~S].any(axis=1)).any():
            S &= ~cut
        paid = S.copy()
        while (unpaid := paid & ~(pi_T[:, paid] != 0).any(axis=1)).any():
            paid &= ~unpaid
        p[S] = 0.0
        if (cls := np.flatnonzero(paid)).size:
            A = pi_T[np.ix_(cls, cls)]
            try:  # v = 1 at the class's first bank; its other rows give the rest
                v = np.append(1.0, np.linalg.solve(np.eye(cls.size - 1) - A[1:, 1:], A[1:, 0]))
            except np.linalg.LinAlgError:
                v = np.zeros(1)  # fails the check below
            if not (np.isfinite(v).all() and (v > 0).all()):
                raise NonConvergence("bare defaulters are not one closed class")
            p[cls] = np.clip((p_bar[cls] / v).min() * v, 0.0, p_bar[cls])
        D = D & ~S
    idx = np.flatnonzero(D)
    if idx.size == 0 or beta == 0.0:  # I p_D = +0.0: the solve would return exactly this
        p[idx] = 0.0
        return p
    rows = pi_T.take(idx, axis=0)  # pi_T[idx]
    A_dd = rows.take(idx, axis=1)  # pi_T[np.ix_(idx, idx)]
    b = beta * shocked_external[idx] + beta * (rows @ p - A_dd @ p[idx])
    del rows  # n = 1000 holds no k x n block through the solve
    # I - beta A_DD in A_dd's own buffer, bit for bit: 0 - x off the diagonal
    # (a product with -beta would write -0.0 there), 1 + (0 - x) on it.
    mat = np.multiply(beta, A_dd, out=A_dd)
    np.subtract(0.0, mat, out=mat)
    mat.ravel()[::idx.size + 1] += 1.0
    try:
        sol = np.linalg.solve(mat, b)
        ok = (np.isfinite(sol).all()
              and np.abs(mat @ sol - b).max() <= 1e-9 * max(1.0, np.abs(b).max()))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        raise NonConvergence("defaulters' payments failed their solve; internal fault")
    p[idx] = np.clip(sol, 0.0, p_bar[idx])
    return p


def _run_clearing(network: LiabilityNetwork, shock: ShockSpec, beta: float,
                  model: str) -> Trajectory:
    """Fictitious default algorithm shared by the EN and RV models.

    A bank defaults when its nominal resources Pi^T p + A^e(1-s) fall short
    of total obligations by more than SHORTFALL_TOL x max(1, p_bar), so that
    rounding in Pi^T p defaults no balanced bank; defaulters pay beta (A^e' + Pi^T p), others pay
    in full. EN is the beta = 1 special case.
    """
    rel = relative_liabilities(network)
    p_bar = rel.total_obligations
    pi_T = rel.pi_matrix.T
    first = apply_first_round(network, shock)
    ae = first.shocked_external_assets
    table = _table(network, shock)
    if table and ("clearing", beta) in table:  # no model in the key: EN is RV(1)
        return replace(table["clearing", beta], model=model)
    bare = (ae == 0) & (network.external_liabilities == 0)
    E0 = network.equity
    scale = np.maximum(1.0, p_bar)
    threshold = p_bar - SHORTFALL_TOL * scale

    payments = [p_bar, p_bar]
    h_rows = [np.zeros(network.n), first.h1]

    p = p_bar
    D = np.zeros(network.n, dtype=bool)
    n_defaulted = 0
    resources = pi_T @ p + ae
    for _ in range(network.n + 1):
        new_D = D | (resources < threshold)
        n_new = np.count_nonzero(new_D)
        if n_new == n_defaulted:
            # No new defaulters; with none at all, converged after the first round.
            break
        D, n_defaulted = new_D, n_new
        p = _solve_defaulter_payments(pi_T, p_bar, D, beta, ae, bare)  # a fresh array
        resources = pi_T @ p + ae
        E = np.maximum(0.0, resources - p_bar)
        E[D] = 0.0
        h = np.minimum(1.0, (E0 - E) / E0)
        prev = h_rows[-1]
        if (prev - h).max() > 1e-12:  # only a rounding-level decrease is clamped
            raise NonConvergence("vulnerability decreased between sweeps; internal fault")
        np.maximum(h, prev, out=h)
        payments.append(p)
        h_rows.append(h)
    else:
        raise NonConvergence("fictitious default algorithm exceeded n+1 sweeps")

    h_arr = np.array(h_rows)
    _check_trajectory(h_arr)
    pay = np.array(payments)
    if (pay[1:] - pay[:-1] > 1e-9 * scale).any():
        raise NonConvergence("payments increased between sweeps; internal fault")
    trajectory = Trajectory(model=model, h=h_arr, payments=pay)
    return trajectory if table is None else _keep(table, ("clearing", beta), trajectory)


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
    h_rows = [np.zeros(network.n), first.h1]
    propagated = np.zeros(network.n, dtype=bool)

    for _ in range(network.n):
        h = h_rows[-1]
        active = active_rule(h) & ~propagated
        if not active.any():
            break
        inflow = (1.0 - R) * (lb[:, active] @ h[active])
        h_rows.append(np.minimum(1.0, h + inflow))
        propagated |= active
    h_arr = np.array(h_rows)
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
    componentwise change drops below CDR_TOLERANCE or after
    max(10 n, CDR_MAX_ROUNDS) rounds (cap_hit: flagged, not fatal).
    """
    lev = leverage_decomposition(network)
    lb = lev.interbank_leverage
    R = config.exogenous_recovery_rate
    first = apply_first_round(network, shock)
    table = _table(network, shock)
    if table and (CDR, R) in table:
        return table[CDR, R]
    h_rows = [np.zeros(network.n), first.h1]
    for _ in range(max(10 * network.n, CDR_MAX_ROUNDS)):
        h_prev, h = h_rows[-2], h_rows[-1]
        delta = h - h_prev
        if delta.max(initial=0.0) < CDR_TOLERANCE:
            cap_hit = False
            break
        h_rows.append(np.minimum(1.0, h + (1.0 - R) * (lb @ delta)))
    else:
        cap_hit = True
    h_arr = np.array(h_rows)
    _check_trajectory(h_arr)
    trajectory = Trajectory(model=CDR, h=h_arr, cap_hit=cap_hit)
    return trajectory if table is None else _keep(table, (CDR, R), trajectory)


_RUNNERS = {
    EN: run_eisenberg_noe,
    RV: run_rogers_veraart,
    DC: run_default_cascade,
    ADR: run_acyclic_debtrank,
    CDR: run_cyclic_debtrank,
}


def run_model(network: LiabilityNetwork, shock: ShockSpec,
              config: ModelConfig) -> Trajectory:
    """Dispatch a run by config.model."""
    return _RUNNERS[config.model](network, shock, config)
