"""Five distress-propagation dynamics on a leverage network.

All models share one timeline: t=0 initial allocation, t=1 first-round
losses from the external shock (identical across models), t>=2 second-round
propagation, last index = converged state. A Trajectory checks its h when
it is constructed, so every run is checked where its kernel builds it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SHORTFALL_TOL, FirstRound, LiabilityNetwork, RelativeLiabilities, ShockSpec
from .core import _freeze_arrays, apply_first_round, leverage_decomposition, relative_liabilities
from .errors import NonConvergence

EN = "EN"
RV = "RV"
DC = "DC"
ADR = "ADR"
CDR = "CDR"

MODEL_NAMES = (EN, RV, DC, ADR, CDR)

CDR_TOLERANCE = 1e-10  # cDR stops when no bank's h grows by this much
CDR_MAX_ROUNDS = 10_000  # cDR's round cap (or 10 n, if larger)


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
    Its arrays are read-only and its h is checked when built. Trajectories
    compare by identity."""

    h: np.ndarray                      # (T+1, n); row t is h(t), row 0 is zeros
    payments: np.ndarray | None = None  # (T+1, n) for EN/RV, row 0 is p_bar
    cap_hit: bool = False

    def __post_init__(self):
        _freeze_arrays(self)
        _check_trajectory(self.h)

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


def _solve_defaulter_payments(pi_T, p_bar, D, beta, shocked_external, external_liabilities):
    """Payments of the assumed-default set D with non-defaulters at p_bar.

    Solves (I - beta * Pi^T_DD) p_D = beta A^e'_D + beta (Pi^T)_D,ND p_bar_ND;
    at beta = 0 that is p_D = 0, set without a solve. At beta = 1 it first
    clears S, the bare defaulters (no shocked outside assets and no outside
    liabilities) linked to no bank outside S, where the system is singular: S
    receives nothing, so banks that no bank of S pays pay 0 and the closed
    class left pays t v, with v its Perron vector and t = min p_bar / v (Rogers
    & Veraart 2013). A failed solve raises NonConvergence.
    """
    p = p_bar.copy()
    if beta == 1.0 and (S := D & (shocked_external == 0) & (external_liabilities == 0)).any():
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
    # Only b and A_dd live through the solve: at n = 1000, one more k-vector
    # or k x n block moved peak RSS by heap layout alone.
    b = beta * shocked_external[idx] + beta * (rows @ p - A_dd @ p[idx])
    del rows
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
    # Clip rounding only. Beyond the payments-increase check's bound, a payment
    # outside [0, p_bar] is a fault; a solvent bank in D would pay above p_bar.
    # The bound is computed only when the clip moved a value, which is rare.
    cap = p_bar[idx]
    p[idx] = clipped = sol.clip(0.0, cap)
    if (clipped != sol).any() and (np.abs(clipped - sol) > 1e-9 * np.maximum(1.0, cap)).any():
        raise NonConvergence("defaulters' payments left [0, p_bar]; internal fault")
    return p


def _run_clearing(network: LiabilityNetwork, rel: RelativeLiabilities, first: FirstRound,
                  beta: float) -> Trajectory:
    """Fictitious default algorithm shared by the EN and RV models.

    A bank defaults when its nominal resources Pi^T p + A^e(1-s) fall short
    of total obligations by more than SHORTFALL_TOL x max(1, p_bar), so that
    rounding in Pi^T p defaults no balanced bank; defaulters pay beta (A^e' + Pi^T p), others pay
    in full. EN is the beta = 1 special case.
    """
    p_bar, pi_T = rel.total_obligations, rel.pi_matrix.T
    ae = first.shocked_external_assets
    E0 = network.equity
    threshold, scale = network._clearing_bounds

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
        p = _solve_defaulter_payments(pi_T, p_bar, D, beta, ae,
                                      network.external_liabilities)  # a fresh array
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
    pay = np.array(payments)
    if (pay[1:] - pay[:-1] > 1e-9 * scale).any():
        raise NonConvergence("payments increased between sweeps; internal fault")
    return Trajectory(h=h_arr, payments=pay)


def _run_cascade(lb: np.ndarray, first: FirstRound, R: float, model: str) -> Trajectory:
    """One recursion for the threshold cascade (DC) and both DebtRanks (aDR, cDR):

    h(t+1) = min{1, h(t) + (1-R) l^b d(t)}, where d(t) is the distress passed on.
    DC and aDR pass each bank's h once, on entering the active state, h >= 1
    (defaulted) for DC and h > 0 (distressed) for aDR; they stop when no bank
    enters, by round n + 1. cDR passes every bank's increase h(t) - h(t-1),
    along all walks, and stops when no component grows by CDR_TOLERANCE, or
    after max(10 n, CDR_MAX_ROUNDS) rounds (cap_hit: flagged, not fatal).
    """
    n = lb.shape[0]
    h_rows = [np.zeros(n), first.h1]
    propagated = None if model == CDR else np.zeros(n, dtype=bool)
    loss_rate = 1.0 - R
    cap_hit = False
    for _ in range(max(10 * n, CDR_MAX_ROUNDS)):
        h = h_rows[-1]
        if model == CDR:
            d = h - h_rows[-2]
            if d.max(initial=0.0) < CDR_TOLERANCE:
                break
            passed_on = lb @ d
        else:
            active = (h >= 1.0 if model == DC else h > 0.0) & ~propagated
            if not active.any():
                break
            passed_on = lb[:, active] @ h[active]  # no n x k copy outlives the round
            propagated |= active
        h_rows.append(np.minimum(1.0, h + loss_rate * passed_on))
    else:
        cap_hit = True
    return Trajectory(h=np.array(h_rows), cap_hit=cap_hit)


def run_model(network: LiabilityNetwork, shock: ShockSpec,
              config: ModelConfig) -> Trajectory:
    """Run config.model on the network under the shock:

    - EN: the clearing-payment fixed point, with full recovery on liquidation;
    - RV: clearing with bankruptcy costs, defaulters paying a
      config.rv_beta-discounted value;
    - DC: threshold cascade, in which only defaulted banks transmit, once;
    - ADR: mark-to-market cascade, in which any distressed bank transmits, once;
    - CDR: distress propagated along all walks, including cycles.

    DC, ADR and CDR read config.exogenous_recovery_rate as R.

    Only here is a run fetched and stored, on the shock's FirstRound. The core
    calls come first even for a stored run: the bench pins their counts.
    """
    model = config.model
    clearing = model in (EN, RV)
    derived = relative_liabilities(network) if clearing else leverage_decomposition(network)
    first = apply_first_round(network, shock)
    key = (("clearing", 1.0 if model == EN else config.rv_beta) if clearing
           else (model, config.exogenous_recovery_rate))
    if key in first.runs:  # EN and RV(1) share one run
        return first.runs[key]
    run = (_run_clearing(network, derived, first, key[1]) if clearing
           else _run_cascade(derived.interbank_leverage, first, key[1], model))
    first.runs[key] = run
    return run
