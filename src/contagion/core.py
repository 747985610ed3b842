"""Leverage-network data model: liability networks, leverages, shocks.

All monetary quantities are float64. A network copies its balance sheets
from any numeric array-likes into float64 arrays, which it checks and makes
read-only when it is constructed, however it is made; build_network only
constructs one. A network also keeps what it derives from them and its last
first round, on which models.run_model alone fetches and stores the model
runs; a kept value is what recomputing would give, so no result depends on
what is kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IdentityViolation,
    NegativeBalance,
    NegativeEntry,
    NonPositiveEquity,
)

IDENTITY_RTOL = 1e-6
SHORTFALL_TOL = 1e-12  # clearing: a shortfall up to this x max(1, p_bar) is rounding, not default

DEFAULT_ASSET_CLASSES = ("derivatives", "impaired_loans", "other")


def _freeze_arrays(obj) -> None:
    """Mark every array field of a dataclass instance read-only. Called from
    __post_init__, when the instance's attributes are its fields."""
    for value in vars(obj).values():  # half the cost of dataclasses.fields per trajectory
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True, eq=False)
class LiabilityNetwork:
    """System state at t=0: nominal liability matrix plus per-bank book values.

    liabilities[i, j] is the nominal liability of bank i to bank j. equity and
    external_liabilities are n-vectors indexed like its rows, and
    external_assets_by_class is n x m, with one column per asset class. The
    three totals that are sums of these are derived at construction:
    external_assets (A^e, the row sums of external_assets_by_class),
    interbank_assets (A^b_i = sum_j L_ji, the column sums of liabilities) and
    interbank_liabilities (L^b_i = sum_j L_ij, its row sums). Every array is
    read-only. The leverages, the relative liabilities, the equity weights and
    the clearing's shortfall threshold and scale are derived on first use and
    kept, read-only as well; so is the last first round, with its shock and
    the model runs made from it, until another shock object replaces it.
    Networks compare by identity.

    The four given fields may be any numeric array-likes. Construction, direct
    or through build_network or dataclasses.replace, checks float64 copies of
    them and leaves the caller's arrays writeable. It rejects mismatched
    dimensions, negative entries, self-exposure, non-positive equity (or so
    little that assets / equity overflows), negative external assets or
    liabilities (NegativeBalance) and balance sheets violating
    E = A^e + A^b - L^e - L^b; NaN and infinite entries fail the same checks.
    When several banks are faulty the error names the lowest-index one.
    """

    liabilities: np.ndarray
    equity: np.ndarray
    external_assets_by_class: np.ndarray
    external_liabilities: np.ndarray
    external_assets: np.ndarray = field(init=False)
    interbank_assets: np.ndarray = field(init=False)
    interbank_liabilities: np.ndarray = field(init=False)

    def __post_init__(self):
        # Order 'K' keeps an F-ordered L F-ordered, and so the order of its margin sums.
        for name in ("liabilities", "equity", "external_assets_by_class", "external_liabilities"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        L, E = self.liabilities, self.equity
        ae_by_class, le = self.external_assets_by_class, self.external_liabilities
        n = E.size
        if L.shape != (n, n):
            raise DimensionMismatch(f"liability matrix is {L.shape}, expected ({n}, {n})")
        if (any(v.shape != (n,) for v in (E, le))
                or ae_by_class.ndim != 2 or ae_by_class.shape[0] != n):
            raise DimensionMismatch(f"balance-sheet arrays must have {n} rows")
        # Each check is written so that NaN fails it. An infinite entry would make
        # the tolerances below infinite, so finiteness is checked explicitly. The
        # faulty entry named is the first in row-major order, whatever L's layout.
        valid = np.isfinite(L) & (L >= 0)
        if not valid.all():
            i, j = np.argwhere(~valid)[0]
            raise NegativeEntry(int(i), int(j))
        if np.diag(L).any():
            i = int(np.flatnonzero(np.diag(L))[0])
            raise NegativeEntry(i, i)
        # Finite entries can sum past the largest float to inf, and inf - inf
        # gives NaN; the sheet checks below fail both.
        with np.errstate(over="ignore"):
            ae, ab, lb = ae_by_class.sum(axis=1), L.sum(axis=0), L.sum(axis=1)
        object.__setattr__(self, "external_assets", ae)
        object.__setattr__(self, "interbank_assets", ab)
        object.__setattr__(self, "interbank_liabilities", lb)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total_assets = ae + ab
            resid = E - (total_assets - le - lb)
            finite = np.isfinite(E) & np.isfinite(total_assets) & np.isfinite(le) & np.isfinite(lb)
            no_equity = ~(E > 0) | (finite & ~np.isfinite(total_assets / E))
        bad_ae = ~np.all(np.isfinite(ae_by_class) & (ae_by_class >= 0), axis=1)
        bad_le = ~(np.isfinite(le) & (le >= 0))
        bad_sheet = (no_equity | bad_ae | bad_le | ~finite
                     | ~(np.abs(resid) <= IDENTITY_RTOL * np.maximum(1.0, total_assets)))
        if bad_sheet.any():
            i = int(np.argmax(bad_sheet))
            if no_equity[i]:
                raise NonPositiveEquity(i)
            if bad_ae[i] or bad_le[i]:
                raise NegativeBalance(i, "external_assets_by_class" if bad_ae[i]
                                      else "external_liabilities")
            raise IdentityViolation(i, float(resid[i]))
        _freeze_arrays(self)
        # One (shock, FirstRound) pair: no reader can match a shock to another's round.
        object.__setattr__(self, "_first_round", (None, None))

    @property
    def n(self) -> int:
        return self.liabilities.shape[0]

    @cached_property
    def _leverages(self) -> LeverageDecomposition:
        E = self.equity
        ext = self.external_assets_by_class / E[:, None]
        return LeverageDecomposition(
            external_leverage=ext,
            external_leverage_total=ext.sum(axis=1),
            interbank_leverage=self.liabilities.T / E[:, None],
        )

    @cached_property
    def _relative(self) -> RelativeLiabilities:
        p_bar = self.interbank_liabilities + self.external_liabilities
        pi = np.zeros_like(self.liabilities)
        nz = p_bar > 0
        pi[nz] = self.liabilities[nz] / p_bar[nz, None]
        return RelativeLiabilities(total_obligations=p_bar, pi_matrix=pi)

    @cached_property
    def _clearing_bounds(self) -> np.ndarray:
        """Rows (threshold, scale): a bank whose resources fall below
        p_bar - SHORTFALL_TOL x scale defaults, with scale = max(1, p_bar)."""
        scale = np.maximum(1.0, self._relative.total_obligations)
        bounds = np.array([self._relative.total_obligations - SHORTFALL_TOL * scale, scale])
        bounds.setflags(write=False)
        return bounds

    @cached_property
    def equity_weights(self) -> np.ndarray:
        """E_i / sum E, the weights of the global vulnerability H."""
        w = self.equity / self.equity.sum()
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class LeverageDecomposition:
    external_leverage: np.ndarray        # n x m, per asset class
    external_leverage_total: np.ndarray  # n, its row sums
    interbank_leverage: np.ndarray       # n x n, claim of i on j over E_i

    def __post_init__(self):
        _freeze_arrays(self)


@dataclass(frozen=True)
class RelativeLiabilities:
    total_obligations: np.ndarray   # p_bar
    pi_matrix: np.ndarray           # row-substochastic relative liabilities

    def __post_init__(self):
        _freeze_arrays(self)


@dataclass(frozen=True, eq=False)
class ShockSpec:
    """Relative write-downs on external assets at t=1.

    Exactly one of per_class_shock / per_bank_shock must be given; components
    lie in [0, 1]. The given vector is stored as a read-only float copy.
    Shocks compare by identity.
    """

    per_class_shock: np.ndarray | None = None
    per_bank_shock: np.ndarray | None = None

    def __post_init__(self):
        if (self.per_class_shock is None) == (self.per_bank_shock is None):
            raise ValueError("give exactly one of per_class_shock or per_bank_shock")
        name = "per_class_shock" if self.per_class_shock is not None else "per_bank_shock"
        vec = np.array(getattr(self, name), dtype=float)
        if not np.all((vec >= 0) & (vec <= 1)):  # NaN fails too
            raise ValueError("shock components must lie in [0, 1]")
        vec.setflags(write=False)
        object.__setattr__(self, name, vec)

    @staticmethod
    def uniform(s: float) -> "ShockSpec":
        return ShockSpec(per_bank_shock=np.array([float(s)]))

    @staticmethod
    def on_bank(i: int, s: float, n: int) -> "ShockSpec":
        if not 0 <= i < n:  # a negative index would wrap to another bank
            raise ValueError(f"bank index {i} outside [0, {n})")
        vec = np.zeros(n)
        vec[i] = s
        return ShockSpec(per_bank_shock=vec)

    @staticmethod
    def on_class(name: str, s: float) -> "ShockSpec":
        if name not in DEFAULT_ASSET_CLASSES:
            raise ValueError(f"asset class {name!r} not in {DEFAULT_ASSET_CLASSES}")
        vec = np.zeros(len(DEFAULT_ASSET_CLASSES))
        vec[DEFAULT_ASSET_CLASSES.index(name)] = s
        return ShockSpec(per_class_shock=vec)

    def effective_per_bank(self, network: LiabilityNetwork) -> np.ndarray:
        """Relative shock on each bank's total external assets."""
        if self.per_bank_shock is not None:
            s = self.per_bank_shock
            if s.size == 1:
                return np.full(network.n, s.item())
            if s.size != network.n:
                raise DimensionMismatch(f"per-bank shock has size {s.size}, expected {network.n}")
            return s.copy()
        s_k = self.per_class_shock
        by_class = network.external_assets_by_class
        if s_k.size != by_class.shape[1]:
            raise DimensionMismatch(
                f"per-class shock has size {s_k.size}, expected {by_class.shape[1]}")
        totals = network.external_assets
        loss = by_class @ s_k
        out = np.zeros(network.n)
        nz = totals > 0
        out[nz] = loss[nz] / totals[nz]
        return out


@dataclass(frozen=True)
class FirstRound:
    shocked_external_assets: np.ndarray  # A^e_i (1 - s_i)
    h1: np.ndarray                       # min{1, l^e_i s_i}
    # The model runs made from this round: ("clearing", beta) or (model, R) -> Trajectory.
    runs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        _freeze_arrays(self)


def build_network(liability_matrix, equity, external_assets_by_class,
                  external_liabilities) -> LiabilityNetwork:
    """Construct a LiabilityNetwork, which copies and checks the inputs."""
    return LiabilityNetwork(liability_matrix, equity, external_assets_by_class,
                            external_liabilities)


def network_from_vectors(external_assets, external_liabilities, liability_matrix,
                         equity=None) -> LiabilityNetwork:
    """Single-asset-class constructor.

    If equity is omitted it is computed from the balance sheet identity.
    """
    L, ae, le = (np.asarray(a, dtype=float)
                 for a in (liability_matrix, external_assets, external_liabilities))
    if equity is None:
        equity = ae + L.sum(axis=0) - le - L.sum(axis=1)
    return build_network(L, equity, ae[:, None], le)


def leverage_decomposition(network: LiabilityNetwork) -> LeverageDecomposition:
    """External and interbank leverages; computed once per network."""
    return network._leverages


def relative_liabilities(network: LiabilityNetwork) -> RelativeLiabilities:
    """p_bar and Pi; computed once per network."""
    return network._relative


def apply_first_round(network: LiabilityNetwork, shock: ShockSpec) -> FirstRound:
    """Shock external assets and return the first-round vulnerabilities.

    h_i(1) = min{1, l^e_i s_i}, with per-class shocks aggregated as
    sum_k l^e_ik s_k. The network keeps the last first round, read-only: a
    repeat call with the same shock object returns it, with the runs stored on
    it; another shock object replaces it.
    """
    lev = leverage_decomposition(network)
    last_shock, first = network._first_round
    if last_shock is shock:
        return first
    s = shock.effective_per_bank(network)
    if shock.per_class_shock is not None:
        raw = lev.external_leverage @ shock.per_class_shock
    else:
        raw = lev.external_leverage_total * s
    first = FirstRound(shocked_external_assets=network.external_assets * (1.0 - s),
                       h1=np.minimum(1.0, raw))
    object.__setattr__(network, "_first_round", (shock, first))
    return first
