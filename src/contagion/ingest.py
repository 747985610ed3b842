"""Quarterly balance-sheet panel ingestion and repair.

CSV schema (UTF-8, '.' decimal separator, empty cell = missing):
bank_id,quarter,total_equity,total_assets,interbank_assets,
interbank_liabilities,total_loans,impaired_loans,derivatives
with quarter formatted YYYY-Qn. Equity, total assets, and total loans are
interpolated directly; interbank and credit-quality fields are interpolated
on ratios to the relevant completed series, so that level jumps driven by
bank growth do not distort the filled values.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import (
    GapTooLong, InsufficientAnchors, NegativeDerived, NonFiniteField, ParseError, SchemaMismatch,
    UnknownQuarter,
)
from .reconstruct import Aggregates

SCHEMA = (
    "bank_id", "quarter", "total_equity", "total_assets", "interbank_assets",
    "interbank_liabilities", "total_loans", "impaired_loans", "derivatives",
)
VALUE_FIELDS = SCHEMA[2:]
DIRECT_FIELDS = ("total_equity", "total_assets", "total_loans")
# Filled on their ratios to, in order: equity, liabilities (total assets less
# equity), total loans and total assets, each as completed.
RATIO_FIELDS = ("interbank_assets", "interbank_liabilities", "impaired_loans",
                "derivatives")
MAX_GAP = 3
# The derived quantities to_aggregates requires non-negative, in the order a bank's
# first failure is reported; equity is held to build_network's test, which every member meets.
DERIVED_CHECKS = ("equity", "external_assets", "external_liabilities", "other",
                  "derivatives", "impaired_loans", "interbank_assets",
                  "interbank_liabilities")

_QUARTER_RE = re.compile(r"^\d{4}-Q[1-4]$")
_cells = attrgetter(*VALUE_FIELDS)  # a record's VALUE_FIELDS, in order


@dataclass(frozen=True)
class PanelRecord:
    bank_id: str
    quarter: str
    total_equity: float | None = None
    total_assets: float | None = None
    interbank_assets: float | None = None
    interbank_liabilities: float | None = None
    total_loans: float | None = None
    impaired_loans: float | None = None
    derivatives: float | None = None


@dataclass(frozen=True)
class Panel:
    records: tuple
    extrapolated: tuple = ()   # (bank_id, quarter, field) cells filled at a boundary

    @property
    def quarters(self) -> list:
        return sorted({r.quarter for r in self.records})

    @property
    def bank_ids(self) -> list:
        return sorted({r.bank_id for r in self.records})


def load_panel(path: str) -> Panel:
    """Parse a panel CSV; missing cells stay missing, never zero-filled.

    A cell that is not a finite number (including nan and inf) raises ParseError.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("empty file") from None
        names = tuple(h.strip() for h in header)
        if names != SCHEMA:
            missing, extra = set(SCHEMA) - set(names), set(names) - set(SCHEMA)
            if missing or extra:
                fault = f"missing {sorted(missing)}, unexpected {sorted(extra)}"
            else:  # the right names, so either shuffled or one of them twice
                fault = ("columns out of order" if len(names) == len(SCHEMA)
                         else "a column is repeated")
            raise SchemaMismatch(f"{fault}; expected {','.join(SCHEMA)}")
        records = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(SCHEMA):
                raise ParseError(lineno, f"expected {len(SCHEMA)} cells, got {len(row)}")
            bank_id, quarter = row[0].strip(), row[1].strip()
            if not bank_id:
                raise ParseError(lineno, "empty bank_id")
            if not _QUARTER_RE.match(quarter):
                raise ParseError(lineno, f"bad quarter {quarter!r} (want YYYY-Qn)")
            if (bank_id, quarter) in seen:
                raise ParseError(lineno, f"duplicate ({bank_id}, {quarter})")
            seen.add((bank_id, quarter))
            values = {}
            for name, cell in zip(VALUE_FIELDS, row[2:]):
                cell = cell.strip()
                if cell == "":
                    values[name] = None
                    continue
                try:
                    values[name] = float(cell)
                except ValueError:
                    raise ParseError(lineno, f"non-numeric {name}={cell!r}") from None
                if not math.isfinite(values[name]):
                    raise ParseError(lineno, f"non-finite {name}={cell!r}")
            records.append(PanelRecord(bank_id=bank_id, quarter=quarter, **values))
    records.sort(key=lambda r: (r.bank_id, r.quarter))
    return Panel(records=tuple(records))


def _interpolate(series: np.ndarray) -> np.ndarray:
    """Fill the NaN cells of each banks x quarters x fields series in place.

    Linear inside, constant at the boundaries, by one np.interp call per series
    with a missing cell. Returns the mask of the boundary-extrapolated cells.
    """
    obs = ~np.isnan(series)
    idx = np.arange(series.shape[1])
    for b, k in zip(*np.nonzero(~obs.all(axis=1))):
        series[b, :, k] = np.interp(idx, idx[obs[b, :, k]], series[b, obs[b, :, k], k])
    seen_before = np.logical_or.accumulate(obs, axis=1)
    return ~(seen_before & np.logical_or.accumulate(obs[:, ::-1], axis=1)[:, ::-1])


def interpolate_missing(panel: Panel, drop_failures: bool = False):
    """Fill missing cells per the documented rules.

    Returns (panel, issues): issues is a list of (bank_id, error) pairs and is
    only populated when drop_failures is set; otherwise the first failure
    raises. A bank's reported failure is that of its first failing field,
    direct fields first, then RATIO_FIELDS in order: a gap, else a cell that
    fills to a non-finite value (NonFiniteField). Cells filled by boundary
    extrapolation are listed in panel.extrapolated. Observed values are never
    modified.
    """
    banks, quarters = panel.bank_ids, panel.quarters
    vals = np.full((len(banks), len(quarters), len(VALUE_FIELDS)), np.nan)
    vals[np.searchsorted(banks, [r.bank_id for r in panel.records]),  # both sorted
         np.searchsorted(quarters, [r.quarter for r in panel.records])] = np.array(
        [_cells(r) for r in panel.records], dtype=float).reshape(-1, len(VALUE_FIELDS))
    direct = [VALUE_FIELDS.index(name) for name in DIRECT_FIELDS]
    ratio_of = [VALUE_FIELDS.index(name) for name in RATIO_FIELDS]

    observed = ~np.isnan(vals)
    anchored = observed.any(axis=1)
    # A gap is too long when MAX_GAP + 1 consecutive quarters add no observed cell.
    seen = np.pad(observed.cumsum(axis=1), ((0, 0), (1, 0), (0, 0)))
    too_long = (seen[:, MAX_GAP + 1:] == seen[:, :-MAX_GAP - 1]).any(axis=1)
    check_order = direct + ratio_of
    issues = []

    def fail(failing, error_of) -> np.ndarray:
        """Report each bank with a failing field, naming its first in
        check_order; the mask of the other banks."""
        for b in np.flatnonzero(failing.any(axis=1)):
            error = error_of(b, check_order[failing[b].argmax()])
            if not drop_failures:
                raise error
            issues.append((banks[b], error))
        return ~failing.any(axis=1)

    kept = fail((~anchored | too_long)[:, check_order], lambda b, k: (
        GapTooLong if anchored[b, k] else InsufficientAnchors)(banks[b], VALUE_FIELDS[k]))
    banks, vals, observed = [banks[b] for b in np.flatnonzero(kept)], vals[kept], observed[kept]

    filled, boundary = np.empty_like(vals), np.empty_like(observed)
    series = vals[..., direct]
    boundary[..., direct] = _interpolate(series)
    filled[..., direct] = series
    # Ratio fields are filled on num / den at observed cells, re-multiplied by
    # den; a non-positive den counts as 1 in the ratio and 0 in the fill.
    equity, assets, loans = (series[..., k] for k in range(len(DIRECT_FIELDS)))
    den = np.stack([equity, assets - equity, loans, assets], axis=-1)
    num, num_obs = vals[..., ratio_of], observed[..., ratio_of]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite fill fails below
        ratio = np.divide(num, np.where(den > 0, den, 1.0), out=np.full_like(num, np.nan),
                          where=num_obs)
        boundary[..., ratio_of] = _interpolate(ratio)
        filled[..., ratio_of] = np.where(num_obs, num, ratio * np.where(den > 0, den, 0.0))
    kept = fail(~np.isfinite(filled).all(axis=1)[:, check_order],
                lambda b, k: NonFiniteField(banks[b], VALUE_FIELDS[k]))
    banks, filled, boundary = [banks[b] for b in np.flatnonzero(kept)], filled[kept], boundary[kept]

    records = tuple(PanelRecord(bank, q, *row)
                    for bank, rows in zip(banks, filled.tolist())
                    for q, row in zip(quarters, rows))
    extrapolated = tuple((banks[b], quarters[t], VALUE_FIELDS[k])
                         for b, t, k in zip(*np.nonzero(boundary)))
    return Panel(records=records, extrapolated=extrapolated), issues


def to_aggregates(panel: Panel, quarter: str):
    """Aggregates for one quarter, dropping banks with impossible sheets.

    Returns (Aggregates, issues), issues listing (bank_id, error) for banks with
    a derived quantity out of range, the first of DERIVED_CHECKS that fails. A
    missing, nan or inf field raises NonFiniteField for the first such cell.
    """
    rows = [r for r in panel.records if r.quarter == quarter]
    if not rows:
        raise UnknownQuarter(f"no records for quarter {quarter}")
    vals = np.array([_cells(r) for r in rows], dtype=float)  # None -> nan
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        raise NonFiniteField(rows[bad[0, 0]].bank_id, VALUE_FIELDS[bad[0, 1]])
    equity, assets, ib_assets, ib_liabilities, _, impaired, derivatives = vals.T
    # An overflow gives -inf, or +inf past a negative cell: dropped below either way.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        external_assets = assets - ib_assets
        external_liabilities = (assets - equity) - ib_liabilities
        other = external_assets - derivatives - impaired
        no_equity = ~(equity > 0) | ~np.isfinite(assets / equity)
    negative = np.column_stack([  # DERIVED_CHECKS, in order
        no_equity,
        external_assets < 0,
        external_liabilities < 0,
        other < 0,
        derivatives < 0,
        impaired < 0,
        ib_assets < 0,
        ib_liabilities < 0,
    ])
    issues = [(rows[b].bank_id,
               NegativeDerived(rows[b].bank_id, DERIVED_CHECKS[negative[b].argmax()]))
              for b in np.flatnonzero(negative.any(axis=1))]
    kept = ~negative.any(axis=1)
    agg = Aggregates(
        bank_ids=tuple(r.bank_id for r, k in zip(rows, kept) if k),
        equity=equity[kept],
        interbank_assets=ib_assets[kept],
        interbank_liabilities=ib_liabilities[kept],
        external_assets_by_class=np.column_stack([derivatives, impaired, other])[kept],
    )
    return agg, issues


def _quarter_labels(n_quarters: int) -> list:
    return [f"{2010 + t // 4}-Q{t % 4 + 1}" for t in range(n_quarters)]


def synthesize_panel(n_banks: int, n_quarters: int, seed: int = 0,
                     missingness: float = 0.1) -> Panel:
    """Deterministic synthetic panel with heavy-tailed assets.

    Leverage (assets over equity) is drawn uniformly in [10, 30], interbank
    shares keep every bank's financial connectivity strictly inside (0, 1),
    and missingness is capped at runs of three consecutive quarters with the
    first and last quarters always observed.
    """
    if n_banks < 2:
        raise ValueError("need at least 2 banks")
    rng = np.random.default_rng(seed)
    quarters = _quarter_labels(n_quarters)
    records = []
    for b in range(n_banks):
        bank_id = f"B{b:03d}"
        assets0 = float(rng.lognormal(mean=10.0, sigma=1.2))
        leverage = rng.uniform(10.0, 30.0)
        growth = rng.normal(0.0, 0.01)
        ib_asset_share = rng.uniform(0.05, 0.20)
        ib_liab_share = rng.uniform(0.10, 0.60)
        loans_share = rng.uniform(0.30, 0.60)
        impaired_share = rng.uniform(0.01, 0.30)
        deriv_share = rng.uniform(0.02, 0.15)
        miss = {name: _missing_mask(rng, n_quarters, missingness)
                for name in VALUE_FIELDS}
        for t, q in enumerate(quarters):
            assets = assets0 * (1.0 + growth) ** t
            equity = assets / leverage
            liabilities = assets - equity
            values = {
                "total_equity": equity,
                "total_assets": assets,
                "interbank_assets": ib_asset_share * assets,
                "interbank_liabilities": ib_liab_share * liabilities,
                "total_loans": loans_share * assets,
                "impaired_loans": impaired_share * loans_share * assets,
                "derivatives": deriv_share * assets,
            }
            for name in VALUE_FIELDS:
                if miss[name][t]:
                    values[name] = None
            records.append(PanelRecord(bank_id=bank_id, quarter=q, **values))
    records.sort(key=lambda r: (r.bank_id, r.quarter))
    return Panel(records=tuple(records))


def _missing_mask(rng, n_quarters, rate):
    mask = np.zeros(n_quarters, dtype=bool)
    run = 0
    for t in range(1, n_quarters - 1):
        if run < MAX_GAP and rng.random() < rate:
            mask[t] = True
            run += 1
        else:
            run = 0
    return mask
