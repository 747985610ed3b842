import hashlib
from dataclasses import replace

import numpy as np
import pytest

from contagion import ingest
from contagion.errors import (
    DuplicateRecord, GapTooLong, InsufficientAnchors, NegativeDerived, NonFiniteField, ParseError,
    SchemaMismatch, UnknownQuarter,
)
from contagion.ingest import (
    SCHEMA, VALUE_FIELDS, Panel, PanelRecord, interpolate_missing, load_panel,
    synthesize_panel, to_aggregates,
)

HEADER = ",".join(SCHEMA)


def synthesize(monkeypatch, missingness, **kwargs):
    """synthesize_panel(**kwargs) with cells missing at the given rate."""
    monkeypatch.setattr(ingest, "SYNTHETIC_MISSINGNESS", missingness)
    return synthesize_panel(**kwargs)


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def record(bank, quarter, **kw):
    return PanelRecord(bank_id=bank, quarter=quarter, **kw)


def full_record(bank, quarter, equity=10.0, assets=200.0, ib_a=20.0, ib_l=30.0,
                loans=80.0, impaired=8.0, deriv=12.0):
    return PanelRecord(bank, quarter, equity, assets, ib_a, ib_l, loans,
                       impaired, deriv)


# --- loading --------------------------------------------------------------

def test_load_panel_roundtrip(tmp_path):
    path = write_csv(tmp_path, [
        "A,2020-Q1,10,200,20,30,80,8,12",
        "A,2020-Q2,11,210,,31,81,8.5,12.5",
        "B,2020-Q1,5,100,10,15,40,4,6",
    ])
    panel = load_panel(path)
    assert panel.bank_ids == ["A", "B"]
    assert panel.quarters == ["2020-Q1", "2020-Q2"]
    a_q2 = [r for r in panel.records if r.bank_id == "A"][1]
    assert a_q2.interbank_assets is None  # empty cell stays missing
    assert a_q2.total_equity == 11.0


def test_load_panel_bad_header(tmp_path):
    path = write_csv(tmp_path, ["A,2020-Q1,1,2,3,4,5,6,7"],
                     header=HEADER.replace("derivatives", "derivs"))
    with pytest.raises(SchemaMismatch):
        load_panel(path)


@pytest.mark.parametrize("header, fault", [
    (",".join((SCHEMA[1], SCHEMA[0]) + SCHEMA[2:]), "columns out of order"),
    (HEADER + ",derivatives", "a column is repeated"),
], ids=["swapped", "repeated"])
def test_load_panel_names_a_header_with_the_right_names_but_wrong_layout(
        tmp_path, header, fault):
    path = write_csv(tmp_path, ["A,2020-Q1,1,2,3,4,5,6,7"], header=header)
    with pytest.raises(SchemaMismatch) as exc:
        load_panel(path)
    assert str(exc.value) == f"CSV schema mismatch: {fault}; expected {HEADER}"


def test_load_panel_bad_quarter(tmp_path):
    path = write_csv(tmp_path, ["A,2020Q1,10,200,20,30,80,8,12"])
    with pytest.raises(ParseError) as exc:
        load_panel(path)
    assert exc.value.row == 2


def test_load_panel_duplicate(tmp_path):
    path = write_csv(tmp_path, [
        "A,2020-Q1,10,200,20,30,80,8,12",
        "A,2020-Q1,10,200,20,30,80,8,12",
    ])
    with pytest.raises(ParseError) as exc:  # the file's line, before the panel's check
        load_panel(path)
    assert exc.value.row == 3


def test_a_panel_rejects_a_repeated_bank_and_quarter():
    # Accepted, such a panel would reach interpolate_missing, which keeps the
    # last of the two A records, and to_aggregates, which lists bank A twice.
    records = (full_record("A", "2010-Q1"), full_record("B", "2010-Q1"),
               full_record("A", "2010-Q1", equity=11.0))
    with pytest.raises(DuplicateRecord) as exc:
        Panel(records=records)
    assert (exc.value.bank, exc.value.quarter) == ("A", "2010-Q1")
    assert str(exc.value) == "bank A has more than one record for quarter 2010-Q1"


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte_order_mark"])
def test_load_panel_reads_utf8_with_or_without_a_byte_order_mark(tmp_path, mark):
    # Spreadsheet exports often start a UTF-8 file with a byte-order mark.
    path = tmp_path / "panel.csv"
    path.write_bytes(mark + f"{HEADER}\nA,2020-Q1,10,200,20,30,80,8,12\n".encode())
    assert load_panel(str(path)).records == (full_record("A", "2020-Q1"),)


def test_load_panel_non_numeric(tmp_path):
    path = write_csv(tmp_path, ["A,2020-Q1,ten,200,20,30,80,8,12"])
    with pytest.raises(ParseError):
        load_panel(path)


def test_load_panel_wrong_cell_count(tmp_path):
    path = write_csv(tmp_path, ["A,2020-Q1,10,200"])
    with pytest.raises(ParseError):
        load_panel(path)


def test_load_panel_rejects_an_empty_file(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("")
    with pytest.raises(SchemaMismatch, match="empty file"):
        load_panel(str(path))


def test_load_panel_skips_blank_rows(tmp_path):
    # Neither an empty line nor a line of blank cells is a record.
    path = write_csv(tmp_path, ["A,2020-Q1,10,200,20,30,80,8,12", "", " , ,,,,,,,",
                                "A,2020-Q2,11,210,21,31,81,8,12"])
    assert [r.quarter for r in load_panel(path).records] == ["2020-Q1", "2020-Q2"]


def test_load_panel_rejects_an_empty_bank_id(tmp_path):
    path = write_csv(tmp_path, ["A,2020-Q1,10,200,20,30,80,8,12",
                                " ,2020-Q2,10,200,20,30,80,8,12"])
    with pytest.raises(ParseError, match="empty bank_id") as exc:
        load_panel(path)
    assert exc.value.row == 3


@pytest.mark.parametrize("cells, field", [
    ("nan,200,20,30,80,8,12", "total_equity"),
    ("10,inf,20,30,80,8,12", "total_assets"),
    ("10,200,20,30,80,8,-Infinity", "derivatives"),
])
def test_load_panel_rejects_non_finite(tmp_path, cells, field):
    # float() accepts these spellings; a NaN cell would otherwise be filled as
    # if it were missing, and an infinite one would reach the aggregates.
    path = write_csv(tmp_path, ["A,2020-Q1,10,200,20,30,80,8,12", "A,2020-Q2," + cells])
    with pytest.raises(ParseError, match=field) as exc:
        load_panel(path)
    assert exc.value.row == 3


# --- interpolation --------------------------------------------------------

def quarters3():
    return ["2020-Q1", "2020-Q2", "2020-Q3"]


def test_direct_interpolation_midpoint():
    q1, q2, q3 = quarters3()
    panel = Panel(records=(
        full_record("A", q1, equity=10.0),
        full_record("A", q2, equity=None),
        full_record("A", q3, equity=14.0),
    ))
    out, _ = interpolate_missing(panel)
    assert out.records[1].total_equity == pytest.approx(12.0)
    assert out.extrapolated == ()


def test_ratio_interpolation_tracks_equity():
    # interbank assets filled on the ratio to equity: leverages 2.0 and 3.0
    # bracket a missing quarter with equity 10, so the fill is 2.5 * 10 = 25,
    # not the level midpoint 27.5
    q1, q2, q3 = quarters3()
    panel = Panel(records=(
        full_record("A", q1, equity=10.0, ib_a=20.0),
        full_record("A", q2, equity=10.0, ib_a=None),
        full_record("A", q3, equity=10.0, ib_a=30.0),
    ))
    out, _ = interpolate_missing(panel)
    assert out.records[1].interbank_assets == pytest.approx(25.0)


def test_boundary_extrapolation_flagged():
    q1, q2, q3 = quarters3()
    panel = Panel(records=(
        full_record("A", q1, loans=None),
        full_record("A", q2, loans=80.0),
        full_record("A", q3, loans=90.0),
    ))
    out, _ = interpolate_missing(panel)
    assert out.records[0].total_loans == pytest.approx(80.0)
    assert ("A", q1, "total_loans") in out.extrapolated


def test_gap_too_long():
    qs = [f"2020-Q{i}" for i in range(1, 5)] + ["2021-Q1", "2021-Q2"]
    recs = [full_record("A", q, loans=None) for q in qs]
    recs[0] = full_record("A", qs[0], loans=80.0)
    recs[-1] = full_record("A", qs[-1], loans=90.0)  # 4 missing in a row
    with pytest.raises(GapTooLong):
        interpolate_missing(Panel(records=tuple(recs)))


def test_gap_of_three_is_filled():
    qs = ["2020-Q1", "2020-Q2", "2020-Q3", "2020-Q4", "2021-Q1"]
    recs = [full_record("A", q, loans=None) for q in qs]
    recs[0] = full_record("A", qs[0], loans=80.0)
    recs[-1] = full_record("A", qs[-1], loans=100.0)
    out, _ = interpolate_missing(Panel(records=tuple(recs)))
    loans = [r.total_loans for r in out.records]
    assert loans == pytest.approx([80.0, 85.0, 90.0, 95.0, 100.0])


def test_insufficient_anchors():
    panel = Panel(records=(
        full_record("A", "2020-Q1", equity=None),
        full_record("A", "2020-Q2", equity=None),
    ))
    with pytest.raises(InsufficientAnchors):
        interpolate_missing(panel)


def test_drop_failures_collects_issues():
    panel = Panel(records=(
        full_record("A", "2020-Q1", equity=None),
        full_record("A", "2020-Q2", equity=None),
        full_record("B", "2020-Q1"),
        full_record("B", "2020-Q2"),
    ))
    out, issues = interpolate_missing(panel, drop_failures=True)
    assert out.bank_ids == ["B"]
    assert len(issues) == 1 and issues[0][0] == "A"


def test_a_fill_that_overflows_fails_its_bank():
    # interbank_assets is filled on its ratio to equity, 20 / 5e-324 in 2020-Q1.
    panel = Panel(records=(
        full_record("A", "2020-Q1", equity=5e-324),
        full_record("A", "2020-Q2", ib_a=None),
        full_record("A", "2020-Q3"),
        full_record("B", "2020-Q1"),
        full_record("B", "2020-Q2"),
        full_record("B", "2020-Q3"),
    ))
    with pytest.raises(NonFiniteField, match="bank A: field interbank_assets"):
        interpolate_missing(panel)
    out, issues = interpolate_missing(panel, drop_failures=True)
    assert out.bank_ids == ["B"]
    assert [(bank, type(err), err.field) for bank, err in issues] == [
        ("A", NonFiniteField, "interbank_assets")]


def test_observed_cells_never_modified(monkeypatch):
    panel = synthesize(monkeypatch, 0.3, n_banks=8, n_quarters=8, seed=1)
    out, _ = interpolate_missing(panel)
    # both panels hold one record per (bank, quarter), sorted by that pair
    for r_in, r_out in zip(panel.records, out.records, strict=True):
        assert (r_in.bank_id, r_in.quarter) == (r_out.bank_id, r_out.quarter)
        for name in SCHEMA[2:]:
            v = getattr(r_in, name)
            if v is not None:
                assert getattr(r_out, name) == v


def test_interpolation_idempotent(monkeypatch):
    panel = synthesize(monkeypatch, 0.3, n_banks=6, n_quarters=8, seed=2)
    once, _ = interpolate_missing(panel)
    twice, _ = interpolate_missing(once)
    for a, b in zip(once.records, twice.records):
        assert a == b


def test_no_missingness_is_identity(monkeypatch):
    panel = synthesize(monkeypatch, 0.0, n_banks=5, n_quarters=6, seed=3)
    out, _ = interpolate_missing(panel)
    assert out.records == panel.records
    assert out.extrapolated == ()


def records_digest(panel):
    """sha256 of every record, its floats written exactly by float.hex()."""
    h = hashlib.sha256()
    for r in panel.records:
        cells = [r.bank_id, r.quarter] + [getattr(r, name).hex() for name in VALUE_FIELDS]
        h.update((",".join(cells) + "\n").encode())
    return h.hexdigest()


def cells_digest(cells):
    return hashlib.sha256("\n".join(",".join(c) for c in cells).encode()).hexdigest()


def failing_panel(monkeypatch):
    """Twelve banks, five of which fail: one for each rule that picks the
    failure reported for a bank (anchors before gaps, direct fields first,
    then the ratio fields in plan order, absent records counted as missing).
    Two banks lack their first or last record, which is filled at the boundary,
    and one has a negative equity where its interbank assets are missing."""
    base = synthesize(monkeypatch, 0.4, n_banks=12, n_quarters=8, seed=5)
    qs = base.quarters
    cuts = (  # (bank, field, quarters made missing)
        ("B001", "total_equity", qs),
        ("B003", "interbank_liabilities", qs[1:5]),
        ("B004", "derivatives", qs),
        ("B004", "total_loans", qs[2:6]),
        ("B006", "impaired_loans", qs),
        ("B006", "total_assets", qs[1:5]),
    )
    records = []
    for r in base.records:
        if (r.bank_id == "B008" and r.quarter in qs[2:6]
                or r.bank_id == "B010" and r.quarter == qs[0]
                or r.bank_id == "B011" and r.quarter == qs[-1]):
            continue
        if r.bank_id == "B002" and r.quarter == qs[3]:
            r = replace(r, total_equity=-5.0, interbank_assets=None)
        records.append(replace(r, **{field: None for bank, field, quarters in cuts
                                     if r.bank_id == bank and r.quarter in quarters}))
    return Panel(records=tuple(records))


# Recorded from the per-bank implementation that the array-based fill replaced.
PINNED_FILL = {
    "records": "7d426c42f840e443c33ea09af0b94a8cc44b43b8776c4af5d5f13a363022ef32",
    "extrapolated": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
PINNED_FAILING_FILL = {
    "records": "4716c089a2028d4b7d921ec1394ca2bebba320177b5e7471aa0686783bb190a8",
    "extrapolated": (21, "131a6f5b5037d8554a44a8bcb69fc7f8fc1dc24244b42f24d6d634dfef384053"),
    "issues": [
        ("B001", "InsufficientAnchors",
         "bank B001, field total_equity: no observed values to interpolate from"),
        ("B003", "GapTooLong",
         "bank B003, field interbank_liabilities: more than 3 consecutive missing quarters"),
        ("B004", "GapTooLong",
         "bank B004, field total_loans: more than 3 consecutive missing quarters"),
        ("B006", "GapTooLong",
         "bank B006, field total_assets: more than 3 consecutive missing quarters"),
        ("B008", "GapTooLong",
         "bank B008, field total_equity: more than 3 consecutive missing quarters"),
    ],
}


def test_interpolation_pinned_bits(monkeypatch):
    out, issues = interpolate_missing(
        synthesize(monkeypatch, 0.6, n_banks=200, n_quarters=8, seed=2))
    assert issues == []
    assert records_digest(out) == PINNED_FILL["records"]
    assert (len(out.extrapolated), cells_digest(out.extrapolated)) == PINNED_FILL["extrapolated"]


def test_interpolation_failures_pinned(monkeypatch):
    panel = failing_panel(monkeypatch)
    out, issues = interpolate_missing(panel, drop_failures=True)
    assert [(bank, type(exc).__name__, str(exc)) for bank, exc in issues] == \
        PINNED_FAILING_FILL["issues"]
    assert records_digest(out) == PINNED_FAILING_FILL["records"]
    assert (len(out.extrapolated), cells_digest(out.extrapolated)) == \
        PINNED_FAILING_FILL["extrapolated"]
    with pytest.raises(InsufficientAnchors, match="bank B001, field total_equity"):
        interpolate_missing(panel)


# --- aggregation ----------------------------------------------------------

def test_to_aggregates_values():
    # A^e = 100 - 15 = 85, liabilities = 95, L^e = 95 - 30 = 65
    panel = Panel(records=(
        PanelRecord("A", "2020-Q1", 5.0, 100.0, 15.0, 30.0, 40.0, 4.0, 6.0),
    ))
    agg, issues = to_aggregates(panel, "2020-Q1")
    assert issues == []
    assert agg.bank_ids == ("A",)
    assert agg.equity[0] == 5.0
    assert agg.interbank_assets[0] == 15.0
    assert agg.interbank_liabilities[0] == 30.0
    # classes: derivatives, impaired loans, everything else
    assert np.allclose(agg.external_assets_by_class[0], [6.0, 4.0, 75.0])
    assert agg.external_assets_by_class[0].sum() == pytest.approx(85.0)


def test_to_aggregates_unknown_quarter():
    panel = Panel(records=(full_record("A", "2020-Q1"),))
    with pytest.raises(UnknownQuarter, match="^no records for quarter 2021-Q1$"):
        to_aggregates(panel, "2021-Q1")


def test_to_aggregates_drops_negative_derived():
    # derivatives exceed external assets -> "other" goes negative
    bad = PanelRecord("A", "2020-Q1", 5.0, 100.0, 15.0, 30.0, 40.0, 4.0, 90.0)
    good = full_record("B", "2020-Q1")
    agg, issues = to_aggregates(Panel(records=(bad, good)), "2020-Q1")
    assert agg.bank_ids == ("B",)
    assert len(issues) == 1
    assert isinstance(issues[0][1], NegativeDerived)


def test_to_aggregates_drops_nonpositive_equity():
    bad = PanelRecord("A", "2020-Q1", 0.0, 100.0, 15.0, 30.0, 40.0, 4.0, 6.0)
    agg, issues = to_aggregates(Panel(records=(bad, full_record("B", "2020-Q1"))),
                                "2020-Q1")
    assert agg.bank_ids == ("B",)
    assert len(issues) == 1


def test_to_aggregates_matches_per_record_loop():
    # Reference: the per-record loop to_aggregates replaced. Every derived
    # check fails on some bank, so each reason and the order of the issues
    # are compared too; the arrays must be bit-identical.
    panel, _ = interpolate_missing(synthesize_panel(30, 2, seed=5))
    records = list(panel.records)
    for k, (name, scale) in enumerate([("total_equity", -1.0), ("total_assets", 0.05),
                                       ("total_equity", 20.0), ("derivatives", 50.0),
                                       ("derivatives", -1.0), ("impaired_loans", -1.0),
                                       ("interbank_assets", -1.0),
                                       ("interbank_liabilities", -1.0)]):
        r = records[4 * k + 1]
        records[4 * k + 1] = replace(r, **{name: getattr(r, name) * scale})
    panel = Panel(records=tuple(records))
    quarter = panel.quarters[-1]
    kept, expected_issues = [], []
    for r in (r for r in panel.records if r.quarter == quarter):
        external_assets = r.total_assets - r.interbank_assets
        other = external_assets - r.derivatives - r.impaired_loans
        checks = (("equity", r.total_equity <= 0), ("external_assets", external_assets < 0),
                  ("external_liabilities",
                   r.total_assets - r.total_equity - r.interbank_liabilities < 0),
                  ("other", other < 0), ("derivatives", r.derivatives < 0),
                  ("impaired_loans", r.impaired_loans < 0),
                  ("interbank_assets", r.interbank_assets < 0),
                  ("interbank_liabilities", r.interbank_liabilities < 0))
        bad = next((name for name, failed in checks if failed), None)
        if bad is None:
            kept.append((r.bank_id, r.total_equity, r.interbank_assets,
                         r.interbank_liabilities, [r.derivatives, r.impaired_loans, other]))
        else:
            expected_issues.append((r.bank_id, bad))
    agg, issues = to_aggregates(panel, quarter)
    assert [(bank, err.field) for bank, err in issues] == expected_issues
    assert {name for _, name in expected_issues} == {
        "equity", "external_assets", "external_liabilities", "other", "derivatives",
        "impaired_loans", "interbank_assets", "interbank_liabilities"}
    ids, equity, ib_a, ib_l, by_class = zip(*kept)
    assert agg.bank_ids == ids
    for got, want in ((agg.equity, equity), (agg.interbank_assets, ib_a),
                      (agg.interbank_liabilities, ib_l),
                      (agg.external_assets_by_class, by_class)):
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("field, value", [("total_assets", np.inf),
                                          ("derivatives", np.nan),
                                          ("total_equity", None)])
def test_to_aggregates_rejects_non_finite_fields(field, value):
    # A Panel built in code skips load_panel's cell checks; unchecked, an
    # infinite total becomes an infinite "other" asset class. A missing cell
    # is reported as missing, not as a negative derived quantity.
    bad = replace(full_record("A", "2020-Q1"), **{field: value})
    with pytest.raises(NonFiniteField, match=f"bank A: field {field}") as err:
        to_aggregates(Panel(records=(full_record("B", "2020-Q1"), bad)), "2020-Q1")
    assert (err.value.bank, err.value.field) == ("A", field)


# --- synthesis ------------------------------------------------------------

def test_synthesize_deterministic():
    a = synthesize_panel(n_banks=10, n_quarters=6, seed=7)
    b = synthesize_panel(n_banks=10, n_quarters=6, seed=7)
    assert a.records == b.records
    c = synthesize_panel(n_banks=10, n_quarters=6, seed=8)
    assert a.records != c.records


def test_synthesize_endpoints_observed(monkeypatch):
    panel = synthesize(monkeypatch, 0.5, n_banks=10, n_quarters=8, seed=5)
    quarters = panel.quarters
    for bank in panel.bank_ids:
        recs = [r for r in panel.records if r.bank_id == bank]
        for r in (recs[0], recs[-1]):
            assert all(getattr(r, name) is not None for name in SCHEMA[2:])
        assert [r.quarter for r in recs] == quarters


def test_synthesize_connectivity_in_unit_interval(monkeypatch):
    panel = synthesize(monkeypatch, 0.0, n_banks=20, n_quarters=4, seed=9)
    out, _ = interpolate_missing(panel)
    agg, issues = to_aggregates(out, out.quarters[0])
    assert issues == []
    liabilities = []
    for r in [r for r in out.records if r.quarter == out.quarters[0]]:
        total_liab = r.total_assets - r.total_equity
        beta = r.interbank_liabilities / total_liab
        assert 0.0 < beta < 1.0


def test_synthesize_missing_runs_capped(monkeypatch):
    panel = synthesize(monkeypatch, 0.6, n_banks=15, n_quarters=12, seed=11)
    for bank in panel.bank_ids:
        recs = [r for r in panel.records if r.bank_id == bank]
        for name in SCHEMA[2:]:
            run = 0
            for r in recs:
                run = run + 1 if getattr(r, name) is None else 0
                assert run <= 3
    # then interpolation must succeed without error
    interpolate_missing(panel)


def test_synthetic_roundtrip_to_aggregates(monkeypatch):
    panel = synthesize(monkeypatch, 0.2, n_banks=12, n_quarters=6, seed=13)
    out, _ = interpolate_missing(panel)
    for q in out.quarters:
        agg, issues = to_aggregates(out, q)
        assert issues == []
        assert agg.n == 12
        assert np.all(agg.equity > 0)
        assert np.all(agg.external_assets_by_class >= 0)
