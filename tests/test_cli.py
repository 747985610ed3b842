import argparse
import json
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contagion import cli, sweeps
from contagion.cli import main
from contagion.ingest import SCHEMA, synthesize_panel

SWEEP_ARGS = ["--synthetic-banks", "40", "--synthetic-quarters", "4",
              "--ensemble-size", "5", "--seed", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_run_green(capsys):
    code, out, _ = run(capsys, "fixtures", "run")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 15


def test_ingest_validate(capsys, tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "bank_id,quarter,total_equity,total_assets,interbank_assets,"
        "interbank_liabilities,total_loans,impaired_loans,derivatives\n"
        "A,2020-Q1,10,200,20,30,80,8,12\n"
        "A,2020-Q2,11,210,,31,81,8.5,12.5\n"
        "B,2020-Q1,5,100,10,15,40,4,6\n"
        "B,2020-Q2,5,102,10,15,41,4,6\n")
    code, out, _ = run(capsys, "ingest", "validate", str(path))
    assert code == 0
    assert "2 banks usable" in out


def test_ingest_validate_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,panel\n1,2,3\n")
    code, _, err = run(capsys, "ingest", "validate", str(path))
    assert code == 2
    assert "error" in err


def test_ingest_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "validate", str(tmp_path / "nope.csv"))
    assert code == 2


PANEL_HEADER = ("bank_id,quarter,total_equity,total_assets,interbank_assets,"
                "interbank_liabilities,total_loans,impaired_loans,derivatives\n")


def panel_csv(records):
    """Panel records as CSV text under PANEL_HEADER; a missing cell is empty."""
    rows = ([getattr(r, k) for k in SCHEMA] for r in records)
    return PANEL_HEADER + "".join(",".join("" if v is None else str(v) for v in row) + "\n"
                                  for row in rows)


@pytest.mark.parametrize("rows", ["", "A,2020-Q1,,200,20,30,80,8,12\n"
                                      "A,2020-Q2,,210,20,31,81,8.5,12.5\n"],
                         ids=["header_only", "every_bank_dropped"])
@pytest.mark.parametrize("command", [["ingest", "validate"], ["reconstruct"],
                                     ["sweep", "shock"], ["sweep", "recovery"],
                                     ["run", "timeseries"]], ids=" ".join)
def test_panel_without_usable_records_exits_2(capsys, tmp_path, rows, command):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_HEADER + rows)
    args = [str(path)] if command[0] == "ingest" else [
        "--panel", str(path), "--out-dir", str(tmp_path / "out")]
    code, _, err = run(capsys, *command, *args)
    assert code == 2
    assert err == "error: the panel has no usable records\n"


@pytest.mark.parametrize("command", ["reconstruct", "ingest validate"])
def test_unknown_quarter_exits_2_with_a_plain_message(capsys, tmp_path, command):
    # The message is printed as raised, with no repr quotes around it.
    panel = tmp_path / "panel.csv"
    panel.write_text(PANEL_HEADER + "A,2020-Q1,10,200,20,30,80,8,12\n")
    argv = (["ingest", "validate", str(panel)] if command == "ingest validate"
            else ["reconstruct", *SWEEP_ARGS, "--out-dir", str(tmp_path / "out")])
    code, _, err = run(capsys, *argv, "--quarter", "2031-Q1")
    assert code == 2
    assert err == "error: no records for quarter 2031-Q1\n"
    assert not (tmp_path / "out").exists()


def negate_last_quarter(field):
    return lambda r: replace(r, **{field: -getattr(r, field)}) if r.quarter == "2010-Q3" else r


def overflow_the_fill(r):
    # interbank_assets is filled on its ratio to equity, which is 1344 / 5e-324
    # in 2010-Q1, so the fill in 2010-Q2 overflows.
    return {"2010-Q1": replace(r, total_equity=5e-324),
            "2010-Q2": replace(r, interbank_assets=None)}.get(r.quarter, r)


@pytest.mark.parametrize("edit, reason", [
    (negate_last_quarter("interbank_assets"), "derived quantity interbank_assets is negative"),
    (negate_last_quarter("interbank_liabilities"),
     "derived quantity interbank_liabilities is negative"),
    (overflow_the_fill, "field interbank_assets is not a finite number"),
], ids=["negative_interbank_assets", "negative_interbank_liabilities", "overflowing_fill"])
def test_a_bank_with_an_impossible_interbank_cell_is_dropped(capsys, tmp_path, edit, reason):
    # B000 of a synthetic panel gets the edit; it is dropped, with the reason,
    # and the other 29 banks reconstruct.
    path = tmp_path / "panel.csv"
    path.write_text(panel_csv([edit(r) if r.bank_id == "B000" else r
                               for r in synthesize_panel(30, 3, seed=0).records]))
    code, out, _ = run(capsys, "ingest", "validate", str(path))
    assert code == 0 and f"  B000: bank B000: {reason}\n" in out
    code, out, _ = run(capsys, "reconstruct", "--panel", str(path), "--ensemble-size", "5",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 0, out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["bank_ids"]) == 29 and "B000" not in manifest["bank_ids"]


def test_a_bank_whose_equity_is_too_small_for_its_assets_is_dropped(capsys, tmp_path):
    # B003's equity of 1e-320 is positive, but assets / equity overflows, so
    # build_network would reject it in every member; ingestion drops it instead.
    path = tmp_path / "panel.csv"
    path.write_text(panel_csv([replace(r, total_equity=1e-320) if r.bank_id == "B003" else r
                               for r in synthesize_panel(30, 4, seed=0).records]))
    code, out, _ = run(capsys, "ingest", "validate", str(path))
    assert code == 0
    assert ("  B003: bank B003: derived quantity equity is not positive, "
            "or too small for its assets\n") in out
    code, out, _ = run(capsys, "reconstruct", "--panel", str(path), "--ensemble-size", "5",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 0, out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["bank_ids"]) == 29 and "B003" not in manifest["bank_ids"]


@pytest.mark.parametrize("records", [
    synthesize_panel(3, 1, seed=1).records,
    [r for r in synthesize_panel(2, 1, seed=34).records if r.bank_id == "B000"],
], ids=["three_banks", "one_bank"])
def test_interbank_totals_that_underflow_when_rebalanced_exit_2(capsys, tmp_path, records):
    # Scaled to the liabilities' 5e-324 total, every interbank asset underflows to 0.
    path = tmp_path / "panel.csv"
    path.write_text(panel_csv([replace(r, interbank_liabilities=5e-324) for r in records]))
    code, _, err = run(capsys, "reconstruct", "--panel", str(path), "--out-dir", str(tmp_path))
    assert (code, err) == (2, "error: interbank totals must be positive on both sides\n")


def test_reconstruct_writes_ensemble(capsys, tmp_path):
    out_dir = tmp_path / "ens"
    code, out, _ = run(capsys, "reconstruct", *SWEEP_ARGS,
                       "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "edges.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert "emitted 5 networks" in out


def test_sweep_shock_smoke(capsys, tmp_path):
    out_dir = tmp_path / "sweep"
    code, out, _ = run(capsys, "sweep", "shock", *SWEEP_ARGS,
                       "--shock", "0.05,0.2", "--models", "EN,CDR",
                       "--out-dir", str(out_dir))
    assert code == 0
    csv_text = (out_dir / "shock_sweep.csv").read_text()
    assert "EN" in csv_text and "CDR" in csv_text


def test_sweep_shock_rerun_byte_identical(capsys, tmp_path):
    texts = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "sweep", "shock", *SWEEP_ARGS,
                         "--shock", "0.1", "--models", "EN",
                         "--out-dir", str(out_dir))
        assert code == 0
        texts.append((out_dir / "shock_sweep.csv").read_bytes())
    assert texts[0] == texts[1]


def test_sweep_recovery_smoke(capsys, tmp_path):
    out_dir = tmp_path / "rec"
    code, _, _ = run(capsys, "sweep", "recovery", *SWEEP_ARGS,
                     "--recovery", "0.0,0.5,1.0", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "recovery_sweep.csv").exists()
    # RV runs at beta = R, so the manifest records no beta of its own
    assert "rv_beta" not in json.loads((out_dir / "manifest.json").read_text())


def test_run_timeseries_smoke(capsys, tmp_path):
    out_dir = tmp_path / "ts"
    code, _, _ = run(capsys, "run", "timeseries", *SWEEP_ARGS,
                     "--synthetic-quarters", "3", "--models", "EN",
                     "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "run timeseries"
    assert (out_dir / "timeseries.csv").read_text().count("\n") > 3


def test_audit_ordering_smoke(capsys):
    code, out, _ = run(capsys, "audit", "ordering", "--count", "3")
    assert code == 0
    assert "proved chain OK" in out


def test_config_file_sets_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "ensemble_size = 5\n"
        "synthetic_banks = 40\n"
        "seed = 3\n"
        "shock = 0.1\n"
        "models = EN\n")
    out_a = tmp_path / "a"
    code, _, _ = run(capsys, "--config", str(cfg), "sweep", "shock",
                     "--out-dir", str(out_a))
    assert code == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["ensemble_size"] == 5
    assert manifest["shock"] == "0.1"
    # an explicit flag beats the file value
    out_b = tmp_path / "b"
    code, _, _ = run(capsys, "--config", str(cfg), "sweep", "shock",
                     "--shock", "0.2", "--out-dir", str(out_b))
    assert code == 0
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["shock"] == "0.2"


def test_config_file_missing(capsys, tmp_path):
    code, _, err = run(capsys, "--config", str(tmp_path / "none.cfg"),
                       "fixtures", "run")
    assert code == 2
    assert "config error" in err


def forbid_ensembles(monkeypatch):
    """Make any ensemble draw fail the test: bad sweep settings must exit first."""
    def draw(*args, **kwargs):
        raise AssertionError("generate_ensemble called")
    monkeypatch.setattr(cli, "generate_ensemble", draw)
    monkeypatch.setattr(sweeps, "generate_ensemble", draw)


def test_invalid_shock_grid(capsys, tmp_path, monkeypatch):
    forbid_ensembles(monkeypatch)
    for command in (["sweep", "shock"], ["run", "timeseries"]):
        code, _, err = run(capsys, *command, *SWEEP_ARGS,
                           "--shock", "1.5", "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "grid values must lie in [0, 1]" in err


def test_invalid_model_name(capsys, tmp_path, monkeypatch):
    forbid_ensembles(monkeypatch)
    for command in (["sweep", "shock"], ["run", "timeseries"]):
        code, _, err = run(capsys, *command, *SWEEP_ARGS,
                           "--models", "XX", "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "unknown models ['XX']" in err


def test_repeated_model_name(capsys, tmp_path, monkeypatch):
    forbid_ensembles(monkeypatch)
    for command in (["sweep", "shock"], ["sweep", "recovery"], ["run", "timeseries"]):
        code, _, err = run(capsys, *command, *SWEEP_ARGS,
                           "--models", "EN,en", "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "models must be non-empty, without repeats: ['EN', 'EN']" in err


def test_invalid_rv_beta(capsys, tmp_path, monkeypatch):
    forbid_ensembles(monkeypatch)
    for command in (["sweep", "shock"], ["run", "timeseries"]):
        code, _, err = run(capsys, *command, *SWEEP_ARGS,
                           "--rv-beta", "1.5", "--out-dir", str(tmp_path / "x"))
        assert code == 2
        assert "rv_beta must lie in [0, 1]" in err


ENSEMBLE_FLAGS = {"--seed", "--ensemble-size", "--density", "--out-dir", "--panel",
                  "--synthetic-banks", "--synthetic-quarters"}
SWEEP_FLAGS = {"--models", "--asset-class", "--shock", "--recovery"}
LEAF_FLAGS = {
    "ingest validate": {"--quarter"},
    "reconstruct": ENSEMBLE_FLAGS | {"--quarter"},
    "run timeseries": ENSEMBLE_FLAGS | SWEEP_FLAGS | {"--rv-beta"},
    "sweep shock": ENSEMBLE_FLAGS | SWEEP_FLAGS | {"--quarter", "--rv-beta"},
    "sweep recovery": ENSEMBLE_FLAGS | SWEEP_FLAGS | {"--quarter"},
    "audit ordering": {"--seed", "--count", "--shock", "--recovery", "--rv-beta"},
    "fixtures run": set(),
}


def leaf_flags(parser, path=()):
    """(command, its option flags but --help) for every leaf of the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_flags(sub, path + (name,))
            return
    yield " ".join(path), {flag for a in parser._actions for flag in a.option_strings
                           if flag not in ("-h", "--help")}


def test_each_command_defines_only_the_flags_it_reads():
    assert dict(leaf_flags(cli.build_parser())) == LEAF_FLAGS


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--shock", "0.1"],
    ["reconstruct", "--models", "XX", "--shock", "0.7", "--rv-beta", "0.3"],
    ["run", "timeseries", "--quarter", "2010-Q1"],
    ["sweep", "recovery", "--rv-beta", "0.3"],
    ["sweep", "shock", "--recovery", "0.3,0.9"],
    ["run", "timeseries", "--shock", "0.3,0.9"],
    ["run", "timeseries", "--recovery", "0.3,0.9"],
    ["audit", "ordering", "--shock", "0.3,0.9"],
    ["audit", "ordering", "--recovery", "0.3,0.9"],
], ids=lambda argv: " ".join(argv))
def test_flag_a_command_does_not_read_exits_2(tmp_path, monkeypatch, argv):
    """A removed flag, or a grid given to a one-value flag, exits 2 before
    any ensemble is drawn or any audit runs."""
    def audit(*args, **kwargs):
        raise AssertionError("ordering_audit called")
    forbid_ensembles(monkeypatch)
    monkeypatch.setattr(cli, "ordering_audit", audit)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_audit_count_exits_2(capsys, tmp_path, monkeypatch, source):
    """A negative count would audit no random network and still exit 0."""
    def audit(*args, **kwargs):
        raise AssertionError("ordering_audit called")
    monkeypatch.setattr(cli, "ordering_audit", audit)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = -3\n")
    argv = (["audit", "ordering", "--count", "-3"] if source == "flag"
            else ["--config", str(cfg), "audit", "ordering"])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: count must be at least 0, got -3\n"


def test_config_values_parse_like_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nensemble_size = 5\nsynthetic_banks = 40\n"
                   "rv_beta = 1\nshock = 0.1\nmodels = EN,RV\n")
    code, _, _ = run(capsys, "--config", str(cfg), "sweep", "shock",
                     "--out-dir", str(tmp_path / "cfg"))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "shock", *SWEEP_ARGS, "--rv-beta", "1",
                     "--shock", "0.1", "--models", "EN,RV",
                     "--out-dir", str(tmp_path / "flags"))
    assert code == 0
    assert ((tmp_path / "cfg" / "shock_sweep.csv").read_bytes()
            == (tmp_path / "flags" / "shock_sweep.csv").read_bytes())


@pytest.mark.parametrize("line", ["ensemble_size = 5.0", "density = 0.1,0.2"])
def test_config_value_of_wrong_type_exits_like_flag(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as info:
        main(["--config", str(cfg), "reconstruct", *SWEEP_ARGS[:4],
              "--out-dir", str(tmp_path / "x")])
    assert info.value.code == 2


@pytest.mark.parametrize("line, message", [
    ("ensemble_sizes = 7", "no command takes the keys ensemble_sizes"),
    ("asset_class = nonsense", "asset_class = 'nonsense' is not one of"),
], ids=["unknown_key", "value_outside_choices"])
def test_bad_config_key_or_choice_exits_2(capsys, tmp_path, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out_dir = tmp_path / "x"
    code, _, err = run(capsys, "--config", str(cfg), "reconstruct", *SWEEP_ARGS,
                       "--out-dir", str(out_dir))
    assert code == 2
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["sweep", "shock"], ["sweep", "recovery"],
                                     ["run", "timeseries"]])
def test_manifest_holds_only_json_values(capsys, tmp_path, command):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, *command, *SWEEP_ARGS, "--models", "EN",
                     "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "func" not in manifest
    assert manifest["command"] == " ".join(command)
    assert all(v is None or isinstance(v, (str, int, float))
               for v in manifest.values())


@st.composite
def fuzzed_panels(draw):
    """A synthetic panel of 1-12 banks and 1-4 quarters as CSV text, with 1-4 value cells
    replaced; some have a value column scaled, a row repeated or the header shuffled."""
    banks, quarters = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    records = synthesize_panel(max(banks, 2), quarters, seed=draw(st.integers(0, 99))).records
    rows = [line.split(",") for line in panel_csv(records[:banks * quarters]).splitlines()]
    row, value = st.integers(1, len(rows) - 1), st.integers(2, len(SCHEMA) - 1)
    if draw(st.integers(0, 2)) == 2:
        col, factor = draw(value), draw(st.sampled_from([0.0, 1e-300, 1e300]))
        for cells in rows[1:]:
            cells[col] = cells[col] and repr(float(cells[col]) * factor)
    for _ in range(draw(st.integers(1, 4))):
        rows[draw(row)][draw(value)] = draw(st.sampled_from(
            ["", "0", "-1", "nan", "inf", "1e308", "1e400", "1e-320", "5e-324", "abc"]))
    if draw(st.integers(0, 7)) == 7:
        rows.append(list(rows[draw(row)]))
    if draw(st.integers(0, 7)) == 7:
        rows[0] = draw(st.permutations(rows[0]))
    return "".join(",".join(cells) + "\n" for cells in rows)


@given(fuzzed_panels())
@example(PANEL_HEADER + "B000,2010-Q1,1663.7,25613.5,1e308,12133.8,14697.7,1e308,2941.3\n")
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_panel_runs_or_exits_2_in_bounded_time(capsys, tmp_path, text):
    # A RuntimeWarning fails through the suite's filter. No panel of 12 banks or
    # fewer reaches the default density 0.2, so the ensemble commands run at 0.9,
    # where some do and the sweep reaches the models. The example overflowed in to_aggregates.
    path = tmp_path / "panel.csv"
    path.write_text(text)
    ensemble = ["--panel", str(path), "--ensemble-size", "3", "--density", "0.9",
                "--out-dir", str(tmp_path)]
    for argv in (["ingest", "validate", str(path)], ["reconstruct", *ensemble],
                 ["sweep", "shock", *ensemble]):
        start = time.perf_counter()
        assert run(capsys, *argv)[0] in (0, 2), argv
        assert time.perf_counter() - start < 2.0, argv
