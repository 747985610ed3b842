"""Tests of the benchmark harness itself.

    python -m pytest bench/test_bench.py
"""
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, contagion_modules, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),      # overlaps a: [1, 6] is covered once
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 9.0, 12.0, parent=0),     # only [9, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95


def _bindings():
    return {(m.__name__, attr): value for m in contagion_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_rebinding_restores_every_name_after_a_traced_run():
    from contagion import fixtures, sweeps
    from contagion.models import MODEL_NAMES

    before = _bindings()
    net = fixtures.wheel_fixture(4).network
    tracer = Tracer()
    layers.bind(tracer, [net])
    try:
        assert sweeps.run_with_firewall is not before["contagion.sweeps", "run_with_firewall"]
        sweeps.run_with_firewall(net, sweeps.make_shock("all_external", 0.1),
                                 MODEL_NAMES, 0.6, 0.6)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [s.name for s in tracer.spans]
    assert names[0] == "sweeps.run_with_firewall"
    assert names.count("models.CDR") == 2           # R = 0.6 adds the cDR(R=0) run
    assert {s.request for s in tracer.spans} == {(0, 0.1, 0.6)}
    metrics, repeatable = layers.layer_metrics(tracer.spans)
    assert repeatable
    assert metrics["sweeps.extra_cdr.calls"] == 1
    assert metrics["models.EN.calls"] == 1
    assert metrics["analysis.assert_proved_ordering.calls"] == 2


def test_benchmark_json_names_every_printed_metric():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.metric_units().items()}


@pytest.fixture
def small_reconstruct(tmp_path):
    workload = workloads.Reconstruct()
    workload.ensemble_size = 10
    state = workload.setup(3, str(tmp_path))
    assert workload.run(state) == 0
    return workload, state


def test_reconstruct_check_passes_then_catches_a_perturbed_sheet(small_reconstruct):
    workload, state = small_reconstruct
    assert workload.check(state, 0) == []
    digest = workload.digest(state, 0)
    path = os.path.join(state.out_dir, "balance_sheets.csv")
    lines = open(path).read().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) * 1.05)          # interbank_assets of one bank
    lines[1] = ",".join(cells)
    with open(path, "w") as f:
        f.writelines(lines)
    assert workload.digest(state, 0) != digest
    assert workload.check(state, 0)


def test_a_reference_mismatch_fails_every_pass(small_reconstruct):
    workload, state = small_reconstruct
    walls, record = run.measure(workload, state, 0.0, None, reference="0" * 64)
    assert record["attempted"] == run.MIN_PASSES
    assert record["failed"] == record["attempted"]
    assert any("reference" in p for p in record["problems"])


def test_a_later_pass_that_exits_non_zero_fails(small_reconstruct, monkeypatch):
    workload, state = small_reconstruct
    real, calls = workloads.cli.main, []

    def first_pass_only(argv):
        calls.append(argv)
        return real(argv) if len(calls) == 1 else 2

    monkeypatch.setattr(workloads.cli, "main", first_pass_only)
    walls, record = run.measure(workload, state, 0.0, None, reference=None)
    assert record["attempted"] == run.MIN_PASSES
    assert record["failed"] == run.MIN_PASSES - 1
    assert record["problems"] == []
    assert len(walls[False]) == 1


def test_a_later_pass_that_writes_nothing_fails(small_reconstruct, monkeypatch):
    workload, state = small_reconstruct
    real, calls = workloads.cli.main, []

    def first_pass_only(argv):
        calls.append(argv)
        return real(argv) if len(calls) == 1 else 0

    monkeypatch.setattr(workloads.cli, "main", first_pass_only)
    walls, record = run.measure(workload, state, 0.0, None, reference=None)
    assert record["failed"] == run.MIN_PASSES - 1


def test_passes_are_reported_at_reference_speed(small_reconstruct, monkeypatch):
    import hostspeed

    # A host at half the reference speed runs the kernel in twice its time.
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: 2.0 * hostspeed.REFERENCE_S)
    workload, state = small_reconstruct
    walls, record = run.measure(workload, state, 0.0, None, reference=None)
    assert record["failed"] == 0
    assert walls[False] == pytest.approx([w / 2.0 for w in record["raw"][False]])


def test_counts_that_do_not_repeat_are_problems():
    assert run.count_problems({"a.calls": 3}, True, {"a.calls": 3}) == []
    assert run.count_problems({"a.calls": 3}, True, {"a.calls": 4}) == [
        "a.calls = 3, recorded 4"]
    assert run.count_problems({"a.calls": 3}, False, {}) == [
        "traced passes made different per-layer counts"]


def test_sweep_check_catches_a_vulnerability_outside_the_unit_interval(tmp_path):
    from contagion import sweeps

    workload = workloads.Sweep(
        "tiny", 50, 2, sweeps.SweepSpec(shock_grid=(0.0, 0.1), recovery_grid=(0.6,)),
        "run_shock_sweep")
    state = workload.setup(3, str(tmp_path))
    rows = workload.run(state)
    assert workload.check(state, rows) == []
    digest = workload.digest(state, rows)
    rows[3] = {**rows[3], "H_inf_median": 1.5}
    assert workload.digest(state, rows) != digest
    assert workload.check(state, rows)


def test_seed_changes_sheets_but_not_the_interbank_fields():
    a, b = workloads.make_panel(50, 1), workloads.make_panel(50, 2)
    assert [r.interbank_assets for r in a.records] == [r.interbank_assets for r in b.records]
    assert [r.interbank_liabilities for r in a.records] == [
        r.interbank_liabilities for r in b.records]
    assert [r.total_equity for r in a.records] != [r.total_equity for r in b.records]
