"""One-edit mutants of the package, each with the test that must fail on it.

    python tests/mutants.py

Copies src/, tests/, bench/ and pyproject.toml to a temporary directory and
checks there that every named test passes on the unmutated copy. Then it
applies each mutant alone, runs its test, and requires pytest to report a
failure (exit code 1; a collection or usage error does not count). Exits 0
when every mutant is killed, 1 otherwise. The copy runs with
PYTHONDONTWRITEBYTECODE set, so no cached bytecode of one mutant can stand in
for the next one's source.

Each entry is (file, old text, new text, test id). The old text must occur
exactly once in its file.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ANALYSIS, CLI, CORE = "src/contagion/analysis.py", "src/contagion/cli.py", "src/contagion/core.py"
FIXTURES, INGEST = "src/contagion/fixtures.py", "src/contagion/ingest.py"
MODELS, RECONSTRUCT = "src/contagion/models.py", "src/contagion/reconstruct.py"
SWEEPS = "src/contagion/sweeps.py"
FIREWALL = "tests/test_analysis.py::test_firewall_fires_just_past_its_slack"
TRAJECTORY = "tests/test_models.py::test_trajectory_check_fires_just_past_its_bounds"
WRITER = ("tests/test_reconstruct.py::"
          "test_write_ensemble_bytes_match_row_by_row_csv_writer_at_300_banks")
MODEL_CONFIG = ("tests/test_models.py::"
                "test_model_config_rejects_an_unknown_model_or_a_rate_outside_the_unit_interval")
SWEEP_SPEC = "tests/test_sweeps.py::test_spec_rejects_an_empty_grid_or_an_unknown_asset_class"
SHOCK_SIZE = "tests/test_core.py::test_a_shock_of_the_wrong_size_is_rejected"
TWO_BANKS = "tests/test_core.py::test_network_builders_need_two_banks"

MUTANTS = [
    # The ordering firewall: disabled, and its slack widened.
    (ANALYSIS, "    if bad.any():", "    if False:", FIREWALL),
    (ANALYSIS, "ORDERING_TOL = 1e-9", "ORDERING_TOL = 1e-3", FIREWALL),
    # The CLI's exit code for a proved-ordering violation.
    (CLI, "        return EXIT_INVARIANT", "        return EXIT_VALIDATION",
     "tests/test_cli.py::test_an_ordering_violation_exits_3"),
    # The ordering audit's empirical-chain slack on RV <= aDR.
    (ANALYSIS, "H[RV] <= H[ADR] + 1e-12", "H[RV] <= H[ADR] + 1e-3",
     "tests/test_analysis.py::test_empirical_chain_allows_only_a_rounding_gap"),
    # _check_trajectory's decrease bound and range slack.
    (MODELS, "if (h[:-1] - h[1:]).max(initial=0.0) > 1e-9:",
     "if (h[:-1] - h[1:]).max(initial=0.0) > 1e-3:", TRAJECTORY),
    (MODELS, "h.max(initial=0.0) <= 1.0 + 1e-12", "h.max(initial=0.0) <= 1.0 + 1e-3", TRAJECTORY),
    # The clearing solve's residual bound.
    (MODELS, "<= 1e-9 * max(1.0, np.abs(b).max())", "<= 1e-3 * max(1.0, np.abs(b).max())",
     "tests/test_models.py::test_clearing_rejects_a_solve_off_by_one_part_in_a_million"),
    # The trajectory check on construction, deleted.
    (MODELS, "        _freeze_arrays(self)\n        _check_trajectory(self.h)\n",
     "        _freeze_arrays(self)\n",
     "tests/test_models.py::test_a_trajectory_is_checked_when_built"),
    # The network's entry and balance-sheet checks on construction, each disabled.
    (CORE, "        if not valid.all():", "        if False:",
     "tests/test_core.py::test_a_copy_with_a_negative_entry_is_rejected"),
    (CORE, "        if bad_sheet.any():", "        if False:",
     "tests/test_core.py::test_a_copy_whose_sheets_do_not_close_is_rejected"),
    # The network's float64 copies of its inputs on construction, dropped.
    (CORE, "object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))",
     "object.__setattr__(self, name, getattr(self, name))",
     "tests/test_core.py::"
     "test_every_way_in_builds_the_same_float64_network_from_any_numeric_input"),
    # global_vulnerability's check for a negative round.
    (ANALYSIS, "    if t is not None and t < 0:", "    if False:",
     "tests/test_analysis.py::test_global_vulnerability_rejects_a_negative_round"),
    # The clearing's default tie rule: resources equal to the threshold default.
    (MODELS, "new_D = D | (resources < threshold)", "new_D = D | (resources <= threshold)",
     "tests/test_models.py::test_resources_exactly_at_the_default_threshold_do_not_default"),
    # The shock constructors' argument checks.
    (CORE, "        if not 0 <= i < n:", "        if False:",
     "tests/test_core.py::test_single_bank_shock_rejects_an_index_outside_the_network"),
    (CORE, "        if name not in DEFAULT_ASSET_CLASSES:", "        if False:",
     "tests/test_core.py::test_class_shock_names_an_unknown_class_and_the_known_ones"),
    # The ensemble writer: an edge's creditor slot filled from its debtor
    # index, a balance-sheet column in the wrong slot, and an edgeless member.
    (RECONSTRUCT, "map(creditors.__getitem__, jj.tolist())",
     "map(creditors.__getitem__, ii.tolist())", WRITER),
    (RECONSTRUCT, "cells[6::8] = map(repr, net.external_liabilities.tolist())",
     "cells[4::8] = map(repr, net.external_liabilities.tolist())", WRITER),
    (RECONSTRUCT, "            if ii.size:", "            if True:", WRITER),
    # The cascades' loss rate, the clearing solve's right-hand side in another
    # order, the IPF accept test, and an unread public field.
    (MODELS, "    loss_rate = 1.0 - R\n", "    loss_rate = 1.01 * (1.0 - R)\n",
     "tests/test_models.py::test_cascades_are_exact_on_random_networks"),
    (MODELS, "b = beta * shocked_external[idx] + beta * (rows @ p - A_dd @ p[idx])",
     "b = beta * (shocked_external[idx] + rows @ p) - beta * (A_dd @ p[idx])",
     "tests/test_models.py::test_every_runner_repeats_its_recorded_bytes"),
    (RECONSTRUCT, "if residual < tolerance:", "if residual <= tolerance:",
     "tests/test_reconstruct.py::test_ipf_weights_repeats_its_recorded_bytes"),
    (MODELS, "    cap_hit: bool = False\n", "    cap_hit: bool = False\n    model: str = \"\"\n",
     "tests/test_core.py::test_every_public_field_is_read_by_the_program"),
    # The calibration's early return for a target of 0 or less, restored.
    (RECONSTRUCT, "    density = _density_function(x, row_needed, col_needed)\n",
     "    if target_density <= 0.0:\n        return 0.0\n"
     "    density = _density_function(x, row_needed, col_needed)\n",
     "tests/test_reconstruct.py::test_calibrate_z_rejects_a_target_of_zero_or_less"),
    # The calibration's needed masks, taken apart from the repair's.
    (RECONSTRUCT, "config.target_density, shared.lending,",
     "config.target_density, agg.interbank_assets > 0,",
     "tests/test_reconstruct.py::test_calibration_counts_the_links_that_the_repair_forces"),
    # The calibration's upper bracket, left at 1e30 without an error.
    (RECONSTRUCT, '            raise UnreachableDensity("density target not reachable")',
     "            break",
     "tests/test_reconstruct.py::"
     "test_calibrate_z_raises_when_no_z_up_to_1e30_reaches_the_target"),
    # Input checks, each disabled.
    (MODELS, "        if self.model not in MODEL_NAMES:", "        if False:", MODEL_CONFIG),
    (MODELS, "        if not 0.0 <= self.exogenous_recovery_rate <= 1.0:", "        if False:",
     MODEL_CONFIG),
    (MODELS, "        if not 0.0 <= self.rv_beta <= 1.0:", "        if False:", MODEL_CONFIG),
    (SWEEPS, "        if not self.shock_grid or not self.recovery_grid:", "        if False:",
     SWEEP_SPEC),
    (SWEEPS, "        if self.asset_class not in ASSET_CLASS_CHOICES:", "        if False:",
     SWEEP_SPEC),
    (CORE, "            if s.size != network.n:", "            if False:", SHOCK_SIZE),
    (CORE, "        if s_k.size != by_class.shape[1]:", "        if False:", SHOCK_SIZE),
    (INGEST, "            raise SchemaMismatch(\"empty file\") from None",
     "            header = []", "tests/test_ingest.py::test_load_panel_rejects_an_empty_file"),
    (INGEST, "            if not row or all(not c.strip() for c in row):", "            if False:",
     "tests/test_ingest.py::test_load_panel_skips_blank_rows"),
    (INGEST, "            if not bank_id:", "            if False:",
     "tests/test_ingest.py::test_load_panel_rejects_an_empty_bank_id"),
    (INGEST, "    if n_banks < 2:", "    if False:", TWO_BANKS),
    (FIXTURES, "    if n < 2:", "    if False:", TWO_BANKS),
    (CLI, "            if \"=\" not in line:", "            if False:",
     "tests/test_cli.py::test_config_line_without_an_equals_sign_exits_2"),
    (RECONSTRUCT, "    if total <= 0:", "    if False:",
     "tests/test_reconstruct.py::test_ipf_rejects_a_start_that_vanishes_on_the_support"),
    (RECONSTRUCT, "        if np.any(le < 0):", "        if False:",
     "tests/test_reconstruct.py::"
     "test_an_equity_above_the_balance_sheet_makes_the_ensemble_infeasible"),
    (INGEST, "        if len(set(pairs)) != len(pairs):", "        if False:",
     "tests/test_ingest.py::test_a_panel_rejects_a_repeated_bank_and_quarter"),
    # A UTF-8 file's byte-order mark read as part of the first header cell.
    (INGEST, 'encoding="utf-8-sig"', 'encoding="utf-8"',
     "tests/test_ingest.py::test_load_panel_reads_utf8_with_or_without_a_byte_order_mark"),
]


def pytest(workdir: str, *test_ids: str) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *test_ids], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
        for name in ("src", "tests", "bench"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(workdir, name), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), workdir)
        sources = {}
        for path, old, _, _ in MUTANTS:
            with open(os.path.join(workdir, path)) as f:
                sources[path] = f.read()
            if sources[path].count(old) != 1:
                print(f"{path}: the text to mutate occurs {sources[path].count(old)} times: {old!r}")
                return 1
        tests = sorted({test for *_, test in MUTANTS})
        if pytest(workdir, *tests) != 0:
            print("a named test fails on the unmutated copy; run it in the checkout")
            return 1
        survivors = 0
        for path, old, new, test in MUTANTS:
            start = time.perf_counter()
            with open(os.path.join(workdir, path), "w") as f:
                f.write(sources[path].replace(old, new))
            try:
                code = pytest(workdir, test)
            finally:
                with open(os.path.join(workdir, path), "w") as f:
                    f.write(sources[path])
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            survivors += code != 1
            print(f"{verdict}  {time.perf_counter() - start:5.1f} s  {path}: "
                  f"{old.strip()!r} -> {new.strip()!r}  [{test}]")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
