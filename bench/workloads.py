"""The benchmark workloads: seeded inputs, one timed pass, the output check.

Every workload starts from the same synthetic panel family. The seed deals
each bank its leverage and asset mix; the interbank fields come from a fixed
base panel. Reconstruction depends only on the interbank fields, so every
seed samples the same supports and pays for the same failed IPF fits (5 of
305 calls at 300 members, each running the full 10,000 sweeps), while
equities, external assets and the resulting cascades differ by seed. When the
seed also drew the interbank fields, failed fits ranged from 5 to 22 per 300
members and one panel in eight aborted with EnsembleInfeasible, so no timing
was comparable between seeds.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
from contextlib import redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from contagion import cli, ingest, reconstruct, sweeps
from contagion.ingest import SCHEMA, Panel, synthesize_panel
from contagion.models import EN, MODEL_NAMES, RV
from contagion.reconstruct import ReconstructionConfig

BASE_PANEL_SEED = 0
ENSEMBLE_SEED = 0
QUARTERS = 4
DENSITY = 0.2
# H is an equity-weighted mean of h in [0, 1]; at full default the weights'
# rounding gives 1 + 2.2e-16. The models check h with the same tolerance.
H_TOL = 1e-12


def make_panel(n_banks: int, seed: int) -> Panel:
    """Base panel with seed-dealt leverage in [10, 30] and asset mix.

    Keeps total assets, interbank assets, interbank liabilities and the
    missing-cell pattern of the base panel; sets equity, loans, impaired
    loans and derivatives from the ranges ``synthesize_panel`` uses. Each
    range is cut into ``n_banks`` evenly spaced values, which the seed deals
    to the banks in a random order, one shuffle per field. Independent
    uniform draws made the clearing solves of a recovery_n1000 pass over three
    networks differ between seeds by up to a third (36 to 48 over seeds 0-7);
    dealt values gave 36 on nine seeds of ten and 44 on one.
    """
    base = synthesize_panel(n_banks, QUARTERS, seed=BASE_PANEL_SEED)
    rng = np.random.default_rng(seed)
    n = len(base.bank_ids)
    levels = (np.arange(n) + 0.5) / n
    dealt = [low + (high - low) * levels[rng.permutation(n)]
             for low, high in ((10.0, 30.0), (0.30, 0.60), (0.01, 0.30), (0.02, 0.15))]
    draws = {bank: tuple(field[i] for field in dealt)
             for i, bank in enumerate(base.bank_ids)}

    def share(fraction, of, observed):
        return None if of is None or observed is None else float(fraction * of)

    records = []
    for r in base.records:
        leverage, loans, impaired, derivatives = draws[r.bank_id]
        total_loans = share(loans, r.total_assets, r.total_loans)
        records.append(replace(
            r,
            total_equity=share(1.0 / leverage, r.total_assets, r.total_equity),
            total_loans=total_loans,
            impaired_loans=share(impaired, total_loans, r.impaired_loans),
            derivatives=share(derivatives, r.total_assets, r.derivatives),
        ))
    return Panel(records=tuple(records))


def write_panel_csv(panel: Panel, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SCHEMA)
        for r in panel.records:
            writer.writerow([r.bank_id, r.quarter] + [
                "" if getattr(r, name) is None else repr(getattr(r, name))
                for name in SCHEMA[2:]])


def last_quarter(panel: Panel) -> dict:
    """bank_id -> record of the last quarter, which is always fully observed."""
    q = panel.quarters[-1]
    return {r.bank_id: r for r in panel.records if r.quarter == q}


def _number(cell: str) -> float:
    """Parse a written value; under numpy 2, ``write_ensemble`` writes each
    liability as ``np.float64(x)``, the repr of a numpy scalar."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _params(workload) -> dict:
    return {"n_banks": workload.n_banks, "quarters": QUARTERS, "density": DENSITY,
            "ensemble_size": workload.ensemble_size, "ensemble_seed": ENSEMBLE_SEED,
            "base_panel_seed": BASE_PANEL_SEED}


class Reconstruct:
    """``contagion reconstruct`` on a panel CSV, through ``cli.main``."""

    name = "reconstruct_n50"
    n_banks = 50
    ensemble_size = 100

    def params(self) -> dict:
        return _params(self)

    def setup(self, seed: int, workdir: str):
        panel = make_panel(self.n_banks, seed)
        path = os.path.join(workdir, "panel.csv")
        write_panel_csv(panel, path)
        out_dir = os.path.join(workdir, "ensemble")
        argv = ["reconstruct", "--panel", path, "--density", str(DENSITY),
                "--ensemble-size", str(self.ensemble_size),
                "--seed", str(ENSEMBLE_SEED), "--out-dir", out_dir]
        return SimpleNamespace(panel=panel, argv=argv, out_dir=out_dir, networks=())

    def clear(self, state) -> None:
        """Remove the previous pass's files, so a pass is judged only by
        what it wrote."""
        shutil.rmtree(state.out_dir, ignore_errors=True)

    def run(self, state) -> int:
        with redirect_stdout(io.StringIO()):
            code = cli.main(state.argv)
        if code != 0:
            raise RuntimeError(f"contagion reconstruct exited with code {code}")
        return code

    def _read(self, state, name: str) -> bytes:
        with open(os.path.join(state.out_dir, name), "rb") as f:
            return f.read()

    def items(self, state, output) -> int:
        return json.loads(self._read(state, "manifest.json"))["emitted"]

    def digest(self, state, output) -> str:
        h = hashlib.sha256()
        for name in ("edges.csv", "balance_sheets.csv"):
            data = self._read(state, name)
            h.update(f"{name}:{len(data)}:".encode())
            h.update(data)
        return h.hexdigest()

    def check(self, state, output) -> list:
        """Invariants of the written ensemble against the panel's aggregates."""
        problems = []
        manifest = json.loads(self._read(state, "manifest.json"))
        size, skipped = manifest["ensemble_size"], len(manifest["skipped"])
        tol = manifest["ipf_marginal_tolerance"]
        if manifest["emitted"] + skipped != size or skipped > 0.01 * size:
            problems.append(f"emitted {manifest['emitted']}, skipped {skipped} of {size}")
        banks = last_quarter(state.panel)
        a_total = sum(r.interbank_assets for r in banks.values())
        l_total = sum(r.interbank_liabilities for r in banks.values())
        volume = min(a_total, l_total)
        sheets = {}
        for row in csv.DictReader(io.StringIO(self._read(state, "balance_sheets.csv").decode())):
            k, bank = int(row["realization"]), row["bank_id"]
            values = {key: float(v) for key, v in row.items()
                      if key not in ("realization", "bank_id")}
            sheets[k, bank] = values
            if not all(math.isfinite(v) and v >= 0 for v in values.values()):
                problems.append(f"member {k} bank {bank}: negative or non-finite entry")
            if values["equity"] != banks[bank].total_equity:
                problems.append(f"member {k} bank {bank}: equity differs from the panel")
            for field, target in (("interbank_assets", banks[bank].interbank_assets / a_total),
                                  ("interbank_liabilities",
                                   banks[bank].interbank_liabilities / l_total)):
                dev = abs(values[field] / volume - target)
                if dev >= tol or (target > 0 and dev / target >= tol):
                    problems.append(f"member {k} bank {bank}: {field} share off by {dev:.3g}")
        if len(sheets) != manifest["emitted"] * len(banks):
            problems.append(f"{len(sheets)} balance-sheet rows")
        owed, owned, wrapped = {}, {}, 0
        for row in csv.DictReader(io.StringIO(self._read(state, "edges.csv").decode())):
            k, value = int(row["realization"]), _number(row["liability"])
            wrapped += not row["liability"][:1].isdigit()
            owed[k, row["debtor"]] = owed.get((k, row["debtor"]), 0.0) + value
            owned[k, row["creditor"]] = owned.get((k, row["creditor"]), 0.0) + value
        for key, values in sheets.items():
            if not (_close(owed.get(key, 0.0), values["interbank_liabilities"])
                    and _close(owned.get(key, 0.0), values["interbank_assets"])):
                problems.append(f"member {key[0]} bank {key[1]}: edges disagree with sheet")
        if wrapped:
            print(f"note: {wrapped} edges.csv liabilities are written as np.float64(...)")
        return problems[:20]


class Sweep:
    """A sweep runner over an ensemble reconstructed during set-up."""

    def __init__(self, name, n_banks, ensemble_size, spec, runner):
        self.name, self.n_banks, self.ensemble_size = name, n_banks, ensemble_size
        self.spec, self.runner = spec, runner
        # Both runners evaluate every (shock, recovery rate) pair.
        self.grid_points = len(spec.shock_grid) * len(spec.recovery_grid)

    def params(self) -> dict:
        return {**_params(self), "runner": self.runner, "models": list(self.spec.models),
                "shock_grid": list(self.spec.shock_grid),
                "recovery_grid": list(self.spec.recovery_grid), "rv_beta": self.spec.rv_beta}

    def setup(self, seed: int, workdir: str):
        panel, _ = ingest.interpolate_missing(make_panel(self.n_banks, seed),
                                              drop_failures=True)
        agg, _ = ingest.to_aggregates(panel, panel.quarters[-1])
        config = ReconstructionConfig(target_density=DENSITY,
                                      ensemble_size=self.ensemble_size,
                                      rng_seed=ENSEMBLE_SEED)
        ensemble = reconstruct.generate_ensemble(agg, config)
        return SimpleNamespace(networks=ensemble.networks)

    def clear(self, state) -> None:
        """A sweep returns its rows and leaves no files behind."""

    def run(self, state) -> list:
        return getattr(sweeps, self.runner)(state.networks, self.spec)

    def items(self, state, output) -> int:
        return len(state.networks) * self.grid_points

    def digest(self, state, output) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(output[0].keys()))
        writer.writeheader()
        writer.writerows(output)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()

    def check(self, state, output) -> list:
        """Every H in [0, 1] (to H_TOL) and finite, quartiles ordered, EN <= RV, and
        RV = EN where the recovery sweep runs RV at beta = R = 1."""
        problems = []
        if len(output) != self.grid_points * len(self.spec.models):
            problems.append(f"{len(output)} rows")
        h = {}
        for row in output:
            for key, v in row.items():
                if key.startswith(("H", "default_fraction")) and not (
                        math.isfinite(v) and -H_TOL <= v <= 1.0 + H_TOL):
                    problems.append(f"{key}={v} outside [0, 1] at {row}")
            if not row["H_inf_q25"] <= row["H_inf_median"] <= row["H_inf_q75"]:
                problems.append(f"quartiles out of order at {row}")
            h[row["shock"], row["recovery_rate"], row["model"]] = row["H_inf_median"]
        for (s, R, model), value in h.items():
            if model == EN and (s, R, RV) in h:
                rv = h[s, R, RV]
                if value > rv + 1e-12 or (self.runner == "run_recovery_sweep"
                                          and R == 1.0 and value != rv):
                    problems.append(f"EN {value} vs RV {rv} at shock {s}, R {R}")
        return problems[:20]


SHOCK_GRID = tuple(round(0.02 * i, 2) for i in range(11))

WORKLOADS = {w.name: w for w in (
    Reconstruct(),
    Sweep("sweep_shock_n50", 50, 25,
          sweeps.SweepSpec(models=MODEL_NAMES, shock_grid=SHOCK_GRID,
                           recovery_grid=(0.6,), rv_beta=0.6),
          "run_shock_sweep"),
    # One network per pass: a pass of 1.3 s gives about 20 passes in a 30 s
    # run; with three networks the 8 passes left the run median 15% apart
    # between runs.
    Sweep("recovery_n1000", 1000, 1,
          sweeps.SweepSpec(models=MODEL_NAMES, shock_grid=(0.02, 0.10),
                           recovery_grid=(0.0, 0.5, 1.0)),
          "run_recovery_sweep"),
)}
