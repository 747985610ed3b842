"""Command-line harness for ingestion, reconstruction, sweeps, and audits.

Subcommands: ingest validate, reconstruct, run timeseries, sweep shock,
sweep recovery, audit ordering, fixtures run. Exit codes: 0 success,
2 validation failure, 3 proved-invariant violation (implementation bug).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import fixtures as fx
from .analysis import global_vulnerability, ordering_audit
from .core import ShockSpec
from .errors import ContagionError, ProvedOrderingViolated
from .ingest import interpolate_missing, load_panel, synthesize_panel, to_aggregates
from .models import ModelConfig, run_model
from .reconstruct import ReconstructionConfig, generate_ensemble, write_ensemble
from .sweeps import (
    ASSET_CLASS_CHOICES, SweepSpec, run_recovery_sweep, run_shock_sweep,
    run_timeseries,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3

GOLDEN_ATOL = 1e-12  # fixtures run: |measured - expected| bound, no relative slack


def _read_config_file(path: str) -> dict:
    """Simple key=value config; '#' starts a comment; values stay strings."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _grid(value) -> tuple:
    """A comma-separated grid flag, or a one-value flag as a grid of one."""
    if isinstance(value, float):
        return (value,)
    return tuple(float(p) for p in value.split(","))


def _models(text: str) -> tuple:
    return tuple(p.strip().upper() for p in text.split(","))


def _write_rows(rows, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _write_outputs(args, rows, name, **extra) -> None:
    """Write rows to out_dir/name, then manifest.json: the parsed arguments,
    the command and any extra entries."""
    path = _write_rows(rows, args.out_dir, name)
    manifest = {k: v for k, v in vars(args).items() if k != "func"}
    manifest.update(command=f"{args.command} {args.subcommand}", **extra)
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"wrote {path}")


def _load_panel(args):
    """Panel file or seeded synthetic panel, with gaps interpolated."""
    if args.panel:
        panel = load_panel(args.panel)
    else:
        panel = synthesize_panel(args.synthetic_banks, args.synthetic_quarters,
                                 seed=args.seed)
    return interpolate_missing(panel, drop_failures=True)[0]


def _load_aggregates(args):
    """The panel reduced to one quarter: (aggregates, quarter)."""
    panel = _load_panel(args)
    quarter = args.quarter or panel.quarters[-1]
    return to_aggregates(panel, quarter)[0], quarter


def _ensemble_config(args) -> ReconstructionConfig:
    return ReconstructionConfig(
        target_density=args.density,
        ensemble_size=args.ensemble_size,
        rng_seed=args.seed,
    )


def _sweep_spec(args) -> SweepSpec:
    return SweepSpec(
        models=_models(args.models),
        shock_grid=_grid(args.shock),
        recovery_grid=_grid(args.recovery),
        asset_class=args.asset_class,
        ensemble=_ensemble_config(args),
        # sweep recovery has no --rv-beta: it runs RV at beta = R
        rv_beta=getattr(args, "rv_beta", SweepSpec.rv_beta),
    )


def cmd_ingest_validate(args) -> int:
    panel = load_panel(args.path)
    filled, dropped = interpolate_missing(panel, drop_failures=True)
    print(f"records: {len(panel.records)}")
    print(f"banks: {len(panel.bank_ids)}  quarters: {len(panel.quarters)}")
    print(f"banks dropped by interpolation: {len(dropped)}")
    for bank, err in dropped:
        print(f"  {bank}: {err}")
    print(f"boundary-extrapolated cells: {len(filled.extrapolated)}")
    quarter = args.quarter or filled.quarters[-1]
    agg, issues = to_aggregates(filled, quarter)
    print(f"quarter {quarter}: {agg.n} banks usable, {len(issues)} dropped")
    for bank, err in issues:
        print(f"  {bank}: {err}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    agg, quarter = _load_aggregates(args)
    result = generate_ensemble(agg, _ensemble_config(args))
    write_ensemble(result, agg, args.out_dir)
    print(f"quarter {quarter}: emitted {len(result.networks)} networks "
          f"(skipped {len(result.skipped)}) to {args.out_dir}")
    print(f"mean density {result.densities.mean():.4f} "
          f"(target {args.density})")
    return EXIT_OK


def cmd_run_timeseries(args) -> int:
    spec = _sweep_spec(args)  # a bad grid or model name fails before any work
    rows = run_timeseries(_load_panel(args), spec)
    _write_outputs(args, rows, "timeseries.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """sweep shock / sweep recovery over one reconstructed ensemble."""
    runner = {"shock": run_shock_sweep, "recovery": run_recovery_sweep}[args.subcommand]
    spec = _sweep_spec(args)  # a bad grid or model name fails before any work
    agg, quarter = _load_aggregates(args)
    rows = runner(generate_ensemble(agg, spec.ensemble).networks, spec)
    _write_outputs(args, rows, f"{args.subcommand}_sweep.csv", quarter=quarter)
    return EXIT_OK


def cmd_audit_ordering(args) -> int:
    rng = np.random.default_rng(args.seed)
    shock = ShockSpec.uniform(args.shock)
    reports = []
    for fixture in fx.topology_family():
        rep = ordering_audit(fixture.network, fixture.shock,
                             recovery_rate=fixture.recovery_rate,
                             rv_beta=args.rv_beta)
        reports.append((fixture.name, rep))
    for k in range(args.count):
        net = fx.random_network(rng, int(rng.integers(3, 20)))
        rep = ordering_audit(net, shock, recovery_rate=args.recovery,
                             rv_beta=args.rv_beta)
        reports.append((f"random-{k}", rep))
    chain_ok = sum(1 for _, r in reports if r.empirical_chain_holds)
    for name, rep in reports:
        print(f"{name}: proved chain OK; empirical chain "
              f"{'holds' if rep.empirical_chain_holds else 'violated (reported)'}; "
              f"H={json.dumps({k: round(v, 6) for k, v in rep.H_final.items()})}")
    print(f"empirical five-model chain held on {chain_ok}/{len(reports)} instances")
    return EXIT_OK


def cmd_fixtures_run(args) -> int:
    """Run each golden fixture's models and check every stored expectation."""
    results = []

    def check(name, measured, expected):
        ok = bool(np.allclose(measured, expected, rtol=0.0, atol=GOLDEN_ATOL))
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    for f in fx.golden():
        for model in dict.fromkeys([*f.expected_h, *f.expected_H]):
            traj = run_model(f.network, f.shock, ModelConfig(
                model=model, exogenous_recovery_rate=f.recovery_rate))
            if model in f.expected_h:
                check(f"{f.name}: {model} h(inf)", traj.h_final, f.expected_h[model])
            if model in f.expected_H:
                check(f"{f.name}: {model} H(inf)",
                      global_vulnerability(traj, f.network), f.expected_H[model])
    print(f"{sum(results)}/{len(results)} fixture checks passed")
    return EXIT_OK if all(results) else EXIT_VALIDATION


def build_parser(overrides=None) -> argparse.ArgumentParser:
    """Build the CLI parser; overrides become per-subcommand defaults.

    Raises ValueError for an override that no subcommand defines, or that
    lies outside its flag's choices.
    """
    parser = argparse.ArgumentParser(prog="contagion")
    parser.add_argument("--config", help="key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def add_ensemble(p, quarter=True):
        """The flags of a command that draws ensembles from a panel."""
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ensemble-size", type=int, default=100)
        p.add_argument("--density", type=float, default=0.20)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--panel", help="panel CSV path (default: synthetic)")
        if quarter:
            p.add_argument("--quarter", help="quarter label (default: last)")
        p.add_argument("--synthetic-banks", type=int, default=50)
        p.add_argument("--synthetic-quarters", type=int, default=4)

    def add_sweep(p, shock, recovery, rv_beta=True):
        """Model and scenario flags; type float takes one value, type str a
        comma-separated grid."""
        p.add_argument("--models", default="EN,RV,DC,ADR,CDR")
        p.add_argument("--asset-class", choices=ASSET_CLASS_CHOICES,
                       default="all_external")
        p.add_argument("--shock", type=shock, default="0.01")
        p.add_argument("--recovery", type=recovery, default="0.6")
        if rv_beta:
            p.add_argument("--rv-beta", type=float, default=0.6)

    p = sub.add_parser("ingest", help="panel ingestion utilities")
    ing = p.add_subparsers(dest="subcommand", required=True)
    pv = ing.add_parser("validate", help="parse, interpolate, and report")
    pv.add_argument("path")
    pv.add_argument("--quarter")
    pv.set_defaults(func=cmd_ingest_validate)
    leaves.append(pv)

    p = sub.add_parser("reconstruct", help="sample a network ensemble")
    add_ensemble(p)
    p.set_defaults(func=cmd_reconstruct)
    leaves.append(p)

    p = sub.add_parser("run", help="experiment runners")
    runsub = p.add_subparsers(dest="subcommand", required=True)
    pt = runsub.add_parser("timeseries", help="per-quarter ensemble vulnerabilities")
    add_ensemble(pt, quarter=False)
    add_sweep(pt, float, float)
    pt.set_defaults(func=cmd_run_timeseries)
    leaves.append(pt)

    p = sub.add_parser("sweep", help="parameter sweeps")
    swsub = p.add_subparsers(dest="subcommand", required=True)
    for name, what in (("shock", "shock"), ("recovery", "recovery-rate")):
        ps = swsub.add_parser(name, help=f"sweep the {what} grid")
        add_ensemble(ps)
        add_sweep(ps, str, float if name == "shock" else str, rv_beta=name == "shock")
        ps.set_defaults(func=cmd_sweep)
        leaves.append(ps)

    p = sub.add_parser("audit", help="model-order audits")
    audsub = p.add_subparsers(dest="subcommand", required=True)
    pa = audsub.add_parser("ordering", help="audit cross-model orderings")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--count", type=int, default=20)
    pa.add_argument("--shock", type=float, default=0.05)
    pa.add_argument("--recovery", type=float, default=0.6)
    pa.add_argument("--rv-beta", type=float, default=0.6)
    pa.set_defaults(func=cmd_audit_ordering)
    leaves.append(pa)

    p = sub.add_parser("fixtures", help="golden fixture checks")
    fxsub = p.add_subparsers(dest="subcommand", required=True)
    pf = fxsub.add_parser("run", help="run all golden examples")
    pf.set_defaults(func=cmd_fixtures_run)
    leaves.append(pf)

    if overrides:
        # Subparsers keep their own defaults, so file values must be pushed
        # into each leaf; restrict to the flags the leaf actually defines.
        # The values stay strings, which argparse parses with each flag's
        # type exactly as it parses the flag itself. argparse checks choices
        # only on flags given on the command line, so they are checked here.
        used = set()
        for leaf in leaves:
            actions = {a.dest: a for a in leaf._actions}
            values = {k: v for k, v in overrides.items() if k in actions}
            for key, value in values.items():
                choices = actions[key].choices
                if choices is not None and value not in choices:
                    raise ValueError(f"{key} = {value!r} is not one of {', '.join(choices)}")
            if values:
                leaf.set_defaults(**values)
            used.update(values)
        unknown = sorted(set(overrides) - used)
        if unknown:
            raise ValueError(f"no command takes the keys {', '.join(unknown)}")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Pre-scan for --config so file values become defaults the flags can beat.
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        file_values = _read_config_file(known.config) if known.config else {}
        parser = build_parser(overrides=file_values)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ProvedOrderingViolated as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ContagionError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
