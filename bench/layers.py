"""The layer boundaries a traced run times, and the per-layer metrics.

Layers are the modules of ``src/contagion``. Each timed function yields
``<layer>.<function>.calls`` and ``.s`` (self time); some add counts read
from their arguments, results or exceptions. Counts describe one traced
set-up plus one pass; times are the set-up's plus the mean over traced
passes.
"""
from __future__ import annotations

import os
from collections import defaultdict

from contagion import analysis, cli, core, ingest, models, reconstruct, sweeps

from spans import Tracer, latency_summary, self_times

MODELS = models.MODEL_NAMES

# (span name, defining module, function name); run_model is timed per model.
TIMED = (
    ("cli.main", cli, "main"),
    ("ingest.load_panel", ingest, "load_panel"),
    ("ingest.interpolate_missing", ingest, "interpolate_missing"),
    ("ingest.to_aggregates", ingest, "to_aggregates"),
    ("reconstruct.calibrate_z", reconstruct, "calibrate_z"),
    ("reconstruct.sample_adjacency", reconstruct, "sample_adjacency"),
    ("reconstruct.ipf_weights", reconstruct, "ipf_weights"),
    ("reconstruct.generate_ensemble", reconstruct, "generate_ensemble"),
    ("reconstruct.write_ensemble", reconstruct, "write_ensemble"),
    ("core.build_network", core, "build_network"),
    ("core.leverage_decomposition", core, "leverage_decomposition"),
    ("core.relative_liabilities", core, "relative_liabilities"),
    ("core.apply_first_round", core, "apply_first_round"),
    ("sweeps.run_with_firewall", sweeps, "run_with_firewall"),
    ("analysis.global_vulnerability", analysis, "global_vulnerability"),
    ("analysis.assert_proved_ordering", analysis, "assert_proved_ordering"),
)
SPAN_NAMES = tuple(name for name, _, _ in TIMED) + tuple(f"models.{m}" for m in MODELS)
WITH_LATENCY = ("reconstruct.ipf_weights", "sweeps.run_with_firewall") + tuple(
    f"models.{m}" for m in MODELS)

# Extra count metrics beyond .calls: metric suffix -> span attribute summed.
EXTRA_COUNTS = {
    "reconstruct.generate_ensemble": ("skipped",),
    "reconstruct.write_ensemble": ("bytes",),
    "reconstruct.ipf_weights": ("failed",),
    **{f"models.{m}": ("rounds",) for m in MODELS},
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better), in print order."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
        for attr in EXTRA_COUNTS.get(name, ()):
            out[f"{name}.{attr}"] = ("B" if attr == "bytes" else "count", "lower")
        if name == "reconstruct.ipf_weights":
            out[f"{name}.failed_s"] = ("s", "lower")
            out[f"{name}.useful_ratio"] = ("ratio", "higher")
        if name in WITH_LATENCY:
            out[f"{name}.ms_p50"] = ("ms", "lower")
            out[f"{name}.ms_tail"] = ("ms", "lower")
    out["models.CDR.cap_hits"] = ("count", "lower")
    out["sweeps.extra_cdr.calls"] = ("count", "lower")
    out["trace_overhead"] = ("ratio", "lower")
    return out


def _written_bytes(span, args, kwargs, result):
    out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
    span.attrs["bytes"] = sum(e.stat().st_size for e in os.scandir(out_dir)
                              if e.is_file())


def _trajectory(span, args, kwargs, result):
    span.attrs["rounds"] = result.converged_at
    span.attrs["cap_hit"] = int(result.cap_hit)


def _shock_value(shock) -> float:
    vec = shock.per_bank_shock if shock.per_bank_shock is not None else shock.per_class_shock
    return float(max(vec))


def bind(tracer: Tracer, networks=()) -> None:
    """Rebind every timed function to a tracing wrapper."""
    index = {id(net): i for i, net in enumerate(networks)}
    on_return = {
        "reconstruct.generate_ensemble":
            lambda span, a, k, r: span.attrs.__setitem__("skipped", len(r.skipped)),
        "reconstruct.write_ensemble": _written_bytes,
    }
    for name, module, fn in TIMED:
        request = None
        if name == "sweeps.run_with_firewall":
            def request(network, shock, models, recovery_rate, rv_beta):
                return (index.get(id(network)), _shock_value(shock), recovery_rate)
        tracer.wrap(getattr(module, fn), name, request=request,
                    on_return=on_return.get(name))
    tracer.wrap(models.run_model, lambda network, shock, config: f"models.{config.model}",
                on_return=_trajectory)
    # Not a layer of its own: only tags the spans inside with the member index.
    tracer.wrap(reconstruct._build_member,
                request=lambda aggregates, x, z, config, index: index)


def layer_metrics(spans) -> tuple:
    """(metrics, repeatable) for spans of one traced set-up and k passes.

    ``repeatable`` is False when the traced passes did not all make the same
    counts, which identical passes over deterministic code must.
    """
    selfs = self_times(spans)
    setup = [i for i, s in enumerate(spans) if s.phase == "setup"]
    passes = defaultdict(list)
    for i, s in enumerate(spans):
        if s.phase != "setup":
            passes[s.phase].append(i)
    n_passes = max(1, len(passes))

    def counts(indices):
        out = defaultdict(int)
        cdr_per_parent = defaultdict(int)
        for i in indices:
            s = spans[i]
            out[f"{s.name}.calls"] += 1
            for attr in EXTRA_COUNTS.get(s.name, ()):
                out[f"{s.name}.{attr}"] += (int(s.failed) if attr == "failed"
                                            else s.attrs.get(attr, 0))
            if s.name == "models.CDR":
                out["models.CDR.cap_hits"] += s.attrs.get("cap_hit", 0)
                if s.parent is not None and spans[s.parent].name == "sweeps.run_with_firewall":
                    cdr_per_parent[s.parent] += 1
        out["sweeps.extra_cdr.calls"] = sum(c - 1 for c in cdr_per_parent.values())
        return out

    per_pass = [counts(ix) for ix in passes.values()]
    repeatable = all(c == per_pass[0] for c in per_pass)
    merged = counts(setup)
    for key, value in (per_pass[0] if per_pass else {}).items():
        merged[key] += value

    metrics = {}
    units = metric_units()
    for key, (unit, _) in units.items():
        if unit in ("count", "B"):
            metrics[key] = merged.get(key, 0)
    seconds = defaultdict(float)
    failed_s = 0.0
    durations = defaultdict(list)
    for i, s in enumerate(spans):
        weight = 1.0 if s.phase == "setup" else 1.0 / n_passes
        seconds[s.name] += selfs[i] * weight
        durations[s.name].append(s.duration * 1e3)
        if s.name == "reconstruct.ipf_weights" and s.failed:
            failed_s += s.duration * weight
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = seconds[name]
        if name in WITH_LATENCY:
            p50, tail, _ = latency_summary(durations[name])
            metrics[f"{name}.ms_p50"] = p50
            metrics[f"{name}.ms_tail"] = tail
    ipf_calls = metrics["reconstruct.ipf_weights.calls"]
    metrics["reconstruct.ipf_weights.failed_s"] = failed_s
    metrics["reconstruct.ipf_weights.useful_ratio"] = (
        (ipf_calls - metrics["reconstruct.ipf_weights.failed"]) / ipf_calls
        if ipf_calls else 0.0)
    return metrics, repeatable
