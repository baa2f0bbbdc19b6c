"""Per-layer metrics computed from the spans of one traced pass.

LAYER_METRICS is the one list of per-layer metrics: name, unit, the
end-to-end metric it should move, and the workloads it should move on (and,
after "not", those it should not).  BENCHMARK.json repeats the names and
units, and the self-test checks that the two agree.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

EXPERIMENTS = (
    "anomaly-scan",
    "compare",
    "flow-density",
    "ibp-check",
    "oscillatory-check",
    "prop1-check",
    "solve",
    "theorem1-check",
)
LAYERS = ("measures", "fields", "flows", "library", "feynman", "cli")

# name, unit, should move, on workload
LAYER_METRICS = [
    ("measures.mc.calls", "count", "wall_s", "mc_ibp; not exact_oracles"),
    ("measures.mc.samples", "count", "wall_s", "mc_ibp; not exact_oracles"),
    ("measures.mc.self_s", "s", "wall_s", "mc_ibp; not exact_oracles"),
    ("measures.mc.samples_per_s", "1/s", "wall_s", "mc_ibp; not exact_oracles"),
    ("measures.mc.within_3se", "ratio", "none (accuracy guard, about 0.997)", "mc_ibp"),
    ("fields.phi_eval.calls", "count", "wall_s", "mc_ibp"),
    ("fields.phi_grad.calls", "count", "wall_s", "mc_ibp"),
    ("fields.h_eval.calls", "count", "wall_s", "mc_ibp (2 per chunk at the seed commit)"),
    ("fields.h_div.calls", "count", "wall_s", "mc_ibp"),
    ("fields.rows", "count", "wall_s", "mc_ibp"),
    ("fields.s", "s", "wall_s", "mc_ibp"),
    ("flows.prop1.calls", "count", "wall_s", "mc_ibp, exact_oracles"),
    ("flows.prop1.mc.self_s", "s", "wall_s", "mc_ibp"),
    ("flows.prop1.gh.self_s", "s", "wall_s", "exact_oracles"),
    ("measures.gh.calls", "count", "wall_s", "exact_oracles; not cauchy_paths"),
    ("measures.gh.nodes", "count", "wall_s, peak_rss_mb", "exact_oracles; not cauchy_paths"),
    ("measures.gh.self_s", "s", "wall_s", "exact_oracles; not cauchy_paths"),
    ("measures.gh.err_ratio", "ratio", "passed_ratio", "exact_oracles"),
    ("feynman.mc.calls", "count", "wall_s", "cauchy_paths; not mc_ibp"),
    ("feynman.mc.samples", "count", "wall_s", "cauchy_paths; not mc_ibp"),
    ("feynman.mc.self_s", "s", "wall_s", "cauchy_paths; not mc_ibp"),
    ("feynman.mc.samples_per_s", "1/s", "wall_s", "cauchy_paths; not mc_ibp"),
    ("library.eta.calls", "count", "wall_s", "cauchy_paths"),
    ("library.eta.rows", "count", "wall_s", "cauchy_paths"),
    ("library.eta.s", "s", "wall_s", "cauchy_paths"),
    ("feynman.exact.calls", "count", "wall_s", "exact_oracles; barely cauchy_paths"),
    ("feynman.exact.s", "s", "wall_s", "exact_oracles; barely cauchy_paths"),
    ("feynman.exact.call_ms.p50", "ms", "wall_s", "exact_oracles; barely cauchy_paths"),
    ("feynman.exact.call_ms.p90", "ms", "wall_s", "exact_oracles; barely cauchy_paths"),
    ("feynman.exact.err_ratio", "ratio", "passed_ratio", "exact_oracles, cauchy_paths"),
    ("feynman.pde.calls", "count", "wall_s", "exact_oracles"),
    ("feynman.pde.steps", "count", "wall_s", "exact_oracles"),
    ("feynman.pde.s", "s", "wall_s", "exact_oracles"),
    ("feynman.anomaly.calls", "count", "wall_s", "exact_oracles; not mc_ibp"),
    ("feynman.anomaly.self_s", "s", "wall_s", "exact_oracles; not mc_ibp"),
    ("library.family.calls", "count", "wall_s", "exact_oracles; not mc_ibp"),
    ("library.family.s", "s", "wall_s", "exact_oracles; not mc_ibp"),
    ("feynman.f0.calls", "count", "wall_s", "cauchy_paths"),
    ("feynman.f0.s", "s", "wall_s", "cauchy_paths"),
    *[(f"cli.run.{e}.s", "s", "wall_s", "shipped_configs (oscillatory-check dominates)") for e in EXPERIMENTS],
    ("cli.overhead_s", "s", "wall_s, setup_s", "shipped_configs"),
    ("trace.overhead", "ratio", "none", "all"),
    *[(f"{layer}.failed", "count", "passed_ratio", "all") for layer in LAYERS],
]
UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


def pass_metrics(spans, self_s, log) -> dict:
    """Per-layer values of one traced pass, from its spans and its check log.

    spans and self_s are parallel lists holding only this pass's spans.
    measures.mc.within_3se and trace.overhead span the whole run and are
    filled in by the caller.
    """
    by = defaultdict(list)
    for span, own in zip(spans, self_s):
        by[span.name].append((span, own))

    def calls(name, **match):
        return [(s, t) for s, t in by[name] if all(s.attrs.get(k) == v for k, v in match.items())]

    def total(items, what):
        if what == "self":
            return float(sum(t for _, t in items))
        if what == "dur":
            return float(sum(s.duration for s, _ in items))
        if what == "rows":
            return int(sum(s.rows for s, _ in items))
        return int(sum(s.attrs[what] for s, _ in items))

    def rate(items):
        dur = total(items, "dur")
        return total(items, "work") / dur if dur > 0 else 0.0

    out = {}
    ibp_mc = calls("measures.ibp_residual", kind="monte_carlo")
    out["measures.mc.calls"] = len(ibp_mc)
    out["measures.mc.samples"] = total(ibp_mc, "work")
    out["measures.mc.self_s"] = total(ibp_mc, "self")
    out["measures.mc.samples_per_s"] = rate(ibp_mc)

    field_spans = []
    for cb in ("phi_eval", "phi_grad", "h_eval", "h_div"):
        items = by[f"fields.{cb}"]
        out[f"fields.{cb}.calls"] = len(items)
        field_spans += items
    out["fields.rows"] = total(field_spans, "rows")
    out["fields.s"] = total(field_spans, "dur")

    prop1 = by["flows.proposition1_check"]
    out["flows.prop1.calls"] = len(prop1)
    out["flows.prop1.mc.self_s"] = total(calls("flows.proposition1_check", kind="monte_carlo"), "self")
    out["flows.prop1.gh.self_s"] = total(calls("flows.proposition1_check", kind="gauss_hermite"), "self")

    ibp_gh = calls("measures.ibp_residual", kind="gauss_hermite")
    out["measures.gh.calls"] = len(ibp_gh)
    out["measures.gh.nodes"] = total(ibp_gh, "work")
    out["measures.gh.self_s"] = total(ibp_gh, "self")
    out["measures.gh.err_ratio"] = log.err_ratio.get("measures.gh.err_ratio", 0.0)

    fmc = by["feynman.feynman_mc"]
    out["feynman.mc.calls"] = len(fmc)
    out["feynman.mc.samples"] = total(fmc, "work")
    out["feynman.mc.self_s"] = total(fmc, "self")
    out["feynman.mc.samples_per_s"] = rate(fmc)

    eta = by["library.eta"]
    out["library.eta.calls"] = len(eta)
    out["library.eta.rows"] = total(eta, "rows")
    out["library.eta.s"] = total(eta, "dur")

    exact = by["feynman.exact_gaussian_propagator"]
    call_ms = [1e3 * s.duration for s, _ in exact] or [0.0]
    out["feynman.exact.calls"] = len(exact)
    out["feynman.exact.s"] = total(exact, "dur")
    out["feynman.exact.call_ms.p50"] = float(np.percentile(call_ms, 50))
    out["feynman.exact.call_ms.p90"] = float(np.percentile(call_ms, 90))
    out["feynman.exact.err_ratio"] = log.err_ratio.get("feynman.exact.err_ratio", 0.0)

    pde = by["feynman.pde_solve"]
    out["feynman.pde.calls"] = len(pde)
    out["feynman.pde.steps"] = total(pde, "steps")
    out["feynman.pde.s"] = total(pde, "dur")

    anomaly = by["feynman.anomaly_experiment"]
    out["feynman.anomaly.calls"] = len(anomaly)
    out["feynman.anomaly.self_s"] = total(anomaly, "self")
    family = by["library.family"]
    out["library.family.calls"] = len(family)
    out["library.family.s"] = total(family, "dur")

    f0 = by["feynman.f0"]
    out["feynman.f0.calls"] = len(f0)
    out["feynman.f0.s"] = total(f0, "dur")

    for e in EXPERIMENTS:
        out[f"cli.run.{e}.s"] = total(calls("cli.main", experiment=e), "dur")
    out["cli.overhead_s"] = total(by["cli.main"], "dur") - log.cli_wall_s

    for layer in LAYERS:
        if layer in ("fields", "library"):
            # these layers make no checked call; count their callbacks that raised
            out[f"{layer}.failed"] = sum(
                1 for s in spans if s.name.startswith(layer + ".") and not s.ok
            )
        else:
            out[f"{layer}.failed"] = log.failed.get(layer, 0)
    return out
