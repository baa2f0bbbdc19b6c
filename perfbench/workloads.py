"""The four benchmark workloads: inputs built from a seed, one pass each.

Every pass makes the same calls on the same inputs, checks every returned
value against an oracle and feeds it into a digest, so all passes of a run,
and all runs of one seed, must produce the same digest.

Why these four:

* mc_ibp: the Monte Carlo chunk pipeline (RNG, transform, row evaluation,
  reduce) does all the work, over identity-precision measures and a short
  Wiener measure; no Gauss-Hermite, PDE, exact or oscillatory code runs.
* cauchy_paths: the same MC layer on 64-dim Wiener paths with Lagrangian eta
  rows and two worker streams, next to one PDE solve and an exact sweep.
* shipped_configs: every configs/*.json through the CLI; the only workload
  that runs config validation, JSON/CSV writing and oscillatory_check.
* exact_oracles: deterministic checks only (exact propagator factorizations,
  PDE steps, Gauss-Hermite tensor grids, anomaly scans), which take a few
  percent of every other workload.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

import logmeasure as lm
from logmeasure.cli import main as cli_main

EUCLIDEAN = lm.WLogDerivativeMode.EUCLIDEAN
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # run records, spans and CLI output, inside the checkout


@dataclass(frozen=True)
class Oracles:
    """Pass/fail limits for every returned value."""

    mc_se: float = 5.0  # an MC estimate misses when beyond this many standard errors
    feynman_abs: float = 1e-3  # absolute slack added for feynman_mc against the exact value
    gh_ibp: float = 1e-10  # Gauss-Hermite IBP residual
    gh_prop1: float = 1e-8  # Gauss-Hermite proposition1_check residual
    prop1_abs: float = 1e-6  # absolute slack for the MC proposition1_check finite-difference error
    pde_rel_l2: float = 1e-3  # exact propagator against pde_solve, relative L2


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does."""

    ibp_samples: int
    prop1_samples: int
    feynman_samples: int
    cauchy_grid: int
    exact_1d: tuple[int, ...]  # n_steps of the dim_q = 1 sweeps
    exact_2d: tuple[int, ...]  # n_steps of the dim_q = 2 sweeps
    grid_1d: int
    gh_rules: tuple[tuple[int, int], ...]  # (dim, order)
    cli_sets: dict = field(default_factory=dict)  # config file name -> --set overrides


# One pass of each workload takes about 3 to 8 s on a 2-core x86 machine, so
# a run of the benchmark's length holds several passes.  Compared with the
# acceptance tests: MC calls use one full MC chunk (131072 rows) instead of
# a million samples, and the two slowest configs run at one probe.
FULL = Sizes(
    ibp_samples=131072,
    prop1_samples=32768,
    feynman_samples=131072,
    cauchy_grid=257,
    exact_1d=(64, 128, 256),
    exact_2d=(64, 128),
    grid_1d=257,
    gh_rules=((4, 10), (5, 8), (6, 8)),
    cli_sets={
        "oscillatory_check.json": ["parameters.q_points=[0.5]"],
        "compare_methods.json": ["parameters.probes=[[0.0]]"],
    },
)

# Seconds-long runs of every code path, for the benchmark's self-test.
TINY = Sizes(
    ibp_samples=4096,
    prop1_samples=2048,
    feynman_samples=4096,
    cauchy_grid=129,
    exact_1d=(64,),
    exact_2d=(64,),
    grid_1d=129,
    gh_rules=((3, 4),),
    cli_sets={
        "oscillatory_check.json": ["parameters.n_steps=1", "parameters.q_points=[0.5]"],
        "compare_methods.json": ["parameters.probes=[[0.0]]", "parameters.candidates.mc.n_samples=20000"],
    },
)


# ---------------------------------------------------------------------------
# checking and digesting returned values


class PassLog:
    """Checks attempted and failed in one pass, plus the digest of its values."""

    def __init__(self, oracles: Oracles) -> None:
        self.oracles = oracles
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        self.mc_z: list[float] = []  # |value| / SE of each MC ibp_residual
        self.err_ratio: dict[str, float] = {}  # worst error / tolerance per metric
        self.cli_wall_s = 0.0  # sum of the records' own wall_time_s
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def call(self, layer: str, ctx, name: str, fn: Callable, *args: Any, **attrs: Any) -> Any:
        """Make one checked call; a call that raises is a failed check and returns None."""
        self.attempted += 1
        try:
            return ctx.call(name, fn, *args, **attrs)
        except Exception as exc:  # the benchmark keeps going and counts the failure
            self.verdict(layer, False, f"{name} raised {exc!r}")
            return None

    def verdict(self, layer: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failed[layer] = self.failed.get(layer, 0) + 1
            self.errors.append(detail)

    def record(self, *values: Any) -> None:
        for v in values:
            if isinstance(v, (bytes, str)):
                self._digest.update(v.encode() if isinstance(v, str) else v)
            else:
                self._digest.update(np.asarray(np.nan if v is None else v).tobytes())

    def note_error(self, metric: str, ratio: float) -> None:
        self.err_ratio[metric] = max(self.err_ratio.get(metric, 0.0), ratio)


def _finite(*values: Any) -> bool:
    return all(v is not None and bool(np.all(np.isfinite(v))) for v in values)


def _ibp(log: PassLog, ctx, m, phi, h, spec) -> None:
    mc = spec.kind is lm.QuadratureKind.MONTE_CARLO
    work = spec.n_samples if mc else spec.n_samples**m.dim
    est = log.call("measures", ctx, "measures.ibp_residual", lm.ibp_residual, m, phi, h, spec,
                   kind=spec.kind.value, work=work)
    if est is None:
        return
    log.record(est.value, est.std_error)
    if mc:
        ok = _finite(est.value, est.std_error) and est.std_error > 0
        z = abs(est.value) / est.std_error if ok else float("inf")
        log.mc_z.append(z)
        log.verdict("measures", ok and z <= log.oracles.mc_se, f"MC ibp residual at {z:.2f} SE")
    else:
        ratio = abs(est.value) / log.oracles.gh_ibp if _finite(est.value) else float("inf")
        log.note_error("measures.gh.err_ratio", ratio)
        log.verdict("measures", ratio <= 1.0, f"GH ibp residual {est.value!r}")


def _prop1(log: PassLog, ctx, m, family, phi, spec) -> None:
    mc = spec.kind is lm.QuadratureKind.MONTE_CARLO
    out = log.call("flows", ctx, "flows.proposition1_check", lm.proposition1_check, m, family, phi, spec,
                   kind=spec.kind.value)
    if out is None:
        return
    log.record(out.lhs, out.rhs, out.residual, out.std_error)
    if mc:
        limit = log.oracles.mc_se * out.std_error + log.oracles.prop1_abs
        ok = _finite(out.residual, out.std_error) and abs(out.residual) <= limit
    else:
        ok = _finite(out.residual) and abs(out.residual) <= log.oracles.gh_prop1
    log.verdict("flows", ok, f"proposition1 residual {out.residual!r} ({spec.kind.value})")


def _exact_sweep(log: PassLog, ctx, p, lattice, probes) -> np.ndarray:
    """exact_gaussian_propagator at every probe; NaN where a call failed."""
    values = np.full(len(probes), np.nan, dtype=complex)
    for i, q in enumerate(probes):
        v = log.call("feynman", ctx, "feynman.exact_gaussian_propagator", lm.exact_gaussian_propagator,
                     p, q, lattice)
        if v is None:
            continue
        log.record(complex(v))
        log.verdict("feynman", _finite(v), f"exact propagator {v!r} at {q}")
        values[i] = v
    return values


def _pde_vs_exact(log: PassLog, ctx, p, grid, lattice, probes, pick) -> np.ndarray:
    """pde_solve on the grid, checked against the exact sweep at the probes."""
    pde = log.call("feynman", ctx, "feynman.pde_solve", lm.pde_solve, p, grid, lattice, EUCLIDEAN,
                   steps=lattice.n_steps)
    exact = _exact_sweep(log, ctx, p, lattice, probes)
    if pde is None:
        return exact
    log.record(pde.values, pde.error_estimate)
    ref = pick(pde.values)
    rel = float(np.linalg.norm(ref - exact) / np.linalg.norm(exact))
    ratio = rel / log.oracles.pde_rel_l2 if np.isfinite(rel) else float("inf")
    log.note_error("feynman.exact.err_ratio", ratio)
    log.verdict("feynman", ratio <= 1.0, f"pde vs exact relative L2 {rel!r}")
    return exact


def _anomaly(log: PassLog, ctx, family, lagrangians, lattice, n_paths, seed, flags) -> None:
    scan = partial(lm.anomaly_experiment, invariant_flags=flags, strict=False)
    report = log.call("feynman", ctx, "feynman.anomaly_experiment", scan,
                      family, lagrangians, lattice, n_paths, seed)
    if report is None:
        return
    for r in report.summand_rows:
        log.record(complex(r.eta_term), r.trace_term)
    for r in report.duality_rows:
        log.record(r.log_det, r.trace_integral)
    log.record(*[report.density_deviation[k] for k in sorted(report.density_deviation)])
    failed = [a.name for a in report.assertions if not a.passed]
    log.verdict("feynman", not failed, f"anomaly scan {report.family_label} failed {failed}")


# ---------------------------------------------------------------------------
# wrapping the callbacks handed to the program, for traced passes


def _traced_phi(tracer, phi):
    return replace(phi, evaluator=tracer.wrap("fields.phi_eval", phi.evaluator),
                   gradient=tracer.wrap("fields.phi_grad", phi.gradient))


def _traced_pair(tracer, phi, h):
    h = replace(h, eval=tracer.wrap("fields.h_eval", h.eval),
                divergence=tracer.wrap("fields.h_div", h.divergence))
    return _traced_phi(tracer, phi), h


def _traced_family(tracer, family):
    return replace(family, eval=tracer.wrap("library.family", family.eval))


def _traced_lagrangian(tracer, lagrangian):
    return replace(lagrangian, eta=tracer.wrap("library.eta", lagrangian.eta))


def _traced_problem(tracer, p):
    f0 = replace(p.f0, evaluator=tracer.wrap("feynman.f0", p.f0.evaluator))
    return replace(p, lagrangian=_traced_lagrangian(tracer, p.lagrangian), f0=f0)


# ---------------------------------------------------------------------------
# the workloads


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Workload:
    """Inputs of one workload; run_pass makes one pass through a Direct or a Tracer."""

    pass_fn: Callable
    inputs: dict
    oracles: Oracles

    def run_pass(self, ctx) -> PassLog:
        log = PassLog(self.oracles)
        self.pass_fn(self.inputs, log, ctx)
        return log


def _build_mc_ibp(seed, sizes, wrap):
    s = _seeds(seed, 16)
    mc = lambda n, k: lm.QuadratureSpec("monte_carlo", n, seed=s[k], workers=1)
    cases = [
        (lm.standard_normal(8), 4),
        (lm.wiener_measure(lm.make_lattice(16, 1.0, 1)), 4),
        (lm.standard_normal(32), 2),
    ]
    calls = []
    for m, count in cases:
        for phi, h in lm.polynomial_pairs(m.dim, count=count, seed=s[0]):
            calls.append((m, *wrap(_traced_pair, phi, h)))
    ibp = [(m, phi, h, mc(sizes.ibp_samples, 1 + i)) for i, (m, phi, h) in enumerate(calls)]
    m32 = lm.standard_normal(32)
    phi32 = wrap(_traced_phi, lm.polynomial_pairs(32, count=1, seed=s[11])[0][0])
    families = [lm.translation_family(32), lm.scaling_family(32)]
    prop1 = [(m32, wrap(_traced_family, f), phi32, mc(sizes.prop1_samples, 12 + i))
             for i, f in enumerate(families)]
    return {"ibp": ibp, "prop1": prop1}


def _pass_mc_ibp(inputs, log, ctx):
    for m, phi, h, spec in inputs["ibp"]:
        _ibp(log, ctx, m, phi, h, spec)
    for m, family, phi, spec in inputs["prop1"]:
        _prop1(log, ctx, m, family, phi, spec)


def _build_cauchy_paths(seed, sizes, wrap):
    s = _seeds(seed, 8)
    p = lm.SchrodingerProblem(1, lm.harmonic_lagrangian(1), lm.gaussian_bump(1, sigma=1.0), 0.5)
    grid = lm.SpaceGrid(1, 8.0, sizes.cauchy_grid)
    axis = grid.axis
    probes = [int(np.argmin(np.abs(axis - q))) for q in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    specs = [lm.QuadratureSpec("monte_carlo", sizes.feynman_samples, seed=s[i], workers=2)
             for i in range(len(probes))]
    return {
        "problem": wrap(_traced_problem, p),
        "grid": grid,
        "lattice": lm.make_lattice(64, 0.5, 1),
        "points": [[q] for q in axis],
        "probes": probes,
        "specs": specs,
    }


def _pass_cauchy_paths(inputs, log, ctx):
    p, grid, lattice = inputs["problem"], inputs["grid"], inputs["lattice"]
    exact = _pde_vs_exact(log, ctx, p, grid, lattice, inputs["points"], lambda v: v)
    for index, spec in zip(inputs["probes"], inputs["specs"]):
        q = inputs["points"][index]
        est = log.call("feynman", ctx, "feynman.feynman_mc", lm.feynman_mc, p, q, lattice, spec,
                       work=spec.n_samples)
        if est is None:
            continue
        log.record(est.value, est.std_error)
        ref = exact[index]
        ok = _finite(est.value, est.std_error, ref) and (
            abs(est.value - ref) <= log.oracles.mc_se * est.std_error + log.oracles.feynman_abs
        )
        log.verdict("feynman", ok, f"feynman_mc {est.value!r} against exact {ref!r} at {q}")


def _build_shipped_configs(seed, sizes, wrap):
    configs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        sets = []
        for assignment in sizes.cli_sets.get(os.path.basename(path), []):
            sets += ["--set", assignment]
        experiment = config["experiment"]
        prefix = config.get("output_path", experiment.replace("-", "_") + "_result")
        configs.append((path, experiment, prefix, sets))
    if not configs:
        raise FileNotFoundError(f"no configs/*.json under {ROOT}")
    return {"configs": configs, "seed": _seeds(seed, 1)[0] % 2**31}


def _cli_run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _pass_shipped_configs(inputs, log, ctx):
    os.makedirs(OUT_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        for path, experiment, prefix, sets in inputs["configs"]:
            argv = ["run", path, "--out", out, "--seed", str(inputs["seed"]), *sets]
            code = log.call("cli", ctx, "cli.main", _cli_run, argv, experiment=experiment)
            if code is None:
                continue
            try:
                with open(os.path.join(out, prefix + ".csv"), "rb") as fh:
                    csv_bytes = fh.read()
                with open(os.path.join(out, prefix + ".json"), encoding="utf-8") as fh:
                    log.cli_wall_s += float(json.load(fh)["wall_time_s"])
            except (OSError, KeyError, ValueError) as exc:
                log.verdict("cli", False, f"{experiment} wrote no readable result: {exc!r}")
                continue
            log.record(str(code), csv_bytes)
            log.verdict("cli", code == 0, f"{experiment} exited {code}")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _build_exact_oracles(seed, sizes, wrap):
    s = _seeds(seed, 8)
    p1 = lm.SchrodingerProblem(1, lm.harmonic_lagrangian(1), lm.gaussian_bump(1, sigma=1.0), 0.5)
    p2 = lm.SchrodingerProblem(2, lm.harmonic_lagrangian(2), lm.gaussian_bump(2, sigma=1.0), 0.5)
    g1 = lm.SpaceGrid(1, 8.0, sizes.grid_1d)
    g2 = lm.SpaceGrid(2, 8.0, 129)
    sweeps = [(wrap(_traced_problem, p1), g1, lm.make_lattice(n, 0.5, 1), [[q] for q in g1.axis],
               lambda v: v) for n in sizes.exact_1d]
    sweeps += [(wrap(_traced_problem, p2), g2, lm.make_lattice(n, 0.5, 2), [[q, q] for q in g2.axis],
                np.diagonal) for n in sizes.exact_2d]
    gh = []
    for dim, order in sizes.gh_rules:
        phi, h = lm.polynomial_pairs(dim, count=1, seed=s[0])[0]
        phi, h = wrap(_traced_pair, phi, h)
        families = [wrap(_traced_family, f) for f in (lm.scaling_family(dim), lm.shear_family(dim))]
        gh.append((lm.standard_normal(dim), phi, h, families, lm.QuadratureSpec("gauss_hermite", order)))
    lattice = lm.make_lattice(16, 1.0, 1)
    lagrangians = [wrap(_traced_lagrangian, lag) for lag in (
        lm.free_lagrangian(1), lm.harmonic_lagrangian(1, omega=1.0), lm.quartic_lagrangian(1, coupling=0.5))]
    scans = [(wrap(_traced_family, lm.scaling_family(lattice.dim)), 8, s[1])]
    sine = lm.pointwise_family(lm.sine_flow_family(1), lattice)
    scans.append((wrap(_traced_family, sine), 1, s[2]))
    return {"sweeps": sweeps, "gh": gh, "lattice": lattice, "lagrangians": lagrangians, "scans": scans}


def _pass_exact_oracles(inputs, log, ctx):
    for p, grid, lattice, probes, pick in inputs["sweeps"]:
        _pde_vs_exact(log, ctx, p, grid, lattice, probes, pick)
    for m, phi, h, families, spec in inputs["gh"]:
        _ibp(log, ctx, m, phi, h, spec)
        for family in families:
            _prop1(log, ctx, m, family, phi, spec)
    for family, n_paths, seed in inputs["scans"]:
        _anomaly(log, ctx, family, inputs["lagrangians"], inputs["lattice"], n_paths, seed,
                 [True, False, False])


_WORKLOADS = {
    "mc_ibp": (_build_mc_ibp, _pass_mc_ibp),
    "cauchy_paths": (_build_cauchy_paths, _pass_cauchy_paths),
    "shipped_configs": (_build_shipped_configs, _pass_shipped_configs),
    "exact_oracles": (_build_exact_oracles, _pass_exact_oracles),
}


def build(name: str, seed: int, sizes: Sizes = FULL, oracles: Oracles = Oracles(),
          tracer: Optional[Any] = None) -> Workload:
    """Build a workload's inputs; with a tracer, its callbacks record spans."""

    def wrap(fn, *objs):
        if tracer is None:
            return objs[0] if len(objs) == 1 else objs
        return fn(tracer, *objs)

    build_fn, pass_fn = _WORKLOADS[name]
    return Workload(pass_fn, build_fn(seed, sizes, wrap), oracles)
