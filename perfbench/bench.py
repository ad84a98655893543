"""Workload runs and their metrics; run.py is the command-line entry point.

An untraced run (trace 0) reports the end-to-end metrics: set-up time,
the median wall time of marching every model of the workload, peak
memory, the share of marches that pass their output checks, and the
accuracy table against the FOM. A traced run (trace 1) alternates
untraced and traced marches and reports per-layer metrics from the traced
ones, plus the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import fleck
from speed import REFERENCE_SECONDS, ReferenceKernel
from tracer import PICARD_PASS, Tracer, TracedMaterial, self_times

RUN_SCRIPT = Path(__file__).resolve().with_name("run.py")
SPANS_DIR = Path(__file__).resolve().parent / "out"

#: Child processes timed per untraced run for setup_s; their median is
#: reported, since one start-up reading swings with the page cache.
SETUP_REPEATS = 5

ACCURACY = tuple(f"{kind}.{model}" for kind in ("T_err", "E_err") for model in fleck.REDUCED_MODELS)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    **{name: "rel" for name in ACCURACY},
}

PER_LAYER = {
    "transport.sweep.calls": "count",
    "transport.sweep.s": "s",
    "transport.sweep.updates_per_s": "1/s",
    "transport.sweeps_per_step": "1/step",
    "transport.step.self_s": "s",
    "transport.model_s.fom": "s",
    "transport.picard_passes.fom": "count",
    "transport.balance_max.fom": "rel",
    "physics.emission_terms.calls": "count",
    "physics.emission_terms.s": "s",
    "physics.emission_terms.cellgroups_per_s": "1/s",
    "physics.update_temperature.calls": "count",
    "physics.update_temperature.self_s": "s",
    "physics.newton_iters": "count",
    "diffusion.spsolve.calls": "count",
    "diffusion.spsolve.s": "s",
    "diffusion.step.self_s": "s",
    **{f"diffusion.{kind}.{m}": unit for kind, unit in (("model_s", "s"), ("picard_passes", "count"), ("balance_max", "rel")) for m in fleck.DIFFUSION_MODELS},
    "vef.spsolve.calls": "count",
    "vef.spsolve.s": "s",
    "vef.step.self_s": "s",
    "vef.closure_from_sweep.s": "s",
    **{f"vef.{kind}.{m}": unit for kind, unit in (("model_s", "s"), ("picard_passes", "count"), ("balance_max", "rel")) for m in ("p1", "p13", "fld", "fom")},
    "vef.fom_consistency_T_err": "rel",
    "iteration.fixed_point_solve.calls": "count",
    "iteration.fixed_point_solve.self_s": "s",
    "iteration.fixed_point_solve.passes": "count",
    "iteration.anderson.propose.calls": "count",
    "iteration.anderson.propose.s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

#: Layer each stepper belongs to; a span's nearest enclosing step decides
#: whose spsolve and whose assembly it is.
_STEPS = {"fom_step": "transport", "diffusion_step": "diffusion", "vef_step": "vef"}


def _model_key(model: str) -> tuple[str, str]:
    """Layer and metric suffix of a model, e.g. vef_p1 -> ("vef", "p1")."""
    if model.startswith("vef_"):
        return "vef", model[4:]
    return ("transport" if model == "fom" else "diffusion"), model


@dataclass
class Rep:
    """One march of every model of a workload.

    walls[m] is model m's march time, without its output check; refs[m]
    is the reference kernel's time measured just before that march.
    """

    walls: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    histories: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)  # model -> problems found

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def run_models(problem: fleck.Fleck, inputs: fleck.StoredInputs, models, tracer: Tracer | None = None, kernel: ReferenceKernel | None = None) -> Rep:
    """March each model and check its output; failures are recorded, not raised."""
    rep = Rep()
    for model in models:
        if kernel is not None:
            rep.refs[model] = kernel.seconds()
        start = time.perf_counter()
        try:
            with tracer.span(f"model.{model}") if tracer else nullcontext():
                history = fleck.march(problem, model, inputs)
        except Exception:  # a failed march is a measured outcome
            rep.walls[model] = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            rep.failed[model] = ["raised"]
            continue
        rep.walls[model] = time.perf_counter() - start
        problems = fleck.check(model, history, inputs)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            rep.failed[model] = problems
        else:
            rep.histories[model] = history
    return rep


def traced_models(problem: fleck.Fleck, inputs, models) -> tuple[Rep, Tracer]:
    tracer = Tracer()
    traced = problem.with_material(TracedMaterial(problem.transport.material, tracer))
    with tracer.installed():
        rep = run_models(traced, inputs, models, tracer)
    return rep, tracer


def repeat(seconds: float, body) -> list:
    """Call body() until the next call would end past `seconds`; at least once."""
    start = time.perf_counter()
    results = []
    while True:
        t = time.perf_counter()
        results.append(body())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return results


def time_setup(workload: str, seed: int, repeats: int, kernel: ReferenceKernel) -> list[tuple[float, float]]:
    """(wall time, reference kernel time) of processes that import, build and load, then exit."""
    cmd = [sys.executable, str(RUN_SCRIPT), "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(repeats):
        ref = kernel.seconds()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append((time.perf_counter() - start, ref))
    return samples


def at_reference_speed(samples) -> float:
    """Median of wall times, each rescaled by the kernel time measured beside it.

    The result is the time the work would take where the reference kernel
    takes REFERENCE_SECONDS, which removes the machine's drift in speed.
    """
    return statistics.median(wall * REFERENCE_SECONDS / ref for wall, ref in samples)


def end_to_end(workload: str, seed: int, seconds: float, problem, inputs, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, int, int, dict]:
    models = fleck.WORKLOADS[workload]
    kernel = ReferenceKernel()
    setup = time_setup(workload, seed, setup_repeats, kernel)
    reps = repeat(seconds, lambda: run_models(problem, inputs, models, kernel=kernel))
    attempted = len(reps) * len(models)
    failed = sum(len(rep.failed) for rep in reps)

    # Models this workload does not march keep the value the prepare step
    # stored; the marched ones are measured afresh (deterministic, so the
    # first passing march stands for all).
    acc = {name: inputs.accuracy[name] for name in ACCURACY}
    for model in models:
        history = next((rep.histories[model] for rep in reps if model in rep.histories), None)
        if history is not None and model in fleck.REDUCED_MODELS:
            acc.update(fleck.accuracy(model, history, inputs))

    timed = reps[1:] or reps  # the first march fills caches and finishes lazy set-up
    values = {
        "setup_s": at_reference_speed(setup),
        "wall_s": sum(at_reference_speed([(rep.walls[m], rep.refs[m]) for rep in timed]) for m in models),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (attempted - failed) / attempted,
        **acc,
    }
    raw = {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "wall_s": statistics.median(rep.wall for rep in timed),
        "reference_kernel_s": statistics.median([ref for _, ref in setup] + [r for rep in reps for r in rep.refs.values()]),
        "marches": len(reps),
    }
    return values, attempted, failed, raw


def layer_metrics(tracer: Tracer, rep: Rep, models, config: fleck.Config, inputs) -> dict:
    """Per-layer metrics of one traced march (all of PER_LAYER but trace.*)."""
    spans = tracer.spans
    own = self_times(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    # nearest enclosing step (fom_step, diffusion_step or vef_step) of each span
    step: list = []
    for name, _, _, parent in spans:
        step.append(name if name in _STEPS else (step[parent] if parent is not None else None))

    def total(values, pick):
        return sum(v for i, v in enumerate(values) if pick(i))

    def named(name):
        return lambda i: names[i] == name

    m = {key: 0 for key in PER_LAYER}
    sweep_s = total(dur, named("sweep"))
    emission_s = total(dur, named("emission_terms"))
    m.update({
        "transport.sweep.calls": names.count("sweep"),
        "transport.sweep.s": sweep_s,
        "transport.sweep.updates_per_s": tracer.counts["sweep.updates"] / sweep_s if sweep_s else 0.0,
        "physics.emission_terms.calls": names.count("emission_terms"),
        "physics.emission_terms.s": emission_s,
        "physics.emission_terms.cellgroups_per_s": tracer.counts["emission.cellgroups"] / emission_s if emission_s else 0.0,
        "physics.update_temperature.calls": names.count("update_temperature"),
        "physics.update_temperature.self_s": total(own, named("update_temperature")),
        "physics.newton_iters": sum(1 for i, n in enumerate(names) if n == "emission_terms" and names[spans[i][3]] == "update_temperature"),
        "vef.closure_from_sweep.s": total(dur, named("closure_from_sweep")),
        "iteration.fixed_point_solve.calls": names.count("fixed_point_solve"),
        "iteration.fixed_point_solve.self_s": total(own, named("fixed_point_solve")),
        "iteration.fixed_point_solve.passes": names.count(PICARD_PASS),
        "iteration.anderson.propose.calls": names.count("anderson.propose"),
        "iteration.anderson.propose.s": total(dur, named("anderson.propose")),
    })
    for step_name, layer in _STEPS.items():
        m[f"{layer}.step.self_s"] = total(own, lambda i: step[i] == step_name and names[i] in (step_name, PICARD_PASS))
        if layer != "transport":
            in_step = lambda i: names[i] == "spsolve" and step[i] == step_name  # noqa: E731
            m[f"{layer}.spsolve.calls"] = sum(1 for i in range(len(spans)) if in_step(i))
            m[f"{layer}.spsolve.s"] = total(dur, in_step)

    swept_steps = config.n_steps * sum(1 for model in models if model == "fom" or model.startswith("vef_"))
    m["transport.sweeps_per_step"] = m["transport.sweep.calls"] / swept_steps if swept_steps else 0.0
    for model in models:
        layer, key = _model_key(model)
        m[f"{layer}.model_s.{key}"] = total(dur, named(f"model.{model}"))
        history = rep.histories.get(model)
        if history is not None:
            m[f"{layer}.picard_passes.{key}"] = fleck.picard_passes(history)
            m[f"{layer}.balance_max.{key}"] = fleck.balance_max(history)
    if "vef_fom" in rep.histories:
        m["vef.fom_consistency_T_err"] = fleck.accuracy("vef_fom", rep.histories["vef_fom"], inputs)["T_err.vef_fom"]
    return m


def per_layer(workload: str, seed: int, seconds: float, problem, inputs, spans_path: Path | None = None) -> tuple[dict, int, int, dict]:
    """Alternate untraced and traced marches; per-layer medians of the traced ones."""
    models = fleck.WORKLOADS[workload]

    def pair():
        plain = run_models(problem, inputs, models)
        start = time.perf_counter()
        rep, tracer = traced_models(problem, inputs, models)
        return plain, rep, tracer, time.perf_counter() - start

    pairs = repeat(seconds, pair)
    rows = [layer_metrics(tracer, rep, models, problem.config, inputs) for _, rep, tracer, _ in pairs]
    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    plain_wall = statistics.median(plain.wall for plain, _, _, _ in pairs)
    traced_wall = statistics.median(rep.wall for _, rep, _, _ in pairs)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    # whole traced loop, checks and patching included
    values["trace.coverage_frac"] = statistics.median(
        sum(s[2] - s[1] for s in tracer.spans if s[3] is None) / loop for _, _, tracer, loop in pairs
    )
    if spans_path is not None:
        pairs[-1][2].write(spans_path)
    attempted = 2 * len(pairs) * len(models)
    failed = sum(len(plain.failed) + len(rep.failed) for plain, rep, _, _ in pairs)
    return values, attempted, failed, {"pairs": len(pairs), "wall_s": plain_wall, "traced_wall_s": traced_wall}


def measure(workload: str, seed: int, seconds: float, trace: bool, config: fleck.Config = fleck.Config(), inputs=None, setup_repeats: int = SETUP_REPEATS, spans_path: Path | None = None) -> dict:
    """One benchmark run: (result object, run record with unscaled timings).

    run.py prints the result as its last line.
    """
    if workload not in fleck.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {sorted(fleck.WORKLOADS)}")
    if inputs is None:
        inputs = fleck.load_inputs(config, seed)
    problem = fleck.build(config, inputs.T_drive)
    if trace:
        values, attempted, failed, raw = per_layer(workload, seed, seconds, problem, inputs, spans_path)
        units = PER_LAYER
    else:
        values, attempted, failed, raw = end_to_end(workload, seed, seconds, problem, inputs, setup_repeats)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, raw
