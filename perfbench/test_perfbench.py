"""Tests of the benchmark itself, on a tiny mesh.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import bench
import fleck
from ddvef import transport
from prepare import make_inputs
from tracer import Tracer, self_times

TINY = fleck.Config(cells=3, n_polar=2, n_azimuthal=4, n_steps=2)
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny():
    inputs = make_inputs(TINY, fleck.DRIVE_TEMPERATURES[0])
    return fleck.build(TINY, inputs.T_drive), inputs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(tiny, workload, trace, section):
    result, _ = bench.measure(workload, 0, 0.0, trace, config=TINY, inputs=tiny[1], setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(np.isfinite(v["value"]) for v in metrics.values())
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


def test_layers_a_workload_bypasses_read_zero(tiny):
    def traced(workload):
        metrics = bench.measure(workload, 0, 0.0, True, config=TINY, inputs=tiny[1])[0]["metrics"]
        return {k: v["value"] for k, v in metrics.items()}

    diffusion, fom, vef = traced("fleck_diffusion"), traced("fleck_fom"), traced("fleck_vef")
    assert diffusion["transport.sweep.calls"] == 0
    assert diffusion["diffusion.spsolve.calls"] > 0 and diffusion["vef.spsolve.calls"] == 0
    assert fom["diffusion.spsolve.calls"] == fom["vef.spsolve.calls"] == 0
    # every Picard pass of the FOM sweeps once; the VEF sweeps once per step
    assert fom["transport.sweep.calls"] == fom["iteration.fixed_point_solve.passes"] > 0
    assert vef["transport.sweeps_per_step"] == 1.0
    assert vef["vef.spsolve.calls"] > 0 and vef["diffusion.spsolve.calls"] == 0
    assert vef["vef.fom_consistency_T_err"] > 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a1", 1.5, 2.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b1", 5.0, 6.0, 3],
        ["b2", 7.0, 8.5, 3],
        ["c", 20.0, 25.0, None],
        ["c1", 19.0, 22.0, 6],   # starts before its parent: clipped
        ["c2", 21.0, 23.0, 6],   # overlaps c1: counted once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 1.5, 1.0, 1.5, 2.0, 3.0, 2.0])


def test_spans_nest_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: None)()
        with tracer.span("second"):
            pass
    assert tracer.spans == [["outer", 0.0, 5.0, None], ["inner", 1.0, 2.0, 0], ["second", 3.0, 4.0, 0]]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


@pytest.mark.parametrize("workload", sorted(fleck.WORKLOADS))
def test_traced_and_untraced_marches_are_bitwise_equal(tiny, workload):
    problem, inputs = tiny
    models = fleck.WORKLOADS[workload]
    original = transport.sweep
    plain = bench.run_models(problem, inputs, models)
    traced, tracer = bench.traced_models(problem, inputs, models)
    assert transport.sweep is original  # patches are undone
    assert not plain.failed and not traced.failed
    for model in models:
        assert np.array_equal(plain.histories[model].T, traced.histories[model].T)
        assert np.array_equal(plain.histories[model].E, traced.histories[model].E)
    top = [s[0] for s in tracer.spans if s[3] is None]
    assert top == [f"model.{m}" for m in models]


def test_fom_check_rejects_a_perturbed_reference(tiny):
    problem, inputs = tiny
    history = fleck.march(problem, "fom", inputs)
    assert fleck.check("fom", history, inputs) == []
    T = dict(inputs.T, fom=inputs.T["fom"] * (1.0 + 1.0e-6))
    problems = fleck.check("fom", history, fleck.StoredInputs(inputs.signature, inputs.T_drive, inputs.times, T, inputs.fom_E))
    assert problems and "stored reference" in problems[0]


def test_stored_inputs_round_trip(tiny, tmp_path):
    inputs = tiny[1]
    inputs.save(tmp_path / "x.npz")
    back = fleck.StoredInputs.load(tmp_path / "x.npz")
    assert back.T_drive == inputs.T_drive and back.accuracy == inputs.accuracy
    assert set(back.T) == {"fom", "p1", "p13", "fld"}
    assert all(np.array_equal(back.T[k], inputs.T[k]) for k in back.T)
    assert np.array_equal(back.fom_E, inputs.fom_E) and np.array_equal(back.signature, inputs.signature)


def test_reference_speed_scales_each_sample_by_its_own_kernel_time():
    scale = bench.REFERENCE_SECONDS
    samples = [(2.0, 0.5 * scale), (1.0, 0.25 * scale), (3.0, 0.5 * scale)]
    assert bench.at_reference_speed(samples) == pytest.approx(4.0)
