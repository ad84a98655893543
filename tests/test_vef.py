"""Invariants of the data-driven VEF model on a small driven problem."""

from dataclasses import fields, replace

import numpy as np
import pytest

from ddvef.diffusion import DiffusionProblem, run_diffusion_model, standard_boundaries
from ddvef.errors import ConfigError
from ddvef.grid import SpatialMesh, build_angular_quadrature, build_frequency_grid
from ddvef.physics import InverseCubeMaterial, MaterialEOS, benchmark_cv
from ddvef.transport import TransportProblem, planckian_inflow, run_fom
from ddvef.vef import (
    BoundaryDrive,
    ClosureRecord,
    VefProblem,
    fused_pipeline,
    isotropic_closure,
    offline_phase,
    online_phase,
)

T_COLD = 1.0e-3
T_DRIVE = 1.0
DT = 2.0**-6  # ns; a binary step keeps the data grid's differences exact, so dt matches a fixed-step march
N_STEPS = 3


@pytest.fixture(scope="module")
def problem():
    fgrid = build_frequency_grid()
    return TransportProblem(
        SpatialMesh(5, 5, 6.0, 6.0), build_angular_quadrature(2, 4), fgrid,
        InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0)), planckian_inflow(fgrid, T_DRIVE),
    )


@pytest.fixture(scope="module")
def fom(problem):
    return run_fom(problem, T_COLD, DT, N_STEPS)


def relative_error(values, reference):
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def test_fused_vef_on_fom_temperatures_reproduces_the_fom(problem, fom):
    vef = fused_pipeline(problem, fom)
    assert relative_error(vef.T, fom.T) <= 1.0e-8
    assert relative_error(vef.E, fom.E) <= 1.0e-8
    assert max(d.balance_residual for d in vef.diagnostics) <= 1.0e-8


def test_offline_then_online_equals_fused_bitwise(problem, fom):
    fused = fused_pipeline(problem, fom)
    dataset = offline_phase(problem, fom)
    online = online_phase(VefProblem.from_transport(problem), dataset, fom.T[0])
    for name in ("times", "T", "E", "Fx", "Fy"):
        np.testing.assert_array_equal(getattr(online, name), getattr(fused, name))


def test_isotropic_closure_is_p1(problem):
    times = DT * np.arange(1, N_STEPS + 1)
    G = problem.fgrid.n_groups
    dataset = isotropic_closure(problem.mesh, G, 0.0, times, BoundaryDrive.planckian(problem.fgrid, T_DRIVE))
    vef = online_phase(VefProblem.from_transport(problem), dataset, T_COLD)
    diffusion = DiffusionProblem(problem.mesh, problem.fgrid, problem.material, problem.eos, standard_boundaries(T_DRIVE))
    p1 = run_diffusion_model(diffusion, "p1", T_COLD, DT, N_STEPS)
    np.testing.assert_allclose(vef.times, p1.times, rtol=1e-15)
    assert relative_error(vef.T, p1.T) <= 1.0e-12
    assert relative_error(vef.E, p1.E) <= 1.0e-12


@pytest.mark.parametrize("name", [f.name for f in fields(ClosureRecord)])
def test_validate_rejects_a_wrong_shaped_field(problem, name):
    mesh, G = problem.mesh, problem.fgrid.n_groups
    dataset = isotropic_closure(mesh, G, 0.0, [DT, 2 * DT], BoundaryDrive.planckian(problem.fgrid, T_DRIVE))
    dataset.validate(mesh, G)
    bad = np.zeros(getattr(dataset.stack, name).shape[:-1] + (1,))
    broken = replace(dataset, stack=replace(dataset.stack, **{name: bad}))
    with pytest.raises(ConfigError, match=name):
        broken.validate(mesh, G)


def test_records_keep_every_field(problem):
    dataset = isotropic_closure(problem.mesh, problem.fgrid.n_groups, 0.0, [DT, 2 * DT], BoundaryDrive.planckian(problem.fgrid, T_DRIVE))
    record = dataset.record(1)
    for f in fields(ClosureRecord):
        np.testing.assert_array_equal(getattr(record, f.name), getattr(dataset.stack, f.name)[1])
    np.testing.assert_array_equal(record.eta, 1.0)
