"""The heap policy the package sets at import (ddvef's module docstring).

Under glibc's starting policy every sparse moment solve and every large
sweep maps its workspace afresh and faults it in; with the policy the
freed heap is reused, so repeated calls add next to no minor page faults.
"""

import ctypes
import importlib
from types import SimpleNamespace

import numpy as np
import pytest

import ddvef
from ddvef.diffusion import DiffusionProblem, MomentSystem, diffusion_step, standard_boundaries
from ddvef.grid import SpatialMesh, build_angular_quadrature, build_frequency_grid
from ddvef.history import initial_moment_state
from ddvef.physics import DEFAULT_CONSTANTS, InverseCubeMaterial, MaterialEOS, benchmark_cv
from ddvef.transport import planckian_inflow, sweep, sweep_step

resource = pytest.importorskip("resource")


def c_library_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


needs_mallopt = pytest.mark.skipif(not c_library_has_mallopt(), reason="the C library has no mallopt")


def faults_of_repeats(call, repeats=10) -> int:
    """Minor page faults that repeats calls of call add after one warm-up call."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@needs_mallopt
def test_repeated_moment_solves_reuse_the_heap(monkeypatch):
    # The benchmark's system, 8 x 8 cells and 17 groups, as the last pass of
    # a P1 step hands it over. Under glibc's starting policy its 10 solves
    # add about 780 faults.
    fgrid = build_frequency_grid()
    problem = DiffusionProblem(
        SpatialMesh(8, 8, 6.0, 6.0), fgrid, InverseCubeMaterial(fgrid), MaterialEOS(benchmark_cv(1.0)),
        standard_boundaries(1.0),
    )
    passes, solve = [], MomentSystem.solve
    monkeypatch.setattr(MomentSystem, "solve", lambda self, *args: passes.append((self, args)) or solve(self, *args))
    diffusion_step(problem, initial_moment_state(problem, 1e-3), 0.02, "p1")
    system, args = passes[-1]
    assert faults_of_repeats(lambda: solve(system, *args)) < 10


@needs_mallopt
def test_repeated_sweeps_reuse_the_heap():
    # 20 x 20 cells with the 4 x 36 rule. Under glibc's starting policy its
    # 10 sweeps add about 38,000 faults.
    mesh, quad, fgrid = SpatialMesh(20, 20, 6.0, 6.0), build_angular_quadrature(4, 36), build_frequency_grid()
    psi_prev = np.zeros((4, mesh.ny, mesh.nx, quad.octants[0][2].size, fgrid.n_groups))
    step = sweep_step(mesh, quad, psi_prev, 0.02, planckian_inflow(fgrid, 1.0))
    kappa, _, B, _ = InverseCubeMaterial(fgrid).emission_terms(np.full((mesh.ny, mesh.nx), 0.5), DEFAULT_CONSTANTS)
    assert faults_of_repeats(lambda: sweep(mesh, quad, kappa, kappa * B, step)) < 10


def test_import_sets_glibc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    importlib.reload(ddvef)
    # M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB.
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def unopenable(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(), unopenable], ids=["no-mallopt", "no-library"])
def test_import_without_mallopt_is_a_no_op(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert importlib.reload(ddvef).__version__ == "0.1.0"
