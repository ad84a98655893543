"""The Fleck–Cummings-type problem the benchmark marches, and its output checks.

A 6 x 6 cm square of the 17-group inverse-cube material with heat capacity
benchmark_cv(1.0) starts cold at 1e-3 KeV and is driven by a Planckian
inflow on its left side, with vacuum on the other three. Every model runs
the same backward-Euler time grid, and the reduced models are judged
against the discrete-ordinates full-order model (FOM) on it.

The stored inputs of one drive temperature hold what the prepare step
computed with the same code: the FOM reference (material T and
group-summed radiation energy at every level), the P1, P1/3 and FLD
temperature histories that feed the data-driven VEF runs, and the
accuracy table of every reduced model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ddvef.diffusion import DiffusionProblem, run_diffusion_model, standard_boundaries
from ddvef.grid import SpatialMesh, build_angular_quadrature, build_frequency_grid
from ddvef.history import SolutionHistory
from ddvef.physics import InverseCubeMaterial, MaterialEOS, benchmark_cv
from ddvef.transport import TransportProblem, planckian_inflow, run_fom
from ddvef.vef import fused_pipeline

INPUTS_DIR = Path(__file__).resolve().parent / "inputs"

LENGTH_CM = 6.0
T_COLD = 1.0e-3  # KeV
HEAT_CAPACITY = benchmark_cv(1.0)

#: The seed selects one drive temperature [KeV] of this family, member
#: seed mod 8. Seed 0 is the nominal 1 KeV drive; the others stay within
#: 3 % of it, which varies the data without leaving the problem's regime.
DRIVE_TEMPERATURES = (1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.015)

DIFFUSION_MODELS = ("p1", "p13", "fld")
VEF_MODELS = ("vef_p1", "vef_p13", "vef_fld")
REDUCED_MODELS = DIFFUSION_MODELS + VEF_MODELS

#: The models each workload marches, in order.
WORKLOADS = {
    "fleck_fom": ("fom",),
    "fleck_diffusion": DIFFUSION_MODELS,
    "fleck_vef": VEF_MODELS + ("vef_fom",),
}

#: The FOM stops its coupling iteration at a relative change of 1e-10, so
#: a converged FOM may differ from the stored one by a small multiple of
#: that; any larger relative L2 difference at any level fails the check.
FOM_RTOL = 1.0e-8

#: Largest normalised defect of the global energy budget a step may show.
#: Every model's budget telescopes exactly once its coupling converges,
#: which leaves about 1e-10 here.
BALANCE_TOL = 1.0e-7


@dataclass(frozen=True)
class Config:
    """Discretisation of the benchmark problem."""

    cells: int = 8          # per axis
    n_polar: int = 2
    n_azimuthal: int = 8    # directions = n_polar * n_azimuthal
    n_steps: int = 4
    dt: float = 0.02        # ns

    def signature(self) -> np.ndarray:
        return np.array([self.cells, self.n_polar, self.n_azimuthal, self.n_steps, self.dt], dtype=float)


@dataclass(frozen=True)
class Fleck:
    """The transport and moment-model problems of one drive temperature."""

    config: Config
    transport: TransportProblem
    diffusion: DiffusionProblem

    def with_material(self, material) -> "Fleck":
        return replace(
            self,
            transport=replace(self.transport, material=material),
            diffusion=replace(self.diffusion, material=material),
        )


def build(config: Config, T_drive: float) -> Fleck:
    fgrid = build_frequency_grid()
    mesh = SpatialMesh(config.cells, config.cells, LENGTH_CM, LENGTH_CM)
    quad = build_angular_quadrature(config.n_polar, config.n_azimuthal)
    material = InverseCubeMaterial(fgrid)
    eos = MaterialEOS(HEAT_CAPACITY)
    return Fleck(
        config,
        TransportProblem(mesh, quad, fgrid, material, eos, planckian_inflow(fgrid, T_drive)),
        DiffusionProblem(mesh, fgrid, material, eos, standard_boundaries(T_drive)),
    )


@dataclass(frozen=True)
class TemperatureData:
    """Temperature history in the form fused_pipeline consumes."""

    times: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class StoredInputs:
    """Prepared data of one drive temperature (see the module docstring).

    T maps "fom", "p1", "p13" and "fld" to (levels, ny, nx) histories;
    fom_E is the FOM's group-summed radiation energy on the same levels;
    accuracy maps each "T_err.<model>" and "E_err.<model>" to its value.
    """

    signature: np.ndarray
    T_drive: float
    times: np.ndarray
    T: dict
    fom_E: np.ndarray
    accuracy: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        arrays = {"signature": self.signature, "T_drive": np.array(self.T_drive), "times": self.times, "fom_E": self.fom_E}
        arrays.update({f"T.{k}": v for k, v in self.T.items()})
        arrays.update({f"accuracy.{k}": np.array(v) for k, v in self.accuracy.items()})
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)

    @classmethod
    def load(cls, path: Path) -> "StoredInputs":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                signature=data["signature"],
                T_drive=float(data["T_drive"]),
                times=data["times"],
                T={k[2:]: data[k] for k in data.files if k.startswith("T.")},
                fom_E=data["fom_E"],
                accuracy={k[9:]: float(data[k]) for k in data.files if k.startswith("accuracy.")},
            )


def drive_member(seed: int) -> int:
    return seed % len(DRIVE_TEMPERATURES)


def input_path(member: int) -> Path:
    return INPUTS_DIR / f"drive{member}.npz"


def load_inputs(config: Config, seed: int) -> StoredInputs:
    """Stored inputs of the seed's drive temperature, checked against config."""
    inputs = StoredInputs.load(input_path(drive_member(seed)))
    if not np.array_equal(inputs.signature, config.signature()):
        raise ValueError(f"stored inputs were prepared for {inputs.signature}, not {config.signature()}")
    return inputs


def march(fleck: Fleck, model: str, inputs: StoredInputs | None) -> SolutionHistory:
    """Run one model over the benchmark's time grid from the cold start.

    A VEF model "vef_<source>" runs the fused pipeline on the stored
    temperature history of <source>.
    """
    cfg = fleck.config
    if model == "fom":
        return run_fom(fleck.transport, T_COLD, cfg.dt, cfg.n_steps)
    if model in DIFFUSION_MODELS:
        return run_diffusion_model(fleck.diffusion, model, T_COLD, cfg.dt, cfg.n_steps)
    source = model.removeprefix("vef_")
    return fused_pipeline(fleck.transport, TemperatureData(inputs.times, inputs.T[source]), label=model)


def relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest relative L2 difference over the time levels (leading axis)."""
    n = values.shape[0]
    diff = np.linalg.norm((values - reference).reshape(n, -1), axis=1)
    ref = np.linalg.norm(reference.reshape(n, -1), axis=1)
    return float(np.max(diff / ref))


def accuracy(model: str, history: SolutionHistory, inputs: StoredInputs) -> dict:
    """T_err and E_err of one model against the stored FOM reference."""
    return {
        f"T_err.{model}": relative_error(history.T, inputs.T["fom"]),
        f"E_err.{model}": relative_error(history.E.sum(axis=1), inputs.fom_E),
    }


def balance_max(history: SolutionHistory) -> float:
    return max(d.balance_residual for d in history.diagnostics)


def picard_passes(history: SolutionHistory) -> int:
    return sum(d.picard_iterations for d in history.diagnostics)


def check(model: str, history: SolutionHistory, inputs: StoredInputs) -> list[str]:
    """Problems found in one march's output; empty when it passes."""
    if history.T.shape != inputs.T["fom"].shape or not np.array_equal(history.times, inputs.times):
        return [f"{model}: time levels or shape differ from the stored reference"]
    problems = []
    if not (np.all(np.isfinite(history.T)) and np.all(history.T > 0.0) and np.all(np.isfinite(history.E))):
        problems.append(f"{model}: non-finite or non-positive state")
    balance = balance_max(history)
    if not balance <= BALANCE_TOL:
        problems.append(f"{model}: energy balance defect {balance:.3e} > {BALANCE_TOL:.0e}")
    if model == "fom":
        for name, values, reference in (("T", history.T, inputs.T["fom"]), ("E", history.E.sum(axis=1), inputs.fom_E)):
            err = relative_error(values, reference)
            if not err <= FOM_RTOL:
                problems.append(f"fom: {name} differs from the stored reference by {err:.3e} > {FOM_RTOL:.0e}")
    return problems
