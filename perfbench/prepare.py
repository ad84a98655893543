"""Write the benchmark's stored inputs (untimed).

    python3 perfbench/prepare.py            # every drive temperature
    python3 perfbench/prepare.py --seed 3   # the one seed 3 selects

For each drive temperature it marches the FOM, P1, P1/3 and FLD, then VEF
on each diffusion history, checks every march, and writes
perfbench/inputs/drive<k>.npz: the FOM reference, the diffusion
temperature histories fleck_vef consumes, and the accuracy table.
"""

import argparse
import sys
from dataclasses import replace

import env

env.pin_threads()
env.use_checkout_source()

import fleck  # noqa: E402


def make_inputs(config: fleck.Config, T_drive: float) -> fleck.StoredInputs:
    problem = fleck.build(config, T_drive)
    histories = {"fom": fleck.march(problem, "fom", None)}
    for model in fleck.DIFFUSION_MODELS:
        histories[model] = fleck.march(problem, model, None)
    fom = histories["fom"]
    inputs = fleck.StoredInputs(
        signature=config.signature(),
        T_drive=T_drive,
        times=fom.times,
        T={model: h.T for model, h in histories.items()},
        fom_E=fom.E.sum(axis=1),
    )
    for model in fleck.VEF_MODELS:
        histories[model] = fleck.march(problem, model, inputs)
    problems = [p for model, h in histories.items() for p in fleck.check(model, h, inputs)]
    if problems:
        raise RuntimeError("prepared marches fail their checks: " + "; ".join(problems))
    table = {}
    for model in fleck.REDUCED_MODELS:
        table.update(fleck.accuracy(model, histories[model], inputs))
    return replace(inputs, accuracy=table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="prepare only the drive this seed selects (repeatable)")
    args = parser.parse_args(argv)
    members = sorted({fleck.drive_member(s) for s in args.seed}) if args.seed else range(len(fleck.DRIVE_TEMPERATURES))
    config = fleck.Config()
    fleck.INPUTS_DIR.mkdir(exist_ok=True)
    for member in members:
        T_drive = fleck.DRIVE_TEMPERATURES[member]
        inputs = make_inputs(config, T_drive)
        inputs.save(fleck.input_path(member))
        table = ", ".join(f"{k} {v:.4f}" for k, v in inputs.accuracy.items())
        print(f"drive{member} T_drive={T_drive}: {table}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
