"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleck_fom --seed 0 --seconds 30 --trace 0

The last line of standard output is the result object with the keys
correct, attempted, failed and metrics; the line before it records the
machine and the run's unscaled timings. --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes the last traced march's spans under
perfbench/out/. Exits non-zero without a result when the checkout has no
ddvef source or no stored inputs.
"""

import argparse
import json
import sys

import env

env.pin_threads()
env.use_checkout_source()

import bench  # noqa: E402
import fleck  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(fleck.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="import, build and load, then exit (times setup_s)")
    args = parser.parse_args(argv)

    inputs = fleck.load_inputs(fleck.Config(), args.seed)
    if args.setup_only:
        fleck.build(fleck.Config(), inputs.T_drive)
        return 0
    spans = bench.SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    result, raw = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), inputs=inputs, spans_path=spans)
    print(json.dumps({"machine": env.machine_record(), "workload": args.workload, "seed": args.seed, "run": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
