"""Run one benchmark workload of qnnff and print its metrics.

    python3 benchmarks/run.py --workload lih --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the layer functions
are wrapped from outside and it holds the per-layer metrics instead.
Results and traces are also written under ``benchmarks/out/``.
"""

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

def _pin_blas_threads() -> None:
    """One BLAS thread: the matrices here are at most d x d (d <= 156), where
    a second thread only adds hand-off cost.  Must run before numpy is
    imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="lih, h3o or h2o-forces")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qnnff", "__init__.py")):
        print(f"error: no qnnff sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [SRC, HERE]

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
        tracer.install_counters()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, tracer)
    except Exception:
        traceback.print_exc()
        return 1

    units = dict(workloads.E2E)
    e2e = {k: {"value": v, "unit": units[k]} for k, v in result.e2e.items()}
    metrics = tracer.per_layer(result.rounds, result.setups) if args.trace else e2e
    summary = {"correct": not result.problems, "attempted": result.attempted,
               "failed": result.failed, "metrics": metrics}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**summary, "rounds": result.rounds, "problems": result.problems,
                   "end_to_end": e2e, "samples": result.samples}, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": result.rounds, "setups": result.setups,
                      "end_to_end_traced": e2e})

    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {result.rounds} rounds, "
          f"{result.attempted} operations attempted, {result.failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
